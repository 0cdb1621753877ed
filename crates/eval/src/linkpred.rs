//! Link prediction: the held-out edge ranking protocol.
//!
//! Following PyTorch-BigGraph (and Section 5.3 of the paper): a fraction
//! of edges is removed from the training graph; after embedding, each
//! held-out positive `(u, v)` is scored by the dot product of its endpoint
//! embeddings and ranked against `num_negatives` corrupted edges
//! `(u, v')` with uniformly resampled targets. Reported metrics: MR
//! (mean rank), MRR (mean reciprocal rank), HITS@K, plus ROC-AUC over
//! positive/negative scores for the GraphVite comparison (Section 5.2.2).

use lightne_graph::{Graph, GraphBuilder, GraphOps, VertexId};
use lightne_linalg::DenseMatrix;
use lightne_utils::rng::XorShiftStream;
use rayon::prelude::*;

/// Ranking metrics of a link-prediction run.
#[derive(Debug, Clone)]
pub struct LinkPredMetrics {
    /// Mean rank of the positive among its negatives (1 = best).
    pub mr: f64,
    /// Mean reciprocal rank.
    pub mrr: f64,
    /// `(K, HITS@K)` pairs in the order requested.
    pub hits: Vec<(usize, f64)>,
    /// ROC-AUC over positive vs negative scores.
    pub auc: f64,
}

/// Removes ~`holdout · m` edges from `g`, returning the training graph
/// and the held-out positives. Edges whose removal would isolate an
/// endpoint (degree 1) are kept in training, matching the usual protocol.
///
/// Generic over [`GraphOps`] so the split is taken identically on the
/// CSR and compressed backends: every backend visits
/// each vertex's neighbours in the same ascending order, and the single
/// sequential RNG consumes one coin per undirected edge in that order.
pub fn split_edges<G: GraphOps>(
    g: &G,
    holdout: f64,
    seed: u64,
) -> (Graph, Vec<(VertexId, VertexId)>) {
    assert!(holdout > 0.0 && holdout < 1.0);
    let mut rng = XorShiftStream::new(seed, 0);
    let mut held = Vec::new();
    let mut kept = Vec::new();
    let mut deg: Vec<usize> = (0..g.num_vertices()).map(|v| g.degree(v as VertexId)).collect();
    for u in 0..g.num_vertices() as VertexId {
        g.for_each_neighbor(u, &mut |v| {
            if u < v {
                if rng.bernoulli(holdout) && deg[u as usize] > 1 && deg[v as usize] > 1 {
                    held.push((u, v));
                    deg[u as usize] -= 1;
                    deg[v as usize] -= 1;
                } else {
                    kept.push((u, v));
                }
            }
        });
    }
    (GraphBuilder::from_edges(g.num_vertices(), &kept), held)
}

#[inline]
fn score(x: &DenseMatrix, u: VertexId, v: VertexId) -> f64 {
    x.row(u as usize).iter().zip(x.row(v as usize)).map(|(&a, &b)| a as f64 * b as f64).sum()
}

/// Ranks each positive against corrupted negatives and computes the
/// metrics. `hits_at` lists the `K` values to report.
///
/// Degenerate inputs are well-defined rather than panics: an empty
/// positive set reports zero ranks and chance-level AUC, and a graph too
/// small to corrupt (`n <= 2`, where every redraw collides with the
/// positive pair) yields zero negatives per edge and chance-level AUC.
pub fn rank_held_out(
    embedding: &DenseMatrix,
    positives: &[(VertexId, VertexId)],
    num_negatives: usize,
    hits_at: &[usize],
    seed: u64,
) -> LinkPredMetrics {
    if positives.is_empty() {
        return LinkPredMetrics {
            mr: 0.0,
            mrr: 0.0,
            hits: hits_at.iter().map(|&k| (k, 0.0)).collect(),
            auc: 0.5,
        };
    }
    let n = embedding.rows();
    let per_edge: Vec<(f64, f64, Vec<bool>, u64, u64, u64)> = positives
        .par_iter()
        .enumerate()
        .map(|(i, &(u, v))| {
            let mut rng = XorShiftStream::new(seed, i as u64);
            let pos = score(embedding, u, v);
            let mut rank = 1usize;
            let mut auc_wins = 0u64;
            let mut ties = 0u64;
            let mut drawn = 0u64;
            while n > 2 && drawn < num_negatives as u64 {
                let v_neg = rng.bounded_usize(n) as VertexId;
                // A "corrupted" edge equal to the positive (or a self-loop)
                // is not a negative; redraw.
                if v_neg == v || v_neg == u {
                    continue;
                }
                drawn += 1;
                let s = score(embedding, u, v_neg);
                if s > pos {
                    rank += 1;
                } else if s < pos {
                    auc_wins += 1;
                } else {
                    // Exact ties (all-equal scores, zero embeddings) take
                    // the Mann-Whitney half credit instead of silently
                    // counting against the AUC; the optimistic rank is
                    // unchanged.
                    ties += 1;
                }
            }
            let hit: Vec<bool> = hits_at.iter().map(|&k| rank <= k).collect();
            (rank as f64, 1.0 / rank as f64, hit, auc_wins, ties, drawn)
        })
        .collect();

    let n_pos = per_edge.len() as f64;
    let mr = per_edge.iter().map(|e| e.0).sum::<f64>() / n_pos;
    let mrr = per_edge.iter().map(|e| e.1).sum::<f64>() / n_pos;
    let hits = hits_at
        .iter()
        .enumerate()
        .map(|(ki, &k)| {
            let rate = per_edge.iter().filter(|e| e.2[ki]).count() as f64 / n_pos;
            (k, rate)
        })
        .collect();
    let wins: u64 = per_edge.iter().map(|e| e.3).sum();
    let ties: u64 = per_edge.iter().map(|e| e.4).sum();
    let trials: u64 = per_edge.iter().map(|e| e.5).sum();
    let auc = if trials == 0 { 0.5 } else { (wins as f64 + 0.5 * ties as f64) / trials as f64 };
    LinkPredMetrics { mr, mrr, hits, auc }
}

/// HITS@K convenience accessor.
impl LinkPredMetrics {
    /// Returns HITS@K if it was requested.
    pub fn hits_at(&self, k: usize) -> Option<f64> {
        self.hits.iter().find(|&&(kk, _)| kk == k).map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightne_gen::generators::erdos_renyi;

    #[test]
    fn split_partitions_edges() {
        let g = erdos_renyi(200, 2000, 1);
        let (train, held) = split_edges(&g, 0.1, 2);
        assert_eq!(train.num_edges() + held.len(), g.num_edges());
        // Held-out edges are absent from the training graph.
        for &(u, v) in &held {
            assert!(!train.has_edge(u, v));
            assert!(g.has_edge(u, v));
        }
        let frac = held.len() as f64 / g.num_edges() as f64;
        assert!((frac - 0.1).abs() < 0.03, "holdout fraction {frac}");
    }

    #[test]
    fn split_never_isolates_vertices() {
        let g = erdos_renyi(100, 300, 3);
        let (train, _) = split_edges(&g, 0.5, 4);
        for v in 0..100u32 {
            if g.degree(v) > 0 {
                assert!(train.degree(v) >= 1, "vertex {v} isolated by split");
            }
        }
    }

    #[test]
    fn perfect_embedding_ranks_first() {
        // Construct an embedding where each positive pair shares a huge
        // coordinate no other vertex has.
        let n = 50;
        let mut emb = DenseMatrix::zeros(n, 8);
        let positives: Vec<(u32, u32)> = vec![(0, 1), (2, 3), (4, 5)];
        for (k, &(u, v)) in positives.iter().enumerate() {
            emb.set(u as usize, k, 10.0);
            emb.set(v as usize, k, 10.0);
        }
        let m = rank_held_out(&emb, &positives, 100, &[1, 10], 7);
        assert_eq!(m.mr, 1.0);
        assert_eq!(m.mrr, 1.0);
        assert_eq!(m.hits_at(1), Some(1.0));
        assert!(m.auc > 0.99);
    }

    #[test]
    fn random_embedding_near_chance() {
        let emb = DenseMatrix::gaussian(200, 8, 5);
        let positives: Vec<(u32, u32)> = (0..50).map(|i| (i, i + 100)).collect();
        let m = rank_held_out(&emb, &positives, 99, &[1, 10, 50], 8);
        // Expected rank with 99 random negatives ≈ 50.5.
        assert!(m.mr > 30.0 && m.mr < 70.0, "mr {}", m.mr);
        assert!((m.auc - 0.5).abs() < 0.1, "auc {}", m.auc);
        let h50 = m.hits_at(50).unwrap();
        assert!((h50 - 0.5).abs() < 0.2, "hits@50 {h50}");
    }

    #[test]
    fn auc_matches_hand_computation_on_planted_scores() {
        // Embedding: vertex i has value i on one axis; positive edges pair
        // high-value vertices, so score(u,·) ranks targets by their value.
        // For positive (u, v) with v's value above exactly q of the
        // candidate values, AUC per edge = q / (n-2 candidates)… rather
        // than derive exactly, plant a *perfectly separable* case and a
        // *perfectly inverted* case and check 1.0 / 0.0.
        let n = 40;
        let mut emb = DenseMatrix::zeros(n, 1);
        for i in 0..n {
            emb.set(i, 0, i as f32);
        }
        // Positive (1, 39): score = 39; negatives (1, v) score v < 39 for
        // all v ≠ 39 → AUC 1.0 and rank 1.
        let best = rank_held_out(&emb, &[(1, 39)], 200, &[1], 3);
        assert_eq!(best.mr, 1.0);
        assert!((best.auc - 1.0).abs() < 1e-12);
        // Positive (1, 0): score = 0; every negative scores higher → AUC 0.
        let worst = rank_held_out(&emb, &[(1, 0)], 200, &[1], 3);
        assert!((worst.auc - 0.0).abs() < 1e-12);
        assert!(worst.mr > 100.0);
    }

    #[test]
    fn hits_at_unrequested_k_is_none() {
        let emb = DenseMatrix::gaussian(50, 4, 7);
        let m = rank_held_out(&emb, &[(0, 1)], 10, &[5], 8);
        assert!(m.hits_at(5).is_some());
        assert!(m.hits_at(10).is_none());
    }

    #[test]
    fn metrics_are_deterministic() {
        let emb = DenseMatrix::gaussian(100, 4, 6);
        let pos: Vec<(u32, u32)> = vec![(1, 2), (3, 4)];
        let a = rank_held_out(&emb, &pos, 50, &[10], 9);
        let b = rank_held_out(&emb, &pos, 50, &[10], 9);
        assert_eq!(a.mr, b.mr);
        assert_eq!(a.auc, b.auc);
    }
}
