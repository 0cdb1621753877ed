//! DeepWalk-style skip-gram with negative sampling, trained by SGD — the
//! stand-in for GraphVite and PyTorch-BigGraph.
//!
//! Both of the paper's "big system" comparators optimize the skip-gram
//! objective over random-walk co-occurrence pairs with stochastic gradient
//! descent (GraphVite on GPUs, PBG on a distributed parameter server).
//! Neither runtime is reproducible on one CPU core, but the *algorithm* —
//! and its cost structure of many cheap SGD updates versus LightNE's few
//! heavy matrix passes — is. This module implements it faithfully:
//!
//! * truncated random walks (`walks_per_vertex × walk_length`);
//! * skip-gram pairs within a `window`;
//! * `negatives` negative samples per pair from the unigram^{3/4}
//!   distribution (word2vec's choice, kept by DeepWalk/GraphVite);
//! * SGD with linearly decaying learning rate over `epochs` passes.
//!
//! Scoring for evaluation uses the input ("center") embeddings.

use lightne_core::engine::{RunContext, RunStats};
use lightne_gen::alias::AliasTable;
use lightne_graph::{walk::walk_trajectory, GraphOps, VertexId};
use lightne_linalg::DenseMatrix;
use lightne_utils::rng::XorShiftStream;

/// DeepWalk hyper-parameters (word2vec-lineage defaults).
#[derive(Debug, Clone, Copy)]
pub struct DeepWalkConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Walks started per vertex per epoch.
    pub walks_per_vertex: usize,
    /// Length of each walk.
    pub walk_length: usize,
    /// Skip-gram window size.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Passes over the walk corpus.
    pub epochs: usize,
    /// Initial learning rate (decays linearly to 1% of itself).
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DeepWalkConfig {
    fn default() -> Self {
        Self {
            dim: 128,
            walks_per_vertex: 10,
            walk_length: 40,
            window: 5,
            negatives: 5,
            epochs: 1,
            lr: 0.025,
            seed: 0xDEE9,
        }
    }
}

/// Output of a DeepWalk run.
#[derive(Debug, Clone)]
pub struct DeepWalkOutput {
    /// Input ("center") embeddings, used for scoring.
    pub embedding: DenseMatrix,
    /// Number of SGD pair updates performed.
    pub updates: u64,
    /// Run statistics (one stage: "sgd training").
    pub stats: RunStats,
}

/// The DeepWalk-SGD system.
#[derive(Debug, Clone)]
pub struct DeepWalk {
    cfg: DeepWalkConfig,
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl DeepWalk {
    /// Creates a DeepWalk instance.
    pub fn new(cfg: DeepWalkConfig) -> Self {
        assert!(cfg.dim >= 1 && cfg.walk_length >= 2 && cfg.window >= 1);
        Self { cfg }
    }

    /// Trains embeddings on `g`.
    pub fn embed<G: GraphOps>(&self, g: &G) -> DeepWalkOutput {
        let cfg = &self.cfg;
        let n = g.num_vertices();
        let d = cfg.dim;
        let mut ctx = RunContext::new(cfg.seed);
        let (input, updates) = ctx.run_named("sgd training", |scope| self.train(g, n, d, scope));
        DeepWalkOutput { embedding: input, updates, stats: ctx.into_stats() }
    }

    // Index loops are deliberate in the SGD hot path: the windowed pair
    // loop skips the center position and the gradient loops walk two
    // arrays in lockstep.
    #[allow(clippy::needless_range_loop)]
    fn train<G: GraphOps>(
        &self,
        g: &G,
        n: usize,
        d: usize,
        scope: &mut lightne_core::engine::StageScope,
    ) -> (DenseMatrix, u64) {
        let cfg = &self.cfg;
        // word2vec-style init: inputs uniform in [-0.5/d, 0.5/d], outputs 0.
        let mut rng = XorShiftStream::new(cfg.seed, 0);
        let mut input = DenseMatrix::zeros(n, d);
        for i in 0..n {
            for j in 0..d {
                input.set(i, j, (rng.unit_f32() - 0.5) / d as f32);
            }
        }
        let mut output = DenseMatrix::zeros(n, d);

        // Unigram^{3/4} negative table over degrees.
        let weights: Vec<f64> =
            (0..n).map(|v| (g.degree(v as VertexId) as f64).powf(0.75).max(1e-12)).collect();
        let neg_table = AliasTable::new(&weights);

        let total_pairs_estimate =
            (n * cfg.walks_per_vertex * cfg.walk_length * cfg.window * cfg.epochs) as f64;
        let mut seen_pairs = 0f64;
        let mut updates = 0u64;
        let mut traj: Vec<VertexId> = Vec::with_capacity(cfg.walk_length + 1);
        let mut grad = vec![0f32; d];

        for epoch in 0..cfg.epochs {
            for start in 0..n as VertexId {
                if g.degree(start) == 0 {
                    continue;
                }
                for wk in 0..cfg.walks_per_vertex {
                    let stream =
                        (epoch * cfg.walks_per_vertex + wk) as u64 * n as u64 + start as u64 + 1;
                    let mut wrng = XorShiftStream::new(cfg.seed, stream);
                    walk_trajectory(g, start, cfg.walk_length, &mut wrng, &mut traj);
                    for c in 0..traj.len() {
                        let center = traj[c] as usize;
                        let lo = c.saturating_sub(cfg.window);
                        let hi = (c + cfg.window + 1).min(traj.len());
                        for t in lo..hi {
                            if t == c {
                                continue;
                            }
                            seen_pairs += 1.0;
                            let lr = cfg.lr
                                * (1.0 - seen_pairs as f32 / total_pairs_estimate as f32).max(0.01);
                            let context = traj[t] as usize;
                            // One positive + `negatives` negative updates.
                            grad.fill(0.0);
                            for neg in 0..=cfg.negatives {
                                let (target, label) = if neg == 0 {
                                    (context, 1.0f32)
                                } else {
                                    (neg_table.sample(&mut wrng), 0.0f32)
                                };
                                if label == 0.0 && target == center {
                                    continue;
                                }
                                let dot: f32 = input
                                    .row(center)
                                    .iter()
                                    .zip(output.row(target))
                                    .map(|(&a, &b)| a * b)
                                    .sum();
                                let err = (label - sigmoid(dot)) * lr;
                                for k in 0..d {
                                    grad[k] += err * output.get(target, k);
                                }
                                let ci = input.row(center).to_vec();
                                let orow = output.row_mut(target);
                                for k in 0..d {
                                    orow[k] += err * ci[k];
                                }
                                updates += 1;
                            }
                            let crow = input.row_mut(center);
                            for k in 0..d {
                                crow[k] += grad[k];
                            }
                        }
                    }
                }
            }
        }
        scope.counter("updates", updates);
        // Input and output embedding tables coexist during training.
        scope.heap_bytes(2 * n * d * std::mem::size_of::<f32>());
        (input, updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightne_gen::generators::erdos_renyi;
    use lightne_gen::sbm::{labelled_sbm, SbmConfig};

    fn tiny() -> DeepWalkConfig {
        DeepWalkConfig {
            dim: 16,
            walks_per_vertex: 4,
            walk_length: 20,
            window: 4,
            negatives: 3,
            epochs: 1,
            lr: 0.05,
            seed: 1,
        }
    }

    #[test]
    fn trains_and_reports_updates() {
        let g = erdos_renyi(200, 1200, 1);
        let out = DeepWalk::new(tiny()).embed(&g);
        assert_eq!(out.embedding.rows(), 200);
        assert!(out.updates > 10_000, "updates {}", out.updates);
    }

    #[test]
    fn deterministic() {
        let g = erdos_renyi(100, 600, 2);
        let a = DeepWalk::new(tiny()).embed(&g);
        let b = DeepWalk::new(tiny()).embed(&g);
        assert!(a.embedding.max_abs_diff(&b.embedding) < 1e-7);
    }

    #[test]
    fn learns_community_structure() {
        let cfg = SbmConfig {
            n: 400,
            communities: 3,
            avg_degree: 20.0,
            mixing: 0.05,
            overlap: 0.0,
            gamma: 2.5,
        };
        let (g, labels) = labelled_sbm(&cfg, 5);
        let out = DeepWalk::new(DeepWalkConfig { epochs: 2, ..tiny() }).embed(&g);
        let mut y = out.embedding.clone();
        y.normalize_rows();
        let dot = |a: &[f32], b: &[f32]| -> f64 {
            a.iter().zip(b).map(|(&p, &q)| p as f64 * q as f64).sum()
        };
        let (mut s, mut sn, mut di, mut dn) = (0.0, 0, 0.0, 0);
        for i in (0..400).step_by(3) {
            for j in (1..400).step_by(7) {
                if i == j {
                    continue;
                }
                let v = dot(y.row(i), y.row(j));
                if labels.of(i) == labels.of(j) {
                    s += v;
                    sn += 1;
                } else {
                    di += v;
                    dn += 1;
                }
            }
        }
        let (s, di) = (s / sn as f64, di / dn as f64);
        assert!(s > di + 0.05, "no structure learned: same {s:.4} diff {di:.4}");
    }

    #[test]
    fn isolated_vertices_keep_init() {
        let g = lightne_graph::GraphBuilder::from_edges(10, &[(0, 1), (1, 2)]);
        let out = DeepWalk::new(tiny()).embed(&g);
        // Vertex 9 is isolated: no walks start there, no context hits it
        // (negatives can, but only its output vector). Input row stays at
        // its tiny init values.
        let norm: f32 = out.embedding.row(9).iter().map(|&x| x.abs()).sum();
        assert!(norm < 0.5, "isolated vertex moved: {norm}");
    }
}
