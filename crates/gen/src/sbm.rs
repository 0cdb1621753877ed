//! Labelled stochastic block model (LFR-lite) — the workload generator
//! behind every node-classification experiment in the reproduction.
//!
//! Real classification benchmarks couple three properties: power-law
//! degrees, overlapping community structure, and labels that *are* the
//! communities (so that embeddings which capture structure can predict
//! them). This generator reproduces all three:
//!
//! 1. community sizes follow a Zipf law;
//! 2. each vertex joins one primary community and, with probability
//!    `overlap`, extra ones — memberships are the multi-label ground truth;
//! 3. every vertex has a power-law "activity" weight, and edges pick
//!    their endpoints activity-weighted — `1 - mixing` of them inside a
//!    community, `mixing` of them as global background noise.

use crate::alias::AliasTable;
use crate::labels::Labels;
use lightne_graph::{Graph, GraphBuilder, VertexId};
use lightne_utils::rng::XorShiftStream;
use rayon::prelude::*;

/// Parameters of the labelled SBM.
#[derive(Debug, Clone, Copy)]
pub struct SbmConfig {
    /// Number of vertices.
    pub n: usize,
    /// Number of communities (= number of classes).
    pub communities: usize,
    /// Average vertex degree (so `m ≈ n·avg_degree/2`).
    pub avg_degree: f64,
    /// Fraction of edges drawn as global background noise (0 = pure
    /// communities, 1 = no community signal).
    pub mixing: f64,
    /// Probability that a vertex joins one additional community (applied
    /// twice, so memberships are 1–3 per vertex).
    pub overlap: f64,
    /// Power-law exponent of the activity weights (≈ 2.2–3).
    pub gamma: f64,
}

impl Default for SbmConfig {
    fn default() -> Self {
        Self { n: 10_000, communities: 40, avg_degree: 30.0, mixing: 0.2, overlap: 0.2, gamma: 2.5 }
    }
}

/// Generates a graph with multi-label community ground truth.
///
/// ```
/// use lightne_gen::sbm::{labelled_sbm, SbmConfig};
/// let cfg = SbmConfig { n: 500, communities: 4, ..Default::default() };
/// let (graph, labels) = labelled_sbm(&cfg, 42);
/// assert_eq!(graph.num_vertices(), 500);
/// assert_eq!(labels.num_labels(), 4);
/// assert!(labels.labelled_vertices().len() == 500);
/// ```
pub fn labelled_sbm(cfg: &SbmConfig, seed: u64) -> (Graph, Labels) {
    assert!(cfg.communities >= 1 && cfg.communities <= u16::MAX as usize);
    assert!((0.0..=1.0).contains(&cfg.mixing) && (0.0..=1.0).contains(&cfg.overlap));
    let n = cfg.n;
    let k = cfg.communities;

    // Zipf community weights; membership assignment.
    let comm_weights: Vec<f64> = (0..k).map(|i| 1.0 / (i + 1) as f64).collect();
    let comm_table = AliasTable::new(&comm_weights);
    let mut rng = XorShiftStream::new(seed, 0);
    let mut memberships: Vec<Vec<u16>> = Vec::with_capacity(n);
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); k];
    for v in 0..n {
        let mut ls = vec![comm_table.sample(&mut rng) as u16];
        for _ in 0..2 {
            if rng.bernoulli(cfg.overlap) {
                ls.push(comm_table.sample(&mut rng) as u16);
            }
        }
        ls.sort_unstable();
        ls.dedup();
        for &c in &ls {
            members[c as usize].push(v as VertexId);
        }
        memberships.push(ls);
    }

    // Power-law activity weights.
    let exponent = -1.0 / (cfg.gamma - 1.0);
    let activity: Vec<f64> = {
        // Shuffle the ranks so hub vertices are spread across communities.
        let mut ranks: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.bounded_usize(i + 1);
            ranks.swap(i, j);
        }
        ranks.into_iter().map(|r| ((r + 1) as f64).powf(exponent)).collect()
    };

    // Per-community alias tables over member activity.
    let comm_tables: Vec<Option<AliasTable>> = members
        .par_iter()
        .map(|ms| {
            if ms.len() < 2 {
                None
            } else {
                Some(AliasTable::new(&ms.iter().map(|&v| activity[v as usize]).collect::<Vec<_>>()))
            }
        })
        .collect();
    let activity_table = AliasTable::new(&activity);

    // Edge budget per community, proportional to total member activity.
    let m_total = (n as f64 * cfg.avg_degree / 2.0) as usize;
    let m_background = (m_total as f64 * cfg.mixing) as usize;
    let m_intra = m_total - m_background;
    let comm_activity: Vec<f64> =
        members.iter().map(|ms| ms.iter().map(|&v| activity[v as usize]).sum::<f64>()).collect();
    let total_activity: f64 = comm_activity.iter().sum();

    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(m_total);
    // Intra-community edges.
    for c in 0..k {
        let Some(table) = &comm_tables[c] else { continue };
        let quota = (m_intra as f64 * comm_activity[c] / total_activity).round() as usize;
        let ms = &members[c];
        for _ in 0..quota {
            let u = ms[table.sample(&mut rng)];
            let v = ms[table.sample(&mut rng)];
            edges.push((u, v));
        }
    }
    // Background noise edges.
    for _ in 0..m_background {
        edges.push((
            activity_table.sample(&mut rng) as VertexId,
            activity_table.sample(&mut rng) as VertexId,
        ));
    }

    let graph = GraphBuilder::from_edges(n, &edges);
    (graph, Labels::new(k, memberships))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SbmConfig {
        SbmConfig {
            n: 2000,
            communities: 10,
            avg_degree: 20.0,
            mixing: 0.1,
            overlap: 0.2,
            gamma: 2.5,
        }
    }

    #[test]
    fn shape_is_as_configured() {
        let (g, labels) = labelled_sbm(&small_cfg(), 1);
        assert_eq!(g.num_vertices(), 2000);
        assert_eq!(labels.num_vertices(), 2000);
        assert_eq!(labels.num_labels(), 10);
        let m = g.num_edges() as f64;
        assert!(m > 15_000.0 && m < 20_500.0, "m = {m}");
    }

    #[test]
    fn every_vertex_labelled() {
        let (_, labels) = labelled_sbm(&small_cfg(), 2);
        assert_eq!(labels.labelled_vertices().len(), 2000);
        assert!(labels.mean_labels() >= 1.0 && labels.mean_labels() <= 3.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let (g1, l1) = labelled_sbm(&small_cfg(), 3);
        let (g2, l2) = labelled_sbm(&small_cfg(), 3);
        assert_eq!(g1, g2);
        assert_eq!(l1, l2);
    }

    #[test]
    fn community_signal_present() {
        // Edges should fall inside a shared community far more often than
        // the mixing rate alone would produce.
        let (g, labels) = labelled_sbm(&small_cfg(), 4);
        let mut intra = 0usize;
        let mut total = 0usize;
        for u in 0..g.num_vertices() as u32 {
            for &v in g.neighbors(u) {
                if u < v {
                    total += 1;
                    if labels.of(u as usize).iter().any(|l| labels.has(v as usize, *l)) {
                        intra += 1;
                    }
                }
            }
        }
        let frac = intra as f64 / total as f64;
        assert!(frac > 0.7, "intra-community edge fraction only {frac}");
    }

    #[test]
    fn mixing_one_destroys_signal() {
        let cfg = SbmConfig { mixing: 1.0, ..small_cfg() };
        let (g, labels) = labelled_sbm(&cfg, 5);
        let mut intra = 0usize;
        let mut total = 0usize;
        for u in 0..g.num_vertices() as u32 {
            for &v in g.neighbors(u) {
                if u < v {
                    total += 1;
                    if labels.of(u as usize).iter().any(|l| labels.has(v as usize, *l)) {
                        intra += 1;
                    }
                }
            }
        }
        // With ~10 Zipf communities, random coincidence is sizable but far
        // below the structured case.
        let frac = intra as f64 / total as f64;
        assert!(frac < 0.55, "background edges look structured: {frac}");
    }

    #[test]
    fn degrees_are_skewed() {
        let (g, _) = labelled_sbm(&small_cfg(), 6);
        let mean = g.num_arcs() as f64 / g.num_vertices() as f64;
        assert!(g.max_degree() as f64 > 5.0 * mean);
    }
}
