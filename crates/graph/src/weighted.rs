//! Weighted undirected graphs, and the weight-aware view every graph
//! backend presents to the pipeline.
//!
//! The paper's formulation (Table 1, Theorem 3.1) is stated for weighted
//! adjacency matrices — `vol(G) = Σ A_uv`, downsampling probability
//! `p_e = min(1, C·A_uv·(1/d_u + 1/d_v))` with *weighted* degrees — and
//! NetSMF's PathSampling on weighted graphs walks proportionally to edge
//! weight. An unweighted graph is the unit-weight case of all of it, so
//! the sampler, the NetMF inversion and the propagation operators are
//! written once against [`WeightedOps`]: every [`GraphAccess`] backend
//! implements it with unit weights, and [`WeightedGraph`] — the weighted
//! CSR with O(log deg) weight-proportional neighbor sampling — with its
//! stored ones.

use crate::ops::{common_neighbors, par_vertices_by_arc_mass};
use crate::{Graph, GraphAccess, VertexId};
use lightne_utils::mem::MemUsage;
use lightne_utils::parallel::parallel_prefix_sum;
use lightne_utils::rng::XorShiftStream;
use rayon::prelude::*;

/// A graph as the sample → aggregate → NetMF → propagate pipeline sees
/// it: arcs that carry a weight. The methods are the places where a
/// weighted and a unit-weight graph genuinely differ; everything built on
/// them exists once.
///
/// Deliberately *not* a supertrait of [`crate::GraphOps`] and not implemented by
/// it for [`WeightedGraph`]: a routine bounded by `GraphOps` counts
/// neighbors, and must not silently accept a graph whose weights it would
/// ignore.
pub trait WeightedOps: Sync {
    /// Whether arc weights can differ from 1 (recorded in artifact
    /// metadata; a resume across this flag is rejected).
    const WEIGHTED: bool;

    /// Number of vertices `n`.
    fn num_vertices(&self) -> usize;

    /// Number of undirected edges `m` (drives the sample budget).
    fn num_edges(&self) -> usize;

    /// Volume `vol(G) = Σ_v d_v`.
    fn volume(&self) -> f64;

    /// Weighted degree `d_v = Σ_u A_vu`.
    fn weighted_degree(&self, v: VertexId) -> f64;

    /// Number of arcs out of `v` (its unweighted degree), read from the
    /// stored offsets without visiting the arcs.
    fn arc_count(&self, v: VertexId) -> usize;

    /// Heap bytes the representation keeps resident (see
    /// [`GraphAccess::resident_bytes`]).
    fn resident_bytes(&self) -> usize;

    /// Expected PathSampling trials of one arc of weight `w` out of a
    /// budget of `samples`, split into its whole part and the fractional
    /// part the sampler resolves with one coin. Unit weights give every
    /// arc `⌊M/arcs⌋ + Bernoulli({M/arcs})` in exact integer arithmetic;
    /// weighted arcs get `M·w/vol` (a uniform weighted-edge draw).
    fn arc_trials(&self, samples: u64, w: f32) -> (u64, f64);

    /// Lower bound on the effective conductance between the endpoints of
    /// arc `(u, v)` of weight `w`: the direct edge in parallel with one
    /// two-hop path (series conductance `w_ux·w_xv/(w_ux+w_xv)`) per
    /// common neighbor `x`. By Rayleigh monotonicity its reciprocal upper
    /// bounds the effective resistance — the PSNE-grade survival bound.
    fn local_conductance(&self, u: VertexId, v: VertexId, w: f32) -> f64;

    /// One random-walk step from `v`: a neighbor drawn proportionally to
    /// arc weight, `None` at an isolated vertex.
    fn step(&self, v: VertexId, rng: &mut XorShiftStream) -> Option<VertexId>;

    /// Calls `f(v, w)` on every arc `u → v` in sorted neighbor order.
    fn for_each_arc<F: FnMut(VertexId, f32)>(&self, u: VertexId, f: F);

    /// Parallel map over all arcs: `f(u, v, w, arc_index)` with the arc's
    /// global CSR position, the key of its deterministic RNG stream.
    /// [`Self::map_arcs_with`] with no state.
    fn map_arcs<F>(&self, f: F)
    where
        F: Fn(VertexId, VertexId, f32, u64) + Sync + Send,
    {
        self.map_arcs_with(|| (), |_, u, v, w, arc_idx| f(u, v, w, arc_idx), |()| {});
    }

    /// Parallel map over all arcs with per-range state. The arcs are cut
    /// into contiguous source-vertex ranges of equal arc mass; the worker
    /// that runs a range calls `init()` once, `f(&mut state, u, v, w,
    /// arc_index)` for each of its arcs in CSR order, and `end(state)`
    /// when the range is done — so a caller can keep a buffer or counters
    /// per range without touching shared state per arc.
    fn map_arcs_with<S, I, F, E>(&self, init: I, f: F, end: E)
    where
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, VertexId, VertexId, f32, u64) + Sync + Send,
        E: Fn(S) + Sync + Send;
}

/// Every unweighted backend is the unit-weight case.
impl<G: GraphAccess + Sync> WeightedOps for G {
    const WEIGHTED: bool = false;

    #[inline]
    fn num_vertices(&self) -> usize {
        GraphAccess::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        GraphAccess::num_edges(self)
    }

    #[inline]
    fn volume(&self) -> f64 {
        GraphAccess::volume(self)
    }

    #[inline]
    fn weighted_degree(&self, v: VertexId) -> f64 {
        self.degree(v) as f64
    }

    #[inline]
    fn arc_count(&self, v: VertexId) -> usize {
        self.degree(v)
    }

    #[inline]
    fn resident_bytes(&self) -> usize {
        GraphAccess::resident_bytes(self)
    }

    #[inline]
    fn arc_trials(&self, samples: u64, _w: f32) -> (u64, f64) {
        let arcs = self.num_arcs() as u64;
        (samples / arcs, (samples % arcs) as f64 / arcs as f64)
    }

    #[inline]
    fn local_conductance(&self, u: VertexId, v: VertexId, w: f32) -> f64 {
        w as f64 + 0.5 * common_neighbors(self, u, v) as f64
    }

    #[inline]
    fn step(&self, v: VertexId, rng: &mut XorShiftStream) -> Option<VertexId> {
        self.sample_neighbor(v, rng)
    }

    #[inline]
    fn for_each_arc<F: FnMut(VertexId, f32)>(&self, u: VertexId, mut f: F) {
        self.for_each_neighbor(u, &mut |v| f(v, 1.0));
    }

    fn map_arcs_with<S, I, F, E>(&self, init: I, f: F, end: E)
    where
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, VertexId, VertexId, f32, u64) + Sync + Send,
        E: Fn(S) + Sync + Send,
    {
        let first_arc = |u| self.first_arc_index(u);
        let per_vertex = |state: &mut S, u| {
            let base = self.first_arc_index(u);
            let mut i = 0u64;
            self.for_each_neighbor(u, &mut |v| {
                f(state, u, v, 1.0, base + i);
                i += 1;
            });
        };
        let arcs = self.num_arcs() as u64;
        par_vertices_by_arc_mass(self.num_vertices(), arcs, first_arc, init, per_vertex, end);
    }
}

/// An undirected graph with positive edge weights, in CSR form.
///
/// ```
/// use lightne_graph::WeightedGraph;
/// let g = WeightedGraph::from_edges(3, &[(0, 1, 2.0), (1, 2, 3.0)]);
/// assert_eq!(g.edge_weight(1, 0), 2.0);
/// assert_eq!(g.weighted_degree(1), 5.0);
/// assert_eq!(g.volume(), 10.0);
/// ```
///
/// Alongside the weight of each arc, each vertex stores the running
/// (inclusive) prefix sums of its incident weights, so drawing a random
/// neighbor proportionally to weight is one uniform draw plus a binary
/// search.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedGraph {
    offsets: Vec<u64>,
    neighbors: Vec<VertexId>,
    weights: Vec<f32>,
    /// Inclusive per-vertex prefix sums of `weights`.
    cumulative: Vec<f32>,
    weighted_degrees: Vec<f64>,
    /// `Σ_v weighted_degrees[v]`, read once per arc by the sampler.
    volume: f64,
}

impl WeightedGraph {
    /// Builds from an undirected weighted edge list. Duplicate edges have
    /// their weights summed; self-loops are dropped; weights must be
    /// positive and finite.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId, f32)]) -> Self {
        assert!(n <= VertexId::MAX as usize);
        for &(u, v, w) in edges {
            assert!((u as usize) < n && (v as usize) < n, "vertex id out of range");
            assert!(w > 0.0 && w.is_finite(), "edge weights must be positive and finite");
        }
        // Symmetrize, sort by packed key, merge duplicates.
        let mut arcs: Vec<(u64, f32)> = Vec::with_capacity(edges.len() * 2);
        for &(u, v, w) in edges {
            if u == v {
                continue;
            }
            arcs.push((((u as u64) << 32) | v as u64, w));
            arcs.push((((v as u64) << 32) | u as u64, w));
        }
        arcs.par_sort_unstable_by_key(|&(k, _)| k);
        let mut write = 0usize;
        for read in 0..arcs.len() {
            if write > 0 && arcs[write - 1].0 == arcs[read].0 {
                arcs[write - 1].1 += arcs[read].1;
            } else {
                arcs[write] = arcs[read];
                write += 1;
            }
        }
        arcs.truncate(write);

        let mut counts = vec![0u64; n];
        for &(k, _) in &arcs {
            counts[(k >> 32) as usize] += 1;
        }
        let offsets = parallel_prefix_sum(&counts);
        let neighbors: Vec<VertexId> = arcs.par_iter().map(|&(k, _)| k as VertexId).collect();
        let weights: Vec<f32> = arcs.par_iter().map(|&(_, w)| w).collect();

        // Per-vertex inclusive prefix sums.
        let mut cumulative = weights.clone();
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            let mut acc = 0.0f32;
            for c in &mut cumulative[lo..hi] {
                acc += *c;
                *c = acc;
            }
        }
        let weighted_degrees: Vec<f64> = (0..n)
            .map(|v| {
                let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
                weights[lo..hi].iter().map(|&w| w as f64).sum()
            })
            .collect();

        let volume = weighted_degrees.iter().sum();
        Self { offsets, neighbors, weights, cumulative, weighted_degrees, volume }
    }

    /// Lifts an unweighted graph to unit weights.
    pub fn from_unweighted(g: &Graph) -> Self {
        let mut edges = Vec::with_capacity(g.num_edges());
        for u in 0..g.num_vertices() as VertexId {
            for &v in g.neighbors(u) {
                if u < v {
                    edges.push((u, v, 1.0));
                }
            }
        }
        Self::from_edges(g.num_vertices(), &edges)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Number of stored directed arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.neighbors.len()
    }

    /// Unweighted degree (neighbor count) of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Weighted degree `d_v = Σ_u A_vu`.
    #[inline]
    pub fn weighted_degree(&self, v: VertexId) -> f64 {
        self.weighted_degrees[v as usize]
    }

    /// Weighted volume `vol(G) = Σ_v d_v`.
    #[inline]
    pub fn volume(&self) -> f64 {
        self.volume
    }

    /// Neighbor ids and weights of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> (&[VertexId], &[f32]) {
        let v = v as usize;
        let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
        (&self.neighbors[lo..hi], &self.weights[lo..hi])
    }

    /// The weight of edge `(u, v)`, 0.0 if absent.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> f32 {
        let (nb, ws) = self.neighbors(u);
        match nb.binary_search(&v) {
            Ok(i) => ws[i],
            Err(_) => 0.0,
        }
    }

    /// The first vertex whose incident weights total past the `f32`
    /// range, if any. Individually finite weights can still merge
    /// (duplicate edges are summed) or accumulate to `+inf`, which
    /// poisons every degree and prefix-sum draw downstream; readers of
    /// outside input check this after [`Self::from_edges`].
    pub fn overflowing_vertex(&self) -> Option<VertexId> {
        (0..self.num_vertices())
            .find(|&v| {
                let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
                self.cumulative[lo..hi].last().is_some_and(|total| !total.is_finite())
            })
            .map(|v| v as VertexId)
    }

    /// Global arc index of `v`'s first arc.
    #[inline]
    pub fn first_arc_index(&self, v: VertexId) -> u64 {
        self.offsets[v as usize]
    }

    /// Draws a neighbor of `v` with probability proportional to edge
    /// weight (O(log deg) binary search over the prefix sums). Returns
    /// `None` for isolated vertices.
    pub fn sample_neighbor(&self, v: VertexId, rng: &mut XorShiftStream) -> Option<VertexId> {
        let vu = v as usize;
        let (lo, hi) = (self.offsets[vu] as usize, self.offsets[vu + 1] as usize);
        if lo == hi {
            return None;
        }
        let cum = &self.cumulative[lo..hi];
        // xtask:panic-ok(invariant: degree > 0 was checked above, so the cumulative slice is non-empty)
        let total = *cum.last().unwrap();
        let target = rng.unit_f32() * total;
        let idx = cum.partition_point(|&c| c <= target).min(cum.len() - 1);
        Some(self.neighbors[lo + idx])
    }
}

impl WeightedOps for WeightedGraph {
    const WEIGHTED: bool = true;

    #[inline]
    fn num_vertices(&self) -> usize {
        WeightedGraph::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        WeightedGraph::num_edges(self)
    }

    #[inline]
    fn volume(&self) -> f64 {
        self.volume
    }

    #[inline]
    fn weighted_degree(&self, v: VertexId) -> f64 {
        WeightedGraph::weighted_degree(self, v)
    }

    #[inline]
    fn arc_count(&self, v: VertexId) -> usize {
        WeightedGraph::degree(self, v)
    }

    fn resident_bytes(&self) -> usize {
        self.heap_bytes()
    }

    #[inline]
    fn arc_trials(&self, samples: u64, w: f32) -> (u64, f64) {
        let expected = samples as f64 / self.volume * w as f64;
        (expected.floor() as u64, expected.fract())
    }

    /// Both adjacency arrays are sorted by neighbor id, so a two-pointer
    /// merge finds the common neighbors.
    fn local_conductance(&self, u: VertexId, v: VertexId, w: f32) -> f64 {
        let (nu, wu) = self.neighbors(u);
        let (nv, wv) = self.neighbors(v);
        let mut conductance = w as f64;
        let (mut i, mut j) = (0usize, 0usize);
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let (a, b) = (wu[i] as f64, wv[j] as f64);
                    if a + b > 0.0 {
                        conductance += a * b / (a + b);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        conductance
    }

    #[inline]
    fn step(&self, v: VertexId, rng: &mut XorShiftStream) -> Option<VertexId> {
        self.sample_neighbor(v, rng)
    }

    #[inline]
    fn for_each_arc<F: FnMut(VertexId, f32)>(&self, u: VertexId, mut f: F) {
        let (nb, ws) = self.neighbors(u);
        for (&v, &w) in nb.iter().zip(ws) {
            f(v, w);
        }
    }

    fn map_arcs_with<S, I, F, E>(&self, init: I, f: F, end: E)
    where
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, VertexId, VertexId, f32, u64) + Sync + Send,
        E: Fn(S) + Sync + Send,
    {
        let first_arc = |u| self.first_arc_index(u);
        let per_vertex = |state: &mut S, u| {
            let base = self.first_arc_index(u);
            let (nb, ws) = self.neighbors(u);
            for (i, (&v, &w)) in nb.iter().zip(ws).enumerate() {
                f(state, u, v, w, base + i as u64);
            }
        };
        let arcs = self.num_arcs() as u64;
        par_vertices_by_arc_mass(self.num_vertices(), arcs, first_arc, init, per_vertex, end);
    }
}

impl MemUsage for WeightedGraph {
    fn heap_bytes(&self) -> usize {
        self.offsets.heap_bytes()
            + self.neighbors.heap_bytes()
            + self.weights.heap_bytes()
            + self.cumulative.heap_bytes()
            + self.weighted_degrees.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::walk;
    use crate::GraphBuilder;

    fn weighted_triangle() -> WeightedGraph {
        WeightedGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])
    }

    #[test]
    fn basic_structure() {
        let g = weighted_triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge_weight(0, 1), 1.0);
        assert_eq!(g.edge_weight(1, 0), 1.0);
        assert_eq!(g.edge_weight(2, 0), 3.0);
        assert_eq!(g.edge_weight(0, 0), 0.0);
        assert!((g.weighted_degree(0) - 4.0).abs() < 1e-6);
        assert!((g.volume() - 12.0).abs() < 1e-6);
    }

    #[test]
    fn duplicate_edges_sum() {
        let g = WeightedGraph::from_edges(2, &[(0, 1, 1.5), (1, 0, 2.5)]);
        assert_eq!(g.edge_weight(0, 1), 4.0);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn self_loops_dropped() {
        let g = WeightedGraph::from_edges(2, &[(0, 0, 5.0), (0, 1, 1.0)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 0), 0.0);
    }

    #[test]
    fn from_unweighted_has_unit_weights() {
        let u = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let g = WeightedGraph::from_unweighted(&u);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge_weight(1, 2), 1.0);
        assert_eq!(g.volume(), u.volume());
    }

    #[test]
    fn neighbor_sampling_respects_weights() {
        // Vertex 0 has neighbors 1 (w=1) and 2 (w=9).
        let g = WeightedGraph::from_edges(3, &[(0, 1, 1.0), (0, 2, 9.0)]);
        let mut rng = XorShiftStream::new(3, 0);
        let mut count2 = 0usize;
        let trials = 50_000;
        for _ in 0..trials {
            if g.sample_neighbor(0, &mut rng) == Some(2) {
                count2 += 1;
            }
        }
        let p = count2 as f64 / trials as f64;
        assert!((p - 0.9).abs() < 0.01, "P(neighbor=2) = {p}");
    }

    #[test]
    fn isolated_vertex_sampling_returns_none() {
        let g = WeightedGraph::from_edges(3, &[(0, 1, 1.0)]);
        let mut rng = XorShiftStream::new(4, 0);
        assert_eq!(g.sample_neighbor(2, &mut rng), None);
        assert_eq!(walk(&g, 2, 5, &mut rng), 2);
    }

    #[test]
    fn weighted_walk_stationary_distribution() {
        // On a weighted path 0-1 (w=1), 1-2 (w=3): stationary probability
        // ∝ weighted degree = [1, 4, 3]. Long walks should match.
        let g = WeightedGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 3.0)]);
        let mut rng = XorShiftStream::new(5, 0);
        let mut counts = [0usize; 3];
        // Long walks (even+odd mix to wash out parity).
        for t in 0..30_000 {
            let steps = 20 + (t % 2);
            counts[walk(&g, 1, steps, &mut rng) as usize] += 1;
        }
        let total: usize = counts.iter().sum();
        let p0 = counts[0] as f64 / total as f64;
        let p2 = counts[2] as f64 / total as f64;
        assert!((p0 - 1.0 / 8.0).abs() < 0.02, "p0 {p0}");
        assert!((p2 - 3.0 / 8.0).abs() < 0.02, "p2 {p2}");
    }

    #[test]
    fn map_arcs_covers_all() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let g = weighted_triangle();
        let count = AtomicU32::new(0);
        let wsum = std::sync::Mutex::new(0.0f64);
        g.map_arcs(|_, _, w, _| {
            count.fetch_add(1, Ordering::Relaxed);
            *wsum.lock().unwrap() += w as f64;
        });
        assert_eq!(count.load(Ordering::Relaxed), 6);
        assert!((wsum.into_inner().unwrap() - 12.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_nonpositive_weights() {
        WeightedGraph::from_edges(2, &[(0, 1, 0.0)]);
    }
}
