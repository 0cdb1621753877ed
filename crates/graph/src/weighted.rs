//! Weighted undirected graphs, and the weight-aware view every graph
//! backend presents to the pipeline.
//!
//! The paper's formulation (Table 1, Theorem 3.1) is stated for weighted
//! adjacency matrices — `vol(G) = Σ A_uv`, downsampling probability
//! `p_e = min(1, C·A_uv·(1/d_u + 1/d_v))` with *weighted* degrees — and
//! the sampler's walks on weighted graphs step proportionally to edge
//! weight. An unweighted graph is the unit-weight case of all of it, so
//! the sampler, the NetMF inversion and the propagation operators are
//! written once against [`WeightedOps`]: every [`GraphAccess`] backend
//! implements it with unit weights, and [`WeightedGraph`] — the weighted
//! CSR with O(1) weight-proportional neighbor sampling from per-vertex
//! alias tables — with its stored ones.

use crate::ops::par_vertices_by_arc_mass;
use crate::{Graph, GraphAccess, VertexId};
use lightne_utils::mem::MemUsage;
use lightne_utils::parallel::{group_by_row, par_row_blocks, par_unzip, sort_merge_row};
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

    /// Expected samples of one arc of weight `w` out of a budget of
    /// `samples`, split into its whole part and its fractional part. Unit
    /// weights give every arc `M/arcs` in exact integer arithmetic;
    /// weighted arcs get `M·w/vol` (a uniform weighted-edge draw). The
    /// sampler draws an arc's samples as walks of `T` and resolves the
    /// fraction of its expected walks with one coin.
    fn arc_trials(&self, samples: u64, w: f32) -> (u64, f64);

    /// One random-walk step from `v`: a neighbor drawn proportionally to
    /// arc weight, `None` at an isolated vertex. Every backend takes one
    /// `next_u64` per step: the unit-weight backends turn it into a
    /// uniform neighbor index, [`WeightedGraph`] into a slot of the
    /// vertex's alias table and that slot's keep coin (O(1) either way on
    /// CSR).
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
/// Alongside the weight of each arc, each vertex stores an alias table
/// over its neighbors (Walker's method, built with Vose's), one 8-byte
/// slot per arc, so drawing a random neighbor proportionally to
/// weight is one uniform draw and two dependent loads: the drawn slot,
/// then its neighbor.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedGraph {
    offsets: Vec<u64>,
    neighbors: Vec<VertexId>,
    weights: Vec<f32>,
    /// Per-vertex alias tables, aligned with `neighbors`.
    slots: Vec<AliasSlot>,
    weighted_degrees: Vec<f64>,
    /// `Σ_v weighted_degrees[v]`, read once per arc by the sampler.
    volume: f64,
}

impl WeightedGraph {
    /// Builds from an undirected weighted edge list. Duplicate edges have
    /// their weights summed, in input order; self-loops are dropped;
    /// weights must be positive and finite.
    ///
    /// One counting sort by source vertex writes both arcs of every edge
    /// into their rows ([`group_by_row`]); each row is then sorted and its
    /// duplicates merged on its own, and the weighted degrees and the
    /// per-row alias tables are per-row parallel work too.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId, f32)]) -> Self {
        assert!(n <= VertexId::MAX as usize);
        let rows = group_by_row(edges, n, |&(u, v, w)| {
            assert!(w > 0.0 && w.is_finite(), "edge weights must be positive and finite");
            if u == v {
                assert!((u as usize) < n, "vertex id out of range");
                [None, None]
            } else {
                [Some((u, (v, w))), Some((v, (u, w)))]
            }
        });
        let (offsets, arcs) = rows.finish_rows(|row, scratch| {
            sort_merge_row(row, scratch, |&(v, _)| v, |a, b| a.1 += b.1)
        });

        let (neighbors, weights) = par_unzip(&arcs);
        // Every slot starts whole, its arc its own alias, in the arcs'
        // buffer: the same size, and already paged in.
        let mut slots: Vec<AliasSlot> =
            arcs.into_iter().map(|(v, _)| AliasSlot::whole(v)).collect();

        let mut weighted_degrees = vec![0f64; n];
        weighted_degrees.par_iter_mut().enumerate().for_each(|(v, d)| {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            *d = weights[lo..hi].iter().map(|&w| w as f64).sum();
        });
        par_row_blocks(&offsets, &mut slots, |rows, part| {
            let base = offsets[rows.start];
            let mut scratch = AliasScratch::default();
            for v in rows {
                let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
                let span = lo - base as usize..hi - base as usize;
                let (nb, ws, total) = (&neighbors[lo..hi], &weights[lo..hi], weighted_degrees[v]);
                fill_alias_row(nb, ws, total, &mut part[span], &mut scratch);
            }
        });

        let volume = weighted_degrees.iter().sum();
        Self { offsets, neighbors, weights, slots, weighted_degrees, volume }
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
    /// range, if any: the running `f32` sum of its row, in arc order.
    /// Individually finite weights can still merge (duplicate edges are
    /// summed) or accumulate to `+inf`, which poisons the `f32` weights and
    /// NetMF entries downstream; readers of outside input check this after
    /// [`Self::from_edges`].
    pub fn overflowing_vertex(&self) -> Option<VertexId> {
        (0..self.num_vertices() as VertexId).find(|&v| {
            let (_, ws) = self.neighbors(v);
            !ws.iter().sum::<f32>().is_finite()
        })
    }

    /// Global arc index of `v`'s first arc.
    #[inline]
    pub fn first_arc_index(&self, v: VertexId) -> u64 {
        self.offsets[v as usize]
    }

    /// Draws a neighbor of `v` with probability proportional to edge
    /// weight, in O(1): one 64-bit draw `x` picks slot `⌊x·deg / 2⁶⁴⌋` of
    /// `v`'s alias table (the high word of the product, as
    /// [`XorShiftStream::bounded`] computes it), and the top half of the
    /// low word is the coin against the slot's keep threshold. Returns
    /// `None` for isolated vertices.
    #[inline]
    pub fn sample_neighbor(&self, v: VertexId, rng: &mut XorShiftStream) -> Option<VertexId> {
        let vu = v as usize;
        let (lo, hi) = (self.offsets[vu] as usize, self.offsets[vu + 1] as usize);
        if lo == hi {
            return None;
        }
        let draw = u128::from(rng.next_u64()) * (hi - lo) as u128;
        let slot = lo + (draw >> 64) as usize;
        let AliasSlot { keep, alias } = self.slots[slot];
        Some(if (draw as u64) >> 32 < u64::from(keep) { self.neighbors[slot] } else { alias })
    }
}

/// One slot of a vertex's alias table. A step that draws the slot of
/// arc `i` keeps that arc's neighbor with probability `keep / 2³²` and
/// otherwise moves to `alias`. A slot whose arc keeps with probability 1
/// has its own neighbor as `alias`, so every draw of it lands there.
///
/// Public with [`fill_alias_row`] so the construction benchmark's
/// sequential baseline builds the same tables; only this module reads
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AliasSlot {
    /// Keep threshold in 32-bit fixed point.
    keep: u32,
    /// The neighbor a failed keep coin moves to.
    alias: VertexId,
}

impl AliasSlot {
    /// The slot of an arc to `v` that keeps with probability 1.
    pub fn whole(v: VertexId) -> Self {
        Self { keep: u32::MAX, alias: v }
    }
}

/// Work space of [`fill_alias_row`], reused across the rows of a block.
#[derive(Debug, Default)]
pub struct AliasScratch {
    /// The row's shares `w·deg/total`, mean 1.
    shares: Vec<f64>,
    /// Arc indices: those below 1 stacked up from the front, the others
    /// down from the back.
    stack: Vec<u32>,
}

/// Writes the alias table of one row — neighbors `nb`, weights `ws`
/// summing to `total` — into `slots`, by Vose's method in one sweep.
///
/// The slots arrive whole ([`AliasSlot::whole`] of their own arc). The arcs
/// whose share is below 1 are the donees; each fills the rest of its
/// slot, `1 − share`, from the current donor, the first arc at or above 1
/// not yet used up. A donor left below 1 becomes a donee itself and fills
/// its own slot from the next donor. The sweep's only state is the
/// donor's remainder; the textbook loop, which pops both from stacks and
/// pushes the donor back, took 1.4× as long per arc (EXPERIMENTS.md,
/// "Alias-table walk steps"). What the sweep does not reach is at 1 up to
/// rounding, and stays whole.
///
/// Deterministic: the table is a function of the row alone. A row whose
/// total is not finite (see [`WeightedGraph::overflowing_vertex`]) still
/// gets a table without a panic, if a meaningless one; readers of outside
/// input reject such a graph.
pub fn fill_alias_row(
    nb: &[VertexId],
    ws: &[f32],
    total: f64,
    slots: &mut [AliasSlot],
    scratch: &mut AliasScratch,
) {
    let AliasScratch { shares, stack } = scratch;
    let scale = ws.len() as f64 / total;
    shares.clear();
    shares.extend(ws.iter().map(|&w| f64::from(w) * scale));
    // Each arc goes on top of both stacks, and the comparison keeps it on
    // one: no branch on the random weights.
    stack.clear();
    stack.resize(ws.len(), 0);
    let (mut below, mut at_or_above) = (0, ws.len());
    for (i, &p) in shares.iter().enumerate() {
        stack[below] = i as u32;
        stack[at_or_above - 1] = i as u32;
        let is_below = usize::from(p < 1.0);
        below += is_below;
        at_or_above -= 1 - is_below;
    }
    // `p < 1`: truncating `p·2³²` stays below 2³².
    let keep = |p: f64| (p * 4_294_967_296.0) as u32;
    let (donees, donors) = stack.split_at(below);
    let mut donors = donors.iter().map(|&i| i as usize);
    let Some(mut donor) = donors.next() else { return };
    let mut left = shares[donor];
    for &s in donees {
        let (s, p) = (s as usize, shares[s as usize]);
        slots[s] = AliasSlot { keep: keep(p), alias: nb[donor] };
        left -= 1.0 - p;
        while left < 1.0 {
            let Some(next) = donors.next() else { return };
            slots[donor] = AliasSlot { keep: keep(left), alias: nb[next] };
            left = shares[next] - (1.0 - left);
            donor = next;
        }
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
            + self.slots.heap_bytes()
            + self.weighted_degrees.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::walk;
    use crate::GraphBuilder;

    /// The sort-based build the counting sort replaced: both arcs of every
    /// edge keyed by the packed pair, one comparison sort, a sequential
    /// merge of equal keys, then counts, degrees and alias tables, one row
    /// after another.
    /// `stable` sorts with a stable sort, so that duplicates merge in input
    /// order (the unstable sort leaves three or more in an arbitrary one).
    fn from_edges_by_sort(
        n: usize,
        edges: &[(VertexId, VertexId, f32)],
        stable: bool,
    ) -> WeightedGraph {
        let mut arcs: Vec<(u64, f32)> = Vec::new();
        for &(u, v, w) in edges {
            if u != v {
                arcs.push((((u as u64) << 32) | v as u64, w));
                arcs.push((((v as u64) << 32) | u as u64, w));
            }
        }
        if stable {
            arcs.sort_by_key(|&(k, _)| k);
        } else {
            arcs.sort_unstable_by_key(|&(k, _)| k);
        }
        let mut merged: Vec<(u64, f32)> = Vec::new();
        for (k, w) in arcs {
            match merged.last_mut() {
                Some(last) if last.0 == k => last.1 += w,
                _ => merged.push((k, w)),
            }
        }
        let mut offsets = vec![0u64; n + 1];
        for &(k, _) in &merged {
            offsets[(k >> 32) as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let neighbors: Vec<VertexId> = merged.iter().map(|&(k, _)| k as VertexId).collect();
        let weights: Vec<f32> = merged.iter().map(|&(_, w)| w).collect();
        let mut slots: Vec<_> = neighbors.iter().map(|&v| AliasSlot::whole(v)).collect();
        let mut weighted_degrees = vec![0f64; n];
        let mut scratch = AliasScratch::default();
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            weighted_degrees[v] = weights[lo..hi].iter().map(|&w| w as f64).sum();
            let (nb, ws) = (&neighbors[lo..hi], &weights[lo..hi]);
            fill_alias_row(nb, ws, weighted_degrees[v], &mut slots[lo..hi], &mut scratch);
        }
        let volume = weighted_degrees.iter().sum();
        WeightedGraph { offsets, neighbors, weights, slots, weighted_degrees, volume }
    }

    /// Holds `from_edges` to the sort-based build, bit for bit, at 1, 2
    /// and 8 threads.
    fn check_against_sort(n: usize, edges: &[(VertexId, VertexId, f32)], stable: bool) {
        let want = from_edges_by_sort(n, edges, stable);
        for threads in [1, 2, 8] {
            lightne_utils::parallel::configure_threads(threads);
            let got = WeightedGraph::from_edges(n, edges);
            assert!(got.offsets == want.offsets && got.neighbors == want.neighbors);
            let bits = |x: &[f32]| x.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.weights), bits(&want.weights), "{threads} threads");
            assert!(got.slots == want.slots, "alias tables differ at {threads} threads");
            let bits64 = |x: &[f64]| x.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits64(&got.weighted_degrees), bits64(&want.weighted_degrees));
            assert_eq!(got.volume.to_bits(), want.volume.to_bits());
        }
        lightne_utils::parallel::configure_threads(0);
    }

    /// `m` edges on `n` vertices with weights spread over four decades,
    /// so that the order of a sum shows in its bits.
    fn random_weighted_edges(n: usize, m: usize, seed: u64) -> Vec<(VertexId, VertexId, f32)> {
        let mut rng = XorShiftStream::new(seed, 0);
        (0..m)
            .map(|_| {
                let (u, v) = (rng.bounded_usize(n) as u32, rng.bounded_usize(n) as u32);
                (u, v, 10f64.powf(4.0 * rng.unit_f64()) as f32)
            })
            .collect()
    }

    #[test]
    fn matches_the_sort_oracle_without_duplicates() {
        check_against_sort(0, &[], false);
        check_against_sort(1, &[(0, 0, 2.0)], false);
        check_against_sort(3, &[(0, 0, 1.0), (2, 2, 1.5)], false);
        check_against_sort(9, &[(8, 0, 1.0), (7, 8, 2.5), (8, 8, 4.0)], false);
        // Distinct edges: more than 2^16 vertices, several row blocks and
        // input chunks, and a hub of more than 2^16 arcs.
        let mut edges: Vec<_> = (1..=70_000u32).map(|v| (0, v, 1.0 + v as f32)).collect();
        edges.extend((1..35_000u32).map(|v| (v, v + 35_000, 0.5)));
        check_against_sort(70_001, &edges, false);
    }

    #[test]
    fn duplicate_pairs_sum_as_the_sort_oracle_did() {
        // Each pair at most twice: an f32 sum of two is the same in
        // either order, so the unstable oracle's bytes hold.
        let base = random_weighted_edges(500, 4_000, 11);
        let mut seen = std::collections::BTreeSet::new();
        let distinct: Vec<_> = base
            .into_iter()
            .filter(|&(u, v, _)| u != v && seen.insert((u.min(v), u.max(v))))
            .collect();
        let mut edges = distinct.clone();
        edges.extend(distinct.iter().step_by(3).map(|&(u, v, w)| (v, u, w * 3.0)));
        check_against_sort(500, &edges, false);
    }

    #[test]
    fn three_or_more_duplicates_sum_in_input_order() {
        // Order-sensitive sums: 1e8 + 1 + 1 rounds differently from 1 + 1 + 1e8.
        let edges = [(0, 1, 1e8), (1, 0, 1.0), (0, 1, 1.0), (2, 1, 1.0), (1, 2, 1.0), (1, 2, 1e8)];
        check_against_sort(3, &edges, true);
        check_against_sort(4, &[(1, 3, 0.3); 7], true);
        let g = WeightedGraph::from_edges(3, &edges);
        assert_eq!(g.edge_weight(0, 1), (1e8f32 + 1.0) + 1.0);
        assert_eq!(g.edge_weight(2, 1), (1.0f32 + 1.0) + 1e8);
        // Many repeats on few vertices, past one input chunk.
        check_against_sort(40, &random_weighted_edges(40, 50_000, 12), true);
        check_against_sort(70_000, &random_weighted_edges(70_000, 200_000, 13), true);
    }

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

    /// Each neighbor's probability as `v`'s alias table gives it, read off
    /// the table without a draw: slot `j` sends `keep_j/2³²` of its `1/deg`
    /// to its own neighbor and the rest to its alias, so neighbor `i` gets
    /// `p_i/deg + Σ_{j: alias_j = i} (1 − p_j)/deg`.
    fn table_probabilities(g: &WeightedGraph, v: VertexId) -> Vec<f64> {
        let (lo, hi) = (g.offsets[v as usize] as usize, g.offsets[v as usize + 1] as usize);
        let (nb, deg) = (&g.neighbors[lo..hi], (hi - lo) as f64);
        let mut q = vec![0f64; hi - lo];
        for (i, slot) in g.slots[lo..hi].iter().enumerate() {
            let keep = f64::from(slot.keep) / 4_294_967_296.0;
            q[i] += keep / deg;
            q[nb.binary_search(&slot.alias).expect("an alias is a neighbor")] += (1.0 - keep) / deg;
        }
        q
    }

    /// Absolute tolerance of a table probability. Truncating a keep
    /// threshold to 32 bits moves less than `2⁻³²/deg` from a slot's own
    /// neighbor to its alias, so a neighbor fed by its own slot and by at
    /// most `deg − 1` others is off by less than `2⁻³²`; twice that leaves
    /// room for the `f64` rounding of the sweep's running remainder.
    const TABLE_TOL: f64 = 1.0 / 2_147_483_648.0;

    #[test]
    fn alias_tables_give_every_neighbor_its_weight_share() {
        let mut rng = XorShiftStream::new(21, 0);
        let mut log_uniform = |decades: f64| 10f64.powf(decades * rng.unit_f64()) as f32;
        let mut edges = vec![
            (0, 1, 2.5),
            (2, 3, 1.0),
            (2, 4, 3.0),
            (5, 6, 0.1),
            (5, 7, 0.7),
            (5, 8, 7.0),
            // A 1 : 10⁶ ratio.
            (9, 10, 1e-3),
            (9, 11, 1e3),
            (9, 12, 1.0),
            // Duplicates that `from_edges` merges: 13–14 weighs 3.5.
            (13, 14, 1.0),
            (14, 13, 2.0),
            (13, 14, 0.5),
            (13, 15, 3.5),
            (13, 16, 0.25),
        ];
        // Degree 64, log-uniform weights; degree 64, all equal; degree
        // 1 000 over six decades.
        edges.extend((0..64).map(|i| (100, 200 + i, log_uniform(3.0))));
        edges.extend((0..64).map(|i| (101, 300 + i, 0.3)));
        edges.extend((0..1_000).map(|i| (102, 400 + i, log_uniform(6.0))));
        let g = WeightedGraph::from_edges(1_400, &edges);
        assert_eq!(g.edge_weight(13, 14), 3.5);
        for (v, deg) in
            [(0, 1), (2, 2), (5, 3), (9, 3), (13, 3), (100, 64), (101, 64), (102, 1_000)]
        {
            assert_eq!(g.degree(v), deg);
        }
        for v in 0..g.num_vertices() as VertexId {
            let (_, ws) = g.neighbors(v);
            let total: f64 = ws.iter().map(|&w| f64::from(w)).sum();
            for (i, (q, &w)) in table_probabilities(&g, v).iter().zip(ws).enumerate() {
                let want = f64::from(w) / total;
                assert!((q - want).abs() <= TABLE_TOL, "vertex {v} arc {i}: {q} vs {want}");
            }
        }
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
