//! The uniform graph interface and GBBS-style bulk-parallel primitives.
//!
//! The interface is split in two layers:
//!
//! * [`GraphAccess`] — the object-safe point-query core (sizes, degrees,
//!   neighbor access). Implemented by the uncompressed [`Graph`] and the
//!   compressed [`crate::V2Graph`] — any codec, heap-owned or
//!   memory-mapped — so every backend is interchangeable downstream.
//! * [`GraphOps`] — LightNE's sampler (Algorithm 2) is expressed as
//!   `G.MapEdges(f)`, a parallel map applying a user function to every
//!   arc. `GraphOps` provides that primitive plus the other bulk-parallel
//!   maps, blanket-implemented for every `GraphAccess + Sync` type.

use crate::{Graph, VertexId};
use lightne_utils::mem::MemUsage;
use lightne_utils::rng::XorShiftStream;
use rayon::prelude::*;
use std::ops::Range;

/// Uniform point access to an undirected graph: the minimal, object-safe
/// surface the walk engine, sampler, and pipeline need from any backend.
pub trait GraphAccess {
    /// Number of vertices `n`.
    fn num_vertices(&self) -> usize;

    /// Number of stored directed arcs (`2m`).
    fn num_arcs(&self) -> usize;

    /// Degree of `v`.
    fn degree(&self, v: VertexId) -> usize;

    /// The `i`-th neighbor of `v` (0-based, sorted order).
    fn ith_neighbor(&self, v: VertexId, i: usize) -> VertexId;

    /// Calls `f` on every neighbor of `v` in sorted order.
    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId));

    /// One uniform random-walk step from `v`: a neighbor index drawn with
    /// `rng.bounded_usize(degree)`, `None` at an isolated vertex. Backends
    /// whose degree and neighbor lookups share work override it; the
    /// draws, and so the walk, are the same on every backend.
    #[inline]
    fn sample_neighbor(&self, v: VertexId, rng: &mut XorShiftStream) -> Option<VertexId> {
        let deg = self.degree(v);
        (deg > 0).then(|| self.ith_neighbor(v, rng.bounded_usize(deg)))
    }

    /// Global index of `v`'s first arc in the arc ordering (CSR order).
    fn first_arc_index(&self, v: VertexId) -> u64;

    /// Number of undirected edges `m`.
    fn num_edges(&self) -> usize {
        self.num_arcs() / 2
    }

    /// Volume `vol(G) = Σ_v deg(v) = 2m`.
    fn volume(&self) -> f64 {
        self.num_arcs() as f64
    }

    /// Heap bytes this representation keeps resident in the process.
    /// Memory-mapped backends return ~0 — their pages live in the page
    /// cache, the property the out-of-core pipeline accounts for.
    fn resident_bytes(&self) -> usize {
        0
    }
}

/// Bulk-parallel maps over a graph, available for every thread-safe
/// [`GraphAccess`] backend via the blanket impl below.
pub trait GraphOps: GraphAccess + Sync {
    /// Parallel map over all arcs: `f(u, v, arc_index)` for every directed
    /// arc `u → v`. `arc_index` is the arc's global CSR position, used by
    /// callers that need a deterministic per-arc RNG stream. Work is
    /// parallelized over contiguous vertex ranges of equal *arc* mass,
    /// 16 per thread; an undirected edge is visited twice
    /// (once per direction), exactly like GBBS's `MapEdges`: it is
    /// [`crate::WeightedOps::map_arcs`] without the unit weight.
    fn map_edges<F>(&self, f: F)
    where
        F: Fn(VertexId, VertexId, u64) + Sync + Send,
        Self: Sized,
    {
        crate::WeightedOps::map_arcs(self, |u, v, _, arc_idx| f(u, v, arc_idx));
    }

    /// Parallel degree histogram: `out[v] = deg(v)`.
    fn degrees(&self) -> Vec<u32>
    where
        Self: Sized,
    {
        (0..self.num_vertices())
            .into_par_iter()
            .map(|v| self.degree(v as VertexId) as u32)
            .collect()
    }
}

impl<G: GraphAccess + Sync> GraphOps for G {}

/// Ranges handed out per worker thread: enough that a later dynamic
/// scheduler has units to claim, few enough that finding the cuts is noise.
const RANGES_PER_THREAD: usize = 16;

/// Cuts `[0, n)` into at most `pieces` (+ one per hub) contiguous,
/// non-empty vertex ranges of near-equal *arc* mass, by binary search on
/// `first_arc` (the global index of a vertex's first arc; `arcs` in
/// total). A vertex owning more than one share gets a range of its own.
/// Equal vertex counts are no balance at all on a skewed graph — the
/// first half of an R-MAT id space owns three quarters of the arcs.
pub(crate) fn arc_balanced_ranges(
    n: usize,
    arcs: u64,
    pieces: usize,
    first_arc: impl Fn(VertexId) -> u64,
) -> Vec<Range<VertexId>> {
    let first_arc = |v: usize| if v == n { arcs } else { first_arc(v as VertexId) };
    let share = arcs.div_ceil(pieces.max(1) as u64).max(1);
    let mut cuts = vec![0usize];
    let mut push = |cut: usize| {
        if cuts.last().is_some_and(|&last| cut > last) {
            cuts.push(cut);
        }
    };
    let mut target = share;
    while target < arcs {
        // The first vertex starting at or past the target.
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if first_arc(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        // The vertex before it reaches the target; cut in front of it
        // too when it is a hub.
        if lo > 0 && first_arc(lo) - first_arc(lo - 1) > share {
            push(lo - 1);
        }
        push(lo);
        target += share;
    }
    push(n);
    cuts.windows(2).map(|w| w[0] as VertexId..w[1] as VertexId).collect()
}

/// Runs `per_vertex` on every vertex, in parallel over
/// [`arc_balanced_ranges`] — the shared body of every backend's
/// [`crate::WeightedOps::map_arcs_with`]. Each range gets its own state:
/// `init()` on the worker that claimed the range, `per_vertex(&mut state,
/// u)` for its vertices in order, then `end(state)` on the same worker.
/// The piece count follows the thread count; callers draw per-arc RNG
/// streams and accumulate in fixed point, so their output does not depend
/// on where the cuts fall.
pub(crate) fn par_vertices_by_arc_mass<S>(
    n: usize,
    arcs: u64,
    first_arc: impl Fn(VertexId) -> u64,
    init: impl Fn() -> S + Sync + Send,
    per_vertex: impl Fn(&mut S, VertexId) + Sync + Send,
    end: impl Fn(S) + Sync + Send,
) {
    let pieces = RANGES_PER_THREAD * rayon::current_num_threads();
    arc_balanced_ranges(n, arcs, pieces, first_arc).into_par_iter().for_each(|range| {
        let mut state = init();
        range.for_each(|u| per_vertex(&mut state, u));
        end(state);
    });
}

/// Number of common neighbors `|N(u) ∩ N(v)|` by sorted-list merge.
/// Adjacency lists are ascending on every graph backend (CSR invariant),
/// so the two collected lists merge in `O(d_u + d_v)`.
pub fn common_neighbors<G: GraphAccess>(g: &G, u: VertexId, v: VertexId) -> usize {
    let mut nu: Vec<VertexId> = Vec::with_capacity(g.degree(u));
    g.for_each_neighbor(u, &mut |x| nu.push(x));
    let mut nv: Vec<VertexId> = Vec::with_capacity(g.degree(v));
    g.for_each_neighbor(v, &mut |x| nv.push(x));
    let (mut i, mut j, mut cn) = (0usize, 0usize, 0usize);
    while i < nu.len() && j < nv.len() {
        match nu[i].cmp(&nv[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                cn += 1;
                i += 1;
                j += 1;
            }
        }
    }
    cn
}

impl GraphAccess for Graph {
    #[inline]
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        Graph::num_arcs(self)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        Graph::degree(self, v)
    }

    #[inline]
    fn ith_neighbor(&self, v: VertexId, i: usize) -> VertexId {
        Graph::ith_neighbor(self, v, i)
    }

    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        for &u in self.neighbors(v) {
            f(u);
        }
    }

    #[inline]
    fn first_arc_index(&self, v: VertexId) -> u64 {
        self.offsets()[v as usize]
    }

    #[inline]
    fn resident_bytes(&self) -> usize {
        self.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Codec, GraphBuilder, V2Graph};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|v| (v, v + 1)).collect();
        GraphBuilder::from_edges(n, &edges)
    }

    fn check_ops<G: GraphOps>(g: &G, n: usize, arcs: usize) {
        assert_eq!(g.num_vertices(), n);
        assert_eq!(g.num_arcs(), arcs);
        assert_eq!(g.num_edges(), arcs / 2);
        assert_eq!(g.volume(), arcs as f64);
    }

    #[test]
    fn ops_consistent_across_representations() {
        let g = path_graph(100);
        let c = V2Graph::from_graph(&g, Codec::Byte);
        check_ops(&g, 100, 198);
        check_ops(&c, 100, 198);
        for v in 0..100u32 {
            assert_eq!(GraphAccess::degree(&g, v), GraphAccess::degree(&c, v));
            assert_eq!(GraphAccess::first_arc_index(&g, v), GraphAccess::first_arc_index(&c, v));
        }
    }

    /// Runs `body` with the pool at 1, 2 and 7 threads (more than this
    /// box has cores, and not a divisor of any size below).
    fn at_thread_counts(body: impl Fn()) {
        for threads in [1usize, 2, 7] {
            lightne_utils::parallel::configure_threads(threads);
            body();
        }
        lightne_utils::parallel::configure_threads(0);
    }

    #[test]
    fn map_edges_visits_every_arc_once() {
        at_thread_counts(|| {
            // A path, and a star whose hub owns half of the arcs.
            let star: Vec<(u32, u32)> = (1..400u32).map(|v| (0, v)).collect();
            for g in [path_graph(50), GraphBuilder::from_edges(400, &star)] {
                let arcs = g.num_arcs();
                let seen: Vec<AtomicU64> = (0..arcs).map(|_| AtomicU64::new(0)).collect();
                g.map_edges(|u, v, idx| {
                    assert_eq!(g.ith_neighbor(u, (idx - g.first_arc_index(u)) as usize), v);
                    seen[idx as usize].fetch_add(1, Ordering::Relaxed);
                });
                assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
            }
        });
    }

    #[test]
    fn map_edges_compressed_matches_uncompressed() {
        let g = path_graph(64);
        let c = V2Graph::from_graph(&g, Codec::Byte);
        type ArcList = Vec<(u32, u32, u64)>;
        let collect = |g: &dyn Fn(&mut ArcList)| {
            let mut v = Vec::new();
            g(&mut v);
            v.sort_unstable();
            v
        };
        at_thread_counts(|| {
            let a = collect(&|out| {
                let m = std::sync::Mutex::new(out);
                g.map_edges(|u, v, i| m.lock().unwrap().push((u, v, i)));
            });
            let b = collect(&|out| {
                let m = std::sync::Mutex::new(out);
                c.map_edges(|u, v, i| m.lock().unwrap().push((u, v, i)));
            });
            assert_eq!(a, b);
            assert_eq!(a.len(), g.num_arcs());
        });
    }

    /// The ranges are contiguous, non-empty and cover `[0, n)` once.
    fn check_partition(degrees: &[u64], pieces: usize) -> Vec<Range<VertexId>> {
        let n = degrees.len();
        let mut offsets = vec![0u64];
        for d in degrees {
            offsets.push(offsets[offsets.len() - 1] + d);
        }
        let ranges = arc_balanced_ranges(n, offsets[n], pieces, |v| offsets[v as usize]);
        let mut next = 0;
        for r in &ranges {
            assert_eq!(r.start, next, "{ranges:?}");
            assert!(r.end > r.start, "{ranges:?}");
            next = r.end;
        }
        assert_eq!(next as usize, n, "{ranges:?}");
        ranges
    }

    #[test]
    fn arc_balanced_ranges_partition_the_vertices() {
        assert!(check_partition(&[], 32).is_empty());
        // No arcs at all: one range holds every (isolated) vertex.
        assert_eq!(check_partition(&[0; 10], 32), vec![0..10]);
        // More pieces than vertices: no empty range, nothing lost.
        let few = check_partition(&[3, 1, 4, 1, 5], 112);
        assert!(few.len() <= 5);
        // A hub owning more than one share is cut out on its own, and
        // the rest still splits by arc mass, not by vertex count.
        let mut degrees = vec![1u64; 1_000];
        degrees[500] = 4_000;
        let ranges = check_partition(&degrees, 8);
        assert!(ranges.contains(&(500..501)), "{ranges:?}");
        let share = (4_000 + 999u64).div_ceil(8);
        for r in ranges.iter().filter(|r| **r != (500..501)) {
            let mass: u64 = degrees[r.start as usize..r.end as usize].iter().sum();
            assert!(mass <= share + 1, "{r:?} holds {mass} arcs of a {share}-arc share");
        }
        // Skew without a hub: equal mass means unequal vertex counts.
        let skewed: Vec<u64> = (0..1_000u64).map(|v| 1_000 - v).collect();
        let ranges = check_partition(&skewed, 4);
        assert_eq!(ranges.len(), 4);
        assert!(ranges[0].len() < ranges[3].len() / 2, "{ranges:?}");
    }

    #[test]
    fn degrees_vector() {
        let g = path_graph(5);
        assert_eq!(g.degrees(), vec![1, 2, 2, 2, 1]);
    }

    /// Common-neighbor counts agree across every graph backend at the
    /// compressed block-size boundaries (degrees 0, 64 and 65 — the same
    /// edge cases the `V2Graph` decoder tests pin).
    #[test]
    fn common_neighbors_agree_across_backends_at_block_boundaries() {
        // Hub 0 → {2..=66} (degree 65), hub 1 → {2..=65} (degree 64),
        // vertex 67 isolated (degree 0), plus a clique among {2,3,4} so
        // some pairs have two-sided structure.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for v in 2..=66u32 {
            edges.push((0, v));
        }
        for v in 2..=65u32 {
            edges.push((1, v));
        }
        edges.extend_from_slice(&[(2, 3), (2, 4), (3, 4)]);
        let g = GraphBuilder::from_edges(68, &edges);
        assert_eq!(g.degree(0), 65);
        assert_eq!(g.degree(1), 64);
        assert_eq!(g.degree(67), 0);

        let byte = V2Graph::from_graph(&g, Codec::Byte);
        let arice = V2Graph::from_graph(&g, Codec::RiceAdaptive);
        let check = |u: u32, v: u32, want: usize| {
            assert_eq!(common_neighbors(&g, u, v), want, "csr ({u},{v})");
            assert_eq!(common_neighbors(&byte, u, v), want, "byte ({u},{v})");
            assert_eq!(common_neighbors(&arice, u, v), want, "arice ({u},{v})");
        };
        check(0, 1, 64); // shared {2..=65}
        check(2, 3, 3); // shared {0, 1, 4}
        check(0, 67, 0); // isolated endpoint
        check(67, 67, 0);
    }
}
