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
use lightne_utils::parallel::parallel_reduce_sum;
use rayon::prelude::*;

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
    /// Parallel map over all vertices: `f(v)`.
    fn map_vertices<F>(&self, f: F)
    where
        F: Fn(VertexId) + Sync + Send,
        Self: Sized,
    {
        (0..self.num_vertices() as VertexId).into_par_iter().for_each(f);
    }

    /// Parallel map over all arcs: `f(u, v, arc_index)` for every directed
    /// arc `u → v`. `arc_index` is the arc's global CSR position, used by
    /// callers that need a deterministic per-arc RNG stream. Work is
    /// parallelized across vertices; an undirected edge is visited twice
    /// (once per direction), exactly like GBBS's `MapEdges`.
    fn map_edges<F>(&self, f: F)
    where
        F: Fn(VertexId, VertexId, u64) + Sync + Send,
        Self: Sized,
    {
        (0..self.num_vertices() as VertexId).into_par_iter().for_each(|u| {
            let base = self.first_arc_index(u);
            let mut i = 0u64;
            self.for_each_neighbor(u, &mut |v| {
                f(u, v, base + i);
                i += 1;
            });
        });
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

    /// Sum over all arcs of `f(u, v)`, in parallel (a `MapReduce` over
    /// edges; used e.g. to compute modularity-style statistics).
    ///
    /// Per-vertex contributions are summed sequentially over the
    /// adjacency list, then folded with the fixed-block deterministic
    /// reduction, so the result is bitwise identical at any thread count.
    fn reduce_edges<F>(&self, f: F) -> f64
    where
        F: Fn(VertexId, VertexId) -> f64 + Sync + Send,
        Self: Sized,
    {
        parallel_reduce_sum(self.num_vertices(), |u| {
            let u = u as VertexId;
            let mut acc = 0.0;
            self.for_each_neighbor(u, &mut |v| acc += f(u, v));
            acc
        })
    }
}

impl<G: GraphAccess + Sync> GraphOps for G {}

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

    #[test]
    fn map_edges_visits_every_arc_once() {
        let g = path_graph(50);
        let count = AtomicU64::new(0);
        let idx_sum = AtomicU64::new(0);
        g.map_edges(|_, _, idx| {
            count.fetch_add(1, Ordering::Relaxed);
            idx_sum.fetch_add(idx, Ordering::Relaxed);
        });
        let arcs = g.num_arcs() as u64;
        assert_eq!(count.load(Ordering::Relaxed), arcs);
        // Arc indices must be exactly 0..arcs.
        assert_eq!(idx_sum.load(Ordering::Relaxed), arcs * (arcs - 1) / 2);
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
        let a = collect(&|out| {
            let m = std::sync::Mutex::new(out);
            g.map_edges(|u, v, i| m.lock().unwrap().push((u, v, i)));
        });
        let b = collect(&|out| {
            let m = std::sync::Mutex::new(out);
            c.map_edges(|u, v, i| m.lock().unwrap().push((u, v, i)));
        });
        assert_eq!(a, b);
    }

    #[test]
    fn reduce_edges_counts_degrees() {
        let g = path_graph(10);
        let total = g.reduce_edges(|_, _| 1.0);
        assert_eq!(total, g.num_arcs() as f64);
    }

    #[test]
    fn map_vertices_covers_all() {
        let g = path_graph(128);
        let hits: Vec<AtomicU64> = (0..128).map(|_| AtomicU64::new(0)).collect();
        g.map_vertices(|v| {
            hits[v as usize].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn degrees_vector() {
        let g = path_graph(5);
        assert_eq!(g.degrees(), vec![1, 2, 2, 2, 1]);
    }
}
