//! Parallel CSR construction from edge lists.
//!
//! The GBBS ingestion path: pack each edge into a `u64`, parallel-sort,
//! deduplicate, then compute offsets with a parallel prefix sum. Self-loops
//! are dropped and (by default) the edge set is symmetrized, because every
//! algorithm in the paper operates on undirected graphs.

use crate::{Graph, VertexId};
use lightne_utils::parallel::parallel_prefix_sum;
use rayon::prelude::*;

/// Packs an ordered pair into a sortable `u64` key.
#[inline]
pub fn pack_edge(u: VertexId, v: VertexId) -> u64 {
    ((u as u64) << 32) | v as u64
}

/// Unpacks a `u64` key into an ordered pair.
#[inline]
pub fn unpack_edge(key: u64) -> (VertexId, VertexId) {
    ((key >> 32) as VertexId, key as VertexId)
}

/// Accumulates edges and builds a CSR [`Graph`].
///
/// ```
/// use lightne_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(2, 3);
/// let g = b.build();
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<u64>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices; edges are symmetrized.
    pub fn new(n: usize) -> Self {
        assert!(n <= VertexId::MAX as usize, "vertex count exceeds u32 id space");
        Self { n, edges: Vec::new() }
    }

    /// Adds one undirected edge. Self-loops are ignored.
    #[inline]
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        debug_assert!((u as usize) < self.n && (v as usize) < self.n);
        if u == v {
            return;
        }
        self.edges.push(pack_edge(u, v));
        self.edges.push(pack_edge(v, u));
    }

    /// Adds a batch of undirected edges.
    pub fn add_edges(&mut self, edges: impl IntoIterator<Item = (VertexId, VertexId)>) {
        for (u, v) in edges {
            self.add_edge(u, v);
        }
    }

    /// Builds the CSR graph: parallel sort, dedup, offsets by prefix sum.
    pub fn build(mut self) -> Graph {
        let n = self.n;
        self.edges.par_sort_unstable();
        self.edges.dedup();
        let edges = self.edges;

        // Count degrees: edges are sorted by source, so the degree of v is
        // the size of its contiguous run. A parallel histogram via atomic
        // increments would also work; counting by binary-searching run
        // boundaries keeps this deterministic and contention-free.
        let mut degrees = vec![0u64; n];
        // Parallel: each chunk counts into a local map keyed by source run.
        // Runs can span chunk boundaries, so count with atomics instead.
        use std::sync::atomic::{AtomicU64, Ordering};
        let deg_atomic: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        edges.par_iter().for_each(|&e| {
            let (u, _) = unpack_edge(e);
            deg_atomic[u as usize].fetch_add(1, Ordering::Relaxed);
        });
        degrees
            .par_iter_mut()
            .zip(deg_atomic.par_iter())
            .for_each(|(d, a)| *d = a.load(Ordering::Relaxed));

        let offsets = parallel_prefix_sum(&degrees);
        let neighbors: Vec<VertexId> = edges.par_iter().map(|&e| unpack_edge(e).1).collect();
        Graph::from_csr(offsets, neighbors)
    }

    /// Convenience: builds a graph from a slice of edges.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Graph {
        let mut b = Self::new(n);
        b.add_edges(edges.iter().copied());
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_deduped_symmetric() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 0), (0, 1), (2, 3), (3, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[3]);
        assert_eq!(g.neighbors(3), &[2]);
    }

    #[test]
    fn drops_self_loops() {
        let g = GraphBuilder::from_edges(3, &[(0, 0), (1, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 0);
    }

    #[test]
    fn neighbor_lists_sorted() {
        let g = GraphBuilder::from_edges(5, &[(2, 4), (2, 0), (2, 3), (2, 1)]);
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = GraphBuilder::from_edges(10, &[(0, 9)]);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(5), 0);
        assert_eq!(g.degree(9), 1);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for &(u, v) in &[(0u32, 0u32), (1, 2), (u32::MAX, 7), (123456, u32::MAX)] {
            assert_eq!(unpack_edge(pack_edge(u, v)), (u, v));
        }
    }

    #[test]
    fn large_random_graph_consistency() {
        use lightne_utils::rng::XorShiftStream;
        let n = 1000usize;
        let mut rng = XorShiftStream::new(7, 0);
        let edges: Vec<(u32, u32)> = (0..20_000)
            .map(|_| (rng.bounded_usize(n) as u32, rng.bounded_usize(n) as u32))
            .collect();
        let g = GraphBuilder::from_edges(n, &edges);
        // Symmetry: u in N(v) iff v in N(u).
        for v in 0..n as u32 {
            for &u in g.neighbors(v) {
                assert!(g.has_edge(u, v), "asymmetric edge ({u},{v})");
            }
        }
        // Offsets sum to arcs.
        assert_eq!(g.offsets()[n] as usize, g.num_arcs());
    }
}
