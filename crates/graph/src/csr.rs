//! Uncompressed CSR (compressed sparse row) graph representation.
//!
//! This is the baseline representation the paper calls "CSR (without extra
//! compression)": an offsets array of `n + 1` entries and a flat neighbor
//! array of `2m` entries (each undirected edge stored in both directions).
//! Fetching the `i`-th neighbor of a vertex is a single indexed load, which
//! is why the random-walk engine is fastest on this layout.

use crate::VertexId;
use lightne_utils::mem::MemUsage;
use rayon::prelude::*;

/// An undirected graph in CSR form. Neighbor lists are sorted and contain
/// no duplicates or self-loops (enforced by [`crate::GraphBuilder`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<u64>,
    neighbors: Vec<VertexId>,
}

impl Graph {
    /// Builds a graph directly from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent: `offsets` must be
    /// monotonically non-decreasing, start at 0, and end at
    /// `neighbors.len()`; every neighbor must be `< offsets.len() - 1`.
    pub fn from_csr(offsets: Vec<u64>, neighbors: Vec<VertexId>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            offsets.last(),
            Some(&(neighbors.len() as u64)),
            "offsets must end at neighbors.len()"
        );
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets must be non-decreasing");
        let n = offsets.len() - 1;
        assert!(neighbors.par_iter().all(|&v| (v as usize) < n), "neighbor id out of range");
        Self { offsets, neighbors }
    }

    /// The empty graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self { offsets: vec![0; n + 1], neighbors: Vec::new() }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m` (half the stored directed arcs).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Number of stored directed arcs (`2m` for a symmetric graph).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.neighbors.len()
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// The sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The `i`-th neighbor of `v` (0-based). O(1).
    #[inline]
    pub fn ith_neighbor(&self, v: VertexId, i: usize) -> VertexId {
        self.neighbors[self.offsets[v as usize] as usize + i]
    }

    /// Whether the edge `(u, v)` exists (binary search over `u`'s list).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The volume of the graph, `vol(G) = Σ_v deg(v) = 2m`.
    #[inline]
    pub fn volume(&self) -> f64 {
        self.neighbors.len() as f64
    }

    /// Raw offsets array (length `n + 1`).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw neighbor array (length `2m`).
    pub fn neighbor_array(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        lightne_utils::parallel::parallel_reduce_max(self.num_vertices(), |v| {
            self.degree(v as VertexId) as u64
        })
        .unwrap_or(0) as usize
    }
}

impl MemUsage for Graph {
    fn heap_bytes(&self) -> usize {
        self.offsets.heap_bytes() + self.neighbors.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        // 0-1, 0-2, 1-2
        Graph::from_csr(vec![0, 2, 4, 6], vec![1, 2, 0, 2, 0, 1])
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.volume(), 6.0);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = triangle();
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.ith_neighbor(1, 1), 2);
    }

    #[test]
    fn has_edge_works() {
        let g = Graph::from_csr(vec![0, 1, 2, 2], vec![1, 0]);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(2, 0));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    #[should_panic(expected = "neighbor id out of range")]
    fn rejects_out_of_range_neighbor() {
        Graph::from_csr(vec![0, 1], vec![7]);
    }

    #[test]
    #[should_panic(expected = "offsets must end")]
    fn rejects_bad_offsets() {
        Graph::from_csr(vec![0, 3], vec![0]);
    }

    #[test]
    fn max_degree_star() {
        // star: 0 connected to 1..=4
        let g = Graph::from_csr(vec![0, 4, 5, 6, 7, 8], vec![1, 2, 3, 4, 0, 0, 0, 0]);
        assert_eq!(g.max_degree(), 4);
    }
}
