//! Parallel CSR construction from edge lists.
//!
//! The GBBS ingestion path as an integer sort: each undirected edge is
//! stored once, and one stable counting sort by source vertex
//! ([`group_by_row`]) writes both of its arcs into their rows, O(m + n) on
//! every thread; each short row is then sorted and deduplicated on its
//! own. Self-loops are dropped and the edge set is symmetrized, because
//! every algorithm in the paper operates on undirected graphs.

use crate::{Graph, VertexId};
use lightne_utils::parallel::{group_by_row, sort_dedup_row, RowGroups};

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
    /// One entry per undirected edge; the build writes both arcs.
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices; edges are symmetrized.
    pub fn new(n: usize) -> Self {
        assert!(n <= VertexId::MAX as usize, "vertex count exceeds u32 id space");
        Self { n, edges: Vec::new() }
    }

    /// Adds one undirected edge. Self-loops are ignored. The ids are
    /// checked against the vertex count once, by [`GraphBuilder::build`].
    #[inline]
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        if u != v {
            self.edges.push((u, v));
        }
    }

    /// Adds a batch of undirected edges.
    pub fn add_edges(&mut self, edges: impl IntoIterator<Item = (VertexId, VertexId)>) {
        for (u, v) in edges {
            self.add_edge(u, v);
        }
    }

    /// Builds the CSR graph: a counting sort writes both arcs of every
    /// edge into their rows, then each row is sorted and deduplicated.
    ///
    /// # Panics
    /// If an edge names a vertex id not below the vertex count.
    pub fn build(self) -> Graph {
        let rows = group_by_row(&self.edges, self.n, both_arcs);
        drop(self.edges);
        graph_from_groups(rows)
    }

    /// Builds a graph from a slice of edges, as [`GraphBuilder::build`]
    /// does, straight from the slice.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Graph {
        assert!(n <= VertexId::MAX as usize, "vertex count exceeds u32 id space");
        graph_from_groups(group_by_row(edges, n, both_arcs))
    }
}

/// The arcs of an undirected edge: both orientations, none for a loop.
fn both_arcs(&(u, v): &(VertexId, VertexId)) -> [Option<(u32, VertexId)>; 2] {
    if u == v {
        [None, None]
    } else {
        [Some((u, v)), Some((v, u))]
    }
}

/// Sorts and deduplicates every row of the grouped arcs.
fn graph_from_groups(rows: RowGroups<VertexId>) -> Graph {
    let (offsets, neighbors) = rows.finish_rows(|row, _| sort_dedup_row(row));
    Graph::from_csr(offsets, neighbors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightne_utils::parallel::configure_threads;
    use lightne_utils::rng::XorShiftStream;

    /// The sort-based build the counting sort replaced: both arcs of every
    /// edge as packed `u64` keys, one comparison sort, dedup, degrees by
    /// count.
    fn build_by_sort(n: usize, edges: &[(VertexId, VertexId)]) -> Graph {
        let mut keys: Vec<u64> = Vec::new();
        for &(u, v) in edges {
            if u != v {
                keys.push(((u as u64) << 32) | v as u64);
                keys.push(((v as u64) << 32) | u as u64);
            }
        }
        keys.sort_unstable();
        keys.dedup();
        let mut offsets = vec![0u64; n + 1];
        for &k in &keys {
            offsets[(k >> 32) as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        Graph::from_csr(offsets, keys.iter().map(|&k| k as VertexId).collect())
    }

    /// Holds the build to the sort-based oracle, bit for bit, at 1, 2 and
    /// 8 threads.
    fn check_against_sort(n: usize, edges: &[(VertexId, VertexId)]) {
        let want = build_by_sort(n, edges);
        for threads in [1, 2, 8] {
            configure_threads(threads);
            let got = GraphBuilder::from_edges(n, edges);
            assert!(got == want, "n = {n}, {} edges, {threads} threads", edges.len());
        }
        configure_threads(0);
    }

    fn random_edges(n: usize, m: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
        let mut rng = XorShiftStream::new(seed, 0);
        (0..m).map(|_| (rng.bounded_usize(n) as u32, rng.bounded_usize(n) as u32)).collect()
    }

    #[test]
    fn matches_the_sort_oracle_on_degenerate_inputs() {
        check_against_sort(0, &[]);
        check_against_sort(5, &[]);
        check_against_sort(1, &[(0, 0)]);
        check_against_sort(4, &[(0, 0), (3, 3), (2, 2)]);
        check_against_sort(4, &[(1, 3); 50]);
        check_against_sort(4, &[(3, 1), (1, 3), (3, 1)]);
        check_against_sort(9, &[(8, 0), (7, 8), (0, 8), (8, 8)]);
    }

    #[test]
    fn matches_the_sort_oracle_on_random_graphs() {
        check_against_sort(100, &random_edges(100, 3_000, 1));
        // More than 2^16 vertices and 2^14 edges: several row blocks and
        // several input chunks.
        check_against_sort(70_000, &random_edges(70_000, 120_000, 2));
        check_against_sort(1 << 20, &random_edges(1 << 20, 50_000, 3));
    }

    #[test]
    fn matches_the_sort_oracle_on_a_hub() {
        // A hub row of more than 2^16 entries, with repeats.
        let mut edges: Vec<(VertexId, VertexId)> = (1..=70_000u32).map(|v| (v, 0)).collect();
        edges.extend((1..=1_000u32).map(|v| (0, v * 7)));
        edges.extend(random_edges(70_001, 10_000, 4));
        check_against_sort(70_001, &edges);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_an_id_past_the_vertex_count() {
        GraphBuilder::from_edges(3, &[(0, 1), (1, 3)]);
    }

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
