//! Structural statistics: what `lightne stats` prints and what the
//! quality matrix's structure probe measures.
//!
//! Component structure, clustering and degeneracy characterise a workload
//! — they are the properties that justify the downsampling analysis on
//! "well-connected" graphs (Theorem 3.2) — and PageRank is the centrality
//! the structure probe ranks embedding norms against. None of this is on
//! the embedding path, whose one bulk-parallel primitive is
//! [`GraphOps::map_edges`].

use crate::ops::common_neighbors;
use crate::{GraphOps, VertexId};
use lightne_utils::parallel::parallel_reduce_sum;
use rayon::prelude::*;

/// Connected components: `labels[v]` is the smallest vertex id in `v`'s
/// component. Vertices are visited in ascending id; each one no earlier
/// traversal reached labels its whole component with its own id, by an
/// explicit-stack depth-first traversal.
pub fn connected_components<G: GraphOps>(g: &G) -> Vec<u32> {
    const UNLABELLED: u32 = u32::MAX;
    let mut labels = vec![UNLABELLED; g.num_vertices()];
    let mut stack = Vec::new();
    for root in 0..g.num_vertices() as VertexId {
        if labels[root as usize] != UNLABELLED {
            continue;
        }
        labels[root as usize] = root;
        stack.push(root);
        while let Some(u) = stack.pop() {
            g.for_each_neighbor(u, &mut |v| {
                if labels[v as usize] == UNLABELLED {
                    labels[v as usize] = root;
                    stack.push(v);
                }
            });
        }
    }
    labels
}

/// Exact triangle count: every triangle closes once over each of its three
/// edges, so it is the common-neighbour count summed over edges `u < v`,
/// divided by 3. Exact because neighbour lists are strictly ascending on
/// every backend (the CSR invariant [`crate::io::read_binary`] enforces).
pub fn triangle_count<G: GraphOps>(g: &G) -> u64 {
    let closing = |u: VertexId| {
        let mut count = 0u64;
        g.for_each_neighbor(u, &mut |v| {
            if u < v {
                count += common_neighbors(g, u, v) as u64;
            }
        });
        count
    };
    (0..g.num_vertices() as VertexId).into_par_iter().map(closing).sum::<u64>() / 3
}

/// K-core decomposition by sequential bucket peeling (Matula–Beck).
/// Returns each vertex's core number; the maximum is the graph's
/// degeneracy.
pub fn kcore<G: GraphOps>(g: &G) -> Vec<u32> {
    let n = g.num_vertices();
    let mut deg: Vec<u32> = (0..n).map(|v| g.degree(v as VertexId) as u32).collect();
    let max_deg = deg.iter().copied().max().unwrap_or(0) as usize;

    // Bucket sort vertices by degree.
    let mut bucket_start = vec![0usize; max_deg + 2];
    for &d in &deg {
        bucket_start[d as usize + 1] += 1;
    }
    for i in 1..bucket_start.len() {
        bucket_start[i] += bucket_start[i - 1];
    }
    let mut order = vec![0 as VertexId; n];
    let mut pos = vec![0usize; n];
    let mut cursor = bucket_start.clone();
    for v in 0..n {
        let d = deg[v] as usize;
        order[cursor[d]] = v as VertexId;
        pos[v] = cursor[d];
        cursor[d] += 1;
    }

    let mut core = vec![0u32; n];
    for idx in 0..n {
        let v = order[idx];
        core[v as usize] = deg[v as usize];
        g.for_each_neighbor(v, &mut |u| {
            let du = deg[u as usize];
            if du > deg[v as usize] {
                // Move u one bucket down: swap with first member of its
                // bucket, shift the bucket boundary.
                let bucket = du as usize;
                let first = bucket_start[bucket];
                let w = order[first];
                if w != u {
                    order.swap(pos[u as usize], first);
                    pos.swap(u as usize, w as usize);
                }
                bucket_start[bucket] += 1;
                deg[u as usize] -= 1;
            }
        });
    }
    core
}

/// PageRank by parallel power iteration (damping `alpha`, convergence on
/// L1 change below `tol`). Returns `(scores, iterations)`. Dangling mass
/// (from isolated vertices) is redistributed uniformly, so scores sum to
/// 1 exactly.
pub fn pagerank<G: GraphOps>(g: &G, alpha: f64, tol: f64, max_iters: usize) -> (Vec<f64>, usize) {
    let n = g.num_vertices();
    assert!(n > 0);
    let mut rank = vec![1.0 / n as f64; n];
    let mut iters = 0;
    for it in 0..max_iters {
        iters = it + 1;
        let dangling: f64 =
            parallel_reduce_sum(n, |v| if g.degree(v as VertexId) == 0 { rank[v] } else { 0.0 });
        let base = (1.0 - alpha) / n as f64 + alpha * dangling / n as f64;
        let next: Vec<f64> = (0..n as VertexId)
            .into_par_iter()
            .map(|u| {
                let mut acc = 0.0;
                g.for_each_neighbor(u, &mut |v| {
                    acc += rank[v as usize] / g.degree(v) as f64;
                });
                base + alpha * acc
            })
            .collect();
        let delta: f64 = parallel_reduce_sum(n, |i| (next[i] - rank[i]).abs());
        rank = next;
        if delta < tol {
            break;
        }
    }
    (rank, iters)
}

/// Structural statistics of a graph (what `lightne stats` prints).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Vertex count.
    pub vertices: usize,
    /// Edge count.
    pub edges: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Mean degree.
    pub avg_degree: f64,
    /// Number of connected components.
    pub components: usize,
    /// Size of the largest component.
    pub largest_component: usize,
    /// Global triangle count.
    pub triangles: u64,
    /// Degeneracy (maximum core number).
    pub degeneracy: u32,
}

/// Computes all [`GraphStats`] in one pass set.
pub fn graph_stats<G: GraphOps>(g: &G) -> GraphStats {
    // Labels are vertex ids: `sizes[root]` counts the root's component.
    let mut sizes = vec![0usize; g.num_vertices()];
    for root in connected_components(g) {
        sizes[root as usize] += 1;
    }
    let max_degree = (0..g.num_vertices()).map(|v| g.degree(v as VertexId)).max().unwrap_or(0);
    GraphStats {
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        max_degree,
        avg_degree: g.num_arcs() as f64 / g.num_vertices().max(1) as f64,
        components: sizes.iter().filter(|&&s| s > 0).count(),
        largest_component: sizes.iter().copied().max().unwrap_or(0),
        triangles: triangle_count(g),
        degeneracy: kcore(g).into_iter().max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Codec, GraphBuilder, V2Graph};

    fn two_triangles_and_isolate() -> crate::Graph {
        // {0,1,2} triangle, {3,4,5} triangle, 6 isolated
        GraphBuilder::from_edges(7, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    }

    #[test]
    fn components_found() {
        let g = two_triangles_and_isolate();
        assert_eq!(connected_components(&g), vec![0, 0, 0, 3, 3, 3, 6]);
        let s = graph_stats(&g);
        assert_eq!((s.components, s.largest_component), (3, 3));
    }

    #[test]
    fn component_label_is_the_smallest_id_in_it() {
        // Triangle {1, 3, 5} and path 6 - 2 - 0, each listed from its
        // largest id; 4 is isolated.
        let g = GraphBuilder::from_edges(7, &[(5, 3), (3, 1), (1, 5), (6, 2), (2, 0)]);
        assert_eq!(connected_components(&g), vec![0, 1, 0, 1, 4, 1, 0]);
    }

    #[test]
    fn triangles_counted_once() {
        let g = two_triangles_and_isolate();
        assert_eq!(triangle_count(&g), 2);
        // A 4-clique has C(4,3) = 4 triangles.
        let k4 = GraphBuilder::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(triangle_count(&k4), 4);
        // A tree has none.
        let tree = GraphBuilder::from_edges(5, &[(0, 1), (0, 2), (1, 3), (1, 4)]);
        assert_eq!(triangle_count(&tree), 0);
    }

    #[test]
    fn kcore_of_clique_plus_tail() {
        // 4-clique (core 3) with a pendant path (core 1).
        let g = GraphBuilder::from_edges(
            6,
            &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)],
        );
        let core = kcore(&g);
        assert_eq!(&core[0..4], &[3, 3, 3, 3]);
        assert_eq!(core[4], 1);
        assert_eq!(core[5], 1);
    }

    #[test]
    fn kcore_of_cycle_is_two() {
        let edges: Vec<(u32, u32)> = (0..8u32).map(|v| (v, (v + 1) % 8)).collect();
        let g = GraphBuilder::from_edges(8, &edges);
        assert!(kcore(&g).into_iter().all(|c| c == 2));
    }

    #[test]
    fn pagerank_uniform_on_regular_graph() {
        // On a cycle every vertex has the same rank 1/n.
        let n = 20usize;
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
        let g = GraphBuilder::from_edges(n, &edges);
        let (pr, _) = pagerank(&g, 0.85, 1e-10, 200);
        for (v, &r) in pr.iter().enumerate() {
            assert!((r - 1.0 / n as f64).abs() < 1e-8, "vertex {v}: {r}");
        }
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_hubs() {
        // Star graph: the hub outranks the leaves.
        let edges: Vec<(u32, u32)> = (1..30u32).map(|v| (0, v)).collect();
        let g = GraphBuilder::from_edges(30, &edges);
        let (pr, iters) = pagerank(&g, 0.85, 1e-12, 500);
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "ranks sum to {total}");
        assert!(pr[0] > 5.0 * pr[1], "hub {} vs leaf {}", pr[0], pr[1]);
        assert!(iters < 500, "did not converge");
    }

    #[test]
    fn pagerank_handles_dangling_mass() {
        // Isolated vertex: scores must still sum to 1.
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2)]);
        let (pr, _) = pagerank(&g, 0.85, 1e-12, 500);
        assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(pr[3] > 0.0);
        assert!(pr[1] > pr[3]);
    }

    #[test]
    fn stats_consistent_across_representations() {
        use lightne_utils::rng::XorShiftStream;
        let mut rng = XorShiftStream::new(4, 0);
        let edges: Vec<(u32, u32)> =
            (0..2000).map(|_| (rng.bounded(300) as u32, rng.bounded(300) as u32)).collect();
        let g = GraphBuilder::from_edges(300, &edges);
        let c = V2Graph::from_graph(&g, Codec::Byte);
        assert_eq!(graph_stats(&g), graph_stats(&c));
    }
}
