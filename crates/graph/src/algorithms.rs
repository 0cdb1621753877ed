//! Frontier-based graph algorithms and structural statistics.
//!
//! These serve two roles: they exercise the Ligra/GBBS machinery of
//! [`crate::frontier`] the way the original systems do (BFS and connected
//! components are the canonical Ligra benchmarks), and they feed the
//! workload characterization the experiment harness prints (component
//! structure, clustering, degeneracy — the properties that justify the
//! downsampling analysis on "well-connected" graphs, Theorem 3.2).

use crate::frontier::{edge_map, VertexSubset};
use crate::{GraphOps, VertexId};
use lightne_utils::parallel::parallel_reduce_sum;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Distance label for unreachable vertices.
pub const UNREACHED: u32 = u32::MAX;

/// Parallel BFS from `src`, returning hop distances (`UNREACHED` where
/// not reachable). Built on `edge_map` with CAS claiming — the textbook
/// Ligra BFS.
pub fn bfs<G: GraphOps>(g: &G, src: VertexId) -> Vec<u32> {
    let n = g.num_vertices();
    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
    dist[src as usize].store(0, Ordering::Relaxed);
    let mut frontier = VertexSubset::single(src);
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        let d = &dist;
        frontier = edge_map(
            g,
            &frontier,
            |_, v| {
                d[v as usize]
                    .compare_exchange(UNREACHED, level, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            },
            |v| d[v as usize].load(Ordering::Relaxed) == UNREACHED,
        );
    }
    dist.into_iter().map(|a| a.into_inner()).collect()
}

/// Connected components by parallel label propagation (min-label
/// convergence). Returns one label per vertex; vertices share a label
/// iff they share a component.
pub fn connected_components<G: GraphOps>(g: &G) -> Vec<u32> {
    let n = g.num_vertices();
    let labels: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let mut frontier = VertexSubset::Dense(vec![true; n]);
    while !frontier.is_empty() {
        let l = &labels;
        frontier = edge_map(
            g,
            &frontier,
            |u, v| {
                let lu = l[u as usize].load(Ordering::Relaxed);
                let mut lv = l[v as usize].load(Ordering::Relaxed);
                let mut changed = false;
                while lu < lv {
                    match l[v as usize].compare_exchange(
                        lv,
                        lu,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            changed = true;
                            break;
                        }
                        Err(actual) => lv = actual,
                    }
                }
                changed
            },
            |_| true,
        );
    }
    labels.into_iter().map(|a| a.into_inner()).collect()
}

/// Number of distinct components and the size of the largest.
pub fn component_summary(labels: &[u32]) -> (usize, usize) {
    use std::collections::HashMap;
    let mut sizes: HashMap<u32, usize> = HashMap::new();
    for &l in labels {
        *sizes.entry(l).or_insert(0) += 1;
    }
    let largest = sizes.values().copied().max().unwrap_or(0);
    (sizes.len(), largest)
}

/// Exact triangle count via sorted-neighbor-list intersection, counting
/// each triangle once (`u < v < w`). O(Σ d(u)·d(v)) over edges — fine at
/// benchmark scale and a strong test of CSR ordering invariants.
pub fn triangle_count<G: GraphOps>(g: &G) -> u64 {
    let n = g.num_vertices();
    (0..n as VertexId)
        .into_par_iter()
        .map(|u| {
            // Collect u's higher neighbors once.
            let mut hi_u: Vec<VertexId> = Vec::new();
            g.for_each_neighbor(u, &mut |v| {
                if v > u {
                    hi_u.push(v);
                }
            });
            let mut count = 0u64;
            for &v in &hi_u {
                // Intersect hi_u ∩ {w ∈ N(v) : w > v}.
                let mut hi_v: Vec<VertexId> = Vec::new();
                g.for_each_neighbor(v, &mut |w| {
                    if w > v {
                        hi_v.push(w);
                    }
                });
                let (mut i, mut j) = (0, 0);
                while i < hi_u.len() && j < hi_v.len() {
                    match hi_u[i].cmp(&hi_v[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            count += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
            count
        })
        .sum()
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
/// 1 exactly. The other canonical Ligra/GBBS benchmark alongside BFS.
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

/// Structural statistics of a graph (printed by the workload
/// characterization in the experiment harness).
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
    let labels = connected_components(g);
    let (components, largest_component) = component_summary(&labels);
    let max_degree = (0..g.num_vertices()).map(|v| g.degree(v as VertexId)).max().unwrap_or(0);
    GraphStats {
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        max_degree,
        avg_degree: g.num_arcs() as f64 / g.num_vertices().max(1) as f64,
        components,
        largest_component,
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
    fn bfs_distances_on_path() {
        let edges: Vec<(u32, u32)> = (0..9u32).map(|v| (v, v + 1)).collect();
        let g = GraphBuilder::from_edges(10, &edges);
        let d = bfs(&g, 3);
        assert_eq!(d[3], 0);
        assert_eq!(d[0], 3);
        assert_eq!(d[9], 6);
    }

    #[test]
    fn bfs_unreachable() {
        let g = two_triangles_and_isolate();
        let d = bfs(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], 1);
        assert_eq!(d[3], UNREACHED);
        assert_eq!(d[6], UNREACHED);
    }

    #[test]
    fn components_found() {
        let g = two_triangles_and_isolate();
        let labels = connected_components(&g);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[6], labels[0]);
        let (count, largest) = component_summary(&labels);
        assert_eq!(count, 3);
        assert_eq!(largest, 3);
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

    #[test]
    fn bfs_matches_on_compressed() {
        let edges: Vec<(u32, u32)> = (0..499u32).map(|v| (v, v + 1)).collect();
        let g = GraphBuilder::from_edges(500, &edges);
        let c = V2Graph::from_graph(&g, Codec::Byte);
        assert_eq!(bfs(&g, 0), bfs(&c, 0));
    }
}
