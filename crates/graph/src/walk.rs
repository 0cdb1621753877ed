//! The random-walk engine used by PathSampling (Algorithm 1).
//!
//! Walks are simulated one step at a time: draw a uniform 32-bit value,
//! reduce it modulo the current vertex's degree, and fetch that incident
//! edge (Section 4.2). On the uncompressed CSR this fetch is O(1); on the
//! parallel-byte format it decodes one block, which is the latency the
//! paper's block-size experiment trades against memory. On a weighted
//! graph the step is a binary search over the vertex's weight prefix sums
//! instead — the backend's [`WeightedOps::step`] decides.

use crate::{GraphAccess, VertexId, WeightedOps};
use lightne_utils::rng::XorShiftStream;

/// Advances a random walk from `start` for `steps` steps, returning the
/// final vertex. A walk stops early (stays put) only at an isolated vertex,
/// which cannot occur when the walk starts from an endpoint of an edge.
#[inline]
pub fn walk<G: WeightedOps>(
    g: &G,
    start: VertexId,
    steps: usize,
    rng: &mut XorShiftStream,
) -> VertexId {
    let mut cur = start;
    for _ in 0..steps {
        match g.step(cur, rng) {
            Some(next) => cur = next,
            None => return cur,
        }
    }
    cur
}

/// Records the full trajectory of a walk (used by the DeepWalk baseline,
/// which consumes whole walk sequences rather than endpoints).
pub fn walk_trajectory<G: GraphAccess>(
    g: &G,
    start: VertexId,
    steps: usize,
    rng: &mut XorShiftStream,
    out: &mut Vec<VertexId>,
) {
    out.clear();
    out.push(start);
    let mut cur = start;
    for _ in 0..steps {
        let deg = g.degree(cur);
        if deg == 0 {
            break;
        }
        cur = g.ith_neighbor(cur, rng.bounded_usize(deg));
        out.push(cur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Codec, GraphBuilder, V2Graph};

    #[test]
    fn walk_stays_on_isolated_vertex() {
        let g = GraphBuilder::from_edges(3, &[(0, 1)]);
        let mut rng = XorShiftStream::new(1, 0);
        assert_eq!(walk(&g, 2, 10, &mut rng), 2);
    }

    #[test]
    fn walk_on_edge_alternates() {
        // A single edge: any walk of even length returns to the start.
        let g = GraphBuilder::from_edges(2, &[(0, 1)]);
        let mut rng = XorShiftStream::new(2, 0);
        assert_eq!(walk(&g, 0, 4, &mut rng), 0);
        assert_eq!(walk(&g, 0, 7, &mut rng), 1);
    }

    #[test]
    fn walk_visits_reachable_vertices_only() {
        // Two disconnected triangles.
        let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let mut rng = XorShiftStream::new(3, 0);
        for _ in 0..200 {
            let end = walk(&g, 0, 5, &mut rng);
            assert!(end < 3, "walk escaped its component: {end}");
        }
    }

    #[test]
    fn walk_distribution_on_cycle_is_roughly_uniform() {
        // On a cycle, long walks approach the uniform stationary distribution.
        let n = 8u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let g = GraphBuilder::from_edges(n as usize, &edges);
        let mut rng = XorShiftStream::new(4, 0);
        let mut counts = vec![0usize; n as usize];
        let trials = 80_000;
        for _ in 0..trials {
            counts[walk(&g, 0, 31, &mut rng) as usize] += 1;
        }
        // Parity: a 31-step walk on an even cycle lands on odd vertices only.
        let odd_total: usize = counts.iter().skip(1).step_by(2).sum();
        assert_eq!(odd_total, trials);
        for v in (1..n as usize).step_by(2) {
            let p = counts[v] as f64 / trials as f64;
            assert!((p - 0.25).abs() < 0.02, "vertex {v}: {p}");
        }
    }

    #[test]
    fn walk_same_on_compressed_graph() {
        let edges: Vec<(u32, u32)> =
            (0..999).map(|v| (v, v + 1)).chain((0..500).map(|v| (v, v + 500))).collect();
        let g = GraphBuilder::from_edges(1000, &edges);
        let c = V2Graph::from_graph(&g, Codec::Byte);
        for seed in 0..20 {
            let mut r1 = XorShiftStream::new(seed, 0);
            let mut r2 = XorShiftStream::new(seed, 0);
            assert_eq!(walk(&g, 0, 12, &mut r1), walk(&c, 0, 12, &mut r2));
        }
    }

    #[test]
    fn trajectory_has_consecutive_edges() {
        let g = GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let mut rng = XorShiftStream::new(5, 0);
        let mut traj = Vec::new();
        walk_trajectory(&g, 2, 10, &mut rng, &mut traj);
        assert_eq!(traj.len(), 11);
        for w in traj.windows(2) {
            assert!(g.has_edge(w[0], w[1]), "non-edge in trajectory: {w:?}");
        }
    }
}
