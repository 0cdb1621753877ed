//! The random-walk engine of the sampler (Algorithm 2).
//!
//! Walks are simulated one step at a time: draw a uniform 32-bit value,
//! reduce it modulo the current vertex's degree, and fetch that incident
//! edge (Section 4.2) — [`GraphAccess::sample_neighbor`], the one step
//! primitive. On the uncompressed CSR the fetch is O(1); on the
//! compressed container it is one offset lookup, one directory read and
//! the decode of one block up to the drawn neighbor, which is the latency
//! the paper's block-size experiment trades against memory. On a weighted
//! graph the step is a draw from the vertex's alias table instead, also
//! O(1): the same one 64-bit draw picks a slot and flips its keep coin —
//! the backend's [`WeightedOps::step`] decides.
//!
//! The sampler walks `T − 1` steps from an arc `(u, v)` and yields a
//! sample `(u, z_r)` at every vertex `z_r` the walk reaches, `v` included:
//! the walk is stationary, so each of those `T` samples has the law of
//! PathSampling's (NetSMF's Algorithm 1) sample of length `r`, which
//! walks `r − 1` steps for one sample (`lightne_sparsifier::construct`).
//!
//! ## Walks in flight
//!
//! A step is one dependent fetch — two on CSR (the offsets, then the
//! neighbor; the drawn slot, then its neighbor on an alias table) — and a
//! walk cannot issue its next fetch before the last one lands. The
//! sampler therefore keeps sixteen walks in flight per arc range — a
//! constant of the sampler (`lightne_sparsifier::construct`), the same on
//! every backend: a *lane* holds one arc's stream and the walk it is on,
//! and one pass steps every lane once, so the core has sixteen
//! independent fetches outstanding instead of one. Each lane draws from
//! its own arc's stream in exactly the order a lone walk would, so the
//! walks — and every vertex on them — are the same as this module's
//! [`walk`] gives one step at a time; that module's docs give the three
//! reasons the sampler's bytes do not depend on the lane count.

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
        let Some(next) = g.sample_neighbor(cur, rng) else { break };
        cur = next;
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
    #[cfg_attr(
        miri,
        ignore = "2.5 M interpreted steps; the step itself runs under miri in the tests around it"
    )]
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
        // A path with chords, a hub spanning several blocks at every
        // block size below, and an isolated vertex. The compressed step
        // draws from the rng exactly as the CSR one does, so from equal
        // streams the two walks agree step for step.
        let edges: Vec<(u32, u32)> = (0..299)
            .map(|v| (v, v + 1))
            .chain((0..150).map(|v| (v, v + 150)))
            .chain((1..300).step_by(2).map(|v| (0, v)))
            .collect();
        let g = GraphBuilder::from_edges(301, &edges);
        for codec in Codec::SWEEP {
            for block_size in [1usize, 3, 64, 65, 256] {
                let c = V2Graph::from_graph_with_block_size(&g, codec, block_size).unwrap();
                for seed in 0..4 {
                    let mut r1 = XorShiftStream::new(seed, 0);
                    let mut r2 = XorShiftStream::new(seed, 0);
                    let mut cur = seed as VertexId;
                    for _ in 0..60 {
                        let step = g.sample_neighbor(cur, &mut r1);
                        assert_eq!(c.sample_neighbor(cur, &mut r2), step);
                        assert_eq!(r1.next_u64(), r2.next_u64());
                        cur = step.unwrap();
                    }
                    assert_eq!(walk(&g, 0, 12, &mut r1), walk(&c, 0, 12, &mut r2));
                    let (mut t1, mut t2) = (Vec::new(), Vec::new());
                    walk_trajectory(&g, 7, 9, &mut r1, &mut t1);
                    walk_trajectory(&c, 7, 9, &mut r2, &mut t2);
                    assert_eq!(t1, t2);
                }
                let mut rng = XorShiftStream::new(1, 0);
                assert_eq!(c.sample_neighbor(300, &mut rng), None);
            }
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
