//! Algorithm 1: PathSampling, kept as the reference of the estimator the
//! sampler replaced.
//!
//! Given an edge `(u, v)` and a path length `r`, pick a uniform split
//! `s ∈ [0, r-1]`, walk `s` steps from `u` and `r-1-s` steps from `v`, and
//! return the two walk endpoints. The returned pair is the endpoint pair
//! of a uniformly positioned `r`-step path passing through `(u, v)`, and
//! contributes one (weighted) sample to the sparsifier of
//! `Σ_r (D⁻¹A)^r`.
//!
//! The distributional fact the estimator rests on: picking a uniformly
//! random *directed arc* and applying this procedure lands on the ordered
//! pair `(i, j)` with probability `d_i · (D⁻¹A)^r_{ij} / (2m)` —
//! independent of the split point `s`, by reversibility of the walk. On a
//! weighted graph the arc is drawn and the walks step proportionally to
//! weight, and the same identity holds with weighted degrees and `vol(G)`
//! for `2m`.
//!
//! The split `s = 0` is the sampler's walk: from `v`, `r − 1` steps. The
//! sampler (`construct.rs`) keeps every prefix of one walk of `T − 1`
//! steps, `T` samples with this law for `r = 1..T`, where a trial here
//! walks a mean of `(T − 1)/2` steps for one. [`path_sample`] is not on
//! the sampling path; it is the oracle the tests build the old estimator
//! from, to compare the two at equal walk steps
//! (`tests/estimator_rate.rs`).

use lightne_graph::{walk::walk, VertexId, WeightedOps};
use lightne_utils::rng::XorShiftStream;

/// One two-sided path sample (Algorithm 1).
///
/// `r` must be ≥ 1; the walk takes `s` steps from `u` and `r-1-s` from
/// `v`, where `s` is drawn uniformly from `[0, r-1]`.
#[inline]
pub fn path_sample<G: WeightedOps>(
    g: &G,
    u: VertexId,
    v: VertexId,
    r: usize,
    rng: &mut XorShiftStream,
) -> (VertexId, VertexId) {
    debug_assert!(r >= 1, "path length must be at least 1");
    let s = rng.bounded_usize(r);
    let u_end = walk(g, u, s, rng);
    let v_end = walk(g, v, r - 1 - s, rng);
    (u_end, v_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightne_graph::GraphBuilder;

    #[test]
    fn r_equals_one_returns_the_edge() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut rng = XorShiftStream::new(1, 0);
        for _ in 0..50 {
            assert_eq!(path_sample(&g, 1, 2, 1, &mut rng), (1, 2));
        }
    }

    #[test]
    fn endpoints_are_within_r_hops() {
        // On a path graph, endpoints of an r-step path through (u, u+1)
        // can be at distance at most r from the edge.
        let n = 50u32;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|v| (v, v + 1)).collect();
        let g = GraphBuilder::from_edges(n as usize, &edges);
        let mut rng = XorShiftStream::new(2, 0);
        let r = 5;
        for _ in 0..500 {
            let (a, b) = path_sample(&g, 25, 26, r, &mut rng);
            assert!((a as i64 - 25).unsigned_abs() <= r as u64);
            assert!((b as i64 - 26).unsigned_abs() <= r as u64);
        }
    }

    #[test]
    fn parity_invariant_on_bipartite_graph() {
        // On a cycle of even length the graph is bipartite: the two
        // endpoints of an r-step path have endpoint-parity determined by r.
        let n = 10u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let g = GraphBuilder::from_edges(n as usize, &edges);
        let mut rng = XorShiftStream::new(3, 0);
        for r in 1..=6 {
            for _ in 0..200 {
                let (a, b) = path_sample(&g, 0, 1, r, &mut rng);
                // endpoints of an r-edge path differ in parity iff r is odd
                let parity = (a as usize + b as usize) % 2;
                assert_eq!(parity, r % 2, "r={r}: ({a},{b})");
            }
        }
    }

    #[test]
    fn split_distribution_covers_both_sides() {
        // With r=3 on a long path, sometimes the left endpoint moves,
        // sometimes the right — both splits must occur.
        let n = 100u32;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|v| (v, v + 1)).collect();
        let g = GraphBuilder::from_edges(n as usize, &edges);
        let mut rng = XorShiftStream::new(4, 0);
        let (mut left_moved, mut right_moved) = (false, false);
        for _ in 0..500 {
            let (a, b) = path_sample(&g, 50, 51, 3, &mut rng);
            if a != 50 {
                left_moved = true;
            }
            if b != 51 {
                right_moved = true;
            }
        }
        assert!(left_moved && right_moved);
    }
}
