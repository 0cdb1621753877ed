//! Randomized property tests on the core data structures and invariants,
//! spanning every substrate crate.
//!
//! Each property runs 64 seeded cases generated from a deterministic
//! [`XorShiftStream`], so failures reproduce exactly (the failing case
//! index is part of the assertion message).

use lightne::gen::alias::AliasTable;
use lightne::graph::{Codec, GraphBuilder, V2Graph, WeightedGraph};
use lightne::hash::{EdgeAggregator, ShardedEdgeTable};
use lightne::linalg::reference;
use lightne::linalg::svd::eig_svd;
use lightne::linalg::{CsrMatrix, DenseMatrix};
use lightne::utils::parallel::parallel_prefix_sum;
use lightne::utils::rng::XorShiftStream;
use std::collections::{BTreeMap, BTreeSet};

const CASES: u64 = 64;

/// Random unweighted edge list over `n` vertices.
fn random_edges(rng: &mut XorShiftStream, n: usize, max_edges: usize) -> Vec<(u32, u32)> {
    let m = rng.bounded_usize(max_edges + 1);
    (0..m).map(|_| (rng.bounded(n as u64) as u32, rng.bounded(n as u64) as u32)).collect()
}

/// Random weighted edge list with weights in `[lo, hi)`.
fn random_weighted_edges(
    rng: &mut XorShiftStream,
    n: usize,
    max_edges: usize,
    lo: f32,
    hi: f32,
) -> Vec<(u32, u32, f32)> {
    let m = rng.bounded_usize(max_edges + 1);
    (0..m)
        .map(|_| {
            (
                rng.bounded(n as u64) as u32,
                rng.bounded(n as u64) as u32,
                lo + rng.unit_f32() * (hi - lo),
            )
        })
        .collect()
}

/// CSR construction: symmetric, sorted, deduplicated, loop-free, and
/// degree sums equal the arc count — for any edge list.
#[test]
fn graph_builder_invariants() {
    for case in 0..CASES {
        let mut rng = XorShiftStream::new(0xA11CE, case);
        let n = 2 + rng.bounded_usize(198);
        let edges = random_edges(&mut rng, n, 400);
        let g = GraphBuilder::from_edges(n, &edges);
        let mut arc_count = 0usize;
        for v in 0..n as u32 {
            let nb = g.neighbors(v);
            arc_count += nb.len();
            // sorted, unique, no self-loop
            assert!(nb.windows(2).all(|w| w[0] < w[1]), "case {case}: unsorted/dup");
            assert!(!nb.contains(&v), "case {case}: self-loop at {v}");
            for &u in nb {
                assert!(g.has_edge(u, v), "case {case}: asymmetry ({u},{v})");
            }
        }
        assert_eq!(arc_count, g.num_arcs(), "case {case}");
        assert_eq!(arc_count % 2, 0, "case {case}");
    }
}

/// Parallel-byte compression is lossless for any graph and block size.
#[test]
fn compression_roundtrip() {
    for case in 0..CASES {
        let mut rng = XorShiftStream::new(0xC0DEC, case);
        let n = 2 + rng.bounded_usize(148);
        let edges = random_edges(&mut rng, n, 300);
        let block = 1 + rng.bounded_usize(99);
        let g = GraphBuilder::from_edges(n, &edges);
        let c = V2Graph::from_graph_with_block_size(&g, Codec::Byte, block).unwrap();
        assert_eq!(c.decompress(), g, "case {case}: block {block}");
    }
}

/// Prefix sums match the sequential scan for any input.
#[test]
fn prefix_sum_correct() {
    for case in 0..CASES {
        let mut rng = XorShiftStream::new(0x5CA9, case);
        let len = rng.bounded_usize(500);
        let input: Vec<u64> = (0..len).map(|_| rng.bounded(1000)).collect();
        let got = parallel_prefix_sum(&input);
        let mut acc = 0u64;
        for (i, &v) in input.iter().enumerate() {
            assert_eq!(got[i], acc, "case {case}: index {i}");
            acc += v;
        }
        assert_eq!(got[input.len()], acc, "case {case}");
    }
}

/// The single shared hash table agrees with a BTreeMap reference on any
/// insertion sequence: it holds one entry per unordered pair and reads
/// back the symmetric part of what was added, `(M_uv + M_vu) / 2` at both
/// orientations (`M_uu` on the diagonal).
#[test]
fn hash_table_matches_reference() {
    for case in 0..CASES {
        let mut rng = XorShiftStream::new(0x7AB1E, case);
        let n_ops = 1 + rng.bounded_usize(299);
        let table = ShardedEdgeTable::new(50, 1, 8);
        let mut reference: BTreeMap<(u32, u32), f32> = BTreeMap::new();
        for _ in 0..n_ops {
            let u = rng.bounded(50) as u32;
            let v = rng.bounded(50) as u32;
            let w = rng.unit_f32() * 10.0;
            table.add(u, v, w);
            *reference.entry((u, v)).or_insert(0.0) += w;
        }
        let pairs: BTreeSet<(u32, u32)> =
            reference.keys().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        assert_eq!(table.distinct_edges(), pairs.len(), "case {case}");
        let coo = table.into_coo();
        let off_diagonal = pairs.iter().filter(|&&(u, v)| u != v).count();
        assert_eq!(coo.len(), pairs.len() + off_diagonal, "case {case}");
        let m = |u, v| reference.get(&(u, v)).copied().unwrap_or(0.0);
        for (u, v, w) in coo {
            let want = if u == v { m(u, u) } else { (m(u, v) + m(v, u)) / 2.0 };
            assert!(
                (w - want).abs() <= 1e-3 * want.abs().max(1.0),
                "case {case}: ({u},{v}) got {w} want {want}"
            );
        }
    }
}

/// CsrMatrix::from_coo sums duplicates exactly like a BTreeMap.
#[test]
fn csr_from_coo_matches_reference() {
    for case in 0..CASES {
        let mut rng = XorShiftStream::new(0xC00, case);
        let m_entries = rng.bounded_usize(200);
        let coo: Vec<(u32, u32, f32)> = (0..m_entries)
            .map(|_| (rng.bounded(30) as u32, rng.bounded(30) as u32, rng.unit_f32() * 10.0 - 5.0))
            .collect();
        let m = CsrMatrix::from_coo(30, 30, coo.clone());
        let mut reference: BTreeMap<(u32, u32), f32> = BTreeMap::new();
        for &(r, c, v) in &coo {
            *reference.entry((r, c)).or_insert(0.0) += v;
        }
        assert_eq!(m.nnz(), reference.len(), "case {case}");
        for ((r, c), v) in reference {
            assert!((m.get(r as usize, c as usize) - v).abs() < 1e-4, "case {case}: ({r},{c})");
        }
    }
}

/// SPMM distributes over addition: (A + A)·X == 2·(A·X).
#[test]
fn spmm_linearity() {
    for case in 0..CASES {
        let mut rng = XorShiftStream::new(0x59A & 0xFFFF, case);
        let m_entries = 1 + rng.bounded_usize(99);
        let coo: Vec<(u32, u32, f32)> = (0..m_entries)
            .map(|_| (rng.bounded(20) as u32, rng.bounded(20) as u32, rng.unit_f32() * 4.0 - 2.0))
            .collect();
        let cols = 1 + rng.bounded_usize(5);
        let a = CsrMatrix::from_coo(20, 20, coo);
        let x = DenseMatrix::gaussian(20, cols, 3);
        let doubled = a.add(&a, 1.0, 1.0);
        let mut twice = a.spmm(&x);
        twice.scale(2.0);
        let direct = doubled.spmm(&x);
        assert!(direct.max_abs_diff(&twice) < 1e-3, "case {case}");
    }
}

/// The reference Jacobi SVD — the oracle of the kernel property tests
/// and of the randomized SVD's accuracy envelope — reconstructs any
/// small matrix with orthonormal factors.
#[test]
fn jacobi_svd_reconstructs() {
    for case in 0..CASES {
        let mut rng = XorShiftStream::new(0x54D, case);
        let seed = rng.bounded(500);
        let n = 2 + rng.bounded_usize(8);
        let a = DenseMatrix::gaussian(n + 2, n, seed);
        let svd = reference::jacobi_svd(&a);
        let mut us = svd.u.clone();
        us.scale_columns(&svd.sigma);
        let recon = us.matmul(&svd.v.transpose());
        assert!(recon.max_abs_diff(&a) < 1e-3, "case {case}: n {n} seed {seed}");
        // singular values sorted and non-negative
        assert!(svd.sigma.iter().all(|&s| s >= 0.0), "case {case}");
        assert!(svd.sigma.windows(2).all(|w| w[0] >= w[1] - 1e-5), "case {case}");
    }
}

/// The Gram-matrix SVD reconstructs any tall matrix, with singular
/// values sorted, non-negative and equal to the oracle's.
#[test]
fn eig_svd_reconstructs() {
    for case in 0..CASES {
        let mut rng = XorShiftStream::new(0xE16, case);
        let seed = rng.bounded(500);
        let n = 1 + rng.bounded_usize(12);
        let a = DenseMatrix::gaussian(n + 1 + rng.bounded_usize(40), n, seed);
        let svd = eig_svd(&a);
        let mut us = svd.u.clone();
        us.scale_columns(&svd.sigma);
        let recon = us.matmul(&svd.v.transpose());
        assert!(recon.max_abs_diff(&a) < 1e-4, "case {case}: n {n} seed {seed}");
        assert!(svd.sigma.windows(2).all(|w| w[0] >= w[1]), "case {case}");
        let oracle = reference::jacobi_svd(&a);
        for (x, y) in svd.sigma.iter().zip(&oracle.sigma) {
            assert!((x - y).abs() <= 1e-5 * oracle.sigma[0], "case {case}: {x} vs {y}");
        }
    }
}

/// Alias tables never emit a zero-weight outcome and always emit a valid
/// index.
#[test]
fn alias_table_support() {
    for case in 0..CASES {
        let mut rng = XorShiftStream::new(0xA11A5, case);
        let len = 1 + rng.bounded_usize(49);
        let weights: Vec<f64> = (0..len).map(|_| rng.unit_f64() * 10.0).collect();
        if weights.iter().sum::<f64>() <= 0.0 {
            continue;
        }
        let t = AliasTable::new(&weights);
        let mut sample_rng = XorShiftStream::new(rng.bounded(100), 0);
        for _ in 0..200 {
            let i = t.sample(&mut sample_rng);
            assert!(i < weights.len(), "case {case}: index {i} out of range");
            assert!(weights[i] > 0.0, "case {case}: sampled zero-weight outcome {i}");
        }
    }
}

/// Weighted graphs: symmetric weights, duplicate summation, volume =
/// twice the total undirected weight — for any weighted edge list.
#[test]
fn weighted_graph_invariants() {
    for case in 0..CASES {
        let mut rng = XorShiftStream::new(0x3197, case);
        let n = 2 + rng.bounded_usize(78);
        let edges = random_weighted_edges(&mut rng, n, 200, 0.1, 5.0);
        let g = WeightedGraph::from_edges(n, &edges);
        // Symmetry of weights.
        for u in 0..n as u32 {
            let (nb, ws) = g.neighbors(u);
            for (&v, &w) in nb.iter().zip(ws) {
                assert!((g.edge_weight(v, u) - w).abs() < 1e-4, "case {case}: ({u},{v})");
                assert_ne!(v, u, "case {case}: self-loop survived");
            }
        }
        // Volume = Σ weighted degrees = 2 Σ undirected weights.
        let undirected: f64 =
            edges.iter().filter(|&&(u, v, _)| u != v).map(|&(_, _, w)| w as f64).sum();
        assert!(
            (g.volume() - 2.0 * undirected).abs() < 1e-2 * undirected.max(1.0),
            "case {case}: volume {} undirected {undirected}",
            g.volume()
        );
    }
}

/// Weighted neighbor sampling only returns actual neighbors.
#[test]
fn weighted_sampling_supports_neighbors_only() {
    for case in 0..CASES {
        let mut rng = XorShiftStream::new(0x10_0D, case);
        let edges = random_weighted_edges(&mut rng, 20, 60, 0.1, 3.0);
        if edges.is_empty() {
            continue;
        }
        let g = WeightedGraph::from_edges(20, &edges);
        let mut sample_rng = XorShiftStream::new(rng.bounded(50), 0);
        for u in 0..20u32 {
            let (nb, _) = g.neighbors(u);
            for _ in 0..20 {
                match g.sample_neighbor(u, &mut sample_rng) {
                    Some(v) => {
                        assert!(nb.contains(&v), "case {case}: non-neighbor {v} sampled from {u}")
                    }
                    None => assert!(nb.is_empty(), "case {case}"),
                }
            }
        }
    }
}

/// Random-walk endpoints are always reachable vertices of the right
/// component (they stay within the vertex range and nonzero degree).
#[test]
fn walks_stay_in_graph() {
    for case in 0..CASES {
        let mut rng = XorShiftStream::new(0x3A1F, case);
        let n = 3 + rng.bounded_usize(97);
        let edges = {
            let e = random_edges(&mut rng, n, 200);
            if e.is_empty() {
                continue;
            }
            e
        };
        let g = GraphBuilder::from_edges(n, &edges);
        if g.num_edges() == 0 {
            continue;
        }
        let Some(start) = edges.iter().find(|(u, v)| u != v).map(|&(u, _)| u) else {
            continue;
        };
        let steps = rng.bounded_usize(20);
        let mut walk_rng = XorShiftStream::new(rng.bounded(100), 1);
        let end = lightne::graph::walk::walk(&g, start, steps, &mut walk_rng);
        assert!((end as usize) < n, "case {case}");
        if steps > 0 {
            assert!(g.degree(end) > 0 || end == start, "case {case}");
        }
    }
}
