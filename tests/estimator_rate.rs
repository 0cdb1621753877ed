//! The sampler as an estimator: its error falls at the Monte Carlo rate,
//! and every arc keeps its expected weight.
//!
//! A trial from arc `(u, v)` lands on the ordered pair `(i, j)` with
//! probability `d_i (D⁻¹A)^r_ij / vol(G)`, so the aggregate `X` has
//! expectation `μ_ij = 2M/(vol·T) · d_i · Σ_r (D⁻¹A)^r_ij` (see
//! `lightne_sparsifier::construct`). An unbiased estimator built from
//! `M` independent trials has `E‖X − μ‖²_F ∝ M` and `‖μ‖_F ∝ M`, so its
//! relative Frobenius error falls as `1/√M`. A biased one — a walk step
//! that draws neighbours off their weights, a survival coin that does not
//! match its `1/p`, a lane that loses or repeats a trial — stops falling
//! at its bias, and the log-log slope over the budgets flattens from −0.5
//! towards 0.
//!
//! The rate is checked on three backends of one 40-vertex graph: with
//! non-unit weights spread over two decades (a step that ignored or
//! misread them would move `X` away from `μ`), and with unit weights as a
//! CSR graph and as an `arice` container — the CSR sampler keeps sixteen
//! walks in flight per range, the container one.

use lightne::graph::{Codec, Graph, GraphBuilder, V2Graph, VertexId, WeightedGraph, WeightedOps};
use lightne::hash::EdgeAggregator;
use lightne::sparsifier::downsample::survival_probability;
use lightne::sparsifier::exact::walk_sum;
use lightne::sparsifier::{build_sharded_sparsifier, ProbScheme, SamplerConfig};
use lightne::utils::rng::XorShiftStream;
use std::collections::BTreeMap;

const N: usize = 40;

/// Downsampling constant `C` of the downsampled runs: small enough that
/// most arcs have `p_e < 1` (the default `log n` keeps almost every trial
/// on a graph this small).
const C: f64 = 0.3;

/// Six random partners per vertex, weights `10^(2u)` for uniform `u`.
fn graph() -> WeightedGraph {
    WeightedGraph::from_edges(N, &partner_edges())
}

/// The same partners with unit weights (a repeated pair is one edge).
fn unit_graph() -> Graph {
    let pairs: Vec<_> = partner_edges().into_iter().map(|(u, v, _)| (u, v)).collect();
    GraphBuilder::from_edges(N, &pairs)
}

fn partner_edges() -> Vec<(VertexId, VertexId, f32)> {
    let mut rng = XorShiftStream::new(0x5EED, 0);
    let mut edges = Vec::new();
    for u in 0..N as VertexId {
        for _ in 0..6 {
            let v = rng.bounded_usize(N) as VertexId;
            edges.push((u, v, 10f64.powf(2.0 * rng.unit_f64()) as f32));
        }
    }
    edges
}

fn config(samples: u64, window: usize, downsample: bool, seed: u64) -> SamplerConfig {
    SamplerConfig { window, samples, downsample, c_factor: Some(C), prob: ProbScheme::Degree, seed }
}

/// The sampled aggregate as a dense `n × n` array (both orientations).
fn aggregate<G: WeightedOps>(g: &G, cfg: &SamplerConfig) -> Vec<f64> {
    let (table, _) = build_sharded_sparsifier(g, cfg, 0).unwrap();
    let mut x = vec![0f64; N * N];
    for (i, j, w) in table.into_coo() {
        x[i as usize * N + j as usize] += w as f64;
    }
    x
}

/// Least-squares slope of `ys` against `xs`.
fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let k = xs.len() as f64;
    let (mx, my) = (xs.iter().sum::<f64>() / k, ys.iter().sum::<f64>() / k);
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

const WINDOW: usize = 3;

/// Budgets of the rate fit: five, a factor of four apart.
const BUDGETS: [u64; 5] = [1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20];

/// Seeds whose squared errors are averaged at each budget.
const SEEDS_PER_BUDGET: u64 = 8;

/// Slope of log(relative Frobenius error) against log M, the squared
/// error averaged over [`SEEDS_PER_BUDGET`] seeds from `seed_base` at
/// each budget.
fn rate_slope<G: WeightedOps>(g: &G, downsample: bool, seed_base: u64) -> f64 {
    let exact = walk_sum(g, WINDOW);
    let (mut log_m, mut log_err) = (Vec::new(), Vec::new());
    for &m in &BUDGETS {
        let scale = 2.0 * m as f64 / (g.volume() * WINDOW as f64);
        let mut sq = 0.0;
        for s in 0..SEEDS_PER_BUDGET {
            let x = aggregate(g, &config(m, WINDOW, downsample, seed_base * 1000 + s));
            let (mut err, mut norm) = (0.0, 0.0);
            for i in 0..N {
                let di = g.weighted_degree(i as VertexId);
                for j in 0..N {
                    let want = scale * di * exact.get(i, j) as f64;
                    err += (x[i * N + j] - want).powi(2);
                    norm += want * want;
                }
            }
            sq += err / norm;
        }
        log_m.push((m as f64).ln());
        log_err.push((sq / SEEDS_PER_BUDGET as f64).sqrt().ln());
    }
    slope(&log_m, &log_err)
}

/// Allowed distance of the fitted slope from −0.5, without and with
/// downsampling. Over 24 seed bases (0..24) the slope ranged
/// −0.5077 … −0.4925 without downsampling and −0.5445 … −0.4731 with it
/// (the `1/p` deposits make single runs noisier; the same slopes, to the
/// digit, with sixteen walk lanes per range); on the binary-search
/// step the alias step replaced, −0.5068 … −0.4946 and −0.5456 … −0.4680
/// (EXPERIMENTS.md, "Alias-table walk steps"). Each bound is 1.5 × the
/// largest deviation seen, rounded up.
const SLOPE_TOL: [(bool, f64); 2] = [(false, 0.015), (true, 0.07)];

fn check_rate<G: WeightedOps>(name: &str, g: &G, tolerances: [(bool, f64); 2]) {
    for (downsample, tol) in tolerances {
        let s = rate_slope(g, downsample, 7);
        assert!(
            (s + 0.5).abs() <= tol,
            "{name}, downsample {downsample}: log-log slope {s:.4}, want -0.5 ± {tol}"
        );
    }
}

#[test]
fn weighted_error_falls_as_one_over_root_m() {
    check_rate("weighted", &graph(), SLOPE_TOL);
}

/// The unit-weight cells' allowed distance of the slope from −0.5,
/// without and with downsampling. Over 24 seed bases (0..24) the slope
/// ranged −0.5050 … −0.4943 without downsampling and −0.5052 … −0.4956
/// with it (EXPERIMENTS.md, "Interleaved walk lanes"); each bound is
/// 1.5 × the largest deviation seen, rounded up. Without weights `p_e`
/// varies only with the degrees — the weighted graph's spans two decades
/// of weight — so the downsampled slope is as steady as the plain one.
/// The CSR graph and the container gave equal slopes at every base: they
/// deposit the same samples.
const UNIT_SLOPE_TOL: [(bool, f64); 2] = [(false, 0.01), (true, 0.01)];

#[test]
fn unit_weight_csr_error_falls_as_one_over_root_m() {
    check_rate("csr", &unit_graph(), UNIT_SLOPE_TOL);
}

#[test]
fn container_error_falls_as_one_over_root_m() {
    let arice = V2Graph::from_graph(&unit_graph(), Codec::RiceAdaptive);
    check_rate("arice", &arice, UNIT_SLOPE_TOL);
}

/// Seeds averaged per arc in the unbiasedness check.
const ARC_SEEDS: u64 = 20;

/// Budget of each unbiasedness run.
const ARC_BUDGET: u64 = 1 << 16;

/// Largest allowed `|z|` of one edge's mean kept weight. Over 24 seed
/// bases the largest `|z|` among the graph's edges was 2.26 … 3.82
/// (EXPERIMENTS.md, "Alias-table walk steps"); the bound is 1.25 × the
/// largest, rounded up.
const Z_TOL: f64 = 5.0;

/// Allowed `√E · mean z` over the graph's `E` edges, one standard normal
/// draw when the edges are unbiased: a three-σ bound. It was
/// −1.34 … 1.38 over the same 24 seed bases.
const MEAN_Z_TOL: f64 = 3.0;

/// Per-arc unbiasedness of the downsampled estimator: arc `(u, v)` of
/// weight `w` gets `M·w/vol` trials in expectation, keeps each with
/// probability `p_e` and deposits `1/p_e` for each survivor, so its kept
/// weight has expectation `M·w/vol` whatever `p_e` is. At `T = 1` every
/// trial lands on its own arc, so the aggregate's `(u, v)` entry is the
/// kept weight of both of the edge's arcs: expectation `2·M·w/vol`, and
/// variance `Σ_arcs E[n](1 − p)/p + f(1 − f)` (`f` the fractional part of
/// the expected trial count, resolved by one coin).
fn max_and_mean_z(g: &WeightedGraph, seed_base: u64) -> (f64, f64) {
    let mut sums: BTreeMap<(VertexId, VertexId), f64> = BTreeMap::new();
    for s in 0..ARC_SEEDS {
        let x = aggregate(g, &config(ARC_BUDGET, 1, true, seed_base * 1000 + s));
        for u in 0..N as VertexId {
            let (nb, _) = g.neighbors(u);
            for &v in nb.iter().filter(|&&v| u < v) {
                *sums.entry((u, v)).or_default() += x[u as usize * N + v as usize];
            }
        }
    }
    let (mut max_z, mut sum_z) = (0f64, 0f64);
    for (&(u, v), &total) in &sums {
        let w = g.edge_weight(u, v);
        let per_arc = ARC_BUDGET as f64 * w as f64 / g.volume();
        let p = survival_probability(g, u, v, w, C);
        let f = per_arc.fract();
        let var = 2.0 * (per_arc * (1.0 - p) / p + f * (1.0 - f));
        let mean = total / ARC_SEEDS as f64;
        let z = (mean - 2.0 * per_arc) / (var / ARC_SEEDS as f64).sqrt();
        max_z = max_z.max(z.abs());
        sum_z += z;
    }
    (max_z, sum_z / (sums.len() as f64).sqrt())
}

#[test]
fn every_arc_keeps_its_expected_weight_under_downsampling() {
    let g = graph();
    let (max_z, mean_z) = max_and_mean_z(&g, 3);
    assert!(max_z <= Z_TOL, "an edge's mean kept weight is {max_z:.2} σ off");
    assert!(mean_z.abs() <= MEAN_Z_TOL, "edges are biased together: √E·mean z = {mean_z:.2}");
}
