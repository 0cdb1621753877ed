//! The sampler as an estimator: its error falls at the Monte Carlo rate,
//! every arc keeps its expected weight, it beats PathSampling at equal
//! walk steps, and the truncated-log matrix built from it converges.
//!
//! The sample `(u, z_r)` of a walk from arc `(u, v)` lands on the ordered
//! pair `(i, j)` with probability `d_i (D⁻¹A)^r_ij / vol(G)`, so the
//! aggregate `X` has expectation
//! `μ_ij = 2M/(vol·T) · d_i · Σ_r (D⁻¹A)^r_ij` (see
//! `lightne_sparsifier::construct`). An unbiased estimator built from
//! `M/T` independent walks has `E‖X − μ‖²_F ∝ M` and `‖μ‖_F ∝ M`, so its
//! relative Frobenius error falls as `1/√M`. A biased one — a walk step
//! that draws neighbours off their weights, a survival coin that does not
//! match its `1/p`, a lane that loses or repeats a walk — stops falling
//! at its bias, and the log-log slope over the budgets flattens from −0.5
//! towards 0.
//!
//! The rate is checked on three backends of one 40-vertex graph: with
//! non-unit weights spread over two decades (a step that ignored or
//! misread them would move `X` away from `μ`), and with unit weights as a
//! CSR graph and as an `arice` container, sixteen walks in flight per
//! range on each.

use lightne::graph::{Codec, Graph, GraphBuilder, V2Graph, VertexId, WeightedGraph, WeightedOps};
use lightne::hash::EdgeAggregator;
use lightne::linalg::DenseMatrix;
use lightne::sparsifier::downsample::survival_probability;
use lightne::sparsifier::exact::{exact_netmf_dense, walk_sum};
use lightne::sparsifier::path_sampling::path_sample;
use lightne::sparsifier::{build_sharded_sparsifier, sharded_to_netmf, ProbScheme, SamplerConfig};
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

/// Squared relative Frobenius error of `x` against `μ` at budget `m`,
/// from `walk = Σ_r (D⁻¹A)^r`.
fn relative_sq_error<G: WeightedOps>(
    g: &G,
    walk: &DenseMatrix,
    m: u64,
    window: usize,
    x: &[f64],
) -> f64 {
    let scale = 2.0 * m as f64 / (g.volume() * window as f64);
    let (mut err, mut norm) = (0.0, 0.0);
    for i in 0..N {
        let di = g.weighted_degree(i as VertexId);
        for j in 0..N {
            let want = scale * di * f64::from(walk.get(i, j));
            err += (x[i * N + j] - want).powi(2);
            norm += want * want;
        }
    }
    err / norm
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
        let mut sq = 0.0;
        for s in 0..SEEDS_PER_BUDGET {
            let x = aggregate(g, &config(m, WINDOW, downsample, seed_base * 1000 + s));
            sq += relative_sq_error(g, &exact, m, WINDOW, &x);
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

/// Window of the equal-steps comparison: the pipeline's default, where a
/// PathSampling trial walks a mean of 4.5 steps for its one sample.
const STEPS_WINDOW: usize = 10;

/// PathSampling's (Algorithm 1) trial budget of the equal-steps
/// comparison, and the seeds whose squared errors are averaged.
const PS_TRIALS: u64 = 1 << 16;
const STEPS_SEEDS: u64 = 8;

/// The estimator the sampler replaced, written from `path_sample`: arc
/// `(u, v)` of weight `w` gets `M·w/vol` trials from its own stream,
/// each flips the `p_e` coin and a survivor deposits `1/p_e` at both
/// orientations of one `path_sample` of a uniform length in `[1, T]`.
/// Its expectation is the sampler's `μ` at the same `M`.
fn path_sampling_aggregate<G: WeightedOps>(g: &G, cfg: &SamplerConfig) -> Vec<f64> {
    let mut x = vec![0f64; N * N];
    let mut arc_idx = 0u64;
    for u in 0..N as VertexId {
        g.for_each_arc(u, |v, w| {
            let mut rng = XorShiftStream::new(cfg.seed, arc_idx);
            arc_idx += 1;
            let (whole, frac) = g.arc_trials(cfg.samples, w);
            let n_e = whole + u64::from(rng.bernoulli(frac));
            let p_e = if cfg.downsample { survival_probability(g, u, v, w, C) } else { 1.0 };
            for _ in 0..n_e {
                if p_e < 1.0 && !rng.bernoulli(p_e) {
                    continue;
                }
                let r = 1 + rng.bounded_usize(cfg.window);
                let (a, b) = path_sample(g, u, v, r, &mut rng);
                x[a as usize * N + b as usize] += 1.0 / p_e;
                x[b as usize * N + a as usize] += 1.0 / p_e;
            }
        });
    }
    x
}

/// Root-mean-square relative errors of PathSampling at [`PS_TRIALS`]
/// trials and of the sampler at the budget that walks the same expected
/// steps: a trial walks `(T − 1)/2` steps for one sample and a walk
/// `T − 1` for `T`, so the sampler's budget is `PS_TRIALS · T / 2`. The
/// survival coin weighs both sides alike, so the equality holds with
/// downsampling too. A walk's `T` samples are correlated, so the gain
/// is less than the `√(T/2)` of independent samples: ROADMAP's prototype
/// predicted about half the error, and the sampler reads ×0.43–0.54.
fn equal_steps_errors<G: WeightedOps>(g: &G, downsample: bool) -> (f64, f64) {
    let walk = walk_sum(g, STEPS_WINDOW);
    let pairs = PS_TRIALS * STEPS_WINDOW as u64 / 2;
    let (mut ps, mut prefix) = (0.0, 0.0);
    for s in 0..STEPS_SEEDS {
        let old = config(PS_TRIALS, STEPS_WINDOW, downsample, 500 + s);
        let x = path_sampling_aggregate(g, &old);
        ps += relative_sq_error(g, &walk, PS_TRIALS, STEPS_WINDOW, &x);
        let new = config(pairs, STEPS_WINDOW, downsample, 500 + s);
        let x = aggregate(g, &new);
        prefix += relative_sq_error(g, &walk, pairs, STEPS_WINDOW, &x);
    }
    ((ps / STEPS_SEEDS as f64).sqrt(), (prefix / STEPS_SEEDS as f64).sqrt())
}

fn check_equal_steps<G: WeightedOps>(name: &str, g: &G) {
    for downsample in [false, true] {
        let (ps, prefix) = equal_steps_errors(g, downsample);
        println!(
            "{name}, downsample {downsample}: PathSampling {ps:.4}, prefix pairs {prefix:.4} \
             (x{:.2})",
            prefix / ps
        );
        assert!(prefix < ps, "{name}, downsample {downsample}: {prefix:.4} ≥ {ps:.4}");
    }
}

#[test]
fn prefix_pairs_beat_path_sampling_at_equal_walk_steps() {
    check_equal_steps("weighted", &graph());
    check_equal_steps("csr", &unit_graph());
    check_equal_steps("arice", &V2Graph::from_graph(&unit_graph(), Codec::RiceAdaptive));
}

/// Relative Frobenius error of the truncated-log NetMF matrix the
/// pipeline factorises, sampled at budget `m` (the mean over
/// [`SEEDS_PER_BUDGET`] seeds from `seed_base` of the squared error),
/// against `exact_netmf_dense`.
fn netmf_error<G: WeightedOps>(g: &G, exact: &DenseMatrix, m: u64, seed_base: u64) -> f64 {
    let mut sq = 0.0;
    for s in 0..SEEDS_PER_BUDGET {
        let cfg = config(m, WINDOW, false, seed_base * 1000 + s);
        let (table, _) = build_sharded_sparsifier(g, &cfg, 0).unwrap();
        let got = sharded_to_netmf(g, table, m, 1.0);
        let (mut err, mut norm) = (0.0, 0.0);
        for i in 0..N {
            for j in 0..N {
                let want = f64::from(exact.get(i, j));
                err += (f64::from(got.get(i, j)) - want).powi(2);
                norm += want * want;
            }
        }
        sq += err / norm;
    }
    (sq / SEEDS_PER_BUDGET as f64).sqrt()
}

/// Slope of log(truncated-log NetMF error) against log M over
/// [`BUDGETS`], and the errors it is fitted to.
fn netmf_slope<G: WeightedOps>(g: &G, seed_base: u64) -> (f64, Vec<f64>) {
    let exact = exact_netmf_dense(g, WINDOW, 1.0);
    let errors: Vec<f64> = BUDGETS.iter().map(|&m| netmf_error(g, &exact, m, seed_base)).collect();
    let log_m: Vec<f64> = BUDGETS.iter().map(|&m| (m as f64).ln()).collect();
    let log_err: Vec<f64> = errors.iter().map(|e| e.ln()).collect();
    (slope(&log_m, &log_err), errors)
}

/// Slopes the truncated-log NetMF error must reach or beat, unit-weight
/// CSR then weighted: the shallowest over seed bases 0..8 that
/// PathSampling reached with this test (−0.5034 … −0.5154 and
/// −0.4754 … −0.4870; EXPERIMENTS.md, "Prefix pairs"). The prefix-pair
/// sampler read −0.5179 … −0.5266 and −0.4809 … −0.4993 over the same
/// bases.
const NETMF_SLOPE_AT_MOST: [f64; 2] = [-0.5034, -0.4754];

fn check_netmf_falls<G: WeightedOps>(name: &str, g: &G, at_most: f64) {
    let (s, errors) = netmf_slope(g, 7);
    println!("{name}: truncated-log NetMF error {errors:.4?}, slope {s:.4}");
    for (m, pair) in BUDGETS[1..].iter().zip(errors.windows(2)) {
        assert!(pair[1] < pair[0], "{name}: the error rose to {:.4} at M = {m}", pair[1]);
    }
    assert!(s <= at_most, "{name}: log-log slope {s:.4}, want at most {at_most}");
}

/// The matrix the pipeline factorises is `trunc_log` of the aggregate,
/// and at a small budget it is biased: `E log X < log E X`, and entries
/// whose sampled argument falls below 1 drop to zero. Its error against
/// the exact NetMF matrix must still fall at every step of the budget,
/// at least as steeply as it did under PathSampling.
#[test]
fn truncated_log_netmf_error_falls_with_the_budget() {
    check_netmf_falls("csr", &unit_graph(), NETMF_SLOPE_AT_MOST[0]);
    check_netmf_falls("weighted", &graph(), NETMF_SLOPE_AT_MOST[1]);
}
