//! The untraced run of one workload: set-up, timed embeds, correctness
//! checks and the four end-to-end metrics.
//!
//! Load is in-process and closed-loop: one embed at a time, the next one
//! starting when the previous one returns, on the workload's thread count
//! and never more.

use crate::json::{obj, Json};
use crate::machine::{self, Machine};
use crate::stats::median;
use crate::workloads::{self, Backend, Spec, TempDir};
use lightne_core::{LightNe, LightNeOutput};
use lightne_gen::labels::Labels;
use lightne_graph::VertexId;
use lightne_linalg::DenseMatrix;
use lightne_utils::rng::XorShiftStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The gated end-to-end metrics: `(name, unit, higher_is_better, bound)`,
/// the bound being the share of the parent's median by which the metric
/// may worsen. `BENCHMARK.json` says the same; a test holds the two
/// together.
pub const END_TO_END: [(&str, &str, bool, f64); 4] = [
    ("embed_s", "s", false, 0.25),
    ("peak_rss_mb", "MiB", false, 0.15),
    ("task_score", "score", true, 0.1),
    ("setup_s", "s", false, 0.25),
];

/// Fewest and most set-up repetitions of a full run.
const SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 25;
/// Fewest timed embeds of a full run, however long one takes.
const MIN_TIMED_REPS: usize = 3;

/// Train/test splits the classification score is averaged over.
const CLASSIFY_SPLITS: u64 = 5;

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// How long the timed loop measures.
    pub seconds: f64,
    /// Tiny `n`, one set-up, one timed embed: the smoke-test mode.
    pub quick: bool,
}

/// One named pass/fail check with what was observed.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, ok: bool, detail: String) -> Self {
        Self { name: name.to_string(), ok, detail }
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("name", Json::from(self.name.as_str())),
            ("ok", Json::from(self.ok)),
            ("detail", Json::from(self.detail.as_str())),
        ])
    }
}

/// Prints the checks of a finished run to stderr, one per line.
pub fn report_checks(checks: &[Check]) {
    for c in checks {
        eprintln!(
            "  check {:<28} {}  {}",
            c.name,
            if c.ok { "ok    " } else { "FAILED" },
            c.detail
        );
    }
}

/// A workload's input, ready to embed and to score.
pub struct Input {
    pub backend: Backend,
    pub labels: Option<Labels>,
    pub held_out: Vec<(VertexId, VertexId)>,
}

/// Generates the input and builds its backend once, returning the time
/// that took (the `setup_s` sample) and the set-up checks.
pub fn set_up(
    spec: &Spec,
    opts: &Options,
    tmp: &TempDir,
) -> Result<(Input, f64, Vec<Check>), String> {
    let started = Instant::now();
    let generated = workloads::generate(spec, spec.vertices(opts.quick), opts.seed);
    let (backend, csr) = Backend::build(spec, generated.graph, opts.seed, tmp.path())?;
    let secs = started.elapsed().as_secs_f64();
    let mut checks = Vec::new();
    if let (Backend::V2(v2), Some(csr)) = (&backend, csr) {
        let same = v2.decompress() == csr;
        checks.push(Check::new(
            "v2_decodes_to_csr",
            same,
            format!("{} arcs decoded from {} container bytes", v2.num_arcs(), v2.container_bytes()),
        ));
    }
    Ok((Input { backend, labels: generated.labels, held_out: generated.held_out }, secs, checks))
}

/// FNV-1a over the embedding's little-endian bytes.
pub fn embedding_checksum(x: &DenseMatrix) -> u64 {
    let bytes: Vec<u8> = x.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
    lightne_utils::checksum::fnv1a64(&bytes)
}

/// One embed call as one operation: a typed error, a panic, a wrong shape
/// or a non-finite value makes it a failed one.
pub fn embed_op(input: &Input, engine: &LightNe) -> Result<(LightNeOutput, f64), String> {
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| input.backend.embed(engine)));
    let secs = started.elapsed().as_secs_f64();
    let out = match result {
        Ok(Ok(out)) => out,
        Ok(Err(e)) => return Err(format!("embed returned an error: {e}")),
        Err(_) => return Err("embed panicked".to_string()),
    };
    let (n, d) = (input.backend.num_vertices(), engine.config().dim);
    let x = &out.embedding;
    if (x.rows(), x.cols()) != (n, d) {
        return Err(format!("embedding is {}x{}, expected {n}x{d}", x.rows(), x.cols()));
    }
    if !x.as_slice().iter().all(|v| v.is_finite()) {
        return Err("embedding has a non-finite value".to_string());
    }
    Ok((out, secs))
}

/// Downstream accuracy of an embedding, in `[0, 1]`, and which score it
/// is: micro-F1 at 10 % train (mean of `CLASSIFY_SPLITS` splits) where the
/// generator gave labels, else ROC-AUC of held-out edges against as many
/// sampled non-edges.
pub fn task_score(input: &Input, x: &DenseMatrix, seed: u64) -> (f64, &'static str) {
    if let Some(labels) = &input.labels {
        // One train/test split moves the score by more than a percent on
        // the same embedding; the mean over a few seeded splits (the
        // paper repeats its splits too) is what stays put.
        let total: f64 = (0..CLASSIFY_SPLITS)
            .map(|k| {
                let split = seed.wrapping_add(k);
                lightne_eval::evaluate_node_classification(x, labels, workloads::TRAIN_RATIO, split)
                    .micro
            })
            .sum();
        return (total / CLASSIFY_SPLITS as f64 / 100.0, "micro_f1_at_10pct_train");
    }
    let n = x.rows();
    let dot = |u: VertexId, v: VertexId| -> f64 {
        x.row(u as usize).iter().zip(x.row(v as usize)).map(|(&a, &b)| a as f64 * b as f64).sum()
    };
    let mut rng = XorShiftStream::new(seed, 0xA0C);
    let mut scores: Vec<f64> = input.held_out.iter().map(|&(u, v)| dot(u, v)).collect();
    let mut is_edge = vec![true; scores.len()];
    while scores.len() < 2 * input.held_out.len() {
        let (u, v) = (rng.bounded_usize(n) as VertexId, rng.bounded_usize(n) as VertexId);
        // A held-out edge is absent from the training graph but is not a
        // non-edge; the chance of drawing one is m/n², and it can only
        // lower the score.
        if u != v && !input.backend.has_edge(u, v) {
            scores.push(dot(u, v));
            is_edge.push(false);
        }
    }
    (lightne_eval::roc_auc(&scores, &is_edge), "roc_auc_held_out_edges")
}

/// Everything one finished run reports.
pub struct Outcome {
    /// All that was measured, for the human report and the run-set files.
    pub detail: Json,
    /// The result line the driver reads.
    pub line: Json,
    pub correct: bool,
}

/// The fastest sample. NaN for none, which is reported as a failed check.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::min)
}

/// One metric's gated `value` beside the min/median/max/count of its
/// samples.
pub fn summary(unit: &str, value: f64, samples: &[f64]) -> Json {
    obj([
        ("unit", Json::from(unit)),
        ("value", Json::from(value)),
        ("median", Json::from(median(samples))),
        ("min", Json::from(fastest(samples))),
        ("max", Json::from(samples.iter().copied().fold(f64::NAN, f64::max))),
        ("count", Json::from(samples.len())),
    ])
}

/// The driver's result line from a list of `(name, unit, value)`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> Json {
    obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "metrics",
            obj(metrics.iter().map(|&(name, unit, value)| {
                (name, obj([("value", Json::from(value)), ("unit", Json::from(unit))]))
            })),
        ),
    ])
}

/// Runs one workload untraced. `Err` only when set-up itself cannot be
/// done (nothing was measured); every later failure is a failed check.
pub fn run(spec: &Spec, opts: &Options) -> Result<Outcome, String> {
    let threads = lightne_utils::parallel::configure_threads(spec.threads());
    let host = Machine::detect();
    let tmp = TempDir::create().map_err(|e| format!("temp dir: {e}"))?;

    // Set-up is repeated so that its fastest repetition is steady: at
    // least `SETUP_REPS` times, and for a set-up of milliseconds until a
    // second of it has been measured.
    let mut setup_s = Vec::new();
    let mut last = None;
    let min_setups = if opts.quick { 1 } else { SETUP_REPS };
    while setup_s.len() < min_setups
        || (!opts.quick && setup_s.len() < MAX_SETUP_REPS && setup_s.iter().sum::<f64>() < 1.0)
    {
        // One input alive at a time, as in a real run.
        drop(last.take());
        let (input, secs, checks) = set_up(spec, opts, &tmp)?;
        setup_s.push(secs);
        last = Some((input, checks));
    }
    let (input, mut checks) = last.expect("at least one set-up repetition");

    // From here on the peak is the embeds' own, not the generator's.
    let rss_reset = machine::reset_peak_rss();
    let engine = LightNe::new(spec.config(opts.seed));
    let mut attempted = 0u64;
    let mut failures = Vec::new();
    let mut embed_s = Vec::new();
    let mut checksums = Vec::new();
    let mut kept: Option<LightNeOutput> = None;
    let min_reps = if opts.quick { 1 } else { MIN_TIMED_REPS };
    // The first call is the warm-up: it counts as an operation and is
    // checked like the others, but its time is not a sample. Three failed
    // calls end the run; it has failed by then.
    while failures.len() < 3
        && (attempted == 0
            || embed_s.len() < min_reps
            || embed_s.iter().sum::<f64>() < opts.seconds)
    {
        // The previous embedding is freed first so that the peak holds
        // one run's memory, not two.
        drop(kept.take());
        attempted += 1;
        match embed_op(&input, &engine) {
            Ok((out, secs)) => {
                checksums.push(embedding_checksum(&out.embedding));
                if attempted > 1 {
                    embed_s.push(secs);
                }
                kept = Some(out);
            }
            Err(why) => failures.push(why),
        }
    }
    let failed = failures.len() as u64;
    let peak_rss_mb = machine::peak_rss_mb();

    checks.push(Check::new(
        "every_embed_succeeded",
        failed == 0,
        if failures.is_empty() {
            format!("{attempted} embeds: shape and finiteness held")
        } else {
            failures.join("; ")
        },
    ));
    checks.push(Check::new(
        "checksum_repeats",
        !checksums.is_empty() && checksums.iter().all(|&c| c == checksums[0]),
        format!(
            "{} embeddings, checksum {:016x}",
            checksums.len(),
            checksums.first().unwrap_or(&0)
        ),
    ));

    let (score, score_kind) = match &kept {
        Some(out) => task_score(&input, &out.embedding, opts.seed),
        None => (f64::NAN, "none"),
    };
    // The floor is for the full-size problem; a quick run only smoke-tests.
    let floor = if opts.quick { 0.0 } else { spec.score_floor };
    checks.push(Check::new(
        "task_score_above_floor",
        score >= floor,
        format!("{score_kind} {score:.4} against floor {floor:.4}"),
    ));

    let n = input.backend.num_vertices();
    // The gated time is the fastest call, not the median: on a shared box
    // noise only adds time, and across runs of this benchmark the fastest
    // call repeats two to three times more closely than the median call
    // (README, "Steadiness").
    let embed_fastest = fastest(&embed_s);
    let values = [embed_fastest, peak_rss_mb, score, fastest(&setup_s)];
    let samples = [&embed_s[..], &[peak_rss_mb], &[score], &setup_s[..]];
    checks.push(Check::new(
        "metrics_are_finite",
        values.iter().all(|v| v.is_finite() && *v > 0.0),
        format!("{values:?}"),
    ));
    let correct = checks.iter().all(|c| c.ok);

    let stages = kept.as_ref().map_or_else(Vec::new, |out| {
        out.stats.stages.iter().map(|s| (s.name.clone(), Json::from(s.secs))).collect()
    });
    let detail = obj([
        ("workload", Json::from(spec.name)),
        ("seed", Json::from(opts.seed)),
        ("quick", Json::from(opts.quick)),
        ("threads", Json::from(threads)),
        ("n", Json::from(n)),
        ("m", Json::from(input.backend.num_edges())),
        ("machine", host.to_json()),
        (
            "peak_rss_scope",
            Json::from(if rss_reset { "after set-up (peak reset)" } else { "whole process" }),
        ),
        (
            "metrics",
            obj(END_TO_END.iter().zip(values).zip(samples).map(
                |((&(name, unit, _, _), value), samples)| (name, summary(unit, value, samples)),
            )),
        ),
        ("score_kind", Json::from(score_kind)),
        ("vertices_per_s", Json::from(n as f64 / embed_fastest)),
        ("checksum", Json::from(format!("{:016x}", checksums.last().unwrap_or(&0)))),
        ("last_embed_stage_s", Json::Obj(stages)),
        ("ops_attempted", Json::from(attempted)),
        ("ops_failed", Json::from(failed)),
        ("checks", Json::Arr(checks.iter().map(Check::to_json).collect())),
    ]);
    let metrics: Vec<(&str, &str, f64)> =
        END_TO_END.iter().zip(values).map(|(&(name, unit, _, _), v)| (name, unit, v)).collect();

    eprintln!(
        "== {} (seed {}, {threads} thread(s), n={n} m={}) ==",
        spec.name,
        opts.seed,
        input.backend.num_edges()
    );
    eprintln!("{}", host.header());
    eprintln!(
        "peak RSS covers: {}",
        if rss_reset { "after set-up (peak reset)" } else { "whole process (reset refused)" }
    );
    for ((name, unit, value), samples) in metrics.iter().zip(samples) {
        eprintln!(
            "  {name:<12} {value:>12.4} {unit:<6} of {} samples (min {:.4}, median {:.4}, max {:.4})",
            samples.len(),
            fastest(samples),
            median(samples),
            samples.iter().copied().fold(f64::NAN, f64::max),
        );
    }
    eprintln!(
        "  task_score is {score_kind}; vertices_per_s = n / embed_s = {:.1}",
        n as f64 / embed_fastest
    );
    if let Some(out) = &kept {
        let total = out.stats.total_secs();
        let shares: Vec<String> = out
            .stats
            .stages
            .iter()
            .map(|s| format!("{} {:.3} s ({:.0}%)", s.name, s.secs, 100.0 * s.secs / total))
            .collect();
        eprintln!("  last embed by stage: {}", shares.join(", "));
    }
    eprintln!("  ops_attempted = {attempted}  ops_failed = {failed}");
    report_checks(&checks);
    Ok(Outcome { detail, line: result_line(correct, attempted, failed, &metrics), correct })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(true, 5, 0, &[("embed_s", "s", 1.25), ("setup_s", "s", 0.5)]);
        assert_eq!(
            line.to_line(),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\"embed_s\": \
             {\"value\": 1.25, \"unit\": \"s\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn link_prediction_score_separates_a_planted_embedding() {
        // Two cliques; the embedding is the clique indicator, so every
        // held-out (intra-clique) edge outscores most sampled non-edges.
        let mut edges = Vec::new();
        for base in [0u32, 8] {
            for i in 0..8u32 {
                for j in 0..i {
                    edges.push((base + i, base + j));
                }
            }
        }
        let held_out = vec![edges.remove(0), edges.remove(30)];
        let g = lightne_graph::GraphBuilder::from_edges(16, &edges);
        let mut x = DenseMatrix::zeros(16, 2);
        for v in 0..16 {
            x.set(v, v / 8, 1.0);
        }
        let input = Input { backend: Backend::Csr(g), labels: None, held_out };
        let (score, kind) = task_score(&input, &x, 1);
        assert_eq!(kind, "roc_auc_held_out_edges");
        assert!(score > 0.7, "planted structure scored {score}");
    }
}
