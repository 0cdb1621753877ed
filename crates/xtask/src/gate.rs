//! `cargo xtask gate <linalg|graph|quality>` — the one regression gate
//! over the flat JSON reports of `bench_*_json`: a reader for
//! one-key-per-line JSON ([`Report`]), an evaluator over four rule kinds
//! plus a guard ([`evaluate`]), and the table of every gated key with its
//! threshold ([`table`]). A report is judged against a committed baseline
//! of the same shape.
//!
//! Verdict lines: `ok:` (rule held), `FAIL:` (rule violated, or a key
//! the table names is absent from the report or the baseline — a renamed
//! metric must not turn a gate into a vacuous pass), `skip:` (a baseline
//! comparison whose configuration keys differ from the baseline's, e.g.
//! a CI smoke run at smaller sizes) and `stale:` (the comparison passed
//! by more than its own band: the baseline guards nothing, re-record it).

use std::fmt;
use std::path::{Path, PathBuf};

/// Why a report could not be judged at all (exit code 2, not 1).
#[derive(Debug)]
pub enum GateError {
    /// The file could not be read.
    Io(PathBuf, std::io::Error),
    /// The text is not one complete JSON object.
    Malformed,
    /// Bad command line: unknown gate name, flag without its value.
    Usage(String),
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(p, e) => write!(f, "cannot read {}: {e}", p.display()),
            Self::Malformed => write!(f, "malformed report: not one complete JSON object"),
            Self::Usage(msg) => write!(f, "{msg}"),
        }
    }
}

/// The scalar members of a one-key-per-line JSON document, string
/// values unquoted. Members of nested objects are included; array items
/// are not.
#[derive(Debug, Default)]
pub struct Report(Vec<(String, String)>);

impl Report {
    /// Reads `"key": scalar` lines, after checking the bracket balance of
    /// the whole text: a truncated file is an error, not a shorter report.
    pub fn from_json(text: &str) -> Result<Self, GateError> {
        let (mut depth, mut in_str, mut escaped) = (0i64, false, false);
        for c in text.chars() {
            match c {
                _ if escaped => escaped = false,
                '\\' if in_str => escaped = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
        }
        if !text.trim_start().starts_with('{') || depth != 0 || in_str {
            return Err(GateError::Malformed);
        }
        let mut fields = Vec::new();
        for line in text.lines() {
            let line = line.trim().trim_end_matches(',');
            let Some((key, val)) = line.strip_prefix('"').and_then(|l| l.split_once("\": ")) else {
                continue;
            };
            if !val.starts_with(['{', '[']) {
                fields.push((key.to_string(), val.trim_matches('"').to_string()));
            }
        }
        Ok(Self(fields))
    }

    /// [`Report::from_json`] of a file.
    pub fn from_file(path: &Path) -> Result<Self, GateError> {
        let text =
            std::fs::read_to_string(path).map_err(|e| GateError::Io(path.to_path_buf(), e))?;
        Self::from_json(&text)
    }

    fn field(&self, key: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Which way a gated metric is allowed to move.
#[derive(Debug, Clone, Copy)]
pub enum Dir {
    /// Higher is better: the bound is a floor.
    AtLeast,
    /// Lower is better: the bound is a ceiling.
    AtMost,
}

impl Dir {
    fn holds(self, got: f64, bound: f64) -> bool {
        match self {
            Self::AtLeast => got >= bound,
            Self::AtMost => got <= bound,
        }
    }
    fn op(self) -> &'static str {
        match self {
            Self::AtLeast => ">=",
            Self::AtMost => "<=",
        }
    }
}

/// Keys that must equal the baseline's for a like-for-like comparison.
pub type ConfigKeys = &'static [&'static str];

/// What a table row demands of its key.
#[derive(Debug, Clone, Copy)]
pub enum Rule {
    /// `report[key] >= c` — a machine-relative floor.
    AtLeast(f64),
    /// `report[key] <= c`.
    AtMost(f64),
    /// `report[key]` within `factor ×` the baseline's value.
    VsBaseline {
        /// Direction of the bound.
        dir: Dir,
        /// Tolerance band (`0.75` = a 25 % drop fails; `1.0` = ratchet).
        factor: f64,
        /// Compared only when these match.
        config_keys: ConfigKeys,
    },
    /// Every baseline key `<prefix><k>` is a floor for `report[k]`; a
    /// `k` absent from the report (subset run) is not checked, but at
    /// least one must be.
    FloorsFromBaseline {
        /// The floor-key prefix in the baseline.
        prefix: &'static str,
        /// Compared only when these match.
        config_keys: ConfigKeys,
    },
}

/// The guard of a row: the row applies only when `report[key]` …
#[derive(Debug, Clone, Copy)]
pub enum When {
    /// … equals the baseline's value of the same key.
    AtBaseline(&'static str),
    /// … differs from the baseline's value of the same key.
    OffBaseline(&'static str),
}

/// One gated key.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// The report key (for `FloorsFromBaseline`, a label).
    pub key: &'static str,
    /// The demand.
    pub rule: Rule,
    /// The guard, if the row is conditional.
    pub when: Option<When>,
}

const fn row(key: &'static str, rule: Rule) -> Row {
    Row { key, rule, when: None }
}

/// GFLOP/s may drop at most 25 % against the baseline at equal sizes.
const fn gflops(key: &'static str, config_keys: ConfigKeys) -> Row {
    row(key, Rule::VsBaseline { dir: Dir::AtLeast, factor: 0.75, config_keys })
}

const LINALG: &[Row] = &[
    // At smoke sizes the reference GEMM's working set stays
    // cache-resident, so the packed kernel's lead is smaller there.
    Row { when: Some(When::AtBaseline("gemm_m")), ..row("gemm_speedup", Rule::AtLeast(2.0)) },
    Row { when: Some(When::OffBaseline("gemm_m")), ..row("gemm_speedup", Rule::AtLeast(1.25)) },
    row("rsvd_speedup", Rule::AtLeast(1.5)),
    // The register-tiled Gram product against the row-streaming loop it
    // replaced: 4.2–4.4× on one thread at 8000 × 144 (native build).
    Row { when: Some(When::AtBaseline("gram_rows")), ..row("gram_speedup", Rule::AtLeast(3.0)) },
    // The one-pass symmetry walk against the per-entry binary search it
    // replaced, on one thread at ~3 M entries.
    Row {
        when: Some(When::AtBaseline("symcheck_nnz")),
        ..row("symcheck_speedup", Rule::AtLeast(3.0))
    },
    // The two-pass Gram-matrix orthonormaliser against the sequential
    // MGS it replaced, on one thread at 65536 × 128.
    Row { when: Some(When::AtBaseline("orth_rows")), ..row("orth_speedup", Rule::AtLeast(3.0)) },
    // The symmetric eigensolver at 256 (scalar code, the same on every
    // tier): at most 1.5× the baseline's time. Back-to-back runs on the
    // 2-vCPU reference VM read 15.6 and 20.7 ms, hence the wide band.
    row("sym_eig_256_secs", Rule::VsBaseline { dir: Dir::AtMost, factor: 1.5, config_keys: &[] }),
    // SIMD-tier numbers are compared like-for-like only; the
    // forced-scalar row anchors cross-tier runs.
    gflops("gemm_packed_gflops", &["gemm_m", "gemm_k", "gemm_n", "dispatch_tier"]),
    gflops("gemm_hot_gflops", &["gemm_hot_m", "gemm_k", "gemm_n", "dispatch_tier"]),
    gflops("gemm_scalar_gflops", &["gemm_m", "gemm_k", "gemm_n"]),
    gflops("gram_tiled_gflops", &["gram_rows", "gram_cols", "dispatch_tier"]),
    gflops("orth_gflops", &["orth_rows", "orth_cols", "dispatch_tier"]),
    gflops("rsvd_blocked_gflops", &["rsvd_n", "rsvd_rank", "dispatch_tier"]),
];

const GRAPH: &[Row] = &[
    // Ratios against the parallel-byte row of the same run.
    row("bits_ratio_best", Rule::AtMost(0.92)),
    row("seq_slowdown_best", Rule::AtMost(1.13)),
    // A walk step on the smallest codec against one on CSR: the recorded
    // ratio (4.26; 9.45 at CI smoke scale) × 1.25. The ratio depends on
    // the scale — at smoke scale the CSR arrays are cache-resident and
    // its step twice as cheap, a container step costs the same — so
    // each scale has its ceiling.
    Row { when: Some(When::AtBaseline("scale")), ..row("walk_slowdown_best", Rule::AtMost(5.3)) },
    Row { when: Some(When::OffBaseline("scale")), ..row("walk_slowdown_best", Rule::AtMost(11.8)) },
    // CSR construction on two threads — the parallel counting sort —
    // against the sequential sort-then-dedup build it replaced:
    // 1.8–2.5 on the reference box at both scales.
    row("csr_build_speedup", Rule::AtLeast(1.5)),
    // The encoding is deterministic in these keys.
    row(
        "v2_best_bits_per_edge",
        Rule::VsBaseline {
            dir: Dir::AtMost,
            factor: 1.02,
            config_keys: &["profile", "scale", "seed", "n", "arcs"],
        },
    ),
];

#[rustfmt::skip] // keeps the nine matrix knobs a two-line list
const QUALITY: &[Row] = &[
    row("scenario floors", Rule::FloorsFromBaseline {
        prefix: "floor_",
        config_keys: &["target_n", "dim", "window", "sample_ratio", "train_ratio", "holdout",
                       "negatives", "pairs", "seed"],
    }),
];

/// The committed baseline (workspace-relative) and the rows of a gate.
pub fn table(gate: &str) -> Result<(&'static str, &'static [Row]), GateError> {
    match gate {
        "linalg" => Ok(("results/BENCH_linalg.json", LINALG)),
        "graph" => Ok(("results/BENCH_graph.json", GRAPH)),
        "quality" => Ok(("results/BENCH_quality.json", QUALITY)),
        other => Err(GateError::Usage(format!("unknown gate `{other}`"))),
    }
}

fn text<'a>(r: &'a Report, which: &str, key: &str) -> Result<&'a str, String> {
    r.field(key).ok_or_else(|| format!("FAIL: {which} has no {key} (schema drift?)"))
}

fn num(r: &Report, which: &str, key: &str) -> Result<f64, String> {
    let v = text(r, which, key)?;
    v.parse().map_err(|_| format!("FAIL: {which} {key} is not a number ({v})"))
}

fn eval_row(row: &Row, new: &Report, base: &Report, out: &mut Vec<String>) -> Result<(), String> {
    let same = |k| Ok::<bool, String>(text(new, "report", k)? == text(base, "baseline", k)?);
    let applies = match row.when {
        None => true,
        Some(When::AtBaseline(k)) => same(k)?,
        Some(When::OffBaseline(k)) => !same(k)?,
    };
    if !applies {
        return Ok(());
    }
    let key = row.key;
    if let Rule::VsBaseline { config_keys, .. } | Rule::FloorsFromBaseline { config_keys, .. } =
        row.rule
    {
        for &k in config_keys {
            if !same(k)? {
                out.push(format!("skip: {key} vs baseline ({k} differs from baseline)"));
                return Ok(());
            }
        }
    }
    match row.rule {
        Rule::AtLeast(c) | Rule::AtMost(c) => {
            let dir = if matches!(row.rule, Rule::AtLeast(_)) { Dir::AtLeast } else { Dir::AtMost };
            let got = num(new, "report", key)?;
            if !dir.holds(got, c) {
                return Err(format!("FAIL: {key} {got} is not {} {c}", dir.op()));
            }
            out.push(format!("ok: {key} {got} {} {c}", dir.op()));
        }
        Rule::VsBaseline { dir, factor, .. } => {
            let (got, b) = (num(new, "report", key)?, num(base, "baseline", key)?);
            let band = format!("{} {factor}x", dir.op());
            if !dir.holds(got, b * factor) {
                return Err(format!("FAIL: {key} {got} vs baseline {b} (must be {band})"));
            }
            out.push(format!("ok: {key} {got} vs baseline {b} ({band})"));
            if !dir.holds(b, got * factor) {
                out.push(format!("stale: {key} {got} vs baseline {b} — re-record"));
            }
        }
        Rule::FloorsFromBaseline { prefix, .. } => {
            let mut checked = 0;
            for (floor_key, _) in &base.0 {
                // A floor whose key is absent is a scenario not in this (subset) run.
                let Some(k) = floor_key.strip_prefix(prefix).filter(|k| new.field(k).is_some())
                else {
                    continue;
                };
                checked += 1;
                let (got, floor) = (num(new, "report", k)?, num(base, "baseline", floor_key)?);
                if got >= floor {
                    out.push(format!("ok: {k} {got} >= floor {floor}"));
                } else {
                    out.push(format!("FAIL: {k} {got} is below floor {floor}"));
                }
            }
            if checked == 0 {
                return Err(format!("FAIL: {key}: no key of the report matches a baseline floor"));
            }
        }
    }
    Ok(())
}

/// Judges `new` against `base` row by row. Returns the verdict lines
/// and whether any of them is a `FAIL:`.
pub fn evaluate(rows: &[Row], new: &Report, base: &Report) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    for row in rows {
        if let Err(fail) = eval_row(row, new, base, &mut lines) {
            lines.push(fail);
        }
    }
    let failed = lines.iter().any(|l| l.starts_with("FAIL:"));
    (lines, failed)
}
