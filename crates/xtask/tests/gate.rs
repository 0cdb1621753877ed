//! `cargo xtask gate`: the rule table against the committed baselines
//! and against the perturbed reports in `tests/fixtures/gate/` — the
//! files the old-script/new-gate parity table in EXPERIMENTS.md was
//! produced from, each judged against the `baseline_<gate>.json` next
//! to it.

use std::path::{Path, PathBuf};
use std::process::Command;

use xtask::gate::{evaluate, table, GateError, Report, Row, Rule};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/gate").join(name)
}

fn judge(gate: &str, report: &str, baseline: &str) -> (Vec<String>, bool) {
    let new = Report::from_file(&fixture(report)).expect("report parses");
    let base = Report::from_file(&fixture(baseline)).expect("baseline parses");
    evaluate(table(gate).expect("known gate").1, &new, &base)
}

#[test]
fn committed_baselines_pass_their_own_gate() {
    // Catches drift between the table's keys and the bench bins' keys.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (gate, rules) in [("linalg", 13), ("graph", 5), ("quality", 23)] {
        let (path, rows) = table(gate).expect("known gate");
        let base = Report::from_file(&root.join(path)).expect("committed baseline parses");
        let (lines, failed) = evaluate(rows, &base, &base);
        assert!(!failed && lines.iter().all(|l| l.starts_with("ok:")), "{gate}: {lines:#?}");
        assert_eq!(lines.len(), rules, "{gate}: {lines:#?}");
    }
}

/// (gate, report, every verdict line that is not `ok:`) — a `FAIL:`
/// line means the gate fails, anything else that it passes.
#[rustfmt::skip] // one case per line
const CASES: &[(&str, &str, &[&str])] = &[
    // One failing report per rule kind.
    ("linalg", "linalg_gemm_1_6.json", &["FAIL: gemm_speedup 1.6 is not >= 2"]),
    ("linalg", "linalg_gram_2_5.json", &["FAIL: gram_speedup 2.5 is not >= 3"]),
    ("linalg", "linalg_gram_sym_1_1.json", &["FAIL: gram_sym_speedup 1.1 is not >= 1.3"]),
    ("linalg", "linalg_symcheck_2_5.json", &["FAIL: symcheck_speedup 2.5 is not >= 3"]),
    ("graph", "graph_bits_ratio_high.json", &["FAIL: bits_ratio_best 0.95 is not <= 0.92"]),
    ("graph", "graph_walk_slow.json", &["FAIL: walk_slowdown_best 6.5 is not <= 5.3"]),
    ("graph", "graph_build_slow.json", &["FAIL: csr_build_speedup 1.2 is not >= 1.5"]),
    ("linalg", "linalg_qr_regressed.json", &["FAIL: orth_gflops 3 vs baseline 4.812 (must be >= 0.75x)"]),
    ("linalg", "linalg_orth_slow.json", &["FAIL: orth_speedup 2.5 is not >= 3"]),
    ("quality", "quality_floor_drop.json", &["FAIL: youtube_linkpred_degree_auc 0.6 is below floor 0.6211"]),
    // A configuration mismatch skips, naming the key; smoke-size
    // gemm_speedup 1.6 passes its 1.25 row; gemm_hot_m equals the
    // baseline's, so that row runs — and passes beyond its band; the
    // orthonormaliser's speedup row is for the baseline's sizes.
    ("linalg", "linalg_smoke_gemm_1_6.json", &[
        "skip: gemm_packed_gflops vs baseline (gemm_m differs from baseline)",
        "stale: gemm_hot_gflops 180 vs baseline 93.376 — re-record",
        "skip: gemm_scalar_gflops vs baseline (gemm_m differs from baseline)",
        "skip: orth_gflops vs baseline (orth_rows differs from baseline)",
        "skip: rsvd_blocked_gflops vs baseline (rsvd_n differs from baseline)",
    ]),
    ("graph", "graph_smoke.json", &["skip: v2_best_bits_per_edge vs baseline (scale differs from baseline)"]),
    // Schema drift fails instead of skipping.
    ("linalg", "linalg_missing_key.json", &["FAIL: report has no orth_gflops (schema drift?)"]),
    // A subset run checks only its scenarios (next test), but needs one.
    ("quality", "quality_no_match.json", &["FAIL: scenario floors: no key of the report matches a baseline floor"]),
];

#[test]
fn fixtures_get_exactly_their_verdict_lines() {
    for &(gate, report, want) in CASES {
        let (lines, failed) = judge(gate, report, &format!("baseline_{gate}.json"));
        let not_ok: Vec<&str> =
            lines.iter().map(String::as_str).filter(|l| !l.starts_with("ok:")).collect();
        assert_eq!(not_ok, want, "{report}");
        assert_eq!(failed, want.iter().any(|l| l.starts_with("FAIL:")), "{report}");
    }
}

#[test]
fn constant_floors_and_present_scenarios_are_still_checked() {
    let (lines, _) = judge("linalg", "linalg_smoke_gemm_1_6.json", "baseline_linalg.json");
    for ok in [
        "ok: gemm_speedup 1.6 >= 1.25",
        "ok: rsvd_speedup 2.48 >= 1.5",
        "ok: gemm_hot_gflops 180 vs baseline 93.376 (>= 0.75x)",
    ] {
        assert!(lines.iter().any(|l| l == ok), "{ok}: {lines:#?}");
    }
    // The smoke-scale graph report is judged by the smoke-scale walk row.
    let (lines, _) = judge("graph", "graph_smoke.json", "baseline_graph.json");
    assert!(lines.iter().any(|l| l == "ok: walk_slowdown_best 9.4482 <= 11.8"), "{lines:#?}");
    // Two of the baseline's three profiles: 6 floors checked, the third
    // profile's absent keys are not failures.
    let (lines, failed) = judge("quality", "quality_subset.json", "baseline_quality.json");
    assert!(!failed, "{lines:#?}");
    assert_eq!(lines.iter().filter(|l| l.contains(">= floor")).count(), 6);
    // A key missing on the baseline side is drift too, and so is a
    // value that is not a number.
    let (lines, failed) = judge("linalg", "baseline_linalg.json", "linalg_missing_key.json");
    assert!(failed);
    assert!(lines.iter().any(|l| l == "FAIL: baseline has no orth_gflops (schema drift?)"));
    let bad = Report::from_json("{\n  \"x\": \"fast\"\n}").expect("balanced");
    let (lines, failed) =
        evaluate(&[Row { key: "x", rule: Rule::AtLeast(1.5), when: None }], &bad, &bad);
    assert_eq!(
        (lines.as_slice(), failed),
        (&["FAIL: report x is not a number (fast)".to_string()][..], true)
    );
}

#[test]
fn unreadable_reports_are_typed_errors_and_exit_2() {
    let truncated = Report::from_file(&fixture("linalg_truncated.json"));
    assert!(matches!(truncated, Err(GateError::Malformed)));
    assert!(matches!(Report::from_file(&fixture("absent.json")), Err(GateError::Io(..))));
    assert!(matches!(Report::from_json("[1, 2]"), Err(GateError::Malformed)));
    let exit = |report: &str| {
        Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(["gate", "linalg"])
            .arg(fixture(report))
            .arg("--baseline")
            .arg(fixture("baseline_linalg.json"))
            .output()
            .expect("xtask runs")
            .status
            .code()
    };
    assert_eq!(exit("baseline_linalg.json"), Some(0));
    assert_eq!(exit("linalg_qr_regressed.json"), Some(1));
    assert_eq!(exit("linalg_truncated.json"), Some(2));
}
