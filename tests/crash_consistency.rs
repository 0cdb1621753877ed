//! Crash-consistency matrix: for every registered fail point, inject
//! every applicable fault into a checkpointing run and into a resuming
//! run, and assert the system's contract — the resumed (or re-run)
//! pipeline either reproduces the uninterrupted embedding byte for byte
//! or fails with a typed [`EngineError`]. There is no third outcome: no
//! silently wrong embedding, no panic once faults are disarmed, no
//! half-trusted artifact.
//!
//! The fail-point registry is process-global, so every test here
//! serializes on one mutex and disarms on exit.

use lightne::core::{EngineError, LightNe, LightNeConfig, LightNeOutput, RunOptions};
use lightne::gen::generators::chung_lu;
use lightne::graph::Graph;
use lightne::utils::faults::{self, FaultAction};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests sharing the process-global fail-point registry.
fn registry_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default).lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lightne_crash_{}_{name}", std::process::id()));
    p
}

fn graph() -> Graph {
    chung_lu(150, 1_000, 2.4, 29)
}

fn config() -> LightNeConfig {
    LightNeConfig { dim: 8, window: 3, sample_ratio: 1.0, seed: 4, ..Default::default() }
}

fn bits(out: &LightNeOutput) -> Vec<u32> {
    out.embedding.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn save_opts(dir: &Path) -> RunOptions {
    RunOptions { save_artifacts: Some(dir.to_path_buf()), ..Default::default() }
}

fn resume_opts(dir: &Path) -> RunOptions {
    RunOptions { resume_from: Some(dir.to_path_buf()), ..Default::default() }
}

/// Every fail point registered across the system.
fn all_points() -> Vec<&'static str> {
    let mut pts = Vec::new();
    pts.extend_from_slice(lightne::core::artifacts::FAIL_POINTS);
    pts.extend_from_slice(lightne::core::engine::FAIL_POINTS);
    pts.extend_from_slice(lightne::linalg::matio::FAIL_POINTS);
    pts
}

/// The actions worth injecting at `point`. Every point takes an I/O error
/// and a crash; the artifact-store write points additionally take the
/// two silent-corruption actions (they corrupt the byte stream between
/// checksumming and disk, modelling storage that acknowledges a write it
/// then mangles).
fn actions_for(point: &str) -> Vec<FaultAction> {
    let mut acts = vec![FaultAction::IoError, FaultAction::Panic];
    if point.starts_with("artifacts.write.") {
        acts.push(FaultAction::Truncate(3));
        acts.push(FaultAction::BitFlip(41));
    }
    acts
}

/// Runs the pipeline under `opts` with panics captured. Returns `None`
/// when the run panicked (allowed only while a `panic` fault is armed).
fn run_caught(
    pipe: &LightNe,
    g: &Graph,
    opts: RunOptions,
) -> Option<Result<LightNeOutput, EngineError>> {
    catch_unwind(AssertUnwindSafe(|| pipe.embed_with(g, opts))).ok()
}

/// Asserts the crash-consistency contract on one pipeline outcome:
/// byte-identical success or a typed error — a panic is only legal when
/// the armed action is `Panic`.
fn assert_contract(
    what: &str,
    outcome: Option<Result<LightNeOutput, EngineError>>,
    want: &[u32],
    panic_ok: bool,
) {
    match outcome {
        None => assert!(panic_ok, "{what}: panicked without a panic fault armed"),
        Some(Ok(out)) => {
            assert_eq!(bits(&out), want, "{what}: embedding diverged from the uninterrupted run")
        }
        Some(Err(_)) => {} // typed by construction: every failure is an EngineError
    }
}

#[test]
fn every_fail_point_crash_is_recoverable_or_typed() {
    let _guard = registry_guard();
    faults::disarm_all();
    faults::reset_hits();
    assert!(faults::enabled(), "crash tests require the failpoints feature");
    // The matrix triggers dozens of intentional panics; keep them off
    // the test output. catch_unwind still observes them.
    std::panic::set_hook(Box::new(|_| {}));

    let g = graph();
    let pipe = LightNe::new(config());
    let want = bits(&pipe.embed(&g));

    // One clean checkpointed store, shared by every resume-side case
    // (resume-only runs never modify the store).
    let clean = tmp("clean");
    std::fs::remove_dir_all(&clean).ok();
    let saved = pipe.embed_with(&g, save_opts(&clean)).unwrap();
    assert_eq!(bits(&saved), want, "checkpointing must not change the embedding");

    let dir = tmp("matrix");
    for point in all_points() {
        for action in actions_for(point) {
            let what = format!("{point}={action}");
            let panic_ok = matches!(action, FaultAction::Panic);

            // Fault armed while saving artifacts: the interrupted (or
            // silently corrupted) store must never poison a later run.
            std::fs::remove_dir_all(&dir).ok();
            faults::arm(point, action).unwrap();
            let crashed = run_caught(&pipe, &g, save_opts(&dir));
            faults::disarm_all();
            assert_contract(&format!("save under {what}"), crashed, &want, panic_ok);
            if dir.is_dir() {
                let resumed = run_caught(&pipe, &g, resume_opts(&dir));
                assert_contract(&format!("resume after {what}"), resumed, &want, false);
            }

            // Fault armed while resuming from a pristine store.
            faults::arm(point, action).unwrap();
            let resumed = run_caught(&pipe, &g, resume_opts(&clean));
            faults::disarm_all();
            assert_contract(&format!("resume under {what}"), resumed, &want, panic_ok);
        }
    }
    let _ = std::panic::take_hook();

    // Coverage: the matrix must have exercised every registered point at
    // least once — an unreachable fail point is a vacuous guarantee.
    let hits = faults::hits();
    for point in all_points() {
        let n = hits.iter().find(|(p, _)| p == point).map_or(0, |(_, n)| *n);
        assert!(n > 0, "fail point {point} was never hit by the matrix");
    }

    std::fs::remove_dir_all(&clean).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_save_faults_leave_a_store_that_degrades_with_a_recorded_fallback() {
    let _guard = registry_guard();
    faults::disarm_all();

    let g = graph();
    let pipe = LightNe::new(config());
    let want = bits(&pipe.embed(&g));

    // Corrupt the deepest artifact silently during save: the save run
    // reports success (the storage lied to it), the resume detects the
    // damage via the manifest checksum and records its fallback.
    let dir = tmp("fallback");
    std::fs::remove_dir_all(&dir).ok();
    faults::arm("artifacts.write.initial", FaultAction::BitFlip(7)).unwrap();
    let saved = pipe.embed_with(&g, save_opts(&dir));
    faults::disarm_all();
    assert!(saved.is_ok(), "bit rot after the checksum is invisible to the writer");

    let resumed = pipe.embed_with(&g, resume_opts(&dir)).unwrap();
    assert_eq!(bits(&resumed), want, "degraded resume diverged");
    assert!(
        resumed.stats.resume_fallbacks.iter().any(|f| f.contains("initial.emb")),
        "missing fallback note: {:?}",
        resumed.stats.resume_fallbacks
    );

    // The same store under --strict-resume is a typed corruption error.
    let strict =
        RunOptions { resume_from: Some(dir.clone()), strict_resume: true, ..Default::default() };
    let err = pipe.embed_with(&g, strict).unwrap_err();
    assert!(matches!(err, EngineError::Corrupt { .. }), "expected Corrupt, got: {err}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A resume from a complete store reads the metadata, the manifest and
/// the initial embedding once each — every read through its fail point —
/// and never touches the shallower checkpoints.
#[test]
fn complete_store_resume_reads_each_file_once() {
    let _guard = registry_guard();
    faults::disarm_all();

    let g = graph();
    let pipe = LightNe::new(config());
    let dir = tmp("read_once");
    std::fs::remove_dir_all(&dir).ok();
    pipe.embed_with(&g, save_opts(&dir)).unwrap();

    faults::reset_hits();
    pipe.embed_with(&g, resume_opts(&dir)).unwrap();
    let hits = faults::hits();
    let count = |point: &str| hits.iter().find(|(p, _)| p == point).map_or(0, |(_, n)| *n);
    for (point, want) in [
        ("artifacts.read.meta", 1),
        ("artifacts.read.manifest", 1),
        ("artifacts.read.initial", 1),
        ("artifacts.read.netmf", 0),
        ("artifacts.read.sparsifier", 0),
    ] {
        assert_eq!(count(point), want, "{point} evaluated {} times", count(point));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_arms_fail_points_from_flag() {
    let _guard = registry_guard();
    faults::disarm_all();

    let g = graph();
    let graph_path = tmp("cli_graph.txt");
    lightne::graph::io::write_edge_list(&g, &graph_path).unwrap();
    let emb_a = tmp("cli_a.emb");
    let emb_b = tmp("cli_b.emb");
    let art = tmp("cli_art");
    std::fs::remove_dir_all(&art).ok();

    let run = |args: &[&str]| -> Result<String, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        lightne::cli::run(&args, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    };
    let common = |out: &Path| {
        vec![
            "embed".to_string(),
            "--graph".into(),
            graph_path.to_str().unwrap().into(),
            "--out".into(),
            out.to_str().unwrap().into(),
            "--dim".into(),
            "8".into(),
            "--window".into(),
            "3".into(),
            "--seed".into(),
            "4".into(),
        ]
    };

    // Reference CLI embedding, no faults.
    let args: Vec<String> = common(&emb_a);
    let args_ref: Vec<&str> = args.iter().map(String::as_str).collect();
    run(&args_ref).unwrap();

    // --fail-point aborts the run with the injected error...
    let mut args = common(&emb_b);
    args.extend(["--save-artifacts".into(), art.to_str().unwrap().into()]);
    let mut faulted = args.clone();
    faulted.extend(["--fail-point".into(), "engine.stage.netmf=io-error".into()]);
    let faulted: Vec<&str> = faulted.iter().map(String::as_str).collect();
    let err = run(&faulted).unwrap_err();
    assert!(err.contains("injected fault"), "unhelpful error: {err}");
    faults::disarm_all();

    // ...after which the same command line completes and matches the
    // reference byte for byte (the interrupted store is resumable too,
    // but here the save dir is simply reset).
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    run(&args).unwrap();
    assert_eq!(std::fs::read(&emb_a).unwrap(), std::fs::read(&emb_b).unwrap());

    // A malformed spec is rejected before any work happens.
    let mut bad = common(&emb_b);
    bad.extend(["--fail-point".into(), "not-a-spec".into()]);
    let bad: Vec<&str> = bad.iter().map(String::as_str).collect();
    let err = run(&bad).unwrap_err();
    assert!(err.contains("point=action"), "unhelpful error: {err}");

    for f in [&graph_path, &emb_a, &emb_b] {
        std::fs::remove_file(f).ok();
    }
    std::fs::remove_dir_all(&art).ok();
}
