//! Smoke test of the whole benchmark: `--quick` shrinks every workload to
//! a few hundred vertices and one timed embed, so all five workloads, the
//! cross-workload checks and all five traced runs finish in seconds.

use std::process::Command;
use std::time::Instant;

fn bench(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lightne-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.success(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn quick_mode_runs_every_workload_and_trace_within_its_time_limit() {
    let started = Instant::now();
    let (ok, stdout, stderr) = bench(&["all", "--quick", "--seed", "3"]);
    assert!(ok, "all --quick failed:\n{stdout}\n{stderr}");
    for name in ["rmat_sample", "rmat_v2mmap", "sbm_factor", "sbm_factor.t1", "weighted_mix"] {
        assert!(stdout.contains(name), "{name} missing from the summary:\n{stdout}");
    }
    for metric in ["embed_s [s]", "peak_rss_mb [MiB]", "task_score [score]", "setup_s [s]"] {
        assert!(stdout.contains(metric), "{metric} missing from the summary:\n{stdout}");
    }
    assert!(stdout.contains("ops_failed = 0"), "{stdout}");
    assert!(stdout.contains("sbm_factor checksum == sbm_factor.t1 checksum: ok"), "{stdout}");

    let (ok, stdout, stderr) = bench(&["trace", "all", "--quick", "--seed", "3"]);
    assert!(ok, "trace all --quick failed:\n{stdout}\n{stderr}");
    assert!(stderr.contains("trace_coverage"), "{stderr}");
    let secs = started.elapsed().as_secs_f64();
    assert!(secs < 15.0, "quick mode took {secs:.1} s");
}

#[test]
fn driver_form_prints_the_result_object_last() {
    let args = ["--workload", "weighted_mix", "--seed", "5", "--seconds", "0", "--trace", "0"];
    let (ok, stdout, stderr) = bench(&[&args[..], &["--quick"]].concat());
    assert!(ok, "{stdout}\n{stderr}");
    let last = stdout.lines().last().expect("a result line");
    for key in
        ["\"correct\": true", "\"attempted\": 2", "\"failed\": 0", "\"embed_s\"", "\"setup_s\""]
    {
        assert!(last.contains(key), "{key} missing from {last}");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [&["--workload", "nope"][..], &["frobnicate"], &["--seconds", "-1", "all"]] {
        let (ok, stdout, _) = bench(args);
        assert!(!ok && stdout.is_empty(), "{args:?} gave {stdout}");
    }
}
