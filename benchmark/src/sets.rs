//! Whole sets of runs: `all` (every workload once, each in a fresh child
//! process), `selfcheck` (two sets of the same code held against the
//! bounds) and `compare` (two run-set files, paired).
//!
//! A *set* is `{"seed", "workloads": {name: detail}}`, where `detail` is
//! what `measure::run` reports (machine block included). A *run-set file* is
//! `{"runs": [set, ...]}`; `all --out FILE` appends to one, so a parent
//! and a change are compared by alternating `all --out a.json` on one
//! build with `all --out b.json` on the other.

use crate::json::{obj, Json};
use crate::measure::{Options, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workloads::WORKLOADS;
use std::path::Path;
use std::process::{Command, Stdio};

/// Runs one workload in a child process of this binary (the thread pool
/// is process-global and peak RSS must be per workload) and returns its
/// detail object and whether it was correct. The child's own report goes
/// straight to this process's stderr.
fn run_child(workload: &str, opts: &Options, trace: bool) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child, so none outlives this call.
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let line = lines.next().ok_or_else(|| format!("{workload}: child printed nothing"))?;
    let detail = lines.next().ok_or_else(|| format!("{workload}: child printed no detail"))?;
    let line = Json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let detail = Json::parse(detail).map_err(|e| format!("{workload}: detail line: {e}"))?;
    let correct = line.get("correct").and_then(Json::as_bool) == Some(true);
    Ok((detail, correct && out.status.success()))
}

/// The gated value of one end-to-end metric of one finished run.
fn metric_value(detail: &Json, metric: &str) -> f64 {
    detail
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn workload_of<'a>(set: &'a Json, name: &str) -> Option<&'a Json> {
    set.get("workloads").and_then(|w| w.get(name))
}

fn checksum_of<'a>(set: &'a Json, name: &str) -> Option<&'a str> {
    workload_of(set, name).and_then(|d| d.get("checksum")).and_then(Json::as_str)
}

/// Runs every workload once and prints the summary. Returns the set and
/// whether every check, including the cross-workload ones, passed.
pub fn run_all(opts: &Options) -> Result<(Json, bool), String> {
    let mut ok = true;
    let mut workloads = Vec::new();
    for spec in &WORKLOADS {
        let (detail, correct) = run_child(spec.name, opts, false)?;
        ok &= correct;
        workloads.push((spec.name.to_string(), detail));
    }
    let set = obj([("seed", Json::from(opts.seed)), ("workloads", Json::Obj(workloads))]);

    println!("\n== end-to-end metrics (seed {}) ==", opts.seed);
    print!("{:<16}", "workload");
    for (name, unit, _, _) in END_TO_END {
        print!(" {:>20}", format!("{name} [{unit}]"));
    }
    println!(" {:>16} {:>9}", "vertices_per_s", "ops f/a");
    let (mut attempted, mut failed) = (0.0, 0.0);
    for spec in &WORKLOADS {
        let detail = workload_of(&set, spec.name).unwrap_or(&Json::Null);
        let num = |key: &str| detail.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        print!("{:<16}", spec.name);
        for (name, _, _, _) in END_TO_END {
            print!(" {:>20.4}", metric_value(detail, name));
        }
        println!(
            " {:>16.1} {:>9}",
            num("vertices_per_s"),
            format!("{}/{}", num("ops_failed"), num("ops_attempted"))
        );
        attempted += num("ops_attempted");
        failed += num("ops_failed");
    }
    println!("ops_attempted = {attempted}  ops_failed = {failed}");

    let embed =
        |name: &str| workload_of(&set, name).map_or(f64::NAN, |d| metric_value(d, "embed_s"));
    let threads = workload_of(&set, "sbm_factor")
        .and_then(|d| d.get("threads"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    println!(
        "parallel_eff = embed_s[sbm_factor.t1] / (T x embed_s[sbm_factor]) = {:.4} / ({threads} x {:.4}) = {:.3}",
        embed("sbm_factor.t1"),
        embed("sbm_factor"),
        embed("sbm_factor.t1") / (threads * embed("sbm_factor")),
    );

    // The repository's bitwise thread-count determinism, end to end.
    let (a, b) = (checksum_of(&set, "sbm_factor"), checksum_of(&set, "sbm_factor.t1"));
    let same = a.is_some() && a == b;
    println!(
        "check sbm_factor checksum == sbm_factor.t1 checksum: {} ({} vs {})",
        if same { "ok" } else { "FAILED" },
        a.unwrap_or("none"),
        b.unwrap_or("none"),
    );
    ok &= same && failed == 0.0;
    println!("all checks: {}", if ok { "passed" } else { "FAILED" });
    Ok((set, ok))
}

/// Runs every workload traced, one child each.
pub fn trace_all(opts: &Options) -> Result<bool, String> {
    let mut ok = true;
    for spec in &WORKLOADS {
        ok &= run_child(spec.name, opts, true)?.1;
    }
    Ok(ok)
}

/// Appends `set` to the run-set file at `path`, creating it if absent.
pub fn append_run(path: &Path, set: Json) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => read_runs(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    runs.push(set);
    std::fs::write(path, obj([("runs", Json::Arr(runs))]).to_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn read_runs(text: &str) -> Result<Vec<Json>, String> {
    let doc = Json::parse(text)?;
    doc.get("runs")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .ok_or_else(|| "no `runs` array".to_string())
}

/// Two sets of the same code, back to back: every (metric, workload) pair
/// must agree within the metric's bound, and `task_score` and the
/// embedding checksums exactly. The first set is written as the baseline.
pub fn selfcheck(opts: &Options, baseline: &Path) -> Result<bool, String> {
    // One discarded run first. On the reference box (a VM) the first
    // process after an idle spell pays for the host giving the guest's
    // memory back: its set-up reads half again as slow as every later
    // process's. Two sets can only be compared once that is paid.
    run_child(WORKLOADS[0].name, opts, false)?;
    let (first, ok_first) = run_all(opts)?;
    let (second, ok_second) = run_all(opts)?;
    let mut ok = ok_first && ok_second;
    println!("\n== selfcheck: two sets of the same code (seed {}) ==", opts.seed);
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for spec in &WORKLOADS {
        let (Some(a), Some(b)) = (workload_of(&first, spec.name), workload_of(&second, spec.name))
        else {
            return Err(format!("{}: missing from a set", spec.name));
        };
        for (metric, _, _, bound) in END_TO_END {
            let (x, y) = (metric_value(a, metric), metric_value(b, metric));
            let gap = (y - x).abs() / x.abs();
            // The score is a function of the embedding bytes: any gap at
            // all means the two sets did not compute the same thing.
            let bound = if metric == "task_score" { 0.0 } else { bound };
            let within = gap <= bound;
            ok &= within;
            println!(
                "{:<16} {:<12} {:>12.5} {:>12.5} {:>8.2}% {:>6.1}%  {}",
                spec.name,
                metric,
                x,
                y,
                100.0 * gap,
                100.0 * bound,
                if within { "agree" } else { "DISAGREE" }
            );
        }
        let sums = (checksum_of(&first, spec.name), checksum_of(&second, spec.name));
        let same = sums.0.is_some() && sums.0 == sums.1;
        ok &= same;
        println!(
            "{:<16} {:<12} {:>25}  {}",
            spec.name,
            "checksum",
            sums.0.unwrap_or("none"),
            if same { "identical" } else { "DIFFERENT" }
        );
    }
    println!("selfcheck: {}", if ok { "passed" } else { "FAILED" });
    std::fs::write(baseline, first.to_pretty())
        .map_err(|e| format!("write {}: {e}", baseline.display()))?;
    println!("first set written to {}", baseline.display());
    Ok(ok)
}

/// How one (metric, workload) row moved between two sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
}

/// The comparison rule of the `choosing-metrics` guide, section 8, for
/// one row. `a[i]` and `b[i]` are the two sides of pair `i`.
///
/// *Improved*: at least ten pairs, `b` wins at least nine tenths of all
/// pairs (ties count for neither side), and the medians differ by more
/// than the distance between `a`'s quartiles. *Regressed*: `b`'s median
/// is worse than `a`'s by more than `bound`. *Unresolved*: neither, but
/// `a`'s own quartile distance is wider than `bound`, so "no change"
/// cannot be told from noise. Otherwise *unchanged*.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64) {
    let pairs = a.len().min(b.len());
    let better = |x: f64, y: f64| if higher_is_better { y > x } else { y < x };
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(x, y)).count();
    let win_fraction = wins as f64 / pairs.max(1) as f64;
    let (ma, mb) = (median(&a[..pairs]), median(&b[..pairs]));
    let iqr = quartiles(&a[..pairs]).map_or(f64::INFINITY, |[q1, _, q3]| q3 - q1);
    let worse_by = if higher_is_better { ma - mb } else { mb - ma };
    let verdict = if pairs >= 10 && win_fraction >= 0.9 && better(ma, mb) && (mb - ma).abs() > iqr {
        Verdict::Improved
    } else if worse_by > bound * ma.abs() {
        Verdict::Regressed
    } else if iqr > bound * ma.abs() {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    (verdict, win_fraction)
}

fn fmt_quartiles(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, q2, q3]) => format!("{q2:.4} [{q1:.4}, {q3:.4}]"),
        None => format!("{:.4} [-, -]", median(values)),
    }
}

/// Compares two run-set files pair by pair. Returns false when any row
/// regressed.
pub fn compare(path_a: &Path, path_b: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Vec<Json>, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        read_runs(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (runs_a, runs_b) = (load(path_a)?, load(path_b)?);
    let pairs = runs_a.len().min(runs_b.len());
    if pairs == 0 {
        return Err("nothing to compare: a side has no runs".to_string());
    }
    println!(
        "A = {} ({} runs), B = {} ({} runs): {pairs} pairs, run i of A against run i of B",
        path_a.display(),
        runs_a.len(),
        path_b.display(),
        runs_b.len()
    );
    if pairs < 10 {
        println!("fewer than ten pairs: no row can be called improved");
    }
    println!(
        "{:<16} {:<12} {:>30} {:>30} {:>22} {:>6}  verdict",
        "workload",
        "metric",
        "A median [q1, q3]",
        "B median [q1, q3]",
        "B/A (base A median)",
        "B wins"
    );
    let mut regressed = false;
    for spec in &WORKLOADS {
        for (metric, unit, higher, bound) in END_TO_END {
            let side = |runs: &[Json]| -> Vec<f64> {
                runs[..pairs]
                    .iter()
                    .filter_map(|set| workload_of(set, spec.name))
                    .map(|d| metric_value(d, metric))
                    .collect()
            };
            let (a, b) = (side(&runs_a), side(&runs_b));
            if a.len() != pairs || b.len() != pairs {
                return Err(format!("{}: missing from a run", spec.name));
            }
            let (verdict, wins) = judge(&a, &b, higher, bound);
            regressed |= verdict == Verdict::Regressed;
            let (ma, mb) = (median(&a), median(&b));
            println!(
                "{:<16} {:<12} {:>30} {:>30} {:>22} {:>5.0}%  {}",
                spec.name,
                metric,
                fmt_quartiles(&a),
                fmt_quartiles(&b),
                format!("{:.4} ({ma:.4} {unit})", mb / ma),
                100.0 * wins,
                format!("{verdict:?}").to_lowercase(),
            );
        }
    }
    println!(
        "bounds: {}",
        END_TO_END
            .iter()
            .map(|&(name, _, _, bound)| format!("{name} {:.0}%", 100.0 * bound))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| center + step * (i as f64 - 4.5)).collect()
    }

    #[test]
    fn judge_follows_the_section_8_rule() {
        let parent = around(1.0, 0.002);
        // Every pair won, medians 10 % apart, spread 1 %: improved.
        assert_eq!(judge(&parent, &around(0.9, 0.002), false, 0.08).0, Verdict::Improved);
        // The same numbers the wrong way round: regressed.
        assert_eq!(judge(&around(0.9, 0.002), &parent, false, 0.08).0, Verdict::Regressed);
        // Identical sides: unchanged, and ties are wins for neither.
        assert_eq!(judge(&parent, &parent, false, 0.08), (Verdict::Unchanged, 0.0));
        // Nine pairs cannot carry a claim, however clear.
        assert_eq!(
            judge(&parent[..9], &around(0.9, 0.002)[..9], false, 0.08).0,
            Verdict::Unchanged
        );
        // A gain smaller than the parent's own spread is not a gain ...
        let noisy = around(1.0, 0.05);
        let shifted: Vec<f64> = noisy.iter().map(|v| v - 0.01).collect();
        // ... and with a spread wider than the bound it is unresolved.
        assert_eq!(judge(&noisy, &shifted, false, 0.08).0, Verdict::Unresolved);
        // Higher-is-better metrics flip the direction.
        assert_eq!(
            judge(&around(0.5, 0.001), &around(0.6, 0.001), true, 0.02).0,
            Verdict::Improved
        );
        assert_eq!(
            judge(&around(0.6, 0.001), &around(0.5, 0.001), true, 0.02).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn run_set_files_append_and_read_back() {
        let dir = crate::workloads::TempDir::create().unwrap();
        let path = dir.path().join("sets.json");
        for seed in [1u64, 2] {
            append_run(&path, obj([("seed", Json::from(seed))])).unwrap();
        }
        let runs = read_runs(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].get("seed").and_then(Json::as_f64), Some(2.0));
        assert!(read_runs("{}").is_err());
    }

    #[test]
    fn benchmark_json_matches_the_tables_in_code() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.0));
        assert_eq!(names("per_layer"), crate::trace::PER_LAYER.map(|m| m.0));
        for (entry, (_, unit, higher, bound)) in
            doc.get("end_to_end").and_then(Json::as_arr).unwrap().iter().zip(END_TO_END)
        {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(bound));
            let better = if higher { "higher" } else { "lower" };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
        }
        for (entry, (_, unit, higher)) in
            doc.get("per_layer").and_then(Json::as_arr).unwrap().iter().zip(crate::trace::PER_LAYER)
        {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
            let better = if higher { "higher" } else { "lower" };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
        }
        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert_eq!(seconds, crate::DEFAULT_SECONDS);
    }
}
