//! The repository's benchmark. See `README.md` for the metric glossary
//! and `BENCHMARK.json` (repository root) for the contract.
//!
//! ```text
//! lightne-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! lightne-benchmark all       [--seed N] [--seconds S] [--quick] [--out FILE]
//! lightne-benchmark trace <workload>|all [--seed N] [--quick]
//! lightne-benchmark selfcheck [--seed N] [--seconds S] [--quick]
//! lightne-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is what the driver runs: one workload in this process,
//! a detail object on the second-to-last line of stdout and the result
//! object on the last. The others are for people; `all`, `trace all` and
//! `selfcheck` run each workload in a fresh child process of this binary.
//! Every form exits non-zero when a correctness check fails.

mod json;
mod machine;
mod measure;
mod sets;
mod stats;
mod trace;
mod workloads;

use measure::Options;
use std::path::PathBuf;
use std::process::ExitCode;

/// How long the timed loop of one run measures unless told otherwise;
/// equal to `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage:
  lightne-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  lightne-benchmark all [--seed N] [--seconds S] [--quick] [--out FILE]
  lightne-benchmark trace <workload>|all [--seed N] [--quick]
  lightne-benchmark selfcheck [--seed N] [--seconds S] [--quick]
  lightne-benchmark compare <a.json> <b.json>";

/// The command line, split into positional words and `--key value` flags.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, String)>,
    quick: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args { words: Vec::new(), flags: Vec::new(), quick: false };
        while let Some(arg) = argv.next() {
            match arg.strip_prefix("--") {
                Some("quick") => args.quick = true,
                Some(key @ ("workload" | "seed" | "seconds" | "trace" | "out")) => {
                    let value = argv.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    args.flags.push((key.to_string(), value));
                }
                Some(other) => return Err(format!("unknown flag --{other}")),
                None => args.words.push(arg),
            }
        }
        Ok(args)
    }

    fn flag(&self, key: &str) -> Option<&str> {
        self.flags.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn options(&self) -> Result<Options, String> {
        let seed = match self.flag("seed") {
            Some(v) => v.parse().map_err(|_| format!("--seed {v}: not a whole number"))?,
            None => 42,
        };
        let seconds = match self.flag("seconds") {
            Some(v) => v.parse().ok().filter(|s: &f64| s.is_finite() && *s >= 0.0),
            // A quick run measures one embed, however short.
            None => Some(if self.quick { 0.0 } else { DEFAULT_SECONDS }),
        }
        .ok_or("--seconds: not a non-negative number")?;
        Ok(Options { seed, seconds, quick: self.quick })
    }
}

fn spec_named(name: &str) -> Result<&'static workloads::Spec, String> {
    workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; the workloads are {}", names.join(", "))
    })
}

/// Runs one workload in this process and prints the two JSON lines.
fn run_one(name: &str, opts: &Options, traced: bool) -> Result<bool, String> {
    let spec = spec_named(name)?;
    let outcome = if traced { trace::run(spec, opts) } else { measure::run(spec, opts) }?;
    println!("{}", outcome.detail.to_line());
    println!("{}", outcome.line.to_line());
    Ok(outcome.correct)
}

fn dispatch(args: &Args) -> Result<bool, String> {
    let opts = args.options()?;
    std::fs::create_dir_all(workloads::out_dir()).map_err(|e| format!("benchmark/out: {e}"))?;
    if let Some(name) = args.flag("workload") {
        let traced = match args.flag("trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
        };
        return run_one(name, &opts, traced);
    }
    let words: Vec<&str> = args.words.iter().map(String::as_str).collect();
    match words[..] {
        ["all"] => {
            let (set, ok) = sets::run_all(&opts)?;
            if let Some(path) = args.flag("out") {
                sets::append_run(&PathBuf::from(path), set)?;
            }
            Ok(ok)
        }
        ["trace", "all"] => sets::trace_all(&opts),
        ["trace", name] => run_one(name, &opts, true),
        ["selfcheck"] => sets::selfcheck(&opts, &workloads::out_dir().join("baseline.json")),
        ["compare", a, b] => sets::compare(&PathBuf::from(a), &PathBuf::from(b)),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match Args::parse(std::env::args().skip(1)).and_then(|args| dispatch(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("lightne-benchmark: a correctness check failed");
            ExitCode::FAILURE
        }
        Err(why) => {
            eprintln!("lightne-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
