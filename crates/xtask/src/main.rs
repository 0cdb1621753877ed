//! `cargo xtask` — workspace task driver.
//!
//! ```text
//! cargo xtask check [--json] [--stale-allows] [--root <path>]
//! cargo xtask analyze [--json] [--root <path>]
//! cargo xtask gate <linalg|graph|quality|analysis> [report] [--baseline <path>]
//! ```
//!
//! `check` runs the six per-file workspace lints (L1–L6); with
//! `--stale-allows` it additionally audits for suppression comments that
//! no longer cover a real diagnostic. `analyze` runs the whole-program
//! reachability analyses (determinism taint, panic surface, unsafe
//! reach) over the workspace call graph. Both exit non-zero on any
//! violation; `--json` emits machine-readable reports for CI; `--root`
//! overrides workspace-root auto-detection. See DESIGN.md, "Static
//! analysis & concurrency verification" and "Whole-program analysis".
//!
//! `gate` judges a flat JSON report (`bench_{linalg,graph,quality}_json`
//! output, default `results/BENCH_<name>_new.json`; for `analysis`, a
//! fresh in-process `analyze`) against the committed baseline with the
//! rule table in [`xtask::gate`]. Exit 0 = every rule held, 1 = a
//! `FAIL:` line, 2 = a report could not be read.

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::diagnostics;
use xtask::gate::{self, GateError, Report};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if cmd == "gate" {
        let rest: Vec<&str> = it.map(String::as_str).collect();
        return match run_gate(&rest) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    if cmd != "check" && cmd != "analyze" {
        eprintln!("unknown subcommand `{cmd}`\n{USAGE}");
        return ExitCode::from(2);
    }
    let mut json = false;
    let mut stale_allows = false;
    let mut root: Option<PathBuf> = None;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--stale-allows" if cmd == "check" => stale_allows = true,
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root requires a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag `{other}` for `{cmd}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.map(Ok).unwrap_or_else(find_workspace_root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot locate workspace root: {e}");
            return ExitCode::from(2);
        }
    };
    if cmd == "analyze" {
        return run_analyze(&root, json);
    }
    run_check(&root, json, stale_allows)
}

fn run_check(root: &Path, json: bool, stale_allows: bool) -> ExitCode {
    let mut diags = match xtask::check_workspace(root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if stale_allows {
        match xtask::stale_workspace_suppressions(root) {
            Ok(stale) => diags.extend(stale),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if json {
        print!("{}", diagnostics::to_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        if diags.is_empty() {
            println!("xtask check: ok ({} violations)", diags.len());
        } else {
            eprintln!("xtask check: {} violation(s)", diags.len());
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_analyze(root: &Path, json: bool) -> ExitCode {
    let report = match xtask::analyze_workspace(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `gate <name> [report] [--baseline <path>]`: prints the verdict lines
/// and returns whether every rule held.
fn run_gate(args: &[&str]) -> Result<bool, GateError> {
    let (mut positional, mut baseline) = (Vec::new(), None);
    let mut it = args.iter();
    while let Some(&a) = it.next() {
        match a {
            "--baseline" => {
                let path =
                    it.next().ok_or(GateError::Usage("--baseline requires a path".into()))?;
                baseline = Some(PathBuf::from(path));
            }
            _ => positional.push(a),
        }
    }
    let name = positional.first().copied().unwrap_or("");
    let (default_baseline, rows) = gate::table(name)?;
    let root = find_workspace_root().map_err(|e| GateError::Io(PathBuf::from("."), e))?;
    let new = match positional.get(1) {
        Some(path) => Report::from_file(Path::new(path))?,
        None if name == "analysis" => {
            let report =
                xtask::analyze_workspace(&root).map_err(|e| GateError::Io(root.clone(), e))?;
            Report::from_json(&report.to_json())?
        }
        None => Report::from_file(&root.join(format!("results/BENCH_{name}_new.json")))?,
    };
    let base = Report::from_file(&baseline.unwrap_or_else(|| root.join(default_baseline)))?;
    let (lines, failed) = gate::evaluate(rows, &new, &base);
    for l in &lines {
        println!("{l}");
    }
    Ok(!failed)
}

const USAGE: &str = "usage: cargo xtask check [--json] [--stale-allows] [--root <path>]\n\
                     \u{20}      cargo xtask analyze [--json] [--root <path>]\n\
                     \u{20}      cargo xtask gate <linalg|graph|quality|analysis> [report] \
                     [--baseline <path>]";

/// Walks up from the current directory to the first directory containing
/// both a `Cargo.toml` and a `crates/` directory (the workspace root).
fn find_workspace_root() -> std::io::Result<PathBuf> {
    let mut dir = std::env::current_dir()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "no ancestor directory contains Cargo.toml and crates/",
            ));
        }
    }
}
