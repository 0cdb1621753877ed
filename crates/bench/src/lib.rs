//! Benchmark harness for the LightNE reproduction.
//!
//! One binary per table/figure of the paper's evaluation (Section 5) lives
//! in `src/bin/`, next to the `bench_{linalg,graph,quality}_json` bins
//! whose flat JSON reports `cargo xtask gate` judges. This library hosts
//! the shared plumbing: argument parsing, run timing and table rendering.
//!
//! Every binary accepts `--scale <f>` (vertex-count multiplier applied to
//! the paper dataset profiles; defaults are laptop-sized), `--seed <n>`
//! and `--dim <d>`, so the same harness reproduces shapes at any size the
//! host machine affords.

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod harness {
    //! Shared experiment plumbing.

    use std::time::{Duration, Instant};

    /// Common command-line arguments of every experiment binary.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Args {
        /// Vertex-count multiplier applied to dataset profiles.
        pub scale: f64,
        /// Master RNG seed.
        pub seed: u64,
        /// Embedding dimension.
        pub dim: usize,
    }

    fn value<T: std::str::FromStr>(key: &str, val: &str) -> Result<T, String> {
        val.parse().map_err(|_| format!("bad value for {key}: {val:?}"))
    }

    impl Args {
        /// Parses `--scale`, `--seed` and `--dim` from `argv` (program
        /// name excluded), with the given defaults.
        pub fn parse(
            argv: &[String],
            default_scale: f64,
            default_dim: usize,
        ) -> Result<Self, String> {
            let mut out = Self { scale: default_scale, seed: 42, dim: default_dim };
            let mut it = argv.iter();
            while let Some(key) = it.next() {
                let val = it.next().ok_or_else(|| format!("{key} needs a value"))?;
                match key.as_str() {
                    "--scale" => out.scale = value(key, val)?,
                    "--seed" => out.seed = value(key, val)?,
                    "--dim" => out.dim = value(key, val)?,
                    other => return Err(format!("unknown argument {other}")),
                }
            }
            Ok(out)
        }

        /// [`Args::parse`] of the process arguments; a bad command line
        /// prints the message and the usage and exits with status 2.
        pub fn from_env(default_scale: f64, default_dim: usize) -> Self {
            let argv: Vec<String> = std::env::args().skip(1).collect();
            Self::parse(&argv, default_scale, default_dim).unwrap_or_else(|e| {
                eprintln!("error: {e}\nusage: [--scale <f>] [--seed <n>] [--dim <d>]");
                std::process::exit(2)
            })
        }
    }

    /// The `usize` in environment variable `name`, or `default` when it is
    /// unset or does not parse: the size knobs of the `bench_*_json` bins.
    pub fn env_usize(name: &str, default: usize) -> usize {
        std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// Times a closure, returning its result and the elapsed wall-clock.
    pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed())
    }

    /// Prints a section header.
    pub fn header(title: &str) {
        println!("\n=== {title} ===");
    }

    /// Formats a duration like the paper ("5.83 min", "1.53 h").
    pub fn fmt_time(d: Duration) -> String {
        lightne_utils::timer::humanize(d)
    }

    /// Formats a dollar amount.
    pub fn fmt_cost(dollars: f64) -> String {
        format!("${dollars:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::harness::*;

    #[test]
    fn timed_measures() {
        let (v, d) = timed(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            7
        });
        assert_eq!(v, 7);
        assert!(d >= std::time::Duration::from_millis(5));
    }

    #[test]
    fn args_parse_reports_bad_command_lines() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = Args::parse(&argv("--scale 0.5 --dim 8"), 1.0, 32).unwrap();
        assert_eq!(ok, Args { scale: 0.5, seed: 42, dim: 8 });
        let err = |s: &str| Args::parse(&argv(s), 1.0, 32).unwrap_err();
        assert_eq!(err("--check-peak-bytes 1"), "unknown argument --check-peak-bytes");
        assert_eq!(err("--seed"), "--seed needs a value");
        assert_eq!(err("--dim banana"), "bad value for --dim: \"banana\"");
    }

    #[test]
    fn format_helpers() {
        assert!(fmt_time(std::time::Duration::from_secs(90)).contains('s'));
        assert_eq!(fmt_cost(1.5), "$1.5000");
    }
}
