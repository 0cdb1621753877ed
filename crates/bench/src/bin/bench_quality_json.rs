//! Embedding-quality benchmark: the scenario matrix of
//! `lightne_eval::scenario` — every generator profile × classification /
//! link prediction / structure preservation — serialized for the quality
//! regression gate.
//!
//! Prints one flat JSON object, one key per line, to stdout; progress
//! goes to stderr. `results/BENCH_quality.json` is the committed copy
//! (`cargo run --release -p lightne-bench --bin bench_quality_json >
//! results/BENCH_quality.json`); `cargo xtask gate quality <report>`
//! judges a fresh report against it.
//!
//! Each scenario's *primary* metric also gets a `floor_` key (measured
//! value minus a statistical margin); the gate compares a fresh
//! report's measured values against the committed floors, so quality can
//! only ratchet within the margin, never silently collapse.
//!
//! Every profile is rescaled to roughly 4000 vertices
//! (`MatrixConfig::default`); the `PROFILES` environment knob restricts
//! the sweep to a comma-separated subset (CI smoke runs use the two
//! smallest profiles).

use lightne_bench::harness::Args;
use lightne_eval::scenario::{run_profile, MatrixConfig, Task};
use lightne_gen::profiles::Profile;

/// Lowercases and strips non-alphanumerics, so "Hyperlink-PLD" and
/// "hyperlinkpld" compare (and key) identically.
fn slug(name: &str) -> String {
    name.chars().filter(char::is_ascii_alphanumeric).map(|c| c.to_ascii_lowercase()).collect()
}

/// Statistical margin under the primary metric of each task: the floor
/// committed with a measurement is `measured - margin`. Micro-F1 is on
/// the 0-100 scale; the AUCs are on 0-1.
fn floor_margin(task: Task) -> f64 {
    match task {
        Task::Classify => 6.0,
        Task::LinkPred => 0.05,
        Task::Structure => 0.10,
    }
}

fn main() {
    let args = Args::from_env(1.0, 32);
    let cfg = MatrixConfig { dim: args.dim, seed: args.seed, ..Default::default() };
    let wanted: Option<Vec<String>> = std::env::var("PROFILES")
        .ok()
        .map(|s| s.split(',').map(slug).filter(|t| !t.is_empty()).collect());
    let profiles: Vec<Profile> = Profile::ALL
        .into_iter()
        .filter(|p| wanted.as_ref().is_none_or(|w| w.contains(&slug(p.name()))))
        .collect();
    assert!(!profiles.is_empty(), "PROFILES matched no profile");

    let mut lines: Vec<String> = Vec::new();
    let mut put = |key: &str, val: String| lines.push(format!("  \"{key}\": {val}"));
    put("target_n", cfg.target_n.to_string());
    put("dim", cfg.dim.to_string());
    put("window", cfg.window.to_string());
    put("sample_ratio", cfg.sample_ratio.to_string());
    put("train_ratio", cfg.train_ratio.to_string());
    put("holdout", cfg.holdout.to_string());
    put("negatives", cfg.negatives.to_string());
    put("pairs", cfg.pairs.to_string());
    put("seed", cfg.seed.to_string());
    put("full_matrix", u32::from(profiles.len() == Profile::ALL.len()).to_string());

    let mut results = Vec::new();
    for &profile in &profiles {
        eprintln!("profile {} ...", profile.name());
        let rs = run_profile(profile, &cfg);
        for r in &rs {
            eprintln!("  {}/{}: {:.4}", r.profile, r.task.name(), r.primary);
        }
        results.extend(rs);
    }

    for r in &results {
        // The `degree` infix names the downsampling bound every key was
        // measured under; it stays so the committed floors keep their keys.
        let base = format!("{}_{}_degree", slug(r.profile), r.task.name());
        for &(metric, value) in &r.metrics {
            put(&format!("{base}_{metric}"), format!("{value:.4}"));
        }
        let floor = (r.primary - floor_margin(r.task)).max(0.0);
        let primary_name = r.metrics.first().expect("every task reports metrics").0;
        put(&format!("floor_{base}_{primary_name}"), format!("{floor:.4}"));
    }

    put("num_scenarios", results.len().to_string());

    println!("{{\n{}\n}}", lines.join(",\n"));
}
