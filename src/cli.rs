//! Implementation of the `lightne` command-line interface.
//!
//! Kept in the library so the full command flows are unit-testable; the
//! binary in `main.rs` is a thin shim. See the binary's module docs for
//! the command reference.

use crate::core::{LightNe, LightNeConfig, RunOptions};
use crate::eval::classify::evaluate_node_classification;
use crate::eval::linkpred::{rank_held_out, split_edges};
use crate::eval::scenario::{run_matrix, MatrixConfig};
use crate::gen::labels::{read_labels, write_labels};
use crate::gen::profiles::Profile;
use crate::graph::algorithms::graph_stats;
use crate::graph::io::{read_binary, read_edge_list, read_weighted_edge_list, write_binary};
use crate::graph::v2::{DEFAULT_BLOCK_SIZE, V2_EXTENSION};
use crate::graph::{Codec, Graph, GraphFormatError, V2Graph};
use crate::linalg::matio::{read_matrix, write_matrix};
use std::collections::BTreeMap;

/// Minimal `--key value` / `--flag` parser.
pub struct Opts {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Opts {
    /// Parses an argument list (without the command word).
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got {:?}", args[i]))?;
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                values.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.push(key.to_string());
                i += 1;
            }
        }
        Ok(Self { values, flags })
    }

    /// Looks up an option's value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Requires an option to be present.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing required --{key}"))
    }

    /// Parses an option with a default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| format!("bad value for --{key}: {s:?}")),
        }
    }

    /// Whether a bare `--flag` was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Fails on the first option that is neither global nor in one of
    /// `cmd`'s `declared` groups: a misspelt or retired option must stop
    /// the run, not be ignored by it.
    fn reject_undeclared(&self, cmd: &str, declared: &[&[&str]]) -> Result<(), String> {
        let known = |key: &str| {
            GLOBAL_OPTIONS.iter().chain(declared.iter().copied().flatten()).any(|k| *k == key)
        };
        match self.values.keys().chain(&self.flags).find(|key| !known(key)) {
            Some(key) => Err(format!("unknown option --{key} for {cmd}")),
            None => Ok(()),
        }
    }
}

/// Options every command accepts.
const GLOBAL_OPTIONS: &[&str] = &["threads", "fail-point"];

/// The options [`lightne_config`] reads.
const PIPELINE_OPTIONS: &[&str] =
    &["dim", "window", "ratio", "no-downsample", "no-propagation", "seed"];

/// The options `cmd` reads beyond the global ones; `None` for a command
/// that does not exist.
fn command_options(cmd: &str) -> Option<&'static [&'static [&'static str]]> {
    Some(match cmd {
        "generate" => &[&["profile", "scale", "seed", "out"]],
        "compress" => &[&["graph", "out", "codec", "block-size"]],
        "stats" => &[&["graph"]],
        "embed" => &[
            PIPELINE_OPTIONS,
            &[
                "graph",
                "out",
                "weighted",
                "mmap",
                "save-artifacts",
                "resume-from",
                "strict-resume",
                "stats-json",
            ],
        ],
        "classify" => &[&["graph", "labels", "embedding", "train-ratio", "seed"]],
        "linkpred" => &[PIPELINE_OPTIONS, &["graph", "holdout", "negatives"]],
        "quality" => &[&["profiles", "target-n", "dim", "seed"]],
        _ => return None,
    })
}

fn is_v2_container(path: &str) -> bool {
    path.ends_with(&format!(".{V2_EXTENSION}"))
}

fn load_graph(path: &str) -> Result<Graph, String> {
    if is_v2_container(path) {
        let v2 = V2Graph::open(path.as_ref()).map_err(|e| format!("reading {path}: {e}"))?;
        // The checksum at open vouches for the bytes, not for what they
        // decode to.
        v2.try_decompress().map_err(|e| format!("decoding {path}: {e}"))
    } else if path.ends_with(".lne") {
        read_binary(path).map_err(|e| format!("reading {path}: {e}"))
    } else {
        read_edge_list(path, 0).map_err(|e| format!("reading {path}: {e}"))
    }
}

fn load_v2(path: &str, mmap: bool) -> Result<V2Graph, String> {
    let r = if mmap { V2Graph::open_mmap(path.as_ref()) } else { V2Graph::open(path.as_ref()) };
    r.map_err(|e| format!("reading {path}: {e}"))
}

fn codec_opt(o: &Opts) -> Result<Codec, String> {
    let name = o.get("codec").unwrap_or("arice");
    Codec::parse(name)
        .ok_or_else(|| format!("unknown --codec {name:?} (arice, byte, zeta1..zeta8)"))
}

/// Resolves a dataset profile by (case-insensitive) name.
pub fn profile_by_name(name: &str) -> Result<Profile, String> {
    Profile::ALL
        .into_iter()
        .find(|p| {
            p.name().eq_ignore_ascii_case(name)
                || p.name().replace('-', "_").eq_ignore_ascii_case(name)
        })
        .ok_or_else(|| {
            let names: Vec<_> = Profile::ALL.iter().map(|p| p.name()).collect();
            format!("unknown profile {name:?}; options: {}", names.join(", "))
        })
}

/// Reads a fraction that must lie in the open interval `(0, 1)`; the
/// evaluation code asserts that, so NaN and the ends are rejected here.
fn open_fraction(o: &Opts, key: &str, default: f64) -> Result<f64, String> {
    let x: f64 = o.num(key, default)?;
    if x > 0.0 && x < 1.0 {
        Ok(x)
    } else {
        Err(format!("bad option: --{key} must be in (0, 1), got {x}"))
    }
}

/// Checks a scale `Profile::generate` is given for `profile`: positive
/// (NaN rejected) and with a vertex count the `u32` id space can hold.
/// `flag` names the option the scale came from.
fn check_scale(profile: Profile, scale: f64, flag: &str) -> Result<(), String> {
    if scale.is_nan() || scale <= 0.0 {
        return Err(format!("bad option: {flag} must be positive, got {scale}"));
    }
    // The count `generate` takes before its floor of 64; the cast
    // saturates, so an infinite scale fails here too.
    if (profile.paper_stats().0 as f64 * scale) as usize > u32::MAX as usize {
        return Err(format!(
            "bad option: {flag} gives {} more vertices than u32 ids can number",
            profile.name()
        ));
    }
    Ok(())
}

fn lightne_config(o: &Opts) -> Result<LightNeConfig, String> {
    let cfg = LightNeConfig {
        dim: o.num("dim", 128usize)?,
        window: o.num("window", 10usize)?,
        sample_ratio: o.num("ratio", 1.0f64)?,
        downsample: !o.flag("no-downsample"),
        propagation: if o.flag("no-propagation") { None } else { Some(Default::default()) },
        seed: o.num("seed", 42u64)?,
        ..Default::default()
    };
    cfg.validate().map_err(|e| format!("bad option: {e}"))?;
    Ok(cfg)
}

/// Runs one CLI invocation; `args` is everything after the program name.
/// Human-readable output goes through `out` so tests can capture it.
pub fn run(args: &[String], out: &mut dyn std::io::Write) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("no command given".into());
    };
    let o = Opts::parse(&args[1..])?;
    // An unknown command is reported by the dispatch below.
    if let Some(declared) = command_options(cmd) {
        o.reject_undeclared(cmd, declared)?;
    }
    // Size the rayon pool before any parallel stage runs (global: applies
    // to every command). 0 = one worker per available core.
    if let Some(n) = o.get("threads") {
        let n: usize = n.parse().map_err(|_| format!("bad value for --threads: {n:?}"))?;
        crate::utils::parallel::configure_threads(n);
    }
    // Deterministic fault injection for crash testing. Arming errors in
    // builds without the `failpoints` feature, where the hooks are
    // compiled out — a silently ignored fault spec would make a crash
    // test vacuously pass.
    if let Some(spec) = o.get("fail-point") {
        crate::utils::faults::arm_spec(spec)?;
    }
    let mut say = |s: String| writeln!(out, "{s}").map_err(|e| e.to_string());

    match cmd.as_str() {
        "generate" => {
            let profile = profile_by_name(o.require("profile")?)?;
            let scale: f64 = o.num("scale", 0.001)?;
            check_scale(profile, scale, "--scale")?;
            let seed: u64 = o.num("seed", 42)?;
            let out_path = o.require("out")?;
            let data = profile.generate(scale, seed);
            write_binary(&data.graph, out_path).map_err(|e| e.to_string())?;
            say(data.stats_row())?;
            say(format!("wrote {out_path}"))?;
            if let Some(labels) = &data.labels {
                let lpath = format!("{out_path}.labels");
                write_labels(labels, &lpath).map_err(|e| e.to_string())?;
                say(format!("wrote {lpath} ({} classes)", labels.num_labels()))?;
            }
            Ok(())
        }
        "compress" => {
            let g = load_graph(o.require("graph")?)?;
            let out_path = o.require("out")?;
            if !is_v2_container(out_path) {
                return Err(format!("--out must end in .{V2_EXTENSION}"));
            }
            let codec = codec_opt(&o)?;
            let block_size: usize = o.num("block-size", DEFAULT_BLOCK_SIZE)?;
            // A rejected `--block-size` is the caller's option.
            V2Graph::write(&g, codec, block_size, out_path.as_ref()).map_err(|e| match e {
                GraphFormatError::BlockSize(_) => format!("bad option: {e}"),
                e => format!("writing {out_path}: {e}"),
            })?;
            let v2 = load_v2(out_path, false)?;
            let arcs = v2.num_arcs().max(1);
            say(format!(
                "wrote {out_path}: {} vertices, {} arcs, codec {}, block size {}",
                v2.num_vertices(),
                v2.num_arcs(),
                codec.name(),
                block_size
            ))?;
            say(format!(
                "container {} bytes ({:.3} bits/edge adjacency, {:.3} bits/edge total)",
                v2.container_bytes(),
                v2.arena_bytes() as f64 * 8.0 / arcs as f64,
                v2.container_bytes() as f64 * 8.0 / arcs as f64
            ))?;
            Ok(())
        }
        "stats" => {
            let g = load_graph(o.require("graph")?)?;
            let s = graph_stats(&g);
            say(format!("vertices           {}", s.vertices))?;
            say(format!("edges              {}", s.edges))?;
            say(format!("max degree         {}", s.max_degree))?;
            say(format!("avg degree         {:.2}", s.avg_degree))?;
            say(format!("components         {}", s.components))?;
            say(format!("largest component  {}", s.largest_component))?;
            say(format!("triangles          {}", s.triangles))?;
            say(format!("degeneracy         {}", s.degeneracy))?;
            Ok(())
        }
        "embed" => {
            let path = o.require("graph")?;
            let out_path = o.require("out")?;
            let cfg = lightne_config(&o)?;
            let opts = RunOptions {
                save_artifacts: o.get("save-artifacts").map(Into::into),
                resume_from: o.get("resume-from").map(Into::into),
                strict_resume: o.flag("strict-resume"),
            };
            let use_mmap = o.flag("mmap");
            let engine = LightNe::new(cfg);
            let result = if o.flag("weighted") {
                let g = read_weighted_edge_list(path, 0).map_err(|e| e.to_string())?;
                engine.embed_weighted_with(&g, opts)
            } else if is_v2_container(path) {
                // A v2 container is consumed directly — decoded on the fly
                // (zero-copy from the page cache under --mmap), never
                // expanded back to CSR.
                let g = load_v2(path, use_mmap)?;
                say(format!(
                    "graph: v2 container, codec {}, {} resident bytes",
                    g.codec().name(),
                    g.resident_bytes()
                ))?;
                engine.embed_with(&g, opts)
            } else {
                if use_mmap {
                    return Err(format!(
                        "--mmap needs a .{V2_EXTENSION} container; run `compress` first"
                    ));
                }
                engine.embed_with(&load_graph(path)?, opts)
            }
            .map_err(|e| e.to_string())?;
            write_matrix(&result.embedding, out_path).map_err(|e| e.to_string())?;
            say(format!("{}", result.stats))?;
            say(format!("threads: {}", result.stats.threads))?;
            say(format!(
                "simd: {} tier (detected: {})",
                result.stats.simd_tier, result.stats.simd_features
            ))?;
            say(format!(
                "sampler: {} trials, {} kept, {} distinct; NetMF nnz {}",
                result.sampler.trials,
                result.sampler.kept,
                result.sampler.distinct_entries,
                result.netmf_nnz
            ))?;
            if let Some(stats_path) = o.get("stats-json") {
                std::fs::write(stats_path, result.stats.to_json())
                    .map_err(|e| format!("writing {stats_path}: {e}"))?;
                say(format!("wrote {stats_path}"))?;
            }
            say(format!(
                "wrote {out_path} ({} x {})",
                result.embedding.rows(),
                result.embedding.cols()
            ))?;
            Ok(())
        }
        "classify" => {
            let ratio = open_fraction(&o, "train-ratio", 0.1)?;
            let g = load_graph(o.require("graph")?)?;
            let labels = read_labels(o.require("labels")?).map_err(|e| e.to_string())?;
            let emb = read_matrix(o.require("embedding")?).map_err(|e| e.to_string())?;
            if emb.rows() != g.num_vertices() {
                return Err(format!(
                    "embedding has {} rows but graph has {} vertices",
                    emb.rows(),
                    g.num_vertices()
                ));
            }
            let seed: u64 = o.num("seed", 42)?;
            let f1 = evaluate_node_classification(&emb, &labels, ratio, seed);
            say(format!(
                "train ratio {:.1}%  micro-F1 {:.2}  macro-F1 {:.2}",
                100.0 * ratio,
                f1.micro,
                f1.macro_
            ))?;
            Ok(())
        }
        "linkpred" => {
            let holdout = open_fraction(&o, "holdout", 0.01)?;
            let g = load_graph(o.require("graph")?)?;
            let negatives: usize = o.num("negatives", 100)?;
            let seed: u64 = o.num("seed", 42)?;
            let mut cfg = lightne_config(&o)?;
            cfg.propagation = None; // ranking task: factorization embedding
            let (train, held) = split_edges(&g, holdout, seed + 1);
            say(format!(
                "held out {} positives; training on {} edges",
                held.len(),
                train.num_edges()
            ))?;
            let result = LightNe::new(cfg)
                .embed_with(&train, RunOptions::default())
                .map_err(|e| e.to_string())?;
            let m = rank_held_out(&result.embedding, &held, negatives, &[1, 10, 50], seed + 2);
            say(format!("MR {:.2}  MRR {:.3}  AUC {:.1}%", m.mr, m.mrr, 100.0 * m.auc))?;
            for (k, v) in &m.hits {
                say(format!("HITS@{k:<3} {:.1}%", 100.0 * v))?;
            }
            Ok(())
        }
        "quality" => {
            // The scenario matrix: every requested profile × classify /
            // linkpred / structure.
            let cfg = MatrixConfig {
                target_n: o.num("target-n", 4_000usize)?,
                dim: o.num("dim", 32usize)?,
                seed: o.num("seed", 0x51u64)?,
                ..Default::default()
            };
            let profiles: Vec<Profile> = match o.get("profiles") {
                None => Profile::ALL.to_vec(),
                Some(list) => {
                    list.split(',').map(profile_by_name).collect::<Result<Vec<_>, _>>()?
                }
            };
            for &p in &profiles {
                check_scale(p, cfg.target_n as f64 / p.paper_stats().0 as f64, "--target-n")?;
            }
            // The matrix's other pipeline knobs are fixed and valid.
            LightNeConfig { dim: cfg.dim, ..Default::default() }
                .validate()
                .map_err(|e| format!("bad option: {e}"))?;
            say(format!("{:<18} {:<10} {:>9}", "profile", "task", "primary"))?;
            for r in &run_matrix(&profiles, &cfg) {
                say(format!("{:<18} {:<10} {:>9.4}", r.profile, r.task.name(), r.primary))?;
            }
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn run_capture(args: &[&str]) -> Result<String, String> {
        let mut buf = Vec::new();
        run(&argv(args), &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("lightne_cli_{}_{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn opts_values_and_flags() {
        let o = Opts::parse(&argv(&["--dim", "32", "--no-propagation", "--seed", "7"])).unwrap();
        assert_eq!(o.get("dim"), Some("32"));
        assert!(o.flag("no-propagation"));
        assert!(!o.flag("no-downsample"));
        assert_eq!(o.num("seed", 0u64).unwrap(), 7);
        assert_eq!(o.num("window", 10usize).unwrap(), 10);
        assert!(o.require("missing").is_err());
        assert!(o.num::<u64>("dim", 0).is_ok());
    }

    #[test]
    fn opts_rejects_positional() {
        assert!(Opts::parse(&argv(&["positional"])).is_err());
    }

    #[test]
    fn profile_lookup_is_forgiving() {
        assert_eq!(profile_by_name("oag").unwrap(), Profile::Oag);
        assert_eq!(profile_by_name("BLOGCATALOG").unwrap(), Profile::BlogCatalog);
        assert_eq!(profile_by_name("friendster_small").unwrap(), Profile::FriendsterSmall);
        assert!(profile_by_name("nope").is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run_capture(&["frobnicate"]).is_err());
        assert!(run_capture(&[]).is_err());
    }

    #[test]
    fn full_flow_generate_embed_classify() {
        let gpath = tmp("flow.lne");
        let epath = tmp("flow_emb.txt");

        let out = run_capture(&[
            "generate",
            "--profile",
            "blogcatalog",
            "--scale",
            "0.05",
            "--out",
            &gpath,
        ])
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        assert!(std::path::Path::new(&gpath).exists());
        assert!(std::path::Path::new(&format!("{gpath}.labels")).exists());

        let out = run_capture(&[
            "embed", "--graph", &gpath, "--out", &epath, "--dim", "16", "--window", "5", "--ratio",
            "2.0",
        ])
        .unwrap();
        assert!(out.contains("sampler:"), "{out}");

        let labels_path = format!("{gpath}.labels");
        let out = run_capture(&[
            "classify",
            "--graph",
            &gpath,
            "--labels",
            &labels_path,
            "--embedding",
            &epath,
            "--train-ratio",
            "0.3",
        ])
        .unwrap();
        assert!(out.contains("micro-F1"), "{out}");
        // The embedding should classify far above the 39-class chance.
        let micro: f64 = out
            .split("micro-F1")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(micro > 30.0, "full CLI flow quality too low: {micro}");

        std::fs::remove_file(&gpath).ok();
        std::fs::remove_file(&epath).ok();
        std::fs::remove_file(&labels_path).ok();
    }

    #[test]
    fn weighted_embed_flow() {
        let gpath = tmp("weighted.txt");
        let epath = tmp("weighted_emb.txt");
        // A small weighted triangle chain.
        std::fs::write(&gpath, "0 1 2.0\n1 2 1.0\n2 3 4.0\n3 0 1.0\n").unwrap();
        let out = run_capture(&[
            "embed",
            "--graph",
            &gpath,
            "--out",
            &epath,
            "--dim",
            "2",
            "--window",
            "2",
            "--ratio",
            "20.0",
            "--weighted",
        ])
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        let m = read_matrix(&epath).unwrap();
        assert_eq!(m.rows(), 4);
        std::fs::remove_file(&gpath).ok();
        std::fs::remove_file(&epath).ok();
    }

    #[test]
    fn out_of_domain_options_are_errors_not_panics() {
        let gpath = tmp("domain.lne");
        let epath = tmp("domain_emb.txt");
        run_capture(&["generate", "--profile", "oag", "--scale", "0.00002", "--out", &gpath])
            .unwrap();
        for (flag, value, field) in [
            ("--dim", "0", "dim"),
            ("--window", "0", "window"),
            ("--ratio", "0", "sample_ratio"),
            ("--ratio", "nan", "sample_ratio"),
        ] {
            let err = run_capture(&["embed", "--graph", &gpath, "--out", &epath, flag, value])
                .expect_err("an out-of-domain option must be rejected");
            assert!(err.contains(field), "{flag} {value}: {err}");
        }
        let cpath = tmp("domain.lng2");
        let compress = ["compress", "--graph", &gpath, "--out", &cpath];
        for bs in ["0", "4294967296"] {
            let err = run_capture(&[&compress[..], &["--block-size", bs]].concat())
                .expect_err("a bad block size must be rejected");
            assert!(err.starts_with("bad option: block size"), "{bs}: {err}");
        }
        // A retired code is not a codec: the message lists the ones that are.
        for codec in ["gamma", "delta", "rice12", "unary", "zeta9"] {
            let err = run_capture(&[&compress[..], &["--codec", codec]].concat())
                .expect_err("a retired codec must be rejected");
            assert!(
                err.contains(codec) && err.ends_with("(arice, byte, zeta1..zeta8)"),
                "{codec}: {err}"
            );
        }
        assert!(!std::path::Path::new(&cpath).exists(), "a rejected compress wrote a file");
        std::fs::remove_file(&gpath).ok();
        std::fs::remove_file(format!("{gpath}.labels")).ok();
        // A graph with no edges — an empty list, or one of self-loops only
        // — leaves linkpred nothing to sample: an error, not a panic.
        let lpath = tmp("domain_edgeless.txt");
        for list in ["", "0 0\n3 3\n"] {
            std::fs::write(&lpath, list).unwrap();
            let err = run_capture(&["linkpred", "--graph", &lpath])
                .expect_err("an edgeless graph must be rejected");
            assert!(err.contains("no edges"), "{list:?}: {err}");
        }
        std::fs::remove_file(&lpath).ok();
        // The evaluation and generation values are rejected before any
        // file is read: none of these exists.
        let (g, l, e) = ("/nonexistent/g.lne", "/nonexistent/g.labels", "/nonexistent/e.txt");
        let linkpred = ["linkpred", "--graph", g];
        let classify = ["classify", "--graph", g, "--labels", l, "--embedding", e];
        let generate = ["generate", "--profile", "oag", "--out", e];
        let mut cases: Vec<(Vec<&str>, &str)> = Vec::new();
        for v in ["0", "1", "-1", "nan"] {
            cases.push(([&linkpred[..], &["--holdout", v]].concat(), "--holdout"));
        }
        for v in ["0", "1", "-3", "nan"] {
            cases.push(([&classify[..], &["--train-ratio", v]].concat(), "--train-ratio"));
        }
        // 100 × Oag's 67.8 M vertices is past the u32 id space.
        for v in ["0", "-1", "nan", "1e30", "inf", "100"] {
            cases.push(([&generate[..], &["--scale", v]].concat(), "--scale"));
        }
        for v in ["0", "4294967296"] {
            cases.push((
                vec!["quality", "--profiles", "blogcatalog", "--target-n", v],
                "--target-n",
            ));
        }
        cases.push((vec!["quality", "--profiles", "blogcatalog", "--dim", "0"], "dim"));
        for (args, flag) in cases {
            let err = run_capture(&args).expect_err("an out-of-range option must be rejected");
            assert!(err.starts_with("bad option: ") && err.contains(flag), "{args:?}: {err}");
        }
        assert!(!std::path::Path::new(e).exists());
    }

    #[test]
    fn undeclared_options_are_rejected_before_any_work() {
        // The graph does not exist: an error about the option, not about
        // the file, shows the check runs first.
        let embed = ["embed", "--graph", "/nonexistent/g.lne", "--out", "/nonexistent/e.txt"];
        for (extra, key) in [
            (&["--dimm", "64"][..], "dimm"),
            (&["--graph-format", "v2"][..], "graph-format"),
            (&["--codec", "byte"][..], "codec"),
            (&["--block-size", "16"][..], "block-size"),
            (&["--strict-resum"][..], "strict-resum"),
            (&["--sparsify-prob", "degree"][..], "sparsify-prob"),
        ] {
            let err = run_capture(&[&embed[..], extra].concat()).unwrap_err();
            assert_eq!(err, format!("unknown option --{key} for embed"));
        }
        let err = run_capture(&["stats", "--graph", "/nonexistent/g.lne", "--seed", "1"]);
        assert_eq!(err.unwrap_err(), "unknown option --seed for stats");
        // The global options stay global.
        let o = Opts::parse(&argv(&["--threads", "2", "--fail-point", "p=panic"])).unwrap();
        for cmd in ["generate", "compress", "stats", "embed", "classify", "linkpred", "quality"] {
            o.reject_undeclared(cmd, command_options(cmd).unwrap()).unwrap();
        }
        assert!(command_options("frobnicate").is_none());
    }

    #[test]
    fn weights_that_merge_past_f32_are_a_read_error() {
        // Each line passes the per-line `finite` check; the duplicates sum
        // to +inf only once merged.
        let gpath = tmp("overflow.txt");
        let epath = tmp("overflow_emb.txt");
        std::fs::write(&gpath, "0 1 3e38\n0 1 3e38\n1 2 1.0\n").unwrap();
        let err = run_capture(&["embed", "--graph", &gpath, "--out", &epath, "--weighted"])
            .expect_err("an overflowing weighted graph must be rejected");
        assert!(err.contains("f32 range"), "{err}");
        std::fs::remove_file(&gpath).ok();
    }

    #[test]
    fn stats_rejects_a_vertex_id_without_room_for_the_count() {
        let gpath = tmp("idspace.txt");
        std::fs::write(&gpath, "0 1\n0 4294967295\n").unwrap();
        let err = run_capture(&["stats", "--graph", &gpath])
            .expect_err("an id of u32::MAX must be a read error, not a panic");
        assert!(err.contains("vertex id 4294967295 on line 2"), "{err}");
        std::fs::remove_file(&gpath).ok();
    }

    #[test]
    fn weighted_embed_rejects_a_vertex_id_without_room_for_the_count() {
        let gpath = tmp("idspace_w.txt");
        let epath = tmp("idspace_w_emb.txt");
        std::fs::write(&gpath, "1 4294967295 2.0\n").unwrap();
        let err = run_capture(&["embed", "--graph", &gpath, "--out", &epath, "--weighted"])
            .expect_err("an id of u32::MAX must be a read error, not a panic");
        assert!(err.contains("vertex id 4294967295 on line 1"), "{err}");
        assert!(!std::path::Path::new(&epath).exists());
        std::fs::remove_file(&gpath).ok();
    }

    #[test]
    fn compress_then_owned_and_mmap_embeds_match_csr() {
        let gpath = tmp("v2flow.lne");
        let cpath = tmp("v2flow.lng2");
        let bpath = tmp("v2flow_byte.lng2");
        let e_csr = tmp("v2flow_emb_csr.txt");
        let e_byte = tmp("v2flow_emb_byte.txt");
        let e_mmap = tmp("v2flow_emb_mmap.txt");
        run_capture(&["generate", "--profile", "oag", "--scale", "0.0001", "--out", &gpath])
            .unwrap();

        let out = run_capture(&["compress", "--graph", &gpath, "--out", &cpath]).unwrap();
        assert!(out.contains("codec arice") && out.contains("bits/edge"), "{out}");
        let out = run_capture(&["compress", "--graph", &gpath, "--out", &bpath, "--codec", "byte"])
            .unwrap();
        assert!(out.contains("codec byte"), "{out}");

        let common = ["--dim", "8", "--window", "4", "--ratio", "1.0", "--seed", "5"];
        run_capture(&[&["embed", "--graph", &gpath, "--out", &e_csr], &common[..]].concat())
            .unwrap();
        let out =
            run_capture(&[&["embed", "--graph", &bpath, "--out", &e_byte], &common[..]].concat())
                .unwrap();
        assert!(out.contains("v2 container, codec byte"), "{out}");
        let out = run_capture(
            &[&["embed", "--graph", &cpath, "--out", &e_mmap, "--mmap"], &common[..]].concat(),
        )
        .unwrap();
        assert!(out.contains("v2 container, codec arice, 0 resident bytes"), "{out}");

        let csr = std::fs::read(&e_csr).unwrap();
        assert_eq!(csr, std::fs::read(&e_byte).unwrap(), "byte embedding differs from CSR");
        assert_eq!(csr, std::fs::read(&e_mmap).unwrap(), "mmap v2 embedding differs from CSR");

        // --mmap without a container is a typed error, not a silent no-op.
        let err =
            run_capture(&["embed", "--graph", &gpath, "--out", &e_csr, "--mmap"]).unwrap_err();
        assert!(err.contains("lng2"), "{err}");

        for p in [&gpath, &cpath, &bpath, &e_csr, &e_byte, &e_mmap] {
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_file(format!("{gpath}.labels")).ok();
    }

    #[test]
    fn a_container_of_interleaved_arice_blocks_is_refused() {
        // Codec id 3: `arice` blocks with each quotient next to its
        // remainder, the layout before the split-stream block. The header
        // is intact (resealed), so every command that opens the file says
        // which id it found and how to get a readable one.
        let gpath = tmp("retired3.lne");
        let cpath = tmp("retired3.lng2");
        run_capture(&["generate", "--profile", "oag", "--scale", "0.0001", "--out", &gpath])
            .unwrap();
        run_capture(&["compress", "--graph", &gpath, "--out", &cpath]).unwrap();
        let mut bytes = std::fs::read(&cpath).unwrap();
        bytes[12..16].copy_from_slice(&3u32.to_le_bytes());
        let seal = crate::utils::checksum::fnv1a64(&bytes[..64]);
        bytes[64..72].copy_from_slice(&seal.to_le_bytes());
        std::fs::write(&cpath, &bytes).unwrap();
        let out = tmp("retired3.emb");
        for args in [
            &["stats", "--graph", &cpath][..],
            &["embed", "--graph", &cpath, "--out", &out, "--dim", "8"],
            &["embed", "--graph", &cpath, "--out", &out, "--dim", "8", "--mmap"],
        ] {
            let err = run_capture(args).unwrap_err();
            assert!(
                err.contains("retired codec id 0x3") && err.contains("lightne compress"),
                "{args:?}: {err}"
            );
        }
        for p in [&gpath, &cpath, &out] {
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_file(format!("{gpath}.labels")).ok();
    }

    #[test]
    fn stats_prints_the_pinned_report() {
        // Triangles {0,1,2} and {3,4,5}, the 4-clique {6..9}, isolated 10
        // and the path 11 - 12 - 13; one edge listed in both directions.
        let tpath = tmp("stats.txt");
        std::fs::write(
            &tpath,
            "# pinned\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n6 7\n6 8\n6 9\n7 8\n7 9\n8 9\n1 0\n11 12\n12 13\n",
        )
        .unwrap();
        let small = "\
vertices           14
edges              14
max degree         3
avg degree         2.00
components         5
largest component  4
triangles          6
degeneracy         3
";
        assert_eq!(run_capture(&["stats", "--graph", &tpath]).unwrap(), small);

        let gpath = tmp("stats.lne");
        let cpath = tmp("stats.lng2");
        let generate = ["generate", "--profile", "oag", "--scale", "0.0001", "--seed", "42"];
        run_capture(&[&generate[..], &["--out", &gpath]].concat()).unwrap();
        run_capture(&["compress", "--graph", &gpath, "--out", &cpath]).unwrap();
        let oag = "\
vertices           6776
edges              76889
max degree         1904
avg degree         22.69
components         1
largest component  6776
triangles          107492
degeneracy         20
";
        // The container decodes to the same graph, so to the same report.
        for path in [&gpath, &cpath] {
            assert_eq!(run_capture(&["stats", "--graph", path]).unwrap(), oag, "{path}");
        }
        for p in [&tpath, &gpath, &cpath, &format!("{gpath}.labels")] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn a_graph_file_that_breaks_the_csr_invariant_is_rejected() {
        // Edges 0 - 1 and 0 - 2 with row 0 stored as [2, 1] under a valid
        // checksum: only the row check can catch it.
        let gpath = tmp("unsorted.lne");
        let cpath = tmp("unsorted.lng2");
        write_binary(&crate::graph::GraphBuilder::from_edges(3, &[(0, 1), (0, 2)]), &gpath)
            .unwrap();
        let mut raw = std::fs::read(&gpath).unwrap();
        // A 32-byte header, then four 8-byte offsets: row 0 starts at 64.
        raw[64..72].copy_from_slice(&[2, 0, 0, 0, 1, 0, 0, 0]);
        let checksum = crate::utils::checksum::fnv1a64(&raw[32..]);
        raw[24..32].copy_from_slice(&checksum.to_le_bytes());
        std::fs::write(&gpath, &raw).unwrap();
        let compress = run_capture(&["compress", "--graph", &gpath, "--out", &cpath]);
        let err = compress.expect_err("compress must reject an unsorted row");
        assert!(err.ends_with("neighbor list not strictly ascending"), "{err}");
        assert!(!std::path::Path::new(&cpath).exists(), "a rejected compress wrote a file");
        let epath = tmp("unsorted_emb.txt");
        for cmd in
            [&["stats", "--graph", &gpath][..], &["embed", "--graph", &gpath, "--out", &epath]]
        {
            let err = run_capture(cmd).unwrap_err();
            assert!(err.ends_with("neighbor list not strictly ascending"), "{cmd:?}: {err}");
        }
        std::fs::remove_file(&gpath).ok();
    }

    #[test]
    fn classify_rejects_shape_mismatch() {
        let gpath = tmp("mismatch.lne");
        let epath = tmp("mismatch_emb.txt");
        run_capture(&["generate", "--profile", "oag", "--scale", "0.00002", "--out", &gpath])
            .unwrap();
        std::fs::write(&epath, "1 2\n3 4\n").unwrap();
        let labels_path = format!("{gpath}.labels");
        let err = run_capture(&[
            "classify",
            "--graph",
            &gpath,
            "--labels",
            &labels_path,
            "--embedding",
            &epath,
        ])
        .unwrap_err();
        assert!(err.contains("rows"), "{err}");
        std::fs::remove_file(&gpath).ok();
        std::fs::remove_file(&epath).ok();
        std::fs::remove_file(&labels_path).ok();
    }

    #[test]
    fn quality_command_prints_matrix_rows() {
        let out = run_capture(&[
            "quality",
            "--profiles",
            "blogcatalog",
            "--target-n",
            "300",
            "--dim",
            "8",
        ])
        .unwrap();
        for needle in ["classify", "linkpred", "structure"] {
            assert!(out.contains(needle), "missing {needle:?} in {out}");
        }
        // One header + 3 tasks.
        assert_eq!(out.lines().count(), 4, "{out}");
        assert!(run_capture(&["quality", "--profiles", "nope"]).is_err());
    }
}
