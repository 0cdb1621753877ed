//! Integration tests for the stage engine: artifact checkpointing,
//! resume-from-any-boundary reproducibility, metadata validation, and the
//! CLI surface (`--save-artifacts`, `--resume-from`, `--stats-json`).

use lightne::core::artifacts::{
    ArtifactStore, INITIAL_FILE, MANIFEST_FILE, META_FILE, META_VERSION, NETMF_FILE,
    SPARSIFIER_FILE,
};
use lightne::core::pipeline::{STAGE_NETMF, STAGE_PROPAGATION, STAGE_RSVD, STAGE_SPARSIFIER};
use lightne::core::{EngineError, LightNe, LightNeConfig, RunOptions};
use lightne::gen::generators::chung_lu;
use lightne::graph::WeightedGraph;
use lightne::linalg::matio;
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lightne_engine_{}_{name}", std::process::id()));
    p
}

/// Copies whichever artifact files exist in `from` into a fresh `to`.
fn copy_artifacts(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for f in [META_FILE, MANIFEST_FILE, SPARSIFIER_FILE, NETMF_FILE, INITIAL_FILE] {
        let src = from.join(f);
        if src.is_file() {
            std::fs::copy(&src, to.join(f)).unwrap();
        }
    }
}

fn bits(m: &lightne::linalg::DenseMatrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn save_opts(dir: &Path) -> RunOptions {
    RunOptions { save_artifacts: Some(dir.to_path_buf()), ..Default::default() }
}

fn resume_opts(dir: &Path) -> RunOptions {
    RunOptions { resume_from: Some(dir.to_path_buf()), ..Default::default() }
}

#[test]
fn resume_from_each_boundary_reproduces_straight_run() {
    let g = chung_lu(500, 4_000, 2.4, 3);
    let pipe = LightNe::new(LightNeConfig {
        dim: 16,
        window: 5,
        sample_ratio: 1.0,
        seed: 7,
        ..Default::default()
    });

    let dir = tmp("full");
    std::fs::remove_dir_all(&dir).ok();
    let straight = pipe.embed_with(&g, save_opts(&dir)).unwrap();
    let want = bits(&straight.embedding);
    for f in [META_FILE, SPARSIFIER_FILE, NETMF_FILE, INITIAL_FILE] {
        assert!(dir.join(f).is_file(), "missing artifact {f}");
    }

    // Boundary 1: only the sparsifier COO — NetMF, rSVD and propagation
    // re-run live.
    let d1 = tmp("sparsifier_only");
    std::fs::remove_dir_all(&d1).ok();
    copy_artifacts(&dir, &d1);
    std::fs::remove_file(d1.join(NETMF_FILE)).unwrap();
    std::fs::remove_file(d1.join(INITIAL_FILE)).unwrap();
    let r1 = pipe.embed_with(&g, resume_opts(&d1)).unwrap();
    assert_eq!(bits(&r1.embedding), want, "resume from sparsifier diverged");
    assert_eq!(r1.stats.get(STAGE_SPARSIFIER).unwrap().counter("resumed"), Some(1));

    // Boundary 2: sparsifier + NetMF matrix — rSVD onward re-runs.
    let d2 = tmp("through_netmf");
    std::fs::remove_dir_all(&d2).ok();
    copy_artifacts(&dir, &d2);
    std::fs::remove_file(d2.join(INITIAL_FILE)).unwrap();
    let r2 = pipe.embed_with(&g, resume_opts(&d2)).unwrap();
    assert_eq!(bits(&r2.embedding), want, "resume from netmf diverged");

    // Boundary 3: everything checkpointed — only propagation re-runs.
    let r3 = pipe.embed_with(&g, resume_opts(&dir)).unwrap();
    assert_eq!(bits(&r3.embedding), want, "resume from initial embedding diverged");
    for kind in [STAGE_SPARSIFIER, STAGE_NETMF, STAGE_RSVD] {
        assert_eq!(
            r3.stats.get(kind).unwrap().counter("resumed"),
            Some(1),
            "stage {kind} should be resumed"
        );
    }
    assert_eq!(r3.stats.get(STAGE_PROPAGATION).unwrap().counter("resumed"), None);

    // Resumed stats still replay the sampler counters from the metadata.
    assert_eq!(
        r3.stats.get(STAGE_SPARSIFIER).unwrap().counter("trials"),
        Some(straight.sampler.trials)
    );

    for d in [&dir, &d1, &d2] {
        std::fs::remove_dir_all(d).ok();
    }
}

#[test]
fn weighted_resume_reproduces_and_mode_mismatch_is_rejected() {
    let g = chung_lu(300, 2_400, 2.4, 9);
    let gw = WeightedGraph::from_unweighted(&g);
    let pipe = LightNe::new(LightNeConfig {
        dim: 12,
        window: 4,
        sample_ratio: 1.0,
        seed: 11,
        ..Default::default()
    });

    let dir = tmp("weighted");
    std::fs::remove_dir_all(&dir).ok();
    let straight = pipe.embed_weighted_with(&gw, save_opts(&dir)).unwrap();
    let resumed = pipe.embed_weighted_with(&gw, resume_opts(&dir)).unwrap();
    assert_eq!(bits(&straight.embedding), bits(&resumed.embedding));

    // Unweighted run over weighted artifacts must fail loudly.
    let err = pipe.embed_with(&g, resume_opts(&dir)).unwrap_err();
    assert!(err.to_string().contains("weighted"), "unhelpful error: {err}");

    // Seed mismatch is also rejected.
    let other = LightNe::new(LightNeConfig {
        dim: 12,
        window: 4,
        sample_ratio: 1.0,
        seed: 12,
        ..Default::default()
    });
    let err = other.embed_weighted_with(&gw, resume_opts(&dir)).unwrap_err();
    assert!(err.to_string().contains("seed"), "unhelpful error: {err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_from_empty_dir_is_an_error() {
    let g = chung_lu(100, 600, 2.4, 5);
    let dir = tmp("empty");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let pipe =
        LightNe::new(LightNeConfig { dim: 8, window: 3, sample_ratio: 1.0, ..Default::default() });
    let err = pipe.embed_with(&g, resume_opts(&dir)).unwrap_err();
    assert!(err.to_string().contains("metadata"), "unhelpful error: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_rejects_meta_version_and_fingerprint_mismatches_with_typed_errors() {
    let g = chung_lu(200, 1_400, 2.4, 21);
    let cfg = LightNeConfig { dim: 8, window: 4, sample_ratio: 1.0, seed: 3, ..Default::default() };
    let pipe = LightNe::new(cfg);

    let dir = tmp("misuse");
    std::fs::remove_dir_all(&dir).ok();
    pipe.embed_with(&g, save_opts(&dir)).unwrap();

    // A run with different embedding parameters must refuse the
    // artifacts outright — the checkpointed state is not its own.
    let other = LightNe::new(LightNeConfig { window: 5, ..cfg });
    let err = other.embed_with(&g, resume_opts(&dir)).unwrap_err();
    assert!(
        matches!(err, EngineError::FingerprintMismatch { .. }),
        "expected FingerprintMismatch, got: {err}"
    );
    assert!(err.to_string().contains("fingerprint"), "unhelpful error: {err}");

    // A store whose metadata claims an unsupported format version is a
    // typed error, not a parse failure.
    let store = ArtifactStore::open(&dir);
    let mut meta = store.load_meta().unwrap();
    meta.version = META_VERSION - 1;
    ArtifactStore::attach(&dir, meta.fingerprint).save_meta(&meta).unwrap();
    let err = pipe.embed_with(&g, resume_opts(&dir)).unwrap_err();
    match err {
        EngineError::MetaVersion { found, supported } => {
            assert_eq!(found, META_VERSION - 1);
            assert_eq!(supported, META_VERSION);
        }
        other => panic!("expected MetaVersion, got: {other}"),
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint whose checksum is valid but whose content is not this
/// run's matrix: ids past the vertex count (the reader names the line)
/// and a well-formed matrix of the wrong shape (`Corrupt`). Before the
/// readers checked ids, the first panicked in the NetMF drain.
#[test]
fn resealed_checkpoints_with_foreign_ids_or_shapes_are_typed_errors() {
    let g = chung_lu(200, 1_400, 2.4, 23);
    let cfg = LightNeConfig { dim: 8, window: 4, sample_ratio: 1.0, seed: 4, ..Default::default() };
    let pipe = LightNe::new(cfg);
    let dir = tmp("forged");
    std::fs::remove_dir_all(&dir).ok();
    let want = bits(&pipe.embed_with(&g, save_opts(&dir)).unwrap().embedding);
    let store = ArtifactStore::open(&dir);
    let read = |file: &str| std::fs::read(dir.join(file)).unwrap();
    let (n, _, entries) = matio::coo_from_bytes(&read(SPARSIFIER_FILE)).unwrap();
    let netmf = matio::csr_from_bytes(&read(NETMF_FILE)).unwrap();
    let forger = ArtifactStore::attach(&dir, store.load_meta().unwrap().fingerprint);
    std::fs::remove_file(dir.join(INITIAL_FILE)).unwrap();
    std::fs::remove_file(dir.join(NETMF_FILE)).unwrap();

    let resume_err = || pipe.embed_with(&g, resume_opts(&dir)).unwrap_err();
    // Past the vertex count as a source, then as a column.
    for column in [false, true] {
        let mut forged = entries.clone();
        if column {
            forged[1].1 = n as u32 + 7;
        } else {
            forged[1].0 = n as u32;
        }
        forger.save_sparsifier(n, &forged).unwrap();
        let err = resume_err();
        assert!(matches!(err, EngineError::Io(_)), "expected a parse error, got: {err}");
        assert!(err.to_string().contains("line 3"), "unhelpful error: {err}");
    }

    let smaller: Vec<_> = entries.iter().copied().filter(|&(u, v, _)| u.max(v) < 100).collect();
    forger.save_sparsifier(100, &smaller).unwrap();
    match resume_err() {
        EngineError::Corrupt { file, detail } => {
            assert_eq!(file, SPARSIFIER_FILE);
            assert!(detail.contains("100x100"), "unhelpful error: {detail}");
        }
        other => panic!("expected Corrupt, got: {other}"),
    }

    forger.save_sparsifier(n, &entries).unwrap();
    forger.save_netmf(&lightne::linalg::CsrMatrix::zeros(n + 1, n + 1)).unwrap();
    match resume_err() {
        EngineError::Corrupt { file, .. } => assert_eq!(file, NETMF_FILE),
        other => panic!("expected Corrupt, got: {other}"),
    }

    // The genuine checkpoints still resume to the same bytes.
    forger.save_netmf(&netmf).unwrap();
    assert_eq!(bits(&pipe.embed_with(&g, resume_opts(&dir)).unwrap().embedding), want);

    // An initial embedding must be n × min(dim, n), the rank the SVD
    // returns: too few rows used to panic in propagation, too few columns
    // (or any shape without propagation) was returned as the embedding.
    let unpropagated = LightNe::new(LightNeConfig { propagation: None, ..cfg });
    for (rows, cols) in [(150, 8), (200, 3)] {
        forger.save_initial(&lightne::linalg::DenseMatrix::zeros(rows, cols)).unwrap();
        for p in [&pipe, &unpropagated] {
            match p.embed_with(&g, resume_opts(&dir)).unwrap_err() {
                EngineError::Corrupt { file, detail } => {
                    assert_eq!(file, INITIAL_FILE);
                    assert!(
                        detail.contains(&format!("{rows}x{cols}")),
                        "unhelpful error: {detail}"
                    );
                }
                other => panic!("expected Corrupt, got: {other}"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The edge table keeps one slot per pair, so it would average a resealed
/// sparsifier whose `(i, j)` and `(j, i)` weights differ, or keep a pair
/// whose mirror is gone, and embed the result. Both are a typed
/// `Corrupt { file: "sparsifier.coo" }` instead; the genuine checkpoint
/// still resumes to the straight run's bytes.
#[test]
fn resealed_asymmetric_sparsifier_is_a_typed_error() {
    let g = chung_lu(200, 1_400, 2.4, 29);
    let cfg = LightNeConfig { dim: 8, window: 4, sample_ratio: 1.0, seed: 6, ..Default::default() };
    let pipe = LightNe::new(cfg);
    let dir = tmp("asymmetric");
    std::fs::remove_dir_all(&dir).ok();
    let want = bits(&pipe.embed_with(&g, save_opts(&dir)).unwrap().embedding);
    let store = ArtifactStore::open(&dir);
    let (n, _, entries) =
        matio::coo_from_bytes(&std::fs::read(dir.join(SPARSIFIER_FILE)).unwrap()).unwrap();
    let forger = ArtifactStore::attach(&dir, store.load_meta().unwrap().fingerprint);
    std::fs::remove_file(dir.join(INITIAL_FILE)).unwrap();
    std::fs::remove_file(dir.join(NETMF_FILE)).unwrap();

    let off_diagonal = entries.iter().position(|&(i, j, _)| i != j).unwrap();
    let mut reweighted = entries.clone();
    reweighted[off_diagonal].2 *= 2.0;
    let mut unmirrored = entries.clone();
    unmirrored.remove(off_diagonal);
    for forged in [reweighted, unmirrored] {
        forger.save_sparsifier(n, &forged).unwrap();
        match pipe.embed_with(&g, resume_opts(&dir)).unwrap_err() {
            EngineError::Corrupt { file, detail } => {
                assert_eq!(file, SPARSIFIER_FILE);
                assert!(detail.contains("not symmetric"), "unhelpful error: {detail}");
            }
            other => panic!("expected Corrupt, got: {other}"),
        }
    }

    forger.save_sparsifier(n, &entries).unwrap();
    assert_eq!(bits(&pipe.embed_with(&g, resume_opts(&dir)).unwrap().embedding), want);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn save_artifacts_refuses_directories_with_foreign_files() {
    let g = chung_lu(100, 600, 2.4, 8);
    let dir = tmp("foreign");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("notes.txt"), "do not clobber me").unwrap();
    let pipe =
        LightNe::new(LightNeConfig { dim: 8, window: 3, sample_ratio: 1.0, ..Default::default() });
    let err = pipe.embed_with(&g, save_opts(&dir)).unwrap_err();
    assert!(matches!(err, EngineError::ArtifactDir(_)), "expected ArtifactDir error, got: {err}");
    assert!(err.to_string().contains("notes.txt"), "unhelpful error: {err}");
    // The foreign file survives the refused create.
    assert!(dir.join("notes.txt").is_file());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_store_is_reset_and_resume_plus_save_shares_one_directory() {
    let g = chung_lu(200, 1_400, 2.4, 17);
    let cfg = LightNeConfig { dim: 8, window: 3, sample_ratio: 1.0, seed: 2, ..Default::default() };
    let pipe = LightNe::new(cfg);

    // Saving twice into the same directory works: the second create
    // resets the stale (recognized) store files.
    let dir = tmp("reset");
    std::fs::remove_dir_all(&dir).ok();
    let a = pipe.embed_with(&g, save_opts(&dir)).unwrap();
    let b = pipe.embed_with(&g, save_opts(&dir)).unwrap();
    assert_eq!(bits(&a.embedding), bits(&b.embedding));

    // Resume and save through the *same* directory: the store must not
    // be reset out from under the resume.
    let both = RunOptions {
        save_artifacts: Some(dir.clone()),
        resume_from: Some(dir.clone()),
        ..Default::default()
    };
    let c = pipe.embed_with(&g, both).unwrap();
    assert_eq!(bits(&a.embedding), bits(&c.embedding));
    assert_eq!(c.stats.get(STAGE_RSVD).unwrap().counter("resumed"), Some(1));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_artifact_degrades_by_default_and_fails_under_strict_resume() {
    let g = chung_lu(300, 2_000, 2.4, 31);
    let cfg = LightNeConfig { dim: 8, window: 4, sample_ratio: 1.0, seed: 6, ..Default::default() };
    let pipe = LightNe::new(cfg);

    let dir = tmp("degrade");
    std::fs::remove_dir_all(&dir).ok();
    let straight = pipe.embed_with(&g, save_opts(&dir)).unwrap();
    let want = bits(&straight.embedding);

    // Flip one byte in the deepest artifact (the initial embedding).
    let path = dir.join(INITIAL_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();

    // Default resume degrades to the NetMF checkpoint, records the
    // fallback, and still reproduces the straight run byte for byte.
    let r = pipe.embed_with(&g, resume_opts(&dir)).unwrap();
    assert_eq!(bits(&r.embedding), want, "degraded resume diverged");
    assert!(
        r.stats.resume_fallbacks.iter().any(|f| f.contains(INITIAL_FILE)),
        "fallback not recorded: {:?}",
        r.stats.resume_fallbacks
    );
    assert_eq!(r.stats.get(STAGE_NETMF).unwrap().counter("resumed"), Some(1));

    // The fallback also lands in the stats JSON.
    assert!(
        r.stats.to_json().contains("resume_fallbacks"),
        "stats json missing resume_fallbacks:\n{}",
        r.stats.to_json()
    );

    // Strict resume turns the same corruption into a typed error.
    let strict =
        RunOptions { resume_from: Some(dir.clone()), strict_resume: true, ..Default::default() };
    let err = pipe.embed_with(&g, strict).unwrap_err();
    match &err {
        EngineError::Corrupt { file, .. } => assert_eq!(file, INITIAL_FILE),
        other => panic!("expected Corrupt, got: {other}"),
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_embed_writes_stats_json_and_resumes_byte_identically() {
    // A small text edge list drives the CLI end to end.
    let g = chung_lu(200, 1_400, 2.4, 13);
    let graph_path = tmp("cli_graph.txt");
    lightne::graph::io::write_edge_list(&g, &graph_path).unwrap();
    let emb_a = tmp("cli_a.emb");
    let emb_b = tmp("cli_b.emb");
    let stats_path = tmp("cli_stats.json");
    let art_dir = tmp("cli_artifacts");
    std::fs::remove_dir_all(&art_dir).ok();

    let run = |args: &[&str]| -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        lightne::cli::run(&args, &mut out).expect("cli run failed");
        String::from_utf8(out).unwrap()
    };

    let graph = graph_path.to_str().unwrap();
    let captured = run(&[
        "embed",
        "--graph",
        graph,
        "--out",
        emb_a.to_str().unwrap(),
        "--dim",
        "8",
        "--window",
        "3",
        "--ratio",
        "1.0",
        "--seed",
        "5",
        "--threads",
        "2",
        "--stats-json",
        stats_path.to_str().unwrap(),
        "--save-artifacts",
        art_dir.to_str().unwrap(),
    ]);
    assert!(captured.contains("threads:"), "missing threads line:\n{captured}");
    assert!(captured.contains("sampler:"), "missing sampler line:\n{captured}");

    // The stats JSON carries per-stage wall time, heap bytes and counters.
    let json = std::fs::read_to_string(&stats_path).unwrap();
    for needle in [
        "\"seed\": 5",
        "\"threads\":",
        "\"stages\"",
        "\"secs\":",
        "\"heap_bytes\":",
        "\"trials\":",
        STAGE_SPARSIFIER,
        STAGE_RSVD,
        STAGE_PROPAGATION,
    ] {
        assert!(json.contains(needle), "stats json missing {needle}:\n{json}");
    }

    // Resuming from the CLI-written artifacts reproduces the exact file.
    let captured = run(&[
        "embed",
        "--graph",
        graph,
        "--out",
        emb_b.to_str().unwrap(),
        "--dim",
        "8",
        "--window",
        "3",
        "--ratio",
        "1.0",
        "--seed",
        "5",
        "--resume-from",
        art_dir.to_str().unwrap(),
    ]);
    assert!(captured.contains("wrote"), "no output written:\n{captured}");
    let a = std::fs::read(&emb_a).unwrap();
    let b = std::fs::read(&emb_b).unwrap();
    assert_eq!(a, b, "resumed CLI run produced a different embedding file");

    for f in [&graph_path, &emb_a, &emb_b, &stats_path] {
        std::fs::remove_file(f).ok();
    }
    std::fs::remove_dir_all(&art_dir).ok();
}
