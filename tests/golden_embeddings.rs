//! Embedding bytes pinned as constants.
//!
//! `tests/graph_formats.rs`, `tests/sharded_path.rs` and
//! `tests/stage_engine.rs` each compare two runs of the *same* build, so
//! a change that moved every path's output together would pass all three.
//! The FNV-1a-64 digests below were recorded once, at commit `e90537f` —
//! when the weighted pipeline still had its own sampler, NetMF inversion
//! and operators, and a single-table data path ran beside the sharded one
//! — and every cell of
//!
//! ```text
//! {CSR, byte, ζ₃} × {unweighted, weighted}
//!   × threads {1, 2, 8} × shards {0, 1, 4, 32}
//!   × {plain, save_artifacts, resume from each stage boundary,
//!      resume from a sparsifier checkpoint in another entry order}
//! ```
//!
//! must keep reproducing them bit for bit. (The weighted pipeline has one
//! backend, `WeightedGraph`; its weights are non-unit. The `byte` cells
//! were recorded on the standalone parallel-byte graph that
//! `V2Graph` + `Codec::Byte` replaced.) The weighted digest was
//! re-recorded once since, when the weighted walk step moved from a
//! binary search over prefix sums to per-vertex alias tables: the same
//! neighbor distribution from different draws (`tests/estimator_rate.rs`
//! holds the estimator to its rate across that change; it was
//! `0xe76d_f5e5_87ab_a48d` before).
//!
//! Everything lives in ONE test function on purpose: all tests in a
//! binary share the global rayon pool, and this test resizes it.

use lightne::core::artifacts::{ArtifactStore, INITIAL_FILE, NETMF_FILE, SPARSIFIER_FILE};
use lightne::core::{LightNe, LightNeConfig, LightNeOutput, RunOptions};
use lightne::gen::generators::erdos_renyi;
use lightne::graph::{Codec, Graph, GraphBuilder, V2Graph, WeightedGraph};
use lightne::linalg::matio;
use lightne::utils::checksum::fnv1a64;
use lightne::utils::parallel::configure_threads;
use std::path::{Path, PathBuf};

/// `(weighted, fnv1a64 of the embedding's little-endian f32 bytes)`.
const GOLDEN: [(bool, u64); 2] = [(false, 0xedc7_0037_21f8_b16f), (true, 0xe1a4_1a72_d5f7_25ba)];

const N: usize = 256;

/// Eight 16-cliques chained by single bridges next to a sparse random
/// half.
fn edges() -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for base in (0..128u32).step_by(16) {
        for i in 0..16 {
            for j in 0..i {
                edges.push((base + i, base + j));
            }
        }
        edges.push((base, base + 16));
    }
    let sparse = erdos_renyi(128, 700, 5);
    for u in 0..128u32 {
        edges.extend(sparse.neighbors(u).iter().filter(|&&v| u < v).map(|&v| (u + 128, v + 128)));
    }
    edges
}

fn digest(out: &LightNeOutput) -> u64 {
    let bytes: Vec<u8> = out.embedding.as_slice().iter().flat_map(|x| x.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lightne_golden_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Runs every artifact mode of one `(graph, config)` cell and checks each
/// embedding against `want`.
fn check_cell(label: &str, want: u64, embed: &dyn Fn(RunOptions) -> LightNeOutput) {
    assert_eq!(digest(&embed(RunOptions::default())), want, "{label}: plain run");

    let saved = tmp("saved");
    let save = RunOptions { save_artifacts: Some(saved.clone()), ..Default::default() };
    assert_eq!(digest(&embed(save)), want, "{label}: save_artifacts run");

    // Resume from each boundary: all three artifacts, then without the
    // initial embedding, then with the sparsifier alone.
    let partial = tmp("partial");
    copy_dir(&saved, &partial);
    for (drop, boundary) in
        [(None, "initial"), (Some(INITIAL_FILE), "netmf"), (Some(NETMF_FILE), "sparsifier")]
    {
        if let Some(file) = drop {
            std::fs::remove_file(partial.join(file)).unwrap();
        }
        let resume = RunOptions { resume_from: Some(partial.clone()), ..Default::default() };
        assert_eq!(digest(&embed(resume)), want, "{label}: resume from {boundary}");
    }

    // A sparsifier checkpoint is an entry *set*: rewritten in another
    // order (checkpoints written before the drain was sorted are in hash
    // order) it must resume to the same bytes.
    let store = ArtifactStore::open(&partial);
    let sparsifier = std::fs::read(partial.join(SPARSIFIER_FILE)).unwrap();
    let (n, _, mut entries) = matio::coo_from_bytes(&sparsifier).unwrap();
    entries.reverse();
    let fingerprint = store.load_meta().unwrap().fingerprint;
    ArtifactStore::attach(&partial, fingerprint).save_sparsifier(n, &entries).unwrap();
    let resume = RunOptions { resume_from: Some(partial.clone()), ..Default::default() };
    assert_eq!(digest(&embed(resume)), want, "{label}: resume from a reordered sparsifier");

    std::fs::remove_dir_all(&saved).ok();
    std::fs::remove_dir_all(&partial).ok();
}

#[test]
fn every_path_reproduces_the_pinned_embedding_bytes() {
    let edges = edges();
    let csr: Graph = GraphBuilder::from_edges(N, &edges);
    let byte = V2Graph::from_graph(&csr, Codec::Byte);
    let zeta = V2Graph::from_graph(&csr, Codec::Zeta(3));
    let weighted_edges: Vec<(u32, u32, f32)> =
        edges.iter().map(|&(u, v)| (u, v, 0.25 + ((u * 31 + v * 17) % 13) as f32 * 0.5)).collect();
    let gw = WeightedGraph::from_edges(N, &weighted_edges);

    for threads in [1usize, 2, 8] {
        assert_eq!(configure_threads(threads), threads);
        for shards in [0usize, 1, 4, 32] {
            for (weighted, want) in GOLDEN {
                let engine = LightNe::new(LightNeConfig {
                    dim: 8,
                    window: 4,
                    sample_ratio: 2.0,
                    // Keeps p_e below the clamp so the coin is exercised.
                    c_factor: Some(1.5),
                    seed: 11,
                    shards,
                    ..Default::default()
                });
                let cell = format!("threads={threads} shards={shards}");
                if weighted {
                    check_cell(&format!("weighted {cell}"), want, &|opts| {
                        engine.embed_weighted_with(&gw, opts).unwrap()
                    });
                } else {
                    check_cell(&format!("csr {cell}"), want, &|o| {
                        engine.embed_with(&csr, o).unwrap()
                    });
                    check_cell(&format!("byte {cell}"), want, &|o| {
                        engine.embed_with(&byte, o).unwrap()
                    });
                    check_cell(&format!("zeta3 {cell}"), want, &|o| {
                        engine.embed_with(&zeta, o).unwrap()
                    });
                }
            }
        }
    }
}
