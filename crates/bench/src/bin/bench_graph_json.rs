//! Graph-format benchmark: the compressed container under every codec of
//! the sweep — compression ratio (bits/edge) and decode throughput,
//! sequential and random — with the parallel-byte code (`byte`, the
//! paper's format) as the reference row of the summary ratios.
//!
//! Prints one flat JSON object, one key per line, to stdout; progress
//! goes to stderr. `results/BENCH_graph.json` is the committed copy
//! (`cargo run --release -p lightne-bench --bin bench_graph_json >
//! results/BENCH_graph.json`); `cargo xtask gate graph <report>` judges
//! a fresh report against it. The `byte_block*` keys record the paper's
//! §4.2 block-size trade-off and are not gated.
//!
//! The graph is the largest classification profile (Friendster) scaled
//! to the host; `--scale` / `--seed` come from the shared harness, and
//! `PROFILE` / `RAND_PROBES` environment knobs override the dataset and
//! the random-access probe count for CI smoke runs.

use lightne_bench::harness::{timed, Args};
use lightne_gen::profiles::Profile;
use lightne_graph::{Codec, Graph, GraphAccess, V2Graph};
use lightne_utils::rng::XorShiftStream;
use std::hint::black_box;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Sequential decode: full adjacency scan through the [`GraphAccess`]
/// interface (the same dynamic-dispatch cost for every format), in
/// million arcs per second. Best of `reps` (noise on a shared machine
/// only ever adds time).
fn seq_medges_per_sec(g: &dyn GraphAccess, reps: usize) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps {
        let (acc, d) = timed(|| {
            let mut acc = 0u64;
            for v in 0..g.num_vertices() as u32 {
                g.for_each_neighbor(v, &mut |u| acc = acc.wrapping_add(u as u64));
            }
            acc
        });
        black_box(acc);
        best = best.min(d.as_secs_f64());
    }
    g.num_arcs() as f64 / best / 1e6
}

/// Random access: `probes` uniform `ith_neighbor` lookups, in million
/// accesses per second. Best of `reps`.
fn rand_maccess_per_sec(g: &dyn GraphAccess, probes: usize, seed: u64, reps: usize) -> f64 {
    let n = g.num_vertices();
    let mut best = f64::MAX;
    for _ in 0..reps {
        let mut rng = XorShiftStream::new(seed, 1);
        let (acc, d) = timed(|| {
            let mut acc = 0u64;
            for _ in 0..probes {
                let v = rng.bounded_usize(n) as u32;
                let deg = g.degree(v);
                if deg > 0 {
                    acc = acc.wrapping_add(g.ith_neighbor(v, rng.bounded_usize(deg)) as u64);
                }
            }
            acc
        });
        black_box(acc);
        best = best.min(d.as_secs_f64());
    }
    probes as f64 / best / 1e6
}

fn main() {
    let args = Args::from_env(0.001, 32);
    let profile_name = std::env::var("PROFILE").unwrap_or_else(|_| "friendster".to_string());
    let probes = env_usize("RAND_PROBES", 1_000_000);
    let reps = env_usize("REPS", 5).max(1);
    let profile = Profile::ALL
        .into_iter()
        .find(|p| p.name().eq_ignore_ascii_case(&profile_name))
        .unwrap_or_else(|| panic!("unknown PROFILE {profile_name:?}"));

    eprintln!("generating {} at scale {} ...", profile.name(), args.scale);
    let g: Graph = profile.generate(args.scale, args.seed).graph;
    let (n, arcs) = (g.num_vertices(), g.num_arcs());
    eprintln!("n={n} arcs={arcs}");

    let mut lines: Vec<String> = Vec::new();
    let mut put = |key: &str, val: String| lines.push(format!("  \"{key}\": {val}"));
    put("profile", format!("\"{}\"", profile.name()));
    put("scale", args.scale.to_string());
    put("seed", args.seed.to_string());
    put("n", n.to_string());
    put("arcs", arcs.to_string());
    put("rand_probes", probes.to_string());

    let bits_per_edge = |bytes: usize| bytes as f64 * 8.0 / arcs as f64;

    // --- Per codec: container bytes (EF offsets + arena + header).
    let mut best: Option<(Codec, usize, f64, f64)> = None;
    let (mut byte_bpe, mut byte_seq, mut byte_rand) = (0.0, 0.0, 0.0); // the reference row
    for codec in Codec::SWEEP {
        let name = codec.name();
        eprintln!("v2/{name} encode ...");
        let v2 = V2Graph::from_graph(&g, codec);
        let bytes = v2.container_bytes();
        let bpe = bits_per_edge(bytes);
        let seq = seq_medges_per_sec(&v2, reps);
        let rand = rand_maccess_per_sec(&v2, probes, args.seed, reps);
        eprintln!("v2/{name}: {bpe:.3} bits/edge, seq {seq:.1} Marcs/s, rand {rand:.2} M/s");
        put(&format!("v2_{name}_bytes"), bytes.to_string());
        put(&format!("v2_{name}_bits_per_edge"), format!("{bpe:.4}"));
        put(&format!("v2_{name}_seq_medges_per_sec"), format!("{seq:.3}"));
        put(&format!("v2_{name}_rand_maccess_per_sec"), format!("{rand:.4}"));
        if codec == Codec::Byte {
            (byte_bpe, byte_seq, byte_rand) = (bpe, seq, rand);
        }
        if best.as_ref().is_none_or(|(_, b, _, _)| bytes < *b) {
            best = Some((codec, bytes, seq, rand));
        }
    }

    // --- The paper's §4.2 block-size trade-off on the byte code: small
    // blocks fetch a neighbour faster, large ones compress better.
    for block in [16usize, 64, 256] {
        let v2 = V2Graph::from_graph_with_block_size(&g, Codec::Byte, block)
            .expect("block size in range");
        let bpe = bits_per_edge(v2.container_bytes());
        let rand = rand_maccess_per_sec(&v2, probes, args.seed, reps);
        eprintln!("v2/byte block {block}: {bpe:.3} bits/edge, rand {rand:.2} M/s");
        put(&format!("byte_block{block}_bits_per_edge"), format!("{bpe:.4}"));
        put(&format!("byte_block{block}_rand_maccess_per_sec"), format!("{rand:.4}"));
    }

    // --- Summary the regression gate reads: smallest codec vs `byte`.
    let (codec, bytes, seq, rand) = best.expect("codec sweep is non-empty");
    let best_bpe = bits_per_edge(bytes);
    put("v2_best_codec", format!("\"{}\"", codec.name()));
    put("v2_best_bits_per_edge", format!("{best_bpe:.4}"));
    put("bits_ratio_best", format!("{:.4}", best_bpe / byte_bpe));
    put("seq_slowdown_best", format!("{:.4}", byte_seq / seq));
    put("rand_slowdown_best", format!("{:.4}", byte_rand / rand));

    println!("{{\n{}\n}}", lines.join(",\n"));
}
