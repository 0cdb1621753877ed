//! Graph-format benchmark: the compressed container under one codec per
//! family (`Codec::SWEEP`) — compression ratio (bits/edge) and decode
//! throughput, sequential, random and walked — with the parallel-byte
//! code (`byte`, the paper's format) as the reference row of the summary
//! ratios.
//!
//! The `rand` rows probe vertices drawn *uniformly*; a random walk sits on
//! vertices in proportion to their degree, so it over-weights exactly the
//! hubs a uniform draw under-weights. The `walk` rows are that workload:
//! one seeded walk, the same trajectory on every backend (the step draws
//! are backend-independent), in million steps per second, with CSR as the
//! reference of `walk_slowdown_best`. `hub_rand_maccess_per_sec` probes
//! the hub of a 2¹⁷-leaf star, where every access seeks one of 2 048
//! blocks: it stays near the `arice` `rand` row only if a seek does not
//! depend on the degree.
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

use lightne_bench::harness::{env_usize, timed, Args};
use lightne_gen::profiles::Profile;
use lightne_graph::walk::walk;
use lightne_graph::{Codec, Graph, GraphAccess, GraphBuilder, V2Graph, VertexId, WeightedOps};
use lightne_utils::rng::XorShiftStream;
use std::hint::black_box;

/// Seconds of the fastest of `reps` runs of `work` (noise on a shared
/// machine only ever adds time); the result goes through `black_box`.
fn best_secs<T>(reps: usize, mut work: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let (out, d) = timed(&mut work);
            black_box(out);
            d.as_secs_f64()
        })
        .fold(f64::MAX, f64::min)
}

/// Sequential decode: full adjacency scan through the [`GraphAccess`]
/// interface (the same dynamic-dispatch cost for every format), in
/// million arcs per second.
fn seq_medges_per_sec(g: &dyn GraphAccess, reps: usize) -> f64 {
    let secs = best_secs(reps, || {
        let mut acc = 0u64;
        for v in 0..g.num_vertices() as u32 {
            g.for_each_neighbor(v, &mut |u| acc = acc.wrapping_add(u as u64));
        }
        acc
    });
    g.num_arcs() as f64 / secs / 1e6
}

/// Random access: `probes` uniform `ith_neighbor` lookups, in million
/// accesses per second.
fn rand_maccess_per_sec(g: &dyn GraphAccess, probes: usize, seed: u64, reps: usize) -> f64 {
    let n = g.num_vertices();
    let secs = best_secs(reps, || {
        let mut rng = XorShiftStream::new(seed, 1);
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
    probes as f64 / secs / 1e6
}

/// Degree-biased access: one `steps`-step walk from `start` on the
/// seeded stream every backend replays, in million steps per second,
/// with the end vertex as the trajectory's witness.
fn walk_msteps_per_sec<G: WeightedOps>(
    g: &G,
    start: VertexId,
    steps: usize,
    seed: u64,
    reps: usize,
) -> (f64, VertexId) {
    let mut end = start;
    let secs = best_secs(reps, || end = walk(g, start, steps, &mut XorShiftStream::new(seed, 2)));
    (steps as f64 / secs / 1e6, end)
}

/// Uniform `ith_neighbor` probes of the hub of a `2^17`-leaf star under
/// `arice`, in million accesses per second. Not scaled: the point is
/// the hub's 2 048 blocks.
fn hub_rand_maccess_per_sec(probes: usize, seed: u64, reps: usize) -> f64 {
    const LEAVES: u32 = 1 << 17;
    let edges: Vec<(VertexId, VertexId)> = (1..=LEAVES).map(|v| (0, v)).collect();
    let star = GraphBuilder::from_edges(LEAVES as usize + 1, &edges);
    let v2 = V2Graph::from_graph(&star, Codec::RiceAdaptive);
    let secs = best_secs(reps, || {
        let mut rng = XorShiftStream::new(seed, 3);
        (0..probes).fold(0u64, |acc, _| {
            acc.wrapping_add(v2.ith_neighbor(0, rng.bounded_usize(LEAVES as usize)) as u64)
        })
    });
    probes as f64 / secs / 1e6
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

    // --- The walk every backend replays, from the largest hub (inside
    // the giant component), and its CSR reference row.
    let start = (0..n as VertexId).max_by_key(|&v| g.degree(v)).unwrap_or(0);
    let (csr_walk, walk_end) = walk_msteps_per_sec(&g, start, probes, args.seed, reps);
    eprintln!("csr: walk {csr_walk:.2} Msteps/s");
    put("csr_walk_msteps_per_sec", format!("{csr_walk:.4}"));

    // --- Per codec: container bytes (EF offsets + arena + header).
    let mut best: Option<(Codec, usize, f64, f64, f64)> = None;
    let (mut byte_bpe, mut byte_seq, mut byte_rand) = (0.0, 0.0, 0.0); // the reference row
    for codec in Codec::SWEEP {
        let name = codec.name();
        eprintln!("v2/{name} encode ...");
        let v2 = V2Graph::from_graph(&g, codec);
        let bytes = v2.container_bytes();
        let bpe = bits_per_edge(bytes);
        let seq = seq_medges_per_sec(&v2, reps);
        let rand = rand_maccess_per_sec(&v2, probes, args.seed, reps);
        let (walked, end) = walk_msteps_per_sec(&v2, start, probes, args.seed, reps);
        assert_eq!(end, walk_end, "v2/{name} walked a different trajectory than CSR");
        eprintln!(
            "v2/{name}: {bpe:.3} bits/edge, seq {seq:.1} Marcs/s, rand {rand:.2} M/s, \
             walk {walked:.2} Msteps/s"
        );
        put(&format!("v2_{name}_bytes"), bytes.to_string());
        put(&format!("v2_{name}_bits_per_edge"), format!("{bpe:.4}"));
        put(&format!("v2_{name}_seq_medges_per_sec"), format!("{seq:.3}"));
        put(&format!("v2_{name}_rand_maccess_per_sec"), format!("{rand:.4}"));
        put(&format!("v2_{name}_walk_msteps_per_sec"), format!("{walked:.4}"));
        if codec == Codec::Byte {
            (byte_bpe, byte_seq, byte_rand) = (bpe, seq, rand);
        }
        if best.as_ref().is_none_or(|(_, b, ..)| bytes < *b) {
            best = Some((codec, bytes, seq, rand, walked));
        }
    }

    let hub = hub_rand_maccess_per_sec(probes, args.seed, reps);
    eprintln!("star hub (2^17 leaves, arice): rand {hub:.2} M/s");
    put("hub_rand_maccess_per_sec", format!("{hub:.4}"));

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

    // --- Summary the regression gate reads: smallest codec vs `byte`,
    // and its walk vs CSR's.
    let (codec, bytes, seq, rand, walked) = best.expect("codec sweep is non-empty");
    let best_bpe = bits_per_edge(bytes);
    put("v2_best_codec", format!("\"{}\"", codec.name()));
    put("v2_best_bits_per_edge", format!("{best_bpe:.4}"));
    put("bits_ratio_best", format!("{:.4}", best_bpe / byte_bpe));
    put("seq_slowdown_best", format!("{:.4}", byte_seq / seq));
    put("rand_slowdown_best", format!("{:.4}", byte_rand / rand));
    put("walk_slowdown_best", format!("{:.4}", csr_walk / walked));

    println!("{{\n{}\n}}", lines.join(",\n"));
}
