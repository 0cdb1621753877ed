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
//! The `*_build_*` rows time CSR construction from the graph's edge list
//! (each edge once, shuffled): `GraphBuilder` and
//! `WeightedGraph::from_edges` — one parallel counting sort by source
//! vertex — at one and two threads, in million output arcs per second,
//! against the sequential sort-then-dedup build they replaced, written
//! out below (`*_sort_baseline_*`). `csr_build_speedup` and
//! `weighted_build_speedup` are the two-thread rate over the baseline's.
//! The weighted baseline ends with the per-vertex alias tables
//! `from_edges` builds, through the same row builder, sequentially — so
//! `weighted_build_speedup` is the sort's and the parallel rows' gain.
//!
//! The `sample_*` rows time the sampling stage — `sample_into` into a
//! `ShardedEdgeTable`, one trial per arc at window 10, sixteen walk lanes
//! per arc range on every backend — on CSR, on the weighted CSR of the
//! build rows' edges and on an `arice` container, in million trials per
//! second; the `sample_seq_*` rows run one lane of the same engine
//! (`sample_into_lanes::<1>`, one arc at a time) on CSR and weighted CSR.
//! They are informational, not gated.
//!
//! The graph is the largest classification profile (Friendster) scaled
//! to the host; `--scale` / `--seed` come from the shared harness, and
//! `PROFILE` / `RAND_PROBES` environment knobs override the dataset and
//! the random-access probe count for CI smoke runs.

use lightne_bench::harness::{env_usize, timed, Args};
use lightne_gen::profiles::Profile;
use lightne_graph::walk::walk;
use lightne_graph::weighted::{fill_alias_row, AliasScratch, AliasSlot};
use lightne_graph::{
    Codec, Graph, GraphAccess, GraphBuilder, V2Graph, VertexId, WeightedGraph, WeightedOps,
};
use lightne_hash::ShardedEdgeTable;
use lightne_sparsifier::construct::{sample_into, sample_into_lanes};
use lightne_sparsifier::{resolve_shards, SamplerConfig, SamplerError, SamplerStats};
use lightne_utils::parallel::configure_threads;
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

/// The sequential build `GraphBuilder` had before the counting sort: both
/// arcs of every edge as packed `u64` keys, one comparison sort, dedup,
/// degrees by count. Returns the CSR arrays.
fn csr_build_by_sort(n: usize, edges: &[(VertexId, VertexId)]) -> (Vec<u64>, Vec<VertexId>) {
    let mut keys: Vec<u64> = Vec::with_capacity(edges.len() * 2);
    for &(u, v) in edges {
        if u != v {
            keys.push(((u as u64) << 32) | v as u64);
            keys.push(((v as u64) << 32) | u as u64);
        }
    }
    keys.sort_unstable();
    keys.dedup();
    let mut offsets = vec![0u64; n + 1];
    for &k in &keys {
        offsets[(k >> 32) as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    (offsets, keys.iter().map(|&k| k as VertexId).collect())
}

/// The sequential build `WeightedGraph::from_edges` had before the
/// counting sort: keyed arcs, one comparison sort, a merge of equal keys,
/// then neighbors, weights and weighted degrees — and, row by row, the
/// same alias tables `from_edges` builds now ([`fill_alias_row`]), so the
/// two builds end with the same structure. Returns the volume.
fn weighted_build_by_sort(n: usize, edges: &[(VertexId, VertexId, f32)]) -> f64 {
    let mut arcs: Vec<(u64, f32)> = Vec::with_capacity(edges.len() * 2);
    for &(u, v, w) in edges {
        if u != v {
            arcs.push((((u as u64) << 32) | v as u64, w));
            arcs.push((((v as u64) << 32) | u as u64, w));
        }
    }
    arcs.sort_unstable_by_key(|&(k, _)| k);
    let mut write = 0usize;
    for read in 0..arcs.len() {
        if write > 0 && arcs[write - 1].0 == arcs[read].0 {
            arcs[write - 1].1 += arcs[read].1;
        } else {
            arcs[write] = arcs[read];
            write += 1;
        }
    }
    arcs.truncate(write);
    let mut offsets = vec![0u64; n + 1];
    for &(k, _) in &arcs {
        offsets[(k >> 32) as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let neighbors: Vec<VertexId> = arcs.iter().map(|&(k, _)| k as VertexId).collect();
    let weights: Vec<f32> = arcs.iter().map(|&(_, w)| w).collect();
    let mut slots: Vec<AliasSlot> = neighbors.iter().map(|&v| AliasSlot::whole(v)).collect();
    let mut scratch = AliasScratch::default();
    let mut degrees = vec![0f64; n];
    for v in 0..n {
        let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
        degrees[v] = weights[lo..hi].iter().map(|&w| w as f64).sum();
        let (nb, ws) = (&neighbors[lo..hi], &weights[lo..hi]);
        fill_alias_row(nb, ws, degrees[v], &mut slots[lo..hi], &mut scratch);
    }
    black_box((&neighbors, &slots));
    degrees.iter().sum()
}

/// Trials per second, in millions, of the sampling stage `sample` (one
/// trial per arc, window 10, downsampling at the default `C`) into a
/// table pre-sized for half a pair per trial, on the default pool: the
/// fastest of `reps` runs, each into a fresh table built outside the
/// timed region.
fn sample_msamples_per_sec<G: WeightedOps>(
    g: &G,
    seed: u64,
    reps: usize,
    sample: impl Fn(&G, &SamplerConfig, &ShardedEdgeTable) -> Result<SamplerStats, SamplerError>,
) -> f64 {
    let arcs = (0..g.num_vertices() as VertexId).map(|v| g.arc_count(v) as u64).sum();
    let cfg = SamplerConfig { window: 10, samples: arcs, seed, ..SamplerConfig::default() };
    let n = g.num_vertices();
    let (mut best, mut trials) = (f64::MAX, 0);
    for _ in 0..reps {
        let table = ShardedEdgeTable::new(n, resolve_shards(0, n), arcs as usize / 2);
        let (stats, d) = timed(|| sample(g, &cfg, &table).expect("the graph has edges"));
        (best, trials) = (best.min(d.as_secs_f64()), stats.trials);
    }
    trials as f64 / best / 1e6
}

/// The graph's edges, each once, in a seeded random order, with
/// log-uniform weights in `[1, 16)`.
fn shuffled_edges(g: &Graph, seed: u64) -> Vec<(VertexId, VertexId, f32)> {
    let mut rng = XorShiftStream::new(seed, 4);
    let mut edges = Vec::with_capacity(g.num_edges());
    for u in 0..g.num_vertices() as VertexId {
        for &v in g.neighbors(u).iter().filter(|&&v| u < v) {
            edges.push((u, v, 16f64.powf(rng.unit_f64()) as f32));
        }
    }
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.bounded_usize(i + 1));
    }
    edges
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

    let weighted = shuffled_edges(&g, args.seed);

    // --- The sampling stage on each backend, and on CSR and weighted CSR
    // one lane of the same engine.
    let gw = WeightedGraph::from_edges(n, &weighted);
    let arice = V2Graph::from_graph(&g, Codec::RiceAdaptive);
    let csr = sample_msamples_per_sec(&g, args.seed, reps, sample_into);
    let csr_seq = sample_msamples_per_sec(&g, args.seed, reps, sample_into_lanes::<1, _, _>);
    let wgt = sample_msamples_per_sec(&gw, args.seed, reps, sample_into);
    let wgt_seq = sample_msamples_per_sec(&gw, args.seed, reps, sample_into_lanes::<1, _, _>);
    let v2 = sample_msamples_per_sec(&arice, args.seed, reps, sample_into);
    drop((gw, arice));
    eprintln!(
        "sample: csr {csr:.2} (one arc at a time {csr_seq:.2}), weighted {wgt:.2} \
         ({wgt_seq:.2}), v2/arice {v2:.2} Msamples/s"
    );
    put("sample_msamples_per_sec_csr", format!("{csr:.4}"));
    put("sample_seq_msamples_per_sec_csr", format!("{csr_seq:.4}"));
    put("sample_msamples_per_sec_weighted", format!("{wgt:.4}"));
    put("sample_seq_msamples_per_sec_weighted", format!("{wgt_seq:.4}"));
    put("sample_msamples_per_sec_v2_arice", format!("{v2:.4}"));

    // --- CSR construction: the counting-sort builds at one and two
    // threads against the sort-then-dedup build they replaced.
    let pairs: Vec<(VertexId, VertexId)> = weighted.iter().map(|&(u, v, _)| (u, v)).collect();
    let rate = |secs: f64| arcs as f64 / secs / 1e6;
    let csr_old = rate(best_secs(reps, || csr_build_by_sort(n, &pairs)));
    let weighted_old = rate(best_secs(reps, || weighted_build_by_sort(n, &weighted)));
    let (mut csr_t2, mut weighted_t2) = (0.0, 0.0);
    for threads in [1, 2] {
        configure_threads(threads);
        let csr = rate(best_secs(reps, || GraphBuilder::from_edges(n, &pairs)));
        let wgt = rate(best_secs(reps, || WeightedGraph::from_edges(n, &weighted)));
        assert!(GraphBuilder::from_edges(n, &pairs) == g, "the build changed the graph");
        eprintln!("build t{threads}: csr {csr:.1} Marcs/s, weighted {wgt:.1} Marcs/s");
        put(&format!("csr_build_t{threads}_marcs_per_sec"), format!("{csr:.3}"));
        put(&format!("weighted_build_t{threads}_marcs_per_sec"), format!("{wgt:.3}"));
        (csr_t2, weighted_t2) = (csr, wgt);
    }
    configure_threads(0);
    eprintln!("build by sort: csr {csr_old:.1} Marcs/s, weighted {weighted_old:.1} Marcs/s");
    put("csr_sort_baseline_marcs_per_sec", format!("{csr_old:.3}"));
    put("weighted_sort_baseline_marcs_per_sec", format!("{weighted_old:.3}"));
    put("csr_build_speedup", format!("{:.4}", csr_t2 / csr_old));
    put("weighted_build_speedup", format!("{:.4}", weighted_t2 / weighted_old));

    println!("{{\n{}\n}}", lines.join(",\n"));
}
