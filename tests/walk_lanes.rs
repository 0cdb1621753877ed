//! The lane engine deposits the same samples as the one-arc-at-a-time
//! loop, at every lane count.
//!
//! `sample_into_lanes::<W>` keeps `W` arcs' walks in flight per arc range,
//! and `sample_into` runs it at the sampler's lane count on every
//! backend. The oracle here is Algorithm 2 written as one loop per arc
//! that walks with `walk` one step at a time and deposits every prefix
//! pair, sharing nothing with the lane engine but the graph's
//! `map_arcs_with`. Every arc draws from its own stream in the same order
//! whatever `W` is, and the table's fixed-point sums do not depend on
//! deposit order, so the drained table and the stats must be bitwise
//! equal to the oracle's at every `W` and every thread count. The inputs
//! reach the lane code's corners: walks of no steps (window 1), most
//! walks lost to the downsampling coin, arcs that draw no walk (a budget
//! below `T` samples per arc), hubs, and isolated vertices.
//!
//! One test function on purpose: it resizes the process-global pool.

use lightne::gen::generators::barabasi_albert;
use lightne::graph::walk::walk;
use lightne::graph::{Codec, Graph, GraphBuilder, V2Graph, VertexId, WeightedGraph, WeightedOps};
use lightne::hash::{EdgeAggregator, ShardedEdgeTable};
use lightne::sparsifier::construct::{sample_into, sample_into_lanes, SamplerStats};
use lightne::sparsifier::downsample::{default_c, survival_probability};
use lightne::sparsifier::{ProbScheme, SamplerConfig};
use lightne::utils::parallel::configure_threads;
use lightne::utils::rng::XorShiftStream;
use std::sync::atomic::{AtomicU64, Ordering};

/// A preferential-attachment graph (hubs next to degree-2 vertices)
/// followed by 17 isolated vertices.
fn hub_graph() -> Graph {
    let g = barabasi_albert(400, 3, 34);
    let mut edges = Vec::new();
    for u in 0..g.num_vertices() as VertexId {
        edges.extend(g.neighbors(u).iter().filter(|&&v| u < v).map(|&v| (u, v)));
    }
    GraphBuilder::from_edges(g.num_vertices() + 17, &edges)
}

/// The same edges with weights spread over two decades.
fn weighted_copy(g: &Graph) -> WeightedGraph {
    let mut rng = XorShiftStream::new(35, 0);
    let mut edges = Vec::new();
    for u in 0..g.num_vertices() as VertexId {
        for &v in g.neighbors(u).iter().filter(|&&v| u < v) {
            edges.push((u, v, 10f64.powf(2.0 * rng.unit_f64()) as f32));
        }
    }
    WeightedGraph::from_edges(g.num_vertices(), &edges)
}

/// Window 1 (no steps), downsampling at a small `C` (most `p_e < 1`), a
/// budget of a third of a sample per arc (a thirtieth of a walk: most
/// `n_e = 0`), and a plain long-window run.
fn lane_configs(arcs: u64) -> [SamplerConfig; 4] {
    let cfg = |window, samples, downsample, c_factor, seed| SamplerConfig {
        window,
        samples,
        downsample,
        c_factor,
        prob: ProbScheme::Degree,
        seed,
    };
    [
        cfg(1, 3 * arcs, false, None, 1),
        cfg(5, 4 * arcs, true, Some(0.3), 2),
        cfg(10, arcs / 3, true, None, 3),
        cfg(10, 2 * arcs, false, None, 4),
    ]
}

/// The drained table as sorted `(u, v, weight bits)`, and the run's stats.
type Run = (Vec<(u32, u32, u32)>, [u64; 4]);

fn drained_run(table: ShardedEdgeTable, stats: SamplerStats) -> Run {
    let mut coo: Vec<_> =
        table.into_coo().into_iter().map(|(u, v, w)| (u, v, w.to_bits())).collect();
    coo.sort_unstable();
    let stats =
        [stats.trials, stats.kept, stats.distinct_entries as u64, stats.aggregator_bytes as u64];
    (coo, stats)
}

/// A small table, so that shards resize while the lanes insert.
fn small_table<G: WeightedOps>(g: &G) -> ShardedEdgeTable {
    ShardedEdgeTable::new(g.num_vertices(), 4, 256)
}

fn run_lanes<const W: usize, G: WeightedOps>(g: &G, cfg: &SamplerConfig) -> Run {
    let t = small_table(g);
    let stats = sample_into_lanes::<W, _, _>(g, cfg, &t).unwrap();
    drained_run(t, stats)
}

/// Algorithm 2 one arc at a time: the arc's stream draws its walk-count
/// coin, then each walk its survival coin (if `p_e < 1`) and its
/// `T − 1` steps from `v`, one `walk` of one step each; the sample
/// `(u, z_r)` at every vertex the walk reaches, `v` included, goes to the
/// table next to its mirror, 4096 deposits at a time. Every walk counts
/// `T` samples drawn, and every survivor `T` kept.
fn oracle<G: WeightedOps>(g: &G, cfg: &SamplerConfig) -> Run {
    let table = small_table(g);
    let c = cfg.c_factor.unwrap_or_else(|| default_c(g.num_vertices()));
    let t = cfg.window as u64;
    let (trials, kept) = (AtomicU64::new(0), AtomicU64::new(0));
    g.map_arcs_with(
        || (Vec::new(), 0u64, 0u64),
        |(buf, arc_trials, arc_kept), u, v, w, arc_idx| {
            let mut rng = XorShiftStream::new(cfg.seed, arc_idx);
            let (whole, frac) = g.arc_trials(cfg.samples, w);
            let walks = (whole as f64 + frac) / cfg.window as f64;
            let n_e = walks.floor() as u64 + u64::from(rng.bernoulli(walks.fract()));
            let p_e = if cfg.downsample { survival_probability(g, u, v, w, c) } else { 1.0 };
            let weight = (1.0 / p_e) as f32;
            *arc_trials += n_e * t;
            for _ in 0..n_e {
                if p_e < 1.0 && !rng.bernoulli(p_e) {
                    continue;
                }
                *arc_kept += t;
                let mut z = v;
                for r in 1..=cfg.window {
                    if r > 1 {
                        z = walk(g, z, 1, &mut rng);
                    }
                    buf.extend([(u, z, weight), (z, u, weight)]);
                    if buf.len() == 4096 {
                        table.add_batch(buf);
                        buf.clear();
                    }
                }
            }
        },
        |(buf, arc_trials, arc_kept)| {
            table.add_batch(&buf);
            trials.fetch_add(arc_trials, Ordering::Relaxed);
            kept.fetch_add(arc_kept, Ordering::Relaxed);
        },
    );
    let stats = SamplerStats {
        trials: trials.into_inner(),
        kept: kept.into_inner(),
        distinct_entries: table.len(),
        aggregator_bytes: table.memory_bytes(),
    };
    drained_run(table, stats)
}

fn check_every_w<G: WeightedOps>(name: &str, g: &G, reference: &[Run]) {
    for (cfg, want) in lane_configs(arc_total(g)).iter().zip(reference) {
        let what = format!("{name}, window {}, samples {}", cfg.window, cfg.samples);
        assert_eq!(&run_lanes::<1, _>(g, cfg), want, "{what}: W 1");
        assert_eq!(&run_lanes::<2, _>(g, cfg), want, "{what}: W 2");
        assert_eq!(&run_lanes::<3, _>(g, cfg), want, "{what}: W 3");
        assert_eq!(&run_lanes::<16, _>(g, cfg), want, "{what}: W 16");
        let t = small_table(g);
        let stats = sample_into(g, cfg, &t).unwrap();
        assert_eq!(&drained_run(t, stats), want, "{what}: sample_into");
    }
}

fn arc_total<G: WeightedOps>(g: &G) -> u64 {
    (0..g.num_vertices() as VertexId).map(|v| g.arc_count(v) as u64).sum()
}

#[test]
fn lanes_and_the_sequential_loop_deposit_the_same_bytes() {
    let g = hub_graph();
    let gw = weighted_copy(&g);
    // Blocks of 16, so hubs span several.
    let arice = V2Graph::from_graph_with_block_size(&g, Codec::RiceAdaptive, 16).unwrap();

    // The reference: the oracle loop, on one thread.
    assert_eq!(configure_threads(1), 1);
    let unit: Vec<Run> = lane_configs(arc_total(&g)).iter().map(|c| oracle(&g, c)).collect();
    let wgt: Vec<Run> = lane_configs(arc_total(&gw)).iter().map(|c| oracle(&gw, c)).collect();
    for (i, (coo, stats)) in unit.iter().chain(&wgt).enumerate() {
        assert!(!coo.is_empty() && stats[1] > 0, "config {i} deposited nothing");
    }
    // The container walks the same arcs with the same draws.
    for (cfg, want) in lane_configs(arc_total(&g)).iter().zip(&unit) {
        assert_eq!(&oracle(&arice, cfg), want, "arice oracle, window {}", cfg.window);
    }
    // Most walks of the downsampled config fail their coin, and the
    // small budget leaves most arcs without a walk.
    assert!(unit[1].1[1] * 2 < unit[1].1[0], "kept {} of {}", unit[1].1[1], unit[1].1[0]);
    assert!(unit[2].1[0] < arc_total(&g));

    for threads in [1usize, 2, 7] {
        assert_eq!(configure_threads(threads), threads);
        check_every_w("csr", &g, &unit);
        check_every_w("arice", &arice, &unit);
        check_every_w("weighted", &gw, &wgt);
    }
    configure_threads(0);
}
