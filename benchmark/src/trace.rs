//! The traced run: per-layer metrics for one workload, taken from outside
//! the crates by timing calls into their public functions on the
//! workload's own input.
//!
//! A traced run does three things. It times the real `embed` a few times
//! (the reference). It then replays the pipeline stage by stage through
//! the same public functions the engine calls — the *replica* — so each
//! stage gets a span, and checks that the replica's embedding is
//! byte-identical to the engine's; `trace_coverage` is the replica's stage
//! time over the reference embed time. Last it probes each layer alone
//! (walks without a table, table inserts without walks, SPMM against a
//! STREAM triad, an empty parallel region, ...). Spans are held in memory
//! and written as a Chrome trace when the run ends.

use crate::json::{obj, Json};
use crate::machine::{Machine, MIB};
use crate::measure::{
    self, embed_op, embedding_checksum, result_line, set_up, Check, Input, Options,
};
use crate::stats::{median, percentile};
use crate::workloads::{self, Backend, Spec, TempDir};
use lightne_core::graphmat;
use lightne_core::pipeline::{UnweightedSource, WeightedSource};
use lightne_core::propagation::{propagation_flops, spectral_propagation_matrices};
use lightne_core::{LightNe, LightNeConfig, PipelineSource, RunContext, StageKind};
use lightne_graph::{GraphAccess, VertexId};
use lightne_hash::{EdgeAggregator, ShardedEdgeTable};
use lightne_linalg::qr::orthonormalize_columns;
use lightne_linalg::rsvd::rsvd_flops;
use lightne_linalg::svd::tall_thin_svd;
use lightne_linalg::{randomized_svd, CsrMatrix, DenseMatrix, RsvdConfig};
use lightne_sparsifier::construct::{sample_into, SamplerConfig, SamplerError, SamplerStats};
use lightne_sparsifier::sharded::{
    build_sharded_sparsifier, build_weighted_sharded_sparsifier, sharded_to_netmf,
    weighted_sharded_to_netmf,
};
use lightne_sparsifier::weighted::weighted_sample_into;
use lightne_utils::parallel::par_for;
use lightne_utils::rng::XorShiftStream;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The per-layer metrics, prefixed by crate: `(name, unit,
/// higher_is_better)`. A metric of a layer the workload does not run (for
/// example `core.*` with propagation off) is reported as 0. A test holds
/// this list and `BENCHMARK.json` together.
pub const PER_LAYER: [(&str, &str, bool); 32] = [
    ("graph.seq_decode_marcs_s", "Marcs/s", true),
    ("graph.rand_access_mops_s", "Mops/s", true),
    ("graph.bits_per_edge", "bits", false),
    ("graph.resident_mb", "MiB", false),
    ("sparsifier.walk_s", "s", false),
    ("sparsifier.trials_per_s", "1/s", true),
    ("sparsifier.kept_ratio", "ratio", true),
    ("hashtable.insert_mops_s", "Mops/s", true),
    ("hashtable.dup_ratio", "ratio", true),
    ("hashtable.resizes", "count", false),
    ("hashtable.load_factor", "ratio", true),
    ("hashtable.drain_s", "s", false),
    ("sparsifier.netmf_s", "s", false),
    ("sparsifier.netmf_nnz", "count", false),
    ("linalg.rsvd_s", "s", false),
    ("linalg.rsvd_gflops", "GFLOP/s", true),
    ("linalg.spmm_s", "s", false),
    ("linalg.spmm_gflops", "GFLOP/s", true),
    ("linalg.spmm_gbps", "GB/s", true),
    ("linalg.stream_gbps", "GB/s", true),
    ("linalg.spmm_vs_stream", "ratio", true),
    ("linalg.qr_s", "s", false),
    ("linalg.gemm_gflops", "GFLOP/s", true),
    ("linalg.jacobi_s", "s", false),
    ("core.graphmat_s", "s", false),
    ("core.propagate_s", "s", false),
    ("core.propagate_gflops", "GFLOP/s", true),
    ("core.engine_overhead_s", "s", false),
    ("runtime.region_us", "us", false),
    ("runtime.region_p99_us", "us", false),
    ("runtime.skew_balance", "ratio", false),
    ("trace_coverage", "ratio", true),
];

/// One timed interval: a call into a layer, with the counts taken at the
/// same boundary.
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub counts: Vec<(String, f64)>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// In-memory recorder of spans and of the named values derived from
/// them. Spans nest by `begin`/`end` order.
pub struct Tracer {
    origin: Instant,
    workload: String,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    values: Vec<(String, f64)>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Self {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Records a named value (a `PER_LAYER` metric).
    pub fn put(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` (the innermost open one), attaches `counts`, and
    /// returns its duration in seconds.
    pub fn end(&mut self, id: usize, counts: &[(&str, f64)]) -> f64 {
        let end_us = self.now_us();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost-first");
        let span = &mut self.spans[id];
        span.end_us = end_us;
        span.counts.extend(counts.iter().map(|&(k, v)| (k.to_string(), v)));
        span.secs()
    }

    /// Times `f` as one leaf span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id, &[]))
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_secs(&self, id: usize) -> f64 {
        let children: f64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::secs).sum();
        self.spans[id].secs() - children
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event per span, with `start_us`/`end_us`, the parent's
    /// name and index, the workload and the counts in `args`.
    pub fn to_chrome_json(&self) -> Json {
        let events = self.spans.iter().enumerate().map(|(id, s)| {
            let mut args = vec![
                ("id".to_string(), Json::from(id)),
                ("workload".to_string(), Json::from(self.workload.as_str())),
                ("start_us".to_string(), Json::from(s.start_us)),
                ("end_us".to_string(), Json::from(s.end_us)),
                ("parent".to_string(), s.parent.map_or(Json::Null, Json::from)),
                ("self_us".to_string(), Json::from(self.self_secs(id) * 1e6)),
            ];
            args.extend(s.counts.iter().map(|(k, v)| (k.clone(), Json::from(*v))));
            obj([
                ("name", Json::from(s.name.as_str())),
                ("ph", Json::from("X")),
                ("ts", Json::from(s.start_us)),
                ("dur", Json::from(s.end_us - s.start_us)),
                ("pid", Json::from(1usize)),
                ("tid", Json::from(1usize)),
                ("args", Json::Obj(args)),
            ])
        });
        obj([("traceEvents", Json::Arr(events.collect())), ("displayTimeUnit", Json::from("ms"))])
    }
}

/// Most workers a parallel region of this benchmark can have (`T ≤ 4`).
const MAX_WORKERS: usize = 8;

fn worker_slot() -> usize {
    rayon::current_thread_index().unwrap_or(0) % MAX_WORKERS
}

/// A cache line of its own, so per-worker counters do not share one.
#[repr(align(64))]
#[derive(Default)]
struct Padded<T>(T);

/// An aggregator that stores nothing: sampling into it costs the walks
/// and the coin flips but no table, which is the sampler's own time.
#[derive(Default)]
pub struct CountingAggregator {
    adds: [Padded<AtomicU64>; MAX_WORKERS],
}

impl CountingAggregator {
    pub fn adds(&self) -> u64 {
        self.adds.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

impl EdgeAggregator for CountingAggregator {
    fn add(&self, u: u32, v: u32, weight: f32) {
        black_box((u, v, weight));
        // Relaxed: a statistic read only after the parallel region joined.
        self.adds[worker_slot()].0.fetch_add(1, Ordering::Relaxed);
    }

    fn distinct_edges(&self) -> usize {
        0
    }

    fn memory_bytes(&self) -> usize {
        0
    }

    fn into_coo(self) -> Vec<(u32, u32, f32)> {
        Vec::new()
    }
}

/// The `(u, v, weight)` adds of one worker, in emission order.
pub type EdgeStream = Vec<(u32, u32, f32)>;

/// An aggregator that keeps the edge stream, one buffer per worker in
/// emission order, so the table can be driven afterwards by exactly the
/// keys, duplicates and per-thread order a real run gives it.
#[derive(Default)]
pub struct RecordingAggregator {
    streams: [Mutex<EdgeStream>; MAX_WORKERS],
}

impl RecordingAggregator {
    pub fn into_streams(self) -> Vec<EdgeStream> {
        self.streams
            .into_iter()
            .map(|m| m.into_inner().expect("a recording worker panicked"))
            .filter(|s| !s.is_empty())
            .collect()
    }
}

impl EdgeAggregator for RecordingAggregator {
    fn add(&self, u: u32, v: u32, weight: f32) {
        self.streams[worker_slot()]
            .lock()
            .expect("a recording worker panicked")
            .push((u, v, weight));
    }

    fn distinct_edges(&self) -> usize {
        0
    }

    fn memory_bytes(&self) -> usize {
        0
    }

    fn into_coo(self) -> Vec<(u32, u32, f32)> {
        self.into_streams().concat()
    }
}

/// Algorithm 2 into any aggregator, on whichever graph the backend holds.
pub fn sample_backend<A: EdgeAggregator>(
    backend: &Backend,
    cfg: &SamplerConfig,
    agg: &A,
) -> Result<SamplerStats, SamplerError> {
    match backend {
        Backend::Csr(g) => sample_into(g, cfg, agg),
        Backend::V2(g) => sample_into(g, cfg, agg),
        Backend::Weighted(g) => weighted_sample_into(g, cfg, agg),
    }
}

fn build_table(
    backend: &Backend,
    cfg: &SamplerConfig,
    shards: usize,
) -> Result<(ShardedEdgeTable, SamplerStats), SamplerError> {
    match backend {
        Backend::Csr(g) => build_sharded_sparsifier(g, cfg, shards),
        Backend::V2(g) => build_sharded_sparsifier(g, cfg, shards),
        Backend::Weighted(g) => build_weighted_sharded_sparsifier(g, cfg, shards),
    }
}

fn table_to_netmf(backend: &Backend, table: ShardedEdgeTable, samples: u64, b: f64) -> CsrMatrix {
    match backend {
        Backend::Csr(g) => sharded_to_netmf(g, table, samples, b),
        Backend::V2(g) => sharded_to_netmf(g, table, samples, b),
        Backend::Weighted(g) => weighted_sharded_to_netmf(g, table, samples, b),
    }
}

fn total_samples(backend: &Backend, cfg: &LightNeConfig) -> u64 {
    match backend {
        Backend::Csr(g) => UnweightedSource(g).total_samples(cfg),
        Backend::V2(g) => UnweightedSource(g).total_samples(cfg),
        Backend::Weighted(g) => WeightedSource(g).total_samples(cfg),
    }
}

/// The two operators of the propagation stage, `D̃⁻¹Ã` and `A + I`, built
/// the way `spectral_propagation` and the weighted source build them.
fn propagation_operators(backend: &Backend) -> (CsrMatrix, CsrMatrix) {
    fn unweighted<G: lightne_graph::GraphOps>(g: &G) -> (CsrMatrix, CsrMatrix) {
        let identity = CsrMatrix::identity(g.num_vertices());
        (graphmat::transition_with_self_loops(g), graphmat::adjacency(g).add(&identity, 1.0, 1.0))
    }
    match backend {
        Backend::Csr(g) => unweighted(g),
        Backend::V2(g) => unweighted(g),
        Backend::Weighted(g) => (
            graphmat::weighted_transition_with_self_loops(g),
            graphmat::weighted_adjacency_plus_i(g),
        ),
    }
}

/// What the probes need to know about the run they are part of.
struct ProbeEnv<'a> {
    opts: &'a Options,
    threads: usize,
    llc_bytes: usize,
}

/// Sequential decode and random access on any backend.
fn graph_probes(tr: &mut Tracer, env: &ProbeEnv, g: &dyn GraphAccess, stored_bytes: usize) {
    let opts = env.opts;
    let n = g.num_vertices() as VertexId;
    let arcs = g.num_arcs() as f64;

    // Whole passes over every adjacency list until a quarter second has
    // been measured; the median pass is the rate.
    let id = tr.begin("graph.seq_decode");
    let mut pass_secs = Vec::new();
    let probe_started = Instant::now();
    while pass_secs.len() < 3 || (!opts.quick && probe_started.elapsed().as_secs_f64() < 0.25) {
        let started = Instant::now();
        let mut acc = 0u64;
        for v in 0..n {
            g.for_each_neighbor(v, &mut |u| acc = acc.wrapping_add(u as u64));
        }
        black_box(acc);
        pass_secs.push(started.elapsed().as_secs_f64());
    }
    tr.end(id, &[("passes", pass_secs.len() as f64), ("arcs_per_pass", arcs)]);
    tr.put("graph.seq_decode_marcs_s", arcs / median(&pass_secs) / 1e6);

    // Seeded (vertex, index) pairs, drawn before the clock starts.
    let probes = if opts.quick { 20_000 } else { 400_000 };
    let mut rng = XorShiftStream::new(opts.seed, 0x6A);
    let mut pairs = Vec::with_capacity(probes);
    while pairs.len() < probes {
        let v = rng.bounded_usize(n as usize) as VertexId;
        let deg = g.degree(v);
        if deg > 0 {
            pairs.push((v, rng.bounded_usize(deg)));
        }
    }
    let (acc, secs) = tr.time("graph.rand_access", || {
        pairs.iter().fold(0u64, |acc, &(v, i)| acc.wrapping_add(g.ith_neighbor(v, i) as u64))
    });
    black_box(acc);
    tr.put("graph.rand_access_mops_s", probes as f64 / secs / 1e6);
    tr.put("graph.bits_per_edge", stored_bytes as f64 * 8.0 / arcs);
    tr.put("graph.resident_mb", g.resident_bytes() as f64 / MIB);
}

/// STREAM triad `a = b + s·c` on `threads` threads over arrays of
/// `len` f32 each; best of three passes, in GB/s (3 arrays moved).
fn stream_triad_gbps(len: usize, threads: usize) -> f64 {
    let mut a = vec![0f32; len];
    let b = vec![1f32; len];
    let c = vec![2f32; len];
    let chunk = len.div_ceil(threads);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let started = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk)) {
                s.spawn(move || {
                    for ((x, &y), &z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + 3.0 * z;
                    }
                });
            }
        });
        best = best.min(started.elapsed().as_secs_f64());
        black_box(&a);
    }
    3.0 * len as f64 * 4.0 / best / 1e9
}

/// The kernels under rSVD and propagation, at this workload's shapes.
fn linalg_probes(
    tr: &mut Tracer,
    env: &ProbeEnv,
    netmf: &CsrMatrix,
    initial: &DenseMatrix,
    cfg: &LightNeConfig,
) {
    let n = netmf.n_rows();
    let l = (cfg.dim + cfg.oversampling).min(n).max(1);
    let nnz = netmf.nnz() as f64;
    let x = DenseMatrix::gaussian(n, l, cfg.seed);

    let id = tr.begin("linalg.spmm");
    let mut spmm_secs = Vec::new();
    let mut y = netmf.spmm(&x); // untimed first touch
    for _ in 0..3 {
        let started = Instant::now();
        y = netmf.spmm(&x);
        spmm_secs.push(started.elapsed().as_secs_f64());
    }
    let spmm_s = median(&spmm_secs);
    // Compulsory traffic, computed not measured: the matrix streamed once
    // (4 B value + 4 B column per entry, 8 B per row pointer), the dense
    // operand read once and the result written once.
    let bytes = nnz * 8.0 + (n as f64 + 1.0) * 8.0 + 2.0 * (n * l) as f64 * 4.0;
    tr.end(id, &[("nnz", nnz), ("rows", n as f64), ("cols", l as f64), ("computed_bytes", bytes)]);
    let spmm_gbps = bytes / spmm_s / 1e9;
    tr.put("linalg.spmm_s", spmm_s);
    tr.put("linalg.spmm_gflops", 2.0 * nnz * l as f64 / spmm_s / 1e9);
    tr.put("linalg.spmm_gbps", spmm_gbps);

    // Arrays of at least four last-level caches each, so the triad
    // measures memory and not cache.
    // Capped at 256 MiB (first-touching more takes longer than the rest
    // of the traced run) and at an eighth of free memory; the span states
    // the size used beside the cache's.
    let array_bytes = if env.opts.quick {
        1 << 20
    } else {
        (4 * env.llc_bytes).min(256 << 20).min(crate::machine::available_bytes() / 8)
    };
    let id = tr.begin("linalg.stream_triad");
    let stream_gbps = stream_triad_gbps(array_bytes / 4, env.threads);
    tr.end(id, &[("array_bytes", array_bytes as f64), ("llc_bytes", env.llc_bytes as f64)]);
    tr.put("linalg.stream_gbps", stream_gbps);
    tr.put("linalg.spmm_vs_stream", spmm_gbps / stream_gbps);

    let mut q = y.clone();
    let (_, qr_s) = tr.time("linalg.qr", || orthonormalize_columns(&mut q));
    tr.put("linalg.qr_s", qr_s);

    let p = DenseMatrix::gaussian(l, l, cfg.seed.wrapping_add(1));
    let (_, gemm_s) = tr.time("linalg.gemm", || black_box((y.matmul(&p), q.gram_tn(&y))));
    tr.put("linalg.gemm_gflops", 4.0 * (n * l * l) as f64 / gemm_s / 1e9);

    let (_, jacobi_s) = tr.time("linalg.jacobi", || black_box(tall_thin_svd(initial)));
    tr.put("linalg.jacobi_s", jacobi_s);
}

/// A deterministic busy loop of `iters` dependent multiply-adds.
fn spin(iters: u64) -> u64 {
    let mut x = iters;
    for _ in 0..iters {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    }
    x
}

/// The parallel runtime alone: what a region costs when it does nothing,
/// and how well it balances work that is skewed the way degrees are.
fn runtime_probes(tr: &mut Tracer, env: &ProbeEnv) {
    let opts = env.opts;
    let samples = if opts.quick { 100 } else { 1000 };
    let id = tr.begin("runtime.empty_regions");
    let region_us: Vec<f64> = (0..samples)
        .map(|_| {
            let started = Instant::now();
            par_for(64, |i| {
                black_box(i);
            });
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    tr.end(id, &[("regions", samples as f64)]);
    tr.put("runtime.region_us", median(&region_us));
    tr.put("runtime.region_p99_us", percentile(&region_us, 99.0));

    // Work of index i falls off as 1/(i+1): the first indices carry most
    // of it, as the first vertices of a power-law graph do.
    let indices = 2048usize;
    let head = if opts.quick { 100_000u64 } else { 2_000_000 };
    let work: Vec<u64> = (0..indices).map(|i| head / (i as u64 + 1) + 1).collect();
    let id = tr.begin("runtime.skewed_regions");
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let started = Instant::now();
        work.iter().for_each(|&w| {
            black_box(spin(w));
        });
        serial.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        par_for(indices, |i| {
            black_box(spin(work[i]));
        });
        parallel.push(started.elapsed().as_secs_f64());
    }
    tr.end(id, &[("indices", indices as f64), ("total_iters", work.iter().sum::<u64>() as f64)]);
    tr.put("runtime.skew_balance", median(&parallel) / (median(&serial) / env.threads as f64));
}

/// The timed calls of the real `embed` a traced run compares itself to.
#[derive(Default)]
struct Reference {
    attempted: u64,
    failures: Vec<String>,
    /// Wall-clock of each timed call, the engine's own sum of stage times
    /// for it, and the difference (what the engine spends between stages).
    secs: Vec<f64>,
    stage_secs: Vec<f64>,
    overhead: Vec<f64>,
    checksum: Option<u64>,
}

impl Reference {
    fn embed(&mut self, tr: &mut Tracer, span: &str, input: &Input, engine: &LightNe, timed: bool) {
        self.attempted += 1;
        let id = tr.begin(span);
        let result = embed_op(input, engine);
        tr.end(id, &[]);
        match result {
            Ok((out, secs)) => {
                if timed {
                    self.secs.push(secs);
                    self.stage_secs.push(out.stats.total_secs());
                    self.overhead.push(secs - out.stats.total_secs());
                }
                self.checksum = Some(embedding_checksum(&out.embedding));
            }
            Err(why) => self.failures.push(why),
        }
    }
}

/// Runs one workload traced and reports every per-layer metric.
pub fn run(spec: &Spec, opts: &Options) -> Result<measure::Outcome, String> {
    let threads = lightne_utils::parallel::configure_threads(spec.threads());
    let machine = Machine::detect();
    let tmp = TempDir::create().map_err(|e| format!("temp dir: {e}"))?;
    let mut tr = Tracer::new(spec.name);
    let env = ProbeEnv { opts, threads, llc_bytes: machine.llc_bytes };
    let mut checks: Vec<Check> = Vec::new();
    let fail = |e: SamplerError| format!("sampler: {e}");

    let id = tr.begin("setup");
    let (input, _, setup_checks) = set_up(spec, opts, &tmp)?;
    tr.end(
        id,
        &[("n", input.backend.num_vertices() as f64), ("m", input.backend.num_edges() as f64)],
    );
    checks.extend(setup_checks);
    let backend = &input.backend;
    let n = backend.num_vertices();
    let cfg = spec.config(opts.seed);
    let engine = LightNe::new(cfg);

    // Reference: the real embed, spans only around the calls. One warm-up,
    // then one timed call before the replica and one after it, so that a
    // machine that speeds up or slows down during the run moves both
    // sides of `trace_coverage`.
    let mut reference = Reference::default();
    reference.embed(&mut tr, "embed.warmup", &input, &engine, false);
    reference.embed(&mut tr, "embed.reference", &input, &engine, true);

    // Replica: the four stages through the functions the engine calls,
    // with the engine's own sub-seeds.
    let ctx = RunContext::new(cfg.seed);
    let samples = total_samples(backend, &cfg);
    let sampler_cfg = SamplerConfig {
        window: cfg.window,
        samples,
        downsample: cfg.downsample,
        c_factor: cfg.c_factor,
        prob: cfg.prob,
        seed: ctx.stage_seed(StageKind::Sparsify),
    };
    let replica = tr.begin("pipeline.replica");

    let id = tr.begin("sparsifier.sample_into_table");
    let (table, stats) = build_table(backend, &sampler_cfg, cfg.shards).map_err(fail)?;
    let shard_stats = table.shard_stats();
    let capacity: usize = shard_stats.iter().map(|s| s.capacity).sum();
    let resizes = table.total_resizes();
    let sparsify_s = tr.end(
        id,
        &[
            ("trials", stats.trials as f64),
            ("kept", stats.kept as f64),
            ("distinct", stats.distinct_entries as f64),
            ("shards", shard_stats.len() as f64),
            ("resizes", resizes as f64),
            ("table_bytes", stats.aggregator_bytes as f64),
        ],
    );
    tr.put("sparsifier.kept_ratio", stats.kept as f64 / stats.trials as f64);
    tr.put("hashtable.resizes", resizes as f64);
    tr.put("hashtable.load_factor", stats.distinct_entries as f64 / capacity as f64);

    let id = tr.begin("sparsifier.netmf");
    let netmf = table_to_netmf(backend, table, samples, cfg.negative);
    let netmf_s = tr.end(id, &[("nnz", netmf.nnz() as f64)]);
    tr.put("sparsifier.netmf_s", netmf_s);
    tr.put("sparsifier.netmf_nnz", netmf.nnz() as f64);

    let rcfg = RsvdConfig {
        rank: cfg.dim,
        oversampling: cfg.oversampling,
        power_iters: cfg.power_iters,
        seed: ctx.stage_seed(StageKind::Rsvd),
    };
    let flops = rsvd_flops(n, netmf.nnz() as u64, &rcfg) as f64;
    let id = tr.begin("linalg.rsvd");
    let initial = randomized_svd(&netmf, &rcfg).embedding();
    let rsvd_s = tr.end(id, &[("flops", flops), ("rank", cfg.dim as f64)]);
    tr.put("linalg.rsvd_s", rsvd_s);
    tr.put("linalg.rsvd_gflops", flops / rsvd_s / 1e9);

    let (embedding, propagate_stage_s) = match &cfg.propagation {
        Some(pcfg) => {
            let stage = tr.begin("core.propagation_stage");
            let ((da, a_plus_i), graphmat_s) =
                tr.time("core.graphmat", || propagation_operators(backend));
            let flops = propagation_flops(n, da.nnz() as u64, cfg.dim, pcfg) as f64;
            let id = tr.begin("core.propagate");
            let out = spectral_propagation_matrices(&da, &a_plus_i, &initial, pcfg);
            let propagate_s = tr.end(id, &[("flops", flops), ("operator_nnz", da.nnz() as f64)]);
            tr.put("core.graphmat_s", graphmat_s);
            tr.put("core.propagate_s", propagate_s);
            tr.put("core.propagate_gflops", flops / propagate_s / 1e9);
            (out, tr.end(stage, &[]))
        }
        None => {
            for name in ["core.graphmat_s", "core.propagate_s", "core.propagate_gflops"] {
                tr.put(name, 0.0);
            }
            (initial.clone(), 0.0)
        }
    };
    tr.end(replica, &[]);
    let replica_checksum = embedding_checksum(&embedding);
    drop(embedding);
    if !opts.quick {
        reference.embed(&mut tr, "embed.reference", &input, &engine, true);
    }
    let embed_s = median(&reference.secs);
    let engine_stage_secs = median(&reference.stage_secs);
    tr.put("core.engine_overhead_s", median(&reference.overhead));
    let stage_secs = [sparsify_s, netmf_s, rsvd_s, propagate_stage_s];
    let stage_total: f64 = stage_secs.iter().sum();
    tr.put("trace_coverage", stage_total / embed_s);
    checks.push(Check::new(
        "reference_embeds_succeeded",
        reference.failures.is_empty(),
        format!("{} embeds; {}", reference.attempted, reference.failures.join("; ")),
    ));
    checks.push(Check::new(
        "replica_equals_engine",
        reference.checksum == Some(replica_checksum),
        format!("replica {replica_checksum:016x}, engine {:016x}", reference.checksum.unwrap_or(0)),
    ));
    let (attempted, failed) = (reference.attempted, reference.failures.len() as u64);

    // Layer probes. The sampler alone, then the table alone on the stream
    // the sampler emitted.
    let counting = CountingAggregator::default();
    let id = tr.begin("sparsifier.walk_only");
    let walk_stats = sample_backend(backend, &sampler_cfg, &counting).map_err(fail)?;
    let walk_s =
        tr.end(id, &[("trials", walk_stats.trials as f64), ("adds", counting.adds() as f64)]);
    tr.put("sparsifier.walk_s", walk_s);
    tr.put("sparsifier.trials_per_s", walk_stats.trials as f64 / walk_s);

    let recording = RecordingAggregator::default();
    let (recorded, _) =
        tr.time("sparsifier.record_stream", || sample_backend(backend, &sampler_cfg, &recording));
    recorded.map_err(fail)?;
    let streams = recording.into_streams();
    let inserts: usize = streams.iter().map(Vec::len).sum();
    checks.push(Check::new(
        "aggregators_agree",
        counting.adds() == inserts as u64 && inserts as u64 == 2 * stats.kept,
        format!(
            "counted {}, recorded {inserts}, pipeline kept {} x 2",
            counting.adds(),
            stats.kept
        ),
    ));

    // Sized by the distinct count the pipeline found, so this times
    // inserts and probes; the pipeline's own resizes are reported above.
    let replay = ShardedEdgeTable::with_auto(n, stats.distinct_entries);
    let id = tr.begin("hashtable.replay_insert");
    std::thread::scope(|s| {
        for stream in &streams {
            let replay = &replay;
            s.spawn(move || stream.iter().for_each(|&(u, v, w)| replay.add_edge(u, v, w)));
        }
    });
    let insert_s = tr.end(id, &[("inserts", inserts as f64), ("threads", streams.len() as f64)]);
    let distinct = replay.len();
    tr.put("hashtable.insert_mops_s", inserts as f64 / insert_s / 1e6);
    tr.put("hashtable.dup_ratio", 1.0 - distinct as f64 / inserts as f64);
    checks.push(Check::new(
        "replay_equals_pipeline_table",
        distinct == stats.distinct_entries,
        format!("replay holds {distinct} keys, pipeline {}", stats.distinct_entries),
    ));
    drop(streams);
    let (runs, drain_s) = tr.time("hashtable.drain", || replay.drain_map(|_, _, w| Some(w)));
    black_box(runs);
    tr.put("hashtable.drain_s", drain_s);

    linalg_probes(&mut tr, &env, &netmf, &initial, &cfg);
    drop((netmf, initial));

    match backend {
        Backend::Csr(g) => graph_probes(&mut tr, &env, g, g.resident_bytes()),
        Backend::V2(g) => graph_probes(&mut tr, &env, g, g.container_bytes()),
        // The weighted graph is not a `GraphAccess`; its structure is the
        // CSR graph it was built from, generated again from the seed.
        Backend::Weighted(_) => {
            let g = workloads::generate(spec, n, opts.seed).graph;
            graph_probes(&mut tr, &env, &g, g.resident_bytes());
        }
    }
    runtime_probes(&mut tr, &env);

    let missing: Vec<&str> = PER_LAYER
        .iter()
        .map(|&(name, _, _)| name)
        .filter(|name| !tr.get(name).is_some_and(f64::is_finite))
        .collect();
    checks.push(Check::new(
        "every_layer_metric_measured",
        missing.is_empty(),
        if missing.is_empty() {
            format!("{} metrics", PER_LAYER.len())
        } else {
            missing.join(", ")
        },
    ));
    let correct = checks.iter().all(|c| c.ok);

    let trace_path = workloads::out_dir().join(format!("trace_{}.json", spec.name));
    std::fs::write(&trace_path, tr.to_chrome_json().to_line())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, unit, tr.get(name).unwrap_or(f64::NAN)))
        .collect();
    let stage_names = ["sparsify", "netmf", "rsvd", "propagate"];
    let spans = tr.spans.iter().enumerate().map(|(id, s)| {
        obj([
            ("name", Json::from(s.name.as_str())),
            ("parent", s.parent.map_or(Json::Null, |p| Json::from(tr.spans[p].name.as_str()))),
            ("secs", Json::from(s.secs())),
            ("self_secs", Json::from(tr.self_secs(id))),
        ])
    });
    let detail = obj([
        ("workload", Json::from(spec.name)),
        ("seed", Json::from(opts.seed)),
        ("quick", Json::from(opts.quick)),
        ("threads", Json::from(threads)),
        ("n", Json::from(n)),
        ("m", Json::from(backend.num_edges())),
        ("machine", machine.to_json()),
        ("embed_s", measure::summary("s", embed_s, &reference.secs)),
        ("engine_stage_s", Json::from(engine_stage_secs)),
        (
            "replica_stage_share",
            obj(stage_names.iter().zip(stage_secs).map(|(&k, s)| (k, Json::from(s / stage_total)))),
        ),
        // What stage 1 costs beyond the walks themselves: the table's share.
        ("sparsify_insert_share_est", Json::from(1.0 - walk_s / sparsify_s)),
        (
            "layers",
            obj(metrics.iter().map(|&(name, unit, value)| {
                (name, obj([("value", Json::from(value)), ("unit", Json::from(unit))]))
            })),
        ),
        ("spans", Json::Arr(spans.collect())),
        ("trace_file", Json::from(trace_path.display().to_string())),
        ("ops_attempted", Json::from(attempted)),
        ("ops_failed", Json::from(failed)),
        ("checks", Json::Arr(checks.iter().map(Check::to_json).collect())),
    ]);
    eprintln!(
        "== trace {} (seed {}, {threads} thread(s), n={n} m={}) ==",
        spec.name,
        opts.seed,
        backend.num_edges()
    );
    eprintln!("{}", machine.header());
    eprintln!(
        "  reference embed_s {embed_s:.4} s (median of {}), engine stages {engine_stage_secs:.4} s",
        reference.secs.len()
    );
    eprintln!(
        "  trace_coverage = replica stages {stage_total:.4} s / embed_s = {:.3}",
        stage_total / embed_s
    );
    let shares: Vec<String> = stage_names
        .iter()
        .zip(stage_secs)
        .map(|(k, s)| format!("{k} {s:.3} s ({:.0}%)", 100.0 * s / stage_total))
        .collect();
    eprintln!("  replica by stage: {}", shares.join(", "));
    eprintln!(
        "  sparsify = walks alone {walk_s:.3} s + table (estimated) {:.3} s",
        sparsify_s - walk_s
    );
    eprintln!("  layer metrics:");
    for (name, unit, value) in &metrics {
        eprintln!("    {name:<28} {value:>18.6} {unit}");
    }
    eprintln!("  spans (self = span minus its children):");
    for (id, s) in tr.spans.iter().enumerate() {
        let depth = std::iter::successors(s.parent, |&p| tr.spans[p].parent).count();
        eprintln!(
            "    {:indent$}{:<width$} {:>9.4} s  self {:>9.4} s",
            "",
            s.name,
            s.secs(),
            tr.self_secs(id),
            indent = 2 * depth,
            width = 34 - 2 * depth
        );
    }
    eprintln!("  spans written to {}", trace_path.display());
    eprintln!("  ops_attempted = {attempted}  ops_failed = {failed}");
    measure::report_checks(&checks);
    Ok(measure::Outcome {
        detail,
        line: result_line(correct, attempted, failed, &metrics),
        correct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::new("w");
        let outer = tr.begin("outer");
        let ((), inner_secs) =
            tr.time("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        let outer_secs = tr.end(outer, &[("items", 3.0)]);
        assert_eq!(tr.spans[1].parent, Some(outer));
        assert_eq!(tr.spans[0].parent, None);
        assert!(inner_secs >= 0.005 && outer_secs >= inner_secs);
        assert!((tr.self_secs(outer) - (outer_secs - inner_secs)).abs() < 1e-9);
        let events = tr.to_chrome_json();
        let events = events.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let args = events[0].get("args").unwrap();
        assert_eq!(args.get("items").and_then(Json::as_f64), Some(3.0));
        assert_eq!(args.get("workload").and_then(Json::as_str), Some("w"));
        assert_eq!(events[1].get("args").unwrap().get("parent").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn counting_and_recording_aggregators_agree_with_the_sharded_table() {
        lightne_utils::parallel::configure_threads(2);
        let g = lightne_gen::generators::erdos_renyi(200, 1_500, 9);
        let backend = Backend::Csr(g);
        let cfg = SamplerConfig { window: 4, samples: 40_000, seed: 5, ..Default::default() };
        let (table, stats) = build_table(&backend, &cfg, 0).unwrap();

        let counting = CountingAggregator::default();
        let counted = sample_backend(&backend, &cfg, &counting).unwrap();
        assert_eq!((counted.trials, counted.kept), (stats.trials, stats.kept));
        assert_eq!(counting.adds(), 2 * stats.kept);

        let recording = RecordingAggregator::default();
        sample_backend(&backend, &cfg, &recording).unwrap();
        let streams = recording.into_streams();
        assert_eq!(streams.iter().map(Vec::len).sum::<usize>() as u64, 2 * stats.kept);

        // Replaying the recorded stream rebuilds the pipeline's table.
        let replay = ShardedEdgeTable::with_auto(200, stats.distinct_entries);
        streams.iter().flatten().for_each(|&(u, v, w)| replay.add_edge(u, v, w));
        assert_eq!(replay.len(), table.len());
        assert_eq!(replay.into_coo(), table.into_coo());
    }

    #[test]
    fn triad_and_spin_do_real_work() {
        assert!(stream_triad_gbps(1 << 16, 2) > 0.0);
        assert_ne!(spin(10), spin(11));
    }
}
