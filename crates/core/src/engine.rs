//! The stage engine: one execution path for every staged pipeline.
//!
//! LightNE, its weighted variant, the dynamic re-embedder, and the staged
//! baselines all run the same stage sequence — sparsify → NetMF
//! conversion → randomized SVD → spectral propagation — differing only in
//! how each stage is realized. This module factors the sequencing,
//! instrumentation, and checkpointing out of the four call sites:
//!
//! * [`RunContext`] drives the stages, recording per-stage wall time,
//!   named counters, and peak heap bytes into [`StageRecord`]s, with
//!   deterministic per-stage RNG sub-seeds derived from the master seed.
//! * [`PipelineSource`] names the graph the stages run on and how its
//!   sparsifier table is filled: by Algorithm 2 (any graph, weighted or
//!   not), from the dynamic embedder's persistent table, or through
//!   NetSMF's per-thread buffers. Every later stage is the engine's.
//! * [`run_pipeline`] executes the sequence over any source, optionally
//!   checkpointing each stage's output ([`RunOptions::save_artifacts`])
//!   and resuming from the deepest artifact that verifies
//!   ([`RunOptions::resume_from`]). The resume scan yields a start state
//!   carrying that artifact's bytes; each stage takes its input by value
//!   and hands the next stage a narrower one, so no stage can run
//!   without its input.
//! * [`RunStats`] is the finished record: queryable, renderable as JSON
//!   (`--stats-json`), and printable as the per-stage breakdown of the
//!   paper's Table 5.

use crate::artifacts::{
    ArtifactStore, RunMeta, Start, INITIAL_FILE, META_VERSION, NETMF_FILE, SPARSIFIER_FILE,
};
use crate::pipeline::{ConfigError, LightNeConfig, LightNeOutput};
use crate::propagation::spectral_propagation;
use lightne_graph::WeightedOps;
use lightne_hash::{EdgeAggregator, ShardedEdgeTable};
use lightne_linalg::{matio, randomized_svd, CsrMatrix, RsvdConfig};
use lightne_sparsifier::construct::{SamplerConfig, SamplerError, SamplerStats};
use lightne_sparsifier::sharded::{
    build_sharded_sparsifier, coo_is_symmetric, sharded_to_netmf, table_from_coo,
};
use lightne_utils::checksum::fnv1a64;
use lightne_utils::faults;
use lightne_utils::mem::MemUsage;
use lightne_utils::timer::humanize;
use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fail point at the sparsifier stage boundary.
pub const FP_STAGE_SPARSIFY: &str = "engine.stage.sparsify";
/// Fail point at the NetMF-conversion stage boundary.
pub const FP_STAGE_NETMF: &str = "engine.stage.netmf";
/// Fail point at the randomized-SVD stage boundary.
pub const FP_STAGE_RSVD: &str = "engine.stage.rsvd";
/// All fail points registered by the engine.
pub const FAIL_POINTS: &[&str] = &[FP_STAGE_SPARSIFY, FP_STAGE_NETMF, FP_STAGE_RSVD];

/// The four canonical pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Parallel sparsifier construction (walk sampling + downsampling).
    Sparsify,
    /// Conversion of the sparsifier into the truncated-log NetMF matrix.
    NetMf,
    /// Randomized SVD of the NetMF matrix.
    Rsvd,
    /// ProNE-style spectral propagation of the initial embedding.
    Propagate,
}

impl StageKind {
    /// The stage's display name (also the key in timers and stats).
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Sparsify => crate::pipeline::STAGE_SPARSIFIER,
            StageKind::NetMf => crate::pipeline::STAGE_NETMF,
            StageKind::Rsvd => crate::pipeline::STAGE_RSVD,
            StageKind::Propagate => crate::pipeline::STAGE_PROPAGATION,
        }
    }
}

/// The finished record of one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Stage display name.
    pub name: String,
    /// Wall-clock seconds spent in the stage.
    pub secs: f64,
    /// Peak heap bytes attributed to the stage's main data structure(s).
    pub heap_bytes: usize,
    /// Named counters reported by the stage (samples drawn, nnz, …).
    pub counters: Vec<(String, u64)>,
}

impl StageRecord {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Achieved GFLOP/s, derived from the stage's `flops` counter (the
    /// nominal floating-point operation count reported by the stage body)
    /// and its wall-clock time. `None` for stages that report no `flops`
    /// counter or ran too fast to time.
    pub fn gflops(&self) -> Option<f64> {
        let flops = self.counter("flops")?;
        if self.secs > 0.0 {
            Some(flops as f64 / self.secs / 1e9)
        } else {
            None
        }
    }
}

/// Mutable view handed to a stage body for reporting counters and memory.
#[derive(Debug, Default)]
pub struct StageScope {
    counters: Vec<(String, u64)>,
    heap_bytes: usize,
}

impl StageScope {
    /// Reports a named counter (last write wins for a repeated name).
    pub fn counter(&mut self, name: &str, value: u64) {
        if let Some(slot) = self.counters.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value;
        } else {
            self.counters.push((name.to_string(), value));
        }
    }

    /// Folds a structure's heap footprint into the stage's peak.
    pub fn heap<M: MemUsage>(&mut self, m: &M) {
        self.heap_bytes(m.heap_bytes());
    }

    /// Folds a raw byte count into the stage's peak.
    pub fn heap_bytes(&mut self, bytes: usize) {
        self.heap_bytes = self.heap_bytes.max(bytes);
    }
}

/// Shared execution state driving a staged run.
#[derive(Debug)]
pub struct RunContext {
    master_seed: u64,
    records: Vec<StageRecord>,
    fallbacks: Vec<String>,
}

impl RunContext {
    /// Creates a context with the given master seed.
    pub fn new(master_seed: u64) -> Self {
        Self { master_seed, records: Vec::new(), fallbacks: Vec::new() }
    }

    /// Records a resume degradation: an invalid or missing artifact that
    /// forced the run to recompute from an earlier stage.
    pub fn note_fallback(&mut self, note: String) {
        self.fallbacks.push(note);
    }

    /// The deterministic RNG sub-seed for a stage.
    ///
    /// Sampling stages consume the master seed directly; the randomized
    /// SVD offsets it (so the Gaussian sketch is independent of the
    /// sample streams), matching the constants the pipelines have always
    /// used — resumed runs therefore reproduce straight runs exactly.
    pub fn stage_seed(&self, kind: StageKind) -> u64 {
        match kind {
            StageKind::Sparsify | StageKind::NetMf => self.master_seed,
            StageKind::Rsvd => self.master_seed.wrapping_add(0x5EED),
            StageKind::Propagate => self.master_seed.wrapping_add(0x9A0F),
        }
    }

    /// Runs a canonical stage. See [`RunContext::run_named`].
    pub fn run<T>(&mut self, kind: StageKind, f: impl FnOnce(&mut StageScope) -> T) -> T {
        self.run_named(kind.name(), f)
    }

    /// Runs `f` as a named stage: times the body and appends the
    /// resulting [`StageRecord`].
    pub fn run_named<T>(&mut self, name: &str, f: impl FnOnce(&mut StageScope) -> T) -> T {
        let mut scope = StageScope::default();
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock stage timing feeds StageRecord.secs (report metadata only); it never influences numeric output"
        )]
        let started = Instant::now();
        let out = f(&mut scope);
        self.records.push(StageRecord {
            name: name.to_string(),
            secs: started.elapsed().as_secs_f64(),
            heap_bytes: scope.heap_bytes,
            counters: scope.counters,
        });
        out
    }

    /// The stage records accumulated so far.
    pub fn records(&self) -> &[StageRecord] {
        &self.records
    }

    /// Finalizes the context into queryable run statistics.
    pub fn into_stats(self) -> RunStats {
        RunStats {
            seed: self.master_seed,
            threads: lightne_utils::parallel::num_threads(),
            simd_tier: lightne_linalg::simd::active_tier().name().to_string(),
            simd_features: lightne_linalg::simd::detected_features(),
            resume_fallbacks: self.fallbacks,
            stages: self.records,
        }
    }
}

/// The finished statistics of a staged run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Master RNG seed of the run.
    pub seed: u64,
    /// Rayon worker threads the run executed on.
    pub threads: usize,
    /// The SIMD dispatch tier the numeric kernels ran on
    /// (`"scalar"`/`"avx2"`/`"avx512"`; see `lightne_linalg::simd`).
    pub simd_tier: String,
    /// CPU features detected at runtime (comma-separated), independent of
    /// which tier was actually selected.
    pub simd_features: String,
    /// Resume degradations: one note per invalid artifact the run skipped
    /// (empty for straight runs and clean resumes).
    pub resume_fallbacks: Vec<String>,
    /// Per-stage records, in execution order.
    pub stages: Vec<StageRecord>,
}

impl RunStats {
    /// Looks up a stage record by name.
    pub fn get(&self, name: &str) -> Option<&StageRecord> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Total wall-clock seconds across all stages.
    pub fn total_secs(&self) -> f64 {
        self.stages.iter().map(|s| s.secs).sum()
    }

    /// Renders the stats as a JSON document (the `--stats-json` schema).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"simd_tier\": \"{}\",\n", escape_json(&self.simd_tier)));
        out.push_str(&format!("  \"simd_features\": \"{}\",\n", escape_json(&self.simd_features)));
        out.push_str(&format!("  \"total_secs\": {},\n", self.total_secs()));
        out.push_str("  \"resume_fallbacks\": [");
        for (i, note) in self.resume_fallbacks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", escape_json(note)));
        }
        out.push_str("],\n");
        out.push_str("  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"name\": \"{}\", ", escape_json(&s.name)));
            out.push_str(&format!("\"secs\": {}, ", s.secs));
            out.push_str(&format!("\"heap_bytes\": {}, ", s.heap_bytes));
            out.push_str("\"counters\": {");
            for (j, (name, v)) in s.counters.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": {v}", escape_json(name)));
            }
            out.push('}');
            if let Some(g) = s.gflops() {
                out.push_str(&format!(", \"gflops\": {g:.3}"));
            }
            out.push('}');
            out.push_str(if i + 1 < self.stages.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The per-stage wall-clock breakdown (the rows of the paper's Table 5)
/// and their total.
impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let row = |secs: f64| humanize(Duration::from_secs_f64(secs));
        for s in &self.stages {
            writeln!(f, "{:<32} {}", s.name, row(s.secs))?;
        }
        write!(f, "{:<32} {}", "total", row(self.total_secs()))
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Errors from the stage engine (artifact I/O, resume validation, and
/// sampler preconditions). Every corruption class a crash or bad storage
/// can produce in an artifact directory maps to a distinct variant, so
/// callers can tell "retry/recompute" states from "wrong directory" ones.
#[derive(Debug)]
pub enum EngineError {
    /// Artifact file I/O or parse failure.
    Io(lightne_linalg::matio::MatIoError),
    /// A resume directory is unusable or inconsistent with the run.
    Resume(String),
    /// The sampler rejected the graph or configuration.
    Sampler(SamplerError),
    /// A configuration field is outside its domain.
    Config(ConfigError),
    /// An artifact's bytes fail integrity validation (checksum or size
    /// mismatch, broken seal, or a file/manifest disagreement).
    Corrupt {
        /// File name within the artifact directory.
        file: String,
        /// What failed.
        detail: String,
    },
    /// The artifact metadata was written by an unsupported format version.
    MetaVersion {
        /// Version recorded on disk.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The artifacts were produced by a run over a different graph or with
    /// different parameters; resuming would produce a garbage embedding.
    FingerprintMismatch {
        /// Fingerprint recorded in the artifacts.
        artifact: u64,
        /// Fingerprint of the current run.
        run: u64,
    },
    /// The artifact directory cannot be (re)used for writing.
    ArtifactDir(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Io(e) => write!(f, "artifact i/o: {e}"),
            EngineError::Resume(what) => write!(f, "cannot resume: {what}"),
            EngineError::Sampler(e) => write!(f, "sampler: {e}"),
            EngineError::Config(e) => write!(f, "configuration: {e}"),
            EngineError::Corrupt { file, detail } => {
                write!(f, "corrupt artifact {file}: {detail}")
            }
            EngineError::MetaVersion { found, supported } => write!(
                f,
                "artifact meta version {found} is not supported (this build reads version \
                 {supported})"
            ),
            EngineError::FingerprintMismatch { artifact, run } => write!(
                f,
                "cannot resume: artifact fingerprint {artifact:016x} does not match this run's \
                 {run:016x} (different graph or parameters)"
            ),
            EngineError::ArtifactDir(what) => write!(f, "artifact directory: {what}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<lightne_linalg::matio::MatIoError> for EngineError {
    fn from(e: lightne_linalg::matio::MatIoError) -> Self {
        EngineError::Io(e)
    }
}

impl From<SamplerError> for EngineError {
    fn from(e: SamplerError) -> Self {
        EngineError::Sampler(e)
    }
}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(lightne_linalg::matio::MatIoError::Io(e))
    }
}

/// Per-run execution options for [`run_pipeline`].
#[derive(Debug, Default)]
pub struct RunOptions {
    /// Checkpoint each stage's output into this directory.
    pub save_artifacts: Option<PathBuf>,
    /// Resume from the deepest *valid* artifact found in this directory.
    pub resume_from: Option<PathBuf>,
    /// Fail with [`EngineError::Corrupt`] on any invalid artifact instead
    /// of degrading to an earlier stage (`--strict-resume`).
    pub strict_resume: bool,
}

/// What a staged pipeline must provide: the graph its stages run on, and
/// how the sparsifier table of stage 1 is filled.
///
/// The engine owns sequencing, timing, counters, checkpointing, resume,
/// and stages 2–4 (fused NetMF drain, randomized SVD, propagation over
/// the graph's operators); [`run_pipeline`] is the only driver, so every
/// source gets artifacts and stats for free.
pub trait PipelineSource {
    /// The graph backend (any [`WeightedOps`]: CSR, compressed, weighted).
    type Graph: WeightedOps;

    /// The graph every stage reads: its sizes and weightedness feed the
    /// run fingerprint, its degrees and volume the NetMF inversion, its
    /// operators the propagation. Its resident bytes are folded into the
    /// sparsify stage's peak (the graph is resident for the whole run;
    /// the sparsifier stage is where it coexists with the largest
    /// transient structure) and reported as the `graph_bytes` counter —
    /// 0 for a memory-mapped graph, whose payload lives in the page
    /// cache, which is exactly what the out-of-core memory gate measures.
    fn graph(&self) -> &Self::Graph;

    /// Total samples for a configuration (`M = ratio·T·m`, `T` per walk).
    fn total_samples(&self, cfg: &LightNeConfig) -> u64 {
        let m = cfg.sample_ratio * cfg.window as f64 * self.graph().num_edges() as f64;
        (m.round() as u64).max(1)
    }

    /// Stage 1: fills the vertex-range-sharded sparsifier table the
    /// fused stage-2 drain consumes (`shards == 0` selects the automatic
    /// heuristic). The default runs Algorithm 2 over [`Self::graph`];
    /// sources whose samples come from elsewhere load them with
    /// [`table_from_coo`].
    ///
    /// # Errors
    /// Propagates [`SamplerError`] when the graph or configuration cannot
    /// be sampled (no edges, zero window).
    fn sparsify(
        &self,
        cfg: &SamplerConfig,
        shards: usize,
    ) -> Result<(ShardedEdgeTable, SamplerStats), SamplerError> {
        build_sharded_sparsifier(self.graph(), cfg, shards)
    }
}

/// Stage 2's input: the table to drain, or a deeper checkpoint's bytes.
enum Sparsified {
    Table(ShardedEdgeTable),
    NetMf(Vec<u8>),
    Initial(Vec<u8>),
}

/// Stage 3's input: the matrix to factor, or the initial embedding's bytes.
enum Converted {
    NetMf(CsrMatrix),
    Initial(Vec<u8>),
}

/// A checkpointed matrix must have the shape this run produces at its
/// stage; the reader has already held every entry to the shape the file
/// declares.
fn check_shape(file: &str, shape: (usize, usize), want: (usize, usize)) -> Result<(), EngineError> {
    if shape == want {
        return Ok(());
    }
    Err(EngineError::Corrupt {
        file: file.to_string(),
        detail: format!("matrix is {}x{}, this run needs {}x{}", shape.0, shape.1, want.0, want.1),
    })
}

/// Fingerprint of a run's graph and embedding parameters.
///
/// Resuming is only sound when the artifacts were produced by the *same*
/// computation: same graph (vertex/edge counts, weightedness), same
/// sampling and factorization parameters, same seed. The fingerprint is
/// an FNV-1a digest over a canonical rendering of exactly the inputs that
/// shape the checkpointed state. The shard count (table layout only; the
/// output is byte-identical at every count) and the propagation stage
/// (never checkpointed — it runs after the deepest artifact) are
/// deliberately excluded.
pub fn run_fingerprint(cfg: &LightNeConfig, n: usize, m: usize, weighted: bool) -> u64 {
    let text = format!("{}n {n}\nm {m}\nweighted {weighted}\n", cfg.fingerprint_text());
    fnv1a64(text.as_bytes())
}

/// Runs the staged pipeline over `src`, with optional checkpointing and
/// resume. This is the single execution path behind [`LightNe::embed`]
/// (weighted or not), the dynamic re-embedder, and the staged baselines.
///
/// On resume, the artifact directory's metadata and manifest are
/// validated first; invalid artifacts are skipped (the run degrades to
/// the deepest stage that is still trustworthy, recording each fallback
/// in [`RunStats::resume_fallbacks`]) unless
/// [`RunOptions::strict_resume`] is set, in which case any invalid
/// artifact is a typed error. A fingerprint mismatch — artifacts from a
/// different graph or parameterization — is always a hard error.
///
/// [`LightNe::embed`]: crate::pipeline::LightNe::embed
pub fn run_pipeline<S: PipelineSource>(
    cfg: &LightNeConfig,
    src: &S,
    opts: RunOptions,
) -> Result<LightNeOutput, EngineError> {
    cfg.validate()?;
    let mut ctx = RunContext::new(cfg.seed);

    let g = src.graph();
    let n = g.num_vertices();
    let weighted = <S::Graph as WeightedOps>::WEIGHTED;
    let fingerprint = run_fingerprint(cfg, n, g.num_edges(), weighted);

    // Resolve the resume state before touching the save directory: when
    // both options point at the same store, creation must not reset it.
    let (resume_meta, start) = match &opts.resume_from {
        Some(dir) => {
            let r = ArtifactStore::open(dir);
            let meta = r.load_meta().map_err(|e| match e {
                // Integrity and version failures stay typed; plain I/O and
                // parse failures get the directory context.
                e @ (EngineError::Corrupt { .. } | EngineError::MetaVersion { .. }) => e,
                e => EngineError::Resume(format!("unreadable metadata in {}: {e}", dir.display())),
            })?;
            if meta.weighted != weighted {
                return Err(EngineError::Resume(format!(
                    "artifacts are from a {} run, this run is {}",
                    if meta.weighted { "weighted" } else { "unweighted" },
                    if weighted { "weighted" } else { "unweighted" },
                )));
            }
            if meta.seed != cfg.seed {
                return Err(EngineError::Resume(format!(
                    "artifact seed {} != run seed {}",
                    meta.seed, cfg.seed
                )));
            }
            if meta.n != n {
                return Err(EngineError::Resume(format!(
                    "artifact graph has {} vertices, this graph has {}",
                    meta.n, n
                )));
            }
            if meta.fingerprint != fingerprint {
                return Err(EngineError::FingerprintMismatch {
                    artifact: meta.fingerprint,
                    run: fingerprint,
                });
            }
            // Deepest-first scan for the first *valid* artifact. Invalid
            // ones fail the run under strict resume; otherwise they are
            // recorded and the run restarts from an earlier stage.
            let start = r.deepest_checkpoint(|file, why| {
                if opts.strict_resume {
                    return Err(EngineError::Corrupt { file: file.to_string(), detail: why });
                }
                ctx.note_fallback(format!("skipped invalid artifact {file}: {why}"));
                Ok(())
            })?;
            if matches!(start, Start::Fresh) {
                if opts.strict_resume {
                    return Err(EngineError::Resume(format!(
                        "no valid stage artifacts found in {}",
                        dir.display()
                    )));
                }
                ctx.note_fallback("no valid stage artifacts; recomputing every stage".to_string());
            }
            (Some(meta), start)
        }
        None => (None, Start::Fresh),
    };

    let store = match &opts.save_artifacts {
        Some(dir) => {
            let same_store = opts.resume_from.as_deref() == Some(dir.as_path());
            Some(if same_store {
                ArtifactStore::attach(dir, fingerprint)
            } else {
                ArtifactStore::create(dir, fingerprint)?
            })
        }
        None => None,
    };

    // The sample budget is part of the checkpointed state: downstream
    // stages normalize by it, so a resumed run reuses the recorded one.
    let mut meta = resume_meta.unwrap_or_else(|| RunMeta {
        version: META_VERSION,
        seed: cfg.seed,
        fingerprint,
        weighted,
        n,
        samples: src.total_samples(cfg),
        trials: 0,
        kept: 0,
        distinct_entries: 0,
        aggregator_bytes: 0,
        netmf_nnz: None,
    });
    let samples = meta.samples;
    let sampler_cfg = SamplerConfig {
        window: cfg.window,
        samples,
        downsample: cfg.downsample,
        c_factor: cfg.c_factor,
        prob: cfg.prob,
        seed: ctx.stage_seed(StageKind::Sparsify),
    };
    // Written up front so a crash at *any* later point leaves a store that
    // identifies its run and resumes cleanly (recomputing whatever was not
    // committed yet). Counters are refreshed after stages 1 and 2.
    if let Some(store) = &store {
        store.save_meta(&meta)?;
    }

    // Stage 1: sparsifier construction (or replay from artifacts). Hands
    // stage 2 the table to drain, or the deeper checkpoint's bytes.
    let (sparse, sampler) = ctx.run(StageKind::Sparsify, |scope| -> Result<_, EngineError> {
        faults::check(FP_STAGE_SPARSIFY)?;
        if !matches!(start, Start::Fresh) {
            scope.counter("resumed", 1);
        }
        // Shard counters of the table stage 2 drains; a fresh table's are
        // taken before its checkpoint round trip.
        let record_shards = |scope: &mut StageScope, table: &ShardedEdgeTable| {
            let shard_stats = table.shard_stats();
            scope.counter("shards", shard_stats.len() as u64);
            scope.counter("shard_resizes", table.total_resizes() as u64);
            scope.counter(
                "shard_distinct_max",
                shard_stats.iter().map(|s| s.distinct).max().unwrap_or(0) as u64,
            );
        };
        // A resumed run replays the counters its checkpoint recorded.
        let recorded = SamplerStats {
            trials: meta.trials,
            kept: meta.kept,
            distinct_entries: meta.distinct_entries,
            aggregator_bytes: meta.aggregator_bytes,
        };
        let (next, stats) = match start {
            Start::Fresh => {
                let (table, stats) = src.sparsify(&sampler_cfg, cfg.shards)?;
                record_shards(scope, &table);
                let table = match &store {
                    // The checkpoint is the fresh table's sorted drain;
                    // its entries re-enter a table bit for bit.
                    Some(store) => {
                        let coo = table.into_coo();
                        store.save_sparsifier(n, &coo)?;
                        table_from_coo(n, cfg.shards, &coo)
                    }
                    None => table,
                };
                (Sparsified::Table(table), stats)
            }
            Start::Sparsifier(bytes) => {
                let (rows, cols, entries) = matio::coo_from_bytes(&bytes)?;
                // The text is larger than its entries; free it before the
                // table is built.
                drop(bytes);
                check_shape(SPARSIFIER_FILE, (rows, cols), (n, n))?;
                // The table keeps one slot per pair, so it would average a
                // pair whose two orientations disagree instead of failing.
                if !coo_is_symmetric(&entries) {
                    return Err(EngineError::Corrupt {
                        file: SPARSIFIER_FILE.to_string(),
                        detail: "entries are not symmetric: some (i, j) lacks a mirror (j, i) \
                                 of the same weight"
                            .to_string(),
                    });
                }
                let table = table_from_coo(n, cfg.shards, &entries);
                record_shards(scope, &table);
                (Sparsified::Table(table), recorded)
            }
            Start::NetMf(bytes) => (Sparsified::NetMf(bytes), recorded),
            Start::Initial(bytes) => (Sparsified::Initial(bytes), recorded),
        };
        scope.counter("trials", stats.trials);
        scope.counter("kept", stats.kept);
        scope.counter("distinct_entries", stats.distinct_entries as u64);
        scope.counter("graph_bytes", g.resident_bytes() as u64);
        scope.heap_bytes(stats.aggregator_bytes + g.resident_bytes());
        Ok((next, stats))
    })?;
    meta.trials = sampler.trials;
    meta.kept = sampler.kept;
    meta.distinct_entries = sampler.distinct_entries;
    meta.aggregator_bytes = sampler.aggregator_bytes;
    if let Some(store) = &store {
        store.save_meta(&meta)?;
    }

    // Stage 2: NetMF conversion — the fused drain of the table (or replay).
    let converted = ctx.run(StageKind::NetMf, |scope| -> Result<_, EngineError> {
        faults::check(FP_STAGE_NETMF)?;
        let m = match sparse {
            Sparsified::Table(table) => {
                let m = sharded_to_netmf(g, table, samples, cfg.negative);
                if let Some(store) = &store {
                    store.save_netmf(&m)?;
                }
                m
            }
            Sparsified::NetMf(bytes) => {
                scope.counter("resumed", 1);
                let m = matio::csr_from_bytes(&bytes)?;
                check_shape(NETMF_FILE, (m.n_rows(), m.n_cols()), (n, n))?;
                m
            }
            Sparsified::Initial(bytes) => {
                scope.counter("resumed", 1);
                if let Some(nnz) = meta.netmf_nnz {
                    scope.counter("nnz", nnz as u64);
                }
                return Ok(Converted::Initial(bytes));
            }
        };
        scope.counter("nnz", m.nnz() as u64);
        scope.heap(&m);
        Ok(Converted::NetMf(m))
    })?;
    let netmf_nnz = match &converted {
        Converted::NetMf(m) => m.nnz(),
        Converted::Initial(_) => meta.netmf_nnz.unwrap_or(0),
    };
    meta.netmf_nnz = Some(netmf_nnz);
    if let Some(store) = &store {
        store.save_meta(&meta)?;
    }

    // Stage 3: randomized SVD (or replay).
    let rsvd_seed = ctx.stage_seed(StageKind::Rsvd);
    let initial = ctx.run(StageKind::Rsvd, |scope| -> Result<_, EngineError> {
        faults::check(FP_STAGE_RSVD)?;
        let x = match converted {
            Converted::Initial(bytes) => {
                scope.counter("resumed", 1);
                let x = matio::matrix_from_bytes(&bytes)?;
                // The rank the randomized SVD returns on this graph.
                check_shape(INITIAL_FILE, (x.rows(), x.cols()), (n, cfg.dim.min(n)))?;
                x
            }
            Converted::NetMf(m) => {
                let rcfg = RsvdConfig {
                    rank: cfg.dim,
                    oversampling: cfg.oversampling,
                    power_iters: cfg.power_iters,
                    seed: rsvd_seed,
                };
                scope.counter(
                    "flops",
                    lightne_linalg::rsvd::rsvd_flops(m.n_rows(), m.nnz() as u64, &rcfg),
                );
                let svd = randomized_svd(&m, &rcfg);
                let x = svd.embedding();
                if let Some(store) = &store {
                    store.save_initial(&x)?;
                }
                x
            }
        };
        scope.counter("rank", cfg.dim as u64);
        scope.heap(&x);
        Ok(x)
    })?;

    // Stage 4: spectral propagation (skipped when disabled; the initial
    // embedding is then *moved* into the output, not cloned).
    let (embedding, initial_embedding) = match &cfg.propagation {
        Some(pcfg) => {
            let emb = ctx.run(StageKind::Propagate, |scope| {
                // D̃⁻¹Ã has one entry per directed edge plus a self loop
                // per vertex.
                let da_nnz = 2 * g.num_edges() as u64 + n as u64;
                scope.counter(
                    "flops",
                    crate::propagation::propagation_flops(n, da_nnz, initial.cols(), pcfg),
                );
                let e = spectral_propagation(g, &initial, pcfg);
                scope.heap(&e);
                e
            });
            (emb, Some(initial))
        }
        None => (initial, None),
    };

    let stats = ctx.into_stats();
    Ok(LightNeOutput { embedding, initial_embedding, sampler, netmf_nnz, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_seeds_are_distinct_and_deterministic() {
        let ctx = RunContext::new(42);
        assert_eq!(ctx.stage_seed(StageKind::Sparsify), 42);
        assert_eq!(ctx.stage_seed(StageKind::NetMf), 42);
        assert_eq!(ctx.stage_seed(StageKind::Rsvd), 42 + 0x5EED);
        assert_eq!(ctx.stage_seed(StageKind::Propagate), 42 + 0x9A0F);
    }

    #[test]
    fn run_records_counters_heap_and_order() {
        let mut ctx = RunContext::new(7);
        let out = ctx.run(StageKind::Sparsify, |scope| {
            scope.counter("trials", 100);
            scope.counter("trials", 150); // last write wins
            scope.heap_bytes(64);
            scope.heap_bytes(32); // peak, not last
            "done"
        });
        assert_eq!(out, "done");
        ctx.run_named("extra", |_| ());
        let stats = ctx.into_stats();
        assert_eq!(stats.stages.len(), 2);
        let s = stats.get(StageKind::Sparsify.name()).unwrap();
        assert_eq!(s.counter("trials"), Some(150));
        assert_eq!(s.heap_bytes, 64);
        assert!(stats.get("extra").is_some());
        assert!(stats.threads >= 1);
    }

    #[test]
    fn stats_json_shape() {
        let mut ctx = RunContext::new(9);
        ctx.run(StageKind::Sparsify, |scope| {
            scope.counter("trials", 10);
            scope.heap_bytes(1024);
        });
        let stats = ctx.into_stats();
        let json = stats.to_json();
        assert!(json.contains("\"seed\": 9"));
        assert!(json.contains("\"threads\":"));
        assert!(json.contains("\"total_secs\":"));
        assert!(json.contains("\"parallel sparsifier construction\""));
        assert!(json.contains("\"trials\": 10"));
        assert!(json.contains("\"heap_bytes\": 1024"));
    }

    #[test]
    fn gflops_derived_from_flops_counter() {
        let rec = StageRecord {
            name: "x".into(),
            secs: 2.0,
            heap_bytes: 0,
            counters: vec![("flops".into(), 4_000_000_000)],
        };
        assert!((rec.gflops().unwrap() - 2.0).abs() < 1e-12);
        let none = StageRecord { name: "y".into(), secs: 2.0, heap_bytes: 0, counters: vec![] };
        assert!(none.gflops().is_none());

        let stats = RunStats {
            seed: 1,
            threads: 1,
            simd_tier: "scalar".into(),
            simd_features: "sse2".into(),
            stages: vec![rec],
            resume_fallbacks: vec![],
        };
        let json = stats.to_json();
        assert!(json.contains("\"gflops\": 2.000"), "{json}");
    }

    #[test]
    fn display_lists_stages_and_total() {
        let mut ctx = RunContext::new(3);
        ctx.run(StageKind::Sparsify, |_| ());
        ctx.run(StageKind::Rsvd, |_| ());
        let rendered = ctx.into_stats().to_string();
        let rows: Vec<&str> = rendered.lines().collect();
        assert_eq!(rows.len(), 3, "{rendered}");
        assert!(rows[0].starts_with(StageKind::Sparsify.name()));
        assert!(rows[1].starts_with(StageKind::Rsvd.name()));
        assert!(rows[2].starts_with("total") && rows[2].ends_with("ms"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny"), "x\\ny");
    }

    /// Every artifact store records this digest; a change to it, or to
    /// the text behind it, makes every existing store fail to resume.
    #[test]
    fn run_fingerprint_is_pinned() {
        assert_eq!(
            LightNeConfig::default().fingerprint_text(),
            "dim 128\nwindow 10\nsample_ratio 3ff0000000000000\ndownsample true\nc_factor none\n\
             prob degree\nnegative 3ff0000000000000\noversampling 16\npower_iters 1\nseed 4503\n"
        );
        let cfg = LightNeConfig {
            dim: 8,
            window: 4,
            sample_ratio: 2.0,
            c_factor: Some(1.5),
            seed: 11,
            ..Default::default()
        };
        assert_eq!(run_fingerprint(&cfg, 256, 1337, true), 0x10f4_c83f_a905_0bac);
    }
}
