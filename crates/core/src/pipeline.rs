//! The end-to-end LightNE pipeline.
//!
//! Wires the three stages together with the timing instrumentation the
//! paper's Table 5 reports: parallel sparsifier construction → randomized
//! SVD → spectral propagation. Every stage is generic over
//! [`WeightedOps`], so the same pipeline runs on the uncompressed CSR, a
//! compressed graph, or a weighted graph.

use crate::engine::{run_pipeline, EngineError, PipelineSource, RunOptions, RunStats};
use crate::propagation::PropagationConfig;
use lightne_graph::WeightedOps;
use lightne_linalg::DenseMatrix;
use lightne_sparsifier::construct::SamplerStats;
use lightne_sparsifier::downsample::ProbScheme;

/// Full configuration of a LightNE run.
#[derive(Debug, Clone, Copy)]
pub struct LightNeConfig {
    /// Embedding dimension `d`.
    pub dim: usize,
    /// Context window `T`.
    pub window: usize,
    /// Number of PathSampling trials, expressed as the paper's ratio:
    /// `M = sample_ratio · T · m`. LightNE-Small uses 0.1, LightNE-Large 20.
    pub sample_ratio: f64,
    /// Degree-based edge downsampling on/off (Section 3.2).
    pub downsample: bool,
    /// Downsampling constant override (`None` = `log n`).
    pub c_factor: Option<f64>,
    /// Edge-survival probability scheme for the downsampling coin.
    pub prob: ProbScheme,
    /// Negative-sample count `b` in the NetMF matrix.
    pub negative: f64,
    /// Randomized-SVD oversampling.
    pub oversampling: usize,
    /// Randomized-SVD subspace iterations (0 = the paper's single pass).
    pub power_iters: usize,
    /// Spectral propagation settings; `None` skips the stage (the paper
    /// does this for the very-large graphs, Section 5.3).
    pub propagation: Option<PropagationConfig>,
    /// Master RNG seed.
    pub seed: u64,
    /// Shard count of the vertex-range-sharded aggregation table
    /// (`0` = automatic heuristic, see `ShardedEdgeTable::auto_shards`;
    /// `1` is the paper's single shared table). Output bytes are
    /// identical at every count.
    pub shards: usize,
}

impl Default for LightNeConfig {
    fn default() -> Self {
        Self {
            dim: 128,
            window: 10,
            sample_ratio: 1.0,
            downsample: true,
            c_factor: None,
            prob: ProbScheme::Degree,
            negative: 1.0,
            oversampling: 16,
            power_iters: 1,
            propagation: Some(PropagationConfig::default()),
            seed: 0x11_97,
            shards: 0,
        }
    }
}

impl LightNeConfig {
    /// The paper's LightNE-Small operating point (`M = 0.1·T·m`).
    pub fn small() -> Self {
        Self { sample_ratio: 0.1, ..Default::default() }
    }

    /// The paper's LightNE-Large operating point (`M = 20·T·m`).
    pub fn large() -> Self {
        Self { sample_ratio: 20.0, ..Default::default() }
    }

    /// Canonical text rendering of every parameter that shapes the
    /// checkpointed pipeline state, one `key value` line each. This feeds
    /// the run fingerprint stored in artifact metadata, so resuming with
    /// artifacts from a differently-parameterized run is rejected.
    ///
    /// Deliberately excluded: `shards` (table layout, with
    /// byte-identical output) and `propagation` (runs after the deepest
    /// checkpointed artifact, so it never invalidates one). Floats are
    /// rendered by their exact bit patterns — fingerprints compare
    /// identity, not approximate equality.
    pub fn fingerprint_text(&self) -> String {
        let c_factor = match self.c_factor {
            Some(c) => format!("{:016x}", c.to_bits()),
            None => "none".to_string(),
        };
        format!(
            "dim {}\nwindow {}\nsample_ratio {:016x}\ndownsample {}\nc_factor {}\nprob {}\n\
             negative {:016x}\noversampling {}\npower_iters {}\nseed {}\n",
            self.dim,
            self.window,
            self.sample_ratio.to_bits(),
            self.downsample,
            c_factor,
            self.prob.name(),
            self.negative.to_bits(),
            self.oversampling,
            self.power_iters,
            self.seed,
        )
    }

    /// Checks the parameters every stage divides or iterates by. Callers
    /// that take the configuration from outside the program (the CLI)
    /// run this before [`LightNe::new`], which panics on the same
    /// conditions; [`run_pipeline`] runs it for every staged pipeline.
    ///
    /// # Errors
    /// The first offending field, as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.dim < 1 {
            return Err(ConfigError::Dim);
        }
        if self.window < 1 {
            return Err(ConfigError::Window);
        }
        if !(self.sample_ratio > 0.0 && self.sample_ratio.is_finite()) {
            return Err(ConfigError::SampleRatio(self.sample_ratio));
        }
        if let Some(p) = &self.propagation {
            if p.order < 2 {
                return Err(ConfigError::PropagationOrder(p.order));
            }
            if !(p.mu.is_finite() && p.theta.is_finite()) {
                return Err(ConfigError::PropagationKernel { mu: p.mu, theta: p.theta });
            }
        }
        Ok(())
    }
}

/// A [`LightNeConfig`] field outside its domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `dim` was 0.
    Dim,
    /// `window` was 0.
    Window,
    /// `sample_ratio` was zero, negative, infinite or NaN.
    SampleRatio(f64),
    /// `propagation.order` was below 2 (the filter has no term before
    /// `P_1`).
    PropagationOrder(usize),
    /// `propagation.mu` or `propagation.theta` was infinite or NaN.
    PropagationKernel {
        /// The configured kernel center.
        mu: f64,
        /// The configured kernel bandwidth.
        theta: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Dim => write!(f, "dim must be >= 1"),
            ConfigError::Window => write!(f, "window must be >= 1"),
            ConfigError::SampleRatio(r) => {
                write!(f, "sample_ratio must be a positive finite number, got {r}")
            }
            ConfigError::PropagationOrder(k) => {
                write!(f, "propagation order must be >= 2, got {k}")
            }
            ConfigError::PropagationKernel { mu, theta } => {
                write!(f, "propagation mu and theta must be finite, got mu {mu}, theta {theta}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Result of a LightNE run.
#[derive(Debug, Clone)]
pub struct LightNeOutput {
    /// The final `n × d` embedding.
    pub embedding: DenseMatrix,
    /// The initial (pre-propagation) embedding, kept for ablations.
    /// `None` when propagation is disabled — the initial embedding then
    /// *is* [`LightNeOutput::embedding`] (moved, not cloned).
    pub initial_embedding: Option<DenseMatrix>,
    /// Sampling statistics (trials, kept, distinct entries, memory).
    pub sampler: SamplerStats,
    /// Non-zeros of the factorized NetMF matrix.
    pub netmf_nnz: usize,
    /// Per-stage run statistics (wall time, counters, heap bytes); its
    /// `Display` is the paper's Table 5 breakdown.
    pub stats: RunStats,
}

impl LightNeOutput {
    /// The initial (pre-propagation) embedding. When propagation was
    /// disabled the final embedding *is* the initial one.
    pub fn initial(&self) -> &DenseMatrix {
        self.initial_embedding.as_ref().unwrap_or(&self.embedding)
    }
}

/// The LightNE system.
#[derive(Debug, Clone)]
pub struct LightNe {
    cfg: LightNeConfig,
}

/// Stage name used in [`LightNeOutput::stats`].
pub const STAGE_SPARSIFIER: &str = "parallel sparsifier construction";
/// Stage name used in [`LightNeOutput::stats`].
pub const STAGE_NETMF: &str = "netmf conversion";
/// Stage name used in [`LightNeOutput::stats`].
pub const STAGE_RSVD: &str = "randomized svd";
/// Stage name used in [`LightNeOutput::stats`].
pub const STAGE_PROPAGATION: &str = "spectral propagation";

/// [`PipelineSource`] that runs every stage on the graph itself:
/// Algorithm 2 into the sharded table, the fused NetMF drain, and
/// propagation over the graph's own operators.
pub struct GraphSource<'a, G: WeightedOps>(pub &'a G);

impl<G: WeightedOps> PipelineSource for GraphSource<'_, G> {
    type Graph = G;

    fn graph(&self) -> &G {
        self.0
    }
}

/// Exist only for `benchmark/src/trace.rs`, which names the source of
/// each pipeline separately.
pub use {GraphSource as UnweightedSource, GraphSource as WeightedSource};

impl LightNe {
    /// Creates a pipeline with the given configuration.
    ///
    /// # Panics
    /// Panics if [`LightNeConfig::validate`] rejects `cfg`.
    pub fn new(cfg: LightNeConfig) -> Self {
        assert_eq!(cfg.validate(), Ok(()), "invalid LightNeConfig");
        Self { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &LightNeConfig {
        &self.cfg
    }

    /// Runs the full pipeline on `g` — any graph backend, weighted or not.
    /// On a [`lightne_graph::WeightedGraph`] that is weight-proportional
    /// PathSampling (Theorem 3.1's general form), the NetMF inversion over
    /// weighted degrees, and propagation over the weighted operators.
    ///
    /// # Panics
    /// Panics if the graph cannot be sampled (no edges) — use
    /// [`LightNe::embed_with`] for a recoverable error.
    pub fn embed<G: WeightedOps>(&self, g: &G) -> LightNeOutput {
        // xtask:panic-ok(documented panicking convenience wrapper; the fallible form is embed_with)
        self.embed_with(g, RunOptions::default()).unwrap_or_else(|e| panic!("pipeline failed: {e}"))
    }

    /// The pipeline with engine options (checkpointing, resume).
    pub fn embed_with<G: WeightedOps>(
        &self,
        g: &G,
        opts: RunOptions,
    ) -> Result<LightNeOutput, EngineError> {
        run_pipeline(&self.cfg, &GraphSource(g), opts)
    }

    /// [`LightNe::embed`] under its former weighted-only name.
    pub fn embed_weighted(&self, g: &lightne_graph::WeightedGraph) -> LightNeOutput {
        self.embed(g)
    }

    /// [`LightNe::embed_with`] under its former weighted-only name; exists
    /// only for `benchmark/src/workloads.rs`.
    pub fn embed_weighted_with(
        &self,
        g: &lightne_graph::WeightedGraph,
        opts: RunOptions,
    ) -> Result<LightNeOutput, EngineError> {
        self.embed_with(g, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightne_gen::generators::erdos_renyi;
    use lightne_gen::sbm::{labelled_sbm, SbmConfig};
    use lightne_graph::{Codec, V2Graph};

    /// Mean cosine similarity over a fixed sample of same-community
    /// vertex pairs, minus the mean over cross-community pairs.
    fn community_separation(y: &DenseMatrix, labels: &lightne_gen::Labels) -> f64 {
        let mut yn = y.clone();
        yn.normalize_rows();
        let dot = |a: &[f32], b: &[f32]| -> f64 {
            a.iter().zip(b).map(|(&p, &q)| p as f64 * q as f64).sum()
        };
        let (mut s, mut sn, mut d, mut dn) = (0.0, 0, 0.0, 0);
        for i in (0..y.rows()).step_by(5) {
            for j in (2..y.rows()).step_by(11) {
                if i == j {
                    continue;
                }
                let v = dot(yn.row(i), yn.row(j));
                if labels.of(i) == labels.of(j) {
                    s += v;
                    sn += 1;
                } else {
                    d += v;
                    dn += 1;
                }
            }
        }
        s / sn as f64 - d / dn as f64
    }

    fn tiny_cfg() -> LightNeConfig {
        LightNeConfig {
            dim: 16,
            window: 5,
            sample_ratio: 2.0,
            power_iters: 1,
            ..Default::default()
        }
    }

    #[test]
    fn end_to_end_shapes_and_stages() {
        let g = erdos_renyi(400, 4_000, 1);
        let out = LightNe::new(tiny_cfg()).embed(&g);
        assert_eq!(out.embedding.rows(), 400);
        assert_eq!(out.embedding.cols(), 16);
        assert!(out.netmf_nnz > 0);
        assert!(out.sampler.trials > 0);
        let names: Vec<_> = out.stats.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, [STAGE_SPARSIFIER, STAGE_NETMF, STAGE_RSVD, STAGE_PROPAGATION]);
        let sp = out.stats.get(STAGE_SPARSIFIER).unwrap();
        assert_eq!(sp.counter("trials"), Some(out.sampler.trials));
        assert!(sp.heap_bytes > 0);
        let nm = out.stats.get(STAGE_NETMF).unwrap();
        assert_eq!(nm.counter("nnz"), Some(out.netmf_nnz as u64));
    }

    #[test]
    fn degenerate_propagation_is_a_typed_error() {
        // Used to pass `validate` and die on an assert inside the stage.
        let g = erdos_renyi(50, 200, 9);
        let base = PropagationConfig::default();
        let bad = [
            PropagationConfig { order: 1, ..base },
            PropagationConfig { mu: f64::NAN, ..base },
            PropagationConfig { theta: f64::INFINITY, ..base },
        ];
        for p in bad {
            let is_expected = |e: &ConfigError| match e {
                ConfigError::PropagationOrder(1) => p.order == 1,
                ConfigError::PropagationKernel { .. } => p.order != 1,
                _ => false,
            };
            let cfg = LightNeConfig { propagation: Some(p), ..tiny_cfg() };
            assert!(cfg.validate().is_err_and(|e| is_expected(&e)), "{p:?}");
            match run_pipeline(&cfg, &GraphSource(&g), RunOptions::default()) {
                Err(EngineError::Config(e)) => assert!(is_expected(&e), "{p:?}: {e}"),
                other => panic!("{p:?}: expected a config error, got {:?}", other.map(|_| ())),
            }
        }
        let two = LightNeConfig {
            propagation: Some(PropagationConfig { order: 2, ..base }),
            ..tiny_cfg()
        };
        assert_eq!(two.validate(), Ok(()));
    }

    #[test]
    fn propagation_none_skips_stage() {
        let g = erdos_renyi(200, 2_000, 2);
        let cfg = LightNeConfig { propagation: None, ..tiny_cfg() };
        let out = LightNe::new(cfg).embed(&g);
        assert!(out.stats.get(STAGE_PROPAGATION).is_none());
        // The initial embedding is *moved* into the output, not cloned.
        assert!(out.initial_embedding.is_none());
        assert_eq!(out.initial().max_abs_diff(&out.embedding), 0.0);
    }

    #[test]
    fn compressed_graph_gives_same_embedding() {
        let g = erdos_renyi(300, 3_000, 3);
        let c = V2Graph::from_graph(&g, Codec::Byte);
        let pipe = LightNe::new(tiny_cfg());
        let a = pipe.embed(&g);
        let b = pipe.embed(&c);
        // Same deterministic sample streams ⇒ numerically identical output.
        assert!(a.embedding.max_abs_diff(&b.embedding) < 1e-4);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = erdos_renyi(200, 2_000, 4);
        let a = LightNe::new(tiny_cfg()).embed(&g);
        let b = LightNe::new(tiny_cfg()).embed(&g);
        assert!(a.embedding.max_abs_diff(&b.embedding) < 1e-6);
    }

    #[test]
    fn embedding_separates_communities() {
        // The qualitative claim behind all accuracy tables: LightNE
        // embeddings place same-community vertices closer.
        let cfg = SbmConfig {
            n: 800,
            communities: 4,
            avg_degree: 24.0,
            mixing: 0.05,
            overlap: 0.0,
            gamma: 2.5,
        };
        let (g, labels) = labelled_sbm(&cfg, 5);
        let out = LightNe::new(tiny_cfg()).embed(&g);
        let sep = community_separation(&out.embedding, &labels);
        assert!(sep > 0.1, "no separation: same-community minus cross-community {sep:.4}");
    }

    #[test]
    fn weighted_pipeline_matches_unweighted_on_unit_weights() {
        // Unit-weight graphs through the weighted path must land in the
        // same quality band as the unweighted path (sampling differs in
        // RNG consumption, so outputs are statistically — not bitwise —
        // equal; compare community separation).
        use lightne_graph::WeightedGraph;
        let cfg = SbmConfig {
            n: 500,
            communities: 4,
            avg_degree: 20.0,
            mixing: 0.05,
            overlap: 0.0,
            gamma: 2.5,
        };
        let (g, labels) = labelled_sbm(&cfg, 8);
        let gw = WeightedGraph::from_unweighted(&g);
        let pipe = LightNe::new(tiny_cfg());
        let a = pipe.embed(&g);
        let b = pipe.embed_weighted(&gw);
        let sep = |y| community_separation(y, &labels);
        let (sa, sb) = (sep(&a.embedding), sep(&b.embedding));
        assert!(sa > 0.1 && sb > 0.1, "separation collapsed: {sa} vs {sb}");
        assert!((sa - sb).abs() < 0.3 * sa.max(sb), "quality bands diverge: {sa} vs {sb}");
    }

    #[test]
    fn weighted_pipeline_respects_heavy_edges() {
        // Two cliques joined by one bridge; heavy intra-clique weights →
        // embedding separates cliques despite the bridge.
        use lightne_graph::WeightedGraph;
        let mut edges = Vec::new();
        for base in [0u32, 10] {
            for i in 0..10u32 {
                for j in 0..i {
                    edges.push((base + i, base + j, 10.0));
                }
            }
        }
        edges.push((0, 10, 1.0)); // light bridge
        let g = WeightedGraph::from_edges(20, &edges);
        let out = LightNe::new(LightNeConfig {
            dim: 4,
            window: 3,
            sample_ratio: 50.0,
            ..Default::default()
        })
        .embed_weighted(&g);
        let y = &out.embedding;
        let dot = |a: &[f32], b: &[f32]| -> f64 {
            a.iter().zip(b).map(|(&p, &q)| p as f64 * q as f64).sum()
        };
        let intra = dot(y.row(1), y.row(2));
        let inter = dot(y.row(1), y.row(12));
        assert!(intra > inter + 0.2, "cliques not separated: intra {intra:.3} vs inter {inter:.3}");
    }

    #[test]
    fn more_samples_reduce_matrix_noise() {
        // With more trials, the NetMF estimate keeps more (accurate)
        // entries; nnz should grow toward the T-hop neighborhood size.
        let g = erdos_renyi(300, 1_500, 6);
        let small = LightNe::new(LightNeConfig { sample_ratio: 0.2, ..tiny_cfg() }).embed(&g);
        let large = LightNe::new(LightNeConfig { sample_ratio: 8.0, ..tiny_cfg() }).embed(&g);
        assert!(large.sampler.trials > 10 * small.sampler.trials);
        assert!(large.netmf_nnz >= small.netmf_nnz);
    }
}
