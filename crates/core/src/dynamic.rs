//! Dynamic / streaming embedding — the paper's stated future work.
//!
//! The conclusion of the paper: *"We also would like to study large-scale
//! network embedding in a streaming or dynamic setting."* The motivating
//! scenarios of Section 1 (Alibaba's and LinkedIn's periodic
//! re-embedding as edges arrive) are exactly this. This module implements
//! the natural LightNE-native design:
//!
//! * the graph is kept as a CSR, rebuilt from its own edges and each new
//!   batch;
//! * the *sparsifier hash table is persistent* across updates — because
//!   the estimator is a sum of independent per-edge sample contributions,
//!   new edges simply contribute additional weighted samples at the
//!   current per-edge rate, while existing mass is retained;
//! * re-embedding re-runs only the cheap stages (NetMF conversion +
//!   randomized SVD + propagation) over the maintained table.
//!
//! The approximation: walks for *old* samples were taken on the old
//! graph. For the incremental regime the paper targets (a few percent of
//! new edges between re-embeds) this drift is second-order, and the
//! `incremental_matches_full_rebuild_quality` test quantifies it.

use crate::engine::{run_pipeline, PipelineSource, RunOptions};
use crate::pipeline::{LightNe, LightNeConfig, LightNeOutput};
use lightne_graph::{Graph, GraphBuilder, VertexId};
use lightne_hash::{EdgeAggregator, ShardedEdgeTable};
use lightne_sparsifier::construct::{Lanes, SamplerConfig, SamplerError, SamplerStats, WALK_LANES};
use lightne_sparsifier::downsample::{default_c, survival_probability};
use lightne_sparsifier::sharded::table_from_coo;
use lightne_utils::rng::XorShiftStream;

/// A LightNE instance that absorbs edge insertions and re-embeds
/// incrementally.
pub struct DynamicLightNe {
    cfg: LightNeConfig,
    n: usize,
    graph: Graph,
    /// The persistent sparsifier: one shared table (a single shard).
    table: ShardedEdgeTable,
    /// Total samples drawn for the table so far, `T` per walk (the `M` of
    /// the estimator denominator).
    total_trials: u64,
    /// Monotone counter deriving fresh RNG streams for new batches.
    epoch: u64,
}

impl DynamicLightNe {
    /// Creates an empty dynamic embedder over `n` vertices.
    pub fn new(n: usize, cfg: LightNeConfig) -> Self {
        Self {
            cfg,
            n,
            graph: Graph::empty(n),
            table: ShardedEdgeTable::new(n, 1, 1024),
            total_trials: 0,
            epoch: 0,
        }
    }

    /// Current number of (undirected) edges absorbed.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// The current graph snapshot.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Samples accumulated in the persistent sparsifier, `T` per walk.
    pub fn total_trials(&self) -> u64 {
        self.total_trials
    }

    /// Absorbs a batch of new edges: rebuilds the CSR snapshot and adds
    /// sparsifier samples *only for the new edges*, at the same per-edge
    /// sample rate the existing table was built with. Self-loops, edges
    /// the graph already holds and repeats within the batch (in either
    /// orientation) add nothing: the graph keeps an edge once, and a
    /// second share of samples would over-weight its neighbourhood.
    ///
    /// # Panics
    /// If a vertex id is not below the vertex count given to [`Self::new`].
    pub fn insert_edges(&mut self, batch: &[(VertexId, VertexId)]) -> SamplerStats {
        self.epoch += 1;
        let mut fresh: Vec<(VertexId, VertexId)> =
            batch.iter().filter(|&&(u, v)| u != v).map(|&(u, v)| (u.min(v), u.max(v))).collect();
        fresh.sort_unstable();
        fresh.dedup();
        fresh.retain(|&(u, v)| !self.graph.has_edge(u, v));
        if !fresh.is_empty() {
            // The graph's `u < v` arcs are its edges; the build sorts and
            // deduplicates every row, so the order they come in is moot.
            let g = &self.graph;
            let mut builder = GraphBuilder::new(self.n);
            builder.add_edges((0..self.n as VertexId).flat_map(|u| {
                g.neighbors(u).iter().filter(move |&&v| u < v).map(move |&v| (u, v))
            }));
            builder.add_edges(fresh.iter().copied());
            self.graph = builder.build();
        }

        // Per-arc sample rate: sample_ratio · T · m / (2m) = ratio·T/2,
        // drawn as walks of T samples each.
        let per_arc = (self.cfg.sample_ratio * self.cfg.window as f64 / 2.0).max(0.5);
        let walks = per_arc / self.cfg.window as f64;
        let c = self.cfg.c_factor.unwrap_or_else(|| default_c(self.graph.num_vertices()));
        let g = &self.graph;
        let seed = self.cfg.seed ^ (self.epoch << 32);
        let mut lanes = Lanes::<_, _, WALK_LANES>::new(g, self.cfg.window, &self.table);
        for (i, &(u, v)) in fresh.iter().enumerate() {
            // Both orientations, like the static sampler's MapEdges, each
            // on a stream of its own.
            for (o, (a, b)) in [(u, v), (v, u)].into_iter().enumerate() {
                let mut rng = XorShiftStream::new(seed, (2 * i + o) as u64);
                let n_e = walks as u64 + u64::from(rng.bernoulli(walks.fract()));
                let p_e =
                    if self.cfg.downsample { survival_probability(g, a, b, 1.0, c) } else { 1.0 };
                lanes.enqueue(rng, (a, b), n_e, p_e);
            }
        }
        // Hands the last deposits to the table before it is counted.
        let (trials, kept) = lanes.walk_out();
        self.total_trials += trials;
        SamplerStats {
            trials,
            kept,
            distinct_entries: self.table.len(),
            aggregator_bytes: self.table.memory_bytes(),
        }
    }

    /// Re-embeds from the persistent sparsifier: NetMF conversion,
    /// randomized SVD, and (if configured) spectral propagation — without
    /// re-sampling old edges.
    ///
    /// # Panics
    ///
    /// If no edges have been absorbed yet; use
    /// [`DynamicLightNe::reembed_with`] for a fallible variant.
    #[expect(
        clippy::panic,
        reason = "documented panicking convenience wrapper; the fallible form is reembed_with"
    )]
    pub fn reembed(&self) -> LightNeOutput {
        self.reembed_with(RunOptions::default())
            .unwrap_or_else(|e| panic!("re-embed without artifact i/o failed: {e}"))
    }

    /// [`DynamicLightNe::reembed`] with engine options (checkpointing,
    /// resume). Returns a [`SamplerError::EmptyGraph`]
    /// engine error when no edges have been absorbed yet.
    ///
    /// [`SamplerError::EmptyGraph`]: lightne_sparsifier::construct::SamplerError::EmptyGraph
    pub fn reembed_with(
        &self,
        opts: RunOptions,
    ) -> Result<LightNeOutput, crate::engine::EngineError> {
        if self.total_trials == 0 {
            return Err(crate::engine::EngineError::Sampler(SamplerError::EmptyGraph));
        }
        run_pipeline(&self.cfg, &DynamicSource(self), opts)
    }

    /// A full, from-scratch LightNE run on the current snapshot (the
    /// expensive alternative the incremental path avoids).
    pub fn full_rebuild(&self) -> LightNeOutput {
        LightNe::new(self.cfg).embed(&self.graph)
    }
}

/// [`PipelineSource`] backed by the persistent sparsifier table: the
/// "sparsify" stage loads a snapshot of accumulated mass (no
/// re-sampling), and the sample budget is the total samples absorbed so
/// far.
struct DynamicSource<'a>(&'a DynamicLightNe);

impl PipelineSource for DynamicSource<'_> {
    type Graph = Graph;

    fn graph(&self) -> &Graph {
        &self.0.graph
    }

    fn total_samples(&self, _cfg: &LightNeConfig) -> u64 {
        self.0.total_trials
    }

    fn sparsify(
        &self,
        _cfg: &SamplerConfig,
        shards: usize,
    ) -> Result<(ShardedEdgeTable, SamplerStats), SamplerError> {
        let stats = SamplerStats {
            trials: self.0.total_trials,
            kept: 0,
            distinct_entries: self.0.table.len(),
            aggregator_bytes: self.0.table.memory_bytes(),
        };
        Ok((table_from_coo(self.0.n, shards, &self.0.table.snapshot()), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightne_eval::classify::evaluate_node_classification;
    use lightne_gen::sbm::{labelled_sbm, SbmConfig};
    use lightne_utils::rng::XorShiftStream;

    fn cfg() -> LightNeConfig {
        LightNeConfig { dim: 16, window: 5, sample_ratio: 2.0, ..Default::default() }
    }

    fn sbm_edges(n: usize, seed: u64) -> (Vec<(u32, u32)>, lightne_gen::Labels) {
        let c = SbmConfig {
            n,
            communities: 5,
            avg_degree: 20.0,
            mixing: 0.08,
            overlap: 0.1,
            gamma: 2.5,
        };
        let (g, labels) = labelled_sbm(&c, seed);
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for &v in g.neighbors(u) {
                if u < v {
                    edges.push((u, v));
                }
            }
        }
        (edges, labels)
    }

    #[test]
    fn absorbs_batches_and_grows() {
        let (edges, _) = sbm_edges(400, 1);
        let mut dyn_ne = DynamicLightNe::new(400, cfg());
        let half = edges.len() / 2;
        let s1 = dyn_ne.insert_edges(&edges[..half]);
        assert!(s1.trials > 0);
        let m1 = dyn_ne.num_edges();
        let s2 = dyn_ne.insert_edges(&edges[half..]);
        assert!(dyn_ne.num_edges() > m1);
        assert!(s2.distinct_entries >= s1.distinct_entries);
        assert_eq!(dyn_ne.total_trials(), s1.trials + s2.trials);
    }

    #[test]
    fn reembed_produces_valid_embedding() {
        let (edges, _) = sbm_edges(300, 2);
        let mut dyn_ne = DynamicLightNe::new(300, cfg());
        dyn_ne.insert_edges(&edges);
        let out = dyn_ne.reembed();
        assert_eq!(out.embedding.rows(), 300);
        assert_eq!(out.embedding.cols(), 16);
        assert!(out.embedding.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn incremental_matches_full_rebuild_quality() {
        // Insert 90% of edges, re-embed, insert the trailing 10%, and
        // compare incremental re-embed vs full rebuild on classification.
        let (mut edges, labels) = sbm_edges(600, 3);
        // Shuffle so the trailing batch is structurally unbiased.
        let mut rng = XorShiftStream::new(9, 0);
        for i in (1..edges.len()).rev() {
            let j = rng.bounded_usize(i + 1);
            edges.swap(i, j);
        }
        let cut = edges.len() * 9 / 10;
        let mut dyn_ne = DynamicLightNe::new(600, cfg());
        dyn_ne.insert_edges(&edges[..cut]);
        dyn_ne.insert_edges(&edges[cut..]);

        let inc = dyn_ne.reembed();
        let full = dyn_ne.full_rebuild();
        let f_inc = evaluate_node_classification(&inc.embedding, &labels, 0.3, 4);
        let f_full = evaluate_node_classification(&full.embedding, &labels, 0.3, 4);
        assert!(
            f_inc.micro > f_full.micro - 8.0,
            "incremental {} far below full {}",
            f_inc.micro,
            f_full.micro
        );
        // And both are far above chance (~20% for 5 communities).
        assert!(f_inc.micro > 50.0, "incremental quality collapsed: {}", f_inc.micro);
    }

    #[test]
    fn new_edges_only_sampling_is_cheaper_than_full() {
        let (edges, _) = sbm_edges(500, 5);
        let cut = edges.len() * 95 / 100;
        let mut dyn_ne = DynamicLightNe::new(500, cfg());
        let s_bulk = dyn_ne.insert_edges(&edges[..cut]);
        let s_inc = dyn_ne.insert_edges(&edges[cut..]);
        assert!(
            s_inc.trials * 10 < s_bulk.trials,
            "incremental batch sampled too much: {} vs {}",
            s_inc.trials,
            s_bulk.trials
        );
    }

    /// The table's entries with their weight bits, in key order.
    fn table_bits(dyn_ne: &DynamicLightNe) -> Vec<(u32, u32, u32)> {
        let mut coo: Vec<_> =
            dyn_ne.table.snapshot().into_iter().map(|(u, v, w)| (u, v, w.to_bits())).collect();
        coo.sort_unstable();
        coo
    }

    #[test]
    fn edges_already_held_or_repeated_add_no_samples() {
        let (edges, _) = sbm_edges(300, 6);
        let mut dyn_ne = DynamicLightNe::new(300, cfg());
        let first = dyn_ne.insert_edges(&edges);
        let (trials, table) = (dyn_ne.total_trials(), table_bits(&dyn_ne));
        assert_eq!(trials, first.trials);
        // The same batch again: every edge is already held.
        let again = dyn_ne.insert_edges(&edges);
        assert_eq!((again.trials, again.kept), (0, 0));
        assert_eq!(dyn_ne.total_trials(), trials);
        assert_eq!(table_bits(&dyn_ne), table);
        assert_eq!(dyn_ne.num_edges(), edges.len());

        // A batch that lists edges twice, in either orientation, samples
        // each once: the same trials and table bytes as the plain batch.
        let mut repeated = edges.clone();
        repeated.extend(edges.iter().step_by(3).map(|&(u, v)| (v, u)));
        repeated.extend(edges.iter().step_by(5).copied());
        let mut twice = DynamicLightNe::new(300, cfg());
        let s = twice.insert_edges(&repeated);
        assert_eq!((s.trials, s.kept), (first.trials, first.kept));
        assert_eq!(table_bits(&twice), table);
        assert_eq!(twice.num_edges(), edges.len());
    }

    #[test]
    fn one_batch_samples_at_the_static_estimators_rate() {
        // A fractional per-arc rate (1.3 · 5 / 2 = 3.25), and the default
        // `C = ln n`, under which most arcs here survive with `p_e < 1`.
        let cfg = LightNeConfig { sample_ratio: 1.3, ..cfg() };
        let (edges, _) = sbm_edges(400, 7);
        let mut dyn_ne = DynamicLightNe::new(400, cfg);
        let dynamic = dyn_ne.insert_edges(&edges);

        let g = dyn_ne.graph();
        let samples = (cfg.sample_ratio * cfg.window as f64 * g.num_edges() as f64).round();
        let sampler = SamplerConfig {
            window: cfg.window,
            samples: samples as u64,
            downsample: true,
            c_factor: cfg.c_factor,
            prob: cfg.prob,
            seed: cfg.seed,
        };
        let table = ShardedEdgeTable::new(400, 1, 1024);
        let fixed = lightne_sparsifier::construct::sample_into(g, &sampler, &table).unwrap();

        let rel = (dynamic.trials as f64 - fixed.trials as f64).abs() / fixed.trials as f64;
        assert!(rel < 0.05, "trials {} vs the static {}", dynamic.trials, fixed.trials);
        let rate = |s: SamplerStats| s.kept as f64 / s.trials as f64;
        assert!(rate(fixed) < 0.9, "the coin must bite: kept {}", rate(fixed));
        assert!(
            (rate(dynamic) - rate(fixed)).abs() < 0.02,
            "kept/trials {} vs the static {}",
            rate(dynamic),
            rate(fixed)
        );
    }

    #[test]
    #[should_panic(expected = "graph has no edges")]
    fn reembed_requires_edges() {
        let dyn_ne = DynamicLightNe::new(10, cfg());
        let _ = dyn_ne.reembed();
    }

    #[test]
    fn reembed_with_reports_empty_graph_as_typed_error() {
        let dyn_ne = DynamicLightNe::new(10, cfg());
        let err = dyn_ne.reembed_with(RunOptions::default()).unwrap_err();
        assert!(err.to_string().contains("graph has no edges"), "got: {err}");
    }
}
