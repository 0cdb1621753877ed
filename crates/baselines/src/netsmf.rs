//! The NetSMF baseline (Qiu et al., WWW 2019), as re-characterized by the
//! LightNE paper.
//!
//! Differences from LightNE, each of which the paper ablates:
//!
//! 1. **No edge downsampling** — every sample is kept, so the
//!    sparsifier holds Θ(M) entries instead of O(n log n).
//! 2. **Per-thread aggregation buffers** merged after sampling
//!    ([`ThreadLocalAggregator`]) — memory proportional to the *sample
//!    count*, not the number of *distinct edges*, the reason NetSMF ran
//!    out of 1.7 TB at `M = 8Tm` while LightNE fit `20Tm` in 1.5 TB
//!    (Section 5.2.4).
//! 3. **No spectral propagation** — the factorization output is final.
//!
//! The estimator and randomized SVD are shared with LightNE on purpose:
//! NetSMF samples through the same [`sample_into`], so it draws prefix
//! pairs of `T − 1`-step walks where NetSMF's paper ran PathSampling
//! (its Algorithm 1, one sample per walk; the two have one expectation,
//! `lightne_sparsifier::construct`). Comparisons therefore measure
//! downsampling, buffers and propagation only, not the sampler or
//! implementation noise.

use lightne_core::engine::{run_pipeline, PipelineSource, RunOptions, RunStats};
use lightne_core::LightNeConfig;
use lightne_graph::GraphOps;
use lightne_hash::{EdgeAggregator, ShardedEdgeTable};
use lightne_linalg::DenseMatrix;
use lightne_sparsifier::construct::{sample_into, SamplerConfig, SamplerError, SamplerStats};
use lightne_sparsifier::table_from_coo;
use lightne_utils::parallel::{group_by_row, par_row_blocks, sort_dedup_row, sort_merge_row};
use rayon::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// NetSMF configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetSmfConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Context window `T`.
    pub window: usize,
    /// Samples as a ratio of `T·m` (the paper runs NetSMF at 1–8).
    pub sample_ratio: f64,
    /// Negative samples `b`.
    pub negative: f64,
    /// Randomized-SVD oversampling / power iterations.
    pub oversampling: usize,
    /// Randomized-SVD subspace iterations.
    pub power_iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NetSmfConfig {
    fn default() -> Self {
        Self {
            dim: 128,
            window: 10,
            sample_ratio: 1.0,
            negative: 1.0,
            oversampling: 16,
            power_iters: 1,
            seed: 0x5e75,
        }
    }
}

/// Result of a NetSMF run.
#[derive(Debug, Clone)]
pub struct NetSmfOutput {
    /// The `n × d` embedding.
    pub embedding: DenseMatrix,
    /// Sampler statistics (note `aggregator_bytes` grows with samples).
    pub sampler: SamplerStats,
    /// Per-stage run statistics (sparsifier construction, NetMF
    /// conversion, randomized SVD).
    pub stats: RunStats,
}

/// The NetSMF system.
#[derive(Debug, Clone)]
pub struct NetSmf {
    cfg: NetSmfConfig,
}

type Buffer = Vec<(u32, u32, f32)>;

/// NetSMF's stage-1 aggregation: one append-only sample buffer per rayon
/// worker (uncontended mutexes), merged on drain.
pub struct ThreadLocalAggregator {
    shards: Vec<Mutex<Buffer>>,
}

/// A buffer holds plain triples, so one a panicking worker poisoned is
/// still well-formed.
fn lock(shard: &Mutex<Buffer>) -> MutexGuard<'_, Buffer> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Default for ThreadLocalAggregator {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadLocalAggregator {
    /// Creates one shard per rayon worker (plus one for non-pool callers).
    pub fn new() -> Self {
        let shards =
            (0..rayon::current_num_threads() + 1).map(|_| Mutex::new(Vec::new())).collect();
        Self { shards }
    }

    #[inline]
    fn shard(&self) -> &Mutex<Buffer> {
        let idx = rayon::current_thread_index().map_or(self.shards.len() - 1, |i| i);
        &self.shards[idx]
    }

    /// Total samples buffered (not deduplicated).
    pub fn total_samples(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }
}

impl EdgeAggregator for ThreadLocalAggregator {
    fn add(&self, u: u32, v: u32, weight: f32) {
        lock(self.shard()).push((u, v, weight));
    }

    fn distinct_edges(&self) -> usize {
        let pairs: Vec<(u32, u32)> = self
            .shards
            .iter()
            .flat_map(|s| lock(s).iter().map(|&(u, v, _)| (u, v)).collect::<Vec<_>>())
            .collect();
        let rows = group_by_row(&pairs, row_count(&pairs, |&(u, _)| u), |&(u, v)| [Some((u, v))]);
        rows.finish_rows(|row, _| sort_dedup_row(row)).1.len()
    }

    fn memory_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock(s).capacity() * std::mem::size_of::<(u32, u32, f32)>())
            .sum()
    }

    fn into_coo(self) -> Vec<(u32, u32, f32)> {
        // Merge, then combine duplicate coordinates by summing, in merge
        // order.
        let mut all: Buffer = Vec::with_capacity(self.total_samples());
        for s in self.shards {
            all.append(&mut s.into_inner().unwrap_or_else(PoisonError::into_inner));
        }
        let n = row_count(&all, |&(u, _, _)| u);
        let rows = group_by_row(&all, n, |&(u, v, w)| [Some((u, (v, w)))]);
        drop(all);
        let (row_ptr, entries) = rows.finish_rows(|row, scratch| {
            sort_merge_row(row, scratch, |&(v, _)| v, |a, b| a.1 += b.1)
        });
        let mut coo = vec![(0, 0, 0.0); entries.len()];
        par_row_blocks(&row_ptr, &mut coo, |rows, part| {
            let base = row_ptr[rows.start] as usize;
            for u in rows {
                let span = row_ptr[u] as usize..row_ptr[u + 1] as usize;
                for (out, &(v, w)) in
                    part[span.start - base..span.end - base].iter_mut().zip(&entries[span])
                {
                    *out = (u as u32, v, w);
                }
            }
        });
        coo
    }
}

/// One past the largest source vertex of `samples` (0 when empty).
fn row_count<T: Sync>(samples: &[T], row: impl Fn(&T) -> u32 + Sync + Send) -> usize {
    samples.par_iter().map(|s| row(s) as usize + 1).max().unwrap_or(0)
}

/// [`PipelineSource`] realizing NetSMF's stage-1 variant: per-thread
/// aggregation buffers instead of the shared hash table, merged and only
/// then loaded into the table the engine drains. (No propagation stage —
/// the configuration disables it.)
struct NetSmfSource<'a, G: GraphOps>(&'a G);

impl<G: GraphOps> PipelineSource for NetSmfSource<'_, G> {
    type Graph = G;

    fn graph(&self) -> &G {
        self.0
    }

    fn sparsify(
        &self,
        cfg: &SamplerConfig,
        shards: usize,
    ) -> Result<(ShardedEdgeTable, SamplerStats), SamplerError> {
        let agg = ThreadLocalAggregator::new();
        let stats = sample_into(self.0, cfg, &agg)?;
        Ok((table_from_coo(self.0.num_vertices(), shards, &agg.into_coo()), stats))
    }
}

impl NetSmf {
    /// Creates a NetSMF instance.
    pub fn new(cfg: NetSmfConfig) -> Self {
        Self { cfg }
    }

    /// Embeds the graph.
    pub fn embed<G: GraphOps>(&self, g: &G) -> NetSmfOutput {
        let cfg = &self.cfg;
        let engine_cfg = LightNeConfig {
            dim: cfg.dim,
            window: cfg.window,
            sample_ratio: cfg.sample_ratio,
            downsample: false,
            c_factor: None,
            prob: lightne_sparsifier::ProbScheme::Degree,
            negative: cfg.negative,
            oversampling: cfg.oversampling,
            power_iters: cfg.power_iters,
            propagation: None,
            seed: cfg.seed,
            shards: 0,
        };
        let out = run_pipeline(&engine_cfg, &NetSmfSource(g), RunOptions::default())
            .unwrap_or_else(|e| panic!("pipeline failed: {e}"));
        NetSmfOutput { embedding: out.embedding, sampler: out.sampler, stats: out.stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightne_core::{LightNe, LightNeConfig};
    use lightne_gen::generators::erdos_renyi;

    #[test]
    fn buffers_merge_duplicates_on_drain() {
        let agg = ThreadLocalAggregator::new();
        agg.add(1, 2, 1.0);
        agg.add(1, 2, 2.0);
        agg.add(0, 9, 0.5);
        assert_eq!(agg.total_samples(), 3);
        assert_eq!(agg.distinct_edges(), 2);
        assert_eq!(agg.into_coo(), vec![(0, 9, 0.5), (1, 2, 3.0)]);
    }

    #[test]
    fn parallel_adds_are_complete() {
        let agg = ThreadLocalAggregator::new();
        (0..4u32).into_par_iter().for_each(|t| {
            for i in 0..10_000u32 {
                agg.add(i % 100, t, 1.0);
            }
        });
        assert_eq!(agg.total_samples(), 40_000);
        let coo = agg.into_coo();
        assert_eq!(coo.len(), 400);
        assert!(coo.iter().all(|&(_, _, w)| w == 100.0));
    }

    #[test]
    fn buffer_memory_grows_with_samples_unlike_hash_table() {
        // The ablation's key contrast: same distinct edges, very different
        // memory when samples ≫ distinct edges.
        let buf = ThreadLocalAggregator::new();
        let table = ShardedEdgeTable::new(4, 1, 64);
        for _ in 0..100_000 {
            buf.add(1, 2, 1.0);
            table.add(1, 2, 1.0);
        }
        assert!(
            buf.memory_bytes() > 20 * table.memory_bytes(),
            "buffers {} vs table {}",
            buf.memory_bytes(),
            table.memory_bytes()
        );
    }

    #[test]
    fn produces_embedding() {
        let g = erdos_renyi(300, 3000, 1);
        let out = NetSmf::new(NetSmfConfig {
            dim: 16,
            window: 5,
            sample_ratio: 1.0,
            ..Default::default()
        })
        .embed(&g);
        assert_eq!(out.embedding.rows(), 300);
        assert_eq!(out.embedding.cols(), 16);
        assert!(out.stats.get("randomized svd").is_some());
    }

    #[test]
    fn memory_grows_with_samples_unlike_lightne() {
        // The §5.2.4 contrast in miniature: NetSMF's aggregation memory
        // scales with M, LightNE's with distinct kept entries.
        let g = erdos_renyi(400, 4000, 2);
        let small = NetSmf::new(NetSmfConfig {
            dim: 8,
            window: 5,
            sample_ratio: 0.5,
            ..Default::default()
        })
        .embed(&g);
        let large = NetSmf::new(NetSmfConfig {
            dim: 8,
            window: 5,
            sample_ratio: 4.0,
            ..Default::default()
        })
        .embed(&g);
        assert!(
            large.sampler.aggregator_bytes > 3 * small.sampler.aggregator_bytes,
            "netsmf memory should scale with samples: {} vs {}",
            large.sampler.aggregator_bytes,
            small.sampler.aggregator_bytes
        );

        // At a high sample ratio the contrast is stark: NetSMF buffers all
        // samples, while LightNE's table is capped by distinct pairs (at
        // most n² here, far fewer in general).
        let huge = NetSmf::new(NetSmfConfig {
            dim: 8,
            window: 5,
            sample_ratio: 16.0,
            ..Default::default()
        })
        .embed(&g);
        let lightne = LightNe::new(LightNeConfig {
            dim: 8,
            window: 5,
            sample_ratio: 16.0,
            ..Default::default()
        })
        .embed(&g);
        assert!(
            2 * lightne.sampler.aggregator_bytes < huge.sampler.aggregator_bytes,
            "lightne {} should use far less aggregation memory than netsmf {}",
            lightne.sampler.aggregator_bytes,
            huge.sampler.aggregator_bytes
        );
    }

    #[test]
    fn no_downsampling_keeps_every_trial() {
        let g = erdos_renyi(200, 2000, 3);
        let out = NetSmf::new(NetSmfConfig {
            dim: 8,
            window: 4,
            sample_ratio: 1.0,
            ..Default::default()
        })
        .embed(&g);
        assert_eq!(out.sampler.trials, out.sampler.kept);
    }
}
