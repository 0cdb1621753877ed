//! The sample → aggregate → NetMF data path.
//!
//! Samples are aggregated in a [`ShardedEdgeTable`] — one shard *is* the
//! paper's single shared hash table (§4.2); more shards let each resize
//! under its own lock — and every shard drains *directly* into its
//! contiguous CSR row block, with the NetMF truncated-log transform fused
//! into the drain:
//!
//! ```text
//! sample ──▶ N per-shard tables ──drain+sort+trunc_log──▶ row-blocked CSR
//! ```
//!
//! No global COO is ever built and no global sort runs: shard `s` owns the
//! source-vertex range `[lo_s, hi_s)`, so per-shard packed-key sorts
//! concatenate into the globally sorted entry order for free.
//!
//! **Output does not depend on the thread or shard count.** (1) Per-key
//! weights are fixed-point u64 sums, independent of insertion
//! interleaving and of which table held the key; (2) the concatenated
//! per-shard sort order is the global `(row, col)` order whatever the
//! shard boundaries; (3) the per-entry transform is `trunc_log_entry`,
//! applied entrywise with no cross-entry arithmetic. Re-adding a drained
//! `f32` through the fixed-point accumulator returns the same `f32`, so
//! a table rebuilt from its own drain ([`table_from_coo`] — how a resumed
//! run, the dynamic embedder and the NetSMF baseline enter this path)
//! drains to the same bytes again. `tests/sharded_path.rs` and
//! `tests/golden_embeddings.rs` at the workspace root assert this end to
//! end.

use crate::construct::{
    distinct_guess, sample_into, SamplerConfig, SamplerError, SamplerStats, SAMPLE_BATCH,
};
use crate::downsample::{expected_kept_samples, ProbScheme};
use crate::netmf::{netmf_factor, trunc_log_entry};
use lightne_graph::WeightedOps;
use lightne_hash::{EdgeAggregator, ShardedEdgeTable};
use lightne_linalg::CsrMatrix;
use rayon::prelude::*;

/// Resolves a configured shard count: `0` means the automatic heuristic.
pub fn resolve_shards(configured: usize, n_vertices: usize) -> usize {
    if configured == 0 {
        ShardedEdgeTable::auto_shards(n_vertices)
    } else {
        configured
    }
}

/// Pre-sizes each shard by its share of the expected *kept* samples: the
/// sampler's per-arc `E[n_e]·p_e`, summed over the arcs leaving each
/// shard's source range (the ranges in parallel), gives both the split
/// and — added up — the total [`distinct_guess`] bounds. Degree mass is
/// the wrong weight under downsampling: `p_e` falls with degree, so
/// hub-heavy ranges own more trials than kept samples, and with exact
/// capacities a degree-mass split resized `rmat_sample`'s tail shard.
/// Each shard then gets exactly `⌈share / 0.7⌉` slots. Capacities never
/// affect accumulated values, only resize counts.
fn kept_mass_expectations<G: WeightedOps>(g: &G, cfg: &SamplerConfig, shards: usize) -> Vec<usize> {
    let ranges = ShardedEdgeTable::shard_ranges(g.num_vertices(), shards);
    // Without downsampling every trial is kept: p_e = min(1, ∞) = 1.
    let (c, prob) = if cfg.downsample {
        (cfg.c(g.num_vertices()), cfg.prob)
    } else {
        (f64::INFINITY, ProbScheme::Degree)
    };
    let masses: Vec<f64> = ranges
        .par_iter()
        .map(|r| expected_kept_samples(g, cfg.samples, c, prob, r.clone()))
        .collect();
    let total: f64 = masses.iter().sum();
    let expected_total = distinct_guess(g, total);
    if total <= 0.0 {
        return vec![expected_total.div_ceil(ranges.len()); ranges.len()];
    }
    masses.iter().map(|m| (expected_total as f64 * m / total).ceil() as usize).collect()
}

/// Runs Algorithm 2 into a [`ShardedEdgeTable`] and returns the live
/// table (for the fused drain of [`sharded_to_netmf`]) plus statistics.
/// `shards == 0` selects the automatic heuristic.
///
/// ```
/// use lightne_graph::GraphBuilder;
/// use lightne_sparsifier::{build_sharded_sparsifier, SamplerConfig};
/// let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// let cfg = SamplerConfig { window: 2, samples: 10_000, ..Default::default() };
/// let (table, stats) = build_sharded_sparsifier(&g, &cfg, 0).unwrap();
/// assert!(!table.is_empty());
/// assert!(stats.trials >= 9_000 && stats.trials <= 11_000);
/// ```
///
/// # Errors
/// Propagates [`SamplerError`] from [`sample_into`].
pub fn build_sharded_sparsifier<G: WeightedOps>(
    g: &G,
    cfg: &SamplerConfig,
    shards: usize,
) -> Result<(ShardedEdgeTable, SamplerStats), SamplerError> {
    let n = g.num_vertices();
    let shards = resolve_shards(shards, n);
    let expectations = kept_mass_expectations(g, cfg, shards);
    let table = ShardedEdgeTable::with_expectations(n, shards, &expectations);
    let stats = sample_into(g, cfg, &table)?;
    Ok((table, stats))
}

/// Exists only for `benchmark/src/trace.rs`, which names the weighted
/// call separately.
pub use build_sharded_sparsifier as build_weighted_sharded_sparsifier;

/// Loads already-aggregated `(i, j, w)` triples into a table over `n`
/// vertices, so a sparsifier that did not come from
/// [`build_sharded_sparsifier`] — a checkpoint, a persistent table's
/// snapshot, another aggregator's drain — takes the same fused drain.
/// Weights that were drained from a table are reproduced exactly (module
/// docs); repeated coordinates accumulate. Entries go in as batches of
/// the sampler's size, one [`EdgeAggregator::add_batch`] each.
pub fn table_from_coo(n: usize, shards: usize, coo: &[(u32, u32, f32)]) -> ShardedEdgeTable {
    let table = ShardedEdgeTable::new(n, resolve_shards(shards, n), coo.len());
    coo.par_chunks(SAMPLE_BATCH).for_each(|batch| table.add_batch(batch));
    table
}

/// Fused drain: converts the sharded aggregate straight into the
/// truncated-log NetMF matrix. Each shard is sorted and transformed in
/// parallel and assembled as a contiguous CSR row block — the
/// untransformed sparsifier matrix never exists as a whole.
///
/// * `total_samples` — the `M` the sampler was configured with.
/// * `b` — the number of negative samples in the DeepWalk equivalence
///   (the paper uses `b = 1`).
pub fn sharded_to_netmf<G: WeightedOps>(
    g: &G,
    table: ShardedEdgeTable,
    total_samples: u64,
    b: f64,
) -> CsrMatrix {
    let n = g.num_vertices();
    let degrees: Vec<f64> = (0..n as u32).map(|v| g.weighted_degree(v)).collect();
    let factor = netmf_factor(g.volume(), total_samples, b);
    let runs = table
        .drain_map(|i, j, w| trunc_log_entry(factor, degrees[i as usize], degrees[j as usize], w));
    CsrMatrix::from_sharded_rows(n, n, runs)
}

/// Exists only for `benchmark/src/trace.rs`, which names the weighted
/// call separately.
pub use sharded_to_netmf as weighted_sharded_to_netmf;

/// Test convenience: Algorithm 2 into an automatically sharded table,
/// drained to COO.
#[cfg(test)]
pub(crate) fn sparsifier_coo<G: WeightedOps>(
    g: &G,
    cfg: &SamplerConfig,
) -> (Vec<(u32, u32, f32)>, SamplerStats) {
    let (table, stats) = build_sharded_sparsifier(g, cfg, 0).expect("graph can be sampled");
    (table.into_coo(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightne_gen::generators::erdos_renyi;

    fn assert_bitwise_equal(a: &CsrMatrix, b: &CsrMatrix) {
        assert_eq!(a.n_rows(), b.n_rows());
        assert_eq!(a.nnz(), b.nnz(), "nnz differs");
        for i in 0..a.n_rows() {
            let (ca, va) = a.row(i);
            let (cb, vb) = b.row(i);
            assert_eq!(ca, cb, "row {i} structure differs");
            for (x, y) in va.iter().zip(vb) {
                assert_eq!(x.to_bits(), y.to_bits(), "row {i} value bits differ");
            }
        }
    }

    /// The drained matrix is the same bytes at every shard count, and
    /// again after a round trip of the table through its own COO (the
    /// route a checkpointed or resumed run takes).
    #[test]
    fn fused_drain_is_shard_count_and_round_trip_invariant() {
        let g = erdos_renyi(300, 3_000, 77);
        let cfg = SamplerConfig {
            window: 5,
            samples: 200_000,
            downsample: true,
            c_factor: None,
            prob: ProbScheme::Degree,
            seed: 99,
        };
        let (table, s1) = build_sharded_sparsifier(&g, &cfg, 1).unwrap();
        let single = sharded_to_netmf(&g, table, cfg.samples, 1.0);
        for shards in [3usize, 8, 64] {
            let (table, s2) = build_sharded_sparsifier(&g, &cfg, shards).unwrap();
            assert_eq!(s1.trials, s2.trials);
            assert_eq!(s1.kept, s2.kept);
            assert_eq!(s1.distinct_entries, s2.distinct_entries);
            let mut coo = table.into_coo();
            coo.reverse();
            let reloaded = table_from_coo(300, shards + 1, &coo);
            assert_eq!(reloaded.len(), s1.distinct_entries);
            assert_bitwise_equal(&single, &sharded_to_netmf(&g, reloaded, cfg.samples, 1.0));
        }
    }

    #[test]
    fn sharded_errors_propagate() {
        let g = lightne_graph::GraphBuilder::from_edges(4, &[]);
        let cfg = SamplerConfig { samples: 100, ..Default::default() };
        match build_sharded_sparsifier(&g, &cfg, 4) {
            Err(e) => assert_eq!(e, SamplerError::EmptyGraph),
            Ok(_) => panic!("empty graph must not sample"),
        }
    }

    #[test]
    fn resolve_shards_auto_and_explicit() {
        assert_eq!(resolve_shards(7, 1000), 7);
        let auto = resolve_shards(0, 1 << 20);
        assert!(auto >= 1);
    }
}
