//! The sample → aggregate → NetMF data path.
//!
//! Samples are aggregated in a [`ShardedEdgeTable`] — one shard *is* the
//! paper's single shared hash table (§4.2); more shards let each resize
//! under its own lock — and every shard drains *directly* into its
//! contiguous CSR row block, with the NetMF truncated-log transform fused
//! into the drain:
//!
//! ```text
//! sample ──▶ N per-shard tables ──count+scatter+trunc_log──▶ row-blocked CSR
//! ```
//!
//! No global COO is ever built and no global sort runs: shard `s` owns the
//! source-vertex range `[lo_s, hi_s)`, so its drain counts keys per row,
//! sorts each short row as plain integers, and its row block lands in
//! place in the globally sorted entry order.
//!
//! **Output does not depend on the thread or shard count.** (1) Per-key
//! weights are fixed-point u64 sums, independent of insertion
//! interleaving and of which table held the key; (2) the concatenated
//! per-shard row blocks are in the global `(row, col)` order whatever the
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

/// Drains `table` into an `n × n` CSR matrix, applying `f(u, v, w)` to
/// every entry and dropping those mapped to `None`: each shard's counting
/// drain yields its CSR row block ([`ShardedEdgeTable::drain_map`]), and
/// the blocks are copied into place. Entries whose source lies outside
/// `[0, n)` (a table fed ids past its vertex count) have no row here and
/// are left out; `f` must drop those whose column does.
pub fn table_to_csr<F>(n: usize, table: ShardedEdgeTable, f: F) -> CsrMatrix
where
    F: Fn(u32, u32, f32) -> Option<f32> + Sync,
{
    let blocks = table.drain_map(f).into_iter().map(|r| (r.rows, r.counts, r.cols, r.vals));
    CsrMatrix::from_sharded_rows(n, n, blocks.collect())
}

/// Fused drain: converts the sharded aggregate straight into the
/// truncated-log NetMF matrix. Each shard is drained and transformed in
/// parallel into a contiguous CSR row block — the untransformed
/// sparsifier matrix never exists as a whole. An id outside `[0, n)`
/// reads as degree 0, so its entries truncate like an isolated vertex's.
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
    let degree = |v: u32| degrees.get(v as usize).copied().unwrap_or(0.0);
    let factor = netmf_factor(g.volume(), total_samples, b);
    table_to_csr(n, table, |i, j, w| trunc_log_entry(factor, degree(i), degree(j), w))
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

    /// Ids at or past `n` in a loaded table — a source (a stray in the
    /// last shard) or a column — have no degree: they drop out of the
    /// NetMF matrix instead of indexing out of bounds.
    #[test]
    fn out_of_range_ids_truncate_like_isolated_vertices() {
        let g = erdos_renyi(60, 300, 5);
        let cfg = SamplerConfig { window: 3, samples: 20_000, seed: 8, ..Default::default() };
        let (table, _) = build_sharded_sparsifier(&g, &cfg, 4).unwrap();
        let coo = table.into_coo();
        let mut forged = coo.clone();
        forged.extend([(60, 1, 9.0), (3, 60, 9.0), (u32::MAX - 1, 70, 9.0)]);
        let want = sharded_to_netmf(&g, table_from_coo(60, 4, &coo), cfg.samples, 1.0);
        let got = sharded_to_netmf(&g, table_from_coo(60, 4, &forged), cfg.samples, 1.0);
        assert_bitwise_equal(&got, &want);
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
