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
//! No global COO is ever built and no global sort runs. The table holds
//! one slot per unordered pair, under the endpoint that is its *source*;
//! shard `s` owns the sources in `[lo_s, hi_s)`. The drain counts each
//! shard's keys per source row and places them — sorting each short row
//! as plain integers — freeing the shard's slots as it goes; one stable
//! counting sort by target (the by-column scatter a transpose is made of)
//! gives every row its mirrored entries, in source order; and each row of
//! the symmetric matrix is the merge of the two, its block landing in
//! place in the globally sorted entry order. The transform runs on the
//! merge, so each orientation is transformed on its own and the slot
//! arrays are gone before any output the size of the matrix exists.
//!
//! **Output does not depend on the thread or shard count.** (1) Per-pair
//! weights are fixed-point u64 sums, independent of insertion
//! interleaving and of which table held the pair, and a sample's two
//! deposits read back as the `f32` each orientation would sum to on its
//! own; (2) the concatenated per-shard row blocks are in the global
//! `(row, col)` order whatever the shard boundaries; (3) the per-entry transform is `trunc_log_entry`,
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
use lightne_utils::rng::mix2;
use rayon::prelude::*;
use std::cmp::Ordering;

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
/// and — added up — the total [`distinct_guess`] bounds. A kept sample
/// adds to one slot, under one of its two endpoints with even odds, so a
/// range's expected slots are its expected kept samples, not twice them.
/// Degree mass is the wrong weight under downsampling: `p_e` falls with
/// degree, so hub-heavy ranges own more trials than kept samples, and
/// with exact capacities a degree-mass split resized `rmat_sample`'s tail
/// shard.
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
/// docs); repeated coordinates accumulate. The table keeps the symmetric
/// part of what it is given, so the entries should be symmetric
/// ([`coo_is_symmetric`] checks). Entries go in as batches of the
/// sampler's size, one [`EdgeAggregator::add_batch`] each; the table is
/// sized for the pairs a symmetric list names, its entries with `i ≤ j`.
pub fn table_from_coo(n: usize, shards: usize, coo: &[(u32, u32, f32)]) -> ShardedEdgeTable {
    let pairs = coo.par_iter().filter(|&&(i, j, _)| i <= j).count();
    let table = ShardedEdgeTable::new(n, resolve_shards(shards, n), pairs);
    coo.par_chunks(SAMPLE_BATCH).for_each(|batch| table.add_batch(batch));
    table
}

/// Whether every off-diagonal `(i, j, w)` of `coo` has its mirror `(j, i,
/// w)` — the same `f32` bits — as often as itself: what a table's drain
/// always satisfies, and what [`table_from_coo`] needs to reproduce it
/// rather than average the two orientations. One pass, no allocation: a
/// 64-bit hash of `(min, max, weight bits)` is added for each entry with
/// `i < j` and subtracted for each with `i > j`, and the sum must cancel
/// (a list that is not symmetric passes only on a hash collision).
pub fn coo_is_symmetric(coo: &[(u32, u32, f32)]) -> bool {
    let signed = |&(i, j, w): &(u32, u32, f32)| {
        let pair = (u64::from(i.min(j)) << 32) | u64::from(i.max(j));
        let h = mix2(pair, u64::from(w.to_bits()));
        match i.cmp(&j) {
            Ordering::Less => h,
            Ordering::Equal => 0,
            Ordering::Greater => h.wrapping_neg(),
        }
    };
    coo.par_iter().map(signed).reduce(|| 0, u64::wrapping_add) == 0
}

/// Drains `table` into an `n × n` CSR matrix, applying `f(u, v, w)` to
/// every entry of the symmetric matrix — each orientation of a pair on
/// its own — and dropping those mapped to `None`: the table's drain
/// yields one CSR row block per shard ([`ShardedEdgeTable::drain_map`]),
/// and the blocks are copied into place. Entries whose row lies outside
/// `[0, n)` (a table fed ids past its vertex count) are left out; `f`
/// must drop those whose column does.
pub fn table_to_csr<F>(n: usize, table: ShardedEdgeTable, f: F) -> CsrMatrix
where
    F: Fn(u32, u32, f32) -> Option<f32> + Sync,
{
    let blocks = table.drain_map(f).into_iter().map(|r| (r.rows, r.counts, r.cols, r.vals));
    CsrMatrix::from_sharded_rows(n, n, blocks.collect())
}

/// Fused drain: converts the sharded aggregate straight into the
/// truncated-log NetMF matrix. The pairs are expanded into both
/// orientations and transformed in parallel, one contiguous CSR row block
/// per shard — the untransformed sparsifier matrix never exists as a
/// whole. An id outside `[0, n)` reads as degree 0, so its entries
/// truncate like an isolated vertex's.
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

    /// Every deposit the sampler makes, in arrival order.
    #[derive(Default)]
    struct Recording(std::sync::Mutex<Vec<(u32, u32, f32)>>);

    impl EdgeAggregator for Recording {
        fn add(&self, u: u32, v: u32, weight: f32) {
            self.0.lock().unwrap().push((u, v, weight));
        }

        fn distinct_edges(&self) -> usize {
            0
        }

        fn memory_bytes(&self) -> usize {
            0
        }

        fn into_coo(self) -> Vec<(u32, u32, f32)> {
            self.0.into_inner().unwrap()
        }
    }

    /// What the table drained when it kept each orientation in a slot of
    /// its own: per ordered pair, the sum of every deposit rounded to 20
    /// fractional bits, back to `f32`; sorted by `(row, column)`.
    fn oriented_drain(deposits: &[(u32, u32, f32)]) -> Vec<(u32, u32, f32)> {
        let mut sums: std::collections::BTreeMap<(u32, u32), u64> = Default::default();
        for &(u, v, w) in deposits {
            *sums.entry((u, v)).or_default() += (w as f64 * (1u64 << 20) as f64).round() as u64;
        }
        sums.into_iter()
            .map(|((u, v), raw)| (u, v, (raw as f64 / (1u64 << 20) as f64) as f32))
            .collect()
    }

    fn bits(coo: &[(u32, u32, f32)]) -> Vec<(u32, u32, u32)> {
        coo.iter().map(|&(u, v, w)| (u, v, w.to_bits())).collect()
    }

    /// On the sampler's input — with downsampling, so weights are not
    /// integers — the one-slot-per-pair table drains the bytes of the
    /// oriented table it replaced, at 1 / 3 / 8 / 64 shards and 1 and 2
    /// threads, without a resize; feeding its drain back through
    /// [`table_from_coo`] drains it again unchanged.
    fn check_oriented_bytes<G: WeightedOps>(g: &G, cfg: &SamplerConfig, what: &str) {
        let recording = Recording::default();
        let stats = sample_into(g, cfg, &recording).unwrap();
        let deposits = recording.into_coo();
        assert_eq!(deposits.len() as u64, 2 * stats.kept);
        let want = bits(&oriented_drain(&deposits));
        for threads in [1, 2] {
            lightne_utils::parallel::configure_threads(threads);
            for shards in [1usize, 3, 8, 64] {
                let what = format!("{what}, {shards} shards @{threads}t");
                let (table, s) = build_sharded_sparsifier(g, cfg, shards).unwrap();
                assert_eq!((s.kept, table.total_resizes()), (stats.kept, 0), "{what}");
                let coo = table.into_coo();
                assert_eq!(bits(&coo), want, "{what}");
                assert!(coo_is_symmetric(&coo), "{what}");
                let again = table_from_coo(g.num_vertices(), shards, &coo);
                assert_eq!(again.len(), s.distinct_entries, "{what}");
                assert_eq!(bits(&again.into_coo()), want, "{what}: table_from_coo ∘ into_coo");
            }
        }
        lightne_utils::parallel::configure_threads(0);
    }

    #[test]
    fn sampler_input_drains_like_the_oriented_table() {
        let g = erdos_renyi(300, 3_000, 41);
        let cfg = SamplerConfig { window: 5, samples: 150_000, seed: 12, ..Default::default() };
        check_oriented_bytes(&g, &cfg, "unweighted");
        let mut rng = lightne_utils::rng::XorShiftStream::new(3, 0);
        let edges: Vec<(u32, u32, f32)> = (0..300u32)
            .flat_map(|u| (1..6u32).map(move |k| (u, (u * 7 + k * 31) % 300)))
            .filter(|&(u, v)| u != v)
            .map(|(u, v)| (u, v, 0.25 + 4.0 * rng.unit_f32()))
            .collect();
        let weighted = lightne_graph::WeightedGraph::from_edges(300, &edges);
        check_oriented_bytes(&weighted, &cfg, "weighted");
    }

    /// The check [`table_from_coo`]'s callers run on a loaded list: a
    /// drained list passes in any order; a changed weight, a missing
    /// mirror, or an entry repeated without its mirror does not; the
    /// diagonal needs no mirror.
    #[test]
    fn symmetric_lists_are_told_from_asymmetric_ones() {
        let good = vec![(0, 1, 0.5), (0, 0, 2.0), (1, 0, 0.5), (2, 5, 1.25), (5, 2, 1.25)];
        assert!(coo_is_symmetric(&good) && coo_is_symmetric(&[]));
        let mut reversed = good.clone();
        reversed.reverse();
        assert!(coo_is_symmetric(&reversed));
        let mut reweighted = good.clone();
        reweighted[4].2 = 1.5;
        let unmirrored = good[..4].to_vec();
        let mut doubled = good.clone();
        doubled.push((2, 5, 1.25));
        for bad in [reweighted, unmirrored, doubled] {
            assert!(!coo_is_symmetric(&bad), "{bad:?}");
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
