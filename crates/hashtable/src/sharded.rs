//! Source-vertex-range sharded edge aggregation.
//!
//! A [`ShardedEdgeTable`] splits the vertex id space `[0, n)` into `N`
//! contiguous ranges and gives each range its own folklore table (the
//! crate-private `concurrent` module). Two properties follow:
//!
//! * **Independent resizing.** A shard that crosses its load factor
//!   doubles under its *own* `RwLock`; samplers writing to the other
//!   `N − 1` shards never observe the stall. A single table's
//!   stop-the-world resize is the main scaling cliff this removes.
//! * **Batched inserts.** [`EdgeAggregator::add_batch`] buckets a batch by
//!   shard in one counting pass and hands each shard its slice whole: one
//!   read-lock acquisition, one `len` update and one overlapped round of
//!   home-slot misses per shard slice, instead of one of each per key.
//! * **Counting drain, no comparison sort.** Shard `s` owns the packed
//!   keys `(u, v)` with `u` in its range, and ranges are increasing in
//!   `s`. A drain owns its shard, so it reads the slot array directly:
//!   pass 1 counts the keys of each source row (an array sized by the
//!   row range), a prefix sum places the rows, and pass 2 writes each key
//!   into its row's segment as one `u64` — column in the high half, `f32`
//!   weight bits in the low half. Columns are unique within a row, so
//!   sorting a segment as plain integers puts it in column order. Each
//!   shard thus becomes a contiguous CSR row block ([`ShardRun`]), and
//!   the blocks in shard order are the *globally* sorted COO — the exact
//!   order `CsrMatrix::from_coo` produces. Shards drain in parallel.
//!
//! Determinism: every shard keeps the fixed-point u64 accumulation of the
//! underlying table, so accumulated weights are bitwise independent of the
//! thread interleaving, and the drain order above is independent of the
//! shard count. The drain is therefore byte-identical for any
//! `(threads, shards)` combination — `shards = 1` being the paper's single
//! shared table.

use crate::concurrent::{from_fixed, to_fixed, ConcurrentEdgeTable, EMPTY, SLOT_BYTES};
use crate::{pack_key, unpack_key, EdgeAggregator};
#[cfg(not(loom))]
use rayon::prelude::*;
use std::ops::Range;

/// Per-shard occupancy and resize counters, surfaced into `RunStats`.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Source-vertex range the shard owns.
    pub rows: Range<u32>,
    /// Distinct edges held.
    pub distinct: usize,
    /// Slot capacity.
    pub capacity: usize,
    /// Number of independent doublings this shard performed.
    pub resizes: usize,
}

/// One shard's drain, as a CSR row block: row `rows.start + r` holds the
/// next `counts[r]` entries of `cols`/`vals`, columns strictly ascending.
/// Concatenating the blocks in shard order gives the globally sorted COO.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Source-vertex range the shard owns.
    pub rows: Range<u32>,
    /// Kept entries per row of `rows`.
    pub counts: Vec<u32>,
    /// Column of every kept entry, row by row.
    pub cols: Vec<u32>,
    /// Value of every kept entry, parallel to `cols`.
    pub vals: Vec<f32>,
    /// Kept entries whose source lies outside `rows`, in packed-key order.
    /// Only [`ShardedEdgeTable::add_edge`] or `add_batch` with `u ≥
    /// n_vertices` makes them (such keys land in the last shard); no
    /// count array is ever sized by them.
    pub stray: Vec<(u32, u32, f32)>,
}

impl ShardRun {
    /// The block's entries in packed-key order, strays last.
    pub fn triples(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        let sources = self.rows.clone().zip(&self.counts);
        let row_of = sources.flat_map(|(u, &c)| std::iter::repeat_n(u, c as usize));
        let block = row_of.zip(&self.cols).zip(&self.vals).map(|((u, &v), &w)| (u, v, w));
        block.chain(self.stray.iter().copied())
    }
}

/// `N` folklore edge tables keyed by source-vertex range.
///
/// ```
/// use lightne_hash::ShardedEdgeTable;
/// let t = ShardedEdgeTable::new(100, 4, 64);
/// t.add_edge(1, 2, 0.5);
/// t.add_edge(1, 2, 1.5);
/// t.add_edge(80, 3, 1.0);
/// assert_eq!(t.get(1, 2), 2.0);
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.num_shards(), 4);
/// ```
pub struct ShardedEdgeTable {
    tables: Vec<ConcurrentEdgeTable>,
    /// Vertices per shard; shard of `u` is `u / span`.
    span: u32,
    n_vertices: usize,
}

impl ShardedEdgeTable {
    /// Creates a table over vertex ids `[0, n_vertices)` with (up to)
    /// `shards` shards, expecting roughly `expected_distinct` distinct
    /// edges in total. Each shard pre-sizes for its share.
    pub fn new(n_vertices: usize, shards: usize, expected_distinct: usize) -> Self {
        let nshards = Self::layout(n_vertices, shards).2;
        let per_shard = expected_distinct.div_ceil(nshards);
        Self::with_expectations(n_vertices, shards, &vec![per_shard; nshards])
    }

    /// Like [`Self::new`], but with a per-shard expected-distinct count
    /// (`expectations[s]` sizes shard `s`; its length must match
    /// [`Self::shard_ranges`]). Use when the key distribution over the
    /// vertex ranges is known to be skewed — the sampler sizes by each
    /// range's expected kept samples — so heavy shards start big instead
    /// of resizing their way up. Shard `s` gets exactly
    /// `⌈expectations[s] / 0.7⌉` slots, and the shards' arrays are built
    /// in parallel. Capacities never influence accumulated values, only
    /// resize counts.
    pub fn with_expectations(n_vertices: usize, shards: usize, expectations: &[usize]) -> Self {
        let (n, span, nshards) = Self::layout(n_vertices, shards);
        assert_eq!(expectations.len(), nshards, "one expectation per shard");
        let build = |&e: &usize| ConcurrentEdgeTable::with_expected(e);
        #[cfg(not(loom))]
        let tables = expectations.par_iter().map(build).collect();
        // Only loom-registered threads may create loom atomics.
        #[cfg(loom)]
        let tables = expectations.iter().map(build).collect();
        Self { tables, span: span as u32, n_vertices: n }
    }

    /// Like [`Self::new`], but pinning every shard's initial slot
    /// capacity (any size ≥ 1) instead of deriving it from an expected
    /// count. Test and model-checking hook: the loom models need tiny
    /// shards (3–8 slots) so resizes trigger within a handful of inserts
    /// and the interleaving space stays explorable.
    #[doc(hidden)]
    pub fn with_slot_capacity(n_vertices: usize, shards: usize, capacity: usize) -> Self {
        let (n, span, nshards) = Self::layout(n_vertices, shards);
        let tables =
            (0..nshards).map(|_| ConcurrentEdgeTable::with_slot_capacity(capacity)).collect();
        Self { tables, span: span as u32, n_vertices: n }
    }

    /// `(vertices, vertices per shard, actual shard count)` for a request
    /// of `shards` shards over `n_vertices` ids.
    fn layout(n_vertices: usize, shards: usize) -> (usize, usize, usize) {
        let n = n_vertices.max(1);
        let span = n.div_ceil(shards.clamp(1, n)).max(1);
        (n, span, n.div_ceil(span))
    }

    /// The vertex ranges `new` / `with_expectations` would assign to each
    /// shard (the trailing range may be shorter, and rounding can merge
    /// trailing shards — the returned length is the actual shard count).
    pub fn shard_ranges(n_vertices: usize, shards: usize) -> Vec<Range<u32>> {
        let (n, span, nshards) = Self::layout(n_vertices, shards);
        (0..nshards)
            .map(|s| {
                let lo = (s * span).min(n) as u32;
                let hi = ((s + 1) * span).min(n) as u32;
                lo..hi
            })
            .collect()
    }

    /// Creates a table with the automatic shard-count heuristic.
    pub fn with_auto(n_vertices: usize, expected_distinct: usize) -> Self {
        Self::new(n_vertices, Self::auto_shards(n_vertices), expected_distinct)
    }

    /// Shard-count heuristic: 4× the worker-thread count (rounded up to a
    /// power of two) so resize stalls stay localized even with skewed
    /// ranges, clamped so every shard still owns ≥ 64 vertices.
    pub fn auto_shards(n_vertices: usize) -> usize {
        let by_threads = (rayon::current_num_threads() * 4).next_power_of_two();
        by_threads.clamp(1, (n_vertices / 64).max(1))
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.tables.len()
    }

    /// Shard owning source vertex `u`.
    #[inline]
    pub fn shard_of(&self, u: u32) -> usize {
        ((u / self.span) as usize).min(self.tables.len() - 1)
    }

    /// Source-vertex range owned by shard `s`.
    pub fn shard_rows(&self, s: usize) -> Range<u32> {
        let lo = (s as u32).saturating_mul(self.span);
        let hi = lo.saturating_add(self.span).min(self.n_vertices as u32);
        lo..hi
    }

    /// Adds `weight` to edge `(u, v)`. Many adds at once go faster
    /// through [`EdgeAggregator::add_batch`].
    #[inline]
    pub fn add_edge(&self, u: u32, v: u32, weight: f32) {
        self.tables[self.shard_of(u)].add(&[(pack_key(u, v), to_fixed(weight))]);
    }

    /// Reads the accumulated weight of an edge (0.0 if absent).
    pub fn get(&self, u: u32, v: u32) -> f32 {
        self.tables[self.shard_of(u)].find(pack_key(u, v)).map_or(0.0, from_fixed)
    }

    /// Total distinct edges across all shards.
    pub fn len(&self) -> usize {
        self.tables.iter().map(|t| t.len()).sum()
    }

    /// Whether no edges have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard fill/resize counters.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        (0..self.tables.len())
            .map(|s| ShardStats {
                rows: self.shard_rows(s),
                distinct: self.tables[s].len(),
                capacity: self.tables[s].capacity(),
                resizes: self.tables[s].resizes(),
            })
            .collect()
    }

    /// Total independent resizes across shards.
    pub fn total_resizes(&self) -> usize {
        self.tables.iter().map(|t| t.resizes()).sum()
    }

    /// Non-destructive copy of every entry, in the order [`into_coo`]
    /// drains them (the dynamic embedder keeps accumulating into the table
    /// afterwards). Concurrent inserts during the scan may or may not be
    /// included, and an entry whose claiming insert is still mid-flight
    /// can surface with a partial (even zero) weight — callers that need
    /// exact totals must quiesce writers first.
    ///
    /// [`into_coo`]: EdgeAggregator::into_coo
    pub fn snapshot(&self) -> Vec<(u32, u32, f32)> {
        let mut coo = Vec::with_capacity(self.len());
        for (s, table) in self.tables.iter().enumerate() {
            // A copy, so that both counting passes see the same keys.
            let copy = table.copy_occupants();
            let buckets =
                RowBuckets::count_and_scatter(self.shard_rows(s), || copy.iter().copied());
            coo.extend(buckets.finish(&keep_weight).triples());
        }
        coo
    }

    /// Drains every shard in parallel into a CSR row block (module docs),
    /// applying `f(u, v, w)` to every entry on the way and dropping
    /// entries mapped to `None`. This is the hook the sparsifier uses to
    /// fuse the NetMF trunc-log transform into the drain, so the
    /// untransformed matrix is never materialized.
    pub fn drain_map<F>(self, f: F) -> Vec<ShardRun>
    where
        F: Fn(u32, u32, f32) -> Option<f32> + Sync,
    {
        let ranges: Vec<Range<u32>> = (0..self.tables.len()).map(|s| self.shard_rows(s)).collect();
        let drain_shard = |(table, rows): (ConcurrentEdgeTable, Range<u32>)| {
            let slots = table.into_slots();
            let buckets = RowBuckets::count_and_scatter(rows, || slots.contents());
            // The slot array is dead weight from here on.
            drop(slots);
            buckets.finish(&f)
        };
        #[cfg(not(loom))]
        {
            self.tables.into_par_iter().zip(ranges).map(drain_shard).collect()
        }
        #[cfg(loom)]
        {
            // Only loom-registered threads may touch loom atomics, so the
            // per-shard drain stays on the model thread.
            self.tables.into_iter().zip(ranges).map(drain_shard).collect()
        }
    }
}

/// The identity transform of [`ShardedEdgeTable::drain_map`].
fn keep_weight(_: u32, _: u32, w: f32) -> Option<f32> {
    Some(w)
}

/// One shard's keys bucketed by source row, the counting drain's middle:
/// `packed[starts[r]..starts[r + 1]]` holds row `rows.start + r`'s entries
/// as `column << 32 | weight bits` (an `f32`), in slot order.
struct RowBuckets {
    rows: Range<u32>,
    starts: Vec<usize>,
    packed: Vec<u64>,
    /// `(key, fixed-point weight)` of every key outside `rows`.
    stray: Vec<(u64, u64)>,
}

impl RowBuckets {
    /// Counts the keys of each source row (pass 1), prefix-sums the
    /// counts, and writes every key into its row's segment (pass 2).
    /// `slots` yields `(key, fixed-point weight)` pairs, a key of
    /// [`EMPTY`] marking an unclaimed slot, and must yield the same pairs
    /// on both calls. The count array is sized by the row range, never by
    /// a key: keys outside the range (and unclaimed slots) share one
    /// extra counter and one sink element in pass 2, so neither pass
    /// branches per slot, and the rare stray key is set aside in pass 1.
    fn count_and_scatter<I>(rows: Range<u32>, slots: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (u64, u64)>,
    {
        let width = rows.len();
        // A key's row within the range, or `width` for every other slot
        // (`EMPTY`'s source, u32::MAX, is never inside a `Range<u32>`).
        let row = |key: u64| (unpack_key(key).0.wrapping_sub(rows.start) as usize).min(width);
        let mut starts = vec![0usize; width + 2];
        let mut stray = Vec::new();
        for (key, raw) in slots() {
            let r = row(key);
            starts[r + 1] += 1;
            if (r == width) & (key != EMPTY) {
                stray.push((key, raw));
            }
        }
        for r in 0..width {
            starts[r + 1] += starts[r];
        }
        let total = starts[width];
        starts.truncate(width + 1);
        // Every out-of-range slot writes the sink at `total` and does not
        // advance its cursor.
        let mut next = starts.clone();
        let mut packed = vec![0u64; total + 1];
        for (key, raw) in slots() {
            let r = row(key);
            packed[next[r]] = key << 32 | u64::from(from_fixed(raw).to_bits());
            next[r] += usize::from(r < width);
        }
        packed.truncate(total);
        Self { rows, starts, packed, stray }
    }

    /// Sorts each row's segment as plain `u64`s — columns are unique
    /// within a row, so this is column order — then applies `f` and keeps
    /// the survivors.
    fn finish<F>(self, f: &F) -> ShardRun
    where
        F: Fn(u32, u32, f32) -> Option<f32>,
    {
        let Self { rows, starts, mut packed, mut stray } = self;
        let mut counts = vec![0u32; rows.len()];
        let (mut cols, mut vals) =
            (Vec::with_capacity(packed.len()), Vec::with_capacity(packed.len()));
        for ((r, u), count) in rows.clone().enumerate().zip(&mut counts) {
            let segment = &mut packed[starts[r]..starts[r + 1]];
            segment.sort_unstable();
            let first = cols.len();
            for &p in segment.iter() {
                let (v, bits) = unpack_key(p);
                if let Some(t) = f(u, v, f32::from_bits(bits)) {
                    cols.push(v);
                    vals.push(t);
                }
            }
            // Fits: 2³² keys in one row would take a 64 GiB slot array.
            *count = (cols.len() - first) as u32;
        }
        drop(packed);
        stray.sort_unstable_by_key(|&(key, _)| key);
        let stray = stray
            .into_iter()
            .filter_map(|(key, raw)| {
                let (u, v) = unpack_key(key);
                f(u, v, from_fixed(raw)).map(|t| (u, v, t))
            })
            .collect();
        ShardRun { rows, counts, cols, vals, stray }
    }
}

impl EdgeAggregator for ShardedEdgeTable {
    fn add(&self, u: u32, v: u32, weight: f32) {
        self.add_edge(u, v, weight);
    }

    /// One counting pass sizes a bucket per shard, a second fills them;
    /// each non-empty bucket then goes into its shard whole (module docs).
    /// Per-key totals are the same as `add` on each entry: fixed-point
    /// sums do not depend on order.
    fn add_batch(&self, batch: &[(u32, u32, f32)]) {
        let mut counts = vec![0usize; self.tables.len()];
        for &(u, _, _) in batch {
            counts[self.shard_of(u)] += 1;
        }
        let mut buckets: Vec<Vec<(u64, u64)>> =
            counts.into_iter().map(Vec::with_capacity).collect();
        for &(u, v, w) in batch {
            buckets[self.shard_of(u)].push((pack_key(u, v), to_fixed(w)));
        }
        for (table, bucket) in self.tables.iter().zip(&buckets) {
            if !bucket.is_empty() {
                table.add(bucket);
            }
        }
    }

    fn distinct_edges(&self) -> usize {
        self.len()
    }

    fn memory_bytes(&self) -> usize {
        self.tables.iter().map(|t| t.capacity() * SLOT_BYTES).sum()
    }

    fn into_coo(self) -> Vec<(u32, u32, f32)> {
        let mut coo = Vec::with_capacity(self.len());
        for run in self.drain_map(keep_weight) {
            coo.extend(run.triples());
        }
        coo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // Module-level rayon is compiled out under `--cfg loom`; the stress
    // tests below still drive the table through it (the loom models in
    // tests/loom_models.rs cover those interleavings exhaustively).
    #[cfg(loom)]
    use rayon::prelude::*;

    #[test]
    fn routes_by_source_range() {
        let t = ShardedEdgeTable::new(100, 4, 16);
        assert_eq!(t.num_shards(), 4);
        assert_eq!(t.shard_rows(0), 0..25);
        assert_eq!(t.shard_rows(3), 75..100);
        assert_eq!(t.shard_of(0), 0);
        assert_eq!(t.shard_of(24), 0);
        assert_eq!(t.shard_of(25), 1);
        assert_eq!(t.shard_of(99), 3);
    }

    #[test]
    fn shard_count_never_exceeds_vertices() {
        let t = ShardedEdgeTable::new(3, 16, 8);
        assert!(t.num_shards() <= 3);
        for u in 0..3u32 {
            t.add_edge(u, (u + 1) % 3, 1.0);
        }
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn accumulates_like_single_table() {
        let t = ShardedEdgeTable::new(1000, 8, 64);
        t.add_edge(1, 2, 1.5);
        t.add_edge(1, 2, 2.5);
        t.add_edge(999, 0, 1.0);
        assert_eq!(t.get(1, 2), 4.0);
        assert_eq!(t.get(999, 0), 1.0);
        assert_eq!(t.get(5, 5), 0.0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn sorted_runs_concatenate_globally_sorted() {
        let t = ShardedEdgeTable::new(64, 4, 16);
        // Insert in scrambled order across shards.
        for &(u, v, w) in
            &[(50u32, 1u32, 1.0f32), (3, 9, 2.0), (3, 1, 0.5), (20, 4, 1.0), (50, 0, 3.0)]
        {
            t.add_edge(u, v, w);
        }
        let runs = t.drain_map(keep_weight);
        let flat: Vec<(u32, u32, f32)> = runs.iter().flat_map(ShardRun::triples).collect();
        let mut sorted = flat.clone();
        sorted.sort_unstable_by_key(|&(u, v, _)| pack_key(u, v));
        assert_eq!(flat, sorted);
        for run in &runs {
            assert!(run.triples().all(|(u, _, _)| run.rows.contains(&u)));
            assert_eq!(run.counts.len(), run.rows.len());
        }
    }

    #[test]
    fn drain_map_filters_and_transforms() {
        let t = ShardedEdgeTable::new(16, 2, 8);
        t.add_edge(1, 2, 2.0);
        t.add_edge(9, 3, 4.0);
        t.add_edge(9, 4, 0.25);
        let runs = t.drain_map(|_, _, w| if w >= 1.0 { Some(w * 2.0) } else { None });
        let flat: Vec<(u32, u32, f32)> = runs.iter().flat_map(ShardRun::triples).collect();
        assert_eq!(flat, vec![(1, 2, 4.0), (9, 3, 8.0)]);
        assert_eq!((runs[1].counts[1], runs[1].counts.iter().sum::<u32>()), (1, 1));
    }

    #[test]
    fn one_shard_matches_eight_exactly() {
        // Same stream into the single shared table and a sharded one: the
        // fixed-point accumulation makes the drained lists identical.
        let global = ShardedEdgeTable::new(256, 1, 64);
        let sharded = ShardedEdgeTable::new(256, 8, 64);
        let mut state = 0x1234_5678_u64;
        for _ in 0..50_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = ((state >> 33) % 256) as u32;
            let v = ((state >> 17) % 256) as u32;
            let w = 0.25 + ((state >> 7) % 8) as f32 * 0.125;
            global.add_edge(u, v, w);
            sharded.add_edge(u, v, w);
        }
        let a = global.into_coo();
        let b = sharded.into_coo();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!((x.0, x.1), (y.0, y.1));
            assert_eq!(x.2.to_bits(), y.2.to_bits(), "weight mismatch at ({}, {})", x.0, x.1);
        }
    }

    #[test]
    fn ordered_pairs_are_distinct_keys() {
        let t = ShardedEdgeTable::new(4, 1, 16);
        t.add_edge(1, 2, 1.0);
        t.add_edge(2, 1, 3.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1, 2), 1.0);
        assert_eq!(t.get(2, 1), 3.0);
    }

    #[test]
    fn growth_keeps_exact_totals_and_snapshot_equals_drain() {
        // 16 slots per shard and 3 000 keys: every shard doubles at least
        // twice. Each key gets three deltas that are exact multiples of
        // 2⁻²⁰, spread over the run so most totals straddle a rehash.
        let t = ShardedEdgeTable::with_slot_capacity(3_000, 2, 16);
        let delta = |i: u32, pass: u32| (i % 7 + pass) as f32 * 0.125 + 1.0 / (1 << 20) as f32;
        for pass in 0..3u32 {
            for i in 0..3_000u32 {
                t.add_edge(i, i / 3, delta(i, pass));
            }
        }
        assert_eq!(t.len(), 3_000);
        for s in t.shard_stats() {
            assert!(s.resizes >= 2, "shard {:?} grew only {} times", s.rows, s.resizes);
            assert!(s.capacity >= 64);
        }
        for i in 0..3_000u32 {
            // Every delta and every total is a multiple of 2⁻²⁰ below 2⁴,
            // so the f64 sum is the exact fixed-point total.
            let want: f64 = (0..3).map(|p| delta(i, p) as f64).sum();
            assert_eq!(t.get(i, i / 3) as f64, want, "key {i} lost mass during growth");
        }
        let snap = t.snapshot();
        assert_eq!(snap.len(), 3_000);
        assert_eq!(snap, t.into_coo());
    }

    #[test]
    fn concurrent_inserts_exact_counts() {
        let t = ShardedEdgeTable::new(1001, 1, 4096);
        // 8 logical threads × 50k ops over 1000 distinct edges.
        (0..8).into_par_iter().for_each(|_| {
            for i in 0..50_000u32 {
                let e = i % 1000;
                t.add_edge(e, e + 1, 1.0);
            }
        });
        assert_eq!(t.len(), 1000);
        for e in 0..1000u32 {
            assert_eq!(t.get(e, e + 1), 400.0, "edge {e} lost updates");
        }
    }

    #[test]
    fn concurrent_growth_is_lossless() {
        let t = ShardedEdgeTable::new(8, 1, 1);
        (0..8).into_par_iter().for_each(|th: u32| {
            for i in 0..20_000u32 {
                t.add_edge(th, i, 1.0);
            }
        });
        assert_eq!(t.len(), 8 * 20_000);
        assert!(t.total_resizes() > 0);
        let total: f64 = t.into_coo().iter().map(|&(_, _, w)| w as f64).sum();
        assert_eq!(total, 8.0 * 20_000.0);
    }

    #[test]
    fn fractional_weights_accumulate() {
        let t = ShardedEdgeTable::new(2, 1, 8);
        for _ in 0..1000 {
            t.add_edge(0, 1, 0.25);
        }
        assert_eq!(t.get(0, 1), 250.0);
    }

    #[test]
    fn memory_is_sixteen_bytes_per_slot() {
        let t = ShardedEdgeTable::new(1 << 20, 4, 1_000_000);
        let slots: usize = t.shard_stats().iter().map(|s| s.capacity).sum();
        assert!(slots >= 1_000_000);
        assert_eq!(t.memory_bytes(), slots * 16);
    }

    /// Random batches through `add_batch` drain to the same bytes as the
    /// same entries through `add_edge`, at 1 / 3 / 8 / 65 shards of tiny
    /// tables (3 slots: slices grow them mid-slice) and at 1 / 2 / 7
    /// threads. Batch lengths up to 300 over 650 vertices straddle every
    /// shard boundary.
    #[cfg(not(loom))]
    #[test]
    fn add_batch_drains_like_add_edge() {
        let mut state = 0x9E37_79B9_u64;
        let mut next = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut batches: Vec<Vec<(u32, u32, f32)>> = Vec::new();
        for _ in 0..150 {
            let len = 1 + next(300) as usize;
            // v < 40 makes ~26 000 keys for ~22 000 entries: duplicates
            // within and across batches.
            let entry = |_| (next(650) as u32, next(40) as u32, next(1 << 16) as f32 / 997.0);
            batches.push((0..len).map(entry).collect());
        }
        let reference = ShardedEdgeTable::new(650, 1, 1 << 15);
        batches.iter().flatten().for_each(|&(u, v, w)| reference.add_edge(u, v, w));
        let reference = reference.into_coo();
        for threads in [1usize, 2, 7] {
            lightne_utils::parallel::configure_threads(threads);
            for shards in [1usize, 3, 8, 65] {
                let t = ShardedEdgeTable::with_slot_capacity(650, shards, 3);
                assert_eq!(t.num_shards(), shards);
                batches.par_iter().for_each(|b| t.add_batch(b));
                assert!(t.total_resizes() > 0);
                let drained = t.into_coo();
                assert_eq!(drained.len(), reference.len(), "{shards} shards @{threads}t");
                for (x, y) in drained.iter().zip(&reference) {
                    assert_eq!((x.0, x.1, x.2.to_bits()), (y.0, y.1, y.2.to_bits()));
                }
            }
        }
        lightne_utils::parallel::configure_threads(0);
    }

    /// The drain this module had before the counting drain, kept as its
    /// oracle: every entry collected, each shard comparison-sorted by
    /// packed key, then `f` applied and `None`s dropped.
    #[cfg(not(loom))]
    fn sort_then_filter(
        t: &ShardedEdgeTable,
        f: impl Fn(u32, u32, f32) -> Option<f32>,
    ) -> Vec<(u32, u32, f32)> {
        let mut out = Vec::new();
        for table in &t.tables {
            let mut entries: Vec<(u32, u32, f32)> = table
                .copy_occupants()
                .into_iter()
                .map(|(key, raw)| {
                    let (u, v) = unpack_key(key);
                    (u, v, from_fixed(raw))
                })
                .collect();
            entries.sort_unstable_by_key(|&(u, v, _)| pack_key(u, v));
            out.extend(entries.into_iter().filter_map(|(u, v, w)| f(u, v, w).map(|t| (u, v, t))));
        }
        out
    }

    #[cfg(not(loom))]
    fn assert_bitwise_equal(got: &[(u32, u32, f32)], want: &[(u32, u32, f32)], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (x, y) in got.iter().zip(want) {
            assert_eq!((x.0, x.1, x.2.to_bits()), (y.0, y.1, y.2.to_bits()), "{what}");
        }
    }

    /// The counting drain gives the sort-then-filter drain's bytes at
    /// 1 / 3 / 8 / 65 shards and 1 / 2 / 7 threads: with a row of more
    /// than 65 536 keys, a row of one, empty rows, a row `f` drops whole,
    /// duplicate keys, and sources at and past `n_vertices` (strays in the
    /// last shard, one of them near `u32::MAX`, so a count array sized by
    /// key would not fit in memory). `snapshot` equals `into_coo`.
    #[cfg(not(loom))]
    #[test]
    fn counting_drain_matches_sort_then_filter() {
        const N: u32 = 650;
        let mut state = 0x5EED_u64;
        let mut next = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut keys: Vec<(u32, u32, f32)> =
            (0..70_000u32).map(|v| (5, v * 3 + 1, 1.5 + (v % 5) as f32)).collect();
        keys.push((9, 4, 2.0));
        keys.extend((0..40).map(|v| (7, v, 3.0)));
        // Rows 10..20 stay empty.
        for _ in 0..30_000 {
            keys.push((20 + next(630) as u32, next(500) as u32, next(1 << 16) as f32 / 997.0));
        }
        keys.extend([(N + 3, 5, 1.5), (u32::MAX - 1, 2, 2.5), (N, 1, 0.25), (N + 3, 1, 4.0)]);
        let f = |u: u32, v: u32, w: f32| {
            (u != 7 && (w > 1.0 || v.is_multiple_of(3))).then(|| w.ln() + v as f32)
        };
        for threads in [1usize, 2, 7] {
            lightne_utils::parallel::configure_threads(threads);
            for shards in [1usize, 3, 8, 65] {
                let fill = || {
                    let t = ShardedEdgeTable::with_slot_capacity(N as usize, shards, 3);
                    keys.par_chunks(4096).for_each(|b| t.add_batch(b));
                    t
                };
                let what = format!("{shards} shards @{threads}t");
                let t = fill();
                let (all, kept) = (sort_then_filter(&t, keep_weight), sort_then_filter(&t, f));
                assert_bitwise_equal(&t.snapshot(), &all, &what);
                assert_bitwise_equal(&t.into_coo(), &all, &what);

                let runs = fill().drain_map(f);
                let count = |u: u32| {
                    let run = runs.iter().find(|r| r.rows.contains(&u)).unwrap();
                    run.counts[(u - run.rows.start) as usize]
                };
                assert_eq!((count(5), count(7), count(9), count(15)), (70_000, 0, 1, 0), "{what}");
                assert_eq!(runs.last().unwrap().stray.len(), 3, "{what}");
                for run in &runs {
                    assert_eq!(run.counts.len(), run.rows.len());
                    assert_eq!(
                        run.counts.iter().map(|&c| c as usize).sum::<usize>(),
                        run.cols.len()
                    );
                }
                let got: Vec<(u32, u32, f32)> = runs.iter().flat_map(ShardRun::triples).collect();
                assert_bitwise_equal(&got, &kept, &what);
            }
        }
        lightne_utils::parallel::configure_threads(0);
    }

    #[test]
    fn stats_report_resizes() {
        let t = ShardedEdgeTable::new(1 << 16, 4, 4);
        for i in 0..20_000u32 {
            t.add_edge(i % (1 << 16), i / 7, 1.0);
        }
        let stats = t.shard_stats();
        assert_eq!(stats.len(), 4);
        assert_eq!(stats.iter().map(|s| s.distinct).sum::<usize>(), t.len());
        assert!(t.total_resizes() > 0, "tiny initial shards must have grown");
    }
}
