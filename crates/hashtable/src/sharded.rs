//! Source-vertex-range sharded edge aggregation, one slot per unordered
//! pair.
//!
//! A [`ShardedEdgeTable`] splits the vertex id space `[0, n)` into `N`
//! contiguous ranges and gives each range its own folklore table (the
//! crate-private `concurrent` module).
//!
//! **One slot per pair.** The sparsifier is symmetric by construction —
//! every sample deposits its weight at `(a, b)` and at `(b, a)` — so the
//! table keeps the unordered pair `{u, v}` in one slot, under one of its
//! two orientations ([`pair_key`]): the *source* endpoint is picked by a
//! hash bit of the pair (or is the smaller id when the larger is past the
//! vertex count), so each vertex is the source of about half its pairs
//! and a shard's share of the slots follows its share of the sampled
//! mass. The slot holds the fixed-point sum `K = M_uv + M_vu` of both
//! orientations' adds; the table reads as the symmetric part of what was
//! added, `K/2` at `(u, v)` and at `(v, u)`, and `K` on the diagonal. On the sampler's
//! input `K` is twice each orientation's sum, so every entry is the `f32`
//! an oriented table would give, bit for bit — at half the slots, half
//! the probe misses and half the drain scan.
//!
//! * **Independent resizing.** A shard that crosses its load factor
//!   doubles under its *own* `RwLock`; samplers writing to the other
//!   `N − 1` shards never observe the stall.
//! * **Batched inserts.** [`EdgeAggregator::add_batch`] buckets a batch by
//!   shard in one counting pass and hands each shard its slice whole: one
//!   read-lock acquisition, one `len` update and one overlapped round of
//!   home-slot misses per shard slice, instead of one of each per key. A
//!   deposit whose slot key repeats the one before it in its slice — the
//!   sampler's `(b, a)` right after its `(a, b)` — joins that entry, so a
//!   sample costs one `fetch_add`.
//! * **Counting drain, no comparison sort.** A drain owns its shards and
//!   expands them into the full symmetric matrix, CSR row block by row
//!   block ([`ShardRun`]). Each shard counts its keys per source row off
//!   its slot array, places them — target in the high half of a `u64`,
//!   the entry's `f32` bits in the low half, so sorting a row as plain
//!   integers puts it in column order — into one array of every pair's
//!   source-row entries, and frees its slots. The mirrored half is then
//!   one stable counting sort of those entries by target
//!   (`lightne_utils::parallel::group_entries`, the by-column scatter a
//!   transpose is made of), whose rows come out ordered by source. Row
//!   `u` of the matrix is the merge of its two sorted lists; the blocks in
//!   shard order are the *globally* sorted COO — the exact order
//!   `CsrMatrix::from_coo` produces. No buffer the size of the output
//!   exists while the slot arrays do.
//!
//! Determinism: every shard keeps the fixed-point u64 accumulation of the
//! underlying table, so accumulated weights are bitwise independent of the
//! thread interleaving; the slot a pair takes depends on the pair alone;
//! and the drain order above is independent of the shard count. The
//! drain is therefore byte-identical for any `(threads, shards)`
//! combination — `shards = 1` being the paper's single shared table.

use crate::concurrent::{
    from_fixed, from_fixed_half, to_fixed, ConcurrentEdgeTable, Slots, EMPTY, SLOT_BYTES,
};
use crate::{pack_key, pair_key, unpack_key, EdgeAggregator};
use lightne_utils::parallel::group_entries;
#[cfg(not(loom))]
use rayon::prelude::*;
use std::ops::Range;

/// Per-shard occupancy and resize counters, surfaced into `RunStats`.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Source-vertex range the shard owns.
    pub rows: Range<u32>,
    /// Distinct unordered pairs held.
    pub distinct: usize,
    /// Slot capacity.
    pub capacity: usize,
    /// Number of independent doublings this shard performed.
    pub resizes: usize,
}

/// One shard's rows of the drained symmetric matrix, as a CSR row block:
/// row `rows.start + r` holds the next `counts[r]` entries of
/// `cols`/`vals`, columns strictly ascending. Concatenating the blocks in
/// shard order gives the globally sorted COO.
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
    /// Kept entries whose row lies at or past the vertex count, in
    /// packed-key order; only the last block has any. Only
    /// [`ShardedEdgeTable::add_edge`] or `add_batch` with an id `≥
    /// n_vertices` makes them; no count array is ever sized by them.
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

/// `N` folklore edge tables keyed by source-vertex range, one slot per
/// unordered pair (module docs).
///
/// ```
/// use lightne_hash::ShardedEdgeTable;
/// let t = ShardedEdgeTable::new(100, 4, 64);
/// t.add_edge(1, 2, 0.5);
/// t.add_edge(2, 1, 1.5);
/// t.add_edge(80, 80, 1.0);
/// // The slot of {1, 2} holds M_12 + M_21 = 2.0; `get` reads the
/// // symmetric part, (M_12 + M_21) / 2, in either orientation.
/// assert_eq!((t.get(1, 2), t.get(2, 1)), (1.0, 1.0));
/// assert_eq!(t.get(80, 80), 1.0);
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
    /// unordered pairs in total. Each shard pre-sizes for its share.
    pub fn new(n_vertices: usize, shards: usize, expected_distinct: usize) -> Self {
        let nshards = Self::layout(n_vertices, shards).2;
        let per_shard = expected_distinct.div_ceil(nshards);
        Self::with_expectations(n_vertices, shards, &vec![per_shard; nshards])
    }

    /// Like [`Self::new`], but with a per-shard expected count of pairs
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

    /// The slot of the unordered pair `{u, v}`: its shard and its key
    /// ([`pair_key`]), the same for either orientation.
    #[inline]
    fn slot_of_pair(&self, u: u32, v: u32) -> (usize, u64) {
        let key = pair_key(u, v, self.n_vertices);
        (self.shard_of(unpack_key(key).0), key)
    }

    /// Adds `weight` to edge `(u, v)` — to the slot of the pair `{u, v}`.
    /// Many adds at once go faster through [`EdgeAggregator::add_batch`].
    #[inline]
    pub fn add_edge(&self, u: u32, v: u32, weight: f32) {
        let (shard, key) = self.slot_of_pair(u, v);
        self.tables[shard].add(&[(key, to_fixed(weight))]);
    }

    /// Reads entry `(u, v)` of the symmetric part of what was added,
    /// `(M_uv + M_vu) / 2` (`M_uu` on the diagonal); 0.0 if absent.
    pub fn get(&self, u: u32, v: u32) -> f32 {
        let (shard, key) = self.slot_of_pair(u, v);
        self.tables[shard].find(key).map_or(0.0, |sum| entry_weight(u == v, sum))
    }

    /// Total distinct unordered pairs across all shards.
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

    /// Every shard's source-vertex range, in shard order.
    fn ranges(&self) -> Vec<Range<u32>> {
        (0..self.tables.len()).map(|s| self.shard_rows(s)).collect()
    }

    /// Non-destructive copy of every entry of the symmetric matrix, in the
    /// order [`into_coo`] drains them (the dynamic embedder keeps
    /// accumulating into the table afterwards). Concurrent inserts during
    /// the scan may or may not be included, and an entry whose claiming
    /// insert is still mid-flight can surface with a partial (even zero)
    /// weight — callers that need exact totals must quiesce writers first.
    ///
    /// [`into_coo`]: EdgeAggregator::into_coo
    pub fn snapshot(&self) -> Vec<(u32, u32, f32)> {
        // Copies, so that both counting passes see the same keys.
        let copies: Vec<Vec<(u64, u64)>> = self.tables.iter().map(|t| t.copy_occupants()).collect();
        let runs = expand(self.n_vertices, self.ranges(), copies, &keep_weight);
        runs.iter().flat_map(ShardRun::triples).collect()
    }

    /// Drains every shard into the symmetric matrix's CSR row blocks, one
    /// per shard (module docs), applying `f(u, v, w)` to every entry on
    /// the way and dropping entries mapped to `None`. This is the hook the
    /// sparsifier uses to fuse the NetMF trunc-log transform into the
    /// drain, so the untransformed matrix is never materialized.
    pub fn drain_map<F>(self, f: F) -> Vec<ShardRun>
    where
        F: Fn(u32, u32, f32) -> Option<f32> + Sync,
    {
        let ranges = self.ranges();
        let slots: Vec<Slots> = self.tables.into_iter().map(|t| t.into_slots()).collect();
        expand(self.n_vertices, ranges, slots, &f)
    }
}

/// The identity transform of [`ShardedEdgeTable::drain_map`].
fn keep_weight(_: u32, _: u32, w: f32) -> Option<f32> {
    Some(w)
}

/// The matrix entry a slot's fixed-point sum `sum` stands for: all of it
/// on the diagonal, half of it at each orientation off it.
#[inline]
fn entry_weight(diagonal: bool, sum: u64) -> f32 {
    if diagonal {
        from_fixed(sum)
    } else {
        from_fixed_half(sum)
    }
}

/// A shard's slots as a drain reads them: every `(key, fixed-point sum)`
/// in slot order, unclaimed slots (key [`EMPTY`]) included, the same
/// pairs on every call.
trait ShardSlots: Send + Sync {
    fn slot_pairs(&self) -> impl Iterator<Item = (u64, u64)> + '_;
}

/// The slot array of a table the drain owns.
impl ShardSlots for Slots {
    fn slot_pairs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.contents()
    }
}

/// A copy of a live table's claimed slots.
impl ShardSlots for Vec<(u64, u64)> {
    fn slot_pairs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.iter().copied()
    }
}

/// `items.map(f)` over the shards, in parallel — but on the calling thread
/// under the model checker, where only loom-registered threads may touch
/// the slots' atomics.
fn map_shards<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync + Send) -> Vec<R> {
    #[cfg(not(loom))]
    {
        items.into_par_iter().map(f).collect()
    }
    #[cfg(loom)]
    {
        items.into_iter().map(f).collect()
    }
}

/// Expands the shards' slots into the symmetric matrix's CSR row blocks,
/// one per shard (module docs), applying `f` on the way. Each shard's
/// slots are dropped as soon as its keys are placed.
fn expand<S, F>(n: usize, ranges: Vec<Range<u32>>, sources: Vec<S>, f: &F) -> Vec<ShardRun>
where
    S: ShardSlots,
    F: Fn(u32, u32, f32) -> Option<f32> + Sync,
{
    // Pass 1: each shard counts its keys per source row.
    let shards: Vec<(&S, Range<u32>)> = sources.iter().zip(ranges.iter().cloned()).collect();
    let counted = map_shards(shards, |(src, rows)| RowCounts::new(rows, src.slot_pairs()));

    // Row pointers of every pair's source-row entry, all shards together
    // (the ranges tile `[0, n)` in order).
    let mut source_ptr = Vec::with_capacity(n + 1);
    let mut total = 0u64;
    for shard in &counted {
        source_ptr.extend(shard.starts[..shard.width()].iter().map(|&s| total + s as u64));
        total += shard.total() as u64;
    }
    source_ptr.push(total);
    let mut entries = vec![0u64; total as usize];
    let mut spans = Vec::with_capacity(counted.len());
    let mut rest = entries.as_mut_slice();
    for shard in &counted {
        let (span, tail) = std::mem::take(&mut rest).split_at_mut(shard.total());
        spans.push(span);
        rest = tail;
    }

    // Pass 2: each shard places its keys, sorts its rows and frees its slots.
    let shards: Vec<_> = sources.into_iter().zip(counted).zip(spans).collect();
    let strays = map_shards(shards, |((src, counts), span)| counts.place(src.slot_pairs(), span));

    // The mirrored half: each off-diagonal entry `(s, t)` at row `t`,
    // grouped by target in source order.
    let (mirror_ptr, mirror) = group_entries(&source_ptr, n, |s, k| {
        let (t, bits) = unpack_key(entries[k]);
        (t != s && (t as usize) < n).then_some((t, (s, f32::from_bits(bits))))
    })
    .finish_rows(|row, _| row.len());

    let blocks = map_shards(ranges, |rows| {
        let range = rows.start as usize..rows.end as usize;
        let direct = |u: usize| &entries[source_ptr[u] as usize..source_ptr[u + 1] as usize];
        let mirrored = |u: usize| &mirror[mirror_ptr[u] as usize..mirror_ptr[u + 1] as usize];
        let capacity = (source_ptr[range.end] - source_ptr[range.start] + mirror_ptr[range.end]
            - mirror_ptr[range.start]) as usize;
        let mut run = ShardRun {
            rows,
            counts: Vec::with_capacity(range.len()),
            cols: Vec::with_capacity(capacity),
            vals: Vec::with_capacity(capacity),
            stray: Vec::new(),
        };
        for u in range {
            let first = run.cols.len();
            merge_row(direct(u), mirrored(u), |v, w| {
                if v as usize >= n {
                    // This entry's mirror has its row past the vertex count.
                    run.stray.push((v, u as u32, w));
                }
                if let Some(t) = f(u as u32, v, w) {
                    run.cols.push(v);
                    run.vals.push(t);
                }
            });
            // Fits: 2³² entries in one row would take a 64 GiB slot array.
            run.counts.push((run.cols.len() - first) as u32);
        }
        run
    });
    drop((entries, mirror));

    let mut runs = Vec::with_capacity(blocks.len());
    let mut stray: Vec<(u32, u32, f32)> = strays.into_iter().flatten().collect();
    for mut run in blocks {
        stray.append(&mut run.stray);
        runs.push(run);
    }
    stray.sort_unstable_by_key(|&(u, v, _)| pack_key(u, v));
    if let Some(last) = runs.last_mut() {
        last.stray =
            stray.into_iter().filter_map(|(u, v, w)| f(u, v, w).map(|t| (u, v, t))).collect();
    }
    runs
}

/// Calls `emit(column, weight)` on the entries of one row in column order:
/// the merge of its source-row entries (`target << 32 | weight bits`,
/// targets ascending) with its mirrored ones (`(source, weight)`, sources
/// ascending). A pair has one slot, so no column is in both.
fn merge_row(direct: &[u64], mirrored: &[(u32, f32)], mut emit: impl FnMut(u32, f32)) {
    let mut direct = direct.iter().map(|&p| {
        let (v, bits) = unpack_key(p);
        (v, f32::from_bits(bits))
    });
    let mut mirrored = mirrored.iter().copied();
    let (mut d, mut m) = (direct.next(), mirrored.next());
    loop {
        match (d, m) {
            (Some(a), Some(b)) if a.0 < b.0 => {
                emit(a.0, a.1);
                d = direct.next();
            }
            (_, Some(b)) => {
                emit(b.0, b.1);
                m = mirrored.next();
            }
            (Some(a), None) => {
                emit(a.0, a.1);
                d = direct.next();
            }
            (None, None) => break,
        }
    }
}

/// One shard's keys counted by source row, the counting drain's first
/// pass: row `rows.start + r`'s entries will occupy
/// `starts[r]..starts[r + 1]` of the shard's span.
struct RowCounts {
    rows: Range<u32>,
    starts: Vec<usize>,
}

impl RowCounts {
    /// A key's row within `rows`, or `width` for every other slot
    /// (`EMPTY`'s source, u32::MAX, is never inside a `Range<u32>`).
    #[inline]
    fn row_in_range(rows: &Range<u32>, key: u64) -> usize {
        (unpack_key(key).0.wrapping_sub(rows.start) as usize).min(rows.len())
    }

    /// Counts the keys of each source row and prefix-sums the counts. The
    /// count array is sized by the row range, never by a key: keys
    /// outside the range and unclaimed slots share one extra counter, so
    /// the pass does not branch per slot.
    fn new(rows: Range<u32>, slots: impl Iterator<Item = (u64, u64)>) -> Self {
        let width = rows.len();
        let mut starts = vec![0usize; width + 2];
        for (key, _) in slots {
            starts[Self::row_in_range(&rows, key) + 1] += 1;
        }
        for r in 0..width {
            starts[r + 1] += starts[r];
        }
        starts.truncate(width + 1);
        Self { rows, starts }
    }

    fn width(&self) -> usize {
        self.rows.len()
    }

    /// Entries of the shard's rows.
    fn total(&self) -> usize {
        self.starts[self.width()]
    }

    /// Writes every key of the shard's rows into its row's segment of
    /// `span` as `target << 32 | weight bits` (an `f32`, [`entry_weight`]),
    /// then sorts each segment as plain `u64`s — targets are unique within
    /// a row, so this is column order. `slots` must yield what it yielded
    /// to [`Self::new`]. Out-of-range slots write one sink element and do
    /// not advance their cursor, so the pass does not branch per slot;
    /// keys outside the range (sources past the vertex count, so both ids
    /// are) come back as the two entries they stand for.
    fn place(
        self,
        slots: impl Iterator<Item = (u64, u64)>,
        span: &mut [u64],
    ) -> Vec<(u32, u32, f32)> {
        let (width, total) = (self.width(), self.total());
        // Every out-of-range slot writes the sink at `total` and does not
        // advance its cursor.
        let mut next = self.starts.clone();
        let mut packed = vec![0u64; total + 1];
        let mut stray = Vec::new();
        for (key, sum) in slots {
            let r = Self::row_in_range(&self.rows, key);
            let (u, v) = unpack_key(key);
            let w = entry_weight(u == v, sum);
            packed[next[r]] = key << 32 | u64::from(w.to_bits());
            next[r] += usize::from(r < width);
            if (r == width) & (key != EMPTY) {
                stray.push((u, v, w));
                if u != v {
                    stray.push((v, u, w));
                }
            }
        }
        for r in 0..width {
            packed[self.starts[r]..self.starts[r + 1]].sort_unstable();
        }
        span.copy_from_slice(&packed[..total]);
        stray
    }
}

impl EdgeAggregator for ShardedEdgeTable {
    fn add(&self, u: u32, v: u32, weight: f32) {
        self.add_edge(u, v, weight);
    }

    /// One counting pass sizes a bucket per shard, a second fills them —
    /// a deposit whose slot key matches the last one in its bucket joins
    /// it; each non-empty bucket then goes into its shard whole (module
    /// docs). Per-pair totals are the same as `add` on each entry:
    /// fixed-point sums do not depend on order or grouping.
    fn add_batch(&self, batch: &[(u32, u32, f32)]) {
        let mut counts = vec![0usize; self.tables.len()];
        for &(u, v, _) in batch {
            counts[self.slot_of_pair(u, v).0] += 1;
        }
        let mut buckets: Vec<Vec<(u64, u64)>> =
            counts.into_iter().map(Vec::with_capacity).collect();
        for &(u, v, w) in batch {
            let (shard, key) = self.slot_of_pair(u, v);
            let bucket = &mut buckets[shard];
            match bucket.last_mut() {
                Some((last, sum)) if *last == key => *sum += to_fixed(w),
                _ => bucket.push((key, to_fixed(w))),
            }
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
        let runs = self.drain_map(keep_weight);
        let mut coo = Vec::with_capacity(runs.iter().map(|r| r.cols.len() + r.stray.len()).sum());
        for run in &runs {
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
        t.add_edge(2, 1, 2.5);
        t.add_edge(1, 2, 1.0);
        t.add_edge(999, 0, 1.0);
        t.add_edge(7, 7, 0.75);
        assert_eq!((t.get(1, 2), t.get(2, 1)), (2.5, 2.5));
        assert_eq!((t.get(999, 0), t.get(0, 999)), (0.5, 0.5));
        assert_eq!(t.get(7, 7), 0.75);
        assert_eq!(t.get(5, 5), 0.0);
        assert_eq!(t.len(), 3);
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
        t.add_edge(2, 1, 2.0);
        t.add_edge(9, 3, 4.0);
        t.add_edge(3, 9, 4.0);
        t.add_edge(9, 4, 0.25);
        t.add_edge(12, 12, 3.0);
        // `f` sees each orientation, and may treat them differently.
        let runs = t.drain_map(|u, _, w| if w >= 1.0 && u != 2 { Some(w * 2.0) } else { None });
        let flat: Vec<(u32, u32, f32)> = runs.iter().flat_map(ShardRun::triples).collect();
        assert_eq!(flat, vec![(1, 2, 4.0), (3, 9, 8.0), (9, 3, 8.0), (12, 12, 6.0)]);
        assert_eq!((runs[1].counts[1], runs[1].counts.iter().sum::<u32>()), (1, 2));
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
    fn both_orientations_share_one_slot() {
        let t = ShardedEdgeTable::new(4, 1, 16);
        t.add_edge(1, 2, 1.0);
        t.add_edge(2, 1, 3.0);
        assert_eq!(t.len(), 1);
        assert_eq!((t.get(1, 2), t.get(2, 1)), (2.0, 2.0));
        assert_eq!(t.into_coo(), vec![(1, 2, 2.0), (2, 1, 2.0)]);
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
        // (i, i / 3) is a distinct pair for every i; (0, 0) is diagonal.
        assert_eq!(t.len(), 3_000);
        for s in t.shard_stats() {
            assert!(s.resizes >= 2, "shard {:?} grew only {} times", s.rows, s.resizes);
            assert!(s.capacity >= 64);
        }
        for i in 0..3_000u32 {
            // Every delta and every total is a multiple of 2⁻²⁰ below 2⁴,
            // so the f64 sum is the exact fixed-point total; off the
            // diagonal the table reads half of it, rounded once.
            let sum: f64 = (0..3).map(|p| delta(i, p) as f64).sum();
            let want = if i == 0 { sum as f32 } else { (sum / 2.0) as f32 };
            assert_eq!(t.get(i, i / 3), want, "key {i} lost mass during growth");
        }
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2 * 3_000 - 1);
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
            assert_eq!(t.get(e, e + 1), 200.0, "edge {e} lost updates");
        }
    }

    #[test]
    fn concurrent_growth_is_lossless() {
        let t = ShardedEdgeTable::new(8, 1, 1);
        // Targets from 8 up: no pair is added from both of its ends.
        (0..8).into_par_iter().for_each(|th: u32| {
            for i in 8..20_008u32 {
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
        assert_eq!(t.get(0, 1), 125.0);
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

    /// The symmetric part of a sequence of directed adds, computed with no
    /// table: each ordered pair's fixed-point sum (one `to_fixed` per add,
    /// summed as integers), the two orientations' sums added per pair,
    /// then half of that at each orientation — all of it on the diagonal —
    /// rounded to `f32` once; sorted by packed key, `f` applied.
    #[cfg(not(loom))]
    fn symmetric_part(
        adds: &[(u32, u32, f32)],
        f: impl Fn(u32, u32, f32) -> Option<f32>,
    ) -> Vec<(u32, u32, f32)> {
        use std::collections::BTreeMap;
        let mut directed: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for &(u, v, w) in adds {
            *directed.entry((u, v)).or_default() += to_fixed(w);
        }
        let mut entries: BTreeMap<(u32, u32), f32> = BTreeMap::new();
        for &(u, v) in directed.keys() {
            let sum = |a, b| directed.get(&(a, b)).copied().unwrap_or(0);
            let w = if u == v {
                (sum(u, v) as f64 / (1u64 << 20) as f64) as f32
            } else {
                ((sum(u, v) + sum(v, u)) as f64 / (1u64 << 21) as f64) as f32
            };
            entries.insert((u, v), w);
            entries.insert((v, u), w);
        }
        entries.into_iter().filter_map(|((u, v), w)| f(u, v, w).map(|t| (u, v, t))).collect()
    }

    #[cfg(not(loom))]
    fn assert_bitwise_equal(got: &[(u32, u32, f32)], want: &[(u32, u32, f32)], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (x, y) in got.iter().zip(want) {
            assert_eq!((x.0, x.1, x.2.to_bits()), (y.0, y.1, y.2.to_bits()), "{what}");
        }
    }

    /// Random directed adds — asymmetric weights on the two orientations,
    /// a pair added from one end only, repeated keys, diagonal entries —
    /// drain to their exact symmetric part, at 1 / 3 / 8 / 65 shards of
    /// tiny tables (3 slots: every shard resizes) and 1 / 2 / 7 threads.
    /// The stream also holds a row of more than 65 536 entries, empty
    /// rows, a row `f` drops whole, and ids at and past `n_vertices` — one
    /// end past it (the entry's mirror is a stray of the last block), both
    /// ends past it (both orientations strays), one near `u32::MAX`, so a
    /// count array sized by key would not fit in memory. `snapshot`,
    /// `into_coo`, `get` and the transforming `drain_map` all agree with
    /// the oracle.
    #[cfg(not(loom))]
    #[test]
    fn directed_adds_drain_to_the_exact_symmetric_part() {
        const N: u32 = 650;
        let mut state = 0x5EED_u64;
        let mut next = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut adds: Vec<(u32, u32, f32)> =
            (0..70_000u32).map(|v| (5, v * 3 + 1, 1.5 + (v % 5) as f32)).collect();
        adds.push((9, 4, 2.0));
        adds.extend((0..40).map(|v| (7, v, 3.0)));
        // Rows 10..20 get entries only as some pair's far end.
        for _ in 0..30_000 {
            let (u, v) = (20 + next(630) as u32, next(500) as u32);
            let w = next(1 << 16) as f32 / 997.0;
            // Either orientation, or both with different weights, or the
            // diagonal.
            match next(4) {
                0 => adds.push((u, v, w)),
                1 => adds.push((v, u, w)),
                2 => adds.extend([(u, v, w), (v, u, w * 0.5 + 1.0)]),
                _ => adds.push((u, u, w)),
            }
        }
        adds.extend([(N + 3, 5, 1.5), (u32::MAX - 1, 2, 2.5), (N, 1, 0.25), (1, N + 3, 4.0)]);
        adds.extend([(N + 5, N + 9, 1.0), (u32::MAX - 3, N + 1, 2.0), (N + 2, N + 2, 0.5)]);
        let f = |u: u32, v: u32, w: f32| {
            (u != 7 && (w > 1.0 || v.is_multiple_of(3))).then(|| w.ln() + v as f32)
        };
        let (all, kept) = (symmetric_part(&adds, keep_weight), symmetric_part(&adds, f));
        for threads in [1usize, 2, 7] {
            lightne_utils::parallel::configure_threads(threads);
            for shards in [1usize, 3, 8, 65] {
                let fill = || {
                    let t = ShardedEdgeTable::with_slot_capacity(N as usize, shards, 3);
                    adds.par_chunks(4096).for_each(|b| t.add_batch(b));
                    t
                };
                let what = format!("{shards} shards @{threads}t");
                let t = fill();
                assert!(t.total_resizes() > 0, "{what}");
                for &(u, v, w) in all.iter().step_by(997) {
                    assert_eq!(t.get(u, v).to_bits(), w.to_bits(), "get({u}, {v}), {what}");
                }
                assert_bitwise_equal(&t.snapshot(), &all, &what);
                assert_bitwise_equal(&t.into_coo(), &all, &what);

                let runs = fill().drain_map(f);
                for run in &runs {
                    assert_eq!(run.counts.len(), run.rows.len());
                    assert_eq!(
                        run.counts.iter().map(|&c| c as usize).sum::<usize>(),
                        run.cols.len()
                    );
                }
                assert!(runs[..runs.len() - 1].iter().all(|r| r.stray.is_empty()), "{what}");
                let got: Vec<(u32, u32, f32)> = runs.iter().flat_map(ShardRun::triples).collect();
                assert_bitwise_equal(&got, &kept, &what);
            }
        }
        lightne_utils::parallel::configure_threads(0);
    }

    /// A deposit pair `(a, b, w)`, `(b, a, w)` — the sampler's shape —
    /// folds into one slot entry per slice, and its slot reads `w` at both
    /// orientations: the value an oriented table drained.
    #[test]
    fn a_sample_pair_reads_its_weight_at_both_orientations() {
        let t = ShardedEdgeTable::with_slot_capacity(64, 4, 8);
        t.add_batch(&[(3, 40, 0.3), (40, 3, 0.3), (9, 9, 0.7), (9, 9, 0.7), (3, 40, 0.3)]);
        t.add_batch(&[(40, 3, 0.3)]);
        assert_eq!(t.len(), 2);
        let w = |x: f32| from_fixed(to_fixed(x) * 2);
        assert_eq!(t.into_coo(), vec![(3, 40, w(0.3)), (9, 9, w(0.7)), (40, 3, w(0.3))]);
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
