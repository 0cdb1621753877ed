//! Bulk-parallel primitives in the style of GBBS/Ligra.
//!
//! GBBS exposes `parallel_for`, scans and reductions with automatic
//! granularity control on a work-stealing scheduler. The vendored runtime
//! (`vendor/rayon`) gives the same shape with a simpler mechanism: a
//! persistent pool of helper threads, a region cut into fixed-length
//! blocks (eight per thread) that the workers claim dynamically — each
//! from its own run of blocks first, then from the others' — and block
//! results read back in block order, so output order never depends on who
//! ran what. This module adds the handful of
//! patterns the rest of the workspace needs on top of it: an index loop,
//! an exclusive parallel prefix sum, the stable counting sort by row that
//! every CSR is built with ([`group_by_row`]; [`group_entries`] runs it
//! over a CSR's own entries, which is how a transpose is taken), and
//! fixed-bracketing reductions.
//!
//! The counting sort allocates every buffer — histograms, scratch, output
//! — on the calling thread before it opens a parallel region; its workers
//! only write into disjoint slices of those buffers. A buffer first
//! allocated inside a worker lands in that thread's malloc arena, which
//! keeps the memory resident after the build is over.

use rayon::prelude::*;
use std::ops::Range;

/// Number of worker threads in the global rayon pool.
pub fn num_threads() -> usize {
    rayon::current_num_threads()
}

/// Sizes the global rayon pool to `n` worker threads (0 = the default,
/// one per available core) and returns the resulting pool size.
///
/// May be called at any time and repeatedly: `build_global` of the
/// vendored runtime records the count and never fails. The pool's helper
/// threads are persistent — spawned by the first region that wants them,
/// parked between regions, never torn down — and a region admits the
/// first `n − 1` of them, so sizing down costs nothing and sizing up
/// spawns the difference once. At `n = 1` every region runs inline on
/// its caller and no helper is ever created. The `--threads` flag, the
/// benchmark and the thread-count determinism tests all re-size this way
/// mid-process. (The published rayon rejects a second `build_global`;
/// the ignored `Result` below is what a swap back to it would have to
/// handle.)
pub fn configure_threads(n: usize) -> usize {
    let _ = rayon::ThreadPoolBuilder::new().num_threads(n).build_global();
    num_threads()
}

/// Chunk length for a caller that cuts `n` indices into chunks *itself*
/// and whose per-index body is a few instructions (the prefix sum below:
/// one add per index): ~8 chunks per thread, but never under 1024
/// indices, so that a chunk outweighs the claim that hands it out. Loops
/// with a real body should not floor their grain — [`par_for`] leaves the
/// block length to the runtime.
pub fn par_chunk_size(n: usize) -> usize {
    let tasks = num_threads().saturating_mul(8).max(1);
    (n / tasks).max(1024).min(n.max(1))
}

/// Parallel loop over `0..n`, calling `f(i)` for each index.
///
/// The runtime cuts `0..n` into its fixed-length blocks (no floor here: a
/// 2048-index loop whose first indices carry most of the work must still
/// split finely enough to balance) and the workers claim them
/// dynamically. `f` must be safe to call concurrently; use this for
/// side-effecting loops over disjoint state.
pub fn par_for<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync + Send,
{
    (0..n).into_par_iter().for_each(f);
}

/// Exclusive parallel prefix sum over `u64` values.
///
/// Returns a vector `out` of length `input.len() + 1` with `out[0] == 0` and
/// `out[i] == input[0] + .. + input[i-1]`; `out[n]` is the total. This is the
/// classic two-pass (block-sums then rescan) algorithm used by GBBS for CSR
/// offset construction.
pub fn parallel_prefix_sum(input: &[u64]) -> Vec<u64> {
    let n = input.len();
    let mut out = vec![0u64; n + 1];
    if n == 0 {
        return out;
    }
    let chunk = par_chunk_size(n);
    let nblocks = n.div_ceil(chunk);
    if nblocks <= 1 {
        let mut acc = 0u64;
        for (i, &v) in input.iter().enumerate() {
            out[i] = acc;
            acc += v;
        }
        out[n] = acc;
        return out;
    }

    // Pass 1: per-block sums, into a buffer allocated here.
    let mut block_sums = vec![0u64; nblocks];
    block_sums.par_iter_mut().zip(input.par_chunks(chunk)).for_each(|(sum, block)| {
        *sum = block.iter().sum();
    });

    // Sequential scan over block sums (nblocks is small).
    let mut block_offsets = vec![0u64; nblocks + 1];
    for b in 0..nblocks {
        block_offsets[b + 1] = block_offsets[b] + block_sums[b];
    }
    let total = block_offsets[nblocks];

    // Pass 2: rescan each block with its offset, writing disjoint slices.
    out[..n].par_chunks_mut(chunk).enumerate().for_each(|(b, out_block)| {
        let lo = b * chunk;
        let mut acc = block_offsets[b];
        for (o, &v) in out_block.iter_mut().zip(&input[lo..]) {
            *o = acc;
            acc += v;
        }
    });
    out[n] = total;
    out
}

/// Input items per chunk of [`group_by_row`]'s counting passes, at least.
/// A chunk grows to eight items per row block, so the per-chunk
/// histograms together never outgrow an eighth of the input. Fixed,
/// never derived from the thread count.
const ROW_SORT_CHUNK: usize = 1 << 14;

/// Arcs per row block [`group_by_row`] aims for: a block's row pointers
/// and items stay cache-resident while its rows are counted and placed.
const ROW_SORT_BLOCK_ARCS: usize = 1 << 14;

/// Most rows one block spans, so that many rows with few arcs still cut
/// into enough blocks to share out.
const ROW_SORT_BLOCK_ROWS: usize = 1 << 14;

/// Most row blocks: the first pass keeps one counter per block per chunk.
const ROW_SORT_MAX_BLOCKS: usize = 1 << 16;

/// Rows per block of [`par_row_blocks`].
const ROW_BLOCK: usize = 1 << 10;

/// Rows grouped by [`group_by_row`]'s stable counting sort: row `r`'s
/// items are `items[row_ptr[r]..row_ptr[r + 1]]`, in input order.
/// [`RowGroups::finish_rows`] then sorts and combines each row.
#[derive(Debug)]
pub struct RowGroups<T> {
    /// log₂ of the rows per block.
    shift: u32,
    row_ptr: Vec<u64>,
    items: Vec<T>,
    /// One buffer per row block, as long as the block's span of `items`:
    /// the first level's output, then the per-row scratch
    /// [`RowGroups::finish_rows`] hands its callback.
    spare: Vec<Vec<(u32, T)>>,
}

/// log₂ of the rows per block for `n_rows` rows and at most `arcs` arcs:
/// the fewest rows per block that make the blocks [`ROW_SORT_BLOCK_ARCS`]
/// arcs or [`ROW_SORT_BLOCK_ROWS`] rows apiece, at most
/// [`ROW_SORT_MAX_BLOCKS`] of them.
fn row_block_shift(n_rows: usize, arcs: usize) -> u32 {
    let want = (arcs / ROW_SORT_BLOCK_ARCS)
        .max(n_rows / ROW_SORT_BLOCK_ROWS)
        .clamp(1, ROW_SORT_MAX_BLOCKS);
    let mut shift = 0;
    while n_rows.div_ceil(1 << shift) > want {
        shift += 1;
    }
    shift
}

/// Cuts `slice` into consecutive pieces of the given lengths.
fn split_lengths<T>(mut slice: &mut [T], lens: impl Iterator<Item = usize>) -> Vec<&mut [T]> {
    let mut pieces = Vec::with_capacity(lens.size_hint().0);
    for len in lens {
        let (head, tail) = std::mem::take(&mut slice).split_at_mut(len);
        pieces.push(head);
        slice = tail;
    }
    pieces
}

/// Where [`group_by_row`]'s counting passes read their arcs from: a run
/// of input positions, each with zero or more `(row, item)` arcs.
trait ArcSource<T>: Sync {
    /// Calls `emit(row, item)` on every arc of the positions in `range`,
    /// in position order.
    fn for_each_arc(&self, range: Range<usize>, emit: impl FnMut(u32, T));
}

/// The arcs of a slice: item `x` yields `arcs(x)`.
struct SliceArcs<'a, I, F> {
    input: &'a [I],
    arcs: F,
}

impl<I, T, const N: usize, F> ArcSource<T> for SliceArcs<'_, I, F>
where
    I: Sync,
    F: Fn(&I) -> [Option<(u32, T)>; N] + Sync,
{
    #[inline]
    fn for_each_arc(&self, range: Range<usize>, mut emit: impl FnMut(u32, T)) {
        for x in &self.input[range] {
            for (row, item) in (self.arcs)(x).into_iter().flatten() {
                emit(row, item);
            }
        }
    }
}

/// The arcs of CSR-shaped arrays: entry `k` of row `r` yields `arc(r, k)`.
struct EntryArcs<'a, F> {
    row_ptr: &'a [u64],
    arc: F,
}

impl<T, F> ArcSource<T> for EntryArcs<'_, F>
where
    F: Fn(u32, usize) -> Option<(u32, T)> + Sync,
{
    #[inline]
    fn for_each_arc(&self, range: Range<usize>, mut emit: impl FnMut(u32, T)) {
        if range.is_empty() {
            return;
        }
        // The row holding the first entry: the last row that starts at or
        // before it (empty rows start where the next one does).
        let mut r = self.row_ptr.partition_point(|&p| p as usize <= range.start) - 1;
        for k in range {
            while self.row_ptr[r + 1] as usize <= k {
                r += 1;
            }
            if let Some((row, item)) = (self.arc)(r as u32, k) {
                emit(row, item);
            }
        }
    }
}

/// Stable parallel counting sort by row: every input item yields up to
/// `N` arcs `(row, item)` (`arcs` returns them, `None` for none), and the
/// result holds each row's items contiguously, rows ascending, the items
/// of one row in input order — the same bytes at any thread count.
///
/// Two levels, so that no histogram is as long as the row count times the
/// chunk count. The rows are cut into blocks of `2^s` consecutive rows
/// (at most 2¹⁶ blocks), each with a scratch buffer of its own — many
/// small transients rather than one the size of the arcs, which malloc
/// would leave behind as a hole in its heap after set-up. First
/// level, over fixed-size chunks of the input: each chunk counts its arcs
/// per block; a sequential scan of the counts cuts every block's buffer
/// into one piece per chunk, in chunk order; each chunk scatters its arcs
/// into its pieces. Second level, over the blocks: each block counts its
/// arcs per row into its span of the row pointers, prefix-sums the span
/// and scatters the items into its span of the output. Both scatters keep
/// input order, so the sort is stable. O(m + n) work; the scratch is one
/// `(row, item)` copy of the arcs.
///
/// # Panics
/// If an arc's row is not below `n_rows` (checked once, while counting).
pub fn group_by_row<I, T, const N: usize, F>(input: &[I], n_rows: usize, arcs: F) -> RowGroups<T>
where
    I: Sync,
    T: Copy + Default + Send + Sync,
    F: Fn(&I) -> [Option<(u32, T)>; N] + Sync,
{
    let max_arcs = input.len().saturating_mul(N);
    group_arcs(input.len(), max_arcs, n_rows, &SliceArcs { input, arcs })
}

/// [`group_by_row`] over the entries of CSR-shaped arrays, straight from
/// them: entry `k` of row `r` — `row_ptr[r] ≤ k < row_ptr[r + 1]` — yields
/// the arc `arc(r, k)`, or none. Grouping by column is the by-column
/// scatter a transpose is made of (`arc(r, k) = (col[k], (r, val[k]))`):
/// stable, so each column's rows come out ascending, with no list of
/// triples built in between.
///
/// # Panics
/// If an arc's row is not below `n_rows`.
pub fn group_entries<T, F>(row_ptr: &[u64], n_rows: usize, arc: F) -> RowGroups<T>
where
    T: Copy + Default + Send + Sync,
    F: Fn(u32, usize) -> Option<(u32, T)> + Sync,
{
    let entries = row_ptr.last().map_or(0, |&e| e as usize);
    group_arcs(entries, entries, n_rows, &EntryArcs { row_ptr, arc })
}

/// The counting sort of [`group_by_row`] over `positions` input positions
/// with at most `max_arcs` arcs among them.
fn group_arcs<T, S>(positions: usize, max_arcs: usize, n_rows: usize, source: &S) -> RowGroups<T>
where
    T: Copy + Default + Send + Sync,
    S: ArcSource<T>,
{
    let shift = row_block_shift(n_rows, max_arcs);
    let rows_per_block = 1usize << shift;
    let blocks = n_rows.div_ceil(rows_per_block).max(1);
    let chunk = ROW_SORT_CHUNK.max(blocks * 8);
    let chunks = positions.div_ceil(chunk);
    let part = |c: usize| c * chunk..((c + 1) * chunk).min(positions);
    let block_of = |row: u32| (row as usize) >> shift;

    // Level 1, pass 1: each chunk counts its arcs per row block.
    let mut hist = vec![0u32; chunks * blocks];
    hist.par_chunks_mut(blocks).enumerate().for_each(|(c, counts)| {
        source.for_each_arc(part(c), |row, _| {
            assert!((row as usize) < n_rows, "row {row} out of range for {n_rows} rows");
            counts[block_of(row)] += 1;
        });
    });

    // Pass 2, sequential over the counts: each block's buffer, cut into
    // one piece per chunk in chunk order.
    let mut block_len = vec![0usize; blocks];
    for counts in hist.chunks(blocks) {
        for (len, &k) in block_len.iter_mut().zip(counts) {
            *len += k as usize;
        }
    }
    let mut spare: Vec<Vec<(u32, T)>> =
        block_len.iter().map(|&len| vec![(0, T::default()); len]).collect();
    let mut pieces: Vec<Vec<&mut [(u32, T)]>> =
        (0..chunks).map(|_| Vec::with_capacity(blocks)).collect();
    for (b, buffer) in spare.iter_mut().enumerate() {
        let mut rest = buffer.as_mut_slice();
        for (c, to) in pieces.iter_mut().enumerate() {
            let (piece, tail) =
                std::mem::take(&mut rest).split_at_mut(hist[c * blocks + b] as usize);
            to.push(piece);
            rest = tail;
        }
    }

    // Pass 3: each chunk scatters its arcs into its pieces.
    hist.par_chunks_mut(blocks).zip(pieces).enumerate().for_each(|(c, (cursor, mut to))| {
        cursor.fill(0);
        source.for_each_arc(part(c), |row, item| {
            let b = block_of(row);
            to[b][cursor[b] as usize] = (row, item);
            cursor[b] += 1;
        });
    });

    // Level 2: each block places its arcs row by row.
    let total: usize = block_len.iter().sum();
    let mut row_ptr = vec![0u64; n_rows + 1];
    row_ptr[n_rows] = total as u64;
    let mut items = vec![T::default(); total];
    let spans = split_lengths(&mut items, block_len.iter().copied());
    let block_start: Vec<u64> = block_len
        .iter()
        .scan(0u64, |acc, &len| {
            let start = *acc;
            *acc += len as u64;
            Some(start)
        })
        .collect();
    row_ptr[..n_rows]
        .par_chunks_mut(rows_per_block)
        .zip(spans)
        .zip(spare.par_iter())
        .enumerate()
        .for_each(|(b, ((ptr, span), block_arcs))| {
            let first = b << shift;
            for &(row, _) in block_arcs {
                ptr[row as usize - first] += 1;
            }
            let base = block_start[b];
            let mut acc = base;
            for p in ptr.iter_mut() {
                (*p, acc) = (acc, acc + *p);
            }
            for &(row, item) in block_arcs {
                let at = &mut ptr[row as usize - first];
                span[(*at - base) as usize] = item;
                *at += 1;
            }
            // Each cursor ended on its row's end, the next row's start.
            ptr.copy_within(..ptr.len() - 1, 1);
            ptr[0] = base;
        });
    RowGroups { shift, row_ptr, items, spare }
}

impl<T: Copy + Default + Send + Sync> RowGroups<T> {
    /// Calls `finish(row, scratch)` on every row in parallel — `row` the
    /// row's items in input order, `scratch` a buffer of the same length
    /// — which sorts and combines the row in place and returns how many
    /// of its leading items to keep; then compacts the kept items into
    /// CSR arrays `(row_ptr, items)`. When every row keeps all its items
    /// the arrays are returned as they are, without a copy.
    ///
    /// # Panics
    /// If `finish` returns more than the row's length.
    pub fn finish_rows<F>(self, finish: F) -> (Vec<u64>, Vec<T>)
    where
        F: Fn(&mut [T], &mut [(u32, T)]) -> usize + Sync,
    {
        let Self { shift, row_ptr, mut items, mut spare } = self;
        let n_rows = row_ptr.len() - 1;
        let rows_per_block = 1usize << shift;
        let block_rows = |b: usize| b << shift..((b + 1) << shift).min(n_rows);

        let mut kept = vec![0u64; n_rows];
        let item_spans = split_lengths(&mut items, spare.iter().map(Vec::len));
        kept.par_chunks_mut(rows_per_block)
            .zip(item_spans)
            .zip(spare.par_iter_mut())
            .enumerate()
            .for_each(|(b, ((kept, row_items), row_spare))| {
                let rows = block_rows(b);
                let base = row_ptr[rows.start];
                for (k, r) in kept.iter_mut().zip(rows) {
                    let span = (row_ptr[r] - base) as usize..(row_ptr[r + 1] - base) as usize;
                    let len = finish(&mut row_items[span.clone()], &mut row_spare[span.clone()]);
                    assert!(len <= span.len(), "a finished row cannot grow");
                    *k = len as u64;
                }
            });
        drop(spare);

        let new_ptr = parallel_prefix_sum(&kept);
        if new_ptr[n_rows] as usize == items.len() {
            return (row_ptr, items);
        }
        let mut out = vec![T::default(); new_ptr[n_rows] as usize];
        let blocks = n_rows.div_ceil(rows_per_block);
        let out_spans = split_lengths(
            &mut out,
            (0..blocks).map(|b| (new_ptr[block_rows(b).end] - new_ptr[b << shift]) as usize),
        );
        out_spans.into_par_iter().enumerate().for_each(|(b, to)| {
            let mut at = 0;
            for r in block_rows(b) {
                let (from, k) = (row_ptr[r] as usize, kept[r] as usize);
                to[at..at + k].copy_from_slice(&items[from..from + k]);
                at += k;
            }
        });
        (new_ptr, out)
    }
}

/// A `finish` step for [`RowGroups::finish_rows`]: sorts `row` by `col`,
/// stably, and merges each run of one column into its first item with
/// `merge`, left to right — duplicates combine in input order. `scratch`
/// is the row's buffer. Returns the row's new length.
pub fn sort_merge_row<T: Copy>(
    row: &mut [T],
    scratch: &mut [(u32, T)],
    col: impl Fn(&T) -> u32,
    merge: impl Fn(&mut T, &T),
) -> usize {
    if row.windows(2).all(|w| col(&w[0]) < col(&w[1])) {
        return row.len();
    }
    assert!(row.len() <= 1 << 32, "a row of more than 2^32 items");
    // Unique keys (column, input position): the unstable sort is stable.
    for (i, (s, &item)) in scratch.iter_mut().zip(row.iter()).enumerate() {
        *s = (i as u32, item);
    }
    scratch.sort_unstable_by_key(|(i, item)| (u64::from(col(item)) << 32) | u64::from(*i));
    let mut len = 0;
    for (_, item) in scratch.iter() {
        if len > 0 && col(&row[len - 1]) == col(item) {
            merge(&mut row[len - 1], item);
        } else {
            row[len] = *item;
            len += 1;
        }
    }
    len
}

/// Sorts a row of plain ids and drops repeats; returns the new length.
/// A `finish` step for [`RowGroups::finish_rows`] where an item is its
/// own column.
pub fn sort_dedup_row(row: &mut [u32]) -> usize {
    row.sort_unstable();
    let mut len = 0;
    for i in 0..row.len() {
        if len == 0 || row[len - 1] != row[i] {
            row[len] = row[i];
            len += 1;
        }
    }
    len
}

/// Runs `f(rows, part)` in parallel over fixed blocks of rows, where
/// `part` is the block's span of `items`, an array laid out by `row_ptr`
/// (row `r` owns `items[row_ptr[r]..row_ptr[r + 1]]`, so `part` starts at
/// `row_ptr[rows.start]`).
pub fn par_row_blocks<T, F>(row_ptr: &[u64], items: &mut [T], f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    let n_rows = row_ptr.len() - 1;
    let rows = |b: usize| b * ROW_BLOCK..((b + 1) * ROW_BLOCK).min(n_rows);
    let blocks = n_rows.div_ceil(ROW_BLOCK);
    let lens = (0..blocks).map(|b| (row_ptr[rows(b).end] - row_ptr[rows(b).start]) as usize);
    let parts = split_lengths(items, lens);
    parts.into_par_iter().enumerate().for_each(|(b, part)| f(rows(b), part));
}

/// Items per task of [`par_unzip`].
const UNZIP_CHUNK: usize = 1 << 14;

/// Splits pairs into their two arrays, in parallel (`Iterator::unzip`).
pub fn par_unzip<A, B>(pairs: &[(A, B)]) -> (Vec<A>, Vec<B>)
where
    A: Copy + Default + Send + Sync,
    B: Copy + Default + Send + Sync,
{
    let mut firsts = vec![A::default(); pairs.len()];
    let mut seconds = vec![B::default(); pairs.len()];
    firsts
        .par_chunks_mut(UNZIP_CHUNK)
        .zip(seconds.par_chunks_mut(UNZIP_CHUNK))
        .zip(pairs.par_chunks(UNZIP_CHUNK))
        .for_each(|((xs, ys), part)| {
            for ((x, y), &(a, b)) in xs.iter_mut().zip(ys.iter_mut()).zip(part) {
                (*x, *y) = (a, b);
            }
        });
    (firsts, seconds)
}

/// Block size for deterministic floating-point reductions. Fixed (not
/// derived from the thread count) so the summation bracketing — and hence
/// the rounded result — is identical at any pool size.
const DET_SUM_BLOCK: usize = 1 << 14;

/// Parallel sum reduction of `f(i)` over `0..n`.
///
/// Deterministic: the range is cut into fixed-size blocks, each block is
/// summed sequentially, and the per-block partials are folded in block
/// order. The bracketing is independent of the thread count, so the
/// result is bitwise identical across runs and pool sizes.
pub fn parallel_reduce_sum<F>(n: usize, f: F) -> f64
where
    F: Fn(usize) -> f64 + Sync + Send,
{
    let nblocks = n.div_ceil(DET_SUM_BLOCK);
    let partials: Vec<f64> = (0..nblocks)
        .into_par_iter()
        .map(|b| {
            let lo = b * DET_SUM_BLOCK;
            let hi = ((b + 1) * DET_SUM_BLOCK).min(n);
            let mut acc = 0.0;
            for i in lo..hi {
                acc += f(i);
            }
            acc
        })
        .collect();
    partials.iter().sum()
}

/// Parallel maximum of `f(i)` over `0..n`; returns `None` for an empty range.
pub fn parallel_reduce_max<F>(n: usize, f: F) -> Option<u64>
where
    F: Fn(usize) -> u64 + Sync + Send,
{
    (0..n).into_par_iter().map(f).max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_sum_empty() {
        assert_eq!(parallel_prefix_sum(&[]), vec![0]);
    }

    #[test]
    fn prefix_sum_small() {
        assert_eq!(parallel_prefix_sum(&[3, 1, 4]), vec![0, 3, 4, 8]);
    }

    #[test]
    fn prefix_sum_matches_sequential_large() {
        let input: Vec<u64> = (0..100_000).map(|i| (i * 7 + 3) % 11).collect();
        let got = parallel_prefix_sum(&input);
        let mut acc = 0u64;
        for (i, &v) in input.iter().enumerate() {
            assert_eq!(got[i], acc, "mismatch at {i}");
            acc += v;
        }
        assert_eq!(got[input.len()], acc);
    }

    /// Groups `input` (rows, with the input position as the item, arcs
    /// per input `1` or `2` — the second with the row `(row + 1) % n`) at
    /// 1, 2 and 8 threads and checks the grouping against a sequential
    /// count: the same row pointers, every item in its row, each row's
    /// items in input order, the same bytes at every thread count.
    fn check_grouping(n: usize, rows: &[u32], two: bool) {
        let arcs = |&(i, r): &(u32, u32)| {
            let other = two.then(|| (((r as usize + 1) % n) as u32, (i, 1u8)));
            [Some((r, (i, 0u8))), other]
        };
        let input: Vec<(u32, u32)> = rows.iter().enumerate().map(|(i, &r)| (i as u32, r)).collect();
        let mut counts = vec![0u64; n];
        for x in &input {
            for (r, _) in arcs(x).into_iter().flatten() {
                counts[r as usize] += 1;
            }
        }
        let want_ptr = parallel_prefix_sum(&counts);
        let mut runs = Vec::new();
        for threads in [1, 2, 8] {
            configure_threads(threads);
            let (ptr, items) = group_by_row(&input, n, arcs).finish_rows(|row, _| row.len());
            assert_eq!(ptr, want_ptr, "row pointers, {threads} threads");
            for r in 0..n {
                let row = &items[want_ptr[r] as usize..want_ptr[r + 1] as usize];
                for &(i, side) in row {
                    let src = input[i as usize].1 as usize;
                    let row_of = if side == 0 { src } else { (src + 1) % n };
                    assert_eq!(row_of, r, "item {i} in the wrong row");
                }
                // Stable: input order, and for one input's two arcs in
                // one row (n = 1) the first before the second.
                assert!(row.windows(2).all(|w| w[0] < w[1]), "row {r} out of input order");
            }
            runs.push((ptr, items));
        }
        configure_threads(0);
        assert!(runs.windows(2).all(|w| w[0] == w[1]), "the thread count changed the bytes");
    }

    fn random_rows(n: usize, m: usize, seed: u64) -> Vec<u32> {
        let mut rng = crate::rng::XorShiftStream::new(seed, 0);
        (0..m).map(|_| rng.bounded_usize(n) as u32).collect()
    }

    #[test]
    fn group_by_row_is_a_stable_grouping() {
        for two in [false, true] {
            check_grouping(0, &[], two);
            check_grouping(1, &[0; 40_000], two);
            check_grouping(7, &[6, 6, 0, 3, 6], two);
            check_grouping(300, &random_rows(300, 50_000, 1), two);
            // More than 2^16 rows: several row blocks, several chunks.
            check_grouping(70_000, &random_rows(70_000, 100_000, 2), two);
            check_grouping(1 << 20, &random_rows(1 << 20, 20_000, 3), two);
            // A hub row of more than 2^16 items among light ones.
            let mut hub = random_rows(100_000, 30_000, 4);
            hub.extend(std::iter::repeat_n(77_777, 70_000));
            hub.extend(random_rows(100_000, 30_000, 5));
            check_grouping(100_000, &hub, two);
        }
    }

    /// Grouping CSR entries straight from the arrays gives the bytes of
    /// grouping their triples: by column (a transpose, with some entries
    /// skipped), with empty rows at the start, the end and between, at
    /// 1, 2 and 8 threads, across several chunks.
    #[test]
    fn group_entries_matches_group_by_row_over_triples() {
        for (n, m, seed) in
            [(0usize, 0usize, 1u64), (5, 3, 2), (300, 50_000, 3), (70_000, 40_000, 4)]
        {
            let rows = random_rows(n.max(1), m, seed);
            let cols = random_rows(n.max(1), m, seed + 10);
            let mut triples: Vec<(u32, u32, u32)> =
                rows.iter().zip(&cols).enumerate().map(|(k, (&r, &c))| (r, c, k as u32)).collect();
            triples.sort_unstable_by_key(|&(r, _, k)| (r, k));
            let mut counts = vec![0u64; n];
            triples.iter().for_each(|&(r, _, _)| counts[r as usize] += 1);
            let ptr = parallel_prefix_sum(&counts);
            let skip = |k: u32| k % 7 == 3;
            let want = group_by_row(&triples, n, |&(r, c, k)| [(!skip(k)).then_some((c, (r, k)))])
                .finish_rows(|row, _| row.len());
            for threads in [1, 2, 8] {
                configure_threads(threads);
                let got = group_entries(&ptr, n, |r, k| {
                    let (tr, c, id) = triples[k];
                    assert_eq!(tr, r, "entry {k} read in the wrong row");
                    (!skip(id)).then_some((c, (r, id)))
                })
                .finish_rows(|row, _| row.len());
                assert_eq!(got, want, "{n} rows, {threads} threads");
            }
        }
        configure_threads(0);
    }

    #[test]
    fn row_blocks_stay_within_bounds() {
        for (n, arcs) in [(0, 0), (1, 1 << 40), (70_000, 10), (1 << 32, 1 << 33), (1 << 32, 0)] {
            let shift = row_block_shift(n, arcs);
            let blocks = n.div_ceil(1 << shift);
            assert!(blocks <= ROW_SORT_MAX_BLOCKS, "{n} rows: {blocks} blocks");
            // A chunk's per-block counters are `u32`.
            assert!(ROW_SORT_CHUNK.max(blocks * 8) <= 1 << 24, "{n} rows: chunks too long");
        }
    }

    #[test]
    #[should_panic(expected = "row 5 out of range for 5 rows")]
    fn group_by_row_rejects_a_row_past_the_end() {
        group_by_row(&[1u32, 5, 2], 5, |&r| [Some((r, ()))]);
    }

    #[test]
    fn finish_rows_compacts_what_the_rows_keep() {
        let input = [(2u32, 9u32), (0, 4), (2, 1), (2, 9), (0, 4), (3, 3)];
        let g = group_by_row(&input, 4, |&(r, c)| [Some((r, c))]);
        let (ptr, items) = g.finish_rows(|row, _| sort_dedup_row(row));
        assert_eq!((ptr, items), (vec![0, 1, 1, 3, 4], vec![4, 1, 9, 3]));
        // Nothing dropped: the grouped arrays come back as they are.
        let g = group_by_row(&input, 4, |&(r, c)| [Some((r, c))]);
        let grouped = (vec![0, 2, 2, 5, 6], vec![4, 4, 9, 1, 9, 3]);
        assert_eq!(g.finish_rows(|row, _| row.len()), grouped);
    }

    #[test]
    fn sort_merge_row_merges_in_input_order() {
        let mut row = [(5u32, 1e8f32), (2, 1.0), (5, 1.0), (2, 2.0), (5, 1.0), (0, 3.0)];
        let mut scratch = [(0u32, (0u32, 0f32)); 6];
        let len = sort_merge_row(&mut row, &mut scratch, |&(c, _)| c, |a, b| a.1 += b.1);
        assert_eq!(&row[..len], &[(0, 3.0), (2, 3.0), (5, (1e8 + 1.0) + 1.0)]);
        // An already ascending row is left as it is.
        let mut row = [(1u32, 1.0f32), (4, 2.0)];
        assert_eq!(sort_merge_row(&mut row, &mut scratch[..2], |&(c, _)| c, |_, _| {}), 2);
        assert_eq!(row, [(1, 1.0), (4, 2.0)]);
    }

    #[test]
    fn par_row_blocks_hands_out_each_rows_span() {
        // Row r holds r % 5 items: empty rows, and blocks of unequal size.
        let counts: Vec<u64> = (0..3_000).map(|r| r % 5).collect();
        let ptr = parallel_prefix_sum(&counts);
        let mut owner = vec![0usize; ptr[ptr.len() - 1] as usize];
        par_row_blocks(&ptr, &mut owner, |rows, part| {
            let base = ptr[rows.start] as usize;
            for r in rows {
                part[ptr[r] as usize - base..ptr[r + 1] as usize - base].fill(r);
            }
        });
        for r in 0..ptr.len() - 1 {
            assert!(owner[ptr[r] as usize..ptr[r + 1] as usize].iter().all(|&o| o == r));
        }
    }

    #[test]
    fn reduce_sum_matches() {
        let s = parallel_reduce_sum(1000, |i| i as f64);
        assert_eq!(s, 999.0 * 1000.0 / 2.0);
    }

    #[test]
    fn reduce_sum_bitwise_reproducible() {
        // Irrational-ish terms over multiple blocks: the fixed bracketing
        // must give the identical floating-point result on every call.
        let f = |i: usize| 1.0 / (i as f64 + 0.73);
        let a = parallel_reduce_sum(100_000, f);
        let b = parallel_reduce_sum(100_000, f);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn configure_threads_reports_pool_size() {
        let n = configure_threads(0);
        assert!(n >= 1);
        assert_eq!(n, num_threads());
    }

    #[test]
    fn reduce_max_matches() {
        assert_eq!(parallel_reduce_max(1000, |i| (i as u64 * 37) % 101), Some(100));
        assert_eq!(parallel_reduce_max(0, |i| i as u64), None);
    }

    #[test]
    fn par_for_covers_all_indices() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let hits: Vec<AtomicU64> = (0..5000).map(|_| AtomicU64::new(0)).collect();
        par_for(5000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
