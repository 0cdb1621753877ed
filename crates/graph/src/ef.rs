//! Elias–Fano encoding of monotone sequences.
//!
//! Plain offset tables cost 16 bytes per vertex (a `u64` byte offset plus
//! a `u64` cumulative arc count). Elias–Fano stores a monotone
//! sequence of `n` values over a universe `u` in `n·(2 + ⌈log₂(u/n)⌉)`
//! bits — within half a bit per element of the information-theoretic
//! minimum — while still answering `get(i)` in O(1) with a sampled select
//! structure. The container uses two: one for cumulative arc counts, one for
//! per-vertex bit offsets into the adjacency arena.
//!
//! Layout: each value is split at `l = max(0, ⌊log₂(u/n)⌋)` bits (capped
//! at 56, so one 8-byte window always holds an element's low bits). The low
//! `l` bits go to a packed array; the high bits are stored as a unary-ish
//! bitvector where bit `(vᵢ >> l) + i` is set for the `i`-th element
//! (monotonicity makes these positions strictly increasing; the vector has
//! at most `n + (u >> l) < 3n` bits). `get(i)` selects the `i`-th set bit
//! and recombines. Select is accelerated by sampling the position of
//! every 8th set bit (4 bytes a sample until the vector passes 2³² bits):
//! a walk step costs one `get_pair` on each of the two sequences, and at
//! one sample per 64 ones the scan to the wanted one — a data-dependent
//! count of words, then of bits — was most of that step's fixed cost.
//! `get_pair` finds the second value without crossing the first one's run
//! of zeros (`value >> l` of them, thousands for a hub): it looks one word
//! ahead and otherwise selects *backward* from the next sample.
//!
//! [`EfSeq`] is a *view*: it borrows the byte storage (owned heap or a
//! memory map) and holds only parsed parameters plus byte ranges, so the
//! same struct serves both in-memory and zero-copy containers.

use crate::error::GraphFormatError;

/// Select sample rate: the position of every `SELECT_EVERY`-th set bit is
/// recorded, so `select` scans over fewer than that many ones — within
/// the sampled word or the next, bar a hub's run of zeros in between.
const SELECT_EVERY: usize = 1 << SELECT_SHIFT;
const SELECT_SHIFT: u32 = 3;

/// Cap on the low-bit width: an element's low bits then always sit inside
/// one 8-byte window at any bit alignment (`7 + 56 < 64`). Only universes
/// beyond `n · 2⁵⁷` are affected, and pay a few more upper bits.
const MAX_LOWER_BITS: u32 = 56;

/// Builds the serialized form of an Elias–Fano sequence.
///
/// The byte layout (all fixed-width fields little-endian):
///
/// ```text
/// n: u64 | universe: u64 | lower bits: ⌈n·l/8⌉ bytes (LSB-first packing)
/// | upper words: u64 × nwords | select samples: u32 or u64 × nsamples
/// ```
///
/// Sample `s` is the absolute bit position of the `s·SELECT_EVERY`-th set
/// bit (4 bytes wide until the vector passes 2³² bits), so `select(i)`
/// starts at a known position and scans fewer than `SELECT_EVERY` ones
/// forward.
pub fn encode(values: &[u64], universe: u64) -> Vec<u8> {
    let n = values.len() as u64;
    debug_assert!(values.windows(2).all(|w| w[0] <= w[1]), "values must be monotone");
    debug_assert!(values.last().map(|&v| v <= universe).unwrap_or(true));
    let l = lower_bits(n, universe);

    let lower_bytes = ((n * l as u64) as usize).div_ceil(8);
    let nbits_upper = n as usize + (universe >> l) as usize + 1;
    let nwords = nbits_upper.div_ceil(64);
    let mut lower = vec![0u8; lower_bytes];
    let mut upper = vec![0u64; nwords];

    for (i, &v) in values.iter().enumerate() {
        if l > 0 {
            let lo = v & ((1u64 << l) - 1);
            let bit = i as u64 * l as u64;
            let byte = (bit / 8) as usize;
            let shift = (bit % 8) as u32;
            // LSB-first packing: a value spans at most 9 bytes (l ≤ 64).
            let mut rest = lo << shift;
            let mut b = byte;
            let mut width = shift + l;
            while width > 0 {
                lower[b] |= rest as u8;
                rest >>= 8;
                width = width.saturating_sub(8);
                b += 1;
            }
        }
        let pos = (v >> l) as usize + i;
        upper[pos / 64] |= 1u64 << (pos % 64);
    }

    // Select samples: absolute bit position of every SELECT_EVERY-th one.
    let mut samples: Vec<u64> = Vec::with_capacity(values.len().div_ceil(SELECT_EVERY));
    for (i, &v) in values.iter().enumerate() {
        if i.is_multiple_of(SELECT_EVERY) {
            samples.push((v >> l) + i as u64);
        }
    }
    debug_assert_eq!(samples.len(), values.len().div_ceil(SELECT_EVERY));

    let sample_bytes = sample_bytes(nbits_upper);
    let mut out = Vec::with_capacity(16 + lower.len() + nwords * 8 + samples.len() * sample_bytes);
    out.extend_from_slice(&n.to_le_bytes());
    out.extend_from_slice(&universe.to_le_bytes());
    out.extend_from_slice(&lower);
    for w in &upper {
        out.extend_from_slice(&w.to_le_bytes());
    }
    for s in &samples {
        out.extend_from_slice(&s.to_le_bytes()[..sample_bytes]);
    }
    out
}

/// Width of one select sample: a bit position inside an upper vector of
/// `nbits_upper` bits, so four bytes until that passes 2³².
fn sample_bytes(nbits_upper: usize) -> usize {
    if nbits_upper as u64 <= u32::MAX as u64 {
        4
    } else {
        8
    }
}

/// Number of low bits stored in the packed array: `max(0, ⌊log₂(u/n)⌋)`,
/// capped at [`MAX_LOWER_BITS`].
fn lower_bits(n: u64, universe: u64) -> u32 {
    if n == 0 || universe <= n {
        return 0;
    }
    (63 - (universe / n).leading_zeros()).min(MAX_LOWER_BITS)
}

/// Bit index of the `k`-th (0-based) set bit of `word`; `k` must be below
/// its population count. Every select in this module asks for
/// `k < SELECT_EVERY`, which runs as a fixed chain of conditional
/// clear-lowest-bit steps: the obvious loop exits on a data-dependent
/// count and mispredicts on almost every call.
#[inline]
fn select_in_word(mut word: u64, mut k: u32) -> u32 {
    while k >= SELECT_EVERY as u32 {
        word &= word - 1;
        k -= 1;
    }
    for step in 0..SELECT_EVERY as u32 - 1 {
        // Subtracting 1 clears the lowest set bit; subtracting 0 keeps it.
        word &= word.wrapping_sub((step < k) as u64);
    }
    word.trailing_zeros()
}

/// The little-endian `u64` at byte `off` of a section whose extent
/// [`EfSeq::parse`] checked against the storage.
#[inline]
fn le_u64(storage: &[u8], off: usize) -> u64 {
    // xtask:panic-ok(infallible: 8-byte window, parse validated lengths)
    u64::from_le_bytes(storage[off..off + 8].try_into().unwrap())
}

/// [`le_u64`] for the 4-byte select samples.
#[inline]
fn le_u32(storage: &[u8], off: usize) -> u32 {
    // xtask:panic-ok(infallible: 4-byte window, parse validated lengths)
    u32::from_le_bytes(storage[off..off + 4].try_into().unwrap())
}

/// A parsed view of an Elias–Fano sequence inside a larger byte buffer.
///
/// Holds absolute byte offsets into the containing storage rather than
/// borrowed slices, so a [`EfSeq`] can live inside a struct that owns (or
/// maps) the storage without self-referential borrows. All accessors take
/// the storage explicitly.
#[derive(Debug, Clone)]
pub struct EfSeq {
    n: u64,
    universe: u64,
    l: u32,
    /// Absolute byte offset of the lower-bits array.
    lower_off: usize,
    /// Absolute byte offset of the upper-bits words.
    upper_off: usize,
    nwords: usize,
    /// Absolute byte offset of the select samples.
    select_off: usize,
    /// Bytes per select sample (4 or 8, see [`sample_bytes`]).
    sample_bytes: usize,
    /// Total serialized length in bytes (for section-length validation).
    len: usize,
}

impl EfSeq {
    /// Parses a sequence whose serialized bytes start at `base` within
    /// `storage`. Validates that every section fits inside `storage`.
    pub fn parse(storage: &[u8], base: usize) -> Result<EfSeq, GraphFormatError> {
        let header = storage.get(base..base + 16).ok_or(GraphFormatError::LengthMismatch {
            what: "elias-fano header",
            expected: 16,
            actual: storage.len().saturating_sub(base) as u64,
        })?;
        // xtask:panic-ok(infallible: fixed 8-byte windows of a header whose length was just bounds-checked)
        let n = u64::from_le_bytes(header[0..8].try_into().unwrap());
        let universe = u64::from_le_bytes(header[8..16].try_into().unwrap());
        if n > storage.len() as u64 * 8 {
            // An EF sequence of n elements needs ≥ 2n upper bits; a claimed
            // n beyond that is corrupt, and rejecting it here prevents the
            // size computations below from overflowing.
            return Err(GraphFormatError::Corrupt("elias-fano element count implausible"));
        }
        let l = lower_bits(n, universe);
        if (universe >> l) > storage.len() as u64 * 8 {
            // The upper vector needs one bit per (value >> l) slot; a
            // universe this large cannot fit the available bytes and would
            // overflow the size arithmetic below.
            return Err(GraphFormatError::Corrupt("elias-fano universe implausible"));
        }
        let lower_bytes = ((n * l as u64) as usize).div_ceil(8);
        let nbits_upper = n as usize + (universe >> l) as usize + 1;
        let nwords = nbits_upper.div_ceil(64);
        let nsamples = (n as usize).div_ceil(SELECT_EVERY);
        let lower_off = base + 16;
        let upper_off = lower_off + lower_bytes;
        let select_off = upper_off + nwords * 8;
        let sample_bytes = sample_bytes(nbits_upper);
        let end = select_off + nsamples * sample_bytes;
        if end > storage.len() {
            return Err(GraphFormatError::LengthMismatch {
                what: "elias-fano sections",
                expected: (end - base) as u64,
                actual: storage.len().saturating_sub(base) as u64,
            });
        }
        Ok(EfSeq {
            n,
            universe,
            l,
            lower_off,
            upper_off,
            nwords,
            select_off,
            sample_bytes,
            len: end - base,
        })
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// True when the sequence has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Upper bound on the values (as passed to [`encode`]).
    #[inline]
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Serialized size in bytes.
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.len
    }

    #[inline]
    fn upper_word(&self, storage: &[u8], w: usize) -> u64 {
        le_u64(storage, self.upper_off + w * 8)
    }

    #[inline]
    fn sample(&self, storage: &[u8], s: usize) -> usize {
        let off = self.select_off + s * self.sample_bytes;
        if self.sample_bytes == 4 {
            le_u32(storage, off) as usize
        } else {
            le_u64(storage, off) as usize
        }
    }

    #[inline]
    fn lower_value(&self, storage: &[u8], i: usize) -> u64 {
        let bit = i as u64 * self.l as u64;
        // The lower array is followed by at least one 8-byte upper word,
        // so the window of any in-range element fits.
        let word = le_u64(storage, self.lower_off + (bit / 8) as usize);
        (word >> (bit % 8)) & ((1u64 << self.l) - 1)
    }

    /// Position (bit index in the upper vector) of the `i`-th set bit:
    /// forward from the nearest preceding sample, over at most
    /// `SELECT_EVERY − 1` ones.
    #[inline]
    fn select(&self, storage: &[u8], i: usize) -> usize {
        let base = self.sample(storage, i >> SELECT_SHIFT);
        let mut w = base / 64;
        // Bits below the sampled one are masked off; it has rank
        // `i − i % SELECT_EVERY`.
        let mut word = self.upper_word(storage, w) & (!0u64 << (base % 64));
        let mut remaining = (i & (SELECT_EVERY - 1)) as u32;
        loop {
            let c = word.count_ones();
            if remaining < c {
                return w * 64 + select_in_word(word, remaining) as usize;
            }
            remaining -= c;
            w += 1;
            word = self.upper_word(storage, w);
        }
    }

    /// [`EfSeq::select`] backward from the nearest *following* sample (or
    /// the end of the vector). A forward scan to the one after a hub walks
    /// the hub's whole run of zeros — `degree >> l` bits; this one never
    /// crosses the run in front of its target.
    fn select_from_above(&self, storage: &[u8], i: usize) -> usize {
        let s = (i >> SELECT_SHIFT) + 1;
        // `above` ones precede bit `end`; the target is the
        // `above − i`-th of them counting down.
        let (end, above) = if s * SELECT_EVERY < self.n as usize {
            (self.sample(storage, s), s * SELECT_EVERY)
        } else {
            (self.nwords * 64, self.n as usize)
        };
        let mut remaining = (above - i - 1) as u32;
        let mut w = end / 64;
        let mut word = match end % 64 {
            0 => 0,
            r => self.upper_word(storage, w) & !(!0u64 << r),
        };
        loop {
            let c = word.count_ones();
            if remaining < c {
                // The `remaining`-th one counting down from the top.
                return w * 64 + 63 - select_in_word(word.reverse_bits(), remaining) as usize;
            }
            remaining -= c;
            w -= 1;
            word = self.upper_word(storage, w);
        }
    }

    /// The `i`-th value. Panics on out-of-range `i` (callers index with
    /// vertex ids already validated against `n`).
    #[inline]
    pub fn get(&self, storage: &[u8], i: usize) -> u64 {
        assert!(i < self.n as usize, "EF index {i} out of range (n = {})", self.n);
        let pos = self.select(storage, i);
        (((pos - i) as u64) << self.l) | self.lower_value(storage, i)
    }

    /// `(get(i), get(i+1))` in one select walk — the degree query
    /// `offsets[v+1] − offsets[v]` and the bit span of a vertex.
    #[inline]
    pub fn get_pair(&self, storage: &[u8], i: usize) -> (u64, u64) {
        assert!(i + 1 < self.n as usize, "EF pair {i} out of range (n = {})", self.n);
        let pos = self.select(storage, i);
        let a = (((pos - i) as u64) << self.l) | self.lower_value(storage, i);
        // The (i+1)-th one is the next set bit after `pos`: in this word
        // or the next, unless `i` is a hub whose run of zeros fills them.
        let w = pos / 64;
        let rest = self.upper_word(storage, w) & (!1u64 << (pos % 64));
        let pos2 = if rest != 0 {
            w * 64 + rest.trailing_zeros() as usize
        } else {
            match self.upper_word(storage, w + 1) {
                0 => self.select_from_above(storage, i + 1),
                next => (w + 1) * 64 + next.trailing_zeros() as usize,
            }
        };
        let b = (((pos2 - (i + 1)) as u64) << self.l) | self.lower_value(storage, i + 1);
        (a, b)
    }

    /// Structural validation: every element decodes, the sequence is
    /// monotone, and the last element does not exceed the universe. Used
    /// when opening an untrusted container.
    pub fn validate(&self, storage: &[u8]) -> Result<(), GraphFormatError> {
        // Total ones in the upper vector must equal n, else select() on a
        // hostile container could walk past the section end.
        let mut ones = 0u64;
        for w in 0..self.nwords {
            ones += self.upper_word(storage, w).count_ones() as u64;
        }
        if ones != self.n {
            return Err(GraphFormatError::Corrupt("elias-fano upper-bit population"));
        }
        // Every select sample must name the exact position of its one, or
        // select() on a hostile container could scan past the section end.
        let mut rank = 0usize;
        for w in 0..self.nwords {
            let mut bits = self.upper_word(storage, w);
            while bits != 0 {
                if rank.is_multiple_of(SELECT_EVERY) {
                    let pos = w * 64 + bits.trailing_zeros() as usize;
                    if self.sample(storage, rank >> SELECT_SHIFT) != pos {
                        return Err(GraphFormatError::Corrupt("elias-fano select sample"));
                    }
                }
                rank += 1;
                bits &= bits - 1;
            }
        }
        let mut prev = 0u64;
        for i in 0..self.n as usize {
            let v = self.get(storage, i);
            if v < prev {
                return Err(GraphFormatError::Corrupt("elias-fano sequence not monotone"));
            }
            if v > self.universe {
                return Err(GraphFormatError::Corrupt("elias-fano value exceeds universe"));
            }
            prev = v;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightne_utils::rng::XorShiftStream;

    fn roundtrip(values: &[u64], universe: u64) {
        let bytes = encode(values, universe);
        let ef = EfSeq::parse(&bytes, 0).unwrap();
        assert_eq!(ef.len(), values.len());
        assert_eq!(ef.byte_len(), bytes.len());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(ef.get(&bytes, i), v, "index {i}");
        }
        for i in 0..values.len().saturating_sub(1) {
            assert_eq!(ef.get_pair(&bytes, i), (values[i], values[i + 1]), "pair {i}");
        }
        ef.validate(&bytes).unwrap();
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(&[], 0);
        roundtrip(&[], 100);
        roundtrip(&[0], 0);
        roundtrip(&[5], 5);
        roundtrip(&[0, 0, 0], 0);
        roundtrip(&[0, 0, 7, 7, 7], 7);
    }

    #[test]
    fn dense_and_sparse() {
        // Dense: universe == n (l = 0, pure unary upper).
        let dense: Vec<u64> = (0..1000).collect();
        roundtrip(&dense, 1000);
        // Sparse: huge universe forces large l.
        let sparse: Vec<u64> = (0..100).map(|i| i * 1_000_000_007).collect();
        roundtrip(&sparse, 100 * 1_000_000_007);
    }

    #[test]
    fn random_monotone_sequences() {
        let mut rng = XorShiftStream::new(3, 0);
        for trial in 0..20 {
            let n = 1 + rng.bounded_usize(3000);
            let mut values: Vec<u64> = Vec::with_capacity(n);
            let mut cur = 0u64;
            for _ in 0..n {
                // Mix small and occasionally huge gaps.
                cur += if rng.bounded(10) == 0 { rng.bounded(1 << 20) } else { rng.bounded(16) };
                values.push(cur);
            }
            let universe = cur + rng.bounded(100);
            roundtrip(&values, universe);
            let _ = trial;
        }
    }

    /// The loop [`select_in_word`] replaced.
    fn naive_select_in_word(mut word: u64, k: u32) -> u32 {
        for _ in 0..k {
            word &= word - 1;
        }
        word.trailing_zeros()
    }

    fn check_select_in_word(words: usize) {
        let mut rng = XorShiftStream::new(29, 0);
        for t in 0..words {
            // Dense, sparse and single-bit words alike.
            let word = match t % 4 {
                0 => rng.next_u64(),
                1 => rng.next_u64() & rng.next_u64() & rng.next_u64(),
                2 => rng.next_u64() | rng.next_u64(),
                _ => 1u64 << rng.bounded(64),
            };
            for k in 0..word.count_ones() {
                assert_eq!(select_in_word(word, k), naive_select_in_word(word, k), "{word:#x} {k}");
                let top = 63 - select_in_word(word.reverse_bits(), k);
                assert_eq!(top, naive_select_in_word(word, word.count_ones() - 1 - k));
            }
        }
        assert_eq!(select_in_word(u64::MAX, 63), 63);
    }

    #[test]
    #[cfg(not(miri))]
    fn select_in_word_matches_the_naive_loop() {
        check_select_in_word(10_000);
    }

    #[test]
    fn select_in_word_matches_the_naive_loop_small() {
        check_select_in_word(64);
    }

    #[test]
    fn runs_of_equal_values_and_word_aligned_boundaries() {
        // Equal values put adjacent ones in the upper vector; a jump of
        // `64 << l` puts exactly one word of zeros between two of them,
        // and a hub-sized jump many — the cases `get_pair`'s look-ahead
        // and its backward select exist for.
        for l in [0u32, 3] {
            let step = 64u64 << l;
            let mut values = Vec::new();
            let mut cur = 0u64;
            for i in 0..700u64 {
                cur += match i % 9 {
                    0..=3 => 0,
                    4 => step,
                    5 => step - 1,
                    6 => 40 * step,
                    _ => 1,
                };
                values.push(cur);
            }
            // Universe chosen so that the split really is at `l` bits.
            let universe = (values.len() as u64) << l;
            let universe = universe.max(cur);
            roundtrip(&values, universe);
            roundtrip(&values, cur);
        }
        // Every element equal, and a single huge last gap.
        roundtrip(&[7; 130], 7);
        let mut tail: Vec<u64> = (0..129).collect();
        tail.push(1 << 40);
        roundtrip(&tail, 1 << 40);
    }

    #[test]
    fn select_sample_boundaries() {
        // Lengths straddling the SELECT_EVERY sampling period.
        for n in [7u64, 8, 9, 15, 16, 17, 63, 64, 65, 4096] {
            let values: Vec<u64> = (0..n).map(|i| i * 3).collect();
            roundtrip(&values, n * 3);
        }
    }

    #[test]
    fn space_beats_plain_u64() {
        // The whole point: cumulative offsets of a 100k-arc graph must
        // take far less than 8 bytes per entry.
        let values: Vec<u64> = (0..10_000u64).map(|i| i * 10).collect();
        let bytes = encode(&values, 100_000);
        assert!(
            bytes.len() < values.len() * 2,
            "EF took {} bytes for {} values",
            bytes.len(),
            values.len()
        );
    }

    #[test]
    fn parse_rejects_truncation() {
        let values: Vec<u64> = (0..500u64).map(|i| i * 7).collect();
        let bytes = encode(&values, 3500);
        for cut in 0..bytes.len() {
            match EfSeq::parse(&bytes[..cut], 0) {
                Err(_) => {}
                Ok(ef) => {
                    // A prefix that still parses must fail validation or
                    // have consistent sections (cut beyond the last sample
                    // can't happen: parse checks the full length).
                    panic!("prefix of {cut} bytes parsed: {ef:?}");
                }
            }
        }
    }

    #[test]
    fn validate_catches_bit_flips() {
        let values: Vec<u64> = (0..300u64).map(|i| i * 11).collect();
        let bytes = encode(&values, 3300);
        let ef = EfSeq::parse(&bytes, 0).unwrap();
        ef.validate(&bytes).unwrap();
        let mut flagged = 0usize;
        for byte in 16..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 0x40;
            // Either parse params changed (can't: header untouched) or
            // validate flags it or the flip only hit padding bits.
            if ef.validate(&corrupt).is_err() {
                flagged += 1;
            }
        }
        // The vast majority of flips must be caught (a flip in the low
        // bits of a non-boundary element keeps monotonicity only rarely).
        assert!(flagged * 2 > (bytes.len() - 16), "only {flagged} flips caught");
    }

    #[test]
    fn nonzero_base_offset() {
        // EfSeq must work at an arbitrary base inside a larger container.
        let values: Vec<u64> = (0..200u64).map(|i| i * 5).collect();
        let encoded = encode(&values, 1000);
        let mut storage = vec![0xAAu8; 37];
        storage.extend_from_slice(&encoded);
        storage.extend_from_slice(&[0xBB; 11]);
        let ef = EfSeq::parse(&storage, 37).unwrap();
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(ef.get(&storage, i), v);
        }
        ef.validate(&storage).unwrap();
    }
}
