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
//! Layout: each value is split at `l = max(0, ⌊log₂(u/n)⌋)` bits. The low
//! `l` bits go to a packed array; the high bits are stored as a unary-ish
//! bitvector where bit `(vᵢ >> l) + i` is set for the `i`-th element
//! (monotonicity makes these positions strictly increasing; the vector has
//! at most `n + (u >> l) < 3n` bits). `get(i)` selects the `i`-th set bit
//! and recombines. Select is accelerated by sampling the word position of
//! every 64th set bit.
//!
//! [`EfSeq`] is a *view*: it borrows the byte storage (owned heap or a
//! memory map) and holds only parsed parameters plus byte ranges, so the
//! same struct serves both in-memory and zero-copy containers.

use crate::error::GraphFormatError;

/// Select sample rate: the word index of every `SELECT_EVERY`-th set bit
/// is recorded, bounding the scan in `select` to a few words.
const SELECT_EVERY: usize = 64;

/// Builds the serialized form of an Elias–Fano sequence.
///
/// The byte layout (all fixed-width fields little-endian):
///
/// ```text
/// n: u64 | universe: u64 | lower bits: ⌈n·l/8⌉ bytes (LSB-first packing)
/// | upper words: u64 × nwords | select samples: u64 × nsamples
/// ```
///
/// Sample `s` is the absolute bit position of the `s·SELECT_EVERY`-th set
/// bit, so `select(i)` starts at a known position and scans at most
/// `SELECT_EVERY` ones (≤ `2·SELECT_EVERY` bits ≈ 2 words) forward.
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
        if i % SELECT_EVERY == 0 {
            samples.push((v >> l) + i as u64);
        }
    }
    debug_assert_eq!(samples.len(), values.len().div_ceil(SELECT_EVERY));

    let mut out = Vec::with_capacity(16 + lower.len() + nwords * 8 + samples.len() * 8);
    out.extend_from_slice(&n.to_le_bytes());
    out.extend_from_slice(&universe.to_le_bytes());
    out.extend_from_slice(&lower);
    for w in &upper {
        out.extend_from_slice(&w.to_le_bytes());
    }
    for s in &samples {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out
}

/// Number of low bits stored in the packed array: `max(0, ⌊log₂(u/n)⌋)`.
fn lower_bits(n: u64, universe: u64) -> u32 {
    if n == 0 || universe <= n {
        return 0;
    }
    63 - (universe / n).leading_zeros()
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
        let end = select_off + nsamples * 8;
        if end > storage.len() {
            return Err(GraphFormatError::LengthMismatch {
                what: "elias-fano sections",
                expected: (end - base) as u64,
                actual: storage.len().saturating_sub(base) as u64,
            });
        }
        Ok(EfSeq { n, universe, l, lower_off, upper_off, nwords, select_off, len: end - base })
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
        let off = self.upper_off + w * 8;
        // xtask:panic-ok(infallible: 8-byte window, parse validated lengths)
        u64::from_le_bytes(storage[off..off + 8].try_into().unwrap())
    }

    #[inline]
    fn sample(&self, storage: &[u8], s: usize) -> usize {
        let off = self.select_off + s * 8;
        // xtask:panic-ok(infallible: 8-byte window, parse validated lengths)
        u64::from_le_bytes(storage[off..off + 8].try_into().unwrap()) as usize
    }

    #[inline]
    fn lower_value(&self, storage: &[u8], i: usize) -> u64 {
        if self.l == 0 {
            return 0;
        }
        let bit = i as u64 * self.l as u64;
        let byte = self.lower_off + (bit / 8) as usize;
        let shift = (bit % 8) as u32;
        // Read up to 9 bytes LSB-first; l ≤ 57 in practice (universe is a
        // byte/arc count), so 8 bytes + carry byte always suffice.
        let avail = storage.len() - byte;
        let mut word = [0u8; 8];
        let take = avail.min(8);
        word[..take].copy_from_slice(&storage[byte..byte + take]);
        let mut v = u64::from_le_bytes(word) >> shift;
        let got = 64 - shift;
        if got < self.l && byte + 8 < storage.len() {
            v |= (storage[byte + 8] as u64) << got;
        }
        v & ((1u64 << self.l) - 1)
    }

    /// Position (bit index in the upper vector) of the `i`-th set bit.
    /// The sample gives the exact position of the nearest preceding
    /// sampled one; at most `SELECT_EVERY` further ones are scanned.
    #[inline]
    fn select(&self, storage: &[u8], i: usize) -> usize {
        let base = self.sample(storage, i / SELECT_EVERY);
        let mut remaining = i % SELECT_EVERY;
        let mut w = base / 64;
        // Mask off bits below the sampled position; the sampled one itself
        // has rank i − remaining.
        let mut word = self.upper_word(storage, w) & !((1u64 << (base % 64)) - 1);
        loop {
            let c = word.count_ones() as usize;
            if remaining < c {
                let mut bits = word;
                for _ in 0..remaining {
                    bits &= bits - 1;
                }
                return w * 64 + bits.trailing_zeros() as usize;
            }
            remaining -= c;
            w += 1;
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

    /// `(get(i), get(i+1))` in one select walk — the common degree query
    /// `offsets[v+1] − offsets[v]` hits this path.
    #[inline]
    pub fn get_pair(&self, storage: &[u8], i: usize) -> (u64, u64) {
        assert!(i + 1 < self.n as usize, "EF pair {i} out of range (n = {})", self.n);
        let pos = self.select(storage, i);
        let a = (((pos - i) as u64) << self.l) | self.lower_value(storage, i);
        // The (i+1)-th one is the next set bit after `pos`.
        let mut w = pos / 64;
        let mut word = self.upper_word(storage, w) & !((1u64 << (pos % 64)) - 1);
        word &= word - 1; // drop the i-th one itself
        while word == 0 {
            w += 1;
            word = self.upper_word(storage, w);
        }
        let pos2 = w * 64 + word.trailing_zeros() as usize;
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
                    if self.sample(storage, rank / SELECT_EVERY) != pos {
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

    #[test]
    fn select_sample_boundaries() {
        // Lengths straddling the SELECT_EVERY sampling period.
        for n in [63u64, 64, 65, 127, 128, 129, 4096] {
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
