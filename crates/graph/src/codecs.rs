//! Instantaneous codes for neighbor gaps: Ligra+'s byte code, a per-block
//! adaptive Golomb–Rice code and WebGraph's ζ family, behind one [`Codec`].
//!
//! All are prefix-free codes over the naturals written through one
//! MSB-first bit stream, so a container's codec is a per-file knob and
//! every code shares one reader:
//!
//! * **byte** — LEB128: 7-bit groups, low group first, each behind a
//!   continuation bit. The code of the paper's parallel-byte format
//!   (Section 4.1): a minimum of 8 bits per gap.
//! * **arice** — Golomb–Rice with the parameter `k` re-chosen per block
//!   and stored as a 5-bit prefix, each value split into its quotient
//!   `x >> k` (unary: `q` zeros then a one) and its `k` remainder bits.
//!   The block is *split-stream*: all remainders first, as fixed-width
//!   fields, then all quotients, as one unary bit vector. The `j`-th
//!   value's prefix sum is then a select over the quotient bits
//!   (`BitReader::select_one`) plus a sum of fixed-width fields
//!   (`BitReader::sum_fields`) instead of `j` sequential decodes, at
//!   exactly the bit count of the interleaved code. Optimal for geometric
//!   gaps with mean ≈ 2^k, which is what the gaps of one vertex of a
//!   social graph are: the smallest code on those.
//! * **ζ(k) (zeta)** — Boldi–Vigna's code tuned for the power-law gap
//!   distributions of web graphs: the exponent is coded in unary base
//!   `2^k`, the remainder in minimal (truncated) binary. `ζ(1)` is
//!   Elias γ. The smallest code on the R-MAT web-graph profiles (ζ₃
//!   11.85 bits/edge against `arice` 13.58), at 0.6× the decode speed.
//!
//! EXPERIMENTS.md "PR 19" has the last sweep against the retired codes
//! (unary, γ, δ and fixed-`k` Rice), none of which was the smallest on any
//! profile.
//!
//! All codes are MSB-first within the byte stream. Every reader method is
//! bounds-checked and returns a typed [`GraphFormatError`] on truncated or
//! malformed input — a prerequisite for decoding hostile memory-mapped
//! bytes — while staying branch-light enough for the decode hot path.

use crate::error::GraphFormatError;

/// Maximum bits a single `write_bits`/`read_bits` call may move. 57 keeps
/// the accumulator arithmetic overflow-free for any `(pending, n)` pair.
pub const MAX_BITS: u32 = 57;

/// An MSB-first bit sink backed by a `Vec<u8>`.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits not yet flushed, right-aligned in the low `pending` bits.
    acc: u64,
    pending: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bits written so far.
    #[inline]
    pub fn len_bits(&self) -> u64 {
        self.bytes.len() as u64 * 8 + self.pending as u64
    }

    /// Appends the low `n` bits of `v`, most significant first. `n` may be
    /// 0 (no-op) and at most [`MAX_BITS`].
    #[inline]
    pub fn write_bits(&mut self, v: u64, n: u32) {
        debug_assert!(n <= MAX_BITS, "write_bits of {n} bits");
        debug_assert!(n == 64 || v < (1u64 << n), "value {v} wider than {n} bits");
        if n == 0 {
            return;
        }
        self.acc = (self.acc << n) | v;
        self.pending += n;
        while self.pending >= 8 {
            self.pending -= 8;
            self.bytes.push((self.acc >> self.pending) as u8);
        }
    }

    /// Appends `x` in unary: `x` zeros followed by a one.
    #[inline]
    pub fn write_unary(&mut self, mut x: u64) {
        while x >= MAX_BITS as u64 {
            self.write_bits(0, MAX_BITS);
            x -= MAX_BITS as u64;
        }
        self.write_bits(1, x as u32 + 1);
    }

    /// Appends `x` in ζ(k) code (`k ≥ 1`).
    pub fn write_zeta(&mut self, x: u64, k: u32) {
        debug_assert!(k >= 1, "zeta requires k >= 1");
        let z = x + 1;
        debug_assert!(z != 0, "zeta cannot encode u64::MAX");
        let log = 63 - z.leading_zeros(); // ⌊log₂ z⌋
        let h = log / k;
        self.write_unary(h as u64);
        // Interval [2^(hk), 2^((h+1)k)) has 2^(hk)·(2^k − 1) values;
        // encode z − 2^(hk) in minimal binary over that interval size.
        self.write_min_binary(z - (1u64 << (h * k)), zeta_span(h, k));
    }

    /// Appends `x` in the byte code (LEB128): 7-bit groups, low group
    /// first, each preceded by a continuation bit that is set on every
    /// group but the last.
    #[inline]
    pub fn write_vbyte(&mut self, mut x: u64) {
        while x >= 0x80 {
            self.write_bits(0x80 | (x & 0x7f), 8);
            x >>= 7;
        }
        self.write_bits(x, 8);
    }

    /// Minimal (truncated) binary code of `r ∈ [0, span)`.
    fn write_min_binary(&mut self, r: u64, span: u64) {
        debug_assert!(r < span);
        if span <= 1 {
            return;
        }
        let b = 64 - (span - 1).leading_zeros(); // ⌈log₂ span⌉, may be 64
        let short = ((1u128 << b) - span as u128) as u64; // (b−1)-bit codewords
        if r < short {
            self.write_long_bits(r, b - 1);
        } else {
            self.write_long_bits(r + short, b);
        }
    }

    /// `write_bits` without the [`MAX_BITS`] cap (splits the value).
    fn write_long_bits(&mut self, v: u64, n: u32) {
        if n > MAX_BITS {
            self.write_bits(v >> MAX_BITS, n - MAX_BITS);
            self.write_bits(v & ((1u64 << MAX_BITS) - 1), MAX_BITS);
        } else {
            self.write_bits(v, n);
        }
    }

    /// Appends the first `nbits` bits of another (byte-padded) stream,
    /// keeping this writer's bit alignment. Used to concatenate per-vertex
    /// encodings produced in parallel into one arena without padding.
    pub fn append(&mut self, bytes: &[u8], nbits: u64) {
        debug_assert!(nbits <= bytes.len() as u64 * 8);
        let mut r = BitReader::new(bytes, 0);
        let mut left = nbits;
        while left >= 32 {
            #[expect(
                clippy::expect_used,
                reason = "infallible: nbits was checked against the slice length before the loop"
            )]
            let v = r.read_bits(32).expect("append within bounds");
            self.write_bits(v, 32);
            left -= 32;
        }
        if left > 0 {
            #[expect(
                clippy::expect_used,
                reason = "infallible: left < 32 bits remain by the loop bound above"
            )]
            let v = r.read_bits(left as u32).expect("append within bounds");
            self.write_bits(v, left as u32);
        }
    }

    /// Finishes the stream, padding the final partial byte with zeros, and
    /// returns the bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.pending > 0 {
            let pad = 8 - self.pending;
            self.acc <<= pad;
            self.bytes.push(self.acc as u8);
            self.pending = 0;
        }
        self.bytes
    }
}

/// Size of the ζ(k) minimal-binary interval for unary exponent `h`,
/// clamped so the top interval never exceeds the `u64` value domain
/// (writer and reader must agree on the clamp for the code to round-trip).
#[inline]
fn zeta_span(h: u32, k: u32) -> u64 {
    let base = 1u64 << (h * k);
    let full = base as u128 * ((1u128 << k) - 1);
    let cap = (u64::MAX - base) as u128 + 1;
    full.min(cap) as u64
}

/// The eight bytes at `byte..`, zero-padded past the end of `data`.
#[cold]
fn load_tail(data: &[u8], byte: usize) -> u64 {
    let rest = data.split_at_checked(byte).map_or(&[] as &[u8], |(_, rest)| rest);
    let (mut word, mut count) = (0u64, 0u32);
    for &b in rest.iter().take(8) {
        word = word << 8 | b as u64;
        count += 1;
    }
    word.checked_shl(8 * (8 - count)).unwrap_or(0)
}

const L8: u64 = 0x0101_0101_0101_0101;
const H8: u64 = 0x8080_8080_8080_8080;

/// Byte lane `i` of the result: the set bits among the first `i + 1`
/// stream bytes of `w` (MSB first). The top lane is the population count.
#[inline(always)]
fn stream_byte_ranks(w: u64) -> u64 {
    let mut s = w - ((w >> 1) & 0x5555_5555_5555_5555);
    s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
    s = (s + (s >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    s.swap_bytes().wrapping_mul(L8)
}

/// How many byte lanes of `ranks` (each at most 64) are at most `r < 64`:
/// a borrow-free subtraction per lane, then a count of the lanes whose
/// top bit survived.
#[inline(always)]
fn lanes_at_most(ranks: u64, r: u64) -> u32 {
    let le = (((r * L8) | H8) - ranks) & H8;
    ((le >> 7).wrapping_mul(L8) >> 56) as u32
}

/// Stream offset (MSB first) of the `r`-th (0-based) set bit of `w`, given
/// `ranks = stream_byte_ranks(w)` and `r` below its population count:
/// the byte by a broadword rank compare, then the bit the same way on the
/// byte's bits spread one per lane. No branch, no table.
#[inline(always)]
fn select_in_word(w: u64, ranks: u64, r: u64) -> u32 {
    let place = 8 * lanes_at_most(ranks, r);
    let seen = ((ranks << 8) >> place) & 0xFF;
    let byte = (w >> (56 - place)) & 0xFF;
    let bits = ((((byte * L8) & 0x0102_0408_1020_4080) + 0x7F7F_7F7F_7F7F_7F7F) & H8) >> 7;
    place + lanes_at_most(bits.wrapping_mul(L8), r - seen)
}

/// How [`BitReader::sum_fields`] adds up one window of `k`-bit fields
/// without a loop over them (SWAR): up to three in-place pairing levels,
/// each adding the odd slots onto the even ones and doubling the slot
/// width, until one slot holds the window's largest sum; then one
/// multiply piles every slot into the top one.
#[derive(Debug, Clone, Copy)]
struct FieldSum {
    /// Fields per window, `⌊56 / k⌋`: a window loaded at any bit of a
    /// byte holds them.
    per: u32,
    /// Per level, the mask of the even slots and the slot width it pairs;
    /// `(!0, 64)` is a level that leaves the value as it is.
    levels: [(u64, u32); 3],
    /// One bit at the bottom of every slot.
    spread: u64,
    /// Bit position of the top slot.
    top: u32,
    /// Mask of one slot's width.
    slot: u64,
}

impl FieldSum {
    const fn for_width(k: u32) -> Self {
        let per = 56 / k;
        let largest = per as u64 * ((1u64 << k) - 1);
        let mut levels = [(u64::MAX, 64); 3];
        let (mut width, mut level) = (k, 0);
        while width < 64 && largest >> width != 0 {
            let (mut even, mut pos) = (0u64, 0);
            while pos < 64 {
                even |= ((1u64 << width) - 1) << pos;
                pos += 2 * width;
            }
            levels[level] = (even, width);
            width *= 2;
            level += 1;
        }
        let slots = (per * k).div_ceil(width);
        let (mut spread, mut i) = (0u64, 0);
        while i < slots {
            spread |= 1 << (i * width);
            i += 1;
        }
        let top = (slots - 1) * width;
        // The top slot must hold the largest sum below bit 64.
        assert!(top == 0 || largest >> (64 - top) == 0);
        let slot = if width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
        FieldSum { per, levels, spread, top, slot }
    }

    /// The sum of the right-aligned fields of `x` (at most `per`).
    #[inline(always)]
    fn window_total(&self, mut x: u64) -> u64 {
        for (even, width) in self.levels {
            x = (x & even) + (x.checked_shr(width).unwrap_or(0) & even);
        }
        (x.wrapping_mul(self.spread) >> self.top) & self.slot
    }
}

/// [`FieldSum`] for every nonzero Rice parameter `k`, at `k − 1`.
static FIELD_SUMS: [FieldSum; MAX_RICE_K as usize] = {
    let mut plans = [FieldSum::for_width(1); MAX_RICE_K as usize];
    let mut k = 2;
    while k <= MAX_RICE_K {
        plans[k as usize - 1] = FieldSum::for_width(k);
        k += 1;
    }
    plans
};

/// An MSB-first bounds-checked bit source over `&[u8]`.
///
/// The reader never indexes past the slice: every method returns
/// [`GraphFormatError::Truncated`] when the stream ends mid-value, which
/// is what makes it safe to point at untrusted (e.g. memory-mapped)
/// bytes.
///
/// Decoding runs off a buffered 64-bit *window*: a codeword that lies
/// inside what is buffered is parsed and shifted out without touching
/// memory, and only when one does not fit is the window reloaded. The
/// load then leaves the symbol-to-symbol dependency chain (position →
/// load → byte swap → shift → leading-zero count → position), which is
/// what bounds a block decode.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Current position in bits from the start of `data`.
    pos: u64,
    /// One past the last readable bit (at most `8 · data.len()`).
    end: u64,
    /// The stream bits at `pos..pos + avail`, left-aligned; every bit
    /// below them is zero.
    win: u64,
    /// Buffered bits in `win`; `pos + avail ≤ end`.
    avail: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at bit `pos` of `data`.
    #[inline]
    pub fn new(data: &'a [u8], pos: u64) -> Self {
        Self::within(data, pos, u64::MAX)
    }

    /// A reader at bit `pos` that refuses to read at or past bit `end`
    /// (clamped to the slice): the container confines each vertex's
    /// decode to that vertex's own span this way.
    #[inline]
    pub(crate) fn within(data: &'a [u8], pos: u64, end: u64) -> Self {
        Self { data, pos, end: end.min(data.len() as u64 * 8), win: 0, avail: 0 }
    }

    /// Moves the reader to bit `pos`.
    #[inline]
    pub(crate) fn seek(&mut self, pos: u64) {
        self.pos = pos;
        self.win = 0;
        self.avail = 0;
    }

    /// Current position in bits.
    #[inline]
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// One past the last bit this reader may read.
    #[inline]
    pub fn len_bits(&self) -> u64 {
        self.end
    }

    /// Reloads the window from `pos`: at least 57 bits, or all that
    /// remain before `end`.
    #[inline(always)]
    fn refill(&mut self) {
        (self.win, self.avail) = self.window_at(self.pos);
    }

    /// The stream bits at `pos..`, left-aligned, and how many of them the
    /// reader may read: at least 57, or all that remain before `end`.
    /// Every bit past those is zero, so that a leading-zero count or a
    /// population count never sees a bit the reader may not.
    #[inline(always)]
    fn window_at(&self, pos: u64) -> (u64, u32) {
        let byte = (pos / 8) as usize;
        let shift = (pos % 8) as u32;
        let raw = match self.data.split_at_checked(byte).and_then(|(_, d)| d.first_chunk::<8>()) {
            Some(whole) => u64::from_be_bytes(*whole),
            None => load_tail(self.data, byte),
        };
        let left = self.end.saturating_sub(pos);
        let avail = if left < 64 - shift as u64 { left as u32 } else { 64 - shift };
        let keep = u64::MAX.checked_shl(64 - avail).unwrap_or(0);
        ((raw << shift) & keep, avail)
    }

    /// The select of a unary section at bit `from`: the offsets from
    /// `from` of its first one bit and of its `rank`-th (0-based) one.
    /// Scans a word at a time — a population count per word, then one
    /// in-word select — and never past the reader's end: `Truncated`
    /// when the section holds fewer than `rank + 1` ones.
    #[inline]
    pub(crate) fn select_one(&self, from: u64, rank: u64) -> Result<(u64, u64), GraphFormatError> {
        let mut at = from;
        let mut rank = rank;
        let mut first = None;
        loop {
            let (w, avail) = self.window_at(at);
            if avail == 0 {
                return Err(GraphFormatError::Truncated { at_bit: at });
            }
            if w != 0 {
                let ranks = stream_byte_ranks(w);
                let ones = ranks >> 56;
                let first = *first.get_or_insert(at - from + w.leading_zeros() as u64);
                if rank < ones {
                    return Ok((first, at - from + select_in_word(w, ranks, rank) as u64));
                }
                rank -= ones;
            }
            at += avail as u64;
        }
    }

    /// The sum of the `count` `k`-bit fields packed from bit `from`
    /// (`k ≤ 31`): one bounds check for the whole run, then one window per
    /// `⌊56 / k⌋` fields, summed without a loop over them ([`FieldSum`]).
    /// `Truncated` when the run does not end before the reader's end.
    #[inline]
    pub(crate) fn sum_fields(
        &self,
        from: u64,
        k: u32,
        count: u64,
    ) -> Result<u64, GraphFormatError> {
        let stop = count.checked_mul(k as u64).and_then(|bits| bits.checked_add(from));
        if stop.is_none_or(|stop| stop > self.end) {
            return Err(GraphFormatError::Truncated { at_bit: self.end });
        }
        let Some(plan) =
            k.checked_sub(1).and_then(|i| FIELD_SUMS.split_at_checked(i as usize)?.1.first())
        else {
            return if k == 0 { Ok(0) } else { Err(GraphFormatError::Overflow { at_bit: from }) };
        };
        let (mut at, mut left, mut sum) = (from, count, 0u64);
        while left > 0 {
            let take = if left < plan.per as u64 { left as u32 } else { plan.per };
            let (w, _) = self.window_at(at);
            let part = plan.window_total(w >> (64 - take * k));
            sum = sum.checked_add(part).ok_or(GraphFormatError::Overflow { at_bit: at })?;
            at += (take * k) as u64;
            left -= take as u64;
        }
        Ok(sum)
    }

    /// Runs an out-of-line slow path on a *copy* of the reader and adopts
    /// the copy. The reader's own address is then never handed to a call
    /// that is not inlined, which is what lets a decode loop keep
    /// position and window in registers instead of storing and reloading
    /// them around every symbol.
    #[inline(always)]
    fn detour<T>(&mut self, slow: impl FnOnce(&mut Self) -> T) -> T {
        #[cold]
        #[inline(never)]
        fn detached<'a, T>(
            mut copy: BitReader<'a>,
            slow: impl FnOnce(&mut BitReader<'a>) -> T,
        ) -> (BitReader<'a>, T) {
            let out = slow(&mut copy);
            (copy, out)
        }
        let (next, out) = detached(self.clone(), slow);
        *self = next;
        out
    }

    /// Drops `n ≤ avail` buffered bits (`n < 64`).
    #[inline]
    fn consume(&mut self, n: u32) {
        self.pos += n as u64;
        self.win <<= n;
        self.avail -= n;
    }

    /// Runs a codeword parser against the window, reloading it once if
    /// the codeword does not fit what is buffered, and falls back to
    /// `slow` (out of line, see [`BitReader::detour`]) when it still does
    /// not. `parse(win, avail)` returns the value and its length (at most
    /// `avail`, below 64) when the whole codeword lies in the top `avail`
    /// bits of `win`.
    #[inline(always)]
    fn in_window(
        &mut self,
        parse: impl Fn(u64, u32) -> Option<(u64, u32)>,
        slow: impl FnOnce(&mut Self) -> Result<u64, GraphFormatError>,
    ) -> Result<u64, GraphFormatError> {
        let (value, len) = match parse(self.win, self.avail) {
            Some(hit) => hit,
            None => {
                self.refill();
                match parse(self.win, self.avail) {
                    Some(hit) => hit,
                    None => return self.detour(slow),
                }
            }
        };
        self.consume(len);
        Ok(value)
    }

    /// Reads `n ≤ 57` bits as an unsigned value.
    #[inline(always)]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, GraphFormatError> {
        debug_assert!(n <= MAX_BITS);
        if n == 0 {
            return Ok(0);
        }
        self.in_window(
            |w, avail| (n <= avail).then(|| (w >> (64 - n), n)),
            |r| Err(GraphFormatError::Truncated { at_bit: r.pos }),
        )
    }

    /// Reads an arbitrary-width (≤ 64) value, splitting long reads.
    fn read_long_bits(&mut self, n: u32) -> Result<u64, GraphFormatError> {
        if n > MAX_BITS {
            let hi = self.read_bits(n - MAX_BITS)?;
            let lo = self.read_bits(MAX_BITS)?;
            Ok((hi << MAX_BITS) | lo)
        } else {
            self.read_bits(n)
        }
    }

    /// Reads a unary value (count of zeros before the terminating one).
    #[inline(always)]
    pub fn read_unary(&mut self) -> Result<u64, GraphFormatError> {
        let mut x = 0u64;
        loop {
            if self.avail == 0 {
                self.refill();
                if self.avail == 0 {
                    return Err(GraphFormatError::Truncated { at_bit: self.pos });
                }
            }
            let zeros = self.win.leading_zeros();
            if zeros < self.avail {
                // `zeros + 1` can be all 64 buffered bits.
                self.pos += zeros as u64 + 1;
                self.win = self.win.checked_shl(zeros + 1).unwrap_or(0);
                self.avail -= zeros + 1;
                return Ok(x + zeros as u64);
            }
            // Every buffered bit is a zero: a long run, or the end.
            x += self.avail as u64;
            self.pos += self.avail as u64;
            (self.win, self.avail) = (0, 0);
            if x > u32::MAX as u64 {
                // A unary run longer than 2³² bits cannot occur in any
                // value this crate encodes; treat it as corruption
                // rather than spinning through gigabytes of zeros.
                return Err(GraphFormatError::Overflow { at_bit: self.pos });
            }
        }
    }

    /// Reads a ζ(k)-coded value (in-window fast path for codewords of up
    /// to 57 bits, which is every gap below 2⁴⁰ even at `k = 8`).
    #[inline(always)]
    pub fn read_zeta(&mut self, k: u32) -> Result<u64, GraphFormatError> {
        debug_assert!(k >= 1);
        let parse = |w: u64, avail: u32| {
            let h = w.leading_zeros();
            if h * k + k > 63 {
                return None;
            }
            // Unclamped interval: span = 2^(hk)·(2^k − 1), so the long
            // codeword is hk + k bits wide and `short` is exact.
            let span = ((1u64 << k) - 1) << (h * k);
            let base = 1u64 << (h * k);
            if span <= 1 {
                // k = 1, h = 0: the codeword is the lone terminator bit.
                return (avail >= 1).then_some((base - 1, 1));
            }
            let b = 64 - (span - 1).leading_zeros();
            let need = h + 1 + b;
            if need > avail.min(MAX_BITS) {
                return None;
            }
            let body = w << (h + 1); // bits after the unary terminator
            if b == 1 {
                // Every codeword is the single long form.
                return Some((base + (body >> 63) - (2 - span) - 1, need));
            }
            // Branchless short/long select: the two candidate codewords
            // share their first b − 1 bits, so decode both and pick by
            // the (data-dependent) comparison without a branch the
            // predictor would miss on.
            let short = (1u64 << b) - span;
            let r_short = body >> (64 - (b - 1));
            let r_long = body >> (64 - b);
            let long = r_short >= short;
            let r = if long { r_long - short } else { r_short };
            Some((base + r - 1, need - 1 + long as u32))
        };
        self.in_window(parse, |r| r.read_zeta_slow(k))
    }

    #[cold]
    fn read_zeta_slow(&mut self, k: u32) -> Result<u64, GraphFormatError> {
        let h = self.read_unary()?;
        if h.saturating_mul(k as u64) > 63 {
            return Err(GraphFormatError::Overflow { at_bit: self.pos });
        }
        let base = 1u64 << (h as u32 * k);
        let r = self.read_min_binary(zeta_span(h as u32, k))?;
        Ok(base + r - 1)
    }

    /// Reads a byte-coded (LEB128) value. Fast path: the continuation
    /// bits in the window give the codeword length with a single
    /// leading-zero count, and codewords of up to four bytes (every gap
    /// below 2²⁸) are assembled without a length-dependent branch.
    #[inline(always)]
    pub fn read_vbyte(&mut self) -> Result<u64, GraphFormatError> {
        const CONT: u64 = 0x8080_8080_0000_0000;
        let parse = |w: u64, avail: u32| {
            // Bit index of the first clear continuation bit among four
            // bytes (0, 8, 16, 24), or ≥ 32 when all four are set.
            let last = (!w & CONT).leading_zeros();
            let need = last + 8;
            (last < 32 && need <= avail).then(|| {
                let groups = ((w >> 56) & 0x7f)
                    | ((w >> 48) & 0x7f) << 7
                    | ((w >> 40) & 0x7f) << 14
                    | ((w >> 32) & 0x7f) << 21;
                // Keep the 7 bits of each byte the codeword really has.
                (groups & !(!0u64 << (7 * (last / 8 + 1))), need)
            })
        };
        self.in_window(parse, |r| r.read_vbyte_slow())
    }

    /// Byte decode one group per read: long codewords, end-of-stream, and
    /// the overflow checks (a tenth group may carry one bit, an eleventh
    /// none).
    #[cold]
    fn read_vbyte_slow(&mut self) -> Result<u64, GraphFormatError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.read_bits(8)?;
            let group = byte & 0x7f;
            if shift == 63 && group > 1 {
                break;
            }
            v |= group << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(GraphFormatError::Overflow { at_bit: self.pos })
    }

    /// Reads a minimal (truncated) binary value over `span` codewords.
    fn read_min_binary(&mut self, span: u64) -> Result<u64, GraphFormatError> {
        if span <= 1 {
            return Ok(0);
        }
        let b = 64 - (span - 1).leading_zeros();
        let short = ((1u128 << b) - span as u128) as u64;
        let hi = self.read_long_bits(b - 1)?;
        if hi < short {
            Ok(hi)
        } else {
            let low = self.read_bits(1)?;
            Ok(((hi << 1) | low) - short)
        }
    }
}

/// Identifier of an instantaneous code, the per-container knob of the
/// graph format. `Zeta(k)` is Boldi–Vigna's ζ_k; `Zeta(1)` is Elias γ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// LEB128 byte code: Ligra+'s parallel-byte format, the paper's graph
    /// representation and the reference the other codes are measured
    /// against.
    Byte,
    /// Boldi–Vigna ζ with shrinking factor `k ∈ [1, 8]`.
    Zeta(u32),
    /// Golomb–Rice with the parameter re-chosen per block (neighbor gaps
    /// within a vertex share one scale) and stored as a 5-bit prefix;
    /// remainders and quotients in two streams (see the module docs).
    RiceAdaptive,
}

/// Largest Rice parameter (fits the 5-bit adaptive prefix).
pub const MAX_RICE_K: u32 = 31;

/// The Rice parameter `k` minimizing `Σ ((x >> k) + 1 + k)` over
/// `values` — the exact cost of Rice-coding all of them, split or not.
pub fn best_rice_k(values: &[u64]) -> u32 {
    let mut best_k = 0u32;
    let mut best_cost = u64::MAX;
    for k in 0..=MAX_RICE_K {
        let mut cost = 0u64;
        for &x in values {
            cost = cost.saturating_add((x >> k) + 1 + k as u64);
        }
        if cost < best_cost {
            best_cost = cost;
            best_k = k;
        }
    }
    best_k
}

impl Codec {
    /// One code per family — what the bench sweeps when picking the best
    /// per graph and the tests run over; [`Codec::Byte`] leads as the
    /// reference row, ζ₃ is WebGraph's default shrinking factor.
    pub const SWEEP: [Codec; 3] = [Codec::Byte, Codec::Zeta(3), Codec::RiceAdaptive];

    /// Stable on-disk identifier. Ids 0–2 and 0x20–0x3F belonged to the
    /// retired unary/γ/δ and fixed-`k` Rice codes, and id 3 to `arice`
    /// with each quotient next to its remainder (before the split-stream
    /// block); none is ever reassigned, and a file carrying one is refused
    /// as [`GraphFormatError::RetiredCodec`].
    pub fn id(self) -> u8 {
        match self {
            Codec::Zeta(k) => 0x10 + k as u8,
            Codec::RiceAdaptive => 5,
            Codec::Byte => 4,
        }
    }

    /// Inverse of [`Codec::id`].
    pub fn from_id(id: u8) -> Option<Codec> {
        match id {
            4 => Some(Codec::Byte),
            5 => Some(Codec::RiceAdaptive),
            k @ 0x11..=0x18 => Some(Codec::Zeta(k as u32 - 0x10)),
            _ => None,
        }
    }

    /// Whether `id` named a code this build no longer reads: unary, γ, δ,
    /// fixed-`k` Rice, or the interleaved `arice` block.
    pub(crate) fn is_retired_id(id: u32) -> bool {
        matches!(id, 0..=3 | 0x20..=0x3F)
    }

    /// Human name, accepted back by [`Codec::parse`].
    pub fn name(self) -> String {
        match self {
            Codec::Zeta(k) => format!("zeta{k}"),
            Codec::RiceAdaptive => "arice".to_string(),
            Codec::Byte => "byte".to_string(),
        }
    }

    /// Parses a codec name (`arice`, `byte`, `zeta1`..`zeta8`).
    pub fn parse(s: &str) -> Option<Codec> {
        match s {
            "arice" => Some(Codec::RiceAdaptive),
            "byte" => Some(Codec::Byte),
            _ => {
                let k: u32 = s.strip_prefix("zeta")?.parse().ok()?;
                (1..=8).contains(&k).then_some(Codec::Zeta(k))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightne_utils::rng::XorShiftStream;

    /// The symbol codes the container codes are built from. `Rice(k)` is
    /// one value of an `arice` block with its two halves side by side:
    /// the block stores the same unary quotient and `k`-bit remainder, in
    /// two streams.
    #[derive(Debug, Clone, Copy)]
    enum Sym {
        VByte,
        Unary,
        Rice(u32),
        Zeta(u32),
    }

    impl Sym {
        fn write(self, w: &mut BitWriter, x: u64) {
            match self {
                Sym::VByte => w.write_vbyte(x),
                Sym::Unary => w.write_unary(x),
                Sym::Rice(k) => {
                    w.write_unary(x >> k);
                    w.write_long_bits(x & ((1u64 << k) - 1), k);
                }
                Sym::Zeta(k) => w.write_zeta(x, k),
            }
        }

        fn read(self, r: &mut BitReader<'_>) -> Result<u64, GraphFormatError> {
            match self {
                Sym::VByte => r.read_vbyte(),
                Sym::Unary => r.read_unary(),
                Sym::Rice(k) => {
                    let q = r.read_unary()?;
                    Ok((q << k) | r.read_bits(k)?)
                }
                Sym::Zeta(k) => r.read_zeta(k),
            }
        }
    }

    fn all_syms() -> Vec<Sym> {
        let mut v = vec![Sym::VByte, Sym::Unary];
        v.extend([0, 1, 2, 5, 8, 13, 21, 31].map(Sym::Rice));
        v.extend((1..=8).map(Sym::Zeta));
        v
    }

    fn roundtrip(sym: Sym, values: &[u64]) {
        let mut w = BitWriter::new();
        for &v in values {
            sym.write(&mut w, v);
        }
        let total = w.len_bits();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes, 0);
        for &v in values {
            assert_eq!(sym.read(&mut r).unwrap(), v, "{sym:?} value {v}");
        }
        // The stream position lands exactly at the end of the last code.
        assert_eq!(r.bit_pos(), total, "{sym:?}");
    }

    #[test]
    fn raw_bits_roundtrip() {
        let mut w = BitWriter::new();
        let widths = [1u32, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 56, 57];
        let mut rng = XorShiftStream::new(1, 0);
        let values: Vec<(u64, u32)> = widths
            .iter()
            .cycle()
            .take(500)
            .map(|&n| {
                let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
                (rng.next_u64() & mask, n)
            })
            .collect();
        for &(v, n) in &values {
            w.write_bits(v, n);
        }
        let total = w.len_bits();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes, 0);
        for &(v, n) in &values {
            assert_eq!(r.read_bits(n).unwrap(), v, "width {n}");
        }
        assert_eq!(r.bit_pos(), total);
    }

    #[test]
    fn exhaustive_small_roundtrip_every_code() {
        let small: Vec<u64> = (0..4096).collect();
        for sym in all_syms() {
            // Unary of 4095 is 4 KiB of zeros per value; 256 covers the
            // 57-bit chunking of `write_unary` several times over.
            let values = if matches!(sym, Sym::Unary) { &small[..256] } else { &small[..] };
            roundtrip(sym, values);
        }
    }

    #[test]
    fn large_values_roundtrip() {
        // The logarithmic-length codes span the whole u64-exponent range
        // (ζ cannot encode u64::MAX itself).
        let mut rng = XorShiftStream::new(7, 0);
        let values: Vec<u64> =
            (0..2000).map(|i| rng.next_u64() >> (i % 57)).map(|v| v.min(u64::MAX - 1)).collect();
        for sym in all_syms() {
            if matches!(sym, Sym::VByte | Sym::Zeta(_)) {
                roundtrip(sym, &values);
            }
        }
        // Rice quotients are unary, so bound each value to keep the
        // quotient small while still exercising the full remainder width.
        let mut rng = XorShiftStream::new(11, 0);
        for k in [0u32, 1, 2, 5, 8, 13, 21, 31] {
            let max = 1u64 << (k + 12).min(63);
            let values: Vec<u64> = (0..500).map(|_| rng.next_u64() % max).collect();
            roundtrip(Sym::Rice(k), &values);
        }
    }

    #[test]
    fn best_rice_k_is_exactly_optimal() {
        let cost = |values: &[u64], k: u32| -> u64 {
            let mut w = BitWriter::new();
            for &v in values {
                Sym::Rice(k).write(&mut w, v);
            }
            w.len_bits()
        };
        let mut rng = XorShiftStream::new(13, 0);
        for mean_bits in [0u32, 3, 8, 14, 20] {
            let values: Vec<u64> = (0..64).map(|_| rng.next_u64() >> (63 - mean_bits)).collect();
            let k = best_rice_k(&values);
            let got = cost(&values, k);
            for other in 0..=MAX_RICE_K {
                assert!(
                    got <= cost(&values, other),
                    "k={k} not optimal for mean_bits={mean_bits}: k={other} is smaller"
                );
            }
        }
    }

    #[test]
    fn code_lengths_match_theory() {
        let len = |sym: Sym, x: u64| {
            let mut w = BitWriter::new();
            sym.write(&mut w, x);
            w.len_bits()
        };
        for x in [0u64, 1, 2, 3, 7, 8, 100, 1000] {
            assert_eq!(len(Sym::Unary, x), x + 1);
            for k in [0u32, 3, 10, 31] {
                assert_eq!(len(Sym::Rice(k), x), (x >> k) + 1 + k as u64);
            }
            assert_eq!(len(Sym::VByte, x), if x < 128 { 8 } else { 16 });
            // ζ₁ is Elias γ: ⌊log₂(x+1)⌋ in unary, then that many bits.
            let h = 64 - (x + 1).leading_zeros() as u64 - 1;
            assert_eq!(len(Sym::Zeta(1), x), 2 * h + 1);
        }
        // ζ₃ beats γ in the heavy tail (its design point).
        assert!(len(Sym::Zeta(3), 5_000) < len(Sym::Zeta(1), 5_000));
        // γ: 0 → "1", 1 → "010", 2 → "011", 3 → "00100"; concatenated,
        // 1010 0110 0100 (pad) = 0xA6 0x40.
        let mut w = BitWriter::new();
        (0..4).for_each(|x| w.write_zeta(x, 1));
        assert_eq!(w.into_bytes(), vec![0xA6, 0x40]);
    }

    #[test]
    fn truncated_reads_fail_typed() {
        for sym in all_syms() {
            // Codes with a value-linear unary part get a value that keeps
            // the codeword (and the prefix loop) short.
            let x = match sym {
                Sym::Unary => 300,
                Sym::Rice(k) if k < 8 => 300,
                _ => 1_000_000,
            };
            let mut w = BitWriter::new();
            sym.write(&mut w, x);
            let bytes = w.into_bytes();
            // Every strict prefix must produce Truncated, never panic.
            for cut in 0..bytes.len() {
                let mut r = BitReader::new(&bytes[..cut], 0);
                match sym.read(&mut r) {
                    Err(GraphFormatError::Truncated { .. }) => {}
                    other => {
                        panic!("{sym:?}: prefix of {cut} bytes: expected Truncated, got {other:?}")
                    }
                }
            }
            // Reading past a valid value into padding also fails typed.
            let mut r = BitReader::new(&bytes, 0);
            assert_eq!(sym.read(&mut r).unwrap(), x);
            assert!(sym.read(&mut r).is_err() || r.bit_pos() <= r.len_bits());
        }
    }

    #[test]
    fn all_zero_bytes_overflow_not_hang() {
        // A long run of zero bytes is an unterminated unary code: the
        // reader must fail typed (Truncated at the end or Overflow), not
        // loop forever or panic.
        let zeros = [0u8; 64];
        for sym in all_syms() {
            // The byte code's unterminated codeword is a run of set
            // continuation bits; a zero byte is its value 0.
            let hostile = if matches!(sym, Sym::VByte) { &[0xFFu8; 64][..] } else { &zeros[..] };
            let mut r = BitReader::new(hostile, 0);
            match sym.read(&mut r) {
                Err(GraphFormatError::Truncated { .. } | GraphFormatError::Overflow { .. }) => {}
                other => panic!("{sym:?}: expected typed failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn vbyte_is_leb128_and_rejects_overlong_chains() {
        // LEB128 layout: low group first, continuation bit on all but the
        // last byte.
        let mut w = BitWriter::new();
        for x in [0u64, 127, 128, 300, 16_384] {
            w.write_vbyte(x);
        }
        assert_eq!(w.into_bytes(), vec![0x00, 0x7F, 0x80, 0x01, 0xAC, 0x02, 0x80, 0x80, 0x01]);
        // The whole u64 domain round-trips, across the fast-path limit
        // (4 bytes = 28 value bits) and at a non-byte-aligned position —
        // the container relies on a reader starting mid-byte to jump
        // straight to a vertex's region.
        let values = [0u64, 1, 127, 128, (1 << 28) - 1, 1 << 28, u32::MAX as u64, u64::MAX];
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        for &v in &values {
            w.write_vbyte(v);
        }
        let total = w.len_bits();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes, 3);
        for &v in &values {
            assert_eq!(r.read_vbyte().unwrap(), v);
        }
        assert_eq!(r.bit_pos(), total);
        // 11 continuation bytes: longer than any u64 codeword.
        let mut r = BitReader::new(&[0xFFu8; 11], 0);
        assert!(matches!(r.read_vbyte(), Err(GraphFormatError::Overflow { .. })));
        // The tenth group may only contribute one bit.
        let mut overlong = [0x80u8; 10];
        overlong[9] = 0x02;
        let mut r = BitReader::new(&overlong, 0);
        assert!(matches!(r.read_vbyte(), Err(GraphFormatError::Overflow { .. })));
        // A continuation byte at the end of the buffer: truncated.
        let mut r = BitReader::new(&[0x80u8], 0);
        assert!(matches!(r.read_vbyte(), Err(GraphFormatError::Truncated { .. })));
    }

    #[test]
    fn random_garbage_never_panics() {
        let mut rng = XorShiftStream::new(21, 0);
        for _ in 0..200 {
            let len = rng.bounded_usize(40);
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            for sym in all_syms() {
                let mut r = BitReader::new(&bytes, 0);
                // Decode until error or end; must terminate and never panic.
                for _ in 0..10_000 {
                    if sym.read(&mut r).is_err() || r.bit_pos() >= r.len_bits() {
                        break;
                    }
                }
            }
        }
    }

    /// Stream offset of the `r`-th set bit of `w`, one bit at a time.
    fn naive_select(w: u64, r: u32) -> u32 {
        (0..64).filter(|&i| w << i >> 63 == 1).nth(r as usize).unwrap()
    }

    #[test]
    fn select_in_word_matches_the_naive_scan() {
        let mut rng = XorShiftStream::new(29, 0);
        let mut words = vec![1u64, 1 << 63, u64::MAX, 0x8000_0000_0000_0001, 0x00FF_0000_0000_FF00];
        // Dense, sparse and byte-clustered words.
        for _ in 0..if cfg!(miri) { 20 } else { 300 } {
            let (a, b) = (rng.next_u64(), rng.next_u64());
            words.extend([a, a & b, a & b & rng.next_u64(), a | b, a & 0xFF00_FF00_00FF_00FF]);
        }
        for w in words.into_iter().filter(|&w| w != 0) {
            let ranks = stream_byte_ranks(w);
            assert_eq!(ranks >> 56, w.count_ones() as u64, "{w:#x}");
            for r in 0..w.count_ones() {
                assert_eq!(select_in_word(w, ranks, r as u64), naive_select(w, r), "{w:#x} r={r}");
            }
        }
    }

    #[test]
    fn sum_fields_matches_the_field_by_field_sum_at_every_k() {
        let mut rng = XorShiftStream::new(31, 0);
        for k in 1..=MAX_RICE_K {
            let plan = FIELD_SUMS[k as usize - 1];
            // A full window of the largest field: the widest sum a slot holds.
            let ones = u64::MAX >> (64 - plan.per * k);
            assert_eq!(plan.window_total(ones), plan.per as u64 * ((1 << k) - 1), "k={k}");
            for pad in [0u32, 1, 5, 7] {
                let fields: Vec<u64> = (0..130).map(|_| rng.next_u64() >> (64 - k)).collect();
                let mut w = BitWriter::new();
                w.write_bits(0, pad);
                for &f in &fields {
                    w.write_bits(f, k);
                }
                let bytes = w.into_bytes();
                let r = BitReader::new(&bytes, 0);
                for count in [0usize, 1, 2, 3, 7, 31, 56, 57, 63, 64, 129, 130] {
                    let want: u64 = fields[..count].iter().sum();
                    let got = r.sum_fields(pad as u64, k, count as u64).unwrap();
                    assert_eq!(got, want, "k={k} pad={pad} count={count}");
                }
            }
        }
    }

    #[test]
    fn select_one_and_sum_fields_stay_in_bounds() {
        // A unary section 0^70 1 0 1 1 from bit 3, then five 7-bit fields.
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        for q in [70u64, 1, 0] {
            w.write_unary(q);
        }
        let fields = [5u64, 127, 0, 64, 3];
        for &f in &fields {
            w.write_bits(f, 7);
        }
        let total = w.len_bits();
        let bytes = w.into_bytes();
        let r = BitReader::new(&bytes, 0);
        assert_eq!(r.select_one(3, 0).unwrap(), (70, 70));
        assert_eq!(r.select_one(3, 1).unwrap(), (70, 72));
        assert_eq!(r.select_one(3, 2).unwrap(), (70, 73));
        let fields_at = 3 + 74;
        for count in 0..=fields.len() {
            let want: u64 = fields[..count].iter().sum();
            assert_eq!(r.sum_fields(fields_at, 7, count as u64).unwrap(), want);
        }
        assert_eq!(r.sum_fields(fields_at, 0, 1_000).unwrap(), 0);
        // One field past the end, or a reader that stops one bit short of
        // the last field or the third one: `Truncated`, never a read
        // past the end.
        assert!(matches!(r.sum_fields(fields_at, 7, 6), Err(GraphFormatError::Truncated { .. })));
        let short = BitReader::within(&bytes, 0, total - 1);
        assert!(matches!(
            short.sum_fields(fields_at, 7, 5),
            Err(GraphFormatError::Truncated { .. })
        ));
        let short = BitReader::within(&bytes, 0, 3 + 73);
        assert_eq!(short.select_one(3, 1).unwrap(), (70, 72));
        assert!(matches!(short.select_one(3, 2), Err(GraphFormatError::Truncated { .. })));
        // A field count whose bit length wraps `u64` fails typed too.
        assert!(r.sum_fields(fields_at, 7, u64::MAX / 2).is_err());
    }

    #[test]
    fn codec_id_and_name_roundtrip() {
        for codec in [Codec::Byte, Codec::RiceAdaptive].into_iter().chain((1..=8).map(Codec::Zeta))
        {
            assert_eq!(Codec::from_id(codec.id()), Some(codec));
            assert_eq!(Codec::parse(&codec.name()), Some(codec));
        }
        // The on-disk ids are the ones files already carry; the
        // split-stream `arice` block took a new one.
        assert_eq!((Codec::RiceAdaptive.id(), Codec::Byte.id(), Codec::Zeta(3).id()), (5, 4, 0x13));
        // A retired code has neither a name nor an id that decodes.
        for name in ["gamma", "delta", "rice12", "unary", "zeta0", "zeta9", "huffman", ""] {
            assert_eq!(Codec::parse(name), None, "{name}");
        }
        // Id 3 is the interleaved `arice` block.
        for id in [0u8, 1, 2, 3, 0x20, 0x2C, 0x3F] {
            assert_eq!(Codec::from_id(id), None);
            assert!(Codec::is_retired_id(id as u32));
        }
        for id in [4u32, 5, 6, 0x10, 0x13, 0x19, 0x40, 0xFF, 0x1_0000] {
            assert!(!Codec::is_retired_id(id), "{id:#x}");
        }
    }
}
