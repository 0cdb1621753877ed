//! The compressed graph format: gap-coded adjacency blocks behind an
//! on-disk container.
//!
//! One container serves every instantaneous code in [`crate::codecs`].
//! With [`Codec::Byte`] it is the paper's *parallel-byte* format (Ligra+,
//! Section 4.1): difference-encoded blocks of byte codes with per-block
//! offsets. The bit-granular codes (adaptive Rice, ζ) reuse the same
//! layout and charge every gap close to its information content instead
//! of a minimum of 8 bits. Around the adjacency arena the container keeps:
//!
//! * **two Elias–Fano sequences** ([`crate::ef`]) for the per-vertex arc
//!   and bit offsets, ~2 bits + log₂(avg) per vertex each where plain
//!   `u64` tables take 16 bytes per vertex;
//! * **checksums and a file form** that loads either fully in memory or
//!   zero-copy via [`crate::mmap`], so graphs larger than RAM stream
//!   through sampling.
//!
//! ## Per-vertex bit layout
//!
//! Each neighbor list is broken into blocks (64 neighbors by default, the
//! Section 4.2 trade-off between compressed size and the latency of
//! fetching an arbitrary incident edge) so the `i`-th-neighbor query of
//! random walks decodes one block, and only up to the neighbor it wants:
//!
//! ```text
//! B = 1 block:   │ block 0 │
//! B > 1 blocks:  ┌────────┬───────────────────────────┬─────────┬─────────┬───┐
//!                │ w (6b) │ end₀ … end_{B-2} (w bits) │ block 0 │ block 1 │ … │
//!                └────────┴───────────────────────────┴─────────┴─────────┴───┘
//! block b, byte / ζ:  codec(x₀) codec(x₁) … codec(x_{c−1})
//! block b, arice:     ┌────────┬──────────────────────────┬─────────────────────────────┐
//!                     │ k (5b) │ r₀ r₁ … r_{c−1} (k bits) │ 0^q₀ 1 0^q₁ 1 … 0^q_{c−1} 1 │
//!                     └────────┴──────────────────────────┴─────────────────────────────┘
//! x₀ = zigzag(first − v),  x_t = gap_t − 1,  x_t = q_t·2^k + r_t,  c = count
//! ```
//!
//! With the adaptive Rice codec (`arice`) each block body starts with a
//! 5-bit Rice parameter chosen to minimize that block's exact bit cost;
//! gaps within one vertex share a scale (≈ n / degree), so the per-block
//! prefix recovers most of the gain of a per-vertex optimal Golomb code.
//! The block is *split-stream*: the `c` remainders as `k`-bit fields, then
//! the `c` quotients as one unary bit vector — the bits of `c` Rice codes,
//! reordered. Its `j`-th neighbor is then closed-form,
//! `first + j + (Σ_{t=1..j} q_t << k) + Σ_{t=1..j} r_t`: the quotient
//! section starts at a known offset (`5 + c·k`), `j + Σ_{t≤j} q_t` is the
//! position of its `j`-th one (one select), and the remainder sum is a
//! run of fixed-width fields — where the interleaved code had to decode
//! all `j` codes before it. Sequential decode runs two cursors, one per
//! stream; the quotient cursor ends where the block does, and the decode
//! checks that it does (the next block's directory entry, or the span's
//! end), so a corrupt quotient section cannot pass for a plausible list.
//!
//! The directory of a multi-block vertex is fixed-width: `endⱼ` is the
//! total bit length of blocks `0..=j`, every entry `w` bits wide, where
//! `w` is the bit length of the vertex's whole body. Block `b > 0` starts
//! at `body + end_{b−1}` — one `w`-bit read whatever the degree, where a
//! γ-coded length per block (container version 1) cost a hub of 10⁶
//! neighbors 15 000 sequential reads per access. Sequential decode reads
//! `w`, skips `(B−1)·w` bits and runs the blocks back to back; a
//! single-block vertex has no directory at all. Within a block the first
//! neighbor is a zigzag delta from the source and each subsequent gap is
//! stored minus one (lists are strictly increasing).
//!
//! Random access trusts the directory; [`V2Graph::validate`] is what
//! checks it — canonical width, every entry equal to the position the
//! sequential decode reaches, the last block ending exactly where the
//! next vertex begins — so the two ways in cannot disagree on a file that
//! validated. Either way a decode is confined to its vertex's bit span.
//!
//! ## Container layout
//!
//! ```text
//! magic "LNV2" | version = 2 | block_size | codec  (4 × u32-ish, 16 bytes)
//! n | arcs | len(ef_arcs) | len(ef_bits) | len(arena)  (5 × u64)
//! payload FNV-1a-64 | header FNV-1a-64               (2 × u64)
//! ef_arcs: EF of cumulative degrees (n+1 values)
//! ef_bits: EF of cumulative per-vertex bit offsets (n+1 values)
//! arena:   concatenated per-vertex bit streams
//! ```
//!
//! [`V2_VERSION`] is 2. Version 1 (γ-coded block lengths, 8-byte select
//! samples every 64th element) is refused with
//! [`GraphFormatError::UnsupportedVersion`], and a version-2 file stamped
//! with the id of a retired code (unary, γ, δ, fixed-`k` Rice, and id 3:
//! `arice` with each quotient next to its remainder) with
//! [`GraphFormatError::RetiredCodec`]: there is one reader, and a
//! container is cheap to rewrite from its source (`lightne compress`).
//!
//! Containers are written via the repo-wide tmp+rename discipline. An
//! in-memory open verifies the payload checksum; a zero-copy mmap open
//! verifies the header checksum and the structural invariants of both EF
//! sequences (population, select samples, monotonicity) but — by design —
//! does not fault in the arena. Arena decoding is fully bounds-checked
//! ([`crate::codecs::BitReader`]), so hostile arena bytes fail typed (or
//! panic with a message on the infallible [`GraphAccess`] paths), never
//! read out of bounds.

use crate::codecs::{best_rice_k, BitReader, BitWriter, Codec, MAX_BITS};
use crate::ef::{self, EfSeq};
use crate::error::GraphFormatError;
use crate::mmap::Mmap;
use crate::ops::{GraphAccess, GraphOps};
use crate::{Graph, VertexId};
use lightne_utils::checksum::fnv1a64;
use lightne_utils::mem::MemUsage;
use lightne_utils::rng::XorShiftStream;
use rayon::prelude::*;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

/// Container magic bytes.
pub const V2_MAGIC: [u8; 4] = *b"LNV2";
/// Container format version this build reads and writes.
pub const V2_VERSION: u32 = 2;
/// Fixed header length in bytes.
const HEADER_LEN: usize = 72;
/// Canonical file extension for containers.
pub const V2_EXTENSION: &str = "lng2";
/// Default neighbors-per-block, the value chosen in the paper.
pub const DEFAULT_BLOCK_SIZE: usize = 64;
/// Bits of the per-vertex field holding the block directory's entry width.
const WIDTH_FIELD_BITS: u32 = 6;

/// Zigzag encoding of a signed difference.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse zigzag.
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes one sorted neighbor list; returns the bit stream (byte-padded)
/// and its exact bit length.
fn encode_vertex(
    source: VertexId,
    neighbors: &[VertexId],
    codec: Codec,
    block_size: usize,
) -> (Vec<u8>, u64) {
    let deg = neighbors.len();
    if deg == 0 {
        return (Vec::new(), 0);
    }
    let nblocks = deg.div_ceil(block_size);
    let mut bodies: Vec<BitWriter> = Vec::with_capacity(nblocks);
    let mut vals: Vec<u64> = Vec::with_capacity(block_size.min(deg));
    for b in 0..nblocks {
        let lo = b * block_size;
        let hi = ((b + 1) * block_size).min(deg);
        vals.clear();
        vals.push(zigzag(neighbors[lo] as i64 - source as i64));
        let mut prev = neighbors[lo];
        for &v in &neighbors[lo + 1..hi] {
            debug_assert!(v > prev, "neighbor list must be strictly increasing");
            vals.push((v - prev - 1) as u64);
            prev = v;
        }
        let mut w = BitWriter::new();
        match codec {
            // Adaptive Rice re-chooses the parameter per block: the gaps
            // of one vertex share a scale (≈ n / degree), so a 5-bit
            // prefix buys a near-optimal k for the whole block.
            Codec::RiceAdaptive => write_rice_block(&mut w, &vals),
            Codec::Byte => {
                for &x in &vals {
                    w.write_vbyte(x);
                }
            }
            Codec::Zeta(k) => {
                for &x in &vals {
                    w.write_zeta(x, k);
                }
            }
        }
        bodies.push(w);
    }
    let mut out = BitWriter::new();
    if nblocks > 1 {
        let total: u64 = bodies.iter().map(BitWriter::len_bits).sum();
        // At most 2³² neighbors of a few dozen bits each: far below the
        // 2⁵⁷ a single `write_bits` moves.
        let width = u64::BITS - total.leading_zeros();
        out.write_bits(width as u64, WIDTH_FIELD_BITS);
        let mut end = 0u64;
        for body in &bodies[..nblocks - 1] {
            end += body.len_bits();
            out.write_bits(end, width);
        }
    }
    for body in bodies {
        let nbits = body.len_bits();
        out.append(&body.into_bytes(), nbits);
    }
    let nbits = out.len_bits();
    (out.into_bytes(), nbits)
}

/// Serializes `g` into a container byte image. The one encode entry:
/// `block_size` must fit the header's `u32` field and be at least 1.
pub fn encode_container(
    g: &Graph,
    codec: Codec,
    block_size: usize,
) -> Result<Vec<u8>, GraphFormatError> {
    let header_block_size = u32::try_from(block_size)
        .ok()
        .filter(|&b| b >= 1)
        .ok_or(GraphFormatError::BlockSize(block_size))?;
    let n = g.num_vertices();

    let encoded: Vec<(Vec<u8>, u64)> = (0..n)
        .into_par_iter()
        .map(|v| encode_vertex(v as VertexId, g.neighbors(v as VertexId), codec, block_size))
        .collect();

    let mut bit_offsets: Vec<u64> = Vec::with_capacity(n + 1);
    let mut acc = 0u64;
    bit_offsets.push(0);
    for (_, bits) in &encoded {
        acc += bits;
        bit_offsets.push(acc);
    }
    let total_bits = acc;

    let mut arena_w = BitWriter::new();
    for (bytes, bits) in &encoded {
        arena_w.append(bytes, *bits);
    }
    let arena = arena_w.into_bytes();

    let arc_offsets: Vec<u64> = {
        let mut v = Vec::with_capacity(n + 1);
        let mut acc = 0u64;
        v.push(0);
        for u in 0..n {
            acc += g.degree(u as VertexId) as u64;
            v.push(acc);
        }
        v
    };
    #[expect(clippy::unwrap_used, reason = "invariant: arc_offsets always has n+1 entries here")]
    let arcs = *arc_offsets.last().unwrap();

    let ef_arcs = ef::encode(&arc_offsets, arcs);
    let ef_bits = ef::encode(&bit_offsets, total_bits);

    let mut out = Vec::with_capacity(HEADER_LEN + ef_arcs.len() + ef_bits.len() + arena.len());
    out.extend_from_slice(&V2_MAGIC);
    out.extend_from_slice(&V2_VERSION.to_le_bytes());
    out.extend_from_slice(&header_block_size.to_le_bytes());
    out.extend_from_slice(&(codec.id() as u32).to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&arcs.to_le_bytes());
    out.extend_from_slice(&(ef_arcs.len() as u64).to_le_bytes());
    out.extend_from_slice(&(ef_bits.len() as u64).to_le_bytes());
    out.extend_from_slice(&(arena.len() as u64).to_le_bytes());
    let mut payload_sum = fnv1a64(&ef_arcs);
    payload_sum = continue_fnv(payload_sum, &ef_bits);
    payload_sum = continue_fnv(payload_sum, &arena);
    out.extend_from_slice(&payload_sum.to_le_bytes());
    let header_sum = fnv1a64(&out);
    out.extend_from_slice(&header_sum.to_le_bytes());
    debug_assert_eq!(out.len(), HEADER_LEN);
    out.extend_from_slice(&ef_arcs);
    out.extend_from_slice(&ef_bits);
    out.extend_from_slice(&arena);
    Ok(out)
}

/// The `N` header bytes from byte `at`: every field of the fixed-size
/// header is read through this window (bytes past the header read as 0,
/// which no caller asks for).
fn header_window<const N: usize>(header: &[u8; HEADER_LEN], at: usize) -> [u8; N] {
    std::array::from_fn(|i| header.get(at + i).copied().unwrap_or(0))
}

/// Continues an FNV-1a-64 stream over more bytes (matching
/// [`fnv1a64`]'s constants).
fn continue_fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Backing bytes of an open container: owned heap or a memory map.
#[derive(Debug)]
enum Storage {
    Owned(Vec<u8>),
    Mapped(Mmap),
}

impl Storage {
    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            Storage::Owned(v) => v,
            Storage::Mapped(m) => m.as_slice(),
        }
    }
}

/// An undirected graph in the compressed container format (see the module
/// docs), backed either by owned heap bytes or a zero-copy memory map.
#[derive(Debug)]
pub struct V2Graph {
    storage: Storage,
    ef_arcs: EfSeq,
    ef_bits: EfSeq,
    /// Absolute byte offset of the arena within the container.
    arena_off: usize,
    arena_len: usize,
    n: usize,
    arcs: u64,
    block_size: usize,
    codec: Codec,
}

impl V2Graph {
    /// Compresses an uncompressed CSR graph into an owned in-memory
    /// container with the default block size.
    #[expect(
        clippy::expect_used,
        reason = "infallible: the default block size passes the size check"
    )]
    pub fn from_graph(g: &Graph, codec: Codec) -> Self {
        Self::from_graph_with_block_size(g, codec, DEFAULT_BLOCK_SIZE)
            .expect("the default block size is valid")
    }

    /// Compresses with an explicit block size (the paper's Section 4.2
    /// trade-off knob); fails typed outside `1..=u32::MAX`.
    pub fn from_graph_with_block_size(
        g: &Graph,
        codec: Codec,
        block_size: usize,
    ) -> Result<Self, GraphFormatError> {
        Self::from_bytes(encode_container(g, codec, block_size)?)
    }

    /// Opens a container from owned bytes, verifying the header and the
    /// payload checksum.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, GraphFormatError> {
        Self::parse(Storage::Owned(bytes), true)
    }

    /// Reads a container file fully into memory (payload checksum
    /// verified).
    pub fn open(path: &Path) -> Result<Self, GraphFormatError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Self::from_bytes(bytes)
    }

    /// Memory-maps a container file zero-copy.
    ///
    /// Verifies the header checksum and the structural invariants of both
    /// offset indices, but does **not** fault in the adjacency arena (the
    /// point of out-of-core loading); arena decoding is bounds-checked, so
    /// corrupt arena bytes surface as typed errors (or panics with a
    /// message on the infallible access paths), never as wild reads. The
    /// file must not be truncated while mapped — containers are replaced
    /// atomically via tmp+rename, never truncated in place.
    pub fn open_mmap(path: &Path) -> Result<Self, GraphFormatError> {
        let file = File::open(path)?;
        let map = Mmap::map(&file)?;
        Self::parse(Storage::Mapped(map), false)
    }

    /// Writes the container image to `path` atomically (tmp + rename).
    pub fn write(
        g: &Graph,
        codec: Codec,
        block_size: usize,
        path: &Path,
    ) -> Result<(), GraphFormatError> {
        let bytes = encode_container(g, codec, block_size)?;
        let tmp = path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    fn parse(storage: Storage, check_payload: bool) -> Result<Self, GraphFormatError> {
        let bytes = storage.bytes();
        let Some(header) = bytes.first_chunk::<HEADER_LEN>() else {
            return Err(GraphFormatError::LengthMismatch {
                what: "container header",
                expected: HEADER_LEN as u64,
                actual: bytes.len() as u64,
            });
        };
        let u32_at = |at| u32::from_le_bytes(header_window(header, at));
        let u64_at = |at| u64::from_le_bytes(header_window(header, at));
        if header_window::<4>(header, 0) != V2_MAGIC {
            return Err(GraphFormatError::BadMagic);
        }
        if fnv1a64(&header_window::<64>(header, 0)) != u64_at(64) {
            return Err(GraphFormatError::ChecksumMismatch { region: "header" });
        }
        let version = u32_at(4);
        if version != V2_VERSION {
            return Err(GraphFormatError::UnsupportedVersion {
                found: version,
                supported: V2_VERSION,
            });
        }
        let (block_size, codec_id) = (u32_at(8) as usize, u32_at(12));
        let (n, arcs, payload_sum) = (u64_at(16), u64_at(24), u64_at(56));
        let (len_ef_arcs, len_ef_bits, len_arena) = (u64_at(32), u64_at(40), u64_at(48));

        if block_size == 0 {
            return Err(GraphFormatError::Corrupt("zero block size"));
        }
        let codec = match u8::try_from(codec_id).ok().and_then(Codec::from_id) {
            Some(c) => c,
            None if Codec::is_retired_id(codec_id) => {
                return Err(GraphFormatError::RetiredCodec { id: codec_id })
            }
            None => return Err(GraphFormatError::Corrupt("unknown codec id")),
        };
        // Checked: three lengths that wrap past 2⁶⁴ back to the file's
        // length would otherwise pass and slice out of range below.
        let expected_len = [len_ef_arcs, len_ef_bits, len_arena]
            .into_iter()
            .try_fold(HEADER_LEN as u64, u64::checked_add);
        if expected_len != Some(bytes.len() as u64) {
            return Err(GraphFormatError::LengthMismatch {
                what: "container payload",
                expected: expected_len.unwrap_or(u64::MAX),
                actual: bytes.len() as u64,
            });
        }
        if n > u32::MAX as u64 {
            return Err(GraphFormatError::Corrupt("vertex count exceeds u32 id space"));
        }
        let n = n as usize;

        // The three sections are contiguous, and FNV-1a over them one
        // after another is FNV-1a over their concatenation.
        if check_payload && bytes.get(HEADER_LEN..).map(fnv1a64) != Some(payload_sum) {
            return Err(GraphFormatError::ChecksumMismatch { region: "payload" });
        }

        let ef_arcs = EfSeq::parse(bytes, HEADER_LEN)?;
        if ef_arcs.byte_len() as u64 != len_ef_arcs {
            return Err(GraphFormatError::LengthMismatch {
                what: "arc-offset index",
                expected: len_ef_arcs,
                actual: ef_arcs.byte_len() as u64,
            });
        }
        let ef_bits = EfSeq::parse(bytes, HEADER_LEN + len_ef_arcs as usize)?;
        if ef_bits.byte_len() as u64 != len_ef_bits {
            return Err(GraphFormatError::LengthMismatch {
                what: "bit-offset index",
                expected: len_ef_bits,
                actual: ef_bits.byte_len() as u64,
            });
        }
        // Structural validation of both indices — required before any
        // select() runs over untrusted bytes (see EfSeq::validate).
        ef_arcs.validate(bytes)?;
        ef_bits.validate(bytes)?;
        if ef_arcs.len() != n + 1 || ef_bits.len() != n + 1 {
            return Err(GraphFormatError::Corrupt("offset index length != n + 1"));
        }
        if n > 0 || arcs > 0 {
            if ef_arcs.get(bytes, n) != arcs {
                return Err(GraphFormatError::Corrupt("arc-offset total disagrees with header"));
            }
            if ef_bits.get(bytes, n) > len_arena * 8 {
                return Err(GraphFormatError::Corrupt("bit offsets exceed arena"));
            }
        }
        let arena_off = HEADER_LEN + len_ef_arcs as usize + len_ef_bits as usize;
        Ok(V2Graph {
            storage,
            ef_arcs,
            ef_bits,
            arena_off,
            arena_len: len_arena as usize,
            n,
            arcs,
            block_size,
            codec,
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of stored directed arcs (`2m`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.arcs as usize
    }

    /// Degree of `v` — one Elias–Fano pair query.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let (a, b) = self.ef_arcs.get_pair(self.storage.bytes(), v as usize);
        (b - a) as usize
    }

    /// Global arc index of `v`'s first arc.
    #[inline]
    pub fn first_arc_index(&self, v: VertexId) -> u64 {
        self.ef_arcs.get(self.storage.bytes(), v as usize)
    }

    /// The configured block size.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The gap codec this container was encoded with.
    #[inline]
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// True when backed by a memory map rather than owned heap bytes.
    #[inline]
    pub fn is_mapped(&self) -> bool {
        matches!(self.storage, Storage::Mapped(_))
    }

    /// Size of the adjacency arena in bytes.
    #[inline]
    pub fn arena_bytes(&self) -> usize {
        self.arena_len
    }

    /// Total container size in bytes (header + indices + arena).
    #[inline]
    pub fn container_bytes(&self) -> usize {
        self.storage.bytes().len()
    }

    /// Heap bytes resident in this process: the whole container when
    /// owned, ~0 when memory-mapped (pages belong to the page cache).
    #[inline]
    pub fn resident_bytes(&self) -> usize {
        match &self.storage {
            Storage::Owned(v) => v.heap_bytes(),
            Storage::Mapped(_) => 0,
        }
    }

    #[inline]
    fn arena(&self) -> &[u8] {
        &self.storage.bytes()[self.arena_off..self.arena_off + self.arena_len]
    }

    /// Degree and arena bit span of `v`: one pair query on each offset
    /// index.
    #[inline]
    fn locate(&self, v: VertexId) -> Located {
        self.span_of(v, self.degree(v))
    }

    /// [`V2Graph::locate`] for a caller that already knows the degree
    /// (the span of an isolated vertex is not looked up).
    #[inline]
    fn span_of(&self, v: VertexId, deg: usize) -> Located {
        if deg == 0 {
            return Located { deg, start: 0, end: 0 };
        }
        let (start, end) = self.ef_bits.get_pair(self.storage.bytes(), v as usize);
        Located { deg, start, end }
    }

    /// Reader over `at`'s span and nothing else: a corrupt directory or
    /// codeword cannot carry a decode into a neighboring vertex.
    #[inline]
    fn reader(&self, at: &Located) -> BitReader<'_> {
        BitReader::within(self.arena(), at.start, at.end)
    }

    /// Checked sequential decode: calls `f` for every neighbor of `v` in
    /// sorted order, failing typed on malformed bytes.
    pub fn try_for_each_neighbor(
        &self,
        v: VertexId,
        f: &mut dyn FnMut(VertexId),
    ) -> Result<(), GraphFormatError> {
        self.decode_vertex(v, &self.locate(v), false, f)
    }

    /// Decodes the blocks of `v` back to back. With `strict` (the
    /// [`V2Graph::validate`] pass) the directory must also be the one the
    /// encoder writes: canonical width, every entry equal to the position
    /// the decode reaches, and the last block ending the vertex's span.
    fn decode_vertex(
        &self,
        v: VertexId,
        at: &Located,
        strict: bool,
        f: &mut dyn FnMut(VertexId),
    ) -> Result<(), GraphFormatError> {
        if at.deg == 0 {
            return Ok(());
        }
        let nblocks = at.deg.div_ceil(self.block_size);
        let mut r = self.reader(at);
        let dir = if nblocks > 1 { Some(Directory::read(&mut r, nblocks)?) } else { None };
        let body = r.bit_pos();
        let n = self.n as u64;
        // An `arice` block ends with its quotients, which nothing else
        // bounds: one compare per block that each ends where the next
        // begins (and the last, the span) is what tells a corrupt quotient
        // section from a plausible list.
        let check_ends = strict || self.codec == Codec::RiceAdaptive;
        let mut left = at.deg;
        for b in 0..nblocks {
            if let Some(dir) = dir.filter(|_| check_ends && b > 0) {
                if dir.block_start(&mut r, b)? != r.bit_pos() {
                    return Err(GraphFormatError::Corrupt("block directory entry"));
                }
            }
            let count = left.min(self.block_size);
            left -= count;
            self.decode_block(v, &mut r, count, |u| {
                if u >= n {
                    return Err(out_of_range(v, u, self.n));
                }
                f(u as VertexId);
                Ok(())
            })?;
        }
        if check_ends {
            let width = u64::BITS - (at.end - body).leading_zeros();
            if r.bit_pos() != at.end || strict && dir.is_some_and(|d| d.width != width) {
                return Err(GraphFormatError::Corrupt("vertex span or directory width"));
            }
        }
        Ok(())
    }

    /// Decodes the first `count` neighbors of the block `r` is positioned
    /// at, handing each to `visit`, and returns the last; an `arice`
    /// block is always decoded whole (`count` is its length: it places
    /// the quotient stream). Sequential decode visits every value, byte
    /// and ζ random access stops at the one it wants (`arice` random
    /// access is closed-form, [`rice_ith`]). The codec match is hoisted
    /// out of the gap loop so each arm runs a monomorphized loop with the
    /// symbol reader and the visitor inlined.
    #[inline]
    fn decode_block(
        &self,
        v: VertexId,
        reader: &mut BitReader<'_>,
        count: usize,
        visit: impl FnMut(u64) -> Result<(), GraphFormatError>,
    ) -> Result<u64, GraphFormatError> {
        let n = self.n;
        // A copy, adopted back below: the gap loop then owns the only
        // reader it touches and keeps position and window in registers.
        let mut own = reader.clone();
        let r = &mut own;
        let last = match self.codec {
            Codec::Zeta(k) => decode_gaps(v, n, r, count, visit, move |r| r.read_zeta(k)),
            Codec::RiceAdaptive => decode_rice_block(v, n, r, count, visit),
            Codec::Byte => decode_gaps(v, n, r, count, visit, |r| r.read_vbyte()),
        };
        *reader = own;
        last
    }

    /// Checked random access: the `i`-th neighbor of `v`. One directory
    /// read finds block `i / block_size`; in it, an `arice` neighbor is
    /// one select and one field sum away (`rice_ith`), a byte or ζ one
    /// at the end of a decode that stops there.
    pub fn try_ith_neighbor(&self, v: VertexId, i: usize) -> Result<VertexId, GraphFormatError> {
        let at = self.locate(v);
        if i >= at.deg {
            return Err(GraphFormatError::NeighborIndexOutOfRange {
                vertex: v,
                index: i,
                degree: at.deg,
            });
        }
        self.ith_of(v, &at, i)
    }

    /// The `i`-th neighbor of the located vertex; `i < at.deg`.
    #[inline]
    fn ith_of(&self, v: VertexId, at: &Located, i: usize) -> Result<VertexId, GraphFormatError> {
        let nblocks = at.deg.div_ceil(self.block_size);
        let (b, j) = (i / self.block_size, i % self.block_size);
        let mut r = self.reader(at);
        if nblocks > 1 {
            let start = Directory::read(&mut r, nblocks)?.block_start(&mut r, b)?;
            r.seek(start);
        }
        let last = match self.codec {
            Codec::RiceAdaptive => {
                let count = (at.deg - b * self.block_size).min(self.block_size);
                rice_ith(v, self.n, &mut r, count, j)?
            }
            _ => self.decode_block(v, &mut r, j + 1, |_| Ok(()))?,
        };
        // Gaps are non-negative: a running value below `n` here was below
        // it at every neighbor before.
        if last >= self.n as u64 {
            return Err(out_of_range(v, last, self.n));
        }
        Ok(last as VertexId)
    }

    /// Fully decodes every adjacency list, verifying structure: codewords,
    /// id range, strict monotonicity, and that the block directory random
    /// access trusts agrees with the sequential decode. O(n + m); used by
    /// tests and by callers that mmap untrusted files but want up-front
    /// validation anyway.
    pub fn validate(&self) -> Result<(), GraphFormatError> {
        for v in 0..self.n as VertexId {
            let mut prev: Option<VertexId> = None;
            let mut ok = true;
            self.decode_vertex(v, &self.locate(v), true, &mut |u| {
                if let Some(p) = prev {
                    ok &= u > p;
                }
                prev = Some(u);
            })?;
            if !ok {
                return Err(GraphFormatError::NonMonotoneNeighbors { vertex: v });
            }
        }
        Ok(())
    }

    /// Decompresses back to an uncompressed CSR graph, failing typed when
    /// the arena does not decode (an mmap open has not read it).
    pub fn try_decompress(&self) -> Result<Graph, GraphFormatError> {
        let degrees = self.degrees();
        let mut offsets = Vec::with_capacity(self.n + 1);
        offsets.push(0u64);
        let mut acc = 0u64;
        for &d in &degrees {
            acc += d as u64;
            offsets.push(acc);
        }
        let mut neighbors = vec![0 as VertexId; self.num_arcs()];
        let mut slices: Vec<&mut [VertexId]> = Vec::with_capacity(self.n);
        let mut rest: &mut [VertexId] = &mut neighbors;
        for &d in &degrees {
            let (head, tail) = rest.split_at_mut(d as usize);
            slices.push(head);
            rest = tail;
        }
        let decoded: Vec<Result<(), GraphFormatError>> = slices
            .into_par_iter()
            .enumerate()
            .map(|(v, dst)| {
                let v = v as VertexId;
                let mut k = 0;
                self.decode_vertex(v, &self.span_of(v, dst.len()), false, &mut |u| {
                    dst[k] = u;
                    k += 1;
                })
            })
            .collect();
        decoded.into_iter().collect::<Result<(), _>>()?;
        Ok(Graph::from_csr(offsets, neighbors))
    }

    /// [`V2Graph::try_decompress`] for containers this process encoded or
    /// already validated.
    pub fn decompress(&self) -> Graph {
        self.try_decompress().unwrap_or_else(|e| unrecoverable(e))
    }
}

/// Where a vertex's adjacency sits: its degree and its arena bit span.
struct Located {
    deg: usize,
    start: u64,
    end: u64,
}

/// The block directory of a multi-block vertex: a width field, then the
/// cumulative body-bit end offset of every block but the last.
#[derive(Clone, Copy)]
struct Directory {
    width: u32,
    /// Bit position of the first entry.
    entries: u64,
    /// Bit position of block 0, right after the last entry.
    body: u64,
}

impl Directory {
    /// Reads the width field `r` is positioned at; leaves `r` at block 0.
    #[inline]
    fn read(r: &mut BitReader<'_>, nblocks: usize) -> Result<Self, GraphFormatError> {
        let width = r.read_bits(WIDTH_FIELD_BITS)? as u32;
        if width > MAX_BITS {
            return Err(GraphFormatError::Corrupt("block directory width"));
        }
        let entries = r.bit_pos();
        let body = entries + (nblocks as u64 - 1) * width as u64;
        r.seek(body);
        Ok(Directory { width, entries, body })
    }

    /// Bit position of block `b`: one fixed-width read, whatever the
    /// degree. Restores `r`'s position.
    #[inline]
    fn block_start(&self, r: &mut BitReader<'_>, b: usize) -> Result<u64, GraphFormatError> {
        if b == 0 {
            return Ok(self.body);
        }
        let back = r.bit_pos();
        r.seek(self.entries + (b as u64 - 1) * self.width as u64);
        let offset = r.read_bits(self.width)?;
        r.seek(back);
        Ok(self.body + offset)
    }
}

/// Where the infallible [`GraphAccess`] paths end up on an error of their
/// `try_` twins: an index past the degree is the caller's bug, and the
/// container was checksummed (or validated by the caller) at open, so a
/// decode failure is corruption no caller of these paths can handle.
#[cold]
#[expect(
    clippy::panic,
    reason = "see the doc comment: caller bug or corruption past the open-time checks, on paths documented to panic"
)]
fn unrecoverable(e: GraphFormatError) -> ! {
    panic!("v2 container: {e}")
}

fn out_of_range(vertex: VertexId, decoded: u64, n: usize) -> GraphFormatError {
    GraphFormatError::VertexOutOfRange { vertex, decoded: decoded as i64, n }
}

/// The first neighbor of a block of `v`'s, from its zigzag delta `x₀`
/// (`at_bit` locates an overflow).
#[inline(always)]
fn first_neighbor(v: VertexId, n: usize, x0: u64, at_bit: u64) -> Result<u64, GraphFormatError> {
    let first =
        (v as i64).checked_add(unzigzag(x0)).ok_or(GraphFormatError::Overflow { at_bit })?;
    if first < 0 {
        return Err(GraphFormatError::VertexOutOfRange { vertex: v, decoded: first, n });
    }
    Ok(first as u64)
}

/// The gap loop of one block: a zigzag delta from the source, then gaps
/// minus one, summed with overflow checks (a codeword can carry any
/// `u64`, so hostile bytes can push either sum past the integer range:
/// checked, not wrapped). `read` has one call site, so it inlines into
/// the loop; `count ≥ 1`.
#[inline(always)]
fn decode_gaps(
    v: VertexId,
    n: usize,
    r: &mut BitReader<'_>,
    count: usize,
    mut visit: impl FnMut(u64) -> Result<(), GraphFormatError>,
    mut read: impl FnMut(&mut BitReader<'_>) -> Result<u64, GraphFormatError>,
) -> Result<u64, GraphFormatError> {
    let overflow = |r: &BitReader<'_>| GraphFormatError::Overflow { at_bit: r.bit_pos() };
    let mut cur = 0u64;
    for j in 0..count {
        let x = read(r)?;
        cur = if j == 0 {
            first_neighbor(v, n, x, r.bit_pos())?
        } else {
            cur.checked_add(x).and_then(|s| s.checked_add(1)).ok_or_else(|| overflow(r))?
        };
        visit(cur)?;
    }
    Ok(cur)
}

/// Bits of an `arice` block's Rice-parameter prefix.
const RICE_K_BITS: u32 = 5;

/// Appends one `arice` block: the Rice parameter minimizing its exact
/// cost, the `k`-bit remainder of every value, then every quotient in
/// unary — the bits of the interleaved Rice code, in two streams.
fn write_rice_block(w: &mut BitWriter, vals: &[u64]) {
    let k = best_rice_k(vals);
    w.write_bits(k as u64, RICE_K_BITS);
    for &x in vals {
        w.write_bits(x & ((1u64 << k) - 1), k);
    }
    for &x in vals {
        w.write_unary(x >> k);
    }
}

/// `q · 2^k`, or `Overflow` at `at_bit` when it leaves the `u64` range.
#[inline(always)]
fn quotient_value(q: u64, k: u32, at_bit: u64) -> Result<u64, GraphFormatError> {
    if q > u64::MAX >> k {
        return Err(GraphFormatError::Overflow { at_bit });
    }
    Ok(q << k)
}

/// Sequential decode of the `arice` block of `count` values `r` is
/// positioned at: two cursors, one over the remainders and `r` itself over
/// the quotients, which leaves `r` where the block ends.
#[inline(always)]
fn decode_rice_block(
    v: VertexId,
    n: usize,
    r: &mut BitReader<'_>,
    count: usize,
    visit: impl FnMut(u64) -> Result<(), GraphFormatError>,
) -> Result<u64, GraphFormatError> {
    let k = r.read_bits(RICE_K_BITS)? as u32;
    let mut rems = r.clone();
    r.seek(r.bit_pos() + count as u64 * k as u64);
    decode_gaps(v, n, r, count, visit, move |quots| {
        let q = quots.read_unary()?;
        Ok(quotient_value(q, k, quots.bit_pos())? | rems.read_bits(k)?)
    })
}

/// The `j`-th neighbor (`j < count`) in the `arice` block of `count`
/// values `r` is positioned at, in closed form: with `x₀ = q₀·2^k + r₀`
/// the first neighbor's zigzag delta, it is
/// `first + j + (Σ_{t=1..j} q_t << k) + Σ_{t=1..j} r_t`. The quotient
/// section's `j`-th one sits `j + Σ_{t≤j} q_t` bits in (one select), and
/// the remainders are fixed-width fields (one sum). Every read stays in
/// `r`'s span, every add is checked.
#[inline]
fn rice_ith(
    v: VertexId,
    n: usize,
    r: &mut BitReader<'_>,
    count: usize,
    j: usize,
) -> Result<u64, GraphFormatError> {
    let k = r.read_bits(RICE_K_BITS)? as u32;
    let rems = r.bit_pos();
    let quots = rems + count as u64 * k as u64;
    let (q0, at) = r.select_one(quots, j as u64)?;
    let r0 = r.read_bits(k)?;
    let first = first_neighbor(v, n, quotient_value(q0, k, quots)? | r0, quots)?;
    let sum_q = quotient_value(at - j as u64 - q0, k, quots)?;
    let sum_r = r.sum_fields(rems + k as u64, k, j as u64)?;
    let overflow = GraphFormatError::Overflow { at_bit: quots };
    first
        .checked_add(j as u64)
        .and_then(|s| s.checked_add(sum_q))
        .and_then(|s| s.checked_add(sum_r))
        .ok_or(overflow)
}

impl GraphAccess for V2Graph {
    #[inline]
    fn num_vertices(&self) -> usize {
        V2Graph::num_vertices(self)
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        V2Graph::num_arcs(self)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        V2Graph::degree(self, v)
    }

    #[inline]
    fn ith_neighbor(&self, v: VertexId, i: usize) -> VertexId {
        self.try_ith_neighbor(v, i).unwrap_or_else(|e| unrecoverable(e))
    }

    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        self.try_for_each_neighbor(v, f).unwrap_or_else(|e| unrecoverable(e))
    }

    /// One walk step off one lookup of `v`: the degree bounds the draw
    /// and the same located span serves the block decode.
    #[inline]
    fn sample_neighbor(&self, v: VertexId, rng: &mut XorShiftStream) -> Option<VertexId> {
        let at = self.locate(v);
        if at.deg == 0 {
            return None;
        }
        let i = rng.bounded_usize(at.deg);
        Some(self.ith_of(v, &at, i).unwrap_or_else(|e| unrecoverable(e)))
    }

    #[inline]
    fn first_arc_index(&self, v: VertexId) -> u64 {
        V2Graph::first_arc_index(self, v)
    }

    #[inline]
    fn resident_bytes(&self) -> usize {
        V2Graph::resident_bytes(self)
    }
}

impl MemUsage for V2Graph {
    fn heap_bytes(&self) -> usize {
        self.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use lightne_utils::rng::XorShiftStream;

    fn random_graph(n: usize, m: usize, seed: u64) -> Graph {
        let mut rng = XorShiftStream::new(seed, 0);
        let edges: Vec<(u32, u32)> =
            (0..m).map(|_| (rng.bounded_usize(n) as u32, rng.bounded_usize(n) as u32)).collect();
        GraphBuilder::from_edges(n, &edges)
    }

    /// Star graph whose hub has exactly `deg` neighbors `1..=deg`.
    fn star(deg: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (1..=deg as u32).map(|v| (0u32, v)).collect();
        GraphBuilder::from_edges(deg + 1, &edges)
    }

    fn check_equal(g: &Graph, c: &V2Graph) {
        assert_eq!(c.num_vertices(), g.num_vertices());
        assert_eq!(c.num_arcs(), g.num_arcs());
        c.validate().unwrap();
        assert_eq!(&c.decompress(), g);
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(c.degree(v), g.degree(v), "degree of {v}");
            assert_eq!(c.first_arc_index(v), g.offsets()[v as usize]);
            let mut seq = Vec::new();
            GraphAccess::for_each_neighbor(c, v, &mut |u| seq.push(u));
            assert_eq!(seq, g.neighbors(v), "neighbors of {v}");
            for i in 0..g.degree(v) {
                assert_eq!(c.try_ith_neighbor(v, i).unwrap(), g.ith_neighbor(v, i), "v={v} i={i}");
                assert_eq!(GraphAccess::ith_neighbor(c, v, i), g.ith_neighbor(v, i));
            }
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [-1_000_000i64, -1, 0, 1, 5, i32::MAX as i64, i32::MIN as i64] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn roundtrip_every_codec() {
        let g = random_graph(300, 3_000, 17);
        for codec in Codec::SWEEP {
            let c = V2Graph::from_graph(&g, codec);
            check_equal(&g, &c);
            assert_eq!(c.codec(), codec);
        }
    }

    #[test]
    fn roundtrip_odd_block_sizes() {
        let g = random_graph(150, 2_000, 23);
        for codec in Codec::SWEEP {
            for bs in [1usize, 2, 3, 7, 8, 16, 63, 64, 65, 256, 1024] {
                let c = V2Graph::from_graph_with_block_size(&g, codec, bs).unwrap();
                assert_eq!(c.block_size(), bs);
                check_equal(&g, &c);
            }
        }
    }

    #[test]
    fn block_size_outside_header_range_fails_typed() {
        let g = star(3);
        for bs in [0usize, u32::MAX as usize + 1, usize::MAX] {
            assert!(matches!(
                encode_container(&g, Codec::Byte, bs),
                Err(GraphFormatError::BlockSize(b)) if b == bs
            ));
            assert!(V2Graph::from_graph_with_block_size(&g, Codec::Byte, bs).is_err());
        }
        let c = V2Graph::from_graph_with_block_size(&g, Codec::Byte, u32::MAX as usize).unwrap();
        check_equal(&g, &c);
    }

    #[test]
    fn empty_graph_and_isolated_vertices() {
        for codec in Codec::SWEEP {
            let empty = GraphBuilder::from_edges(0, &[]);
            let c = V2Graph::from_graph(&empty, codec);
            assert_eq!(c.num_vertices(), 0);
            assert_eq!(c.num_arcs(), 0);
            c.validate().unwrap();

            let sparse = GraphBuilder::from_edges(10, &[(2, 7)]);
            let c = V2Graph::from_graph(&sparse, codec);
            check_equal(&sparse, &c);
            // Degree 0: no block exists and the callback never runs.
            c.try_for_each_neighbor(5, &mut |_| panic!("no neighbors to decode")).unwrap();
        }
    }

    #[test]
    fn block_size_boundary_degrees() {
        // One block exactly (an off-by-one would add a phantom second
        // block), a one-neighbor tail block, and a 16-block hub.
        for codec in Codec::SWEEP {
            for deg in [63usize, 64, 65, 127, 128, 129, 1000] {
                let g = star(deg);
                let c = V2Graph::from_graph(&g, codec);
                check_equal(&g, &c);
            }
        }
    }

    #[test]
    fn difference_coding_shrinks_clustered_ids() {
        let edges: Vec<(u32, u32)> = (0..9_999u32).map(|v| (v, v + 1)).collect();
        let g = GraphBuilder::from_edges(10_000, &edges);
        let raw = g.num_arcs() * std::mem::size_of::<VertexId>();
        for codec in Codec::SWEEP {
            let c = V2Graph::from_graph(&g, codec);
            assert!(c.arena_bytes() < raw / 2, "{}: {} vs {raw}", codec.name(), c.arena_bytes());
        }
    }

    #[test]
    fn max_gap_neighbor_lists() {
        // Two neighbors at the extreme ends of the id space: the largest
        // gap a u32-id graph can produce.
        let n = (u32::MAX - 1) as usize + 1;
        // Building a full-size graph is infeasible; emulate with the
        // largest ids GraphBuilder handles cheaply.
        let n = n.min(1 << 20);
        let g = GraphBuilder::from_edges(n, &[(0, (n - 1) as u32), (0, 1)]);
        for codec in Codec::SWEEP {
            let c = V2Graph::from_graph(&g, codec);
            check_equal(&g, &c);
        }
    }

    #[test]
    fn best_codec_beats_byte_on_random_graph() {
        let g = random_graph(2_000, 40_000, 5);
        let byte = V2Graph::from_graph(&g, Codec::Byte).container_bytes();
        let best = Codec::SWEEP
            .iter()
            .map(|&c| V2Graph::from_graph(&g, c).container_bytes())
            .min()
            .unwrap();
        // Gaps here average ~50, where one byte is within a bit of optimal;
        // the offset tables that used to dominate the difference are
        // Elias–Fano for every codec (`container_smaller_than_plain_offsets`).
        assert!(best < byte, "best {best} bytes vs byte {byte} bytes");
    }

    #[test]
    fn version_2_container_bytes_are_pinned() {
        // FNV-1a-64 of the whole container image, recorded when version 2
        // (fixed-width block directory, 4-byte select samples every 8th
        // element) was introduced: a later codec or refactor changes no
        // byte of a version-2 container, so files written today still read.
        // A changed layout takes a new codec id and retires the old one.
        let g = random_graph(500, 4_000, 61);
        for (codec, want) in [
            (Codec::Byte, 0xB904_DFAC_17D3_79BBu64),
            (Codec::Zeta(2), 0xCFB8_1F33_A42C_CCA1),
            (Codec::Zeta(3), 0x3991_B0D7_6978_1957),
            (Codec::Zeta(4), 0x3D10_4B46_7DA8_5EA1),
            // Re-pinned with the split-stream block (codec id 5): the same
            // length and offset indices, the arena's bits reordered.
            (Codec::RiceAdaptive, 0x5847_DE34_71DE_2A7C),
        ] {
            let bytes = encode_container(&g, codec, 64).unwrap();
            assert_eq!(fnv1a64(&bytes), want, "{} container bytes changed", codec.name());
        }
    }

    #[test]
    fn file_roundtrip_in_memory_and_mmap() {
        let g = random_graph(400, 6_000, 31);
        let mut path = std::env::temp_dir();
        path.push(format!("lightne-v2-test-{}.lng2", std::process::id()));
        V2Graph::write(&g, Codec::Zeta(2), DEFAULT_BLOCK_SIZE, &path).unwrap();

        let owned = V2Graph::open(&path).unwrap();
        check_equal(&g, &owned);
        assert!(!owned.is_mapped());
        assert!(owned.resident_bytes() > 0);

        #[cfg(not(miri))]
        {
            let mapped = V2Graph::open_mmap(&path).unwrap();
            check_equal(&g, &mapped);
            assert!(mapped.is_mapped());
            assert_eq!(mapped.resident_bytes(), 0);
            assert_eq!(mapped.container_bytes(), owned.container_bytes());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_is_atomic_no_tmp_left_behind() {
        let g = star(10);
        let mut path = std::env::temp_dir();
        path.push(format!("lightne-v2-atomic-{}.lng2", std::process::id()));
        V2Graph::write(&g, Codec::Byte, 64, &path).unwrap();
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_byte_flip_is_detected_or_harmless() {
        // In-memory open verifies the payload checksum, so ANY single-bit
        // flip anywhere in the container must be rejected at open or —
        // if it hits the checksum fields themselves — also rejected.
        let g = random_graph(60, 400, 41);
        for codec in Codec::SWEEP {
            let bytes = encode_container(&g, codec, 64).unwrap();
            V2Graph::from_bytes(bytes.clone()).unwrap();
            for i in 0..bytes.len() {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 0x01;
                assert!(V2Graph::from_bytes(corrupt).is_err(), "flip at byte {i} went undetected");
            }
        }
    }

    #[test]
    fn truncated_container_fails_typed() {
        let g = random_graph(50, 300, 43);
        for codec in Codec::SWEEP {
            let bytes = encode_container(&g, codec, 64).unwrap();
            for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN, bytes.len() / 2, bytes.len() - 1] {
                match V2Graph::from_bytes(bytes[..cut].to_vec()) {
                    Err(_) => {}
                    Ok(_) => panic!("prefix of {cut} bytes parsed"),
                }
            }
            // Half the arena gone with the header re-stamped to match:
            // the offset index now points past the end.
            let arena_len = arena_len(&bytes);
            let mut cut = bytes[..bytes.len() - arena_len / 2].to_vec();
            cut[48..56].copy_from_slice(&((arena_len - arena_len / 2) as u64).to_le_bytes());
            restamp_header(&mut cut);
            assert!(matches!(
                V2Graph::parse(Storage::Owned(cut), false),
                Err(GraphFormatError::Corrupt("bit offsets exceed arena"))
            ));
        }
    }

    /// Opens `bytes` the way `open_mmap` would: header and indices
    /// verified, payload checksum skipped.
    fn open_unchecked(bytes: Vec<u8>) -> V2Graph {
        V2Graph::parse(Storage::Owned(bytes), false).unwrap()
    }

    /// Recomputes the header checksum after a header field was edited.
    fn restamp_header(bytes: &mut [u8]) {
        let sum = fnv1a64(&bytes[0..64]);
        bytes[64..72].copy_from_slice(&sum.to_le_bytes());
    }

    /// The arena length a container image's header records.
    fn arena_len(bytes: &[u8]) -> usize {
        u64::from_le_bytes(bytes[48..56].try_into().unwrap()) as usize
    }

    #[test]
    fn hostile_arena_fails_typed_not_panic() {
        // Mmap-style open skips the payload checksum; corrupt arena bytes
        // must surface as typed errors from the checked decode paths.
        let g = random_graph(80, 600, 47);
        for codec in Codec::SWEEP {
            let mut bytes = encode_container(&g, codec, 64).unwrap();
            let arena_start = bytes.len() - 10;
            bytes[arena_start..].fill(0xFF);
            // Rewrite nothing else: header checksum still valid, payload not.
            assert!(matches!(
                V2Graph::from_bytes(bytes.clone()),
                Err(GraphFormatError::ChecksumMismatch { region: "payload" })
            ));
            let c = open_unchecked(bytes);
            let failures = (0..c.num_vertices() as u32)
                .filter(|&v| c.try_for_each_neighbor(v, &mut |_| {}).is_err())
                .count();
            assert!(failures > 0, "{}: overwritten arena tail decoded cleanly", codec.name());
        }

        // Every arena byte inverted in turn, every codec: the decoders
        // either still produce a valid graph or fail typed, never panic.
        let g = random_graph(40, 300, 37);
        for codec in Codec::SWEEP {
            let bytes = encode_container(&g, codec, 4).unwrap();
            let arena_len = arena_len(&bytes);
            let mut rejected = 0usize;
            for i in bytes.len() - arena_len..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0xFF;
                rejected += open_unchecked(bad).validate().is_err() as usize;
            }
            assert!(rejected > 0, "{}: no corruption was ever detected", codec.name());
        }

        // Codewords near u64::MAX: every code with a logarithmic length
        // can carry one in a few bytes (Rice would need 2³² unary zeros).
        // Vertex 0 is isolated, so vertex 1's block starts at arena bit 0
        // and is overwritten in place; its forty spread-out neighbors make
        // the span long enough to hold such a codeword (the reader does
        // not leave the span, so a longer one would be `Truncated`).
        let mut edges: Vec<(u32, u32)> = vec![(1, 2), (1, 3)];
        edges.extend((1..=40u32).map(|j| (1, 3 + 50 * j)));
        let g = GraphBuilder::from_edges(2_004, &edges);
        let huge = u64::MAX - 1; // zigzag(i64::MAX)
        for codec in [Codec::Byte, Codec::Zeta(1), Codec::Zeta(2), Codec::Zeta(3)] {
            // A wrapped `prev + gap + 1` would hand out neighbor 0 after
            // 2; a wrapped `v + first` a negative id.
            for (values, decoded) in [([zigzag(1), huge], &[2u32][..]), ([huge, 0], &[][..])] {
                let mut w = BitWriter::new();
                for &x in &values {
                    match codec {
                        Codec::Zeta(k) => w.write_zeta(x, k),
                        _ => w.write_vbyte(x),
                    }
                }
                let hostile = w.into_bytes();
                let mut bytes = encode_container(&g, codec, 64).unwrap();
                let arena_off = bytes.len() - arena_len(&bytes);
                bytes[arena_off..arena_off + hostile.len()].copy_from_slice(&hostile);
                let c = open_unchecked(bytes);
                let mut seen = Vec::new();
                let got = c.try_for_each_neighbor(1, &mut |u| seen.push(u));
                assert!(
                    matches!(got, Err(GraphFormatError::Overflow { .. })),
                    "{}: {got:?}",
                    codec.name()
                );
                assert_eq!(seen, decoded, "{}", codec.name());
                assert!(matches!(c.try_ith_neighbor(1, 1), Err(GraphFormatError::Overflow { .. })));
            }
        }
    }

    #[test]
    fn wrong_magic_and_version() {
        let g = star(4);
        let mut bytes = encode_container(&g, Codec::Byte, 64).unwrap();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(V2Graph::from_bytes(wrong_magic), Err(GraphFormatError::BadMagic)));

        // Bump the version and re-stamp the header checksum so the
        // version check (not the checksum) fires.
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        restamp_header(&mut bytes);
        assert!(matches!(
            V2Graph::from_bytes(bytes.clone()),
            Err(GraphFormatError::UnsupportedVersion { found: 99, .. })
        ));
        // A version-1 file (γ-coded block lengths) is not read: there is
        // one reader, and the error says to recompress.
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        restamp_header(&mut bytes);
        let err = V2Graph::from_bytes(bytes).unwrap_err();
        assert!(matches!(err, GraphFormatError::UnsupportedVersion { found: 1, supported: 2 }));
        assert!(err.to_string().contains("lightne compress"), "{err}");
    }

    /// Every way of opening `bytes`: owned, read from a file, and (not
    /// under miri) mapped.
    fn open_every_way(bytes: Vec<u8>, tag: &str) -> Vec<Result<V2Graph, GraphFormatError>> {
        let mut path = std::env::temp_dir();
        path.push(format!("lightne-v2-{tag}-{}.lng2", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let mut opened = vec![V2Graph::from_bytes(bytes), V2Graph::open(&path)];
        #[cfg(not(miri))]
        opened.push(V2Graph::open_mmap(&path));
        std::fs::remove_file(&path).unwrap();
        opened
    }

    #[test]
    fn retired_codec_id_is_a_typed_error() {
        // A container written with `rice12` (id 0x2C) before the fixed-`k`
        // Rice codes were retired, and one of `arice` blocks with each
        // quotient next to its remainder (id 3): the header is intact, so
        // every way in names the id and says how to get a readable file.
        for (id, codec) in [(0x2Cu32, Codec::Byte), (3, Codec::RiceAdaptive)] {
            let mut bytes = encode_container(&star(4), codec, 64).unwrap();
            bytes[12..16].copy_from_slice(&id.to_le_bytes());
            restamp_header(&mut bytes);
            for got in open_every_way(bytes, "retired") {
                let err = got.unwrap_err();
                assert!(
                    matches!(err, GraphFormatError::RetiredCodec { id: i } if i == id),
                    "{err:?}"
                );
                assert!(err.to_string().contains("lightne compress"), "{err}");
            }
        }
    }

    #[test]
    fn section_lengths_that_wrap_fail_typed_on_every_open() {
        // Both index lengths raised by 2⁶³: the three lengths still sum to
        // the file's length modulo 2⁶⁴, behind a resealed header.
        let mut bytes =
            encode_container(&random_graph(30, 100, 3), Codec::RiceAdaptive, 64).unwrap();
        for at in [32, 40] {
            let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            bytes[at..at + 8].copy_from_slice(&(len + (1 << 63)).to_le_bytes());
        }
        restamp_header(&mut bytes);
        let actual = bytes.len() as u64;
        for got in open_every_way(bytes, "wrapped") {
            assert!(
                matches!(
                    got,
                    Err(GraphFormatError::LengthMismatch { what: "container payload", expected: u64::MAX, actual: a })
                        if a == actual
                ),
                "{got:?}"
            );
        }
    }

    /// `try_ith_neighbor` at the first and last index of every block of
    /// a star's hub, every codec: each access is one directory read, so
    /// the hub's block count only shows in how many are checked.
    fn check_hub_block_edges(deg: usize) {
        let g = star(deg);
        for codec in Codec::SWEEP {
            let c = V2Graph::from_graph(&g, codec);
            for lo in (0..deg).step_by(DEFAULT_BLOCK_SIZE) {
                let hi = (lo + DEFAULT_BLOCK_SIZE).min(deg) - 1;
                for i in [lo, hi] {
                    assert_eq!(
                        c.try_ith_neighbor(0, i).unwrap(),
                        i as u32 + 1,
                        "{} i={i}",
                        codec.name()
                    );
                }
            }
            assert!(matches!(
                c.try_ith_neighbor(0, deg),
                Err(GraphFormatError::NeighborIndexOutOfRange { vertex: 0, index, degree })
                    if index == deg && degree == deg
            ));
        }
    }

    #[test]
    #[cfg(not(miri))]
    fn hub_of_3125_blocks_seeks_every_block() {
        check_hub_block_edges(200_000);
    }

    #[test]
    fn hub_of_5_blocks_seeks_every_block() {
        check_hub_block_edges(300);
    }

    #[test]
    fn index_past_the_degree_is_a_typed_error() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (0, 2)]);
        let c = V2Graph::from_graph(&g, Codec::RiceAdaptive);
        assert_eq!(c.try_ith_neighbor(0, 1).unwrap(), 2);
        for (v, i, deg) in [(0u32, 2usize, 2usize), (3, 0, 0), (1, usize::MAX, 1)] {
            assert!(matches!(
                c.try_ith_neighbor(v, i),
                Err(GraphFormatError::NeighborIndexOutOfRange { vertex, index, degree })
                    if (vertex, index, degree) == (v, i, deg)
            ));
        }
    }

    #[test]
    #[should_panic(expected = "neighbor index 2 out of range for degree 2")]
    fn infallible_ith_neighbor_keeps_its_message() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (0, 2)]);
        GraphAccess::ith_neighbor(&V2Graph::from_graph(&g, Codec::Byte), 0, 2);
    }

    #[test]
    fn hostile_directory_is_rejected_and_never_leaves_the_span() {
        // Vertex 1 is a four-block hub between two ordinary vertices, so
        // a directory entry pointing past its span lands on real data of
        // a neighbor, not on padding. Every bit of its width field and
        // its three entries is flipped in turn behind a re-stamped header
        // (the mmap-style open, which skips the payload checksum).
        let hub: Vec<(u32, u32)> = (0..200u32).map(|j| (1, 2 + 3 * j)).collect();
        let mut edges = hub.clone();
        edges.extend((2..600u32).map(|v| (v, v + 1)));
        edges.push((0, 5));
        let g = GraphBuilder::from_edges(602, &edges);
        let (bs, deg) = (DEFAULT_BLOCK_SIZE, g.degree(1));
        assert_eq!(deg.div_ceil(bs), 4);
        for codec in Codec::SWEEP {
            let bytes = encode_container(&g, codec, bs).unwrap();
            let good = open_unchecked(bytes.clone());
            good.validate().unwrap();
            let at = good.locate(1);
            let mut r = good.reader(&at);
            let dir = Directory::read(&mut r, 4).unwrap();
            let dir_bits = WIDTH_FIELD_BITS as u64 + 3 * dir.width as u64;
            assert_eq!(dir.body, at.start + dir_bits);
            let arena_off = bytes.len() - arena_len(&bytes);
            for bit in at.start..at.start + dir_bits {
                let mut bad = bytes.clone();
                bad[arena_off + (bit / 8) as usize] ^= 0x80 >> (bit % 8);
                let c = open_unchecked(bad);
                assert!(c.validate().is_err(), "{}: flip of bit {bit} validated", codec.name());
                // Which blocks still start where they should: a width
                // flip moves the whole body, an entry flip one block.
                let entry = bit
                    .checked_sub(at.start + WIDTH_FIELD_BITS as u64)
                    .map(|b| b / dir.width as u64);
                for i in 0..deg {
                    let moved = entry.is_none_or(|e| e + 1 == (i / bs) as u64);
                    match c.try_ith_neighbor(1, i) {
                        // Decoded inside the span, range-checked: an id, if
                        // not the right one where the block start moved.
                        Ok(u) => assert!(moved && (u as usize) < 602 || u == g.ith_neighbor(1, i)),
                        Err(e) => assert!(moved, "{}: i={i}: {e}", codec.name()),
                    }
                }
            }
            // An all-ones entry points at or past the span's end (the
            // width is the bit length of the body total): `Truncated`
            // there, not a decode of the next vertex's bits.
            let first = at.start + WIDTH_FIELD_BITS as u64;
            let mut bad = bytes.clone();
            for bit in first..first + dir.width as u64 {
                bad[arena_off + (bit / 8) as usize] |= 0x80 >> (bit % 8);
            }
            let got = open_unchecked(bad).try_ith_neighbor(1, bs);
            assert!(matches!(got, Err(GraphFormatError::Truncated { .. })), "{got:?}");
        }
    }

    #[test]
    fn try_decompress_fails_typed_on_a_corrupt_arena() {
        let g = random_graph(80, 600, 47);
        let mut bytes = encode_container(&g, Codec::RiceAdaptive, 64).unwrap();
        assert_eq!(open_unchecked(bytes.clone()).try_decompress().unwrap(), g);
        let tail = bytes.len() - 10;
        bytes[tail..].fill(0xFF);
        assert!(open_unchecked(bytes).try_decompress().is_err());
    }

    /// The prefix sums of a block's values: its neighbors, as `u64`.
    fn block_neighbors(v: VertexId, vals: &[u64]) -> Vec<u64> {
        let mut cur = (v as i64 + unzigzag(vals[0])) as u64;
        let mut out = vec![cur];
        for &x in &vals[1..] {
            cur += x + 1;
            out.push(cur);
        }
        out
    }

    /// One `arice` block behind `pad` leading bits, decoded every way: the
    /// closed-form `j`-th value at every `j`, and the two-cursor sequential
    /// decode, which must end where the block does. Every strict prefix
    /// fails typed both ways. Returns the block's `k`.
    fn check_rice_block(v: VertexId, vals: &[u64], pad: u32) -> u32 {
        let want = block_neighbors(v, vals);
        let mut w = BitWriter::new();
        w.write_bits(0, pad);
        write_rice_block(&mut w, vals);
        let end = w.len_bits();
        let bytes = w.into_bytes();
        let start = pad as u64;
        let n = usize::MAX;
        for (j, &u) in want.iter().enumerate() {
            let mut r = BitReader::within(&bytes, start, end);
            assert_eq!(rice_ith(v, n, &mut r, vals.len(), j).unwrap(), u, "j={j}");
        }
        let mut seen = Vec::new();
        let mut r = BitReader::within(&bytes, start, end);
        decode_rice_block(v, n, &mut r, vals.len(), |u| {
            seen.push(u);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, want);
        assert_eq!(r.bit_pos(), end, "the quotient cursor ends the block");
        // Under miri every 13th cut, the last one included.
        for cut in (start..end).rev().step_by(if cfg!(miri) { 13 } else { 1 }) {
            let mut r = BitReader::within(&bytes, start, cut);
            assert!(decode_rice_block(v, n, &mut r, vals.len(), |_| Ok(())).is_err(), "cut {cut}");
            let mut r = BitReader::within(&bytes, start, cut);
            assert!(rice_ith(v, n, &mut r, vals.len(), vals.len() - 1).is_err(), "cut {cut}");
        }
        BitReader::new(&bytes, start).read_bits(RICE_K_BITS).unwrap() as u32
    }

    #[test]
    fn arice_targeted_blocks_decode_every_way() {
        let mut rng = XorShiftStream::new(71, 0);
        let pads: &[u32] = if cfg!(miri) { &[5] } else { &[0, 3, 7, 13] };
        for &pad in pads {
            // Consecutive neighbors right after the source: k = 0.
            let mut vals = vec![zigzag(1)];
            vals.extend([0u64; 63]);
            assert_eq!(check_rice_block(5, &vals, pad), 0);
            // Gaps near 2³²: k = 31, the widest the prefix holds.
            let mut vals = vec![zigzag(3 << 30)];
            vals.extend((1..64).map(|_| (1 << 31) + (rng.next_u64() >> 31)));
            assert_eq!(check_rice_block(1 << 31, &vals, pad), 31);
            // Quotients of 0–3 over 64 gaps: a quotient section of more
            // than 64 bits, whose windows the pad shifts.
            let mut vals = vec![zigzag(-3)];
            vals.extend((1..64).map(|_| rng.next_u64() >> 58));
            let k = check_rice_block(7, &vals, pad);
            assert!(vals.iter().map(|&x| (x >> k) + 1).sum::<u64>() > 64);
            // A first neighbor far from its source, then consecutive ones:
            // more than 64 zeros before the quotient section's first one
            // (k = 11 here; one more would cost each of the 64 values a
            // bit to save 49).
            let mut vals = vec![zigzag(100_000)];
            vals.extend([0u64; 63]);
            let k = check_rice_block(3, &vals, pad);
            assert!(vals[0] >> k > 64, "k={k}");
            // Short (last) blocks, and a source past its first neighbor.
            for len in [1usize, 2, 5] {
                let mut vals = vec![zigzag(-40)];
                vals.extend((1..len).map(|_| rng.next_u64() >> 57));
                check_rice_block(100, &vals, pad);
            }
        }
    }

    #[test]
    fn arice_random_access_sequential_and_csr_agree() {
        // Sparse, dense and hub-heavy graphs (per-block k from 0 to ~8),
        // at block sizes from one neighbor per block to whole lists.
        let graphs = [random_graph(120, 300, 81), random_graph(90, 2_500, 83), {
            let mut edges: Vec<(u32, u32)> = (1..300u32).map(|v| (0, v)).collect();
            edges.extend((1..299u32).step_by(7).map(|v| (v, v + 1)));
            GraphBuilder::from_edges(300, &edges)
        }];
        for g in &graphs {
            for bs in [1usize, 2, 3, 7, 63, 64, 65, 256] {
                let c = V2Graph::from_graph_with_block_size(g, Codec::RiceAdaptive, bs).unwrap();
                check_equal(g, &c);
            }
        }
    }

    #[test]
    fn an_arice_quotient_tail_of_ones_fails_the_sequential_decode() {
        // The last vertex's block ends the arena. Ones over the tail of
        // its quotient section make every quotient there 0: in-range,
        // plausible neighbors, and a quotient cursor that stops short of
        // the block's end — which the decode checks, checked or not.
        let v = 999u32;
        let mut rng = XorShiftStream::new(5, 0);
        let edges: Vec<(u32, u32)> =
            (0..40).map(|_| (v, 800 + rng.bounded_usize(199) as u32)).collect();
        let g = GraphBuilder::from_edges(1_000, &edges);
        let good = encode_container(&g, Codec::RiceAdaptive, 64).unwrap();
        let mut bytes = good.clone();
        let tail = bytes.len() - 2;
        bytes[tail..].fill(0xFF);
        assert_ne!(bytes, good, "the tail held ones already");
        let c = open_unchecked(bytes);
        let got = c.try_for_each_neighbor(v, &mut |u| assert!(u < 1_000));
        assert!(matches!(got, Err(GraphFormatError::Corrupt(_))), "{got:?}");
        assert!(c.try_decompress().is_err());
    }

    #[test]
    fn every_strict_prefix_of_an_arice_span_fails_typed() {
        // Single-block vertices and a three-block hub with a short last
        // block (block size 64, degree 130).
        let mut edges: Vec<(u32, u32)> = (1..=130u32).map(|v| (0, v)).collect();
        edges.extend([(3, 9), (3, 40), (7, 8)]);
        let g = GraphBuilder::from_edges(131, &edges);
        let c = V2Graph::from_graph(&g, Codec::RiceAdaptive);
        for v in [0u32, 3, 7] {
            let at = c.locate(v);
            for cut in at.start..at.end {
                let short = Located { end: cut, ..at };
                assert!(c.decode_vertex(v, &short, false, &mut |_| {}).is_err(), "v={v} cut={cut}");
                assert!(c.ith_of(v, &short, at.deg - 1).is_err(), "v={v} cut={cut}");
            }
        }
    }

    #[test]
    fn container_smaller_than_plain_offsets() {
        // The EF indices must undercut the 16 bytes/vertex of two plain
        // `u64` offset tables.
        let g = random_graph(5_000, 50_000, 53);
        let c = V2Graph::from_graph(&g, Codec::Zeta(3));
        let index_bytes = c.container_bytes() - c.arena_bytes() - HEADER_LEN;
        assert!(index_bytes < 8 * (g.num_vertices() + 1), "EF indices take {index_bytes} bytes");
    }
}
