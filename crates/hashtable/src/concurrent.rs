//! One shard of the edge table: the "folklore" parallel hash table of
//! Maier et al., as used by LightNE. Private to the crate —
//! [`crate::ShardedEdgeTable`] is the only way in, and a 1-shard table is
//! exactly one of these.
//!
//! Open addressing with linear probing over an array of 16-byte slots,
//! each an atomic key next to its atomic weight (one cache line per probe
//! hit). Claiming a slot is a single CAS on the key; weight accumulation
//! is a single `fetch_add`. There are no deletions (the workload never
//! removes samples), which is what keeps the folklore design correct.
//!
//! **Inserts come in slices** ([`ConcurrentEdgeTable::add`]; one key is
//! a slice of one). A slice takes the shard's `RwLock` read side
//! once, reads the home slot of every key before its first CAS so that the
//! cache misses overlap instead of queueing behind each CAS, and bumps the
//! shared `len` once. The CAS claims and `fetch_add`s are wait-free with
//! respect to each other; the read lock is not free — it is an atomic RMW
//! on a word every inserter writes, which is why it is paid per slice and
//! not per key.
//!
//! **Weights are fixed-point**: each `f32` delta is rounded to a multiple
//! of 2⁻²⁰ and accumulated as an integer `fetch_add` on a `u64`. Integer
//! addition is exactly commutative and associative, so the accumulated
//! weights — and therefore the whole downstream pipeline — are bitwise
//! identical regardless of how sampling threads interleave or how their
//! adds are grouped into slices. (A CAS-loop float add would make the
//! result depend on the add *order*.) With 20 fractional bits the
//! quantization error is < 1e-6 per add, far below the sampling
//! estimator's own noise, and 43 integer bits of headroom remain.
//!
//! Sizing: a table expecting `e` distinct keys gets exactly `⌈e / 0.7⌉`
//! slots, not the next power of two — a key's home slot is a
//! multiply-shift of its 64-bit hash onto `[0, slots)`, and probing wraps
//! at the end of the array, so any length works. The table doubles under
//! a brief stop-the-world write lock when its count passes 0.7 of the
//! slots, or when a probe finds no free slot.

use crate::sync_shim::{AtomicU64, AtomicUsize, Ordering, RwLock};
use lightne_utils::rng::mix2;
#[cfg(not(loom))]
use rayon::prelude::*;

/// Fixed-point scale: 20 fractional bits.
const FIXED_ONE: f64 = (1u64 << 20) as f64;

#[inline]
pub(crate) fn to_fixed(w: f32) -> u64 {
    (w as f64 * FIXED_ONE).round() as u64
}

#[inline]
pub(crate) fn from_fixed(raw: u64) -> f32 {
    (raw as f64 / FIXED_ONE) as f32
}

/// Half of a fixed-point sum, as `f32`, rounded once: halving is exact in
/// `f64`, so for an even `raw` this is `from_fixed(raw / 2)` bit for bit.
#[inline]
pub(crate) fn from_fixed_half(raw: u64) -> f32 {
    (raw as f64 / (2.0 * FIXED_ONE)) as f32
}

/// Sentinel for an empty slot. `u64::MAX` never collides with a packed
/// edge because vertex ids are `u32` and `(u32::MAX, u32::MAX)` would be a
/// self-loop, which the sampler never emits.
pub(crate) const EMPTY: u64 = u64::MAX;

/// Most keys `slots` slots hold before the table doubles: the maximum
/// load factor 7/10, in integers so that [`slots_for`] is exact.
#[inline]
fn max_len(slots: usize) -> usize {
    slots * 7 / 10
}

/// The fewest slots that hold `expected` keys, `⌈expected / 0.7⌉`.
fn slots_for(expected: usize) -> usize {
    (expected * 10).div_ceil(7)
}

/// Bytes one slot occupies (what `memory_bytes` charges per slot).
pub(crate) const SLOT_BYTES: usize = std::mem::size_of::<Slot>();

/// A packed `(u, v)` key and its fixed-point accumulated weight (see
/// module docs). 16-aligned, so a slot never straddles a cache line: a
/// probe that hits finds the weight on the line the key load fetched.
#[repr(align(16))]
struct Slot {
    key: AtomicU64,
    weight: AtomicU64,
}

impl Slot {
    /// The slot's `(key, fixed-point weight)`, if a key has claimed it.
    #[inline]
    fn occupant(&self) -> Option<(u64, u64)> {
        // ordering: Acquire — pairs with the AcqRel claim CAS so a
        // concurrent scanner that observes the key also observes every
        // weight update sequenced *before* the claim. The claimer's own
        // first fetch_add follows the CAS, hence the mid-flight window
        // documented on `ConcurrentEdgeTable::copy_occupants`.
        let key = self.key.load(Ordering::Acquire);
        // ordering: Relaxed — RMW-accumulated value; staleness is
        // accepted per the documented semantics above.
        (key != EMPTY).then(|| (key, self.weight.load(Ordering::Relaxed)))
    }
}

/// A shard's slot array.
pub(crate) struct Slots {
    slots: Vec<Slot>,
}

impl Slots {
    fn new(capacity: usize) -> Self {
        let empty = |_| Slot { key: AtomicU64::new(EMPTY), weight: AtomicU64::new(0) };
        Self { slots: (0..capacity.max(1)).map(empty).collect() }
    }

    /// Where `key`'s probe sequence starts: its 64-bit hash scaled onto
    /// `[0, slots)` by a multiply-shift, so the length need not be a power
    /// of two.
    #[inline]
    fn home(&self, key: u64) -> usize {
        ((mix2(0x9E37_79B9, key) as u128 * self.slots.len() as u128) >> 64) as usize
    }

    /// `key`'s probe sequence: every slot once, from its home to the end
    /// of the array and then from the start.
    #[inline]
    fn probe(&self, key: u64) -> impl Iterator<Item = &Slot> {
        let (before, from_home) = self.slots.split_at(self.home(key));
        from_home.iter().chain(before)
    }

    /// Reads `key`'s home slot and discards the value: issued for a whole
    /// slice before its first CAS, so the slice's cache misses are in
    /// flight together. Kept by measurement (EXPERIMENTS.md "PR 21"):
    /// replaying `rmat_sample`'s recorded batches, the same code without
    /// it was slower at every batch size tried (median 0.259 against
    /// 0.238 s at 4096 deposits).
    #[inline]
    fn touch(&self, key: u64) -> u64 {
        // ordering: Relaxed — the value is discarded; only the cache line
        // it brings in matters.
        self.probe(key).next().map_or(EMPTY, |home| home.key.load(Ordering::Relaxed))
    }

    /// Adds the fixed-point delta `raw` to `key`'s slot. Returns `Ok(true)`
    /// if a fresh slot was claimed, `Ok(false)` if an existing slot was
    /// updated, and `Err(())` if the probe sequence found no free slot
    /// (table full).
    fn add(&self, key: u64, raw: u64) -> Result<bool, ()> {
        // The probe visits each slot once, so a full table fails into the
        // resize path instead of spinning.
        for slot in self.probe(key) {
            let mut k = slot.key.load(Ordering::Acquire);
            if k == EMPTY {
                // A lost claim leaves the winner's key in `k`: ours (fall
                // through to the add) or another's (keep probing).
                match slot.key.compare_exchange(EMPTY, key, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => {
                        // ordering: Relaxed — see the fetch_add below.
                        slot.weight.fetch_add(raw, Ordering::Relaxed);
                        return Ok(true);
                    }
                    Err(actual) => k = actual,
                }
            }
            if k == key {
                // ordering: Relaxed — atomic RMW never loses updates; the
                // accumulated value is only *read* after a join or under
                // the exclusive resize lock, both of which order it.
                slot.weight.fetch_add(raw, Ordering::Relaxed);
                return Ok(false);
            }
        }
        Err(())
    }

    /// Every slot's `(key, fixed-point weight)` in slot order, unclaimed
    /// ones (key [`EMPTY`]) included: a drain that owns the table reads
    /// them all without a branch per slot.
    pub(crate) fn contents(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        // ordering: Relaxed — the caller owns the table (`into_slots`),
        // so no writer is left to order against.
        self.slots.iter().map(|s| (s.key.load(Ordering::Relaxed), s.weight.load(Ordering::Relaxed)))
    }

    /// Fixed-point weight accumulated under `key`, if it holds a slot.
    fn find(&self, key: u64) -> Option<u64> {
        for slot in self.probe(key) {
            match slot.key.load(Ordering::Acquire) {
                // ordering: Relaxed — RMW-accumulated weight; exact reads
                // happen after a join, racy reads are documented as
                // point-in-time (see `ConcurrentEdgeTable::entries`).
                k if k == key => return Some(slot.weight.load(Ordering::Relaxed)),
                EMPTY => return None,
                _ => {}
            }
        }
        None
    }
}

/// A concurrent, growable packed-key → fixed-point-weight table.
pub(crate) struct ConcurrentEdgeTable {
    inner: RwLock<Slots>,
    len: AtomicUsize,
    resizes: AtomicUsize,
}

impl ConcurrentEdgeTable {
    /// Creates a table expecting `expected_distinct` distinct edges:
    /// exactly `⌈expected_distinct / 0.7⌉` slots (at least one), which
    /// hold that many keys without a resize.
    pub(crate) fn with_expected(expected_distinct: usize) -> Self {
        Self::with_slot_capacity(slots_for(expected_distinct))
    }

    /// Creates a table with an exact initial slot capacity (any size;
    /// zero is taken as one).
    pub(crate) fn with_slot_capacity(capacity: usize) -> Self {
        Self {
            inner: RwLock::new(Slots::new(capacity)),
            len: AtomicUsize::new(0),
            resizes: AtomicUsize::new(0),
        }
    }

    /// Number of distinct keys stored.
    pub(crate) fn len(&self) -> usize {
        // ordering: Relaxed — monotone statistics counter; exact reads
        // happen after a join (sampling finished) which orders them.
        self.len.load(Ordering::Relaxed)
    }

    /// Current slot capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.inner.read().slots.len()
    }

    /// Number of times the slot array has doubled since construction.
    pub(crate) fn resizes(&self) -> usize {
        // ordering: Relaxed — statistics counter, see `len`.
        self.resizes.load(Ordering::Relaxed)
    }

    fn grow(&self) {
        let mut guard = self.inner.write();
        // Double-check under the write lock: another thread may have grown.
        // ordering: Relaxed — the exclusive write lock excludes every
        // inserter (they hold the read lock across their len update), and
        // lock acquire/release provides the happens-before edge. A full
        // table always passes: every slot's claimant has counted it.
        if self.len.load(Ordering::Relaxed) <= max_len(guard.slots.len()) {
            return;
        }
        let new = Slots::new(guard.slots.len() * 2);
        for slot in &guard.slots {
            // ordering: Relaxed — exclusive access under the write lock.
            let key = slot.key.load(Ordering::Relaxed);
            if key != EMPTY {
                // Transfer the raw fixed-point value: no re-rounding.
                // ordering: Relaxed — exclusive access under the write lock.
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: the fresh table was sized to hold every key of the old one"
                )]
                new.add(key, slot.weight.load(Ordering::Relaxed))
                    .expect("fresh table cannot be full");
            }
        }
        *guard = new;
        // ordering: Relaxed — statistics counter, see `len`.
        self.resizes.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds each fixed-point delta `raw` to its packed edge `key`, in one
    /// read-lock acquisition and one `len` update per pass (module docs).
    /// A pass ends early only when the table is full; whatever crossed the
    /// load factor is already in, and the rest follows the resize.
    pub(crate) fn add(&self, entries: &[(u64, u64)]) {
        let mut rest = entries;
        while !rest.is_empty() {
            let (done, grow) = {
                let guard = self.inner.read();
                // One key's probe loads its home slot first anyway.
                if rest.len() > 1 {
                    let touched = rest.iter().fold(0, |acc, &(key, _)| acc ^ guard.touch(key));
                    std::hint::black_box(touched);
                }
                let (mut done, mut fresh, mut full) = (0, 0, false);
                for &(key, raw) in rest {
                    match guard.add(key, raw) {
                        Ok(claimed) => fresh += usize::from(claimed),
                        Err(()) => {
                            full = true;
                            break;
                        }
                    }
                    done += 1;
                }
                // A pass that only accumulated leaves the shared counter
                // alone. ordering: Relaxed — RMW on a counter; read exactly
                // only under the write lock or after a join (see `grow` /
                // `len`). Done while still holding the read lock so
                // `grow`'s exclusive section observes a settled count.
                let crossed = fresh > 0
                    && self.len.fetch_add(fresh, Ordering::Relaxed) + fresh
                        > max_len(guard.slots.len());
                (done, full || crossed)
            };
            rest = rest.split_at(done).1;
            if grow {
                self.grow();
            }
        }
    }

    /// Fixed-point weight accumulated under `key`, if it was ever added.
    pub(crate) fn find(&self, key: u64) -> Option<u64> {
        self.inner.read().find(key)
    }

    /// A copy of every `(key, fixed-point weight)` held, in slot order.
    /// Taken under the shared read lock; concurrent inserts during the
    /// scan may or may not be included, and an entry whose claiming insert
    /// is still mid-flight can surface with a partial (even zero) weight —
    /// callers that need exact totals must quiesce writers first.
    pub(crate) fn copy_occupants(&self) -> Vec<(u64, u64)> {
        let guard = self.inner.read();
        #[cfg(not(loom))]
        {
            guard.slots.par_iter().filter_map(Slot::occupant).collect()
        }
        #[cfg(loom)]
        {
            // Under the model checker only loom-registered threads may
            // touch loom atomics, so the scan stays on the model thread.
            guard.slots.iter().filter_map(Slot::occupant).collect()
        }
    }

    /// The slot array itself, for a drain that owns the table: no lock,
    /// no copy, and no writer left to race with.
    pub(crate) fn into_slots(self) -> Slots {
        self.inner.into_inner()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::{pack_key, unpack_key};

    /// Fixed-point weight of `(1, v)`, for short asserts.
    fn weight(t: &ConcurrentEdgeTable, v: u32) -> Option<u64> {
        t.find(pack_key(1, v))
    }

    #[test]
    fn probing_wraps_at_any_length() {
        for cap in [5usize, 1_025, 3_000] {
            // Keys whose home is the last slot: the first takes it, the
            // next two wrap to slots 0 and 1, the fourth is a miss that
            // has to follow the wrap to the empty slot 2.
            let home = Slots::new(cap);
            let last: Vec<u32> =
                (0u32..).filter(|&v| home.home(pack_key(1, v)) == cap - 1).take(4).collect();
            let t = ConcurrentEdgeTable::with_slot_capacity(cap);
            for (i, &v) in last[..3].iter().enumerate() {
                t.add(&[(pack_key(1, v), 1 << (20 + i))]);
            }
            assert_eq!((t.len(), t.capacity(), t.resizes()), (3, cap, 0));
            let in_slot_order: Vec<u32> =
                t.copy_occupants().iter().map(|&(key, _)| unpack_key(key).1).collect();
            assert_eq!(in_slot_order, [last[1], last[2], last[0]], "capacity {cap}");
            for (i, &v) in last[..3].iter().enumerate() {
                assert_eq!(weight(&t, v), Some(1 << (20 + i)));
            }
            assert_eq!(weight(&t, last[3]), None);
        }
    }

    #[test]
    fn exact_capacity_holds_its_expectation_without_a_resize() {
        for expected in [0usize, 1, 7, 10, 1_000, 12_345] {
            let t = ConcurrentEdgeTable::with_expected(expected);
            assert_eq!(t.capacity(), slots_for(expected).max(1));
            t.add(&(0..expected as u32).map(|v| (pack_key(1, v), 1)).collect::<Vec<_>>());
            assert_eq!((t.len(), t.resizes()), (expected, 0), "expected {expected}");
        }
    }

    #[test]
    fn full_slice_finishes_through_grow_with_exact_totals() {
        // Ten distinct keys, each twice, into four slots: the first pass
        // fills the table and fails on the fifth key, the resize to eight
        // fills again, the one to sixteen takes the rest.
        let t = ConcurrentEdgeTable::with_slot_capacity(4);
        let slice: Vec<(u64, u64)> =
            (0..20u32).map(|i| (pack_key(1, i % 10), u64::from(i) + 1)).collect();
        t.add(&slice);
        assert_eq!((t.len(), t.capacity(), t.resizes()), (10, 16, 2));
        for v in 0..10u32 {
            assert_eq!(weight(&t, v), Some(u64::from(v) + 1 + u64::from(v) + 11), "key {v}");
        }
        // Past the load factor without filling: in whole, then one resize.
        let t = ConcurrentEdgeTable::with_slot_capacity(10);
        t.add(&(0..8u32).map(|v| (pack_key(1, v), 3)).collect::<Vec<_>>());
        assert_eq!((t.len(), t.capacity(), t.resizes()), (8, 20, 1));
        assert!((0..8).all(|v| weight(&t, v) == Some(3)));
    }
}
