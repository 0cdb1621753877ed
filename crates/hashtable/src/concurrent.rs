//! One shard of the edge table: the lock-free "folklore" parallel hash
//! table of Maier et al., as used by LightNE. Private to the crate —
//! [`crate::ShardedEdgeTable`] is the only way in, and a 1-shard table is
//! exactly one of these.
//!
//! Open addressing with linear probing over a power-of-two array of
//! 16-byte slots, each an atomic key next to its atomic weight (one cache
//! line per probe hit). Claiming a slot is a single CAS on the key; weight
//! accumulation is a single `fetch_add`. There are no deletions (the
//! workload never removes samples), which is what keeps the folklore
//! design correct.
//!
//! **Weights are fixed-point**: each `f32` delta is rounded to a multiple
//! of 2⁻²⁰ and accumulated as an integer `fetch_add` on a `u64`. Integer
//! addition is exactly commutative and associative, so the accumulated
//! weights — and therefore the whole downstream pipeline — are bitwise
//! identical regardless of how sampling threads interleave. (A CAS-loop
//! float add would make the result depend on the add *order*.) With 20
//! fractional bits the quantization error is < 1e-6 per add, far below the
//! sampling estimator's own noise, and 43 integer bits of headroom remain.
//!
//! Resizing: the table starts at a capacity derived from the expected
//! number of distinct edges and doubles under a brief stop-the-world
//! `parking_lot::RwLock` write lock when the load factor crosses 0.7.
//! Inserts hold the shared read lock, so the common path stays concurrent
//! and wait-free with respect to other inserts.

use crate::sync_shim::{AtomicU64, AtomicUsize, Ordering, RwLock};
use crate::unpack_key;
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

/// Sentinel for an empty slot. `u64::MAX` never collides with a packed
/// edge because vertex ids are `u32` and `(u32::MAX, u32::MAX)` would be a
/// self-loop, which the sampler never emits.
const EMPTY: u64 = u64::MAX;

/// Maximum load factor before the table doubles.
const MAX_LOAD: f64 = 0.7;

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

struct Slots {
    slots: Vec<Slot>,
    mask: usize,
}

impl Slots {
    fn new(capacity_pow2: usize) -> Self {
        let empty = |_| Slot { key: AtomicU64::new(EMPTY), weight: AtomicU64::new(0) };
        Self { slots: (0..capacity_pow2).map(empty).collect(), mask: capacity_pow2 - 1 }
    }

    /// Where `key`'s probe sequence starts.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (mix2(0x9E37_79B9, key) as usize) & self.mask
    }

    /// Adds the fixed-point delta `raw` to `key`'s slot. Returns `Ok(true)`
    /// if a fresh slot was claimed, `Ok(false)` if an existing slot was
    /// updated, and `Err(())` if the probe sequence found no free slot
    /// (table critically full).
    fn add(&self, key: u64, raw: u64) -> Result<bool, ()> {
        let mut idx = self.home(key);
        // Bound the probe length so a pathological fill fails loudly into
        // the resize path instead of spinning.
        for _ in 0..=self.mask {
            let slot = &self.slots[idx];
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
            idx = (idx + 1) & self.mask;
        }
        Err(())
    }

    /// Fixed-point weight accumulated under `key`, if it holds a slot.
    fn find(&self, key: u64) -> Option<u64> {
        let mut idx = self.home(key);
        for _ in 0..=self.mask {
            let slot = &self.slots[idx];
            match slot.key.load(Ordering::Acquire) {
                // ordering: Relaxed — RMW-accumulated weight; exact reads
                // happen after a join, racy reads are documented as
                // point-in-time (see `ConcurrentEdgeTable::entries`).
                k if k == key => return Some(slot.weight.load(Ordering::Relaxed)),
                EMPTY => return None,
                _ => idx = (idx + 1) & self.mask,
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
    /// Creates a table expecting roughly `expected_distinct` distinct
    /// edges. Capacity is the next power of two above
    /// `expected_distinct / MAX_LOAD`, with a small floor.
    pub(crate) fn with_expected(expected_distinct: usize) -> Self {
        let target = ((expected_distinct as f64 / MAX_LOAD) as usize).max(1024);
        Self::with_slot_capacity(target.next_power_of_two())
    }

    /// Creates a table with an exact initial slot capacity (a power of
    /// two); [`Self::with_expected`] keeps the load-factor floor.
    pub(crate) fn with_slot_capacity(cap_pow2: usize) -> Self {
        assert!(cap_pow2.is_power_of_two(), "slot capacity must be a power of two");
        Self {
            inner: RwLock::new(Slots::new(cap_pow2)),
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
        // lock acquire/release provides the happens-before edge.
        if (self.len.load(Ordering::Relaxed) as f64) < MAX_LOAD * guard.slots.len() as f64 {
            return;
        }
        let new = Slots::new(guard.slots.len() * 2);
        for slot in &guard.slots {
            // ordering: Relaxed — exclusive access under the write lock.
            let key = slot.key.load(Ordering::Relaxed);
            if key != EMPTY {
                // Transfer the raw fixed-point value: no re-rounding.
                // ordering: Relaxed — exclusive access under the write lock.
                // xtask:panic-ok(invariant: the fresh table was sized to hold every key of the old one)
                new.add(key, slot.weight.load(Ordering::Relaxed))
                    .expect("fresh table cannot be full");
            }
        }
        *guard = new;
        // ordering: Relaxed — statistics counter, see `len`.
        self.resizes.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds the fixed-point delta `raw` to the packed edge `key`.
    pub(crate) fn add(&self, key: u64, raw: u64) {
        loop {
            let recorded = {
                let guard = self.inner.read();
                match guard.add(key, raw) {
                    Ok(false) => return,
                    Ok(true) => {
                        // ordering: Relaxed — RMW on a counter; read
                        // exactly only under the write lock or after a
                        // join (see `grow` / `len`). Done while still
                        // holding the read lock so `grow`'s exclusive
                        // section observes a settled count.
                        let new_len = self.len.fetch_add(1, Ordering::Relaxed) + 1;
                        if (new_len as f64) < MAX_LOAD * guard.slots.len() as f64 {
                            return;
                        }
                        true
                    }
                    Err(()) => false,
                }
            };
            self.grow();
            // A fresh insert that crossed the load factor is already in the
            // table; only one that found no free slot is retried.
            if recorded {
                return;
            }
        }
    }

    /// Fixed-point weight accumulated under `key`, if it was ever added.
    pub(crate) fn find(&self, key: u64) -> Option<u64> {
        self.inner.read().find(key)
    }

    /// Every `(u, v, weight)` held, in slot order. Taken under the shared
    /// read lock; concurrent inserts during the scan may or may not be
    /// included, and an entry whose claiming insert is still mid-flight
    /// can surface with a partial (even zero) weight — callers that need
    /// exact totals must quiesce writers first (a drain owns the table,
    /// so it has).
    pub(crate) fn entries(&self) -> Vec<(u32, u32, f32)> {
        let guard = self.inner.read();
        let scan = |slot: &Slot| {
            // ordering: Acquire — pairs with the AcqRel claim CAS so a
            // concurrent scanner that observes the key also observes every
            // weight update sequenced *before* the claim. The claimer's own
            // first fetch_add follows the CAS, hence the documented
            // mid-flight window above.
            let key = slot.key.load(Ordering::Acquire);
            if key == EMPTY {
                None
            } else {
                let (u, v) = unpack_key(key);
                // ordering: Relaxed — RMW-accumulated value; staleness is
                // accepted per the documented semantics above.
                Some((u, v, from_fixed(slot.weight.load(Ordering::Relaxed))))
            }
        };
        #[cfg(not(loom))]
        {
            guard.slots.par_iter().filter_map(scan).collect()
        }
        #[cfg(loom)]
        {
            // Under the model checker only loom-registered threads may
            // touch loom atomics, so the scan stays on the model thread.
            guard.slots.iter().filter_map(scan).collect()
        }
    }
}
