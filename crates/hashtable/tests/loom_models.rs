//! Loom concurrency models for the folklore edge table (ISSUE 5 tentpole).
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p lightne-hash --release loom_
//! ```
//!
//! Under `--cfg loom` the table's atomics and its resize `RwLock` are the
//! loom shim's model-aware types (see `src/sync_shim.rs`), so every model
//! below runs under the shim's schedule explorer: exhaustively over all
//! interleavings where tractable, otherwise bounded-exhaustive with a
//! CHESS-style preemption bound. Each model encodes an invariant the
//! paper's sparse-parallel-hashing argument (§3.3) relies on:
//!
//! * no lost weight updates when threads accumulate into the *same* key
//!   (a pair's two orientations share one slot, so reads are the
//!   symmetric part: one directed add of `w` reads `w / 2`);
//! * no lost or duplicated slots when *distinct* keys race for the same
//!   probe sequence;
//! * stop-the-world resize preserves every entry while inserts race it;
//! * sharded tables resize independently without cross-shard interference;
//! * a batch — one read lock, one pre-touch pass, one `len` update for
//!   several keys — races single adds and a resize without losing a key,
//!   a weight or a count.
//!
//! The models use tiny slot capacities (`with_slot_capacity`) so resizes
//! trigger within a handful of inserts and the schedule space stays small;
//! the single-table models run on a 1-shard table, which is exactly one
//! folklore table behind a constant shard index.

#![cfg(loom)]

use lightne_hash::{pair_key, EdgeAggregator, ShardedEdgeTable};
use lightne_utils::rng::mix2;
use loom::model::Builder;
use loom::sync::Arc;
use loom::thread;

/// Vertex-id bound of the single-table models (every id below is under it).
const N: usize = 32;

/// Initial probe slot of the pair `{u, v}` in a table with `cap` slots
/// (must mirror `Slots::home`: a multiply-shift of the key's 64-bit hash
/// onto `[0, cap)`).
fn probe_slot(u: u32, v: u32, cap: usize) -> usize {
    ((mix2(0x9E37_79B9, pair_key(u, v, N)) as u128 * cap as u128) >> 64) as usize
}

/// Two threads accumulate into the same key concurrently: every
/// interleaving must preserve both fixed-point deltas and count the key
/// exactly once. Fully exhaustive (no preemption bound).
#[test]
fn loom_insert_same_key_weight_accumulation() {
    loom::model(|| {
        let t = Arc::new(ShardedEdgeTable::with_slot_capacity(N, 1, 8));
        let t2 = Arc::clone(&t);
        let h = thread::spawn(move || {
            t2.add_edge(1, 2, 1.0);
        });
        t.add_edge(1, 2, 1.0);
        h.join().unwrap();
        assert_eq!(t.len(), 1, "same key claimed twice");
        assert_eq!(t.get(1, 2), 1.0, "lost a weight update");
    });
}

/// Two threads insert *distinct* keys whose probe sequences start at the
/// same slot: the CAS loser must continue probing and claim its own slot,
/// never dropping or double-counting either key. Fully exhaustive.
#[test]
fn loom_insert_distinct_key_probe_race() {
    // Find two distinct edges that collide on their initial slot at
    // capacity 4 (deterministic search, done once per execution).
    let (u1, v1) = (0u32, 1u32);
    let home = probe_slot(u1, v1, 4);
    let mut collider = (0u32, 2u32);
    loop {
        if collider != (u1, v1) && probe_slot(collider.0, collider.1, 4) == home {
            break;
        }
        collider.1 += 1;
    }
    let (u2, v2) = collider;

    loom::model(move || {
        let t = Arc::new(ShardedEdgeTable::with_slot_capacity(N, 1, 4));
        let t2 = Arc::clone(&t);
        let h = thread::spawn(move || {
            t2.add_edge(u2, v2, 3.0);
        });
        t.add_edge(u1, v1, 1.0);
        h.join().unwrap();
        assert_eq!(t.len(), 2, "probe race lost a distinct key");
        assert_eq!(t.get(u1, v1), 0.5);
        assert_eq!(t.get(u2, v2), 1.5);
    });
}

/// A stop-the-world resize races concurrent inserts: four fresh inserts
/// into a 4-slot table cross the 0.7 load factor, so one thread grows the
/// table while the other may be probing, claiming, or blocked on the
/// lock. Every entry must survive the rehash with its exact fixed-point
/// weight. Bounded-exhaustive (schedules with ≤ 2 preemptions).
#[test]
fn loom_resize_races_concurrent_inserts() {
    Builder::new().preemption_bound(2).check(|| {
        let t = Arc::new(ShardedEdgeTable::with_slot_capacity(N, 1, 4));
        let t2 = Arc::clone(&t);
        let h = thread::spawn(move || {
            t2.add_edge(10, 11, 1.0);
            t2.add_edge(12, 13, 2.0);
        });
        t.add_edge(20, 21, 4.0);
        t.add_edge(22, 23, 8.0);
        h.join().unwrap();
        assert_eq!(t.len(), 4);
        assert!(t.shard_stats()[0].capacity >= 8, "4 fresh inserts at cap 4 must have grown");
        assert_eq!(t.get(10, 11), 0.5);
        assert_eq!(t.get(12, 13), 1.0);
        assert_eq!(t.get(20, 21), 2.0);
        assert_eq!(t.get(22, 23), 4.0);
        let mut both: Vec<(u32, u32, f32)> =
            [(10, 11, 0.5), (12, 13, 1.0), (20, 21, 2.0), (22, 23, 4.0)]
                .into_iter()
                .flat_map(|(u, v, w)| [(u, v, w), (v, u, w)])
                .collect();
        both.sort_by_key(|&(u, v, _)| (u, v));
        assert_eq!(t.snapshot(), both, "rehash dropped or duplicated an entry");
    });
}

/// The sharded table's independent-resize boundary: one thread drives its
/// shard through a resize while another inserts into a different shard.
/// The resize must stay local — the untouched shard keeps its capacity
/// and resize count — and no entry on either side may be lost.
/// Bounded-exhaustive (≤ 2 preemptions).
#[test]
fn loom_sharded_independent_resize_boundary() {
    Builder::new().preemption_bound(2).check(|| {
        // 8 vertices, 2 shards (rows 0..4 and 4..8), 4 slots per shard.
        let t = Arc::new(ShardedEdgeTable::with_slot_capacity(8, 2, 4));
        let t2 = Arc::clone(&t);
        let h = thread::spawn(move || {
            // Three fresh inserts into shard 0 cross 0.7 * 4: resize.
            t2.add_edge(0, 1, 1.0);
            t2.add_edge(1, 2, 2.0);
            t2.add_edge(2, 3, 4.0);
        });
        t.add_edge(5, 6, 2.5);
        h.join().unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(0, 1), 0.5);
        assert_eq!(t.get(1, 2), 1.0);
        assert_eq!(t.get(2, 3), 2.0);
        assert_eq!(t.get(5, 6), 1.25);
        let stats = t.shard_stats();
        assert_eq!(stats[0].resizes, 1, "shard 0 must have grown exactly once");
        assert_eq!(stats[0].capacity, 8);
        assert_eq!(stats[1].resizes, 0, "resize must not leak into shard 1");
        assert_eq!(stats[1].capacity, 4, "shard 1 capacity must be untouched");
    });
}

/// CAS-loser accumulation path: when the claim CAS fails because another
/// thread just inserted the *same* key, the loser must fall through to
/// `fetch_add` on the winner's slot. Repeated adds from both sides must
/// sum exactly (fixed-point determinism). Bounded-exhaustive (≤ 2
/// preemptions — two adds per thread makes full exploration too wide).
#[test]
fn loom_cas_loser_accumulates_on_winner_slot() {
    Builder::new().preemption_bound(2).check(|| {
        let t = Arc::new(ShardedEdgeTable::with_slot_capacity(N, 1, 8));
        let t2 = Arc::clone(&t);
        let h = thread::spawn(move || {
            t2.add_edge(7, 9, 0.25);
            t2.add_edge(7, 9, 0.25);
        });
        t.add_edge(7, 9, 0.5);
        h.join().unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(7, 9), 0.5, "fixed-point deltas must sum exactly");
    });
}

/// A two-key batch races a single add to one of its keys on a 3-slot
/// (not a power of two) shard that already holds a third key. Three
/// distinct keys pass 0.7 × 3, so whichever insert publishes the third
/// count grows the shard to 6 slots — in every schedule, while the other
/// side may be pre-touching, claiming, accumulating or waiting on the
/// lock. Totals must be exact, `len` must equal the distinct keys, and no
/// key may be lost or duplicated across the rehash. Bounded-exhaustive
/// (≤ 2 preemptions).
#[test]
fn loom_batch_races_single_add_and_grow() {
    Builder::new().preemption_bound(2).check(|| {
        let t = Arc::new(ShardedEdgeTable::with_slot_capacity(N, 1, 3));
        t.add_edge(5, 6, 8.0);
        let t2 = Arc::clone(&t);
        let h = thread::spawn(move || {
            t2.add_batch(&[(1, 2, 1.0), (3, 4, 2.0)]);
        });
        t.add_edge(1, 2, 4.0);
        h.join().unwrap();
        assert_eq!(t.len(), 3, "len must count each distinct key once");
        let stats = t.shard_stats();
        assert_eq!((stats[0].capacity, stats[0].resizes), (6, 1), "the third key must grow");
        assert_eq!(
            t.snapshot(),
            vec![(1, 2, 2.5), (2, 1, 2.5), (3, 4, 1.0), (4, 3, 1.0), (5, 6, 4.0), (6, 5, 4.0)],
            "rehash dropped, duplicated or split a key"
        );
    });
}
