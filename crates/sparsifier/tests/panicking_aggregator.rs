//! A panic inside `EdgeAggregator::add_batch` reaches the caller of
//! `sample_into` with its payload, and leaves every pool worker usable.
//! A `SampleBuffer` dropped during the unwind must not hand its deposits
//! over: that would call `add_batch` again, and a second panic while the
//! first unwinds aborts the process instead.
//!
//! One test in a binary of its own: it resizes the process-wide pool and
//! needs every worker free for its barrier region.

use lightne_gen::generators::erdos_renyi;
use lightne_hash::{EdgeAggregator, ShardedEdgeTable};
use lightne_sparsifier::construct::{sample_into, SamplerConfig};
use lightne_utils::parallel::configure_threads;
use rayon::prelude::*;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

#[derive(Debug, PartialEq)]
struct Payload(usize);

/// A table whose `k`-th and every later `add_batch` call panics — so a
/// flush run while the first panic unwinds would panic again and abort.
struct PanicsOnBatch {
    table: ShardedEdgeTable,
    calls: AtomicUsize,
    k: usize,
}

impl EdgeAggregator for PanicsOnBatch {
    fn add(&self, u: u32, v: u32, weight: f32) {
        self.table.add_edge(u, v, weight);
    }

    fn add_batch(&self, batch: &[(u32, u32, f32)]) {
        if self.calls.fetch_add(1, Ordering::SeqCst) + 1 >= self.k {
            panic_any(Payload(self.k));
        }
        self.table.add_batch(batch);
    }

    fn distinct_edges(&self) -> usize {
        self.table.len()
    }

    fn memory_bytes(&self) -> usize {
        self.table.memory_bytes()
    }

    fn into_coo(self) -> Vec<(u32, u32, f32)> {
        self.table.into_coo()
    }
}

/// The worker indices of one `threads`-item region whose items wait for
/// each other: it completes only if `threads` workers run it.
fn workers_of_one_region(threads: usize) -> BTreeSet<Option<usize>> {
    let barrier = Barrier::new(threads);
    let seen = Mutex::new(BTreeSet::new());
    (0..threads).into_par_iter().for_each(|_| {
        barrier.wait();
        seen.lock().expect("no worker panics here").insert(rayon::current_thread_index());
    });
    seen.into_inner().expect("no worker panics here")
}

#[test]
fn a_panicking_add_batch_reaches_the_caller_and_spares_the_pool() {
    let g = erdos_renyi(500, 5_000, 3);
    let cfg = SamplerConfig { window: 5, samples: 400_000, seed: 9, ..Default::default() };
    for threads in [1usize, 2] {
        assert_eq!(configure_threads(threads), threads);
        // The first batch, and one after every range has flushed a few.
        for k in [1usize, 40] {
            let agg = PanicsOnBatch {
                table: ShardedEdgeTable::new(500, 4, 1024),
                calls: AtomicUsize::new(0),
                k,
            };
            let caught = catch_unwind(AssertUnwindSafe(|| sample_into(&g, &cfg, &agg)));
            let payload = caught.expect_err("add_batch panics from the k-th call on");
            assert_eq!(payload.downcast_ref::<Payload>(), Some(&Payload(k)), "@{threads}t");
            // A one-thread region runs inline on the caller, outside any
            // worker index.
            let every_worker: BTreeSet<_> =
                if threads == 1 { [None].into() } else { (0..threads).map(Some).collect() };
            assert_eq!(workers_of_one_region(threads), every_worker, "@{threads}t, k = {k}");
        }
    }
}
