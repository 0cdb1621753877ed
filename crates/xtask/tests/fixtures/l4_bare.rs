// L4 fixture: a bare `Relaxed`, imported with the ordering's other
// variants, in the (virtual) runtime path vendor/rayon/src/fixture_l4_bare.rs.
// The violation is on line 10; the `use` item and the justified store in
// `stop` must NOT fire.

use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};

pub fn claim(next: &AtomicUsize) -> usize {
    next.fetch_add(1, Relaxed)
}

pub fn stop(next: &AtomicUsize, end: usize) {
    // ordering: Relaxed — the counter publishes nothing; a claimer that
    // misses this store claims one more index, which is allowed.
    next.store(end, Relaxed);
    next.load(SeqCst);
}
