//! The Chebyshev recurrence of the propagation stage allocates nothing
//! the size of the embedding: its buffers are allocated before the loop
//! and rotated, so the number of n·d-sized allocations of one
//! `spectral_propagation_matrices` call does not depend on `order`.
//!
//! One test function: the counting allocator is process-global.

use lightne::core::graphmat::{adjacency_plus_i, transition_with_self_loops};
use lightne::core::propagation::{spectral_propagation_matrices, PropagationConfig};
use lightne::gen::generators::erdos_renyi;
use lightne::linalg::DenseMatrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations of at least this many bytes are counted.
static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

impl CountingAlloc {
    fn note(size: usize) {
        if size >= THRESHOLD.load(Ordering::Relaxed) {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[expect(unsafe_code, reason = "a global allocator is an unsafe trait impl")]
// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the counters
// beside the call never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: `layout` is the caller's, forwarded as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: `layout` is the caller's, forwarded as is.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn recurrence_allocates_no_embedding_sized_buffer() {
    let (n, d) = (3_000usize, 24usize);
    let g = erdos_renyi(n, 20_000, 31);
    let (da, a_plus_i) = (transition_with_self_loops(&g), adjacency_plus_i(&g));
    let x = DenseMatrix::gaussian(n, d, 32);
    lightne::utils::parallel::configure_threads(2);

    let large_allocs = |order: usize| {
        let cfg = PropagationConfig { order, ..Default::default() };
        LARGE_ALLOCS.store(0, Ordering::Relaxed);
        THRESHOLD.store(n * d * 4, Ordering::Relaxed);
        let y = spectral_propagation_matrices(&da, &a_plus_i, &x, &cfg);
        THRESHOLD.store(usize::MAX, Ordering::Relaxed);
        assert_eq!((y.rows(), y.cols()), (n, d));
        LARGE_ALLOCS.load(Ordering::Relaxed)
    };
    let (short, long) = (large_allocs(4), large_allocs(12));
    assert!(short > 0, "the counting allocator saw nothing");
    assert_eq!(short, long, "order 4 made {short} n·d-sized allocations, order 12 made {long}");
}
