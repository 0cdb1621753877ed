//! Shared low-level utilities for the LightNE workspace.
//!
//! This crate hosts the small, dependency-free building blocks every other
//! crate needs:
//!
//! * [`parallel`] — chunked parallel loops, parallel prefix sums and
//!   reductions built on [rayon]. These mirror the bulk-parallel primitives
//!   of GBBS/Ligra that the paper's system layer is built on.
//! * [`rng`] — tiny, deterministic, splittable PRNG streams
//!   (SplitMix64 seeded Xoshiro256++) so that every experiment in the
//!   benchmark harness is reproducible from a single seed.
//! * [`timer`] — the duration format of the paper's running-time
//!   breakdown (Table 5).
//! * [`mem`] — lightweight memory accounting used by the sample-size
//!   ablation (Section 5.2.4).
//! * [`checksum`] — FNV-1a content digests used by the artifact store to
//!   detect silent checkpoint corruption.
//! * [`faults`] — deterministic named fail points (feature-gated behind
//!   `failpoints`) that the crash-consistency test matrix arms to inject
//!   I/O errors, torn writes, bit flips and crashes at every checkpoint
//!   boundary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod checksum;
pub mod faults;
pub mod mem;
pub mod parallel;
pub mod rng;
pub mod timer;

pub use parallel::{num_threads, par_chunk_size, parallel_prefix_sum};
pub use rng::{Splittable, XorShiftStream};
