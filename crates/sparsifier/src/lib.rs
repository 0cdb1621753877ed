//! NetSMF sparsifier construction with edge downsampling (Sections 3.2
//! and 4.2 of the LightNE paper).
//!
//! The goal of this crate is an `O(n log n)`-sparse, unbiased estimator of
//! the NetMF matrix
//!
//! ```text
//! M = trunc_log( vol(G)/(b·T) · Σ_{r=1..T} (D⁻¹A)^r · D⁻¹ )
//! ```
//!
//! built from random-walk samples instead of dense matrix powers:
//!
//! * [`path_sampling::path_sample`] — **Algorithm 1** (PathSampling): a
//!   two-sided random walk from a given edge, producing one endpoint pair
//!   of an `r`-step path through that edge. The tests' reference for the
//!   estimator; the sampler draws the same law as prefix pairs of one walk.
//! * [`downsample`] — the paper's new degree-based edge downsampling:
//!   each walk survives with probability
//!   `p_e = min(1, C·(1/d_u + 1/d_v))`, `C = log n`, and surviving samples
//!   carry weight `1/p_e` (unbiased by Theorem 3.1; a good effective-
//!   resistance proxy by Theorem 3.2).
//! * [`construct`] — **Algorithm 2**: the per-edge parallel sampling loop
//!   (`G.MapEdges`), generic over the graph representation — weighted or
//!   not, see [`weighted`] — and the edge aggregator. A walk of `T − 1`
//!   steps from an arc `(u, v)` yields the `T` samples `(u, z_r)`.
//! * [`sharded`] — the one sample → aggregate → NetMF path: Algorithm 2
//!   into a sharded hash table, drained straight into the sparse
//!   truncated-log NetMF matrix fed to the randomized SVD.
//! * [`netmf`] — the estimator inversion that drain applies per entry.
//! * [`exact`] — the dense, exactly-computed NetMF matrix (feasible for
//!   small `n`); used by the NetMF baseline and as the ground truth in
//!   this crate's statistical tests.

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

pub mod construct;
pub mod downsample;
pub mod exact;
pub mod netmf;
pub mod path_sampling;
pub mod sharded;
pub mod weighted;

pub use construct::{SamplerConfig, SamplerError, SamplerStats};
pub use downsample::ProbScheme;
pub use sharded::{
    build_sharded_sparsifier, coo_is_symmetric, resolve_shards, sharded_to_netmf, table_from_coo,
    table_to_csr,
};
