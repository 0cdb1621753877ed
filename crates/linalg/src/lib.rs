//! Parallel dense & sparse linear algebra for LightNE.
//!
//! The paper offloads all numerical work to Intel MKL (Section 4.3):
//! Sparse BLAS `mkl_sparse_s_mm` for sparse×dense products, `cblas_sgemm`
//! for dense products, `LAPACKE_sgeqrf`/`sorgqr` for orthonormalization and
//! `LAPACKE_sgesvd` for the small SVD. This crate provides from-scratch,
//! rayon-parallel replacements for exactly those kernels, in the same
//! single precision MKL's `s` routines use:
//!
//! * [`dense::DenseMatrix`] — row-major `f32` matrices with parallel GEMM
//!   (`matmul`), tall-matrix Gram products (`gram_tn`: `f64` register
//!   tiles over fixed row-block × output-row-group tasks), Gaussian random
//!   matrices and elementwise maps.
//! * [`eig`] — the small dense symmetric eigensolver (Householder
//!   tridiagonalisation and implicit QL, `f64`, sequential).
//! * [`svd`] — the thin SVD of a tall matrix through its Gram matrix
//!   ("eigSVD": `f64` Gram product, [`eig::sym_eig`], one GEMM), the one
//!   factorisation primitive; replaces `sgesvd`.
//! * [`qr`] — orthonormalization as two Gram-matrix SVD passes;
//!   replaces `sgeqrf + sorgqr`.
//! * [`sparse::CsrMatrix`] — CSR sparse matrices built in parallel from
//!   COO triples, with parallel SPMM, replacing MKL Sparse BLAS.
//! * [`rsvd`] — Algorithm 3 of the paper (the randomized SVD of Halko,
//!   Martinsson & Tropp) composed from the kernels above, plus optional
//!   power iterations.
//! * [`special`] — modified Bessel functions `I_r(θ)`, the coefficients of
//!   ProNE's Chebyshev–Gaussian spectral filter.
//! * [`matio`] — text serialization of dense matrices (the embedding
//!   interchange format).
//! * [`kernels`] — the cache-/register-blocked compute kernels behind the
//!   modules above: packed-panel GEMM with an `MR×NR` register micro-kernel
//!   and the register-tiled Gram product. All blocking constants are
//!   fixed (never thread-derived), so results are bitwise identical at any
//!   rayon pool size.
//! * [`reference`] — the pre-blocking first-port kernels, kept verbatim as
//!   correctness oracles and benchmark baselines.
//! * [`simd`] — explicit AVX2/AVX-512 implementations of the hot kernels
//!   behind runtime CPU-feature dispatch; the crate's sole unsafe module
//!   (`#![expect(unsafe_code)]` against the workspace-wide deny).

#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod dense;
pub mod eig;
pub mod kernels;
pub mod matio;
pub mod qr;
pub mod reference;
pub mod rsvd;
pub mod simd;
pub mod sparse;
pub mod special;
pub mod svd;

pub use dense::DenseMatrix;
pub use rsvd::{randomized_svd, RsvdConfig, Svd};
pub use sparse::CsrMatrix;
