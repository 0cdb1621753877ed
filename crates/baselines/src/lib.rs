//! Baseline embedding systems reproduced for the LightNE evaluation.
//!
//! Every comparison in Section 5 needs the other side of the table, so
//! this crate implements:
//!
//! * [`netsmf`] — **NetSMF** as the paper characterizes it: the same
//!   PathSampling, but *no* edge downsampling and *per-thread buffer*
//!   aggregation (memory grows with samples, the limitation the
//!   Section 5.2.4 ablation quantifies), no spectral propagation.
//! * [`prone`] — **ProNE+**: the paper's own re-implementation of ProNE
//!   on the LightNE system stack — sparse factorization of the modulated
//!   normalized Laplacian (nnz exactly the graph's arcs) followed by the
//!   same spectral propagation as LightNE.
//! * [`netmf`] — exact **NetMF** (dense matrix powers), feasible only on
//!   small graphs; the quality reference in Figure 4.
//! * [`nrp`] — an **NRP-style** no-logarithm factorization of the walk
//!   matrix, isolating the design choice (omitting `trunc_log`) that
//!   Section 2 criticizes.
//! * [`deepwalk`] — a DeepWalk/LINE-style **skip-gram with negative
//!   sampling trained by SGD**, the algorithm class inside GraphVite and
//!   PyTorch-BigGraph. The paper's GPU/distributed comparators are not
//!   reproducible on one CPU, but their per-sample SGD economics are —
//!   which is what the time/cost comparisons exercise.

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod deepwalk;
pub mod netmf;
pub mod netsmf;
pub mod nrp;
pub mod prone;

pub use deepwalk::{DeepWalk, DeepWalkConfig};
pub use netmf::netmf_embed;
pub use netsmf::{NetSmf, NetSmfConfig, NetSmfOutput};
pub use nrp::{nrp_embed, NrpConfig};
pub use prone::{ProNe, ProNeConfig};
