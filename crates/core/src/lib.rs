//! The LightNE embedding pipeline (Sections 3.2 and 4 of the paper).
//!
//! LightNE computes network embeddings in three timed stages:
//!
//! 1. **Parallel sparsifier construction** — Algorithm 2 over the (possibly
//!    compressed) graph, aggregated by the sparse parallel hash table and
//!    converted to the truncated-log NetMF matrix
//!    (`lightne-sparsifier`).
//! 2. **Randomized SVD** — Algorithm 3 on the sparse matrix; the initial
//!    embedding is `X = U·Σ^{1/2}` (`lightne-linalg`).
//! 3. **Spectral propagation** — ProNE's Chebyshev–Gaussian filter applied
//!    to `X`, followed by a thin re-factorization
//!    ([`propagation`]).
//!
//! [`dynamic::DynamicLightNe`] extends the pipeline to the streaming
//! setting the paper names as future work: the sparsifier hash table is
//! persistent, new edges contribute samples incrementally, and
//! re-embedding reruns only the factorization stages.
//!
//! The entry point is [`LightNe`], configured by [`LightNeConfig`]; the
//! result carries the embedding plus the per-stage run statistics and
//! sampler statistics that the benchmark harness turns into the paper's
//! Tables 4–5 and Figures 2–3.
//!
//! ```
//! use lightne_core::{LightNe, LightNeConfig};
//! use lightne_gen::generators::erdos_renyi;
//!
//! let g = erdos_renyi(500, 5_000, 7);
//! let cfg = LightNeConfig { dim: 16, window: 5, sample_ratio: 2.0, ..Default::default() };
//! let out = LightNe::new(cfg).embed(&g);
//! assert_eq!(out.embedding.rows(), 500);
//! assert_eq!(out.embedding.cols(), 16);
//! ```

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

pub mod artifacts;
pub mod dynamic;
pub mod engine;
pub mod graphmat;
pub mod pipeline;
pub mod propagation;
pub mod spectral;

pub use artifacts::{ArtifactStore, Manifest, ManifestEntry, RunMeta};
pub use dynamic::DynamicLightNe;
pub use engine::{
    run_fingerprint, run_pipeline, EngineError, PipelineSource, RunContext, RunOptions, RunStats,
    StageKind, StageRecord,
};
pub use pipeline::{LightNe, LightNeConfig, LightNeOutput};
pub use propagation::{spectral_propagation, PropagationConfig};
pub use spectral::{estimate_spectral_gap, SpectralGap};
