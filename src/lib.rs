//! # LightNE (Rust reproduction)
//!
//! Meta-crate that re-exports the full public API of the LightNE
//! reproduction, so examples, integration tests and downstream users can
//! depend on a single crate:
//!
//! ```
//! use lightne::prelude::*;
//! ```
//!
//! See the individual crates for the subsystem documentation:
//! [`graph`] (GBBS-style substrate), [`gen`] (synthetic datasets),
//! [`linalg`] (randomized SVD), [`hash`] (sparse parallel hashing),
//! [`sparsifier`] (Algorithms 1–2), [`core`] (the pipeline),
//! [`baselines`] (NetSMF / ProNE+ / NetMF / DeepWalk-SGD) and
//! [`eval`] (classification & link-prediction harness).

#![forbid(unsafe_code)]

pub mod cli;

pub use lightne_baselines as baselines;
pub use lightne_core as core;
pub use lightne_eval as eval;
pub use lightne_gen as gen;
pub use lightne_graph as graph;
pub use lightne_hash as hash;
pub use lightne_linalg as linalg;
pub use lightne_sparsifier as sparsifier;
pub use lightne_utils as utils;

/// Convenience re-exports of the most used types.
pub mod prelude {
    pub use lightne_core::{LightNe, LightNeConfig};
    pub use lightne_eval::{classify, cost, linkpred};
    pub use lightne_gen::profiles;
    pub use lightne_graph::{
        Codec, Graph, GraphAccess, GraphBuilder, GraphFormatError, GraphOps, V2Graph, VertexId,
    };
    pub use lightne_linalg::{CsrMatrix, DenseMatrix};
}
