//! GBBS/Ligra+-style parallel graph substrate for LightNE.
//!
//! LightNE (Section 4.1) builds on the Graph Based Benchmark Suite (GBBS),
//! which extends Ligra with purely-functional bulk-parallel primitives and
//! the *parallel-byte* compressed CSR format of Ligra+. This crate is a
//! from-scratch Rust reproduction of the parts of that stack the embedding
//! system needs:
//!
//! * [`csr::Graph`] — an uncompressed CSR graph with `u32` vertex ids.
//! * [`builder::GraphBuilder`] — parallel CSR construction from edge lists
//!   (sort + dedup + symmetrize), the standard GBBS ingestion path.
//! * [`v2::V2Graph`] — the compressed graph: neighbor lists as
//!   difference-encoded blocks of a configurable size (64 by default, the
//!   trade-off chosen in Section 4.2), with per-block offsets so the `i`-th
//!   neighbor of a vertex is fetched by decoding a single block. With
//!   [`Codec::Byte`] this is the parallel-byte format; [`codecs`] holds
//!   that code and the bit-granular ones (adaptive Rice, ζ), [`ef`] the
//!   Elias–Fano offset indices, and the container loads in memory or
//!   zero-copy via [`mmap`].
//! * [`ops::GraphOps`] — the uniform interface (degrees, neighbor access,
//!   `map_edges`) that both representations implement, so the sampler is
//!   generic over compression. `map_edges`/`map_arcs` is the one GBBS
//!   bulk-parallel primitive the pipeline uses.
//! * [`weighted::WeightedOps`] — the weight-aware view the pipeline is
//!   written against: unit weights on every `GraphOps` backend, stored
//!   weights on [`weighted::WeightedGraph`].
//! * [`algorithms`] — structural statistics for `lightne stats` and the
//!   quality matrix's structure probe: connected components, triangles,
//!   k-core and PageRank, all off the embedding path.
//! * [`walk`] — the one-step-at-a-time random-walk engine used by
//!   PathSampling (Algorithm 1).
//! * [`io`] — text edge-list and binary CSR readers/writers.
//!
//! Unsafe code is denied crate-wide except in [`mmap`], the single module
//! that wraps the `mmap(2)`/`munmap(2)` system calls; every unsafe block
//! there carries a SAFETY comment (enforced by `cargo xtask check`, L1).

#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod builder;
pub mod codecs;
pub mod csr;
pub mod ef;
pub mod error;
pub mod io;
pub mod mmap;
pub mod ops;
pub mod v2;
pub mod walk;
pub mod weighted;

pub use builder::GraphBuilder;
pub use codecs::Codec;
pub use csr::Graph;
pub use error::GraphFormatError;
pub use ops::{GraphAccess, GraphOps};
pub use v2::V2Graph;
pub use weighted::{WeightedGraph, WeightedOps};

/// Vertex identifier. `u32` covers every graph this reproduction targets
/// and halves the memory of every neighbor array relative to `u64` ids,
/// matching the id width GBBS uses for graphs below 4B vertices.
pub type VertexId = u32;
