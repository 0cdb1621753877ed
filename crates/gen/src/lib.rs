//! Synthetic graph generators and per-paper dataset profiles.
//!
//! The LightNE evaluation runs on nine real graphs (Table 3), from
//! BlogCatalog (10K vertices) to Hyperlink2014 (124B edges). Those datasets
//! — and the 1.5 TB machine that held them — are not available here, so
//! per the reproduction's substitution rule this crate provides synthetic
//! analogues that preserve the graph properties the algorithms exploit:
//!
//! * power-law degree distributions ([`generators::chung_lu`],
//!   [`generators::rmat`], [`generators::barabasi_albert`]),
//! * community structure with multi-label ground truth for the node
//!   classification tasks ([`sbm::labelled_sbm`]), and
//! * well-connectedness / spectral-gap behaviour (the property Theorem 3.2
//!   needs for degree-based downsampling to approximate effective
//!   resistances).
//!
//! [`profiles`] maps each paper dataset to a generator configuration with
//! a `scale` knob, so every experiment binary can run the paper's workload
//! shape at laptop size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod generators;
pub mod labels;
pub mod profiles;
pub mod sbm;

pub use alias::AliasTable;
pub use labels::Labels;
pub use profiles::{Dataset, Profile};
