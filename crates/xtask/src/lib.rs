//! Workspace invariant checker for the LightNE reproduction.
//!
//! `cargo xtask check` runs five custom lints that encode invariants the
//! compiler cannot see — the reproducibility and memory-safety contract
//! the rest of the workspace is built on. See DESIGN.md, "Static analysis
//! & concurrency verification", for the catalog and rationale; the lints
//! themselves live in [`lints`] and their path scoping in [`config`].
//!
//! The engine is token-level: a small hand-rolled lexer ([`lexer`])
//! rather than a full parser, because every lint in the catalog is
//! decidable from tokens plus brace matching, and the offline build
//! environment has no `syn`. Diagnostics carry `file:line:col` spans and
//! render as text or JSON ([`diagnostics`]).

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod analyze;
pub mod callgraph;
pub mod config;
pub mod diagnostics;
pub mod gate;
pub mod lexer;
pub mod lints;
pub mod parser;
pub mod symbols;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

pub use analyze::{analyze_workspace, AnalysisReport, AnalyzeConfig};
pub use diagnostics::Diagnostic;
pub use lints::{check_source, stale_suppressions};

/// Lints every workspace source file under `root` and returns all
/// diagnostics, ordered by file then line.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut diags = Vec::new();
    for rel in walk::workspace_files(root)? {
        let src = fs::read_to_string(root.join(&rel))?;
        diags.extend(check_source(&rel.to_string_lossy(), &src));
    }
    Ok(diags)
}

/// Audits every workspace source file for stale suppressions (reasoned
/// `xtask:allow` / `xtask:panic-ok` comments that no longer cover a real
/// diagnostic or site).
pub fn stale_workspace_suppressions(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut diags = Vec::new();
    for rel in walk::workspace_files(root)? {
        let src = fs::read_to_string(root.join(&rel))?;
        diags.extend(stale_suppressions(&rel.to_string_lossy(), &src));
    }
    Ok(diags)
}
