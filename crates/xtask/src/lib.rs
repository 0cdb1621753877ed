//! Workspace task driver for the LightNE reproduction.
//!
//! `cargo xtask check` runs the two token lints ([`lints`]: L3, float
//! reductions in parallel chains; L4, justified `Ordering::Relaxed`) that
//! no rustc or clippy lint can state. Every other workspace invariant —
//! documented and confined `unsafe`, no hash-order containers, no ambient
//! clocks, no unreasoned panic sites — is a compiler lint level in the
//! root `Cargo.toml` and `clippy.toml`; see DESIGN.md, "Static analysis &
//! concurrency verification". `cargo xtask gate` judges the bench reports
//! ([`gate`]).
//!
//! The lints run on a small hand-rolled lexer ([`lexer`]), because both
//! are decidable from tokens plus brace matching and the offline build
//! environment has no `syn`. Diagnostics carry `file:line:col` spans and
//! render as text or JSON ([`diagnostics`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod diagnostics;
pub mod gate;
pub mod lexer;
pub mod lints;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

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
/// `xtask:allow` comments that no longer cover a real diagnostic).
pub fn stale_workspace_suppressions(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut diags = Vec::new();
    for rel in walk::workspace_files(root)? {
        let src = fs::read_to_string(root.join(&rel))?;
        diags.extend(stale_suppressions(&rel.to_string_lossy(), &src));
    }
    Ok(diags)
}
