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

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::Path;

pub use diagnostics::Diagnostic;
pub use lints::{check_source, stale_suppressions};

/// Every workspace source file under `root` the token lints read, with
/// its text, in walk order. A file that is test code by declaration —
/// the target of a `#[cfg(test)] mod name;` ([`lints::test_module_files`])
/// — is left out, as a `#[cfg(test)]` item inside a file is.
pub fn lintable_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for rel in walk::workspace_files(root)? {
        let src = fs::read_to_string(root.join(&rel))?;
        files.push((rel.to_string_lossy().into_owned(), src));
    }
    let test_only: BTreeSet<String> =
        files.iter().flat_map(|(path, src)| lints::test_module_files(path, src)).collect();
    files.retain(|(path, _)| !test_only.contains(path));
    Ok(files)
}

/// Lints every workspace source file under `root` ([`lintable_sources`])
/// and returns all diagnostics, ordered by file then line.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    Ok(lintable_sources(root)?.iter().flat_map(|(path, src)| check_source(path, src)).collect())
}

/// Audits every workspace source file for stale suppressions (reasoned
/// `xtask:allow` comments that no longer cover a real diagnostic).
pub fn stale_workspace_suppressions(root: &Path) -> io::Result<Vec<Diagnostic>> {
    Ok(lintable_sources(root)?
        .iter()
        .flat_map(|(path, src)| stale_suppressions(path, src))
        .collect())
}
