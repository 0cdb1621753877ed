//! Lint configuration: which files the token lints read and which they
//! exempt. Centralised so the allowlists are auditable in one place —
//! `cargo xtask check` must pass with zero *undocumented* suppressions,
//! and every entry here carries its justification. (Every other
//! invariant is a compiler lint level: the root `Cargo.toml`'s
//! `[workspace.lints]` and `clippy.toml`.)

/// Files allowed to contain raw parallel float reductions (L3). These are
/// the fixed-block deterministic-reduction helpers themselves — the one
/// place where the block-splitting arithmetic lives.
pub const L3_WHITELIST: &[&str] = &[
    // parallel_reduce_sum / parallel_reduce_max: fixed DET_SUM_BLOCK
    // blocks folded in block order; thread-count independent by
    // construction.
    "crates/utils/src/parallel.rs",
];

/// Directories scanned by the workspace walk, relative to the repo root.
/// Of the vendored shims, the two whose code carries atomics and
/// parallel chains are scanned: `vendor/rayon` (the runtime's own
/// `Relaxed` counters and its order tests) and `vendor/loom`.
pub const SCAN_ROOTS: &[&str] =
    &["crates", "src", "tests", "examples", "vendor/loom/src", "vendor/rayon/src"];

/// Path fragments excluded from the walk. Fixtures are lint-violation
/// test inputs by design.
pub const EXCLUDE: &[&str] = &["target/", "crates/xtask/tests/fixtures/"];

/// Returns true if `path` (workspace-relative, `/`-separated) starts with
/// any of the given prefixes.
pub fn path_in(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitelists() {
        assert!(path_in("crates/utils/src/parallel.rs", L3_WHITELIST));
        assert!(!path_in("crates/utils/src/rng.rs", L3_WHITELIST));
    }
}
