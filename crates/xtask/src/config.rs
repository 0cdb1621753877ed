//! Lint configuration: which paths each lint watches and which it
//! exempts. Centralised so the allowlists are auditable in one place —
//! `cargo xtask check` must pass with zero *undocumented* suppressions,
//! and every entry here carries its justification.

/// Modules on the deterministic numeric path. L2 (hash-order iteration)
/// and the `Instant::now` half of L5 apply only under these prefixes:
/// their outputs must be bitwise-reproducible across runs and thread
/// counts, so iteration order and wall-clock reads are correctness
/// hazards there, not style.
pub const DETERMINISTIC_PATH: &[&str] =
    &["crates/core/src", "crates/sparsifier/src", "crates/hashtable/src", "crates/linalg/src"];

/// Crate source trees whose `unsafe` is confined to one designated
/// module (the L1 isolation rule): any `unsafe` token under the prefix
/// but outside that module is a violation *even with a SAFETY comment*.
/// The graph crate's zero-copy mmap wrapper is the sole unsafe surface of
/// the format stack — everything above it (container parsing, Elias–Fano,
/// bit codecs) must stay fully safe so the auditable surface is one file.
/// Likewise the linalg crate confines all SIMD intrinsics to `simd.rs` —
/// the numeric kernels above it stay fully safe — and the vendored
/// parallel runtime confines its one lifetime erasure (a region's job
/// published to the persistent helper threads) to `pool.rs`: producers,
/// adaptors and the block driver stay fully safe.
pub const L1_UNSAFE_ISOLATED: &[(&str, &str)] = &[
    ("crates/graph/src", "crates/graph/src/mmap.rs"),
    ("crates/linalg/src", "crates/linalg/src/simd.rs"),
    ("vendor/rayon/src", "vendor/rayon/src/pool.rs"),
];

/// Files allowed to contain raw parallel float reductions (L3). These are
/// the fixed-block deterministic-reduction helpers themselves — the one
/// place where the block-splitting arithmetic lives.
pub const L3_WHITELIST: &[&str] = &[
    // parallel_reduce_sum / parallel_reduce_max: fixed DET_SUM_BLOCK
    // blocks folded in block order; thread-count independent by
    // construction.
    "crates/utils/src/parallel.rs",
];

/// Files allowed to use `Ordering::Relaxed` without a `// ordering:`
/// justification comment (L4). Empty by design: every Relaxed in the
/// hash-table crate must argue its own correctness inline.
pub const L4_WHITELIST: &[&str] = &[];

/// Paths where L4 (justified atomic orderings) applies: the edge
/// table's CAS/accumulate paths.
pub const L4_PATHS: &[&str] = &["crates/hashtable/src"];

/// Files exempt from the `Instant::now` half of L5: the benchmark
/// harness, whose entire purpose is wall-clock measurement.
/// `SystemTime::now` and `rand::thread_rng` have no whitelist — they are
/// banned workspace-wide.
pub const L5_TIMER_WHITELIST: &[&str] = &["crates/bench/"];

/// Deterministic-path entry points for the whole-program analyses
/// (`cargo xtask analyze`), as `(file, fn name)`. These are the public
/// surfaces whose output must be bitwise-reproducible: the stage-engine
/// driver, the embedding pipeline fronts, the samplers and sparsifier
/// drains, and the dense-linalg kernels. Reachability (determinism
/// taint, panic surface) is computed transitively from every function
/// matching one of these pairs; an entry that matches nothing fails the
/// analysis, so renames cannot silently shrink the analyzed surface.
pub const ANALYZE_ENTRY_POINTS: &[(&str, &str)] = &[
    // Stage engine + pipeline fronts.
    ("crates/core/src/engine.rs", "run_pipeline"),
    ("crates/core/src/pipeline.rs", "embed"),
    ("crates/core/src/pipeline.rs", "embed_with"),
    ("crates/core/src/propagation.rs", "spectral_propagation"),
    ("crates/core/src/propagation.rs", "spectral_propagation_matrices"),
    // Samplers and sparsifier drains.
    ("crates/sparsifier/src/construct.rs", "sample_into"),
    ("crates/sparsifier/src/path_sampling.rs", "path_sample"),
    ("crates/sparsifier/src/sharded.rs", "build_sharded_sparsifier"),
    ("crates/sparsifier/src/sharded.rs", "sharded_to_netmf"),
    // Dense-linalg kernels.
    ("crates/linalg/src/rsvd.rs", "randomized_svd"),
    ("crates/linalg/src/kernels.rs", "gemm"),
    ("crates/linalg/src/qr.rs", "orthonormalize_columns"),
    ("crates/linalg/src/svd.rs", "eig_svd"),
    ("crates/linalg/src/svd.rs", "tall_thin_svd"),
];

/// Path prefixes exempt from the panic-surface *gate* (their gated
/// panic sites are counted under `panic_vendor_exempt`, not failed).
/// Vendored shims mirror an external crate's API contract — the loom
/// shim panics on lock poisoning because real loom does — so requiring
/// `xtask:panic-ok` rewrites there would drift the shim from the
/// interface it mimics. Determinism taint is still gated in these files.
pub const ANALYZE_VENDOR_EXEMPT: &[&str] = &["vendor/"];

/// Directories scanned by the workspace walk, relative to the repo root.
pub const SCAN_ROOTS: &[&str] =
    &["crates", "src", "tests", "examples", "vendor/loom/src", "vendor/rayon/src"];

/// Path fragments excluded from the walk. Fixtures are lint-violation
/// test inputs by design; the vendored shims mirror external crates and
/// are scanned only where they hold `unsafe` (`vendor/loom`, whose lock
/// is an `UnsafeCell`, and `vendor/rayon`, whose pool erases one
/// lifetime), so that L1 covers every `unsafe` token in the repository.
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
    fn det_path_matching() {
        assert!(path_in("crates/core/src/engine.rs", DETERMINISTIC_PATH));
        assert!(path_in("crates/hashtable/src/concurrent.rs", DETERMINISTIC_PATH));
        assert!(!path_in("crates/bench/src/main.rs", DETERMINISTIC_PATH));
        assert!(!path_in("crates/core/tests/x.rs", DETERMINISTIC_PATH));
    }

    #[test]
    fn whitelists() {
        assert!(path_in("crates/utils/src/parallel.rs", L3_WHITELIST));
        assert!(path_in("crates/bench/src/main.rs", L5_TIMER_WHITELIST));
        assert!(!path_in("crates/utils/src/rng.rs", L3_WHITELIST));
    }
}
