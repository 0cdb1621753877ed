//! Workspace file discovery for `cargo xtask check`.
//!
//! Walks the scan roots in [`crate::config::SCAN_ROOTS`], collecting
//! `.rs` files and skipping the exclusion list (build output and the
//! lint-violation fixtures, which are test *inputs*). The walk is
//! hardened against the ways a source tree lies to a scanner:
//!
//! * **symlinks are never followed** — a link pointing outside the
//!   workspace (or back into it, forming a cycle) must not add files or
//!   loop the walk; `symlink_metadata` is checked before recursing;
//! * **any directory named `target` is skipped at entry** — nested cargo
//!   build dirs (e.g. a fixture crate built in place) would otherwise be
//!   scanned before the path-fragment exclusion filters their files out;
//! * **ordering is deterministic across platforms** — entries are sorted
//!   by the workspace-relative `/`-separated path as raw bytes, so
//!   diagnostics come out byte-identical regardless of the host's
//!   directory-entry order or path-separator conventions.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::config;

/// Collects all lintable `.rs` files under `root`, workspace-relative.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for scan in config::SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            visit(root, &dir, &mut out)?;
        }
    }
    // Byte-wise sort of the relative `/`-path, not PathBuf order: the
    // component-aware PathBuf comparison differs across platforms.
    out.sort_by(|a, b| a.to_string_lossy().as_bytes().cmp(b.to_string_lossy().as_bytes()));
    out.dedup();
    Ok(out)
}

fn visit(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        let rel = rel_str(root, &path);
        if config::EXCLUDE.iter().any(|x| rel.starts_with(x) || rel.contains(&format!("/{x}"))) {
            continue;
        }
        // Never follow symlinks: a link can escape the workspace or
        // form a cycle. `symlink_metadata` stats the link itself.
        let meta = fs::symlink_metadata(&path)?;
        if meta.file_type().is_symlink() {
            continue;
        }
        if meta.is_dir() {
            // Skip nested cargo build dirs at entry instead of filtering
            // their (many) files one by one.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            visit(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(PathBuf::from(rel));
        }
    }
    Ok(())
}

/// Workspace-relative path with `/` separators.
pub fn rel_str(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excludes_fixture_dir() {
        // The repo root is two levels above this crate's manifest.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
        let files = workspace_files(root).unwrap();
        assert!(!files.is_empty());
        assert!(files.iter().all(|f| !f.to_string_lossy().contains("tests/fixtures")));
        assert!(files.iter().any(|f| f.to_string_lossy() == "crates/xtask/src/walk.rs"));
    }

    /// Builds a throwaway fixture tree:
    ///
    /// ```text
    /// <tmp>/crates/a/src/lib.rs
    /// <tmp>/crates/a/target/debug/build.rs   (nested target dir)
    /// <tmp>/crates/b/src/zz.rs
    /// <tmp>/crates/b/src/aa.rs
    /// <tmp>/crates/link -> ../outside        (dir symlink)
    /// <tmp>/crates/b/src/ln.rs -> lib.rs     (file symlink)
    /// <tmp>/outside/evil.rs
    /// ```
    fn build_tree() -> PathBuf {
        let root = std::env::temp_dir().join(format!("xtask-walk-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        for d in ["crates/a/src", "crates/a/target/debug", "crates/b/src", "outside"] {
            fs::create_dir_all(root.join(d)).unwrap();
        }
        fs::write(root.join("crates/a/src/lib.rs"), "pub fn a() {}\n").unwrap();
        fs::write(root.join("crates/a/target/debug/build.rs"), "fn main() {}\n").unwrap();
        fs::write(root.join("crates/b/src/zz.rs"), "pub fn z() {}\n").unwrap();
        fs::write(root.join("crates/b/src/aa.rs"), "pub fn a() {}\n").unwrap();
        fs::write(root.join("outside/evil.rs"), "fn evil() {}\n").unwrap();
        #[cfg(unix)]
        {
            std::os::unix::fs::symlink(root.join("outside"), root.join("crates/link")).unwrap();
            std::os::unix::fs::symlink(
                root.join("crates/a/src/lib.rs"),
                root.join("crates/b/src/ln.rs"),
            )
            .unwrap();
        }
        root
    }

    #[test]
    fn skips_symlinks_and_nested_target_and_sorts() {
        let root = build_tree();
        let files: Vec<String> = workspace_files(&root)
            .unwrap()
            .iter()
            .map(|p| p.to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            files,
            ["crates/a/src/lib.rs", "crates/b/src/aa.rs", "crates/b/src/zz.rs"],
            "deterministic byte order; no symlinked or target/ files"
        );
        fs::remove_dir_all(&root).unwrap();
    }
}
