//! Fixture tests for the two token lints: each fixture violates exactly
//! one lint at a known span, the clean fixture produces zero false
//! positives, and the live workspace itself must lint clean — the same
//! gate CI enforces with `cargo xtask check`. Last, every workspace member
//! must inherit the workspace lint table that states the other invariants.

use std::path::Path;

use xtask::{check_source, Diagnostic};

fn lints_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.lint).collect()
}

#[test]
fn l3_fires_on_parallel_float_sum() {
    let diags = check_source("crates/linalg/src/fixture_l3.rs", include_str!("fixtures/l3.rs"));
    assert_eq!(lints_of(&diags), ["L3"], "{diags:?}");
    assert_eq!(diags[0].line, 9, "span must point at the `sum` terminal");
    assert!(diags[0].message.contains("parallel_reduce_sum"));
}

#[test]
fn l3_whitelists_the_reduction_helpers() {
    let diags = check_source("crates/utils/src/parallel.rs", include_str!("fixtures/l3.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn l4_fires_on_unjustified_relaxed() {
    let diags = check_source("crates/hashtable/src/fixture_l4.rs", include_str!("fixtures/l4.rs"));
    assert_eq!(lints_of(&diags), ["L4"], "{diags:?}");
    assert_eq!(diags[0].line, 8, "span must point at the unjustified Relaxed");
    // L4 reads every crate, not only the edge table.
    let diags = check_source("crates/graph/src/fixture_l4.rs", include_str!("fixtures/l4.rs"));
    assert_eq!(lints_of(&diags), ["L4"], "{diags:?}");
}

#[test]
fn clean_fixture_has_zero_false_positives() {
    let diags = check_source("crates/core/src/fixture_clean.rs", include_str!("fixtures/clean.rs"));
    assert!(diags.is_empty(), "false positives: {diags:?}");
}

#[test]
fn json_report_shape() {
    let diags = check_source("crates/core/src/fixture_l4.rs", include_str!("fixtures/l4.rs"));
    let json = xtask::diagnostics::to_json(&diags);
    assert!(json.contains("\"lint\": \"L4\""));
    assert!(json.contains("\"ok\": false"));
    assert!(xtask::diagnostics::to_json(&[]).contains("\"ok\": true"));
}

/// The live workspace must pass its own gate: `cargo xtask check` with
/// zero violations and zero undocumented suppressions. This makes the
/// invariants tier-1-enforced even without the CI job.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
    let diags = xtask::check_workspace(root).expect("walk workspace");
    assert!(
        diags.is_empty(),
        "workspace lint violations:\n{}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn stale_allow_with_no_diagnostic_is_flagged() {
    // A reasoned L4 allow over code that no longer loads an atomic.
    let src = "pub fn f() {\n    // xtask:allow(L4): advisory counter.\n    let x = 1;\n    let _ = x;\n}\n";
    let diags = xtask::stale_suppressions("crates/core/src/x.rs", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("stale `xtask:allow"), "{}", diags[0].message);
    assert_eq!(diags[0].line, 2);
}

#[test]
fn live_allow_is_not_flagged_as_stale() {
    let src = "pub fn f() {\n    // xtask:allow(L4): advisory counter.\n    let _ = X.load(Ordering::Relaxed);\n}\n";
    let diags = xtask::stale_suppressions("crates/core/src/x.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn doc_comment_mentions_are_not_directives() {
    // Prose about the directive syntax in rustdoc must neither act as a
    // waiver nor be audited as a stale one.
    let src = "/// Suppress with `xtask:allow(L4): reason`.\npub fn f() {}\n";
    assert!(xtask::stale_suppressions("crates/core/src/x.rs", src).is_empty());
    let live = "/// `xtask:allow(L4): reason` syntax docs.\n\
                pub fn f() { let _ = X.load(Ordering::Relaxed); }\n";
    let diags = check_source("crates/core/src/x.rs", live);
    assert_eq!(diags.len(), 1, "doc mention must not suppress the L4 diagnostic: {diags:?}");
}

/// The live workspace must also pass the stale-suppression audit: every
/// committed waiver still covers a real site.
#[test]
fn workspace_has_no_stale_suppressions() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
    let diags = xtask::stale_workspace_suppressions(root).expect("walk workspace");
    assert!(
        diags.is_empty(),
        "stale suppressions:\n{}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn an_allow_for_a_lint_that_is_not_a_token_lint_is_stale() {
    // Only L3 and L4 are token lints: an `xtask:allow` for any other
    // name waives nothing, so the audit reports it.
    let src = "pub fn f() {\n    // xtask:allow(L7): stage timing.\n    let _t = now();\n}\n";
    let diags = xtask::stale_suppressions("crates/core/src/x.rs", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].lint, "allow");
}

/// The workspace's `[workspace.lints]` table is where the unsafe, hash
/// order, clock and panic invariants live; a member that does not inherit
/// it escapes all of them, and no lint level can say so. Every member
/// named by the root manifest's `members` globs (and the root package)
/// must carry `[lints]` with `workspace = true`.
#[test]
fn every_member_inherits_the_workspace_lint_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let members = manifest
        .lines()
        .find_map(|l| l.trim().strip_prefix("members = ["))
        .expect("root manifest lists its members on one line");
    let mut manifests = vec![root.join("Cargo.toml")];
    for glob in members.trim_end_matches(']').split(',').map(|m| m.trim().trim_matches('"')) {
        let dir = glob.strip_suffix("/*").expect("members are `<dir>/*` globs");
        for entry in std::fs::read_dir(root.join(dir)).expect("member directory") {
            let path = entry.expect("directory entry").path().join("Cargo.toml");
            if path.is_file() {
                manifests.push(path);
            }
        }
    }
    assert!(manifests.len() > 10, "found only {manifests:?}");
    let escaped: Vec<_> =
        manifests.iter().filter(|m| !inherits_workspace_lints(m)).map(|m| m.display()).collect();
    assert!(escaped.is_empty(), "members without `[lints] workspace = true`: {escaped:?}");
}

/// Whether the manifest at `path` has a `[lints]` table whose entries
/// include `workspace = true`.
fn inherits_workspace_lints(path: &Path) -> bool {
    let text = std::fs::read_to_string(path).expect("member manifest");
    let mut in_lints = false;
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}
