//! Fixture tests for the six workspace lints: each fixture violates
//! exactly one lint at a known span, the clean fixture produces zero
//! false positives, and the live workspace itself must lint clean — the
//! same gate CI enforces with `cargo xtask check`.

use std::path::Path;

use xtask::{check_source, Diagnostic};

fn lints_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.lint).collect()
}

#[test]
fn l1_fires_on_undocumented_unsafe() {
    let diags = check_source("crates/eval/src/fixture_l1.rs", include_str!("fixtures/l1.rs"));
    assert_eq!(lints_of(&diags), ["L1"], "{diags:?}");
    assert_eq!(diags[0].line, 10, "span must point at the `unsafe` token");
}

#[test]
fn l1_isolation_fires_outside_the_designated_module() {
    // The graph crate confines `unsafe` to mmap.rs: a SAFETY-commented
    // unsafe block anywhere else in the crate is still a violation.
    let src = include_str!("fixtures/l1_isolation.rs");
    let diags = check_source("crates/graph/src/v2.rs", src);
    assert_eq!(lints_of(&diags), ["L1"], "{diags:?}");
    assert_eq!(diags[0].line, 9, "span must point at the `unsafe` token");
    assert!(diags[0].message.contains("mmap.rs"), "{diags:?}");
}

#[test]
fn l1_isolation_allows_the_designated_module_and_other_crates() {
    let src = include_str!("fixtures/l1_isolation.rs");
    assert!(check_source("crates/graph/src/mmap.rs", src).is_empty());
    assert!(check_source("crates/eval/src/ptr.rs", src).is_empty());
}

#[test]
fn l2_fires_on_hashmap_in_deterministic_path() {
    let diags = check_source("crates/core/src/fixture_l2.rs", include_str!("fixtures/l2.rs"));
    assert_eq!(lints_of(&diags), ["L2"], "{diags:?}");
    assert_eq!(diags[0].line, 5, "span must point at the HashMap import");
    assert!(diags[0].message.contains("BTreeMap"));
}

#[test]
fn l2_does_not_apply_off_the_deterministic_path() {
    let diags = check_source("crates/graph/src/fixture_l2.rs", include_str!("fixtures/l2.rs"));
    assert!(diags.is_empty(), "{diags:?}");
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
}

#[test]
fn l5_fires_on_system_time() {
    let diags = check_source("crates/graph/src/fixture_l5.rs", include_str!("fixtures/l5.rs"));
    assert_eq!(lints_of(&diags), ["L5"], "{diags:?}");
    assert_eq!(diags[0].line, 9, "span must point at SystemTime::now");
}

#[test]
fn l6_fires_on_intrinsic_outside_target_feature_fn() {
    // Linted as the designated module, so the one violation is the
    // missing `#[target_feature]` gate.
    let diags = check_source("crates/linalg/src/simd.rs", include_str!("fixtures/l6.rs"));
    assert_eq!(lints_of(&diags), ["L6"], "{diags:?}");
    assert_eq!(diags[0].line, 9, "span must point at the intrinsic call");
    assert!(diags[0].message.contains("target_feature"), "{diags:?}");
}

#[test]
fn l6_fires_on_intrinsic_outside_designated_module() {
    // A fully gated, SAFETY-commented call is still confined: under any
    // path that is not a designated unsafe module it violates L6.
    let src = include_str!("fixtures/l6_confinement.rs");
    let diags = check_source("crates/linalg/src/kernels.rs", src);
    assert_eq!(lints_of(&diags), ["L6"], "{diags:?}");
    assert_eq!(diags[0].line, 9, "span must point at the intrinsic call");
    assert!(diags[0].message.contains("designated"), "{diags:?}");
}

#[test]
fn l6_allows_gated_intrinsics_in_designated_modules() {
    let src = include_str!("fixtures/l6_confinement.rs");
    assert!(check_source("crates/linalg/src/simd.rs", src).is_empty());
    assert!(check_source("crates/graph/src/mmap.rs", src).is_empty());
}

#[test]
fn l6_requires_a_safety_feature_guard_comment() {
    // Strip the SAFETY line from the clean fixture: the gated call now
    // lacks its feature-guard justification.
    let src = include_str!("fixtures/l6_confinement.rs").replace("SAFETY:", "safety —");
    let diags = check_source("crates/linalg/src/simd.rs", &src);
    assert_eq!(lints_of(&diags), ["L6"], "{diags:?}");
    assert!(diags[0].message.contains("SAFETY"), "{diags:?}");
}

#[test]
fn clean_fixture_has_zero_false_positives() {
    let diags = check_source("crates/core/src/fixture_clean.rs", include_str!("fixtures/clean.rs"));
    assert!(diags.is_empty(), "false positives: {diags:?}");
}

#[test]
fn json_report_shape() {
    let diags = check_source("crates/core/src/fixture_l2.rs", include_str!("fixtures/l2.rs"));
    let json = xtask::diagnostics::to_json(&diags);
    assert!(json.contains("\"lint\": \"L2\""));
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
    // A reasoned L5 allow over code that no longer reads the clock.
    let src = "pub fn f() {\n    // xtask:allow(L5): used to time this block.\n    let x = 1;\n    let _ = x;\n}\n";
    let diags = xtask::stale_suppressions("crates/core/src/x.rs", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("stale `xtask:allow"), "{}", diags[0].message);
    assert_eq!(diags[0].line, 2);
}

#[test]
fn live_allow_is_not_flagged_as_stale() {
    let src = "pub fn f() {\n    // xtask:allow(L5): measured for the stats block below.\n    let _t = Instant::now();\n}\n";
    let diags = xtask::stale_suppressions("crates/core/src/x.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn stale_panic_ok_is_flagged() {
    let src = "pub fn f() -> u32 {\n    // xtask:panic-ok(the unwrap this excused was removed)\n    41 + 1\n}\n";
    let diags = xtask::stale_suppressions("crates/core/src/x.rs", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("stale `xtask:panic-ok"), "{}", diags[0].message);
}

#[test]
fn live_panic_ok_is_not_flagged() {
    let src = "pub fn f() -> u32 {\n    // xtask:panic-ok(Some(1) is trivially unwrappable)\n    Some(1).unwrap()\n}\n";
    let diags = xtask::stale_suppressions("crates/core/src/x.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn doc_comment_mentions_are_not_directives() {
    // Prose about the directive syntax in rustdoc must neither act as a
    // waiver nor be audited as a stale one.
    let src =
        "/// Suppress with `xtask:allow(L5): reason` or `xtask:panic-ok(reason)`.\npub fn f() {}\n";
    assert!(xtask::stale_suppressions("crates/core/src/x.rs", src).is_empty());
    let live =
        "/// `xtask:allow(L5): reason` syntax docs.\npub fn f() { let _ = Instant::now(); }\n";
    let diags = check_source("crates/core/src/x.rs", live);
    assert_eq!(diags.len(), 1, "doc mention must not suppress the L5 diagnostic: {diags:?}");
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
