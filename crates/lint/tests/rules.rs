//! Fixture suite: one positive, one negative and one allow-marker case for
//! A01, plus the unknown-marker gate. Fixtures live under `tests/fixtures/`
//! (never compiled — the engine also excludes that directory from
//! workspace walks) and are parsed under synthetic workspace paths because
//! the rule is path-scoped.

use dsi_lint::engine::{fix_markers, lint_files};
use dsi_lint::rules::{A01, UNKNOWN_MARKER};
use dsi_lint::SourceFile;

/// Parse `tests/fixtures/<name>` as if it lived at `path` in the workspace.
fn fixture(name: &str, path: &str) -> SourceFile {
    let full = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("read {full}: {e}"));
    SourceFile::parse(path, &src)
}

/// Violations (rule, line) and allowed count for one fixture.
fn lint(name: &str, path: &str) -> (Vec<(&'static str, usize)>, usize) {
    let out = lint_files(&[fixture(name, path)]);
    (out.violations.iter().map(|v| (v.rule, v.line)).collect(), out.allowed.len())
}

// ---------------------------------------------------------------- A01

#[test]
fn a01_positive_flags_derived_clone_reached_from_post_value() {
    // The PR-9 negative control: a derived-Clone ExpHistogram cloned on
    // the tick, two call-graph hops below the entry point.
    let (vs, _) = lint("a01_positive.rs", "crates/core/src/cluster/ingest.rs");
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].0, A01);
}

#[test]
fn a01_positive_witness_chain_names_the_entry_point() {
    let out = lint_files(&[fixture("a01_positive.rs", "crates/core/src/cluster/ingest.rs")]);
    assert_eq!(out.violations.len(), 1);
    let msg = &out.violations[0].message;
    assert!(msg.contains("Cluster::post_value"), "witness chain missing from: {msg}");
    assert!(msg.contains("`.clone()`"), "token missing from: {msg}");
}

#[test]
fn a01_negative_capacity_preserving_counterpart_passes() {
    // Hand-written capacity-preserving Clone plus clone_from on the hot
    // path: the allocating fns exist but are unreachable from the
    // entries, so the static pass stays quiet.
    let (vs, allowed) = lint("a01_negative.rs", "crates/core/src/cluster/ingest.rs");
    assert!(vs.is_empty(), "{vs:?}");
    assert_eq!(allowed, 0);
}

#[test]
fn a01_allow_marker_and_cold_boundary_suppress() {
    // The statement marker is counted as allowed; the fn-level cold
    // boundary excludes the emission helper without an allowed record.
    let (vs, allowed) = lint("a01_allowed.rs", "crates/core/src/cluster/ingest.rs");
    assert!(vs.is_empty(), "{vs:?}");
    assert_eq!(allowed, 1);
}

#[test]
fn a01_outside_graph_crates_is_ignored() {
    // bench is not a runtime crate: no call-graph nodes, no hot set.
    let (vs, _) = lint("a01_positive.rs", "crates/bench/src/fixture.rs");
    assert!(vs.is_empty(), "A01 covers the runtime graph crates only: {vs:?}");
}

// ------------------------------------------------------ marker pressure

#[test]
fn todo_reason_markers_do_not_suppress() {
    // The --fix-markers scaffolding inserts TODO reasons; they must keep
    // the violation alive until a human writes the real justification.
    let f = SourceFile::parse(
        "crates/core/src/cluster/ingest.rs",
        "pub struct Cluster;\nimpl Cluster {\n    pub fn post_value(&mut self) {\n        \
         // dsilint: allow(hot-path-alloc, TODO: justify)\n        eat(vec![1u64]);\n    }\n}\n",
    );
    let out = lint_files(&[f]);
    assert_eq!(out.violations.len(), 1);
    assert_eq!(out.violations[0].rule, A01);
}

#[test]
fn unknown_marker_is_reported_and_gets_no_scaffold() {
    // A marker whose rule moved to the compiler, or was misspelled,
    // suppresses nothing; it must fail the gate instead of lingering.
    let out = lint_files(&[fixture("unknown_marker.rs", "crates/core/src/cluster/ingest.rs")]);
    let hits: Vec<_> = out.violations.iter().map(|v| (v.rule, v.line)).collect();
    assert_eq!(hits, vec![(UNKNOWN_MARKER, 6), (A01, 7), (UNKNOWN_MARKER, 7)]);
    assert!(out.violations[0].message.contains("no-such-rule"), "{}", out.violations[0].message);
    // The misspelled marker on line 7 does not suppress the rule it meant;
    // the well-spelled one on line 8 does.
    assert_eq!(out.allowed.len(), 1);
    // The fix is deletion, so `--fix-markers` scaffolds nothing for it.
    assert!(fix_markers(std::path::Path::new("."), &out).is_empty());
}
