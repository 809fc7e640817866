//! Fixture suite: one positive, one negative and one allow-marker case per
//! rule, plus the unknown-marker gate. Fixtures live under `tests/fixtures/` (never compiled — the
//! engine also excludes that directory from workspace walks) and are
//! parsed under synthetic workspace paths because every rule is
//! path-scoped.

use dsi_lint::engine::{fix_markers, lint_files};
use dsi_lint::rules::{A01, D01, UNKNOWN_MARKER};
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

// ---------------------------------------------------------------- D01

#[test]
fn d01_positive_flags_hash_order_iteration() {
    let (vs, _) = lint("d01_positive.rs", "crates/core/src/fixture.rs");
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].0, D01);
    assert_eq!(vs[0].1, 13, "the `for … values()` line");
}

#[test]
fn d01_negative_sorted_in_window_passes() {
    let (vs, allowed) = lint("d01_negative.rs", "crates/core/src/fixture.rs");
    assert!(vs.is_empty(), "{vs:?}");
    assert_eq!(allowed, 0);
}

#[test]
fn d01_allow_marker_suppresses_with_reason() {
    let (vs, allowed) = lint("d01_allowed.rs", "crates/core/src/fixture.rs");
    assert!(vs.is_empty(), "{vs:?}");
    assert_eq!(allowed, 1);
}

#[test]
fn d01_out_of_scope_crate_is_ignored() {
    let (vs, _) = lint("d01_positive.rs", "crates/streamgen/src/fixture.rs");
    assert!(vs.is_empty(), "D01 only covers the deterministic crates: {vs:?}");
}

#[test]
fn d01_covers_the_load_ledger_module() {
    // The ledger lives in `crates/core/`, so the determinism rule audits
    // its map iterations too (the shipped module carries an allow marker
    // for its one commutative count).
    let (vs, _) = lint("d01_positive.rs", "crates/core/src/load.rs");
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].0, D01);
}

#[test]
fn d01_sees_fields_declared_in_the_modules_mod_rs() {
    // A type split across a module's files: the map is a field in mod.rs,
    // the hash-order iteration lives in a sibling file.
    let decl = SourceFile::parse(
        "crates/core/src/cluster/mod.rs",
        "pub struct Cluster {\n    queries: HashMap<u64, String>,\n}\n",
    );
    let user = "impl Cluster {\n    fn all(&self) -> Vec<&String> {\n        \
                self.queries.values().collect()\n    }\n}\n";
    let sibling = SourceFile::parse("crates/core/src/cluster/notify.rs", user);
    let out = lint_files(&[decl, sibling]);
    let hits: Vec<_> = out.violations.iter().map(|v| (v.rule, v.file.as_str(), v.line)).collect();
    assert_eq!(hits, vec![(D01, "crates/core/src/cluster/notify.rs", 3)]);
    // Outside that module the name means nothing.
    let decl = SourceFile::parse(
        "crates/core/src/cluster/mod.rs",
        "pub struct Cluster {\n    queries: HashMap<u64, String>,\n}\n",
    );
    let stranger = SourceFile::parse("crates/core/src/report.rs", user);
    assert!(lint_files(&[decl, stranger]).violations.is_empty());
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
        "crates/core/src/fixture.rs",
        "struct S {\n    m: HashMap<u64, u64>,\n}\nfn f(s: &S) -> u64 {\n    \
         // dsilint: allow(unordered-iter, TODO: justify)\n    s.m.values().sum()\n}\n",
    );
    let out = lint_files(&[f]);
    assert_eq!(out.violations.len(), 1);
    assert_eq!(out.violations[0].rule, D01);
}

#[test]
fn unknown_marker_is_reported_and_gets_no_scaffold() {
    // A marker whose rule moved to the compiler, or was misspelled,
    // suppresses nothing; it must fail the gate instead of lingering.
    let out = lint_files(&[fixture("unknown_marker.rs", "crates/core/src/fixture.rs")]);
    let hits: Vec<_> = out.violations.iter().map(|v| (v.rule, v.line)).collect();
    assert_eq!(hits, vec![(UNKNOWN_MARKER, 6), (UNKNOWN_MARKER, 7), (D01, 7)]);
    assert!(out.violations[0].message.contains("no-such-rule"), "{}", out.violations[0].message);
    // The misspelled marker on line 7 does not suppress the rule it meant;
    // the well-spelled one on line 8 does.
    assert_eq!(out.allowed.len(), 1);
    // The fix is deletion, so `--fix-markers` scaffolds nothing for it.
    assert!(fix_markers(std::path::Path::new("."), &out).is_empty());
}
