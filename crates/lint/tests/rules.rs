//! Fixture suite: one positive, one negative and one allow-marker case per
//! rule. Fixtures live under `tests/fixtures/` (never compiled — the
//! engine also excludes that directory from workspace walks) and are
//! parsed under synthetic workspace paths because every rule is
//! path-scoped.

use dsi_lint::engine::{lint_files, lint_files_with};
use dsi_lint::rules::{A01, D01, D02, R01, S01, X01, X02};
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

// ---------------------------------------------------------------- D02

#[test]
fn d02_positive_flags_wall_clock_and_entropy() {
    let (vs, _) = lint("d02_positive.rs", "crates/simnet/src/fixture.rs");
    let rules: Vec<_> = vs.iter().map(|v| v.0).collect();
    assert_eq!(rules, vec![D02, D02], "{vs:?}");
}

#[test]
fn d02_negative_bench_crate_and_strings_are_exempt() {
    let (vs, _) = lint("d02_negative.rs", "crates/bench/src/fixture.rs");
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn d02_allow_marker_suppresses_with_reason() {
    let (vs, allowed) = lint("d02_allowed.rs", "crates/lint/src/fixture.rs");
    assert!(vs.is_empty(), "{vs:?}");
    assert_eq!(allowed, 1);
}

// ---------------------------------------------------------------- R01

#[test]
fn r01_positive_flags_hot_path_unwrap_and_expect() {
    let (vs, _) = lint("r01_positive.rs", "crates/chord/src/router.rs");
    let rules: Vec<_> = vs.iter().map(|v| v.0).collect();
    assert_eq!(rules, vec![R01, R01], "{vs:?}");
}

#[test]
fn r01_negative_handled_options_and_test_mods_pass() {
    let (vs, _) = lint("r01_negative.rs", "crates/chord/src/router.rs");
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn r01_off_hot_path_is_ignored() {
    let (vs, _) = lint("r01_positive.rs", "crates/chord/src/ring.rs");
    assert!(vs.is_empty(), "R01 covers router/multicast/engine/reliability only: {vs:?}");
}

#[test]
fn r01_allow_marker_suppresses_with_reason() {
    let (vs, allowed) = lint("r01_allowed.rs", "crates/chord/src/multicast.rs");
    assert!(vs.is_empty(), "{vs:?}");
    assert_eq!(allowed, 1);
}

#[test]
fn r01_covers_the_reliability_module() {
    let (vs, _) = lint("r01_reliability_positive.rs", "crates/core/src/reliability.rs");
    let rules: Vec<_> = vs.iter().map(|v| v.0).collect();
    assert_eq!(rules, vec![R01, R01], "{vs:?}");
}

#[test]
fn r01_reliability_allow_marker_suppresses_with_reason() {
    let (vs, allowed) = lint("r01_reliability_allowed.rs", "crates/core/src/reliability.rs");
    assert!(vs.is_empty(), "{vs:?}");
    assert_eq!(allowed, 1);
}

#[test]
fn r01_covers_the_load_ledger() {
    let (vs, _) = lint("r01_loadledger_positive.rs", "crates/core/src/load.rs");
    let rules: Vec<_> = vs.iter().map(|v| v.0).collect();
    assert_eq!(rules, vec![R01, R01], "{vs:?}");
}

#[test]
fn r01_loadledger_allow_marker_suppresses_with_reason() {
    let (vs, allowed) = lint("r01_loadledger_allowed.rs", "crates/core/src/load.rs");
    assert!(vs.is_empty(), "{vs:?}");
    assert_eq!(allowed, 1);
}

#[test]
fn r01_covers_the_summary_store() {
    let (vs, _) = lint("r01_store_positive.rs", "crates/core/src/store.rs");
    let rules: Vec<_> = vs.iter().map(|v| v.0).collect();
    assert_eq!(rules, vec![R01, R01], "{vs:?}");
}

#[test]
fn r01_store_allow_marker_suppresses_with_reason() {
    let (vs, allowed) = lint("r01_store_allowed.rs", "crates/core/src/store.rs");
    assert!(vs.is_empty(), "{vs:?}");
    assert_eq!(allowed, 1);
}

#[test]
fn r01_covers_the_sortable_index() {
    let (vs, _) = lint("r01_sortable_positive.rs", "crates/core/src/sortable.rs");
    let rules: Vec<_> = vs.iter().map(|v| v.0).collect();
    assert_eq!(rules, vec![R01, R01], "{vs:?}");
}

#[test]
fn r01_sortable_allow_marker_suppresses_with_reason() {
    let (vs, allowed) = lint("r01_sortable_allowed.rs", "crates/core/src/sortable.rs");
    assert!(vs.is_empty(), "{vs:?}");
    assert_eq!(allowed, 1);
}

#[test]
fn r01_covers_the_exponential_histogram() {
    let (vs, _) = lint("r01_eh_positive.rs", "crates/sketch/src/eh.rs");
    let rules: Vec<_> = vs.iter().map(|v| v.0).collect();
    assert_eq!(rules, vec![R01, R01], "{vs:?}");
}

#[test]
fn r01_eh_allow_marker_suppresses_with_reason() {
    let (vs, allowed) = lint("r01_eh_allowed.rs", "crates/sketch/src/eh.rs");
    assert!(vs.is_empty(), "{vs:?}");
    assert_eq!(allowed, 1);
}

#[test]
fn r01_covers_the_ecm_sketch() {
    let (vs, _) = lint("r01_ecm_positive.rs", "crates/sketch/src/ecm.rs");
    let rules: Vec<_> = vs.iter().map(|v| v.0).collect();
    assert_eq!(rules, vec![R01, R01], "{vs:?}");
}

#[test]
fn r01_ecm_allow_marker_suppresses_with_reason() {
    let (vs, allowed) = lint("r01_ecm_allowed.rs", "crates/sketch/src/ecm.rs");
    assert!(vs.is_empty(), "{vs:?}");
    assert_eq!(allowed, 1);
}

#[test]
fn r01_covers_the_aggregate_module() {
    let (vs, _) = lint("r01_aggregate_positive.rs", "crates/core/src/aggregate.rs");
    let rules: Vec<_> = vs.iter().map(|v| v.0).collect();
    assert_eq!(rules, vec![R01, R01], "{vs:?}");
}

#[test]
fn r01_aggregate_allow_marker_suppresses_with_reason() {
    let (vs, allowed) = lint("r01_aggregate_allowed.rs", "crates/core/src/aggregate.rs");
    assert!(vs.is_empty(), "{vs:?}");
    assert_eq!(allowed, 1);
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

// ---------------------------------------------------------------- X01

#[test]
fn x01_positive_flags_stale_constant_and_wildcard() {
    let (vs, _) = lint("x01_positive.rs", "crates/simnet/src/metrics.rs");
    let rules: Vec<_> = vs.iter().map(|v| v.0).collect();
    assert_eq!(rules, vec![X01, X01], "{vs:?}");
}

#[test]
fn x01_negative_consistent_table_passes() {
    let (vs, _) = lint("x01_negative.rs", "crates/simnet/src/metrics.rs");
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn x01_allow_marker_suppresses_with_reason() {
    let (vs, allowed) = lint("x01_allowed.rs", "crates/simnet/src/metrics.rs");
    assert!(vs.is_empty(), "{vs:?}");
    assert_eq!(allowed, 1);
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

// ---------------------------------------------------------------- S01

#[test]
fn s01_positive_flags_billing_and_tracing_outside_the_seam() {
    let (vs, _) = lint("s01_positive.rs", "crates/core/src/cluster/notify.rs");
    assert_eq!(vs, vec![(S01, 8), (S01, 9)], "the record_message and tracer.single lines");
}

#[test]
fn s01_negative_seam_callers_and_test_modules_pass() {
    let (vs, _) = lint("s01_negative.rs", "crates/core/src/cluster/notify.rs");
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn s01_exempts_the_seam_itself_and_other_crates() {
    for path in ["crates/core/src/cluster/send.rs", "crates/simnet/src/engine.rs"] {
        let (vs, _) = lint("s01_positive.rs", path);
        assert!(vs.is_empty(), "S01 polices crates/core minus the seam, not {path}: {vs:?}");
    }
}

#[test]
fn s01_allow_marker_suppresses_with_reason() {
    let (vs, allowed) = lint("s01_allowed.rs", "crates/core/src/cluster/notify.rs");
    assert!(vs.is_empty(), "{vs:?}");
    assert_eq!(allowed, 1);
}

// ---------------------------------------------------------------- X02

#[test]
fn x02_positive_flags_stale_constant_and_wildcard() {
    let (vs, _) = lint("x02_positive.rs", "crates/faultsim/src/oracle.rs");
    let rules: Vec<_> = vs.iter().map(|v| v.0).collect();
    assert_eq!(rules, vec![X02, X02], "{vs:?}");
}

#[test]
fn x02_negative_consistent_registry_passes() {
    // Includes a `[OracleId; NUM_ORACLES]` table: spelling the length as
    // the audited constant is in sync by construction.
    let (vs, _) = lint("x02_negative.rs", "crates/faultsim/src/oracle.rs");
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn x02_allow_marker_suppresses_with_reason() {
    let (vs, allowed) = lint("x02_allowed.rs", "crates/faultsim/src/oracle.rs");
    assert!(vs.is_empty(), "{vs:?}");
    assert_eq!(allowed, 1);
}

#[test]
fn x02_growth_positive_flags_every_stale_nine_oracle_artifact() {
    // The tenth-oracle growth scenario: a variant added without touching
    // the constant, a legacy literal-length table, or the slug dispatch.
    // All three must be flagged, not just the first.
    let (vs, _) = lint("x02_growth_positive.rs", "crates/faultsim/src/oracle.rs");
    let rules: Vec<_> = vs.iter().map(|v| v.0).collect();
    assert_eq!(rules, vec![X02, X02, X02], "{vs:?}");
}

#[test]
fn x02_growth_negative_extended_registry_passes() {
    let (vs, _) = lint("x02_growth_negative.rs", "crates/faultsim/src/oracle.rs");
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn x02_growth_marker_must_advance_with_the_registry() {
    // A ten-variant registry against a DESIGN.md marker still saying 9
    // (doc left behind) and one saying 10 (doc kept up).
    let f = fixture("x02_growth_negative.rs", "crates/faultsim/src/oracle.rs");
    let out = lint_files_with(&[f], Some(9));
    assert_eq!(out.violations.len(), 1, "{:?}", out.violations);
    assert_eq!(out.violations[0].rule, X02);
    assert!(out.violations[0].message.contains("DESIGN.md advertises 9 oracles"));

    let f = fixture("x02_growth_negative.rs", "crates/faultsim/src/oracle.rs");
    let out = lint_files_with(&[f], Some(10));
    assert!(out.violations.is_empty(), "{:?}", out.violations);
}

#[test]
fn x02_design_marker_drift_is_flagged_at_the_enum() {
    let f = fixture("x02_negative.rs", "crates/faultsim/src/oracle.rs");
    let out = lint_files_with(&[f], Some(4));
    assert_eq!(out.violations.len(), 1, "{:?}", out.violations);
    assert_eq!(out.violations[0].rule, X02);
    assert!(out.violations[0].message.contains("DESIGN.md advertises 4 oracles"));

    let f = fixture("x02_negative.rs", "crates/faultsim/src/oracle.rs");
    let out = lint_files_with(&[f], Some(3));
    assert!(out.violations.is_empty(), "{:?}", out.violations);
}

// ------------------------------------------------------ marker pressure

#[test]
fn todo_reason_markers_do_not_suppress() {
    // The --fix-markers scaffolding inserts TODO reasons; they must keep
    // the violation alive until a human writes the real justification.
    let f = SourceFile::parse(
        "crates/chord/src/router.rs",
        "pub fn f(v: &[u64]) -> u64 {\n    // dsilint: allow(hot-path-unwrap, TODO: justify)\n    *v.first().unwrap()\n}\n",
    );
    let out = lint_files(&[f]);
    assert_eq!(out.violations.len(), 1);
    assert_eq!(out.violations[0].rule, R01);
}
