//! Self-test: the live workspace must pass `dsi-lint --check` — the same
//! gate CI runs, so a PR that introduces an unannotated violation fails
//! `cargo test -p dsi-lint` locally too.

use std::path::Path;

use dsi_lint::engine;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap()
}

#[test]
fn live_workspace_passes_check() {
    let outcome = engine::run(workspace_root());
    assert!(outcome.files_scanned > 50, "walk found the workspace ({})", outcome.files_scanned);
    assert!(
        outcome.violations.is_empty(),
        "unannotated violations in the committed tree:\n{}",
        engine::render_text(&outcome)
    );
}

#[test]
fn hot_set_reaches_beyond_the_entry_file() {
    // A01 is only meaningful if the call graph actually traverses out of
    // the ingest entry points: the inline aggregate replica update pulls
    // the sketch and dsp crates into the hot set. A refactor that breaks
    // edge extraction would empty this and silently disable the rule.
    let outcome = engine::run(workspace_root());
    let hot = &outcome.context.hot_fns;
    assert!(
        hot.iter().any(|h| h.file == "crates/core/src/cluster/ingest.rs"),
        "no hot functions in cluster/ingest.rs"
    );
    assert!(
        hot.iter().any(|h| !h.file.starts_with("crates/core/")),
        "hot set never left crates/core — call-graph traversal broke: {:?}",
        hot.iter().map(|h| h.label.as_str()).collect::<Vec<_>>()
    );
}

#[test]
fn fixtures_and_vendor_are_excluded_from_the_walk() {
    let files = engine::parse_workspace(workspace_root());
    assert!(files.iter().all(|f| !f.path.contains("fixtures")
        && !f.path.contains("vendor/")
        && !f.path.contains("target/")));
    // But the linter does police itself.
    assert!(files.iter().any(|f| f.path == "crates/lint/src/main.rs"));
}
