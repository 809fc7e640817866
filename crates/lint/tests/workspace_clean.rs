//! Self-test: the live workspace must pass `dsi-lint --check` — the same
//! gate CI runs, so a PR that introduces an unannotated violation fails
//! `cargo test -p dsi-lint` locally too.

use std::path::Path;

use dsi_lint::engine;
use dsi_lint::rules::STALE_SCOPE;

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

#[test]
fn workspace_run_reports_scope_that_matches_nothing() {
    // A tree holding only crates/core with one of the four A01 roots: every
    // other graph crate prefix and the three missing roots must be
    // reported, or deleting a crate silently narrows the gate.
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("stale_scope");
    let src = root.join("crates/core/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        src.join("lib.rs"),
        "pub struct Cluster;\nimpl Cluster {\n    pub fn post_value(&mut self) {}\n}\n",
    )
    .unwrap();
    let outcome = engine::run(&root);
    let messages: Vec<&str> = outcome.violations.iter().map(|v| v.message.as_str()).collect();
    assert!(outcome.violations.iter().all(|v| v.rule == STALE_SCOPE), "{messages:?}");
    for want in [
        "GRAPH_CRATES prefix `crates/dsp/` matches no walked file",
        "GRAPH_CRATES prefix `crates/chord/` matches no walked file",
        "A01 root `Cluster::ingest_batch` resolves to no function",
    ] {
        assert!(messages.contains(&want), "missing `{want}` in {messages:?}");
    }
    assert!(messages.iter().all(|m| !m.contains("crates/core/") && !m.contains("post_value")));
    // Fixture runs over single files never get the scope check.
    let files = engine::parse_workspace(&root);
    assert!(engine::lint_files(&files).violations.is_empty());
}
