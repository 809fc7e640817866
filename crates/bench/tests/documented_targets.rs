//! Every `dsi-bench` target a document or the CI workflow tells a reader to
//! run must exist: a `-p dsi-bench --bin <x>` or `--bench <x>` with no
//! entry `<x>` in `crates/bench/src/bin/` is a stale command.

use std::collections::BTreeSet;
use std::path::Path;

const DOCUMENTS: [&str; 4] =
    ["README.md", "DESIGN.md", "EXPERIMENTS.md", ".github/workflows/ci.yml"];

/// The target names `flag` introduces on `line` (`--bin expt` -> `expt`).
fn targets_after<'a>(line: &'a str, flag: &'a str) -> impl Iterator<Item = &'a str> {
    line.match_indices(flag).map(move |(at, _)| {
        let rest = line[at + flag.len()..].trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
            .unwrap_or(rest.len());
        &rest[..end]
    })
}

#[test]
fn every_documented_bench_target_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let bins: BTreeSet<String> = std::fs::read_dir(root.join("crates/bench/src/bin"))
        .expect("list crates/bench/src/bin")
        .map(|e| e.expect("directory entry").file_name().to_string_lossy().into_owned())
        .map(|name| name.trim_end_matches(".rs").to_string())
        .collect();

    let mut named = 0usize;
    let mut stale = Vec::new();
    for doc in DOCUMENTS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        // A shell continuation keeps one command on one logical line.
        for line in text.replace("\\\n", " ").lines() {
            let bin_targets =
                targets_after(line, "--bin ").filter(|_| line.contains("-p dsi-bench"));
            for target in bin_targets.chain(targets_after(line, "--bench ")) {
                named += 1;
                if !bins.contains(target) {
                    stale.push(format!("{doc}: `{target}` in `{}`", line.trim()));
                }
            }
        }
    }
    assert!(named > 0, "the scan found no documented dsi-bench command at all");
    assert!(stale.is_empty(), "no such target under crates/bench/src/bin:\n{}", stale.join("\n"));
}
