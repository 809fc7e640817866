//! The driver: walk the workspace, parse every `.rs` file, run the rules
//! in two passes (pass 1 builds the shared call-graph context, pass 2 runs
//! the rules), then apply allow markers and reject unknown ones.

use std::fs;
use std::path::{Path, PathBuf};

use crate::rules::{self, Context, Violation};
use crate::source::SourceFile;

/// Directories walked relative to the workspace root.
const WALK_ROOTS: [&str; 3] = ["src", "crates", "tests"];

/// Path fragments that are never linted. The lint crate's own fixtures
/// contain intentional violations; vendored shims and build output are not
/// ours to police.
const EXCLUDED: [&str; 3] = ["vendor/", "target/", "crates/lint/tests/fixtures"];

/// Everything one lint run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Violations not suppressed by a marker.
    pub violations: Vec<Violation>,
    /// Violations suppressed by an allow marker.
    pub allowed: Vec<(Violation, String)>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Shared context from pass 1 (exposed for the self-test).
    pub context: Context,
}

/// Workspace-relative `.rs` files to lint, deterministically ordered.
pub fn collect_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for dir in WALK_ROOTS {
        let base = root.join(dir);
        if base.is_dir() {
            walk(root, &base, &mut out);
        }
    }
    out.sort();
    out
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        // Judged relative to the root: a checkout under some `…/target/`
        // directory must still be walked.
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let unix = rel.to_string_lossy().replace('\\', "/");
        if EXCLUDED.iter().any(|x| unix.contains(x)) {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Parse all lintable files under `root`.
pub fn parse_workspace(root: &Path) -> Vec<SourceFile> {
    collect_files(root)
        .iter()
        .filter_map(|p| {
            let rel = p.strip_prefix(root).unwrap_or(p).to_string_lossy().replace('\\', "/");
            fs::read_to_string(p).ok().map(|src| SourceFile::parse(&rel, &src))
        })
        .collect()
}

/// Run the full lint over `root`, scope check included.
pub fn run(root: &Path) -> Outcome {
    let files = parse_workspace(root);
    let mut out = lint_files(&files);
    out.violations.extend(rules::stale_scope(&out.context, &files));
    out.violations.sort_by_key(report_key);
    out
}

/// Deterministic report order: file, line, rule.
fn report_key(v: &Violation) -> (String, usize, &'static str) {
    (v.file.clone(), v.line, v.rule)
}

/// Core two-pass lint over already-parsed files (fixture tests enter here).
pub fn lint_files(files: &[SourceFile]) -> Outcome {
    let context = Context::build(files);
    let mut out =
        Outcome { files_scanned: files.len(), context: context.clone(), ..Default::default() };
    for f in files {
        for v in rules::run_all(&context, f) {
            if let Some(reason) = f.allow_reason(v.rule, v.line) {
                out.allowed.push((v, reason.to_string()));
            } else {
                out.violations.push(v);
            }
        }
        out.violations.extend(rules::unknown_markers(f));
    }
    out.violations.sort_by_key(report_key);
    out.allowed.sort_by_key(|(v, _)| report_key(v));
    out
}

/// Per-rule violation counts in fixed rule-id order, so two runs over the
/// same tree render byte-identical reports.
fn rule_counts(outcome: &Outcome) -> Vec<(&'static str, &'static str, usize)> {
    rules::RULE_IDS
        .iter()
        .map(|&(id, slug)| (id, slug, outcome.violations.iter().filter(|v| v.rule == slug).count()))
        .collect()
}

/// Human-readable report, one line per violation, then per-rule counts.
pub fn render_text(outcome: &Outcome) -> String {
    let mut out = String::new();
    for v in &outcome.violations {
        out.push_str(&format!("{}:{}: [{}] {}\n", v.file, v.line, v.rule, v.message));
    }
    for (id, slug, count) in rule_counts(outcome) {
        out.push_str(&format!("  {id} {slug}: {count}\n"));
    }
    out.push_str(&format!(
        "dsilint: {} file(s), {} violation(s), {} allowed\n",
        outcome.files_scanned,
        outcome.violations.len(),
        outcome.allowed.len()
    ));
    out
}

/// Machine-readable report (uploaded as a CI artifact on failure).
pub fn render_json(outcome: &Outcome) -> String {
    let mut out = String::from("{\n  \"violations\": [");
    for (i, v) in outcome.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{ \"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"excerpt\": {} }}",
            json_str(v.rule),
            json_str(&v.file),
            v.line,
            json_str(&v.message),
            json_str(&v.excerpt),
        ));
    }
    if !outcome.violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"by_rule\": {");
    for (i, (id, slug, count)) in rule_counts(outcome).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {}: {count}", json_str(&format!("{id} {slug}"))));
    }
    out.push_str(&format!(
        "\n  }},\n  \"files_scanned\": {},\n  \"allowed\": {}\n}}\n",
        outcome.files_scanned,
        outcome.allowed.len()
    ));
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `--fix-markers` scaffolding: insert a standalone
/// `// dsilint: allow(<rule>, TODO: justify)` comment above every
/// unsuppressed violation. The `TODO` reason deliberately does **not**
/// suppress the rule — the scaffold marks where a human must write the
/// real justification. An unknown marker or a stale scope entry gets no
/// scaffold: the fix is to delete it.
///
/// Returns `(path, new_content)` pairs; the caller decides whether to
/// write them.
pub fn fix_markers(root: &Path, outcome: &Outcome) -> Vec<(PathBuf, String)> {
    let mut by_file: Vec<(&str, Vec<&Violation>)> = Vec::new();
    let markable = |v: &&Violation| v.rule != rules::UNKNOWN_MARKER && v.rule != rules::STALE_SCOPE;
    for v in outcome.violations.iter().filter(markable) {
        match by_file.iter_mut().find(|(f, _)| *f == v.file) {
            Some((_, vs)) => vs.push(v),
            None => by_file.push((&v.file, vec![v])),
        }
    }
    let mut out = Vec::new();
    for (file, mut vs) in by_file {
        let path = root.join(file);
        let Ok(src) = fs::read_to_string(&path) else { continue };
        let mut lines: Vec<String> = src.split('\n').map(str::to_string).collect();
        // Insert bottom-up so earlier insertions don't shift later lines.
        vs.sort_by_key(|v| std::cmp::Reverse(v.line));
        for v in vs {
            if v.line == 0 || v.line > lines.len() {
                continue;
            }
            let indent: String =
                lines[v.line - 1].chars().take_while(|c| *c == ' ' || *c == '\t').collect();
            lines.insert(
                v.line - 1,
                format!("{indent}// dsilint: allow({}, TODO: justify)", v.rule),
            );
        }
        out.push((path, lines.join("\n")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::A01;

    /// One A01 hit: a `vec![…]` on line 4, inside the `post_value` root.
    const HOT_ALLOC: &str = "pub struct Cluster;\nimpl Cluster {\n    \
                             pub fn post_value(&mut self) {\n        eat(vec![1u64]);\n    }\n}\n";

    #[test]
    fn lint_files_applies_markers() {
        let bad = SourceFile::parse("crates/core/src/x.rs", HOT_ALLOC);
        let marked = HOT_ALLOC.replace(
            "        eat",
            "        // dsilint: allow(hot-path-alloc, setup)\n        eat",
        );
        let allowed = SourceFile::parse("crates/core/src/y.rs", &marked);
        let out = lint_files(&[bad, allowed]);
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].rule, A01);
        assert_eq!(out.violations[0].file, "crates/core/src/x.rs");
        assert_eq!(out.allowed.len(), 1);
    }

    #[test]
    fn report_counts_per_rule_in_id_order() {
        let f = SourceFile::parse("crates/core/src/x.rs", &format!("{HOT_ALLOC}{HOT_ALLOC}"));
        let out = lint_files(&[f]);
        let text = render_text(&out);
        assert!(text.contains("  A01 hot-path-alloc: 2"), "{text}");
        // Fixed ordering, no map nondeterminism: the report walks RULE_IDS,
        // which lists exactly ALL_RULES, sorted by rule id.
        let slugs: Vec<&str> = rules::RULE_IDS.iter().map(|&(_, slug)| slug).collect();
        assert_eq!(slugs, rules::ALL_RULES);
        assert!(rules::RULE_IDS.windows(2).all(|w| w[0].0 < w[1].0), "rule ids must ascend");
        let at: Vec<usize> = rules::RULE_IDS
            .iter()
            .map(|&(id, slug)| text.find(&format!("  {id} {slug}: ")).expect(id))
            .collect();
        assert!(at.windows(2).all(|w| w[0] < w[1]), "{text}");
        let json = render_json(&out);
        assert!(json.contains("\"A01 hot-path-alloc\": 2"), "{json}");
    }

    #[test]
    fn report_renders_deterministically() {
        let f = SourceFile::parse("crates/core/src/x.rs", &format!("{HOT_ALLOC}{HOT_ALLOC}"));
        let out = lint_files(&[f]);
        let text = render_text(&out);
        let json = render_json(&out);
        assert!(text.contains("crates/core/src/x.rs:4"));
        assert!(json.contains("\"files_scanned\": 1"));
        // Sorted by line.
        let l1 = text.find(":4:").unwrap();
        let l2 = text.find(":10:").unwrap();
        assert!(l1 < l2);
    }
}
