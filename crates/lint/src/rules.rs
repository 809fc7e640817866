//! The call-graph rule the compiler cannot state.
//!
//! A rule is a pure function from a [`SourceFile`] (plus the shared
//! [`Context`]) to violations. It is deliberately *textual* — this is a
//! tidy-style gate, not a type checker — so it documents its heuristics
//! and honors `// dsilint: allow(<rule>, <reason>)` markers (applied later
//! by the engine, so fixtures can test raw hits). A01 consults the
//! workspace call graph built in pass 1 (see [`crate::callgraph`]). The
//! workspace's other source contracts (wall clocks, hot-path panics, hash
//! order, the send seam, the class and oracle tables) are enforced by
//! rustc and clippy (DESIGN.md §11).

use crate::callgraph::Graph;
use crate::source::SourceFile;

/// Slugs, used in allow markers and reports.
pub const A01: &str = "hot-path-alloc";

/// All rule slugs, in report order (sorted by rule id).
pub const ALL_RULES: [&str; 1] = [A01];

/// `(rule id, slug)` pairs in report order.
pub const RULE_IDS: [(&str, &str); 1] = [("A01", A01)];

/// Pseudo-rule of a marker that names no rule in [`ALL_RULES`]: it
/// suppresses nothing, so it is reported (and cannot itself be allowed).
pub const UNKNOWN_MARKER: &str = "unknown-marker";

/// Pseudo-rule of a workspace run whose gate lost scope: a crate prefix
/// of the call graph that matches no walked file, or an A01 root
/// that resolves to no function. Like an unknown marker it is reported and
/// cannot be allowed.
pub const STALE_SCOPE: &str = "stale-scope";

/// One rule hit (before allow-marker filtering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule slug.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// Trimmed raw source of the offending line.
    pub excerpt: String,
}

/// One function in the A01 hot set: reachable from a zero-alloc entry
/// point, with the witness call chain that got it there.
#[derive(Debug, Clone)]
pub struct HotFn {
    /// Defining file (workspace-relative).
    pub file: String,
    /// `Type::name` label for messages.
    pub label: String,
    /// 1-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 1-based line of the body's closing `}`.
    pub body_end: usize,
    /// Witness chain from an entry point (`a::b → c::d → …`).
    pub via: String,
}

/// Workspace-level facts shared by rules: the call graph and the A01 hot
/// set.
#[derive(Debug, Clone, Default)]
pub struct Context {
    /// Workspace call graph over the runtime crates.
    pub graph: Graph,
    /// Functions reachable from the zero-alloc entry points, cold
    /// boundaries already excluded.
    pub hot_fns: Vec<HotFn>,
}

/// Scope check of a workspace run (fixture sets skip it: they walk one
/// file on purpose). Each stale entry is reported at its line in the list
/// that names it, so deleting or renaming a crate or an entry point cannot
/// narrow the gate without a word.
pub(crate) fn stale_scope(ctx: &Context, files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut flag = |list_file: &str, needle: String, message: String| {
        let at = files
            .iter()
            .find(|f| f.path == list_file)
            .and_then(|f| f.raw.iter().position(|l| l.contains(&needle)).map(|i| (f, i)));
        out.push(Violation {
            rule: STALE_SCOPE,
            file: list_file.to_string(),
            line: at.map_or(0, |(_, i)| i + 1),
            message,
            excerpt: at.map(|(f, i)| f.raw[i].trim().to_string()).unwrap_or_default(),
        });
    };
    for p in crate::callgraph::GRAPH_CRATES {
        if !files.iter().any(|f| f.path.starts_with(p)) {
            flag(
                "crates/lint/src/callgraph.rs",
                format!("\"{p}\""),
                format!("GRAPH_CRATES prefix `{p}` matches no walked file"),
            );
        }
    }
    for (q, n) in A01_ENTRIES {
        if !ctx.graph.fns.iter().any(|fd| fd.qual.as_deref() == Some(q) && fd.name == n) {
            flag(
                "crates/lint/src/rules.rs",
                format!("(\"{q}\", \"{n}\")"),
                format!("A01 root `{q}::{n}` resolves to no function"),
            );
        }
    }
    out
}

/// A01 reachability roots: the zero-alloc contract's entry points
/// (DESIGN.md §14) — the per-value ingest call, the batch wrappers, and
/// the inline aggregate replica update.
const A01_ENTRIES: [(&str, &str); 4] = [
    ("Cluster", "post_value"),
    ("Cluster", "ingest_batch"),
    ("Cluster", "ingest_batch_into"),
    ("Cluster", "update_aggregates"),
];

impl Context {
    /// Pass 1: build the call graph and the A01 hot set.
    pub fn build(files: &[SourceFile]) -> Context {
        let mut ctx = Context { graph: Graph::build(files), ..Context::default() };
        // A function-level allow(A01) marker on the `fn` line is a cold
        // boundary: not scanned, not traversed through.
        let cold = |fd: &crate::callgraph::FnDef| {
            files
                .iter()
                .find(|f| f.path == fd.file)
                .is_some_and(|f| f.allow_reason(A01, fd.sig_line).is_some())
        };
        ctx.hot_fns = ctx
            .graph
            .reachable(&A01_ENTRIES, &cold)
            .into_iter()
            .map(|r| {
                let fd = &ctx.graph.fns[r.fn_idx];
                HotFn {
                    file: fd.file.clone(),
                    label: fd.label(),
                    sig_line: fd.sig_line,
                    body_end: fd.body_end,
                    via: r.via,
                }
            })
            .collect();
        ctx
    }
}

/// Run every rule on one file.
pub fn run_all(ctx: &Context, f: &SourceFile) -> Vec<Violation> {
    hot_path_alloc(ctx, f)
}

/// Markers in `f` whose slug names no rule in [`ALL_RULES`] — left behind
/// when a rule moved to the compiler or was misspelled.
pub fn unknown_markers(f: &SourceFile) -> Vec<Violation> {
    f.markers
        .iter()
        .filter(|m| !ALL_RULES.contains(&m.rule.as_str()))
        .map(|m| Violation {
            rule: UNKNOWN_MARKER,
            file: f.path.clone(),
            line: m.applies_to,
            message: format!(
                "`dsilint: allow({}, …)` names no dsilint rule (known: {}); delete the marker",
                m.rule,
                ALL_RULES.join(", ")
            ),
            excerpt: f.raw.get(m.applies_to - 1).map(|l| l.trim().to_string()).unwrap_or_default(),
        })
        .collect()
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

// ----------------------------------------------------------------------
// A01 — hot-path-alloc
// ----------------------------------------------------------------------

/// Allocating constructs forbidden in the hot set. Tokens that start with
/// an identifier character are matched at word boundaries.
const A01_TOKENS: [&str; 9] = [
    "Vec::new(",
    "vec![",
    "with_capacity(",
    ".collect",
    ".clone()",
    ".to_vec()",
    ".to_string()",
    "format!(",
    "Box::new(",
];

/// **A01** — allocating constructs in any function reachable from the
/// zero-alloc entry points (`Cluster::post_value`, `Cluster::ingest_batch`
/// and friends, `Cluster::update_aggregates`): the static mirror of
/// `core/tests/zero_alloc.rs`, which would have caught the derived-`Clone`
/// `ExpHistogram` capacity bug before the counting allocator did.
/// Reachability is nominal and over-approximate ([`crate::callgraph`]);
/// setup/cold branches escape with a statement-level
/// `// dsilint: allow(hot-path-alloc, <reason>)`, and a whole function is
/// excluded (a *cold boundary*) when the marker sits on its `fn` line.
pub fn hot_path_alloc(ctx: &Context, f: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut seen: Vec<(usize, usize)> = Vec::new(); // (line idx, token offset)
    for h in ctx.hot_fns.iter().filter(|h| h.file == f.path) {
        for idx in (h.sig_line - 1)..h.body_end.min(f.code.len()) {
            let line = &f.code[idx];
            for t in A01_TOKENS {
                let mut from = 0usize;
                while let Some(p) = line[from..].find(t) {
                    let pos = from + p;
                    from = pos + t.len();
                    let bounded = !t.starts_with(is_ident_char)
                        || pos == 0
                        || !is_ident_char(line.as_bytes()[pos - 1] as char);
                    if !bounded || seen.contains(&(idx, pos)) {
                        continue;
                    }
                    seen.push((idx, pos));
                    out.push(Violation {
                        rule: A01,
                        file: f.path.clone(),
                        line: idx + 1,
                        message: format!(
                            "allocating `{}` in `{}` (hot via {}); the zero-alloc ingest \
                             contract (DESIGN §14) forbids steady-state allocation — reuse a \
                             scratch buffer, hoist to setup, or justify with \
                             `// dsilint: allow({A01}, <reason>)` (on the `fn` line to mark a \
                             cold boundary)",
                            t.trim_end_matches(['(', '[']),
                            h.label,
                            h.via
                        ),
                        excerpt: f.raw.get(idx).map(|l| l.trim().to_string()).unwrap_or_default(),
                    });
                }
            }
        }
    }
    out
}
