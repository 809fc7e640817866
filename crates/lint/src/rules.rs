//! The two call-graph and determinism rules the compiler cannot state.
//!
//! Every rule is a pure function from a [`SourceFile`] (plus the shared
//! [`Context`]) to violations. Rules are deliberately *textual* — this is a
//! tidy-style gate, not a type checker — so each one documents its
//! heuristics and every rule honors `// dsilint: allow(<rule>, <reason>)`
//! markers (applied later by the engine, so fixtures can test raw hits).
//! A01 additionally consults the workspace call graph built in pass 1 (see
//! [`crate::callgraph`]). The workspace's other source contracts (wall
//! clocks, hot-path panics, the send seam, the class and oracle tables)
//! are enforced by rustc and clippy (DESIGN.md §11).

use crate::callgraph::Graph;
use crate::source::SourceFile;

/// Slugs, used in allow markers and reports.
pub const A01: &str = "hot-path-alloc";
pub const D01: &str = "unordered-iter";

/// All rule slugs, in report order (sorted by rule id).
pub const ALL_RULES: [&str; 2] = [A01, D01];

/// `(rule id, slug)` pairs in report order.
pub const RULE_IDS: [(&str, &str); 2] = [("A01", A01), ("D01", D01)];

/// Pseudo-rule of a marker that names no rule in [`ALL_RULES`]: it
/// suppresses nothing, so it is reported (and cannot itself be allowed).
pub const UNKNOWN_MARKER: &str = "unknown-marker";

/// Pseudo-rule of a workspace run whose gate lost scope: a crate prefix
/// of the call graph or of D01 that matches no walked file, or an A01 root
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
    /// `(module directory, hash-container names its mod.rs declares)`: a
    /// type split across a module's files keeps its fields visible to D01
    /// in every one of them.
    pub module_hash_names: Vec<(String, Vec<String>)>,
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
    let lists = [
        ("GRAPH_CRATES", "crates/lint/src/callgraph.rs", &crate::callgraph::GRAPH_CRATES[..]),
        ("D01_CRATES", "crates/lint/src/rules.rs", &D01_CRATES[..]),
    ];
    for (list, list_file, prefixes) in lists {
        for p in prefixes {
            if !files.iter().any(|f| f.path.starts_with(p)) {
                flag(
                    list_file,
                    format!("\"{p}\""),
                    format!("{list} prefix `{p}` matches no walked file"),
                );
            }
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
    /// Pass 1: build the call graph, the A01 hot set and the per-module
    /// hash-container names.
    pub fn build(files: &[SourceFile]) -> Context {
        let mut ctx = Context::default();
        for f in files {
            if let Some(dir) = f.path.strip_suffix("mod.rs") {
                ctx.module_hash_names.push((dir.to_string(), hash_container_names(f)));
            }
        }
        ctx.graph = Graph::build(files);
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
    let mut out = Vec::new();
    out.extend(hot_path_alloc(ctx, f));
    out.extend(unordered_iter(ctx, f));
    out
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

/// The identifier ending at byte offset `end` (exclusive) of `line`, if any.
fn ident_ending_at(line: &str, end: usize) -> Option<&str> {
    let bytes = line.as_bytes();
    let mut start = end;
    while start > 0 && is_ident_char(bytes[start - 1] as char) {
        start -= 1;
    }
    (start < end).then(|| &line[start..end])
}

/// Walk back from the `.` of a method call to the *base identifier* of the
/// receiver: skips one trailing `[…]` index, refuses call results `(…)`
/// (unknown type). `self.queries.iter()` → `queries`;
/// `self.membership[0].keys()` → `membership`; `foo().iter()` → `None`.
fn receiver_base(line: &str, dot: usize) -> Option<&str> {
    let bytes = line.as_bytes();
    let mut i = dot;
    if i > 0 && bytes[i - 1] == b']' {
        // Skip the balanced […] suffix.
        let mut depth = 0i32;
        while i > 0 {
            i -= 1;
            match bytes[i] {
                b']' => depth += 1,
                b'[' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    if i > 0 && bytes[i - 1] == b')' {
        return None; // method-call result: receiver type unknown
    }
    ident_ending_at(line, i)
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

// ----------------------------------------------------------------------
// D01 — unordered-iter
// ----------------------------------------------------------------------

/// Crates whose routed / emitted state must not depend on hash order.
const D01_CRATES: [&str; 4] = ["crates/core/", "crates/chord/", "crates/simnet/", "crates/trace/"];

/// Iteration methods whose order is the hasher's.
const ITER_METHODS: [&str; 8] = [
    ".keys()",
    ".values()",
    ".values_mut()",
    ".iter()",
    ".iter_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

/// **D01** — iteration over a `HashMap` / `HashSet` in the deterministic
/// crates, unless the surrounding statement window sorts the result (or
/// collects into a `BTree*`).
///
/// Receivers are recognized *nominally*: the file — and the `mod.rs` of
/// the module it belongs to — is scanned for names declared with a type
/// mentioning `HashMap`/`HashSet` (struct fields, `let` bindings,
/// parameters) or initialized from `HashMap::…` / `HashSet::…`, and
/// iteration calls / `for … in` loops over those names are flagged.
/// Closure-bound aliases of map contents are not tracked — the self-test
/// and reviewers cover that gap (documented in DESIGN §11).
pub fn unordered_iter(ctx: &Context, f: &SourceFile) -> Vec<Violation> {
    if !D01_CRATES.iter().any(|c| f.path.starts_with(c)) {
        return Vec::new();
    }
    let mut names = hash_container_names(f);
    for (dir, declared) in &ctx.module_hash_names {
        if f.path.starts_with(dir.as_str()) {
            declared.iter().for_each(|n| push_unique(&mut names, n));
        }
    }
    if names.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in f.code.iter().enumerate() {
        let mut hits: Vec<(usize, String)> = Vec::new();
        // Method-style iteration: name.values() / name.drain(..) …
        for m in ITER_METHODS.iter().copied().chain([".drain("]) {
            let probe = &m[..m.len() - 1]; // match without the final ) so
                                           // `.drain(..)` also hits
            let mut from = 0usize;
            while let Some(p) = line[from..].find(probe) {
                let dot = from + p;
                let base = receiver_base(line, dot).map(str::to_string).or_else(|| {
                    // Multi-line chain: `.iter()` at line start — the
                    // receiver is the trailing identifier of the previous
                    // non-blank line (`self\n  .queries\n  .iter()`).
                    if !line[..dot].trim().is_empty() {
                        return None;
                    }
                    let prev = f.code[..idx].iter().rev().find(|l| !l.trim().is_empty())?;
                    let prev = prev.trim_end();
                    ident_ending_at(prev, prev.len()).map(str::to_string)
                });
                if let Some(base) = base {
                    if names.contains(&base) {
                        hits.push((dot, format!("`{base}{probe}…`")));
                    }
                }
                from = dot + probe.len();
            }
        }
        // Loop-style iteration: for … in &name { / for … in self.name {
        if let Some(pos) = find_for_in(line) {
            let mut expr = line[pos..].trim_start();
            expr = expr.strip_prefix("&mut ").unwrap_or(expr);
            expr = expr.strip_prefix('&').unwrap_or(expr);
            expr = expr.strip_prefix("self.").unwrap_or(expr);
            let base: String = expr.chars().take_while(|&c| is_ident_char(c)).collect();
            if names.contains(&base) {
                let after = &expr[base.len()..];
                // Direct loop over the container only (not `map[i]`,
                // `map.get(..)`, `map.len()` …) — field access and calls
                // have their own matchers above.
                if after.trim_start().starts_with('{') || after.trim().is_empty() {
                    hits.push((pos, format!("`for … in {base}`")));
                }
            }
        }
        if hits.is_empty() {
            continue;
        }
        let window = f.statement_window(idx);
        if window.contains("sort") || window.contains("BTree") {
            continue; // deterministically reordered in the same window
        }
        for (_, what) in hits {
            out.push(Violation {
                rule: D01,
                file: f.path.clone(),
                line: idx + 1,
                message: format!(
                    "{what} iterates a HashMap/HashSet in hash order; sort the result in the \
                     same statement window or justify with `// dsilint: allow({D01}, <reason>)`"
                ),
                excerpt: f.raw.get(idx).map(|l| l.trim().to_string()).unwrap_or_default(),
            });
        }
    }
    out
}

/// Byte offset just past `" in "` of a `for … in ` header on this line.
fn find_for_in(line: &str) -> Option<usize> {
    let f = line.find("for ")?;
    // `for` must be a word (start of line or preceded by non-ident).
    if f > 0 && is_ident_char(line.as_bytes()[f - 1] as char) {
        return None;
    }
    let rest = &line[f..];
    let in_pos = rest.find(" in ")?;
    Some(f + in_pos + 4)
}

/// Names in this file declared as (or initialized from) hash containers.
fn hash_container_names(f: &SourceFile) -> Vec<String> {
    let mut names = Vec::new();
    for line in &f.code {
        // `name: …HashMap…` / `name: …HashSet…` (field, param, let).
        let mut from = 0usize;
        while let Some(p) = line[from..].find(':') {
            let colon = from + p;
            from = colon + 1;
            if line[colon..].starts_with("::") {
                from = colon + 2;
                continue;
            }
            if colon > 0 && line.as_bytes()[colon - 1] == b':' {
                continue; // second colon of a path
            }
            let ty_end =
                line[colon + 1..].find([';', '=']).map(|e| colon + 1 + e).unwrap_or(line.len());
            let ty = &line[colon + 1..ty_end];
            if ty.contains("HashMap") || ty.contains("HashSet") {
                if let Some(name) = ident_ending_at(line, colon) {
                    push_unique(&mut names, name);
                }
            }
        }
        // `let name = HashMap::new()` style.
        for ctor in ["HashMap::", "HashSet::"] {
            if let Some(p) = line.find(ctor) {
                let lhs = &line[..p];
                if let Some(eq) = lhs.rfind('=') {
                    let lhs = lhs[..eq].trim_end();
                    if let Some(name) = ident_ending_at(lhs, lhs.len()) {
                        if lhs.trim_start().starts_with("let") || lhs.contains("let ") {
                            push_unique(&mut names, name);
                        }
                    }
                }
            }
        }
    }
    names
}

fn push_unique(names: &mut Vec<String>, name: &str) {
    if name != "Self" && !names.iter().any(|n| n == name) {
        names.push(name.to_string());
    }
}
