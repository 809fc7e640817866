//! The seven determinism / invariant rules.
//!
//! Every rule is a pure function from a [`SourceFile`] (plus the shared
//! [`Context`]) to violations. Rules are deliberately *textual* — this is a
//! tidy-style gate, not a type checker — so each one documents its
//! heuristics and every rule honors `// dsilint: allow(<rule>, <reason>)`
//! markers (applied later by the engine, so fixtures can test raw hits).
//! A01 additionally consults the workspace call graph built in pass 1 (see
//! [`crate::callgraph`]).

use crate::callgraph::Graph;
use crate::source::SourceFile;

/// Slugs, used in allow markers and reports.
pub const A01: &str = "hot-path-alloc";
pub const D01: &str = "unordered-iter";
pub const D02: &str = "wall-clock-and-entropy";
pub const R01: &str = "hot-path-unwrap";
pub const S01: &str = "single-send-site";
pub const X01: &str = "class-table";
pub const X02: &str = "oracle-table-sync";

/// All rule slugs, in report order (sorted by rule id).
pub const ALL_RULES: [&str; 7] = [A01, D01, D02, R01, S01, X01, X02];

/// `(rule id, slug)` pairs in report order.
pub const RULE_IDS: [(&str, &str); 7] = [
    ("A01", A01),
    ("D01", D01),
    ("D02", D02),
    ("R01", R01),
    ("S01", S01),
    ("X01", X01),
    ("X02", X02),
];

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

/// Workspace-level facts shared by rules: the `MsgClass` and `OracleId`
/// tables, the call graph, and the A01 hot set.
#[derive(Debug, Clone, Default)]
pub struct Context {
    /// Variant names of `pub enum MsgClass`, in declaration order.
    pub msg_class_variants: Vec<String>,
    /// File the enum was found in.
    pub msg_class_file: Option<String>,
    /// Variant names of `pub enum OracleId`, in declaration order.
    pub oracle_variants: Vec<String>,
    /// File the oracle enum was found in.
    pub oracle_file: Option<String>,
    /// Oracle count advertised by DESIGN.md's machine-readable marker
    /// (`<!-- dsilint: oracle-count = N -->`), when the engine found one.
    pub design_oracle_count: Option<usize>,
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
    /// Pass 1: scan `files` for the enum tables and build the call graph
    /// plus the A01 hot set.
    pub fn build(files: &[SourceFile]) -> Context {
        let mut ctx = Context::default();
        for f in files {
            if ctx.msg_class_file.is_none() {
                if let Some(vars) = parse_enum_variants(f, "MsgClass") {
                    ctx.msg_class_variants = vars;
                    ctx.msg_class_file = Some(f.path.clone());
                }
            }
            if ctx.oracle_file.is_none() {
                if let Some(vars) = parse_enum_variants(f, "OracleId") {
                    ctx.oracle_variants = vars;
                    ctx.oracle_file = Some(f.path.clone());
                }
            }
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
    out.extend(wall_clock_and_entropy(f));
    out.extend(hot_path_unwrap(f));
    out.extend(single_send_site(f));
    out.extend(class_table(ctx, f));
    out.extend(oracle_table_sync(ctx, f));
    out
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
const D01_CRATES: [&str; 5] =
    ["crates/core/", "crates/chord/", "crates/simnet/", "crates/hierarchy/", "crates/trace/"];

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

// ----------------------------------------------------------------------
// D02 — wall-clock-and-entropy
// ----------------------------------------------------------------------

/// **D02** — ambient time / randomness outside `crates/bench`: simulation
/// code must take time from `SimTime` and randomness from seeded RNGs, or
/// replay breaks.
pub fn wall_clock_and_entropy(f: &SourceFile) -> Vec<Violation> {
    if f.path.starts_with("crates/bench/") {
        return Vec::new();
    }
    const TOKENS: [&str; 5] =
        ["Instant::now", "SystemTime::now", "thread_rng", "rand::random", "from_entropy"];
    let mut out = Vec::new();
    for (idx, line) in f.code.iter().enumerate() {
        for t in TOKENS {
            if line.contains(t) {
                out.push(Violation {
                    rule: D02,
                    file: f.path.clone(),
                    line: idx + 1,
                    message: format!(
                        "`{t}` is nondeterministic under replay; use SimTime / a seeded RNG, \
                         move it to crates/bench, or justify with \
                         `// dsilint: allow({D02}, <reason>)`"
                    ),
                    excerpt: f.raw.get(idx).map(|l| l.trim().to_string()).unwrap_or_default(),
                });
            }
        }
    }
    out
}

// ----------------------------------------------------------------------
// R01 — hot-path-unwrap
// ----------------------------------------------------------------------

/// Files on the per-message hot path.
const R01_FILES: [&str; 10] = [
    "chord/src/router.rs",
    "chord/src/multicast.rs",
    "simnet/src/engine.rs",
    "core/src/reliability.rs",
    "core/src/load.rs",
    "core/src/store.rs",
    "core/src/sortable.rs",
    "core/src/aggregate.rs",
    "sketch/src/eh.rs",
    "sketch/src/ecm.rs",
];

/// **R01** — `unwrap()` / `expect(` on the routing / engine hot path:
/// every one is a latent crash on a malformed overlay state, so each must
/// carry an allow marker naming the invariant that makes it unreachable.
/// `#[cfg(test)]` modules are exempt.
pub fn hot_path_unwrap(f: &SourceFile) -> Vec<Violation> {
    if !R01_FILES.iter().any(|p| f.path.ends_with(p)) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in f.code.iter().enumerate() {
        if f.in_test_region(idx + 1) {
            continue;
        }
        for probe in [".unwrap()", ".expect("] {
            let mut from = 0usize;
            while let Some(p) = line[from..].find(probe) {
                out.push(Violation {
                    rule: R01,
                    file: f.path.clone(),
                    line: idx + 1,
                    message: format!(
                        "`{}` on the routing hot path; name the invariant that makes it \
                         unreachable with `// dsilint: allow({R01}, <reason>)` or handle the None/Err",
                        probe.trim_end_matches('(')
                    ),
                    excerpt: f.raw.get(idx).map(|l| l.trim().to_string()).unwrap_or_default(),
                });
                from += p + probe.len();
            }
        }
    }
    out
}

// ----------------------------------------------------------------------
// S01 — single-send-site
// ----------------------------------------------------------------------

/// The one file of `crates/core` allowed to bill and trace overlay
/// messages: the `Cluster` send seam.
const SEND_SEAM: &str = "crates/core/src/cluster/send.rs";

/// The calls that bill an overlay message to `Metrics` or record it in the
/// causal trace.
const S01_TOKENS: [&str; 7] = [
    ".record_message(",
    ".record_hops(",
    ".record_route(",
    "tracer.single(",
    "tracer.route(",
    "trace_into(",
    "trace_tree_into(",
];

/// **S01** — inside `crates/core`, overlay messages are billed and traced
/// only in the send seam (`cluster/send.rs`). The seam judges a message
/// once, charges it once and emits its paired trace record, so the two
/// contracts the dynamic oracles check — `audit(trace) == Metrics` and
/// charge-once-at-send (DESIGN §12) — hold by construction for every
/// sender that goes through it; this rule keeps senders from going around
/// it. `#[cfg(test)]` modules are exempt.
pub fn single_send_site(f: &SourceFile) -> Vec<Violation> {
    if !f.path.starts_with("crates/core/") || f.path == SEND_SEAM {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in f.code.iter().enumerate() {
        if f.in_test_region(idx + 1) {
            continue;
        }
        for t in S01_TOKENS.iter().filter(|t| line.contains(**t)) {
            out.push(Violation {
                rule: S01,
                file: f.path.clone(),
                line: idx + 1,
                message: format!(
                    "`{}` outside the send seam — messages are judged, charged and traced \
                     only in {SEND_SEAM} (DESIGN §12); send through \
                     send_hop/send_routed/send_range or justify with \
                     `// dsilint: allow({S01}, <reason>)`",
                    t.trim_start_matches('.').trim_end_matches('(')
                ),
                excerpt: f.raw.get(idx).map(|l| l.trim().to_string()).unwrap_or_default(),
            });
        }
    }
    out
}

// ----------------------------------------------------------------------
// X01 — class-table
// ----------------------------------------------------------------------

/// **X01** — the `MsgClass` table must stay in sync everywhere: the
/// `NUM_CLASSES` constant and every `[MsgClass; N]` array length must
/// equal the variant count, and every `match` with `MsgClass::…` patterns
/// must name every variant itself — a `_` wildcard arm silently swallows
/// newly added classes and defeats the compiler's exhaustiveness aid.
pub fn class_table(ctx: &Context, f: &SourceFile) -> Vec<Violation> {
    // Fixture files carry their own enum; the live workspace shares the one
    // from crates/simnet.
    enum_table_sync(
        f,
        X01,
        "MsgClass",
        "NUM_CLASSES",
        &ctx.msg_class_variants,
        ctx.msg_class_file.as_deref(),
    )
}

/// Shared X01/X02 machinery: audit a `NUM_*` constant, `[Enum; N]` array
/// lengths, and `match` exhaustiveness (wildcard arms rejected) against
/// the variant count of `enum_name`. A local enum definition in `f` takes
/// precedence over the workspace one (fixtures carry their own).
fn enum_table_sync(
    f: &SourceFile,
    rule: &'static str,
    enum_name: &str,
    const_name: &str,
    ctx_variants: &[String],
    ctx_file: Option<&str>,
) -> Vec<Violation> {
    let (variants, local) = match parse_enum_variants(f, enum_name) {
        Some(v) => (v, true),
        None => (ctx_variants.to_vec(), false),
    };
    if variants.is_empty() {
        return Vec::new();
    }
    let n = variants.len();
    let mut out = Vec::new();
    let mut push = |line: usize, message: String| {
        out.push(Violation {
            rule,
            file: f.path.clone(),
            line,
            message,
            excerpt: f.raw.get(line - 1).map(|l| l.trim().to_string()).unwrap_or_default(),
        });
    };

    let const_needle = format!("{const_name}: usize =");
    let array_needle = format!("[{enum_name};");
    let pat_needle = format!("{enum_name}::");
    for (idx, line) in f.code.iter().enumerate() {
        // `NUM_*: usize = k` (only meaningful next to the enum).
        if local || ctx_file == Some(f.path.as_str()) {
            if let Some(p) = line.find(&const_needle) {
                let val = line[p + const_needle.len()..]
                    .trim()
                    .trim_end_matches(';')
                    .parse::<usize>()
                    .ok();
                if val != Some(n) {
                    push(
                        idx + 1,
                        format!(
                            "{const_name} is {} but `enum {enum_name}` has {n} variants",
                            val.map_or("unparsable".to_string(), |v| v.to_string())
                        ),
                    );
                }
            }
        }
        // `[Enum; k]` array lengths. Spelling the length as the audited
        // `NUM_*` const is always in sync by construction and preferred.
        let mut from = 0usize;
        while let Some(p) = line[from..].find(&array_needle) {
            let start = from + p + array_needle.len();
            let rest = line[start..].trim_start();
            if rest.starts_with(const_name) {
                from = start;
                continue;
            }
            let len: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            if len.parse::<usize>().ok() != Some(n) {
                push(idx + 1, format!("`[{enum_name}; {len}]` out of sync with {n} variants"));
            }
            from = start;
        }
    }

    // Matches with Enum:: patterns.
    for m in find_matches(f) {
        let mut named: Vec<String> = Vec::new();
        let mut wildcard: Option<usize> = None;
        let mut relevant = false;
        for line_no in m.0..=m.1 {
            let line = &f.code[line_no - 1];
            let t = line.trim_start();
            if t.starts_with(&pat_needle) && line.contains("=>") {
                relevant = true;
                // Collect every variant named in the pattern part of the
                // arm (left of `=>`; covers `A | B =>`).
                let pat_end = line.find("=>").unwrap_or(line.len());
                let pat = &line[..pat_end];
                let mut from = 0usize;
                while let Some(p) = pat[from..].find(&pat_needle) {
                    let vstart = from + p + pat_needle.len();
                    let name: String =
                        pat[vstart..].chars().take_while(|&c| is_ident_char(c)).collect();
                    // Unknown names are the compiler's problem, not ours.
                    if variants.contains(&name) && !named.contains(&name) {
                        named.push(name);
                    }
                    from = vstart;
                }
            }
            if (t.starts_with("_ =>") || t.starts_with("_ if ")) && relevant && wildcard.is_none() {
                wildcard = Some(line_no);
            }
        }
        if !relevant {
            continue;
        }
        if let Some(w) = wildcard {
            push(
                w,
                format!(
                    "wildcard `_` arm in a `{enum_name}` match silently swallows future \
                     variants; name every one instead"
                ),
            );
        } else if named.len() != n {
            push(
                m.0,
                format!(
                    "`{enum_name}` match covers {} of {n} variants; the table drifted",
                    named.len()
                ),
            );
        }
    }
    out
}

// ----------------------------------------------------------------------
// X02 — oracle-table-sync
// ----------------------------------------------------------------------

/// **X02** — the faultsim oracle registry must stay in sync everywhere:
/// `NUM_ORACLES`, every `[OracleId; N]` array length and every `match`
/// with `OracleId::` patterns must agree with the enum's variant count
/// (wildcard arms rejected, same shape as X01) — and the oracle count
/// DESIGN.md advertises via its machine-readable marker
/// (`<!-- dsilint: oracle-count = N -->`) must match too, so the docs
/// cannot drift from the harness.
pub fn oracle_table_sync(ctx: &Context, f: &SourceFile) -> Vec<Violation> {
    let mut out = enum_table_sync(
        f,
        X02,
        "OracleId",
        "NUM_ORACLES",
        &ctx.oracle_variants,
        ctx.oracle_file.as_deref(),
    );
    // The DESIGN.md count is checked once, anchored at the enum definition.
    if let (Some(design), Some(vars)) =
        (ctx.design_oracle_count, parse_enum_variants(f, "OracleId").filter(|v| !v.is_empty()))
    {
        if design != vars.len() {
            let line =
                f.code.iter().position(|l| l.contains("enum OracleId")).map(|i| i + 1).unwrap_or(1);
            out.push(Violation {
                rule: X02,
                file: f.path.clone(),
                line,
                message: format!(
                    "DESIGN.md advertises {design} oracles (`dsilint: oracle-count`) but \
                     `enum OracleId` has {} variants; update the doc marker or the registry",
                    vars.len()
                ),
                excerpt: f.raw.get(line - 1).map(|l| l.trim().to_string()).unwrap_or_default(),
            });
        }
    }
    out
}

/// `(start_line, end_line)` 1-based inclusive spans of every `match` body.
fn find_matches(f: &SourceFile) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let joined = f.code.join("\n");
    let bytes = joined.as_bytes();
    let line_of = |pos: usize| joined[..pos].matches('\n').count() + 1;
    let mut from = 0usize;
    while let Some(p) = joined[from..].find("match ") {
        let kw = from + p;
        from = kw + 6;
        if kw > 0 && is_ident_char(bytes[kw - 1] as char) {
            continue; // part of an identifier
        }
        // Scan to the `{` opening the match body (at relative depth 0).
        let mut depth = 0i32;
        let mut body_open = None;
        for (off, c) in joined[kw..].char_indices() {
            match c {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                '{' if depth == 0 => {
                    body_open = Some(kw + off);
                    break;
                }
                '{' => depth += 1,
                '}' => depth -= 1,
                ';' if depth == 0 => break, // not a match expression after all
                _ => {}
            }
        }
        let Some(open) = body_open else { continue };
        // Find the matching close brace.
        let mut bd = 0i32;
        let mut close = None;
        for (off, c) in joined[open..].char_indices() {
            match c {
                '{' => bd += 1,
                '}' => {
                    bd -= 1;
                    if bd == 0 {
                        close = Some(open + off);
                        break;
                    }
                }
                _ => {}
            }
        }
        if let Some(close) = close {
            out.push((line_of(open), line_of(close)));
        }
    }
    out
}

/// Variant names of `pub enum <name>` in this file, if defined here.
/// Handles the simple C-like shape the class table uses (one variant per
/// line, optional trailing comma, doc comments already scrubbed).
fn parse_enum_variants(f: &SourceFile, name: &str) -> Option<Vec<String>> {
    let needle = format!("enum {name}");
    let start = f.code.iter().position(|l| {
        l.contains(&needle)
            && l[l.find(&needle).unwrap() + needle.len()..]
                .trim_start()
                .starts_with(['{', '<'].as_ref())
            || l.trim_end().ends_with(&needle)
    })?;
    let mut variants = Vec::new();
    let mut depth = 0i32;
    for line in f.code.iter().skip(start) {
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(variants);
                    }
                }
                _ => {}
            }
        }
        if depth == 1 {
            let t = line.trim();
            let ident: String = t.chars().take_while(|&c| is_ident_char(c)).collect();
            if !ident.is_empty()
                && ident.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                && (t.len() == ident.len() || t[ident.len()..].starts_with([',', '(', ' ', '{']))
                && !t.contains("enum ")
            {
                variants.push(ident);
            }
        }
    }
    None
}
