//! Workspace call graph extracted from the scrubbed-token model.
//!
//! This is the nominal, tidy-style graph rule A01 walks: it
//! knows `fn` definitions, which `impl` block each lives in, and the call
//! sites inside each body — all recovered textually from scrubbed code,
//! with no type information. Resolution is therefore an
//! *over-approximation* (DESIGN.md §16):
//!
//! * `Type::name(…)` resolves to every `fn name` inside an `impl Type`
//!   (any trait) anywhere in the graph crates;
//! * `.name(…)` method calls resolve to every `fn name` inside *any*
//!   `impl` — the receiver's type is unknown, so same-named methods on
//!   unrelated types are all considered reachable;
//! * bare `name(…)` resolves to every free `fn name` plus same-`impl`
//!   methods (covering `Self`-less internal calls).
//!
//! Over-approximation errs on the side of flagging: a function is never
//! silently missing from a reachability set, but name collisions can pull
//! unrelated code in. The escape hatch is a function-level
//! `// dsilint: allow(hot-path-alloc, <reason>)` marker on the `fn` line
//! (directly above it, below any attributes): it marks a *cold boundary* —
//! the function is excluded from the hot set, its body is not scanned, and
//! traversal does not continue through it.

use crate::source::SourceFile;

/// Crates whose functions participate in the graph: the shipped runtime
/// path. Benches, the fault harness, stream generators and the linter
/// itself never run inside the ingest hot path, and including them only
/// adds name-collision noise to the nominal resolution.
pub(crate) const GRAPH_CRATES: [&str; 6] = [
    "crates/core/",
    "crates/chord/",
    "crates/simnet/",
    "crates/dsp/",
    "crates/sketch/",
    "crates/trace/",
];

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// 1-based line of the opening parenthesis.
    pub line: usize,
    /// `Type` of a `Type::name(…)` path call (`Self` resolved by the
    /// walker), `None` for free and method calls.
    pub qual: Option<String>,
    /// Called name.
    pub name: String,
    /// `.name(…)` receiver call.
    pub method: bool,
}

/// One `fn` definition with a body.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Enclosing `impl` type, if any (`impl Trait for Type` records `Type`).
    pub qual: Option<String>,
    /// Bare function name.
    pub name: String,
    /// 1-based line of the `fn` keyword (allow markers anchor here).
    pub sig_line: usize,
    /// 1-based line of the body's closing `}`.
    pub body_end: usize,
    /// Call sites in the body.
    pub calls: Vec<Call>,
}

impl FnDef {
    /// `Type::name` or bare `name`, for messages.
    pub fn label(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// All function definitions in the graph crates.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    pub fns: Vec<FnDef>,
}

/// One member of a reachability set.
#[derive(Debug, Clone)]
pub struct Reached {
    /// Index into [`Graph::fns`].
    pub fn_idx: usize,
    /// Witness call chain from an entry point, `a::b → c::d → …`.
    pub via: String,
}

impl Graph {
    /// Extract every `fn` definition (with its call sites) from the graph
    /// crates. Test regions, `tests/` directories and non-runtime crates
    /// are excluded.
    pub fn build(files: &[SourceFile]) -> Graph {
        let mut fns = Vec::new();
        for f in files {
            let in_scope =
                GRAPH_CRATES.iter().any(|c| f.path.starts_with(c)) || f.path.starts_with("src/");
            if !in_scope || f.path.contains("/tests/") || f.path.starts_with("tests/") {
                continue;
            }
            extract(f, &mut fns);
        }
        fns.sort_by(|a, b| (a.file.as_str(), a.sig_line).cmp(&(b.file.as_str(), b.sig_line)));
        Graph { fns }
    }

    /// BFS reachability from `entries` (`(impl type, fn name)` pairs).
    /// `cold` marks boundary functions: they are neither scanned nor
    /// traversed through. Deterministic order (file, line).
    pub fn reachable(
        &self,
        entries: &[(&str, &str)],
        cold: &dyn Fn(&FnDef) -> bool,
    ) -> Vec<Reached> {
        let mut via: Vec<Option<String>> = vec![None; self.fns.len()];
        let mut queue: Vec<usize> = Vec::new();
        for (i, fd) in self.fns.iter().enumerate() {
            let is_entry =
                entries.iter().any(|(q, n)| fd.qual.as_deref() == Some(*q) && fd.name == *n);
            if is_entry && !cold(fd) {
                via[i] = Some(fd.label());
                queue.push(i);
            }
        }
        let mut head = 0usize;
        while head < queue.len() {
            let cur = queue[head];
            head += 1;
            let caller_qual = self.fns[cur].qual.clone();
            let caller_via = via[cur].clone().unwrap_or_default();
            for call in self.fns[cur].calls.clone() {
                let want_qual = match call.qual.as_deref() {
                    Some("Self") => caller_qual.clone(),
                    Some(q) => Some(q.to_string()),
                    None => None,
                };
                for (i, fd) in self.fns.iter().enumerate() {
                    if via[i].is_some() || fd.name != call.name {
                        continue;
                    }
                    let hit = if call.method {
                        fd.qual.is_some()
                    } else if call.qual.is_some() {
                        fd.qual == want_qual
                    } else {
                        fd.qual.is_none() || fd.qual == caller_qual
                    };
                    if !hit || cold(fd) {
                        continue;
                    }
                    via[i] = Some(format!("{caller_via} → {}", fd.label()));
                    queue.push(i);
                }
            }
        }
        let mut out: Vec<Reached> = via
            .into_iter()
            .enumerate()
            .filter_map(|(fn_idx, v)| v.map(|via| Reached { fn_idx, via }))
            .collect();
        out.sort_by_key(|r| (self.fns[r.fn_idx].file.clone(), self.fns[r.fn_idx].sig_line));
        out
    }
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Extract `fn` definitions from one scrubbed file into `out`.
fn extract(f: &SourceFile, out: &mut Vec<FnDef>) {
    let joined = f.code.join("\n");
    let bytes = joined.as_bytes();
    // Byte offset of each line start, for offset → line mapping.
    let mut line_starts = vec![0usize];
    for (i, b) in bytes.iter().enumerate() {
        if *b == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let line_of = |off: usize| line_starts.partition_point(|&s| s <= off);

    let impls = impl_spans(&joined);

    let mut from = 0usize;
    while let Some(p) = joined[from..].find("fn ") {
        let kw = from + p;
        from = kw + 3;
        if kw > 0 && is_ident_char(bytes[kw - 1]) {
            continue; // part of an identifier
        }
        let mut i = kw + 3;
        while i < bytes.len() && bytes[i] == b' ' {
            i += 1;
        }
        if joined[i..].starts_with("r#") {
            i += 2;
        }
        let name_start = i;
        while i < bytes.len() && is_ident_char(bytes[i]) {
            i += 1;
        }
        if i == name_start {
            continue; // `fn` not followed by a name (fn-pointer type etc.)
        }
        let name = joined[name_start..i].to_string();
        // Scan to the body-opening `{` (or a `;` for bodyless trait decls)
        // at paren/bracket depth 0.
        let mut depth = 0i32;
        let mut open = None;
        for (off, c) in joined[i..].char_indices() {
            match c {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                '{' if depth == 0 => {
                    open = Some(i + off);
                    break;
                }
                ';' if depth == 0 => break,
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let Some(close) = matching_brace(&joined, open) else { continue };
        let sig_line = line_of(kw);
        if f.in_test_region(sig_line) {
            continue;
        }
        let qual = impls
            .iter()
            .filter(|(_, s, e)| *s < kw && kw < *e)
            .max_by_key(|(_, s, _)| *s)
            .map(|(q, _, _)| q.clone());
        out.push(FnDef {
            file: f.path.clone(),
            qual,
            name,
            sig_line,
            body_end: line_of(close),
            calls: extract_calls(&joined, open, close, &line_of),
        });
    }
}

/// `(type, body_open_offset, body_close_offset)` for every `impl` block.
fn impl_spans(joined: &str) -> Vec<(String, usize, usize)> {
    let bytes = joined.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(p) = joined[from..].find("impl") {
        let kw = from + p;
        from = kw + 4;
        if kw > 0 && is_ident_char(bytes[kw - 1]) {
            continue;
        }
        let after = bytes.get(kw + 4).copied().unwrap_or(b' ');
        if after != b' ' && after != b'<' && after != b'\n' {
            continue; // `impl_detail` etc.
        }
        // Header runs to the first `{` at paren/bracket depth 0.
        let mut depth = 0i32;
        let mut open = None;
        for (off, c) in joined[kw..].char_indices().skip(4) {
            match c {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                '{' if depth == 0 => {
                    open = Some(kw + off);
                    break;
                }
                ';' if depth == 0 => break,
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let Some(close) = matching_brace(joined, open) else { continue };
        let header = &joined[kw + 4..open];
        if let Some(ty) = impl_type(header) {
            out.push((ty, open, close));
        }
    }
    out
}

/// The nominal self type of an `impl` header (generics stripped,
/// `impl Trait for Type` → `Type`, last path segment).
fn impl_type(header: &str) -> Option<String> {
    let mut rest = header.trim_start();
    // Strip the generic parameter list of `impl<…>`.
    if rest.starts_with('<') {
        let mut depth = 0i32;
        let mut end = None;
        for (off, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(off + 1);
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = &rest[end?..];
    }
    // `impl Trait for Type` — the self type is after the last ` for `.
    let ty_text = match rest.find(" for ") {
        Some(p) => &rest[p + 5..],
        None => rest,
    };
    let ty_text = ty_text.trim_start();
    // Drop a `where` clause, take the last `::` segment, strip generics.
    let ty_text = ty_text.split(" where").next().unwrap_or(ty_text).trim();
    let seg = ty_text.rsplit("::").next().unwrap_or(ty_text);
    let name: String =
        seg.trim_start().chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    (!name.is_empty()).then_some(name)
}

/// Matching `}` offset for the `{` at `open`.
fn matching_brace(joined: &str, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (off, c) in joined[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + off);
                }
            }
            _ => {}
        }
    }
    None
}

/// Call sites between body offsets `open..close`.
fn extract_calls(
    joined: &str,
    open: usize,
    close: usize,
    line_of: &dyn Fn(usize) -> usize,
) -> Vec<Call> {
    const KEYWORDS: [&str; 7] = ["if", "for", "while", "match", "loop", "return", "in"];
    let bytes = joined.as_bytes();
    let mut out = Vec::new();
    for paren in open..close {
        if bytes[paren] != b'(' {
            continue;
        }
        let mut s = paren;
        while s > open && is_ident_char(bytes[s - 1]) {
            s -= 1;
        }
        if s == paren {
            continue; // no ident directly before `(` (macros end in `!`)
        }
        let name = &joined[s..paren];
        if KEYWORDS.contains(&name) || name.as_bytes()[0].is_ascii_digit() {
            continue;
        }
        let before = &joined[..s];
        let (qual, method) = if before.ends_with("..") {
            (None, false) // range expression, not a method call
        } else if before.ends_with('.') {
            (None, true)
        } else if before.ends_with("::") {
            let q_end = s - 2;
            let mut q_start = q_end;
            while q_start > 0 && is_ident_char(bytes[q_start - 1]) {
                q_start -= 1;
            }
            if q_start == q_end {
                (None, false) // `<T as Trait>::…` and friends: unresolved
            } else {
                (Some(joined[q_start..q_end].to_string()), false)
            }
        } else {
            (None, false)
        };
        // Tuple-struct and enum-variant constructors are capitalized and
        // never allocate by themselves; skip unqualified ones.
        if qual.is_none() && !method && name.as_bytes()[0].is_ascii_uppercase() {
            continue;
        }
        out.push(Call { line: line_of(paren), qual, name: name.to_string(), method });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(src: &str) -> Graph {
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        Graph::build(&[f])
    }

    #[test]
    fn fns_get_their_impl_qualifier() {
        let g = graph(
            "impl Cluster {\n    pub fn post_value(&mut self) { self.step(); }\n    fn step(&mut self) {}\n}\npub fn free() {}\n",
        );
        let labels: Vec<String> = g.fns.iter().map(FnDef::label).collect();
        assert_eq!(labels, vec!["Cluster::post_value", "Cluster::step", "free"]);
    }

    #[test]
    fn trait_impls_record_the_self_type() {
        let g = graph("impl Clone for Grid {\n    fn clone(&self) -> Grid { Grid }\n}\n");
        assert_eq!(g.fns[0].qual.as_deref(), Some("Grid"));
    }

    #[test]
    fn generic_impls_strip_parameters() {
        let g = graph("impl<T: Ord> Store<T> {\n    fn get(&self) {}\n}\n");
        assert_eq!(g.fns[0].qual.as_deref(), Some("Store"));
    }

    #[test]
    fn method_calls_reach_any_impl_of_that_name() {
        let g = graph(
            "impl Cluster {\n    pub fn post_value(&mut self) { self.sketch.update(1); }\n}\nimpl Sketch {\n    fn update(&mut self, v: u64) { grow(); }\n}\nfn grow() {}\n",
        );
        let hot = g.reachable(&[("Cluster", "post_value")], &|_| false);
        let labels: Vec<String> = hot.iter().map(|r| g.fns[r.fn_idx].label()).collect();
        assert_eq!(labels, vec!["Cluster::post_value", "Sketch::update", "grow"]);
        assert!(hot[2].via.contains("Sketch::update → grow"), "{}", hot[2].via);
    }

    #[test]
    fn cold_boundary_stops_traversal() {
        let g = graph(
            "impl Cluster {\n    pub fn post_value(&mut self) { self.emit(); }\n    fn emit(&mut self) { helper(); }\n}\nfn helper() {}\n",
        );
        let hot = g.reachable(&[("Cluster", "post_value")], &|fd| fd.name == "emit");
        let labels: Vec<String> = hot.iter().map(|r| g.fns[r.fn_idx].label()).collect();
        assert_eq!(labels, vec!["Cluster::post_value"]);
    }

    #[test]
    fn test_regions_and_macros_are_not_graph_nodes() {
        let g = graph("fn live() { ready!(now); }\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n");
        assert_eq!(g.fns.len(), 1);
        assert!(g.fns[0].calls.is_empty(), "macro invocation is not a call: {:?}", g.fns[0].calls);
    }
}
