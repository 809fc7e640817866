//! Parsed view of one `.rs` file: scrubbed code, allow markers and test
//! regions.

use crate::lexer::{scrub, Scrubbed};

/// One `// dsilint: allow(<rule>, <reason>)` marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Marker {
    /// 1-based code line the marker applies to (its own line for trailing
    /// markers, the next non-blank code line for standalone comment lines).
    pub applies_to: usize,
    /// Rule slug, e.g. `hot-path-alloc`.
    pub rule: String,
    /// Free-text justification. Required; a reason containing `TODO` does
    /// not suppress (scaffolding from `--fix-markers` must be finished).
    pub reason: String,
}

/// A `.rs` file ready for linting.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Raw source lines (for excerpts and `--fix-markers`).
    pub raw: Vec<String>,
    /// Scrubbed lines (comment/literal contents blanked).
    pub code: Vec<String>,
    /// Parsed allow markers.
    pub markers: Vec<Marker>,
    /// `(start, end)` 1-based inclusive line ranges of `#[cfg(test)]`
    /// module bodies.
    pub test_regions: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Parses `content` as the file at workspace-relative `path`.
    pub fn parse(path: &str, content: &str) -> SourceFile {
        let Scrubbed { code, comments } = scrub(content);
        let raw: Vec<String> = content.split('\n').map(str::to_string).collect();
        let markers = parse_markers(&code, &comments);
        let test_regions = find_test_regions(&code);
        SourceFile { path: path.replace('\\', "/"), raw, code, markers, test_regions }
    }

    /// Whether 1-based `line` lies inside a `#[cfg(test)]` module.
    pub fn in_test_region(&self, line: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| s <= line && line <= e)
    }

    /// The marker reason suppressing `rule` at `line`, if any (markers with
    /// `TODO` reasons never suppress).
    pub fn allow_reason(&self, rule: &str, line: usize) -> Option<&str> {
        self.markers
            .iter()
            .find(|m| m.applies_to == line && m.rule == rule && !m.reason.contains("TODO"))
            .map(|m| m.reason.as_str())
    }
}

/// Parse `dsilint: allow(rule, reason)` out of the comments that open
/// with it (a doc comment or prose that merely mentions the syntax is not a
/// marker) and resolve which code line each applies to.
fn parse_markers(code: &[String], comments: &[(usize, String)]) -> Vec<Marker> {
    let mut out = Vec::new();
    for (line, text) in comments {
        let Some(rest) = text.trim_start().strip_prefix("dsilint:") else { continue };
        let rest = rest.trim_start();
        let Some(args) = rest.strip_prefix("allow(").and_then(|r| r.find(')').map(|e| &r[..e]))
        else {
            continue;
        };
        let (rule, reason) = match args.split_once(',') {
            Some((r, why)) => (r.trim().to_string(), why.trim().to_string()),
            None => (args.trim().to_string(), String::new()),
        };
        if rule.is_empty() || reason.is_empty() {
            // Reason-less markers never suppress: the rule still fires,
            // which is exactly the pressure that makes someone write one.
            continue;
        }
        // Trailing marker: code on the same line. Standalone comment line:
        // applies to the next line carrying code.
        let own = code.get(line - 1).map(|l| !l.trim().is_empty()).unwrap_or(false);
        let applies_to = if own {
            *line
        } else {
            (*line + 1..=code.len()).find(|&l| !code[l - 1].trim().is_empty()).unwrap_or(*line)
        };
        out.push(Marker { applies_to, rule, reason });
    }
    out
}

/// Locate `#[cfg(test)] mod …` bodies by brace matching on scrubbed code.
fn find_test_regions(code: &[String]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if code[i].trim_start().starts_with("#[cfg(test)") {
            // Find the opening brace of the item that follows.
            let mut depth: i32 = 0;
            let mut opened = false;
            let start = i + 1; // 1-based line of the attribute
            'scan: for (j, line) in code.iter().enumerate().skip(i) {
                for c in line.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth -= 1;
                            if opened && depth == 0 {
                                out.push((start, j + 1));
                                i = j;
                                break 'scan;
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_and_standalone_markers_resolve() {
        let f = SourceFile::parse(
            "x.rs",
            "let a = m.values(); // dsilint: allow(hot-path-alloc, summed)\n\
             // dsilint: allow(hot-path-alloc, setup only)\n\
             let b = v.clone();\n",
        );
        assert_eq!(f.allow_reason("hot-path-alloc", 1), Some("summed"));
        assert_eq!(f.allow_reason("hot-path-alloc", 3), Some("setup only"));
        assert_eq!(f.allow_reason("hot-path-alloc", 2), None);
    }

    #[test]
    fn doc_comments_mentioning_the_syntax_are_not_markers() {
        let f = SourceFile::parse(
            "x.rs",
            "/// Write `// dsilint: allow(rule, reason)` above it.\nfn f() {}\n\
             // see dsilint: allow(hot-path-alloc, prose)\nfn g() {}\n",
        );
        assert!(f.markers.is_empty(), "{:?}", f.markers);
    }

    #[test]
    fn todo_reasons_do_not_suppress() {
        let f = SourceFile::parse(
            "x.rs",
            "let a = m.values(); // dsilint: allow(hot-path-alloc, TODO: justify)\n",
        );
        assert_eq!(f.allow_reason("hot-path-alloc", 1), None);
    }

    #[test]
    fn reasonless_markers_do_not_suppress() {
        let f = SourceFile::parse("x.rs", "m.values(); // dsilint: allow(hot-path-alloc)\n");
        assert_eq!(f.allow_reason("hot-path-alloc", 1), None);
    }

    #[test]
    fn test_regions_cover_mod_bodies() {
        let f = SourceFile::parse(
            "x.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n",
        );
        assert!(!f.in_test_region(1));
        assert!(f.in_test_region(3));
        assert!(f.in_test_region(4));
        assert!(f.in_test_region(5));
        assert!(!f.in_test_region(6));
    }
}
