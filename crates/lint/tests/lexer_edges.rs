//! Edge cases for the scrubbing lexer and the per-file model built on
//! it: nested generics, raw identifiers, macro bodies whose *literals*
//! look unbalanced, and `#[cfg(test)]` boundary detection. These are the
//! token shapes most likely to silently desynchronize a text-based
//! linter from the real token stream.

use dsi_lint::callgraph::Graph;
use dsi_lint::lexer::scrub;
use dsi_lint::SourceFile;

// ------------------------------------------------------- nested generics

#[test]
fn nested_generics_survive_scrubbing() {
    // `>>` must not be eaten by the char-literal/lifetime logic, however
    // deep the nesting goes.
    let s = scrub("fn f(v: Vec<Vec<Vec<u8>>>) -> Option<Box<Vec<Vec<u8>>>> { g(v) }");
    assert!(s.code[0].contains("Vec<Vec<Vec<u8>>>"), "{}", s.code[0]);
    assert!(s.code[0].contains("Option<Box<Vec<Vec<u8>>>>"), "{}", s.code[0]);
    assert!(s.comments.is_empty());
}

#[test]
fn nested_generic_impls_resolve_in_the_call_graph() {
    // impl-type extraction strips the generic arguments however nested:
    // `impl Index<Vec<Vec<u8>>>` still files its methods under `Index`.
    let f = SourceFile::parse(
        "crates/core/src/x.rs",
        "struct Index<T> { v: T }\n\
         impl Index<Vec<Vec<u8>>> {\n    fn get(&self) -> usize { 0 }\n}\n",
    );
    let g = Graph::build(&[f]);
    assert!(
        g.fns.iter().any(|d| d.qual.as_deref() == Some("Index") && d.name == "get"),
        "{:?}",
        g.fns.iter().map(|d| d.label()).collect::<Vec<_>>()
    );
}

// -------------------------------------------------------- raw identifiers

#[test]
fn raw_identifiers_are_not_raw_strings() {
    // `r#type` / `r#match`: the `r#` prefix is a raw *identifier*, not an
    // unterminated raw string — everything after it must stay visible.
    let s = scrub("fn r#type(r#match: u32) -> u32 { r#match + 1 }\nlet live = 2;");
    assert!(s.code[0].contains("r#type"), "{}", s.code[0]);
    assert!(s.code[0].contains("r#match + 1"), "{}", s.code[0]);
    assert!(s.code[1].contains("let live = 2;"), "lexer swallowed the next line");
}

#[test]
fn raw_identifier_then_real_raw_string_both_lex() {
    let src = "let r#loop = r#\"thread_rng inside\"#; let after = 1;";
    let s = scrub(src);
    assert!(s.code[0].contains("r#loop"), "{}", s.code[0]);
    assert!(!s.code[0].contains("thread_rng"), "raw string not blanked: {}", s.code[0]);
    assert!(s.code[0].contains("let after = 1;"), "{}", s.code[0]);
}

// ------------------------------------------------ unbalanced-looking macros

#[test]
fn macro_strings_with_unbalanced_braces_do_not_desync_lines() {
    // The literal contents look wildly unbalanced; scrubbing must blank
    // them so brace-matching (test regions, fn spans) stays correct.
    let src = "fn f() {\n    \
         println!(\"}} }} )) {{\");\n    \
         write!(w, \"{{ ( [\")?;\n    \
         assert_eq!(c, ')');\n}\n\
         fn g() { h(); }\n";
    let f = SourceFile::parse("crates/core/src/x.rs", src);
    // Both fns must be found with correct spans despite the literals.
    let g = Graph::build(&[f]);
    let spans: Vec<_> = g.fns.iter().map(|d| (d.name.clone(), d.sig_line, d.body_end)).collect();
    assert!(spans.contains(&("f".to_string(), 1, 5)), "{spans:?}");
    assert!(spans.contains(&("g".to_string(), 6, 6)), "{spans:?}");
}

// ----------------------------------------------------- cfg(test) boundaries

#[test]
fn cfg_test_region_tracks_nested_braces() {
    let f = SourceFile::parse(
        "x.rs",
        "fn live() {}\n\
         #[cfg(test)]\n\
         mod tests {\n\
             mod inner {\n\
                 fn deep() { if true { nested(); } }\n\
             }\n\
             fn t() {}\n\
         }\n\
         fn after() {}\n",
    );
    assert!(!f.in_test_region(1));
    for line in 2..=8 {
        assert!(f.in_test_region(line), "line {line} should be in the test region");
    }
    assert!(!f.in_test_region(9), "region leaked past the closing brace");
}

#[test]
fn cfg_test_region_is_not_fooled_by_brace_literals() {
    let f = SourceFile::parse(
        "x.rs",
        "#[cfg(test)]\n\
         mod tests {\n\
             const CLOSE: &str = \"}\";\n\
             fn t() {}\n\
         }\n\
         fn live() {}\n",
    );
    assert!(f.in_test_region(4), "literal `}}` ended the region early");
    assert!(!f.in_test_region(6));
}

#[test]
fn cfg_test_attribute_in_a_string_is_not_a_region() {
    let f = SourceFile::parse("x.rs", "fn f() {\n    let s = \"#[cfg(test)]\";\n    g();\n}\n");
    assert!((1..=4).all(|l| !f.in_test_region(l)), "{:?}", f.test_regions);
}
