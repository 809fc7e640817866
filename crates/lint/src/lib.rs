//! `dsi-lint` — a tidy-style, dependency-free determinism & invariant
//! linter for the dsindex workspace.
//!
//! The repo's whole test strategy (golden-report byte-identity, trace
//! digests, bit-identical parallel ingest, `audit(trace) == Metrics`)
//! rests on source-level invariants that no unit test can see being
//! eroded: unordered `HashMap` iteration feeding routed state, ambient
//! wall-clock or entropy in simulation crates, a message billed or traced
//! outside the send seam. This crate checks them statically on every
//! commit, in the spirit of rust-lang/rust's `tidy`.
//!
//! Layers:
//! * [`lexer`] — scrubbing lexer: blanks comments/literals, keeps lines;
//! * [`source`] — per-file model: allow markers, test regions, statement
//!   windows;
//! * [`callgraph`] — nominal workspace call graph + reachability (the v2
//!   multi-pass substrate);
//! * [`rules`] — the seven rules (A01, D01, D02, R01, S01, X01, X02);
//! * [`engine`] — workspace walk, two-pass run, reports, `--fix-markers`.

pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod source;

pub use engine::{lint_files, lint_files_with, parse_workspace, run, Outcome};
pub use rules::{Context, Violation};
pub use source::SourceFile;
