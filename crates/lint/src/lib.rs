//! `dsi-lint` — a tidy-style, dependency-free determinism & invariant
//! linter for the dsindex workspace.
//!
//! The repo's whole test strategy (golden-report byte-identity, trace
//! digests, bit-identical parallel ingest, the zero-alloc ingest contract)
//! rests on source-level invariants that no unit test can see being
//! eroded. rustc and clippy enforce the ones that types can state (wall
//! clocks, hot-path panics, hash-order iteration, the send seam, the class
//! and oracle tables; DESIGN.md §11). This crate checks the one that needs
//! the call graph — no allocation on the ingest hot path — in the spirit
//! of rust-lang/rust's `tidy`.
//!
//! Layers:
//! * [`lexer`] — scrubbing lexer: blanks comments/literals, keeps lines;
//! * [`source`] — per-file model: allow markers, test regions;
//! * [`callgraph`] — nominal workspace call graph + reachability (the v2
//!   multi-pass substrate);
//! * [`rules`] — the rule (A01 hot-path-alloc), the unknown-marker check
//!   and the scope check;
//! * [`engine`] — workspace walk, two-pass run, reports, `--fix-markers`.

pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod source;

pub use engine::{lint_files, parse_workspace, run, Outcome};
pub use rules::{Context, Violation};
pub use source::SourceFile;
