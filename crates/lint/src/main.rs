//! `dsi-lint` CLI.
//!
//! ```text
//! cargo run -p dsi-lint -- --check                      # CI gate
//! cargo run -p dsi-lint -- --report results/lint_report.json
//! cargo run -p dsi-lint -- --fix-markers                # insert TODO markers
//! ```
//!
//! Exit codes: 0 clean, 1 violations under `--check`, 2 usage / IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use dsi_lint::engine;

struct Opts {
    root: PathBuf,
    check: bool,
    fix_markers: bool,
    report: Option<PathBuf>,
}

fn usage() -> &'static str {
    "dsi-lint: determinism & invariant linter\n\
     \n\
     USAGE: dsi-lint [--root DIR] [--check] [--fix-markers] [--report FILE]\n\
     \n\
       --root DIR       workspace root (default: .)\n\
       --check          CI mode: exit 1 on unannotated violations\n\
       --fix-markers    insert `// dsilint: allow(<rule>, TODO: justify)`\n\
                        scaffolding above each violation (TODO reasons\n\
                        do not suppress — finish them by hand)\n\
       --report FILE    write a JSON violation report to FILE\n"
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts { root: PathBuf::from("."), check: false, fix_markers: false, report: None };
    let mut i = 0usize;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--root" => o.root = PathBuf::from(value(&mut i, "--root")?),
            "--check" => o.check = true,
            "--fix-markers" => o.fix_markers = true,
            "--report" => o.report = Some(PathBuf::from(value(&mut i, "--report")?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("dsi-lint: {msg}\n");
            }
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };

    let outcome = engine::run(&opts.root);
    print!("{}", engine::render_text(&outcome));

    if let Some(path) = &opts.report {
        let full = if path.is_absolute() { path.clone() } else { opts.root.join(path) };
        if let Err(e) = std::fs::write(&full, engine::render_json(&outcome)) {
            eprintln!("dsi-lint: cannot write report {}: {e}", full.display());
            return ExitCode::from(2);
        }
    }

    if opts.fix_markers {
        let edits = engine::fix_markers(&opts.root, &outcome);
        for (path, content) in &edits {
            if let Err(e) = std::fs::write(path, content) {
                eprintln!("dsi-lint: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        println!(
            "dsi-lint: scaffolded TODO markers in {} file(s) — fill in real reasons; \
             TODO reasons do not suppress",
            edits.len()
        );
    }

    if opts.check && !outcome.violations.is_empty() {
        eprintln!("dsi-lint: FAILED — {} unannotated violation(s)", outcome.violations.len());
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
