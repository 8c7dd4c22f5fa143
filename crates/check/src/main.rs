//! `cellstream-check` — the workspace lint gate.
//!
//! ```text
//! cargo run -p cellstream-check -- [--deny] [--json PATH] [--root PATH]
//! ```
//!
//! Walks `<root>/crates/*/src` and `<root>/src`, applies the per-file
//! repo rules to each file there and the workspace-wide `unused-pub`
//! pass over every file that can name their items (see
//! `cellstream_check::lint::rules`), prints findings as
//! `file:line: [rule] message`, optionally writes a JSON report, and —
//! under `--deny` — exits non-zero when anything fired.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut json: Option<PathBuf> = None;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--json" => match args.next() {
                Some(p) => json = Some(PathBuf::from(p)),
                None => return usage("--json needs a path"),
            },
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage("--root needs a path"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    let report = match cellstream_check::lint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cellstream-check: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    for f in &report.findings {
        println!("{f}");
    }
    println!(
        "cellstream-check: {} file(s) scanned, {} finding(s)",
        report.files_scanned,
        report.findings.len()
    );
    if let Some(path) = json {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("cellstream-check: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if deny && !report.findings.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("cellstream-check: {err}");
    eprintln!("usage: cellstream-check [--deny] [--json PATH] [--root PATH]");
    ExitCode::from(2)
}
