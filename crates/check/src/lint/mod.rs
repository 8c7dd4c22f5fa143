//! The workspace lint engine: walk the library sources (`crates/*/src`
//! and the facade crate's `src/`), lex each file ([`source`]), apply the
//! per-file repo rules ([`rules`]) to each, run the workspace pass
//! ([`rules::unused_pub`]) over every file that can name a library item,
//! and report findings with `file:line` + rule id, optionally as
//! machine-readable JSON.

pub mod rules;
pub mod source;

use source::SourceFile;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule id (see [`rules`]).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// The result of one lint run.
#[derive(Debug)]
pub struct Report {
    /// The workspace root scanned.
    pub root: String,
    /// Number of `.rs` files lexed.
    pub files_scanned: usize,
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
}

impl Report {
    /// Render the report as a small JSON document (hand-rolled — the
    /// tool itself must stay dependency-free).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"root\": \"{}\",\n", esc(&self.root)));
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
                esc(&f.file),
                f.line,
                esc(&f.rule),
                esc(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The directories whose `.rs` files can name a library item; the
/// `unused-pub` pass reads them all (`vendor/` is not one).
const REFERENCE_ROOTS: &[&str] = &["crates", "src", "tests", "examples", "benchmark/src"];

/// Lint the workspace at `root`: the per-file rules over every `.rs`
/// file under `crates/*/src` and `src/`, the `unused-pub` pass over
/// every file under `crates/`, `src/`, `tests/`, `examples/` and
/// `benchmark/src`.
pub fn run(root: &Path) -> io::Result<Report> {
    let mut paths = Vec::new();
    for dir in REFERENCE_ROOTS {
        collect_rs(&root.join(dir), &mut paths)?;
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = fs::read_to_string(path)?;
        let rel = path.strip_prefix(root).unwrap_or(path);
        files.push(SourceFile::lex(&rel.to_string_lossy().replace('\\', "/"), &text));
    }
    let (files_scanned, findings) = lint_files(&files);
    Ok(Report { root: root.to_string_lossy().into_owned(), files_scanned, findings })
}

/// Lint a single in-memory file — the entry point the rule tests use to
/// seed banned patterns without touching the filesystem.
pub fn check_source(path: &str, text: &str) -> Vec<Finding> {
    let sf = SourceFile::lex(path, text);
    let mut findings = Vec::new();
    rules::apply_all(&sf, &mut findings);
    findings
}

/// Lint an in-memory workspace of `(path, text)` files exactly as
/// [`run`] lints the real one, the `unused-pub` pass included.
pub fn check_sources(files: &[(&str, &str)]) -> Vec<Finding> {
    let files: Vec<SourceFile> = files.iter().map(|(p, t)| SourceFile::lex(p, t)).collect();
    lint_files(&files).1
}

/// The per-file rules over the library files, then the workspace pass;
/// returns the number of library files and the sorted findings.
fn lint_files(files: &[SourceFile]) -> (usize, Vec<Finding>) {
    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for sf in files.iter().filter(|f| rules::is_library(&f.path)) {
        rules::apply_all(sf, &mut findings);
        scanned += 1;
    }
    rules::unused_pub(files, &mut findings);
    findings
        .sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)).then(a.rule.cmp(&b.rule)));
    (scanned, findings)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests;
