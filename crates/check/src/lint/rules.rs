//! The repo-specific rules. Each rule walks the code channel of a
//! [`SourceFile`] and reports [`Finding`]s; `check:allow(rule)`
//! suppressions are honoured uniformly here.

use super::source::SourceFile;
use super::Finding;

/// The serving hot-path modules where panicking operators are banned.
/// An entry ending in `/` scopes a whole directory, so a file added
/// there cannot silently fall out of the rule.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/serve/src/",
    "crates/heuristics/src/repair.rs",
    "crates/rt/src/ring.rs",
    "crates/cluster/src/",
    "crates/telemetry/src/metrics.rs",
    "crates/telemetry/src/recorder.rs",
];

/// Rule id: float comparisons must use `total_cmp`.
pub const FLOAT_ORD: &str = "float-ord";
/// Rule id: no panicking operators in the serving hot path.
pub const HOT_PATH_PANIC: &str = "hot-path-panic";
/// Rule id: every crate root carries `#![forbid(unsafe_code)]`.
pub const FORBID_UNSAFE: &str = "forbid-unsafe";
/// Rule id: no allocating calls in `// check: no-alloc` functions.
pub const NO_ALLOC: &str = "no-alloc";
/// Rule id: `Ordering::Relaxed`/`SeqCst` need a justification comment.
pub const ATOMIC_ORDERING: &str = "atomic-ordering";

/// Run every per-line rule over one file.
pub fn apply_all(f: &SourceFile, findings: &mut Vec<Finding>) {
    float_ord(f, findings);
    hot_path_panic(f, findings);
    no_alloc(f, findings);
    atomic_ordering(f, findings);
    forbid_unsafe(f, findings);
}

/// Byte positions where `tok` occurs in `code` with identifier
/// boundaries on both sides.
fn word_positions(code: &str, tok: &str) -> Vec<usize> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(tok)
        .filter(|&(p, _)| {
            let prev_ok = code[..p].chars().next_back().is_none_or(|c| !ident(c));
            let next_ok = code[p + tok.len()..].chars().next().is_none_or(|c| !ident(c));
            prev_ok && next_ok
        })
        .map(|(p, _)| p)
        .collect()
}

/// `true` when `tok` at `p` reads as a method call: preceded (modulo
/// whitespace) by `.` and followed by `(` or a `::<` turbofish.
fn is_method_call(code: &str, p: usize, tok: &str) -> bool {
    let before_ok = code[..p].trim_end().ends_with('.');
    let after = &code[p + tok.len()..];
    before_ok && (after.starts_with('(') || after.starts_with("::<"))
}

/// Any `partial_cmp` token is a finding: floats compare with
/// `total_cmp`, and the two legitimate `PartialOrd`-from-`Ord`
/// forwardings carry justification comments. Applies to test code too —
/// PR 3's float-ordering bug class lives in tests as happily as in
/// production code.
fn float_ord(f: &SourceFile, findings: &mut Vec<Finding>) {
    for (l, line) in f.lines.iter().enumerate() {
        if !word_positions(&line.code, "partial_cmp").is_empty() && !f.is_allowed(FLOAT_ORD, l) {
            findings.push(Finding::new(
                f,
                l,
                FLOAT_ORD,
                "partial_cmp use — compare floats with total_cmp, or justify with \
                 check:allow(float-ord)",
            ));
        }
    }
}

/// No `.unwrap()`, `.expect(..)` or `panic!` outside `#[cfg(test)]` in
/// the hot-path modules; every deliberate panic carries a
/// `check:allow(hot-path-panic)` justification.
fn hot_path_panic(f: &SourceFile, findings: &mut Vec<Finding>) {
    let scoped = |h: &&str| match h.ends_with('/') {
        true => f.path.contains(*h),
        false => f.path.ends_with(*h),
    };
    if !HOT_PATH_FILES.iter().any(scoped) {
        return;
    }
    for (l, line) in f.lines.iter().enumerate() {
        if line.in_test || f.is_allowed(HOT_PATH_PANIC, l) {
            continue;
        }
        for tok in ["unwrap", "expect"] {
            if word_positions(&line.code, tok).iter().any(|&p| is_method_call(&line.code, p, tok)) {
                findings.push(Finding::new(
                    f,
                    l,
                    HOT_PATH_PANIC,
                    &format!(".{tok}() in a serving hot-path module"),
                ));
            }
        }
        if word_positions(&line.code, "panic")
            .iter()
            .any(|&p| line.code[p + "panic".len()..].starts_with('!'))
        {
            findings.push(Finding::new(
                f,
                l,
                HOT_PATH_PANIC,
                "panic! in a serving hot-path module",
            ));
        }
    }
}

/// The allocating calls banned inside `// check: no-alloc` functions:
/// `(token, is_method)` pairs.
const ALLOC_TOKENS: &[(&str, bool)] = &[
    ("Vec::new", false),
    ("Vec::with_capacity", false),
    ("String::new", false),
    ("String::from", false),
    ("String::with_capacity", false),
    ("Box::new", false),
    ("vec", false), // checked for a trailing `!` below
    ("format", false),
    ("to_string", true),
    ("to_owned", true),
    ("to_vec", true),
    ("collect", true),
    ("clone", true),
];

/// Functions tagged `// check: no-alloc` must not contain allocating
/// calls — the lexical twin of the counting-allocator runtime suite.
fn no_alloc(f: &SourceFile, findings: &mut Vec<Finding>) {
    for &fn_line in &f.noalloc_fns {
        let Some(last) = fn_extent(f, fn_line) else { continue };
        for l in fn_line..=last {
            if f.is_allowed(NO_ALLOC, l) {
                continue;
            }
            let code = &f.lines[l].code;
            for &(tok, method) in ALLOC_TOKENS {
                let hit = word_positions(code, tok).iter().any(|&p| {
                    if method {
                        is_method_call(code, p, tok)
                    } else if tok == "vec" || tok == "format" {
                        code[p + tok.len()..].starts_with('!')
                    } else {
                        true
                    }
                });
                if hit {
                    findings.push(Finding::new(
                        f,
                        l,
                        NO_ALLOC,
                        &format!("allocating call `{tok}` in a `check: no-alloc` function"),
                    ));
                }
            }
        }
    }
}

/// Last line (0-based) of the fn item starting at `fn_line`: brace-match
/// from the first `{` at or after it.
fn fn_extent(f: &SourceFile, fn_line: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut seen_open = false;
    for (l, line) in f.lines.iter().enumerate().skip(fn_line) {
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    seen_open = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
            if seen_open && depth == 0 {
                return Some(l);
            }
        }
    }
    None
}

/// `Ordering::Relaxed` and `Ordering::SeqCst` are allowed only at
/// comment-justified sites: the workspace convention is paired
/// Acquire/Release, and every exception must say why it is safe.
/// Test code (including `src/tests.rs` modules) is exempt.
fn atomic_ordering(f: &SourceFile, findings: &mut Vec<Finding>) {
    if f.path.ends_with("tests.rs") {
        return;
    }
    for (l, line) in f.lines.iter().enumerate() {
        if line.in_test || f.is_allowed(ATOMIC_ORDERING, l) {
            continue;
        }
        for tok in ["Ordering::Relaxed", "Ordering::SeqCst"] {
            if line.code.contains(tok) {
                findings.push(Finding::new(
                    f,
                    l,
                    ATOMIC_ORDERING,
                    &format!("{tok} without a check:allow(atomic-ordering) justification"),
                ));
            }
        }
    }
}

/// Every crate root must forbid `unsafe` — the workspace stays
/// mechanically free of it (rings use mutexed slots instead).
fn forbid_unsafe(f: &SourceFile, findings: &mut Vec<Finding>) {
    if !f.path.ends_with("src/lib.rs") && !f.path.ends_with("src/main.rs") {
        return;
    }
    // only crate roots, not arbitrary files: `src/lib.rs` is always a
    // root; `src/main.rs` only when no lib.rs exists beside it (the
    // driver filters that case before calling us)
    let has = f.lines.iter().any(|l| l.code.contains("#![forbid(unsafe_code)]"));
    if !has && f.path.ends_with("src/lib.rs") {
        findings.push(Finding::new(
            f,
            0,
            FORBID_UNSAFE,
            "crate root lacks #![forbid(unsafe_code)]",
        ));
    }
}

impl Finding {
    fn new(f: &SourceFile, line0: usize, rule: &str, message: &str) -> Finding {
        Finding {
            file: f.path.clone(),
            line: line0 + 1,
            rule: rule.to_string(),
            message: message.to_string(),
        }
    }
}
