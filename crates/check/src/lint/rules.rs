//! The repo-specific rules. Each rule walks the code channel of a
//! [`SourceFile`] and reports [`Finding`]s; `check:allow(rule)`
//! suppressions are honoured uniformly here. All but one are per-file;
//! [`unused_pub`] reads the whole workspace at once.

use super::source::SourceFile;
use super::Finding;
use std::collections::HashMap;

/// The serving hot-path modules where panicking operators are banned.
/// An entry ending in `/` scopes a whole directory, so a file added
/// there cannot silently fall out of the rule.
const HOT_PATH_FILES: &[&str] = &[
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
/// Rule id: a `pub fn`, `pub const` or `pub static` no other file names.
pub const UNUSED_PUB: &str = "unused-pub";

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

/// `true` for a library source: a file under the facade crate's `src/`
/// or under a member crate's `src/`.
pub fn is_library(path: &str) -> bool {
    path.starts_with("src/")
        || (path.starts_with("crates/") && path.split('/').nth(2) == Some("src"))
}

/// The identifiers of one line of code; numeric literals are skipped.
fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// The name `code` declares when it opens a `pub fn`, `pub const` or
/// `pub static` item (`pub(crate)` and the like are not public).
fn pub_item(code: &str) -> Option<&str> {
    let rest = code.trim_start().strip_prefix("pub")?;
    if !rest.starts_with(char::is_whitespace) {
        return None;
    }
    let mut words = idents(rest).peekable();
    let fn_next = |w: Option<&&str>| matches!(w, Some(&("fn" | "unsafe" | "async" | "extern")));
    match words.next()? {
        "fn" => words.next(),
        "const" | "static" if !fn_next(words.peek()) => words.find(|&w| w != "mut"),
        "const" | "unsafe" | "async" | "extern" => {
            words.find(|&w| w == "fn")?;
            words.next()
        }
        _ => None,
    }
    .filter(|&name| name != "_")
}

/// `true` when `code` opens a `pub use` (or `pub(..) use`) re-export.
fn opens_reexport(code: &str) -> bool {
    let Some(rest) = code.trim_start().strip_prefix("pub") else { return false };
    let rest = match rest.strip_prefix('(') {
        Some(scoped) => scoped.split_once(')').map_or("", |(_, r)| r),
        None => rest,
    };
    rest.trim_start().starts_with("use ")
}

/// `true` when `w`, an identifier sliced from `code`, is written right
/// after `.` or `::`: a method call, a field, or a path's last segment.
fn after_dot_or_path(code: &str, w: &str) -> bool {
    let before = code[..w.as_ptr() as usize - code.as_ptr() as usize].trim_end();
    before.ends_with('.') || before.ends_with("::")
}

/// Per line, `true` when the line starts inside the braces of an `impl`
/// block (an item there is an associated item).
fn impl_lines(f: &SourceFile) -> Vec<bool> {
    // per open brace: does it open an impl block?
    let mut open: Vec<bool> = Vec::new();
    let mut impl_header = false;
    f.lines
        .iter()
        .map(|line| {
            let inside = open.last() == Some(&true);
            impl_header |= idents(&line.code).find(|&w| w != "unsafe") == Some("impl");
            for c in line.code.chars() {
                match c {
                    '{' => open.push(std::mem::take(&mut impl_header)),
                    '}' => _ = open.pop(),
                    ';' => impl_header = false,
                    _ => {}
                }
            }
            inside
        })
        .collect()
}

/// The workspace pass: every `pub fn`, `pub const` or `pub static` in a
/// library file, outside test code, must be named in the code channel
/// of some other file. An item inside an `impl` block is named only
/// where another file writes `.name` or `::name`, so a local variable,
/// parameter or free fn of the same name does not hide a dead method;
/// any other item is named by its bare identifier. Comments, string
/// literals and `pub use` re-exports are not uses, and the item's own
/// file does not count. Types are exempt: a public signature or field
/// can reach a type that no other file spells. Files named `tests.rs`
/// or `*_tests.rs` are test modules and declare nothing public.
pub fn unused_pub(files: &[SourceFile], findings: &mut Vec<Finding>) {
    // identifier → the files whose code names it, ascending: anywhere,
    // and right after `.` or `::`
    let mut named_in: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut dotted_in: HashMap<&str, Vec<usize>> = HashMap::new();
    fn note<'a>(map: &mut HashMap<&'a str, Vec<usize>>, w: &'a str, i: usize) {
        let seen = map.entry(w).or_default();
        if seen.last() != Some(&i) {
            seen.push(i);
        }
    }
    for (i, f) in files.iter().enumerate() {
        let mut in_reexport = false;
        for line in &f.lines {
            in_reexport |= opens_reexport(&line.code);
            if in_reexport {
                in_reexport = !line.code.contains(';');
                continue;
            }
            for w in idents(&line.code) {
                note(&mut named_in, w, i);
                if after_dot_or_path(&line.code, w) {
                    note(&mut dotted_in, w, i);
                }
            }
        }
    }
    let test_module = |p: &str| p.ends_with("/tests.rs") || p.ends_with("_tests.rs");
    for (i, f) in files.iter().enumerate() {
        if !is_library(&f.path) || test_module(&f.path) {
            continue;
        }
        let in_impl = impl_lines(f);
        for (l, line) in f.lines.iter().enumerate() {
            if line.in_test || f.is_allowed(UNUSED_PUB, l) {
                continue;
            }
            let Some(name) = pub_item(&line.code) else { continue };
            let uses = if in_impl[l] { &dotted_in } else { &named_in };
            if !uses.get(name).is_some_and(|seen| seen.iter().any(|&j| j != i)) {
                findings.push(Finding::new(
                    f,
                    l,
                    UNUSED_PUB,
                    &format!(
                        "public `{name}` is named in no other file — delete it, make it \
                         private, or justify with check:allow(unused-pub)"
                    ),
                ));
            }
        }
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
