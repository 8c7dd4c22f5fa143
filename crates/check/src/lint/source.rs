//! The source model: a hand-rolled lexer splitting a Rust file into a
//! *code channel* (comments removed, literal contents blanked) and a
//! *comment channel* (where `check:` directives live), plus `#[cfg(test)]`
//! region tracking. No syn, no regex — the container is offline and the
//! rules below only need token-level fidelity: string and character
//! literals (including raw and byte strings) must never leak into the
//! code channel, and brace/paren structure must survive so item extents
//! can be matched.

use std::collections::HashSet;

/// One lexed line of a source file.
#[derive(Debug)]
pub struct Line {
    /// The line's code with comments stripped and the *contents* of
    /// string/char literals replaced by spaces (delimiters kept), so
    /// token searches never match inside literals.
    pub code: String,
    /// Comment text on this line (without the `//`, `/*`, `*/` markers).
    pub comments: Vec<String>,
    /// `true` when the line lies inside a `#[cfg(test)]` item (or is
    /// the attribute itself).
    pub in_test: bool,
}

/// A lexed source file plus the directive tables the rules consume.
#[derive(Debug)]
pub struct SourceFile {
    /// Path as reported in findings (workspace-relative).
    pub path: String,
    /// Per-line views; `lines[0]` is line 1.
    pub lines: Vec<Line>,
    /// `(line0, rule)` pairs suppressed by `check:allow(rule)` comments.
    allowed: HashSet<(usize, String)>,
    /// Lines (0-based) of `fn` items tagged `// check: no-alloc`.
    pub noalloc_fns: Vec<usize>,
}

impl SourceFile {
    /// Lex `text` into the code/comment channels and resolve directives.
    pub fn lex(path: &str, text: &str) -> SourceFile {
        let mut lines = split_channels(text);
        mark_test_regions(&mut lines);
        let (allowed, noalloc_fns) = resolve_directives(&lines);
        SourceFile { path: path.to_string(), lines, allowed, noalloc_fns }
    }

    /// `true` when a `check:allow(rule)` directive covers `line0`.
    pub fn is_allowed(&self, rule: &str, line0: usize) -> bool {
        self.allowed.contains(&(line0, rule.to_string()))
    }
}

/// Pass 1: split the text into per-line code and comment channels.
fn split_channels(text: &str) -> Vec<Line> {
    let cs: Vec<char> = text.chars().collect();
    let mut lines = Vec::new();
    let mut code = String::new();
    let mut comments: Vec<String> = Vec::new();
    let mut i = 0;

    // Close out the current line.
    macro_rules! end_line {
        () => {
            lines.push(Line {
                code: std::mem::take(&mut code),
                comments: std::mem::take(&mut comments),
                in_test: false,
            });
        };
    }

    while i < cs.len() {
        let c = cs[i];
        if c == '\n' {
            end_line!();
            i += 1;
        } else if c == '/' && cs.get(i + 1) == Some(&'/') {
            // line comment (includes `///` and `//!` docs)
            let mut text = String::new();
            i += 2;
            while i < cs.len() && cs[i] != '\n' {
                text.push(cs[i]);
                i += 1;
            }
            comments.push(text);
        } else if c == '/' && cs.get(i + 1) == Some(&'*') {
            // block comment, possibly nested, possibly multi-line
            let mut depth = 1usize;
            let mut text = String::new();
            i += 2;
            while i < cs.len() && depth > 0 {
                if cs[i] == '/' && cs.get(i + 1) == Some(&'*') {
                    depth += 1;
                    text.push_str("/*");
                    i += 2;
                } else if cs[i] == '*' && cs.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    if depth > 0 {
                        text.push_str("*/");
                    }
                    i += 2;
                } else if cs[i] == '\n' {
                    comments.push(std::mem::take(&mut text));
                    end_line!();
                    i += 1;
                } else {
                    text.push(cs[i]);
                    i += 1;
                }
            }
            if !text.is_empty() {
                comments.push(text);
            }
        } else if is_raw_string_start(&cs, i) {
            // r"..", r#".."#, br#".."# — blank contents, keep delimiters
            let start = i;
            while cs[i] == 'r' || cs[i] == 'b' {
                code.push(cs[i]);
                i += 1;
            }
            let mut hashes = 0usize;
            while cs.get(i) == Some(&'#') {
                code.push('#');
                hashes += 1;
                i += 1;
            }
            debug_assert!(cs.get(i) == Some(&'"'), "raw string at {start} lost its quote");
            code.push('"');
            i += 1;
            loop {
                match cs.get(i) {
                    None => break,
                    Some('"') if (1..=hashes).all(|k| cs.get(i + k) == Some(&'#')) => {
                        code.push('"');
                        for _ in 0..hashes {
                            code.push('#');
                        }
                        i += 1 + hashes;
                        break;
                    }
                    Some('\n') => {
                        end_line!();
                        i += 1;
                    }
                    Some(_) => {
                        code.push(' ');
                        i += 1;
                    }
                }
            }
        } else if c == '"' {
            // ordinary (or byte) string: the `b` prefix was emitted as code
            code.push('"');
            i += 1;
            while i < cs.len() {
                match cs[i] {
                    '\\' if cs.get(i + 1) == Some(&'\n') => {
                        // escaped newline (string continuation): the
                        // physical line still ends here
                        code.push(' ');
                        end_line!();
                        i += 2;
                    }
                    '\\' => {
                        code.push_str("  ");
                        i += 2;
                    }
                    '"' => {
                        code.push('"');
                        i += 1;
                        break;
                    }
                    '\n' => {
                        end_line!();
                        i += 1;
                    }
                    _ => {
                        code.push(' ');
                        i += 1;
                    }
                }
            }
        } else if c == '\'' {
            // char literal vs lifetime: a backslash or a close-quote two
            // chars on means a literal; otherwise it is a lifetime
            if cs.get(i + 1) == Some(&'\\') {
                code.push_str("'  ");
                i += 2; // consume the backslash and the escaped char
                i += 1;
                while i < cs.len() && cs[i] != '\'' {
                    code.push(' ');
                    i += 1;
                }
                code.push('\'');
                i += 1;
            } else if cs.get(i + 2) == Some(&'\'') && cs.get(i + 1) != Some(&'\'') {
                code.push_str("' '");
                i += 3;
            } else {
                code.push('\'');
                i += 1;
            }
        } else {
            code.push(c);
            i += 1;
        }
    }
    if !code.is_empty() || !comments.is_empty() {
        end_line!();
    }
    lines
}

/// Is `cs[i]` the start of a raw (or raw byte) string literal rather
/// than an identifier beginning with `r`/`b`?
fn is_raw_string_start(cs: &[char], i: usize) -> bool {
    if i > 0 && (cs[i - 1].is_alphanumeric() || cs[i - 1] == '_') {
        return false; // mid-identifier
    }
    let mut j = i;
    if cs.get(j) == Some(&'b') {
        j += 1;
    }
    if cs.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while cs.get(j) == Some(&'#') {
        j += 1;
    }
    cs.get(j) == Some(&'"') && (cs[i] == 'r' || cs[i] == 'b')
}

/// Pass 2: mark every line belonging to a `#[cfg(test)]` item.
fn mark_test_regions(lines: &mut [Line]) {
    let fc: Vec<char> = {
        let mut s = String::new();
        for l in lines.iter() {
            s.push_str(&l.code);
            s.push('\n');
        }
        s.chars().collect()
    };
    // char index → 0-based line
    let line_of = |idx: usize| -> usize { fc[..idx].iter().filter(|&&c| c == '\n').count() };

    let mut i = 0usize;
    while i + 1 < fc.len() {
        if !(fc[i] == '#' && fc[i + 1] == '[') {
            i += 1;
            continue;
        }
        let attr_start = i;
        // bracket-match the attribute
        let mut j = attr_start + 1;
        let mut depth = 0i32;
        while j < fc.len() {
            match fc[j] {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let attr_end = j.min(fc.len() - 1);
        let attr: String = fc[attr_start..=attr_end].iter().collect();
        i = attr_end + 1;
        let is_test = attr.contains("cfg(test")
            || attr.contains("cfg(all(test")
            || attr.contains("cfg(any(test");
        if !is_test {
            continue;
        }
        // skip whitespace and any further attributes, then find the
        // item's extent: up to the matching `}` of its first block, or
        // the first `;` for braceless items (`mod tests;`, statics)
        let mut k = attr_end + 1;
        loop {
            while k < fc.len() && fc[k].is_whitespace() {
                k += 1;
            }
            if k + 1 < fc.len() && fc[k] == '#' && fc[k + 1] == '[' {
                let mut d = 0i32;
                while k < fc.len() {
                    match fc[k] {
                        '[' => d += 1,
                        ']' => {
                            d -= 1;
                            if d == 0 {
                                k += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
            } else {
                break;
            }
        }
        let mut end = k;
        let mut brace = 0i32;
        while end < fc.len() {
            match fc[end] {
                '{' => brace += 1,
                '}' => {
                    brace -= 1;
                    if brace == 0 {
                        break;
                    }
                }
                ';' if brace == 0 => break,
                _ => {}
            }
            end += 1;
        }
        let (first, last) = (line_of(attr_start), line_of(end.min(fc.len() - 1)));
        for l in lines.iter_mut().take(last + 1).skip(first) {
            l.in_test = true;
        }
    }
}

/// Pass 3: resolve `check:` directives. An allow (or tag) on line `L`
/// covers `L` itself and the first line at or after `L` whose code
/// channel is non-blank — so a standalone comment (possibly continued
/// over several comment lines) covers the statement below it, and a
/// trailing comment covers its own line.
fn resolve_directives(lines: &[Line]) -> (HashSet<(usize, String)>, Vec<usize>) {
    let first_code_at = |from: usize| -> Option<usize> {
        (from..lines.len()).find(|&l| !lines[l].code.trim().is_empty())
    };
    let mut allowed = HashSet::new();
    let mut noalloc = Vec::new();
    for (l, line) in lines.iter().enumerate() {
        for c in &line.comments {
            if let Some(rule) = parse_allow(c) {
                allowed.insert((l, rule.clone()));
                if let Some(t) = first_code_at(l) {
                    allowed.insert((t, rule));
                }
            }
            // exact match (modulo whitespace): prose *mentioning* the
            // tag — e.g. the rule's own docs — must not tag anything
            if c.trim() == "check: no-alloc" {
                if let Some(t) = first_code_at(l) {
                    noalloc.push(t);
                }
            }
        }
    }
    (allowed, noalloc)
}

/// Extract the rule id from a `check:allow(rule)` directive.
fn parse_allow(comment: &str) -> Option<String> {
    let at = comment.find("check:allow(")?;
    let rest = &comment[at + "check:allow(".len()..];
    let close = rest.find(')')?;
    Some(rest[..close].trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_leave_the_code_channel() {
        let f = SourceFile::lex(
            "t.rs",
            "let s = \"panic!(do not match)\"; // but panic! here is comment\nlet c = '\\n';\n",
        );
        assert!(!f.lines[0].code.contains("panic!"), "string contents blanked");
        assert!(f.lines[0].comments[0].contains("panic!"), "comment captured");
        assert!(f.lines[1].code.starts_with("let c = '"), "char literal kept as shell");
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = SourceFile::lex("t.rs", "let s = r#\"unwrap() inside\"#;\nlet t = br\"x\";\n");
        assert!(!f.lines[0].code.contains("unwrap"), "raw string contents blanked");
        assert!(f.lines[0].code.contains("r#\""), "delimiters survive");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = SourceFile::lex("t.rs", "fn f<'a>(x: &'a str) -> &'a str { x }\n");
        assert!(f.lines[0].code.contains("-> &'a str"), "lifetimes pass through");
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let f = SourceFile::lex("t.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test, "the attribute line");
        assert!(f.lines[2].in_test && f.lines[3].in_test && f.lines[4].in_test, "the mod body");
        assert!(!f.lines[5].in_test, "code after the region");
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let f = SourceFile::lex("t.rs", "#[cfg(not(test))]\nfn live() {}\n");
        assert!(!f.lines[1].in_test);
    }

    #[test]
    fn allow_covers_the_next_code_line_across_comment_continuations() {
        let src = "// check:allow(some-rule): reason spills\n// over two comment lines\nlet x = 1;\nlet y = 2;\n";
        let f = SourceFile::lex("t.rs", src);
        assert!(f.is_allowed("some-rule", 2), "first code line below is covered");
        assert!(!f.is_allowed("some-rule", 3), "the line after is not");
    }

    #[test]
    fn trailing_allow_covers_its_own_line() {
        let f = SourceFile::lex("t.rs", "let x = 1; // check:allow(some-rule)\n");
        assert!(f.is_allowed("some-rule", 0));
    }

    #[test]
    fn noalloc_tag_targets_the_fn_line() {
        let src = "// check: no-alloc\npub fn hot() {\n}\n";
        let f = SourceFile::lex("t.rs", src);
        assert_eq!(f.noalloc_fns, vec![1]);
    }
}
