//! Rule pins: seeding any single banned pattern must produce a finding,
//! suppressions must silence it, and — the acceptance gate — the real
//! workspace must scan clean.

use super::rules;
use super::{check_source, run};
use std::path::Path;

fn rules_fired(path: &str, src: &str) -> Vec<String> {
    check_source(path, src).into_iter().map(|f| f.rule).collect()
}

// ---- float-ord -----------------------------------------------------------

#[test]
fn float_ord_flags_partial_cmp_unwrap() {
    let src = "fn f(xs: &mut Vec<f64>) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    let fired = rules_fired("crates/x/src/a.rs", src);
    assert!(fired.contains(&rules::FLOAT_ORD.to_string()), "fired: {fired:?}");
}

#[test]
fn float_ord_flags_test_code_too() {
    // PR 3's bug class lived in a test helper — the rule must not skip
    // #[cfg(test)] regions
    let src = "#[cfg(test)]\nmod tests {\n    fn f(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }\n}\n";
    let fired = rules_fired("crates/x/src/a.rs", src);
    assert!(fired.contains(&rules::FLOAT_ORD.to_string()));
}

#[test]
fn float_ord_accepts_total_cmp_and_allows() {
    let clean = "fn f(xs: &mut Vec<f64>) {\n    xs.sort_by(|a, b| a.total_cmp(b));\n}\n";
    assert!(rules_fired("crates/x/src/a.rs", clean).is_empty());
    let allowed = "impl PartialOrd for T {\n    // check:allow(float-ord): forwards to Ord\n    fn partial_cmp(&self, o: &Self) -> Option<Ordering> { Some(self.cmp(o)) }\n}\n";
    assert!(rules_fired("crates/x/src/a.rs", allowed).is_empty());
}

#[test]
fn float_ord_ignores_partial_cmp_in_strings_and_comments() {
    let src = "// partial_cmp would be wrong here\nfn f() -> &'static str { \"partial_cmp\" }\n";
    assert!(rules_fired("crates/x/src/a.rs", src).is_empty());
}

// ---- hot-path-panic ------------------------------------------------------

#[test]
fn hot_path_panic_flags_unwrap_expect_panic() {
    for seed in ["x.unwrap();", "x.expect(\"reason\");", "panic!(\"boom\");"] {
        let src = format!("fn f() {{\n    {seed}\n}}\n");
        let fired = rules_fired("crates/serve/src/service.rs", &src);
        assert!(
            fired.contains(&rules::HOT_PATH_PANIC.to_string()),
            "{seed} must fire, got {fired:?}"
        );
    }
}

#[test]
fn hot_path_panic_applies_only_to_hot_path_files() {
    let src = "fn f() { x.unwrap(); }\n";
    assert!(rules_fired("crates/milp/src/bb.rs", src).is_empty());
    assert!(!rules_fired("crates/heuristics/src/repair.rs", src).is_empty());
    // the serve crate is scoped as a directory: a file nobody listed
    assert!(!rules_fired("crates/serve/src/brand_new.rs", src).is_empty());
    assert!(rules_fired("crates/serve/tests/invariants.rs", src).is_empty());
}

#[test]
fn hot_path_panic_skips_tests_and_allows() {
    let test_only = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
    assert!(rules_fired("crates/rt/src/ring.rs", test_only).is_empty());
    let allowed = "fn f() {\n    // check:allow(hot-path-panic): validated upfront\n    x.expect(\"validated\");\n}\n";
    assert!(rules_fired("crates/serve/src/pipeline.rs", allowed).is_empty());
}

#[test]
fn hot_path_panic_does_not_flag_lookalikes() {
    // unwrap_or is not unwrap; should_panic has no bang; assert! is a
    // deliberate guard, not a panic operator
    let src = "fn f() {\n    let v = x.unwrap_or(0);\n    assert!(v >= 0, \"guard\");\n}\n";
    assert!(rules_fired("crates/rt/src/ring.rs", src).is_empty());
}

// ---- forbid-unsafe -------------------------------------------------------

#[test]
fn forbid_unsafe_flags_a_bare_crate_root() {
    let fired = rules_fired("crates/x/src/lib.rs", "pub mod a;\n");
    assert!(fired.contains(&rules::FORBID_UNSAFE.to_string()));
    let ok = "#![forbid(unsafe_code)]\npub mod a;\n";
    assert!(rules_fired("crates/x/src/lib.rs", ok).is_empty());
    // non-roots are not checked
    assert!(rules_fired("crates/x/src/a.rs", "pub fn f() {}\n").is_empty());
}

// ---- no-alloc ------------------------------------------------------------

#[test]
fn no_alloc_flags_each_allocating_call() {
    for seed in [
        "let v = Vec::new();",
        "let v = vec![1, 2];",
        "let s = x.to_string();",
        "let s = format!(\"{x}\");",
        "let v: Vec<u32> = it.collect();",
        "let v = it.collect::<Vec<_>>();",
        "let y = x.clone();",
        "let b = Box::new(x);",
    ] {
        let src = format!("// check: no-alloc\nfn hot(x: u32) {{\n    {seed}\n}}\n");
        let fired = rules_fired("crates/x/src/a.rs", &src);
        assert!(fired.contains(&rules::NO_ALLOC.to_string()), "{seed} must fire, got {fired:?}");
    }
}

#[test]
fn no_alloc_is_scoped_to_the_tagged_fn() {
    let src = "// check: no-alloc\nfn hot() {\n    let x = 1 + 1;\n}\n\nfn cold() {\n    let v = Vec::new();\n}\n";
    assert!(rules_fired("crates/x/src/a.rs", src).is_empty(), "allocation outside the tag is fine");
}

#[test]
fn no_alloc_honours_inline_allows() {
    let src = "// check: no-alloc\nfn hot() {\n    // check:allow(no-alloc): one-time warm-up\n    let v = Vec::new();\n}\n";
    assert!(rules_fired("crates/x/src/a.rs", src).is_empty());
}

// ---- atomic-ordering -----------------------------------------------------

#[test]
fn atomic_ordering_flags_relaxed_and_seqcst() {
    for seed in ["x.load(Ordering::Relaxed);", "x.store(1, Ordering::SeqCst);"] {
        let src = format!("fn f(x: &AtomicU64) {{\n    {seed}\n}}\n");
        let fired = rules_fired("crates/x/src/a.rs", &src);
        assert!(
            fired.contains(&rules::ATOMIC_ORDERING.to_string()),
            "{seed} must fire, got {fired:?}"
        );
    }
}

#[test]
fn atomic_ordering_accepts_acquire_release_and_justified_sites() {
    let clean = "fn f(x: &AtomicU64) {\n    x.store(x.load(Ordering::Acquire) + 1, Ordering::Release);\n}\n";
    assert!(rules_fired("crates/x/src/a.rs", clean).is_empty());
    let justified = "fn f(x: &AtomicU64) {\n    // check:allow(atomic-ordering): lone flag\n    x.load(Ordering::Relaxed);\n}\n";
    assert!(rules_fired("crates/x/src/a.rs", justified).is_empty());
}

#[test]
fn atomic_ordering_exempts_test_code() {
    let src =
        "#[cfg(test)]\nmod tests {\n    fn t(x: &AtomicU64) { x.load(Ordering::Relaxed); }\n}\n";
    assert!(rules_fired("crates/x/src/a.rs", src).is_empty());
    let tests_file = "fn helper(x: &AtomicU64) { x.load(Ordering::SeqCst); }\n";
    assert!(rules_fired("crates/x/src/tests.rs", tests_file).is_empty());
}

// ---- the acceptance gate -------------------------------------------------

#[test]
fn workspace_scans_clean() {
    // `cargo run -p cellstream-check -- --deny` exiting clean on the
    // whole workspace is an ISSUE acceptance criterion; this test pins
    // it from the suite so a regression fails `cargo test` too.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run(&root).expect("workspace scan succeeds");
    assert!(report.files_scanned > 50, "scanned only {} files", report.files_scanned);
    assert!(
        report.findings.is_empty(),
        "workspace must lint clean, found:\n{}",
        report.findings.iter().map(|f| format!("  {f}")).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn json_report_is_well_formed() {
    let src = "fn f(xs: &mut Vec<f64>) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    let findings = check_source("crates/x/src/a.rs", src);
    let report = super::Report { root: "/ws".into(), files_scanned: 1, findings };
    let json = report.to_json();
    assert!(json.contains("\"rule\": \"float-ord\""));
    assert!(json.contains("\"line\": 2"));
    assert!(json.contains("\"files_scanned\": 1"));
}
