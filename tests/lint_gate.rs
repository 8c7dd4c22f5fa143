//! The workspace lint gate in the tier-1 suite: `cellstream-check
//! --deny` must find nothing on this tree, the workspace-wide
//! `unused-pub` pass included, so a regression fails `cargo test` and
//! not only the CI lint step.

use std::fs;
use std::path::Path;

/// `.rs` files under `dir`, recursively.
fn count_rs(dir: &Path) -> usize {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .map(|e| e.expect("readable entry").path())
                .map(|p| match p.is_dir() {
                    true => count_rs(&p),
                    false => usize::from(p.extension().is_some_and(|e| e == "rs")),
                })
                .sum()
        })
        .unwrap_or(0)
}

#[test]
fn workspace_scans_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = cellstream_check::lint::run(root).expect("workspace scan succeeds");
    let crates: usize = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| count_rs(&e.expect("readable entry").path().join("src")))
        .sum();
    let facade = count_rs(&root.join("src"));
    assert!(facade >= 2, "the facade crate has lib.rs and session.rs");
    assert_eq!(
        report.files_scanned,
        crates + facade,
        "the per-file rules read every crate's src/ and the facade's src/"
    );
    assert!(
        report.findings.is_empty(),
        "workspace must lint clean, found:\n{}",
        report.findings.iter().map(|f| format!("  {f}")).collect::<Vec<_>>().join("\n")
    );
}
