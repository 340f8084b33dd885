//! The library lint gate is declared once, as `[workspace.lints.clippy]` in
//! the root `Cargo.toml`, and a package is under it only if it opts in
//! with `[lints] workspace = true`. Neither rustc nor clippy reports a
//! package that leaves the line out, so this test does.

#![expect(
    clippy::expect_used,
    clippy::disallowed_macros,
    reason = "the library gate exempts test code: a failed assertion is how a test fails"
)]

use std::fs;
use std::path::{Path, PathBuf};

/// The `key = value` lines of TOML table `[name]`, spaces removed.
fn table(manifest: &str, name: &str) -> Vec<String> {
    let header = format!("[{name}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.replace(' ', ""))
        .collect()
}

#[test]
fn every_crate_opts_into_the_workspace_lints() {
    // `crates/`, the parent of this package.
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut manifests: Vec<PathBuf> = fs::read_dir(crates)
        .expect("crates/ is readable")
        .map(|entry| entry.expect("directory entry").path().join("Cargo.toml"))
        .filter(|manifest| manifest.is_file())
        .collect();
    manifests.sort();
    assert!(manifests.len() >= 8, "found only {manifests:?}");
    for manifest in manifests {
        let text = fs::read_to_string(&manifest).expect("manifest is readable");
        assert_eq!(
            table(&text, "lints"),
            ["workspace=true"],
            "{} must opt into the gate with `[lints] workspace = true`",
            manifest.display()
        );
    }
}
