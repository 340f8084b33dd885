//! `src-lint` — the repo's whole-program source passes.
//!
//! Per-site panics, lossy casts, hash collections and wall-clock reads are
//! clippy's job: `[workspace.lints.clippy]` in the root `Cargo.toml`, with
//! each exception an `#[expect(lint, reason = "…")]` on its fn. What clippy
//! cannot see is a path through the call graph, so this binary runs the
//! `check::callgraph` passes over `crates/*/src`:
//!
//! * **PL060 panic reachability**: which `try_*`/checkpoint/report-facing
//!   `pub` fns can transitively reach a panic, with a witness call chain.
//!   Counted per file under the `pl060` allowlist pattern, shrink-only.
//! * **PL062 determinism taint**: nondeterminism sources reaching the
//!   weight/report sinks outside the seed stream. `pl062`, shrink-only.
//!
//! The counts are checked against the checked-in `lint-allow.txt`, whose
//! per-file counts may only *shrink*: a new finding fails, and so does a
//! stale (over-counted) entry, forcing the allowlist to track reality
//! downward.
//!
//! ```text
//! src-lint [--root DIR] [--write-allowlist]
//! ```
//!
//! `--write-allowlist` regenerates `lint-allow.txt` from current reality.
//! Exit status: 0 clean, 1 on any lint failure, 2 on usage/I-O errors.

use pipelayer_check::callgraph::Workspace;
use pipelayer_check::{dettaint, panicreach};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The allowlist file, relative to the workspace root.
const ALLOWLIST: &str = "lint-allow.txt";

/// Parses `lint-allow.txt`: `path pattern count` per line, `#` comments.
fn parse_allowlist(text: &str) -> Result<BTreeMap<(String, String), usize>, String> {
    let mut map = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(path), Some(pat), Some(count)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "{ALLOWLIST}:{}: expected `path pattern count`",
                lineno + 1
            ));
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("{ALLOWLIST}:{}: bad count `{count}`", lineno + 1))?;
        map.insert((path.to_string(), pat.to_string()), count);
    }
    Ok(map)
}

/// Output of the call-graph passes.
#[derive(Debug, Default)]
struct SemanticReport {
    /// `(path, "pl060"/"pl062")` → count, checked against the allowlist.
    counts: BTreeMap<(String, String), usize>,
    /// `(path, pattern)` → rendered diagnostics, printed when over cap.
    details: BTreeMap<(String, String), Vec<String>>,
}

/// Runs PL060/PL062 over the workspace call graph.
fn run_semantic(root: &Path) -> Result<SemanticReport, String> {
    let ws = Workspace::load(root)?;
    let mut report = SemanticReport::default();

    let (diags, counts) = panicreach::findings(&ws, &panicreach::Options::default());
    merge_semantic(&mut report, "pl060", diags, counts);
    let (diags, counts) = dettaint::findings(&ws, &dettaint::Options::default());
    merge_semantic(&mut report, "pl062", diags, counts);
    Ok(report)
}

fn merge_semantic(
    report: &mut SemanticReport,
    pattern: &str,
    diags: Vec<pipelayer_check::Diagnostic>,
    counts: BTreeMap<String, usize>,
) {
    for (path, n) in counts {
        report.counts.insert((path, pattern.to_string()), n);
    }
    for d in diags {
        // Diagnostic locations are `path:line`; key details by the path.
        let path = d.location.split(':').next().unwrap_or("").to_string();
        report
            .details
            .entry((path, pattern.to_string()))
            .or_default()
            .push(d.render());
    }
}

fn run() -> Result<bool, String> {
    let mut root: Option<PathBuf> = None;
    let mut write_allowlist = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => {
                root = Some(PathBuf::from(args.next().ok_or("--root needs a value")?));
            }
            "--write-allowlist" => write_allowlist = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let root = match root {
        Some(r) => r,
        // crates/check/../.. = the workspace root.
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."),
    };
    let root = root
        .canonicalize()
        .map_err(|e| format!("cannot resolve root {}: {e}", root.display()))?;

    let sem = run_semantic(&root)?;
    let counts = &sem.counts;
    let mut totals: BTreeMap<&str, usize> = BTreeMap::new();
    for ((_, pat), &n) in counts {
        *totals.entry(pat.as_str()).or_insert(0) += n;
    }
    let summary: Vec<String> = totals.iter().map(|(k, v)| format!("{k}={v}")).collect();

    let allow_path = root.join(ALLOWLIST);
    let allow_text = fs::read_to_string(&allow_path).unwrap_or_default();
    let allowed = parse_allowlist(&allow_text)?;

    if write_allowlist {
        let mut out = String::new();
        out.push_str(
            "# src-lint allowlist. Checked by `cargo run -p pipelayer-check --bin src-lint`.\n",
        );
        out.push_str("# Format: <path> <pattern> <count>. Counts may only SHRINK: a new site\n");
        out.push_str("# fails the lint, and so does an over-counted (stale) entry.\n");
        out.push_str("# Rows are call-graph findings: pl060 panic reachability, pl062\n");
        out.push_str("# determinism taint. Per-site lints are clippy's `#[expect]`s.\n");
        out.push_str("# Baseline at last regeneration: ");
        out.push_str(&summary.join(" "));
        out.push('\n');
        for ((path, pat), n) in counts {
            out.push_str(&format!("{path} {pat} {n}\n"));
        }
        fs::write(&allow_path, out).map_err(|e| format!("cannot write {ALLOWLIST}: {e}"))?;
        println!("wrote {} entries to {ALLOWLIST}", counts.len());
        return Ok(true);
    }

    let mut failures: Vec<String> = Vec::new();
    for ((path, pat), &n) in counts {
        let cap = allowed
            .get(&(path.clone(), pat.clone()))
            .copied()
            .unwrap_or(0);
        if n > cap {
            failures.push(format!(
                "error[{pat}]: {path}: {n} non-test site(s), allowlist caps it at {cap} — \
                 convert the new site to Result or shrink it some other way"
            ));
            if let Some(details) = sem.details.get(&(path.clone(), pat.clone())) {
                for d in details {
                    failures.push(format!("  {d}"));
                }
            }
        }
    }
    for ((path, pat), &cap) in &allowed {
        let n = counts
            .get(&(path.clone(), pat.clone()))
            .copied()
            .unwrap_or(0);
        if n < cap {
            failures.push(format!(
                "error[stale-allowlist]: {path}: {pat} allowlisted at {cap} but only {n} \
                 found — shrink the entry in {ALLOWLIST} to lock in the progress"
            ));
        }
    }

    for f in &failures {
        println!("{f}");
    }
    println!(
        "src-lint: {} file-pattern entries ({}), {} failure(s)",
        counts.len(),
        summary.join(" "),
        failures.len()
    );
    Ok(failures.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::expect_used,
    clippy::disallowed_macros,
    reason = "the library gate exempts test code: a failed assertion is how a test fails"
)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_roundtrip() {
        let map = parse_allowlist("# c\npath.rs pl060 3\n\npath.rs pl062 1\n").expect("parses");
        assert_eq!(map.get(&("path.rs".into(), "pl060".into())), Some(&3));
        assert!(parse_allowlist("broken line").is_err());
    }
}
