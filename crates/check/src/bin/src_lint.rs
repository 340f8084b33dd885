//! `src-lint` — the repo-wide determinism/panic lint gate.
//!
//! A dependency-free scan over `crates/*/src` that keeps library code
//! panic-free and deterministic. Two layers:
//!
//! **Line lint** (always on) — forbidden-substring matching over
//! [`pipelayer_check::lex::mask`]ed source (string/char/raw-string interiors
//! and comments blanked, byte offsets preserved), so quoted or commented-out
//! code can never match:
//!
//! * **Forbidden in non-test code**: `unwrap()`, `.expect(`, `panic!(` and
//!   `assert!(` (with word boundaries, so `debug_assert!` — compiled out in
//!   release — passes). Existing sites live in the checked-in allowlist
//!   `lint-allow.txt`, whose per-file counts may only *shrink*: a new site
//!   fails the build, and so does a stale (over-counted) entry, forcing the
//!   allowlist to track reality downward.
//! * **Nondeterminism hazards**: `HashMap`/`HashSet` (iteration order is
//!   randomized — numeric paths must use `BTreeMap`/sorted `Vec`s) and the
//!   wall-clock sources `Instant::now` / `SystemTime::now`; `==`/`!=`
//!   against float literals are printed as warnings.
//! * **Lossy numeric `as` casts** and **raw storage indexing in
//!   `crates/reram/`** (`.slots[`, `.cells[`, `.words[`), both shrink-only.
//!
//! **Semantic passes** (`--semantic`) — the `check::callgraph` layer:
//!
//! * **PL060 panic reachability**: which `try_*`/checkpoint/report-facing
//!   `pub` fns can transitively reach a panic, with a witness call chain.
//!   Counted per file under the `pl060` allowlist pattern, shrink-only.
//! * **PL062 determinism taint**: nondeterminism sources reaching the
//!   weight/report sinks outside the seed stream. `pl062`, shrink-only.
//!
//! Physical units are not linted: the analytic model computes in the
//! `pipelayer_reram::units` newtypes, so the compiler rejects mixed-unit
//! arithmetic (the retired PL070–PL072 suffix-inference passes).
//!
//! Test modules (`#[cfg(test)]`), comments and doc lines are exempt.
//!
//! ```text
//! src-lint [--root DIR] [--semantic] [--write-allowlist]
//! ```
//!
//! `--write-allowlist` regenerates `lint-allow.txt` from current reality;
//! without `--semantic` it preserves the existing `pl060`/`pl062` entries
//! rather than dropping them. Exit status: 0 clean, 1 on any lint failure,
//! 2 on usage/I-O errors.

use pipelayer_check::callgraph::{self, Workspace};
use pipelayer_check::{dettaint, lex, panicreach};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The allowlist file, relative to the workspace root.
const ALLOWLIST: &str = "lint-allow.txt";

/// Allowlist patterns produced by `--semantic`, not the line lint.
const SEMANTIC_PATTERNS: &[&str] = &["pl060", "pl062"];

/// One forbidden-pattern class. The needles are assembled from fragments at
/// runtime so this file does not match its own patterns.
#[derive(Debug, Clone)]
struct Pattern {
    /// Allowlist key (`unwrap`, `expect`, `panic`, `assert`, `hashmap`,
    /// `cast`, `wallclock`, `rawindex`).
    name: &'static str,
    /// Exact substring to search for.
    needle: String,
    /// Whether the character before a match must not be `[A-Za-z0-9_]`.
    word_start: bool,
    /// When set, the pattern only applies to files whose workspace-relative
    /// path starts with this prefix (e.g. `crates/reram/`).
    scope: Option<&'static str>,
}

/// An everywhere-applicable pattern (no path scope).
fn pat(name: &'static str, needle: String, word_start: bool) -> Pattern {
    Pattern {
        name,
        needle,
        word_start,
        scope: None,
    }
}

/// A raw-index pattern on the ReRAM crate's internal storage vectors
/// (`.slots[`, `.cells[`, `.words[`): direct indexing is how the
/// `input_bits > 32` out-of-bounds panic slipped into `SpikeTrain::fires` —
/// accessors with explicit bounds behaviour (`get`, `slot_words`,
/// `col_words`, `level`) are the sanctioned surface. Existing sites are
/// allowlisted (shrink-only).
fn raw_index(field: String) -> Pattern {
    Pattern {
        name: "rawindex",
        needle: [field.as_str(), "["].concat(),
        word_start: false,
        scope: Some("crates/reram/"),
    }
}

fn patterns() -> Vec<Pattern> {
    vec![
        pat("unwrap", ["unwrap", "()"].concat(), true),
        pat("expect", [".exp", "ect("].concat(), false),
        pat("panic", ["pan", "ic!("].concat(), true),
        pat("assert", ["ass", "ert!("].concat(), true),
        pat("hashmap", ["Hash", "Map"].concat(), true),
        pat("hashmap", ["Hash", "Set"].concat(), true),
        pat("wallclock", ["Inst", "ant::now("].concat(), true),
        pat("wallclock", ["System", "Time::now("].concat(), true),
        pat("cast", ["as", " f32"].concat(), true),
        pat("cast", ["as", " u8"].concat(), true),
        pat("cast", ["as", " u16"].concat(), true),
        pat("cast", ["as", " u32"].concat(), true),
        pat("cast", ["as", " i8"].concat(), true),
        pat("cast", ["as", " i16"].concat(), true),
        pat("cast", ["as", " i32"].concat(), true),
        raw_index([".slo", "ts"].concat()),
        raw_index([".cel", "ls"].concat()),
        raw_index([".wor", "ds"].concat()),
    ]
}

fn is_word_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Occurrences of `pat` in `code`, honouring the word-start rule.
fn count_matches(code: &str, pat: &Pattern) -> usize {
    let bytes = code.as_bytes();
    let mut n = 0;
    let mut from = 0;
    while let Some(pos) = code[from..].find(&pat.needle) {
        let at = from + pos;
        let boundary = !pat.word_start || at == 0 || !is_word_char(bytes[at - 1]);
        if boundary {
            n += 1;
        }
        from = at + pat.needle.len();
    }
    n
}

/// `true` if the token run touching `==`/`!=` on either side looks like a
/// float literal (`1.0`, `0.`, `.5`).
fn float_adjacent(code: &str, op_at: usize, op_len: usize) -> bool {
    let before = code[..op_at].trim_end();
    let after = code[op_at + op_len..].trim_start();
    let tail: String = before
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '_')
        .collect();
    let head: String = after
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '_')
        .collect();
    let is_float =
        |t: &str| t.contains('.') && t.chars().any(|c| c.is_ascii_digit()) && !t.starts_with("..");
    is_float(&tail.chars().rev().collect::<String>()) || is_float(&head)
}

#[derive(Debug, Default)]
struct FileReport {
    /// pattern name → hit count in non-test code.
    counts: BTreeMap<&'static str, usize>,
    /// (line number, code) for float-equality warnings.
    float_eq: Vec<(usize, String)>,
}

/// Scans one file, skipping `#[cfg(test)]` items/modules. The whole file is
/// [`lex::mask`]ed first (newline- and offset-preserving), so string/char/
/// raw-string interiors and comments — including multi-line ones the old
/// per-line sanitizer could not see — can never match a needle or derail
/// the test-module brace counting.
fn scan_file(text: &str, pats: &[Pattern]) -> FileReport {
    let mut report = FileReport::default();
    let mut pending_cfg_test = false;
    let mut skip_depth: i64 = -1; // >= 0 while inside a #[cfg(test)] block
    let cfg_test_attr: String = ["#[cfg(", "test)]"].concat();
    let masked = lex::mask(text);

    for (lineno, code) in masked.lines().enumerate() {
        let trimmed = code.trim_start();

        if skip_depth >= 0 {
            skip_depth += code.matches('{').count() as i64;
            skip_depth -= code.matches('}').count() as i64;
            if skip_depth <= 0 {
                skip_depth = -1;
            }
            continue;
        }
        if trimmed.starts_with(&cfg_test_attr) {
            pending_cfg_test = true;
            continue;
        }
        if pending_cfg_test {
            if trimmed.starts_with("#[") {
                continue; // further attributes on the same test item
            }
            if trimmed.is_empty() {
                continue; // blanked doc/comment line between attr and item
            }
            pending_cfg_test = false;
            let opens = code.matches('{').count() as i64 - code.matches('}').count() as i64;
            if opens > 0 {
                skip_depth = opens;
            }
            continue; // the item line itself is test code
        }

        for pat in pats {
            let n = count_matches(code, pat);
            if n > 0 {
                *report.counts.entry(pat.name).or_insert(0) += n;
            }
        }
        for op in ["==", "!="] {
            let mut from = 0;
            while let Some(pos) = code[from..].find(op) {
                let at = from + pos;
                if float_adjacent(code, at, op.len()) {
                    report.float_eq.push((lineno + 1, code.trim().to_string()));
                }
                from = at + op.len();
            }
        }
    }
    report
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

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

/// Output of the `--semantic` passes.
#[derive(Debug, Default)]
struct SemanticReport {
    /// `(path, "pl060"/"pl062")` → count, merged into the allowlist check.
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
    let mut semantic = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => {
                root = Some(PathBuf::from(args.next().ok_or("--root needs a value")?));
            }
            "--write-allowlist" => write_allowlist = true,
            "--semantic" => semantic = true,
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

    let pats = patterns();
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut float_warnings: Vec<String> = Vec::new();
    let mut totals: BTreeMap<String, usize> = BTreeMap::new();
    for path in callgraph::collect_sources(&root)? {
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let relpath = rel(&root, &path);
        let file_pats: Vec<Pattern> = pats
            .iter()
            .filter(|p| p.scope.is_none_or(|s| relpath.starts_with(s)))
            .cloned()
            .collect();
        let report = scan_file(&text, &file_pats);
        for (name, n) in report.counts {
            counts.insert((relpath.clone(), name.to_string()), n);
            *totals.entry(name.to_string()).or_insert(0) += n;
        }
        for (lineno, code) in report.float_eq {
            float_warnings.push(format!(
                "warning[float-eq]: {relpath}:{lineno}: float-literal equality: `{code}`"
            ));
        }
    }

    let sem = if semantic {
        Some(run_semantic(&root)?)
    } else {
        None
    };
    if let Some(sem) = &sem {
        for ((path, pat), &n) in &sem.counts {
            counts.insert((path.clone(), pat.clone()), n);
            *totals.entry(pat.clone()).or_insert(0) += n;
        }
    }

    let allow_path = root.join(ALLOWLIST);
    let allow_text = fs::read_to_string(&allow_path).unwrap_or_default();
    let allowed = parse_allowlist(&allow_text)?;

    if write_allowlist {
        // Without --semantic, preserve the existing pl060/pl062 entries
        // instead of silently dropping them.
        if sem.is_none() {
            for ((path, pat), &n) in &allowed {
                if SEMANTIC_PATTERNS.contains(&pat.as_str()) {
                    counts.insert((path.clone(), pat.clone()), n);
                    *totals.entry(pat.clone()).or_insert(0) += n;
                }
            }
        }
        let mut out = String::new();
        out.push_str(
            "# src-lint allowlist. Checked by `cargo run -p pipelayer-check --bin src-lint`.\n",
        );
        out.push_str("# Format: <path> <pattern> <count>. Counts may only SHRINK: a new site\n");
        out.push_str("# fails the lint, and so does an over-counted (stale) entry.\n");
        out.push_str("# pl060/pl062 rows come from `src-lint --semantic` (call-graph passes).\n");
        out.push_str("# Baseline at last regeneration: ");
        let summary: Vec<String> = totals.iter().map(|(k, v)| format!("{k}={v}")).collect();
        out.push_str(&summary.join(" "));
        out.push('\n');
        for ((path, pat), n) in &counts {
            out.push_str(&format!("{path} {pat} {n}\n"));
        }
        fs::write(&allow_path, out).map_err(|e| format!("cannot write {ALLOWLIST}: {e}"))?;
        println!("wrote {} entries to {ALLOWLIST}", counts.len());
        return Ok(true);
    }

    let mut failures: Vec<String> = Vec::new();
    for ((path, pat), &n) in &counts {
        let cap = allowed
            .get(&(path.clone(), pat.clone()))
            .copied()
            .unwrap_or(0);
        if n > cap {
            failures.push(format!(
                "error[{pat}]: {path}: {n} non-test site(s), allowlist caps it at {cap} — \
                 convert the new site to Result or shrink it some other way"
            ));
            if let Some(sem) = &sem {
                if let Some(details) = sem.details.get(&(path.clone(), pat.clone())) {
                    for d in details {
                        failures.push(format!("  {d}"));
                    }
                }
            }
        }
    }
    for ((path, pat), &cap) in &allowed {
        // Semantic rows only bind when the semantic passes actually ran.
        if sem.is_none() && SEMANTIC_PATTERNS.contains(&pat.as_str()) {
            continue;
        }
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

    for w in &float_warnings {
        println!("{w}");
    }
    for f in &failures {
        println!("{f}");
    }
    let summary: Vec<String> = totals.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "src-lint{}: {} file-pattern entries ({}), {} float-eq warning(s), {} failure(s)",
        if semantic { " --semantic" } else { "" },
        counts.len(),
        summary.join(" "),
        float_warnings.len(),
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
mod tests {
    use super::*;

    #[test]
    fn counts_forbidden_patterns_with_boundaries() {
        let pats = patterns();
        let text = "fn f() { x.unwrap(); debug_assert!(x > 0); assert!(y); }\n";
        let report = scan_file(text, &pats);
        assert_eq!(report.counts.get("unwrap"), Some(&1));
        assert_eq!(report.counts.get("assert"), Some(&1)); // not debug_assert!
    }

    #[test]
    fn test_modules_and_comments_are_exempt() {
        let pats = patterns();
        let text = "\
fn lib() { real(); }
// x.unwrap() in a comment
/// doc: panics via assert!(x)
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); panic!(\"boom\"); }
}
fn lib2() { x.expect(\"invariant\"); }
";
        let report = scan_file(text, &pats);
        assert_eq!(report.counts.get("unwrap"), None);
        assert_eq!(report.counts.get("panic"), None);
        assert_eq!(report.counts.get("expect"), Some(&1));
    }

    #[test]
    fn multiline_strings_and_block_comments_are_exempt() {
        // The old per-line sanitizer treated the middle of a multi-line
        // string as code; whole-file masking must not.
        let pats = patterns();
        let text = "\
fn f() -> &'static str {
    \"first line
     x.unwrap() quoted
     last\"
}
/* block comment
   panic!(\"still a comment\")
*/
fn g(x: Option<u8>) -> u8 { x.unwrap() }
";
        let report = scan_file(text, &pats);
        assert_eq!(report.counts.get("unwrap"), Some(&1));
        assert_eq!(report.counts.get("panic"), None);
    }

    #[test]
    fn float_equality_is_flagged_ints_are_not() {
        let pats = patterns();
        let report = scan_file("if x == 0.0 { }\nif n == 3 { }\nif y != 1.5 { }\n", &pats);
        assert_eq!(report.float_eq.len(), 2);
    }

    #[test]
    fn hash_collections_are_flagged() {
        let pats = patterns();
        let needle = ["use std::collections::Hash", "Map;\n"].concat();
        let report = scan_file(&needle, &pats);
        assert_eq!(report.counts.get("hashmap"), Some(&1));
    }

    #[test]
    fn lossy_casts_are_flagged_lossless_conversions_are_not() {
        let pats = patterns();
        let text = "\
fn f(x: f64) -> f32 { x as f32 }
fn g(n: usize) -> u8 { n as u8 }
fn h(n: u16) -> u64 { u64::from(n) }
fn k(n: u32) -> usize { n as usize }
";
        let report = scan_file(text, &pats);
        assert_eq!(report.counts.get("cast"), Some(&2));
    }

    #[test]
    fn wall_clock_sources_are_flagged() {
        let pats = patterns();
        let text = "\
let t0 = std::time::Instant::now();
let wall = SystemTime::now();
let cycles = clock.now(); // a simulated clock is fine
";
        let report = scan_file(text, &pats);
        assert_eq!(report.counts.get("wallclock"), Some(&2));
    }

    #[test]
    fn raw_reram_indexing_is_flagged_and_scoped() {
        let pats = patterns();
        let text =
            "fn f(&self) { let x = self.cells[3]; let w = &self.words[0..2]; self.slots[i] = true; }\n";
        let report = scan_file(text, &pats);
        assert_eq!(report.counts.get("rawindex"), Some(&3));
        // The rule is scoped to the ReRAM crate; `self.slots[...]` in, say,
        // the core crate's buffers is someone else's business.
        let scoped: Vec<_> = pats.iter().filter(|p| p.name == "rawindex").collect();
        assert_eq!(scoped.len(), 3);
        let applies = |rel: &str| {
            scoped
                .iter()
                .any(|p| p.scope.is_none_or(|s| rel.starts_with(s)))
        };
        assert!(applies("crates/reram/src/spike.rs"));
        assert!(!applies("crates/core/src/buffers.rs"));
    }

    #[test]
    fn allowlist_roundtrip() {
        let map = parse_allowlist("# c\npath.rs unwrap 3\n\npath.rs assert 1\n").expect("parses");
        assert_eq!(map.get(&("path.rs".into(), "unwrap".into())), Some(&3));
        assert!(parse_allowlist("broken line").is_err());
    }
}
