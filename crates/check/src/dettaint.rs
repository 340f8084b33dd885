//! PL062 — determinism taint over the call graph.
//!
//! The paper's pinned numbers (Tables 5–7, Fig. 13) require bitwise
//! determinism: weights and bench-report JSON must be pure functions of the
//! seed. Clippy's `disallowed_methods`/`disallowed_types` already flag each
//! nondeterminism source where it is written; this pass adds call-graph
//! propagation: a function is **tainted**
//! if its body contains a source — wall clock (`Instant::now`,
//! `SystemTime::now`), ambient RNG (`thread_rng`, `from_entropy`,
//! `rand::random`), or hash-order iteration (`HashMap`/`HashSet`) — or if
//! it calls a tainted function. Taint does **not** propagate through the
//! seed stream (`seedstream` module): seeded derivation is the sanctioned
//! way to consume entropy.
//!
//! Findings are reported at the configured **sinks** — the weight/report
//! writing surface (serialization, checkpointing, bench reports): a sink
//! function that is tainted can produce output that differs run to run.
//!
//! Caveats, same family as `check::callgraph`: taint flows along call
//! edges only. A caller that samples the clock and passes the value *as
//! data* into a clean sink is not seen here — that pattern is exactly what
//! the bench binaries do legitimately (wall-clock timings reported as
//! measurements, not weights), and each such read carries its own
//! `#[expect(clippy::disallowed_methods)]` instead.

use crate::callgraph::{FnItem, Recv, Workspace};
use crate::diag::{self, Diagnostic};
use crate::lex::TokKind;
use std::collections::BTreeMap;

/// `Type::method()` calls that read ambient nondeterminism.
const SOURCE_CALLS: &[(&str, &str)] = &[
    ("Instant", "now"),
    ("SystemTime", "now"),
    ("rand", "random"),
];

/// Bare or method calls that read ambient nondeterminism.
const SOURCE_NAMES: &[&str] = &["thread_rng", "from_entropy"];

/// Type identifiers whose iteration order is randomized.
const SOURCE_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Gate configuration for [`findings`].
#[derive(Debug, Clone)]
pub struct Options {
    /// A function defined in a file whose path contains one of these is a
    /// sink: its output must be deterministic.
    pub sink_paths: Vec<String>,
    /// Taint does not propagate out of files whose path contains one of
    /// these (the seeded-entropy surface).
    pub sanitizer_paths: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            sink_paths: vec![
                "nn/src/serialize.rs".to_string(),
                "bench/src/report.rs".to_string(),
                "core/src/checkpoint".to_string(),
            ],
            sanitizer_paths: vec!["seedstream".to_string()],
        }
    }
}

/// What kind of direct source a function contains.
#[derive(Debug, Clone)]
pub struct SourceSite {
    pub what: String,
    pub line: usize,
}

/// Scans one function body for its first nondeterminism source.
fn direct_source(ws: &Workspace, f: &FnItem) -> Option<SourceSite> {
    for call in &f.calls {
        let hit = match &call.recv {
            Recv::Ty(t) => SOURCE_CALLS
                .iter()
                .any(|(ty, m)| ty == t && *m == call.name),
            Recv::Dot | Recv::Plain => SOURCE_NAMES.contains(&call.name.as_str()),
            _ => false,
        };
        if hit {
            return Some(SourceSite {
                what: format!("{}()", call.name),
                line: call.line,
            });
        }
    }
    // Hash-ordered collections anywhere in the body (declaration, turbofish,
    // or construction) — iteration order is per-process random.
    if let (Some((lo, hi)), Some(file)) = (f.body, ws.files.get(f.file)) {
        for k in lo..hi {
            let Some(t) = file.toks.get(k) else { break };
            if t.kind == TokKind::Ident && SOURCE_TYPES.contains(&t.text(&file.src)) {
                return Some(SourceSite {
                    what: t.text(&file.src).to_string(),
                    line: t.line,
                });
            }
        }
    }
    None
}

/// Per-function taint facts.
#[derive(Debug)]
pub struct Analysis {
    pub direct: Vec<Option<SourceSite>>,
    /// fn index → `(callee, call line)` through which taint arrives.
    pub via: Vec<Option<(usize, usize)>>,
}

impl Analysis {
    pub fn tainted(&self, f: usize) -> bool {
        self.direct.get(f).is_some_and(Option::is_some)
            || self.via.get(f).is_some_and(Option::is_some)
    }

    /// Witness chain from `start` down to a concrete source.
    pub fn witness(&self, ws: &Workspace, start: usize) -> String {
        let mut chain = String::new();
        let mut at = start;
        let mut hops = 0usize;
        while let Some(f) = ws.fns.get(at) {
            if !chain.is_empty() {
                chain.push_str(" -> ");
            }
            chain.push_str(&format!("{} ({})", f.qualified(), ws.location(f)));
            if let Some(Some(site)) = self.direct.get(at) {
                let file = ws.files.get(f.file).map(|s| s.path.as_str()).unwrap_or("?");
                chain.push_str(&format!(" -> {} at {file}:{}", site.what, site.line));
                break;
            }
            match self.via.get(at) {
                Some(&Some((next, _))) if hops < 32 && next != at => {
                    at = next;
                    hops += 1;
                }
                _ => break,
            }
        }
        chain
    }
}

fn in_paths(ws: &Workspace, f: &FnItem, paths: &[String]) -> bool {
    ws.files
        .get(f.file)
        .is_some_and(|s| paths.iter().any(|p| s.path.contains(p.as_str())))
}

/// Propagates taint backwards through the call graph, stopping at the
/// sanitizer surface.
pub fn analyze(ws: &Workspace, opts: &Options) -> Analysis {
    let n = ws.fns.len();
    let mut direct: Vec<Option<SourceSite>> = Vec::with_capacity(n);
    for f in &ws.fns {
        direct.push(direct_source(ws, f));
    }
    let edges = ws.edges();
    let mut rev: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (caller, outs) in edges.iter().enumerate() {
        for &(callee, line) in outs {
            if let Some(slot) = rev.get_mut(callee) {
                slot.push((caller, line));
            }
        }
    }
    let mut via: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut work: Vec<usize> = (0..n).filter(|&i| direct[i].is_some()).collect();
    while let Some(f) = work.pop() {
        // Sanitizer fns may be tainted inside but do not leak taint upward.
        if ws
            .fns
            .get(f)
            .is_some_and(|item| in_paths(ws, item, &opts.sanitizer_paths))
        {
            continue;
        }
        for &(caller, line) in rev.get(f).map(Vec::as_slice).unwrap_or(&[]) {
            if direct[caller].is_none() && via[caller].is_none() {
                via[caller] = Some((f, line));
                work.push(caller);
            }
        }
    }
    Analysis { direct, via }
}

/// PL062 findings at the sink surface, plus per-file counts for the
/// allowlist discipline.
pub fn findings(ws: &Workspace, opts: &Options) -> (Vec<Diagnostic>, BTreeMap<String, usize>) {
    let analysis = analyze(ws, opts);
    let mut diags = Vec::new();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if !in_paths(ws, f, &opts.sink_paths) || !analysis.tainted(i) {
            continue;
        }
        let chain = analysis.witness(ws, i);
        diags.push(Diagnostic::warning(
            diag::SEM_NONDET_TAINT,
            ws.location(f),
            format!(
                "sink `{}` can reach a nondeterminism source: {chain}",
                f.qualified()
            ),
            "route entropy through the seed stream and iterate BTree/sorted \
             collections so output is a pure function of the seed",
        ));
        let path = ws
            .files
            .get(f.file)
            .map(|s| s.path.clone())
            .unwrap_or_default();
        *counts.entry(path).or_insert(0) += 1;
    }
    (diags, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(files: Vec<(&str, &str)>) -> Workspace {
        Workspace::build(
            files
                .into_iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect(),
        )
    }

    #[test]
    fn sink_reaching_a_clock_is_flagged_with_a_chain() {
        let w = build(vec![(
            "crates/bench/src/report.rs",
            "fn stamp() -> u64 { Instant::now(); 0 }\npub fn write_report() { stamp(); }",
        )]);
        let (diags, counts) = findings(&w, &Options::default());
        assert_eq!(diags.len(), 2, "{diags:?}"); // stamp itself + write_report
        assert!(diags.iter().any(|d| d.message.contains("write_report")));
        assert!(diags.iter().any(|d| d.message.contains("now()")));
        assert_eq!(counts.get("crates/bench/src/report.rs"), Some(&2));
    }

    #[test]
    fn taint_does_not_cross_the_seedstream() {
        let w = build(vec![
            (
                "crates/nn/src/seedstream.rs",
                "pub fn derive(seed: u64) -> u64 { from_entropy(); seed }",
            ),
            ("crates/nn/src/serialize.rs", "pub fn save() { derive(7); }"),
        ]);
        let (diags, _) = findings(&w, &Options::default());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn hashmap_in_a_sink_body_is_a_direct_source() {
        let w = build(vec![(
            "crates/nn/src/serialize.rs",
            "pub fn save() { let m: HashMap<u8, u8> = Default::default(); }",
        )]);
        let (diags, _) = findings(&w, &Options::default());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("HashMap"));
    }

    #[test]
    fn clean_sinks_and_non_sink_taint_produce_no_findings() {
        let w = build(vec![
            (
                "crates/nn/src/serialize.rs",
                "pub fn save(w: &[f32]) { emit(w); }\nfn emit(_w: &[f32]) {}",
            ),
            (
                "crates/bench/src/bin/bench_mvm.rs",
                "fn main() { Instant::now(); }",
            ),
        ]);
        let (diags, _) = findings(&w, &Options::default());
        assert!(diags.is_empty(), "{diags:?}");
    }
}
