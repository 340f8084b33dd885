//! PL060 — panic reachability over the call graph.
//!
//! A function *directly* panics if its body contains a panicking macro
//! (`panic!`, `unreachable!`, `todo!`, `unimplemented!`, `assert!`,
//! `assert_eq!`, `assert_ne!` — `debug_assert*` is compiled out of release
//! builds and exempt) or a `.unwrap()` / `.expect(…)` method call; slice
//! indexing (`expr[…]`) is a third, opt-in category. Direct sites are then
//! propagated backwards through [`Workspace::edges`] to a fixed point, and
//! every flagged function carries a **witness call chain** down to a
//! concrete panic site.
//!
//! Reporting is gated on the *input boundary*: the `pub` functions where
//! outside input is checked — by default the `try_*` constructors, the
//! `load_*` and `*checkpoint*` decoders and `ReramMlp::restore_device_state`.
//! Code that runs the model (`Accelerator::report`, `Trainer::resume_from`)
//! is off the surface: it reaches asserts that guard model invariants on
//! paths a path-insensitive pass cannot see are already checked. The
//! analysis itself covers every function, so callers can also query
//! [`Analysis::can_panic`] directly.
//!
//! Soundness caveat (see `check::callgraph`): call edges are best-effort —
//! calls through closures, fn pointers, or macros are invisible, so "no
//! finding" does not prove panic-freedom; it proves no *visible* path.

use crate::callgraph::{FnItem, Recv, Workspace};
use crate::diag::{self, Diagnostic};
use crate::lex::TokKind;

/// Macros whose expansion unconditionally or conditionally panics.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Method names that panic on the error/none case.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// What kind of direct panic site a function contains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PanicKind {
    /// `panic!` / `assert!` / … macro invocation.
    Macro(String),
    /// `.unwrap()` / `.expect(…)`.
    Method(String),
    /// `expr[…]` slice/array indexing (opt-in).
    SliceIndex,
}

impl core::fmt::Display for PanicKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PanicKind::Macro(m) => write!(f, "{m}!"),
            PanicKind::Method(m) => write!(f, ".{m}()"),
            PanicKind::SliceIndex => f.write_str("slice index"),
        }
    }
}

/// The first direct panic site found in one function body.
#[derive(Debug, Clone)]
pub struct DirectSite {
    pub kind: PanicKind,
    /// 1-based source line of the site.
    pub line: usize,
}

/// Gate configuration for [`findings`].
#[derive(Debug, Clone)]
pub struct Options {
    /// Count `expr[…]` indexing as a panic source (off by default — clippy's
    /// `indexing_slicing` covers the modules that own the storage vectors).
    pub include_slice_index: bool,
    /// A `pub` fn whose name starts with one of these is surface.
    pub surface_prefixes: Vec<String>,
    /// A `pub` fn whose qualified name (`Type::name`) contains one of these
    /// is surface.
    pub surface_substrings: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            include_slice_index: false,
            surface_prefixes: vec!["try_".to_string(), "load_".to_string()],
            surface_substrings: vec![
                "checkpoint".to_string(),
                "ReramMlp::restore_device_state".to_string(),
            ],
        }
    }
}

/// Per-function panic-reachability facts.
#[derive(Debug)]
pub struct Analysis {
    /// fn index → its first direct panic site, if any.
    pub direct: Vec<Option<DirectSite>>,
    /// fn index → `(callee fn index, call line)` of the first edge through
    /// which a panic becomes reachable (for functions with no direct site).
    pub via: Vec<Option<(usize, usize)>>,
}

impl Analysis {
    /// `true` if `f` can transitively reach a panic site.
    pub fn can_panic(&self, f: usize) -> bool {
        self.direct.get(f).is_some_and(Option::is_some)
            || self.via.get(f).is_some_and(Option::is_some)
    }

    /// Renders the witness call chain from `start` down to a direct site:
    /// `a (f.rs:3) -> b (f.rs:9) -> assert! at f.rs:10`.
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
                chain.push_str(&format!(" -> {} at {file}:{}", site.kind, site.line));
                break;
            }
            match self.via.get(at) {
                Some(&Some((next, _line))) if hops < 32 && next != at => {
                    at = next;
                    hops += 1;
                }
                _ => break,
            }
        }
        chain
    }
}

/// Scans one function body for its first direct panic site.
fn direct_site(ws: &Workspace, f: &FnItem, include_slice_index: bool) -> Option<DirectSite> {
    for call in &f.calls {
        match &call.recv {
            Recv::Macro if PANIC_MACROS.contains(&call.name.as_str()) => {
                return Some(DirectSite {
                    kind: PanicKind::Macro(call.name.clone()),
                    line: call.line,
                });
            }
            Recv::Dot if PANIC_METHODS.contains(&call.name.as_str()) => {
                return Some(DirectSite {
                    kind: PanicKind::Method(call.name.clone()),
                    line: call.line,
                });
            }
            _ => {}
        }
    }
    if include_slice_index {
        if let (Some((lo, hi)), Some(file)) = (f.body, ws.files.get(f.file)) {
            for k in lo..hi {
                let Some(t) = file.toks.get(k) else { break };
                if t.kind == TokKind::Punct && t.text(&file.src) == "[" {
                    // Indexing when preceded by an expression tail; `[` after
                    // an operator/opener is an array literal or attribute.
                    let indexing =
                        k.checked_sub(1)
                            .and_then(|p| file.toks.get(p))
                            .is_some_and(|p| {
                                let s = p.text(&file.src);
                                p.kind == TokKind::Ident && !matches!(s, "mut" | "ref" | "return")
                                    || s == ")"
                                    || s == "]"
                            });
                    if indexing {
                        return Some(DirectSite {
                            kind: PanicKind::SliceIndex,
                            line: t.line,
                        });
                    }
                }
            }
        }
    }
    None
}

/// Runs the fixed-point propagation over the whole workspace.
pub fn analyze(ws: &Workspace, opts: &Options) -> Analysis {
    let n = ws.fns.len();
    let mut direct: Vec<Option<DirectSite>> = Vec::with_capacity(n);
    for f in &ws.fns {
        direct.push(direct_site(ws, f, opts.include_slice_index));
    }

    let edges = ws.edges();
    // Reverse adjacency: callee → (caller, call line).
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
        for &(caller, line) in rev.get(f).map(Vec::as_slice).unwrap_or(&[]) {
            if direct[caller].is_none() && via[caller].is_none() {
                via[caller] = Some((f, line));
                work.push(caller);
            }
        }
    }
    Analysis { direct, via }
}

/// `true` if `f` belongs to the reported input boundary.
fn is_surface(f: &FnItem, opts: &Options) -> bool {
    let qualified = f.qualified();
    f.is_pub
        && (opts
            .surface_prefixes
            .iter()
            .any(|p| f.name.starts_with(p.as_str()))
            || opts
                .surface_substrings
                .iter()
                .any(|s| qualified.contains(s.as_str())))
}

/// PL060 findings for the configured surface, one per surface fn that can
/// panic, each with its witness chain. Deterministic order (workspace
/// file/function order).
pub fn findings(ws: &Workspace, opts: &Options) -> Vec<Diagnostic> {
    let analysis = analyze(ws, opts);
    ws.fns
        .iter()
        .enumerate()
        .filter(|&(i, f)| is_surface(f, opts) && analysis.can_panic(i))
        .map(|(i, f)| {
            Diagnostic::error(
                diag::SEM_PANIC_REACHABLE,
                ws.location(f),
                format!(
                    "pub fn `{}` can reach a panic: {}",
                    f.qualified(),
                    analysis.witness(ws, i)
                ),
                "return the error through Result (or demote the site to debug_assert!) \
                 so the input boundary cannot abort",
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::build(vec![("crates/x/src/lib.rs".to_string(), src.to_string())])
    }

    #[test]
    fn direct_and_transitive_panics_are_found() {
        let w = ws(
            "fn deep() { panic!(\"boom\") }\nfn mid() { deep() }\npub fn try_top() -> u8 { mid(); 0 }\nfn clean() {}",
        );
        let a = analyze(&w, &Options::default());
        assert!(a.can_panic(0) && a.can_panic(1) && a.can_panic(2));
        assert!(!a.can_panic(3));
        let chain = a.witness(&w, 2);
        assert!(chain.contains("try_top"), "{chain}");
        assert!(chain.contains("panic! at crates/x/src/lib.rs:1"), "{chain}");
    }

    #[test]
    fn debug_assert_is_exempt_assert_is_not() {
        let w = ws("fn a() { debug_assert!(true); }\nfn b() { assert!(true); }");
        let a = analyze(&w, &Options::default());
        assert!(!a.can_panic(0));
        assert!(a.can_panic(1));
    }

    #[test]
    fn unwrap_and_expect_are_direct_sites() {
        let w = ws("fn a(x: Option<u8>) -> u8 { x.unwrap() }\nfn b(x: Option<u8>) -> u8 { x.expect(\"set\") }");
        let a = analyze(&w, &Options::default());
        assert!(matches!(
            a.direct[0],
            Some(DirectSite {
                kind: PanicKind::Method(_),
                ..
            })
        ));
        assert!(a.can_panic(1));
    }

    #[test]
    fn slice_index_is_opt_in() {
        let w = ws("fn a(v: &[u8], i: usize) -> u8 { v[i] }");
        let strict = Options {
            include_slice_index: true,
            ..Options::default()
        };
        assert!(!analyze(&w, &Options::default()).can_panic(0));
        assert!(analyze(&w, &strict).can_panic(0));
    }

    #[test]
    fn findings_are_gated_on_the_pub_surface() {
        let w = ws(
            "fn helper() { panic!(\"x\") }\npub fn try_make() { helper() }\npub fn other_pub() { helper() }\nfn try_private() { helper() }",
        );
        let diags = findings(&w, &Options::default());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("try_make"));
        assert!(diags[0].message.contains("->"), "witness chain present");
    }

    #[test]
    fn a_try_fn_reaching_an_unwrap_in_a_transitive_dependency_is_flagged() {
        let manifest = |name: &str, dep: &str| {
            format!("[package]\nname = \"{name}\"\n[dependencies]\n{dep}\n")
        };
        let w = Workspace::build(vec![
            (
                "crates/core/Cargo.toml".into(),
                manifest("pl-core", "pl-nn = \"0\""),
            ),
            (
                "crates/core/src/lib.rs".into(),
                "pub fn try_build(t: T) -> u8 { t.first() }".into(),
            ),
            (
                "crates/nn/Cargo.toml".into(),
                manifest("pl-nn", "pl-tensor = \"0\""),
            ),
            ("crates/tensor/Cargo.toml".into(), manifest("pl-tensor", "")),
            (
                "crates/tensor/src/lib.rs".into(),
                "struct T;\nimpl T { pub fn first(&self) -> u8 { self.get().unwrap() } }".into(),
            ),
        ]);
        let diags = findings(&w, &Options::default());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0]
                .message
                .contains(".unwrap() at crates/tensor/src/lib.rs:2"),
            "{}",
            diags[0].message
        );
    }

    /// The default surface on this workspace is its input boundary: the
    /// decoders, the checkpoint writer, the device-state restore and every
    /// `pub fn try_*` — and not the model-running entry points.
    #[test]
    fn the_default_surface_is_the_input_boundary() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let w = Workspace::load(&root).unwrap();
        let opts = Options::default();
        let surface: Vec<String> = w
            .fns
            .iter()
            .filter(|f| is_surface(f, &opts))
            .map(FnItem::qualified)
            .collect();
        for name in [
            "load_params",
            "load_sections",
            "load_checkpoint",
            "save_checkpoint",
            "ReramMlp::restore_device_state",
            "NetSpec::try_resolve",
            "Tensor::try_from_vec",
        ] {
            assert!(surface.iter().any(|s| s == name), "{name} missing");
        }
        let try_fns = w
            .fns
            .iter()
            .filter(|f| f.is_pub && f.name.starts_with("try_"));
        for f in try_fns {
            assert!(surface.contains(&f.qualified()), "{}", f.qualified());
        }
        for off in [
            "Accelerator::report",
            "Trainer::resume_from",
            "Trainer::fit",
        ] {
            assert!(!surface.iter().any(|s| s == off), "{off} is on the surface");
        }
    }
}
