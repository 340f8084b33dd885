//! Item extraction and a crate-aware workspace call graph over
//! [`crate::lex`] token streams.
//!
//! The extractor recognises `fn` items (free functions, inherent/trait
//! methods with their `impl`/`trait` self type), records their spans and
//! visibility, skips `#[cfg(test)]` items and modules wholesale, and
//! collects **best-effort, receiver-aware call edges**:
//!
//! * `self.m(…)`            → method `m` of the enclosing impl type,
//! * `Type::m(…)` / `Self::m(…)` → method `m` of `Type`,
//! * `free(…)`              → free functions named `free`,
//! * `module::f(…)`         → free functions named `f` in any module,
//! * `expr.m(…)`            → *any* visible method named `m` (the
//!   receiver's type is unknown without type inference, so this
//!   over-approximates — a may-call edge set),
//! * `name!(…)`             → recorded as a macro site, not a call edge.
//!
//! Every candidate is first narrowed by the **crate graph**: a call in
//! `crates/a` resolves only into `crates/a` itself or a crate in `a`'s
//! transitive `[dependencies]` closure, read from each `crates/*/Cargo.toml`
//! (a value's type, and so its methods, can only come from there), and no
//! edge enters a `src/bin/*` file from any other file (a bin is a leaf no
//! library links against).
//!
//! Soundness caveats (documented, deliberate): calls through function
//! pointers, closures passed as values, trait objects dispatched outside
//! the workspace, and macro-generated code are **not** seen — the graph
//! may *miss* edges. Conversely `expr.m(…)` resolution may *add* edges to
//! same-named methods of unrelated types in visible crates, and
//! `module::f(…)` to same-named free functions of unrelated modules. The
//! PL060 pass built on top therefore reports "may reach" facts and must
//! not claim completeness.

use crate::lex::{self, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// `self.name(…)` — resolved against the enclosing impl type.
    SelfDot,
    /// `Type::name(…)` (with `Self::` already rewritten to the impl type).
    Ty(String),
    /// `name(…)` — a free-function call.
    Plain,
    /// `expr.name(…)` — receiver type unknown; resolves to every visible
    /// method of that name (a may-call over-approximation).
    Dot,
    /// `name!(…)` — macro invocation (no call edge; panic macros are
    /// classified by the PL060 pass).
    Macro,
}

/// One syntactic call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    pub recv: Recv,
    /// 1-based source line of the callee name.
    pub line: usize,
}

/// One extracted `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare name (`mvm_spiked`).
    pub name: String,
    /// Enclosing impl/trait type, if any (`Crossbar`).
    pub self_ty: Option<String>,
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// `pub` without a restriction (`pub(crate)` counts as private API).
    pub is_pub: bool,
    /// Token-index range `[lo, hi)` of the body *between* the braces
    /// (empty for bodyless trait declarations).
    pub body: Option<(usize, usize)>,
    pub calls: Vec<CallSite>,
}

impl FnItem {
    /// `Type::name` or bare `name`.
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One lexed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub src: String,
    pub toks: Vec<Tok>,
}

/// The extracted workspace: files, functions, and name indexes.
#[derive(Debug, Default)]
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub fns: Vec<FnItem>,
    /// `(self_ty, name)` → fn indexes (inherent/trait methods).
    by_method: BTreeMap<(String, String), Vec<usize>>,
    /// bare name → fn indexes (methods *and* free functions).
    by_name: BTreeMap<String, Vec<usize>>,
    /// crate directory → the crate directories in its transitive
    /// `[dependencies]` closure.
    deps: BTreeMap<String, BTreeSet<String>>,
}

const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "else", "let", "mut",
    "ref", "box", "unsafe", "await", "fn", "impl", "where", "dyn", "yield",
];

impl Workspace {
    /// Builds the workspace graph from `(path, text)` pairs: `.rs` sources
    /// and the `crates/*/Cargo.toml` manifests that define the crate graph.
    pub fn build(inputs: Vec<(String, String)>) -> Self {
        let mut ws = Workspace::default();
        let (manifests, sources): (Vec<_>, Vec<_>) = inputs
            .into_iter()
            .partition(|(path, _)| path.ends_with("Cargo.toml"));
        ws.deps = dependency_closure(&manifests);
        for (path, src) in sources {
            let toks = lex::lex(&src);
            let file_idx = ws.files.len();
            let mut parser = Parser {
                toks: &toks,
                src: &src,
                i: 0,
                file: file_idx,
                fns: Vec::new(),
            };
            parser.items(None, false);
            let fns = std::mem::take(&mut parser.fns);
            ws.files.push(SourceFile { path, src, toks });
            for f in fns {
                let idx = ws.fns.len();
                if let Some(t) = &f.self_ty {
                    ws.by_method
                        .entry((t.clone(), f.name.clone()))
                        .or_default()
                        .push(idx);
                }
                ws.by_name.entry(f.name.clone()).or_default().push(idx);
                ws.fns.push(f);
            }
        }
        ws
    }

    /// Builds the workspace from every `.rs` file under `root/crates/*/src`
    /// and every `root/crates/*/Cargo.toml` (sorted).
    pub fn load(root: &Path) -> Result<Self, String> {
        let mut inputs = Vec::new();
        for path in collect_sources(root)? {
            let src = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            inputs.push((rel, src));
        }
        Ok(Self::build(inputs))
    }

    /// Functions with the given bare name, optionally restricted to a type.
    pub fn lookup(&self, self_ty: Option<&str>, name: &str) -> &[usize] {
        match self_ty {
            Some(t) => self
                .by_method
                .get(&(t.to_string(), name.to_string()))
                .map(Vec::as_slice)
                .unwrap_or(&[]),
            None => self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[]),
        }
    }

    /// `true` if code in file `from` can call a fn defined in file `to`:
    /// the same file, or a non-bin file in `from`'s own crate or its
    /// dependency closure.
    fn can_call(&self, from: usize, to: usize) -> bool {
        if from == to {
            return true;
        }
        let path = |i: usize| self.files.get(i).map_or("", |f| f.path.as_str());
        let (caller, callee) = (path(from), path(to));
        if callee.contains("/src/bin/") {
            return false;
        }
        let (a, b) = (crate_dir(caller), crate_dir(callee));
        a == b || self.deps.get(a).is_some_and(|d| d.contains(b))
    }

    /// Resolves one call site from `caller` into callee fn indexes.
    pub fn resolve(&self, caller: &FnItem, call: &CallSite) -> Vec<usize> {
        // Only fns `caller`'s crate can see are candidates at all.
        let visible = |self_ty: Option<&str>| -> Vec<usize> {
            self.lookup(self_ty, &call.name)
                .iter()
                .copied()
                .filter(|&i| {
                    self.fns
                        .get(i)
                        .is_some_and(|f| self.can_call(caller.file, f.file))
                })
                .collect()
        };
        let free = |all: &[usize]| -> Vec<usize> {
            all.iter()
                .copied()
                .filter(|&i| self.fns.get(i).is_some_and(|f| f.self_ty.is_none()))
                .collect()
        };
        let mut out = match &call.recv {
            Recv::Macro => Vec::new(),
            Recv::SelfDot => {
                let hits = visible(Some(caller.self_ty.as_deref().unwrap_or("")));
                if hits.is_empty() {
                    visible(None)
                } else {
                    hits
                }
            }
            Recv::Ty(t) => {
                let hits = visible(Some(t));
                if !hits.is_empty() {
                    hits
                } else if t.chars().next().is_some_and(char::is_lowercase) {
                    // `module::free_fn(…)` — resolve like a plain call.
                    free(&visible(None))
                } else {
                    // `Vec::new(…)`-style calls on types the workspace does
                    // not define: external, no edge (falling back by name
                    // would wire every `new` to every other `new`).
                    Vec::new()
                }
            }
            Recv::Plain => {
                let all = visible(None);
                let free = free(&all);
                if free.is_empty() {
                    all
                } else {
                    free
                }
            }
            Recv::Dot => visible(None),
        };
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Forward adjacency: for each fn, its resolved `(callee, call line)`
    /// edges, deduplicated per callee (first call site wins).
    pub fn edges(&self) -> Vec<Vec<(usize, usize)>> {
        self.fns
            .iter()
            .map(|f| {
                let mut seen = BTreeMap::new();
                for call in &f.calls {
                    for callee in self.resolve(f, call) {
                        seen.entry(callee).or_insert(call.line);
                    }
                }
                seen.into_iter().collect()
            })
            .collect()
    }

    /// `file:line` location string for a function.
    pub fn location(&self, f: &FnItem) -> String {
        let path = self
            .files
            .get(f.file)
            .map(|s| s.path.as_str())
            .unwrap_or("?");
        format!("{path}:{}", f.line)
    }
}

/// The crate directory of a workspace-relative path (`crates/nn/src/x.rs`
/// → `nn`); `""` outside `crates/`.
fn crate_dir(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
}

/// Reads a manifest's package name and `[dependencies]` keys, line by line
/// (the workspace's manifests keep each dependency on one line or in its
/// own `[dependencies.name]` table; dev- and build-dependencies never
/// reach library code).
fn manifest(text: &str) -> (Option<String>, Vec<String>) {
    let (mut section, mut name, mut deps) = ("", None, Vec::new());
    for line in text.lines().map(str::trim) {
        if line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_end_matches(']').trim();
            if let Some(dep) = section.strip_prefix("dependencies.") {
                deps.push(dep.to_string());
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        match section {
            "package" if key == "name" => name = Some(value.trim().trim_matches('"').to_string()),
            // `name = …` or the dotted `name.workspace = true`.
            "dependencies" => {
                deps.push(key.split('.').next().unwrap_or(key).trim().to_string());
            }
            _ => {}
        }
    }
    (name, deps)
}

/// crate directory → the directories of every workspace crate it depends
/// on, directly or transitively, from `(crates/<dir>/Cargo.toml, text)`
/// manifests. Dependencies outside the workspace (`rand`) drop out.
fn dependency_closure(manifests: &[(String, String)]) -> BTreeMap<String, BTreeSet<String>> {
    let parsed: Vec<(&str, Option<String>, Vec<String>)> = manifests
        .iter()
        .map(|(path, text)| {
            let (name, deps) = manifest(text);
            (crate_dir(path), name, deps)
        })
        .collect();
    let dir_of: BTreeMap<&str, &str> = parsed
        .iter()
        .filter_map(|(dir, name, _)| name.as_deref().map(|n| (n, *dir)))
        .collect();
    let direct: BTreeMap<&str, Vec<&str>> = parsed
        .iter()
        .map(|(dir, _, deps)| {
            let dirs = deps.iter().filter_map(|d| dir_of.get(d.as_str()).copied());
            (*dir, dirs.collect())
        })
        .collect();
    direct
        .keys()
        .map(|&dir| {
            let mut seen = BTreeSet::new();
            let mut stack = vec![dir];
            while let Some(d) = stack.pop() {
                for &next in direct.get(d).map_or(&[][..], Vec::as_slice) {
                    if seen.insert(next.to_string()) {
                        stack.push(next);
                    }
                }
            }
            (dir.to_string(), seen)
        })
        .collect()
}

/// All `.rs` files under `root/crates/*/src` and every crate's
/// `Cargo.toml`, sorted for determinism.
fn collect_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let crates_dir = root.join("crates");
    let mut crates: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    let mut files = Vec::new();
    for krate in crates {
        let manifest = krate.join("Cargo.toml");
        if manifest.is_file() {
            files.push(manifest);
        }
        let src = krate.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---- the item parser -------------------------------------------------------

struct Parser<'a> {
    toks: &'a [Tok],
    src: &'a str,
    i: usize,
    file: usize,
    fns: Vec<FnItem>,
}

impl<'a> Parser<'a> {
    fn tok(&self, at: usize) -> Option<&Tok> {
        self.toks.get(at)
    }

    fn text(&self, at: usize) -> &str {
        self.tok(at).map(|t| t.text(self.src)).unwrap_or("")
    }

    fn is_punct(&self, at: usize, c: char) -> bool {
        self.tok(at)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text(self.src) == c.to_string())
    }

    fn is_ident(&self, at: usize, s: &str) -> bool {
        self.tok(at)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text(self.src) == s)
    }

    /// Skips a balanced delimiter run starting at an opener token; returns
    /// the index one past the matching closer (EOF-safe).
    fn skip_balanced(&self, mut at: usize, open: char, close: char) -> usize {
        let mut depth = 0usize;
        while let Some(t) = self.tok(at) {
            if t.kind == TokKind::Punct {
                let s = t.text(self.src);
                if s == open.to_string() {
                    depth += 1;
                } else if s == close.to_string() {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return at + 1;
                    }
                }
            }
            at += 1;
        }
        at
    }

    /// Parses an attribute at `#` (`#[…]` or `#![…]`); returns (next index,
    /// attribute-is-cfg-test).
    fn attribute(&self, mut at: usize) -> (usize, bool) {
        at += 1; // '#'
        if self.is_punct(at, '!') {
            at += 1;
        }
        if !self.is_punct(at, '[') {
            return (at, false);
        }
        let end = self.skip_balanced(at, '[', ']');
        let mut is_cfg_test = false;
        // Look for the token run `cfg ( … test … )` inside the brackets.
        let mut saw_cfg = false;
        for k in at..end {
            if self.is_ident(k, "cfg") {
                saw_cfg = true;
            }
            if saw_cfg && self.is_ident(k, "test") {
                is_cfg_test = true;
            }
        }
        (end, is_cfg_test)
    }

    /// Parses a type path after `impl`/`for`: `a::b::Type<…>`; returns
    /// (next index, last path-segment ident).
    fn type_path(&self, mut at: usize) -> (usize, Option<String>) {
        // Leading `&`, `&mut`, `dyn` etc.
        while self.is_punct(at, '&') || self.is_ident(at, "dyn") || self.is_ident(at, "mut") {
            at += 1;
        }
        let mut last = None;
        loop {
            match self.tok(at) {
                Some(t) if t.kind == TokKind::Ident => {
                    let s = t.text(self.src).to_string();
                    if s != "crate" && s != "super" && s != "self" {
                        last = Some(s);
                    }
                    at += 1;
                }
                _ => break,
            }
            if self.is_punct(at, '<') {
                at = self.skip_angles(at);
            }
            if self.is_punct(at, ':') && self.is_punct(at + 1, ':') {
                at += 2;
            } else {
                break;
            }
        }
        (at, last)
    }

    /// Skips a balanced `<…>` run, tolerating `->` and `>>`.
    fn skip_angles(&self, mut at: usize) -> usize {
        let mut depth = 0usize;
        while let Some(t) = self.tok(at) {
            if t.kind == TokKind::Punct {
                match t.text(self.src) {
                    "<" => depth += 1,
                    ">" => {
                        // `->` never closes a generic argument list.
                        let arrow = at > 0 && self.is_punct(at - 1, '-');
                        if !arrow {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                return at + 1;
                            }
                        }
                    }
                    _ => {}
                }
            }
            at += 1;
        }
        at
    }

    /// Top-level/impl/trait item loop. `self_ty` is the enclosing impl or
    /// trait type; `in_test` marks an enclosing `#[cfg(test)]` scope.
    fn items(&mut self, self_ty: Option<&str>, in_test: bool) {
        let mut pending_test = false;
        let mut pending_pub = false;
        while let Some(t) = self.tok(self.i) {
            match t.kind {
                TokKind::Punct if t.text(self.src) == "#" => {
                    let (next, cfg_test) = self.attribute(self.i);
                    pending_test |= cfg_test;
                    self.i = next;
                }
                TokKind::Punct if t.text(self.src) == "{" => {
                    // A stray block at item level (shouldn't happen): skip.
                    self.i = self.skip_balanced(self.i, '{', '}');
                    pending_test = false;
                    pending_pub = false;
                }
                TokKind::Punct if t.text(self.src) == "}" => {
                    // End of the enclosing block — caller consumed the `{`.
                    return;
                }
                TokKind::Ident => {
                    let kw = t.text(self.src).to_string();
                    match kw.as_str() {
                        "pub" => {
                            // `pub(crate)`/`pub(super)` restrict visibility.
                            if self.is_punct(self.i + 1, '(') {
                                self.i = self.skip_balanced(self.i + 1, '(', ')');
                            } else {
                                pending_pub = true;
                                self.i += 1;
                            }
                        }
                        "impl" => {
                            self.i += 1;
                            if self.is_punct(self.i, '<') {
                                self.i = self.skip_angles(self.i);
                            }
                            let (next, first_ty) = self.type_path(self.i);
                            self.i = next;
                            let ty = if self.is_ident(self.i, "for") {
                                let (next, second) = self.type_path(self.i + 1);
                                self.i = next;
                                second
                            } else {
                                first_ty
                            };
                            // Skip the where clause up to the body.
                            while !self.is_punct(self.i, '{') && self.tok(self.i).is_some() {
                                self.i += 1;
                            }
                            if self.tok(self.i).is_some() {
                                self.i += 1; // '{'
                                self.items(ty.as_deref(), in_test || pending_test);
                                self.i += 1; // '}'
                            }
                            pending_test = false;
                            pending_pub = false;
                        }
                        "trait" => {
                            self.i += 1;
                            let name = match self.tok(self.i) {
                                Some(t) if t.kind == TokKind::Ident => {
                                    Some(t.text(self.src).to_string())
                                }
                                _ => None,
                            };
                            while !self.is_punct(self.i, '{') && self.tok(self.i).is_some() {
                                self.i += 1;
                            }
                            if self.tok(self.i).is_some() {
                                self.i += 1;
                                self.items(name.as_deref(), in_test || pending_test);
                                self.i += 1;
                            }
                            pending_test = false;
                            pending_pub = false;
                        }
                        "mod" => {
                            self.i += 1; // mod
                            self.i += 1; // name
                            if self.is_punct(self.i, '{') {
                                self.i += 1;
                                self.items(None, in_test || pending_test);
                                self.i += 1;
                            } else if self.is_punct(self.i, ';') {
                                self.i += 1;
                            }
                            pending_test = false;
                            pending_pub = false;
                        }
                        "fn" => {
                            self.function(self_ty, in_test || pending_test, pending_pub);
                            pending_test = false;
                            pending_pub = false;
                        }
                        "macro_rules" => {
                            // macro_rules! name { … }
                            while !self.is_punct(self.i, '{') && self.tok(self.i).is_some() {
                                self.i += 1;
                            }
                            self.i = self.skip_balanced(self.i, '{', '}');
                            pending_test = false;
                            pending_pub = false;
                        }
                        "struct" | "enum" | "union" => {
                            // Skip to `;` or a balanced `{…}` body.
                            self.i += 1;
                            while let Some(t) = self.tok(self.i) {
                                if t.kind == TokKind::Punct {
                                    match t.text(self.src) {
                                        ";" => {
                                            self.i += 1;
                                            break;
                                        }
                                        "{" => {
                                            self.i = self.skip_balanced(self.i, '{', '}');
                                            break;
                                        }
                                        "(" => {
                                            self.i = self.skip_balanced(self.i, '(', ')');
                                            continue;
                                        }
                                        _ => {}
                                    }
                                }
                                self.i += 1;
                            }
                            pending_test = false;
                            pending_pub = false;
                        }
                        _ => {
                            // use/const/static/type/extern/unsafe/async …:
                            // advance; `fn` etc. will be hit in turn. Blocks
                            // in const initialisers are skipped balanced.
                            self.i += 1;
                            if self.is_punct(self.i, '{')
                                && matches!(kw.as_str(), "const" | "static")
                            {
                                self.i = self.skip_balanced(self.i, '{', '}');
                            }
                        }
                    }
                }
                _ => self.i += 1,
            }
        }
    }

    /// At the `fn` keyword: extracts the item and its call sites.
    fn function(&mut self, self_ty: Option<&str>, in_test: bool, is_pub: bool) {
        let fn_line = self.tok(self.i).map(|t| t.line).unwrap_or(0);
        self.i += 1; // fn
        let name = match self.tok(self.i) {
            Some(t) if t.kind == TokKind::Ident => t.text(self.src).to_string(),
            _ => return,
        };
        self.i += 1;
        // Signature: skip to the body `{` or a bodyless `;`, balancing
        // parens/brackets/angles so `-> [u8; 3]` and generics don't confuse.
        loop {
            match self.tok(self.i) {
                None => return,
                Some(t) if t.kind == TokKind::Punct => match t.text(self.src) {
                    ";" => {
                        self.i += 1;
                        self.record(name, self_ty, fn_line, is_pub, None, in_test, Vec::new());
                        return;
                    }
                    "{" => break,
                    "(" => self.i = self.skip_balanced(self.i, '(', ')'),
                    "<" => self.i = self.skip_angles(self.i),
                    _ => self.i += 1,
                },
                Some(_) => self.i += 1,
            }
        }
        let body_open = self.i;
        let body_close = self.skip_balanced(self.i, '{', '}');
        self.i = body_close;
        let body = (body_open + 1, body_close.saturating_sub(1));
        let calls = if in_test {
            Vec::new()
        } else {
            self.extract_calls(body.0, body.1, self_ty)
        };
        self.record(name, self_ty, fn_line, is_pub, Some(body), in_test, calls);
    }

    #[expect(clippy::too_many_arguments, reason = "the resolver's context, flat")]
    fn record(
        &mut self,
        name: String,
        self_ty: Option<&str>,
        line: usize,
        is_pub: bool,
        body: Option<(usize, usize)>,
        in_test: bool,
        calls: Vec<CallSite>,
    ) {
        if in_test {
            return;
        }
        self.fns.push(FnItem {
            name,
            self_ty: self_ty.map(str::to_string),
            file: self.file,
            line,
            is_pub,
            body,
            calls,
        });
    }

    /// Scans `[lo, hi)` body tokens for call sites.
    fn extract_calls(&self, lo: usize, hi: usize, self_ty: Option<&str>) -> Vec<CallSite> {
        let mut out = Vec::new();
        let mut k = lo;
        while k < hi {
            let Some(t) = self.tok(k) else { break };
            if t.kind != TokKind::Ident {
                k += 1;
                continue;
            }
            let name = t.text(self.src);
            let line = t.line;
            // After the name, a turbofish `::<…>` may precede the parens.
            let mut after = k + 1;
            let turbofish = self.is_punct(after, ':') && self.is_punct(after + 1, ':') && {
                self.is_punct(after + 2, '<')
            };
            if turbofish {
                after = self.skip_angles(after + 2);
            }
            if self.is_punct(after, '!') {
                // Macro invocation `name!(…)` / `name![…]` / `name!{…}`.
                out.push(CallSite {
                    name: name.to_string(),
                    recv: Recv::Macro,
                    line,
                });
                k = after + 1;
                continue;
            }
            if !self.is_punct(after, '(') {
                k += 1;
                continue;
            }
            if NON_CALL_KEYWORDS.contains(&name) {
                k += 1;
                continue;
            }
            // Receiver classification from the tokens before the name.
            let recv = if k > lo && self.is_punct(k - 1, '.') {
                if k >= 2 && self.is_ident(k - 2, "self") && !(k >= 3 && self.is_punct(k - 3, '.'))
                {
                    Recv::SelfDot
                } else {
                    Recv::Dot
                }
            } else if k >= 2 && self.is_punct(k - 1, ':') && self.is_punct(k - 2, ':') {
                // `seg::name(` — the qualifying segment sits before the `::`
                // (possibly with its own generics, e.g. `Vec::<u8>::new`).
                let mut seg = k.checked_sub(3);
                if let Some(s) = seg {
                    if self.is_punct(s, '>') {
                        // `Type<…>::name(` — walk back over the generics.
                        let mut depth = 0usize;
                        let mut j = s;
                        loop {
                            if self.is_punct(j, '>') {
                                depth += 1;
                            } else if self.is_punct(j, '<') {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            match j.checked_sub(1) {
                                Some(n) => j = n,
                                None => break,
                            }
                        }
                        seg = j.checked_sub(1);
                    }
                }
                match seg {
                    Some(s) if self.tok(s).is_some_and(|t| t.kind == TokKind::Ident) => {
                        let seg_name = self.text(s);
                        if seg_name == "Self" {
                            match self_ty {
                                Some(t) => Recv::Ty(t.to_string()),
                                None => Recv::Plain,
                            }
                        } else {
                            Recv::Ty(seg_name.to_string())
                        }
                    }
                    _ => Recv::Plain,
                }
            } else {
                Recv::Plain
            };
            out.push(CallSite {
                name: name.to_string(),
                recv,
                line,
            });
            k = after + 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::build(vec![("lib.rs".to_string(), src.to_string())])
    }

    #[test]
    fn extracts_free_and_method_items() {
        let w = ws("pub fn a() {}\nstruct S;\nimpl S { pub fn m(&self) {} fn p(&self) {} }");
        let names: Vec<String> = w.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["a", "S::m", "S::p"]);
        assert!(w.fns[0].is_pub && w.fns[1].is_pub && !w.fns[2].is_pub);
    }

    #[test]
    fn trait_impls_resolve_to_the_for_type() {
        let w = ws("struct S;\nimpl Clone for S { fn clone(&self) -> S { S } }");
        assert_eq!(w.fns[0].qualified(), "S::clone");
    }

    #[test]
    fn cfg_test_items_are_excluded() {
        let w = ws(
            "fn real() {}\n#[cfg(test)]\nmod tests {\n  fn helper() {}\n  #[test]\n  fn t() {}\n}\n#[cfg(test)]\nfn gated() {}\nfn real2() {}",
        );
        let names: Vec<&str> = w.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real", "real2"]);
    }

    #[test]
    fn call_sites_classify_receivers() {
        let w = ws(
            "struct S;\nimpl S {\n fn a(&self) { self.b(); helper(); S::c(); other.d(); vec![1]; }\n fn b(&self) {}\n fn c() {}\n}\nfn helper() {}\nfn d() {}",
        );
        let a = &w.fns[0];
        let kinds: Vec<(&str, &Recv)> =
            a.calls.iter().map(|c| (c.name.as_str(), &c.recv)).collect();
        assert!(kinds.contains(&("b", &Recv::SelfDot)));
        assert!(kinds.contains(&("helper", &Recv::Plain)));
        assert!(kinds.contains(&("c", &Recv::Ty("S".to_string()))));
        assert!(kinds.contains(&("d", &Recv::Dot)));
        assert!(kinds.contains(&("vec", &Recv::Macro)));
    }

    #[test]
    fn edges_resolve_self_type_and_fall_back_by_name() {
        let w = ws(
            "struct S;\nimpl S {\n fn a(&self) { self.b(); x.b(); }\n fn b(&self) {}\n}\nstruct T;\nimpl T { fn b(&self) {} }",
        );
        let edges = w.edges();
        // a → S::b (self), plus both S::b and T::b through the dot call.
        let a_edges: Vec<usize> = edges[0].iter().map(|&(c, _)| c).collect();
        assert!(a_edges.contains(&1), "self.b resolves to S::b");
        assert!(a_edges.contains(&2), "x.b may-resolves to T::b");
    }

    #[test]
    fn self_qualified_calls_resolve_to_impl_type() {
        let w = ws(
            "struct S;\nimpl S {\n fn new() -> Self { Self::try_new() }\n fn try_new() -> Self { S }\n}",
        );
        let edges = w.edges();
        assert_eq!(edges[0], vec![(1, 3)]);
    }

    #[test]
    fn bodyless_trait_methods_are_recorded() {
        let w = ws("trait T { fn must(&self); fn with_default(&self) { self.must(); } }");
        assert_eq!(w.fns[0].qualified(), "T::must");
        assert!(w.fns[0].body.is_none());
        let edges = w.edges();
        assert_eq!(edges[1].len(), 1);
    }

    #[test]
    fn strings_and_comments_do_not_produce_calls() {
        let w = ws("fn a() { let s = \"self.bad() call()\"; /* other() */ }");
        assert!(w.fns[0].calls.is_empty());
    }

    /// `tensor` ← `nn` ← `core`, as in the real workspace: `core` sees
    /// `tensor` only through `nn`.
    fn three_crates(nn: &str, core: &str, tensor: &str) -> Workspace {
        let manifest = |name: &str, deps: &str| {
            format!("[package]\nname = \"{name}\"\n\n[dependencies]\n{deps}\n[dev-dependencies]\npl-core = {{ workspace = true }}\n")
        };
        Workspace::build(vec![
            (
                "crates/core/Cargo.toml".into(),
                manifest("pl-core", "pl-nn = { workspace = true }"),
            ),
            ("crates/core/src/lib.rs".into(), core.into()),
            (
                "crates/nn/Cargo.toml".into(),
                manifest("pl-nn", "pl-tensor.workspace = true\nrand = \"1\""),
            ),
            ("crates/nn/src/lib.rs".into(), nn.into()),
            ("crates/tensor/Cargo.toml".into(), manifest("pl-tensor", "")),
            ("crates/tensor/src/lib.rs".into(), tensor.into()),
        ])
    }

    fn callees(w: &Workspace, caller: &str) -> Vec<String> {
        let edges = w.edges();
        let i = w.fns.iter().position(|f| f.qualified() == caller).unwrap();
        edges[i]
            .iter()
            .map(|&(c, _)| w.location(&w.fns[c]))
            .collect()
    }

    #[test]
    fn dot_calls_resolve_only_into_the_dependency_closure() {
        let w = three_crates(
            "pub fn step(x: u8) { x.m(); }",
            "struct C;\nimpl C { pub fn m(&self) {} }\npub fn run(t: u8) { t.n(); }",
            "struct T;\nimpl T { pub fn n(&self) {} }",
        );
        // nn does not depend on core: its `x.m()` cannot be `C::m`.
        assert!(callees(&w, "step").is_empty(), "{:?}", callees(&w, "step"));
        // core reaches tensor transitively, through nn.
        assert_eq!(callees(&w, "run"), vec!["crates/tensor/src/lib.rs:2"]);
    }

    #[test]
    fn no_edge_enters_a_bin_from_another_file() {
        let w = Workspace::build(vec![
            (
                "crates/x/src/lib.rs".into(),
                "pub fn read() { run(); }".into(),
            ),
            (
                "crates/x/src/bin/y.rs".into(),
                "fn run() {}\nfn main() { run(); read(); }".into(),
            ),
        ]);
        assert!(callees(&w, "read").is_empty());
        let main = callees(&w, "main");
        assert!(
            main.contains(&"crates/x/src/bin/y.rs:1".to_string()),
            "{main:?}"
        );
        assert!(
            main.contains(&"crates/x/src/lib.rs:1".to_string()),
            "{main:?}"
        );
    }

    #[test]
    fn manifests_yield_names_and_library_dependencies() {
        let (name, deps) = manifest(
            "[package]\nname = \"a\"\n[dependencies]\n# b = 1\nb = { path = \"../b\" }\nc.workspace = true\n[dependencies.d]\npath = \"x\"\n[dev-dependencies]\ne = 1\n",
        );
        assert_eq!(name.as_deref(), Some("a"));
        assert_eq!(deps, vec!["b", "c", "d"]);
    }

    #[test]
    fn pub_crate_is_not_public_api() {
        let w = ws("pub(crate) fn a() {}\npub fn b() {}");
        assert!(!w.fns[0].is_pub);
        assert!(w.fns[1].is_pub);
    }
}
