//! `src-lint` — the repo's whole-program source pass.
//!
//! Per-site panics, lossy casts, hash collections and wall-clock reads are
//! clippy's job: `[workspace.lints.clippy]` in the root `Cargo.toml`, with
//! each exception an `#[expect(lint, reason = "…")]` on its fn. What clippy
//! cannot see is a path through the call graph, so this binary runs
//! **PL060 panic reachability** over the crate-aware `check::callgraph` of
//! `crates/*/src`: every `pub` fn on the input boundary (`try_*`, `load_*`,
//! `*checkpoint*`, `ReramMlp::restore_device_state`) that can transitively
//! reach a panic is a failure, printed with its witness call chain. There
//! is no allowlist: the gate holds at zero findings.
//!
//! ```text
//! src-lint [--root DIR]
//! ```
//!
//! Exit status: 0 clean, 1 on any finding, 2 on usage/I-O errors.

use pipelayer_check::callgraph::Workspace;
use pipelayer_check::panicreach;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn run() -> Result<bool, String> {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => {
                root = Some(PathBuf::from(args.next().ok_or("--root needs a value")?));
            }
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

    let ws = Workspace::load(&root)?;
    let diags = panicreach::findings(&ws, &panicreach::Options::default());
    for d in &diags {
        println!("{}", d.render());
    }
    println!(
        "src-lint: PL060 over {} fns in {} files, {} failure(s)",
        ws.fns.len(),
        ws.files.len(),
        diags.len()
    );
    Ok(diags.is_empty())
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
