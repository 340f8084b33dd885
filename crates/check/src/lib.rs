//! # `pipelayer-check` — static verification for PipeLayer workloads
//!
//! Everything PipeLayer's correctness rests on is decidable *before* any
//! tensor moves: layer-graph geometry (Fig. 4), the stall-free inter-layer
//! schedule with its `2(L−l)+1` circular buffers (Sec. 3.3, Fig. 8),
//! crossbar-mapping capacity under replication `G` (Sec. 3.2.3), and the
//! bit-width composition of the spike-coded datapath (Figs. 9/14). This
//! crate decides all of it, reporting structured [`Diagnostic`]s with
//! stable `PL0xx` codes instead of runtime panics.
//!
//! * [`verify`] — the one-call pre-flight check over a [`NetSpec`] +
//!   [`PipeLayerConfig`];
//! * [`verify_with`] — the same with explicit granularity / buffer-depth /
//!   budget overrides (how the `plcheck` binary exposes what-if runs);
//! * [`shape`], [`schedule`], [`mapcheck`], [`quantcheck`] — the individual
//!   passes, usable on their own;
//! * [`absint`] — interval abstract interpretation of the quantized
//!   datapath: per-layer activation/gradient bounds over the actual
//!   quantized weight grids, checked against the datapath's value formats
//!   (PL04x; `plcheck --ranges`).
//!
//! The companion `src-lint` binary is the repo-wide determinism/panic lint
//! gate; it shares nothing with the workload verifier except the crate.
//!
//! ```
//! use pipelayer::PipeLayerConfig;
//! use pipelayer_nn::zoo;
//!
//! let diags = pipelayer_check::verify(&zoo::alexnet(), &PipeLayerConfig::default());
//! assert!(!pipelayer_check::has_errors(&diags));
//! ```

pub mod absint;
pub mod callgraph;
pub mod dettaint;
pub mod diag;
pub mod expr;
pub mod lex;
pub mod mapcheck;
pub mod panicreach;
pub mod quantcheck;
pub mod schedule;
pub mod shape;
pub mod units;

pub use diag::{has_errors, render_json, Diagnostic, Severity};

use pipelayer::granularity::{default_granularity, DEFAULT_CONV_XBAR_BUDGET};
use pipelayer::PipeLayerConfig;
use pipelayer_nn::spec::NetSpec;

/// What-if overrides for [`verify_with`]. The default (all `None`) verifies
/// the configuration the accelerator would actually run: Table 5-style
/// granularity and the paper's `2(L−l)+1` buffer depths.
#[derive(Debug, Clone, Default)]
pub struct Overrides {
    /// Per-layer replication factors `G` (default: the budgeted balanced
    /// search of `pipelayer::granularity`).
    pub granularity: Option<Vec<usize>>,
    /// Per-layer inter-layer buffer depths (default: `2(L−l)+1`).
    pub depths: Option<Vec<usize>>,
    /// Crossbar budget for replicated conv arrays (default:
    /// [`DEFAULT_CONV_XBAR_BUDGET`]).
    pub conv_xbar_budget: Option<u64>,
    /// Training batches to execute symbolically (default 2 — enough to
    /// cover the batch drain/refill boundary).
    pub batches: Option<usize>,
}

/// Verifies `net` under `cfg` end to end and returns every finding, most
/// severe first. An empty list (or one with no [`Severity::Error`] entries —
/// see [`has_errors`]) means the workload is safe to run.
pub fn verify(net: &NetSpec, cfg: &PipeLayerConfig) -> Vec<Diagnostic> {
    verify_with(net, cfg, &Overrides::default())
}

/// [`verify`] with explicit [`Overrides`].
///
/// The passes run in dependency order: configuration domain checks, shape
/// inference, then — only if the graph is well-formed — the symbolic
/// schedule, the mapping-capacity check, and the bit-width check. Shape
/// errors suppress the downstream passes (their inputs would be guesswork),
/// config errors do not.
pub fn verify_with(net: &NetSpec, cfg: &PipeLayerConfig, over: &Overrides) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    let cfg_ok = cfg.validate().is_ok();
    if let Err(e) = cfg.validate() {
        diags.push(Diagnostic::error(
            diag::CONFIG_INVALID,
            "config",
            e.to_string(),
            "fix the accelerator configuration before mapping any workload",
        ));
    }

    let shapes = shape::infer(net);
    let shapes_clean = shapes.is_clean();
    diags.extend(shapes.diags);

    if shapes_clean {
        let l = shapes.layers.len();
        let b = cfg.batch_size.max(1);
        let depths = over
            .depths
            .clone()
            .unwrap_or_else(|| schedule::paper_depths(l));
        let batches = over.batches.unwrap_or(2);
        for mut d in schedule::check_training(l, b, &depths, batches) {
            d.location = format!("{}: {}", net.name, d.location);
            diags.push(d);
        }

        let g = over
            .granularity
            .clone()
            .unwrap_or_else(|| default_granularity(&net.resolve()));
        let budget = over.conv_xbar_budget.unwrap_or(DEFAULT_CONV_XBAR_BUDGET);
        for mut d in mapcheck::check(&shapes.layers, &g, cfg, budget) {
            d.location = format!("{}: {}", net.name, d.location);
            diags.push(d);
        }

        // Range analysis needs a valid value-format configuration to check
        // bounds against; with PL050 already reported there is nothing
        // meaningful to compare to.
        if cfg_ok {
            for mut d in absint::analyze(net, cfg).diags {
                d.location = format!("{}: {}", net.name, d.location);
                diags.push(d);
            }
        }
    }

    diags.extend(quantcheck::check(cfg));
    diags.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.code.cmp(b.code)));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipelayer_nn::zoo;

    #[test]
    fn default_workloads_have_no_errors() {
        let cfg = PipeLayerConfig::default();
        for spec in [zoo::spec_mnist_a(), zoo::alexnet()] {
            let diags = verify(&spec, &cfg);
            assert!(!has_errors(&diags), "{}: {diags:?}", spec.name);
        }
    }

    #[test]
    fn severity_sorts_errors_first() {
        let cfg = PipeLayerConfig::default();
        let mut over = Overrides::default();
        let l = zoo::alexnet().weighted_layers();
        let mut depths = schedule::paper_depths(l);
        depths[0] -= 1; // stale read (error)
        depths[1] += 3; // oversized (warning)
        over.depths = Some(depths);
        let diags = verify_with(&zoo::alexnet(), &cfg, &over);
        assert!(has_errors(&diags));
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].location.starts_with("AlexNet: "));
    }

    #[test]
    fn config_errors_do_not_mask_shape_checks() {
        let spec = NetSpec::new("bad", (0, 4, 4), vec![]);
        let cfg = PipeLayerConfig {
            batch_size: 0,
            ..PipeLayerConfig::default()
        };
        let diags = verify(&spec, &cfg);
        assert!(diags.iter().any(|d| d.code == diag::CONFIG_INVALID));
        assert!(diags.iter().any(|d| d.code == diag::SHAPE_EMPTY_INPUT));
    }
}
