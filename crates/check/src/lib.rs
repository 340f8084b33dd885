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
//!   passes, usable on their own over [`NetSpec::try_resolve`]'s result;
//! * [`absint`] — interval abstract interpretation of the quantized
//!   datapath: per-layer activation/gradient bounds over the actual
//!   quantized weight grids, checked against the datapath's value formats
//!   (PL04x; `plcheck --ranges`).
//!
//! The companion `src-lint` binary runs the whole-program source pass
//! that clippy cannot: PL060 panic reachability from the input boundary
//! ([`panicreach`]) over the crate-aware workspace call graph
//! ([`callgraph`]), at zero findings. Per-site panics, casts and
//! nondeterminism are clippy's, through the workspace lint table. It
//! shares nothing with the workload verifier except the crate.
//!
//! ```
//! use pipelayer::{ConfigError, PipeLayerConfig};
//! use pipelayer_nn::zoo;
//!
//! let diags = pipelayer_check::verify(&zoo::alexnet(), &PipeLayerConfig::default());
//! assert!(!pipelayer_check::has_errors(&diags));
//! ```

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::disallowed_macros,
        clippy::cast_possible_truncation,
        clippy::cast_precision_loss,
        clippy::float_cmp,
        reason = "the library gate exempts test code: a failed assertion is how a test fails"
    )
)]

pub mod absint;
pub mod callgraph;
pub mod diag;
pub mod lex;
pub mod mapcheck;
pub mod panicreach;
pub mod quantcheck;
pub mod schedule;
pub mod shape;

pub use diag::{has_errors, render_json, Diagnostic, Severity};

use pipelayer::analysis::Analysis;
use pipelayer::granularity::{default_granularity, DEFAULT_CONV_XBAR_BUDGET};
use pipelayer::{ConfigError, PipeLayerConfig};
use pipelayer_nn::spec::NetSpec;
use std::num::NonZeroUsize;

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
/// The passes run in dependency order: configuration domain checks,
/// [`NetSpec::try_resolve`], then — only if it succeeds — the symbolic
/// schedule, the mapping-capacity check and the range analysis over its
/// layers, then the bit-width check. A shape error suppresses the passes
/// that need layers (their inputs would be guesswork); a config error
/// suppresses the mapping and range passes, which read the configuration.
/// Each config error is reported once: bit widths by the bit-width check
/// (PL030/PL031), every other field as PL050.
pub fn verify_with(net: &NetSpec, cfg: &PipeLayerConfig, over: &Overrides) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // A bit-width error is the quantization pass's to report (PL03x);
    // `validate` checks the widths last, so nothing else is wrong then.
    let cfg_err = cfg.validate().err();
    let cfg_ok = cfg_err.is_none();
    if let Some(e) = cfg_err.filter(|e| !matches!(e, ConfigError::InvalidBitWidths(_))) {
        diags.push(Diagnostic::error(
            diag::CONFIG_INVALID,
            "config",
            e.to_string(),
            "fix the accelerator configuration before mapping any workload",
        ));
    }

    let resolved = net.try_resolve();
    if let Err(e) = &resolved {
        diags.push(shape::diagnostic(net, e));
    }

    if let Ok(layers) = resolved {
        let l = layers.len();
        let b = cfg.batch_size.get();
        let depths = over.depths.clone().unwrap_or_else(|| {
            NonZeroUsize::new(l).map_or_else(Vec::new, |l| {
                let paper = Analysis::new(l, cfg.batch_size).buffer_depths();
                paper.iter().map(|d| d.get()).collect()
            })
        });
        let batches = over.batches.unwrap_or(2);
        for mut d in schedule::check_training(l, b, &depths, batches) {
            d.location = format!("{}: {}", net.name, d.location);
            diags.push(d);
        }

        let g = over
            .granularity
            .clone()
            .unwrap_or_else(|| default_granularity(&layers));
        // Mapping and range analysis need a valid configuration (the bit
        // widths split weights into cell groups, the value formats bound
        // the ranges); with PL050 already reported there is nothing
        // meaningful to check.
        if cfg_ok {
            let budget = over.conv_xbar_budget.unwrap_or(DEFAULT_CONV_XBAR_BUDGET);
            for mut d in mapcheck::check(&layers, &g, cfg, budget) {
                d.location = format!("{}: {}", net.name, d.location);
                diags.push(d);
            }
            for mut d in absint::analyze(net, &layers, cfg).diags {
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
        let l = NonZeroUsize::new(zoo::alexnet().weighted_layers()).unwrap();
        let paper = Analysis::new(l, cfg.batch_size);
        let mut depths: Vec<usize> = paper.buffer_depths().iter().map(|d| d.get()).collect();
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
        let mut cfg = PipeLayerConfig::default();
        cfg.verify.max_attempts = 0;
        let diags = verify(&spec, &cfg);
        assert!(diags.iter().any(|d| d.code == diag::CONFIG_INVALID));
        assert!(diags.iter().any(|d| d.code == diag::SHAPE_EMPTY_INPUT));
    }
}
