//! Crossbar-mapping feasibility: replication `G` × kernel footprint against
//! the partition capacity (Figs. 4/5, Sec. 3.2.3), and the spare-column
//! budget of `pipelayer::repair` against the array geometry.

use crate::diag::{self, Diagnostic};
use pipelayer::PipeLayerConfig;
use pipelayer_nn::spec::ResolvedLayer;
use pipelayer_reram::tile_grid;

/// Program pulses a weight cell absorbs over a *nominal* training run —
/// the planning horizon behind the PL024 spare-budget feasibility
/// estimate. The paper-scale campaigns land around 10⁵ batch updates
/// (tens of epochs × thousands of batches), and a cell sees at most one
/// tuning pulse per update, so this is a deliberately coarse
/// order-of-magnitude horizon: PL024 is a warning about provisioning, not
/// a hard schedulability error.
const NOMINAL_TRAINING_UPDATES: f64 = 100_000.0;

/// Checks a granularity assignment `g` for `layers` under `cfg`, with the
/// replicated conv arrays bounded by `budget` crossbars (the same capacity
/// notion as `pipelayer::granularity`'s budgeted search).
#[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
pub fn check(
    layers: &[ResolvedLayer],
    g: &[usize],
    cfg: &PipeLayerConfig,
    budget: u64,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if g.len() != layers.len() {
        diags.push(Diagnostic::error(
            diag::MAP_BAD_GRANULARITY,
            "mapping",
            format!(
                "granularity vector has {} entries for {} weighted layers",
                g.len(),
                layers.len()
            ),
            "supply one replication factor per weighted layer",
        ));
        return diags;
    }

    let size = cfg.params.xbar_size.get();
    let per_matrix = cfg.params.crossbars_per_matrix() as u64;
    let mut conv_cost = 0u64;
    for (idx, (layer, &gl)) in layers.iter().zip(g).enumerate() {
        let loc = format!("layer {} ({})", idx + 1, layer.name);
        if gl == 0 {
            diags.push(Diagnostic::error(
                diag::MAP_BAD_GRANULARITY,
                loc,
                "replication factor G is zero".to_string(),
                "every layer needs at least one array copy (G >= 1)",
            ));
            continue;
        }
        let p = layer.window_positions.max(1);
        if gl > p {
            diags.push(Diagnostic::warning(
                diag::MAP_EXCESS_REPLICATION,
                loc.clone(),
                format!("G = {gl} exceeds the layer's {p} kernel-window positions"),
                "copies beyond G = P can never be read in parallel; clamp G to P",
            ));
        }
        if layer.is_conv {
            let (tr, tc) = tile_grid(layer.matrix_rows, layer.matrix_cols, cfg.params.xbar_size);
            conv_cost += (tr * tc) as u64 * gl as u64 * per_matrix;
        }
    }

    if conv_cost > budget {
        diags.push(Diagnostic::error(
            diag::MAP_OVER_CAPACITY,
            "mapping",
            format!("replicated conv arrays need {conv_cost} crossbars but the budget is {budget}"),
            "lower the per-layer granularity G (or raise the crossbar budget): \
             each copy costs ceil(rows/128)*ceil(cols/128) tiles x 8 crossbars",
        ));
    }

    let spares = cfg.spares.cols_per_matrix;
    if spares >= size {
        diags.push(Diagnostic::error(
            diag::MAP_SPARES_EXCEED_ARRAY,
            "config.spares",
            format!("{spares} spare columns per matrix, but arrays are only {size} wide"),
            "spare bit lines ride alongside the working array; a typical budget is 2-4",
        ));
    } else if spares * 10 > size {
        diags.push(Diagnostic::warning(
            diag::MAP_SPARES_EXCEED_ARRAY,
            "config.spares",
            format!("{spares} spare columns per {size}-wide matrix is >10% area overhead"),
            "conventional macro provision is 2-4 spare bit lines per 128-wide array",
        ));
    }

    // PL024: static spare-budget feasibility. A column dies (and consumes a
    // spare, or a mask once spares run out) when any of its cells dies, so
    // with a per-cell death probability p over a nominal training horizon,
    // a size-row column dies with probability 1 − (1−p)^size, and the
    // expected dead columns per matrix is size × that. The per-cell rate
    // combines the configured manufacturing dead-fault rate with the wear
    // model's lognormal end-of-life CDF at the nominal pulse count.
    let device = &cfg.device;
    let p_cell =
        (device.faults.dead + device.wear.death_probability(NOMINAL_TRAINING_UPDATES)).min(1.0);
    if p_cell > 0.0 && spares < size {
        let p_col = 1.0 - (1.0 - p_cell).powf(size as f64);
        let expected_dead_cols = p_col * size as f64;
        if expected_dead_cols > spares as f64 {
            diags.push(Diagnostic::warning(
                diag::MAP_SPARES_INSUFFICIENT,
                "config.spares",
                format!(
                    "~{expected_dead_cols:.1} columns per {size}x{size} matrix are expected to \
                     die over a nominal training run ({NOMINAL_TRAINING_UPDATES:.0} updates), \
                     but only {spares} spare columns are provisioned"
                ),
                "raise the spare budget, pick a higher-endurance cell grade, or shorten \
                 training; once spares exhaust, each further dead cell masks a whole column",
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use pipelayer::granularity::default_granularity;
    use pipelayer::repair::SpareBudget;
    use pipelayer_nn::zoo;

    const BUDGET: u64 = pipelayer::granularity::DEFAULT_CONV_XBAR_BUDGET;

    #[test]
    fn default_granularity_fits_the_budget() {
        for spec in zoo::evaluation_specs() {
            let layers = spec.resolve();
            let g = default_granularity(&layers);
            let diags = check(&layers, &g, &PipeLayerConfig::default(), BUDGET);
            assert!(
                !diags.iter().any(|d| d.severity == Severity::Error),
                "{}: {diags:?}",
                spec.name
            );
        }
    }

    #[test]
    fn over_capacity_replication_is_rejected() {
        // VGG-A at full replication (G = P everywhere) dwarfs any die.
        let spec = zoo::vgg(zoo::VggVariant::A);
        let layers = spec.resolve();
        let g: Vec<usize> = layers.iter().map(|l| l.window_positions.max(1)).collect();
        let diags = check(&layers, &g, &PipeLayerConfig::default(), BUDGET);
        assert!(
            diags
                .iter()
                .any(|d| d.code == diag::MAP_OVER_CAPACITY && d.severity == Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn bad_granularity_vectors_are_rejected() {
        let spec = zoo::spec_mnist_a();
        let layers = spec.resolve();
        let diags = check(&layers, &[1], &PipeLayerConfig::default(), BUDGET);
        assert_eq!(diags[0].code, diag::MAP_BAD_GRANULARITY);
        let diags = check(&layers, &[1, 0], &PipeLayerConfig::default(), BUDGET);
        assert!(diags.iter().any(|d| d.code == diag::MAP_BAD_GRANULARITY));
    }

    #[test]
    fn excess_replication_warns() {
        let spec = zoo::spec_mnist_a(); // pure MLP: P = 1 everywhere
        let layers = spec.resolve();
        let diags = check(&layers, &[4, 1], &PipeLayerConfig::default(), BUDGET);
        assert!(diags
            .iter()
            .any(|d| d.code == diag::MAP_EXCESS_REPLICATION && d.severity == Severity::Warning));
    }

    #[test]
    fn wear_grade_beyond_the_spare_budget_warns() {
        use pipelayer_reram::{FaultModel, WearModel};
        let spec = zoo::spec_mnist_a();
        let layers = spec.resolve();

        // Storage-class endurance (median well under the nominal pulse
        // horizon): nearly every cell dies, spares cannot cover it.
        let mut cfg = PipeLayerConfig {
            spares: SpareBudget::typical(),
            ..Default::default()
        };
        cfg.device.wear = WearModel::with_endurance(1e4);
        let diags = check(&layers, &[1, 1], &cfg, BUDGET);
        assert!(
            diags
                .iter()
                .any(|d| d.code == diag::MAP_SPARES_INSUFFICIENT
                    && d.severity == Severity::Warning),
            "{diags:?}"
        );

        // Research-grade endurance (median far above the horizon): silent.
        cfg.device.wear = WearModel::with_endurance(1e12);
        let diags = check(&layers, &[1, 1], &cfg, BUDGET);
        assert!(
            !diags
                .iter()
                .any(|d| d.code == diag::MAP_SPARES_INSUFFICIENT),
            "{diags:?}"
        );

        // A heavy manufacturing dead rate alone also trips the check.
        cfg.device.wear = WearModel::ideal();
        cfg.device.faults = FaultModel {
            dead: 0.05,
            ..FaultModel::ideal()
        };
        let diags = check(&layers, &[1, 1], &cfg, BUDGET);
        assert!(
            diags
                .iter()
                .any(|d| d.code == diag::MAP_SPARES_INSUFFICIENT),
            "{diags:?}"
        );

        // The ideal default configuration stays clean.
        let diags = check(&layers, &[1, 1], &PipeLayerConfig::default(), BUDGET);
        assert!(
            !diags
                .iter()
                .any(|d| d.code == diag::MAP_SPARES_INSUFFICIENT),
            "{diags:?}"
        );
    }

    #[test]
    fn spare_budget_versus_array_width() {
        let spec = zoo::spec_mnist_a();
        let layers = spec.resolve();
        let mut cfg = PipeLayerConfig {
            spares: SpareBudget::with_cols(128),
            ..PipeLayerConfig::default()
        };
        let diags = check(&layers, &[1, 1], &cfg, BUDGET);
        assert!(diags
            .iter()
            .any(|d| d.code == diag::MAP_SPARES_EXCEED_ARRAY && d.severity == Severity::Error));
        cfg.spares = SpareBudget::with_cols(20);
        let diags = check(&layers, &[1, 1], &cfg, BUDGET);
        assert!(diags
            .iter()
            .any(|d| d.code == diag::MAP_SPARES_EXCEED_ARRAY && d.severity == Severity::Warning));
        cfg.spares = SpareBudget::typical();
        let diags = check(&layers, &[1, 1], &cfg, BUDGET);
        assert!(!diags
            .iter()
            .any(|d| d.code == diag::MAP_SPARES_EXCEED_ARRAY));
    }
}
