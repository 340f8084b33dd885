//! Parallelism granularity (Sec. 3.2.3, Table 5, Figs. 17/18).
//!
//! `G` is the number of duplicated crossbar copies holding the same weights:
//! `G = 1` is the naive sequential scheme of Fig. 4; `G = P` (the number of
//! kernel-window positions) produces a layer's whole output in one read
//! phase at prohibitive array cost. The paper picks per-layer defaults that
//! balance the pipeline (Table 5) and sweeps a scale factor λ (Figs. 17/18).
//!
//! Table 5's digits are OCR-damaged in the available text, so the defaults
//! here are *reconstructed* by the balancing rule the paper describes: every
//! convolution layer is replicated until its sequential-read count matches
//! the smallest convolution layer's, i.e. `G_l = P_l / min_conv(P)`. For the
//! VGG networks this yields the block pattern `256, 64, 16, 4, 1` (each
//! pooling stage quarters `P`). Inner-product layers have `P = 1` and need
//! no replication.

use pipelayer_nn::spec::ResolvedLayer;
use pipelayer_reram::tile_grid;
use std::num::NonZeroUsize;

/// The paper's `128×128` crossbar, which the budgets below count in.
const XBAR_SIZE: NonZeroUsize = NonZeroUsize::MIN.saturating_add(127);

/// Crossbar budget for replicated convolution arrays used by the default
/// granularity search (≈ half the published 82.6 mm² die at the calibrated
/// per-crossbar area).
pub const DEFAULT_CONV_XBAR_BUDGET: u64 = 65_536;

/// Default per-layer granularity: the balanced scheme under an area budget.
///
/// All convolution layers are replicated until they take the same number of
/// sequential reads `R`; the search picks the smallest `R` (deepest
/// replication, shortest cycle) whose replicated conv arrays fit in
/// [`DEFAULT_CONV_XBAR_BUDGET`] crossbars. Small networks (the MNIST
/// models) therefore get full replication (`G = P`, one read per cycle),
/// while the VGG models settle around `R ≈ 128–256`, reconstructing the
/// block-patterned Table 5 defaults. FC layers have `P = 1` and `G = 1`.
pub fn default_granularity(layers: &[ResolvedLayer]) -> Vec<usize> {
    granularity_with_budget(layers, DEFAULT_CONV_XBAR_BUDGET)
}

/// [`default_granularity`] with an explicit conv-array crossbar budget.
///
/// An empty layer list yields an empty configuration; a zero budget yields
/// the fully sequential scheme (`G = 1` everywhere).
#[expect(clippy::cast_possible_truncation, reason = "G ≤ window count, a usize")]
pub fn granularity_with_budget(layers: &[ResolvedLayer], budget: u64) -> Vec<usize> {
    let g_for = |reads: u64| -> Vec<usize> {
        layers
            .iter()
            .map(|l| {
                if l.is_conv {
                    (l.window_positions as u64).div_ceil(reads).max(1) as usize
                } else {
                    1
                }
            })
            .collect()
    };
    let cost = |g: &[usize]| -> u64 {
        layers
            .iter()
            .zip(g)
            .filter(|(l, _)| l.is_conv)
            .map(|(l, &gl)| {
                let (tr, tc) = tile_grid(l.matrix_rows, l.matrix_cols, XBAR_SIZE);
                (tr * tc * gl * 8) as u64
            })
            .sum()
    };
    let max_p = layers.iter().map(|l| l.window_positions).max().unwrap_or(1) as u64;
    let mut reads = 1u64;
    loop {
        let g = g_for(reads);
        if cost(&g) <= budget || reads >= max_p {
            return g;
        }
        reads *= 2;
    }
}

/// Scales a granularity configuration by λ (Fig. 17/18): `G' = round(λ·G)`
/// clamped to `[1, P_l]`, one entry per `(g, layer)` pair. λ = 0 collapses
/// every layer to `G = 1`; `scale_max` (λ = "max") sets `G_l = P_l`. The
/// `G ≥ 1` floor is part of the model, so a negative or NaN λ also gives
/// `G = 1`; `AcceleratorBuilder::build` rejects those λ before scaling.
#[expect(clippy::cast_possible_truncation, reason = "G·λ is a small count")]
#[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
pub fn scale_lambda(g: &[usize], lambda: f64, layers: &[ResolvedLayer]) -> Vec<usize> {
    g.iter()
        .zip(layers)
        .map(|(&gl, l)| {
            let scaled = (gl as f64 * lambda).round() as usize;
            scaled.clamp(1, l.window_positions.max(1))
        })
        .collect()
}

/// The λ = max configuration: one cycle per layer (`G_l = P_l`).
pub fn scale_max(layers: &[ResolvedLayer]) -> Vec<usize> {
    layers.iter().map(|l| l.window_positions.max(1)).collect()
}

/// The "automatically optimized by compiler" path of Sec. 5.2: starting
/// from `G = 1` everywhere, repeatedly double the replication of the layer
/// with the most sequential reads (the cycle-time bottleneck) while the
/// *additional* crossbars from replication (beyond the mandatory single
/// copy of every layer) stay within `budget_xbars`. Greedy on the
/// bottleneck is effective here because the cycle time is the *max* of the
/// per-layer read counts — only shortening the current maximum can shorten
/// the cycle.
///
/// An empty layer list yields an empty configuration; a zero budget leaves
/// every layer at `G = 1` (no replication fits).
pub fn optimize_granularity(layers: &[ResolvedLayer], budget_xbars: u64) -> Vec<usize> {
    let tiles: Vec<u64> = layers
        .iter()
        .map(|l| {
            let (tr, tc) = tile_grid(l.matrix_rows, l.matrix_cols, XBAR_SIZE);
            (tr * tc * 8) as u64
        })
        .collect();
    let mut g: Vec<usize> = vec![1; layers.len()];
    // Replication cost beyond the mandatory single copy per layer.
    let cost = |g: &[usize]| -> u64 {
        g.iter()
            .zip(&tiles)
            .map(|(&gl, &t)| (gl as u64 - 1) * t)
            .sum()
    };
    loop {
        // Current bottleneck: the largest read count that can still improve.
        let mut best: Option<(usize, u64)> = None;
        for (i, l) in layers.iter().enumerate() {
            let p = l.window_positions.max(1) as u64;
            let reads = p.div_ceil(g[i] as u64);
            if reads > 1 && best.is_none_or(|(_, r)| reads > r) {
                best = Some((i, reads));
            }
        }
        let Some((i, _)) = best else { break };
        let p = layers[i].window_positions.max(1);
        let next = (g[i] * 2).min(p);
        let mut trial = g.clone();
        trial[i] = next;
        if cost(&trial) > budget_xbars {
            break;
        }
        g = trial;
    }
    g
}

/// The λ-sweep points of Fig. 17/18 (`max` encoded as `None`).
pub const LAMBDA_SWEEP: [Option<f64>; 7] = [
    Some(0.0),
    Some(0.25),
    Some(0.5),
    Some(1.0),
    Some(2.0),
    Some(4.0),
    None, // "max"
];

#[cfg(test)]
mod tests {
    use super::*;
    use pipelayer_nn::zoo;

    #[test]
    fn vgg_defaults_follow_block_pattern() {
        let spec = zoo::vgg(zoo::VggVariant::A);
        let layers = spec.resolve();
        let g = default_granularity(&layers);
        let conv_g: Vec<usize> = layers
            .iter()
            .zip(&g)
            .filter(|(l, _)| l.is_conv)
            .map(|(_, &g)| g)
            .collect();
        // Each pooling stage quarters P and thus G: a 4:1 pyramid with
        // non-increasing values (the Table 5 block pattern).
        assert!(conv_g[0] >= 3 * conv_g[1].max(1), "{conv_g:?}");
        assert!(conv_g[1] >= 3 * conv_g[2].max(1), "{conv_g:?}");
        assert!(conv_g.windows(2).all(|w| w[0] >= w[1]), "{conv_g:?}");
        // FC layers are not replicated.
        let fc_g: Vec<usize> = layers
            .iter()
            .zip(&g)
            .filter(|(l, _)| !l.is_conv)
            .map(|(_, &g)| g)
            .collect();
        assert_eq!(fc_g, vec![1, 1, 1]);
    }

    #[test]
    fn small_networks_get_full_replication() {
        // Mnist-0's conv arrays are tiny, so the budgeted search replicates
        // them fully: one read phase per cycle.
        let spec = zoo::spec_mnist_0();
        let layers = spec.resolve();
        let g = default_granularity(&layers);
        for (l, &gl) in layers.iter().zip(&g) {
            if l.is_conv {
                assert_eq!(gl, l.window_positions, "{}", l.name);
            }
        }
    }

    #[test]
    fn budget_controls_replication() {
        let spec = zoo::vgg(zoo::VggVariant::D);
        let layers = spec.resolve();
        let tight = granularity_with_budget(&layers, 1_000);
        let loose = granularity_with_budget(&layers, 10_000_000);
        for (t, l) in tight.iter().zip(&loose) {
            assert!(t <= l, "tighter budget must not replicate more");
        }
        assert!(loose.iter().sum::<usize>() > tight.iter().sum::<usize>());
    }

    #[test]
    fn defaults_balance_read_counts() {
        let spec = zoo::vgg(zoo::VggVariant::D);
        let layers = spec.resolve();
        let g = default_granularity(&layers);
        let reads: Vec<usize> = layers
            .iter()
            .zip(&g)
            .filter(|(l, _)| l.is_conv)
            .map(|(l, &g)| l.window_positions.div_ceil(g))
            .collect();
        let (min, max) = (reads.iter().min().unwrap(), reads.iter().max().unwrap());
        assert!(
            *max <= 2 * *min,
            "balanced config should equalise reads: {reads:?}"
        );
    }

    #[test]
    fn lambda_zero_is_all_ones() {
        let spec = zoo::alexnet();
        let layers = spec.resolve();
        let g = default_granularity(&layers);
        assert!(scale_lambda(&g, 0.0, &layers).iter().all(|&x| x == 1));
    }

    #[test]
    fn lambda_scales_monotonically() {
        let spec = zoo::vgg(zoo::VggVariant::C);
        let layers = spec.resolve();
        let g = default_granularity(&layers);
        let g_half = scale_lambda(&g, 0.5, &layers);
        let g_two = scale_lambda(&g, 2.0, &layers);
        for i in 0..g.len() {
            assert!(g_half[i] <= g[i] && g[i] <= g_two[i].max(g[i]));
        }
    }

    #[test]
    fn lambda_clamps_to_window_positions() {
        let spec = zoo::spec_mnist_0();
        let layers = spec.resolve();
        let g = scale_lambda(&default_granularity(&layers), 1e9, &layers);
        for (gl, l) in g.iter().zip(&layers) {
            assert!(*gl <= l.window_positions.max(1));
        }
        assert_eq!(g, scale_max(&layers));
    }

    #[test]
    fn max_gives_single_cycle_per_layer() {
        let spec = zoo::spec_mnist_0();
        let layers = spec.resolve();
        for (gl, l) in scale_max(&layers).iter().zip(&layers) {
            assert_eq!(l.window_positions.max(1).div_ceil(*gl), 1);
        }
    }

    #[test]
    fn optimizer_stays_in_budget_and_balances() {
        let spec = zoo::vgg(zoo::VggVariant::A);
        let layers = spec.resolve();
        let budget = 40_000u64;
        let g = optimize_granularity(&layers, budget);
        let cost: u64 = layers
            .iter()
            .zip(&g)
            .map(|(l, &gl)| {
                let (tr, tc) = pipelayer_reram::tile_grid(l.matrix_rows, l.matrix_cols, XBAR_SIZE);
                (tr * tc * (gl - 1) * 8) as u64
            })
            .sum();
        assert!(cost <= budget, "optimizer exceeded budget: {cost}");
        // The bottleneck read count should beat the unreplicated config by
        // a wide margin.
        let reads_opt = layers
            .iter()
            .zip(&g)
            .map(|(l, &gl)| (l.window_positions.max(1) as u64).div_ceil(gl as u64))
            .max()
            .unwrap();
        let reads_naive = layers
            .iter()
            .map(|l| l.window_positions.max(1) as u64)
            .max()
            .unwrap();
        assert!(reads_opt * 20 < reads_naive, "{reads_opt} vs {reads_naive}");
    }

    #[test]
    fn bigger_budget_never_slower() {
        let spec = zoo::alexnet();
        let layers = spec.resolve();
        let reads_for = |budget: u64| -> u64 {
            let g = optimize_granularity(&layers, budget);
            layers
                .iter()
                .zip(&g)
                .map(|(l, &gl)| (l.window_positions.max(1) as u64).div_ceil(gl as u64))
                .max()
                .unwrap()
        };
        assert!(reads_for(200_000) <= reads_for(20_000));
        assert!(reads_for(20_000) <= reads_for(5_000));
    }

    #[test]
    fn optimizer_saturates_small_networks() {
        // With a generous budget every conv layer reaches one read/cycle.
        let spec = zoo::spec_mnist_0();
        let layers = spec.resolve();
        let g = optimize_granularity(&layers, 1_000_000);
        for (l, &gl) in layers.iter().zip(&g) {
            assert_eq!(
                (l.window_positions.max(1)).div_ceil(gl),
                1,
                "{} not saturated",
                l.name
            );
        }
    }

    #[test]
    fn mlp_granularity_is_all_ones() {
        let spec = zoo::spec_mnist_c();
        let layers = spec.resolve();
        assert!(default_granularity(&layers).iter().all(|&g| g == 1));
    }
}
