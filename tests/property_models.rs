//! Property-based tests over the architecture models: randomized network
//! shapes must preserve the invariants the paper's design rests on.

use pipelayer::analysis::Analysis;
use pipelayer::config::PipeLayerConfig;
use pipelayer::energy::EnergyModel;
use pipelayer::mapping::MappedNetwork;
use pipelayer::pipeline::PipelineSim;
use pipelayer::timing::TimingModel;
use pipelayer_nn::{LayerSpec, NetSpec};
use pipelayer_reram::{Crossbar, ReramMatrix, ReramParams, VariationModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::num::NonZeroUsize;

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

/// Deterministic pseudo-random float buffer in `[-1, 1)` (the stub
/// proptest has no `collection::vec` strategy, so vectors are derived
/// from a drawn seed instead).
fn rand_floats(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random_range(-1.0f32..1.0)).collect()
}

/// A random small CNN spec: 1–3 conv blocks then 1–2 FC layers.
fn arb_spec() -> impl Strategy<Value = NetSpec> {
    (
        1usize..=3,                                      // conv blocks
        1usize..=2,                                      // fc layers
        prop::sample::select(vec![16usize, 20, 28, 32]), // input side
        1usize..=8,                                      // base channels
    )
        .prop_map(|(blocks, fcs, side, ch)| {
            let mut layers = Vec::new();
            let mut c = ch;
            for _ in 0..blocks {
                layers.push(LayerSpec::Conv {
                    k: 3,
                    c_out: c * 2,
                    stride: 1,
                    pad: 1,
                });
                layers.push(LayerSpec::Pool {
                    k: 2,
                    stride: 2,
                    kind: pipelayer_nn::spec::PoolKind::Max,
                });
                c *= 2;
            }
            for f in 0..fcs {
                layers.push(LayerSpec::Fc {
                    n_out: if f + 1 == fcs { 10 } else { 64 },
                });
            }
            NetSpec::new("prop", (1, side, side), layers)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// More replication never lengthens the cycle; less never shortens it.
    #[test]
    fn cycle_time_monotone_in_granularity(spec in arb_spec()) {
        let resolved = spec.resolve();
        let g1: Vec<usize> = vec![1; resolved.len()];
        let g2: Vec<usize> = resolved
            .iter()
            .map(|l| l.window_positions.max(1))
            .collect();
        let cfg = PipeLayerConfig::default();
        let m1 = MappedNetwork::try_with_granularity(&spec, &g1, cfg).unwrap();
        let m2 = MappedNetwork::try_with_granularity(&spec, &g2, cfg).unwrap();
        let c1 = TimingModel::new(&m1).cycle_testing_ns();
        let c2 = TimingModel::new(&m2).cycle_testing_ns();
        prop_assert!(c2 <= c1, "max replication must not be slower: {c2:?} vs {c1:?}");
    }

    /// Training is never cheaper than testing, in cycles, time or energy.
    #[test]
    fn training_dominates_testing(spec in arb_spec()) {
        let m = MappedNetwork::try_from_spec(&spec, PipeLayerConfig::with_batch(nz(16))).unwrap();
        let e = EnergyModel::new(&m);
        prop_assert!(e.training_energy_j(64) >= e.testing_energy_j(64));
        let t = TimingModel::new(&m);
        prop_assert!(t.cycle_training_ns() >= t.cycle_testing_ns());
    }

    /// The simulator and the closed form agree for every random shape.
    #[test]
    fn simulator_agrees_with_formula(spec in arb_spec(), b in 1usize..32) {
        let l = spec.weighted_layers();
        let out = PipelineSim::new(nz(l), nz(b)).simulate_training(nz(1), 0);
        prop_assert_eq!(out.cycles, Analysis::new(nz(l), nz(b)).training_cycles_pipelined(b as u64));
        prop_assert_eq!(out.dependency_violations(), 0);
    }

    /// Array counts are monotone: a deeper network never needs fewer
    /// crossbars than its prefix.
    #[test]
    fn crossbars_monotone_in_depth(spec in arb_spec()) {
        let cfg = PipeLayerConfig::default();
        let full = MappedNetwork::try_from_spec(&spec, cfg).unwrap();
        // Drop the last weighted layer (keep at least one).
        let mut layers = spec.layers.clone();
        while let Some(last) = layers.last() {
            let weighted = !matches!(last, LayerSpec::Pool { .. });
            layers.pop();
            if weighted {
                break;
            }
        }
        if layers.iter().any(|l| !matches!(l, LayerSpec::Pool { .. })) {
            while matches!(layers.last(), Some(LayerSpec::Pool { .. })) {
                layers.pop();
            }
            let prefix_spec = NetSpec::new("prefix", spec.input, layers);
            let prefix = MappedNetwork::try_from_spec(&prefix_spec, cfg).unwrap();
            prop_assert!(
                prefix.forward_crossbars() <= full.forward_crossbars(),
                "prefix needs more arrays than the full network"
            );
        }
    }

    /// Energy is exactly linear in the image count.
    #[test]
    fn energy_linear(spec in arb_spec(), k in 1u64..8) {
        let m = MappedNetwork::try_from_spec(&spec, PipeLayerConfig::with_batch(nz(8))).unwrap();
        let e = EnergyModel::new(&m);
        let one = e.testing_energy_j(8);
        let many = e.testing_energy_j(8 * k);
        prop_assert!((many - one * k as f64).0.abs() < 1e-9 * many.0.abs().max(1.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `perturb_weights` is a pure function of (weights, seed): the same
    /// seed must reproduce the corruption exactly.
    #[test]
    fn perturb_weights_deterministic_in_seed(
        n in 1usize..80,
        wseed in 0u64..1000,
        sigma in 0.0f64..3.0,
        saz in 0.0f64..0.2,
        sam in 0.0f64..0.2,
        seed in 0u64..1000,
    ) {
        let w = rand_floats(n, wseed);
        let m = VariationModel { write_sigma: sigma, stuck_at_zero: saz, stuck_at_max: sam };
        prop_assert_eq!(
            m.perturb_weights(&w, 16, 4, seed),
            m.perturb_weights(&w, 16, 4, seed)
        );
    }

    /// σ = 0 with zero stuck-at rates is the identity on any buffer.
    #[test]
    fn perturb_weights_ideal_is_identity(n in 1usize..80, wseed in 0u64..1000, seed in 0u64..1000) {
        let w = rand_floats(n, wseed);
        prop_assert_eq!(VariationModel::ideal().perturb_weights(&w, 16, 4, seed), w);
    }

    /// Corrupted weights stay inside the representable fixed-point range:
    /// no perturbation can exceed the quantization grid's ±absmax span.
    #[test]
    fn perturb_weights_stay_representable(
        n in 1usize..80,
        wseed in 0u64..1000,
        sigma in 0.0f64..4.0,
        saz in 0.0f64..0.5,
        sam in 0.0f64..0.5,
        seed in 0u64..1000,
    ) {
        let w = rand_floats(n, wseed);
        let absmax = w.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let m = VariationModel { write_sigma: sigma, stuck_at_zero: saz, stuck_at_max: sam };
        for v in m.perturb_weights(&w, 16, 4, seed) {
            prop_assert!(
                v.is_finite() && v.abs() <= absmax * (1.0 + 1e-6),
                "{v} escapes the representable range ±{absmax}"
            );
        }
    }

    /// The spiked crossbar MVM is *exact* on integer levels: it must equal
    /// a plain float dot product of the same levels and inputs.
    #[test]
    fn mvm_spiked_matches_float_mvm_exactly_on_levels(
        rows in 1usize..24,
        cols in 1usize..16,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let levels: Vec<Vec<u8>> =
            (0..rows).map(|_| (0..cols).map(|_| rng.random_range(0u32..16) as u8).collect()).collect();
        let input: Vec<u32> = (0..rows).map(|_| rng.random_range(0u32..65536)).collect();
        let mut xbar = Crossbar::new(rows, cols, 4);
        xbar.program(&levels.concat());
        let got = xbar.mvm_spiked(&input, 16);
        for c in 0..cols {
            let want: f64 = (0..rows).map(|r| input[r] as f64 * levels[r][c] as f64).sum();
            prop_assert_eq!(got[c] as f64, want, "column {}", c);
        }
    }

    /// The full analog path (input quantization → spiked crossbar MVMs →
    /// shift-add) agrees with a float `W·x` within the quantization error
    /// bound implied by `data_bits`: per-term error ≤ half a weight LSB
    /// times |x| plus half an input LSB times |w| (plus the cross term).
    #[test]
    fn matvec_within_quantization_bound(
        out_dim in 1usize..12,
        in_dim in 1usize..24,
        seed in 0u64..1000,
    ) {
        let params = ReramParams::default();
        let w = rand_floats(out_dim * in_dim, seed);
        let x = rand_floats(in_dim, seed ^ 0xabcd);
        let mut m = ReramMatrix::program(&w, out_dim, in_dim, &params);
        let got = m.matvec(&x);

        let w_absmax = w.iter().fold(0.0f64, |a, &v| a.max(v.abs() as f64));
        let x_absmax = x.iter().fold(0.0f64, |a, &v| a.max(v.abs() as f64));
        let qmax = ((1i64 << (params.data_bits - 1)) - 1) as f64;
        let in_qmax = ((1u64 << params.data_bits) - 1) as f64 / 2.0;
        let w_scale = w_absmax / qmax;
        let x_scale = x_absmax / in_qmax;
        let bound = in_dim as f64
            * (0.5 * w_scale * x_absmax + 0.5 * x_scale * w_absmax + 0.25 * w_scale * x_scale);

        for (o, &g) in got.iter().enumerate() {
            let want: f64 = (0..in_dim)
                .map(|i| w[o * in_dim + i] as f64 * x[i] as f64)
                .sum();
            prop_assert!(
                (g as f64 - want).abs() <= bound * 1.01 + 1e-6,
                "out[{}] = {} vs float {} exceeds quantization bound {}",
                o, g, want, bound
            );
        }
    }
}
