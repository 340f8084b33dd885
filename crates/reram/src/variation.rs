//! Device non-idealities: programming variation and stuck-at faults.
//!
//! Sec. 5.1 of the paper leans on neural networks' "inherent error
//! tolerance" to justify 4-bit cells. This module makes that testable: a
//! [`VariationModel`] perturbs programmed conductance levels the way real
//! metal-oxide ReRAM does — Gaussian write variation around the target
//! level plus a fraction of cells stuck at the extreme states — so the
//! accuracy cost of device imperfection can be measured (the
//! `ablation_variation` bench).

use rand::{Rng, RngExt as _};

/// A stochastic cell-level fault/variation model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    /// Standard deviation of the programmed level, in levels (a cell
    /// targeted at level `v` lands at `round(v + N(0, σ))`, clamped).
    pub write_sigma: f64,
    /// Probability a cell is stuck at level 0 (high-resistance state).
    pub stuck_at_zero: f64,
    /// Probability a cell is stuck at the maximum level.
    pub stuck_at_max: f64,
}

impl VariationModel {
    /// An ideal device (no perturbation).
    pub fn ideal() -> Self {
        VariationModel {
            write_sigma: 0.0,
            stuck_at_zero: 0.0,
            stuck_at_max: 0.0,
        }
    }

    /// A variation-only model with the given write σ (in levels), stored
    /// as given. The Gaussian is symmetric, so a negative σ samples like
    /// |σ|.
    pub fn with_sigma(sigma: f64) -> Self {
        VariationModel {
            write_sigma: sigma,
            ..Self::ideal()
        }
    }

    /// `true` if the model perturbs nothing.
    pub fn is_ideal(&self) -> bool {
        self.write_sigma == 0.0 && self.stuck_at_zero == 0.0 && self.stuck_at_max == 0.0
    }

    /// Applies the model to one programmed cell targeting `level` on a cell
    /// with `max_level` states.
    #[expect(clippy::cast_possible_truncation, reason = "clamped to 0..=max_level")]
    pub fn perturb_level(&self, level: u8, max_level: u8, rng: &mut impl Rng) -> u8 {
        let r: f64 = rng.random();
        if r < self.stuck_at_zero {
            return 0;
        }
        if r < self.stuck_at_zero + self.stuck_at_max {
            return max_level;
        }
        if self.write_sigma == 0.0 {
            return level;
        }
        // Irwin–Hall approximate Gaussian, matching the tensor crate's randn.
        let g: f64 = (0..12).map(|_| rng.random::<f64>()).sum::<f64>() - 6.0;
        let noisy = level as f64 + g * self.write_sigma;
        noisy.round().clamp(0.0, max_level as f64) as u8
    }

    /// Applies the model to a signed fixed-point code stored as
    /// `data_bits / cell_bits` magnitude segments on positive/negative
    /// cells: each segment is independently perturbed, then the code is
    /// recomposed. This is exactly what storing the value in a PipeLayer
    /// array pair does to it.
    ///
    /// # Panics
    ///
    /// Panics unless `cell_bits` divides `data_bits`.
    #[expect(clippy::cast_possible_truncation, reason = "masked or clamped first")]
    pub fn perturb_code(&self, code: i32, data_bits: u8, cell_bits: u8, rng: &mut impl Rng) -> i32 {
        assert_eq!(data_bits % cell_bits, 0, "cell bits must divide data bits");
        if self.is_ideal() {
            return code;
        }
        let groups = u32::from(data_bits / cell_bits);
        let mask = (1u32 << cell_bits) - 1;
        let max_level = mask as u8;
        let magnitude = code.unsigned_abs();
        let mut out = 0u32;
        for g in 0..groups {
            let seg = ((magnitude >> (g * u32::from(cell_bits))) & mask) as u8;
            let noisy = self.perturb_level(seg, max_level, rng);
            out |= u32::from(noisy) << (g * u32::from(cell_bits));
        }
        let qmax = (1i64 << (data_bits - 1)) - 1;
        let signed = (out as i64).min(qmax) as i32;
        if code < 0 {
            -signed
        } else {
            signed
        }
    }

    /// Perturbs a whole float buffer as if quantized to `data_bits` against
    /// its own max magnitude and stored on faulty cells, returning the
    /// dequantized (corrupted) values. Deterministic in `seed`: each
    /// element draws from its own `(seed, crossbar, row=index, col=0,
    /// epoch=0)` stream (see [`crate::seedstream`]), so a value's fate is
    /// independent of buffer traversal order.
    #[expect(clippy::cast_possible_truncation, reason = "clamped to ±qmax first")]
    #[expect(clippy::cast_precision_loss, reason = "f32 rounding is the model's")]
    pub fn perturb_weights(
        &self,
        weights: &[f32],
        data_bits: u8,
        cell_bits: u8,
        seed: u64,
    ) -> Vec<f32> {
        if self.is_ideal() {
            return weights.to_vec();
        }
        let absmax = weights.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
        if absmax == 0.0 {
            return weights.to_vec();
        }
        let qmax = ((1i64 << (data_bits - 1)) - 1) as f32;
        let scale = absmax / qmax;
        weights
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let mut rng = crate::seedstream::cell_rng(seed, i, 0, 0);
                let code = (w / scale).round().clamp(-qmax, qmax) as i32;
                self.perturb_code(code, data_bits, cell_bits, &mut rng) as f32 * scale
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn ideal_model_is_identity() {
        let m = VariationModel::ideal();
        let w = vec![0.5f32, -0.25, 0.0, 1.0];
        assert_eq!(m.perturb_weights(&w, 16, 4, 1), w);
    }

    #[test]
    fn stuck_at_zero_kills_everything_at_p1() {
        let m = VariationModel {
            write_sigma: 0.0,
            stuck_at_zero: 1.0,
            stuck_at_max: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(m.perturb_level(12, 15, &mut rng), 0);
        let w = m.perturb_weights(&[0.7, -0.3], 16, 4, 3);
        assert!(w.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn small_sigma_small_error() {
        let m = VariationModel::with_sigma(0.3);
        let w: Vec<f32> = (0..1000).map(|i| ((i as f32) * 0.013).sin()).collect();
        let p = m.perturb_weights(&w, 16, 4, 7);
        let rms: f32 = w
            .iter()
            .zip(&p)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt()
            / (w.len() as f32).sqrt();
        // σ=0.3 levels on the LSB nibble of a 16-bit code is tiny in value.
        assert!(rms < 0.05, "rms error {rms} too large for σ=0.3");
    }

    #[test]
    fn larger_sigma_larger_error() {
        let w: Vec<f32> = (0..500).map(|i| ((i as f32) * 0.017).cos()).collect();
        let err = |sigma: f64| -> f32 {
            let p = VariationModel::with_sigma(sigma).perturb_weights(&w, 16, 4, 11);
            w.iter().zip(&p).map(|(a, b)| (a - b).abs()).sum()
        };
        assert!(err(2.0) > err(0.2), "error must grow with sigma");
    }

    #[test]
    fn deterministic_in_seed() {
        let m = VariationModel::with_sigma(1.0);
        let w = vec![0.1f32, 0.9, -0.4];
        assert_eq!(
            m.perturb_weights(&w, 16, 4, 5),
            m.perturb_weights(&w, 16, 4, 5)
        );
        // Different seed, (very likely) different corruption.
        assert_ne!(
            m.perturb_weights(&w, 16, 4, 5),
            m.perturb_weights(&w, 16, 4, 6)
        );
    }

    proptest! {
        /// Perturbed codes stay in the representable range and preserve
        /// sign (pos/neg cells are physically separate).
        #[test]
        fn codes_stay_in_range(code in -32767i32..32767, sigma in 0.0f64..4.0, seed in 0u64..100) {
            let m = VariationModel::with_sigma(sigma);
            let mut rng = StdRng::seed_from_u64(seed);
            let p = m.perturb_code(code, 16, 4, &mut rng);
            prop_assert!(p.abs() <= 32767);
            if code > 0 { prop_assert!(p >= 0); }
            if code < 0 { prop_assert!(p <= 0); }
        }

        /// Zero sigma + zero fault probability never changes a code.
        #[test]
        fn ideal_code_identity(code in -32767i32..32767) {
            let mut rng = StdRng::seed_from_u64(0);
            prop_assert_eq!(VariationModel::ideal().perturb_code(code, 16, 4, &mut rng), code);
        }
    }
}
