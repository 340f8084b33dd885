//! Symmetric fixed-point quantization.

use pipelayer_tensor::Tensor;

/// A rejected [`Quantizer`] resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantError {
    /// The requested resolution is outside the supported `1..=24` bits.
    UnsupportedResolution(u8),
}

impl core::fmt::Display for QuantError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            QuantError::UnsupportedResolution(bits) => {
                write!(f, "resolution must be 1..=24 bits, got {bits}")
            }
        }
    }
}

impl std::error::Error for QuantError {}

/// A symmetric signed quantizer with `bits` of resolution: the representable
/// codes are `-(2^(bits-1)-1) ..= 2^(bits-1)-1` (zero always representable;
/// positive and negative magnitudes map to the paper's positive/negative
/// crossbars).
///
/// For `bits == 1` the single magnitude level acts as a sign bit
/// (codes −1, 0, +1 collapse to −1/0/+1 of one level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Quantizer {
    bits: u8,
}

impl Quantizer {
    /// Creates a quantizer.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedResolution`] unless
    /// `1 <= bits <= 24`.
    pub fn try_new(bits: u8) -> Result<Self, QuantError> {
        if !(1..=24).contains(&bits) {
            return Err(QuantError::UnsupportedResolution(bits));
        }
        Ok(Quantizer { bits })
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Largest magnitude code: `2^(bits-1) − 1` (at least 1).
    #[expect(clippy::cast_possible_truncation, reason = "bits ≤ 24: qmax fits i32")]
    pub fn qmax(&self) -> i32 {
        ((1i64 << (self.bits - 1)) - 1).max(1) as i32
    }

    /// Step size (LSB value) for data spanning `[-absmax, absmax]`.
    #[expect(clippy::cast_precision_loss, reason = "bits ≤ 24: qmax is exact")]
    pub fn scale(&self, absmax: f32) -> f32 {
        if absmax == 0.0 {
            1.0
        } else {
            absmax / self.qmax() as f32
        }
    }

    /// Quantizes `x` to an integer code for data range `absmax`.
    #[expect(clippy::cast_possible_truncation, reason = "saturating, then clamped")]
    pub fn quantize(&self, x: f32, absmax: f32) -> i32 {
        let s = self.scale(absmax);
        let q = (x / s).round() as i64;
        q.clamp(-(self.qmax() as i64), self.qmax() as i64) as i32
    }

    /// Quantize–dequantize round trip: the value the hardware actually
    /// represents.
    #[expect(clippy::cast_precision_loss, reason = "bits ≤ 24: codes are exact")]
    pub fn quantize_dequantize(&self, x: f32, absmax: f32) -> f32 {
        self.quantize(x, absmax) as f32 * self.scale(absmax)
    }

    /// Quantize–dequantizes a whole tensor against its own max magnitude
    /// (per-tensor scaling, the paper's per-array weight mapping).
    pub fn quantize_tensor(&self, t: &Tensor) -> Tensor {
        let absmax = t.abs_max();
        t.map(|x| self.quantize_dequantize(x, absmax))
    }

    /// Worst-case absolute representation error for range `absmax`.
    pub fn max_error(&self, absmax: f32) -> f32 {
        self.scale(absmax) * 0.5
    }

    /// Quantize–dequantizes a rank-≥2 tensor with an independent scale per
    /// leading-axis slice. For a `[C_out, ...]` kernel tensor this is
    /// *per-bitline* scaling: each output channel's kernel occupies its own
    /// bit line (Fig. 4), whose current range can be referenced
    /// independently, so one outlier channel no longer wastes the other
    /// channels' resolution.
    ///
    /// # Panics
    ///
    /// Panics on rank-0/1 tensors (use [`quantize_tensor`]).
    ///
    /// [`quantize_tensor`]: Self::quantize_tensor
    #[expect(clippy::disallowed_macros, reason = "caller bug: rank below 2")]
    pub fn quantize_tensor_per_channel(&self, t: &Tensor) -> Tensor {
        assert!(
            t.shape().rank() >= 2,
            "per-channel quantization needs a rank-2+ tensor"
        );
        let channels = t.dims()[0];
        let stride = t.numel() / channels;
        let data = t.as_slice();
        let mut out = Vec::with_capacity(t.numel());
        for ch in 0..channels {
            let slice = &data[ch * stride..(ch + 1) * stride];
            let absmax = slice.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            out.extend(slice.iter().map(|&x| self.quantize_dequantize(x, absmax)));
        }
        Tensor::from_vec(t.dims(), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn quantizer(bits: u8) -> Quantizer {
        Quantizer::try_new(bits).unwrap()
    }

    #[test]
    fn qmax_values() {
        assert_eq!(quantizer(4).qmax(), 7);
        assert_eq!(quantizer(8).qmax(), 127);
        assert_eq!(quantizer(16).qmax(), 32767);
        assert_eq!(quantizer(1).qmax(), 1);
    }

    #[test]
    fn try_new_rejects_out_of_range_resolutions() {
        assert_eq!(
            Quantizer::try_new(0),
            Err(QuantError::UnsupportedResolution(0))
        );
        assert_eq!(
            Quantizer::try_new(25),
            Err(QuantError::UnsupportedResolution(25))
        );
        assert_eq!(Quantizer::try_new(16).map(|q| q.bits()), Ok(16));
    }

    #[test]
    fn zero_is_exact() {
        for bits in 1..=16 {
            assert_eq!(quantizer(bits).quantize_dequantize(0.0, 3.0), 0.0);
        }
    }

    #[test]
    fn extremes_are_exact() {
        let q = quantizer(6);
        assert!((q.quantize_dequantize(2.5, 2.5) - 2.5).abs() < 1e-6);
        assert!((q.quantize_dequantize(-2.5, 2.5) + 2.5).abs() < 1e-6);
    }

    #[test]
    fn tensor_quantization_reduces_distinct_values() {
        let t = Tensor::from_fn(&[100], |i| (i[0] as f32 * 0.3).sin());
        let q2 = quantizer(2).quantize_tensor(&t);
        let mut vals: Vec<i32> = q2.as_slice().iter().map(|&v| (v * 1000.0) as i32).collect();
        vals.sort_unstable();
        vals.dedup();
        assert!(
            vals.len() <= 3,
            "2-bit should leave ≤3 levels, got {}",
            vals.len()
        );
    }

    #[test]
    fn more_bits_never_worse() {
        let t = Tensor::from_fn(&[64], |i| ((i[0] * 7 % 13) as f32 - 6.0) * 0.1);
        let mut last_err = f32::INFINITY;
        for bits in [2u8, 4, 6, 8, 12] {
            let q = quantizer(bits).quantize_tensor(&t);
            let err = (&t - &q).norm_sq();
            assert!(err <= last_err + 1e-9, "error grew at {bits} bits");
            last_err = err;
        }
    }

    #[test]
    fn per_channel_beats_per_tensor_with_outlier() {
        // One channel holds a huge outlier; per-tensor scaling destroys the
        // other channel's resolution, per-channel scaling preserves it.
        let t = Tensor::from_vec(&[2, 4], vec![100.0, 0.0, 0.0, 0.0, 0.1, 0.2, -0.15, 0.05]);
        let q = quantizer(4);
        let per_tensor = q.quantize_tensor(&t);
        let per_channel = q.quantize_tensor_per_channel(&t);
        let err = |qt: &Tensor| -> f32 {
            (8..16.min(qt.numel()))
                .map(|i| (qt.as_slice()[i] - t.as_slice()[i]).abs())
                .sum::<f32>()
                + (4..8)
                    .map(|i| (qt.as_slice()[i] - t.as_slice()[i]).abs())
                    .sum::<f32>()
        };
        assert!(
            err(&per_channel) < err(&per_tensor),
            "per-channel should preserve the small channel"
        );
        // The small channel survives per-channel quantization almost intact.
        assert!((per_channel.as_slice()[5] - 0.2).abs() < 0.02);
        // Per-tensor flattens it to zero (step = 100/7 ≈ 14).
        assert_eq!(per_tensor.as_slice()[5], 0.0);
    }

    #[test]
    fn per_channel_matches_per_tensor_for_uniform_channels() {
        let t = Tensor::from_fn(&[3, 5], |i| ((i[1] as f32) - 2.0) * 0.25);
        let q = quantizer(6);
        assert!(q
            .quantize_tensor_per_channel(&t)
            .allclose(&q.quantize_tensor(&t), 1e-6));
    }

    #[test]
    #[should_panic(expected = "rank-2+")]
    fn per_channel_rejects_vectors() {
        quantizer(4).quantize_tensor_per_channel(&Tensor::ones(&[4]));
    }

    proptest! {
        #[test]
        fn error_bounded_by_half_lsb(x in -5.0f32..5.0, bits in 2u8..16) {
            let q = quantizer(bits);
            let v = q.quantize_dequantize(x, 5.0);
            prop_assert!((v - x).abs() <= q.max_error(5.0) + 1e-5);
        }

        #[test]
        fn quantization_is_idempotent(x in -1.0f32..1.0, bits in 2u8..12) {
            let q = quantizer(bits);
            let once = q.quantize_dequantize(x, 1.0);
            let twice = q.quantize_dequantize(once, 1.0);
            prop_assert!((once - twice).abs() < 1e-6);
        }

        #[test]
        fn sign_symmetry(x in 0.0f32..2.0, bits in 2u8..12) {
            let q = quantizer(bits);
            prop_assert!(
                (q.quantize_dequantize(x, 2.0) + q.quantize_dequantize(-x, 2.0)).abs() < 1e-6
            );
        }
    }
}
