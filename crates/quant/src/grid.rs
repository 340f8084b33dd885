//! Exact quantized code grids and accumulator-width arithmetic.
//!
//! The PL04x range analysis (`pipelayer-check`) needs to see the datapath
//! the way the hardware does: not the dequantized `f32` weights but the
//! integer *codes* programmed into the cells, because the shift-add
//! accumulator behind each bit line (Figs. 9/14) sums code-space partial
//! products. [`QuantizedGrid`] captures a tensor's exact code image plus
//! the per-bit-line aggregates that bound those sums, and the free
//! functions size accumulators ISAAC-style from worst-case products.

use crate::fixed::Quantizer;
use pipelayer_tensor::Tensor;

/// The exact integer-code image of one tensor under per-tensor symmetric
/// scaling: codes, the shared scale, and the metadata the range analysis
/// consumes. Leading-axis slices are *bit lines*: row `j` of a `[n_out,
/// n_in]` inner-product matrix, or output channel `c` of a `[C_out, C_in,
/// K, K]` kernel stack — in both cases the weights one crossbar column
/// accumulates over (Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedGrid {
    quantizer: Quantizer,
    absmax: f32,
    dims: Vec<usize>,
    codes: Vec<i32>,
}

impl QuantizedGrid {
    /// Resolution in bits.
    pub fn bits(&self) -> u8 {
        self.quantizer.bits()
    }

    /// The per-tensor scaling magnitude the codes were quantized against.
    pub fn absmax(&self) -> f32 {
        self.absmax
    }

    /// Step size: the value of one code LSB.
    pub fn scale(&self) -> f32 {
        self.quantizer.scale(self.absmax)
    }

    /// Tensor dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The integer codes, row-major.
    pub fn codes(&self) -> &[i32] {
        &self.codes
    }

    /// The value the hardware represents for code index `i`.
    #[expect(clippy::cast_precision_loss, reason = "24-bit codes are exact")]
    pub fn dequant(&self, i: usize) -> f32 {
        self.codes[i] as f32 * self.scale()
    }

    /// Largest |code| present anywhere in the grid.
    pub fn max_abs_code(&self) -> i32 {
        self.codes.iter().map(|c| c.abs()).max().unwrap_or(0)
    }

    /// Largest Σ|code| over leading-axis slices — the worst bit line's L1
    /// weight mass in code space, the quantity that (times the input code
    /// bound) sizes the accumulator.
    ///
    /// Returns 0 for empty or rank-0 grids.
    pub fn max_slice_code_l1(&self) -> u64 {
        if self.dims.is_empty() || self.codes.is_empty() {
            return self.codes.iter().map(|c| c.unsigned_abs() as u64).sum();
        }
        let slices = self.dims[0].max(1);
        let stride = self.codes.len() / slices;
        (0..slices)
            .map(|s| {
                self.codes[s * stride..(s + 1) * stride]
                    .iter()
                    .map(|c| c.unsigned_abs() as u64)
                    .sum()
            })
            .max()
            .unwrap_or(0)
    }
}

impl Quantizer {
    /// Quantizes `t` against its own max magnitude and returns the exact
    /// code grid (the integer image [`quantize_tensor`] dequantizes).
    ///
    /// [`quantize_tensor`]: Quantizer::quantize_tensor
    pub fn grid(&self, t: &Tensor) -> QuantizedGrid {
        let absmax = t.abs_max();
        QuantizedGrid {
            quantizer: *self,
            absmax,
            dims: t.dims().to_vec(),
            codes: t
                .as_slice()
                .iter()
                .map(|&x| self.quantize(x, absmax))
                .collect(),
        }
    }
}

/// Signed bits (including the sign bit) needed to represent every value in
/// `±magnitude`: `⌈log₂(magnitude+1)⌉ + 1`, minimum 1.
pub fn bits_for_magnitude(magnitude: u128) -> u32 {
    (u128::BITS - magnitude.leading_zeros()) + 1
}

/// Worst-case signed accumulator width for a dot product of `rows` terms of
/// `w_bits`-bit weights against `x_bits`-bit inputs — the geometry-only
/// bound used when actual weights are unavailable (ImageNet-scale models):
/// every term at `qmax_w · qmax_x`.
pub fn accumulator_bits_worst_case(rows: u64, w_bits: u8, x_bits: u8) -> u32 {
    let qmax = |b: u8| -> u128 {
        if b == 0 {
            return 0;
        }
        ((1u128 << (b.min(127) - 1)) - 1).max(1)
    };
    bits_for_magnitude(rows as u128 * qmax(w_bits) * qmax(x_bits))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quantizer(bits: u8) -> Quantizer {
        Quantizer::try_new(bits).unwrap()
    }

    #[test]
    fn grid_matches_quantize_dequantize() {
        let t = Tensor::from_vec(&[2, 3], vec![0.5, -1.0, 0.25, 0.75, -0.3, 1.0]);
        let q = quantizer(8);
        let grid = q.grid(&t);
        let qd = q.quantize_tensor(&t);
        for i in 0..t.numel() {
            assert!(
                (grid.dequant(i) - qd.as_slice()[i]).abs() < 1e-7,
                "code {i} disagrees"
            );
        }
        assert_eq!(grid.max_abs_code(), 127);
        assert_eq!(grid.dims(), &[2, 3]);
    }

    #[test]
    fn slice_l1_picks_the_heaviest_bit_line() {
        // Row 0 codes: 7, -7, 7 (L1 21); row 1: 1, 0, -1 (L1 2).
        let t = Tensor::from_vec(&[2, 3], vec![1.0, -1.0, 1.0, 0.14, 0.0, -0.14]);
        let grid = quantizer(4).grid(&t);
        assert_eq!(grid.max_slice_code_l1(), 21);
    }

    #[test]
    fn bits_for_magnitude_edges() {
        assert_eq!(bits_for_magnitude(0), 1);
        assert_eq!(bits_for_magnitude(1), 2); // ±1 needs 2 signed bits
        assert_eq!(bits_for_magnitude(127), 8);
        assert_eq!(bits_for_magnitude(128), 9);
        assert_eq!(bits_for_magnitude(32767), 16);
    }

    #[test]
    fn worst_case_matches_hand_arithmetic() {
        // One 16x16-bit product: 32767² ≈ 2^29.999 -> 31 signed bits.
        assert_eq!(accumulator_bits_worst_case(1, 16, 16), 31);
        // C-4 conv2 at 8 bits: 73 rows x 127 x 127 = 1_177_417 -> 22.
        assert_eq!(accumulator_bits_worst_case(73, 8, 8), 22);
        // VGG ip25088-4096 at 16 bits needs 46 signed bits.
        assert_eq!(accumulator_bits_worst_case(25_089, 16, 16), 46);
    }

    #[test]
    fn vector_grid_has_single_slice() {
        let t = Tensor::from_vec(&[4], vec![1.0, -0.5, 0.25, 0.0]);
        let grid = quantizer(4).grid(&t);
        // Leading axis = 4 slices of one element; worst slice L1 = 7.
        assert_eq!(grid.max_slice_code_l1(), 7);
    }
}
