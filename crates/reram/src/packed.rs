//! Bit-packed spike trains and conductance bit-planes.
//!
//! The Fig. 9(a) weighted spike datapath is all-integer: slot `s` of the
//! LSBF train carries charge weight `2^s`, and a `B`-bit cell's level is
//! `Σ_p bit_p(level)·2^p`. The dot product a bit line integrates therefore
//! factors into per-(slot, plane) partial sums
//!
//! ```text
//! out[c] = Σ_r in[r]·g[r][c]
//!        = Σ_s Σ_p popcount(fires_word[s] & g_plane[p][c]) << (s + p)
//! ```
//!
//! where `fires_word[s]` packs 64 word lines per `u64` for time slot `s`
//! and `g_plane[p][c]` packs bit `p` of column `c`'s conductances the same
//! way. Every term is an exact integer, so the packed kernel is bitwise
//! identical to the scalar slot×row×col walk regardless of summation
//! order — the same argument that makes the analog path exact in the
//! first place. The win is arithmetic density: one `popcount` replaces 64
//! boolean row visits (the BitMoD bit-serial idiom).

// This module owns the raw cell/word/slot storage: an index into it is a
// checked site, so `get` or an accessor with stated bounds is the default.
#![cfg_attr(not(test), warn(clippy::indexing_slicing))]

use crate::integrate_fire::IntegrateFire;

/// A whole input vector's spike trains, packed 64 rows per `u64` word:
/// bit `r % 64` of word `r / 64` in slot `s` is set iff word line `r`
/// fires in time slot `s`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedSpikes {
    rows: usize,
    bits: u8,
    words_per_slot: usize,
    /// `[slot][word]`, slot-major.
    words: Vec<u64>,
}

impl PackedSpikes {
    /// Packs `values` into `bits` LSBF slots (same range semantics as
    /// [`crate::SpikeTrain::encode`]: `bits` clamps to `1..=32` and only
    /// the low `bits` bits of each value are injected).
    #[expect(clippy::indexing_slicing, reason = "indices bounded by the layout")]
    pub fn encode(values: &[u32], bits: u8) -> Self {
        let bits = bits.clamp(1, 32);
        let rows = values.len();
        let words_per_slot = rows.div_ceil(64);
        let mut words = vec![0u64; bits as usize * words_per_slot];
        for (r, &v) in values.iter().enumerate() {
            let (w, b) = (r / 64, r % 64);
            for slot in 0..bits as usize {
                if (v >> slot) & 1 == 1 {
                    words[slot * words_per_slot + w] |= 1u64 << b;
                }
            }
        }
        PackedSpikes {
            rows,
            bits,
            words_per_slot,
            words,
        }
    }

    /// Word-line count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Time slots per value (the clamped driver resolution).
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The packed fire mask for time slot `slot`.
    #[expect(clippy::indexing_slicing, reason = "caller bug: slot past `bits`")]
    pub fn slot_words(&self, slot: usize) -> &[u64] {
        let base = slot * self.words_per_slot;
        &self.words[base..base + self.words_per_slot]
    }

    /// Total spikes across all rows and slots (drives read energy);
    /// equals `Σ_r popcount(values[r] & low_bits_mask)`.
    pub fn spike_count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }
}

/// Bit-plane decomposition of a crossbar's (effective) conductance
/// levels: for plane `p` and column `c`, bit `r % 64` of word `r / 64`
/// is set iff bit `p` of `level[r][c]` is set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPlanes {
    rows: usize,
    cols: usize,
    planes: u8,
    words_per_col: usize,
    /// `[plane][col][word]`, plane-major then column-major.
    words: Vec<u64>,
}

impl BitPlanes {
    /// Packs a `rows × cols` level matrix (read through `level`) into
    /// `planes` bit-planes.
    #[expect(clippy::indexing_slicing, reason = "indices bounded by the layout")]
    pub fn pack(
        rows: usize,
        cols: usize,
        planes: u8,
        mut level: impl FnMut(usize, usize) -> u8,
    ) -> Self {
        let words_per_col = rows.div_ceil(64);
        let mut words = vec![0u64; planes as usize * cols * words_per_col];
        for r in 0..rows {
            let (w, b) = (r / 64, r % 64);
            for c in 0..cols {
                let lvl = level(r, c);
                for p in 0..planes as usize {
                    if (lvl >> p) & 1 == 1 {
                        words[(p * cols + c) * words_per_col + w] |= 1u64 << b;
                    }
                }
            }
        }
        BitPlanes {
            rows,
            cols,
            planes,
            words_per_col,
            words,
        }
    }

    /// Word-line count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bit-line count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Conductance resolution in bit-planes.
    pub fn planes(&self) -> u8 {
        self.planes
    }

    /// The packed row mask of plane `plane`, column `col`.
    #[expect(clippy::indexing_slicing, reason = "caller bug: plane/col off array")]
    pub fn col_words(&self, plane: usize, col: usize) -> &[u64] {
        let base = (plane * self.cols + col) * self.words_per_col;
        &self.words[base..base + self.words_per_col]
    }
}

/// Streams every (slot, plane) partial sum of the packed MVM into the
/// per-column integrate-and-fire units: `popcount(fires & g) << (slot +
/// plane)` LSB-charge units each, exactly what the scalar path deposits.
///
/// # Panics
///
/// Panics if the geometries disagree.
pub fn integrate(spikes: &PackedSpikes, planes: &BitPlanes, fires: &mut [IntegrateFire]) {
    assert_eq!(spikes.rows(), planes.rows(), "row-count mismatch");
    assert_eq!(fires.len(), planes.cols(), "column-count mismatch");
    for slot in 0..spikes.bits() as usize {
        let sw = spikes.slot_words(slot);
        for plane in 0..planes.planes() as usize {
            let shift = slot + plane;
            for (c, inf) in fires.iter_mut().enumerate() {
                let gw = planes.col_words(plane, c);
                let mut pops = 0u64;
                for (&a, &b) in sw.iter().zip(gw) {
                    pops += (a & b).count_ones() as u64;
                }
                if pops != 0 {
                    inf.integrate(pops << shift);
                }
            }
        }
    }
}

/// Convenience wrapper over [`integrate`]: the exact integer products
/// `out[c] = Σ_r in[r]·level[r][c]`.
pub fn mvm(spikes: &PackedSpikes, planes: &BitPlanes) -> Vec<u64> {
    let mut fires = vec![IntegrateFire::new(); planes.cols()];
    integrate(spikes, planes, &mut fires);
    fires.iter_mut().map(|f| f.fire()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reference_mvm(levels: &[Vec<u8>], input: &[u32], bits: u8) -> Vec<u64> {
        let bits = bits.clamp(1, 32);
        let mask = if bits == 32 {
            u32::MAX
        } else {
            (1u32 << bits) - 1
        };
        let cols = levels[0].len();
        (0..cols)
            .map(|c| {
                levels
                    .iter()
                    .zip(input)
                    .map(|(row, &x)| row[c] as u64 * (x & mask) as u64)
                    .sum()
            })
            .collect()
    }

    #[test]
    fn packed_spikes_match_scalar_trains() {
        use crate::spike::SpikeDriver;
        let values = [0u32, 0b1011, 65535, 7, 1 << 15];
        let packed = PackedSpikes::encode(&values, 16);
        let trains = SpikeDriver::new(16).encode_vector(&values);
        for slot in 0..16 {
            for (r, t) in trains.iter().enumerate() {
                let bit = (packed.slot_words(slot)[r / 64] >> (r % 64)) & 1 == 1;
                assert_eq!(bit, t.fires(slot), "slot {slot} row {r}");
            }
        }
        let scalar_count: u64 = trains.iter().map(|t| t.spike_count() as u64).sum();
        assert_eq!(packed.spike_count(), scalar_count);
    }

    #[test]
    fn mvm_known_values() {
        let levels = [[1u8, 2], [3, 4], [5, 6]];
        let spikes = PackedSpikes::encode(&[7, 8, 9], 8);
        let planes = BitPlanes::pack(3, 2, 4, |r, c| levels[r][c]);
        assert_eq!(mvm(&spikes, &planes), vec![7 + 24 + 45, 14 + 32 + 54]);
    }

    #[test]
    fn word_boundary_rows_are_exact() {
        // 64/65/128 rows cross the packing word boundaries.
        for rows in [63usize, 64, 65, 128, 129] {
            let levels: Vec<Vec<u8>> = (0..rows).map(|r| vec![(r % 16) as u8]).collect();
            let input: Vec<u32> = (0..rows as u32).map(|r| r * 3 + 1).collect();
            let spikes = PackedSpikes::encode(&input, 12);
            let planes = BitPlanes::pack(rows, 1, 4, |r, c| levels[r][c]);
            assert_eq!(mvm(&spikes, &planes), reference_mvm(&levels, &input, 12));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The packed kernel computes the exact integer MVM for every
        /// driver resolution, including clamped (> 32) ones.
        #[test]
        fn packed_mvm_is_exact(
            rows in 1usize..80,
            cols in 1usize..6,
            bits in 1u8..=40,
            seed in 0u64..1000,
        ) {
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let levels: Vec<Vec<u8>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.random_range(0u8..16)).collect())
                .collect();
            let input: Vec<u32> = (0..rows).map(|_| rng.random_range(0u32..65536)).collect();
            let spikes = PackedSpikes::encode(&input, bits);
            let planes = BitPlanes::pack(rows, cols, 4, |r, c| levels[r][c]);
            prop_assert_eq!(mvm(&spikes, &planes), reference_mvm(&levels, &input, bits));
        }
    }
}
