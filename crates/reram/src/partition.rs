//! Matrix partitioning onto fixed-size crossbar tiles — the balanced scheme
//! of Fig. 5: a `512×256` kernel matrix decomposes into a `4×2` grid of
//! `128×128` arrays; results are *collected horizontally* (tiles in the same
//! row group of output columns concatenate) and *summed vertically* (tiles
//! covering different input slices of the same outputs add).

use crate::crossbar::Crossbar;

/// Tile grid dimensions for a `rows × cols` matrix on `size × size` arrays.
///
/// Returns `(row_tiles, col_tiles)` = `(⌈rows/size⌉, ⌈cols/size⌉)`.
///
/// # Panics
///
/// Panics if any argument is zero.
pub fn tile_grid(rows: usize, cols: usize, size: usize) -> (usize, usize) {
    assert!(
        rows > 0 && cols > 0 && size > 0,
        "tile_grid arguments must be non-zero"
    );
    (rows.div_ceil(size), cols.div_ceil(size))
}

/// A large integer matrix realised as a grid of fixed-size crossbars.
///
/// This type exists to *prove* the partitioning is correct: property tests
/// check that the tiled MVM equals the monolithic one. The performance model
/// only needs the tile counts ([`tile_grid`]).
#[derive(Debug, Clone)]
pub struct PartitionedMatrix {
    rows: usize,
    cols: usize,
    size: usize,
    /// `tiles[rt][ct]` covers input slice `rt·size..` and output slice
    /// `ct·size..`.
    tiles: Vec<Vec<Crossbar>>,
}

impl PartitionedMatrix {
    /// Partitions a row-major `rows × cols` level matrix (input-major:
    /// `levels[input][output]`) onto `size × size` crossbars of `bits`-bit
    /// cells.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches or zero sizes.
    pub fn program(levels: &[Vec<u8>], size: usize, bits: u8) -> Self {
        assert!(!levels.is_empty(), "empty level matrix");
        let rows = levels.len();
        let cols = levels[0].len();
        assert!(
            levels.iter().all(|r| r.len() == cols),
            "ragged level matrix"
        );
        let (rt, ct) = tile_grid(rows, cols, size);
        let mut tiles = Vec::with_capacity(rt);
        for tr in 0..rt {
            let mut row_tiles = Vec::with_capacity(ct);
            let r0 = tr * size;
            let r1 = (r0 + size).min(rows);
            for tc in 0..ct {
                let c0 = tc * size;
                let c1 = (c0 + size).min(cols);
                let mut xbar = Crossbar::new(r1 - r0, c1 - c0, bits);
                let sub: Vec<u8> = levels[r0..r1]
                    .iter()
                    .flat_map(|row| &row[c0..c1])
                    .copied()
                    .collect();
                xbar.program(&sub);
                row_tiles.push(xbar);
            }
            tiles.push(row_tiles);
        }
        PartitionedMatrix {
            rows,
            cols,
            size,
            tiles,
        }
    }

    /// Number of physical crossbars.
    pub fn tile_count(&self) -> usize {
        self.tiles.iter().map(|r| r.len()).sum()
    }

    /// Tiled MVM: each tile multiplies its input slice; outputs concatenate
    /// across column tiles and sum across row tiles.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != rows`.
    pub fn mvm(&mut self, input: &[u32], input_bits: u8) -> Vec<u64> {
        assert_eq!(input.len(), self.rows, "input length mismatch");
        let mut out = vec![0u64; self.cols];
        for (tr, row_tiles) in self.tiles.iter_mut().enumerate() {
            let r0 = tr * self.size;
            let r1 = (r0 + self.size).min(self.rows);
            let slice = &input[r0..r1];
            for (tc, xbar) in row_tiles.iter_mut().enumerate() {
                let c0 = tc * self.size;
                let partial = xbar.mvm_spiked(slice, input_bits);
                for (k, &p) in partial.iter().enumerate() {
                    out[c0 + k] += p; // vertical sum
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fig5_grid() {
        // 512 rows (kernel size 512) × 256 outputs on 128x128 arrays = 4x2=8.
        let (rt, ct) = tile_grid(512, 256, 128);
        assert_eq!((rt, ct), (4, 2));
        assert_eq!(rt * ct, 8);
    }

    #[test]
    fn ragged_edges_round_up() {
        assert_eq!(tile_grid(129, 1, 128), (2, 1));
        assert_eq!(tile_grid(128, 128, 128), (1, 1));
        assert_eq!(tile_grid(1, 300, 128), (1, 3));
    }

    #[test]
    fn tiled_equals_monolithic_small() {
        let levels: Vec<Vec<u8>> = (0..5)
            .map(|r| (0..7).map(|c| ((r * 7 + c) % 16) as u8).collect())
            .collect();
        let input: Vec<u32> = (0..5).map(|i| (i * i) as u32).collect();
        let mut mono = Crossbar::new(5, 7, 4);
        mono.program(&levels.concat());
        let want = mono.mvm_spiked(&input, 8);
        let mut part = PartitionedMatrix::program(&levels, 2, 4);
        assert_eq!(part.tile_count(), 3 * 4);
        assert_eq!(part.mvm(&input, 8), want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn tiled_mvm_exact(
            rows in 1usize..20,
            cols in 1usize..20,
            size in 1usize..8,
            seed in 0u64..1000,
        ) {
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let levels: Vec<Vec<u8>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.random_range(0u8..16)).collect())
                .collect();
            let input: Vec<u32> = (0..rows).map(|_| rng.random_range(0u32..256)).collect();
            let mut mono = Crossbar::new(rows, cols, 4);
            mono.program(&levels.concat());
            let want = mono.mvm_spiked(&input, 8);
            let mut part = PartitionedMatrix::program(&levels, size, 4);
            prop_assert_eq!(part.mvm(&input, 8), want);
        }
    }
}
