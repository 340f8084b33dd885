//! Tile counts for kernel matrices on fixed-size crossbars — the balanced
//! scheme of Fig. 5: a `512×256` kernel matrix decomposes into a `4×2` grid
//! of `128×128` arrays, whose results the hardware collects horizontally
//! (output-column tiles concatenate) and sums vertically (input-row tiles
//! add). The mapping, granularity and checker models count tiles with
//! [`tile_grid`].

use std::num::NonZeroUsize;

/// Tile grid dimensions for a `rows × cols` matrix on `size × size` arrays.
///
/// Returns `(row_tiles, col_tiles)` = `(⌈rows/size⌉, ⌈cols/size⌉)`.
pub fn tile_grid(rows: usize, cols: usize, size: NonZeroUsize) -> (usize, usize) {
    (rows.div_ceil(size.get()), cols.div_ceil(size.get()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn fig5_grid() {
        // 512 rows (kernel size 512) × 256 outputs on 128x128 arrays = 4x2=8.
        let (rt, ct) = tile_grid(512, 256, nz(128));
        assert_eq!((rt, ct), (4, 2));
        assert_eq!(rt * ct, 8);
    }

    #[test]
    fn ragged_edges_round_up() {
        assert_eq!(tile_grid(129, 1, nz(128)), (2, 1));
        assert_eq!(tile_grid(128, 128, nz(128)), (1, 1));
        assert_eq!(tile_grid(1, 300, nz(128)), (1, 3));
        assert_eq!(tile_grid(0, 300, nz(128)), (0, 3));
    }
}
