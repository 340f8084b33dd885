//! The workspace-wide per-cell random-stream convention.
//!
//! Every stochastic device model in this crate — fault-map generation
//! ([`fault`](crate::fault)), programming variation
//! ([`variation`](crate::variation)) and time-dependent drift
//! ([`drift`](crate::drift)) — derives its per-cell randomness from one
//! documented scheme so campaigns are reproducible regardless of thread
//! count, iteration order, or which models are enabled together:
//!
//! ```text
//! stream(seed, crossbar, row, col, epoch)
//! ```
//!
//! * `seed` — the campaign/matrix seed the caller owns;
//! * `crossbar` — index of the physical array within a
//!   [`ReramMatrix`](crate::ReramMatrix) (pos/neg × segment groups),
//!   folded in via [`crossbar_seed`] so the eight arrays fail and drift
//!   independently;
//! * `row`, `col` — the cell's word/bit line;
//! * `epoch` — the cell's *programming generation*: each reprogramming
//!   event starts a fresh stream, so a cell's post-write behaviour never
//!   depends on how often its neighbours were written.
//!
//! The mixer is the SplitMix64 finalizer applied to each field in turn —
//! the same permutation the workspace's `StdRng` stand-in uses — so any
//! two distinct field tuples land in statistically independent streams.

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// SplitMix64 finalizer: one well-mixed 64-bit permutation step.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Folds a physical crossbar index into a matrix-level seed. Callers that
/// deal with a single array (e.g. [`FaultMap::generate`]) take the result
/// of this as their `seed`, with `crossbar` already bound.
///
/// [`FaultMap::generate`]: crate::fault::FaultMap::generate
pub fn crossbar_seed(seed: u64, crossbar: u64) -> u64 {
    mix64(seed ^ mix64(crossbar))
}

/// The documented `(seed, crossbar, row, col, epoch)` stream head: a
/// 64-bit value unique (to mixing) per field tuple. `seed` here is the
/// crossbar-qualified seed from [`crossbar_seed`] (or a raw campaign seed
/// with `crossbar` conventionally 0).
pub fn cell_stream(seed: u64, row: usize, col: usize, epoch: u64) -> u64 {
    let mut h = seed;
    h = mix64(h ^ (row as u64));
    h = mix64(h ^ (col as u64));
    h = mix64(h ^ epoch);
    h
}

/// A per-cell generator positioned at the head of the cell's stream.
pub fn cell_rng(seed: u64, row: usize, col: usize, epoch: u64) -> StdRng {
    StdRng::seed_from_u64(cell_stream(seed, row, col, epoch))
}

/// One uniform draw in `[0, 1)` from the head of the cell's stream — the
/// cheap path for single-draw consumers (fault-kind selection).
pub fn cell_unit(seed: u64, row: usize, col: usize, epoch: u64) -> f64 {
    // 53 uniform mantissa bits, matching StdRng's f64 sampling.
    (mix64(cell_stream(seed, row, col, epoch)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Every draw of [`cell_gauss`] lies in `[-GAUSS_BOUND, GAUSS_BOUND]`: its
/// 12 uniforms in `[0, 1)` sum to at most 12 (rounding can reach it) and
/// at least 0, and it subtracts 6.
///
/// The staged read path of [`Crossbar`](crate::Crossbar) relies on this
/// bound: a cell whose read level is the same at both ends of it presents
/// that level on every read without drawing its read noise. Changing the
/// sampler invalidates that early-out; re-derive the bound with it.
pub const GAUSS_BOUND: f64 = 6.0;

/// One standard-normal draw from the cell's stream (Irwin–Hall over 12
/// uniforms, the same approximation the rest of the workspace uses),
/// within [`GAUSS_BOUND`].
pub fn cell_gauss(seed: u64, row: usize, col: usize, epoch: u64) -> f64 {
    let mut rng = cell_rng(seed, row, col, epoch);
    (0..12).map(|_| rng.random::<f64>()).sum::<f64>() - 6.0
}

/// The smallest and the largest value [`cell_gauss`] can return: all 12
/// uniforms at their smallest and at their largest value, summed as the
/// sampler sums them.
#[cfg(test)]
pub(crate) fn gauss_extremes() -> [f64; 2] {
    let largest_unit = ((u64::MAX >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
    [
        (0..12).map(|_| 0.0f64).sum::<f64>() - 6.0,
        (0..12).map(|_| largest_unit).sum::<f64>() - 6.0,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        assert_eq!(cell_stream(7, 3, 4, 0), cell_stream(7, 3, 4, 0));
        assert_eq!(cell_unit(7, 3, 4, 0), cell_unit(7, 3, 4, 0));
    }

    #[test]
    fn every_field_matters() {
        let base = cell_stream(1, 2, 3, 4);
        assert_ne!(base, cell_stream(2, 2, 3, 4), "seed");
        assert_ne!(base, cell_stream(1, 3, 3, 4), "row");
        assert_ne!(base, cell_stream(1, 2, 4, 4), "col");
        assert_ne!(base, cell_stream(1, 2, 3, 5), "epoch");
        assert_ne!(crossbar_seed(1, 0), crossbar_seed(1, 1), "crossbar");
    }

    #[test]
    fn row_col_are_not_interchangeable() {
        // (row=2, col=5) and (row=5, col=2) must not collide: the mixer is
        // applied sequentially, not symmetrically.
        assert_ne!(cell_stream(9, 2, 5, 0), cell_stream(9, 5, 2, 0));
    }

    #[test]
    fn units_are_roughly_uniform() {
        let n = 4000;
        let mean: f64 = (0..n).map(|i| cell_unit(11, i, 0, 0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean}");
    }

    /// The sampler's output stays within [`GAUSS_BOUND`]: its extremes
    /// and a sweep of real draws.
    #[test]
    fn gauss_stays_within_its_bound() {
        for z in gauss_extremes() {
            assert!((-GAUSS_BOUND..=GAUSS_BOUND).contains(&z), "{z}");
        }
        for i in 0..20_000 {
            let z = cell_gauss(17, i % 128, i / 128, 3);
            assert!((-GAUSS_BOUND..=GAUSS_BOUND).contains(&z), "{z}");
        }
    }

    #[test]
    fn gauss_has_unit_scale() {
        let n = 2000;
        let var: f64 = (0..n).map(|i| cell_gauss(13, i, 7, 1).powi(2)).sum::<f64>() / n as f64;
        assert!((var - 1.0).abs() < 0.15, "variance {var}");
    }
}
