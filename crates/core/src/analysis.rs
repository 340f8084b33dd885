//! Closed-form latency/cost analysis (Fig. 7, Table 2).
//!
//! All counts are in logical cycles for a network of `L` weighted layers,
//! batch size `B` and `N` input images (`N` a multiple of `B`):
//!
//! * non-pipelined training: forward `L` + backward `L+1` cycles per image,
//!   plus one update cycle per batch → `(2L+1)·N + N/B`;
//! * pipelined training: a batch fills in `2L+1` cycles, streams one image
//!   per cycle for the remaining `B−1`, then spends one update cycle →
//!   `(N/B)·(2L+B+1)` (Fig. 7b);
//! * pipelined testing: no weight updates, so inputs stream without batch
//!   drains → `N + L − 1`.

use std::num::NonZeroUsize;

/// Cycle counts and array/buffer costs from the Table 2 formulas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Analysis {
    /// Number of weighted layers `L`.
    pub l: NonZeroUsize,
    /// Batch size `B`.
    pub b: NonZeroUsize,
}

impl Analysis {
    /// Creates an analysis for `L` layers and batch `B`.
    pub fn new(l: NonZeroUsize, b: NonZeroUsize) -> Self {
        Analysis { l, b }
    }

    /// Non-pipelined training cycles for `n` images: `(2L+1)N + N/B`.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive multiple of `B`.
    pub fn training_cycles_nonpipelined(&self, n: u64) -> u64 {
        self.check(n);
        (2 * self.l.get() as u64 + 1) * n + n / self.b.get() as u64
    }

    /// Pipelined training cycles: `(N/B)(2L+B+1)` (Fig. 7b).
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive multiple of `B`.
    pub fn training_cycles_pipelined(&self, n: u64) -> u64 {
        self.check(n);
        (n / self.b.get() as u64) * (2 * self.l.get() as u64 + self.b.get() as u64 + 1)
    }

    /// Non-pipelined testing cycles: `L` per image.
    #[expect(clippy::disallowed_macros, reason = "caller bug: empty workload")]
    pub fn testing_cycles_nonpipelined(&self, n: u64) -> u64 {
        assert!(n > 0, "empty workload");
        self.l.get() as u64 * n
    }

    /// Pipelined testing cycles: fill `L−1`, then one result per cycle.
    #[expect(clippy::disallowed_macros, reason = "caller bug: empty workload")]
    pub fn testing_cycles_pipelined(&self, n: u64) -> u64 {
        assert!(n > 0, "empty workload");
        n + self.l.get() as u64 - 1
    }

    /// Pipelined training cycles for an arbitrary image count: full batches
    /// cost `2L+B+1` each; a trailing partial batch of `r` images still
    /// fills and updates, costing `2L+r+1`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[expect(clippy::disallowed_macros, reason = "caller bug: empty workload")]
    pub fn training_cycles_pipelined_ragged(&self, n: u64) -> u64 {
        assert!(n > 0, "empty workload");
        let b = self.b.get() as u64;
        let l = self.l.get() as u64;
        let full = n / b;
        let rem = n % b;
        let mut cycles = full * (2 * l + b + 1);
        if rem > 0 {
            cycles += 2 * l + rem + 1;
        }
        cycles
    }

    /// Pipelined-over-non-pipelined training speedup in the `N → ∞` limit:
    /// `(2L+1)B / (2L+B+1)` (approaches `2L+1` for large `B`).
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn training_pipeline_speedup_limit(&self) -> f64 {
        let (l, b) = (self.l.get() as f64, self.b.get() as f64);
        ((2.0 * l + 1.0) * b + 1.0) / (2.0 * l + b + 1.0)
    }

    /// Circular-buffer depth between layers `l` (1-based) and `l+1`:
    /// `2(L−l)+1` (Sec. 3.3, Fig. 8).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= layer <= L`.
    #[expect(clippy::disallowed_macros, reason = "caller bug: layer ∉ 1..=L")]
    pub fn buffer_depth(&self, layer: usize) -> usize {
        assert!((1..=self.l.get()).contains(&layer), "layer out of range");
        self.buffer_depths()[layer - 1].get()
    }

    /// Every circular-buffer depth, `d_1` first: `2(L−l)+1` for
    /// `l = 1..=L`.
    pub fn buffer_depths(&self) -> Vec<NonZeroUsize> {
        (0..self.l.get())
            .rev()
            .map(|k| NonZeroUsize::MIN.saturating_add(2 * k))
            .collect()
    }

    /// Morphable array groups, non-pipelined (Table 2): `G·L + G·(2L−1)`.
    pub fn morphable_groups_nonpipelined(&self, g: usize) -> u64 {
        (g * self.l.get() + g * (2 * self.l.get() - 1)) as u64
    }

    /// Morphable array groups, pipelined (Table 2):
    /// `G·L + G·(L−1) + B·L`.
    pub fn morphable_groups_pipelined(&self, g: usize) -> u64 {
        (g * self.l.get() + g * (self.l.get() - 1) + self.b.get() * self.l.get()) as u64
    }

    /// Memory buffer groups, non-pipelined (Table 2): `2L`.
    pub fn memory_groups_nonpipelined(&self) -> u64 {
        2 * self.l.get() as u64
    }

    /// Memory buffer groups, pipelined: `Σ_l (2(L−l)+1)` d-buffers plus the
    /// duplicated same-cycle read/write buffers (`d_L` and the `L` δ
    /// buffers).
    pub fn memory_groups_pipelined(&self) -> u64 {
        let d_buffers: u64 = self.buffer_depths().iter().map(|d| d.get() as u64).sum();
        d_buffers + (self.l.get() as u64 + 1)
    }

    #[expect(clippy::disallowed_macros, reason = "caller bug: empty workload")]
    fn check(&self, n: u64) {
        assert!(n > 0, "empty workload");
        assert_eq!(
            n % self.b.get() as u64,
            0,
            "image count {n} must be a multiple of the batch size {}",
            self.b.get()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn analysis(l: usize, b: usize) -> Analysis {
        Analysis::new(NonZeroUsize::new(l).unwrap(), NonZeroUsize::new(b).unwrap())
    }

    #[test]
    fn fig7_example() {
        // L = 3 (Fig. 3's network), B = 64: one batch takes 2·3+64+1 = 71
        // cycles pipelined vs (2·3+1)·64 + 1 = 449 non-pipelined.
        let a = analysis(3, 64);
        assert_eq!(a.training_cycles_pipelined(64), 71);
        assert_eq!(a.training_cycles_nonpipelined(64), 449);
    }

    #[test]
    fn buffer_depths_match_fig8() {
        // The running example: 3 layers, buffer between A1 and A2 has
        // 2(3-1)+1 = 5 entries.
        let a = analysis(3, 64);
        assert_eq!(a.buffer_depth(1), 5);
        assert_eq!(a.buffer_depth(2), 3);
        assert_eq!(a.buffer_depth(3), 1);
        let depths: Vec<usize> = a.buffer_depths().iter().map(|d| d.get()).collect();
        assert_eq!(depths, [5, 3, 1]);
    }

    #[test]
    fn speedup_limit_reaches_2l_plus_1() {
        let a = analysis(8, 4096);
        let lim = a.training_pipeline_speedup_limit();
        assert!(lim > 16.0 && lim < 17.0, "limit {lim}");
    }

    #[test]
    fn testing_pipeline_asymptotically_one_per_cycle() {
        let a = analysis(19, 64);
        let n = 100_000;
        let cyc = a.testing_cycles_pipelined(n);
        assert!(cyc < n + 20);
        assert_eq!(a.testing_cycles_nonpipelined(n), 19 * n);
    }

    #[test]
    fn table2_groups() {
        let a = analysis(3, 64);
        assert_eq!(a.morphable_groups_nonpipelined(2), 2 * 3 + 2 * 5);
        assert_eq!(a.morphable_groups_pipelined(2), 2 * 3 + 2 * 2 + 64 * 3);
        assert_eq!(a.memory_groups_nonpipelined(), 6);
        assert_eq!(a.memory_groups_pipelined(), (5 + 3 + 1) + 4);
    }

    #[test]
    #[should_panic(expected = "multiple of the batch")]
    fn rejects_partial_batches() {
        analysis(3, 64).training_cycles_pipelined(65);
    }

    #[test]
    fn ragged_reduces_to_exact_on_multiples() {
        let a = analysis(5, 32);
        for k in 1..5u64 {
            assert_eq!(
                a.training_cycles_pipelined_ragged(k * 32),
                a.training_cycles_pipelined(k * 32)
            );
        }
        // 33 images = one full batch + a 1-image tail batch.
        assert_eq!(
            a.training_cycles_pipelined_ragged(33),
            a.training_cycles_pipelined(32) + (2 * 5 + 1 + 1)
        );
    }

    proptest! {
        /// Pipelining never loses, and cycle counts grow monotonically in N.
        #[test]
        fn pipeline_always_wins(l in 1usize..30, b in 1usize..256, k in 1u64..50) {
            let a = analysis(l, b);
            let n = k * b as u64;
            prop_assert!(a.training_cycles_pipelined(n) <= a.training_cycles_nonpipelined(n));
            prop_assert!(a.testing_cycles_pipelined(n) <= a.testing_cycles_nonpipelined(n));
        }

        /// Per-batch pipelined cycles match the Fig. 7(b) decomposition:
        /// fill (2L+1) + stream (B−1) + update (1).
        #[test]
        fn per_batch_decomposition(l in 1usize..30, b in 1usize..256) {
            let a = analysis(l, b);
            let per_batch = a.training_cycles_pipelined(b as u64);
            prop_assert_eq!(per_batch, (2 * l as u64 + 1) + (b as u64 - 1) + 1);
        }
    }
}
