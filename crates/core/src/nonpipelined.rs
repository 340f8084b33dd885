//! The non-pipelined baseline schedule (Fig. 7a): images are processed
//! strictly one at a time — `L` forward cycles, `L+1` backward cycles,
//! plus one weight-update cycle per batch — with no overlap between images.
//! PipeLayer-without-pipeline in Figs. 15/16 uses this schedule with the
//! same arrays and cycle time.

use std::num::NonZeroUsize;

/// Sequential (non-pipelined) schedule generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonPipelined {
    l: NonZeroUsize,
    b: NonZeroUsize,
}

impl NonPipelined {
    /// Creates a schedule for `L` layers and batch size `B`.
    pub fn new(l: NonZeroUsize, b: NonZeroUsize) -> Self {
        NonPipelined { l, b }
    }

    /// Training cycles for `n` images, counted by explicit simulation.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive multiple of `B`.
    #[expect(clippy::disallowed_macros, reason = "caller bug: ragged workload")]
    pub fn training_cycles(&self, n: u64) -> u64 {
        assert!(
            n > 0 && n.is_multiple_of(self.b.get() as u64),
            "n must be a multiple of B"
        );
        let mut cycle = 0u64;
        for img in 0..n {
            cycle += self.l.get() as u64; // forward
            cycle += self.l.get() as u64 + 1; // error + backward stages
            if (img + 1) % self.b.get() as u64 == 0 {
                cycle += 1; // weight update at batch end
            }
        }
        cycle
    }

    /// Testing cycles: `L` per image.
    #[expect(clippy::disallowed_macros, reason = "caller bug: empty workload")]
    pub fn testing_cycles(&self, n: u64) -> u64 {
        assert!(n > 0, "empty workload");
        self.l.get() as u64 * n
    }

    /// At most one stage is active per cycle — the defining property.
    pub fn peak_parallel_stages(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analysis;
    use proptest::prelude::*;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn matches_closed_form() {
        for (l, b, k) in [(3usize, 64usize, 1u64), (8, 16, 4), (19, 64, 2)] {
            let np = NonPipelined::new(nz(l), nz(b));
            let n = k * b as u64;
            assert_eq!(
                np.training_cycles(n),
                Analysis::new(nz(l), nz(b)).training_cycles_nonpipelined(n)
            );
        }
    }

    #[test]
    fn one_stage_at_a_time() {
        assert_eq!(NonPipelined::new(nz(5), nz(8)).peak_parallel_stages(), 1);
    }

    proptest! {
        #[test]
        fn simulation_equals_formula(l in 1usize..25, b in 1usize..128, k in 1u64..8) {
            let np = NonPipelined::new(nz(l), nz(b));
            let n = k * b as u64;
            prop_assert_eq!(
                np.training_cycles(n),
                Analysis::new(nz(l), nz(b)).training_cycles_nonpipelined(n)
            );
        }
    }
}
