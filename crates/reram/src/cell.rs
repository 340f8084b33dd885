//! The multi-level ReRAM cell.

use crate::fault::{noisy_landing, VerifyPolicy};
use rand::Rng;

/// Outcome of one cell-level program-and-verify loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CellWrite {
    /// Programming pulses issued across all attempts.
    pub pulses: u32,
    /// Attempts consumed (1 for a clean first-shot write).
    pub attempts: u32,
    /// Whether the final verify read matched the target level.
    pub verified: bool,
}

/// One metal-oxide ReRAM cell storing `bits` bits as one of `2^bits`
/// discrete conductance levels.
///
/// The paper's default resolution is 4 bits per cell (Sec. 5.1) — the value
/// PRIME-era devices demonstrated — with higher weight resolutions built
/// from multiple cells (see [`array_group`](crate::array_group)). Cells
/// live only inside a [`Crossbar`](crate::Crossbar), whose constructor
/// checks `bits ∈ 1..=8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ReramCell {
    level: u8,
    bits: u8,
}

impl ReramCell {
    /// A fresh cell at level 0 (high-resistance state).
    pub fn new(bits: u8) -> Self {
        ReramCell { level: 0, bits }
    }

    /// Cell resolution in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Current conductance level, `0 ..= 2^bits - 1`.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Maximum representable level.
    pub fn max_level(&self) -> u8 {
        ((1u16 << self.bits) - 1) as u8
    }

    /// Programs the cell to `level`, returning the number of tuning pulses
    /// (write spikes) the spike driver issues — modelled as the level
    /// distance, since each pulse nudges the conductance one state. An
    /// over-range `level` saturates at the cell's top level.
    pub fn program(&mut self, level: u8) -> u32 {
        let level = level.min(self.max_level());
        let pulses = (self.level as i32 - level as i32).unsigned_abs();
        self.level = level;
        pulses
    }

    /// Programs the cell to `level` with the program-and-verify loop: each
    /// attempt issues tuning pulses (landing within `policy.write_sigma`
    /// levels of the target), then a verify read checks the result; misses
    /// retry until `policy.max_attempts` is exhausted. The first attempt
    /// is always issued.
    ///
    /// This models a *healthy* cell — stuck-at behaviour lives in the
    /// crossbar's [`FaultMap`](crate::fault::FaultMap), which intercepts
    /// the write before it reaches the cell. An over-range `level`
    /// saturates at the cell's top level.
    pub fn program_verify(
        &mut self,
        level: u8,
        policy: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> CellWrite {
        let level = level.min(self.max_level());
        let mut pulses = 0u32;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let landed = noisy_landing(level, self.max_level(), policy.write_sigma, rng);
            pulses += (self.level as i32 - landed as i32).unsigned_abs();
            self.level = landed;
            if self.level == level || attempts >= policy.max_attempts {
                break;
            }
        }
        CellWrite {
            pulses,
            attempts,
            verified: self.level == level,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_cell_is_hrs() {
        let c = ReramCell::new(4);
        assert_eq!(c.level(), 0);
        assert_eq!(c.max_level(), 15);
    }

    #[test]
    fn program_counts_pulses_by_distance() {
        let mut c = ReramCell::new(4);
        assert_eq!(c.program(15), 15);
        assert_eq!(c.program(10), 5);
        assert_eq!(c.program(10), 0);
    }

    #[test]
    fn overrange_level_saturates() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut c = ReramCell::new(4);
        assert_eq!(c.program(16), 15);
        assert_eq!(c.level(), 15);
        let mut c = ReramCell::new(4);
        let w = c.program_verify(200, &VerifyPolicy::default(), &mut StdRng::seed_from_u64(0));
        assert!(w.verified);
        assert_eq!((c.level(), w.pulses), (15, 15));
    }

    #[test]
    #[should_panic(expected = "1..=8 bits")]
    fn rejects_zero_bits() {
        crate::Crossbar::new(2, 2, 0);
    }

    #[test]
    fn zero_attempt_budget_still_issues_the_first_attempt() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut c = ReramCell::new(4);
        let policy = VerifyPolicy::with_attempts(0);
        let w = c.program_verify(9, &policy, &mut StdRng::seed_from_u64(0));
        assert_eq!((w.attempts, w.pulses, w.verified), (1, 9, true));
    }

    #[test]
    fn verify_noiseless_first_shot() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut c = ReramCell::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        let w = c.program_verify(9, &VerifyPolicy::default(), &mut rng);
        assert!(w.verified);
        assert_eq!(w.attempts, 1);
        assert_eq!(w.pulses, 9);
        assert_eq!(c.level(), 9);
    }

    #[test]
    fn verify_retries_under_noise_and_converges() {
        use rand::{rngs::StdRng, SeedableRng};
        let policy = VerifyPolicy {
            max_attempts: 64,
            write_sigma: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let mut converged = 0;
        for target in 0..=15u8 {
            let mut c = ReramCell::new(4);
            let w = c.program_verify(target, &policy, &mut rng);
            assert!(w.attempts >= 1 && w.attempts <= 64);
            if w.verified {
                assert_eq!(c.level(), target);
                converged += 1;
            }
        }
        // σ=1 with a 64-attempt budget converges essentially always.
        assert!(converged >= 15, "only {converged}/16 targets converged");
    }

    #[test]
    fn verify_budget_bounds_attempts() {
        use rand::{rngs::StdRng, SeedableRng};
        let policy = VerifyPolicy {
            max_attempts: 2,
            write_sigma: 50.0, // wild noise: almost never lands on target
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = ReramCell::new(4);
        let w = c.program_verify(7, &policy, &mut rng);
        assert!(w.attempts <= 2);
    }
}
