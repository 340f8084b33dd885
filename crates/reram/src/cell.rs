//! The multi-level ReRAM cell, stored as its level byte.

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

/// The top level of a `bits`-bit cell, `2^bits - 1`.
///
/// A cell is one metal-oxide ReRAM device storing `bits` bits as one of
/// `2^bits` discrete conductance levels. The paper's default resolution is
/// 4 bits per cell (Sec. 5.1) — the value PRIME-era devices demonstrated —
/// with higher weight resolutions built from multiple cells (see
/// [`array_group`](crate::array_group)). Cells live only inside a
/// [`Crossbar`](crate::Crossbar), which stores each as its level byte and
/// whose constructor checks `bits ∈ 1..=8`; a fresh cell sits at level 0
/// (high-resistance state).
#[inline]
pub(crate) fn max_level(bits: u8) -> u8 {
    ((1u16 << bits) - 1) as u8
}

/// Programs the cell at `*level` to `target`, returning the number of
/// tuning pulses (write spikes) the spike driver issues — modelled as the
/// level distance, since each pulse nudges the conductance one state. An
/// over-range `target` saturates at `max_level`.
#[inline]
pub(crate) fn program(level: &mut u8, target: u8, max_level: u8) -> u32 {
    let target = target.min(max_level);
    let pulses = u32::from(level.abs_diff(target));
    *level = target;
    pulses
}

/// Programs the cell at `*level` to `target` with the program-and-verify
/// loop: each attempt issues tuning pulses (landing within
/// `policy.write_sigma` levels of the target), then a verify read checks
/// the result; misses retry until `policy.max_attempts` is exhausted. The
/// first attempt is always issued.
///
/// This models a *healthy* cell — stuck-at behaviour lives in the
/// crossbar's [`FaultMap`](crate::fault::FaultMap), which intercepts the
/// write before it reaches the cell. An over-range `target` saturates at
/// `max_level`.
pub(crate) fn program_verify(
    level: &mut u8,
    target: u8,
    max_level: u8,
    policy: &VerifyPolicy,
    rng: &mut impl Rng,
) -> CellWrite {
    let target = target.min(max_level);
    let mut pulses = 0u32;
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let landed = noisy_landing(target, max_level, policy.write_sigma, rng);
        pulses += u32::from(level.abs_diff(landed));
        *level = landed;
        if *level == target || attempts >= policy.max_attempts {
            break;
        }
    }
    CellWrite {
        pulses,
        attempts,
        verified: *level == target,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_bit_cells_have_sixteen_levels() {
        assert_eq!(max_level(4), 15);
        assert_eq!(max_level(8), 255);
    }

    #[test]
    fn program_counts_pulses_by_distance() {
        let mut c = 0u8;
        assert_eq!(program(&mut c, 15, 15), 15);
        assert_eq!(program(&mut c, 10, 15), 5);
        assert_eq!(program(&mut c, 10, 15), 0);
    }

    #[test]
    fn overrange_level_saturates() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut c = 0u8;
        assert_eq!(program(&mut c, 16, 15), 15);
        assert_eq!(c, 15);
        let mut c = 0u8;
        let policy = VerifyPolicy::default();
        let w = program_verify(&mut c, 200, 15, &policy, &mut StdRng::seed_from_u64(0));
        assert!(w.verified);
        assert_eq!((c, w.pulses), (15, 15));
    }

    #[test]
    #[should_panic(expected = "1..=8 bits")]
    fn rejects_zero_bits() {
        crate::Crossbar::new(2, 2, 0);
    }

    #[test]
    fn zero_attempt_budget_still_issues_the_first_attempt() {
        use rand::{rngs::StdRng, SeedableRng};
        let policy = VerifyPolicy::with_attempts(0);
        let w = program_verify(&mut 0, 9, 15, &policy, &mut StdRng::seed_from_u64(0));
        assert_eq!((w.attempts, w.pulses, w.verified), (1, 9, true));
    }

    #[test]
    fn verify_noiseless_first_shot() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut c = 0u8;
        let mut rng = StdRng::seed_from_u64(0);
        let w = program_verify(&mut c, 9, 15, &VerifyPolicy::default(), &mut rng);
        assert!(w.verified);
        assert_eq!(w.attempts, 1);
        assert_eq!(w.pulses, 9);
        assert_eq!(c, 9);
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
            let mut c = 0u8;
            let w = program_verify(&mut c, target, 15, &policy, &mut rng);
            assert!(w.attempts >= 1 && w.attempts <= 64);
            if w.verified {
                assert_eq!(c, target);
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
        let w = program_verify(&mut 0, 7, 15, &policy, &mut rng);
        assert!(w.attempts <= 2);
    }
}
