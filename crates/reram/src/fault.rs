//! Persistent cell faults and the program-and-verify write path.
//!
//! The paper (Sec. 5.1) leans on neural networks' "inherent error
//! tolerance"; a deployable accelerator cannot: metal-oxide ReRAM arrays
//! ship with stuck-at cells and accumulate dead cells as they wear, and
//! every practical multi-level programming scheme is a *program-and-verify*
//! loop (pulse, read back, retry) rather than the single ideal pulse the
//! base model assumes. This module supplies the three pieces the rest of
//! the stack builds on:
//!
//! * [`FaultModel`]/[`FaultMap`] — a seeded, reproducible per-crossbar map
//!   of stuck-at-zero / stuck-at-max / dead cells;
//! * [`VerifyPolicy`] — the bounded retry budget and per-attempt write
//!   noise of the program-and-verify loop, with closed-form expected pulse
//!   overhead for the energy/timing/endurance models;
//! * [`ProgramReport`]/[`UnrecoverableCell`] — what a verified programming
//!   pass actually cost and which cells it could not fix, the input to the
//!   spare-remapping layer (`pipelayer::repair`).

use rand::{Rng, RngExt as _};

/// The ways a cell can be permanently broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Forming failure: the cell never leaves the high-resistance state and
    /// always reads as level 0.
    StuckAtZero,
    /// The cell is shorted to its lowest-resistance state and always reads
    /// as the maximum level.
    StuckAtMax,
    /// Endurance wear-out: the cell no longer switches; reads as level 0.
    Dead,
}

impl FaultKind {
    /// The level a faulty cell presents regardless of what was programmed.
    pub fn effective_level(&self, max_level: u8) -> u8 {
        match self {
            FaultKind::StuckAtZero | FaultKind::Dead => 0,
            FaultKind::StuckAtMax => max_level,
        }
    }
}

/// Independent per-cell fault probabilities used to seed a [`FaultMap`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Probability a cell is stuck at level 0.
    pub stuck_at_zero: f64,
    /// Probability a cell is stuck at the maximum level.
    pub stuck_at_max: f64,
    /// Probability a cell is worn out (dead, reads 0).
    pub dead: f64,
}

impl FaultModel {
    /// A fault-free device.
    pub fn ideal() -> Self {
        FaultModel {
            stuck_at_zero: 0.0,
            stuck_at_max: 0.0,
            dead: 0.0,
        }
    }

    /// A device with total stuck-at rate `rate`, split between
    /// stuck-at-zero and stuck-at-max in the ~5:1 ratio fabrication
    /// studies report (SAZ forming failures dominate). The rate is stored
    /// as given; [`validate`](Self::validate) checks it.
    pub fn with_stuck_rate(rate: f64) -> Self {
        FaultModel {
            stuck_at_zero: rate * 5.0 / 6.0,
            stuck_at_max: rate / 6.0,
            dead: 0.0,
        }
    }

    /// Total per-cell fault probability.
    pub fn total_rate(&self) -> f64 {
        self.stuck_at_zero + self.stuck_at_max + self.dead
    }

    /// `true` if no fault is ever injected.
    pub fn is_ideal(&self) -> bool {
        self.total_rate() == 0.0
    }

    /// Checks that every rate, and their sum, is a probability.
    ///
    /// # Errors
    ///
    /// Returns the first offending rate (or the total, if only the sum
    /// exceeds 1).
    pub fn validate(&self) -> Result<(), f64> {
        for r in [self.stuck_at_zero, self.stuck_at_max, self.dead] {
            if !(0.0..=1.0).contains(&r) {
                return Err(r);
            }
        }
        let total = self.total_rate();
        if total > 1.0 {
            return Err(total);
        }
        Ok(())
    }
}

/// A persistent per-crossbar map of faulty cells.
///
/// Generated once from a [`FaultModel`] and a seed (reproducible across
/// runs), then carried by the crossbar for its lifetime. Spare remapping
/// *clears* entries: moving a logical column onto a fault-free spare is
/// modelled as that column's faults disappearing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultMap {
    rows: usize,
    cols: usize,
    kinds: Vec<Option<FaultKind>>, // row-major
}

impl FaultMap {
    /// An all-healthy `rows × cols` map.
    pub fn pristine(rows: usize, cols: usize) -> Self {
        FaultMap {
            rows,
            cols,
            kinds: vec![None; rows * cols],
        }
    }

    /// Draws a map from `model`, deterministically in `seed`. Each cell's
    /// draw comes from its own `(seed, crossbar, row, col, epoch=0)`
    /// stream (see [`crate::seedstream`]; `seed` is taken as already
    /// crossbar-qualified), so whether a given cell is faulty is
    /// independent of geometry traversal order and thread count. A rate
    /// outside `[0, 1]` (see [`FaultModel::validate`]) only saturates the
    /// draw.
    pub fn generate(rows: usize, cols: usize, model: &FaultModel, seed: u64) -> Self {
        let mut map = Self::pristine(rows, cols);
        if model.is_ideal() {
            return map;
        }
        for (i, k) in map.kinds.iter_mut().enumerate() {
            let r = crate::seedstream::cell_unit(seed, i / cols, i % cols, 0);
            *k = if r < model.stuck_at_zero {
                Some(FaultKind::StuckAtZero)
            } else if r < model.stuck_at_zero + model.stuck_at_max {
                Some(FaultKind::StuckAtMax)
            } else if r < model.total_rate() {
                Some(FaultKind::Dead)
            } else {
                None
            };
        }
        map
    }

    /// Word-line count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bit-line count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The fault at `(row, col)`, if any.
    pub fn get(&self, row: usize, col: usize) -> Option<FaultKind> {
        self.kinds[row * self.cols + col]
    }

    /// Marks `(row, col)` as faulty (e.g. wear-out detected at runtime).
    pub fn set(&mut self, row: usize, col: usize, kind: FaultKind) {
        self.kinds[row * self.cols + col] = Some(kind);
    }

    /// Clears one cell's fault (cell replaced by redundancy).
    pub fn clear(&mut self, row: usize, col: usize) {
        self.kinds[row * self.cols + col] = None;
    }

    /// Clears every fault in bit line `col` — the spare-column remap: the
    /// logical column now lives on a fault-free spare.
    pub fn clear_col(&mut self, col: usize) {
        for r in 0..self.rows {
            self.kinds[r * self.cols + col] = None;
        }
    }

    /// Number of faulty cells.
    pub fn fault_count(&self) -> usize {
        self.kinds.iter().filter(|k| k.is_some()).count()
    }

    /// Fraction of faulty cells.
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn fault_rate(&self) -> f64 {
        self.fault_count() as f64 / self.kinds.len() as f64
    }

    /// Bit lines containing at least one faulty cell, ascending.
    pub fn faulty_cols(&self) -> Vec<usize> {
        (0..self.cols)
            .filter(|&c| (0..self.rows).any(|r| self.get(r, c).is_some()))
            .collect()
    }
}

/// The program-and-verify write discipline: how many pulse/verify attempts
/// each cell gets, and how noisy each programming pulse is.
///
/// The default (`max_attempts = 1`, `write_sigma = 0`) is the base model's
/// ideal single-shot write, so fault-tolerance is strictly opt-in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyPolicy {
    /// Maximum program/verify attempts per cell before the cell is
    /// reported unrecoverable (the bounded pulse budget).
    pub max_attempts: u32,
    /// Per-attempt Gaussian programming noise, in conductance levels.
    pub write_sigma: f64,
}

impl Default for VerifyPolicy {
    fn default() -> Self {
        VerifyPolicy {
            max_attempts: 1,
            write_sigma: 0.0,
        }
    }
}

impl VerifyPolicy {
    /// A policy with `max_attempts` retries and noiseless pulses, stored as
    /// given (`PipeLayerConfig::validate` rejects a zero budget). A healthy
    /// cell's write always issues its first attempt.
    pub fn with_attempts(max_attempts: u32) -> Self {
        VerifyPolicy {
            max_attempts,
            write_sigma: 0.0,
        }
    }

    /// Probability one programming attempt lands exactly on the target
    /// level: `P(|N(0,σ)| < 0.5)` (the rounding window), 1 for σ = 0.
    pub fn attempt_success_probability(&self) -> f64 {
        if self.write_sigma == 0.0 {
            return 1.0;
        }
        erf(0.5 / (self.write_sigma * core::f64::consts::SQRT_2))
    }

    /// Expected attempts spent on a *healthy* cell under the bounded
    /// budget (truncated geometric mean).
    pub fn expected_attempts_healthy(&self) -> f64 {
        let p = self.attempt_success_probability();
        if p >= 1.0 {
            return 1.0;
        }
        let k = self.max_attempts as f64;
        // E[min(Geom(p), k)] = (1 - (1-p)^k) / p.
        (1.0 - (1.0 - p).powf(k)) / p
    }

    /// Expected programming pulses per cell write relative to the ideal
    /// single-shot write (the factor the energy, timing and endurance
    /// models scale by). Healthy cells pay the retry expectation; faulty
    /// cells burn the whole budget before being reported unrecoverable.
    pub fn expected_pulse_multiplier(&self, faults: &FaultModel) -> f64 {
        let f = faults.total_rate();
        (1.0 - f) * self.expected_attempts_healthy() + f * self.max_attempts as f64
    }
}

/// Abramowitz–Stegun 7.1.26 rational approximation of the error function
/// (|error| < 1.5e-7, plenty for pulse accounting).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// A cell the program-and-verify loop could not bring to its target level
/// within the pulse budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnrecoverableCell {
    /// Word line.
    pub row: usize,
    /// Bit line.
    pub col: usize,
    /// Level the write wanted.
    pub target: u8,
    /// Level the cell actually presents.
    pub actual: u8,
}

/// Cost and outcome of one verified programming pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProgramReport {
    /// Programming pulses actually issued, retries included.
    pub pulses: u64,
    /// Pulses an ideal fault-free single-shot write would have needed.
    pub ideal_pulses: u64,
    /// Verify reads issued (one per attempt on each touched cell).
    pub verify_reads: u64,
    /// Cells still wrong after the budget was exhausted.
    pub unrecoverable: Vec<UnrecoverableCell>,
}

impl ProgramReport {
    /// Folds another report into this one.
    pub fn merge(&mut self, other: ProgramReport) {
        self.pulses += other.pulses;
        self.ideal_pulses += other.ideal_pulses;
        self.verify_reads += other.verify_reads;
        self.unrecoverable.extend(other.unrecoverable);
    }

    /// Extra pulses beyond the ideal write.
    pub fn retry_pulses(&self) -> u64 {
        self.pulses.saturating_sub(self.ideal_pulses)
    }

    /// Pulse overhead ratio (`pulses / ideal_pulses`; 1.0 when nothing was
    /// written).
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn overhead(&self) -> f64 {
        if self.ideal_pulses == 0 {
            1.0
        } else {
            self.pulses as f64 / self.ideal_pulses as f64
        }
    }
}

/// Samples the per-attempt programming noise: the attempted level lands at
/// `round(target + N(0, σ))`, clamped to the representable range. Uses the
/// same Irwin–Hall Gaussian as the rest of the workspace.
#[expect(clippy::cast_possible_truncation, reason = "clamped to 0..=max_level")]
pub(crate) fn noisy_landing(target: u8, max_level: u8, sigma: f64, rng: &mut impl Rng) -> u8 {
    if sigma == 0.0 {
        return target;
    }
    let g: f64 = (0..12).map(|_| rng.random::<f64>()).sum::<f64>() - 6.0;
    (target as f64 + g * sigma)
        .round()
        .clamp(0.0, max_level as f64) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_seed() {
        let m = FaultModel::with_stuck_rate(0.05);
        let a = FaultMap::generate(64, 64, &m, 42);
        let b = FaultMap::generate(64, 64, &m, 42);
        let c = FaultMap::generate(64, 64, &m, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_rate_tracks_model() {
        let m = FaultModel::with_stuck_rate(0.1);
        let map = FaultMap::generate(128, 128, &m, 7);
        let rate = map.fault_rate();
        assert!((rate - 0.1).abs() < 0.02, "empirical rate {rate}");
    }

    #[test]
    fn ideal_model_generates_pristine_map() {
        let map = FaultMap::generate(32, 32, &FaultModel::ideal(), 1);
        assert_eq!(map.fault_count(), 0);
        assert!(map.faulty_cols().is_empty());
    }

    #[test]
    fn clear_col_models_spare_remap() {
        let mut map = FaultMap::pristine(4, 4);
        map.set(1, 2, FaultKind::StuckAtZero);
        map.set(3, 2, FaultKind::Dead);
        map.set(0, 0, FaultKind::StuckAtMax);
        assert_eq!(map.faulty_cols(), vec![0, 2]);
        map.clear_col(2);
        assert_eq!(map.faulty_cols(), vec![0]);
        assert_eq!(map.fault_count(), 1);
    }

    #[test]
    fn effective_levels_by_kind() {
        assert_eq!(FaultKind::StuckAtZero.effective_level(15), 0);
        assert_eq!(FaultKind::Dead.effective_level(15), 0);
        assert_eq!(FaultKind::StuckAtMax.effective_level(15), 15);
    }

    #[test]
    fn default_policy_is_ideal_single_shot() {
        let p = VerifyPolicy::default();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.attempt_success_probability(), 1.0);
        assert_eq!(p.expected_pulse_multiplier(&FaultModel::ideal()), 1.0);
    }

    #[test]
    fn pulse_multiplier_grows_with_sigma_and_faults() {
        let noisy = VerifyPolicy {
            max_attempts: 5,
            write_sigma: 0.5,
        };
        let quiet = VerifyPolicy {
            max_attempts: 5,
            write_sigma: 0.1,
        };
        let ideal = FaultModel::ideal();
        assert!(noisy.expected_pulse_multiplier(&ideal) > quiet.expected_pulse_multiplier(&ideal));
        let faulty = FaultModel::with_stuck_rate(0.01);
        assert!(
            noisy.expected_pulse_multiplier(&faulty) > noisy.expected_pulse_multiplier(&ideal),
            "stuck cells must burn budget"
        );
    }

    #[test]
    fn expected_attempts_bounded_by_budget() {
        let p = VerifyPolicy {
            max_attempts: 4,
            write_sigma: 10.0, // nearly always misses
        };
        let e = p.expected_attempts_healthy();
        assert!(e > 3.0 && e <= 4.0, "expected attempts {e}");
    }

    #[test]
    fn erf_reference_values() {
        assert!(erf(0.0).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-5);
    }

    #[test]
    fn report_merge_and_overhead() {
        let mut a = ProgramReport {
            pulses: 12,
            ideal_pulses: 10,
            verify_reads: 11,
            unrecoverable: vec![],
        };
        a.merge(ProgramReport {
            pulses: 8,
            ideal_pulses: 5,
            verify_reads: 6,
            unrecoverable: vec![UnrecoverableCell {
                row: 0,
                col: 1,
                target: 9,
                actual: 0,
            }],
        });
        assert_eq!(a.pulses, 20);
        assert_eq!(a.retry_pulses(), 5);
        assert_eq!(a.unrecoverable.len(), 1);
        assert!((a.overhead() - 20.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn shorthands_store_what_they_are_given() {
        let m = FaultModel::with_stuck_rate(1.5);
        assert_eq!(m.total_rate(), 1.5);
        assert_eq!(m.validate(), Err(m.stuck_at_zero));
        assert!(FaultModel::with_stuck_rate(f64::NAN).validate().is_err());
        assert_eq!(FaultModel::with_stuck_rate(1e-3).validate(), Ok(()));
        let over = FaultModel {
            stuck_at_zero: 0.6,
            stuck_at_max: 0.6,
            dead: 0.0,
        };
        assert_eq!(over.validate(), Err(1.2));
        assert_eq!(VerifyPolicy::with_attempts(0).max_attempts, 0);
        let m = FaultMap::pristine(0, 4);
        assert_eq!((m.rows(), m.cols(), m.fault_count()), (0, 4, 0));
    }
}
