//! Endurance wear-out: per-cell programming-pulse budgets and live death.
//!
//! The endurance model (`pipelayer::endurance`) predicts *when* training
//! write traffic exhausts a metal-oxide cell; this module makes it happen
//! inside the functional simulator. Every cell carries a heterogeneous
//! write budget drawn lognormally around the device's median endurance —
//! cycling studies consistently report lognormal cycles-to-failure with
//! σ(ln) in the 0.3–1 range — and every programming pulse the crossbar
//! issues (batch-update writes, verify retries, scrub re-pulses) decrements
//! it. A cell whose budget hits zero stops switching: the crossbar layer
//! transitions it into a live [`FaultKind::Dead`] stuck-at fault mid-run,
//! which the repair ladder (`pipelayer::repair`) then detects through the
//! ordinary program-and-verify path.
//!
//! Budgets are drawn through the workspace seedstream
//! (`(seed, crossbar, row, col, generation)` — see [`crate::seedstream`]),
//! so which cell dies after how many pulses is a pure function of the seed
//! and the pulse history: any thread count or kill/resume point replays the
//! same deaths bitwise. A column swapped onto a fresh spare bit line bumps
//! its cells' generation, which re-draws their budgets from the new cells'
//! streams.
//!
//! [`WearModel::ideal`] (the default) disables the whole subsystem and is
//! an exact no-op: no state is allocated, no counter is touched, and every
//! calibrated baseline number is bit-identical.
//!
//! [`FaultKind::Dead`]: crate::fault::FaultKind::Dead

use crate::seedstream;

/// Device endurance statistics: the lognormal write-budget distribution.
///
/// The default ([`WearModel::ideal`]) never wears a cell out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearModel {
    /// Median programming pulses a cell survives (the lognormal median).
    /// `0` disables wear tracking entirely.
    pub median_writes: f64,
    /// Cell-to-cell spread: σ of `ln(budget)`. `0` gives every cell exactly
    /// the median budget.
    pub sigma: f64,
}

impl WearModel {
    /// Wear disabled; cells never die.
    pub fn ideal() -> Self {
        WearModel {
            median_writes: 0.0,
            sigma: 0.0,
        }
    }

    /// A device with the given median endurance and the σ(ln) ≈ 0.5 spread
    /// cycling studies typically report for metal-oxide cells.
    pub fn with_endurance(median_writes: f64) -> Self {
        WearModel {
            median_writes,
            sigma: 0.5,
        }
    }

    /// `true` if wear tracking is disabled (the exact-no-op default).
    pub fn is_ideal(&self) -> bool {
        self.median_writes <= 0.0
    }

    /// Probability a single cell is worn out after `writes` programming
    /// pulses: the lognormal CDF `Φ((ln writes − ln median) / σ)`. Used by
    /// the static spare-budget feasibility check (PL024).
    pub fn death_probability(&self, writes: f64) -> f64 {
        if self.is_ideal() || writes <= 0.0 {
            return 0.0;
        }
        if self.sigma <= 0.0 {
            return if writes >= self.median_writes {
                1.0
            } else {
                0.0
            };
        }
        let z = (writes.ln() - self.median_writes.ln()) / self.sigma;
        0.5 * (1.0 + crate::fault::erf(z / core::f64::consts::SQRT_2))
    }
}

impl Default for WearModel {
    fn default() -> Self {
        WearModel::ideal()
    }
}

/// Per-cell wear bookkeeping for one crossbar: pulses issued so far against
/// a seed-derived budget, plus the programming generation that re-draws the
/// budget when a column is swapped onto fresh spare cells.
#[derive(Debug, Clone, PartialEq)]
pub struct WearState {
    model: WearModel,
    seed: u64,
    cols: usize,
    /// Programming pulses issued to each cell so far (row-major).
    pulses: Vec<u64>,
    /// Physical-cell generation: bumped when a spare swap replaces the
    /// cell, so the fresh cell draws a fresh budget from its own stream.
    generation: Vec<u64>,
    /// Seed-derived pulse budget of the current physical cell.
    budget: Vec<u64>,
}

/// One cell's budget draw: lognormal around the model median, from the
/// `(seed, row, col, generation)` stream (`seed` crossbar-qualified).
/// Budgets round to at least one pulse so a draw can never be born dead.
#[expect(clippy::cast_possible_truncation, reason = "f64 → u64 saturates")]
fn cell_budget(model: &WearModel, seed: u64, row: usize, col: usize, generation: u64) -> u64 {
    let g = seedstream::cell_gauss(seed, row, col, generation);
    let b = model.median_writes * (model.sigma * g).exp();
    // f64→u64 saturates at the type bounds; the 1-pulse floor keeps even
    // extreme left-tail draws programmable once.
    (b.round() as u64).max(1)
}

impl WearState {
    /// Wear tracking for a `rows`×`cols` array under `model`, budgets drawn
    /// deterministically from the crossbar-qualified `seed`.
    pub fn new(rows: usize, cols: usize, model: WearModel, seed: u64) -> Self {
        let n = rows * cols;
        let budget = (0..n)
            .map(|i| cell_budget(&model, seed, i / cols.max(1), i % cols.max(1), 0))
            .collect();
        WearState {
            model,
            seed,
            cols,
            pulses: vec![0; n],
            generation: vec![0; n],
            budget,
        }
    }

    /// The model this state was built from.
    pub fn model(&self) -> &WearModel {
        &self.model
    }

    /// Records `n` programming pulses on `(row, col)`. Returns `true` only
    /// on the pulse that crosses the cell's budget — the moment the cell
    /// dies and the caller must raise a live stuck-at fault. Out-of-range
    /// coordinates are ignored.
    pub fn note_pulses(&mut self, row: usize, col: usize, n: u64) -> bool {
        let Some(idx) = self.index(row, col) else {
            return false;
        };
        if n == 0 {
            return false;
        }
        let was_dead = self.pulses[idx] >= self.budget[idx];
        self.pulses[idx] = self.pulses[idx].saturating_add(n);
        !was_dead && self.pulses[idx] >= self.budget[idx]
    }

    /// `true` if `(row, col)` has exhausted its write budget.
    pub fn is_exhausted(&self, row: usize, col: usize) -> bool {
        self.index(row, col)
            .is_some_and(|i| self.pulses[i] >= self.budget[i])
    }

    /// Programming pulses `(row, col)` can still absorb (0 when dead).
    pub fn remaining_writes(&self, row: usize, col: usize) -> u64 {
        self.index(row, col)
            .map_or(u64::MAX, |i| self.budget[i].saturating_sub(self.pulses[i]))
    }

    /// The smallest remaining budget across word line `row` — the
    /// wear-leveling signal the scrub scheduler uses to stop burning writes
    /// on near-dead rows. Dead cells report 0.
    pub fn row_min_remaining(&self, row: usize) -> u64 {
        (0..self.cols)
            .map(|c| self.remaining_writes(row, c))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Cells that have exhausted their budget.
    pub fn exhausted_cells(&self) -> usize {
        self.pulses
            .iter()
            .zip(&self.budget)
            .filter(|(p, b)| p >= b)
            .count()
    }

    /// Total programming pulses recorded across the array.
    pub fn total_pulses(&self) -> u64 {
        self.pulses.iter().sum()
    }

    /// Swaps every cell of bit line `col` for a fresh physical cell (the
    /// spare-column remap): generation bumps, the pulse counter resets, and
    /// the new cell draws its own budget from its generation's stream.
    pub fn renew_col(&mut self, col: usize) {
        if col >= self.cols || self.cols == 0 {
            return;
        }
        let rows = self.pulses.len() / self.cols;
        for row in 0..rows {
            let idx = row * self.cols + col;
            self.generation[idx] += 1;
            self.pulses[idx] = 0;
            self.budget[idx] = cell_budget(&self.model, self.seed, row, col, self.generation[idx]);
        }
    }

    /// The raw per-cell counters `(pulses, generation)`, row-major — what a
    /// checkpoint persists. Budgets are *not* exported: they are a pure
    /// function of `(seed, generation)` and re-derive on restore.
    pub fn counters(&self) -> (&[u64], &[u64]) {
        (&self.pulses, &self.generation)
    }

    /// Restores counters exported by [`counters`](Self::counters) and
    /// re-derives every budget. Returns `false` (leaving the state
    /// untouched) on a geometry mismatch.
    pub fn restore_counters(&mut self, pulses: &[u64], generation: &[u64]) -> bool {
        if pulses.len() != self.pulses.len() || generation.len() != self.generation.len() {
            return false;
        }
        self.pulses.copy_from_slice(pulses);
        self.generation.copy_from_slice(generation);
        for (idx, b) in self.budget.iter_mut().enumerate() {
            *b = cell_budget(
                &self.model,
                self.seed,
                idx / self.cols.max(1),
                idx % self.cols.max(1),
                self.generation[idx],
            );
        }
        true
    }

    fn index(&self, row: usize, col: usize) -> Option<usize> {
        if self.cols == 0 || col >= self.cols {
            return None;
        }
        let idx = row * self.cols + col;
        if idx < self.pulses.len() {
            Some(idx)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_are_deterministic_and_heterogeneous() {
        let a = WearState::new(8, 8, WearModel::with_endurance(100.0), 7);
        let b = WearState::new(8, 8, WearModel::with_endurance(100.0), 7);
        let c = WearState::new(8, 8, WearModel::with_endurance(100.0), 8);
        assert_eq!(a, b, "same seed must draw the same budgets");
        assert_ne!(a, c, "different seeds must differ");
        let budgets: Vec<u64> = (0..8)
            .flat_map(|r| (0..8).map(move |c| (r, c)))
            .map(|(r, c)| a.remaining_writes(r, c))
            .collect();
        let min = budgets.iter().min().copied().unwrap_or(0);
        let max = budgets.iter().max().copied().unwrap_or(0);
        assert!(max > min, "σ=0.5 must spread budgets: {min}..{max}");
    }

    #[test]
    fn cells_die_exactly_when_their_budget_is_crossed() {
        let mut w = WearState::new(
            2,
            2,
            WearModel {
                median_writes: 10.0,
                sigma: 0.0,
            },
            1,
        );
        assert_eq!(w.remaining_writes(0, 0), 10);
        assert!(!w.note_pulses(0, 0, 9), "9 pulses leave headroom");
        assert!(!w.is_exhausted(0, 0));
        assert!(w.note_pulses(0, 0, 1), "the 10th pulse kills the cell");
        assert!(w.is_exhausted(0, 0));
        assert!(
            !w.note_pulses(0, 0, 5),
            "further pulses report no fresh death"
        );
        assert_eq!(w.remaining_writes(0, 0), 0);
        assert_eq!(w.exhausted_cells(), 1);
    }

    #[test]
    fn renew_col_redraws_budget_and_resets_pulses() {
        let model = WearModel::with_endurance(50.0);
        let mut w = WearState::new(4, 4, model, 21);
        let before = w.remaining_writes(1, 2);
        w.note_pulses(1, 2, before); // kill it
        assert!(w.is_exhausted(1, 2));
        w.renew_col(2);
        assert!(!w.is_exhausted(1, 2), "fresh spare cells start alive");
        let renewed = w.remaining_writes(1, 2);
        assert!(renewed > 0);
        assert_ne!(
            renewed, before,
            "generation bump must re-draw the budget (lognormal draw collision is ~impossible)"
        );
        // Untouched columns keep their original stream.
        let twin = WearState::new(4, 4, model, 21);
        assert_eq!(w.remaining_writes(0, 0), twin.remaining_writes(0, 0));
    }

    #[test]
    fn counters_roundtrip_bitwise() {
        let model = WearModel::with_endurance(30.0);
        let mut w = WearState::new(4, 4, model, 5);
        w.note_pulses(0, 0, 7);
        w.note_pulses(3, 1, 1000); // dead
        w.renew_col(1);
        w.note_pulses(3, 1, 2);
        let (p, g) = w.counters();
        let (p, g) = (p.to_vec(), g.to_vec());
        let mut fresh = WearState::new(4, 4, model, 5);
        assert!(fresh.restore_counters(&p, &g));
        assert_eq!(w, fresh, "restore must re-derive identical budgets");
        assert!(!fresh.restore_counters(&p[1..], &g), "length mismatch");
    }

    #[test]
    fn row_min_remaining_tracks_the_weakest_cell() {
        let mut w = WearState::new(
            2,
            3,
            WearModel {
                median_writes: 20.0,
                sigma: 0.0,
            },
            9,
        );
        assert_eq!(w.row_min_remaining(0), 20);
        w.note_pulses(0, 1, 15);
        assert_eq!(w.row_min_remaining(0), 5);
        assert_eq!(w.row_min_remaining(1), 20);
    }

    #[test]
    fn death_probability_is_a_lognormal_cdf() {
        let m = WearModel::with_endurance(1000.0);
        assert_eq!(WearModel::ideal().death_probability(1e12), 0.0);
        assert!((m.death_probability(1000.0) - 0.5).abs() < 1e-6, "median");
        assert!(m.death_probability(100.0) < 1e-4);
        assert!(m.death_probability(10_000.0) > 0.99);
        let step = WearModel {
            median_writes: 10.0,
            sigma: 0.0,
        };
        assert_eq!(step.death_probability(9.0), 0.0);
        assert_eq!(step.death_probability(10.0), 1.0);
    }
}
