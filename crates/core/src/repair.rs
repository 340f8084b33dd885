//! Spare remapping and graceful degradation for faulty crossbar columns.
//!
//! The program-and-verify path (`pipelayer_reram::fault`) reports which
//! cells a write could not bring to their targets. This module is the
//! controller-side response: each matrix owns a bounded budget of spare bit
//! lines ([`SpareBudget`]); a [`RepairController`] consumes the
//! unrecoverable-cell reports, remaps whole faulty columns onto spares
//! while they last, and *masks* columns off (a zero output unit, not a
//! corrupted one) once the budget is exhausted — so the functional model
//! keeps training, degraded but never silently wrong.
//!
//! Column granularity matches how real ReRAM macros provision redundancy:
//! spare bit lines share the word-line drivers, so a column swap is a mux
//! setting, while arbitrary cell-level steering is not implementable.
//!
//! With endurance wear enabled (`pipelayer_reram::wear`) failures appear
//! *mid-run*, so the controller also implements a bounded escalation
//! ladder ([`RepairPolicy`]): a column's first verify failures are
//! tolerated as possibly transient (the next update's rewrite is the
//! retry), a persistent failure enters a backoff window (no spare burned
//! on a column that might still recover), and only a failure surviving
//! the whole ladder consumes a spare — at honest device cost, via
//! [`ReramMatrix::remap_outputs`], which re-programs the displaced column
//! from the stored master weights onto the blank spare — or, with spares
//! exhausted, quarantines the column by masking. The default policy
//! escalates immediately, preserving the pre-ladder behaviour.

use pipelayer_reram::{ProgramReport, ReramMatrix, VerifyPolicy};
use rand::Rng;

/// Redundancy provisioned per mapped matrix.
///
/// The default is **no spares** — fault tolerance is strictly opt-in, and
/// every calibrated baseline number is unchanged until a budget is set. The
/// conventional provision for memory macros is 2–4 spare bit lines per
/// 128-wide array ([`SpareBudget::typical`] uses 4, ~3% area).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpareBudget {
    /// Spare bit lines available to each mapped matrix.
    pub cols_per_matrix: usize,
}

impl SpareBudget {
    /// No redundancy: unrecoverable columns go straight to masking.
    pub fn none() -> Self {
        SpareBudget { cols_per_matrix: 0 }
    }

    /// A budget of `n` spare columns per matrix.
    pub fn with_cols(n: usize) -> Self {
        SpareBudget { cols_per_matrix: n }
    }

    /// The conventional macro provision: 4 spare bit lines per matrix.
    pub fn typical() -> Self {
        Self::with_cols(4)
    }

    /// `true` if no spares are provisioned.
    pub fn is_none(&self) -> bool {
        self.cols_per_matrix == 0
    }
}

/// How persistent a column's verify failures must be before the
/// controller spends a spare on it — the retry → backoff → act ladder.
///
/// The default escalates on the first failure (retry 0, backoff 0), which
/// is exactly the pre-ladder behaviour and the right setting for
/// commissioning-time faults. Under runtime wear, tolerating a couple of
/// failures and backing off before acting avoids burning the bounded
/// spare budget on transient verify misses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairPolicy {
    /// Verify failures tolerated per column before escalating — each
    /// tolerated failure's "retry" is the next update's ordinary rewrite.
    pub retry_limit: u32,
    /// Updates a column sits in the backoff window after its retry budget
    /// is spent; a failure surviving past the window consumes a spare.
    /// `0` skips the backoff rung.
    pub backoff_updates: u64,
    /// Fraction of a column's cells that must be unrecoverable in a
    /// single report before the controller will *mask* the column once
    /// spares are exhausted. Below the threshold the escalated failure is
    /// tolerated instead: a sparse stuck cell corrupts one weight (which
    /// continued training largely learns around), while masking zeroes
    /// the whole output unit — the amputation must not cost more than
    /// the disease. `0.0` masks on any escalated failure (the pre-ladder
    /// behaviour). Remapping onto a spare is never gated: while spares
    /// last, even a single dead cell is worth a fresh column.
    pub quarantine_fraction: f64,
}

impl RepairPolicy {
    /// Escalate on the first failure (the pre-ladder behaviour).
    pub fn immediate() -> Self {
        RepairPolicy {
            retry_limit: 0,
            backoff_updates: 0,
            quarantine_fraction: 0.0,
        }
    }

    /// The full ladder: tolerate 2 failures, back off 4 updates, and —
    /// once spares are gone — quarantine only columns with half or more
    /// of their cells unrecoverable.
    pub fn laddered() -> Self {
        RepairPolicy {
            retry_limit: 2,
            backoff_updates: 4,
            quarantine_fraction: 0.5,
        }
    }
}

impl Default for RepairPolicy {
    fn default() -> Self {
        RepairPolicy::immediate()
    }
}

/// What one repair pass did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepairOutcome {
    /// Columns remapped onto spare bit lines this pass.
    pub remapped: Vec<usize>,
    /// Columns masked off this pass (spares exhausted).
    pub masked: Vec<usize>,
    /// Columns tolerated on the retry rung this pass (the next update's
    /// rewrite is their retry).
    pub retried: Vec<usize>,
    /// Columns parked in (or entering) their backoff window this pass.
    pub deferred: Vec<usize>,
    /// Columns left in service with their sparse stuck cells after the
    /// ladder escalated but the damage sat below the quarantine
    /// threshold (spares exhausted, masking refused).
    pub tolerated: Vec<usize>,
    /// The honest device bill of this pass's remaps: the pulses and
    /// verify reads spent re-programming displaced columns onto blank
    /// spares. Empty unless [`RepairController::process_update`] remapped
    /// something.
    pub repair: ProgramReport,
}

/// Tracks spare consumption for one matrix across its lifetime and decides,
/// per unrecoverable column, between retry, backoff, remap and mask.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairController {
    budget: usize,
    policy: RepairPolicy,
    remapped: Vec<usize>,
    masked: Vec<usize>,
    /// Open failure episodes: `(column, failures seen so far)`.
    strikes: Vec<(usize, u32)>,
    /// Columns in backoff: `(column, update index the window ends at)`.
    backoff: Vec<(usize, u64)>,
    /// Updates seen by [`process_update`](Self::process_update) — the
    /// clock the backoff windows run on.
    updates: u64,
}

impl RepairController {
    /// A controller over `budget` spare columns, escalating immediately.
    pub fn new(budget: SpareBudget) -> Self {
        Self::with_policy(budget, RepairPolicy::immediate())
    }

    /// A controller over `budget` spare columns under the given ladder.
    pub fn with_policy(budget: SpareBudget, policy: RepairPolicy) -> Self {
        RepairController {
            budget: budget.cols_per_matrix,
            policy,
            remapped: Vec::new(),
            masked: Vec::new(),
            strikes: Vec::new(),
            backoff: Vec::new(),
            updates: 0,
        }
    }

    /// Replaces the escalation ladder (keeps budget and history). Lets a
    /// campaign rebuild arms with different repair aggressiveness.
    pub fn set_policy(&mut self, policy: RepairPolicy) {
        self.policy = policy;
    }

    /// Spare columns still unused.
    pub fn spares_left(&self) -> usize {
        self.budget - self.remapped.len()
    }

    /// Columns living on spares so far.
    pub fn remapped(&self) -> &[usize] {
        &self.remapped
    }

    /// Columns masked off so far.
    pub fn masked(&self) -> &[usize] {
        &self.masked
    }

    /// Applies `report` to `matrix`: every logical output column with an
    /// unrecoverable cell is remapped onto a spare (its faults cleared)
    /// while spares last, then masked. Columns already handled in earlier
    /// passes consume nothing further.
    pub fn process(&mut self, matrix: &mut ReramMatrix, report: &ProgramReport) -> RepairOutcome {
        let mut outcome = RepairOutcome::default();
        let mut cols: Vec<usize> = report.unrecoverable.iter().map(|u| u.col).collect();
        cols.sort_unstable();
        cols.dedup();
        for col in cols {
            if self.remapped.contains(&col) || self.masked.contains(&col) {
                continue;
            }
            if self.spares_left() > 0 {
                matrix.repair_outputs(&[col]);
                self.remapped.push(col);
                outcome.remapped.push(col);
            } else {
                matrix.mask_output(col);
                self.masked.push(col);
                outcome.masked.push(col);
            }
        }
        outcome
    }

    /// The runtime (wear-aware) entry point: applies `report` to `matrix`
    /// through the full retry → backoff → remap → mask ladder. Unlike
    /// [`process`](Self::process), remapped columns may re-enter the
    /// ladder — under wear, the spare itself can die later — and remaps go
    /// through [`ReramMatrix::remap_outputs`], so `outcome.repair` carries
    /// the honest pulse/verify-read bill of re-programming displaced
    /// columns onto blank spares (to be merged into the caller's running
    /// report like any other write cost). Each call advances the backoff
    /// clock by one update.
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn process_update(
        &mut self,
        matrix: &mut ReramMatrix,
        report: &ProgramReport,
        verify: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> RepairOutcome {
        self.updates += 1;
        let mut outcome = RepairOutcome::default();
        let mut cols: Vec<usize> = report.unrecoverable.iter().map(|u| u.col).collect();
        cols.sort_unstable();
        cols.dedup();
        for col in cols {
            if self.masked.contains(&col) {
                continue;
            }
            if let Some(i) = self.backoff.iter().position(|&(c, _)| c == col) {
                if self.updates < self.backoff[i].1 {
                    // Window still open: keep waiting the failure out.
                    outcome.deferred.push(col);
                    continue;
                }
                // The window expired and the column still fails: act.
                self.backoff.swap_remove(i);
            } else {
                let strikes = match self.strikes.iter_mut().find(|(c, _)| *c == col) {
                    Some((_, s)) => {
                        *s += 1;
                        *s
                    }
                    None => {
                        self.strikes.push((col, 1));
                        1
                    }
                };
                if strikes <= self.policy.retry_limit {
                    outcome.retried.push(col);
                    continue;
                }
                if self.policy.backoff_updates > 0 {
                    self.backoff
                        .push((col, self.updates + self.policy.backoff_updates));
                    outcome.deferred.push(col);
                    continue;
                }
            }
            // Acting closes the episode; a later failure on the same
            // column (e.g. its spare wearing out) restarts the ladder.
            self.strikes.retain(|&(c, _)| c != col);
            if self.spares_left() > 0 {
                outcome
                    .repair
                    .merge(matrix.remap_outputs(&[col], verify, rng));
                self.remapped.push(col);
                outcome.remapped.push(col);
            } else {
                let dead_in_col = matrix.fault_count_in_outputs(&[col]);
                let cells_in_col = matrix.in_dim() * matrix.crossbar_count();
                let floor = (self.policy.quarantine_fraction * cells_in_col as f64).ceil();
                if dead_in_col as f64 >= floor.max(1.0) {
                    matrix.mask_output(col);
                    self.masked.push(col);
                    outcome.masked.push(col);
                } else {
                    outcome.tolerated.push(col);
                }
            }
        }
        outcome
    }

    /// Serialized controller state for checkpointing:
    /// `(remapped, masked, strikes, backoff, updates)`.
    #[expect(clippy::type_complexity, reason = "mirrors the checkpoint fields")]
    pub fn state(&self) -> (&[usize], &[usize], &[(usize, u32)], &[(usize, u64)], u64) {
        (
            &self.remapped,
            &self.masked,
            &self.strikes,
            &self.backoff,
            self.updates,
        )
    }

    /// Restores state captured by [`state`](Self::state). Checkpoint
    /// restore only — budget and policy come from configuration, not the
    /// checkpoint.
    pub fn restore_state(
        &mut self,
        remapped: Vec<usize>,
        masked: Vec<usize>,
        strikes: Vec<(usize, u32)>,
        backoff: Vec<(usize, u64)>,
        updates: u64,
    ) {
        self.remapped = remapped;
        self.masked = masked;
        self.strikes = strikes;
        self.backoff = backoff;
        self.updates = updates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipelayer_reram::{FaultModel, ReramParams, VerifyPolicy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn faulty_matrix() -> ReramMatrix {
        let w = vec![0.5f32; 8 * 16];
        ReramMatrix::program_with_faults(
            &w,
            8,
            16,
            &ReramParams::default(),
            &FaultModel::with_stuck_rate(0.05),
            21,
        )
    }

    #[test]
    fn remaps_within_budget_then_masks() {
        let mut m = faulty_matrix();
        let w = vec![0.5f32; 8 * 16];
        let mut rng = StdRng::seed_from_u64(0);
        let report = m.write_verify(&w, &VerifyPolicy::with_attempts(2), &mut rng);
        let bad_cols: Vec<usize> = {
            let mut c: Vec<usize> = report.unrecoverable.iter().map(|u| u.col).collect();
            c.sort_unstable();
            c.dedup();
            c
        };
        assert!(bad_cols.len() >= 2, "fault rate should hit several columns");

        let mut ctl = RepairController::new(SpareBudget::with_cols(1));
        let outcome = ctl.process(&mut m, &report);
        assert_eq!(outcome.remapped.len(), 1);
        assert_eq!(outcome.masked.len(), bad_cols.len() - 1);
        assert_eq!(ctl.spares_left(), 0);
        assert_eq!(m.masked_outputs(), outcome.masked);
    }

    #[test]
    fn repeated_reports_consume_nothing_extra() {
        let mut m = faulty_matrix();
        let w = vec![0.5f32; 8 * 16];
        let mut rng = StdRng::seed_from_u64(1);
        let policy = VerifyPolicy::with_attempts(2);
        let report = m.write_verify(&w, &policy, &mut rng);
        let mut ctl = RepairController::new(SpareBudget::typical());
        let first = ctl.process(&mut m, &report);
        let spares_after_first = ctl.spares_left();

        // A second verified write only re-reports masked columns (the
        // remapped ones are fault-free now); nothing new is consumed.
        let report2 = m.write_verify(&w, &policy, &mut rng);
        let second = ctl.process(&mut m, &report2);
        assert!(second.remapped.is_empty() && second.masked.is_empty());
        assert_eq!(ctl.spares_left(), spares_after_first);
        assert_eq!(ctl.remapped(), first.remapped);
    }

    #[test]
    fn ladder_tolerates_then_backs_off_then_remaps() {
        let mut m = faulty_matrix();
        let w = vec![0.5f32; 8 * 16];
        let policy = VerifyPolicy::with_attempts(2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut ctl = RepairController::with_policy(
            SpareBudget::typical(),
            RepairPolicy {
                retry_limit: 2,
                backoff_updates: 3,
                quarantine_fraction: 0.0,
            },
        );
        // The same persistent failure report, update after update.
        let report = m.write_verify(&w, &policy, &mut rng);
        assert!(!report.unrecoverable.is_empty());

        // Updates 1–2: retry rung. Update 3: enters backoff. Updates 4–5:
        // window open. Update 6: window expired → remap fires.
        for update in 1..=6u64 {
            let o = ctl.process_update(&mut m, &report, &policy, &mut rng);
            match update {
                1 | 2 => {
                    assert!(!o.retried.is_empty(), "update {update} must tolerate");
                    assert!(o.remapped.is_empty() && o.deferred.is_empty());
                }
                3..=5 => {
                    assert!(!o.deferred.is_empty(), "update {update} must defer");
                    assert!(o.remapped.is_empty() && o.masked.is_empty());
                }
                _ => {
                    assert!(!o.remapped.is_empty(), "update 6 must remap");
                    assert!(
                        o.repair.pulses > 0,
                        "the remap must bill blank-spare reprogramming"
                    );
                }
            }
        }
        assert!(ctl.spares_left() < SpareBudget::typical().cols_per_matrix);
        // The remapped columns are clean now: a fresh verify only
        // re-reports whatever the ladder hasn't acted on yet.
        let report2 = m.write_verify(&w, &policy, &mut rng);
        let acted: Vec<usize> = ctl.remapped().to_vec();
        assert!(report2
            .unrecoverable
            .iter()
            .all(|u| !acted.contains(&u.col)));
    }

    #[test]
    fn immediate_policy_matches_legacy_escalation_order() {
        let w = vec![0.5f32; 8 * 16];
        let policy = VerifyPolicy::with_attempts(2);

        let mut legacy_m = faulty_matrix();
        let mut rng = StdRng::seed_from_u64(4);
        let report = legacy_m.write_verify(&w, &policy, &mut rng);
        let mut legacy = RepairController::new(SpareBudget::with_cols(1));
        let legacy_out = legacy.process(&mut legacy_m, &report);

        let mut ladder_m = faulty_matrix();
        let mut rng2 = StdRng::seed_from_u64(4);
        let report2 = ladder_m.write_verify(&w, &policy, &mut rng2);
        let mut ladder =
            RepairController::with_policy(SpareBudget::with_cols(1), RepairPolicy::immediate());
        let ladder_out = ladder.process_update(&mut ladder_m, &report2, &policy, &mut rng2);

        // Same columns end up remapped/masked in the same order; only the
        // device bill differs (remap_outputs pays for the rewrite).
        assert_eq!(legacy_out.remapped, ladder_out.remapped);
        assert_eq!(legacy_out.masked, ladder_out.masked);
        assert_eq!(legacy_m.masked_outputs(), ladder_m.masked_outputs());
    }

    /// With spares exhausted, the laddered mask rung must refuse to
    /// amputate a column over sparse damage (a stuck cell corrupts one
    /// weight; a masked column zeroes the whole unit) and only quarantine
    /// once the column's fault population crosses the policy threshold.
    #[test]
    fn quarantine_tolerates_sparse_damage_and_masks_dense() {
        let w = vec![0.5f32; 8 * 16];
        let policy = VerifyPolicy::with_attempts(2);
        let ladder = RepairPolicy {
            retry_limit: 0,
            backoff_updates: 0,
            quarantine_fraction: 0.5,
        };

        // Sparse: ~5% stuck cells sit far below the quarantine floor, so
        // with no spares nothing may be masked — every escalated column
        // is tolerated in service instead.
        let mut sparse = faulty_matrix();
        let mut rng = StdRng::seed_from_u64(9);
        let report = sparse.write_verify(&w, &policy, &mut rng);
        assert!(!report.unrecoverable.is_empty());
        let mut ctl = RepairController::with_policy(SpareBudget::none(), ladder);
        let o = ctl.process_update(&mut sparse, &report, &policy, &mut rng);
        assert!(o.masked.is_empty(), "sparse damage must not be amputated");
        assert!(!o.tolerated.is_empty(), "the refusal must be reported");
        assert!(sparse.masked_outputs().is_empty());

        // Dense: most cells of every column stuck — zeroing the column
        // now beats the garbage it computes, and the same ladder masks.
        let mut dense = ReramMatrix::program_with_faults(
            &w,
            8,
            16,
            &ReramParams::default(),
            &FaultModel::with_stuck_rate(0.9),
            22,
        );
        let report = dense.write_verify(&w, &policy, &mut rng);
        let mut ctl = RepairController::with_policy(SpareBudget::none(), ladder);
        let o = ctl.process_update(&mut dense, &report, &policy, &mut rng);
        assert!(!o.masked.is_empty(), "dense damage must quarantine");
    }

    #[test]
    fn controller_state_roundtrips() {
        let mut ctl =
            RepairController::with_policy(SpareBudget::typical(), RepairPolicy::laddered());
        ctl.restore_state(vec![3], vec![7], vec![(1, 2)], vec![(5, 9)], 6);
        let mut twin =
            RepairController::with_policy(SpareBudget::typical(), RepairPolicy::laddered());
        let (r, m, s, b, u) = ctl.state();
        twin.restore_state(r.to_vec(), m.to_vec(), s.to_vec(), b.to_vec(), u);
        assert_eq!(ctl, twin);
        assert_eq!(
            ctl.spares_left(),
            SpareBudget::typical().cols_per_matrix - 1
        );
    }

    #[test]
    fn zero_budget_masks_everything() {
        let mut m = faulty_matrix();
        let w = vec![0.5f32; 8 * 16];
        let mut rng = StdRng::seed_from_u64(2);
        let report = m.write_verify(&w, &VerifyPolicy::with_attempts(2), &mut rng);
        let mut ctl = RepairController::new(SpareBudget::none());
        let outcome = ctl.process(&mut m, &report);
        assert!(outcome.remapped.is_empty());
        assert!(!outcome.masked.is_empty());
    }
}
