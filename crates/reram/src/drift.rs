//! Time-dependent device degradation: retention drift and read disturb.
//!
//! PipeLayer's headline workload is long pipelined training runs, during
//! which ReRAM cells degrade *in operation* rather than only at program
//! time (the PR 1 fault model). Two mechanisms are modeled, both advanced
//! in **logical pipeline cycles** (one processed image = one cycle, the
//! same clock `PipelineSim` ticks):
//!
//! * **Conductance drift** — after a retention knee `t0`, a cell's
//!   conductance decays as `G(t) = G0 · (t/t0)^-ν` (the standard
//!   power-law retention model, cf. PANTHER and the eNVM noise-resilience
//!   literature). In level space this pulls the stored level toward 0
//!   until the read quantizer snaps to a *lower* level — a misread. The
//!   per-cell exponent ν is drawn once per programming generation from
//!   `N(ν, ν_σ²)` (clamped at 0) via the documented
//!   [`seedstream`](crate::seedstream) scheme, so slow and fast cells are
//!   stable, reproducible identities. The draw is lazy: it happens at the
//!   first clock advance that could carry the cell past the knee, for the
//!   generation the cell then has, so a cell rewritten before it ages
//!   never draws the exponents of its earlier generations. A read below
//!   the knee never consults ν, so every read is that of an eager draw.
//! * **Read disturb** — every spike slot that drives a word line nudges
//!   that row's cells toward SET (upward). After `disturb_per_level`
//!   accumulated slot-reads a cell reads one level *high*, two levels
//!   after twice that, etc., clamped at full scale.
//!
//! Both effects are applied through the same effective-level path as
//! stuck-at faults and programming variation, so `mvm_spiked` sees
//! degraded weights with no special casing. Reprogramming a cell (any
//! write that actually issues pulses, including a scrub pass) restores it:
//! its age and disturb counters reset and its ν is redrawn for the new
//! generation. A write whose quantized target equals the current stored
//! level issues zero pulses and therefore does **not** reset the clock —
//! stable weights keep aging, which is exactly why periodic scrub matters
//! even while training continuously rewrites the arrays.
//!
//! Everything here is closed-form in `(now, programmed_at, row_reads)` —
//! no RNG is consumed at read time — so reads are pure and campaigns are
//! deterministic at any thread count.

use crate::seedstream;

/// Parameters of the degradation model. The default ([`ideal`]) is a
/// mathematically exact no-op so calibrated paper numbers are unchanged.
///
/// [`ideal`]: DriftModel::ideal
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftModel {
    /// Median power-law drift exponent ν (0 disables retention drift).
    pub nu: f64,
    /// Cell-to-cell standard deviation of ν (clamped at ν ≥ 0 per cell).
    pub nu_sigma: f64,
    /// Retention knee in logical cycles: drift begins once a cell's age
    /// exceeds `t0_cycles`. Must be ≥ 1 for the power law to be defined:
    /// `PipeLayerConfig::validate` rejects 0, and an array given a model
    /// directly reads 0 as 1.
    pub t0_cycles: u64,
    /// Spike-slot reads on a word line that raise its cells one level
    /// (0 disables read disturb).
    pub disturb_per_level: u64,
}

impl DriftModel {
    /// No degradation at all: ν = 0 and disturb off.
    pub fn ideal() -> Self {
        DriftModel {
            nu: 0.0,
            nu_sigma: 0.0,
            t0_cycles: 1,
            disturb_per_level: 0,
        }
    }

    /// True when the model can never alter a read.
    pub fn is_ideal(&self) -> bool {
        (self.nu <= 0.0 && self.nu_sigma <= 0.0) && self.disturb_per_level == 0
    }
}

impl Default for DriftModel {
    fn default() -> Self {
        DriftModel::ideal()
    }
}

/// Per-crossbar degradation state: a logical clock plus, per cell, the
/// cycle it was last physically programmed, its programming generation,
/// and its generation-specific drift exponent. Read disturb is tracked
/// per word line as a monotone counter with a per-cell mark taken at
/// program time, so an MVM costs O(rows) bookkeeping, not O(rows·cols).
///
/// A cell's exponent is drawn lazily: programming only queues the cell,
/// and [`advance`](Self::advance) draws every queued exponent (for the
/// cell's generation at that time) before any queued cell can age past
/// `t0_cycles`. Until then a read cannot reach the exponent, so every read
/// is that of a state that drew it at program time.
#[derive(Debug, Clone)]
pub struct DriftState {
    model: DriftModel,
    seed: u64,
    cols: usize,
    now: u64,
    programmed_at: Vec<u64>,
    generation: Vec<u64>,
    /// The drawn exponent per cell; `NaN` while the cell is queued in
    /// `pending`.
    nu_cell: Vec<f64>,
    /// Row-major indices of the cells whose exponent is not drawn yet.
    pending: Vec<usize>,
    /// The cycle the first cell of `pending` was queued at.
    pending_since: u64,
    row_reads: Vec<u64>,
    read_mark: Vec<u64>,
}

impl DriftState {
    /// Fresh state: every cell counts as programmed at cycle 0 with
    /// generation 0. `seed` should already be crossbar-qualified via
    /// [`seedstream::crossbar_seed`].
    pub fn new(rows: usize, cols: usize, model: DriftModel, seed: u64) -> Self {
        let n = rows * cols;
        DriftState {
            model,
            seed,
            cols,
            now: 0,
            programmed_at: vec![0; n],
            generation: vec![0; n],
            nu_cell: vec![f64::NAN; n],
            pending: (0..n).collect(),
            pending_since: 0,
            row_reads: vec![0; rows],
            read_mark: vec![0; n],
        }
    }

    pub fn model(&self) -> &DriftModel {
        &self.model
    }

    /// Current logical cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advance the logical clock (one processed image = one cycle). Once a
    /// queued cell could be older than `t0_cycles`, every queued exponent
    /// is drawn.
    pub fn advance(&mut self, cycles: u64) {
        self.now = self.now.saturating_add(cycles);
        let oldest = self.now.saturating_sub(self.pending_since);
        if !self.pending.is_empty() && oldest > self.model.t0_cycles {
            for idx in self.pending.drain(..) {
                let (row, col) = (idx / self.cols, idx % self.cols);
                let nu = cell_nu(&self.model, self.seed, row, col, self.generation[idx]);
                self.nu_cell[idx] = nu;
            }
        }
    }

    /// Record `slots` spike-slot accesses on word line `row`.
    pub fn note_row_reads(&mut self, row: usize, slots: u64) {
        if let Some(r) = self.row_reads.get_mut(row) {
            *r = r.saturating_add(slots);
        }
    }

    /// Record that the cell was physically re-programmed *now*: its age
    /// and disturb restart and its drift exponent is redrawn for the new
    /// generation (queued, see [`DriftState`]). Call only when a write
    /// actually issued pulses.
    pub fn note_program(&mut self, row: usize, col: usize) {
        let idx = row * self.cols + col;
        if idx >= self.programmed_at.len() {
            return;
        }
        self.programmed_at[idx] = self.now;
        self.read_mark[idx] = self.row_reads[row];
        self.generation[idx] = self.generation[idx].wrapping_add(1);
        if !self.nu_cell[idx].is_nan() {
            if self.pending.is_empty() {
                self.pending_since = self.now;
            }
            self.nu_cell[idx] = f64::NAN;
            self.pending.push(idx);
        }
    }

    /// The drift exponent of the cell's current programming generation,
    /// drawn or not; `None` outside the array.
    #[cfg(test)]
    fn nu(&self, row: usize, col: usize) -> Option<f64> {
        let idx = row * self.cols + col;
        let generation = *self.generation.get(idx)?;
        Some(cell_nu(&self.model, self.seed, row, col, generation))
    }

    /// The level a read sees *now* for a cell whose stored (programmed)
    /// level is `stored`. Pure in the current state — no RNG.
    #[expect(clippy::cast_possible_truncation, reason = "decays below the u8 level")]
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn effective_level(&self, row: usize, col: usize, stored: u8, max_level: u8) -> u8 {
        let idx = row * self.cols + col;
        if idx >= self.programmed_at.len() {
            return stored;
        }
        let mut lv = i64::from(stored);
        // A queued cell is no older than `t0_cycles`, so its `NaN` never
        // reaches the power law.
        let nu = self.nu_cell[idx];
        let age = self.now.saturating_sub(self.programmed_at[idx]);
        if nu > 0.0 && age > self.model.t0_cycles && stored > 0 {
            let t0 = self.model.t0_cycles.max(1) as f64;
            let factor = (age as f64 / t0).powf(-nu);
            lv = (f64::from(stored) * factor).round() as i64;
        }
        let seen = self.row_reads[row].saturating_sub(self.read_mark[idx]);
        if let Some(bumps) = seen.checked_div(self.model.disturb_per_level) {
            lv = lv.saturating_add(i64::try_from(bumps).unwrap_or(i64::MAX));
        }
        let lv = lv.clamp(0, i64::from(max_level));
        u8::try_from(lv).unwrap_or(max_level)
    }

    /// True when the cell currently reads at a different level than it
    /// was programmed to.
    pub fn is_degraded(&self, row: usize, col: usize, stored: u8, max_level: u8) -> bool {
        self.effective_level(row, col, stored, max_level) != stored
    }
}

/// Per-generation drift exponent for one cell, drawn from the documented
/// `(seed, crossbar, row, col, epoch)` stream with epoch = generation.
fn cell_nu(model: &DriftModel, seed: u64, row: usize, col: usize, generation: u64) -> f64 {
    if model.nu <= 0.0 && model.nu_sigma <= 0.0 {
        return 0.0;
    }
    if model.nu_sigma <= 0.0 {
        return model.nu.max(0.0);
    }
    let g = seedstream::cell_gauss(seed, row, col, generation);
    (model.nu + model.nu_sigma * g).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The eager state the lazy one must match read for read: every
    /// exponent drawn the moment its cell is programmed.
    struct EagerDrift {
        model: DriftModel,
        seed: u64,
        cols: usize,
        now: u64,
        programmed_at: Vec<u64>,
        generation: Vec<u64>,
        nu_cell: Vec<f64>,
        row_reads: Vec<u64>,
        read_mark: Vec<u64>,
    }

    impl EagerDrift {
        fn new(rows: usize, cols: usize, model: DriftModel, seed: u64) -> Self {
            let n = rows * cols;
            let nu_cell = (0..n)
                .map(|i| cell_nu(&model, seed, i / cols, i % cols, 0))
                .collect();
            EagerDrift {
                model,
                seed,
                cols,
                now: 0,
                programmed_at: vec![0; n],
                generation: vec![0; n],
                nu_cell,
                row_reads: vec![0; rows],
                read_mark: vec![0; n],
            }
        }

        fn advance(&mut self, cycles: u64) {
            self.now = self.now.saturating_add(cycles);
        }

        fn note_row_reads(&mut self, row: usize, slots: u64) {
            self.row_reads[row] = self.row_reads[row].saturating_add(slots);
        }

        fn note_program(&mut self, row: usize, col: usize) {
            let idx = row * self.cols + col;
            self.programmed_at[idx] = self.now;
            self.read_mark[idx] = self.row_reads[row];
            self.generation[idx] = self.generation[idx].wrapping_add(1);
            self.nu_cell[idx] = cell_nu(&self.model, self.seed, row, col, self.generation[idx]);
        }

        fn effective_level(&self, row: usize, col: usize, stored: u8, max_level: u8) -> u8 {
            let idx = row * self.cols + col;
            let mut lv = i64::from(stored);
            let nu = self.nu_cell[idx];
            let age = self.now.saturating_sub(self.programmed_at[idx]);
            if nu > 0.0 && age > self.model.t0_cycles && stored > 0 {
                let t0 = self.model.t0_cycles.max(1) as f64;
                let factor = (age as f64 / t0).powf(-nu);
                lv = (f64::from(stored) * factor).round() as i64;
            }
            let seen = self.row_reads[row].saturating_sub(self.read_mark[idx]);
            if let Some(bumps) = seen.checked_div(self.model.disturb_per_level) {
                lv = lv.saturating_add(i64::try_from(bumps).unwrap_or(i64::MAX));
            }
            let lv = lv.clamp(0, i64::from(max_level));
            u8::try_from(lv).unwrap_or(max_level)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Lazily drawn exponents read exactly like eagerly drawn ones:
        /// over random program / advance / disturb sequences, around knees
        /// from 0 to 60 cycles, every cell's `effective_level` and
        /// `is_degraded` at every stored level equal the eager oracle's.
        #[test]
        fn lazy_nu_reads_like_eager_nu(
            rows in 1usize..6,
            cols in 1usize..6,
            t0 in 0u64..60,
            nu_sigma in 0.0f64..0.3,
            disturb in 0u64..3,
            steps in 1usize..40,
            seed in 0u64..1000,
        ) {
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let model = DriftModel { nu: 0.3, nu_sigma, t0_cycles: t0, disturb_per_level: disturb * 25 };
            let mut lazy = DriftState::new(rows, cols, model, seed);
            let mut eager = EagerDrift::new(rows, cols, model, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..steps {
                match rng.random_range(0..4) {
                    0 | 1 => {
                        for _ in 0..rng.random_range(1..=rows * cols) {
                            let (r, c) = (rng.random_range(0..rows), rng.random_range(0..cols));
                            lazy.note_program(r, c);
                            eager.note_program(r, c);
                        }
                    }
                    2 => {
                        let cycles = rng.random_range(0..=2 * t0 + 2);
                        lazy.advance(cycles);
                        eager.advance(cycles);
                    }
                    _ => {
                        let (r, slots) = (rng.random_range(0..rows), rng.random_range(0u64..40));
                        lazy.note_row_reads(r, slots);
                        eager.note_row_reads(r, slots);
                    }
                }
                for (r, c) in (0..rows).flat_map(|r| (0..cols).map(move |c| (r, c))) {
                    for stored in 0..=15u8 {
                        let want = eager.effective_level(r, c, stored, 15);
                        prop_assert_eq!(lazy.effective_level(r, c, stored, 15), want);
                        prop_assert_eq!(lazy.is_degraded(r, c, stored, 15), want != stored);
                    }
                    prop_assert_eq!(lazy.nu(r, c), Some(eager.nu_cell[r * cols + c]));
                }
            }
        }
    }

    fn model() -> DriftModel {
        DriftModel {
            nu: 0.1,
            nu_sigma: 0.0,
            t0_cycles: 10,
            disturb_per_level: 100,
        }
    }

    #[test]
    fn ideal_model_never_alters_reads() {
        let mut s = DriftState::new(4, 4, DriftModel::ideal(), 1);
        s.advance(1_000_000);
        s.note_row_reads(2, 1_000_000);
        for stored in 0..=15u8 {
            assert_eq!(s.effective_level(2, 3, stored, 15), stored);
        }
    }

    #[test]
    fn fresh_state_reads_exactly() {
        let s = DriftState::new(4, 4, model(), 7);
        for stored in 0..=15u8 {
            assert_eq!(s.effective_level(1, 1, stored, 15), stored);
        }
    }

    #[test]
    fn drift_pulls_levels_down_monotonically() {
        let mut s = DriftState::new(2, 2, model(), 7);
        let mut prev = 15u8;
        for _ in 0..40 {
            s.advance(250);
            let lv = s.effective_level(0, 0, 15, 15);
            assert!(lv <= prev, "drift must be monotone non-increasing");
            prev = lv;
        }
        assert!(prev < 15, "after 10k cycles a t0=10 ν=0.1 cell has misread");
    }

    #[test]
    fn no_drift_before_knee() {
        let mut s = DriftState::new(2, 2, model(), 7);
        s.advance(10);
        assert_eq!(s.effective_level(0, 0, 15, 15), 15);
    }

    #[test]
    fn disturb_pushes_levels_up() {
        let mut s = DriftState::new(2, 2, model(), 7);
        s.note_row_reads(0, 250);
        assert_eq!(s.effective_level(0, 0, 3, 15), 5, "250/100 = 2 levels up");
        assert_eq!(s.effective_level(1, 0, 3, 15), 3, "other rows untouched");
        s.note_row_reads(0, 10_000);
        assert_eq!(s.effective_level(0, 0, 3, 15), 15, "clamped at full scale");
    }

    #[test]
    fn reprogram_resets_age_and_disturb() {
        let mut s = DriftState::new(2, 2, model(), 7);
        s.advance(100_000);
        s.note_row_reads(0, 100_000);
        assert!(s.is_degraded(0, 0, 12, 15));
        s.note_program(0, 0);
        assert_eq!(s.effective_level(0, 0, 12, 15), 12);
        assert!(!s.is_degraded(0, 0, 12, 15));
    }

    #[test]
    fn generation_redraws_nu() {
        let spread = DriftModel {
            nu_sigma: 0.05,
            ..model()
        };
        let mut s = DriftState::new(2, 2, spread, 7);
        let nu0 = s.nu(0, 0).unwrap();
        s.note_program(0, 0);
        let nu1 = s.nu(0, 0).unwrap();
        assert_ne!(nu0, nu1, "new generation, new exponent");
        // And the draw is pinned by the seed scheme: rebuilding from the
        // same seed reproduces it, and it is the generation's own draw.
        let s2 = DriftState::new(2, 2, spread, 7);
        assert_eq!(nu0, s2.nu(0, 0).unwrap());
        assert_eq!(
            nu0,
            (0.1 + 0.05 * seedstream::cell_gauss(7, 0, 0, 0)).max(0.0)
        );
        assert_eq!(
            nu1,
            (0.1 + 0.05 * seedstream::cell_gauss(7, 0, 0, 1)).max(0.0)
        );
        assert_eq!(s.nu(2, 0), None);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = DriftState::new(3, 3, model(), 42);
        let mut b = DriftState::new(3, 3, model(), 42);
        for s in [&mut a, &mut b] {
            s.advance(5000);
            s.note_row_reads(1, 777);
        }
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(
                    a.effective_level(r, c, 9, 15),
                    b.effective_level(r, c, 9, 15)
                );
            }
        }
    }
}
