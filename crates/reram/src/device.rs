//! The device-model stack: everything that sits between a cell's stored
//! level and the level a read sees.
//!
//! [`DeviceModel`] names the four non-idealities the reproduction models —
//! persistent stuck-at faults ([`fault`](crate::fault)), retention drift
//! and read disturb ([`drift`](crate::drift)), analog read-path noise
//! ([`noise`](crate::noise)) and endurance wear-out
//! ([`wear`](crate::wear)). Every component defaults to its `ideal()`
//! model, an exact no-op. A crossbar attaches a model once and carries the
//! per-cell state in one `DeviceStack`, which composes the components in
//! exactly one place, `DeviceStack::resolve`: a fault pins the level,
//! otherwise drift and disturb skew it, and analog noise applies on top.
//! `DeviceStack::stage` is the same composition stopped before the
//! read-noise draw, for the crossbar's cached read path.

use crate::drift::{DriftModel, DriftState};
use crate::fault::{FaultKind, FaultMap, FaultModel};
use crate::noise::{NoiseModel, NoiseState, StagedRead};
use crate::wear::{WearModel, WearState};

/// The device non-idealities of one array, one field per mechanism.
///
/// # Example
///
/// ```
/// use pipelayer_reram::{DeviceModel, NoiseModel, ReramMatrix, ReramParams};
///
/// let device = DeviceModel::ideal().with_noise(NoiseModel::with_strength(1.0));
/// let mut m = ReramMatrix::program(&[0.5, -0.25], 1, 2, &ReramParams::default());
/// m.attach(&device, 7);
/// assert_eq!(m.matvec(&[1.0, 1.0]).len(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceModel {
    /// Persistent stuck-at/dead cells, drawn once per crossbar.
    pub faults: FaultModel,
    /// Conductance drift and read disturb, advanced in logical cycles.
    pub drift: DriftModel,
    /// Lognormal device spread, IR drop and per-read noise.
    pub noise: NoiseModel,
    /// Per-cell write budgets whose exhaustion raises live dead faults.
    pub wear: WearModel,
}

impl DeviceModel {
    /// A perfect device: every component at its exact no-op.
    pub fn ideal() -> Self {
        DeviceModel {
            faults: FaultModel::ideal(),
            drift: DriftModel::ideal(),
            noise: NoiseModel::ideal(),
            wear: WearModel::ideal(),
        }
    }

    /// This model with `faults` as its fault component.
    pub fn with_faults(self, faults: FaultModel) -> Self {
        DeviceModel { faults, ..self }
    }

    /// This model with `drift` as its drift component.
    pub fn with_drift(self, drift: DriftModel) -> Self {
        DeviceModel { drift, ..self }
    }

    /// This model with `noise` as its noise component.
    pub fn with_noise(self, noise: NoiseModel) -> Self {
        DeviceModel { noise, ..self }
    }

    /// This model with `wear` as its wear component.
    pub fn with_wear(self, wear: WearModel) -> Self {
        DeviceModel { wear, ..self }
    }
}

impl Default for DeviceModel {
    fn default() -> Self {
        DeviceModel::ideal()
    }
}

/// The per-cell device state of one `rows × cols` crossbar. A component
/// holds state only once a non-ideal model (or an explicit fault map) has
/// been attached, so an ideal array carries none and reads its stored
/// levels directly.
#[derive(Debug, Clone)]
pub(crate) struct DeviceStack {
    rows: usize,
    cols: usize,
    faults: Option<FaultMap>,
    drift: Option<DriftState>,
    noise: Option<NoiseState>,
    wear: Option<WearState>,
}

impl DeviceStack {
    /// The stack of a perfect `rows × cols` array.
    pub fn ideal(rows: usize, cols: usize) -> Self {
        DeviceStack {
            rows,
            cols,
            faults: None,
            drift: None,
            noise: None,
            wear: None,
        }
    }

    /// Builds the state of every non-ideal component of `model`, replacing
    /// that component's current state; ideal components keep theirs, so
    /// components may be attached one at a time (with different seeds).
    /// `seed` should already be crossbar-qualified via
    /// [`crate::seedstream::crossbar_seed`].
    pub fn attach(&mut self, model: &DeviceModel, seed: u64) {
        let (rows, cols) = (self.rows, self.cols);
        if !model.faults.is_ideal() {
            self.faults = Some(FaultMap::generate(rows, cols, &model.faults, seed));
        }
        if !model.drift.is_ideal() {
            self.drift = Some(DriftState::new(rows, cols, model.drift, seed));
        }
        if !model.noise.is_ideal() {
            self.noise = Some(NoiseState::new(rows, cols, model.noise, seed));
        }
        if !model.wear.is_ideal() {
            self.wear = Some(WearState::new(rows, cols, model.wear, seed));
        }
    }

    /// The fault map, if faults were attached or a cell has died.
    pub fn faults(&self) -> Option<&FaultMap> {
        self.faults.as_ref()
    }

    /// The drift/disturb state, if a non-ideal drift model is attached.
    pub fn drift(&self) -> Option<&DriftState> {
        self.drift.as_ref()
    }

    /// The analog noise state, if a non-ideal noise model is attached.
    pub fn noise(&self) -> Option<&NoiseState> {
        self.noise.as_ref()
    }

    /// The wear state, if a non-ideal wear model is attached.
    pub fn wear(&self) -> Option<&WearState> {
        self.wear.as_ref()
    }

    /// Replaces the fault map wholesale. Returns `false` (untouched) on a
    /// geometry mismatch.
    pub fn set_faults(&mut self, map: FaultMap) -> bool {
        if (map.rows(), map.cols()) != (self.rows, self.cols) {
            return false;
        }
        self.faults = Some(map);
        true
    }

    /// Restores wear counters exported by [`WearState::counters`]. Returns
    /// `false` when no wear is attached or the geometry mismatches.
    pub fn restore_wear_counters(&mut self, pulses: &[u64], generation: &[u64]) -> bool {
        self.wear
            .as_mut()
            .is_some_and(|w| w.restore_counters(pulses, generation))
    }

    /// The fault pinning `(row, col)`, if any.
    #[inline]
    pub fn fault(&self, row: usize, col: usize) -> Option<FaultKind> {
        self.faults.as_ref().and_then(|f| f.get(row, col))
    }

    /// True when every read returns the stored level unchanged: no fault
    /// map, drift or noise state (wear acts only through raised faults).
    pub fn is_transparent(&self) -> bool {
        self.faults.is_none() && self.drift.is_none() && self.noise.is_none()
    }

    /// The level the read at `read_epoch` of `(row, col)` presents for a
    /// cell storing `stored`: a fault pins it, otherwise drift and disturb
    /// skew it; noise applies on top of either — a stuck cell's pinned
    /// conductance still crosses the same noisy wires.
    #[inline]
    pub fn resolve(
        &self,
        row: usize,
        col: usize,
        stored: u8,
        max_level: u8,
        read_epoch: u64,
    ) -> u8 {
        let base = self.base_level(row, col, stored, max_level);
        match self.noise.as_ref() {
            Some(n) => n.effective_level(row, col, base, max_level, read_epoch),
            None => base,
        }
    }

    /// [`resolve`](Self::resolve) up to the read-noise draw, which is all
    /// of it that stays the same between writes.
    #[inline]
    pub fn stage(&self, row: usize, col: usize, stored: u8, max_level: u8) -> StagedRead {
        let base = self.base_level(row, col, stored, max_level);
        match self.noise.as_ref() {
            Some(n) => n.stage(row, col, base, max_level),
            None => StagedRead::Fixed(base),
        }
    }

    /// The level under the analog noise: the fault's pinned level, else
    /// the drifted and disturbed one.
    #[inline]
    fn base_level(&self, row: usize, col: usize, stored: u8, max_level: u8) -> u8 {
        match self.fault(row, col) {
            Some(kind) => kind.effective_level(max_level),
            None => match self.drift.as_ref() {
                Some(d) => d.effective_level(row, col, stored, max_level),
                None => stored,
            },
        }
    }

    /// Whether a write's pulses reach any device state: a drift clock, a
    /// noise deviate or a wear budget. Without one, `note_program` is a
    /// no-op.
    pub fn tracks_programs(&self) -> bool {
        self.drift.is_some() || self.noise.is_some() || self.wear.is_some()
    }

    /// Whether an array read disturbs the cells: its word-line counts can
    /// change what the next read sees.
    pub fn reads_disturb(&self) -> bool {
        self.drift
            .as_ref()
            .is_some_and(|d| d.model().disturb_per_level > 0)
    }

    /// Books one array read's disturb: `slot_reads[r]` spike slots drove
    /// word line `r`.
    pub fn note_read(&mut self, slot_reads: impl Iterator<Item = u64>) {
        if let Some(d) = self.drift.as_mut() {
            for (r, slots) in slot_reads.enumerate() {
                d.note_row_reads(r, slots);
            }
        }
    }

    /// Books a write that physically moved `(row, col)` with `pulses > 0`
    /// pulses: its drift clock and device deviate restart, and the pulses
    /// count against its wear budget.
    pub fn note_program(&mut self, row: usize, col: usize, pulses: u64) {
        if let Some(d) = self.drift.as_mut() {
            d.note_program(row, col);
        }
        if let Some(n) = self.noise.as_mut() {
            n.note_program(row, col);
        }
        self.note_wear(row, col, pulses);
    }

    /// Books `pulses` programming pulses of wear on `(row, col)`; if that
    /// crosses the cell's budget, the cell dies on the spot — a live
    /// [`FaultKind::Dead`] entry every later read and write sees.
    pub fn note_wear(&mut self, row: usize, col: usize, pulses: u64) {
        let Some(w) = self.wear.as_mut() else {
            return;
        };
        if w.note_pulses(row, col, pulses) {
            let (rows, cols) = (self.rows, self.cols);
            self.faults
                .get_or_insert_with(|| FaultMap::pristine(rows, cols))
                .set(row, col, FaultKind::Dead);
        }
    }

    /// Advances the drift clock by `cycles` (no-op without drift).
    pub fn advance(&mut self, cycles: u64) {
        if let Some(d) = self.drift.as_mut() {
            d.advance(cycles);
        }
    }

    /// Clears every fault in bit line `col`.
    pub fn clear_fault_col(&mut self, col: usize) {
        if let Some(f) = self.faults.as_mut() {
            f.clear_col(col);
        }
    }

    /// Swaps bit line `col` onto fresh spare cells: its faults clear and,
    /// under wear, its cells draw fresh budgets.
    pub fn renew_col(&mut self, col: usize) {
        self.clear_fault_col(col);
        if let Some(w) = self.wear.as_mut() {
            w.renew_col(col);
        }
    }

    /// The smallest remaining write budget across word line `row` —
    /// `u64::MAX` without wear.
    pub fn row_wear_headroom(&self, row: usize) -> u64 {
        self.wear
            .as_ref()
            .map_or(u64::MAX, |w| w.row_min_remaining(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_components_allocate_no_state() {
        let mut stack = DeviceStack::ideal(3, 2);
        stack.attach(&DeviceModel::ideal(), 9);
        assert!(stack.is_transparent());
        assert!(stack.wear().is_none());
        assert!(!stack.reads_disturb());
        for stored in 0..=15 {
            assert_eq!(stack.resolve(2, 1, stored, 15, 0), stored);
            assert_eq!(stack.stage(2, 1, stored, 15), StagedRead::Fixed(stored));
        }
    }

    #[test]
    fn components_attach_one_at_a_time() {
        let mut stack = DeviceStack::ideal(4, 4);
        stack.attach(
            &DeviceModel::ideal().with_wear(WearModel::with_endurance(8.0)),
            1,
        );
        stack.attach(
            &DeviceModel::ideal().with_noise(NoiseModel::with_strength(1.0)),
            2,
        );
        assert!(stack.wear().is_some(), "a later attach keeps earlier parts");
        assert!(stack.noise().is_some());
        assert!(!stack.reads_disturb(), "read noise moves no device state");
    }
}
