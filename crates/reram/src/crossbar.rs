//! A single ReRAM crossbar array performing in-situ matrix–vector
//! multiplication through the spike/integrate-and-fire path.

// This module owns the raw cell/word/slot storage: an index into it is a
// checked site, so `get` or an accessor with stated bounds is the default.
#![cfg_attr(not(test), warn(clippy::indexing_slicing))]

use crate::cell;
use crate::device::{DeviceModel, DeviceStack};
use crate::drift::DriftState;
use crate::fault::{FaultMap, ProgramReport, UnrecoverableCell, VerifyPolicy};
use crate::integrate_fire::IntegrateFire;
use crate::multiversion::multiversion;
use crate::noise::{NoiseState, StagedRead};
use crate::spike::{SpikeDriver, SpikeTrain};
use crate::wear::WearState;
use rand::Rng;
use stamped::Stamped;
use std::borrow::Cow;
use std::ops::{AddAssign, Mul};

/// Everything a read resolves: the cells' stored levels and the device
/// stack between them and the bit lines.
#[derive(Debug, Clone)]
struct Array {
    cells: Vec<u8>, // stored levels, row-major
    device: DeviceStack,
}

mod stamped {
    /// A value stamped with a generation that every mutable borrow bumps.
    /// The fields are private to this module, so [`get_mut`] is the only
    /// `&mut` path to the value: a cache keyed on the generation it was
    /// built at can never be served after a change.
    ///
    /// [`get_mut`]: Stamped::get_mut
    #[derive(Debug, Clone)]
    pub(super) struct Stamped<T> {
        value: T,
        generation: u64,
    }

    impl<T> Stamped<T> {
        pub(super) fn new(value: T) -> Self {
            Stamped {
                value,
                generation: 0,
            }
        }

        pub(super) fn generation(&self) -> u64 {
            self.generation
        }

        pub(super) fn get_mut(&mut self) -> &mut T {
            self.generation += 1;
            &mut self.value
        }
    }

    impl<T> std::ops::Deref for Stamped<T> {
        type Target = T;

        fn deref(&self) -> &T {
            &self.value
        }
    }
}

/// A `rows × cols` crossbar of multi-level cells.
///
/// Word lines carry the (spike-coded) input vector; each bit line sums the
/// currents of its column's cells, so column `c` computes
/// `Σ_r input[r] · level[r][c]` exactly — verified against plain integer
/// arithmetic by property tests.
///
/// The struct also counts input/output/programming spikes, the quantities
/// the energy model (Sec. 6.2 constants) is built on.
#[derive(Debug, Clone)]
pub struct Crossbar {
    rows: usize,
    cols: usize,
    bits: u8,
    array: Stamped<Array>,
    /// The read-invariant stage of every read at the stamped generation
    /// of `array`; served again only while that generation is current.
    /// Transparent arrays never fill it: they read their stored levels in
    /// place.
    read_cache: Option<ReadStage>,
    /// Array reads since the noise component was attached: the read-noise
    /// epoch. It lives outside `array`, so a read that only advances it
    /// leaves the generation, and with it the read cache, alone.
    read_epoch: u64,
    read_spikes: u64,
    write_spikes: u64,
    output_spikes: u64,
}

impl Crossbar {
    /// Creates an all-zero (high-resistance) crossbar of `bits`-bit cells.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero, or `bits` is outside `1..=8`.
    #[expect(clippy::disallowed_macros, reason = "caller bug: bad geometry")]
    pub fn new(rows: usize, cols: usize, bits: u8) -> Self {
        assert!(
            rows > 0 && cols > 0 && (1..=8).contains(&bits),
            "crossbar must be non-empty with 1..=8 bits per cell \
             (got {rows}x{cols}, {bits} bits)"
        );
        Crossbar {
            rows,
            cols,
            bits,
            array: Stamped::new(Array {
                cells: vec![0; rows * cols],
                device: DeviceStack::ideal(rows, cols),
            }),
            read_cache: None,
            read_epoch: 0,
            read_spikes: 0,
            write_spikes: 0,
            output_spikes: 0,
        }
    }

    /// Attaches every non-ideal component of `model`, replacing that
    /// component's state; ideal components are exact no-ops and leave the
    /// current state alone. A new noise component starts at read epoch 0.
    /// `seed` should already be crossbar-qualified via
    /// [`crate::seedstream::crossbar_seed`].
    pub fn attach(&mut self, model: &DeviceModel, seed: u64) {
        self.array.get_mut().device.attach(model, seed);
        if !model.noise.is_ideal() {
            self.read_epoch = 0;
            // The new noise state restarts every device epoch at 0, so no
            // memoized stage keyed on the old epochs may be served.
            self.read_cache = None;
        }
    }

    /// Replaces the fault map wholesale (a pristine map for "no faults");
    /// faulty cells present their stuck level on every read from then on.
    /// Returns `false` (untouched) on a geometry mismatch.
    pub fn set_faults(&mut self, map: FaultMap) -> bool {
        self.array.get_mut().device.set_faults(map)
    }

    /// The fault map, if faults were attached or a cell has worn out.
    pub fn fault_map(&self) -> Option<&FaultMap> {
        self.array.device.faults()
    }

    /// The attached drift state, if any.
    pub fn drift_state(&self) -> Option<&DriftState> {
        self.array.device.drift()
    }

    /// The attached noise state, if any.
    pub fn noise_state(&self) -> Option<&NoiseState> {
        self.array.device.noise()
    }

    /// The attached wear state, if any.
    pub fn wear_state(&self) -> Option<&WearState> {
        self.array.device.wear()
    }

    /// Restores wear counters exported by [`WearState::counters`]; budgets
    /// re-derive from the attached model and seed. Returns `false` when no
    /// wear is attached or the geometry mismatches. Checkpoint restore
    /// only — issues no pulses.
    pub fn restore_wear_counters(&mut self, pulses: &[u64], generation: &[u64]) -> bool {
        self.array
            .get_mut()
            .device
            .restore_wear_counters(pulses, generation)
    }

    /// Advances the degradation clock by `cycles` logical pipeline cycles
    /// (one processed image = one cycle). No-op without drift.
    pub fn advance_cycles(&mut self, cycles: u64) {
        if self.array.device.drift().is_some() {
            self.array.get_mut().device.advance(cycles);
        }
    }

    /// Cells whose read currently deviates from their programmed level
    /// because of drift or disturb (fault-pinned cells are not counted —
    /// scrub cannot help them).
    pub fn drifted_cells(&self) -> usize {
        let (a, max) = (&*self.array, self.max_level());
        let Some(d) = a.device.drift() else {
            return 0;
        };
        let mut drifted = 0;
        for (r, row) in a.cells.chunks_exact(self.cols).enumerate() {
            for (c, &stored) in row.iter().enumerate() {
                if a.device.fault(r, c).is_none() && d.is_degraded(r, c, stored, max) {
                    drifted += 1;
                }
            }
        }
        drifted
    }

    /// Clears every fault in bit line `col` — the crossbar-level view of a
    /// spare-column remap (the logical column now lives on a fault-free
    /// spare bit line).
    pub fn clear_fault_col(&mut self, col: usize) {
        if self.array.device.faults().is_some() {
            self.array.get_mut().device.clear_fault_col(col);
        }
    }

    /// Remaps bit line `col` onto a fresh spare bit line at honest device
    /// cost: the spare's cells start at level 0 (and, under wear, draw
    /// fresh budgets from their own generation's stream), every fault on
    /// the logical column clears, and the displaced column's intent levels
    /// are driven into the spare through the full program-and-verify loop —
    /// so the returned report carries the real pulse/verify-read bill the
    /// energy, timing and endurance accounting must pay. `ideal_pulses` is
    /// the tuning distance from a pristine spare.
    ///
    /// An out-of-range `col` is a no-op returning an empty report.
    pub fn reprogram_col_from_spare(
        &mut self,
        col: usize,
        policy: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> ProgramReport {
        let mut report = ProgramReport::default();
        if col >= self.cols {
            return report;
        }
        let (rows, cols, max) = (self.rows, self.cols, self.max_level());
        let a = self.array.get_mut();
        a.device.renew_col(col);
        for r in 0..rows {
            let Some(cell) = a.cells.get_mut(r * cols + col) else {
                continue;
            };
            // Intent levels survive in the cells even when a fault pinned
            // the physical reads (program paths keep tracking the target).
            let target = *cell;
            *cell = 0;
            report.ideal_pulses += u64::from(target);
            let w = cell::program_verify(cell, target, max, policy, rng);
            report.pulses += u64::from(w.pulses);
            report.verify_reads += u64::from(w.attempts);
            if !w.verified {
                report.unrecoverable.push(UnrecoverableCell {
                    row: r,
                    col,
                    target,
                    actual: *cell,
                });
            }
            if w.pulses > 0 {
                // The spare itself wears; an unlucky budget draw can die
                // during its very first reprogram and re-enter the ladder.
                a.device.note_program(r, col, u64::from(w.pulses));
            }
        }
        self.write_spikes += report.pulses;
        self.read_spikes += report.verify_reads;
        report
    }

    /// The smallest remaining write budget across word line `row` —
    /// `u64::MAX` without wear. The wear-leveling scrub scheduler skips
    /// rows whose headroom is below its threshold instead of burning their
    /// last pulses on maintenance writes.
    pub fn row_wear_headroom(&self, row: usize) -> u64 {
        self.array.device.row_wear_headroom(row)
    }

    /// Row-major stored (intent) levels — what a checkpoint persists.
    pub fn stored_levels(&self) -> Vec<u8> {
        self.array.cells.clone()
    }

    /// Overwrites the stored levels in place. Checkpoint restore only: no
    /// programming pulses are issued and no wear/drift/noise bookkeeping
    /// runs. Returns `false` (untouched) on a geometry mismatch; over-range
    /// levels clamp to the cell's top level.
    pub fn restore_levels(&mut self, levels: &[u8]) -> bool {
        if levels.len() != self.rows * self.cols {
            return false;
        }
        let max = self.max_level();
        for (cell, &lvl) in self.array.get_mut().cells.iter_mut().zip(levels) {
            *cell = lvl.min(max);
        }
        true
    }

    /// The spike counters `(read, write, output)` as one tuple, for
    /// checkpoint persistence.
    pub fn spike_counters(&self) -> (u64, u64, u64) {
        (self.read_spikes, self.write_spikes, self.output_spikes)
    }

    /// Restores spike counters saved by [`spike_counters`]
    /// (checkpoint restore only).
    ///
    /// [`spike_counters`]: Self::spike_counters
    pub fn restore_spike_counters(&mut self, read: u64, write: u64, output: u64) {
        self.read_spikes = read;
        self.write_spikes = write;
        self.output_spikes = output;
    }

    /// Word-line count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bit-line count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cell resolution in bits.
    pub fn cell_bits(&self) -> u8 {
        self.bits
    }

    fn max_level(&self) -> u8 {
        cell::max_level(self.bits)
    }

    /// The row-major storage index of cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows` or `col >= cols`: a column past the last
    /// would otherwise name the next row's cell.
    #[expect(clippy::disallowed_macros, reason = "caller bug: cell outside array")]
    fn cell_index(&self, row: usize, col: usize) -> usize {
        assert!(
            row < self.rows && col < self.cols,
            "cell ({row}, {col}) outside the {}x{} array",
            self.rows,
            self.cols
        );
        row * self.cols + col
    }

    /// Level the programming logic last stored at `(row, col)` (what the
    /// write *wanted*; faults are not applied).
    ///
    /// # Panics
    ///
    /// Panics if `(row, col)` lies outside the array.
    #[expect(clippy::indexing_slicing, reason = "cell_index bounds the cell")]
    pub fn level(&self, row: usize, col: usize) -> u8 {
        self.array.cells[self.cell_index(row, col)]
    }

    /// Level the cell at `(row, col)` actually presents on the next read:
    /// the stored level as resolved through the device stack — a fault
    /// pins it, otherwise drift and disturb skew it, and noise applies on
    /// top.
    ///
    /// # Panics
    ///
    /// Panics if `(row, col)` lies outside the array.
    #[expect(clippy::indexing_slicing, reason = "cell_index bounds the cell")]
    pub fn effective_level(&self, row: usize, col: usize) -> u8 {
        let stored = self.array.cells[self.cell_index(row, col)];
        self.array
            .device
            .resolve(row, col, stored, self.max_level(), self.read_epoch)
    }

    /// Every cell's [`effective_level`](Self::effective_level), row-major,
    /// through the staged read path: the stored levels in place on a
    /// transparent array; otherwise the read stage (the cached one while
    /// the array's generation is unchanged, else a fresh one that reuses
    /// a copy of the cached per-cell memo) with read noise drawn for its
    /// undecided cells.
    pub(crate) fn effective_levels(&self) -> Cow<'_, [u8]> {
        let a = &*self.array;
        if a.device.is_transparent() {
            return Cow::Borrowed(&a.cells);
        }
        let (cols, max, epoch) = (self.cols, self.max_level(), self.read_epoch);
        let generation = self.array.generation();
        match &self.read_cache {
            Some(stage) if stage.generation == generation => {
                if stage.undecided.is_empty() {
                    Cow::Borrowed(&stage.levels)
                } else {
                    Cow::Owned(stage.levels_at(&a.device, cols, max, epoch))
                }
            }
            stale => {
                let mut stage = ReadStage {
                    memo: stale.as_ref().map_or_else(Vec::new, |s| s.memo.clone()),
                    ..ReadStage::default()
                };
                stage.restage(a, generation, cols, max);
                Cow::Owned(stage.levels_at(&a.device, cols, max, epoch))
            }
        }
    }

    /// Programs the whole array from a row-major `rows × cols` level
    /// buffer; counts the tuning pulses as write spikes. Returns the pulse
    /// count. Over-range levels saturate at the cell's top level.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != rows × cols`.
    pub fn program(&mut self, levels: &[u8]) -> u64 {
        assert_eq!(
            levels.len(),
            self.rows * self.cols,
            "level buffer size mismatch"
        );
        self.program_from(levels.iter().copied())
    }

    /// Programs the whole array with one bit group of a signed-level
    /// buffer — one member crossbar's share of a
    /// [`ReramMatrix`](crate::ReramMatrix) write: cell `k` stores
    /// [`signed_level`]`(q[k], shift, sign, max_level)`. Counts the pulses
    /// as write spikes and returns them.
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != rows × cols`.
    pub(crate) fn program_signed(&mut self, q: &[i32], shift: u32, sign: i32) -> u64 {
        assert_eq!(q.len(), self.rows * self.cols, "level buffer size mismatch");
        let max = self.max_level();
        self.program_from(q.iter().map(|&q| signed_level(q, shift, sign, max)))
    }

    /// Programs every member crossbar of a signed matrix in one pass over
    /// `q`: `members` holds its (positive, negative) pair per bit group,
    /// least-significant group first, and each member ends as its own
    /// [`program_signed`](Self::program_signed) call would leave it — the
    /// same levels, pulses and generation step. Returns `false`, with
    /// nothing written, where some member's device tracks programs: those
    /// book their pulses cell by cell.
    ///
    /// # Panics
    ///
    /// Panics if a member's cell count or cell width differs from `q.len()`
    /// or from the first member's.
    pub(crate) fn program_signed_pairs(members: &mut [(Crossbar, Crossbar)], q: &[i32]) -> bool {
        let Some((first, _)) = members.first() else {
            return true;
        };
        let bits = first.bits;
        for x in members.iter().flat_map(|(p, n)| [p, n]) {
            if x.array.device.tracks_programs() {
                return false;
            }
            assert_eq!(
                (q.len(), x.bits),
                (x.rows * x.cols, bits),
                "level buffer size mismatch"
            );
        }
        let mut cells: Vec<&mut [u8]> = members
            .iter_mut()
            .flat_map(|(p, n)| [p, n])
            .map(|x| x.array.get_mut().cells.as_mut_slice())
            .collect();
        let mut pulses = vec![0; cells.len()];
        program_pairs::run(&mut cells, q, bits, &mut pulses);
        for (x, p) in members.iter_mut().flat_map(|(p, n)| [p, n]).zip(pulses) {
            x.write_spikes += p;
        }
        true
    }

    /// Stores `targets` (row-major, one per cell, saturating at the top
    /// level) and books the tuning pulses as write spikes. An array whose
    /// device tracks programs books every cell that moved.
    fn program_from(&mut self, mut targets: impl Iterator<Item = u8>) -> u64 {
        let (cols, max) = (self.cols, self.max_level());
        let a = self.array.get_mut();
        let pulses = if a.device.tracks_programs() {
            let mut pulses = 0u64;
            for (r, row) in a.cells.chunks_exact_mut(cols).enumerate() {
                for (c, (cell, target)) in row.iter_mut().zip(targets.by_ref()).enumerate() {
                    let p = u64::from(cell::program(cell, target, max));
                    if p > 0 {
                        // A zero-pulse write leaves the physical cell
                        // untouched, so its degradation clock keeps running
                        // and its device deviate stays.
                        a.device.note_program(r, c, p);
                    }
                    pulses += p;
                }
            }
            pulses
        } else {
            // Nothing to book per cell: one branch-free pass.
            let cells = a.cells.iter_mut().zip(targets);
            cells
                .map(|(c, t)| u64::from(cell::program(c, t, max)))
                .sum()
        };
        self.write_spikes += pulses;
        pulses
    }

    /// Programs the whole array through the program-and-verify loop: every
    /// cell is pulsed, read back and retried within `policy.max_attempts`;
    /// cells a fault pins (or noise never lands) are reported
    /// unrecoverable with the level they actually present.
    ///
    /// Pulses (including retries) are counted as write spikes and verify
    /// reads as read spikes, so the energy accounting sees the real cost.
    /// Over-range levels saturate at the cell's top level.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != rows × cols`.
    pub fn program_verify(
        &mut self,
        levels: &[u8],
        policy: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> ProgramReport {
        assert_eq!(
            levels.len(),
            self.rows * self.cols,
            "level buffer size mismatch"
        );
        self.program_verify_from(levels.iter().copied(), policy, rng)
    }

    /// [`program_verify`](Self::program_verify) with the targets of
    /// [`program_signed`](Self::program_signed): the verified share of a
    /// [`ReramMatrix`](crate::ReramMatrix) write.
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != rows × cols`.
    pub(crate) fn program_verify_signed(
        &mut self,
        q: &[i32],
        shift: u32,
        sign: i32,
        policy: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> ProgramReport {
        assert_eq!(q.len(), self.rows * self.cols, "level buffer size mismatch");
        let max = self.max_level();
        let targets = q.iter().map(|&q| signed_level(q, shift, sign, max));
        self.program_verify_from(targets, policy, rng)
    }

    /// The program-and-verify loop over `targets`, row-major, one per cell.
    fn program_verify_from(
        &mut self,
        mut targets: impl Iterator<Item = u8>,
        policy: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> ProgramReport {
        let (cols, max) = (self.cols, self.max_level());
        let a = self.array.get_mut();
        let mut report = ProgramReport::default();
        for (r, row) in a.cells.chunks_exact_mut(cols).enumerate() {
            for (c, (cell, target)) in row.iter_mut().zip(targets.by_ref()).enumerate() {
                report.ideal_pulses += u64::from(cell.abs_diff(target));
                match a.device.fault(r, c) {
                    Some(kind) => {
                        // The driver pulses and verifies up to the budget,
                        // but the cell never moves.
                        let actual = kind.effective_level(max);
                        let wasted = if actual == target {
                            // Fault happens to pin the cell at the target:
                            // first verify passes, no pulses needed.
                            report.verify_reads += 1;
                            0
                        } else {
                            report.verify_reads += policy.max_attempts as u64;
                            report.unrecoverable.push(UnrecoverableCell {
                                row: r,
                                col: c,
                                target,
                                actual,
                            });
                            policy.max_attempts as u64
                        };
                        report.pulses += wasted;
                        // Track the intent so a later repair + rewrite
                        // starts from the right place.
                        cell::program(cell, target, max);
                        // The wasted retry pulses still stress the pinned
                        // cell's oxide.
                        a.device.note_wear(r, c, wasted);
                    }
                    None => {
                        let w = cell::program_verify(cell, target, max, policy, rng);
                        report.pulses += u64::from(w.pulses);
                        report.verify_reads += u64::from(w.attempts);
                        if !w.verified {
                            report.unrecoverable.push(UnrecoverableCell {
                                row: r,
                                col: c,
                                target,
                                actual: *cell,
                            });
                        }
                        if w.pulses > 0 {
                            // Every pulse (including verify retries) wears
                            // the cell; a budget crossing kills it for all
                            // *subsequent* accesses — this write's charge
                            // already landed.
                            a.device.note_program(r, c, u64::from(w.pulses));
                        }
                    }
                }
            }
        }
        self.write_spikes += report.pulses;
        self.read_spikes += report.verify_reads;
        report
    }

    /// Books one array read: its disturb on the device when reads disturb
    /// the cells, and the next read-noise epoch. Without disturb the array
    /// — and so its generation and read cache — stays untouched.
    fn note_read(&mut self, slot_reads: impl Iterator<Item = u64>) {
        if self.array.device.reads_disturb() {
            self.array.get_mut().device.note_read(slot_reads);
        }
        self.read_epoch = self.read_epoch.wrapping_add(1);
    }

    /// In-situ MVM via the spike path: encodes `input` with an `input_bits`
    /// spike driver, streams the slots through the array, integrates the
    /// weighted bitline currents and fires. Returns the exact products
    /// `out[c] = Σ_r input[r]·level[r][c]`.
    ///
    /// The integrate-and-fire counter *is* the digitised dot product, so
    /// the hot path computes it as an integer GEMM over the effective
    /// levels — bitwise identical to the slot-by-slot walk of
    /// [`mvm_spiked_scalar`] (differentially tested), including the spike
    /// counters and disturb/noise-epoch bookkeeping.
    ///
    /// A driver resolution above 32 clamps to 32 slots, exactly like the
    /// scalar path's [`SpikeDriver`].
    ///
    /// A value exceeding `input_bits` injects only its low `input_bits`
    /// bits, exactly like the driver.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != rows`.
    ///
    /// [`mvm_spiked_scalar`]: Self::mvm_spiked_scalar
    pub fn mvm_spiked(&mut self, input: &[u32], input_bits: u8) -> Vec<u64> {
        assert_eq!(input.len(), self.rows, "input length must equal row count");
        self.mvm_spiked_batch(input, input_bits)
    }

    /// [`mvm_spiked`](Self::mvm_spiked) over a batch: `inputs` holds whole
    /// `rows`-long input vectors back to back, and the result their
    /// `cols`-long outputs in the same order. Outputs, spike counters and
    /// device state are exactly those of one `mvm_spiked` call per input,
    /// in order. Without read disturb, one walk over the read stage's
    /// levels serves the whole batch, and each read adds the cells its
    /// read-noise draw decides; under disturb each read restages the
    /// levels afresh.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not a multiple of `rows`.
    pub fn mvm_spiked_batch(&mut self, inputs: &[u32], input_bits: u8) -> Vec<u64> {
        assert_eq!(
            inputs.len() % self.rows,
            0,
            "input length must be a multiple of the row count"
        );
        let mask = drive_mask(input_bits);
        if self.array.device.reads_disturb() {
            let rows = self.rows;
            return inputs
                .chunks_exact(rows)
                .flat_map(|x| self.integrate_reads(x, mask))
                .collect();
        }
        self.integrate_reads(inputs, mask)
    }

    /// Integrates `inputs` (whole input vectors, driven with their low
    /// `mask` bits) against the levels the array presents to them — input
    /// `s` at read epoch `read_epoch + s` — then books each input's spikes
    /// and array read in order. The caller guarantees that no read of the
    /// batch but the last disturbs the cells.
    fn integrate_reads(&mut self, inputs: &[u32], mask: u32) -> Vec<u64> {
        if inputs.is_empty() {
            return Vec::new();
        }
        let (rows, cols, max) = (self.rows, self.cols, self.max_level());
        // Reads see the *effective* levels, staged once before streaming:
        // disturb and the read-epoch bump land afterwards, so within one
        // read every slot integrates the same conductances.
        let stage = current_stage(&self.array, &mut self.read_cache, cols, max);
        let levels = stage.map_or(self.array.cells.as_slice(), |s| s.levels.as_slice());
        let mut out = if fits_u32(rows, mask, max) {
            integrate_u32::run(levels, rows, cols, inputs, mask)
        } else {
            integrate::<u64>(levels, rows, cols, inputs, mask)
        };
        if let (Some(stage), Some(noise)) = (stage, self.array.device.noise()) {
            let batch = inputs.chunks_exact(rows).zip(out.chunks_exact_mut(cols));
            for (s, (x, out)) in batch.enumerate() {
                let epoch = self.read_epoch.wrapping_add(s as u64);
                stage.add_noisy_cells(noise, x, mask, cols, max, epoch, out);
            }
        }
        // Read spikes are the fired slots, output spikes the counter totals.
        let read_spikes = inputs
            .iter()
            .map(|&v| u64::from((v & mask).count_ones()))
            .sum();
        self.book_reads(inputs, mask, read_spikes, out.iter().sum());
        out
    }

    /// Books the reads of `inputs` (whole input vectors, driven with their
    /// low `mask` bits) as [`integrate_reads`](Self::integrate_reads) books
    /// them, given the slots they fire and the output spikes their
    /// integrate-and-fire counts total: both counters, then one
    /// [`note_read`](Self::note_read) per input, in order. A
    /// [`ReramMatrix`](crate::ReramMatrix) that computes its members'
    /// products in one composite GEMM books each member's reads here.
    pub(crate) fn book_reads(
        &mut self,
        inputs: &[u32],
        mask: u32,
        read_spikes: u64,
        output_spikes: u64,
    ) {
        self.read_spikes += read_spikes;
        self.output_spikes += output_spikes;
        for x in inputs.chunks_exact(self.rows) {
            // Every slot that drove a word line disturbed that row's cells.
            self.note_read(x.iter().map(|&v| u64::from((v & mask).count_ones())));
        }
    }

    /// Whether every read presents the stored levels unchanged (see
    /// [`DeviceStack::is_transparent`]).
    pub(crate) fn is_transparent(&self) -> bool {
        self.array.device.is_transparent()
    }

    /// Whether what a read presents can differ from read to read: a
    /// read-noise draw, or read disturb moving the cells.
    pub(crate) fn reads_vary(&self) -> bool {
        self.array.device.noise().is_some() || self.array.device.reads_disturb()
    }

    /// The generation of the array: it moves with every change to the
    /// stored levels or the device state.
    pub(crate) fn generation(&self) -> u64 {
        self.array.generation()
    }

    /// The row-major levels every read presents while reads do not vary
    /// (see [`reads_vary`](Self::reads_vary)): the stored levels of a
    /// transparent array, else the read stage's, restaged if stale.
    pub(crate) fn presented_levels(&mut self) -> &[u8] {
        let (cols, max) = (self.cols, self.max_level());
        match current_stage(&self.array, &mut self.read_cache, cols, max) {
            Some(stage) => &stage.levels,
            None => &self.array.cells,
        }
    }

    /// The original scalar slot × row × column walk, retained verbatim as
    /// the spec and differential-testing reference for [`mvm_spiked`]
    /// (identical output bits, spike accounting, disturb and noise-epoch
    /// bookkeeping — property-tested). It resolves every cell in full and
    /// never touches the read cache.
    ///
    /// [`mvm_spiked`]: Self::mvm_spiked
    #[expect(clippy::indexing_slicing, reason = "base + c < rows·cols = len")]
    pub fn mvm_spiked_scalar(&mut self, input: &[u32], input_bits: u8) -> Vec<u64> {
        assert_eq!(input.len(), self.rows, "input length must equal row count");
        let driver = SpikeDriver::new(input_bits);
        let trains: Vec<SpikeTrain> = driver.encode_vector(input);
        self.read_spikes += trains.iter().map(|t| t.spike_count() as u64).sum::<u64>();

        let levels: Vec<u8> = (0..self.rows * self.cols)
            .map(|i| self.effective_level(i / self.cols, i % self.cols))
            .collect();

        let mut fires: Vec<IntegrateFire> = vec![IntegrateFire::new(); self.cols];
        // Stream time slots (LSB first); within a slot all word lines drive
        // their bitlines simultaneously — the analog accumulation. The loop
        // is clamped to the driver's resolution: slots the clamped driver
        // never generates inject nothing.
        for slot in 0..driver.bits() as usize {
            let w = SpikeTrain::slot_weight(slot);
            for (r, train) in trains.iter().enumerate() {
                if !train.fires(slot) {
                    continue;
                }
                let base = r * self.cols;
                for (c, inf) in fires.iter_mut().enumerate() {
                    let g = levels[base + c] as u64;
                    if g != 0 {
                        inf.integrate(g * w);
                    }
                }
            }
        }
        let out: Vec<u64> = fires.iter_mut().map(|f| f.fire()).collect();
        self.output_spikes += out.iter().sum::<u64>();
        self.note_read(trains.iter().map(|t| t.spike_count() as u64));
        out
    }

    /// Scrubs `row_count` word lines starting at `row_start` (wrapping
    /// around the array): each healthy cell is read back and, if drift or
    /// disturb moved it off its programmed level, re-programmed to that
    /// level through the program-and-verify loop. Fault-pinned cells cost
    /// one verify read and are skipped — scrub cannot recover them and
    /// they were already reported at commissioning.
    ///
    /// Verify reads and re-programming pulses are counted exactly like
    /// write-path costs, so the energy/endurance accounting sees scrub
    /// wear. Cells that actually received pulses restart their
    /// degradation clock.
    pub fn scrub_rows(
        &mut self,
        row_start: usize,
        row_count: usize,
        policy: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> ProgramReport {
        let (rows, cols, max) = (self.rows, self.cols, self.max_level());
        let epoch = self.read_epoch;
        let a = self.array.get_mut();
        let mut report = ProgramReport::default();
        for i in 0..row_count.min(rows) {
            let r = (row_start + i) % rows;
            let Some(row) = a.cells.get_mut(r * cols..(r + 1) * cols) else {
                continue;
            };
            for (c, cell) in row.iter_mut().enumerate() {
                if a.device.fault(r, c).is_some() {
                    report.verify_reads += 1;
                    continue;
                }
                let target = *cell;
                let actual = a.device.resolve(r, c, target, max, epoch);
                // Materialize the degradation in the cell, then drive it
                // back through the standard verify loop. A clean cell
                // costs exactly one verify read and zero pulses.
                let _ = cell::program(cell, actual, max);
                let w = cell::program_verify(cell, target, max, policy, rng);
                report.ideal_pulses +=
                    u64::from((i32::from(actual) - i32::from(target)).unsigned_abs());
                report.pulses += u64::from(w.pulses);
                report.verify_reads += u64::from(w.attempts);
                if !w.verified {
                    report.unrecoverable.push(UnrecoverableCell {
                        row: r,
                        col: c,
                        target,
                        actual: *cell,
                    });
                }
                if w.pulses > 0 {
                    // Scrub re-pulses wear cells out like any other write.
                    a.device.note_program(r, c, u64::from(w.pulses));
                }
            }
        }
        self.write_spikes += report.pulses;
        self.read_spikes += report.verify_reads;
        report
    }

    /// Input spikes consumed so far.
    pub fn read_spikes(&self) -> u64 {
        self.read_spikes
    }

    /// Programming pulses issued so far.
    pub fn write_spikes(&self) -> u64 {
        self.write_spikes
    }

    /// Output spikes fired so far.
    pub fn output_spikes(&self) -> u64 {
        self.output_spikes
    }
}

/// The read-invariant stage of a non-transparent array's reads: every
/// cell resolved through its device stack up to the read-noise draw, at
/// one generation of the array. A cell the draw cannot move (no read
/// noise, or the same level at both ends of
/// [`GAUSS_BOUND`](crate::seedstream::GAUSS_BOUND)) keeps its level here;
/// only the rest draw per read.
#[derive(Debug, Clone, Default)]
struct ReadStage {
    generation: u64,
    /// Row-major levels every read presents; 0 at undecided cells.
    levels: Vec<u8>,
    /// The cells whose level the read-noise draw decides, row-major.
    undecided: Vec<Undecided>,
    /// Under a noise state, each cell's noise stage with the key it was
    /// staged at, row-major: a restage reruns [`NoiseState::stage`] only
    /// where the key moved. Empty before the first restage with noise;
    /// dropped with the whole stage when the noise state is replaced.
    memo: Vec<StagedCell>,
}

/// One cell's [`NoiseState::stage`], keyed on everything of the cell it
/// reads: the cell's device epoch and its fault/drift-resolved base level.
/// Its position and the noise state are fixed for the memo's lifetime.
#[derive(Debug, Clone, Copy)]
struct StagedCell {
    epoch: u64,
    /// Read-invariant conductance; unused where `lo == hi`.
    g: f64,
    base: u8,
    /// The levels the read-noise draw can reach, `lo..=hi`.
    lo: u8,
    hi: u8,
}

impl StagedCell {
    fn new(epoch: u64, base: u8, staged: StagedRead) -> Self {
        let (g, lo, hi) = match staged {
            StagedRead::Fixed(level) => (0.0, level, level),
            StagedRead::Noisy { g, lo, hi } => (g, lo, hi),
        };
        StagedCell {
            epoch,
            g,
            base,
            lo,
            hi,
        }
    }
}

/// A cell whose read level depends on the read-noise draw.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Undecided {
    /// Row-major cell index.
    cell: usize,
    /// Read-invariant conductance (device deviate and IR drop applied).
    g: f64,
}

impl ReadStage {
    /// Stages every cell of `array` (row-major, `cols` wide) at
    /// `generation`, reusing this stage's buffers and, under noise, the
    /// memoized noise stage of every cell whose key has not moved.
    fn restage(&mut self, array: &Array, generation: u64, cols: usize, max_level: u8) {
        self.generation = generation;
        self.levels.clear();
        self.undecided.clear();
        let (device, noise) = (&array.device, array.device.noise());
        for (r, row) in array.cells.chunks_exact(cols).enumerate() {
            for (c, &stored) in row.iter().enumerate() {
                let base = device.base_level(r, c, stored, max_level);
                let Some(noise) = noise else {
                    self.levels.push(base);
                    continue;
                };
                let (cell, epoch) = (r * cols + c, noise.device_epoch(r, c));
                let staged = match self.memo.get_mut(cell) {
                    Some(m) if m.epoch == epoch && m.base == base => *m,
                    slot => {
                        let m = StagedCell::new(epoch, base, noise.stage(r, c, base, max_level));
                        match slot {
                            Some(slot) => *slot = m,
                            None => self.memo.push(m),
                        }
                        m
                    }
                };
                // Every draw lands in `lo..=hi`: where they meet, none can
                // move the level.
                let level = if staged.lo == staged.hi {
                    staged.lo
                } else {
                    self.undecided.push(Undecided { cell, g: staged.g });
                    0
                };
                self.levels.push(level);
            }
        }
    }

    /// The levels the read at `read_epoch` presents: the staged levels
    /// with the undecided cells drawn through `device`'s noise.
    #[expect(clippy::indexing_slicing, reason = "noisy cells index this array")]
    fn levels_at(
        &self,
        device: &DeviceStack,
        cols: usize,
        max_level: u8,
        read_epoch: u64,
    ) -> Vec<u8> {
        let mut levels = self.levels.clone();
        if let Some(noise) = device.noise() {
            for u in &self.undecided {
                let (r, c) = (u.cell / cols, u.cell % cols);
                levels[u.cell] = noise.read_level(r, c, u.g, max_level, read_epoch);
            }
        }
        levels
    }

    /// Adds to `out` what the undecided cells contribute to the read at
    /// `read_epoch` of input `x` (driven with its low `mask` bits). Cells
    /// on undriven word lines contribute nothing and draw nothing.
    #[expect(clippy::too_many_arguments, reason = "the staged read's context")]
    #[expect(clippy::indexing_slicing, reason = "noisy cells lie in the array")]
    fn add_noisy_cells(
        &self,
        noise: &NoiseState,
        x: &[u32],
        mask: u32,
        cols: usize,
        max_level: u8,
        read_epoch: u64,
        out: &mut [u64],
    ) {
        for u in &self.undecided {
            let (r, c) = (u.cell / cols, u.cell % cols);
            let drive = x[r] & mask;
            if drive != 0 {
                let level = noise.read_level(r, c, u.g, max_level, read_epoch);
                out[c] += u64::from(drive) * u64::from(level);
            }
        }
    }
}

/// The read stage of `array` through `cache`, restaged in place when its
/// generation is stale; `None` on a transparent array, which reads its
/// stored levels in place.
fn current_stage<'a>(
    array: &Stamped<Array>,
    cache: &'a mut Option<ReadStage>,
    cols: usize,
    max_level: u8,
) -> Option<&'a ReadStage> {
    if array.device.is_transparent() {
        return None;
    }
    let generation = array.generation();
    if cache.as_ref().is_none_or(|s| s.generation != generation) {
        cache
            .get_or_insert_with(ReadStage::default)
            .restage(array, generation, cols, max_level);
    }
    cache.as_ref()
}

/// The bits of an input a driver of `input_bits` resolution injects: its
/// low `1..=32` bits, as [`SpikeDriver`] clamps the resolution.
pub(crate) fn drive_mask(input_bits: u8) -> u32 {
    let bits = SpikeDriver::new(input_bits).bits();
    if bits >= 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    }
}

/// Whether every bit-line charge of a `rows`-row array fits a `u32`: at
/// most `rows` inputs of `mask` against cells of `max_level` each, so
/// `rows·(2^bits−1)·(2^cell_bits−1) < 2^32` — the per-crossbar form of the
/// worst-case dot-product bound `check::absint` checks as PL042.
fn fits_u32(rows: usize, mask: u32, max_level: u8) -> bool {
    (rows as u128) * u128::from(mask) * u128::from(max_level) < 1 << 32
}

/// The integrate-and-fire counts of every input vector in `inputs` (back
/// to back, `rows` long, driven with their low `mask` bits) against the
/// row-major `levels`: `out[s·cols + c] = Σ_r input_s[r]·levels[r·cols + c]`.
/// One walk over `levels` serves the whole batch; word lines an input does
/// not drive are skipped. The charge accumulator `A` is `u32` where
/// [`fits_u32`] holds, else `u64`.
#[inline(always)]
fn integrate<A>(levels: &[u8], rows: usize, cols: usize, inputs: &[u32], mask: u32) -> Vec<u64>
where
    A: Copy + Default + AddAssign + Mul<Output = A> + From<u8> + From<u32> + Into<u64>,
{
    let mut acc = vec![A::default(); inputs.len() / rows * cols];
    for (r, row) in levels.chunks_exact(cols).enumerate() {
        let drives = inputs.iter().skip(r).step_by(rows);
        for (&x, acc) in drives.zip(acc.chunks_exact_mut(cols)) {
            let x = x & mask;
            if x == 0 {
                continue;
            }
            let x = A::from(x);
            for (a, &level) in acc.iter_mut().zip(row) {
                *a += x * A::from(level);
            }
        }
    }
    acc.into_iter().map(Into::into).collect()
}

multiversion! {
    /// [`integrate`] with `u32` charge accumulators.
    mod integrate_u32: fn(levels: &[u8], rows: usize, cols: usize, inputs: &[u32], mask: u32)
        -> Vec<u64> = integrate::<u32>;
}

/// The level one member crossbar of a signed matrix stores for the signed
/// level `q`: bit group `shift` of the positive part (`sign = 1`) or of the
/// negative part's magnitude (`sign = −1`), `(max(sign·q, 0) >> shift) &
/// max_level`. `q` lies within `±(2^31 − 1)`, so `sign·q` cannot overflow.
#[inline(always)]
fn signed_level(q: i32, shift: u32, sign: i32, max_level: u8) -> u8 {
    // The low byte holds every bit `max_level` (at most 8 bits) keeps.
    ((sign * q).max(0) >> shift).to_le_bytes()[0] & max_level
}

/// Cells per block of the paired program pass: every bit group reads a
/// block of `q` while it stays in the L1 cache, and a block's pulses, at
/// most 255 a cell, fit a `u32`.
const PAIR_BLOCK: usize = 4096;

/// The paired program pass of [`Crossbar::program_signed_pairs`]: member
/// `cells` (positive, negative interleaved, least-significant group
/// first, `cell_bits`-bit cells) store their [`signed_level`] of every
/// `q`, and each member's pulses, the summed level distances, add to
/// `pulses`.
#[inline(always)]
fn program_pairs_body(cells: &mut [&mut [u8]], q: &[i32], cell_bits: u8, pulses: &mut [u64]) {
    let max = cell::max_level(cell_bits);
    let mut members: Vec<_> = cells.iter_mut().map(|c| c.chunks_mut(PAIR_BLOCK)).collect();
    for q in q.chunks(PAIR_BLOCK) {
        let shifts = (0u32..).step_by(usize::from(cell_bits));
        let pairs = members.chunks_exact_mut(2).zip(pulses.chunks_exact_mut(2));
        for (shift, (pair, pair_pulses)) in shifts.zip(pairs) {
            let ([pos, neg], [pos_pulses, neg_pulses]) = (pair, pair_pulses) else {
                continue;
            };
            let (Some(pos), Some(neg)) = (pos.next(), neg.next()) else {
                continue;
            };
            let (mut pos_moved, mut neg_moved) = (0u32, 0u32);
            for ((p, n), &q) in pos.iter_mut().zip(neg.iter_mut()).zip(q) {
                let (tp, tn) = (
                    signed_level(q, shift, 1, max),
                    signed_level(q, shift, -1, max),
                );
                pos_moved += u32::from(p.abs_diff(tp));
                neg_moved += u32::from(n.abs_diff(tn));
                *p = tp;
                *n = tn;
            }
            *pos_pulses += u64::from(pos_moved);
            *neg_pulses += u64::from(neg_moved);
        }
    }
}

multiversion! {
    /// [`program_pairs_body`], multiversioned.
    mod program_pairs: fn(cells: &mut [&mut [u8]], q: &[i32], cell_bits: u8, pulses: &mut [u64])
        -> () = program_pairs_body;
}

#[cfg(test)]
impl Crossbar {
    /// The read-noise epoch: array reads booked since the noise component
    /// was attached.
    pub(crate) fn read_epoch(&self) -> u64 {
        self.read_epoch
    }

    /// The per-cell program loop the fused write replaced, kept as its
    /// oracle: [`program`](Self::program) as it read before the write
    /// went through `program_from`.
    pub(crate) fn program_oracle(&mut self, levels: &[u8]) -> u64 {
        assert_eq!(
            levels.len(),
            self.rows * self.cols,
            "level buffer size mismatch"
        );
        let (cols, max) = (self.cols, self.max_level());
        let a = self.array.get_mut();
        let mut pulses = 0u64;
        if !a.device.tracks_programs() {
            // Nothing to book per cell: one branch-free pass.
            for (cell, &lvl) in a.cells.iter_mut().zip(levels) {
                pulses += u64::from(cell::program(cell, lvl, max));
            }
            self.write_spikes += pulses;
            return pulses;
        }
        let rows = a
            .cells
            .chunks_exact_mut(cols)
            .zip(levels.chunks_exact(cols));
        for (r, (row, targets)) in rows.enumerate() {
            for (c, (cell, &lvl)) in row.iter_mut().zip(targets).enumerate() {
                let p = u64::from(cell::program(cell, lvl, max));
                if p > 0 {
                    // A zero-pulse write leaves the physical cell untouched,
                    // so its degradation clock keeps running and its device
                    // deviate stays.
                    a.device.note_program(r, c, p);
                }
                pulses += p;
            }
        }
        self.write_spikes += pulses;
        pulses
    }

    /// The program-and-verify loop the fused write replaced, kept as its
    /// oracle: [`program_verify`](Self::program_verify) as it read before
    /// the write went through `program_verify_from`.
    pub(crate) fn program_verify_oracle(
        &mut self,
        levels: &[u8],
        policy: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> ProgramReport {
        assert_eq!(
            levels.len(),
            self.rows * self.cols,
            "level buffer size mismatch"
        );
        let (cols, max) = (self.cols, self.max_level());
        let a = self.array.get_mut();
        let mut report = ProgramReport::default();
        let rows = a
            .cells
            .chunks_exact_mut(cols)
            .zip(levels.chunks_exact(cols));
        for (r, (row, targets)) in rows.enumerate() {
            for (c, (cell, &target)) in row.iter_mut().zip(targets).enumerate() {
                report.ideal_pulses += u64::from(cell.abs_diff(target));
                match a.device.fault(r, c) {
                    Some(kind) => {
                        // The driver pulses and verifies up to the budget,
                        // but the cell never moves.
                        let actual = kind.effective_level(max);
                        let wasted = if actual == target {
                            // Fault happens to pin the cell at the target:
                            // first verify passes, no pulses needed.
                            report.verify_reads += 1;
                            0
                        } else {
                            report.verify_reads += policy.max_attempts as u64;
                            report.unrecoverable.push(UnrecoverableCell {
                                row: r,
                                col: c,
                                target,
                                actual,
                            });
                            policy.max_attempts as u64
                        };
                        report.pulses += wasted;
                        // Track the intent so a later repair + rewrite
                        // starts from the right place.
                        cell::program(cell, target, max);
                        // The wasted retry pulses still stress the pinned
                        // cell's oxide.
                        a.device.note_wear(r, c, wasted);
                    }
                    None => {
                        let w = cell::program_verify(cell, target, max, policy, rng);
                        report.pulses += u64::from(w.pulses);
                        report.verify_reads += u64::from(w.attempts);
                        if !w.verified {
                            report.unrecoverable.push(UnrecoverableCell {
                                row: r,
                                col: c,
                                target,
                                actual: *cell,
                            });
                        }
                        if w.pulses > 0 {
                            // Every pulse (including verify retries) wears
                            // the cell; a budget crossing kills it for all
                            // *subsequent* accesses — this write's charge
                            // already landed.
                            a.device.note_program(r, c, u64::from(w.pulses));
                        }
                    }
                }
            }
        }
        self.write_spikes += report.pulses;
        self.read_spikes += report.verify_reads;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `out[c] = Σ_r input[r]·levels[r·cols + c]` in plain integers.
    fn reference_mvm(levels: &[u8], cols: usize, input: &[u32]) -> Vec<u64> {
        (0..cols)
            .map(|c| {
                levels
                    .chunks_exact(cols)
                    .zip(input)
                    .map(|(row, &x)| u64::from(row[c]) * u64::from(x))
                    .sum()
            })
            .collect()
    }

    /// `rows × cols` random 4-bit levels, row-major.
    fn random_levels(rows: usize, cols: usize, rng: &mut impl rand::RngExt) -> Vec<u8> {
        (0..rows * cols)
            .map(|_| rng.random_range(0u8..16))
            .collect()
    }

    #[test]
    fn mvm_known_values() {
        let mut xbar = Crossbar::new(3, 2, 4);
        xbar.program(&[1, 2, 3, 4, 5, 6]);
        let out = xbar.mvm_spiked(&[7, 8, 9], 8);
        assert_eq!(out, vec![7 + 24 + 45, 14 + 32 + 54]);
    }

    #[test]
    fn spike_accounting() {
        let mut xbar = Crossbar::new(2, 2, 4);
        xbar.program(&[15; 4]);
        assert_eq!(xbar.write_spikes(), 60);
        xbar.mvm_spiked(&[0b101, 0b1], 4);
        assert_eq!(xbar.read_spikes(), 3); // popcounts 2 + 1
        assert!(xbar.output_spikes() > 0);
    }

    #[test]
    fn zero_input_zero_output() {
        let mut xbar = Crossbar::new(4, 4, 4);
        xbar.program(&[15; 16]);
        assert_eq!(xbar.mvm_spiked(&[0; 4], 16), vec![0; 4]);
        assert_eq!(xbar.read_spikes(), 0);
    }

    #[test]
    fn drift_corrupts_mvm_and_scrub_restores() {
        use crate::drift::DriftModel;
        use rand::{rngs::StdRng, SeedableRng};
        let model = DriftModel {
            nu: 0.15,
            nu_sigma: 0.0,
            t0_cycles: 10,
            disturb_per_level: 0,
        };
        let levels = [9, 12, 15, 6];
        let mut xbar = Crossbar::new(2, 2, 4);
        xbar.program(&levels);
        xbar.attach(&DeviceModel::ideal().with_drift(model), 5);

        let fresh = xbar.mvm_spiked(&[1, 1], 4);
        assert_eq!(fresh, reference_mvm(&levels, 2, &[1, 1]));

        xbar.advance_cycles(1_000_000);
        assert!(xbar.drifted_cells() > 0, "a megacycle must drift something");
        let aged = xbar.mvm_spiked(&[1, 1], 4);
        assert_ne!(aged, fresh, "drifted weights change the product");

        let mut rng = StdRng::seed_from_u64(0);
        let report = xbar.scrub_rows(0, 2, &VerifyPolicy::default(), &mut rng);
        assert!(report.pulses > 0, "scrub must re-pulse drifted cells");
        assert_eq!(xbar.drifted_cells(), 0);
        assert_eq!(xbar.mvm_spiked(&[1, 1], 4), fresh, "scrub restores reads");
    }

    #[test]
    fn zero_pulse_rewrite_does_not_reset_aging() {
        use crate::drift::DriftModel;
        let model = DriftModel {
            nu: 0.15,
            nu_sigma: 0.0,
            t0_cycles: 10,
            disturb_per_level: 0,
        };
        let levels = [15; 4];
        let mut xbar = Crossbar::new(2, 2, 4);
        xbar.program(&levels);
        xbar.attach(&DeviceModel::ideal().with_drift(model), 5);
        xbar.advance_cycles(1_000_000);
        let before = xbar.drifted_cells();
        assert!(before > 0);
        // Writing the same values issues no pulses, so cells keep aging.
        assert_eq!(xbar.program(&levels), 0);
        assert_eq!(xbar.drifted_cells(), before);
    }

    #[test]
    fn read_disturb_accumulates_over_mvms() {
        use crate::drift::DriftModel;
        let model = DriftModel {
            nu: 0.0,
            nu_sigma: 0.0,
            t0_cycles: 1,
            disturb_per_level: 50,
        };
        let mut xbar = Crossbar::new(2, 2, 4);
        xbar.program(&[3; 4]);
        xbar.attach(&DeviceModel::ideal().with_drift(model), 5);
        // Each MVM with input 15 (4 slots firing) adds 4 slot-reads per row.
        for _ in 0..13 {
            xbar.mvm_spiked(&[15, 15], 4);
        }
        // 52 slot-reads ≥ 50 ⇒ every cell now reads one level high.
        assert_eq!(xbar.drifted_cells(), 4);
        assert_eq!(xbar.effective_level(0, 0), 4);
        let out = xbar.mvm_spiked(&[1, 1], 4);
        assert_eq!(out, vec![8, 8], "disturbed cells read 4 instead of 3");
    }

    #[test]
    fn scrub_on_clean_array_costs_one_read_per_cell() {
        use crate::drift::DriftModel;
        use rand::{rngs::StdRng, SeedableRng};
        let mut xbar = Crossbar::new(3, 3, 4);
        xbar.program(&[5; 9]);
        xbar.attach(&DeviceModel::ideal().with_drift(DriftModel::ideal()), 1);
        let mut rng = StdRng::seed_from_u64(0);
        let report = xbar.scrub_rows(0, 3, &VerifyPolicy::default(), &mut rng);
        assert_eq!(report.pulses, 0);
        assert_eq!(report.verify_reads, 9);
        assert!(report.unrecoverable.is_empty());
    }

    #[test]
    fn scrub_skips_fault_pinned_cells() {
        use crate::drift::DriftModel;
        use crate::fault::FaultKind;
        use rand::{rngs::StdRng, SeedableRng};
        let mut xbar = Crossbar::new(2, 2, 4);
        xbar.program(&[7; 4]);
        let mut map = FaultMap::pristine(2, 2);
        map.set(0, 0, FaultKind::StuckAtZero);
        xbar.set_faults(map);
        xbar.attach(&DeviceModel::ideal().with_drift(DriftModel::ideal()), 1);
        let mut rng = StdRng::seed_from_u64(0);
        let report = xbar.scrub_rows(0, 2, &VerifyPolicy::default(), &mut rng);
        // Pinned cell: one probe read, no pulses, not re-reported.
        assert_eq!(report.pulses, 0);
        assert_eq!(report.verify_reads, 4);
        assert!(report.unrecoverable.is_empty());
    }

    #[test]
    #[should_panic(expected = "level buffer size mismatch")]
    fn program_rejects_bad_shape() {
        Crossbar::new(2, 2, 4).program(&[0, 0]);
    }

    #[test]
    fn stuck_cells_distort_reads_until_cleared() {
        use crate::fault::FaultKind;
        let mut xbar = Crossbar::new(2, 2, 4);
        xbar.program(&[3, 5, 7, 9]);
        let mut map = FaultMap::pristine(2, 2);
        map.set(0, 1, FaultKind::StuckAtZero);
        map.set(1, 1, FaultKind::StuckAtMax);
        xbar.set_faults(map);

        assert_eq!(xbar.effective_level(0, 0), 3);
        assert_eq!(xbar.effective_level(0, 1), 0);
        assert_eq!(xbar.effective_level(1, 1), 15);
        // Column 0 is healthy; column 1 reads through the pinned levels.
        let out = xbar.mvm_spiked(&[1, 1], 4);
        assert_eq!(out, vec![3 + 7, 15]);

        xbar.clear_fault_col(1);
        let out = xbar.mvm_spiked(&[1, 1], 4);
        assert_eq!(out, vec![3 + 7, 5 + 9], "repair restores stored levels");
    }

    #[test]
    fn program_verify_reports_pinned_cells() {
        use crate::fault::FaultKind;
        use rand::{rngs::StdRng, SeedableRng};
        let mut xbar = Crossbar::new(2, 2, 4);
        let mut map = FaultMap::pristine(2, 2);
        map.set(1, 0, FaultKind::StuckAtZero);
        xbar.set_faults(map);

        let policy = VerifyPolicy::with_attempts(3);
        let mut rng = StdRng::seed_from_u64(0);
        let report = xbar.program_verify(&[4; 4], &policy, &mut rng);

        assert_eq!(report.unrecoverable.len(), 1);
        let bad = report.unrecoverable[0];
        assert_eq!((bad.row, bad.col, bad.target, bad.actual), (1, 0, 4, 0));
        // Healthy cells: 1 attempt × 4 pulses each; the stuck cell burns the
        // whole 3-attempt budget.
        assert_eq!(report.ideal_pulses, 16);
        assert_eq!(report.pulses, 12 + 3);
        assert_eq!(report.verify_reads, 3 + 3);
        assert_eq!(xbar.write_spikes(), report.pulses);
        assert_eq!(xbar.read_spikes(), report.verify_reads);
    }

    #[test]
    fn program_verify_noiseless_matches_plain_program() {
        use rand::{rngs::StdRng, SeedableRng};
        let levels = [1, 2, 3, 4, 5, 6];
        let mut plain = Crossbar::new(2, 3, 4);
        let plain_pulses = plain.program(&levels);

        let mut verified = Crossbar::new(2, 3, 4);
        let mut rng = StdRng::seed_from_u64(0);
        let report = verified.program_verify(&levels, &VerifyPolicy::default(), &mut rng);
        assert!(report.unrecoverable.is_empty());
        assert_eq!(report.pulses, plain_pulses);
        assert_eq!(report.overhead(), 1.0);
        assert_eq!(
            verified.mvm_spiked(&[1, 1], 4),
            plain.mvm_spiked(&[1, 1], 4)
        );
    }

    /// A cell outside the array panics in every profile: row-major
    /// storage would otherwise serve `(0, cols)` from cell `(1, 0)`.
    #[test]
    fn cell_accessors_reject_cells_outside_the_array() {
        let mut x = Crossbar::new(2, 3, 4);
        x.program(&[1, 2, 3, 4, 5, 6]);
        assert_eq!((x.level(1, 0), x.effective_level(1, 2)), (4, 6));
        for (row, col) in [(0, 3), (2, 0), (1, 3), (usize::MAX, 0)] {
            let level = std::panic::catch_unwind(|| x.level(row, col));
            assert!(level.is_err(), "level({row}, {col})");
            let effective = std::panic::catch_unwind(|| x.effective_level(row, col));
            assert!(effective.is_err(), "effective_level({row}, {col})");
        }
    }

    #[test]
    fn set_faults_rejects_wrong_shape() {
        let mut xbar = Crossbar::new(2, 2, 4);
        assert!(!xbar.set_faults(FaultMap::pristine(3, 2)));
        assert!(xbar.fault_map().is_none());
    }

    #[test]
    fn noise_corrupts_mvm_deterministically() {
        use crate::noise::NoiseModel;
        let levels = [9, 12, 15, 6];
        let strong = NoiseModel {
            lrs_sigma: 0.5,
            hrs_sigma: 0.8,
            ir_drop: 0.3,
            read_sigma: 0.1,
            g_ratio: 0.05,
        };
        let mut a = Crossbar::new(2, 2, 4);
        a.program(&levels);
        a.attach(&DeviceModel::ideal().with_noise(strong), 7);
        let mut b = a.clone();
        let ya = a.mvm_spiked(&[3, 5], 4);
        let yb = b.mvm_spiked(&[3, 5], 4);
        assert_eq!(ya, yb, "same seed and read epoch must match bitwise");
        assert_ne!(
            ya,
            reference_mvm(&levels, 2, &[3, 5]),
            "strong noise must perturb the product"
        );
        // A second MVM draws the next read epoch — the replayed pair still
        // agrees with itself.
        assert_eq!(a.mvm_spiked(&[3, 5], 4), b.mvm_spiked(&[3, 5], 4));
    }

    #[test]
    fn ideal_noise_attach_leaves_mvm_bits_identical() {
        use crate::noise::NoiseModel;
        let mut plain = Crossbar::new(3, 2, 4);
        plain.program(&[1, 14, 7, 3, 0, 9]);
        let mut noisy = plain.clone();
        noisy.attach(&DeviceModel::ideal().with_noise(NoiseModel::ideal()), 99);
        for input in [[5u32, 0, 11], [1, 1, 1], [65535, 0, 32768]] {
            assert_eq!(
                plain.mvm_spiked(&input, 16),
                noisy.mvm_spiked(&input, 16),
                "ideal noise must be an exact no-op"
            );
        }
        assert_eq!(plain.read_spikes(), noisy.read_spikes());
        assert_eq!(plain.output_spikes(), noisy.output_spikes());
    }

    /// Regression for the release-profile crash: `input_bits > 32` used to
    /// walk slots past the clamped driver's train length and index out of
    /// bounds inside `SpikeTrain::fires`. Both paths must now clamp to the
    /// driver resolution instead of panicking (this test runs in every
    /// profile; release is the one that used to crash because the
    /// debug-assert in `SpikeDriver::new` is compiled out there).
    #[test]
    fn input_bits_over_32_clamps_instead_of_panicking() {
        let levels = [3u8, 5, 7, 9, 11, 13];
        let input = [1u32, 70_000, u32::MAX];
        let mut gemm = Crossbar::new(3, 2, 4);
        gemm.program(&levels);
        let mut scalar = gemm.clone();
        let out = gemm.mvm_spiked(&input, 40);
        // A 40-bit request clamps to the 32-slot ladder, which injects the
        // full u32 value — the exact integer product.
        assert_eq!(out, reference_mvm(&levels, 2, &input));
        assert_eq!(out, scalar.mvm_spiked_scalar(&input, 40));
        assert_eq!(gemm.read_spikes(), scalar.read_spikes());
    }

    /// The read cache is keyed on the array's generation: reads that
    /// leave the device untouched keep the stamp (and the cache), read
    /// noise included, since the read epoch lives outside the array;
    /// every `&mut` path to levels or device state moves it, and a
    /// disturbing read moves it too — so the next GEMM MVM restages and
    /// agrees with the scalar reference, which never caches. A
    /// transparent array reads its stored levels in place and fills no
    /// cache.
    #[test]
    fn read_cache_is_keyed_on_the_array_generation() {
        use crate::drift::DriftModel;
        use crate::fault::FaultKind;
        use crate::noise::NoiseModel;
        let mut xbar = Crossbar::new(3, 2, 4);
        xbar.program(&[9, 1, 0, 5, 13, 2]);
        let g0 = xbar.array.generation();
        xbar.mvm_spiked(&[1, 2, 3], 4);
        xbar.mvm_spiked(&[3, 2, 1], 4);
        assert_eq!(xbar.array.generation(), g0, "ideal reads are pure");
        assert!(xbar.read_cache.is_none(), "transparent arrays copy nothing");

        let mut map = FaultMap::pristine(3, 2);
        map.set(2, 1, FaultKind::StuckAtMax);
        xbar.set_faults(map);
        let g0 = xbar.array.generation();
        xbar.mvm_spiked(&[1, 2, 3], 4);
        xbar.mvm_spiked(&[3, 2, 1], 4);
        assert_eq!(xbar.array.generation(), g0, "faulted reads are pure");
        assert_eq!(xbar.read_cache.as_ref().map(|c| c.generation), Some(g0));
        assert_eq!(*xbar.effective_levels(), [9, 1, 0, 5, 13, 15]);

        let mut noisy = xbar.clone();
        let read_noise = NoiseModel {
            read_sigma: 0.05,
            ..NoiseModel::ideal()
        };
        noisy.attach(&DeviceModel::ideal().with_noise(read_noise), 3);
        let g1 = noisy.array.generation();
        for _ in 0..3 {
            let mut reference = noisy.clone();
            let gemm = noisy.mvm_spiked(&[1, 2, 3], 4);
            assert_eq!(gemm, reference.mvm_spiked_scalar(&[1, 2, 3], 4));
        }
        assert_eq!(noisy.array.generation(), g1, "read noise moves no state");
        assert_eq!(noisy.read_epoch, 3);

        xbar.advance_cycles(10);
        assert_eq!(xbar.array.generation(), g0, "no clock without drift");
        xbar.restore_levels(&[7; 6]);
        assert_ne!(xbar.array.generation(), g0, "a level write moves it");

        let disturb = DriftModel {
            nu: 0.0,
            nu_sigma: 0.0,
            t0_cycles: 1,
            disturb_per_level: 3,
        };
        xbar.attach(&DeviceModel::ideal().with_drift(disturb), 5);
        for _ in 0..4 {
            let g = xbar.array.generation();
            let mut reference = xbar.clone();
            let gemm = xbar.mvm_spiked(&[15, 15, 15], 4);
            assert_eq!(gemm, reference.mvm_spiked_scalar(&[15, 15, 15], 4));
            assert_ne!(xbar.array.generation(), g, "disturbing reads move it");
        }
    }

    /// Every mutation path, run on a warm level cache, leaves the GEMM
    /// MVM bitwise equal to the scalar reference on a clone.
    #[test]
    fn mutations_never_serve_stale_levels() {
        use crate::fault::{FaultKind, FaultModel};
        use crate::noise::NoiseModel;
        use crate::wear::WearModel;
        use rand::{rngs::StdRng, SeedableRng};
        let wear = DeviceModel::ideal().with_wear(WearModel::with_endurance(4.0));
        let swing = [15, 15, 15, 15, 0, 0, 0, 0, 15, 15, 15, 15, 0, 0, 0, 0];
        let mutations: [fn(&mut Crossbar); 9] = [
            |x| {
                x.program(&[2, 7, 1, 8].repeat(4));
            },
            |x| {
                let rng = &mut StdRng::seed_from_u64(1);
                x.program_verify(&[3, 1, 4, 1].repeat(4), &VerifyPolicy::default(), rng);
            },
            |x| {
                x.attach(
                    &DeviceModel::ideal().with_faults(FaultModel::with_stuck_rate(0.3)),
                    2,
                )
            },
            |x| {
                x.attach(
                    &DeviceModel::ideal().with_noise(NoiseModel::with_strength(1.0)),
                    9,
                )
            },
            |x| {
                let mut map = FaultMap::pristine(4, 4);
                map.set(0, 0, FaultKind::StuckAtMax);
                x.set_faults(map);
            },
            |x| x.clear_fault_col(0),
            |x| {
                x.restore_levels(&[7; 16]);
            },
            |x| {
                let rng = &mut StdRng::seed_from_u64(4);
                x.reprogram_col_from_spare(1, &VerifyPolicy::default(), rng);
            },
            |x| {
                let rng = &mut StdRng::seed_from_u64(2);
                x.scrub_rows(0, 4, &VerifyPolicy::default(), rng);
            },
        ];
        for (i, mutate) in mutations.iter().enumerate() {
            let mut xbar = Crossbar::new(4, 4, 4);
            xbar.attach(&wear, 3);
            xbar.program(&swing); // kills some cells: a live fault map
            xbar.mvm_spiked(&[1, 2, 3, 4], 4);
            mutate(&mut xbar);
            let mut reference = xbar.clone();
            let gemm = xbar.mvm_spiked(&[3, 1, 4, 1], 4);
            let scalar = reference.mvm_spiked_scalar(&[3, 1, 4, 1], 4);
            assert_eq!(gemm, scalar, "mutation {i} served stale levels");
        }
    }

    /// The accumulator switches from `u32` to `u64` exactly at the PL042
    /// bound `rows·(2^bits−1)·(2^cell_bits−1) < 2^32`. All-max levels and
    /// inputs on one array just under and one just over it, at 16 and 32
    /// input bits, give the scalar reference's bits.
    #[test]
    fn accumulator_width_switches_at_the_u32_bound() {
        // (input bits, cell bits, rows just under the bound)
        for (input_bits, cell_bits, under) in [(16u8, 4u8, 4369usize), (32, 1, 1)] {
            let max_input = u32::MAX >> (32 - u32::from(input_bits));
            let max_level = cell::max_level(cell_bits);
            assert!(fits_u32(under, max_input, max_level));
            assert!(!fits_u32(under + 1, max_input, max_level));
            for rows in [under, under + 1] {
                let mut gemm = Crossbar::new(rows, 2, cell_bits);
                gemm.program(&vec![max_level; rows * 2]);
                let mut scalar = gemm.clone();
                let input = vec![max_input; rows];
                let out = gemm.mvm_spiked(&input, input_bits);
                let want = rows as u64 * u64::from(max_input) * u64::from(max_level);
                assert_eq!(out, vec![want; 2], "{rows} rows at {input_bits} bits");
                assert_eq!(out, scalar.mvm_spiked_scalar(&input, input_bits));
                assert_eq!(gemm.spike_counters(), scalar.spike_counters());
            }
        }
    }

    /// The `u64` `integrate` kernel and both arms of the `u32` one agree
    /// with the reference product on random shapes and batches, with the
    /// `u32` kernel run only where its bound holds: random drives,
    /// worst-case drives just under the bound and, on the `u64` kernel,
    /// just over it.
    #[test]
    fn integrate_arms_agree() {
        use crate::multiversion::assert_arms_agree;
        use rand::{rngs::StdRng, RngExt as _, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        let mut cases = Vec::new();
        for _ in 0..24 {
            let (rows, cols) = (rng.random_range(1usize..300), rng.random_range(1usize..40));
            let bits = rng.random_range(1u32..=32);
            let mask = u32::MAX >> (32 - bits);
            let inputs: Vec<u32> = (0..rows * rng.random_range(1usize..5))
                .map(|_| {
                    if rng.random_range(0..4) == 0 {
                        0
                    } else {
                        rng.random()
                    }
                })
                .collect();
            cases.push((
                random_levels(rows, cols, &mut rng),
                rows,
                cols,
                inputs,
                mask,
            ));
        }
        for rows in [4369, 4370] {
            let mask = u32::from(u16::MAX);
            cases.push((vec![15; rows * 3], rows, 3, vec![mask; rows * 2], mask));
        }
        for (levels, rows, cols, inputs, mask) in &cases {
            let (rows, cols, mask) = (*rows, *cols, *mask);
            let want: Vec<u64> = inputs
                .chunks_exact(rows)
                .flat_map(|x| {
                    let x: Vec<u32> = x.iter().map(|&v| v & mask).collect();
                    reference_mvm(levels, cols, &x)
                })
                .collect();
            let wide = integrate::<u64>(levels, rows, cols, inputs, mask);
            assert_eq!(wide, want, "{rows}x{cols}");
            if fits_u32(rows, mask, 15) {
                let narrow = integrate_u32::portable(levels, rows, cols, inputs, mask);
                assert_eq!(narrow, want, "{rows}x{cols}");
                let avx2 = integrate_u32::avx2(levels, rows, cols, inputs, mask);
                assert_arms_agree(&narrow, avx2.as_ref());
            }
        }
    }

    /// Both arms of the paired program pass store every member's
    /// [`signed_level`] of every signed level and count each member's
    /// level distances, across bit widths and more cells than one block.
    #[test]
    fn program_pairs_arms_agree() {
        use crate::multiversion::assert_arms_agree;
        use rand::{rngs::StdRng, RngExt as _, SeedableRng};
        let mut rng = StdRng::seed_from_u64(43);
        for (cells, cell_bits, data_bits) in [
            (1usize, 4u8, 16u32),
            (78_500, 4, 16),
            (4097, 2, 8),
            (1010, 1, 4),
            (210, 8, 32),
        ] {
            let max = cell::max_level(cell_bits);
            let qmax = i32::MAX >> (32 - data_bits);
            let q: Vec<i32> = (0..cells).map(|_| rng.random_range(-qmax..=qmax)).collect();
            let members = 2 * (data_bits / u32::from(cell_bits)) as usize;
            let old: Vec<Vec<u8>> = (0..members)
                .map(|_| (0..cells).map(|_| rng.random_range(0..=max)).collect())
                .collect();
            let targets: Vec<Vec<u8>> = (0..members)
                .map(|m| {
                    let shift = m as u32 / 2 * u32::from(cell_bits);
                    let sign = if m % 2 == 0 { 1 } else { -1 };
                    q.iter()
                        .map(|&q| signed_level(q, shift, sign, max))
                        .collect()
                })
                .collect();
            let pulses: Vec<u64> = old
                .iter()
                .zip(&targets)
                .map(|(o, t)| {
                    o.iter()
                        .zip(t)
                        .map(|(&a, &b)| u64::from(a.abs_diff(b)))
                        .sum()
                })
                .collect();
            type Pairs = fn(&mut [&mut [u8]], &[i32], u8, &mut [u64]) -> Option<()>;
            let run = |arm: Pairs| {
                let mut levels = old.clone();
                let mut slices: Vec<&mut [u8]> = levels.iter_mut().map(Vec::as_mut_slice).collect();
                let mut p = vec![0; members];
                arm(&mut slices, &q, cell_bits, &mut p)?;
                Some((levels, p))
            };
            let portable = run(|c, q, b, p| {
                program_pairs::portable(c, q, b, p);
                Some(())
            });
            assert_eq!(portable, Some((targets, pulses)), "{cells} cells");
            assert_arms_agree(portable, run(program_pairs::avx2).map(Some));
        }
    }

    /// A batch is exactly its inputs run one `mvm_spiked` call at a time:
    /// outputs, spike counters and later reads agree on ideal, faulted,
    /// disturbing and read-noisy arrays.
    #[test]
    fn mvm_batch_matches_sequential_calls() {
        use crate::drift::DriftModel;
        use crate::fault::FaultModel;
        use crate::noise::NoiseModel;
        let disturb = DriftModel {
            nu: 0.1,
            nu_sigma: 0.05,
            t0_cycles: 8,
            disturb_per_level: 5,
        };
        let models = [
            DeviceModel::ideal(),
            DeviceModel::ideal().with_faults(FaultModel::with_stuck_rate(0.2)),
            DeviceModel::ideal().with_drift(disturb),
            DeviceModel::ideal().with_noise(NoiseModel::with_strength(1.0)),
        ];
        let (rows, cols) = (7, 3);
        let levels: Vec<u8> = (0..rows * cols).map(|i| (i * 5 % 16) as u8).collect();
        let inputs: Vec<u32> = (0..4 * rows).map(|i| (i * 37 % 300) as u32).collect();
        for (m, model) in models.iter().enumerate() {
            let mut batched = Crossbar::new(rows, cols, 4);
            batched.program(&levels);
            batched.attach(model, 11);
            batched.advance_cycles(100);
            let mut sequential = batched.clone();
            let want: Vec<u64> = inputs
                .chunks_exact(rows)
                .flat_map(|x| sequential.mvm_spiked(x, 8))
                .collect();
            assert_eq!(batched.mvm_spiked_batch(&inputs, 8), want, "model {m}");
            assert_eq!(batched.spike_counters(), sequential.spike_counters());
            assert_eq!(
                batched.mvm_spiked(&inputs[..rows], 8),
                sequential.mvm_spiked_scalar(&inputs[..rows], 8),
                "model {m}: device state diverged"
            );
        }
        assert!(Crossbar::new(2, 2, 4).mvm_spiked_batch(&[], 8).is_empty());
    }

    /// The memoized stage of `x`'s current generation against one staged
    /// from scratch (an empty memo): the same levels and the same
    /// undecided cells with bitwise-equal conductances. A transparent
    /// array has no stage to compare.
    fn memo_matches_scratch(x: &mut Crossbar) -> Result<(), proptest::test_runner::TestCaseError> {
        let (cols, max) = (x.cols, x.max_level());
        let Some(memoized) = current_stage(&x.array, &mut x.read_cache, cols, max).cloned() else {
            return Ok(());
        };
        let mut scratch = ReadStage::default();
        scratch.restage(&x.array, x.array.generation(), cols, max);
        prop_assert_eq!(&memoized.levels, &scratch.levels);
        let bits = |s: &ReadStage| -> Vec<(usize, u64)> {
            s.undecided
                .iter()
                .map(|u| (u.cell, u.g.to_bits()))
                .collect()
        };
        prop_assert_eq!(bits(&memoized), bits(&scratch));
        Ok(())
    }

    /// A noise attach replaces the noise state, whose device epochs restart
    /// at 0: a memo kept across it would serve the old seed's conductances
    /// to every cell not rewritten since (their keys still match).
    #[test]
    fn noise_attach_after_a_read_drops_the_memo() {
        use crate::noise::NoiseModel;
        let noise = NoiseModel {
            read_sigma: 0.05,
            ..NoiseModel::with_strength(2.0)
        };
        let (rows, cols) = (6, 5);
        let levels: Vec<u8> = (0..rows * cols).map(|i| (i * 7 % 16) as u8).collect();
        let input: Vec<u32> = (0..rows).map(|i| 1 + i as u32 * 3).collect();
        let mut xbar = Crossbar::new(rows, cols, 4);
        xbar.program(&levels);
        xbar.attach(&DeviceModel::ideal().with_noise(noise), 1);
        xbar.mvm_spiked(&input, 8);
        for seed in 2..6 {
            xbar.attach(&DeviceModel::ideal().with_noise(noise), seed);
            let mut reference = xbar.clone();
            assert_eq!(
                xbar.mvm_spiked(&input, 8),
                reference.mvm_spiked_scalar(&input, 8),
                "seed {seed}"
            );
            assert_eq!(*xbar.effective_levels(), *reference.effective_levels());
        }
    }

    #[test]
    fn wear_exhaustion_raises_live_dead_faults() {
        use crate::wear::WearModel;
        let mut xbar = Crossbar::new(2, 2, 4);
        // Deterministic budgets: every cell survives exactly 20 pulses.
        xbar.attach(
            &DeviceModel::ideal().with_wear(WearModel {
                median_writes: 20.0,
                sigma: 0.0,
            }),
            1,
        );
        // 15 pulses per cell: everyone still alive.
        xbar.program(&[15; 4]);
        assert!(xbar.fault_map().is_none(), "no deaths before the budget");
        // +15 pulses (down to 0) crosses every 20-pulse budget: the whole
        // array dies, pinned at level 0 on every read.
        xbar.program(&[0; 4]);
        let map = xbar.fault_map().unwrap();
        assert_eq!(map.fault_count(), 4);
        assert_eq!(map.get(0, 0), Some(crate::fault::FaultKind::Dead));
        assert_eq!(xbar.mvm_spiked(&[1, 1], 4), vec![0, 0]);
    }

    #[test]
    fn wear_counts_verify_retry_pulses() {
        use crate::wear::WearModel;
        use rand::{rngs::StdRng, SeedableRng};
        let mut xbar = Crossbar::new(1, 1, 4);
        xbar.attach(
            &DeviceModel::ideal().with_wear(WearModel {
                median_writes: 1000.0,
                sigma: 0.0,
            }),
            1,
        );
        let noisy = VerifyPolicy {
            max_attempts: 8,
            write_sigma: 2.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let report = xbar.program_verify(&[9], &noisy, &mut rng);
        let spent = 1000 - xbar.wear_state().unwrap().remaining_writes(0, 0);
        assert_eq!(spent, report.pulses, "wear must bill retry pulses too");
    }

    #[test]
    fn spare_remap_restores_reads_at_honest_cost() {
        use crate::wear::WearModel;
        use rand::{rngs::StdRng, SeedableRng};
        let mut xbar = Crossbar::new(2, 2, 4);
        xbar.attach(
            &DeviceModel::ideal().with_wear(WearModel {
                median_writes: 20.0,
                sigma: 0.0,
            }),
            1,
        );
        xbar.program(&[9, 5, 7, 3]);
        // Burn out column 0 only.
        xbar.program(&[0, 5, 15, 3]);
        xbar.program(&[9, 5, 7, 3]);
        let map = xbar.fault_map().unwrap();
        assert!(map.get(0, 0).is_some() && map.get(1, 0).is_some());
        assert_eq!(map.faulty_cols(), vec![0]);

        let before_writes = xbar.write_spikes();
        let mut rng = StdRng::seed_from_u64(0);
        let report = xbar.reprogram_col_from_spare(0, &VerifyPolicy::default(), &mut rng);
        // The spare starts pristine: reprogramming to intent (9, 7) costs
        // exactly those tuning pulses, billed to the write counter.
        assert_eq!(report.pulses, 9 + 7);
        assert_eq!(report.ideal_pulses, 9 + 7);
        assert_eq!(report.verify_reads, 2);
        assert!(report.unrecoverable.is_empty());
        assert_eq!(xbar.write_spikes(), before_writes + 16);
        assert!(xbar.fault_map().unwrap().get(0, 0).is_none());
        // Fresh spare cells carry a fresh budget and full read fidelity.
        assert_eq!(xbar.wear_state().unwrap().remaining_writes(0, 0), 20 - 9);
        assert_eq!(xbar.mvm_spiked(&[1, 1], 4), vec![9 + 7, 5 + 3]);
    }

    #[test]
    fn ideal_wear_attach_is_exact_noop() {
        use crate::wear::WearModel;
        let mut plain = Crossbar::new(2, 2, 4);
        plain.program(&[1, 14, 7, 3]);
        let mut worn = plain.clone();
        worn.attach(&DeviceModel::ideal().with_wear(WearModel::ideal()), 99);
        assert!(worn.wear_state().is_none());
        worn.program(&[4; 4]);
        plain.program(&[4; 4]);
        assert_eq!(plain.mvm_spiked(&[2, 3], 4), worn.mvm_spiked(&[2, 3], 4));
        assert_eq!(plain.write_spikes(), worn.write_spikes());
        assert!(worn.fault_map().is_none());
    }

    #[test]
    fn wear_state_roundtrips_through_restore() {
        use crate::wear::WearModel;
        let model = WearModel::with_endurance(50.0);
        let mut xbar = Crossbar::new(3, 3, 4);
        xbar.attach(&DeviceModel::ideal().with_wear(model), 7);
        xbar.program(&[9, 9, 9, 5, 5, 5, 12, 12, 12]);
        let (p, g) = xbar.wear_state().unwrap().counters();
        let (p, g) = (p.to_vec(), g.to_vec());
        let levels = xbar.stored_levels();
        let (rs, ws, os) = xbar.spike_counters();

        let mut fresh = Crossbar::new(3, 3, 4);
        fresh.attach(&DeviceModel::ideal().with_wear(model), 7);
        assert!(fresh.restore_levels(&levels));
        assert!(fresh.restore_wear_counters(&p, &g));
        fresh.restore_spike_counters(rs, ws, os);
        assert_eq!(fresh.wear_state(), xbar.wear_state());
        assert_eq!(fresh.stored_levels(), xbar.stored_levels());
        assert_eq!(fresh.spike_counters(), xbar.spike_counters());
        assert_eq!(
            fresh.mvm_spiked(&[1, 1, 1], 4),
            xbar.mvm_spiked(&[1, 1, 1], 4)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Differential pin: the GEMM hot path is bitwise identical to
        /// the scalar reference — outputs *and* spike/disturb/noise
        /// bookkeeping — across random crossbars, every legal driver
        /// resolution, and attached fault / drift(+disturb) / noise state,
        /// over several consecutive MVMs (which exercises level-cache
        /// reuse and invalidation).
        #[test]
        fn gemm_mvm_matches_scalar_under_nonidealities(
            rows in 1usize..70,
            cols in 1usize..5,
            input_bits in 1u8..=32,
            fault_rate in 0.0f64..0.2,
            drift_sel in 0u8..2,
            noise_strength in 0.0f64..2.0,
            seed in 0u64..1000,
        ) {
            use crate::drift::DriftModel;
            use crate::fault::FaultModel;
            use crate::noise::NoiseModel;
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let levels = random_levels(rows, cols, &mut rng);
            let max = if input_bits >= 32 { u32::MAX } else { (1u32 << input_bits) - 1 };
            let inputs: Vec<Vec<u32>> = (0..3)
                .map(|_| (0..rows).map(|_| rng.random_range(0u32..=max)).collect())
                .collect();

            let mut xbar = Crossbar::new(rows, cols, 4);
            xbar.program(&levels);
            if fault_rate > 0.0 {
                let fm = FaultModel::with_stuck_rate(fault_rate);
                xbar.set_faults(FaultMap::generate(rows, cols, &fm, seed));
            }
            if drift_sel == 1 {
                xbar.attach(&DeviceModel::ideal().with_drift(DriftModel { nu: 0.1, nu_sigma: 0.05, t0_cycles: 8, disturb_per_level: 40 }), seed);
                xbar.advance_cycles(5_000);
            }
            if noise_strength > 0.0 {
                xbar.attach(&DeviceModel::ideal().with_noise(NoiseModel::with_strength(noise_strength)), seed);
            }
            let mut reference = xbar.clone();

            for input in &inputs {
                prop_assert_eq!(
                    xbar.mvm_spiked(input, input_bits),
                    reference.mvm_spiked_scalar(input, input_bits)
                );
            }
            prop_assert_eq!(xbar.read_spikes(), reference.read_spikes());
            prop_assert_eq!(xbar.output_spikes(), reference.output_spikes());
            // Disturb counters advanced identically ⇒ the arrays stay
            // bitwise interchangeable for every future read.
            xbar.advance_cycles(1_000);
            reference.advance_cycles(1_000);
            prop_assert_eq!(
                xbar.mvm_spiked(&inputs[0], input_bits),
                reference.mvm_spiked_scalar(&inputs[0], input_bits)
            );
        }

        /// Differential pin of the staged read path — the read cache and
        /// the bound early-out — against the spec (`mvm_spiked_scalar` and
        /// per-cell `effective_level`), over partial writes, clock
        /// advances and consecutive (single and batched) reads. One
        /// `NoiseModel` field varies at a time: read σ only, device spread
        /// without read noise, IR drop only, `g_ratio` up to 0.5 under
        /// read noise, a read σ that leaves most cells undecided, and all
        /// at once; faults and disturbing drift ride along. Every cell the
        /// read noise reaches must read within its staged `lo..=hi` at
        /// both extremes of the sampler's range and on a grid between
        /// them, and `ReramMatrix::read` must equal the same fold of the
        /// spec's per-cell levels.
        #[test]
        fn staged_reads_match_the_spec(
            rows in 1usize..24,
            cols in 1usize..6,
            arm in 0usize..6,
            scale in 0.1f64..1.0,
            fault_rate in 0.0f64..0.2,
            disturb in 0u8..2,
            seed in 0u64..1000,
        ) {
            use crate::array_group::ReramMatrix;
            use crate::drift::DriftModel;
            use crate::energy::ReramParams;
            use crate::fault::FaultModel;
            use crate::noise::NoiseModel;
            use crate::seedstream::gauss_extremes;
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let ideal = NoiseModel::ideal();
            let noise = match arm {
                0 => NoiseModel { read_sigma: 0.02 * scale, ..ideal },
                1 => NoiseModel { lrs_sigma: 0.2 * scale, hrs_sigma: 0.5 * scale, ..ideal },
                2 => NoiseModel { ir_drop: 0.6 * scale, ..ideal },
                3 => NoiseModel { g_ratio: 0.5 * scale, read_sigma: 0.01, ..ideal },
                4 => NoiseModel { read_sigma: 0.2 + 0.5 * scale, ..ideal },
                _ => NoiseModel::with_strength(4.0 * scale),
            };
            let mut device = DeviceModel::ideal()
                .with_noise(noise)
                .with_faults(FaultModel::with_stuck_rate(fault_rate));
            if disturb == 1 {
                device = device.with_drift(DriftModel { nu: 0.1, nu_sigma: 0.05, t0_cycles: 8, disturb_per_level: 40 });
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let mut xbar = Crossbar::new(rows, cols, 4);
            xbar.program(&random_levels(rows, cols, &mut rng));
            xbar.attach(&device, seed);
            let mut spec = xbar.clone();
            let spec_levels = |x: &Crossbar| -> Vec<u8> {
                (0..rows * cols).map(|i| x.effective_level(i / cols, i % cols)).collect()
            };
            let [z_min, z_max] = gauss_extremes();
            for step in 0..3u64 {
                let max = xbar.max_level();
                for (i, &stored) in xbar.array.cells.iter().enumerate() {
                    let staged = xbar.array.device.stage(i / cols, i % cols, stored, max);
                    if let StagedRead::Noisy { g, lo, hi } = staged {
                        for k in 0..=24 {
                            let z = z_min + (z_max - z_min) * f64::from(k) / 24.0;
                            for z in [z, z_min, z_max] {
                                let level = noise.read_level(g, z, max);
                                prop_assert!((lo..=hi).contains(&level), "z {} read {} outside {}..={}", z, level, lo, hi);
                            }
                        }
                    }
                }
                prop_assert_eq!(xbar.effective_levels().into_owned(), spec_levels(&spec));
                let inputs: Vec<u32> = (0..2 * rows).map(|_| rng.random_range(0u32..256)).collect();
                let want: Vec<u64> = inputs
                    .chunks_exact(rows)
                    .flat_map(|x| spec.mvm_spiked_scalar(x, 8))
                    .collect();
                prop_assert_eq!(xbar.mvm_spiked_batch(&inputs, 8), want);
                let x = &inputs[..rows];
                prop_assert_eq!(xbar.mvm_spiked(x, 8), spec.mvm_spiked_scalar(x, 8));
                prop_assert_eq!(xbar.spike_counters(), spec.spike_counters());
                prop_assert_eq!(xbar.effective_levels().into_owned(), spec_levels(&spec));
                // Rewrite every third cell, then age the array.
                let mut levels = xbar.stored_levels();
                for level in levels.iter_mut().step_by(3) {
                    *level = rng.random_range(0u8..16);
                }
                xbar.program(&levels);
                spec.program(&levels);
                xbar.advance_cycles(500 * step);
                spec.advance_cycles(500 * step);
            }

            let weights = |rng: &mut StdRng| -> Vec<f32> {
                (0..rows * cols).map(|_| rng.random_range(-1.0f32..1.0)).collect()
            };
            let mut m = ReramMatrix::program(&weights(&mut rng), cols, rows, &ReramParams::default());
            m.attach(&device, seed);
            let spec_read = |m: &ReramMatrix| -> Vec<u32> {
                let xbars: Vec<&Crossbar> = m.crossbars().collect();
                let mut w = vec![0.0f32; rows * cols];
                for (g, pair) in xbars.chunks_exact(2).enumerate() {
                    let shift = g as u32 * 4;
                    for (k, w) in w.iter_mut().enumerate() {
                        let (o, i) = (k / rows, k % rows);
                        let (p, n) = (pair[0].effective_level(i, o), pair[1].effective_level(i, o));
                        *w += ((i64::from(p) - i64::from(n)) << shift) as f32 * m.weight_scale();
                    }
                }
                w.iter().map(|v| v.to_bits()).collect()
            };
            let x: Vec<f32> = (0..rows).map(|_| rng.random_range(-1.0f32..1.0)).collect();
            for _ in 0..2 {
                let got: Vec<u32> = m.read().iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got, spec_read(&m));
                m.matvec(&x);
                let got: Vec<u32> = m.read().iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got, spec_read(&m));
                m.write(&weights(&mut rng));
                m.advance_cycles(300);
            }
        }

        /// Differential pin of the per-cell stage memo: over random
        /// sequences of writes, verified writes, clock advances, fault-map
        /// swaps, checkpoint restores, scrubs, spare remaps and noise
        /// re-attaches with a new seed, under fault, drift (with disturb),
        /// noise and wear models alone and combined, every step's memoized
        /// stage equals one staged from scratch and the GEMM MVM (single
        /// and batched) equals the scalar reference bit for bit.
        #[test]
        fn memoized_stage_matches_a_scratch_stage(
            rows in 1usize..12,
            cols in 1usize..6,
            arm in 0usize..8,
            steps in 1usize..16,
            seed in 0u64..1000,
        ) {
            use crate::drift::DriftModel;
            use crate::fault::FaultModel;
            use crate::noise::NoiseModel;
            use crate::wear::WearModel;
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let faults = FaultModel::with_stuck_rate(0.1);
            let drift = DriftModel { nu: 0.2, nu_sigma: 0.15, t0_cycles: 30, disturb_per_level: 60 };
            let noise = NoiseModel { read_sigma: 0.03, ..NoiseModel::with_strength(2.0) };
            let wear = WearModel::with_endurance(40.0);
            let ideal = DeviceModel::ideal();
            let device = match arm {
                0 => ideal.with_faults(faults),
                1 => ideal.with_drift(drift),
                2 => ideal.with_noise(noise),
                3 => ideal.with_wear(wear),
                4 => ideal.with_noise(noise).with_faults(faults),
                5 => ideal.with_noise(noise).with_drift(drift),
                6 => ideal.with_noise(noise).with_wear(wear),
                _ => ideal.with_noise(noise).with_faults(faults).with_drift(drift).with_wear(wear),
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut xbar = Crossbar::new(rows, cols, 4);
            xbar.program(&random_levels(rows, cols, &mut rng));
            xbar.attach(&device, seed);
            let policy = VerifyPolicy { max_attempts: 3, write_sigma: 0.6 };
            for step in 0..steps {
                let op = rng.random_range(0u8..9);
                // Rewrite about a third of the cells, keep the rest.
                let mut levels = xbar.stored_levels();
                for level in levels.iter_mut() {
                    if rng.random_range(0..3) == 0 {
                        *level = rng.random_range(0u8..16);
                    }
                }
                match op {
                    0 => {
                        xbar.program(&levels);
                    }
                    1 => {
                        xbar.program_verify(&levels, &policy, &mut rng);
                    }
                    2 => xbar.advance_cycles(rng.random_range(0u64..80)),
                    3 => {
                        let fm = FaultModel::with_stuck_rate(rng.random_range(0.0f64..0.3));
                        xbar.set_faults(FaultMap::generate(rows, cols, &fm, seed + step as u64));
                    }
                    4 => {
                        xbar.restore_levels(&levels);
                    }
                    5 => {
                        let start = rng.random_range(0..rows);
                        xbar.scrub_rows(start, rng.random_range(1..=rows), &policy, &mut rng);
                    }
                    6 => {
                        xbar.reprogram_col_from_spare(rng.random_range(0..cols), &policy, &mut rng);
                    }
                    7 => {
                        let strength = rng.random_range(0.5f64..6.0);
                        let noise = NoiseModel { read_sigma: 0.03, ..NoiseModel::with_strength(strength) };
                        xbar.attach(&ideal.with_noise(noise), seed + 1 + step as u64);
                    }
                    _ => {}
                }
                memo_matches_scratch(&mut xbar)?;
                let inputs: Vec<u32> = (0..2 * rows).map(|_| rng.random_range(0u32..256)).collect();
                let mut reference = xbar.clone();
                let x = &inputs[..rows];
                prop_assert_eq!(xbar.mvm_spiked(x, 8), reference.mvm_spiked_scalar(x, 8), "op {} at step {}", op, step);
                memo_matches_scratch(&mut xbar)?;
                let want: Vec<u64> = inputs
                    .chunks_exact(rows)
                    .flat_map(|x| reference.mvm_spiked_scalar(x, 8))
                    .collect();
                prop_assert_eq!(xbar.mvm_spiked_batch(&inputs, 8), want);
                prop_assert_eq!(xbar.spike_counters(), reference.spike_counters());
                prop_assert_eq!(xbar.effective_levels().into_owned(), reference.effective_levels().into_owned());
            }
        }

        /// Attaching `NoiseModel::ideal()` leaves `mvm_spiked` output bits
        /// identical to the no-model path on random crossbars — the exact
        /// no-op contract of the noise layer.
        #[test]
        fn ideal_noise_is_noop_on_random_crossbars(
            rows in 1usize..8,
            cols in 1usize..8,
            seed in 0u64..1000,
        ) {
            use crate::noise::NoiseModel;
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let levels = random_levels(rows, cols, &mut rng);
            let input: Vec<u32> = (0..rows).map(|_| rng.random_range(0u32..65536)).collect();
            let mut plain = Crossbar::new(rows, cols, 4);
            plain.program(&levels);
            let mut noisy = plain.clone();
            noisy.attach(&DeviceModel::ideal().with_noise(NoiseModel::ideal()), seed);
            prop_assert_eq!(noisy.mvm_spiked(&input, 16), plain.mvm_spiked(&input, 16));
        }

        /// Same seed ⇒ bitwise-identical noisy reads across repeated
        /// replays, at any noise strength.
        #[test]
        fn noisy_reads_replay_bitwise(
            rows in 1usize..6,
            cols in 1usize..6,
            seed in 0u64..500,
            strength in 0.1f64..3.0,
        ) {
            use crate::noise::NoiseModel;
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let levels = random_levels(rows, cols, &mut rng);
            let input: Vec<u32> = (0..rows).map(|_| rng.random_range(0u32..256)).collect();
            let build = || {
                let mut x = Crossbar::new(rows, cols, 4);
                x.program(&levels);
                x.attach(&DeviceModel::ideal().with_noise(NoiseModel::with_strength(strength)), seed);
                x
            };
            let (mut a, mut b) = (build(), build());
            for _ in 0..3 {
                prop_assert_eq!(a.mvm_spiked(&input, 8), b.mvm_spiked(&input, 8));
            }
        }

        /// The analog spike path computes exactly the integer MVM.
        #[test]
        fn spiked_mvm_is_exact(
            rows in 1usize..8,
            cols in 1usize..8,
            seed in 0u64..1000,
        ) {
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let levels = random_levels(rows, cols, &mut rng);
            let input: Vec<u32> = (0..rows).map(|_| rng.random_range(0u32..65536)).collect();
            let mut xbar = Crossbar::new(rows, cols, 4);
            xbar.program(&levels);
            prop_assert_eq!(xbar.mvm_spiked(&input, 16), reference_mvm(&levels, cols, &input));
        }

        /// After drift reaches (at least) the first misread, one full scrub
        /// pass restores every cell to its programmed level.
        #[test]
        fn scrub_restores_after_first_misread(
            rows in 1usize..6,
            cols in 1usize..6,
            seed in 0u64..500,
        ) {
            use crate::drift::DriftModel;
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let levels: Vec<u8> = (0..rows * cols).map(|_| rng.random_range(1u8..16)).collect();
            let model = DriftModel {
                nu: 0.1,
                nu_sigma: 0.05,
                t0_cycles: 8,
                disturb_per_level: 0,
            };
            let mut xbar = Crossbar::new(rows, cols, 4);
            xbar.program(&levels);
            xbar.attach(&DeviceModel::ideal().with_drift(model), seed);
            let mut steps = 0;
            while xbar.drifted_cells() == 0 && steps < 20 {
                xbar.advance_cycles(1000);
                steps += 1;
            }
            prop_assert!(xbar.drifted_cells() > 0, "never drifted to a misread");
            let mut prng = StdRng::seed_from_u64(0);
            let report = xbar.scrub_rows(0, rows, &VerifyPolicy::default(), &mut prng);
            prop_assert!(report.unrecoverable.is_empty());
            for (i, &lvl) in levels.iter().enumerate() {
                prop_assert_eq!(xbar.effective_level(i / cols, i % cols), lvl);
            }
        }

        /// MVM is linear in the input: f(a) + f(b) == f(a+b).
        #[test]
        fn mvm_linearity(seed in 0u64..1000) {
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let levels = random_levels(4, 3, &mut rng);
            let a: Vec<u32> = (0..4).map(|_| rng.random_range(0u32..1 << 14)).collect();
            let b: Vec<u32> = (0..4).map(|_| rng.random_range(0u32..1 << 14)).collect();
            let sum: Vec<u32> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
            let mut xbar = Crossbar::new(4, 3, 4);
            xbar.program(&levels);
            let fa = xbar.mvm_spiked(&a, 16);
            let fb = xbar.mvm_spiked(&b, 16);
            let fs = xbar.mvm_spiked(&sum, 16);
            let added: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| x + y).collect();
            prop_assert_eq!(fs, added);
        }
    }
}
