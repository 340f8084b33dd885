//! A single ReRAM crossbar array performing in-situ matrix–vector
//! multiplication through the spike/integrate-and-fire path.

use crate::cell::ReramCell;
use crate::device::{DeviceModel, DeviceStack};
use crate::drift::DriftState;
use crate::fault::{FaultMap, ProgramReport, UnrecoverableCell, VerifyPolicy};
use crate::integrate_fire::IntegrateFire;
use crate::noise::NoiseState;
use crate::packed::{self, BitPlanes, PackedSpikes};
use crate::spike::{SpikeDriver, SpikeTrain};
use crate::wear::WearState;
use rand::Rng;
use stamped::Stamped;

/// Everything a read resolves: the cells' stored levels and the device
/// stack between them and the bit lines.
#[derive(Debug, Clone)]
struct Array {
    cells: Vec<ReramCell>, // row-major
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
    array: Stamped<Array>,
    /// Bit-plane decomposition of the levels a read saw at the stamped
    /// generation of `array`; served again only while that generation is
    /// current.
    plane_cache: Option<(u64, BitPlanes)>,
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
    pub fn new(rows: usize, cols: usize, bits: u8) -> Self {
        assert!(
            rows > 0 && cols > 0 && (1..=8).contains(&bits),
            "crossbar must be non-empty with 1..=8 bits per cell \
             (got {rows}x{cols}, {bits} bits)"
        );
        Crossbar {
            rows,
            cols,
            array: Stamped::new(Array {
                cells: vec![ReramCell::new(bits); rows * cols],
                device: DeviceStack::ideal(rows, cols),
            }),
            plane_cache: None,
            read_spikes: 0,
            write_spikes: 0,
            output_spikes: 0,
        }
    }

    /// Attaches every non-ideal component of `model`, replacing that
    /// component's state; ideal components are exact no-ops and leave the
    /// current state alone. `seed` should already be
    /// crossbar-qualified via [`crate::seedstream::crossbar_seed`].
    pub fn attach(&mut self, model: &DeviceModel, seed: u64) {
        self.array.get_mut().device.attach(model, seed);
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
        let a = &*self.array;
        let Some(d) = a.device.drift() else {
            return 0;
        };
        (0..self.rows * self.cols)
            .filter(|&i| {
                let (r, c) = (i / self.cols, i % self.cols);
                let cell = &a.cells[i];
                a.device.fault(r, c).is_none()
                    && d.is_degraded(r, c, cell.level(), cell.max_level())
            })
            .count()
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
        let (rows, cols, bits) = (self.rows, self.cols, self.cell_bits());
        let a = self.array.get_mut();
        a.device.renew_col(col);
        for r in 0..rows {
            let Some(cell) = a.cells.get_mut(r * cols + col) else {
                continue;
            };
            // Intent levels survive in the cells even when a fault pinned
            // the physical reads (program paths keep tracking the target).
            let target = cell.level();
            *cell = ReramCell::new(bits);
            report.ideal_pulses += u64::from(target);
            let w = cell.program_verify(target, policy, rng);
            report.pulses += u64::from(w.pulses);
            report.verify_reads += u64::from(w.attempts);
            if !w.verified {
                report.unrecoverable.push(UnrecoverableCell {
                    row: r,
                    col,
                    target,
                    actual: cell.level(),
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
        self.array.cells.iter().map(|c| c.level()).collect()
    }

    /// Overwrites the stored levels in place. Checkpoint restore only: no
    /// programming pulses are issued and no wear/drift/noise bookkeeping
    /// runs. Returns `false` (untouched) on a geometry mismatch; over-range
    /// levels clamp to the cell's top level.
    pub fn restore_levels(&mut self, levels: &[u8]) -> bool {
        if levels.len() != self.rows * self.cols {
            return false;
        }
        for (cell, &lvl) in self.array.get_mut().cells.iter_mut().zip(levels) {
            let _ = cell.program(lvl.min(cell.max_level()));
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
        self.array.cells[0].bits()
    }

    /// Level the programming logic last stored at `(row, col)` (what the
    /// write *wanted*; faults are not applied).
    pub fn level(&self, row: usize, col: usize) -> u8 {
        self.array.cells[row * self.cols + col].level()
    }

    /// Level the cell at `(row, col)` actually presents on a read: the
    /// stored level as resolved through the device stack — a fault pins
    /// it, otherwise drift and disturb skew it, and noise applies on top.
    pub fn effective_level(&self, row: usize, col: usize) -> u8 {
        let cell = &self.array.cells[row * self.cols + col];
        self.array
            .device
            .resolve(row, col, cell.level(), cell.max_level())
    }

    /// Programs the whole array from a row-major level matrix; counts the
    /// tuning pulses as write spikes. Returns the pulse count. Over-range
    /// levels saturate at the cell's top level.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is not `rows × cols`.
    pub fn program(&mut self, levels: &[Vec<u8>]) -> u64 {
        assert_eq!(levels.len(), self.rows, "level matrix row count mismatch");
        let cols = self.cols;
        let a = self.array.get_mut();
        let mut pulses = 0u64;
        for (r, row) in levels.iter().enumerate() {
            assert_eq!(row.len(), cols, "level matrix column count mismatch");
            for (c, &lvl) in row.iter().enumerate() {
                let p = a.cells[r * cols + c].program(lvl) as u64;
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
    /// Panics if `levels` is not `rows × cols`.
    pub fn program_verify(
        &mut self,
        levels: &[Vec<u8>],
        policy: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> ProgramReport {
        assert_eq!(levels.len(), self.rows, "level matrix row count mismatch");
        let cols = self.cols;
        let a = self.array.get_mut();
        let mut report = ProgramReport::default();
        for (r, row) in levels.iter().enumerate() {
            assert_eq!(row.len(), cols, "level matrix column count mismatch");
            for (c, &target) in row.iter().enumerate() {
                let cell = &mut a.cells[r * cols + c];
                let prev = cell.level();
                report.ideal_pulses += (prev as i32 - target as i32).unsigned_abs() as u64;
                match a.device.fault(r, c) {
                    Some(kind) => {
                        // The driver pulses and verifies up to the budget,
                        // but the cell never moves.
                        let actual = kind.effective_level(cell.max_level());
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
                        cell.program(target);
                        // The wasted retry pulses still stress the pinned
                        // cell's oxide.
                        a.device.note_wear(r, c, wasted);
                    }
                    None => {
                        let w = cell.program_verify(target, policy, rng);
                        report.pulses += w.pulses as u64;
                        report.verify_reads += w.attempts as u64;
                        if !w.verified {
                            report.unrecoverable.push(UnrecoverableCell {
                                row: r,
                                col: c,
                                target,
                                actual: cell.level(),
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

    /// The bit-plane decomposition of the levels the next read presents:
    /// the cached one while the array's generation is unchanged, a fresh
    /// build otherwise. Resolves through the device stack only when it
    /// can alter a read.
    fn take_planes(&mut self) -> BitPlanes {
        let generation = self.array.generation();
        if let Some((g, planes)) = self.plane_cache.take() {
            if g == generation {
                return planes;
            }
        }
        let (cols, bits, a) = (self.cols, self.cell_bits(), &*self.array);
        if a.device.is_transparent() {
            BitPlanes::pack(self.rows, cols, bits, |r, c| a.cells[r * cols + c].level())
        } else {
            BitPlanes::pack(self.rows, cols, bits, |r, c| {
                let cell = &a.cells[r * cols + c];
                a.device.resolve(r, c, cell.level(), cell.max_level())
            })
        }
    }

    /// Books one array read on the device (read disturb, the next noise
    /// epoch) when that can change what later reads see. Any other read
    /// leaves the array — and so its generation and plane cache — alone.
    fn note_read(&mut self, slot_reads: impl Iterator<Item = u64>) {
        if self.array.device.reads_perturb() {
            self.array.get_mut().device.note_read(slot_reads);
        }
    }

    /// In-situ MVM via the spike path: encodes `input` with an `input_bits`
    /// spike driver, streams the slots through the array, integrates the
    /// weighted bitline currents and fires. Returns the exact products
    /// `out[c] = Σ_r input[r]·level[r][c]`.
    ///
    /// This is the packed hot path: spike trains are packed 64 word lines
    /// per `u64` per time slot and the (effective) conductances are
    /// bit-plane decomposed, so each slot×plane partial sum is a popcount
    /// and a shift — bitwise identical to [`mvm_spiked_scalar`]
    /// (differentially tested), an order of magnitude fewer operations.
    /// The bit-plane decomposition is cached, stamped with the array's
    /// generation, and rebuilt once anything changed the levels or the
    /// device state (writes, scrub, repair, clock advance, read disturb,
    /// per-read noise).
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
        let bits = SpikeDriver::new(input_bits).bits();
        let spikes = PackedSpikes::encode(input, bits);
        self.read_spikes += spikes.spike_count();

        // Reads see the *effective* levels, resolved once before streaming:
        // disturb and the read-epoch bump from this MVM land afterwards, so
        // within one MVM every slot integrates the same conductances.
        let generation = self.array.generation();
        let planes = self.take_planes();

        let mut fires: Vec<IntegrateFire> = vec![IntegrateFire::new(); self.cols];
        packed::integrate(&spikes, &planes, &mut fires);
        let out: Vec<u64> = fires.iter_mut().map(|f| f.fire()).collect();
        self.output_spikes += out.iter().sum::<u64>();

        // Every slot that drove a word line disturbed that row's cells.
        let low_mask = if bits >= 32 {
            u32::MAX
        } else {
            (1u32 << bits) - 1
        };
        self.note_read(
            input
                .iter()
                .map(|&v| u64::from((v & low_mask).count_ones())),
        );
        self.plane_cache = Some((generation, planes));
        out
    }

    /// The original scalar slot × row × column walk, retained verbatim as
    /// the differential-testing reference for [`mvm_spiked`]
    /// (identical output bits, spike accounting, disturb and noise-epoch
    /// bookkeeping — property-tested). It never touches the plane cache.
    ///
    /// [`mvm_spiked`]: Self::mvm_spiked
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
        let (rows, cols) = (self.rows, self.cols);
        let a = self.array.get_mut();
        let mut report = ProgramReport::default();
        for i in 0..row_count.min(rows) {
            let r = (row_start + i) % rows;
            for c in 0..cols {
                if a.device.fault(r, c).is_some() {
                    report.verify_reads += 1;
                    continue;
                }
                let cell = &mut a.cells[r * cols + c];
                let target = cell.level();
                let actual = a.device.resolve(r, c, target, cell.max_level());
                // Materialize the degradation in the cell, then drive it
                // back through the standard verify loop. A clean cell
                // costs exactly one verify read and zero pulses.
                let _ = cell.program(actual);
                let w = cell.program_verify(target, policy, rng);
                report.ideal_pulses +=
                    u64::from((i32::from(actual) - i32::from(target)).unsigned_abs());
                report.pulses += u64::from(w.pulses);
                report.verify_reads += u64::from(w.attempts);
                if !w.verified {
                    report.unrecoverable.push(UnrecoverableCell {
                        row: r,
                        col: c,
                        target,
                        actual: cell.level(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reference_mvm(levels: &[Vec<u8>], input: &[u32]) -> Vec<u64> {
        let cols = levels[0].len();
        (0..cols)
            .map(|c| {
                levels
                    .iter()
                    .zip(input)
                    .map(|(row, &x)| row[c] as u64 * x as u64)
                    .sum()
            })
            .collect()
    }

    #[test]
    fn mvm_known_values() {
        let mut xbar = Crossbar::new(3, 2, 4);
        let levels = vec![vec![1, 2], vec![3, 4], vec![5, 6]];
        xbar.program(&levels);
        let out = xbar.mvm_spiked(&[7, 8, 9], 8);
        assert_eq!(out, vec![7 + 24 + 45, 14 + 32 + 54]);
    }

    #[test]
    fn spike_accounting() {
        let mut xbar = Crossbar::new(2, 2, 4);
        xbar.program(&[vec![15, 15], vec![15, 15]]);
        assert_eq!(xbar.write_spikes(), 60);
        xbar.mvm_spiked(&[0b101, 0b1], 4);
        assert_eq!(xbar.read_spikes(), 3); // popcounts 2 + 1
        assert!(xbar.output_spikes() > 0);
    }

    #[test]
    fn zero_input_zero_output() {
        let mut xbar = Crossbar::new(4, 4, 4);
        xbar.program(&[vec![15; 4], vec![15; 4], vec![15; 4], vec![15; 4]]);
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
        let levels = vec![vec![9, 12], vec![15, 6]];
        let mut xbar = Crossbar::new(2, 2, 4);
        xbar.program(&levels);
        xbar.attach(&DeviceModel::ideal().with_drift(model), 5);

        let fresh = xbar.mvm_spiked(&[1, 1], 4);
        assert_eq!(fresh, reference_mvm(&levels, &[1, 1]));

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
        let levels = vec![vec![15, 15], vec![15, 15]];
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
        let levels = vec![vec![3, 3], vec![3, 3]];
        let mut xbar = Crossbar::new(2, 2, 4);
        xbar.program(&levels);
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
        xbar.program(&[vec![5; 3], vec![5; 3], vec![5; 3]]);
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
        xbar.program(&[vec![7, 7], vec![7, 7]]);
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
    #[should_panic(expected = "row count mismatch")]
    fn program_rejects_bad_shape() {
        Crossbar::new(2, 2, 4).program(&[vec![0, 0]]);
    }

    #[test]
    fn stuck_cells_distort_reads_until_cleared() {
        use crate::fault::FaultKind;
        let mut xbar = Crossbar::new(2, 2, 4);
        let levels = vec![vec![3, 5], vec![7, 9]];
        xbar.program(&levels);
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
        let report = xbar.program_verify(&[vec![4, 4], vec![4, 4]], &policy, &mut rng);

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
        let levels = vec![vec![1, 2, 3], vec![4, 5, 6]];
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

    #[test]
    fn set_faults_rejects_wrong_shape() {
        let mut xbar = Crossbar::new(2, 2, 4);
        assert!(!xbar.set_faults(FaultMap::pristine(3, 2)));
        assert!(xbar.fault_map().is_none());
    }

    #[test]
    fn noise_corrupts_mvm_deterministically() {
        use crate::noise::NoiseModel;
        let levels = vec![vec![9, 12], vec![15, 6]];
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
            reference_mvm(&levels, &[3, 5]),
            "strong noise must perturb the product"
        );
        // A second MVM draws the next read epoch — the replayed pair still
        // agrees with itself.
        assert_eq!(a.mvm_spiked(&[3, 5], 4), b.mvm_spiked(&[3, 5], 4));
    }

    #[test]
    fn ideal_noise_attach_leaves_mvm_bits_identical() {
        use crate::noise::NoiseModel;
        let levels = vec![vec![1, 14], vec![7, 3], vec![0, 9]];
        let mut plain = Crossbar::new(3, 2, 4);
        plain.program(&levels);
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
        let levels = vec![vec![3u8, 5], vec![7, 9], vec![11, 13]];
        let input = [1u32, 70_000, u32::MAX];
        let mut packed = Crossbar::new(3, 2, 4);
        packed.program(&levels);
        let mut scalar = packed.clone();
        let out = packed.mvm_spiked(&input, 40);
        // A 40-bit request clamps to the 32-slot ladder, which injects the
        // full u32 value — the exact integer product.
        assert_eq!(out, reference_mvm(&levels, &input));
        assert_eq!(out, scalar.mvm_spiked_scalar(&input, 40));
        assert_eq!(packed.read_spikes(), scalar.read_spikes());
    }

    /// The plane cache is keyed on the array's generation: reads that
    /// leave the device untouched keep the stamp (and the cache), every
    /// `&mut` path to levels or device state moves it, and a perturbing
    /// read moves it too — so the next packed MVM rebuilds and agrees with
    /// the scalar reference, which never caches.
    #[test]
    fn plane_cache_is_keyed_on_the_array_generation() {
        use crate::drift::DriftModel;
        let levels = vec![vec![9u8, 1], vec![0, 5], vec![13, 2]];
        let mut xbar = Crossbar::new(3, 2, 4);
        xbar.program(&levels);
        let g0 = xbar.array.generation();
        xbar.mvm_spiked(&[1, 2, 3], 4);
        xbar.mvm_spiked(&[3, 2, 1], 4);
        assert_eq!(xbar.array.generation(), g0, "ideal reads are pure");
        assert_eq!(xbar.plane_cache.as_ref().map(|c| c.0), Some(g0));

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
            let packed = xbar.mvm_spiked(&[15, 15, 15], 4);
            assert_eq!(packed, reference.mvm_spiked_scalar(&[15, 15, 15], 4));
            assert_ne!(xbar.array.generation(), g, "disturbing reads move it");
        }
    }

    /// Every mutation path, run on a warm plane cache, leaves the packed
    /// MVM bitwise equal to the scalar reference on a clone.
    #[test]
    fn mutations_never_serve_stale_planes() {
        use crate::fault::{FaultKind, FaultModel};
        use crate::noise::NoiseModel;
        use crate::wear::WearModel;
        use rand::{rngs::StdRng, SeedableRng};
        let wear = DeviceModel::ideal().with_wear(WearModel::with_endurance(4.0));
        let swing = [vec![15; 4], vec![0; 4], vec![15; 4], vec![0; 4]];
        let mutations: [fn(&mut Crossbar); 9] = [
            |x| {
                x.program(&vec![vec![2, 7, 1, 8]; 4]);
            },
            |x| {
                let rng = &mut StdRng::seed_from_u64(1);
                x.program_verify(&vec![vec![3, 1, 4, 1]; 4], &VerifyPolicy::default(), rng);
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
            let packed = xbar.mvm_spiked(&[3, 1, 4, 1], 4);
            let scalar = reference.mvm_spiked_scalar(&[3, 1, 4, 1], 4);
            assert_eq!(packed, scalar, "mutation {i} served stale planes");
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
        xbar.program(&[vec![15, 15], vec![15, 15]]);
        assert!(xbar.fault_map().is_none(), "no deaths before the budget");
        // +15 pulses (down to 0) crosses every 20-pulse budget: the whole
        // array dies, pinned at level 0 on every read.
        xbar.program(&[vec![0, 0], vec![0, 0]]);
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
        let report = xbar.program_verify(&[vec![9]], &noisy, &mut rng);
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
        xbar.program(&[vec![9, 5], vec![7, 3]]);
        // Burn out column 0 only.
        xbar.program(&[vec![0, 5], vec![15, 3]]);
        xbar.program(&[vec![9, 5], vec![7, 3]]);
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
        let levels = vec![vec![1u8, 14], vec![7, 3]];
        let mut plain = Crossbar::new(2, 2, 4);
        plain.program(&levels);
        let mut worn = plain.clone();
        worn.attach(&DeviceModel::ideal().with_wear(WearModel::ideal()), 99);
        assert!(worn.wear_state().is_none());
        worn.program(&[vec![4, 4], vec![4, 4]]);
        plain.program(&[vec![4, 4], vec![4, 4]]);
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
        xbar.program(&[vec![9; 3], vec![5; 3], vec![12; 3]]);
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

        /// Differential pin: the packed hot path is bitwise identical to
        /// the scalar reference — outputs *and* spike/disturb/noise
        /// bookkeeping — across random crossbars, every legal driver
        /// resolution, and attached fault / drift(+disturb) / noise state,
        /// over several consecutive MVMs (which exercises plane-cache
        /// reuse and invalidation).
        #[test]
        fn packed_mvm_matches_scalar_under_nonidealities(
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
            let levels: Vec<Vec<u8>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.random_range(0u8..16)).collect())
                .collect();
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
            let levels: Vec<Vec<u8>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.random_range(0u8..16)).collect())
                .collect();
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
            let levels: Vec<Vec<u8>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.random_range(0u8..16)).collect())
                .collect();
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
            let levels: Vec<Vec<u8>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.random_range(0u8..16)).collect())
                .collect();
            let input: Vec<u32> = (0..rows).map(|_| rng.random_range(0u32..65536)).collect();
            let mut xbar = Crossbar::new(rows, cols, 4);
            xbar.program(&levels);
            prop_assert_eq!(xbar.mvm_spiked(&input, 16), reference_mvm(&levels, &input));
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
            let levels: Vec<Vec<u8>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.random_range(1u8..16)).collect())
                .collect();
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
            for (r, row) in levels.iter().enumerate() {
                for (c, &lvl) in row.iter().enumerate() {
                    prop_assert_eq!(xbar.effective_level(r, c), lvl);
                }
            }
        }

        /// MVM is linear in the input: f(a) + f(b) == f(a+b).
        #[test]
        fn mvm_linearity(seed in 0u64..1000) {
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let levels: Vec<Vec<u8>> = (0..4)
                .map(|_| (0..3).map(|_| rng.random_range(0u8..16)).collect())
                .collect();
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
