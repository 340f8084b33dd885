//! Signed, full-resolution matrices on ReRAM: positive/negative array pairs
//! plus the resolution-compensation scheme of Fig. 14.
//!
//! A 16-bit signed weight matrix is realised as **eight** crossbars:
//! positive and negative magnitude parts (the subtractor in the activation
//! component recombines them, Sec. 4.2.3), each split into four 4-bit
//! segments stored in four array groups whose outputs are shift-added
//! (`<<0, <<4, <<8, <<12` — Fig. 14a). Weight updates read the old segments,
//! apply the averaged partial derivative and write all groups back
//! (Fig. 14b).

use crate::crossbar::Crossbar;
use crate::device::DeviceModel;
use crate::drift::DriftModel;
use crate::energy::ReramParams;
use crate::fault::{FaultModel, ProgramReport, VerifyPolicy};
use crate::noise::NoiseModel;
use crate::seedstream;
use crate::wear::WearModel;
use rand::Rng;

/// A float matrix programmed onto ReRAM crossbars, supporting exact
/// fixed-point matrix–vector products and in-place weight updates.
///
/// Layout: `weights[out][in]` (row-major `[out_dim × in_dim]`, matching an
/// inner-product layer's `W`), mapped with one bit line per output and one
/// word line per input.
///
/// # Example
///
/// ```
/// use pipelayer_reram::{ReramMatrix, ReramParams};
///
/// let w = vec![1.0f32, -0.5, 0.25, 0.75]; // 2x2, row-major
/// let mut m = ReramMatrix::program(&w, 2, 2, &ReramParams::default());
/// let y = m.matvec(&[1.0, 1.0]);
/// assert!((y[0] - 0.5).abs() < 1e-3);
/// assert!((y[1] - 1.0).abs() < 1e-3);
/// ```
/// Per-segment-group `(positive, negative)` level matrices, `[row][col]`.
type GroupLevels = Vec<(Vec<Vec<u8>>, Vec<Vec<u8>>)>;

#[derive(Debug, Clone)]
pub struct ReramMatrix {
    in_dim: usize,
    out_dim: usize,
    weight_scale: f32,
    data_bits: u8,
    cell_bits: u8,
    /// One `(positive, negative)` crossbar pair per 4-bit segment group,
    /// least-significant group first.
    groups: Vec<(Crossbar, Crossbar)>,
    /// Outputs disconnected by the degradation path (spares exhausted);
    /// masked bit lines contribute 0 to every matvec and read.
    masked_outputs: Vec<bool>,
}

impl ReramMatrix {
    /// Quantizes and programs `weights` (`out_dim × in_dim`, row-major).
    ///
    /// The weight scale is chosen so the largest magnitude maps to the full
    /// signed range of `params.data_bits`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero or inconsistent with `weights.len()`,
    /// or `data_bits` is not a multiple of `cell_bits`.
    pub fn program(weights: &[f32], out_dim: usize, in_dim: usize, params: &ReramParams) -> Self {
        assert!(out_dim > 0 && in_dim > 0, "matrix must be non-empty");
        assert_eq!(
            weights.len(),
            out_dim * in_dim,
            "weight buffer size mismatch"
        );
        assert_eq!(
            params.data_bits % params.cell_bits,
            0,
            "data bits must be a multiple of cell bits"
        );
        let n_groups = (params.data_bits / params.cell_bits) as usize;
        let mut m = ReramMatrix {
            in_dim,
            out_dim,
            weight_scale: 0.0,
            data_bits: params.data_bits,
            cell_bits: params.cell_bits,
            groups: (0..n_groups)
                .map(|_| {
                    (
                        Crossbar::new(in_dim, out_dim, params.cell_bits),
                        Crossbar::new(in_dim, out_dim, params.cell_bits),
                    )
                })
                .collect(),
            masked_outputs: vec![false; out_dim],
        };
        m.write(weights);
        m
    }

    /// Attaches `model` to every member crossbar (see
    /// [`Crossbar::attach`]), with per-crossbar sub-seeds from the
    /// documented `(seed, crossbar, row, col, epoch)` scheme so the member
    /// arrays fail, age, scatter and wear independently. Ideal components
    /// are exact no-ops, so parts attached by earlier calls (possibly under
    /// other seeds) stay in place.
    pub fn attach(&mut self, model: &DeviceModel, seed: u64) {
        for (i, xbar) in self.crossbars_mut().enumerate() {
            xbar.attach(model, seedstream::crossbar_seed(seed, i as u64));
        }
    }

    /// [`program`](Self::program) followed by attaching persistent faults
    /// drawn from `faults`. The initial write is *not* verified — pair with
    /// [`write_verify`](Self::write_verify) to discover unrecoverable cells.
    ///
    /// # Panics
    ///
    /// Same conditions as [`program`](Self::program).
    pub fn program_with_faults(
        weights: &[f32],
        out_dim: usize,
        in_dim: usize,
        params: &ReramParams,
        faults: &FaultModel,
        seed: u64,
    ) -> Self {
        let mut m = Self::program(weights, out_dim, in_dim, params);
        m.attach(&DeviceModel::ideal().with_faults(*faults), seed);
        m
    }

    /// Shorthand for [`attach`](Self::attach) with only `model` as drift.
    pub fn attach_drift(&mut self, model: DriftModel, seed: u64) {
        self.attach(&DeviceModel::ideal().with_drift(model), seed);
    }

    /// Shorthand for [`attach`](Self::attach) with only `model` as noise.
    pub fn attach_noise(&mut self, model: NoiseModel, seed: u64) {
        self.attach(&DeviceModel::ideal().with_noise(model), seed);
    }

    /// Shorthand for [`attach`](Self::attach) with only `model` as wear.
    pub fn attach_wear(&mut self, model: WearModel, seed: u64) {
        self.attach(&DeviceModel::ideal().with_wear(model), seed);
    }

    /// Cells across all member crossbars that have exhausted their write
    /// budget (0 without an attached wear model).
    pub fn wear_exhausted_cells(&self) -> usize {
        self.crossbars()
            .filter_map(|x| x.wear_state())
            .map(|w| w.exhausted_cells())
            .sum()
    }

    /// The smallest remaining write budget on word line `row` across all
    /// member crossbars — `u64::MAX` without wear. A scrub pass below its
    /// headroom threshold skips the row instead of burning its last writes.
    pub fn row_wear_headroom(&self, row: usize) -> u64 {
        self.crossbars()
            .map(|x| x.row_wear_headroom(row))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Shared read access to the member crossbars (pos, neg interleaved,
    /// least-significant group first) — checkpoint snapshot plumbing.
    pub fn crossbars(&self) -> impl Iterator<Item = &Crossbar> {
        self.groups.iter().flat_map(|(p, n)| [p, n])
    }

    /// Mutable access to the member crossbars in the same order as
    /// [`crossbars`](Self::crossbars) — checkpoint restore plumbing.
    pub fn crossbars_mut(&mut self) -> impl Iterator<Item = &mut Crossbar> {
        self.groups.iter_mut().flat_map(|(p, n)| [p, n].into_iter())
    }

    /// Restores the weight scale persisted by a checkpoint (the quantizer
    /// recomputes it on every write, so this only matters between a restore
    /// and the first update).
    pub fn restore_weight_scale(&mut self, scale: f32) {
        self.weight_scale = scale;
    }

    /// Restores the masked-output set persisted by a checkpoint;
    /// out-of-range indices are ignored.
    pub fn restore_masked_outputs(&mut self, masked: &[usize]) {
        self.masked_outputs.fill(false);
        for &o in masked {
            if let Some(m) = self.masked_outputs.get_mut(o) {
                *m = true;
            }
        }
    }

    /// Advances every member crossbar's degradation clock by `cycles`
    /// logical pipeline cycles (one processed image = one cycle).
    pub fn advance_cycles(&mut self, cycles: u64) {
        for x in self.crossbars_mut() {
            x.advance_cycles(cycles);
        }
    }

    /// Cells across all member crossbars that currently read at a level
    /// other than the one programmed (drift/disturb damage scrub can fix).
    pub fn drifted_cells(&self) -> usize {
        self.crossbars().map(Crossbar::drifted_cells).sum()
    }

    /// Scrubs `row_count` word lines (wrapping from `row_start`) on every
    /// member crossbar: drifted cells are re-programmed back to their
    /// stored level through the program-and-verify loop; the merged report
    /// carries the exact pulse/read cost of the pass.
    pub fn scrub_rows(
        &mut self,
        row_start: usize,
        row_count: usize,
        policy: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> ProgramReport {
        let mut report = ProgramReport::default();
        for x in self.crossbars_mut() {
            report.merge(x.scrub_rows(row_start, row_count, policy, rng));
        }
        report
    }

    /// Input dimension (word lines).
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension (bit lines).
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The LSB value of the stored fixed-point weights.
    pub fn weight_scale(&self) -> f32 {
        self.weight_scale
    }

    fn qmax(&self) -> i64 {
        (1i64 << (self.data_bits - 1)) - 1
    }

    /// (Re)programs the matrix — the weight-update write of Fig. 14(b).
    /// Recomputes the weight scale from the new values.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` mismatches the geometry.
    pub fn write(&mut self, weights: &[f32]) {
        let levels = self.quantize_levels(weights);
        for ((pos, neg), (pos_levels, neg_levels)) in self.groups.iter_mut().zip(&levels) {
            pos.program(pos_levels);
            neg.program(neg_levels);
        }
    }

    /// (Re)programs the matrix through the bounded program-and-verify loop.
    /// The merged report's [`UnrecoverableCell::col`](crate::fault::UnrecoverableCell)
    /// values are *logical output indices* (bit lines map one-to-one onto
    /// outputs), ready for the spare-remapping layer.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` mismatches the geometry.
    pub fn write_verify(
        &mut self,
        weights: &[f32],
        policy: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> ProgramReport {
        let levels = self.quantize_levels(weights);
        let mut report = ProgramReport::default();
        for ((pos, neg), (pos_levels, neg_levels)) in self.groups.iter_mut().zip(&levels) {
            report.merge(pos.program_verify(pos_levels, policy, rng));
            report.merge(neg.program_verify(neg_levels, policy, rng));
        }
        report
    }

    /// Quantizes `weights` into per-group `(positive, negative)` level
    /// matrices and updates the weight scale.
    fn quantize_levels(&mut self, weights: &[f32]) -> GroupLevels {
        assert_eq!(
            weights.len(),
            self.out_dim * self.in_dim,
            "weight buffer size mismatch"
        );
        let absmax = weights.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
        self.weight_scale = if absmax == 0.0 {
            1.0
        } else {
            absmax / self.qmax() as f32
        };
        let mask = (1u32 << self.cell_bits) - 1;
        let (in_dim, out_dim, cell_bits) = (self.in_dim, self.out_dim, self.cell_bits);
        let (qmax, scale) = (self.qmax(), self.weight_scale);
        (0..self.groups.len())
            .map(|g| {
                let shift = g as u32 * cell_bits as u32;
                let mut pos_levels = vec![vec![0u8; out_dim]; in_dim];
                let mut neg_levels = vec![vec![0u8; out_dim]; in_dim];
                for o in 0..out_dim {
                    for i in 0..in_dim {
                        let w = weights[o * in_dim + i];
                        let q = (w / scale).round() as i64;
                        let q = q.clamp(-qmax, qmax);
                        let nibble = (((q.unsigned_abs()) >> shift) as u32 & mask) as u8;
                        if q >= 0 {
                            pos_levels[i][o] = nibble;
                        } else {
                            neg_levels[i][o] = nibble;
                        }
                    }
                }
                (pos_levels, neg_levels)
            })
            .collect()
    }

    /// Remaps the given logical outputs onto fault-free spare bit lines:
    /// every member crossbar's faults in those columns are cleared. The
    /// stored levels already hold the intended values, so no rewrite is
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics if an output index is out of range.
    pub fn repair_outputs(&mut self, outputs: &[usize]) {
        for &o in outputs {
            assert!(o < self.out_dim, "output {o} out of range");
            for x in self.crossbars_mut() {
                x.clear_fault_col(o);
            }
            self.masked_outputs[o] = false;
        }
    }

    /// Remaps the given logical outputs onto fresh spare bit lines at
    /// honest device cost: unlike [`repair_outputs`](Self::repair_outputs)
    /// (which models only the routing change), the spare's cells start
    /// blank, so the displaced column is re-programmed from the stored
    /// intent levels through the full program-and-verify loop on every
    /// member crossbar. The merged report carries the real pulse /
    /// verify-read bill (with `UnrecoverableCell::col` as logical output
    /// indices), and under wear the spare cells draw fresh budgets — an
    /// unlucky spare can die during its own commissioning and re-enter the
    /// repair ladder. Remapped outputs are unmasked. Out-of-range indices
    /// are ignored.
    pub fn remap_outputs(
        &mut self,
        outputs: &[usize],
        policy: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> ProgramReport {
        let mut report = ProgramReport::default();
        for &o in outputs {
            if o >= self.out_dim {
                continue;
            }
            for x in self.crossbars_mut() {
                report.merge(x.reprogram_col_from_spare(o, policy, rng));
            }
            self.masked_outputs[o] = false;
        }
        report
    }

    /// Disconnects logical output `o` — the graceful-degradation path when
    /// the spare budget is exhausted. Masked outputs contribute exactly 0 to
    /// matvecs and reads (a zero unit, not a corrupted one).
    ///
    /// # Panics
    ///
    /// Panics if `o` is out of range.
    pub fn mask_output(&mut self, o: usize) {
        assert!(o < self.out_dim, "output {o} out of range");
        self.masked_outputs[o] = true;
    }

    /// Logical outputs currently masked off.
    pub fn masked_outputs(&self) -> Vec<usize> {
        self.masked_outputs
            .iter()
            .enumerate()
            .filter_map(|(o, &m)| if m { Some(o) } else { None })
            .collect()
    }

    /// Faulty cells within the given logical outputs' bit lines, across all
    /// member crossbars (0 after those outputs were repaired).
    pub fn fault_count_in_outputs(&self, outputs: &[usize]) -> usize {
        self.crossbars()
            .filter_map(|xbar| xbar.fault_map())
            .map(|f| {
                outputs
                    .iter()
                    .map(|&o| (0..f.rows()).filter(|&r| f.get(r, o).is_some()).count())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Faulty cells across all member crossbars.
    pub fn fault_count(&self) -> usize {
        self.crossbars()
            .filter_map(|x| x.fault_map())
            .map(|f| f.fault_count())
            .sum()
    }

    /// Reads the stored (quantized) weights back — the "old weights are read
    /// out" step of the update path (Sec. 4.4.2).
    pub fn read(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.out_dim * self.in_dim];
        for (g, (pos, neg)) in self.groups.iter().enumerate() {
            let shift = g as u32 * self.cell_bits as u32;
            for o in 0..self.out_dim {
                if self.masked_outputs[o] {
                    continue;
                }
                for i in 0..self.in_dim {
                    // Reads go through the analog path, so stuck cells
                    // corrupt what comes back.
                    let p = pos.effective_level(i, o) as i64;
                    let n = neg.effective_level(i, o) as i64;
                    out[o * self.in_dim + i] += ((p - n) << shift) as f32 * self.weight_scale;
                }
            }
        }
        out
    }

    /// Fixed-point matrix–vector product `W·x` through the full analog path:
    /// input quantization (spike driver `V0` scaling), separate
    /// positive/negative input phases, per-segment crossbar MVMs,
    /// shift-add recombination and positive/negative subtraction.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()`.
    pub fn matvec(&mut self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.in_dim, "input length mismatch");
        let absmax = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        if absmax == 0.0 {
            return vec![0.0; self.out_dim];
        }
        let in_qmax = ((1u64 << self.data_bits) - 1) as f32 / 2.0;
        let x_scale = absmax / in_qmax;
        let q: Vec<i64> = x.iter().map(|&v| (v / x_scale).round() as i64).collect();

        let mut acc = vec![0i64; self.out_dim];
        for sign in [1i64, -1] {
            let phase: Vec<u32> = q
                .iter()
                .map(|&v| if v * sign > 0 { (v * sign) as u32 } else { 0 })
                .collect();
            if phase.iter().all(|&v| v == 0) {
                continue;
            }
            for (g, (pos, neg)) in self.groups.iter_mut().enumerate() {
                let shift = g as u32 * self.cell_bits as u32;
                let yp = pos.mvm_spiked(&phase, self.data_bits);
                let yn = neg.mvm_spiked(&phase, self.data_bits);
                for (a, (&p, &n)) in acc.iter_mut().zip(yp.iter().zip(&yn)) {
                    // Subtractor (activation component) + segment shift-add.
                    *a += sign * ((p as i64 - n as i64) << shift);
                }
            }
        }
        acc.iter()
            .zip(&self.masked_outputs)
            .map(|(&a, &masked)| {
                if masked {
                    0.0
                } else {
                    a as f32 * self.weight_scale * x_scale
                }
            })
            .collect()
    }

    /// Batched [`matvec`](Self::matvec): one call per *batch* of input
    /// vectors. Semantics are exactly `xs.iter().map(|x| self.matvec(x))`
    /// — per-sample quantization, phase splitting, spike accounting and
    /// disturb/noise-epoch ordering are all identical — but because no
    /// write lands between samples, every member crossbar resolves its
    /// bit-plane decomposition once and reuses it across the whole batch.
    /// This is the multi-image kernel the functional training paths feed.
    ///
    /// # Panics
    ///
    /// Panics if any input's length differs from `in_dim()`.
    pub fn matvec_batch(&mut self, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        xs.iter().map(|x| self.matvec(x)).collect()
    }

    /// Total input (read) spikes across all member crossbars.
    pub fn read_spikes(&self) -> u64 {
        self.crossbars().map(Crossbar::read_spikes).sum()
    }

    /// Total programming pulses across all member crossbars.
    pub fn write_spikes(&self) -> u64 {
        self.crossbars().map(Crossbar::write_spikes).sum()
    }

    /// Number of physical crossbars backing this matrix.
    pub fn crossbar_count(&self) -> usize {
        self.groups.len() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng as _;

    fn reference(w: &[f32], out: usize, inp: usize, x: &[f32]) -> Vec<f32> {
        (0..out)
            .map(|o| (0..inp).map(|i| w[o * inp + i] * x[i]).sum())
            .collect()
    }

    #[test]
    fn identity_matvec() {
        let w = vec![1.0, 0.0, 0.0, 1.0];
        let mut m = ReramMatrix::program(&w, 2, 2, &ReramParams::default());
        let y = m.matvec(&[0.3, -0.7]);
        assert!(
            (y[0] - 0.3).abs() < 1e-3 && (y[1] + 0.7).abs() < 1e-3,
            "{y:?}"
        );
    }

    #[test]
    fn read_recovers_quantized_weights() {
        let w = vec![0.5, -0.25, 0.125, 1.0, -1.0, 0.0];
        let m = ReramMatrix::program(&w, 2, 3, &ReramParams::default());
        let r = m.read();
        for (a, b) in w.iter().zip(&r) {
            assert!((a - b).abs() < 2.0 * m.weight_scale(), "{a} vs {b}");
        }
    }

    #[test]
    fn update_reprograms() {
        let mut m = ReramMatrix::program(&[1.0, 1.0, 1.0, 1.0], 2, 2, &ReramParams::default());
        let before = m.write_spikes();
        m.write(&[0.5, -0.5, 0.25, -0.25]);
        assert!(m.write_spikes() > before, "update must issue write pulses");
        let y = m.matvec(&[1.0, 0.0]);
        assert!(
            (y[0] - 0.5).abs() < 1e-2 && (y[1] - 0.25).abs() < 1e-2,
            "{y:?}"
        );
    }

    #[test]
    fn eight_crossbars_for_16bit_weights() {
        let m = ReramMatrix::program(&[1.0], 1, 1, &ReramParams::default());
        assert_eq!(m.crossbar_count(), 8); // 4 segment groups × (pos, neg)
    }

    #[test]
    fn zero_input_shortcircuits() {
        let mut m = ReramMatrix::program(&[1.0, 2.0], 2, 1, &ReramParams::default());
        assert_eq!(m.matvec(&[0.0]), vec![0.0, 0.0]);
        assert_eq!(m.read_spikes(), 0);
    }

    #[test]
    fn faulty_matrix_is_deterministic_and_repairable() {
        let w = vec![0.5f32; 16 * 8];
        let faults = FaultModel::with_stuck_rate(0.05);
        let params = ReramParams::default();
        let a = ReramMatrix::program_with_faults(&w, 8, 16, &params, &faults, 9);
        let b = ReramMatrix::program_with_faults(&w, 8, 16, &params, &faults, 9);
        assert!(a.fault_count() > 0, "5% of 2048 cells should fault");
        assert_eq!(a.fault_count(), b.fault_count());
        assert_eq!(a.read(), b.read(), "same seed, same corrupted reads");

        let mut m = a;
        let policy = VerifyPolicy::with_attempts(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let report = m.write_verify(&w, &policy, &mut rng);
        assert!(!report.unrecoverable.is_empty());
        let bad: Vec<usize> = report.unrecoverable.iter().map(|u| u.col).collect();
        m.repair_outputs(&bad);
        assert_eq!(m.fault_count_in_outputs(&bad), 0);

        // After repair, a verified rewrite succeeds everywhere repaired.
        let report = m.write_verify(&w, &policy, &mut rng);
        assert!(report.unrecoverable.iter().all(|u| !bad.contains(&u.col)));
    }

    #[test]
    fn masked_outputs_read_and_compute_zero() {
        let w = vec![1.0f32, 2.0, 3.0, 4.0];
        let mut m = ReramMatrix::program(&w, 2, 2, &ReramParams::default());
        m.mask_output(1);
        assert_eq!(m.masked_outputs(), vec![1]);
        let y = m.matvec(&[1.0, 1.0]);
        assert!((y[0] - 3.0).abs() < 1e-2, "{y:?}");
        assert_eq!(y[1], 0.0);
        let r = m.read();
        assert_eq!(&r[2..], &[0.0, 0.0], "masked row reads as zeros");

        m.repair_outputs(&[1]);
        assert!(m.masked_outputs().is_empty(), "repair unmasks");
        let y = m.matvec(&[1.0, 1.0]);
        assert!((y[1] - 7.0).abs() < 1e-2, "{y:?}");
    }

    #[test]
    fn stuck_cells_corrupt_reads_until_remapped() {
        let w = vec![0.75f32; 4];
        let faults = FaultModel {
            stuck_at_zero: 0.3,
            stuck_at_max: 0.0,
            dead: 0.0,
        };
        let mut m = ReramMatrix::program_with_faults(&w, 2, 2, &ReramParams::default(), &faults, 3);
        assert!(m.fault_count() > 0);
        let corrupted = m.read();
        assert_ne!(corrupted, vec![0.75; 4]);
        m.repair_outputs(&[0, 1]);
        let repaired = m.read();
        for v in &repaired {
            assert!((v - 0.75).abs() < 2.0 * m.weight_scale(), "{repaired:?}");
        }
    }

    #[test]
    fn remap_outputs_rewrites_displaced_column_at_honest_cost() {
        let w = vec![0.75f32; 4];
        let faults = FaultModel {
            stuck_at_zero: 0.3,
            stuck_at_max: 0.0,
            dead: 0.0,
        };
        let mut m = ReramMatrix::program_with_faults(&w, 2, 2, &ReramParams::default(), &faults, 3);
        assert!(m.fault_count() > 0);
        let before_writes = m.write_spikes();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let report = m.remap_outputs(&[0, 1], &VerifyPolicy::default(), &mut rng);
        assert_eq!(m.fault_count(), 0, "remap clears every column fault");
        assert!(
            report.pulses > 0,
            "blank spares must be re-programmed from intent"
        );
        assert_eq!(
            m.write_spikes(),
            before_writes + report.pulses,
            "the remap bill lands on the write counter"
        );
        let repaired = m.read();
        for v in &repaired {
            assert!((v - 0.75).abs() < 2.0 * m.weight_scale(), "{repaired:?}");
        }
        // Out-of-range outputs are ignored, not panicked on.
        let empty = m.remap_outputs(&[99], &VerifyPolicy::default(), &mut rng);
        assert_eq!(empty.pulses, 0);
    }

    #[test]
    fn wear_attaches_per_crossbar_and_counts_deaths() {
        use crate::wear::WearModel;
        let w = vec![0.5f32; 4];
        let mut m = ReramMatrix::program(&w, 2, 2, &ReramParams::default());
        m.attach_wear(
            WearModel {
                median_writes: 3.0,
                sigma: 0.0,
            },
            11,
        );
        assert_eq!(m.wear_exhausted_cells(), 0);
        assert_eq!(m.row_wear_headroom(0), 3);
        // Full-swing rewrites hammer the populated nibbles past 3 pulses.
        m.write(&[-0.5, 0.5, -0.5, 0.5]);
        m.write(&[0.5, -0.5, 0.5, -0.5]);
        assert!(m.wear_exhausted_cells() > 0, "swings must kill cells");
        assert!(m.fault_count() > 0, "deaths surface as live faults");
        assert_eq!(m.row_wear_headroom(0), 0);
    }

    #[test]
    fn matvec_batch_matches_sequential_bitwise() {
        let w = vec![0.5f32, -0.25, 0.125, 1.0, -1.0, 0.0];
        let xs: Vec<Vec<f32>> = vec![
            vec![1.0, -2.0, 0.5],
            vec![0.0, 0.0, 0.0],
            vec![-0.125, 3.0, 7.5],
        ];
        let mut seq = ReramMatrix::program(&w, 2, 3, &ReramParams::default());
        seq.attach_noise(NoiseModel::with_strength(1.0), 17);
        let mut bat = seq.clone();
        let want: Vec<Vec<f32>> = xs.iter().map(|x| seq.matvec(x)).collect();
        let got = bat.matvec_batch(&xs);
        for (g, w_) in got.iter().flatten().zip(want.iter().flatten()) {
            assert_eq!(g.to_bits(), w_.to_bits());
        }
        assert_eq!(bat.read_spikes(), seq.read_spikes());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The full analog path approximates the float MVM within the
        /// fixed-point error bound.
        #[test]
        fn matvec_matches_float_reference(seed in 0u64..500) {
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let (out, inp) = (rng.random_range(1usize..6), rng.random_range(1usize..6));
            let w: Vec<f32> = (0..out * inp).map(|_| rng.random_range(-1.0f32..1.0)).collect();
            let x: Vec<f32> = (0..inp).map(|_| rng.random_range(-2.0f32..2.0)).collect();
            let mut m = ReramMatrix::program(&w, out, inp, &ReramParams::default());
            let got = m.matvec(&x);
            let want = reference(&w, out, inp, &x);
            // Error bound: per-term quantization error ~ (|x| eps_w + |w| eps_x).
            let tol = 1e-3 * (1.0 + inp as f32);
            for (g, wnt) in got.iter().zip(&want) {
                prop_assert!((g - wnt).abs() < tol, "got {g}, want {wnt}");
            }
        }
    }
}
