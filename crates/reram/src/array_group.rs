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
//!
//! That eight-crossbar shift-add is the modelled datapath, and it is what
//! the spike counters, read epochs and so the energy model describe. Where
//! no member's reads vary (no read noise, no read disturb), the simulator
//! computes the same integers as one exact GEMM against a cached signed
//! composite, `Σ_g (L_pos_g − L_neg_g) << (g·cell_bits)`, and books every
//! member's reads as if each had integrated its own phases.

use crate::crossbar::{drive_mask, Crossbar};
use crate::device::DeviceModel;
use crate::drift::DriftModel;
use crate::energy::ReramParams;
use crate::fault::{FaultModel, ProgramReport, VerifyPolicy};
use crate::multiversion::multiversion;
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
    /// The signed composite of the member crossbars' levels, while their
    /// reads do not vary.
    composite: CompositeSlot,
}

/// The eight-crossbar shift-add of a read-invariant matrix, folded: one
/// signed weight per cell, `Σ_g (L_pos_g − L_neg_g) << (g·cell_bits)` over
/// the levels the members present, so one exact GEMM stands for every
/// member's integrate-and-fire read and the shift-add after it.
#[derive(Debug)]
struct Composite {
    /// The member crossbars' array generations it was built at, in
    /// [`ReramMatrix::crossbars`] order.
    generations: Vec<u64>,
    /// Cell order, `weights[i·out_dim + o]`. Its magnitude is below
    /// `2^data_bits`, and the composite is only built where
    /// [`fits_composite`] holds, which puts `data_bits` at most 31.
    weights: Vec<i32>,
    /// Each member's per-word-line level sums, member-major
    /// (`row_sums[m·in_dim + i]`): the output spikes of a read are its
    /// drives dotted with them.
    row_sums: Vec<u64>,
    /// Whether `weights` is a write's own signed levels, kept on
    /// transparent members: every cell's members then hold its magnitude's
    /// bit groups on the side of its sign and 0 on the other, so
    /// [`ReramMatrix::read`] sums the groups from `weights` alone. A refold
    /// is never marked.
    signed: bool,
}

/// A [`ReramMatrix`]'s [`Composite`], once built. A clone starts empty and
/// builds its own at its first read: a model cloned as a reference or as a
/// worker's private copy would otherwise carry a second composite it may
/// never read.
#[derive(Default)]
struct CompositeSlot(Option<Composite>);

impl Clone for CompositeSlot {
    fn clone(&self) -> Self {
        CompositeSlot(None)
    }
}

impl std::fmt::Debug for CompositeSlot {
    // A cache: two matrices in the same state print alike whether or not
    // either has read.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositeSlot").finish_non_exhaustive()
    }
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
    /// or the bit widths fail [`ReramParams::check_bit_widths`].
    #[expect(clippy::disallowed_macros, reason = "caller bug: empty matrix")]
    pub fn program(weights: &[f32], out_dim: usize, in_dim: usize, params: &ReramParams) -> Self {
        assert!(out_dim > 0 && in_dim > 0, "matrix must be non-empty");
        assert_eq!(
            weights.len(),
            out_dim * in_dim,
            "weight buffer size mismatch"
        );
        assert_eq!(params.check_bit_widths(), Ok(()), "unsupported bit widths");
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
            composite: CompositeSlot::default(),
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
        for (i, xbar) in self.members_mut().enumerate() {
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
    /// [`crossbars`](Self::crossbars) — checkpoint restore plumbing. It
    /// drops the composite: a caller may swap in another crossbar, whose
    /// generation restarts and could match the one the composite was
    /// built at.
    pub fn crossbars_mut(&mut self) -> impl Iterator<Item = &mut Crossbar> {
        self.composite = CompositeSlot::default();
        self.members_mut()
    }

    /// [`crossbars_mut`](Self::crossbars_mut) for the matrix's own
    /// mutations: they go through each member's methods, which move its
    /// generation wherever they change what a read presents.
    fn members_mut(&mut self) -> impl Iterator<Item = &mut Crossbar> {
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
        for x in self.members_mut() {
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
        for x in self.members_mut() {
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

    fn qmax(&self) -> i32 {
        i32::MAX >> (32 - self.data_bits)
    }

    /// (Re)programs the matrix — the weight-update write of Fig. 14(b).
    /// Recomputes the weight scale from the new values.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` mismatches the geometry.
    pub fn write(&mut self, weights: &[f32]) {
        // Every member moves, so the old composite goes now rather than at
        // the next read: a model cloned between steps would otherwise keep
        // a stale one next to the clone's. Where the members read what they
        // store, `q` is the new one — but only for a matrix read since it
        // was built or cloned, so one that is only ever written (an unused
        // error-backward copy, a pristine reference) never holds one.
        let read_since_built = self.composite.0.take().is_some();
        let q = self.quantize(weights);
        if !Crossbar::program_signed_pairs(&mut self.groups, &q) {
            for (shift, (pos, neg)) in self.group_shifts().zip(&mut self.groups) {
                pos.program_signed(&q, shift, 1);
                neg.program_signed(&q, shift, -1);
            }
            return;
        }
        let mask = drive_mask(self.data_bits);
        if read_since_built
            && fits_composite(self.in_dim, mask, self.data_bits)
            && self.crossbars().all(Crossbar::is_transparent)
        {
            let levels: Vec<_> = self.crossbars().map(Crossbar::effective_levels).collect();
            let levels: Vec<&[u8]> = levels.iter().map(|l| &**l).collect();
            let mut row_sums = vec![0; levels.len() * self.in_dim];
            level_sums::run(&levels, self.out_dim, &mut row_sums);
            self.composite.0 = Some(Composite {
                generations: self.generations(),
                weights: q,
                row_sums,
                signed: true,
            });
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
        let q = self.quantize(weights);
        // Every member moves, so the composite goes now rather than at the
        // next read.
        self.composite = CompositeSlot::default();
        let mut report = ProgramReport::default();
        // Crossbar-major, in `crossbars()` order: the verify loop's draws
        // come from `rng` in that order.
        for (shift, (pos, neg)) in self.group_shifts().zip(&mut self.groups) {
            report.merge(pos.program_verify_signed(&q, shift, 1, policy, rng));
            report.merge(neg.program_verify_signed(&q, shift, -1, policy, rng));
        }
        report
    }

    /// The bit shift of each segment group, least-significant group first.
    fn group_shifts(&self) -> impl Iterator<Item = u32> {
        (0u32..).step_by(usize::from(self.cell_bits))
    }

    /// Quantizes `weights` once each and updates the weight scale. Returns
    /// the signed levels in cell order: `q[i·out_dim + o]` is weight
    /// `(o, i)` rounded at the new scale, within `±qmax`.
    fn quantize(&mut self, weights: &[f32]) -> Vec<i32> {
        assert_eq!(
            weights.len(),
            self.out_dim * self.in_dim,
            "weight buffer size mismatch"
        );
        let mut q = vec![0; weights.len()];
        self.weight_scale = quantize_weights::run(weights, self.in_dim, self.qmax(), &mut q);
        q
    }

    /// Remaps the given logical outputs onto fault-free spare bit lines:
    /// every member crossbar's faults in those columns are cleared. The
    /// stored levels already hold the intended values, so no rewrite is
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics if an output index is out of range.
    #[expect(clippy::disallowed_macros, reason = "caller bug: output out of range")]
    pub fn repair_outputs(&mut self, outputs: &[usize]) {
        for &o in outputs {
            assert!(o < self.out_dim, "output {o} out of range");
            for x in self.members_mut() {
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
            for x in self.members_mut() {
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
    #[expect(clippy::disallowed_macros, reason = "caller bug: output out of range")]
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
        const TILE: usize = 16;
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);
        // Reads go through the analog path, so stuck cells corrupt what
        // comes back; a current composite kept from a write holds every
        // group of every weight in its signed levels.
        let generations = self.generations();
        let signed = (self.composite.0.as_ref())
            .filter(|c| c.signed && c.generations == generations)
            .map(|c| c.weights.as_slice());
        let levels: Vec<_> = match signed {
            Some(_) => Vec::new(),
            None => self.crossbars().map(Crossbar::effective_levels).collect(),
        };
        let mut out = vec![0.0f32; out_dim * in_dim];
        let mut tile = vec![0.0f32; TILE * out_dim];
        // One pass over the cells in storage order, `TILE` word lines at a
        // time: each weight sums its groups from 0.0, least significant
        // first, then the tile is stored transposed, a weight row at a time.
        for i0 in (0..in_dim).step_by(TILE) {
            let cells = i0 * out_dim..in_dim.min(i0 + TILE) * out_dim;
            let sums = &mut tile[..cells.len()];
            sums.fill(0.0);
            if let Some(q) = signed {
                let groups = self.groups.len();
                add_signed::run(
                    sums,
                    &q[cells.clone()],
                    self.cell_bits,
                    groups,
                    self.weight_scale,
                );
            }
            for (shift, pn) in self.group_shifts().zip(levels.chunks_exact(2)) {
                let (pos, neg) = (&pn[0][cells.clone()], &pn[1][cells.clone()]);
                add_group::run(sums, pos, neg, shift, self.weight_scale);
            }
            let rows = out.chunks_exact_mut(in_dim).zip(&self.masked_outputs);
            for (o, (row, &masked)) in rows.enumerate() {
                if masked {
                    continue;
                }
                let lines = sums.iter().skip(o).step_by(out_dim);
                for (w, &sum) in row[i0..].iter_mut().zip(lines) {
                    *w = sum;
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
        self.matvec_flat(std::iter::once(x), true)
    }

    /// Batched [`matvec`](Self::matvec): one call per *batch* of input
    /// vectors, with exactly the results, spike counters and device state
    /// of `xs.iter().map(|x| self.matvec(x))`. Every sample is quantized
    /// and phase-split first; then each member crossbar runs the whole
    /// phase sequence in the order the per-sample calls would. A
    /// crossbar's device state depends only on its own reads, so this is
    /// bitwise the sequential result on every device model, and where
    /// reads leave the device untouched one walk over a crossbar's levels
    /// serves the whole batch. This is the multi-image kernel the
    /// functional training paths feed.
    ///
    /// # Panics
    ///
    /// Panics if any input's length differs from `in_dim()`.
    pub fn matvec_batch(&mut self, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let out_dim = self.out_dim;
        self.matvec_flat(xs.iter().map(Vec::as_slice), true)
            .chunks_exact(out_dim)
            .map(<[f32]>::to_vec)
            .collect()
    }

    /// [`matvec_batch`](Self::matvec_batch) over inputs stored back to
    /// back in one buffer, `in_dim()` apiece; the products come back the
    /// same way, `out_dim()` apiece.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len()` is not a multiple of `in_dim()`.
    pub fn matvec_rows(&mut self, xs: &[f32]) -> Vec<f32> {
        self.matvec_flat(xs.chunks(self.in_dim), true)
    }

    /// The products of every input in `xs`, `out_dim` apiece, back to back.
    /// With `composite`, a matrix whose member reads do not vary computes
    /// them in one composite GEMM ([`composite_products`]); otherwise, or
    /// without `composite`, each member crossbar integrates every phase.
    ///
    /// [`composite_products`]: Self::composite_products
    #[expect(clippy::cast_precision_loss, reason = "the scale is f32 by definition")]
    fn matvec_flat<'a>(
        &mut self,
        xs: impl Iterator<Item = &'a [f32]>,
        composite: bool,
    ) -> Vec<f32> {
        let in_dim = self.in_dim;
        let in_qmax = ((1u64 << self.data_bits) - 1) as f32 / 2.0;
        // Per sample, its input scale (`None`: an all-zero input, which
        // drives nothing); per non-empty phase, its sample and sign.
        let mut x_scales: Vec<Option<f32>> = Vec::new();
        let mut phase_of: Vec<(usize, i32)> = Vec::new();
        let mut phases: Vec<u32> = Vec::new();
        for (s, x) in xs.enumerate() {
            assert_eq!(x.len(), in_dim, "input length mismatch");
            let absmax = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            if absmax == 0.0 {
                x_scales.push(None);
                continue;
            }
            let x_scale = absmax / in_qmax;
            x_scales.push(Some(x_scale));
            let start = phases.len();
            phases.resize(start + 2 * in_dim, 0);
            let (pos, neg) = phases[start..].split_at_mut(in_dim);
            let (pos_drives, neg_drives) = encode_phases::run(x, x_scale, pos, neg);
            // A phase that drives nothing is not read.
            if neg_drives == 0 {
                phases.truncate(start + in_dim);
            }
            if pos_drives == 0 {
                phases.drain(start..start + in_dim);
            }
            for (sign, drives) in [(1, pos_drives), (-1, neg_drives)] {
                if drives != 0 {
                    phase_of.push((s, sign));
                }
            }
        }

        let samples = x_scales.len();
        // A batch that drives nothing reads nothing, on either path.
        let composite = composite && !phases.is_empty();
        let mut out = composite
            .then(|| self.composite_products(&phases, &phase_of, samples))
            .flatten()
            .unwrap_or_else(|| self.member_products(&phases, &phase_of, samples));
        let samples = out.chunks_exact_mut(self.out_dim).zip(&x_scales);
        for (y, x_scale) in samples {
            let Some(x_scale) = x_scale else {
                continue;
            };
            for (y, &masked) in y.iter_mut().zip(&self.masked_outputs) {
                *y = if masked {
                    0.0
                } else {
                    *y * self.weight_scale * x_scale
                };
            }
        }
        out
    }

    /// The integer products of `samples` inputs, as `f32`, through every
    /// member crossbar: each integrates every phase of `phases` (whose
    /// sample and sign `phase_of` gives), and the subtractor and the
    /// segment shift-add combine their outputs. It accumulates in `i128`:
    /// at 32-bit data one product already reaches `2^62` per word line.
    fn member_products(
        &mut self,
        phases: &[u32],
        phase_of: &[(usize, i32)],
        samples: usize,
    ) -> Vec<f32> {
        let out_dim = self.out_dim;
        let mut acc = vec![0i128; samples * out_dim];
        let shifts = self.group_shifts();
        for (shift, (pos, neg)) in shifts.zip(&mut self.groups) {
            let yp = pos.mvm_spiked_batch(phases, self.data_bits);
            let yn = neg.mvm_spiked_batch(phases, self.data_bits);
            let ys = yp.chunks_exact(out_dim).zip(yn.chunks_exact(out_dim));
            for (&(s, sign), (yp, yn)) in phase_of.iter().zip(ys) {
                let acc = &mut acc[s * out_dim..(s + 1) * out_dim];
                for (a, (&p, &n)) in acc.iter_mut().zip(yp.iter().zip(yn)) {
                    // Subtractor (activation component) + segment shift-add.
                    *a += i128::from(sign) * ((i128::from(p) - i128::from(n)) << shift);
                }
            }
        }
        acc.into_iter().map(product_f32).collect()
    }

    /// [`member_products`](Self::member_products) through the composite:
    /// each sample's phases fold into one signed drive per word line, one
    /// `i64` GEMM against the composite gives the products, and every
    /// member books the reads it would have integrated — the fired slots,
    /// its output spikes (the phases' drives dotted with its row sums) and
    /// one read per phase. `None`, with nothing read or booked, where a
    /// member's reads vary or [`fits_composite`] fails.
    fn composite_products(
        &mut self,
        phases: &[u32],
        phase_of: &[(usize, i32)],
        samples: usize,
    ) -> Option<Vec<f32>> {
        let (rows, cols) = (self.in_dim, self.out_dim);
        let mask = drive_mask(self.data_bits);
        if !fits_composite(rows, mask, self.data_bits) {
            return None;
        }
        self.refresh_composite();
        let composite = self.composite.0.as_ref()?;
        let mut drives = vec![0i32; samples * rows];
        let mut drive_sums = vec![0u64; rows];
        let mut read_spikes = 0u64;
        for (x, &(s, sign)) in phases.chunks_exact(rows).zip(phase_of) {
            let sample = &mut drives[s * rows..(s + 1) * rows];
            read_spikes += fold_phase::run(sample, &mut drive_sums, x, sign, mask);
        }
        let members = self.groups.iter_mut().flat_map(|(p, n)| [p, n]);
        for (xbar, row_sums) in members.zip(composite.row_sums.chunks_exact(rows)) {
            let output_spikes = drive_sums.iter().zip(row_sums).map(|(&d, &l)| d * l).sum();
            xbar.book_reads(phases, mask, read_spikes, output_spikes);
        }
        let products = composite_gemm::run(&composite.weights, cols, &drives);
        Some(
            products
                .into_iter()
                .map(|a| product_f32(a.into()))
                .collect(),
        )
    }

    /// Keeps the composite current: rebuilt from the members' presented
    /// levels when any member's generation moved since it was built, and
    /// dropped where a member's reads vary.
    fn refresh_composite(&mut self) {
        let generations = self.generations();
        if self
            .composite
            .0
            .as_ref()
            .is_some_and(|c| c.generations == generations)
        {
            return;
        }
        self.composite.0 = None;
        if self.crossbars().any(Crossbar::reads_vary) {
            return;
        }
        let (rows, cols) = (self.in_dim, self.out_dim);
        let mut weights = vec![0i32; rows * cols];
        let mut row_sums = vec![0u64; self.crossbar_count() * rows];
        let cell_bits = u32::from(self.cell_bits);
        let levels: Vec<&[u8]> = self.members_mut().map(Crossbar::presented_levels).collect();
        fold_members::run(&mut weights, &levels, cell_bits, cols, &mut row_sums);
        self.composite.0 = Some(Composite {
            generations,
            weights,
            row_sums,
            signed: false,
        });
    }

    /// The member crossbars' array generations, in
    /// [`crossbars`](Self::crossbars) order.
    fn generations(&self) -> Vec<u64> {
        self.crossbars().map(Crossbar::generation).collect()
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

/// An exact integer product as the `f32` nearest it, ties to even: the
/// same `f32` whichever integer type held it.
#[expect(clippy::cast_precision_loss, reason = "the float datapath's rounding")]
fn product_f32(a: i128) -> f32 {
    a as f32
}

/// Whether the composite GEMM's `i64` accumulators cannot overflow on a
/// `rows`-word-line matrix: at most `rows` drives of magnitude `mask`
/// against composite weights below `2^data_bits` in magnitude, so
/// `rows·mask·(2^data_bits − 1) < 2^63`. The drive bound is the driver's
/// `mask`, not `2^(data_bits−1)`: an input whose scale rounds to a
/// subnormal quantizes past `2^(data_bits−1)`. It implies `data_bits ≤
/// 31`, so drives and composite weights fit `i32`.
fn fits_composite(rows: usize, mask: u32, data_bits: u8) -> bool {
    (rows as u128) * u128::from(mask) * ((1u128 << data_bits) - 1) < 1 << 63
}

/// Columns per block of a row's level sum: a block's sum, at most 255 a
/// cell, fits a `u32`.
const ROW_SUM_BLOCK: usize = 1 << 16;

/// Cells per block of the composite fold: every group adds to a block
/// while it stays in the L1 cache.
const FOLD_BLOCK: usize = 2048;

/// Builds the composite `weights` (cell order, `cols` bit lines, zeroed)
/// of the member `levels` (pos, neg interleaved, least-significant group
/// first, group `g` shifted by `g·cell_bits`), and every member's
/// per-word-line level sums, member-major, into `row_sums`. Every partial
/// composite sum stays below `2^data_bits` in magnitude, so `i32` holds it
/// wherever the composite is built.
#[inline(always)]
fn fold_members_body(
    weights: &mut [i32],
    levels: &[&[u8]],
    cell_bits: u32,
    cols: usize,
    row_sums: &mut [u64],
) {
    for (b, w) in weights.chunks_mut(FOLD_BLOCK).enumerate() {
        let cells = b * FOLD_BLOCK..b * FOLD_BLOCK + w.len();
        let shifts = (0u32..).step_by(cell_bits as usize);
        for (shift, pn) in shifts.zip(levels.chunks_exact(2)) {
            let (pos, neg) = (&pn[0][cells.clone()], &pn[1][cells.clone()]);
            for (w, (&p, &n)) in w.iter_mut().zip(pos.iter().zip(neg)) {
                *w += (i32::from(p) - i32::from(n)) << shift;
            }
        }
    }
    level_sums_body(levels, cols, row_sums);
}

/// Every member's per-word-line level sums of `levels` (`cols` bit lines
/// each), member-major, into `row_sums`.
#[inline(always)]
fn level_sums_body(levels: &[&[u8]], cols: usize, row_sums: &mut [u64]) {
    let rows = row_sums.len() / levels.len().max(1);
    for (member, sums) in levels.iter().zip(row_sums.chunks_exact_mut(rows)) {
        for (sum, row) in sums.iter_mut().zip(member.chunks_exact(cols)) {
            let blocks = row.chunks(ROW_SUM_BLOCK);
            *sum = blocks
                .map(|b| u64::from(b.iter().map(|&l| u32::from(l)).sum::<u32>()))
                .sum();
        }
    }
}

multiversion! {
    /// [`level_sums_body`], multiversioned.
    mod level_sums: fn(levels: &[&[u8]], cols: usize, row_sums: &mut [u64]) -> () = level_sums_body;
}

multiversion! {
    /// [`fold_members_body`], multiversioned.
    mod fold_members: fn(
        weights: &mut [i32],
        levels: &[&[u8]],
        cell_bits: u32,
        cols: usize,
        row_sums: &mut [u64],
    ) -> () = fold_members_body;
}

/// Folds one input phase, driven with its low `mask` bits, into its
/// sample's signed `drives` (`sign` its polarity) and into `drive_sums`,
/// the drives of every phase by word line; returns the slots it fires.
/// `fits_composite` puts `mask` below `2^31`, so a drive fits `i32`.
#[inline(always)]
fn fold_phase_body(
    drives: &mut [i32],
    drive_sums: &mut [u64],
    phase: &[u32],
    sign: i32,
    mask: u32,
) -> u64 {
    let mut slots = 0u64;
    for ((d, sum), &v) in drives.iter_mut().zip(drive_sums).zip(phase) {
        let v = v & mask;
        *d += sign * v.cast_signed();
        *sum += u64::from(v);
        slots += u64::from(v.count_ones());
    }
    slots
}

multiversion! {
    /// [`fold_phase_body`], multiversioned.
    mod fold_phase: fn(drives: &mut [i32], drive_sums: &mut [u64], phase: &[u32], sign: i32, mask: u32)
        -> u64 = fold_phase_body;
}

/// The composite GEMM: `out[s·cols + c] = Σ_r drives_s[r]·weights[r·cols
/// + c]` in `i64`, for every sample's signed drives in `drives` (back to
/// back, `rows = weights.len() / cols` long). One walk over `weights`
/// serves the whole batch; word lines a sample does not drive are skipped.
/// Exact wherever [`fits_composite`] holds.
#[inline(always)]
fn composite_gemm_body(weights: &[i32], cols: usize, drives: &[i32]) -> Vec<i64> {
    let rows = weights.len() / cols;
    let mut acc = vec![0i64; drives.len() / rows * cols];
    for (r, row) in weights.chunks_exact(cols).enumerate() {
        let sample_drives = drives.iter().skip(r).step_by(rows);
        for (&x, acc) in sample_drives.zip(acc.chunks_exact_mut(cols)) {
            if x == 0 {
                continue;
            }
            let x = i64::from(x);
            for (a, &w) in acc.iter_mut().zip(row) {
                *a += x * i64::from(w);
            }
        }
    }
    acc
}

multiversion! {
    /// [`composite_gemm_body`], multiversioned.
    mod composite_gemm: fn(weights: &[i32], cols: usize, drives: &[i32]) -> Vec<i64>
        = composite_gemm_body;
}

/// `x` rounded half away from zero, then clamped to `±qmax`
/// (`0 ≤ qmax`): exactly `(x.round() as i64).clamp(-qmax, qmax)` as an
/// `i32`, for every `f32`, NaN (0) and ±∞ included, without libm's
/// `roundf` or a data-dependent branch. The weights round with it where
/// [`round_clamp_narrow`] does not serve their clamp.
#[inline(always)]
#[expect(clippy::cast_possible_truncation, reason = "the cast is the rounding")]
pub(crate) fn round_clamp(x: f32, qmax: i32) -> i32 {
    // `as` truncates toward zero and saturates (NaN gives 0). Below 2^31 in
    // magnitude the truncation is exact and `x - t` is exact in f64; at or
    // above it the saturated `t` is already past any `qmax`, and the
    // saturating add keeps it there.
    let t = x as i32;
    let r = f64::from(x) - f64::from(t);
    let q = t.saturating_add(i32::from(r >= 0.5) - i32::from(r <= -0.5));
    q.clamp(-qmax, qmax)
}

/// Encodes one input vector into its two spike phases: with `y = v /
/// x_scale` per element, `pos` gets `round(y)` where `y > 0` and `neg`
/// gets `round(−y)` where `y < 0`, 0 elsewhere (NaN included), rounded
/// half away from zero and saturating at `u32::MAX`. Magnitudes reach
/// `2^(data_bits−1) ≤ 2^31`, which a `u32` phase holds; the saturation
/// only bounds the ±∞ of a scale that underflowed to 0. Returns each
/// phase's bitwise OR: 0 for a phase that drives nothing.
#[inline(always)]
#[expect(clippy::cast_possible_truncation, reason = "the cast is the rounding")]
#[expect(
    clippy::cast_precision_loss,
    reason = "an unsaturated t is a's whole part"
)]
fn encode_phases_body(x: &[f32], x_scale: f32, pos: &mut [u32], neg: &mut [u32]) -> (u32, u32) {
    let (mut pos_drives, mut neg_drives) = (0, 0);
    for ((&v, p), n) in x.iter().zip(pos.iter_mut()).zip(neg.iter_mut()) {
        let y = v / x_scale;
        let a = y.abs();
        // As in `round_clamp`, unsigned and in `f32`: below 2^32 `t` is
        // `a`'s whole part, an `f32` itself, and `a - t` its fraction, exact;
        // at or above it `t` saturates and converts to 2^32.
        let t = a as u32;
        let m = t.saturating_add(u32::from(a - t as f32 >= 0.5));
        *p = if y > 0.0 { m } else { 0 };
        *n = if y < 0.0 { m } else { 0 };
        pos_drives |= *p;
        neg_drives |= *n;
    }
    (pos_drives, neg_drives)
}

multiversion! {
    /// [`encode_phases_body`], multiversioned.
    mod encode_phases: fn(x: &[f32], x_scale: f32, pos: &mut [u32], neg: &mut [u32])
        -> (u32, u32) = encode_phases_body;
}

/// Adds one segment group's share of some cells' weights to `sums`:
/// `((pos − neg) << shift) · scale` per cell. A level difference has
/// at most 8 significant bits, so scaling it by `2^shift` in f32 is exact
/// and equals converting the shifted integer.
#[inline(always)]
fn add_group_body(sums: &mut [f32], pos: &[u8], neg: &[u8], shift: u32, scale: f32) {
    let pow2 = f32::from_bits((127 + shift) << 23); // 2^shift
    for (sum, (&p, &n)) in sums.iter_mut().zip(pos.iter().zip(neg)) {
        *sum += f32::from(i16::from(p) - i16::from(n)) * pow2 * scale;
    }
}

multiversion! {
    /// [`add_group_body`], multiversioned.
    mod add_group: fn(sums: &mut [f32], pos: &[u8], neg: &[u8], shift: u32, scale: f32)
        -> () = add_group_body;
}

/// [`add_group`] over all `groups` bit groups of `cell_bits` each, from
/// the cells' signed levels `q` rather than their members' levels: group
/// `g` of a weight is `±((|q| >> g·cell_bits) & (2^cell_bits − 1))` with
/// the sign of `q`, the difference of the levels its positive and
/// negative members store. The terms and their order are `add_group`'s:
/// `|q|`'s bits of the group are that level times `2^shift` exactly, and
/// the rounding of `· scale` is symmetric in the sign, which flips last.
#[inline(always)]
#[expect(
    clippy::cast_precision_loss,
    reason = "a group's bits are at most 8 wide"
)]
fn add_signed_body(sums: &mut [f32], q: &[i32], cell_bits: u8, groups: usize, scale: f32) {
    const LANES: usize = 8;
    let mask = (1u32 << cell_bits) - 1;
    let group_bits: Vec<u32> = (0u32..)
        .step_by(usize::from(cell_bits))
        .take(groups)
        .map(|shift| mask << shift)
        .collect();
    let add = |sums: &mut [f32], q: &[i32]| {
        for &bits in &group_bits {
            for (sum, &q) in sums.iter_mut().zip(q) {
                // Below 2^31: the composite's magnitudes are.
                let term = (q.unsigned_abs() & bits).cast_signed() as f32 * scale;
                let sign = q.cast_unsigned() & 0x8000_0000;
                *sum += f32::from_bits(term.to_bits() ^ sign);
            }
        }
    };
    let lanes = sums.chunks_exact_mut(LANES).zip(q.chunks_exact(LANES));
    for (sums, q) in lanes {
        add(sums, q);
    }
    let tail = sums.len() / LANES * LANES;
    add(&mut sums[tail..], &q[tail..]);
}

multiversion! {
    /// [`add_signed_body`], multiversioned.
    mod add_signed: fn(sums: &mut [f32], q: &[i32], cell_bits: u8, groups: usize, scale: f32)
        -> () = add_signed_body;
}

/// The largest clamp [`round_clamp_narrow`] serves.
const NARROW_QMAX: i32 = 1 << 22;

/// `1.5·2^23`: an `f32` of magnitude at most `2^22` added to it lands in
/// the binade of unit spacing, so the sum is `ROUND_MAGIC` plus the
/// `f32`'s nearest integer (ties to even), which its low mantissa bits
/// hold.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// [`round_clamp`] for `0 ≤ qmax ≤ 2^22`, given as the exact `f32` `qmax`,
/// in `f32` and `i32` lanes without a float-to-integer conversion (whose
/// saturation the AVX2 arm would do a lane at a time): clamp first (NaN to
/// 0), which commutes with rounding to an integer bound, round to nearest
/// even through [`ROUND_MAGIC`], then move a tie of the wrong parity
/// away from zero.
#[inline(always)]
fn round_clamp_narrow(x: f32, qmax: f32) -> i32 {
    let x = if x.is_nan() {
        0.0
    } else {
        x.max(-qmax).min(qmax)
    };
    let sum = x + ROUND_MAGIC;
    // `x` less its nearest even integer, exact and within ±0.5.
    let fraction = x - (sum - ROUND_MAGIC);
    let away = i32::from((x > 0.0) & (fraction >= 0.5)) - i32::from((x < 0.0) & (fraction <= -0.5));
    sum.to_bits().cast_signed() - ROUND_MAGIC.to_bits().cast_signed() + away
}

/// The write quantizer. Picks the scale that maps the largest magnitude
/// of the row-major `out_dim × in_dim` `weights` to `qmax` (1 for all-zero
/// weights), stores `q[i·out_dim + o] = round_clamp(w[o][i] / scale,
/// qmax)` with `out_dim = q.len() / in_dim`, and returns the scale. It
/// rounds through [`round_clamp_narrow`] wherever that serves `qmax`.
#[inline(always)]
#[expect(clippy::cast_precision_loss, reason = "the scale is f32 by definition")]
fn quantize_weights_body(weights: &[f32], in_dim: usize, qmax: i32, q: &mut [i32]) -> f32 {
    let absmax = weights.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
    let scale = if absmax == 0.0 {
        1.0
    } else {
        absmax / qmax as f32
    };
    if qmax <= NARROW_QMAX {
        // Below 2^24, so exact.
        let qmax = qmax as f32;
        quantize_tiles(weights, in_dim, q, |w| round_clamp_narrow(w / scale, qmax));
    } else {
        quantize_tiles(weights, in_dim, q, |w| round_clamp(w / scale, qmax));
    }
    scale
}

/// Stores `q[i·out_dim + o] = round(w[o][i])` for the row-major `out_dim ×
/// in_dim` `weights`. It transposes through a square tile: rounded a
/// weight row at a time, stored a cell row at a time, so both passes run
/// over contiguous memory.
#[inline(always)]
fn quantize_tiles(weights: &[f32], in_dim: usize, q: &mut [i32], round: impl Fn(f32) -> i32) {
    const TILE: usize = 16;
    let out_dim = q.len() / in_dim;
    let mut tile = [[0i32; TILE]; TILE];
    for (o0, rows) in (0..).step_by(TILE).zip(weights.chunks(TILE * in_dim)) {
        for i0 in (0..in_dim).step_by(TILE) {
            let i_end = in_dim.min(i0 + TILE);
            for (t, row) in tile.iter_mut().zip(rows.chunks_exact(in_dim)) {
                for (t, &w) in t.iter_mut().zip(&row[i0..i_end]) {
                    *t = round(w);
                }
            }
            let o_end = out_dim.min(o0 + TILE);
            let cells = q[i0 * out_dim..i_end * out_dim].chunks_exact_mut(out_dim);
            for (k, cells) in (0..).zip(cells) {
                for (q, t) in cells[o0..o_end].iter_mut().zip(&tile) {
                    *q = t[k];
                }
            }
        }
    }
}

multiversion! {
    /// [`quantize_weights_body`], multiversioned.
    mod quantize_weights: fn(weights: &[f32], in_dim: usize, qmax: i32, q: &mut [i32])
        -> f32 = quantize_weights_body;
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

    /// `matvec_batch` is the mapped `matvec`, bitwise, even where every
    /// read perturbs the next one: drift with read disturb plus per-read
    /// noise, over a batch with an all-zero, a one-signed and a mixed
    /// sample. Every crossbar's spike counters and the read-back weights
    /// (device state after the batch) agree too.
    #[test]
    fn matvec_batch_matches_sequential_bitwise() {
        let w = vec![0.5f32, -0.25, 0.125, 1.0, -1.0, 0.0];
        let xs: Vec<Vec<f32>> = vec![
            vec![1.0, -2.0, 0.5],
            vec![0.0, 0.0, 0.0],
            vec![0.25, 3.0, 7.5],
            vec![-0.125, 3.0, -7.5],
        ];
        let disturb = DriftModel {
            nu: 0.1,
            nu_sigma: 0.05,
            t0_cycles: 8,
            disturb_per_level: 3,
        };
        let mut seq = ReramMatrix::program(&w, 2, 3, &ReramParams::default());
        seq.attach(
            &DeviceModel::ideal()
                .with_drift(disturb)
                .with_noise(NoiseModel::with_strength(1.0)),
            17,
        );
        seq.advance_cycles(1_000);
        let mut bat = seq.clone();
        for _ in 0..3 {
            let want: Vec<Vec<f32>> = xs.iter().map(|x| seq.matvec(x)).collect();
            let got = bat.matvec_batch(&xs);
            assert_eq!(got.len(), want.len());
            for (g, w_) in got.iter().flatten().zip(want.iter().flatten()) {
                assert_eq!(g.to_bits(), w_.to_bits());
            }
        }
        let counters = |m: &ReramMatrix| -> Vec<(u64, u64, u64)> {
            m.crossbars().map(Crossbar::spike_counters).collect()
        };
        assert_eq!(counters(&bat), counters(&seq));
        let bits = |m: &ReramMatrix| -> Vec<u32> { m.read().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&bat), bits(&seq));
        assert!(bat.matvec_batch(&[]).is_empty());
    }

    impl ReramMatrix {
        /// The products of `xs` with every member crossbar integrating its
        /// own phases: the path the composite must equal bit for bit.
        fn matvec_members(&mut self, xs: &[Vec<f32>]) -> Vec<f32> {
            self.matvec_flat(xs.iter().map(Vec::as_slice), false)
        }

        /// Whether the composite matches every member's current generation.
        fn composite_is_current(&self) -> bool {
            let generations = self.generations();
            self.composite
                .0
                .as_ref()
                .is_some_and(|c| c.generations == generations)
        }
    }

    /// Every member's spike counters and read-noise epoch.
    fn read_state(m: &ReramMatrix) -> Vec<((u64, u64, u64), u64)> {
        m.crossbars()
            .map(|x| (x.spike_counters(), x.read_epoch()))
            .collect()
    }

    /// At 32-bit data one word line's product reaches `2^62`, so the
    /// shift-add of a few lines overflows `i64`; the per-crossbar path
    /// sums them exactly.
    #[test]
    fn thirty_two_bit_products_do_not_wrap() {
        let params = ReramParams {
            data_bits: 32,
            ..ReramParams::default()
        };
        for n in 1..=4 {
            let mut m = ReramMatrix::program(&vec![1.0; n], 1, n, &params);
            assert_eq!(m.matvec(&vec![1.0; n]), [n as f32], "{n} word lines");
        }
    }

    /// The composite path's bound: `rows·mask·(2^data_bits − 1) < 2^63`,
    /// so never at 32-bit data, and at 31 bits up to two word lines.
    #[test]
    fn composite_bound_excludes_32_bit_data() {
        assert!(fits_composite(1 << 20, drive_mask(16), 16));
        assert!(fits_composite(2, drive_mask(31), 31));
        assert!(!fits_composite(3, drive_mask(31), 31));
        assert!(!fits_composite(1, drive_mask(32), 32));
        // A subnormal input scale quantizes past 2^(data_bits−1), up to
        // the driver's mask; the product stays exact on both paths.
        let mut m = ReramMatrix::program(&[1.0, -1.0], 2, 1, &ReramParams::default());
        let x = vec![vec![1e-40f32]];
        let mut members = m.clone();
        assert_eq!(bits(&m.matvec(&x[0])), bits(&members.matvec_members(&x)));
        assert!(m.composite_is_current());
    }

    /// After each mutation the next `matvec` equals a fresh matrix's (a
    /// clone, which starts without a composite, read through the
    /// per-crossbar path) and differs from the product before it: a stale
    /// composite would have served the old one.
    #[test]
    fn every_mutation_invalidates_the_composite() {
        use rand::rngs::StdRng;
        type Mutation = fn(&mut ReramMatrix, &mut StdRng);
        let drift = DriftModel {
            nu: 0.2,
            nu_sigma: 0.15,
            t0_cycles: 30,
            disturb_per_level: 0,
        };
        let ideal = DeviceModel::ideal();
        let faults = ideal.with_faults(FaultModel::with_stuck_rate(0.3));
        let wear = ideal.with_wear(WearModel::with_endurance(3.0));
        let policy = VerifyPolicy {
            max_attempts: 3,
            write_sigma: 0.4,
        };
        let (out_dim, in_dim) = (6, 9);
        let mut rng = StdRng::seed_from_u64(12);
        let w1 = random_weights(out_dim * in_dim, 1.0, &mut rng);
        let w2 = random_weights(out_dim * in_dim, 1.0, &mut rng);
        let cases: [(&str, DeviceModel, Mutation); 9] = [
            ("write", ideal, |m, _| {
                m.write(&m.read().iter().map(|w| 0.5 - w).collect::<Vec<_>>())
            }),
            ("write_verify", wear, |m, rng| {
                let w: Vec<f32> = m.read().iter().map(|w| -w).collect();
                m.write_verify(&w, &VerifyPolicy::with_attempts(3), rng);
            }),
            ("remap_outputs", faults, |m, rng| {
                let all: Vec<usize> = (0..m.out_dim()).collect();
                m.remap_outputs(&all, &VerifyPolicy::default(), rng);
            }),
            ("repair_outputs", faults, |m, _| {
                m.repair_outputs(&(0..m.out_dim()).collect::<Vec<_>>());
            }),
            ("scrub_rows", ideal.with_drift(drift), |m, rng| {
                m.scrub_rows(0, m.in_dim(), &VerifyPolicy::default(), rng);
            }),
            ("advance_cycles", ideal.with_drift(drift), |m, _| {
                m.advance_cycles(1_000_000)
            }),
            ("attach", ideal, |m, _| {
                m.attach(
                    &DeviceModel::ideal().with_faults(FaultModel::with_stuck_rate(0.3)),
                    4,
                )
            }),
            ("restore_levels", ideal, |m, _| {
                for x in m.crossbars_mut() {
                    let levels: Vec<u8> = x.stored_levels().iter().map(|l| 15 - l).collect();
                    x.restore_levels(&levels);
                }
            }),
            ("crossbar swap", ideal, |m, _| {
                let first = m.crossbars().next().map(Crossbar::generation);
                let Some(slot) = m.crossbars_mut().next() else {
                    return;
                };
                let levels = vec![15; slot.rows() * slot.cols()];
                let mut swapped = Crossbar::new(slot.rows(), slot.cols(), slot.cell_bits());
                while Some(swapped.generation()) != first {
                    swapped.program(&levels);
                }
                *slot = swapped;
            }),
        ];
        let x = vec![vec![1.0f32; in_dim]];
        for (name, device, mutate) in cases {
            let mut m = ReramMatrix::program(&w1, out_dim, in_dim, &ReramParams::default());
            m.attach(&device, 3);
            if name == "scrub_rows" {
                m.advance_cycles(1_000_000);
            }
            let before = m.matvec_batch(&x).concat();
            assert!(m.composite_is_current(), "{name}: built on the first read");
            mutate(&mut m, &mut rng);
            let mut fresh = m.clone();
            let got = m.matvec_batch(&x).concat();
            assert_eq!(bits(&got), bits(&fresh.matvec_members(&x)), "{name}");
            assert_ne!(bits(&got), bits(&before), "{name} must move the product");
            assert_eq!(read_state(&m), read_state(&fresh), "{name}");
        }

        // A clone starts empty and reads its own state after the
        // original is rewritten. A write keeps a composite, current and of
        // its own signed levels, only on a matrix that had one.
        let mut m = ReramMatrix::program(&w1, out_dim, in_dim, &ReramParams::default());
        let before = m.matvec_batch(&x).concat();
        let mut clone = m.clone();
        assert!(clone.composite.0.is_none(), "a clone starts empty");
        m.write(&w2);
        assert!(m.composite_is_current(), "a read matrix keeps one");
        assert!(m.composite.0.as_ref().is_some_and(|c| c.signed));
        let mut unread = clone.clone();
        unread.write(&w2);
        assert!(unread.composite.0.is_none(), "an unread matrix gains none");
        assert_eq!(bits(&unread.read()), bits(&m.read()));
        m.write_verify(&w2, &policy, &mut rng);
        assert!(m.composite.0.is_none(), "a verified write frees it");
        assert_eq!(bits(&clone.matvec_batch(&x).concat()), bits(&before));
        let mut fresh = m.clone();
        assert_eq!(
            bits(&m.matvec_batch(&x).concat()),
            bits(&fresh.matvec_members(&x))
        );
    }

    #[test]
    fn composite_kernel_arms_agree() {
        use rand::{rngs::StdRng, RngExt as _};
        let mut rng = StdRng::seed_from_u64(9);
        for (rows, cols, samples, cell_bits, data_bits) in [
            (1usize, 1usize, 1usize, 4u32, 16u32),
            (785, 100, 3, 4, 16),
            (33, 7, 5, 8, 24),
            (2, 11, 2, 1, 31),
            (5000, 3, 2, 2, 8),
        ] {
            let max = (1u16 << cell_bits) - 1;
            let members = 2 * (data_bits / cell_bits) as usize;
            let levels: Vec<Vec<u8>> = (0..members)
                .map(|_| {
                    (0..rows * cols)
                        .map(|_| rng.random_range(0..=max).to_le_bytes()[0])
                        .collect()
                })
                .collect();
            let levels: Vec<&[u8]> = levels.iter().map(Vec::as_slice).collect();
            let (mut weights, mut row_sums) = (vec![0; rows * cols], vec![0; members * rows]);
            let (mut w_avx2, mut sums_avx2) = (weights.clone(), row_sums.clone());
            fold_members::portable(&mut weights, &levels, cell_bits, cols, &mut row_sums);
            let ran = fold_members::avx2(&mut w_avx2, &levels, cell_bits, cols, &mut sums_avx2);
            let want: Vec<i32> = (0..rows * cols)
                .map(|k| {
                    (0..members / 2)
                        .map(|g| {
                            let d = i64::from(levels[2 * g][k]) - i64::from(levels[2 * g + 1][k]);
                            d << (g as u32 * cell_bits)
                        })
                        .sum::<i64>() as i32
                })
                .collect();
            assert_eq!(weights, want);
            let want_sums: Vec<u64> = levels
                .iter()
                .flat_map(|l| {
                    l.chunks_exact(cols)
                        .map(|r| r.iter().map(|&v| u64::from(v)).sum::<u64>())
                })
                .collect();
            assert_eq!(row_sums, want_sums);
            crate::multiversion::assert_arms_agree(
                (weights.clone(), row_sums.clone()),
                ran.map(|()| (w_avx2, sums_avx2)),
            );
            let (mut sums, mut sums_avx2) = (vec![0; members * rows], vec![0; members * rows]);
            level_sums::portable(&levels, cols, &mut sums);
            assert_eq!(sums, row_sums);
            let ran = level_sums::avx2(&levels, cols, &mut sums_avx2);
            crate::multiversion::assert_arms_agree(sums, ran.map(|()| sums_avx2));

            let mask = drive_mask(data_bits as u8);
            let phases: Vec<u32> = (0..2 * samples * rows)
                .map(|k| {
                    if k % 3 == 0 {
                        0
                    } else {
                        rng.random_range(0..=mask)
                    }
                })
                .collect();
            // Sample `k / 2`'s positive phase, then its negative one.
            type FoldPhase = fn(&mut [i32], &mut [u64], &[u32], i32, u32) -> Option<u64>;
            let fold_phases = |arm: FoldPhase| {
                let (mut drives, mut sums) = (vec![0; samples * rows], vec![0; rows]);
                let mut slots = 0;
                for (k, phase) in phases.chunks_exact(rows).enumerate() {
                    let (s, sign) = (k / 2, if k % 2 == 0 { 1 } else { -1 });
                    let drives = &mut drives[s * rows..(s + 1) * rows];
                    slots += arm(drives, &mut sums, phase, sign, mask)?;
                }
                Some((drives, sums, slots))
            };
            let portable = |d: &mut [i32], s: &mut [u64], p: &[u32], sign, m| {
                Some(fold_phase::portable(d, s, p, sign, m))
            };
            let folded = fold_phases(portable).unwrap_or_default();
            let want_slots: u64 = phases.iter().map(|&v| u64::from(v.count_ones())).sum();
            assert_eq!(folded.2, want_slots);
            let drives = folded.0.clone();
            let drive = |k: usize| i64::from(phases[k] & mask);
            let want_drives: Vec<i64> = (0..samples * rows)
                .map(|k| drive(k / rows * rows + k) - drive(k / rows * rows + k + rows))
                .collect();
            assert_eq!(
                drives.iter().map(|&d| i64::from(d)).collect::<Vec<_>>(),
                want_drives
            );
            crate::multiversion::assert_arms_agree(folded, fold_phases(fold_phase::avx2));

            let gemm = composite_gemm::portable(&weights, cols, &drives);
            let want: Vec<i64> = (0..samples * cols)
                .map(|k| {
                    let (s, c) = (k / cols, k % cols);
                    (0..rows)
                        .map(|r| i64::from(drives[s * rows + r]) * i64::from(weights[r * cols + c]))
                        .sum()
                })
                .collect();
            assert_eq!(gemm, want);
            crate::multiversion::assert_arms_agree(
                gemm,
                composite_gemm::avx2(&weights, cols, &drives),
            );
        }
    }

    /// The rounding both quantizers must reproduce, in `i64`.
    fn round_spec_wide(x: f32, qmax: i64) -> i64 {
        (x.round() as i64).clamp(-qmax, qmax)
    }

    /// The rounding spec [`round_clamp`] must reproduce.
    fn round_spec(x: f32, qmax: i32) -> i32 {
        round_spec_wide(x, qmax.into()) as i32
    }

    /// The clamps the quantizers use, the narrow rounding's bound, plus
    /// the extremes.
    const QMAXES: [i32; 8] = [0, 1, 7, 127, 32_767, NARROW_QMAX, i32::MAX - 1, i32::MAX];

    /// The phases [`encode_phases`] must give `x` at scale 1: `x`
    /// rounded half away from zero, clamped to `±u32::MAX`, split by sign.
    fn encode_spec(x: f32) -> (u32, u32) {
        let v = round_spec_wide(x, u32::MAX.into());
        (
            u32::try_from(v).unwrap_or(0),
            u32::try_from(-v).unwrap_or(0),
        )
    }

    /// [`encode_phases`] of the single input `x` at scale 1.
    fn encode_one(x: f32) -> (u32, u32) {
        let (mut pos, mut neg) = ([0], [0]);
        encode_phases::portable(&[x], 1.0, &mut pos, &mut neg);
        (pos[0], neg[0])
    }

    #[test]
    fn round_clamp_is_round_then_clamp_on_the_edges() {
        let mut xs = vec![
            0.0f32,
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 3.0, // subnormal
            f32::from_bits(1),       // smallest subnormal
            0.49999997,              // largest float below 0.5
            1.0 - f32::EPSILON / 2.0,
            8_388_607.5, // 2^23 − 0.5, the largest half
            8_388_608.0,
            16_777_217.0, // rounds to 2^24 as a literal
            2_147_483_520.0,
            2_147_483_648.0, // 2^31
            4_294_967_040.0,
            4_294_967_296.0, // 2^32
            9.223_372e18,    // 2^63
            1e30,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
        ];
        for n in 0..40 {
            let n = n as f32;
            xs.extend([n, n + 0.5, n - 0.5, n + 0.25, n + 0.75]);
        }
        for p in 0..64 {
            let x = 2f32.powi(p);
            xs.extend([x, x * (1.0 + f32::EPSILON), x * (1.0 - f32::EPSILON / 2.0)]);
        }
        let negated: Vec<f32> = xs.iter().map(|x| -x).collect();
        xs.extend(negated);
        for &x in &xs {
            for qmax in QMAXES {
                assert_eq!(
                    round_clamp(x, qmax),
                    round_spec(x, qmax),
                    "x {x:e} qmax {qmax}"
                );
                if qmax <= NARROW_QMAX {
                    assert_eq!(
                        round_clamp_narrow(x, qmax as f32),
                        round_spec(x, qmax),
                        "x {x:e} qmax {qmax}"
                    );
                }
            }
            assert_eq!(encode_one(x), encode_spec(x), "x {x:e}");
        }
        // Whole vectors on both arms, at scales that leave the rounding
        // alone, halve it, push it past `u32` and underflow to 0.
        for x_scale in [1.0f32, 0.5, 3.0, 1e-40, f32::from_bits(1), 0.0] {
            let n = xs.len();
            let (mut pos, mut neg) = (vec![0; n], vec![0; n]);
            let drives = encode_phases::portable(&xs, x_scale, &mut pos, &mut neg);
            let want: Vec<(u32, u32)> = xs.iter().map(|&x| encode_spec(x / x_scale)).collect();
            assert_eq!(
                pos.iter()
                    .copied()
                    .zip(neg.iter().copied())
                    .collect::<Vec<_>>(),
                want
            );
            let or = want.iter().fold((0, 0), |(p, n), &(a, b)| (p | a, n | b));
            assert_eq!(drives, or, "scale {x_scale:e}");
            let (mut pos2, mut neg2) = (vec![0; n], vec![0; n]);
            let ran = encode_phases::avx2(&xs, x_scale, &mut pos2, &mut neg2);
            crate::multiversion::assert_arms_agree(
                (drives, pos, neg),
                ran.map(|d| (d, pos2, neg2)),
            );
        }
    }

    /// The oracle of the fused write: every weight quantized with
    /// `f32::round` into one `u8` level buffer per member crossbar, each
    /// crossbar programmed from its buffer.
    fn quantize_levels_oracle(m: &mut ReramMatrix, weights: &[f32]) -> Vec<u8> {
        let absmax = weights.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
        m.weight_scale = if absmax == 0.0 {
            1.0
        } else {
            absmax / m.qmax() as f32
        };
        let mask = (1u64 << m.cell_bits) - 1;
        let (in_dim, out_dim, cell_bits) = (m.in_dim, m.out_dim, m.cell_bits);
        let (qmax, scale) = (i64::from(m.qmax()), m.weight_scale);
        let cells = in_dim * out_dim;
        let mut levels = vec![0u8; m.crossbar_count() * cells];
        for (o, row) in weights.chunks_exact(in_dim).enumerate() {
            for (i, &w) in row.iter().enumerate() {
                let q = (w / scale).round() as i64;
                let q = q.clamp(-qmax, qmax);
                let mut at = i * out_dim + o + if q >= 0 { 0 } else { cells };
                let mut magnitude = q.unsigned_abs();
                for _ in &m.groups {
                    levels[at] = (magnitude & mask) as u8;
                    magnitude >>= cell_bits;
                    at += 2 * cells;
                }
            }
        }
        levels
    }

    fn write_oracle(m: &mut ReramMatrix, weights: &[f32]) {
        let levels = quantize_levels_oracle(m, weights);
        let cells = m.in_dim * m.out_dim;
        for (xbar, levels) in m.crossbars_mut().zip(levels.chunks_exact(cells)) {
            xbar.program_oracle(levels);
        }
    }

    fn write_verify_oracle(
        m: &mut ReramMatrix,
        weights: &[f32],
        policy: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> ProgramReport {
        let levels = quantize_levels_oracle(m, weights);
        let cells = m.in_dim * m.out_dim;
        let mut report = ProgramReport::default();
        for (xbar, levels) in m.crossbars_mut().zip(levels.chunks_exact(cells)) {
            report.merge(xbar.program_verify_oracle(levels, policy, rng));
        }
        report
    }

    /// The oracle of the storage-order read: group by group, each group
    /// over every weight.
    fn read_oracle(m: &ReramMatrix) -> Vec<f32> {
        let (in_dim, out_dim) = (m.in_dim, m.out_dim);
        let mut out = vec![0.0f32; out_dim * in_dim];
        for (g, (pos, neg)) in m.groups.iter().enumerate() {
            let shift = g as u32 * m.cell_bits as u32;
            let (pos, neg) = (pos.effective_levels(), neg.effective_levels());
            for (o, w) in out.chunks_exact_mut(in_dim).enumerate() {
                if m.masked_outputs[o] {
                    continue;
                }
                for (i, w) in w.iter_mut().enumerate() {
                    let (p, n) = (pos[i * out_dim + o], neg[i * out_dim + o]);
                    *w += ((i64::from(p) - i64::from(n)) << shift) as f32 * m.weight_scale;
                }
            }
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Random weights in `±span`, with exact zeros and the absmax weight
    /// `−span` (all zeros at `span = 0`).
    fn random_weights(n: usize, span: f32, rng: &mut impl rand::RngExt) -> Vec<f32> {
        (0..n)
            .map(|k| match k % 7 {
                _ if span == 0.0 => 0.0,
                0 => 0.0,
                1 => -span,
                _ => rng.random_range(-span..span),
            })
            .collect()
    }

    /// The device models the fused write is checked under.
    fn device_models() -> Vec<(&'static str, DeviceModel)> {
        let drift = DriftModel {
            nu: 0.1,
            nu_sigma: 0.05,
            t0_cycles: 8,
            disturb_per_level: 3,
        };
        let wear = WearModel {
            median_writes: 40.0,
            sigma: 0.5,
        };
        vec![
            ("ideal", DeviceModel::ideal()),
            (
                "faults",
                DeviceModel::ideal().with_faults(FaultModel::with_stuck_rate(0.05)),
            ),
            ("drift", DeviceModel::ideal().with_drift(drift)),
            (
                "noise",
                DeviceModel::ideal().with_noise(NoiseModel::with_strength(1.0)),
            ),
            ("wear", DeviceModel::ideal().with_wear(wear)),
            (
                "all",
                DeviceModel::ideal()
                    .with_faults(FaultModel::with_stuck_rate(0.02))
                    .with_drift(drift)
                    .with_noise(NoiseModel::with_strength(0.5))
                    .with_wear(wear),
            ),
        ]
    }

    /// The fused `write`/`write_verify` and the storage-order `read`, from
    /// the members or from a kept composite's signed levels, are the
    /// per-weight quantize-then-program and the group-major read, bit for bit,
    /// under every device model, at 16-, 8- and 32-bit data on 4-bit cells,
    /// 8-bit data on 2-bit cells and 32-bit data on 8-bit cells: the whole
    /// matrix state (levels, device
    /// state and generations, spike counters, weight scale), every
    /// `ProgramReport` and every read-back.
    #[test]
    fn fused_write_and_read_match_the_oracles() {
        use rand::{rngs::StdRng, RngExt as _};
        let mut rng = StdRng::seed_from_u64(31);
        for (cell_bits, data_bits) in [(4u8, 16u8), (4, 8), (2, 8), (4, 32), (8, 32)] {
            let params = ReramParams {
                cell_bits,
                data_bits,
                ..ReramParams::default()
            };
            for (name, model) in device_models() {
                let (out_dim, in_dim) = (rng.random_range(1usize..9), rng.random_range(1usize..13));
                let w = random_weights(out_dim * in_dim, 1.0, &mut rng);
                let mut fused = ReramMatrix::program(&w, out_dim, in_dim, &params);
                fused.attach(&model, 5);
                fused.advance_cycles(500);
                fused.mask_output(out_dim / 2);
                let mut oracle = fused.clone();
                let policy = VerifyPolicy {
                    max_attempts: 3,
                    write_sigma: 0.4,
                };
                let (mut rf, mut ro) = (StdRng::seed_from_u64(8), StdRng::seed_from_u64(8));
                let x: Vec<f32> = (0..in_dim).map(|i| i as f32 - 1.5).collect();
                for step in 0..6 {
                    let span = [1.0, 3e-3, 0.0, 250.0][step % 4];
                    let w = random_weights(out_dim * in_dim, span, &mut rng);
                    // A matrix read before its write keeps the write's
                    // signed levels, which the next read sums from.
                    assert_eq!(bits(&fused.matvec(&x)), bits(&oracle.matvec(&x)));
                    if step % 2 == 0 {
                        fused.write(&w);
                        write_oracle(&mut oracle, &w);
                    } else {
                        let a = fused.write_verify(&w, &policy, &mut rf);
                        let b = write_verify_oracle(&mut oracle, &w, &policy, &mut ro);
                        assert_eq!(a, b, "{name} {cell_bits}/{data_bits}: report");
                    }
                    assert_eq!(
                        format!("{fused:?}"),
                        format!("{oracle:?}"),
                        "{name} {cell_bits}/{data_bits} step {step}: state"
                    );
                    assert_eq!(
                        bits(&fused.read()),
                        bits(&read_oracle(&oracle)),
                        "{name}: read"
                    );
                    fused.advance_cycles(100);
                    oracle.advance_cycles(100);
                }
            }
        }
    }

    /// Both quantizer arms give the rounding spec's levels and scale, on
    /// the narrow rounding's clamps, its bound and past it, over random
    /// weights with a NaN, ±∞ among finite weights, all-zero weights, and
    /// spans whose scale is subnormal or underflows to 0.
    #[test]
    fn quantize_arms_agree() {
        use rand::{rngs::StdRng, RngExt as _};
        let mut rng = StdRng::seed_from_u64(3);
        let qmaxes = [
            0,
            1,
            127,
            32_767,
            NARROW_QMAX - 1,
            NARROW_QMAX,
            NARROW_QMAX + 1,
        ];
        for qmax in qmaxes.into_iter().chain([(1 << 30) - 1, i32::MAX]) {
            for case in 0..6 {
                let (out_dim, in_dim) =
                    (rng.random_range(1usize..40), rng.random_range(1usize..90));
                let span = [2.0, 0.0, 2.0, 1e-38, 1e-44, 3e5][case];
                let mut w = random_weights(out_dim * in_dim, span, &mut rng);
                match case {
                    0 => w[0] = f32::NAN,
                    2 => {
                        let mid = w.len() / 2;
                        w[0] = f32::INFINITY;
                        w[mid] = f32::NEG_INFINITY;
                    }
                    _ => {}
                }
                let (mut portable, mut avx2) = (vec![0; w.len()], vec![0; w.len()]);
                let scale = quantize_weights::portable(&w, in_dim, qmax, &mut portable);
                let ran = quantize_weights::avx2(&w, in_dim, qmax, &mut avx2);
                let absmax = w.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                let want_scale = if absmax == 0.0 {
                    1.0
                } else {
                    absmax / qmax as f32
                };
                assert_eq!(
                    scale.to_bits(),
                    want_scale.to_bits(),
                    "qmax {qmax} case {case}"
                );
                let want: Vec<i32> = (0..in_dim * out_dim)
                    .map(|k| {
                        let (i, o) = (k / out_dim, k % out_dim);
                        round_spec(w[o * in_dim + i] / scale, qmax)
                    })
                    .collect();
                assert_eq!(portable, want, "qmax {qmax} case {case}");
                let bits = |s: f32, q: &Vec<i32>| (s.to_bits(), q.clone());
                crate::multiversion::assert_arms_agree(
                    bits(scale, &portable),
                    ran.map(|s| bits(s, &avx2)),
                );
            }
        }
    }

    #[test]
    fn add_group_arms_agree() {
        use rand::{rngs::StdRng, RngExt as _};
        let mut rng = StdRng::seed_from_u64(5);
        for (n, cell_bits, data_bits) in
            [(1usize, 4u8, 16u32), (803, 4, 16), (97, 8, 24), (64, 2, 30)]
        {
            let max = (1u16 << cell_bits) - 1;
            let mut levels = || -> Vec<u8> {
                (0..n)
                    .map(|_| rng.random_range(0..=max).to_le_bytes()[0])
                    .collect()
            };
            let (pos, neg) = (levels(), levels());
            let start: Vec<f32> = (0..n).map(|k| k as f32 * 0.37 - 11.0).collect();
            for shift in (0..data_bits).step_by(usize::from(cell_bits)) {
                for scale in [3.0517578e-5, 0.1, 1e-42] {
                    let want: Vec<u32> = (0..n)
                        .map(|k| {
                            let d = (i64::from(pos[k]) - i64::from(neg[k])) << shift;
                            (start[k] + d as f32 * scale).to_bits()
                        })
                        .collect();
                    let (mut portable, mut avx2) = (start.clone(), start.clone());
                    add_group::portable(&mut portable, &pos, &neg, shift, scale);
                    let ran = add_group::avx2(&mut avx2, &pos, &neg, shift, scale);
                    assert_eq!(bits(&portable), want);
                    crate::multiversion::assert_arms_agree(portable, ran.map(|()| avx2));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsupported bit widths")]
    fn rejects_data_wider_than_the_spike_driver() {
        let params = ReramParams {
            data_bits: 36,
            ..ReramParams::default()
        };
        ReramMatrix::program(&[1.0], 1, 1, &params);
    }

    /// At 32-bit data a full-scale input drives `2^31`, one past `i32`:
    /// a single slot fires on each member crossbar (a clamp to
    /// `2^31 − 1` would fire 31), and the product stays exact.
    #[test]
    fn full_scale_input_drives_two_to_the_31() {
        let params = ReramParams {
            data_bits: 32,
            ..ReramParams::default()
        };
        let mut m = ReramMatrix::program(&[1.0, -0.5], 2, 1, &params);
        let y = m.matvec(&[-1.0]);
        assert_eq!(y, [-1.0, 0.5]);
        assert_eq!(m.read_spikes(), 16, "one slot on each of 16 crossbars");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// [`round_clamp`] and, on its clamps, [`round_clamp_narrow`] are
        /// `f32::round` then the clamp, and [`encode_phases`] that rounding
        /// split by sign, on every `f32` bit pattern.
        #[test]
        fn round_clamp_is_round_then_clamp(bits in 0u32..=u32::MAX, k in 0usize..8) {
            let x = f32::from_bits(bits);
            prop_assert_eq!(round_clamp(x, QMAXES[k]), round_spec(x, QMAXES[k]));
            // Magnitudes where rounding matters.
            let y = f32::from_bits(bits % 0x4f80_0000);
            prop_assert_eq!(round_clamp(y, QMAXES[k]), round_spec(y, QMAXES[k]));
            let narrow = QMAXES[k % 6];
            for v in [x, y, f32::from_bits(bits % 0x4b00_0000)] {
                prop_assert_eq!(round_clamp_narrow(v, narrow as f32), round_spec(v, narrow));
            }
            prop_assert_eq!(encode_one(x), encode_spec(x));
            prop_assert_eq!(encode_one(y), encode_spec(y));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The composite read is the per-crossbar path bit for bit: over
        /// random matrices, bit widths, signed batches (all-zero and
        /// one-signed samples included) and sequences of writes, verified
        /// writes, spare remaps, masked outputs, level restores, scrubs,
        /// clock advances, reads of the members through `crossbars()` and
        /// checkpoint round-trips, under ideal, faulted, drifting (without
        /// disturb) and wearing arrays, the outputs, the weights `read()`
        /// returns (from the write's signed levels on an ideal array that
        /// keeps its composite), every member's spike counters and read
        /// epoch, and the whole matrix state agree with a matrix that never
        /// builds a composite. Arrays with read noise or disturb, and
        /// 32-bit data, take the per-crossbar path.
        #[test]
        fn composite_matches_the_member_path(
            arm in 0usize..7,
            widths in 0usize..5,
            steps in 1usize..10,
            seed in 0u64..1000,
        ) {
            use rand::{rngs::StdRng, RngExt as _};
            let (cell_bits, data_bits) = [(4u8, 16u8), (4, 8), (2, 8), (8, 24), (4, 32)][widths];
            let params = ReramParams { cell_bits, data_bits, ..ReramParams::default() };
            let mut rng = StdRng::seed_from_u64(seed);
            let (out_dim, in_dim) = (rng.random_range(1usize..8), rng.random_range(1usize..14));
            let drift = DriftModel { nu: 0.2, nu_sigma: 0.15, t0_cycles: 30, disturb_per_level: 0 };
            let faults = FaultModel::with_stuck_rate(0.1);
            let wear = WearModel::with_endurance(30.0);
            let ideal = DeviceModel::ideal();
            let (device, invariant) = match arm {
                0 => (ideal, true),
                1 => (ideal.with_faults(faults), true),
                2 => (ideal.with_drift(drift), true),
                3 => (ideal.with_wear(wear), true),
                4 => (ideal.with_faults(faults).with_drift(drift).with_wear(wear), true),
                5 => (ideal.with_noise(NoiseModel::with_strength(1.0)), false),
                _ => (ideal.with_drift(DriftModel { disturb_per_level: 40, ..drift }), false),
            };
            let composite = invariant && fits_composite(in_dim, drive_mask(data_bits), data_bits);
            let w = random_weights(out_dim * in_dim, 1.0, &mut rng);
            let mut a = ReramMatrix::program(&w, out_dim, in_dim, &params);
            a.attach(&device, seed);
            let mut b = a.clone();
            let policy = VerifyPolicy { max_attempts: 3, write_sigma: 0.4 };
            let (mut ra, mut rb) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for step in 0..steps {
                let op = rng.random_range(0u8..10);
                match op {
                    0 => {
                        let w = random_weights(out_dim * in_dim, 1.0, &mut rng);
                        a.write(&w);
                        b.write(&w);
                    }
                    1 => {
                        let w = random_weights(out_dim * in_dim, 1.0, &mut rng);
                        let ya = a.write_verify(&w, &policy, &mut ra);
                        prop_assert_eq!(ya, b.write_verify(&w, &policy, &mut rb));
                    }
                    2 => {
                        let o = [rng.random_range(0..out_dim)];
                        let ya = a.remap_outputs(&o, &policy, &mut ra);
                        prop_assert_eq!(ya, b.remap_outputs(&o, &policy, &mut rb));
                    }
                    3 => {
                        let o = rng.random_range(0..out_dim);
                        a.mask_output(o);
                        b.mask_output(o);
                    }
                    4 => {
                        let max = (1u16 << cell_bits) - 1;
                        for (xa, xb) in a.crossbars_mut().zip(b.crossbars_mut()) {
                            let levels: Vec<u8> = (0..in_dim * out_dim)
                                .map(|_| rng.random_range(0..=max).to_le_bytes()[0])
                                .collect();
                            prop_assert!(xa.restore_levels(&levels) && xb.restore_levels(&levels));
                        }
                    }
                    5 => {
                        let (start, count) = (rng.random_range(0..in_dim), rng.random_range(1..=in_dim));
                        let ya = a.scrub_rows(start, count, &policy, &mut ra);
                        prop_assert_eq!(ya, b.scrub_rows(start, count, &policy, &mut rb));
                    }
                    6 => {
                        let cycles = rng.random_range(0u64..5_000);
                        a.advance_cycles(cycles);
                        b.advance_cycles(cycles);
                    }
                    7 => {
                        let members = |m: &ReramMatrix| -> Vec<(Vec<u8>, (u64, u64, u64))> {
                            m.crossbars().map(|x| (x.stored_levels(), x.spike_counters())).collect()
                        };
                        prop_assert_eq!(members(&a), members(&b));
                    }
                    8 => {
                        let snapshot: Vec<(Vec<u8>, (u64, u64, u64))> = a
                            .crossbars()
                            .map(|x| (x.stored_levels(), x.spike_counters()))
                            .collect();
                        let (scale, masked) = (a.weight_scale(), a.masked_outputs());
                        for m in [&mut a, &mut b] {
                            for (x, (levels, (r, w, o))) in m.crossbars_mut().zip(&snapshot) {
                                prop_assert!(x.restore_levels(levels));
                                x.restore_spike_counters(*r, *w, *o);
                            }
                            m.restore_weight_scale(scale);
                            m.restore_masked_outputs(&masked);
                        }
                    }
                    _ => {}
                }
                let xs: Vec<Vec<f32>> = (0..rng.random_range(0usize..4))
                    .map(|s| {
                        (0..in_dim)
                            .map(|i| match (s, i % 4) {
                                (1, _) => 0.0,
                                (2, _) => rng.random_range(0.0f32..2.0),
                                (_, 0) => 0.0,
                                _ => rng.random_range(-2.0f32..2.0),
                            })
                            .collect()
                    })
                    .collect();
                prop_assert_eq!(bits(&a.read()), bits(&b.read()), "op {} at step {}", op, step);
                let got = a.matvec_batch(&xs).concat();
                prop_assert_eq!(bits(&got), bits(&b.matvec_members(&xs)), "op {} at step {}", op, step);
                prop_assert_eq!(bits(&a.read()), bits(&b.read()));
                prop_assert_eq!(read_state(&a), read_state(&b));
                prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
                if xs.iter().flatten().any(|&v| v != 0.0) {
                    prop_assert_eq!(a.composite_is_current(), composite);
                }
            }
        }
    }

    /// The exact product an ideal `m` programmed with `w` owes input `x`:
    /// every weight's code `round(w / s_w)` (clamped to `±qmax`) times
    /// every input's code `round(x / s_x)`, summed in `i128`, then
    /// converted and scaled as the datapath does, `f32` times `s_w` times
    /// `s_x`.
    fn exact_product(m: &ReramMatrix, w: &[f32], x: &[f32]) -> Vec<f32> {
        let absmax = x.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        if absmax == 0.0 {
            return vec![0.0; m.out_dim];
        }
        let x_scale = absmax / (((1u64 << m.data_bits) - 1) as f32 / 2.0);
        let (qmax, w_scale) = (i128::from(m.qmax()), m.weight_scale());
        let qx: Vec<i128> = x.iter().map(|&v| (v / x_scale).round() as i128).collect();
        w.chunks_exact(m.in_dim)
            .map(|row| {
                let code = |w: f32| ((w / w_scale).round() as i128).clamp(-qmax, qmax);
                let dot: i128 = row.iter().zip(&qx).map(|(&w, &x)| code(w) * x).sum();
                dot as f32 * w_scale * x_scale
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Fig. 14(a) is exact: the shift-add of `data_bits / cell_bits`
        /// segment groups, positive minus negative, gives an ideal
        /// matrix's product as the exact integer product of its quantized
        /// weights and inputs times the two scales, bit for bit, on the
        /// composite and the per-crossbar path. The weights include the
        /// boundary codes 0, ±1, ±(qmax − 1) and ±qmax (one weight sits at
        /// full scale), the inputs zeros and ±full-scale values.
        #[test]
        fn ideal_product_is_the_exact_integer_product(
            widths in 0usize..7,
            seed in 0u64..1000,
        ) {
            use rand::{rngs::StdRng, RngExt as _};
            let (cell_bits, data_bits) =
                [(4u8, 16u8), (4, 8), (2, 8), (1, 4), (3, 12), (8, 24), (4, 32)][widths];
            let params = ReramParams { cell_bits, data_bits, ..ReramParams::default() };
            let mut rng = StdRng::seed_from_u64(seed);
            let (out_dim, in_dim) = (rng.random_range(1usize..8), rng.random_range(1usize..20));
            let qmax = i32::MAX >> (32 - data_bits);
            let codes = [qmax, qmax - 1, 1, 0, -1, 1 - qmax, -qmax];
            let mut w: Vec<f32> = (0..out_dim * in_dim)
                .map(|_| match rng.random_range(0..3) {
                    0 => codes[rng.random_range(0..codes.len())] as f32,
                    _ => rng.random_range(-1.0f32..1.0) * qmax as f32,
                })
                .collect();
            w[0] = if seed % 2 == 0 { qmax as f32 } else { -(qmax as f32) };
            let x: Vec<f32> = (0..in_dim)
                .map(|i| match (i, rng.random_range(0..4)) {
                    (0, _) if seed % 3 == 0 => -2.0,
                    (0, _) => 2.0,
                    (_, 0) => 0.0,
                    (_, 1) => -2.0,
                    _ => rng.random_range(-2.0f32..2.0),
                })
                .collect();
            let mut m = ReramMatrix::program(&w, out_dim, in_dim, &params);
            let want = bits(&exact_product(&m, &w, &x));
            prop_assert_eq!(bits(&m.matvec(&x)), want.clone());
            prop_assert_eq!(bits(&m.matvec_members(&[x])), want);
        }
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
