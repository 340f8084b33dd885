//! Functional training *through the ReRAM datapath* (Sec. 3.1, 4.3, 4.4).
//!
//! Every matrix–vector product — forward (`A_l`), error backward
//! (`A_l2` holding the reordered weights) — runs through the
//! `pipelayer-reram` crossbar model: 16-bit spike-coded inputs, 4-bit cells
//! with positive/negative pairs and resolution compensation, exact
//! integrate-and-fire read-out. Weight updates follow Fig. 14(b): the old
//! weights are *read from the arrays*, the averaged partial derivatives are
//! subtracted, and the result is written back to every copy the layer
//! holds. As in the mapping, the first layer holds no `A_l2`: no error
//! propagates into the input, so its only copy is `A_l`.
//!
//! Scope: the MNIST-scale networks — perceptrons (Mnist-A/B/C) and
//! stride-1 convolutional networks with max pooling (Mnist-0, C-4). A conv
//! layer and an FC layer are one layer type over one array pair; they
//! differ only in how a sample is lowered to crossbar rows. An FC layer
//! feeds one row `[x, 1]`; a conv layer feeds one row per kernel-window
//! position, the im2col window loop of Fig. 4, and its `A_l2` copy holds
//! the rot180-reordered kernels of Fig. 11. Max pooling runs in the
//! activation component's max register, folded into the layer before it.
//! This is the fidelity proof that PipeLayer's analog datapath trains
//! networks, not a fast trainer: every window position is an array read.

use crate::repair::{RepairController, RepairPolicy, SpareBudget};
use crate::scrub::ScrubPolicy;
use pipelayer_nn::loss::Loss;
use pipelayer_nn::spec::{LayerAt, LayerSpec, NetSpec, PoolKind, ShapeError};
use pipelayer_reram::{
    DeviceModel, DriftModel, FaultKind, FaultMap, FaultModel, NoiseModel, ProgramReport,
    ReramMatrix, ReramParams, VerifyPolicy, WearModel,
};
use pipelayer_tensor::ops::{self, PoolIndices};
use pipelayer_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::fmt;

/// Fault-tolerance knobs threaded through construction and updates.
#[derive(Debug, Clone)]
struct FaultState {
    verify: VerifyPolicy,
    /// Write-noise sampling for the program-and-verify loop.
    rng: StdRng,
    /// Merged cost of every verified write so far.
    report: ProgramReport,
}

/// Runtime-resilience state: the drift clock and the scrub scheduler.
#[derive(Debug, Clone)]
struct ResilienceState {
    scrub: ScrubPolicy,
    /// Verify policy the scrub re-pulses run under.
    verify: VerifyPolicy,
    /// Write-noise sampling for scrub re-pulses.
    rng: StdRng,
    /// Merged cost of every scrub pass so far.
    report: ProgramReport,
    /// Images processed since the last due scrub pass.
    images_since_scrub: u64,
    /// Scrub passes completed.
    passes: u64,
}

/// How a weighted layer's samples meet its crossbars: a stride-1 `k×k`
/// window walk, zero padding `pad`, over a `[c_in, in_hw.0, in_hw.1]` map,
/// one crossbar row per window position (Fig. 4). An FC layer is the 1×1
/// window over its flattened input, one row `[x, 1]` per sample, as in
/// `NetSpec::try_resolve`. Everything else about a layer (its arrays,
/// repair controllers, gradient buffer, update and maintenance) is the
/// same for both kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Geometry {
    k: usize,
    pad: usize,
    c_in: usize,
    c_out: usize,
    in_hw: (usize, usize),
}

impl Geometry {
    /// An inner product from `c_in` inputs to `c_out` outputs.
    fn fc(c_in: usize, c_out: usize) -> Self {
        let (k, pad, in_hw) = (1, 0, (1, 1));
        Geometry {
            k,
            pad,
            c_in,
            c_out,
            in_hw,
        }
    }

    /// One row per sample that is the sample itself: an FC layer.
    fn is_fc(self) -> bool {
        (self.k, self.pad, self.in_hw) == (1, 0, (1, 1))
    }

    /// Weights per output, bias excluded: `K²·C_in`.
    fn fan_in(self) -> usize {
        self.k * self.k * self.c_in
    }

    /// Input elements per sample.
    fn in_numel(self) -> usize {
        self.c_in * self.in_hw.0 * self.in_hw.1
    }

    /// Output map height and width: the window positions.
    fn out_hw(self) -> (usize, usize) {
        let (Geometry { k, pad, .. }, (h, w)) = (self, self.in_hw);
        (h + 2 * pad + 1 - k, w + 2 * pad + 1 - k)
    }

    /// Appends sample `x`'s forward crossbar rows to `rows`, each ending in
    /// the bias input `1`.
    fn lower(self, x: &[f32], rows: &mut Vec<f32>) {
        if self.is_fc() {
            rows.extend_from_slice(x);
            rows.push(1.0);
        } else {
            let map = (self.c_in, self.in_hw.0, self.in_hw.1);
            push_windows(x, map, self.k, pad_of(self.pad), self.out_hw(), true, rows);
        }
    }

    /// The rows an output error `delta` drives through `A_l2`: per sample,
    /// the windows over the δ map padded by `K − 1 − pad` at every input
    /// position (Fig. 11) — δ itself for an FC layer.
    fn lower_delta(self, delta: &[f32]) -> Cow<'_, [f32]> {
        if self.is_fc() {
            return Cow::Borrowed(delta);
        }
        let (ho, wo) = self.out_hw();
        let (map, full) = ((self.c_out, ho, wo), pad_of(self.k - 1) - pad_of(self.pad));
        let mut rows = Vec::new();
        for d in delta.chunks(self.c_out * ho * wo) {
            push_windows(d, map, self.k, full, self.in_hw, false, &mut rows);
        }
        Cow::Owned(rows)
    }
}

/// A padding as a signed offset (the error backward's is negative where
/// the forward padding exceeds `K − 1`).
fn pad_of(pad: usize) -> isize {
    isize::try_from(pad).unwrap_or(isize::MAX)
}

/// Appends one row per position of a stride-1 `k×k` window walk over the
/// `[c, h, w]` map `x` zero-padded by `pad` (cropped where negative), at
/// `(ho, wo)` positions in row-major order. A row holds the window in
/// `(c, ky, kx)` order, as `ops::im2col` lays it out, then a `1` with
/// `bias`.
fn push_windows(
    x: &[f32],
    (c, h, w): (usize, usize, usize),
    k: usize,
    pad: isize,
    (ho, wo): (usize, usize),
    bias: bool,
    rows: &mut Vec<f32>,
) {
    // The input index under window offset `o + d`, if inside the map.
    let at =
        |o: usize, d: usize, n: usize| usize::try_from(pad_of(o + d) - pad).ok().filter(|&i| i < n);
    for oy in 0..ho {
        for ox in 0..wo {
            for ci in 0..c {
                for ky in 0..k {
                    let y = at(oy, ky, h);
                    for kx in 0..k {
                        let v = y
                            .zip(at(ox, kx, w))
                            .and_then(|(y, xi)| x.get((ci * h + y) * w + xi));
                        rows.push(v.copied().unwrap_or(0.0));
                    }
                }
            }
            if bias {
                rows.push(1.0);
            }
        }
    }
}

/// Per sample, the `p` rows of `c` values each in `m` as a `[c × p]` map;
/// with `p` and `c` swapped, back. One row per sample (an FC layer)
/// already is its vector.
fn to_maps(m: Vec<f32>, p: usize, c: usize) -> Vec<f32> {
    if p == 1 {
        return m;
    }
    let mut out = vec![0.0; m.len()];
    for (src, dst) in m.chunks(p * c).zip(out.chunks_mut(p * c)) {
        for (i, row) in src.chunks(c).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if let Some(d) = dst.get_mut(j * p + i) {
                    *d = v;
                }
            }
        }
    }
    out
}

/// `m`'s products of the rows stored back to back in `rows`: one batched
/// MVM, or with `per_row` one `matvec` per row (the per-sample reference).
fn mvm(m: &mut ReramMatrix, rows: &[f32], per_row: bool) -> Vec<f32> {
    if per_row {
        let in_dim = m.in_dim();
        rows.chunks(in_dim).flat_map(|r| m.matvec(r)).collect()
    } else {
        m.matvec_rows(rows)
    }
}

/// One programmed copy of a layer's weights: its crossbars, the spare-column
/// controller that repairs them and the word line the round-robin scrub
/// visits next.
#[derive(Clone)]
struct WeightArray {
    matrix: ReramMatrix,
    repair: RepairController,
    cursor: usize,
}

impl WeightArray {
    /// `w`, `out_dim × in_dim` row-major, programmed onto a fresh matrix
    /// carrying `faults` under `salt`. With fault tolerance the weights then
    /// go through a commissioning scrub: a verified write whose
    /// unrecoverable columns are immediately remapped to spares (or masked
    /// once the budget runs out).
    fn commission(
        w: &[f32],
        (out_dim, in_dim): (usize, usize),
        params: &ReramParams,
        faults: &DeviceModel,
        salt: u64,
        fault_tolerance: Option<(&mut FaultState, SpareBudget)>,
    ) -> Self {
        let mut matrix = ReramMatrix::program(w, out_dim, in_dim, params);
        matrix.attach(faults, salt);
        let spares = fault_tolerance
            .as_ref()
            .map_or(SpareBudget::none(), |&(_, spares)| spares);
        let mut repair = RepairController::new(spares);
        if let Some((ft, _)) = fault_tolerance {
            let r = matrix.write_verify(w, &ft.verify, &mut ft.rng);
            repair.process(&mut matrix, &r);
            ft.report.merge(r);
        }
        WeightArray {
            matrix,
            repair,
            cursor: 0,
        }
    }

    /// Writes `w` (verified when fault tolerance is on). On the wear-aware
    /// path failures climb the retry → backoff → remap → mask ladder, and
    /// remaps bill the honest cost of re-programming the displaced column
    /// onto a blank spare.
    fn update(&mut self, w: &[f32], ft: Option<&mut FaultState>, wear_active: bool) {
        let Some(ft) = ft else {
            self.matrix.write(w);
            return;
        };
        let r = self.matrix.write_verify(w, &ft.verify, &mut ft.rng);
        if wear_active {
            let o = self
                .repair
                .process_update(&mut self.matrix, &r, &ft.verify, &mut ft.rng);
            ft.report.merge(r);
            ft.report.merge(o.repair);
        } else {
            self.repair.process(&mut self.matrix, &r);
            ft.report.merge(r);
        }
    }

    /// One budgeted scrub pass: re-programs the next `rows_per_pass` word
    /// lines from the cursor through the verify loop, as one block. With a
    /// headroom guard it visits the same rows one at a time and skips any
    /// whose smallest remaining write budget is below the guard:
    /// maintenance writes must not burn a near-dead row's last pulses.
    fn scrub(&mut self, rs: &mut ResilienceState) {
        let (rows, guard) = (rs.scrub.rows_per_pass, rs.scrub.min_headroom_writes);
        let (step, steps) = if guard == 0 { (rows, 1) } else { (1, rows) };
        for _ in 0..steps {
            if guard == 0 || self.matrix.row_wear_headroom(self.cursor) >= guard {
                let r = self
                    .matrix
                    .scrub_rows(self.cursor, step, &rs.verify, &mut rs.rng);
                rs.report.merge(r);
            }
            self.cursor = (self.cursor + step) % self.matrix.in_dim();
        }
    }
}

/// One weighted layer: its geometry, the pools folded after it, its arrays
/// and its gradient buffer.
#[derive(Clone)]
struct ReramMlpLayer {
    geometry: Geometry,
    /// Max-pools `(k, stride)` after the activation, folded into the layer
    /// as the activation component's max register (Sec. 4.2.3).
    pools: Vec<(usize, usize)>,
    /// `A_l`: forward arrays over `[x, 1]` (bias folded as an extra row).
    forward: WeightArray,
    /// `A_l2`: reordered weights for the error backward pass, on every
    /// layer but the first, whose input error nothing reads.
    backward: Option<WeightArray>,
    /// Accumulated partial derivatives (the memory-subarray `ΔW` buffers).
    grad_acc: Vec<f32>,
    relu: bool,
}

/// What one layer's forward pass over a batch keeps for its backward pass.
struct Pass {
    /// The forward crossbar rows, `∂W`'s right factors: the stored `d_l`
    /// of Fig. 12.
    rows: Vec<f32>,
    /// Activations after ReLU, before pooling (empty without ReLU).
    out: Vec<f32>,
    /// Per max-pool, each sample's argmax routing (Fig. 10b).
    pools: Vec<Vec<PoolIndices>>,
}

impl ReramMlpLayer {
    /// Xavier-initialised weights programmed onto a fresh forward array
    /// and, with `propagates`, a reordered-backward one, each carrying
    /// `faults` under the layer's `salt` and commissioned under fault
    /// tolerance (see [`WeightArray::commission`]).
    #[expect(clippy::too_many_arguments, reason = "one per layer property")]
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
    fn new(
        geometry: Geometry,
        pools: Vec<(usize, usize)>,
        relu: bool,
        propagates: bool,
        params: &ReramParams,
        rng: &mut impl Rng,
        faults: &DeviceModel,
        salt: u64,
        mut fault_tolerance: Option<(&mut FaultState, SpareBudget)>,
    ) -> Self {
        let Geometry { k, c_in, c_out, .. } = geometry;
        let (n_in, n_out) = (geometry.fan_in(), c_out);
        let a = (6.0 / (n_in + n_out) as f32).sqrt();
        let w: Vec<f32> = Tensor::uniform(&[n_out, n_in + 1], -a, a, rng).into_vec();
        let ft = fault_tolerance
            .as_mut()
            .map(|(ft, spares)| (&mut **ft, *spares));
        let forward = WeightArray::commission(&w, (n_out, n_in + 1), params, faults, salt, ft);
        let backward = propagates.then(|| {
            let wt = reorder_rot180(&w, c_out, c_in, k);
            let (shape, salt) = ((c_in, k * k * c_out), salt ^ BACKWARD_SALT);
            WeightArray::commission(&wt, shape, params, faults, salt, fault_tolerance)
        });
        ReramMlpLayer {
            geometry,
            pools,
            forward,
            backward,
            grad_acc: vec![0.0; n_out * (n_in + 1)],
            relu,
        }
    }

    /// The layer's arrays: `A_l`, then `A_l2` where the layer has one.
    fn arrays(&self) -> impl Iterator<Item = &WeightArray> {
        std::iter::once(&self.forward).chain(&self.backward)
    }

    /// [`arrays`](Self::arrays), mutably.
    fn arrays_mut(&mut self) -> impl Iterator<Item = &mut WeightArray> {
        std::iter::once(&mut self.forward).chain(&mut self.backward)
    }

    /// The forward pass of `n` samples stored back to back in `x`: lower
    /// each to crossbar rows, run the rows through `A_l` (with `per_row`
    /// one `matvec` each, the per-sample reference), raise the products to
    /// per-sample maps, then ReLU (the activation component's LUT) and
    /// max-pool. Returns the output and what the backward pass needs.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not hold `n` inputs of this layer's size.
    fn forward_pass(&mut self, x: &[f32], n: usize, per_row: bool) -> (Vec<f32>, Pass) {
        let g = self.geometry;
        assert_eq!(x.len(), n * g.in_numel(), "input width mismatch");
        let (ho, wo) = g.out_hw();
        let mut rows = Vec::with_capacity(n * ho * wo * (g.fan_in() + 1));
        for sample in x.chunks(g.in_numel()) {
            g.lower(sample, &mut rows);
        }
        let ys = mvm(&mut self.forward.matrix, &rows, per_row);
        let mut out = to_maps(ys, ho * wo, g.c_out);
        if self.relu {
            for o in &mut out {
                *o = o.max(0.0);
            }
        }
        let cached = if self.relu { out.clone() } else { Vec::new() };
        let (c, mut h, mut w) = (g.c_out, ho, wo);
        let mut pools = Vec::with_capacity(self.pools.len());
        for &(k, stride) in &self.pools {
            let mut pooled = Vec::new();
            let mut routes = Vec::with_capacity(n);
            for sample in out.chunks(c * h * w) {
                let map = Tensor::from_vec(&[c, h, w], sample.to_vec());
                let (y, route) = ops::maxpool2d(&map, k, stride);
                pooled.extend_from_slice(y.as_slice());
                routes.push(route);
            }
            h = ops::conv_output_len(h, k, stride, 0);
            w = ops::conv_output_len(w, k, stride, 0);
            out = pooled;
            pools.push(routes);
        }
        let pass = Pass {
            rows,
            out: cached,
            pools,
        };
        (out, pass)
    }

    /// The backward pass for the error `delta` at the layer's output: route
    /// δ back through the max-pools (Fig. 10b) and the ReLU (Fig. 10a),
    /// accumulate `∂W` one crossbar row at a time in sample order
    /// (Fig. 12), and where the layer has `A_l2` drive δ through it (Fig.
    /// 11) to return the error at the layer's input (empty without).
    fn backward_pass(&mut self, mut delta: Vec<f32>, pass: Pass, per_row: bool) -> Vec<f32> {
        for routes in pass.pools.iter().rev() {
            let windows = routes.first().map_or(1, |r| r.winners().len());
            let mut routed = Vec::new();
            for (d, route) in delta.chunks(windows).zip(routes) {
                let d = Tensor::from_vec(&[d.len()], d.to_vec());
                routed.extend_from_slice(ops::maxpool2d_backward(&d, route).as_slice());
            }
            delta = routed;
        }
        if self.relu {
            // ReLU error backward: AND with f'(d_l) (Fig. 10a).
            for (d, &o) in delta.iter_mut().zip(&pass.out) {
                if o <= 0.0 {
                    *d = 0.0;
                }
            }
        }
        // ∂W = δ · [d, 1]ᵀ accumulated into the buffer row by row (Fig.
        // 12's computation, exact here since it is a sum of outer
        // products). No zero-skip, so a NaN/Inf activation poisons the
        // gradient instead of vanishing.
        let g = self.geometry;
        let (ho, wo) = g.out_hw();
        let (c_out, p) = (g.c_out, ho * wo);
        let rows_of_delta = if p == 1 {
            Cow::Borrowed(delta.as_slice())
        } else {
            Cow::Owned(to_maps(delta.clone(), c_out, p))
        };
        for (d, x) in rows_of_delta
            .chunks(c_out)
            .zip(pass.rows.chunks(g.fan_in() + 1))
        {
            ops::outer_acc(&mut self.grad_acc, d, x);
        }
        let Some(backward) = &mut self.backward else {
            return Vec::new();
        };
        // δ_{l-1} on the A_l2 arrays: (W_l)ᵀ δ_l, or the full convolution
        // with the reordered kernels.
        let ys = mvm(&mut backward.matrix, &g.lower_delta(&delta), per_row);
        to_maps(ys, g.in_hw.0 * g.in_hw.1, g.c_in)
    }
}

/// Builds the Fig. 11 backward matrix from the forward one: entry
/// `[ci][(co,ky,kx)] = W[co][(ci, K-1-ky, K-1-kx)]`, biases dropped.
fn reorder_rot180(w: &[f32], c_out: usize, c_in: usize, k: usize) -> Vec<f32> {
    let cols_fwd = k * k * c_in + 1;
    let cols_bwd = k * k * c_out;
    let mut out = vec![0.0f32; c_in * cols_bwd];
    for ci in 0..c_in {
        for co in 0..c_out {
            for ky in 0..k {
                for kx in 0..k {
                    // Forward patch order is (ci, ky, kx), as im2col's.
                    let fwd_col = (ci * k + (k - 1 - ky)) * k + (k - 1 - kx);
                    let bwd_col = (co * k + ky) * k + kx;
                    out[ci * cols_bwd + bwd_col] = w[co * cols_fwd + fwd_col];
                }
            }
        }
    }
    out
}

/// Shape prologue shared by both batch-training schedules.
///
/// # Panics
///
/// Panics on an empty batch or an image/label length mismatch.
#[expect(clippy::disallowed_macros, reason = "caller bug: empty batch")]
fn check_batch(images: &[Tensor], labels: &[usize]) {
    assert!(!images.is_empty(), "empty batch");
    assert_eq!(images.len(), labels.len(), "length mismatch");
}

/// Mean loss over a batch of `n` samples.
#[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
fn mean_loss(total: f32, n: usize) -> f32 {
    total / n as f32
}

/// Magic + format version leading a device-state snapshot blob. Version 2
/// holds one matrix, controller and scrub cursor per built array; version
/// 1 also held the first layer's error-backward copy.
const DEVICE_STATE_MAGIC: u64 = 0x504c_5744_5331_0002;

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_usize_list(out: &mut Vec<u8>, xs: &[usize]) {
    push_u64(out, xs.len() as u64);
    for &x in xs {
        push_u64(out, x as u64);
    }
}

/// Little-endian cursor over a snapshot blob; every read is bounds-checked
/// so a truncated or foreign buffer fails the restore instead of panicking.
struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.bytes(8)?;
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }

    fn f32(&mut self) -> Option<f32> {
        let b = self.bytes(4)?;
        Some(f32::from_le_bytes(b.try_into().ok()?))
    }

    #[expect(clippy::cast_possible_truncation, reason = "a u64 fits a 64-bit usize")]
    fn usize_list(&mut self) -> Option<Vec<usize>> {
        let n = self.u64()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) / 8 {
            return None; // claimed length exceeds the remaining bytes
        }
        (0..n).map(|_| self.u64().map(|v| v as usize)).collect()
    }

    fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Appends one array's full device state: weight scale, masked outputs,
/// then per member crossbar the stored levels, live fault map, wear
/// counters and spike counters.
fn snapshot_matrix(out: &mut Vec<u8>, m: &ReramMatrix) {
    out.extend_from_slice(&m.weight_scale().to_le_bytes());
    push_usize_list(out, &m.masked_outputs());
    push_u64(out, m.crossbar_count() as u64);
    for c in m.crossbars() {
        push_u64(out, c.rows() as u64);
        push_u64(out, c.cols() as u64);
        out.extend_from_slice(&c.stored_levels());
        match c.fault_map() {
            Some(map) => {
                out.push(1);
                for r in 0..c.rows() {
                    for col in 0..c.cols() {
                        out.push(match map.get(r, col) {
                            None => 0,
                            Some(FaultKind::StuckAtZero) => 1,
                            Some(FaultKind::StuckAtMax) => 2,
                            Some(FaultKind::Dead) => 3,
                        });
                    }
                }
            }
            None => out.push(0),
        }
        match c.wear_state() {
            Some(w) => {
                out.push(1);
                let (pulses, generation) = w.counters();
                for &p in pulses {
                    push_u64(out, p);
                }
                for &g in generation {
                    push_u64(out, g);
                }
            }
            None => out.push(0),
        }
        let (r, w, o) = c.spike_counters();
        push_u64(out, r);
        push_u64(out, w);
        push_u64(out, o);
    }
}

/// Inverse of [`snapshot_matrix`]; `None` on any geometry or framing
/// mismatch. A snapshot with no fault map / no wear leaves the freshly
/// reconstructed array's state alone (the deterministic rebuild already
/// matches: faults only ever *appear* over a run, never vanish).
#[expect(clippy::cast_possible_truncation, reason = "a u64 fits a 64-bit usize")]
fn restore_matrix(rd: &mut ByteReader, m: &mut ReramMatrix) -> Option<()> {
    m.restore_weight_scale(rd.f32()?);
    let masked = rd.usize_list()?;
    m.restore_masked_outputs(&masked);
    if rd.u64()? as usize != m.crossbar_count() {
        return None;
    }
    for c in m.crossbars_mut() {
        let rows = rd.u64()? as usize;
        let cols = rd.u64()? as usize;
        if rows != c.rows() || cols != c.cols() {
            return None;
        }
        let levels = rd.bytes(rows * cols)?.to_vec();
        if !c.restore_levels(&levels) {
            return None;
        }
        if rd.u8()? == 1 {
            let mut map = FaultMap::pristine(rows, cols);
            let codes = rd.bytes(rows * cols)?;
            for (i, &code) in codes.iter().enumerate() {
                let kind = match code {
                    1 => Some(FaultKind::StuckAtZero),
                    2 => Some(FaultKind::StuckAtMax),
                    3 => Some(FaultKind::Dead),
                    _ => None,
                };
                if let Some(k) = kind {
                    map.set(i / cols, i % cols, k);
                }
            }
            if !c.set_faults(map) {
                return None;
            }
        }
        if rd.u8()? == 1 {
            let n = rows * cols;
            let mut pulses = Vec::with_capacity(n);
            for _ in 0..n {
                pulses.push(rd.u64()?);
            }
            let mut generation = Vec::with_capacity(n);
            for _ in 0..n {
                generation.push(rd.u64()?);
            }
            if !c.restore_wear_counters(&pulses, &generation) {
                return None;
            }
        }
        let (r, w, o) = (rd.u64()?, rd.u64()?, rd.u64()?);
        c.restore_spike_counters(r, w, o);
    }
    Some(())
}

fn snapshot_controller(out: &mut Vec<u8>, c: &RepairController) {
    let (remapped, masked, strikes, backoff, updates) = c.state();
    push_usize_list(out, remapped);
    push_usize_list(out, masked);
    push_u64(out, strikes.len() as u64);
    for &(col, s) in strikes {
        push_u64(out, col as u64);
        push_u64(out, u64::from(s));
    }
    push_u64(out, backoff.len() as u64);
    for &(col, until) in backoff {
        push_u64(out, col as u64);
        push_u64(out, until);
    }
    push_u64(out, updates);
}

#[expect(clippy::cast_possible_truncation, reason = "a u64 fits a 64-bit usize")]
fn restore_controller(rd: &mut ByteReader, c: &mut RepairController) -> Option<()> {
    let remapped = rd.usize_list()?;
    let masked = rd.usize_list()?;
    let n = rd.u64()? as usize;
    let mut strikes = Vec::new();
    for _ in 0..n {
        let col = rd.u64()? as usize;
        let s = u32::try_from(rd.u64()?).ok()?;
        strikes.push((col, s));
    }
    let n = rd.u64()? as usize;
    let mut backoff = Vec::new();
    for _ in 0..n {
        let col = rd.u64()? as usize;
        let until = rd.u64()?;
        backoff.push((col, until));
    }
    let updates = rd.u64()?;
    c.restore_state(remapped, masked, strikes, backoff, updates);
    Some(())
}

fn snapshot_report(out: &mut Vec<u8>, r: &ProgramReport) {
    push_u64(out, r.pulses);
    push_u64(out, r.ideal_pulses);
    push_u64(out, r.verify_reads);
    push_u64(out, r.unrecoverable.len() as u64);
    for u in &r.unrecoverable {
        push_u64(out, u.row as u64);
        push_u64(out, u.col as u64);
        out.push(u.target);
        out.push(u.actual);
    }
}

#[expect(clippy::cast_possible_truncation, reason = "a u64 fits a 64-bit usize")]
fn restore_report(rd: &mut ByteReader) -> Option<ProgramReport> {
    let pulses = rd.u64()?;
    let ideal_pulses = rd.u64()?;
    let verify_reads = rd.u64()?;
    let n = rd.u64()? as usize;
    let mut unrecoverable = Vec::new();
    for _ in 0..n {
        let row = rd.u64()? as usize;
        let col = rd.u64()? as usize;
        let target = rd.u8()?;
        let actual = rd.u8()?;
        unrecoverable.push(pipelayer_reram::UnrecoverableCell {
            row,
            col,
            target,
            actual,
        });
    }
    Some(ProgramReport {
        pulses,
        ideal_pulses,
        verify_reads,
        unrecoverable,
    })
}

/// Salt of layer `i`'s device streams under the model seed `seed`.
fn layer_salt(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(1 + 1000 * i as u64)
}

/// Salt offset of a layer's reordered-backward copy.
const BACKWARD_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Why [`ReramMlp::from_spec`] cannot run a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FunctionalError {
    /// The spec's geometry does not resolve.
    Shape(ShapeError),
    /// A convolution with a stride other than 1: the functional model
    /// feeds every kernel-window position of Fig. 4.
    StridedConv {
        /// The layer.
        at: LayerAt,
        /// Its stride.
        stride: usize,
    },
    /// Average pooling: the functional model pools in the activation
    /// component's max register only.
    AvgPool {
        /// The layer.
        at: LayerAt,
    },
}

impl fmt::Display for FunctionalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FunctionalError::Shape(e) => write!(f, "invalid network geometry at {}: {e}", e.site()),
            FunctionalError::StridedConv { at, stride } => write!(
                f,
                "layer {} ({}) has stride {stride}: functional convolutions run at stride 1",
                at.index, at.name
            ),
            FunctionalError::AvgPool { at } => write!(
                f,
                "layer {} ({}) averages: functional pooling is max pooling",
                at.index, at.name
            ),
        }
    }
}

impl std::error::Error for FunctionalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FunctionalError::Shape(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ShapeError> for FunctionalError {
    fn from(e: ShapeError) -> Self {
        FunctionalError::Shape(e)
    }
}

/// Configures a [`ReramMlp`] — the one place its device model, write
/// discipline and maintenance schedule are chosen. Start from
/// [`ReramMlp::from_spec`], or [`ReramMlp::builder`] for a perceptron.
///
/// # Example
///
/// ```
/// use pipelayer::functional::ReramMlp;
/// use pipelayer::ScrubPolicy;
/// use pipelayer_reram::{DeviceModel, DriftModel, NoiseModel, ReramParams, VerifyPolicy};
///
/// let device = DeviceModel::ideal()
///     .with_drift(DriftModel { nu: 0.1, nu_sigma: 0.05, t0_cycles: 100, disturb_per_level: 0 })
///     .with_noise(NoiseModel::with_strength(0.5));
/// let mut mlp = ReramMlp::builder(&[4, 8, 2], &ReramParams::default(), 7)
///     .device(device)
///     .scrub(ScrubPolicy::every(100, 4), VerifyPolicy::default())
///     .build();
/// assert_eq!(mlp.forward(&[0.1, -0.2, 0.3, 0.4]).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ReramMlpBuilder<'a> {
    /// Per weighted layer, its geometry and the max-pools folded after it.
    layers: Vec<(Geometry, Vec<(usize, usize)>)>,
    params: &'a ReramParams,
    seed: u64,
    device: DeviceModel,
    noise_seed: u64,
    fault_tolerance: Option<(VerifyPolicy, SpareBudget)>,
    repair: Option<RepairPolicy>,
    scrub: Option<(ScrubPolicy, VerifyPolicy)>,
}

impl<'a> ReramMlpBuilder<'a> {
    fn new(
        layers: Vec<(Geometry, Vec<(usize, usize)>)>,
        params: &'a ReramParams,
        seed: u64,
    ) -> Self {
        ReramMlpBuilder {
            layers,
            params,
            seed,
            device: DeviceModel::ideal(),
            noise_seed: seed,
            fault_tolerance: None,
            repair: None,
            scrub: None,
        }
    }

    /// The arrays' device model. Faults, drift and wear draw their
    /// per-layer streams from the model seed, noise from
    /// [`noise_seed`](Self::noise_seed).
    pub fn device(mut self, device: DeviceModel) -> Self {
        self.device = device;
        self
    }

    /// Seed of the noise component's streams (default: the model seed).
    pub fn noise_seed(mut self, seed: u64) -> Self {
        self.noise_seed = seed;
        self
    }

    /// Every weight write goes through the bounded program-and-verify loop
    /// of `verify`, and unrecoverable columns are remapped against
    /// `spares` (masked once the budget is gone). The initial weights are
    /// scrubbed at construction, before drift, noise or wear attach, so
    /// repair is active from the first forward pass.
    pub fn fault_tolerance(mut self, verify: VerifyPolicy, spares: SpareBudget) -> Self {
        self.fault_tolerance = Some((verify, spares));
        self
    }

    /// The repair escalation ladder wear-aware updates climb.
    pub fn repair_policy(mut self, policy: RepairPolicy) -> Self {
        self.repair = Some(policy);
        self
    }

    /// Runs the online scrub scheduler `scrub`, re-programming degraded
    /// word lines through the verify loop of `verify`. With
    /// [`ScrubPolicy::off`] only explicit [`ReramMlp::scrub_pass`] /
    /// [`ReramMlp::scrub_all`] calls refresh the arrays.
    pub fn scrub(mut self, scrub: ScrubPolicy, verify: VerifyPolicy) -> Self {
        self.scrub = Some((scrub, verify));
        self
    }

    /// Programs the initial weights and attaches the device model.
    pub fn build(self) -> ReramMlp {
        let seed = self.seed;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ft = self.fault_tolerance.map(|(verify, spares)| {
            let state = FaultState {
                verify,
                rng: StdRng::seed_from_u64(seed ^ 0x5eed_f417),
                report: ProgramReport::default(),
            };
            (state, spares)
        });
        let faults = DeviceModel::ideal().with_faults(self.device.faults);
        let depth = self.layers.len();
        let layers: Vec<ReramMlpLayer> = self
            .layers
            .into_iter()
            .enumerate()
            .map(|(i, (geometry, pools))| {
                ReramMlpLayer::new(
                    geometry,
                    pools,
                    i + 1 < depth,
                    i > 0,
                    self.params,
                    &mut rng,
                    &faults,
                    layer_salt(seed, i),
                    ft.as_mut().map(|(state, spares)| (state, *spares)),
                )
            })
            .collect();
        let resilience = self.scrub.map(|(scrub, verify)| ResilienceState {
            scrub,
            verify,
            rng: StdRng::seed_from_u64(seed ^ 0x5c2b_bed5),
            report: ProgramReport::default(),
            images_since_scrub: 0,
            passes: 0,
        });
        let mut mlp = ReramMlp {
            layers,
            loss: Loss::SoftmaxCrossEntropy,
            fault_tolerance: ft.map(|(state, _)| state),
            resilience,
            wear_active: false,
        };
        let aging = DeviceModel {
            faults: FaultModel::ideal(),
            noise: NoiseModel::ideal(),
            ..self.device
        };
        mlp.attach(&aging, seed);
        mlp.attach_noise(self.device.noise, self.noise_seed);
        if let Some(policy) = self.repair {
            mlp.set_repair_policy(policy);
        }
        mlp
    }
}

/// A network whose every MVM executes on the modelled ReRAM crossbars: a
/// multilayer perceptron, or a stride-1 convolutional network with max
/// pooling built through [`from_spec`](Self::from_spec). ReLU follows
/// every weighted layer except the last.
///
/// # Example
///
/// ```
/// use pipelayer::functional::ReramMlp;
/// use pipelayer_reram::ReramParams;
///
/// let mut mlp = ReramMlp::new(&[4, 8, 2], &ReramParams::default(), 7);
/// let out = mlp.forward(&[0.1, -0.2, 0.3, 0.4]);
/// assert_eq!(out.len(), 2);
/// ```
#[derive(Clone)]
pub struct ReramMlp {
    layers: Vec<ReramMlpLayer>,
    loss: Loss,
    /// `Some` when fault tolerance is on: writes verify-and-retry, and
    /// unrecoverable columns are repaired or masked.
    fault_tolerance: Option<FaultState>,
    /// `Some` when runtime resilience is on: the arrays age (drift +
    /// read disturb) and the scrub scheduler periodically refreshes them.
    resilience: Option<ResilienceState>,
    /// True once a non-ideal wear model is attached: updates then route
    /// through the retry/backoff repair ladder and remaps bill honest
    /// pulses. False keeps the legacy (pre-wear) escalation bit-exact.
    wear_active: bool,
}

impl ReramMlp {
    /// Starts configuring an MLP with the given layer widths (e.g.
    /// `[784, 100, 10]`), ReLU between layers and Xavier initial weights
    /// drawn from `seed`. Without further options the arrays are ideal,
    /// writes are fire-and-forget and nothing scrubs them.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given or any width is zero.
    #[expect(clippy::disallowed_macros, reason = "caller bug: degenerate widths")]
    pub fn builder<'a>(dims: &[usize], params: &'a ReramParams, seed: u64) -> ReramMlpBuilder<'a> {
        assert!(dims.len() >= 2, "need at least input and output widths");
        assert!(dims.iter().all(|&d| d > 0), "zero-width layer");
        let layers = dims
            .windows(2)
            .map(|w| (Geometry::fc(w[0], w[1]), Vec::new()))
            .collect();
        ReramMlpBuilder::new(layers, params, seed)
    }

    /// Starts configuring the network `spec` describes, with every layer's
    /// shape from [`NetSpec::try_resolve`]: conv layers run as the Fig. 4
    /// window loop, each max-pool folds into the layer before it, and the
    /// builder's options apply to conv and FC layers alike. An all-FC
    /// spec gives the network [`builder`](Self::builder) gives for its
    /// widths, bit for bit.
    ///
    /// # Errors
    ///
    /// [`FunctionalError::Shape`] where the geometry does not resolve,
    /// then [`FunctionalError::StridedConv`] or
    /// [`FunctionalError::AvgPool`] at the first layer the functional
    /// model cannot run.
    ///
    /// # Example
    ///
    /// ```
    /// use pipelayer::functional::ReramMlp;
    /// use pipelayer_nn::{spec::PoolKind, LayerSpec, NetSpec};
    /// use pipelayer_reram::ReramParams;
    ///
    /// let spec = NetSpec::new("tiny", (1, 8, 8), vec![
    ///     LayerSpec::Conv { k: 3, c_out: 4, stride: 1, pad: 0 },
    ///     LayerSpec::Pool { k: 2, stride: 2, kind: PoolKind::Max },
    ///     LayerSpec::Fc { n_out: 10 },
    /// ]);
    /// let params = ReramParams::default();
    /// let mut cnn = ReramMlp::from_spec(&spec, &params, 7)?.build();
    /// assert_eq!(cnn.forward(&[0.5; 64]).len(), 10);
    /// # Ok::<(), pipelayer::functional::FunctionalError>(())
    /// ```
    pub fn from_spec<'a>(
        spec: &NetSpec,
        params: &'a ReramParams,
        seed: u64,
    ) -> Result<ReramMlpBuilder<'a>, FunctionalError> {
        let mut resolved = spec.try_resolve()?.into_iter();
        let mut layers: Vec<(Geometry, Vec<(usize, usize)>)> = Vec::new();
        for (index, layer) in spec.layers.iter().enumerate() {
            if let LayerSpec::Pool { k, stride, kind } = *layer {
                if kind != PoolKind::Max {
                    let name = format!("pool{k}s{stride}");
                    return Err(FunctionalError::AvgPool {
                        at: LayerAt { index, name },
                    });
                }
                // `try_resolve` rejects a pool before every weighted layer.
                if let Some((_, pools)) = layers.last_mut() {
                    pools.push((k, stride));
                }
                continue;
            }
            // `try_resolve` yields one layer per conv/fc entry, in order.
            let Some(r) = resolved.next() else { break };
            let (k, pad) = match *layer {
                LayerSpec::Conv { stride, .. } if stride != 1 => {
                    let at = LayerAt {
                        index,
                        name: r.name,
                    };
                    return Err(FunctionalError::StridedConv { at, stride });
                }
                LayerSpec::Conv { k, pad, .. } => (k, pad),
                _ => (1, 0),
            };
            let (c_in, h, w) = r.in_shape;
            let geometry = Geometry {
                k,
                pad,
                c_in,
                c_out: r.matrix_cols,
                in_hw: (h, w),
            };
            layers.push((geometry, Vec::new()));
        }
        Ok(ReramMlpBuilder::new(layers, params, seed))
    }

    /// Shorthand for `builder(dims, params, seed).build()`: ideal arrays.
    pub fn new(dims: &[usize], params: &ReramParams, seed: u64) -> Self {
        Self::builder(dims, params, seed).build()
    }

    /// Shorthand for the builder with `faults` as the device model and
    /// [`fault_tolerance`](ReramMlpBuilder::fault_tolerance)`(verify, spares)`.
    pub fn with_fault_tolerance(
        dims: &[usize],
        params: &ReramParams,
        seed: u64,
        faults: &FaultModel,
        verify: VerifyPolicy,
        spares: SpareBudget,
    ) -> Self {
        Self::builder(dims, params, seed)
            .device(DeviceModel::ideal().with_faults(*faults))
            .fault_tolerance(verify, spares)
            .build()
    }

    /// Shorthand for the builder with `drift` as the device model and
    /// [`scrub`](ReramMlpBuilder::scrub)`(scrub, verify)`.
    pub fn with_resilience(
        dims: &[usize],
        params: &ReramParams,
        seed: u64,
        drift: DriftModel,
        scrub: ScrubPolicy,
        verify: VerifyPolicy,
    ) -> Self {
        Self::builder(dims, params, seed)
            .device(DeviceModel::ideal().with_drift(drift))
            .scrub(scrub, verify)
            .build()
    }

    /// Every array of every layer, in layer order: `A_l`, then `A_l2`
    /// where the layer has one.
    fn arrays(&self) -> impl Iterator<Item = &WeightArray> {
        self.layers.iter().flat_map(ReramMlpLayer::arrays)
    }

    /// Attaches every non-ideal component of `model` to every array (the
    /// forward copy of each layer and, past the first, its
    /// reordered-backward copy), salted per layer and direction from
    /// `seed`; ideal components leave the current state alone.
    fn attach(&mut self, model: &DeviceModel, seed: u64) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let salt = layer_salt(seed, i);
            for (a, offset) in layer.arrays_mut().zip([0, BACKWARD_SALT]) {
                a.matrix.attach(model, salt ^ offset);
            }
        }
        if !model.wear.is_ideal() {
            self.wear_active = true;
        }
    }

    /// Attaches `model` as every array's noise component after
    /// construction, as the builder does with its noise seed.
    pub fn attach_noise(&mut self, model: NoiseModel, seed: u64) {
        self.attach(&DeviceModel::ideal().with_noise(model), seed);
    }

    /// Attaches `model` as every array's wear component after construction,
    /// as the builder does after the commissioning write. Updates then
    /// climb the configured [`RepairPolicy`] ladder.
    pub fn attach_wear(&mut self, model: WearModel, seed: u64) {
        self.attach(&DeviceModel::ideal().with_wear(model), seed);
    }

    /// Replaces the repair escalation ladder on every array's controller
    /// (budget and history are kept). Only consulted on the wear-aware
    /// update path, i.e. after a non-ideal [`attach_wear`](Self::attach_wear).
    pub fn set_repair_policy(&mut self, policy: RepairPolicy) {
        for layer in &mut self.layers {
            for a in layer.arrays_mut() {
                a.repair.set_policy(policy);
            }
        }
    }

    /// Cells across all arrays whose write budget is exhausted — the dead
    /// population the wear model has killed so far (0 without wear).
    pub fn wear_exhausted_cells(&self) -> usize {
        self.arrays().map(|a| a.matrix.wear_exhausted_cells()).sum()
    }

    /// Spare columns still unused across every array's controller — the
    /// remaining self-repair headroom.
    pub fn spares_left(&self) -> usize {
        self.arrays().map(|a| a.repair.spares_left()).sum()
    }

    /// Number of weighted layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Forward pass on the crossbars for one sample: a flattened
    /// `[C, H, W]` input (a vector for a perceptron).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input size.
    pub fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        self.layers
            .iter_mut()
            .fold(x.to_vec(), |v, layer| layer.forward_pass(&v, 1, false).0)
    }

    /// The class [`forward`](Self::forward) scores highest.
    pub fn predict(&mut self, x: &[f32]) -> usize {
        let out = self.forward(x);
        out.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Accuracy over a labelled set.
    ///
    /// # Panics
    ///
    /// Panics on empty or mismatched inputs.
    #[expect(clippy::disallowed_macros, reason = "caller bug: empty eval set")]
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
    pub fn accuracy(&mut self, images: &[Tensor], labels: &[usize]) -> f32 {
        assert!(!images.is_empty(), "empty evaluation set");
        assert_eq!(images.len(), labels.len(), "length mismatch");
        let mut correct = 0usize;
        for (img, &label) in images.iter().zip(labels) {
            if self.predict(img.as_slice()) == label {
                correct += 1;
            }
        }
        correct as f32 / images.len() as f32
    }

    /// Trains one mini-batch and applies the Fig. 14(b) update: read old
    /// weights from the arrays, subtract the averaged partial derivatives,
    /// write back to every array of each layer. Returns mean loss.
    ///
    /// Samples are fed layer-major: every layer sees the crossbar rows of
    /// the whole batch (one per sample, or one per window position and
    /// sample for a conv layer) as one [`ReramMatrix::matvec_rows`] call,
    /// forward and error backward, so on arrays whose reads don't perturb
    /// the device each array's levels are walked once per batch instead of
    /// once per row. Every array still sees its reads in sample order, and
    /// losses and gradients accumulate in sample order, so the result is
    /// bitwise identical to the per-sample reference
    /// [`train_batch_scalar`](Self::train_batch_scalar) on every device
    /// model, per-read noise and read disturb included — differentially
    /// tested.
    ///
    /// # Panics
    ///
    /// Panics on empty or mismatched batches.
    pub fn train_batch(&mut self, images: &[Tensor], labels: &[usize], lr: f32) -> f32 {
        check_batch(images, labels);
        let total = self.batch_grads(images, labels, false);
        self.apply_update(images.len(), lr);
        mean_loss(total, images.len())
    }

    /// The forward/backward half of [`train_batch`](Self::train_batch):
    /// feeds the batch layer-major, accumulates `∂W` into the layer
    /// buffers, and returns the summed (not mean) loss. No update is
    /// applied and no clock advanced — callers own that. With `per_row`
    /// every crossbar row is its own `matvec`.
    ///
    /// # Panics
    ///
    /// Panics if an image's size differs from the input size.
    fn batch_grads(&mut self, images: &[Tensor], labels: &[usize], per_row: bool) -> f32 {
        let n = images.len();
        let width = self.layers.first().map_or(0, |l| l.geometry.in_numel());
        let mut v = Vec::with_capacity(n * width);
        for img in images {
            assert_eq!(img.numel(), width, "input width mismatch");
            v.extend_from_slice(img.as_slice());
        }
        // Forward, layer-major: one multi-row GEMM per layer.
        let mut passes = Vec::with_capacity(self.layers.len());
        for layer in &mut self.layers {
            let (out, pass) = layer.forward_pass(&v, n, per_row);
            passes.push(pass);
            v = out;
        }

        // Output error per sample, in sample order.
        let mut total = 0.0;
        let mut delta = Vec::with_capacity(v.len());
        for (out, &label) in v.chunks(v.len() / n).zip(labels) {
            let out_t = Tensor::from_vec(&[out.len()], out.to_vec());
            let (loss, delta_t) = self.loss.loss_and_delta(&out_t, label);
            total += loss;
            delta.extend_from_slice(delta_t.as_slice());
        }

        // Backward, layer-major: masking and ∂W accumulation run in sample
        // order, then one batched MVM through the A_l2 arrays propagates
        // every delta at once. The first layer, without A_l2, stops there.
        for (layer, pass) in self.layers.iter_mut().zip(passes).rev() {
            delta = layer.backward_pass(delta, pass, per_row);
        }
        total
    }

    /// Per-sample reference for [`train_batch`](Self::train_batch): one
    /// sample at a time, one `matvec` per crossbar row, identical
    /// arithmetic in identical order. Kept (and pinned by differential
    /// tests) so the batched feed always has a scalar path to be checked
    /// against.
    ///
    /// # Panics
    ///
    /// Panics on empty or mismatched batches.
    pub fn train_batch_scalar(&mut self, images: &[Tensor], labels: &[usize], lr: f32) -> f32 {
        check_batch(images, labels);
        let mut total = 0.0;
        for (img, label) in images.iter().zip(labels) {
            let (img, label) = (std::slice::from_ref(img), std::slice::from_ref(label));
            total += self.batch_grads(img, label, true);
        }
        self.apply_update(images.len(), lr);
        mean_loss(total, images.len())
    }

    /// Trains one mini-batch with the forward/backward feed fanned out
    /// over `threads` worker threads and the Fig. 14(b) update applied
    /// serially afterwards. Returns the mean loss.
    ///
    /// The batch is split into fixed 8-sample chunks; chunk `i` runs on
    /// worker `i % threads` against a private clone of the arrays (every
    /// chunk sees the same pre-update weights), and the per-chunk losses,
    /// gradient buffers and spike counts merge back *in chunk order*. The
    /// result is therefore bitwise independent of `threads` — `threads = 1`
    /// is the reference schedule — though not bit-comparable to
    /// [`train_batch`](Self::train_batch), whose single accumulator sums
    /// samples in a different order. Unlike the batched feed, this
    /// assumes reads don't perturb device state (ideal, faulted, wearing
    /// or pure-retention-drift arrays): under per-read noise or read
    /// disturb each chunk's clone of the arrays books only its own reads,
    /// so the clones diverge from one another and from the serial feed.
    ///
    /// # Panics
    ///
    /// Panics on empty or mismatched batches.
    pub fn train_batch_parallel(
        &mut self,
        images: &[Tensor],
        labels: &[usize],
        lr: f32,
        threads: usize,
    ) -> f32 {
        check_batch(images, labels);
        const CHUNK: usize = 8;
        let threads = threads.max(1);
        let n = images.len();
        let n_chunks = n.div_ceil(CHUNK);
        // Spike counters before the feed, so worker deltas can be billed
        // back onto the real arrays (clones' counters are discarded).
        let base = self.spike_counters();
        let template = &*self;
        let mut per_chunk: Vec<Option<(f32, Vec<Vec<f32>>)>> = vec![None; n_chunks];
        let mut deltas = vec![(0u64, 0u64, 0u64); base.len()];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let base = &base;
                    scope.spawn(move || {
                        let mut worker = template.clone();
                        let mut chunks = Vec::new();
                        for ci in (t..n_chunks).step_by(threads) {
                            let lo = ci * CHUNK;
                            let hi = (lo + CHUNK).min(n);
                            for layer in &mut worker.layers {
                                layer.grad_acc.fill(0.0);
                            }
                            let loss = worker.batch_grads(&images[lo..hi], &labels[lo..hi], false);
                            let grads: Vec<Vec<f32>> =
                                worker.layers.iter().map(|l| l.grad_acc.clone()).collect();
                            chunks.push((ci, loss, grads));
                        }
                        let delta: Vec<(u64, u64, u64)> = worker
                            .spike_counters()
                            .into_iter()
                            .zip(base)
                            .map(|((r, w, o), &(br, bw, bo))| (r - br, w - bw, o - bo))
                            .collect();
                        (chunks, delta)
                    })
                })
                .collect();
            for h in handles {
                let (chunks, delta) = match h.join() {
                    Ok(v) => v,
                    Err(p) => std::panic::resume_unwind(p),
                };
                for (ci, loss, grads) in chunks {
                    if let Some(slot) = per_chunk.get_mut(ci) {
                        *slot = Some((loss, grads));
                    }
                }
                for (d, t2) in deltas.iter_mut().zip(delta) {
                    d.0 += t2.0;
                    d.1 += t2.1;
                    d.2 += t2.2;
                }
            }
        });
        // Merge in chunk order: float sums then depend only on the chunk
        // partition (fixed CHUNK), never on the thread count.
        let mut total = 0.0f32;
        for (loss, grads) in per_chunk.into_iter().flatten() {
            total += loss;
            for (layer, g) in self.layers.iter_mut().zip(grads) {
                for (acc, gv) in layer.grad_acc.iter_mut().zip(g) {
                    *acc += gv;
                }
            }
        }
        let crossbars = self
            .layers
            .iter_mut()
            .flat_map(ReramMlpLayer::arrays_mut)
            .flat_map(|a| a.matrix.crossbars_mut());
        for (c, &(dr, dw, dout)) in crossbars.zip(&deltas) {
            let (r, w, o) = c.spike_counters();
            c.restore_spike_counters(r + dr, w + dw, o + dout);
        }
        self.apply_update(n, lr);
        mean_loss(total, n)
    }

    /// The Fig. 14(b) update + degradation tick shared by both batch
    /// schedules: read old weights, subtract the averaged partials, write
    /// them back to every array of the layer (verified when fault
    /// tolerance is on), clear the buffers and advance the clock by one
    /// cycle per image.
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
    fn apply_update(&mut self, batch_len: usize, lr: f32) {
        let scale = lr / batch_len as f32;
        let wear_active = self.wear_active;
        if let Some(ft) = self.fault_tolerance.as_mut() {
            // The unrecoverable list describes the latest write only; the
            // pulse and verify counters stay cumulative.
            ft.report.unrecoverable.clear();
        }
        for layer in &mut self.layers {
            let mut w = layer.forward.matrix.read(); // old weights from the arrays
            for (wi, g) in w.iter_mut().zip(&layer.grad_acc) {
                *wi -= scale * g;
            }
            let Geometry { k, c_in, c_out, .. } = layer.geometry;
            let backward = layer.backward.as_mut();
            let backward = backward.map(|b| (b, reorder_rot180(&w, c_out, c_in, k)));
            layer
                .forward
                .update(&w, self.fault_tolerance.as_mut(), wear_active);
            // The read-out is spent: its buffer can hold the next write's
            // signed levels.
            drop(w);
            if let Some((backward, wt)) = backward {
                backward.update(&wt, self.fault_tolerance.as_mut(), wear_active);
            }
            layer.grad_acc.fill(0.0);
        }
        // One processed image = one logical pipeline cycle: tick the
        // degradation clock and run any scrub passes that came due.
        self.advance_cycles(batch_len as u64);
    }

    /// Advances the degradation clock by `cycles` logical cycles (one per
    /// processed image) and runs any scrub passes the scheduler owes in
    /// that window. Arrays without drift do not age.
    pub fn advance_cycles(&mut self, cycles: u64) {
        for layer in &mut self.layers {
            for a in layer.arrays_mut() {
                a.matrix.advance_cycles(cycles);
            }
        }
        let mut due = 0;
        if let Some(rs) = self.resilience.as_mut() {
            if !rs.scrub.is_off() {
                rs.images_since_scrub += cycles;
                due = rs.images_since_scrub / rs.scrub.interval_images;
                rs.images_since_scrub %= rs.scrub.interval_images;
            }
        }
        for _ in 0..due {
            self.scrub_pass();
        }
    }

    /// Runs one budgeted scrub pass: every array walks the next
    /// `rows_per_pass` word lines from its round-robin cursor, materialises
    /// each cell's drifted level and re-programs it through the verify
    /// loop. No-op when resilience is off.
    pub fn scrub_pass(&mut self) {
        let Some(rs) = self.resilience.as_mut() else {
            return;
        };
        for a in self.layers.iter_mut().flat_map(ReramMlpLayer::arrays_mut) {
            a.scrub(rs);
        }
        rs.passes += 1;
    }

    /// Scrubs every word line of every array in one sweep (maintenance
    /// window / campaign use; the online scheduler uses budgeted passes).
    /// No-op when resilience is off.
    pub fn scrub_all(&mut self) {
        let Some(rs) = self.resilience.as_mut() else {
            return;
        };
        for a in self.layers.iter_mut().flat_map(ReramMlpLayer::arrays_mut) {
            let rows = a.matrix.in_dim();
            let r = a.matrix.scrub_rows(0, rows, &rs.verify, &mut rs.rng);
            rs.report.merge(r);
        }
        rs.passes += 1;
    }

    /// Cells across all arrays currently reading at a level other than the
    /// one programmed — the damage a scrub pass would repair.
    pub fn drifted_cells(&self) -> usize {
        self.arrays().map(|a| a.matrix.drifted_cells()).sum()
    }

    /// Merged cost of every scrub pass so far (`None` when resilience is
    /// off): re-pulses vs ideal, verify reads, unrecoverable cells.
    pub fn scrub_report(&self) -> Option<&ProgramReport> {
        self.resilience.as_ref().map(|rs| &rs.report)
    }

    /// Scrub passes completed so far (0 when resilience is off).
    pub fn scrub_passes(&self) -> u64 {
        self.resilience.as_ref().map_or(0, |rs| rs.passes)
    }

    /// Replaces the scrub policy (no-op when resilience is off). Lets a
    /// campaign train one network and then deploy cloned arms under
    /// different scrub schedules.
    pub fn set_scrub(&mut self, scrub: ScrubPolicy) {
        if let Some(rs) = self.resilience.as_mut() {
            rs.scrub = scrub;
            rs.images_since_scrub = 0;
        }
    }

    /// Merged cost of every verified write so far (`None` when fault
    /// tolerance is off): total pulses vs ideal pulses and verify reads,
    /// plus the cells left unrecoverable by the latest weight update (by
    /// the commissioning writes before the first update).
    pub fn fault_report(&self) -> Option<&ProgramReport> {
        self.fault_tolerance.as_ref().map(|ft| &ft.report)
    }

    /// Spare columns consumed across every array's controller.
    pub fn spares_used(&self) -> usize {
        self.arrays().map(|a| a.repair.remapped().len()).sum()
    }

    /// Output units masked off across every array — the
    /// graceful-degradation toll after the spare budget ran out.
    pub fn masked_units(&self) -> usize {
        self.arrays().map(|a| a.repair.masked().len()).sum()
    }

    /// Reads layer `li`'s weights (bias folded as the last column of each
    /// row) back from its arrays — the Fig. 14(b) read-out path. Values are
    /// the quantized weights the hardware actually holds.
    ///
    /// # Panics
    ///
    /// Panics if `li` is out of range.
    pub fn layer_weights(&self, li: usize) -> Vec<f32> {
        self.layers[li].forward.matrix.read()
    }

    /// `(n_in, n_out)` of layer `li`'s kernel matrix, bias excluded: for a
    /// conv layer `(K²·C_in, C_out)`.
    ///
    /// # Panics
    ///
    /// Panics if `li` is out of range.
    pub fn layer_dims(&self, li: usize) -> (usize, usize) {
        let g = self.layers[li].geometry;
        (g.fan_in(), g.c_out)
    }

    /// Word lines × bit lines of layer `li`'s forward matrix `A_l` and of
    /// its error-backward matrix `A_l2`, which the first layer does not
    /// hold.
    ///
    /// # Panics
    ///
    /// Panics if `li` is out of range.
    pub fn layer_arrays(&self, li: usize) -> ((usize, usize), Option<(usize, usize)>) {
        let shape = |a: &WeightArray| (a.matrix.in_dim(), a.matrix.out_dim());
        let layer = &self.layers[li];
        (shape(&layer.forward), layer.backward.as_ref().map(shape))
    }

    /// Total array-read spikes issued so far across every array (energy
    /// accounting).
    pub fn read_spikes(&self) -> u64 {
        self.arrays().map(|a| a.matrix.read_spikes()).sum()
    }

    /// Total programming pulses issued so far across every array.
    pub fn write_spikes(&self) -> u64 {
        self.arrays().map(|a| a.matrix.write_spikes()).sum()
    }

    /// Every crossbar's `(read, write, output)` spike counters, in array
    /// order.
    fn spike_counters(&self) -> Vec<(u64, u64, u64)> {
        self.arrays()
            .flat_map(|a| a.matrix.crossbars())
            .map(|c| c.spike_counters())
            .collect()
    }

    /// Serializes the complete device state of every array the network
    /// builds — stored cell levels, weight scales, live fault maps, wear
    /// counters, spike counters, masked outputs, the repair-controller
    /// ladders and scrub cursors — and the cumulative cost reports into
    /// one self-contained blob (the payload of a checkpoint's `WEAR`
    /// section). Pair with
    /// [`restore_device_state`](Self::restore_device_state) on a freshly
    /// reconstructed (same dims/params/seeds/attachments) MLP to resume a
    /// wearing run bitwise. The program-and-verify RNGs are deliberately
    /// *not* serialized: the wear campaign runs `write_sigma = 0`, under
    /// which the verify loop returns the target without ever drawing from
    /// them, so their state never influences the trajectory.
    pub fn device_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        push_u64(&mut out, DEVICE_STATE_MAGIC);
        push_u64(&mut out, self.arrays().count() as u64);
        for a in self.arrays() {
            snapshot_matrix(&mut out, &a.matrix);
            snapshot_controller(&mut out, &a.repair);
        }
        match &self.fault_tolerance {
            Some(ft) => {
                out.push(1);
                snapshot_report(&mut out, &ft.report);
            }
            None => out.push(0),
        }
        match &self.resilience {
            Some(rs) => {
                out.push(1);
                snapshot_report(&mut out, &rs.report);
                push_u64(&mut out, rs.images_since_scrub);
                push_u64(&mut out, rs.passes);
                let cursors: Vec<usize> = self.arrays().map(|a| a.cursor).collect();
                push_usize_list(&mut out, &cursors);
            }
            None => out.push(0),
        }
        out
    }

    /// Restores a [`device_state`](Self::device_state) snapshot onto this
    /// MLP, which must have been rebuilt along the same construction path
    /// (dims, params, seeds, fault model, wear attach) as the snapshotted
    /// one. Returns `false` — leaving the device in an unspecified,
    /// partially restored state that the caller should rebuild before
    /// retrying — on foreign magic, framing errors, geometry mismatches,
    /// or a snapshot whose optional sections don't match this MLP's
    /// configuration. It also returns `false`, untouched, when drift or
    /// noise state is attached: the snapshot carries neither clocks nor
    /// device deviates, so such a run could not resume on its trajectory.
    #[expect(clippy::cast_possible_truncation, reason = "a u64 fits a 64-bit usize")]
    pub fn restore_device_state(&mut self, blob: &[u8]) -> bool {
        let aging = self
            .arrays()
            .flat_map(|a| a.matrix.crossbars())
            .any(|c| c.drift_state().is_some() || c.noise_state().is_some());
        if aging {
            return false;
        }
        let mut rd = ByteReader::new(blob);
        if rd.u64() != Some(DEVICE_STATE_MAGIC) {
            return false;
        }
        if rd.u64().map(|v| v as usize) != Some(self.arrays().count()) {
            return false;
        }
        for a in self.layers.iter_mut().flat_map(ReramMlpLayer::arrays_mut) {
            if restore_matrix(&mut rd, &mut a.matrix).is_none()
                || restore_controller(&mut rd, &mut a.repair).is_none()
            {
                return false;
            }
        }
        match rd.u8() {
            Some(1) => {
                let Some(report) = restore_report(&mut rd) else {
                    return false;
                };
                let Some(ft) = self.fault_tolerance.as_mut() else {
                    return false;
                };
                ft.report = report;
            }
            Some(0) => {}
            _ => return false,
        }
        match rd.u8() {
            Some(1) => {
                let Some(report) = restore_report(&mut rd) else {
                    return false;
                };
                let (Some(images), Some(passes), Some(cursors)) =
                    (rd.u64(), rd.u64(), rd.usize_list())
                else {
                    return false;
                };
                // One cursor per array, on one of its word lines.
                let fits = cursors.len() == self.arrays().count()
                    && self
                        .arrays()
                        .zip(&cursors)
                        .all(|(a, &c)| c < a.matrix.in_dim());
                let Some(rs) = self.resilience.as_mut().filter(|_| fits) else {
                    return false;
                };
                rs.report = report;
                rs.images_since_scrub = images;
                rs.passes = passes;
                let arrays = self.layers.iter_mut().flat_map(ReramMlpLayer::arrays_mut);
                for (a, cursor) in arrays.zip(cursors) {
                    a.cursor = cursor;
                }
            }
            Some(0) => {}
            _ => return false,
        }
        rd.finished()
    }
}

/// The `pipelayer_nn::Trainer` checkpoint hook: the WEAR section of a PLW2
/// checkpoint carries exactly the [`ReramMlp::device_state`] blob.
impl pipelayer_nn::DeviceState for ReramMlp {
    fn device_state(&self) -> Vec<u8> {
        ReramMlp::device_state(self)
    }

    fn restore_device_state(&mut self, blob: &[u8]) -> bool {
        ReramMlp::restore_device_state(self, blob)
    }
}

/// Average-pools a `[1, H, W]` image by `factor` (used to shrink the
/// synthetic MNIST task so functional runs stay fast).
///
/// # Panics
///
/// Panics if the image is not rank-3 single-channel or not divisible.
pub fn downsample(img: &Tensor, factor: usize) -> Tensor {
    assert_eq!(img.dims()[0], 1, "expected single-channel [1,H,W]");
    assert_eq!(img.dims()[1] % factor, 0, "height not divisible");
    pipelayer_tensor::ops::avgpool2d(img, factor, factor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipelayer_nn::data::SyntheticMnist;
    use pipelayer_nn::serialize::{load_sections, save_sections};
    use pipelayer_nn::zoo;
    use pipelayer_reram::FaultModel;

    /// conv3x4 (pad 1) → max-pool 2 → fc10 over the 7×7 task.
    fn pooled_cnn() -> NetSpec {
        NetSpec::new(
            "pooled-cnn",
            (1, 7, 7),
            vec![
                LayerSpec::Conv {
                    k: 3,
                    c_out: 4,
                    stride: 1,
                    pad: 1,
                },
                LayerSpec::Pool {
                    k: 2,
                    stride: 2,
                    kind: PoolKind::Max,
                },
                LayerSpec::Fc { n_out: 10 },
            ],
        )
    }

    /// 64-bit FNV-1a.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    fn small_task() -> (Vec<Tensor>, Vec<usize>, Vec<Tensor>, Vec<usize>) {
        let data = SyntheticMnist::generate(120, 40, 77);
        let tr: Vec<Tensor> = data.train.images.iter().map(|t| downsample(t, 4)).collect();
        let te: Vec<Tensor> = data.test.images.iter().map(|t| downsample(t, 4)).collect();
        (tr, data.train.labels, te, data.test.labels)
    }

    #[test]
    fn reram_mlp_trains_on_synthetic_task() {
        let (tr, trl, te, tel) = small_task();
        let mut mlp = ReramMlp::new(&[49, 16, 10], &ReramParams::default(), 5);
        let before = mlp.accuracy(&te, &tel);
        let mut last_loss = f32::INFINITY;
        for epoch in 0..8 {
            let mut total = 0.0;
            for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)) {
                total += mlp.train_batch(imgs, labs, 0.3);
            }
            last_loss = total / (tr.len() / 10) as f32;
            let _ = epoch;
        }
        let after = mlp.accuracy(&te, &tel);
        assert!(
            after > before + 0.2 && after > 0.5,
            "ReRAM training failed: {before} -> {after}, loss {last_loss}"
        );
    }

    /// Attaching the ideal noise model must leave every forward bit
    /// identical to a never-attached MLP — the no-op gate at the
    /// functional level.
    #[test]
    fn ideal_noise_attach_is_exact_noop() {
        let x = [0.2f32, -0.4, 0.6, 0.1, -0.9, 0.5];
        let mut plain = ReramMlp::new(&[6, 4, 3], &ReramParams::default(), 8);
        let reference: Vec<u32> = plain.forward(&x).iter().map(|v| v.to_bits()).collect();

        let mut noisy = ReramMlp::builder(&[6, 4, 3], &ReramParams::default(), 8)
            .device(DeviceModel::ideal().with_noise(NoiseModel::ideal()))
            .build();
        let got: Vec<u32> = noisy.forward(&x).iter().map(|v| v.to_bits()).collect();
        assert_eq!(reference, got, "ideal noise model changed forward bits");
    }

    /// A noisy MLP still learns the synthetic task (the datapath stays
    /// trainable under mild analog non-idealities), and the noise actually
    /// perturbs the forward pass.
    #[test]
    fn noisy_reram_mlp_still_trains() {
        let (tr, trl, te, tel) = small_task();
        let noise = NoiseModel::with_strength(0.5);
        let mut mlp = ReramMlp::builder(&[49, 16, 10], &ReramParams::default(), 5)
            .device(DeviceModel::ideal().with_noise(noise))
            .build();

        let mut plain = ReramMlp::new(&[49, 16, 10], &ReramParams::default(), 5);
        let x: Vec<f32> = vec![0.3; 49];
        assert_ne!(
            plain
                .forward(&x)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            mlp.forward(&x)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "strength-0.5 noise should perturb the forward pass"
        );

        let before = mlp.accuracy(&te, &tel);
        for _ in 0..8 {
            for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)) {
                mlp.train_batch(imgs, labs, 0.3);
            }
        }
        let after = mlp.accuracy(&te, &tel);
        assert!(
            after > before + 0.15 && after > 0.4,
            "noisy ReRAM training failed: {before} -> {after}"
        );
    }

    /// The layer-major batched feed must reproduce the per-sample
    /// reference bit-for-bit — losses, weights and every crossbar's spike
    /// counters — for a perceptron and for a conv + max-pool + FC network,
    /// on ideal arrays, on fault-ridden ones, and where reads perturb later
    /// ones (drift with read disturb plus per-read noise): every array sees
    /// its reads in sample order under both schedules, and an array's
    /// device state depends only on its own reads.
    #[test]
    fn batched_feed_matches_scalar_reference_bitwise() {
        let (tr, trl, _, _) = small_task();
        let (params, cnn) = (ReramParams::default(), pooled_cnn());
        let devices: [fn(ReramMlpBuilder<'_>) -> ReramMlpBuilder<'_>; 3] = [
            |b| b,
            |b| b.device(DeviceModel::ideal().with_faults(FaultModel::with_stuck_rate(1e-3))),
            |b| {
                let drift = DriftModel {
                    nu: 0.1,
                    nu_sigma: 0.05,
                    t0_cycles: 8,
                    disturb_per_level: 40,
                };
                let device = DeviceModel::ideal()
                    .with_drift(drift)
                    .with_noise(NoiseModel::with_strength(0.5));
                b.device(device)
            },
        ];
        for conv in [false, true] {
            let net = || match conv {
                false => ReramMlp::builder(&[49, 16, 10], &params, 5),
                true => ReramMlp::from_spec(&cnn, &params, 5).expect("spec runs"),
            };
            for device in devices {
                let mut batched = device(net()).build();
                let mut scalar = device(net()).build();
                for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)).take(4) {
                    let lb = batched.train_batch(imgs, labs, 0.3);
                    let ls = scalar.train_batch_scalar(imgs, labs, 0.3);
                    assert_eq!(lb.to_bits(), ls.to_bits(), "loss bits diverged");
                }
                for li in 0..batched.depth() {
                    let wb = batched.layer_weights(li);
                    let ws = scalar.layer_weights(li);
                    for (a, b) in wb.iter().zip(&ws) {
                        assert_eq!(a.to_bits(), b.to_bits(), "weight bits diverged");
                    }
                }
                assert_eq!(batched.spike_counters(), scalar.spike_counters());
            }
        }
    }

    #[test]
    fn updates_issue_write_spikes() {
        let (tr, trl, _, _) = small_task();
        let mut mlp = ReramMlp::new(&[49, 8, 10], &ReramParams::default(), 6);
        let w0 = mlp.write_spikes();
        mlp.train_batch(&tr[..10], &trl[..10], 0.2);
        assert!(mlp.write_spikes() > w0, "update must reprogram cells");
        assert!(mlp.read_spikes() > 0);
    }

    #[test]
    fn forward_matches_float_reference_closely() {
        // A fresh (untrained) MLP's crossbar forward should track a float
        // recomputation within fixed-point error.
        let mut mlp = ReramMlp::new(&[6, 4, 3], &ReramParams::default(), 8);
        let x = [0.2f32, -0.4, 0.6, 0.1, -0.9, 0.5];
        let out = mlp.forward(&x);

        // Float reference from the array-stored weights.
        let mut v: Vec<f32> = x.to_vec();
        for layer in &mlp.layers {
            let w = layer.forward.matrix.read();
            let mut with_bias = v.clone();
            with_bias.push(1.0);
            let (n_in, n_out) = (layer.geometry.fan_in(), layer.geometry.c_out);
            let mut o = vec![0.0f32; n_out];
            for (oi, out_v) in o.iter_mut().enumerate() {
                *out_v = with_bias
                    .iter()
                    .enumerate()
                    .map(|(i, &xv)| w[oi * (n_in + 1) + i] * xv)
                    .sum();
                if layer.relu {
                    *out_v = out_v.max(0.0);
                }
            }
            v = o;
        }
        for (a, b) in out.iter().zip(&v) {
            assert!((a - b).abs() < 0.02, "crossbar {a} vs float {b}");
        }
    }

    #[test]
    fn downsample_shapes() {
        let img = Tensor::ones(&[1, 28, 28]);
        assert_eq!(downsample(&img, 4).dims(), &[1, 7, 7]);
    }

    #[test]
    fn fault_tolerant_mlp_tracks_pulse_overhead() {
        let (tr, trl, _, _) = small_task();
        let mut mlp = ReramMlp::with_fault_tolerance(
            &[49, 8, 10],
            &ReramParams::default(),
            6,
            &FaultModel::with_stuck_rate(1e-3),
            VerifyPolicy {
                max_attempts: 3,
                write_sigma: 0.2,
            },
            SpareBudget::typical(),
        );
        let scrub = mlp.fault_report().unwrap().clone();
        assert!(scrub.pulses > 0, "commissioning scrub must program cells");
        mlp.train_batch(&tr[..10], &trl[..10], 0.2);
        let after = mlp.fault_report().unwrap();
        assert!(after.pulses > scrub.pulses, "updates add verified pulses");
        assert!(after.verify_reads > 0);
        assert!(after.overhead() >= 1.0);
    }

    #[test]
    fn repair_keeps_faulty_mlp_close_to_ideal() {
        let (tr, trl, te, tel) = small_task();
        let faults = FaultModel::with_stuck_rate(1e-3);
        let policy = VerifyPolicy::with_attempts(3);

        let mut ideal = ReramMlp::new(&[49, 16, 10], &ReramParams::default(), 5);
        let mut repaired = ReramMlp::with_fault_tolerance(
            &[49, 16, 10],
            &ReramParams::default(),
            5,
            &faults,
            policy,
            SpareBudget::typical(),
        );
        for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)) {
            ideal.train_batch(imgs, labs, 0.3);
            repaired.train_batch(imgs, labs, 0.3);
        }
        let a_ideal = ideal.accuracy(&te, &tel);
        let a_rep = repaired.accuracy(&te, &tel);
        assert!(
            a_rep >= a_ideal - 0.10,
            "repaired ({a_rep}) should track ideal ({a_ideal})"
        );
    }

    #[test]
    fn masking_degrades_gracefully_not_catastrophically() {
        // No spares at a heavy fault rate: many columns get masked, but the
        // network still runs and produces finite outputs.
        let mut mlp = ReramMlp::with_fault_tolerance(
            &[20, 12, 4],
            &ReramParams::default(),
            3,
            &FaultModel::with_stuck_rate(0.02),
            VerifyPolicy::with_attempts(2),
            SpareBudget::none(),
        );
        assert!(mlp.masked_units() > 0, "2% faults must hit some column");
        assert_eq!(mlp.spares_used(), 0);
        let out = mlp.forward(&[0.5; 20]);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn forward_rejects_wrong_width() {
        let mut mlp = ReramMlp::new(&[4, 2], &ReramParams::default(), 1);
        mlp.forward(&[1.0, 2.0]);
    }

    fn aggressive_drift() -> DriftModel {
        DriftModel {
            nu: 0.15,
            nu_sigma: 0.05,
            t0_cycles: 16,
            disturb_per_level: 0,
        }
    }

    #[test]
    fn aging_corrupts_reads_and_scrub_all_restores_exactly() {
        let mut mlp = ReramMlp::with_resilience(
            &[12, 8, 4],
            &ReramParams::default(),
            9,
            aggressive_drift(),
            ScrubPolicy::off(),
            VerifyPolicy::default(),
        );
        let w0 = mlp.layer_weights(0);
        mlp.advance_cycles(200_000);
        assert!(mlp.drifted_cells() > 0, "aging must corrupt some cell");
        assert_eq!(mlp.scrub_passes(), 0, "policy off: scheduler stays idle");
        mlp.scrub_all();
        assert_eq!(mlp.drifted_cells(), 0);
        assert_eq!(mlp.layer_weights(0), w0, "scrub restores reads bitwise");
        let report = mlp.scrub_report().expect("resilience is on");
        assert!(report.pulses > 0, "restoring drifted cells takes pulses");
    }

    #[test]
    fn resilient_mlp_matches_plain_mlp_before_aging() {
        // Same seed, no elapsed cycles: the resilient build reads exactly
        // like the plain one (drift attach is a pure bookkeeping change).
        let plain = ReramMlp::new(&[10, 6, 3], &ReramParams::default(), 4);
        let res = ReramMlp::with_resilience(
            &[10, 6, 3],
            &ReramParams::default(),
            4,
            aggressive_drift(),
            ScrubPolicy::every(100, 4),
            VerifyPolicy::default(),
        );
        for li in 0..plain.depth() {
            assert_eq!(plain.layer_weights(li), res.layer_weights(li));
        }
    }

    #[test]
    fn scrub_scheduler_fires_on_the_image_interval() {
        let (tr, trl, _, _) = small_task();
        let mut mlp = ReramMlp::with_resilience(
            &[49, 8, 10],
            &ReramParams::default(),
            6,
            aggressive_drift(),
            ScrubPolicy::every(10, 4),
            VerifyPolicy::default(),
        );
        // 3 batches of 10 images at interval 10 → exactly 3 passes.
        for chunk in 0..3 {
            let lo = chunk * 10;
            mlp.train_batch(&tr[lo..lo + 10], &trl[lo..lo + 10], 0.2);
        }
        assert_eq!(mlp.scrub_passes(), 3);
        let report = mlp.scrub_report().expect("resilience is on");
        assert!(report.verify_reads > 0, "each pass reads scanned rows");
    }

    /// The headroom guard walks the same rows one at a time and skips
    /// those below it: a guard no row can meet leaves every drifted cell
    /// alone, one every row meets restores them through verified writes.
    #[test]
    fn scrub_guard_skips_rows_without_headroom() {
        for (guard, scrubs) in [(1, true), (u64::MAX, false)] {
            let device = DeviceModel::ideal()
                .with_drift(aggressive_drift())
                .with_wear(WearModel::with_endurance(300.0));
            let scrub = ScrubPolicy::every(100, 4).with_min_headroom(guard);
            let mut mlp = ReramMlp::builder(&[12, 8, 4], &ReramParams::default(), 9)
                .device(device)
                .scrub(scrub, VerifyPolicy::default())
                .build();
            mlp.advance_cycles(20_000);
            assert_eq!(mlp.scrub_passes(), 200);
            let reads = mlp.scrub_report().map_or(0, |r| r.verify_reads);
            assert_eq!(reads > 0, scrubs, "guard {guard}");
        }
    }

    #[test]
    fn cloned_arms_age_independently() {
        // The campaign pattern: train once, clone into arms, age each.
        let base = ReramMlp::with_resilience(
            &[8, 5, 3],
            &ReramParams::default(),
            2,
            aggressive_drift(),
            ScrubPolicy::off(),
            VerifyPolicy::default(),
        );
        let mut aged = base.clone();
        aged.advance_cycles(200_000);
        assert_eq!(base.drifted_cells(), 0);
        assert!(aged.drifted_cells() > 0);
    }

    /// Attaching the ideal wear model must be a complete no-op: same
    /// forward bits, same training trajectory, no wear state allocated.
    #[test]
    fn ideal_wear_attach_is_exact_noop() {
        let (tr, trl, _, _) = small_task();
        let mut plain = ReramMlp::new(&[49, 8, 10], &ReramParams::default(), 6);
        let mut worn = ReramMlp::new(&[49, 8, 10], &ReramParams::default(), 6);
        worn.attach_wear(WearModel::ideal(), 6);
        assert_eq!(worn.wear_exhausted_cells(), 0);
        for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)).take(3) {
            let lp = plain.train_batch(imgs, labs, 0.3);
            let lw = worn.train_batch(imgs, labs, 0.3);
            assert_eq!(lp.to_bits(), lw.to_bits(), "loss bits diverged");
        }
        for li in 0..plain.depth() {
            assert_eq!(plain.layer_weights(li), worn.layer_weights(li));
        }
        assert_eq!(plain.write_spikes(), worn.write_spikes());
    }

    /// Under an aggressive wear model cells die mid-training, the ladder
    /// consumes spares, and the network keeps producing finite outputs.
    #[test]
    fn wear_kills_cells_and_ladder_consumes_spares() {
        let (tr, trl, _, _) = small_task();
        let mut mlp = ReramMlp::with_fault_tolerance(
            &[49, 8, 10],
            &ReramParams::default(),
            6,
            &FaultModel::ideal(),
            VerifyPolicy::with_attempts(2),
            SpareBudget::typical(),
        );
        mlp.attach_wear(WearModel::with_endurance(200.0), 6);
        mlp.set_repair_policy(RepairPolicy::laddered());
        let spares0 = mlp.spares_left();
        for _ in 0..6 {
            for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)) {
                mlp.train_batch(imgs, labs, 0.3);
            }
        }
        assert!(mlp.wear_exhausted_cells() > 0, "cells must wear out");
        assert!(
            mlp.spares_left() < spares0 || mlp.masked_units() > 0,
            "dead columns must climb the ladder"
        );
        let out = mlp.forward(&[0.5; 49]);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    /// The builder attaches faults before the commissioning write and
    /// drift, noise and wear after it — the composition the shorthand
    /// constructors plus post-hoc `attach_*` calls produce, bit for bit —
    /// and an all-FC spec builds the network of its widths.
    #[test]
    fn builder_matches_constructor_plus_attach_bitwise() {
        let (tr, trl, _, _) = small_task();
        let (p, dims) = (ReramParams::default(), [49, 8, 10]);
        let (noise, wear) = (
            NoiseModel::with_strength(0.5),
            WearModel::with_endurance(300.0),
        );
        let faults = FaultModel::with_stuck_rate(1e-3);
        let (verify, spares) = (VerifyPolicy::with_attempts(2), SpareBudget::typical());
        let mut aging = ReramMlp::with_resilience(
            &dims,
            &p,
            6,
            aggressive_drift(),
            ScrubPolicy::every(10, 4),
            VerifyPolicy::default(),
        );
        aging.attach_noise(noise, 99);
        let mut wearing = ReramMlp::with_fault_tolerance(&dims, &p, 6, &faults, verify, spares);
        wearing.attach_wear(wear, 6);
        wearing.set_repair_policy(RepairPolicy::laddered());
        let device = DeviceModel::ideal();
        let fc = |n_out| LayerSpec::Fc { n_out };
        let spec = NetSpec::new("fc", (1, 7, 7), vec![fc(8), fc(10)]);
        let pairs = [
            (
                ReramMlp::new(&dims, &p, 6),
                ReramMlp::from_spec(&spec, &p, 6)
                    .expect("spec runs")
                    .build(),
            ),
            (
                aging,
                ReramMlp::builder(&dims, &p, 6)
                    .device(device.with_drift(aggressive_drift()).with_noise(noise))
                    .noise_seed(99)
                    .scrub(ScrubPolicy::every(10, 4), VerifyPolicy::default())
                    .build(),
            ),
            (
                wearing,
                ReramMlp::builder(&dims, &p, 6)
                    .device(device.with_faults(faults).with_wear(wear))
                    .fault_tolerance(verify, spares)
                    .repair_policy(RepairPolicy::laddered())
                    .build(),
            ),
        ];
        for (mut legacy, mut built) in pairs {
            for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)).take(3) {
                let a = legacy.train_batch(imgs, labs, 0.3);
                let b = built.train_batch(imgs, labs, 0.3);
                assert_eq!(a.to_bits(), b.to_bits(), "loss bits diverged");
            }
            assert_eq!(legacy.device_state(), built.device_state());
        }
    }

    /// The chunked parallel feed must be bitwise independent of the
    /// thread count — 1, 2 and 8 workers give identical weights, loss
    /// bits and spike counters, for a perceptron and a conv stack.
    #[test]
    fn parallel_feed_is_thread_count_invariant() {
        let (tr, trl, _, _) = small_task();
        let (p, cnn) = (ReramParams::default(), pooled_cnn());
        for conv in [false, true] {
            let build = || {
                let net = match conv {
                    false => ReramMlp::builder(&[49, 8, 10], &p, 6),
                    true => ReramMlp::from_spec(&cnn, &p, 6).expect("spec runs"),
                };
                net.device(DeviceModel::ideal().with_wear(WearModel::with_endurance(500.0)))
                    .fault_tolerance(VerifyPolicy::with_attempts(2), SpareBudget::typical())
                    .build()
            };
            let mut one = build();
            let mut two = build();
            let mut eight = build();
            for (imgs, labs) in tr.chunks(20).zip(trl.chunks(20)).take(3) {
                let l1 = one.train_batch_parallel(imgs, labs, 0.3, 1);
                let l2 = two.train_batch_parallel(imgs, labs, 0.3, 2);
                let l8 = eight.train_batch_parallel(imgs, labs, 0.3, 8);
                assert_eq!(l1.to_bits(), l2.to_bits(), "2-thread loss diverged");
                assert_eq!(l1.to_bits(), l8.to_bits(), "8-thread loss diverged");
            }
            for li in 0..one.depth() {
                assert_eq!(one.layer_weights(li), two.layer_weights(li));
                assert_eq!(one.layer_weights(li), eight.layer_weights(li));
            }
            assert_eq!(one.read_spikes(), two.read_spikes());
            assert_eq!(one.read_spikes(), eight.read_spikes());
            assert_eq!(one.write_spikes(), eight.write_spikes());
        }
    }

    /// Snapshot → PLW2 `WEAR` section → fresh rebuild → restore must
    /// reproduce a wearing run's trajectory bitwise, wear counters
    /// included: for a perceptron with stuck-at faults and for a wear-only
    /// conv stack whose cells die mid-run.
    #[test]
    fn device_state_roundtrips_under_wear() {
        let (tr, trl, _, _) = small_task();
        let (p, cnn) = (ReramParams::default(), pooled_cnn());
        for conv in [false, true] {
            let build = || {
                let (net, device) = match conv {
                    false => (
                        ReramMlp::builder(&[49, 8, 10], &p, 6),
                        DeviceModel::ideal()
                            .with_faults(FaultModel::with_stuck_rate(1e-3))
                            .with_wear(WearModel::with_endurance(300.0)),
                    ),
                    true => (
                        ReramMlp::from_spec(&cnn, &p, 6).expect("spec runs"),
                        DeviceModel::ideal().with_wear(WearModel::with_endurance(30.0)),
                    ),
                };
                net.device(device)
                    .fault_tolerance(VerifyPolicy::with_attempts(2), SpareBudget::typical())
                    .repair_policy(RepairPolicy::laddered())
                    .build()
            };
            let mut live = build();
            for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)).take(4) {
                live.train_batch(imgs, labs, 0.3);
            }
            let blob = live.device_state();
            let sections = load_sections(&save_sections(&[(*b"WEAR", blob.clone())]));
            let mut resumed = build();
            let restored = sections.is_ok_and(|s| resumed.restore_device_state(&s[0].1));
            assert!(restored, "restore must accept");
            for li in 0..live.depth() {
                assert_eq!(live.layer_weights(li), resumed.layer_weights(li));
            }
            assert_eq!(live.wear_exhausted_cells(), resumed.wear_exhausted_cells());
            assert_eq!(live.read_spikes(), resumed.read_spikes());
            assert_eq!(live.write_spikes(), resumed.write_spikes());

            // Both continue identically: the snapshot captured everything.
            for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)).skip(4).take(4) {
                let ll = live.train_batch(imgs, labs, 0.3);
                let lr = resumed.train_batch(imgs, labs, 0.3);
                assert_eq!(ll.to_bits(), lr.to_bits(), "post-restore loss diverged");
            }
            assert_eq!(live.device_state(), resumed.device_state());
            assert!(
                !conv || live.wear_exhausted_cells() > 0,
                "cells must wear out"
            );

            // Corrupt and truncated blobs are rejected, not panicked on.
            let mut bad = blob.clone();
            bad[0] ^= 0xff;
            assert!(!build().restore_device_state(&bad));
            assert!(!build().restore_device_state(&blob[..blob.len() / 2]));
            assert!(!build().restore_device_state(&[]));
        }
    }

    /// The device-state blob of the `wear-repair` configuration (verified
    /// writes, 8 spare columns, wear at 200 writes, the laddered repair)
    /// after 10 training steps, hashed: pins the blob format and the
    /// wear/repair trajectory bitwise.
    #[test]
    fn device_state_hash_is_pinned_under_wear_repair() {
        let (tr, trl, _, _) = small_task();
        let mut mlp = ReramMlp::with_fault_tolerance(
            &[49, 16, 10],
            &ReramParams::default(),
            5,
            &FaultModel::ideal(),
            VerifyPolicy::with_attempts(2),
            SpareBudget::with_cols(8),
        );
        let wear = WearModel {
            median_writes: 200.0,
            sigma: 0.2,
        };
        mlp.attach_wear(wear, 5);
        mlp.set_repair_policy(RepairPolicy::laddered());
        for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)).take(10) {
            mlp.train_batch(imgs, labs, 0.3);
        }
        assert_eq!(fnv1a(&mlp.device_state()), 0x34c8_a333_c759_ef53);
    }

    /// A version-1 blob — per layer the forward and error-backward matrices
    /// and controllers, the first layer's included, then `(forward,
    /// backward)` cursor pairs — is rejected under its own magic and under
    /// the current one, never misread as the current layout.
    #[test]
    fn device_state_rejects_the_old_layout() {
        let (tr, trl, _, _) = small_task();
        let p = ReramParams::default();
        let build = || {
            ReramMlp::builder(&[49, 8, 10], &p, 6)
                .device(DeviceModel::ideal().with_wear(WearModel::with_endurance(300.0)))
                .fault_tolerance(VerifyPolicy::with_attempts(2), SpareBudget::typical())
                .scrub(ScrubPolicy::off(), VerifyPolicy::default())
                .build()
        };
        let mut live = build();
        for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)).take(2) {
            live.train_batch(imgs, labs, 0.3);
        }
        // The first layer's error-backward copy the old layout carried.
        let g = live.layers[0].geometry;
        let wt = reorder_rot180(&live.layer_weights(0), g.c_out, g.c_in, g.k);
        let shape = (g.c_in, g.k * g.k * g.c_out);
        let ideal = DeviceModel::ideal();
        let stand_in = WeightArray::commission(&wt, shape, &p, &ideal, 0, None);
        let old_layout = |magic| {
            let mut out = Vec::new();
            push_u64(&mut out, magic);
            push_u64(&mut out, live.depth() as u64);
            for l in &live.layers {
                let b = l.backward.as_ref().unwrap_or(&stand_in);
                snapshot_matrix(&mut out, &l.forward.matrix);
                snapshot_matrix(&mut out, &b.matrix);
                snapshot_controller(&mut out, &l.forward.repair);
                snapshot_controller(&mut out, &b.repair);
            }
            for report in [live.fault_report(), live.scrub_report()] {
                out.push(1);
                snapshot_report(&mut out, report.expect("section is on"));
            }
            push_u64(&mut out, 0);
            push_u64(&mut out, live.scrub_passes());
            push_u64(&mut out, live.depth() as u64);
            for _ in 0..2 * live.depth() {
                push_u64(&mut out, 0);
            }
            out
        };
        assert!(build().restore_device_state(&live.device_state()));
        for magic in [0x504c_5744_5331_0001, DEVICE_STATE_MAGIC] {
            assert!(!build().restore_device_state(&old_layout(magic)));
        }
    }

    /// The first layer holds only `A_l`: no `A_l2`, no controller or spare
    /// budget for one, and nothing for the scrub to walk.
    #[test]
    fn first_layer_holds_no_error_backward_copy() {
        let mlp = ReramMlp::builder(&[49, 16, 10], &ReramParams::default(), 5)
            .fault_tolerance(VerifyPolicy::with_attempts(2), SpareBudget::with_cols(8))
            .scrub(ScrubPolicy::every(10, 4), VerifyPolicy::default())
            .build();
        assert_eq!(mlp.layer_arrays(0), ((50, 16), None));
        assert_eq!(mlp.layer_arrays(1), ((17, 10), Some((10, 16))));
        assert_eq!(mlp.arrays().count(), 3);
        assert_eq!(mlp.spares_left(), 3 * 8);
        let crossbars = mlp.arrays().map(|a| a.matrix.crossbar_count()).sum();
        assert_eq!(mlp.spike_counters().len(), crossbars);
    }

    /// Geometry that does not resolve and the functional model's two
    /// limits are typed errors carrying the layer.
    #[test]
    fn from_spec_rejects_with_typed_errors() {
        let p = ReramParams::default();
        let conv = |k, stride| LayerSpec::Conv {
            k,
            c_out: 2,
            stride,
            pad: 0,
        };
        let at = |index, name: &str| LayerAt {
            index,
            name: name.into(),
        };
        let err = |layers| {
            let spec = NetSpec::new("bad", (1, 8, 8), layers);
            ReramMlp::from_spec(&spec, &p, 7).map(|_| ()).unwrap_err()
        };
        let strided = err(vec![conv(3, 2), LayerSpec::Fc { n_out: 2 }]);
        let want = FunctionalError::StridedConv {
            at: at(0, "conv3x2"),
            stride: 2,
        };
        assert_eq!(strided, want);
        assert!(strided.to_string().contains("layer 0 (conv3x2)"));
        let avg = LayerSpec::Pool {
            k: 2,
            stride: 2,
            kind: PoolKind::Avg,
        };
        let averaged = err(vec![conv(3, 1), avg, LayerSpec::Fc { n_out: 2 }]);
        let want = FunctionalError::AvgPool {
            at: at(1, "pool2s2"),
        };
        assert_eq!(averaged, want);
        let misfit = err(vec![conv(9, 1)]);
        assert!(matches!(
            misfit,
            FunctionalError::Shape(ShapeError::WindowTooBig { .. })
        ));
        assert!(misfit.to_string().contains("layer 0 (conv9x2)"), "{misfit}");
    }

    /// A conv layer's crossbar forward, its max-pool, error backward (on
    /// `A_l2`) and `∂W` track the float convolution, pooling and backward
    /// passes over the weights the arrays hold, at paddings below, at and
    /// past `K − 1` (where the error backward crops instead of padding).
    /// The layer under test is the second: the first holds no `A_l2`.
    #[test]
    fn conv_layer_tracks_float_convolution() {
        let (c_in, h, w, k, c_out) = (2, 5, 6, 3, 3);
        let feed = LayerSpec::Conv {
            k: 1,
            c_out: c_in,
            stride: 1,
            pad: 0,
        };
        for pad in [0, 1, 3] {
            let conv = LayerSpec::Conv {
                k,
                c_out,
                stride: 1,
                pad,
            };
            let pool = LayerSpec::Pool {
                k: 2,
                stride: 2,
                kind: PoolKind::Max,
            };
            let spec = NetSpec::new("conv", (1, h, w), vec![feed, conv, pool]);
            let mut net = ReramMlp::from_spec(&spec, &ReramParams::default(), 4)
                .expect("spec runs")
                .build();
            assert!(net.layers[0].backward.is_none() && net.layers[1].backward.is_some());
            let x = Tensor::from_fn(&[c_in, h, w], |i| {
                ((i[0] * 31 + i[1] * 7 + i[2]) as f32 * 0.37).sin()
            });
            let cols = k * k * c_in + 1;
            let wts = net.layer_weights(1);
            let weight = Tensor::from_fn(&[c_out, c_in, k, k], |i| {
                wts[i[0] * cols + (i[1] * k + i[2]) * k + i[3]]
            });
            let bias = Tensor::from_vec(
                &[c_out],
                (0..c_out).map(|o| wts[o * cols + cols - 1]).collect(),
            );
            let layer = &mut net.layers[1];
            let (got, pass) = layer.forward_pass(x.as_slice(), 1, false);
            let conv_out = ops::conv2d(&x, &weight, &bias, 1, pad);
            let (want, route) = ops::maxpool2d(&conv_out, 2, 2);
            let got = Tensor::from_vec(want.dims(), got);
            assert!(got.allclose(&want, 0.02), "pad {pad}: forward deviates");

            let pooled_delta = want.map(|v| (v * 3.0).cos());
            let delta = ops::maxpool2d_backward(&pooled_delta, &route);
            let dx = layer.backward_pass(pooled_delta.into_vec(), pass, false);
            let want_dx = ops::conv2d_backward_input_scalar(&delta, &weight, (h, w), 1, pad);
            let dx = Tensor::from_vec(&[c_in, h, w], dx);
            assert!(
                dx.allclose(&want_dx, 0.02),
                "pad {pad}: error backward deviates"
            );

            let (dw, db) = ops::conv2d_backward_weights_scalar(&x, &delta, (k, k), 1, pad);
            for (co, row) in layer.grad_acc.chunks(cols).enumerate() {
                let want_row = &dw.as_slice()[co * (cols - 1)..(co + 1) * (cols - 1)];
                for (g, wv) in row
                    .iter()
                    .zip(want_row.iter().chain(&db.as_slice()[co..=co]))
                {
                    assert!((g - wv).abs() < 1e-4, "pad {pad}: dW deviates: {g} vs {wv}");
                }
            }
        }
    }

    #[test]
    fn cnn_trains_on_synthetic_task() {
        let data = SyntheticMnist::generate(80, 40, 909);
        let tr: Vec<Tensor> = data.train.images.iter().map(|t| downsample(t, 4)).collect();
        let te: Vec<Tensor> = data.test.images.iter().map(|t| downsample(t, 4)).collect();
        let conv = LayerSpec::Conv {
            k: 3,
            c_out: 4,
            stride: 1,
            pad: 0,
        };
        let spec = NetSpec::new(
            "tiny-cnn",
            (1, 7, 7),
            vec![conv, LayerSpec::Fc { n_out: 10 }],
        );
        let mut cnn = ReramMlp::from_spec(&spec, &ReramParams::default(), 5)
            .expect("spec runs")
            .build();
        let x = te[0].as_slice();
        assert_eq!(cnn.forward(x), cnn.forward(x), "inference is deterministic");
        let before = cnn.accuracy(&te, &data.test.labels);
        for _ in 0..3 {
            for (imgs, labs) in tr.chunks(10).zip(data.train.labels.chunks(10)) {
                cnn.train_batch(imgs, labs, 0.2);
            }
        }
        let after = cnn.accuracy(&te, &data.test.labels);
        assert!(
            after > before && after > 0.4,
            "CNN on ReRAM failed to learn: {before} -> {after}"
        );
        assert!(cnn.write_spikes() > 0 && cnn.read_spikes() > 0);
    }

    /// C-4 through the spec entry with every device component at once —
    /// faults with verified writes and spares, drift and read noise with
    /// scrub, wear with the laddered repair — trains with finite losses
    /// and drives reads and writes on its arrays.
    #[test]
    fn c4_trains_under_the_full_device_stack() {
        let data = SyntheticMnist::generate(2, 1, 11);
        let drift = DriftModel {
            nu: 0.1,
            nu_sigma: 0.05,
            t0_cycles: 8,
            disturb_per_level: 0,
        };
        let device = DeviceModel::ideal()
            .with_faults(FaultModel::with_stuck_rate(1e-3))
            .with_drift(drift)
            .with_noise(NoiseModel::with_strength(0.5))
            .with_wear(WearModel::with_endurance(300.0));
        let params = ReramParams::default();
        let mut c4 = ReramMlp::from_spec(&zoo::spec_c4(), &params, 3)
            .expect("C-4 runs functionally")
            .device(device)
            .fault_tolerance(VerifyPolicy::with_attempts(2), SpareBudget::typical())
            .scrub(ScrubPolicy::every(2, 4), VerifyPolicy::default())
            .repair_policy(RepairPolicy::laddered())
            .build();
        assert_eq!(c4.depth(), 5);
        let (reads, writes) = (c4.read_spikes(), c4.write_spikes());
        let loss = c4.train_batch(&data.train.images, &data.train.labels, 0.05);
        assert!(loss.is_finite(), "loss {loss}");
        assert!(c4.read_spikes() > reads && c4.write_spikes() > writes);
        assert_eq!(c4.scrub_passes(), 1);
        assert!(c4.fault_report().is_some_and(|r| r.verify_reads > 0));
        assert!(c4
            .forward(data.test.images[0].as_slice())
            .iter()
            .all(|v| v.is_finite()));
    }
}
