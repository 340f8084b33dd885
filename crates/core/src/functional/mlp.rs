//! Functional training *through the ReRAM datapath* (Sec. 3.1, 4.3, 4.4).
//!
//! Every matrix–vector product — forward (`A_l`), error backward
//! (`A_l2` holding the reordered weights) — runs through the
//! `pipelayer-reram` crossbar model: 16-bit spike-coded inputs, 4-bit cells
//! with positive/negative pairs and resolution compensation, exact
//! integrate-and-fire read-out. Weight updates follow Fig. 14(b): the old
//! weights are *read from the arrays*, the averaged partial derivatives are
//! subtracted, and the result is written back (reprogramming both the
//! forward and the backward copies).
//!
//! Scope: multilayer perceptrons (the paper's Mnist-A/B/C class). This is
//! the fidelity proof that PipeLayer's analog datapath trains networks, not
//! a fast trainer — convolutional functional training runs through the same
//! `ReramMatrix` primitive via im2col but is quadratically slower, so the
//! shipped examples stick to MLPs.

use crate::repair::{RepairController, RepairPolicy, SpareBudget};
use crate::scrub::ScrubPolicy;
use pipelayer_nn::loss::Loss;
use pipelayer_reram::{
    DeviceModel, DriftModel, FaultKind, FaultMap, FaultModel, NoiseModel, ProgramReport,
    ReramMatrix, ReramParams, VerifyPolicy, WearModel,
};
use pipelayer_tensor::{ops, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    /// Round-robin word-line cursors, `(forward, backward)` per layer.
    cursors: Vec<(usize, usize)>,
    /// Scrub passes completed.
    passes: u64,
}

#[derive(Clone)]
struct ReramMlpLayer {
    n_in: usize,
    n_out: usize,
    /// `A_l`: forward arrays over `[x, 1]` (bias folded as an extra row).
    forward: ReramMatrix,
    /// `A_l2`: reordered weights `(W_l)ᵀ` for the error backward pass.
    backward: ReramMatrix,
    /// Spare-column bookkeeping for the two array copies.
    forward_repair: RepairController,
    backward_repair: RepairController,
    /// Accumulated partial derivatives (the memory-subarray `ΔW` buffers).
    grad_acc: Vec<f32>,
    cached_in: Vec<f32>,
    cached_out: Vec<f32>,
    relu: bool,
}

impl ReramMlpLayer {
    /// Xavier-initialised weights programmed onto fresh forward and
    /// reordered-backward arrays, both carrying `faults` (under the
    /// layer's `salt`). With fault tolerance the initial weights then go
    /// through a commissioning scrub: a verified write whose unrecoverable
    /// columns are immediately remapped to spares (or masked once the
    /// budget runs out).
    #[allow(clippy::too_many_arguments)]
    fn new(
        n_in: usize,
        n_out: usize,
        relu: bool,
        params: &ReramParams,
        rng: &mut impl Rng,
        faults: &DeviceModel,
        salt: u64,
        fault_tolerance: Option<(&mut FaultState, SpareBudget)>,
    ) -> Self {
        let a = (6.0 / (n_in + n_out) as f32).sqrt();
        let w: Vec<f32> = Tensor::uniform(&[n_out, n_in + 1], -a, a, rng).into_vec();
        let wt = transpose_no_bias(&w, n_out, n_in);
        let mut forward = ReramMatrix::program(&w, n_out, n_in + 1, params);
        let mut backward = ReramMatrix::program(&wt, n_in, n_out, params);
        forward.attach(faults, salt);
        backward.attach(faults, salt ^ BACKWARD_SALT);
        let spares = fault_tolerance
            .as_ref()
            .map_or(SpareBudget::none(), |&(_, spares)| spares);
        let mut forward_repair = RepairController::new(spares);
        let mut backward_repair = RepairController::new(spares);
        if let Some((ft, _)) = fault_tolerance {
            let r = forward.write_verify(&w, &ft.verify, &mut ft.rng);
            forward_repair.process(&mut forward, &r);
            ft.report.merge(r);
            let r = backward.write_verify(&wt, &ft.verify, &mut ft.rng);
            backward_repair.process(&mut backward, &r);
            ft.report.merge(r);
        }
        ReramMlpLayer {
            n_in,
            n_out,
            forward,
            backward,
            forward_repair,
            backward_repair,
            grad_acc: vec![0.0; n_out * (n_in + 1)],
            cached_in: Vec::new(),
            cached_out: Vec::new(),
            relu,
        }
    }
}

/// Shape prologue shared by both batch-training schedules.
///
/// # Panics
///
/// Panics on an empty batch or an image/label length mismatch.
fn check_batch(images: &[Tensor], labels: &[usize]) {
    assert!(!images.is_empty(), "empty batch");
    assert_eq!(images.len(), labels.len(), "length mismatch");
}

/// Mean loss over a batch of `n` samples.
fn mean_loss(total: f32, n: usize) -> f32 {
    total / n as f32
}

/// Magic + format version leading a device-state snapshot blob.
const DEVICE_STATE_MAGIC: u64 = 0x504c_5744_5331_0001;

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

/// Drops the bias row and transposes: `[out×(in+1)] → [in×out]`.
pub(super) fn transpose_no_bias(w: &[f32], n_out: usize, n_in: usize) -> Vec<f32> {
    let mut wt = vec![0.0f32; n_in * n_out];
    for o in 0..n_out {
        for i in 0..n_in {
            wt[i * n_out + o] = w[o * (n_in + 1) + i];
        }
    }
    wt
}

/// Salt of layer `i`'s device streams under the model seed `seed`.
fn layer_salt(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(1 + 1000 * i as u64)
}

/// Salt offset of a layer's reordered-backward copy.
const BACKWARD_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Configures a [`ReramMlp`] — the one place its device model, write
/// discipline and maintenance schedule are chosen. Start from
/// [`ReramMlp::builder`].
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
    dims: &'a [usize],
    params: &'a ReramParams,
    seed: u64,
    device: DeviceModel,
    noise_seed: u64,
    fault_tolerance: Option<(VerifyPolicy, SpareBudget)>,
    repair: Option<RepairPolicy>,
    scrub: Option<(ScrubPolicy, VerifyPolicy)>,
}

impl ReramMlpBuilder<'_> {
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
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given or any width is zero.
    pub fn build(self) -> ReramMlp {
        let (dims, seed) = (self.dims, self.seed);
        assert!(dims.len() >= 2, "need at least input and output widths");
        assert!(dims.iter().all(|&d| d > 0), "zero-width layer");
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
        let layers: Vec<ReramMlpLayer> = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                ReramMlpLayer::new(
                    w[0],
                    w[1],
                    i + 2 < dims.len(),
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
            cursors: vec![(0, 0); layers.len()],
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

/// A multilayer perceptron whose every MVM executes on the modelled ReRAM
/// crossbars.
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
    pub fn builder<'a>(
        dims: &'a [usize],
        params: &'a ReramParams,
        seed: u64,
    ) -> ReramMlpBuilder<'a> {
        ReramMlpBuilder {
            dims,
            params,
            seed,
            device: DeviceModel::ideal(),
            noise_seed: seed,
            fault_tolerance: None,
            repair: None,
            scrub: None,
        }
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

    /// Attaches every non-ideal component of `model` to every array (the
    /// forward and the reordered-backward copy of each layer), salted per
    /// layer from `seed`; ideal components leave the current state alone.
    fn attach(&mut self, model: &DeviceModel, seed: u64) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let salt = layer_salt(seed, i);
            layer.forward.attach(model, salt);
            layer.backward.attach(model, salt ^ BACKWARD_SALT);
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
            layer.forward_repair.set_policy(policy);
            layer.backward_repair.set_policy(policy);
        }
    }

    /// Cells across all arrays whose write budget is exhausted — the dead
    /// population the wear model has killed so far (0 without wear).
    pub fn wear_exhausted_cells(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.forward.wear_exhausted_cells() + l.backward.wear_exhausted_cells())
            .sum()
    }

    /// Spare columns still unused across all layers (forward + backward
    /// controllers) — the remaining self-repair headroom.
    pub fn spares_left(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.forward_repair.spares_left() + l.backward_repair.spares_left())
            .sum()
    }

    /// Number of weighted layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Forward pass on the crossbars, caching activations for training.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input width.
    pub fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        let mut v = x.to_vec();
        for layer in &mut self.layers {
            assert_eq!(v.len(), layer.n_in, "input width mismatch");
            // Cache WITH the bias element appended: the grad accumulation is
            // then one outer_acc over the whole [d, 1] vector.
            let mut with_bias = v;
            with_bias.push(1.0);
            let mut out = layer.forward.matvec(&with_bias);
            if layer.relu {
                for o in &mut out {
                    *o = o.max(0.0); // activation component LUT
                }
            }
            layer.cached_in = with_bias;
            layer.cached_out = out.clone();
            v = out;
        }
        v
    }

    /// Inference-only forward (no caches touched beyond reuse).
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

    /// Processes one sample: forward, output error, backward through the
    /// `A_l2` arrays, partial-derivative accumulation. Returns the loss.
    fn train_sample(&mut self, x: &[f32], label: usize) -> f32 {
        let out = self.forward(x);
        let out_t = Tensor::from_vec(&[out.len()], out);
        let (loss, delta_t) = self.loss.loss_and_delta(&out_t, label);
        let mut delta = delta_t.into_vec();

        for li in (0..self.layers.len()).rev() {
            let layer = &mut self.layers[li];
            // ReLU error backward: AND with f'(d_l) (Fig. 10a).
            if layer.relu {
                for (d, &o) in delta.iter_mut().zip(&layer.cached_out) {
                    if o <= 0.0 {
                        *d = 0.0;
                    }
                }
            }
            // ∂W = δ · [d, 1]ᵀ accumulated into the buffer (Fig. 12's
            // computation, exact here since it is an outer product). Lowered
            // onto the shared rank-1 kernel; no zero-skip, so a NaN/Inf
            // activation poisons the gradient instead of vanishing.
            ops::outer_acc(&mut layer.grad_acc, &delta, &layer.cached_in);
            // δ_{l-1} = (W_l)ᵀ δ_l on the A_l2 arrays.
            if li > 0 {
                delta = self.layers[li].backward.matvec(&delta);
            }
        }
        loss
    }

    /// Trains one mini-batch and applies the Fig. 14(b) update: read old
    /// weights from the arrays, subtract the averaged partial derivatives,
    /// write back (both forward and reordered copies). Returns mean loss.
    ///
    /// Samples are fed layer-major: every layer sees the whole batch as
    /// one [`ReramMatrix::matvec_batch`] call (forward and error
    /// backward), so on arrays whose reads don't perturb the device each
    /// array's levels are walked once per batch instead of once per
    /// sample. Every array still sees its reads in sample order, and
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
        let total = self.batch_grads(images, labels);
        self.apply_update(images.len(), lr);
        mean_loss(total, images.len())
    }

    /// The forward/backward half of [`train_batch`](Self::train_batch):
    /// feeds the batch layer-major, accumulates `∂W` into the layer
    /// buffers, and returns the summed (not mean) loss. No update is
    /// applied and no clock advanced — callers own that.
    fn batch_grads(&mut self, images: &[Tensor], labels: &[usize]) -> f32 {
        // Forward, layer-major: one multi-image GEMM per layer.
        let mut vs: Vec<Vec<f32>> = images.iter().map(|t| t.as_slice().to_vec()).collect();
        let mut cached_ins: Vec<Vec<Vec<f32>>> = Vec::with_capacity(self.layers.len());
        let mut cached_outs: Vec<Vec<Vec<f32>>> = Vec::with_capacity(self.layers.len());
        for layer in &mut self.layers {
            let with_bias: Vec<Vec<f32>> = vs
                .into_iter()
                .map(|mut v| {
                    assert_eq!(v.len(), layer.n_in, "input width mismatch");
                    v.push(1.0);
                    v
                })
                .collect();
            let mut outs = layer.forward.matvec_batch(&with_bias);
            if layer.relu {
                for out in &mut outs {
                    for o in out.iter_mut() {
                        *o = o.max(0.0); // activation component LUT
                    }
                }
            }
            cached_ins.push(with_bias);
            vs = outs.clone();
            cached_outs.push(outs);
        }

        // Output error per sample, in sample order.
        let mut total = 0.0;
        let mut deltas: Vec<Vec<f32>> = Vec::with_capacity(images.len());
        for (out, &label) in vs.into_iter().zip(labels) {
            let out_t = Tensor::from_vec(&[out.len()], out);
            let (loss, delta_t) = self.loss.loss_and_delta(&out_t, label);
            total += loss;
            deltas.push(delta_t.into_vec());
        }

        // Backward, layer-major: ReLU masking and ∂W accumulation run per
        // sample (same order as the scalar reference), then one batched
        // MVM through the A_l2 arrays propagates every delta at once.
        for li in (0..self.layers.len()).rev() {
            let layer = &mut self.layers[li];
            for (s, delta) in deltas.iter_mut().enumerate() {
                if layer.relu {
                    for (d, &o) in delta.iter_mut().zip(&cached_outs[li][s]) {
                        if o <= 0.0 {
                            *d = 0.0;
                        }
                    }
                }
                ops::outer_acc(&mut layer.grad_acc, delta, &cached_ins[li][s]);
            }
            if li > 0 {
                deltas = layer.backward.matvec_batch(&deltas);
            }
        }
        total
    }

    /// Per-sample reference for [`train_batch`](Self::train_batch): the
    /// original one-matvec-per-sample schedule, identical arithmetic in
    /// identical order. Kept (and pinned by differential tests) so the
    /// batched feed always has a scalar path to be checked against.
    ///
    /// # Panics
    ///
    /// Panics on empty or mismatched batches.
    pub fn train_batch_scalar(&mut self, images: &[Tensor], labels: &[usize], lr: f32) -> f32 {
        check_batch(images, labels);
        let mut total = 0.0;
        for (img, &label) in images.iter().zip(labels) {
            total += self.train_sample(img.as_slice(), label);
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
        let base: Vec<Vec<(u64, u64, u64)>> = self
            .layers
            .iter()
            .map(|l| {
                l.forward
                    .crossbars()
                    .chain(l.backward.crossbars())
                    .map(|c| c.spike_counters())
                    .collect()
            })
            .collect();
        let template = &*self;
        let mut per_chunk: Vec<Option<(f32, Vec<Vec<f32>>)>> = vec![None; n_chunks];
        let mut deltas: Vec<Vec<(u64, u64, u64)>> = base
            .iter()
            .map(|l| vec![(0u64, 0u64, 0u64); l.len()])
            .collect();
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
                            let loss = worker.batch_grads(&images[lo..hi], &labels[lo..hi]);
                            let grads: Vec<Vec<f32>> =
                                worker.layers.iter().map(|l| l.grad_acc.clone()).collect();
                            chunks.push((ci, loss, grads));
                        }
                        let delta: Vec<Vec<(u64, u64, u64)>> = worker
                            .layers
                            .iter()
                            .zip(base)
                            .map(|(l, bl)| {
                                l.forward
                                    .crossbars()
                                    .chain(l.backward.crossbars())
                                    .map(|c| c.spike_counters())
                                    .zip(bl)
                                    .map(|((r, w, o), &(br, bw, bo))| (r - br, w - bw, o - bo))
                                    .collect()
                            })
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
                for (dl, tl) in deltas.iter_mut().zip(delta) {
                    for (d, t2) in dl.iter_mut().zip(tl) {
                        d.0 += t2.0;
                        d.1 += t2.1;
                        d.2 += t2.2;
                    }
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
        for (layer, dl) in self.layers.iter_mut().zip(&deltas) {
            let mut it = dl.iter();
            for c in layer
                .forward
                .crossbars_mut()
                .chain(layer.backward.crossbars_mut())
            {
                if let Some(&(dr, dw, dout)) = it.next() {
                    let (r, w, o) = c.spike_counters();
                    c.restore_spike_counters(r + dr, w + dw, o + dout);
                }
            }
        }
        self.apply_update(n, lr);
        mean_loss(total, n)
    }

    /// The Fig. 14(b) update + degradation tick shared by both batch
    /// schedules: read old weights, subtract the averaged partials, write
    /// back (verified when fault tolerance is on), clear the buffers and
    /// advance the clock by one cycle per image.
    fn apply_update(&mut self, batch_len: usize, lr: f32) {
        let scale = lr / batch_len as f32;
        let wear_active = self.wear_active;
        for layer in &mut self.layers {
            let mut w = layer.forward.read(); // old weights from the arrays
            for (wi, g) in w.iter_mut().zip(&layer.grad_acc) {
                *wi -= scale * g;
            }
            let wt = transpose_no_bias(&w, layer.n_out, layer.n_in);
            match &mut self.fault_tolerance {
                // Wear-aware path: failures climb the retry → backoff →
                // remap → mask ladder, and remaps bill the honest cost of
                // re-programming the displaced column onto a blank spare.
                Some(ft) if wear_active => {
                    let r = layer.forward.write_verify(&w, &ft.verify, &mut ft.rng);
                    let o = layer.forward_repair.process_update(
                        &mut layer.forward,
                        &r,
                        &ft.verify,
                        &mut ft.rng,
                    );
                    ft.report.merge(r);
                    ft.report.merge(o.repair);
                    let r = layer.backward.write_verify(&wt, &ft.verify, &mut ft.rng);
                    let o = layer.backward_repair.process_update(
                        &mut layer.backward,
                        &r,
                        &ft.verify,
                        &mut ft.rng,
                    );
                    ft.report.merge(r);
                    ft.report.merge(o.repair);
                }
                Some(ft) => {
                    let r = layer.forward.write_verify(&w, &ft.verify, &mut ft.rng);
                    layer.forward_repair.process(&mut layer.forward, &r);
                    ft.report.merge(r);
                    let r = layer.backward.write_verify(&wt, &ft.verify, &mut ft.rng);
                    layer.backward_repair.process(&mut layer.backward, &r);
                    ft.report.merge(r);
                }
                None => {
                    layer.forward.write(&w);
                    layer.backward.write(&wt);
                }
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
            layer.forward.advance_cycles(cycles);
            layer.backward.advance_cycles(cycles);
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
        let guard = rs.scrub.min_headroom_writes;
        for (layer, cur) in self.layers.iter_mut().zip(rs.cursors.iter_mut()) {
            let budget = rs.scrub.rows_per_pass;
            if guard > 0 {
                // Wear-leveling-aware walk: visit the same rows the block
                // scan would, but skip any word line whose smallest
                // remaining write budget is below the guard — maintenance
                // writes must not burn a near-dead row's last pulses.
                for _ in 0..budget {
                    if layer.forward.row_wear_headroom(cur.0) >= guard {
                        let r = layer.forward.scrub_rows(cur.0, 1, &rs.verify, &mut rs.rng);
                        rs.report.merge(r);
                    }
                    cur.0 = (cur.0 + 1) % layer.forward.in_dim();
                }
                for _ in 0..budget {
                    if layer.backward.row_wear_headroom(cur.1) >= guard {
                        let r = layer.backward.scrub_rows(cur.1, 1, &rs.verify, &mut rs.rng);
                        rs.report.merge(r);
                    }
                    cur.1 = (cur.1 + 1) % layer.backward.in_dim();
                }
                continue;
            }
            let r = layer
                .forward
                .scrub_rows(cur.0, budget, &rs.verify, &mut rs.rng);
            rs.report.merge(r);
            cur.0 = (cur.0 + budget) % layer.forward.in_dim();
            let r = layer
                .backward
                .scrub_rows(cur.1, budget, &rs.verify, &mut rs.rng);
            rs.report.merge(r);
            cur.1 = (cur.1 + budget) % layer.backward.in_dim();
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
        for layer in &mut self.layers {
            let rows = layer.forward.in_dim();
            let r = layer.forward.scrub_rows(0, rows, &rs.verify, &mut rs.rng);
            rs.report.merge(r);
            let rows = layer.backward.in_dim();
            let r = layer.backward.scrub_rows(0, rows, &rs.verify, &mut rs.rng);
            rs.report.merge(r);
        }
        rs.passes += 1;
    }

    /// Cells across all arrays currently reading at a level other than the
    /// one programmed — the damage a scrub pass would repair.
    pub fn drifted_cells(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.forward.drifted_cells() + l.backward.drifted_cells())
            .sum()
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
    /// tolerance is off): total pulses vs ideal pulses, verify reads, and
    /// the cells still unrecoverable at their last write.
    pub fn fault_report(&self) -> Option<&ProgramReport> {
        self.fault_tolerance.as_ref().map(|ft| &ft.report)
    }

    /// Spare columns consumed across all layers (forward + backward arrays).
    pub fn spares_used(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.forward_repair.remapped().len() + l.backward_repair.remapped().len())
            .sum()
    }

    /// Output units masked off across all layers — the graceful-degradation
    /// toll after the spare budget ran out.
    pub fn masked_units(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.forward_repair.masked().len() + l.backward_repair.masked().len())
            .sum()
    }

    /// Reads layer `li`'s weights (bias folded as the last column of each
    /// row) back from its arrays — the Fig. 14(b) read-out path. Values are
    /// the quantized weights the hardware actually holds.
    ///
    /// # Panics
    ///
    /// Panics if `li` is out of range.
    pub fn layer_weights(&self, li: usize) -> Vec<f32> {
        self.layers[li].forward.read()
    }

    /// `(n_in, n_out)` of layer `li`.
    ///
    /// # Panics
    ///
    /// Panics if `li` is out of range.
    pub fn layer_dims(&self, li: usize) -> (usize, usize) {
        (self.layers[li].n_in, self.layers[li].n_out)
    }

    /// Total array-read spikes issued so far (energy accounting).
    pub fn read_spikes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.forward.read_spikes() + l.backward.read_spikes())
            .sum()
    }

    /// Total programming pulses issued so far.
    pub fn write_spikes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.forward.write_spikes() + l.backward.write_spikes())
            .sum()
    }

    /// Serializes the complete device state — stored cell levels, weight
    /// scales, live fault maps, wear counters, spike counters, masked
    /// outputs, the repair-controller ladders and the cumulative cost
    /// reports — into one self-contained blob (the payload of a
    /// checkpoint's `WEAR` section). Pair with
    /// [`restore_device_state`](Self::restore_device_state) on a freshly
    /// reconstructed (same dims/params/seeds/attachments) MLP to resume a
    /// wearing run bitwise. The program-and-verify RNGs are deliberately
    /// *not* serialized: the wear campaign runs `write_sigma = 0`, under
    /// which the verify loop returns the target without ever drawing from
    /// them, so their state never influences the trajectory.
    pub fn device_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        push_u64(&mut out, DEVICE_STATE_MAGIC);
        push_u64(&mut out, self.layers.len() as u64);
        for layer in &self.layers {
            snapshot_matrix(&mut out, &layer.forward);
            snapshot_matrix(&mut out, &layer.backward);
            snapshot_controller(&mut out, &layer.forward_repair);
            snapshot_controller(&mut out, &layer.backward_repair);
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
                push_u64(&mut out, rs.cursors.len() as u64);
                for &(a, b) in &rs.cursors {
                    push_u64(&mut out, a as u64);
                    push_u64(&mut out, b as u64);
                }
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
    pub fn restore_device_state(&mut self, blob: &[u8]) -> bool {
        let aging = self.layers.iter().any(|l| {
            l.forward
                .crossbars()
                .chain(l.backward.crossbars())
                .any(|c| c.drift_state().is_some() || c.noise_state().is_some())
        });
        if aging {
            return false;
        }
        let mut rd = ByteReader::new(blob);
        if rd.u64() != Some(DEVICE_STATE_MAGIC) {
            return false;
        }
        if rd.u64().map(|v| v as usize) != Some(self.layers.len()) {
            return false;
        }
        for layer in &mut self.layers {
            if restore_matrix(&mut rd, &mut layer.forward).is_none()
                || restore_matrix(&mut rd, &mut layer.backward).is_none()
                || restore_controller(&mut rd, &mut layer.forward_repair).is_none()
                || restore_controller(&mut rd, &mut layer.backward_repair).is_none()
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
                let (Some(images), Some(passes), Some(nc)) = (rd.u64(), rd.u64(), rd.u64()) else {
                    return false;
                };
                let mut cursors = Vec::new();
                for _ in 0..nc {
                    let (Some(a), Some(b)) = (rd.u64(), rd.u64()) else {
                        return false;
                    };
                    cursors.push((a as usize, b as usize));
                }
                let Some(rs) = self.resilience.as_mut() else {
                    return false;
                };
                if cursors.len() != rs.cursors.len() {
                    return false;
                }
                rs.report = report;
                rs.images_since_scrub = images;
                rs.passes = passes;
                rs.cursors = cursors;
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
    use pipelayer_reram::FaultModel;

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
    /// counters — on ideal arrays, on fault-ridden ones, and where reads
    /// perturb later ones (drift with read disturb plus per-read noise):
    /// every array sees its reads in sample order under both schedules,
    /// and an array's device state depends only on its own reads.
    #[test]
    fn batched_feed_matches_scalar_reference_bitwise() {
        let (tr, trl, _, _) = small_task();
        let builds: [fn() -> ReramMlp; 3] = [
            || ReramMlp::new(&[49, 16, 10], &ReramParams::default(), 5),
            || {
                ReramMlp::builder(&[49, 16, 10], &ReramParams::default(), 5)
                    .device(DeviceModel::ideal().with_faults(FaultModel::with_stuck_rate(1e-3)))
                    .build()
            },
            || {
                let drift = DriftModel {
                    nu: 0.1,
                    nu_sigma: 0.05,
                    t0_cycles: 8,
                    disturb_per_level: 40,
                };
                let device = DeviceModel::ideal()
                    .with_drift(drift)
                    .with_noise(NoiseModel::with_strength(0.5));
                ReramMlp::builder(&[49, 16, 10], &ReramParams::default(), 5)
                    .device(device)
                    .build()
            },
        ];
        let counters = |mlp: &ReramMlp| -> Vec<(u64, u64, u64)> {
            mlp.layers
                .iter()
                .flat_map(|l| l.forward.crossbars().chain(l.backward.crossbars()))
                .map(|c| c.spike_counters())
                .collect()
        };
        for build in builds {
            let mut batched = build();
            let mut scalar = build();
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
            assert_eq!(counters(&batched), counters(&scalar));
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
            let w = layer.forward.read();
            let mut with_bias = v.clone();
            with_bias.push(1.0);
            let mut o = vec![0.0f32; layer.n_out];
            for (oi, out_v) in o.iter_mut().enumerate() {
                *out_v = with_bias
                    .iter()
                    .enumerate()
                    .map(|(i, &xv)| w[oi * (layer.n_in + 1) + i] * xv)
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
    /// constructors plus post-hoc `attach_*` calls produce, bit for bit.
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
        let pairs = [
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
    /// bits and spike counters.
    #[test]
    fn parallel_feed_is_thread_count_invariant() {
        let (tr, trl, _, _) = small_task();
        let build = || {
            let mut m = ReramMlp::with_fault_tolerance(
                &[49, 8, 10],
                &ReramParams::default(),
                6,
                &FaultModel::ideal(),
                VerifyPolicy::with_attempts(2),
                SpareBudget::typical(),
            );
            m.attach_wear(WearModel::with_endurance(500.0), 6);
            m
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

    /// Snapshot → fresh rebuild → restore must reproduce the wearing
    /// run's forward trajectory bitwise, wear counters included.
    #[test]
    fn device_state_roundtrips_under_wear() {
        let (tr, trl, _, _) = small_task();
        let build = || {
            let mut m = ReramMlp::with_fault_tolerance(
                &[49, 8, 10],
                &ReramParams::default(),
                6,
                &FaultModel::with_stuck_rate(1e-3),
                VerifyPolicy::with_attempts(2),
                SpareBudget::typical(),
            );
            m.attach_wear(WearModel::with_endurance(300.0), 6);
            m.set_repair_policy(RepairPolicy::laddered());
            m
        };
        let mut live = build();
        for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)).take(4) {
            live.train_batch(imgs, labs, 0.3);
        }
        let blob = live.device_state();

        let mut resumed = build();
        assert!(resumed.restore_device_state(&blob), "restore must accept");
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
        for li in 0..live.depth() {
            assert_eq!(live.layer_weights(li), resumed.layer_weights(li));
        }

        // Corrupt and truncated blobs are rejected, not panicked on.
        let mut bad = blob.clone();
        bad[0] ^= 0xff;
        assert!(!build().restore_device_state(&bad));
        assert!(!build().restore_device_state(&blob[..blob.len() / 2]));
        assert!(!build().restore_device_state(&[]));
    }
}
