//! The three functional ReRAM workloads: `ReramMlp` with every forward and
//! error-backward MVM and every Fig. 14(b) read/subtract/write update on
//! the simulated crossbars.
//!
//! Traced runs replay each step on shadow `ReramMatrix` copies (same
//! geometry and device models, reprogrammed from the model's weights
//! before the step) and time one member crossbar of the largest layer
//! piece by piece, since `ReramMlp` keeps its arrays private.

use crate::trace::{call_median, per_step, self_times, step_median, Tracer};
use crate::{stats, Bench, Round, GATE_EVERY};
use pipelayer::functional::{downsample, ReramMlp};
use pipelayer::{RepairPolicy, ScrubPolicy, SpareBudget};
use pipelayer_nn::data::SyntheticMnist;
use pipelayer_nn::Loss;
use pipelayer_reram::packed::{self, BitPlanes, PackedSpikes};
use pipelayer_reram::{
    DriftModel, FaultModel, IntegrateFire, NoiseModel, ReramMatrix, ReramParams, VerifyPolicy,
    WearModel,
};
use pipelayer_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// `mnist-a-ideal`: no device model.
    Ideal,
    /// `campaign-noisy-aging`: drift + per-read noise, then aging with scrub.
    NoisyAging,
    /// `wear-repair`: verified writes, wear-out and the laddered repair.
    WearRepair,
}

/// One round's task.
struct Task {
    dims: &'static [usize],
    /// Average-pooling factor applied to the 28×28 images.
    pool: usize,
    train_images: usize,
    epochs: usize,
    eval_images: usize,
    batch: usize,
    lr: f32,
}

const MNIST_A: Task = Task {
    dims: &[784, 100, 10],
    pool: 1,
    train_images: 300,
    epochs: 1,
    eval_images: 300,
    batch: 10,
    lr: 0.1,
};

/// The `ablation_noise` functional campaign and the `ablation_wearout`
/// storage-grade arm share this task.
const CAMPAIGN: Task = Task {
    dims: &[49, 16, 10],
    pool: 4,
    train_images: 120,
    epochs: 8,
    eval_images: 400,
    batch: 10,
    lr: 0.3,
};

const DRIFT: DriftModel = DriftModel {
    nu: 0.2,
    nu_sigma: 0.15,
    t0_cycles: 10_000,
    disturb_per_level: 0,
};
const NOISE_STRENGTH: f64 = 0.25;
const AGING_CYCLES: u64 = 600_000;
const SCRUB_INTERVAL_IMAGES: u64 = 1_000;
const SCRUB_ROWS: usize = 16;
/// Scrub passes timed one by one on a traced run.
const SCRUB_SAMPLES: usize = 20;
const WEAR: WearModel = WearModel {
    median_writes: 200.0,
    sigma: 0.2,
};
const VERIFY_ATTEMPTS: u32 = 2;
const SPARE_COLS: usize = 8;
/// Salt of the backward copy's device streams, as `ReramMlp` derives it.
const BACKWARD_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

impl Device {
    fn task(self) -> &'static Task {
        match self {
            Device::Ideal => &MNIST_A,
            Device::NoisyAging | Device::WearRepair => &CAMPAIGN,
        }
    }
}

/// Seeds of one model's device streams, all derived from `--seed`.
#[derive(Clone, Copy)]
struct Seeds {
    model: u64,
    noise: u64,
}

fn build(device: Device, seeds: Seeds) -> ReramMlp {
    let params = ReramParams::default();
    let dims = device.task().dims;
    match device {
        Device::Ideal => ReramMlp::new(dims, &params, seeds.model),
        Device::NoisyAging => {
            let mut mlp = ReramMlp::with_resilience(
                dims,
                &params,
                seeds.model,
                DRIFT,
                ScrubPolicy::off(),
                VerifyPolicy::default(),
            );
            mlp.attach_noise(NoiseModel::with_strength(NOISE_STRENGTH), seeds.noise);
            mlp
        }
        Device::WearRepair => {
            let mut mlp = ReramMlp::with_fault_tolerance(
                dims,
                &params,
                seeds.model,
                &FaultModel::ideal(),
                VerifyPolicy::with_attempts(VERIFY_ATTEMPTS),
                SpareBudget::with_cols(SPARE_COLS),
            );
            mlp.attach_wear(WEAR, seeds.model);
            mlp.set_repair_policy(RepairPolicy::laddered());
            mlp
        }
    }
}

pub struct FunctionalBench {
    device: Device,
    seeds: Seeds,
    train: Vec<Tensor>,
    train_labels: Vec<usize>,
    eval: Vec<Tensor>,
    eval_labels: Vec<usize>,
    pristine: ReramMlp,
}

/// Data, model build, device attach and (for `wear-repair`) the
/// commissioning write: everything a round starts from.
pub fn setup(device: Device, seed: u64) -> FunctionalBench {
    let task = device.task();
    let data = SyntheticMnist::generate(task.train_images, task.eval_images, seed);
    let pool = |imgs: Vec<Tensor>| -> Vec<Tensor> {
        if task.pool == 1 {
            imgs
        } else {
            imgs.iter().map(|t| downsample(t, task.pool)).collect()
        }
    };
    let seeds = Seeds {
        model: seed.wrapping_add(1),
        noise: seed.wrapping_add(0xA11A),
    };
    FunctionalBench {
        device,
        seeds,
        train: pool(data.train.images),
        train_labels: data.train.labels,
        eval: pool(data.test.images),
        eval_labels: data.test.labels,
        pristine: build(device, seeds),
    }
}

fn weights(mlp: &ReramMlp) -> Vec<Vec<f32>> {
    (0..mlp.depth()).map(|li| mlp.layer_weights(li)).collect()
}

fn same_bits(a: &[Vec<f32>], b: &[Vec<f32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

impl Bench for FunctionalBench {
    fn round(&mut self, tr: &mut Tracer, first_step: u64) -> Round {
        let task = self.device.task();
        let mut mlp = self.pristine.clone();
        let mut shadow = tr
            .enabled()
            .then(|| Shadow::new(self.device, &mlp, self.seeds));
        let mut r = Round::default();
        let mut step = first_step;
        for _ in 0..task.epochs {
            for (imgs, labs) in self
                .train
                .chunks(task.batch)
                .zip(self.train_labels.chunks(task.batch))
            {
                tr.set_step(step);
                // The batched feed must match the per-sample reference bit
                // for bit wherever reads leave the device untouched; per-read
                // noise orders its draws differently, so that workload is
                // gated by its round digest alone.
                let gate = self.device != Device::NoisyAging && r.steps.len() % GATE_EVERY == 0;
                let witness = gate.then(|| mlp.clone());
                let before = shadow.is_some().then(|| weights(&mlp));
                let (loss, secs) =
                    tr.span("core.train_batch", |_| mlp.train_batch(imgs, labs, task.lr));
                r.steps.push((imgs.len(), secs));
                if !loss.is_finite() {
                    r.failed += 1;
                }
                if let Some(mut w) = witness {
                    let reference = w.train_batch_scalar(imgs, labs, task.lr);
                    if reference.to_bits() != loss.to_bits()
                        || !same_bits(&weights(&w), &weights(&mlp))
                    {
                        r.failed += 1;
                    }
                }
                if let (Some(sh), Some(before)) = (shadow.as_mut(), before) {
                    sh.replay(tr, &before, &weights(&mlp), imgs, labs);
                }
                step += 1;
            }
        }

        let mut accuracy = self.evaluate(tr, &mut mlp, &mut r);
        let mut digest = vec![u64::from(accuracy.to_bits())];
        if self.device == Device::NoisyAging {
            mlp.set_scrub(ScrubPolicy::every(SCRUB_INTERVAL_IMAGES, SCRUB_ROWS));
            tr.span("core.aging", |_| mlp.advance_cycles(AGING_CYCLES));
            accuracy = self.evaluate(tr, &mut mlp, &mut r);
            digest.push(u64::from(accuracy.to_bits()));
            if tr.enabled() {
                let mut scrubbed = mlp.clone();
                for _ in 0..SCRUB_SAMPLES {
                    tr.span("core.scrub_pass", |_| scrubbed.scrub_pass());
                }
            }
        }
        let report = mlp.fault_report().or(mlp.scrub_report());
        digest.extend([
            mlp.read_spikes(),
            mlp.write_spikes(),
            mlp.scrub_passes(),
            mlp.wear_exhausted_cells() as u64,
            mlp.spares_used() as u64,
            mlp.masked_units() as u64,
            report.map_or(0, |p| p.pulses),
            report.map_or(0, |p| p.verify_reads),
        ]);
        r.digest = digest;

        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let images = |v: &[(usize, f64)]| v.iter().map(|x| x.0 as u64).sum::<u64>();
        let trained = images(&r.steps);
        r.model = vec![
            ("model.accuracy", f64::from(accuracy)),
            (
                "model.read_spikes_per_img",
                ratio(mlp.read_spikes(), trained + images(&r.evals)),
            ),
            (
                "model.write_pulses_per_img",
                ratio(mlp.write_spikes(), trained),
            ),
            (
                "model.verify_reads_per_pulse",
                report.map_or(0.0, |p| ratio(p.verify_reads, p.pulses)),
            ),
            (
                "model.pulse_efficiency",
                report.map_or(0.0, |p| ratio(p.ideal_pulses, p.pulses)),
            ),
            ("model.scrub_passes", mlp.scrub_passes() as f64),
            ("model.dead_cells", mlp.wear_exhausted_cells() as f64),
            ("model.spares_used", mlp.spares_used() as f64),
            ("model.masked_units", mlp.masked_units() as f64),
        ];
        r
    }

    fn per_layer(&self, tr: &Tracer) -> Vec<(&'static str, f64)> {
        let spans = tr.spans();
        let selfs = self_times(spans);
        let step_ms = |name: &str| step_median(spans, &selfs, name) * 1e-6;
        let call_us = |name: &str| call_median(spans, &selfs, name) * 1e-3;
        let shadow_parts = [
            "reram.matvec_fwd",
            "reram.matvec_bwd",
            "reram.read",
            "reram.write",
        ];
        let steps = per_step(spans, &selfs, "core.train_batch");
        let parts: Vec<_> = shadow_parts
            .iter()
            .map(|n| per_step(spans, &selfs, n))
            .collect();
        let glue: Vec<f64> = steps
            .iter()
            .map(|(s, &(total, _))| {
                let shadow: u64 = parts.iter().filter_map(|p| p.get(s)).map(|v| v.0).sum();
                (total as f64 - shadow as f64) * 1e-6
            })
            .collect();

        let mvm = call_us("reram.mvm_spiked");
        let encode = call_us("reram.spike_encode");
        let integrate = call_us("reram.integrate");
        let plane_build = call_us("reram.plane_build");
        // Floored: on small arrays the separately timed pieces can add up to
        // more than a whole cached call.
        let rebuilds = if plane_build > 0.0 {
            ((mvm - encode - integrate) / plane_build).max(0.0)
        } else {
            0.0
        };
        vec![
            (
                "core.accuracy_us_per_img",
                call_us("core.accuracy") / crate::EVAL_CHUNK as f64,
            ),
            ("core.glue_ms_per_step", stats::median_or_zero(&glue)),
            (
                "core.aging_ms_per_100k_cycles",
                call_us("core.aging") * 1e-3 / (AGING_CYCLES as f64 / 1e5),
            ),
            ("core.scrub_pass_us", call_us("core.scrub_pass")),
            ("reram.matvec_fwd_ms_per_step", step_ms("reram.matvec_fwd")),
            ("reram.matvec_bwd_ms_per_step", step_ms("reram.matvec_bwd")),
            ("reram.read_ms_per_step", step_ms("reram.read")),
            ("reram.write_ms_per_step", step_ms("reram.write")),
            ("reram.spike_encode_us", encode),
            ("reram.plane_build_us", plane_build),
            ("reram.integrate_us", integrate),
            ("reram.mvm_spiked_us", mvm),
            ("reram.mvm_spiked_miss_us", call_us("reram.mvm_spiked_miss")),
            ("reram.plane_rebuilds_per_mvm", rebuilds),
        ]
    }
}

impl FunctionalBench {
    fn evaluate(&self, tr: &mut Tracer, mlp: &mut ReramMlp, r: &mut Round) -> f32 {
        crate::evaluate(
            tr,
            "core.accuracy",
            &self.eval,
            &self.eval_labels,
            r,
            |x, y| mlp.accuracy(x, y),
        )
    }
}

/// Drops the bias column and transposes `[out × (in+1)] → [in × out]`, the
/// layout of a layer's error-backward copy.
fn transpose_no_bias(w: &[f32], n_out: usize, n_in: usize) -> Vec<f32> {
    let mut wt = vec![0.0f32; n_in * n_out];
    for o in 0..n_out {
        for i in 0..n_in {
            wt[i * n_out + o] = w[o * (n_in + 1) + i];
        }
    }
    wt
}

/// The positive-phase spike input `ReramMatrix::matvec` drives for `x`.
fn positive_phase(x: &[f32], bits: u8) -> Vec<u32> {
    let absmax = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if absmax == 0.0 {
        return vec![0; x.len()];
    }
    let scale = absmax / (((1u64 << bits) - 1) as f32 / 2.0);
    x.iter()
        .map(|&v| {
            let q = (v / scale).round() as i64;
            if q > 0 {
                q as u32
            } else {
                0
            }
        })
        .collect()
}

struct ShadowLayer {
    n_in: usize,
    n_out: usize,
    forward: ReramMatrix,
    backward: ReramMatrix,
}

/// Copies of a model's arrays with the same geometry and device models,
/// used to time each array operation of a step on its own.
struct Shadow {
    device: Device,
    params: ReramParams,
    layers: Vec<ShadowLayer>,
    verify: VerifyPolicy,
    rng: StdRng,
}

impl Shadow {
    fn new(device: Device, mlp: &ReramMlp, seeds: Seeds) -> Self {
        let params = ReramParams::default();
        let layers = (0..mlp.depth())
            .map(|li| {
                let (n_in, n_out) = mlp.layer_dims(li);
                let w = mlp.layer_weights(li);
                let wt = transpose_no_bias(&w, n_out, n_in);
                let salt = seeds.model.wrapping_add(1 + 1000 * li as u64);
                let (mut forward, mut backward) = if device == Device::WearRepair {
                    let ideal = FaultModel::ideal();
                    (
                        ReramMatrix::program_with_faults(
                            &w,
                            n_out,
                            n_in + 1,
                            &params,
                            &ideal,
                            salt,
                        ),
                        ReramMatrix::program_with_faults(
                            &wt,
                            n_in,
                            n_out,
                            &params,
                            &ideal,
                            salt ^ BACKWARD_SALT,
                        ),
                    )
                } else {
                    (
                        ReramMatrix::program(&w, n_out, n_in + 1, &params),
                        ReramMatrix::program(&wt, n_in, n_out, &params),
                    )
                };
                match device {
                    Device::Ideal => {}
                    Device::NoisyAging => {
                        let noise = NoiseModel::with_strength(NOISE_STRENGTH);
                        let noise_salt = seeds.noise.wrapping_add(1 + 1000 * li as u64);
                        forward.attach_drift(DRIFT, salt);
                        backward.attach_drift(DRIFT, salt ^ BACKWARD_SALT);
                        forward.attach_noise(noise, noise_salt);
                        backward.attach_noise(noise, noise_salt ^ BACKWARD_SALT);
                    }
                    Device::WearRepair => {
                        forward.attach_wear(WEAR, salt);
                        backward.attach_wear(WEAR, salt ^ BACKWARD_SALT);
                    }
                }
                ShadowLayer {
                    n_in,
                    n_out,
                    forward,
                    backward,
                }
            })
            .collect();
        Shadow {
            device,
            params,
            layers,
            verify: VerifyPolicy::with_attempts(VERIFY_ATTEMPTS),
            rng: StdRng::seed_from_u64(seeds.model),
        }
    }

    /// Loads `weights` into the shadow arrays without programming pulses,
    /// so the replay neither wears the shadows nor counts as their write.
    fn load(&mut self, weights: &[Vec<f32>]) {
        for (l, w) in self.layers.iter_mut().zip(weights) {
            let wt = transpose_no_bias(w, l.n_out, l.n_in);
            for (dst, src) in [
                (&mut l.forward, (w, l.n_out, l.n_in + 1)),
                (&mut l.backward, (&wt, l.n_in, l.n_out)),
            ] {
                let fresh = ReramMatrix::program(src.0, src.1, src.2, &self.params);
                for (d, s) in dst.crossbars_mut().zip(fresh.crossbars()) {
                    d.restore_levels(&s.stored_levels());
                }
                dst.restore_weight_scale(fresh.weight_scale());
            }
        }
    }

    /// Replays one training step — forward MVMs, error-backward MVMs, the
    /// weight read-out and the write of the step's resulting weights — on
    /// the shadows, each phase in its own span. `before`/`after` are the
    /// model's weights around the real step.
    fn replay(
        &mut self,
        tr: &mut Tracer,
        before: &[Vec<f32>],
        after: &[Vec<f32>],
        imgs: &[Tensor],
        labels: &[usize],
    ) {
        self.load(before);
        self.time_member_crossbar(tr, imgs);
        let depth = self.layers.len();
        let targets: Vec<(&Vec<f32>, Vec<f32>)> = after
            .iter()
            .zip(&self.layers)
            .map(|(w, l)| (w, transpose_no_bias(w, l.n_out, l.n_in)))
            .collect();
        tr.span("reram.replay", |tr| {
            let mut xs: Vec<Vec<f32>> = imgs.iter().map(|t| t.as_slice().to_vec()).collect();
            let mut outs = Vec::with_capacity(depth);
            for (li, l) in self.layers.iter_mut().enumerate() {
                let with_bias: Vec<Vec<f32>> = xs
                    .into_iter()
                    .map(|mut v| {
                        v.push(1.0);
                        v
                    })
                    .collect();
                let (mut ys, _) =
                    tr.span("reram.matvec_fwd", |_| l.forward.matvec_batch(&with_bias));
                if li + 1 < depth {
                    for v in ys.iter_mut().flatten() {
                        *v = v.max(0.0);
                    }
                }
                outs.push(ys.clone());
                xs = ys;
            }
            let mut deltas: Vec<Vec<f32>> = xs
                .into_iter()
                .zip(labels)
                .map(|(y, &label)| {
                    let y = Tensor::from_vec(&[y.len()], y);
                    Loss::SoftmaxCrossEntropy
                        .loss_and_delta(&y, label)
                        .1
                        .into_vec()
                })
                .collect();
            for li in (1..depth).rev() {
                if li + 1 < depth {
                    for (d, y) in deltas.iter_mut().zip(&outs[li]) {
                        for (dv, &yv) in d.iter_mut().zip(y) {
                            if yv <= 0.0 {
                                *dv = 0.0;
                            }
                        }
                    }
                }
                let l = &mut self.layers[li];
                deltas = tr
                    .span("reram.matvec_bwd", |_| l.backward.matvec_batch(&deltas))
                    .0;
            }
            tr.span("reram.read", |_| {
                for l in &self.layers {
                    black_box(l.forward.read());
                }
            });
            let (device, verify, rng) = (self.device, &self.verify, &mut self.rng);
            tr.span("reram.write", |_| {
                for (l, (w, wt)) in self.layers.iter_mut().zip(&targets) {
                    if device == Device::WearRepair {
                        black_box(l.forward.write_verify(w, verify, rng));
                        black_box(l.backward.write_verify(wt, verify, rng));
                    } else {
                        l.forward.write(w);
                        l.backward.write(wt);
                    }
                }
            });
        });
    }

    /// Times the pieces of `Crossbar::mvm_spiked` — spike encoding, the
    /// bit-plane build, the packed integrate — on the first member crossbar
    /// of the largest layer, once per forward input of the batch. Each
    /// input also drives one call on a fresh copy, which always misses the
    /// plane cache, and one call of an in-order sequence on a single copy,
    /// which on ideal arrays reuses the cache after its first call, as in
    /// training.
    ///
    /// No plane build is timed on `wear-repair`, so `reram.plane_build_us`
    /// reads 0 there. Its arrays are small and only fault-mapped, so a
    /// build is cheap per cell, and the build here calls `effective_level`
    /// from outside its crate, where it is not inlined. That call cost
    /// made the timed build 30–50% longer than the build inside
    /// `mvm_spiked`.
    fn time_member_crossbar(&self, tr: &mut Tracer, imgs: &[Tensor]) {
        let bits = self.params.data_bits;
        let Some(xbar) = self.layers[0].forward.crossbars().next() else {
            return;
        };
        let degraded = xbar.fault_map().is_some()
            || xbar.drift_state().is_some()
            || xbar.noise_state().is_some();
        let (rows, cols, planes) = (xbar.rows(), xbar.cols(), xbar.cell_bits());
        let pack = || {
            if degraded {
                BitPlanes::pack(rows, cols, planes, |r, c| xbar.effective_level(r, c))
            } else {
                BitPlanes::pack(rows, cols, planes, |r, c| xbar.level(r, c))
            }
        };
        // A copy taken right after `load` holds no plane cache. Each piece
        // runs once untimed first, so it is timed with warm caches, as it
        // runs inside `mvm_spiked`.
        let mut in_order = xbar.clone();
        for img in imgs {
            let mut x = img.as_slice().to_vec();
            x.push(1.0);
            let phase = positive_phase(&x, bits);
            black_box(PackedSpikes::encode(&phase, bits));
            let (spikes, _) = tr.span("reram.spike_encode", |_| PackedSpikes::encode(&phase, bits));
            black_box(pack());
            let planes = if self.device == Device::WearRepair {
                pack()
            } else {
                tr.span("reram.plane_build", |_| pack()).0
            };
            let mut fires = vec![IntegrateFire::new(); cols];
            packed::integrate(&spikes, &planes, &mut fires);
            tr.span("reram.integrate", |_| {
                packed::integrate(&spikes, &planes, &mut fires)
            });
            black_box(&fires);
            black_box(xbar.clone().mvm_spiked(&phase, bits));
            let mut cold = xbar.clone();
            tr.span("reram.mvm_spiked_miss", |_| {
                black_box(cold.mvm_spiked(&phase, bits));
            });
            tr.span("reram.mvm_spiked", |_| {
                black_box(in_order.mvm_spiked(&phase, bits));
            });
        }
    }
}
