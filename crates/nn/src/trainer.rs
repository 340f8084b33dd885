//! Mini-batch SGD training loop with the paper's batch semantics: all
//! samples of a batch are processed against the same weights; the averaged
//! update is applied at the batch boundary (Sec. 3.1/3.3).

use crate::data::SyntheticMnist;
use crate::network::{Network, OptStates};
use crate::optimizer::Optimizer;
use crate::serialize::{
    atomic_write, load_checkpoint, save_checkpoint, CheckpointState, DecodeError, TrainCursor,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Seed of the epoch-shuffle RNG stream (one stream for the whole run;
/// epoch `e`'s order is the state after `e + 1` Fisher–Yates passes, so a
/// resumed run replays the identical schedule).
const SHUFFLE_SEED: u64 = 0xD1CE;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Batch size `B` (the paper's default is 64; MNIST-scale runs here use
    /// smaller batches for speed).
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Worker threads for data-parallel batch execution. `0` means auto:
    /// the `PIPELAYER_THREADS` environment variable if set, otherwise the
    /// machine's available parallelism. Requests beyond the machine's
    /// available parallelism are clamped down — extra workers only add
    /// scheduling overhead, never throughput. Any thread count produces
    /// bitwise identical training results (the reduction order is fixed per
    /// sample), so the clamp cannot change a result, only save the waste.
    pub threads: usize,
}

/// How a [`TrainConfig`]'s thread request resolved — what was asked for,
/// what the trainer will actually spawn, and whether the oversubscription
/// clamp fired. Benchmarks record this so a JSON reader can tell a
/// "requested 8, ran 8" arm from a "requested 8, ran 4 (clamped)" arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadResolution {
    /// The pre-clamp request: explicit `threads`, else `PIPELAYER_THREADS`,
    /// else the machine's available parallelism.
    pub requested: usize,
    /// The worker count training actually uses (`min(requested, machine)`).
    pub effective: usize,
    /// `true` iff the request exceeded the machine and was clamped.
    pub clamped: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 5,
            batch_size: 16,
            lr: 0.05,
            threads: 0,
        }
    }
}

impl TrainConfig {
    /// The concrete worker-thread count `fit` will use: an explicit
    /// `threads` value wins, then `PIPELAYER_THREADS`, then the machine's
    /// available parallelism — and the winner is clamped to the machine's
    /// available parallelism (oversubscribing adds context-switch overhead
    /// without adding compute, and cannot change results because training is
    /// bitwise identical at any thread count).
    pub fn resolved_threads(&self) -> usize {
        self.resolve_threads().effective
    }

    /// Like [`resolved_threads`](Self::resolved_threads), but also reports
    /// what was requested and whether the oversubscription clamp fired, so
    /// benchmarks can record the decision.
    pub fn resolve_threads(&self) -> ThreadResolution {
        let machine = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let requested = if self.threads > 0 {
            self.threads
        } else {
            std::env::var("PIPELAYER_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(machine)
        };
        ThreadResolution {
            requested,
            effective: requested.min(machine),
            clamped: requested > machine,
        }
    }
}

/// When and where [`Trainer::fit_resumable`] persists its state.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointPolicy {
    /// Checkpoint file (written atomically: temp + fsync + rename).
    pub path: PathBuf,
    /// Take a checkpoint every this many processed images (rounded up to
    /// the enclosing batch boundary).
    pub every_images: u64,
    /// Test/ops hook simulating a crash: after this many images are
    /// processed *by this call*, checkpoint and return
    /// [`FitOutcome::Interrupted`]. `None` trains to completion.
    pub stop_after_images: Option<u64>,
}

impl CheckpointPolicy {
    /// Checkpoints to `path` every `every_images` images, no kill point.
    /// A zero interval is rejected with [`CheckpointError::Config`] by the
    /// training call that uses the policy.
    pub fn every(path: impl Into<PathBuf>, every_images: u64) -> Self {
        CheckpointPolicy {
            path: path.into(),
            every_images,
            stop_after_images: None,
        }
    }
}

/// What a resumable training call produced.
#[derive(Debug, Clone, PartialEq)]
pub enum FitOutcome {
    /// Training ran to the configured epoch count.
    Completed(TrainReport),
    /// The `stop_after_images` kill point fired after checkpointing; call
    /// [`Trainer::resume_from`] to continue.
    Interrupted {
        /// Images processed by this call before stopping.
        images_seen: u64,
    },
}

/// Errors from resumable training.
#[derive(Debug)]
pub enum CheckpointError {
    /// Reading or writing the checkpoint file failed.
    Io(std::io::Error),
    /// The checkpoint file exists but does not decode against this network.
    Decode(DecodeError),
    /// The training setup itself is unusable: zero epochs or batch size,
    /// an empty training or test split, a split whose images and labels
    /// differ in length, or a zero checkpoint interval.
    Config(&'static str),
    /// The attached [`DeviceState`] hook and the checkpoint's `WEAR`
    /// section disagree: the device rejected the blob, or the checkpoint
    /// carries no blob for a run that has a wearing device attached.
    Device(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CheckpointError::Decode(e) => write!(f, "checkpoint decode failed: {e}"),
            CheckpointError::Config(m) => write!(f, "invalid resumable-training setup: {m}"),
            CheckpointError::Device(m) => write!(f, "device-state restore failed: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<DecodeError> for CheckpointError {
    fn from(e: DecodeError) -> Self {
        CheckpointError::Decode(e)
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Accuracy on the training split after the final epoch.
    pub final_train_accuracy: f32,
    /// Accuracy on the test split after the final epoch.
    pub final_test_accuracy: f32,
}

/// A deterministic parameter-perturbation hook for noise-aware training:
/// before each batch's forward/backward passes the trainer hands every
/// parameter buffer to [`perturb`](BatchNoise::perturb), computes the
/// batch on the perturbed weights, and then *folds* the resulting update
/// back onto the clean weights — so gradients see the noise the inference
/// hardware will inject, but the learned parameters stay clean.
///
/// Implementations MUST be pure in `(buffer contents, layer, is_bias,
/// batch)` — no wall-clock or shared mutable state — or kill/resume and
/// thread-count determinism break. The device model backing the hook
/// lives downstream (the `pipelayer` crate's `ReramNoiseHook`); this crate
/// only defines the injection point.
pub trait BatchNoise: Send + Sync {
    /// Perturbs one parameter buffer in place. `layer` is the ordinal of
    /// the parameter-bearing layer, `is_bias` distinguishes its two
    /// buffers, and `batch` is the global batch index (stable across
    /// checkpoint/resume).
    fn perturb(&self, buf: &mut [f32], layer: usize, is_bias: bool, batch: u64);
}

/// A wearing device whose mutable state (wear counters, live fault map,
/// repair-ladder position) must ride along with checkpoints so a killed
/// run resumes from the device it actually had, not a pristine one. The
/// trainer only touches the hook at checkpoint-write and resume time — the
/// hot training loop never calls it. The blob is opaque to this crate; it
/// is carried verbatim in the PLW2 `WEAR` section.
///
/// The downstream implementor is the `pipelayer` crate's `ReramMlp`
/// (`device_state` / `restore_device_state`); this crate only defines the
/// injection point, mirroring [`BatchNoise`].
pub trait DeviceState: Send {
    /// Serialises the device's mutable state to an opaque blob.
    fn device_state(&self) -> Vec<u8>;

    /// Restores state captured by [`device_state`](Self::device_state).
    /// Returns `false` when the blob does not match this device (corrupt,
    /// truncated, or from a different geometry); the device may then be in
    /// a partially-restored state and must be rebuilt before use.
    fn restore_device_state(&mut self, blob: &[u8]) -> bool;
}

/// Locks a shared device, riding through a poisoned mutex: the state is a
/// plain byte-level snapshot, valid even if another thread panicked while
/// holding the lock.
fn lock_device<'a>(
    d: &'a Mutex<dyn DeviceState + 'static>,
) -> std::sync::MutexGuard<'a, dyn DeviceState + 'static> {
    match d.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Drives training of a [`Network`] over a [`SyntheticMnist`] dataset.
#[derive(Clone, Default)]
pub struct Trainer {
    config: TrainConfig,
    optimizer: Option<Optimizer>,
    noise: Option<Arc<dyn BatchNoise>>,
    device: Option<Arc<Mutex<dyn DeviceState>>>,
}

impl fmt::Debug for Trainer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trainer")
            .field("config", &self.config)
            .field("optimizer", &self.optimizer)
            .field("noise", &self.noise.as_ref().map(|_| "<BatchNoise>"))
            .field("device", &self.device.as_ref().map(|_| "<DeviceState>"))
            .finish()
    }
}

impl Trainer {
    /// Creates a trainer with the given configuration (plain averaged SGD,
    /// the paper's update rule).
    pub fn new(config: TrainConfig) -> Self {
        Trainer {
            config,
            optimizer: None,
            noise: None,
            device: None,
        }
    }

    /// Uses an explicit update rule (momentum / weight decay) instead of
    /// plain SGD; the rule's own learning rate replaces `config.lr`.
    pub fn with_optimizer(mut self, opt: Optimizer) -> Self {
        self.optimizer = Some(opt);
        self
    }

    /// Enables noise-aware training: every batch runs on weights perturbed
    /// by `noise` (see [`BatchNoise`]), with the update folded back onto
    /// the clean weights. Perturbation happens *before* the data-parallel
    /// section, so any thread count still produces bitwise-identical
    /// results, and the clean weights are what checkpoints persist —
    /// kill/resume replays exactly.
    pub fn with_noise(mut self, noise: Arc<dyn BatchNoise>) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Attaches a wearing device whose state is persisted into every
    /// checkpoint's `WEAR` section and restored on
    /// [`resume_from`](Self::resume_from) (see [`DeviceState`]). Resume
    /// fails with [`CheckpointError::Device`] if the checkpoint has no
    /// `WEAR` blob or the device rejects it.
    pub fn with_device_state(mut self, device: Arc<Mutex<dyn DeviceState>>) -> Self {
        self.device = Some(device);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `net` and returns loss/accuracy history.
    ///
    /// # Panics
    ///
    /// Panics before training if the config has zero epochs or batch size,
    /// either split is empty, or a split's images and labels differ in
    /// length (the cases [`fit_resumable`](Self::fit_resumable) reports as
    /// [`CheckpointError::Config`]).
    #[expect(clippy::panic, reason = "caller bug: degenerate config or dataset")]
    pub fn fit(&self, net: &mut Network, data: &SyntheticMnist) -> TrainReport {
        match self.run_from(net, data, None, CheckpointState::default()) {
            Ok(FitOutcome::Completed(report)) => report,
            Err(CheckpointError::Config(m)) => panic!("{m}"),
            // Without a checkpoint policy there is no I/O and no kill point.
            _ => unreachable!("policy-free run can neither fail on I/O nor interrupt"),
        }
    }

    /// Like [`fit`](Self::fit), but crash-safe: a PLW2 checkpoint (weights,
    /// optimizer velocities, RNG stream, epoch/image cursor) is written
    /// atomically every `policy.every_images` images. An uninterrupted
    /// `fit_resumable` run is bitwise identical to `fit`; a run killed at
    /// any checkpoint and continued with [`resume_from`](Self::resume_from)
    /// replays to bitwise-identical final weights.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if a checkpoint cannot be written,
    /// [`CheckpointError::Config`], before any training or I/O, on a
    /// degenerate config, an empty or mislabelled split, or a zero
    /// checkpoint interval.
    pub fn fit_resumable(
        &self,
        net: &mut Network,
        data: &SyntheticMnist,
        policy: &CheckpointPolicy,
    ) -> Result<FitOutcome, CheckpointError> {
        self.run_from(net, data, Some(policy), CheckpointState::default())
    }

    /// Continues a run from the checkpoint at `policy.path`: restores
    /// weights, velocities and the training cursor, replays the shuffle
    /// stream to the recorded position, and trains on — producing final
    /// weights bitwise identical to a never-interrupted run at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the file cannot be read,
    /// [`CheckpointError::Decode`] if it is corrupt or does not match
    /// `net`'s architecture, [`CheckpointError::Config`], before the file
    /// is read, on a degenerate config, an empty or mislabelled split, or a
    /// zero checkpoint interval.
    pub fn resume_from(
        &self,
        net: &mut Network,
        data: &SyntheticMnist,
        policy: &CheckpointPolicy,
    ) -> Result<FitOutcome, CheckpointError> {
        self.check_setup(data, Some(policy))?;
        let bytes = std::fs::read(&policy.path)?;
        let state = load_checkpoint(net, &bytes)?;
        match (&self.device, &state.wear) {
            // The guard performs the restore; a failed restore selects
            // this arm, a successful one falls through to the no-op arm.
            (Some(d), Some(blob)) if !lock_device(d).restore_device_state(blob) => {
                return Err(CheckpointError::Device(
                    "device rejected the checkpoint's WEAR blob",
                ));
            }
            (Some(_), None) => {
                return Err(CheckpointError::Device(
                    "checkpoint carries no WEAR section for the attached device",
                ));
            }
            // A WEAR blob with no device attached is skipped, like any
            // other section a reader does not understand.
            _ => {}
        }
        self.run_from(net, data, Some(policy), state)
    }

    /// The set-up checks every entry point passes before any training or
    /// I/O: a run that fails them could only panic later, in the batch
    /// loop's indexing or the final [`Network::accuracy`].
    fn check_setup(
        &self,
        data: &SyntheticMnist,
        policy: Option<&CheckpointPolicy>,
    ) -> Result<(), CheckpointError> {
        let cfg = &self.config;
        let problem = if cfg.epochs == 0 || cfg.batch_size == 0 {
            "degenerate train config"
        } else if data.train.is_empty() {
            "empty training set"
        } else if data.test.is_empty() {
            "empty test set"
        } else if [&data.train, &data.test]
            .iter()
            .any(|split| split.images.len() != split.labels.len())
        {
            "images/labels length mismatch"
        } else if policy.is_some_and(|p| p.every_images == 0) {
            "checkpoint interval must be positive"
        } else {
            return Ok(());
        };
        Err(CheckpointError::Config(problem))
    }

    /// The one training loop behind both [`fit`](Self::fit) (no `policy`:
    /// never touches the filesystem) and the resumable entry points.
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
    fn run_from(
        &self,
        net: &mut Network,
        data: &SyntheticMnist,
        policy: Option<&CheckpointPolicy>,
        start: CheckpointState,
    ) -> Result<FitOutcome, CheckpointError> {
        self.check_setup(data, policy)?;
        let cfg = &self.config;

        let n = data.train.len();
        let batches_per_epoch = n.div_ceil(cfg.batch_size) as u64;
        let threads = cfg.resolved_threads();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(SHUFFLE_SEED);

        let cursor = start.cursor.unwrap_or(TrainCursor {
            epoch: 0,
            images_done: 0,
            partial_loss_sum: 0.0,
            partial_batches: 0,
            epoch_losses: Vec::new(),
        });
        let start_epoch = cursor.epoch as usize;
        let mut epoch_losses = cursor.epoch_losses;

        let mut states = self.optimizer.as_ref().map(|_| OptStates::for_network(net));
        if let (Some(states), Some(vel)) = (&mut states, start.velocities) {
            let expected = states.export_velocities().len();
            let found = vel.len();
            if !states.import_velocities(vel) {
                return Err(DecodeError::CountMismatch { found, expected }.into());
            }
        }

        // Replay the shuffle stream up to the checkpointed epoch: each
        // Fisher–Yates pass consumes a fixed draw count, so the stream
        // position depends only on how many passes have run.
        for _ in 0..start_epoch {
            order.shuffle(&mut rng);
        }

        let mut images_this_call: u64 = 0;
        let mut since_ckpt: u64 = 0;

        for epoch in start_epoch..cfg.epochs {
            order.shuffle(&mut rng);
            let resuming = epoch == start_epoch;
            let mut epoch_loss = if resuming {
                cursor.partial_loss_sum
            } else {
                0.0
            };
            let mut batches = if resuming {
                cursor.partial_batches as usize
            } else {
                0
            };
            let mut done = if resuming { cursor.images_done } else { 0 };
            for chunk in order.chunks(cfg.batch_size).skip(batches) {
                let images: Vec<_> = chunk
                    .iter()
                    .map(|&i| data.train.images[i].clone())
                    .collect();
                let labels: Vec<_> = chunk.iter().map(|&i| data.train.labels[i]).collect();
                // Noise-aware training: perturb the weights before the
                // (data-parallel) batch, then fold the update back onto the
                // clean weights, so the checkpoint below always holds clean
                // parameters. The global batch index is stable across
                // kill/resume because `batches` starts at the cursor.
                let snaps = self.noise.as_ref().map(|hook| {
                    let global = epoch as u64 * batches_per_epoch + batches as u64;
                    apply_batch_noise(net, hook.as_ref(), global)
                });
                epoch_loss += match (&self.optimizer, &mut states) {
                    (Some(opt), Some(states)) => {
                        net.train_batch_opt_parallel(&images, &labels, opt, states, threads)
                    }
                    _ => net.train_batch_parallel(&images, &labels, cfg.lr, threads),
                };
                if let Some(snaps) = snaps {
                    fold_noisy_update(net, snaps);
                }
                batches += 1;
                done += chunk.len() as u64;
                images_this_call += chunk.len() as u64;
                since_ckpt += chunk.len() as u64;

                if let Some(policy) = policy {
                    let kill = policy
                        .stop_after_images
                        .is_some_and(|s| images_this_call >= s);
                    if since_ckpt >= policy.every_images || kill {
                        self.write_checkpoint(
                            net,
                            &mut states,
                            policy,
                            TrainCursor {
                                epoch: u32::try_from(epoch).unwrap_or(u32::MAX),
                                images_done: done,
                                partial_loss_sum: epoch_loss,
                                partial_batches: u32::try_from(batches).unwrap_or(u32::MAX),
                                epoch_losses: epoch_losses.clone(),
                            },
                        )?;
                        since_ckpt = 0;
                        if kill {
                            return Ok(FitOutcome::Interrupted {
                                images_seen: images_this_call,
                            });
                        }
                    }
                }
            }
            epoch_losses.push(epoch_loss / batches as f32);
        }

        // Final checkpoint: cursor at `epochs` marks the run complete, so a
        // spurious resume returns immediately instead of retraining.
        if let Some(policy) = policy {
            self.write_checkpoint(
                net,
                &mut states,
                policy,
                TrainCursor {
                    epoch: u32::try_from(cfg.epochs).unwrap_or(u32::MAX),
                    images_done: 0,
                    partial_loss_sum: 0.0,
                    partial_batches: 0,
                    epoch_losses: epoch_losses.clone(),
                },
            )?;
        }

        Ok(FitOutcome::Completed(TrainReport {
            final_train_accuracy: net.accuracy(&data.train.images, &data.train.labels),
            final_test_accuracy: net.accuracy(&data.test.images, &data.test.labels),
            epoch_losses,
        }))
    }

    fn write_checkpoint(
        &self,
        net: &mut Network,
        states: &mut Option<OptStates>,
        policy: &CheckpointPolicy,
        cursor: TrainCursor,
    ) -> Result<(), CheckpointError> {
        let state = CheckpointState {
            shuffle_seed: SHUFFLE_SEED,
            cursor: Some(cursor),
            velocities: states.as_ref().map(|s| s.export_velocities()),
            wear: self.device.as_ref().map(|d| lock_device(d).device_state()),
        };
        let blob = save_checkpoint(net, &state);
        atomic_write(&policy.path, &blob)?;
        Ok(())
    }
}

/// Perturbs every parameter buffer in place for batch `batch` and returns,
/// per buffer in traversal order, the `(clean, noisy)` snapshots
/// [`fold_noisy_update`] needs to restore clean weights afterwards.
fn apply_batch_noise(
    net: &mut Network,
    hook: &dyn BatchNoise,
    batch: u64,
) -> Vec<(Vec<f32>, Vec<f32>)> {
    let mut snaps = Vec::new();
    let mut ordinal = 0usize;
    for layer in net.layers_mut() {
        let Some(p) = layer.params_mut() else {
            continue;
        };
        for (buf, is_bias) in [
            (p.weight.as_mut_slice(), false),
            (p.bias.as_mut_slice(), true),
        ] {
            let clean = buf.to_vec();
            hook.perturb(buf, ordinal, is_bias, batch);
            snaps.push((clean, buf.to_vec()));
        }
        ordinal += 1;
    }
    snaps
}

/// Folds a noisy batch's update back onto the clean weights:
/// `w ← clean + (w_post − noisy)`. The gradient was computed on the noisy
/// weights (that is the point), but the *delta* it produced lands on the
/// clean parameters, so training state stays noise-free.
fn fold_noisy_update(net: &mut Network, snaps: Vec<(Vec<f32>, Vec<f32>)>) {
    let mut it = snaps.into_iter();
    for layer in net.layers_mut() {
        let Some(p) = layer.params_mut() else {
            continue;
        };
        for buf in [p.weight.as_mut_slice(), p.bias.as_mut_slice()] {
            // Snapshots were taken over the identical traversal, so the
            // iterator cannot run dry; skip defensively if it somehow does.
            let Some((clean, noisy)) = it.next() else {
                continue;
            };
            for ((w, c), nz) in buf.iter_mut().zip(&clean).zip(&noisy) {
                *w = c + (*w - nz);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn mlp_learns_synthetic_mnist() {
        let data = SyntheticMnist::generate(400, 100, 21);
        let mut net = zoo::mnist_a(21);
        let report = Trainer::new(TrainConfig {
            epochs: 4,
            batch_size: 16,
            lr: 0.1,
            threads: 1,
        })
        .fit(&mut net, &data);
        assert!(
            report.final_test_accuracy > 0.85,
            "test accuracy too low: {}",
            report.final_test_accuracy
        );
        let first = report.epoch_losses.first().unwrap();
        let last = report.epoch_losses.last().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn conv_net_learns_synthetic_mnist() {
        let data = SyntheticMnist::generate(200, 50, 22);
        let mut net = zoo::mc(22);
        let report = Trainer::new(TrainConfig {
            epochs: 3,
            batch_size: 10,
            lr: 0.05,
            threads: 1,
        })
        .fit(&mut net, &data);
        assert!(
            report.final_test_accuracy > 0.7,
            "conv test accuracy too low: {}",
            report.final_test_accuracy
        );
    }

    #[test]
    fn momentum_trainer_learns() {
        let data = SyntheticMnist::generate(300, 80, 23);
        let mut net = zoo::mnist_a(23);
        let report = Trainer::new(TrainConfig {
            epochs: 3,
            batch_size: 16,
            lr: 0.0, // replaced by the optimizer's rate
            threads: 1,
        })
        .with_optimizer(Optimizer::with_momentum(0.05, 0.9))
        // (synthetic task with 300 samples and 3 epochs)
        .fit(&mut net, &data);
        assert!(
            report.final_test_accuracy > 0.6,
            "momentum run too weak: {}",
            report.final_test_accuracy
        );
        assert!(
            report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap(),
            "loss should fall"
        );
    }

    /// Satellite acceptance test: training Mnist-A at 1, 2 and 8 threads
    /// must yield bitwise-identical loss curves AND final weights.
    #[test]
    fn training_is_bitwise_deterministic_across_thread_counts() {
        let data = SyntheticMnist::generate(120, 30, 42);
        let run = |threads: usize| -> (Vec<u32>, Vec<u32>) {
            let mut net = zoo::mnist_a(42);
            let report = Trainer::new(TrainConfig {
                epochs: 2,
                batch_size: 16,
                lr: 0.1,
                threads,
            })
            .fit(&mut net, &data);
            let losses: Vec<u32> = report.epoch_losses.iter().map(|l| l.to_bits()).collect();
            let mut weights = Vec::new();
            for layer in net.layers_mut() {
                if let Some(p) = layer.params_mut() {
                    weights.extend(p.weight.as_slice().iter().map(|v| v.to_bits()));
                    weights.extend(p.bias.as_slice().iter().map(|v| v.to_bits()));
                }
            }
            (losses, weights)
        };
        let serial = run(1);
        let two = run(2);
        let eight = run(8);
        assert_eq!(serial.0, two.0, "2-thread loss curve diverged");
        assert_eq!(serial.0, eight.0, "8-thread loss curve diverged");
        assert_eq!(serial.1, two.1, "2-thread final weights diverged");
        assert_eq!(serial.1, eight.1, "8-thread final weights diverged");
    }

    #[test]
    fn resolved_threads_prefers_explicit_value() {
        let machine = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let cfg = TrainConfig {
            threads: 3,
            ..Default::default()
        };
        assert_eq!(cfg.resolved_threads(), 3.min(machine));
        let auto = TrainConfig::default();
        assert!(auto.resolved_threads() >= 1);
    }

    /// Satellite regression: a request far beyond the machine's parallelism
    /// must clamp down instead of oversubscribing, and the resolution must
    /// say so. Auto (`threads: 0`) resolves to exactly the machine count and
    /// is never flagged as clamped.
    #[test]
    fn resolved_threads_clamps_oversubscription() {
        let machine = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let greedy = TrainConfig {
            threads: machine * 64,
            ..Default::default()
        };
        let r = greedy.resolve_threads();
        assert_eq!(r.requested, machine * 64);
        assert_eq!(r.effective, machine, "oversubscribed request must clamp");
        assert!(r.clamped);

        let auto = TrainConfig::default().resolve_threads();
        assert_eq!(auto.effective, auto.requested.min(machine));
        assert!(auto.effective >= 1);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn rejects_zero_epochs() {
        let data = SyntheticMnist::generate(10, 10, 1);
        let mut net = zoo::mnist_a(1);
        Trainer::new(TrainConfig {
            epochs: 0,
            batch_size: 4,
            lr: 0.1,
            threads: 1,
        })
        .fit(&mut net, &data);
    }

    #[test]
    #[should_panic(expected = "empty test set")]
    fn fit_rejects_an_empty_test_split_before_training() {
        let mut data = SyntheticMnist::generate(10, 10, 1);
        data.test = crate::data::Dataset::default();
        Trainer::new(small_config(1)).fit(&mut zoo::mnist_a(1), &data);
    }

    /// A run that could only panic later — an empty test split (the final
    /// accuracy), or images and labels of different lengths in either split
    /// (the batch loop, the final accuracy) — is a `Config` error before any
    /// training or checkpoint I/O, from both resumable entry points.
    #[test]
    fn unusable_splits_are_config_errors_before_any_io() {
        let full = SyntheticMnist::generate(32, 8, 2);
        let mut no_test = full.clone();
        no_test.test = crate::data::Dataset::default();
        let mut train_labels = full.clone();
        train_labels.train.labels.pop();
        let mut test_labels = full;
        test_labels.test.labels.push(0);
        let trainer = Trainer::new(small_config(1));
        for (name, data) in [
            ("no-test", no_test),
            ("train-labels", train_labels),
            ("test-labels", test_labels),
        ] {
            let policy = CheckpointPolicy::every(ckpt_path(name), 16);
            let _ = std::fs::remove_file(&policy.path);
            let mut net = zoo::mnist_a(1);
            let before = weight_bits(&mut net);
            let fit = trainer.fit_resumable(&mut net, &data, &policy);
            assert!(
                matches!(fit, Err(CheckpointError::Config(_))),
                "{name}: {fit:?}"
            );
            let resumed = trainer.resume_from(&mut net, &data, &policy);
            assert!(
                matches!(resumed, Err(CheckpointError::Config(_))),
                "{name}: {resumed:?}"
            );
            assert!(!policy.path.exists(), "{name}: a checkpoint was written");
            assert_eq!(weight_bits(&mut net), before, "{name}: training ran");
        }
    }

    fn weight_bits(net: &mut Network) -> Vec<u32> {
        let mut bits = Vec::new();
        for layer in net.layers_mut() {
            if let Some(p) = layer.params_mut() {
                bits.extend(p.weight.as_slice().iter().map(|v| v.to_bits()));
                bits.extend(p.bias.as_slice().iter().map(|v| v.to_bits()));
            }
        }
        bits
    }

    fn ckpt_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("plw2-{name}-{}.ckpt", std::process::id()))
    }

    fn small_config(threads: usize) -> TrainConfig {
        TrainConfig {
            epochs: 2,
            batch_size: 16,
            lr: 0.1,
            threads,
        }
    }

    /// Runs a killed-and-resumed training to completion: the first call uses
    /// `fit_resumable` with a kill point; every continuation loads a FRESH
    /// network (proving all state really comes from the checkpoint file) and
    /// re-kills until the remaining work fits under the kill budget.
    fn run_with_kills(
        trainer: &Trainer,
        data: &SyntheticMnist,
        net_seed: u64,
        mut policy: CheckpointPolicy,
        kill_every: u64,
    ) -> (Vec<u32>, TrainReport) {
        policy.stop_after_images = Some(kill_every);
        let mut net = zoo::mnist_a(net_seed);
        let mut outcome = trainer.fit_resumable(&mut net, data, &policy).unwrap();
        let mut hops = 0;
        while let FitOutcome::Interrupted { images_seen } = outcome {
            assert!(images_seen >= kill_every, "kill fired early: {images_seen}");
            hops += 1;
            assert!(hops < 64, "resume loop is not making progress");
            net = zoo::mnist_a(net_seed.wrapping_add(hops)); // fresh, differently-seeded net
            outcome = trainer.resume_from(&mut net, data, &policy).unwrap();
        }
        assert!(hops > 0, "kill point never fired; test exercises nothing");
        let FitOutcome::Completed(report) = outcome else {
            unreachable!()
        };
        let _ = std::fs::remove_file(&policy.path);
        (weight_bits(&mut net), report)
    }

    /// Tentpole acceptance: an uninterrupted `fit_resumable` run is bitwise
    /// identical to plain `fit` — same loss curve, same final weights.
    #[test]
    fn uninterrupted_resumable_run_matches_fit_bitwise() {
        let data = SyntheticMnist::generate(96, 24, 31);
        let trainer = Trainer::new(small_config(2));
        let mut plain_net = zoo::mnist_a(31);
        let plain = trainer.fit(&mut plain_net, &data);

        let path = ckpt_path("uninterrupted");
        let mut res_net = zoo::mnist_a(31);
        let outcome = trainer
            .fit_resumable(&mut res_net, &data, &CheckpointPolicy::every(&path, 32))
            .unwrap();
        let _ = std::fs::remove_file(&path);
        let FitOutcome::Completed(report) = outcome else {
            panic!("run without a kill point must complete: {outcome:?}")
        };
        let bits = |v: &[f32]| v.iter().map(|l| l.to_bits()).collect::<Vec<u32>>();
        assert_eq!(
            bits(&plain.epoch_losses),
            bits(&report.epoch_losses),
            "loss curves diverged"
        );
        assert_eq!(
            weight_bits(&mut plain_net),
            weight_bits(&mut res_net),
            "final weights diverged"
        );
    }

    /// Tentpole acceptance: kill the run at an awkward (non-batch-aligned)
    /// image count, resume into a FRESH network, repeat until done — the
    /// final weights must be bitwise identical to a never-interrupted run,
    /// at every thread count.
    #[test]
    fn kill_and_resume_is_bitwise_identical_at_any_thread_count() {
        let data = SyntheticMnist::generate(96, 24, 37);
        for threads in [1usize, 2, 8] {
            let trainer = Trainer::new(small_config(threads));
            let mut ref_net = zoo::mnist_a(37);
            trainer.fit(&mut ref_net, &data);
            let reference = weight_bits(&mut ref_net);

            let path = ckpt_path(&format!("kill-{threads}t"));
            let policy = CheckpointPolicy::every(&path, 1_000_000);
            let (resumed, _) = run_with_kills(&trainer, &data, 37, policy, 41);
            assert_eq!(
                reference, resumed,
                "{threads}-thread kill-and-resume diverged from uninterrupted run"
            );
        }
    }

    /// Momentum velocities live in the OPTS checkpoint section; killing and
    /// resuming a momentum run must restore them exactly, or the very next
    /// update diverges.
    #[test]
    fn kill_and_resume_restores_momentum_velocities_bitwise() {
        let data = SyntheticMnist::generate(96, 24, 43);
        let opt = Optimizer::with_momentum(0.05, 0.9);
        let trainer = Trainer::new(small_config(2)).with_optimizer(opt);

        let mut ref_net = zoo::mnist_a(43);
        trainer.fit(&mut ref_net, &data);
        let reference = weight_bits(&mut ref_net);

        let path = ckpt_path("kill-momentum");
        let policy = CheckpointPolicy::every(&path, 1_000_000);
        let (resumed, report) = run_with_kills(&trainer, &data, 43, policy, 53);
        assert_eq!(
            reference, resumed,
            "momentum kill-and-resume diverged (velocities not restored?)"
        );
        assert_eq!(report.epoch_losses.len(), 2);
    }

    /// A pure, seedless stand-in for the downstream ReRAM noise hook: a
    /// splitmix-style hash of `(layer, is_bias, batch, index)` drives a
    /// small additive perturbation, so tests exercise the injection
    /// machinery without depending on the device model.
    struct TestNoise;

    impl BatchNoise for TestNoise {
        fn perturb(&self, buf: &mut [f32], layer: usize, is_bias: bool, batch: u64) {
            let salt = ((layer as u64) << 32) | ((is_bias as u64) << 16);
            for (i, w) in buf.iter_mut().enumerate() {
                let mut x = salt
                    ^ batch.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    ^ (i as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
                x ^= x >> 33;
                x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
                x ^= x >> 29;
                let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
                *w += ((unit - 0.5) * 0.02) as f32;
            }
        }
    }

    /// Satellite acceptance: noise-aware training must stay bitwise
    /// deterministic at 1, 2 and 8 threads (perturbation happens before the
    /// data-parallel section), and must actually change the trajectory
    /// relative to a clean run.
    #[test]
    fn noise_aware_training_is_bitwise_deterministic_across_thread_counts() {
        let data = SyntheticMnist::generate(96, 24, 51);
        let run = |threads: usize, noisy: bool| -> Vec<u32> {
            let mut net = zoo::mnist_a(51);
            let mut trainer = Trainer::new(small_config(threads));
            if noisy {
                trainer = trainer.with_noise(Arc::new(TestNoise));
            }
            trainer.fit(&mut net, &data);
            weight_bits(&mut net)
        };
        let serial = run(1, true);
        assert_eq!(serial, run(2, true), "2-thread noisy run diverged");
        assert_eq!(serial, run(8, true), "8-thread noisy run diverged");
        assert_ne!(serial, run(1, false), "noise hook had no effect");
    }

    /// Kill/resume with noise-aware training on: the global batch index
    /// feeding the hook comes from the checkpoint cursor, so a killed and
    /// resumed noisy run must replay to bitwise-identical weights.
    #[test]
    fn noise_aware_kill_and_resume_is_bitwise_identical() {
        let data = SyntheticMnist::generate(96, 24, 53);
        let trainer = Trainer::new(small_config(2)).with_noise(Arc::new(TestNoise));
        let mut ref_net = zoo::mnist_a(53);
        trainer.fit(&mut ref_net, &data);
        let reference = weight_bits(&mut ref_net);

        let path = ckpt_path("kill-noise");
        let policy = CheckpointPolicy::every(&path, 1_000_000);
        let (resumed, _) = run_with_kills(&trainer, &data, 53, policy, 41);
        assert_eq!(
            reference, resumed,
            "noise-aware kill-and-resume diverged (batch index not replayed?)"
        );
    }

    /// A checkpoint whose cursor sits at `epochs` marks the run complete:
    /// resuming from it must return immediately with the stored history
    /// instead of training another pass.
    #[test]
    fn resume_on_completed_checkpoint_returns_without_retraining() {
        let data = SyntheticMnist::generate(64, 16, 47);
        let trainer = Trainer::new(small_config(1));
        let path = ckpt_path("completed");
        let policy = CheckpointPolicy::every(&path, 48);
        let mut net = zoo::mnist_a(47);
        let FitOutcome::Completed(first) = trainer.fit_resumable(&mut net, &data, &policy).unwrap()
        else {
            panic!("must complete")
        };
        let finished = weight_bits(&mut net);

        let mut fresh = zoo::mnist_a(48);
        let outcome = trainer.resume_from(&mut fresh, &data, &policy).unwrap();
        let _ = std::fs::remove_file(&path);
        let FitOutcome::Completed(again) = outcome else {
            panic!("completed checkpoint must resume to Completed")
        };
        assert_eq!(first.epoch_losses, again.epoch_losses, "history lost");
        assert_eq!(finished, weight_bits(&mut fresh), "weights changed");
    }

    /// A stand-in for the downstream wearing device: its whole state is one
    /// counter, serialised as 8 little-endian bytes. Anything else is
    /// rejected, exactly like `ReramMlp::restore_device_state` rejects a
    /// geometry-mismatched blob.
    struct MockDevice {
        counter: u64,
    }

    impl DeviceState for MockDevice {
        fn device_state(&self) -> Vec<u8> {
            self.counter.to_le_bytes().to_vec()
        }

        fn restore_device_state(&mut self, blob: &[u8]) -> bool {
            let Ok(bytes) = <[u8; 8]>::try_from(blob) else {
                return false;
            };
            self.counter = u64::from_le_bytes(bytes);
            true
        }
    }

    /// The WEAR section must carry the attached device's state into the
    /// checkpoint and back out on resume — and a mismatched blob must fail
    /// with `CheckpointError::Device`, not resume silently on a pristine
    /// device.
    #[test]
    fn device_state_rides_checkpoints_and_mismatches_fail_loudly() {
        let data = SyntheticMnist::generate(64, 16, 61);
        let device = Arc::new(Mutex::new(MockDevice { counter: 0xC0FFEE }));
        let shared: Arc<Mutex<dyn DeviceState>> = device.clone();
        let trainer = Trainer::new(small_config(1)).with_device_state(shared.clone());

        let path = ckpt_path("device-state");
        let mut policy = CheckpointPolicy::every(&path, 32);
        policy.stop_after_images = Some(16);
        let mut net = zoo::mnist_a(61);
        let outcome = trainer.fit_resumable(&mut net, &data, &policy).unwrap();
        assert!(matches!(outcome, FitOutcome::Interrupted { .. }));

        // Perturb the live device, then resume: the checkpointed counter
        // must win over the in-memory one.
        device.lock().unwrap().counter = 1;
        policy.stop_after_images = None;
        let mut fresh = zoo::mnist_a(62);
        trainer.resume_from(&mut fresh, &data, &policy).unwrap();
        assert_eq!(device.lock().unwrap().counter, 0xC0FFEE);

        // A checkpoint written WITHOUT a device must not resume into a
        // trainer that has one.
        let bare = Trainer::new(small_config(1));
        let mut net2 = zoo::mnist_a(63);
        let mut kill = CheckpointPolicy::every(&path, 32);
        kill.stop_after_images = Some(16);
        assert!(matches!(
            bare.fit_resumable(&mut net2, &data, &kill).unwrap(),
            FitOutcome::Interrupted { .. }
        ));
        let err = trainer.resume_from(&mut fresh, &data, &policy);
        assert!(
            matches!(err, Err(CheckpointError::Device(_))),
            "missing WEAR section must fail loudly: {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }
}
