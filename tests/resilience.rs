//! Runtime-resilience integration tests: device aging (conductance drift +
//! read disturb), the online scrub scheduler, and the guarantee that the
//! whole subsystem is an exact no-op when switched off.

use pipelayer::endurance::{training_lifetime, EnduranceModel};
use pipelayer::energy::EnergyModel;
use pipelayer::functional::{downsample, ReramMlp};
use pipelayer::timing::TimingModel;
use pipelayer::{MappedNetwork, PipeLayerConfig, RepairPolicy, ScrubPolicy, SpareBudget};
use pipelayer_nn::data::SyntheticMnist;
use pipelayer_nn::serialize::{
    crc32, load_checkpoint, load_params, save_checkpoint, save_params, DecodeError,
};
use pipelayer_nn::zoo;
use pipelayer_nn::CheckpointState;
use pipelayer_reram::{
    DriftModel, FaultModel, NoiseModel, ReramMatrix, ReramParams, VerifyPolicy, WearModel,
};
use pipelayer_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::sync::OnceLock;

/// With scrubbing off (the default), every paper-config number this repo
/// reports must be BIT-IDENTICAL to its pre-scrub value — the resilience
/// subsystem may not perturb calibrated results even in the last ulp.
/// The pinned bit patterns were captured on the commit before the scrub
/// model landed.
#[test]
fn scrub_off_is_bit_identical_to_pre_scrub_baselines() {
    let cfg = PipeLayerConfig::default();
    assert!(!cfg.scrub_enabled(), "scrub must default to off");
    assert!(
        cfg.device.noise.is_ideal(),
        "analog noise must default to off"
    );
    let model = EnduranceModel::research_grade();

    let cases: [(&str, pipelayer_nn::NetSpec, u64, u64); 3] = [
        (
            "mnist_a",
            zoo::spec_mnist_a(),
            0x3f69bc7c249d17a5,
            0x40e989e666666666,
        ),
        (
            "mnist_0",
            zoo::spec_mnist_0(),
            0x3fa0a9459d83b236,
            0x4103ec4147ae147c,
        ),
        (
            "alexnet",
            zoo::alexnet(),
            0x4004abe5b19f1264,
            0x4140efc7eb851eb9,
        ),
    ];
    for (name, spec, energy_bits, lifetime_bits) in cases {
        let net = MappedNetwork::try_from_spec(&spec, cfg).unwrap();
        let t = TimingModel::new(&net);
        assert_eq!(
            t.update_cycle_ns().0.to_bits(),
            0x40ca5b1eb851eb85,
            "{name}: update cycle moved"
        );
        assert_eq!(t.scrub_ns_per_image().0, 0.0, "{name}");
        let e = EnergyModel::new(&net).training_energy_j(64);
        assert_eq!(e.0.to_bits(), energy_bits, "{name}: training energy moved");
        let l = training_lifetime(&net, &model);
        assert_eq!(
            l.seconds.0.to_bits(),
            lifetime_bits,
            "{name}: lifetime moved"
        );
    }
}

fn aging_model() -> DriftModel {
    // Retention knee at 10k cycles: far beyond a training run (~1k cycles
    // here), so learning is undisturbed, but well within deployment scale.
    // The large cell-to-cell ν spread is what hurts accuracy: a uniform
    // conductance decay would leave every argmax unchanged, but per-cell
    // heterogeneity distorts *relative* weights.
    DriftModel {
        nu: 0.2,
        nu_sigma: 0.15,
        t0_cycles: 10_000,
        disturb_per_level: 0,
    }
}

fn small_task() -> (Vec<Tensor>, Vec<usize>, Vec<Tensor>, Vec<usize>) {
    let data = SyntheticMnist::generate(120, 40, 77);
    let tr: Vec<Tensor> = data.train.images.iter().map(|t| downsample(t, 4)).collect();
    let te: Vec<Tensor> = data.test.images.iter().map(|t| downsample(t, 4)).collect();
    (tr, data.train.labels, te, data.test.labels)
}

/// The paper-class Mnist-A drift campaign: train on ReRAM, then let the
/// deployed arrays age. The scrub-on arm must stay within 2 accuracy
/// points of the drift-free baseline while the scrub-off arm measurably
/// degrades — the headline claim of the resilience subsystem.
#[test]
fn drift_campaign_scrub_on_tracks_baseline_scrub_off_degrades() {
    let (tr, trl, te, tel) = small_task();
    let mut mlp = ReramMlp::with_resilience(
        &[49, 16, 10],
        &ReramParams::default(),
        5,
        aging_model(),
        ScrubPolicy::off(),
        VerifyPolicy::default(),
    );
    for _ in 0..8 {
        for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)) {
            mlp.train_batch(imgs, labs, 0.3);
        }
    }
    let baseline = mlp.accuracy(&te, &tel);
    assert!(baseline > 0.5, "training should work at all: {baseline}");

    // Deploy two arms from the same trained weights and age them for
    // 1M logical cycles, one with periodic maintenance scrubs.
    let mut scrubbed = mlp.clone();
    let mut unscrubbed = mlp.clone();
    for _ in 0..10 {
        scrubbed.advance_cycles(100_000);
        scrubbed.scrub_all();
        unscrubbed.advance_cycles(100_000);
    }
    let acc_on = scrubbed.accuracy(&te, &tel);
    let acc_off = unscrubbed.accuracy(&te, &tel);
    assert!(unscrubbed.drifted_cells() > 0, "aging must leave damage");
    assert_eq!(scrubbed.drifted_cells(), 0, "scrub repairs everything");
    assert!(
        acc_on >= baseline - 0.02,
        "scrub-on must hold within 2 points: {acc_on} vs {baseline}"
    );
    assert!(
        acc_off < baseline - 0.05,
        "scrub-off must measurably degrade: {acc_off} vs {baseline}"
    );
}

/// Pins one drifted read so the seeded `(seed, crossbar, row, col, epoch)`
/// derivation chain can never silently change. The value was captured when
/// the drift model landed; a mismatch means reproducibility broke.
#[test]
fn drifted_weight_regression_pin() {
    let w: Vec<f32> = (0..16).map(|i| (i as f32 - 8.0) / 10.0).collect();
    let mut m = ReramMatrix::program(&w, 4, 4, &ReramParams::default());
    m.attach_drift(aging_model(), 0xD5EED);
    let before = m.read();
    m.advance_cycles(100_000);
    let after = m.read();
    assert_ne!(before, after, "a 100k-cycle age must move some read");
    // Captured from the first implementation of the seedstream scheme.
    assert_eq!(
        after[0].to_bits(),
        PINNED_DRIFTED_W0,
        "drifted read changed: seed derivation is no longer stable ({} bits {:#010x})",
        after[0],
        after[0].to_bits()
    );
}

const PINNED_DRIFTED_W0: u32 = 0xbf18ddff;

/// Attaching [`NoiseModel::ideal`] must leave a matrix read BIT-identical
/// to never attaching noise at all — the no-op gate the paper-figure pins
/// above rely on (the default config carries the ideal model).
#[test]
fn ideal_noise_is_bit_identical_to_no_noise() {
    let w: Vec<f32> = (0..16).map(|i| (i as f32 - 8.0) / 10.0).collect();
    let plain = ReramMatrix::program(&w, 4, 4, &ReramParams::default());
    let mut noisy = ReramMatrix::program(&w, 4, 4, &ReramParams::default());
    noisy.attach_noise(NoiseModel::ideal(), 0xA11A);
    let a: Vec<u32> = plain.read().iter().map(|v| v.to_bits()).collect();
    let b: Vec<u32> = noisy.read().iter().map(|v| v.to_bits()).collect();
    assert_eq!(a, b, "ideal noise model changed a read");
}

/// Pins one noisy read so the noise model's `(seed, crossbar, row, col,
/// epoch)` derivation chain can never silently change — the analogue of
/// [`drifted_weight_regression_pin`] for the non-ideality model.
#[test]
fn noisy_weight_regression_pin() {
    let w: Vec<f32> = (0..16).map(|i| (i as f32 - 8.0) / 10.0).collect();
    let mut m = ReramMatrix::program(&w, 4, 4, &ReramParams::default());
    m.attach_noise(NoiseModel::with_strength(2.0), 0xA11A);
    let first = m.read();
    assert_ne!(w, first.clone(), "strength-2 noise must perturb some read");
    let mut m2 = ReramMatrix::program(&w, 4, 4, &ReramParams::default());
    m2.attach_noise(NoiseModel::with_strength(2.0), 0xA11A);
    assert_eq!(
        first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        m2.read().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "same seed must replay the same noisy read"
    );
    assert_eq!(
        first[0].to_bits(),
        PINNED_NOISY_W0,
        "noisy read changed: seed derivation is no longer stable ({} bits {:#010x})",
        first[0],
        first[0].to_bits()
    );
}

const PINNED_NOISY_W0: u32 = 0xbf64b1ca;

/// A PLW2 blob carrying a full training state (cursor, RNG seed) over the
/// smallest zoo network, shared by the decode-hardening properties below.
fn plw2_blob() -> Vec<u8> {
    let mut net = zoo::mnist_0(11);
    let state = CheckpointState {
        shuffle_seed: 0xD1CE,
        cursor: Some(pipelayer_nn::TrainCursor {
            epoch: 1,
            images_done: 32,
            partial_loss_sum: 0.75,
            partial_batches: 2,
            epoch_losses: vec![1.5],
        }),
        velocities: None,
        wear: Some(vec![0x57, 0xEA, 0x12]),
    };
    save_checkpoint(&mut net, &state)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any strict prefix of a checkpoint must fail to decode — a torn
    /// write can never be mistaken for a valid resume point.
    #[test]
    fn truncated_checkpoints_always_error(cut in 0u64..=u64::MAX) {
        let blob = plw2_blob();
        let cut = (cut % blob.len() as u64) as usize;
        let mut net = zoo::mnist_0(3);
        prop_assert!(load_checkpoint(&mut net, &blob[..cut]).is_err());
    }

    /// Any single bit flip anywhere in the blob — magic, section counts,
    /// tags, lengths, payloads, CRCs — must be rejected, never silently
    /// resumed from. (Tags are covered because the section CRC spans
    /// tag ‖ payload, PNG-style.)
    #[test]
    fn single_bit_flips_always_error(pos in 0u64..=u64::MAX, bit in 0u32..8) {
        let mut blob = plw2_blob();
        let pos = (pos % blob.len() as u64) as usize;
        blob[pos] ^= 1u8 << bit;
        let mut net = zoo::mnist_0(3);
        prop_assert!(
            load_checkpoint(&mut net, &blob).is_err(),
            "flip of bit {bit} at byte {pos} decoded successfully"
        );
    }

    /// Same property for the legacy PLW1 format: truncation anywhere
    /// errors out (PLW1 has no CRC, but the length accounting must still
    /// never panic or over-allocate).
    #[test]
    fn truncated_plw1_always_errors(cut in 0u64..=u64::MAX) {
        let mut net = zoo::mnist_0(11);
        let blob = save_params(&mut net);
        let cut = (cut % blob.len() as u64) as usize;
        let mut target = zoo::mnist_0(3);
        prop_assert!(load_checkpoint(&mut target, &blob[..cut]).is_err());
    }

    /// Arbitrary garbage — wrong magic included — must produce a
    /// `DecodeError`, never a panic or a runaway allocation.
    #[test]
    fn random_garbage_never_panics(seed in 0u64..=u64::MAX, len in 0usize..2048) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.random_range(0u8..=255)).collect();
        let mut net = zoo::mnist_0(3);
        prop_assert!(load_checkpoint(&mut net, &bytes).is_err());
    }

    /// A structurally valid blob — right magic, counts and lengths, valid
    /// CRCs — whose one tensor has any rank (0 included) and any dims
    /// (0 included) must decode to an error, never reach the tensor
    /// constructors' asserts: as the PLW1 body, as a PLW2 `TNSR` section
    /// and as a PLW2 `OPTS` velocity, through both public decoders.
    #[test]
    fn any_tensor_header_decodes_without_panicking(
        rank in 0usize..=4,
        dim_bits in 0u64..=u64::MAX,
        container in 0u8..3,
    ) {
        let dims: Vec<u32> = (0..rank).map(|i| ((dim_bits >> (8 * i)) % 4) as u32).collect();
        let blob = tensor_blob(&dims, container);
        let degenerate = dims.is_empty() || dims.contains(&0);
        let mut net = zoo::mnist_0(3);
        let checkpoint = load_checkpoint(&mut net, &blob).map(|_| ());
        let params = load_params(&mut net, &blob);
        for result in [checkpoint, params] {
            prop_assert!(result.is_err(), "dims {dims:?} decoded into the network");
            prop_assert_eq!(result == Err(DecodeError::DegenerateShape), degenerate);
        }
    }

    /// The device-state decoder gets the checkpoint's probes: any strict
    /// prefix and arbitrary garbage are rejected, and a bit flip anywhere
    /// is either rejected or restored — never a panic.
    #[test]
    fn device_state_survives_truncation_flips_and_garbage(
        pos in 0u64..=u64::MAX,
        bit in 0u32..8,
        len in 0usize..2048,
    ) {
        let blob = device_blob();
        let cut = (pos % blob.len() as u64) as usize;
        prop_assert!(!wearing_mlp().restore_device_state(&blob[..cut]));

        let mut flipped = blob.clone();
        flipped[cut] ^= 1u8 << bit;
        let _ = wearing_mlp().restore_device_state(&flipped);

        let mut rng = StdRng::seed_from_u64(pos);
        let garbage: Vec<u8> = (0..len).map(|_| rng.random_range(0u8..=255)).collect();
        prop_assert!(!wearing_mlp().restore_device_state(&garbage));
    }
}

/// One tensor record (`u32` rank, `u32` dims, `f32` data) framed as a PLW1
/// body (`container` 0), a PLW2 `TNSR` section (1) or a flagged PLW2 `OPTS`
/// velocity (2), with valid lengths and CRCs.
fn tensor_blob(dims: &[u32], container: u8) -> Vec<u8> {
    let mut tensor = (dims.len() as u32).to_le_bytes().to_vec();
    for d in dims {
        tensor.extend(d.to_le_bytes());
    }
    let numel: u32 = dims.iter().product();
    for i in 0..numel {
        tensor.extend((i as f32).to_le_bytes());
    }
    let mut payload = 1u32.to_le_bytes().to_vec();
    if container == 2 {
        payload.push(1);
    }
    payload.extend(tensor);
    if container == 0 {
        return [b"PLW1".as_slice(), &payload].concat();
    }
    let tag = if container == 1 { b"TNSR" } else { b"OPTS" };
    let mut blob = b"PLW2".to_vec();
    blob.extend(1u32.to_le_bytes());
    blob.extend(tag);
    blob.extend((payload.len() as u32).to_le_bytes());
    blob.extend(&payload);
    blob.extend(crc32(&[tag.as_slice(), &payload].concat()).to_le_bytes());
    blob
}

/// The wear-campaign device: verified writes, spare columns, wear-out and
/// the laddered repair, so every section of its device state is populated.
fn wearing_mlp() -> ReramMlp {
    let mut m = ReramMlp::with_fault_tolerance(
        &[49, 8, 10],
        &ReramParams::default(),
        5,
        &FaultModel::ideal(),
        VerifyPolicy::with_attempts(2),
        SpareBudget::with_cols(4),
    );
    m.attach_wear(
        WearModel {
            median_writes: 20.0,
            sigma: 0.2,
        },
        5,
    );
    m.set_repair_policy(RepairPolicy::laddered());
    m
}

/// [`wearing_mlp`]'s device state after a few training steps, built once.
fn device_blob() -> Vec<u8> {
    static BLOB: OnceLock<Vec<u8>> = OnceLock::new();
    BLOB.get_or_init(|| {
        let data = SyntheticMnist::generate(40, 1, 9);
        let images: Vec<Tensor> = data.train.images.iter().map(|t| downsample(t, 4)).collect();
        let mut m = wearing_mlp();
        for (imgs, labs) in images.chunks(10).zip(data.train.labels.chunks(10)) {
            m.train_batch(imgs, labs, 0.3);
        }
        m.device_state()
    })
    .clone()
}
