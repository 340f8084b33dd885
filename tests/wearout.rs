//! Wear-out lifecycle integration tests: the exact no-op gate, graceful
//! storage-class degradation through the repair ladder, and bitwise
//! checkpoint/resume of a wearing device killed at arbitrary image
//! counts and restored at different thread counts.

use pipelayer::functional::{downsample, ReramMlp};
use pipelayer::{RepairPolicy, ScrubPolicy, SpareBudget};
use pipelayer_nn::data::SyntheticMnist;
use pipelayer_nn::metrics::DegradationReport;
use pipelayer_nn::serialize::{load_sections, save_sections};
use pipelayer_reram::{DriftModel, FaultModel, NoiseModel, ReramParams, VerifyPolicy, WearModel};
use pipelayer_tensor::Tensor;

const DIMS: [usize; 3] = [49, 16, 10];
const SEED: u64 = 5;
const LR: f32 = 0.3;

fn small_task() -> (Vec<Tensor>, Vec<usize>, Vec<Tensor>, Vec<usize>) {
    let data = SyntheticMnist::generate(120, 40, 77);
    let tr: Vec<Tensor> = data.train.images.iter().map(|t| downsample(t, 4)).collect();
    let te: Vec<Tensor> = data.test.images.iter().map(|t| downsample(t, 4)).collect();
    (tr, data.train.labels, te, data.test.labels)
}

/// The campaign configuration: storage-class endurance with a tight
/// production spread, verified writes, 8 spare columns per matrix and
/// the full escalation ladder.
fn storage_mlp() -> ReramMlp {
    let mut m = ReramMlp::with_fault_tolerance(
        &DIMS,
        &ReramParams::default(),
        SEED,
        &FaultModel::ideal(),
        VerifyPolicy::with_attempts(2),
        SpareBudget::with_cols(8),
    );
    m.attach_wear(
        WearModel {
            median_writes: 200.0,
            sigma: 0.2,
        },
        SEED,
    );
    m.set_repair_policy(RepairPolicy::laddered());
    m
}

/// All stored weights of every layer, as bits, for exact comparison.
fn weight_bits(mlp: &ReramMlp) -> Vec<u32> {
    (0..mlp.depth())
        .flat_map(|li| mlp.layer_weights(li))
        .map(|v| v.to_bits())
        .collect()
}

/// Attaching the ideal wear model must leave the whole training
/// trajectory bit-identical to never attaching wear — the no-op gate the
/// calibrated paper-figure pins rely on.
#[test]
fn ideal_wear_is_bitwise_noop_end_to_end() {
    let (tr, trl, te, tel) = small_task();
    let mut plain = ReramMlp::new(&DIMS, &ReramParams::default(), SEED);
    let mut gated = ReramMlp::new(&DIMS, &ReramParams::default(), SEED);
    gated.attach_wear(WearModel::ideal(), SEED);
    for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)).take(6) {
        let lp = plain.train_batch(imgs, labs, LR);
        let lg = gated.train_batch(imgs, labs, LR);
        assert_eq!(lp.to_bits(), lg.to_bits(), "loss bits diverged");
    }
    assert_eq!(weight_bits(&plain), weight_bits(&gated));
    assert_eq!(gated.wear_exhausted_cells(), 0);
    let (ap, ag) = (plain.accuracy(&te, &tel), gated.accuracy(&te, &tel));
    assert_eq!(ap.to_bits(), ag.to_bits(), "accuracy bits diverged");
}

/// A full storage-class run: cells must die mid-run, the ladder must
/// spend spares on them, and the run must end degraded-but-functional —
/// never panicking, never collapsing to chance.
#[test]
fn storage_class_wear_degrades_gracefully() {
    let (tr, trl, te, tel) = small_task();
    let mut baseline = ReramMlp::new(&DIMS, &ReramParams::default(), SEED);
    let mut worn = storage_mlp();
    for _ in 0..8 {
        for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)) {
            baseline.train_batch(imgs, labs, LR);
            worn.train_batch(imgs, labs, LR);
        }
    }
    assert!(worn.wear_exhausted_cells() > 0, "cells must wear out");
    assert!(worn.spares_used() > 0, "the ladder must spend spares");
    let report = DegradationReport::new(baseline.accuracy(&te, &tel), worn.accuracy(&te, &tel))
        .with_repair_state(worn.spares_left(), worn.masked_units());
    assert!(
        report.degraded > 0.3,
        "graceful degradation must not collapse to chance: {}",
        report.degraded
    );
    assert!(
        report.within(25.0),
        "storage-class drop should stay bounded: {} points",
        report.drop_points()
    );
}

/// Kill a wearing run at an awkward image count, round-trip the device
/// snapshot through a PLW2 WEAR section, restore into a freshly built
/// device, and finish at a different thread count: weights, wear
/// counters, fault maps and repair state must all be bitwise identical
/// to the never-interrupted run, at every thread count.
#[test]
fn kill_resume_under_wear_is_bitwise_at_any_thread_count() {
    let (tr, trl, _, _) = small_task();
    let batches: Vec<(&[Tensor], &[usize])> = tr.chunks(10).zip(trl.chunks(10)).take(8).collect();

    // The uninterrupted reference, single-threaded.
    let mut reference = storage_mlp();
    for (imgs, labs) in &batches {
        reference.train_batch_parallel(imgs, labs, LR, 1);
    }
    let ref_bits = weight_bits(&reference);

    // Kill after 3 batches (30 images) and after 5 more; each hop crosses
    // a save → WEAR section → load → restore boundary into a fresh device
    // and a different thread count.
    for threads in [1usize, 2, 8] {
        let mut live = storage_mlp();
        for (imgs, labs) in batches.iter().take(3) {
            live.train_batch_parallel(imgs, labs, LR, threads);
        }
        let blob = save_sections(&[(*b"WEAR", live.device_state())]);
        drop(live);

        let sections = load_sections(&blob).expect("WEAR checkpoint must decode");
        assert_eq!(sections.len(), 1);
        assert_eq!(&sections[0].0, b"WEAR");
        let mut resumed = storage_mlp();
        assert!(
            resumed.restore_device_state(&sections[0].1),
            "restore must accept the snapshot"
        );
        for (imgs, labs) in batches.iter().skip(3) {
            resumed.train_batch_parallel(imgs, labs, LR, threads);
        }
        assert_eq!(
            weight_bits(&resumed),
            ref_bits,
            "{threads}-thread resume diverged from the uninterrupted run"
        );
        assert_eq!(
            resumed.wear_exhausted_cells(),
            reference.wear_exhausted_cells()
        );
        assert_eq!(resumed.spares_used(), reference.spares_used());
        assert_eq!(resumed.spares_left(), reference.spares_left());
        assert_eq!(resumed.masked_units(), reference.masked_units());
        assert_eq!(resumed.write_spikes(), reference.write_spikes());
    }
}

/// A wear snapshot must be rejected by a device of a different shape —
/// resuming a checkpoint onto the wrong network must fail loudly, not
/// corrupt silently.
#[test]
fn wear_snapshot_rejects_wrong_shape() {
    let (tr, trl, _, _) = small_task();
    let mut live = storage_mlp();
    for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)).take(2) {
        live.train_batch(imgs, labs, LR);
    }
    let blob = live.device_state();
    let mut other = ReramMlp::new(&[49, 8, 10], &ReramParams::default(), SEED);
    assert!(
        !other.restore_device_state(&blob),
        "a differently-shaped device must reject the snapshot"
    );
    let mut truncated = storage_mlp();
    assert!(!truncated.restore_device_state(&blob[..blob.len() / 2]));
}

/// A device snapshot carries no drift clocks and no noise deviates, so a
/// run with drift and noise attached must refuse it: resuming would
/// continue on a different trajectory. Killed after 3 batches, the
/// restore onto a freshly built twin is rejected.
#[test]
fn aging_snapshot_is_rejected_on_resume() {
    let (tr, trl, _, _) = small_task();
    let aging = || {
        let mut m = ReramMlp::with_resilience(
            &DIMS,
            &ReramParams::default(),
            SEED,
            DriftModel {
                nu: 0.2,
                nu_sigma: 0.15,
                t0_cycles: 10_000,
                disturb_per_level: 0,
            },
            ScrubPolicy::every(1_000, 16),
            VerifyPolicy::default(),
        );
        m.attach_noise(NoiseModel::with_strength(0.25), SEED);
        m
    };
    let mut live = aging();
    for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)).take(3) {
        live.train_batch(imgs, labs, LR);
    }
    let blob = live.device_state();
    let mut resumed = aging();
    let untouched = weight_bits(&resumed);
    assert!(
        !resumed.restore_device_state(&blob),
        "a drifting, noisy device must reject a snapshot without its state"
    );
    assert_eq!(
        weight_bits(&resumed),
        untouched,
        "a refused restore writes nothing"
    );
}
