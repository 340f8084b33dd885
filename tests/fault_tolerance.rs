//! End-to-end fault tolerance: a network trained on faulty arrays with the
//! program-and-verify + spare-remapping stack must track the fault-free
//! baseline, and the verify discipline's cost must be visible in the
//! analytic energy, timing and endurance models.

use pipelayer::config::PipeLayerConfig;
use pipelayer::endurance::{training_lifetime, EnduranceModel};
use pipelayer::energy::EnergyModel;
use pipelayer::functional::{downsample, ReramMlp};
use pipelayer::mapping::MappedNetwork;
use pipelayer::repair::SpareBudget;
use pipelayer::timing::TimingModel;
use pipelayer_nn::data::SyntheticMnist;
use pipelayer_nn::metrics::DegradationReport;
use pipelayer_nn::zoo;
use pipelayer_reram::{DeviceModel, FaultModel, ReramParams, VerifyPolicy};
use pipelayer_tensor::Tensor;

const DIMS: [usize; 3] = [49, 16, 10];

fn small_task() -> (Vec<Tensor>, Vec<usize>, Vec<Tensor>, Vec<usize>) {
    let data = SyntheticMnist::generate(120, 40, 77);
    let ds = |v: &[Tensor]| -> Vec<Tensor> { v.iter().map(|t| downsample(t, 4)).collect() };
    (
        ds(&data.train.images),
        data.train.labels.clone(),
        ds(&data.test.images),
        data.test.labels.clone(),
    )
}

fn train(mlp: &mut ReramMlp, tr: &[Tensor], trl: &[usize]) {
    for _ in 0..6 {
        for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)) {
            mlp.train_batch(imgs, labs, 0.3);
        }
    }
}

/// The headline round trip: stuck-at faults at 1e-3, bounded
/// program-and-verify writes, spare-column remapping — final accuracy
/// within 2 percentage points of the fault-free baseline.
#[test]
fn repaired_training_stays_within_two_points_of_fault_free() {
    let (tr, trl, te, tel) = small_task();
    let params = ReramParams::default();

    let mut ideal = ReramMlp::new(&DIMS, &params, 5);
    train(&mut ideal, &tr, &trl);

    let mut repaired = ReramMlp::with_fault_tolerance(
        &DIMS,
        &params,
        5,
        &FaultModel::with_stuck_rate(1e-3),
        VerifyPolicy {
            max_attempts: 3,
            write_sigma: 0.2,
        },
        SpareBudget::typical(),
    );
    train(&mut repaired, &tr, &trl);

    let report = DegradationReport::new(ideal.accuracy(&te, &tel), repaired.accuracy(&te, &tel));
    assert!(
        report.within(2.0),
        "repaired run lost {} points (baseline {}, repaired {})",
        report.drop_points(),
        report.baseline,
        report.degraded
    );

    // The repair machinery actually engaged: verified writes were costed
    // and at least one faulty column was remapped or masked.
    let cost = repaired.fault_report().expect("fault tolerance is on");
    assert!(cost.pulses > 0 && cost.verify_reads > 0);
    assert!(cost.overhead() >= 1.0);
    assert!(
        repaired.spares_used() + repaired.masked_units() > 0,
        "a 1e-3 stuck rate over these arrays should hit at least one column"
    );
}

/// The same fault process without any tolerance: silent stuck cells at a
/// heavy rate measurably break training — the ablation's "repair off" arm.
#[test]
fn silent_faults_degrade_measurably_without_repair() {
    let (tr, trl, te, tel) = small_task();
    let params = ReramParams::default();

    let mut ideal = ReramMlp::new(&DIMS, &params, 5);
    train(&mut ideal, &tr, &trl);

    let mut faulty = ReramMlp::builder(&DIMS, &params, 5)
        .device(DeviceModel::ideal().with_faults(FaultModel::with_stuck_rate(2e-2)))
        .build();
    train(&mut faulty, &tr, &trl);

    let report = DegradationReport::new(ideal.accuracy(&te, &tel), faulty.accuracy(&te, &tel));
    assert!(
        report.drop_points() > 10.0,
        "2% silent stuck cells should cost >10 points, lost {}",
        report.drop_points()
    );
}

/// The verify-write discipline is visible end to end in the analytic
/// models: more update energy, a longer update cycle, more wear per
/// update, and a shorter lifetime — while the forward path is untouched.
#[test]
fn verify_cost_flows_through_energy_timing_and_endurance() {
    let spec = zoo::spec_mnist_a();
    let base = MappedNetwork::from_spec(&spec, PipeLayerConfig::default());
    let ft_cfg = PipeLayerConfig::default().with_fault_tolerance(
        FaultModel::with_stuck_rate(1e-3),
        VerifyPolicy {
            max_attempts: 5,
            write_sigma: 0.5,
        },
        SpareBudget::typical(),
    );
    let ft = MappedNetwork::from_spec(&spec, ft_cfg);

    // Energy: training costs more, testing (no writes) is identical.
    let (e_base, e_ft) = (EnergyModel::new(&base), EnergyModel::new(&ft));
    let n = 10 * base.config.batch_size as u64;
    assert!(e_ft.training_energy_j(n) > e_base.training_energy_j(n));
    assert_eq!(e_ft.testing_energy_j(n), e_base.testing_energy_j(n));
    assert!(e_ft.update_verify_read_spikes_per_batch() > 0);
    assert!(e_ft.verified_update_write_spikes_per_batch() > e_ft.update_write_spikes_per_batch());

    // Timing: the update cycle stretches, the pipeline cycle does not.
    let (t_base, t_ft) = (TimingModel::new(&base), TimingModel::new(&ft));
    assert!(t_ft.update_cycle_ns() > t_base.update_cycle_ns());
    assert_eq!(t_ft.cycle_training_ns(), t_base.cycle_training_ns());

    // Endurance: retries wear cells faster, so lifetime shrinks.
    let model = EnduranceModel::research_grade();
    let (l_base, l_ft) = (
        training_lifetime(&base, &model),
        training_lifetime(&ft, &model),
    );
    assert_eq!(l_base.pulses_per_update, 1.0);
    assert!(l_ft.pulses_per_update > 1.0);
    assert!(l_ft.seconds < l_base.seconds);
}
