//! Ablation — fault rate × {repair on, repair off} on the functional
//! ReRAM datapath.
//!
//! Three arms per stuck-at fault rate, all trained identically on the
//! downsampled synthetic-MNIST task through the full spike-coded crossbar
//! model:
//!
//! * **ideal** — fault-free arrays, fire-and-forget writes (the baseline);
//! * **repair off** — arrays carry persistent stuck-at faults, writes are
//!   fire-and-forget, stuck cells silently corrupt every MVM;
//! * **repair on** — the same fault rate, but every write runs the bounded
//!   program-and-verify loop and unrecoverable columns are remapped to
//!   spare columns (masked once the per-matrix budget runs out).
//!
//! Alongside accuracy the ablation reports the repair arm's measured
//! retry-pulse overhead (verified pulses / ideal pulses), the spare and
//! mask consumption, and — from the analytic models — the update-cycle
//! stretch and training-lifetime cost the verify discipline charges.
//!
//! Run with `--release` (training included). `--quick` shrinks the budget.

use pipelayer::config::PipeLayerConfig;
use pipelayer::endurance::{training_lifetime, EnduranceModel};
use pipelayer::functional::{downsample, ReramMlp};
use pipelayer::mapping::MappedNetwork;
use pipelayer::repair::SpareBudget;
use pipelayer::timing::TimingModel;
use pipelayer_bench::{fmt_f, Table};
use pipelayer_nn::data::SyntheticMnist;
use pipelayer_nn::metrics::DegradationReport;
use pipelayer_nn::zoo;
use pipelayer_reram::{DeviceModel, FaultModel, ReramParams, VerifyPolicy};
use pipelayer_tensor::Tensor;

const DIMS: [usize; 3] = [49, 16, 10];
const SEED: u64 = 5;
const LR: f32 = 0.3;

fn train(mlp: &mut ReramMlp, tr: &[Tensor], trl: &[usize], epochs: usize) {
    for _ in 0..epochs {
        for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)) {
            mlp.train_batch(imgs, labs, LR);
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n_train, n_test, epochs) = if quick { (80, 40, 2) } else { (120, 40, 6) };
    let rates: &[f64] = if quick {
        &[1e-3, 2e-2]
    } else {
        &[1e-4, 1e-3, 5e-3, 2e-2]
    };
    let data = SyntheticMnist::generate(n_train, n_test, 77);
    let tr: Vec<Tensor> = data.train.images.iter().map(|t| downsample(t, 4)).collect();
    let te: Vec<Tensor> = data.test.images.iter().map(|t| downsample(t, 4)).collect();
    let (trl, tel) = (&data.train.labels, &data.test.labels);
    let params = ReramParams::default();
    let verify = VerifyPolicy {
        max_attempts: 3,
        write_sigma: 0.2,
    };

    // Fault-free baseline, trained once.
    let mut ideal = ReramMlp::new(&DIMS, &params, SEED);
    train(&mut ideal, &tr, trl, epochs);
    let base_acc = ideal.accuracy(&te, tel);
    println!(
        "fault-free baseline: {} test accuracy ({n_train} train / {n_test} test, {epochs} epochs)",
        fmt_f(base_acc as f64, 3)
    );
    println!();

    let mut table = Table::new(
        "Ablation: test accuracy and repair cost vs stuck-at fault rate",
        &[
            "fault rate",
            "repair",
            "accuracy",
            "Δ vs ideal (pts)",
            "pulse overhead",
            "spares used",
            "masked cols",
        ],
    );
    for &rate in rates {
        let faults = FaultModel::with_stuck_rate(rate);

        let mut off = ReramMlp::builder(&DIMS, &params, SEED)
            .device(DeviceModel::ideal().with_faults(faults))
            .build();
        train(&mut off, &tr, trl, epochs);
        let acc_off = off.accuracy(&te, tel);
        let d_off = DegradationReport::new(base_acc, acc_off);
        table.row(vec![
            format!("{rate}"),
            "off".into(),
            fmt_f(acc_off as f64, 3),
            fmt_f(d_off.drop_points() as f64, 1),
            "1.000".into(),
            "-".into(),
            "-".into(),
        ]);

        let mut on = ReramMlp::with_fault_tolerance(
            &DIMS,
            &params,
            SEED,
            &faults,
            verify,
            SpareBudget::typical(),
        );
        train(&mut on, &tr, trl, epochs);
        let acc_on = on.accuracy(&te, tel);
        let d_on = DegradationReport::new(base_acc, acc_on)
            .with_repair_state(on.spares_left(), on.masked_units());
        let overhead = on
            .fault_report()
            .map_or_else(|| "-".into(), |r| fmt_f(r.overhead(), 3));
        table.row(vec![
            format!("{rate}"),
            "on".into(),
            fmt_f(acc_on as f64, 3),
            fmt_f(d_on.drop_points() as f64, 1),
            overhead,
            on.spares_used().to_string(),
            on.masked_units().to_string(),
        ]);
    }
    table.print();

    // Analytic cost of the verify discipline on the mapped Mnist-A design:
    // update-cycle stretch and endurance-lifetime impact.
    println!();
    let spec = zoo::spec_mnist_a();
    let base_map = MappedNetwork::from_spec(&spec, PipeLayerConfig::default());
    let base_cycle_ns = TimingModel::new(&base_map).update_cycle_ns();
    let endurance = EnduranceModel::research_grade();
    let base_life = training_lifetime(&base_map, &endurance);
    let mut cost = Table::new(
        "Analytic: verify-write cost on Mnist-A (3-attempt verify, σ_w=0.2, 10⁹-cycle cells)",
        &[
            "fault rate",
            "pulses/update",
            "update cycle (×ideal)",
            "lifetime (days)",
            "lifetime (×ideal)",
        ],
    );
    cost.row(vec![
        "ideal".into(),
        fmt_f(base_life.pulses_per_update, 3),
        "1.000".into(),
        fmt_f(base_life.days(), 1),
        "1.000".into(),
    ]);
    for &rate in rates {
        let cfg = PipeLayerConfig::default().with_fault_tolerance(
            FaultModel::with_stuck_rate(rate),
            verify,
            SpareBudget::typical(),
        );
        let m = MappedNetwork::from_spec(&spec, cfg);
        let life = training_lifetime(&m, &endurance);
        let cycle = TimingModel::new(&m).update_cycle_ns();
        cost.row(vec![
            format!("{rate}"),
            fmt_f(life.pulses_per_update, 3),
            fmt_f(cycle / base_cycle_ns, 3),
            fmt_f(life.days(), 1),
            fmt_f(life.seconds / base_life.seconds, 3),
        ]);
    }
    cost.print();
    println!();
    println!("shape: repair holds accuracy at the ideal baseline while spares last; once");
    println!("the budget is exhausted, masking degrades gracefully but bluntly (a whole");
    println!("column per unrecoverable cell). The verify loop's bounded pulse overhead is");
    println!("paid again in update-cycle time and cell lifetime.");
}
