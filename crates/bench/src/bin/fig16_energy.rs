//! Figure 16 — energy savings of PipeLayer (pipelined) over the GPU
//! baseline, training and testing, for the ten evaluation networks.

use pipelayer::Accelerator;
use pipelayer_baselines::GpuModel;
use pipelayer_bench::workloads::{evaluation_workloads, BATCH};
use pipelayer_bench::{fmt_f, geomean, paper, Table};
use std::num::NonZeroUsize;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gpu = GpuModel::default();
    let mut table = Table::new(
        "Figure 16: energy saving vs GPU (training and testing)",
        &["network", "train saving", "test saving"],
    );

    let mut train = Vec::new();
    let mut test = Vec::new();
    for (spec, n) in evaluation_workloads() {
        let accel = Accelerator::builder(spec.clone())
            .batch_size(NonZeroUsize::try_from(BATCH)?)
            .build()?;
        let s_train = gpu.training(&spec, n, BATCH).energy_j / accel.estimate_training(n).energy_j;
        let s_test = gpu.testing(&spec, n, BATCH).energy_j / accel.estimate_testing(n).energy_j;
        train.push(s_train);
        test.push(s_test);
        table.row(vec![spec.name.clone(), fmt_f(s_train, 2), fmt_f(s_test, 2)]);
    }
    table.row(vec![
        "Gmean".into(),
        fmt_f(geomean(&train), 2),
        fmt_f(geomean(&test), 2),
    ]);
    table.print();

    let overall: Vec<f64> = train.iter().chain(&test).copied().collect();
    println!();
    println!(
        "geomean energy saving — training {:.2}x, testing {:.2}x, overall {:.2}x",
        geomean(&train),
        geomean(&test),
        geomean(&overall)
    );
    println!(
        "paper reference — training {:.2}x, testing {:.2}x, overall {:.2}x; peaks: train {:.1}x (Mnist-C), test {:.1}x (Mnist-A)",
        paper::ENERGY_SAVING_GEOMEAN_TRAIN,
        paper::ENERGY_SAVING_GEOMEAN_TEST,
        paper::ENERGY_SAVING_GEOMEAN_ALL,
        paper::ENERGY_SAVING_MAX_TRAIN,
        paper::ENERGY_SAVING_MAX_TEST,
    );
    let max_train = train.iter().cloned().fold(0.0f64, f64::max);
    let max_test = test.iter().cloned().fold(0.0f64, f64::max);
    println!("our peaks — train {max_train:.1}x, test {max_test:.1}x");
    Ok(())
}
