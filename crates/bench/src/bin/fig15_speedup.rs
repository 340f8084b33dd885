//! Figure 15 — speedups of the ten evaluation networks over the GPU
//! baseline, in training and testing, for PipeLayer without and with the
//! inter-layer pipeline.
//!
//! Regenerates the series of Fig. 15: GPU (normalised to 1), PipeLayer
//! w/o pipeline, PipeLayer (pipelined), plus the geometric means the paper
//! quotes in Sec. 6.3.

use pipelayer::Accelerator;
use pipelayer_baselines::GpuModel;
use pipelayer_bench::workloads::{evaluation_workloads, BATCH};
use pipelayer_bench::{fmt_f, geomean, paper, Table};
use std::num::NonZeroUsize;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gpu = GpuModel::default();
    let mut table = Table::new(
        "Figure 15: speedup vs GPU (training and testing)",
        &[
            "network",
            "train w/o pipe",
            "train PipeLayer",
            "test w/o pipe",
            "test PipeLayer",
        ],
    );

    let mut train_pipe = Vec::new();
    let mut train_nopipe = Vec::new();
    let mut test_pipe = Vec::new();
    let mut test_nopipe = Vec::new();

    for (spec, n) in evaluation_workloads() {
        let gpu_train = gpu.training(&spec, n, BATCH).time_s;
        let gpu_test = gpu.testing(&spec, n, BATCH).time_s;

        let accel = Accelerator::builder(spec.clone())
            .batch_size(NonZeroUsize::try_from(BATCH)?)
            .build()?;
        let np = Accelerator::builder(spec.clone())
            .batch_size(NonZeroUsize::try_from(BATCH)?)
            .pipelined(false)
            .build()?;

        let s_train_pipe = gpu_train / accel.estimate_training(n).time_s;
        let s_train_np = gpu_train / np.estimate_training(n).time_s;
        let s_test_pipe = gpu_test / accel.estimate_testing(n).time_s;
        let s_test_np = gpu_test / np.estimate_testing(n).time_s;

        train_pipe.push(s_train_pipe);
        train_nopipe.push(s_train_np);
        test_pipe.push(s_test_pipe);
        test_nopipe.push(s_test_np);

        table.row(vec![
            spec.name.clone(),
            fmt_f(s_train_np, 2),
            fmt_f(s_train_pipe, 2),
            fmt_f(s_test_np, 2),
            fmt_f(s_test_pipe, 2),
        ]);
    }

    table.row(vec![
        "Gmean".into(),
        fmt_f(geomean(&train_nopipe), 2),
        fmt_f(geomean(&train_pipe), 2),
        fmt_f(geomean(&test_nopipe), 2),
        fmt_f(geomean(&test_pipe), 2),
    ]);
    table.print();

    let overall: Vec<f64> = train_pipe.iter().chain(&test_pipe).copied().collect();
    println!();
    println!(
        "geomean speedup — training {:.2}x, testing {:.2}x, overall {:.2}x",
        geomean(&train_pipe),
        geomean(&test_pipe),
        geomean(&overall),
    );
    println!(
        "paper reference — testing geomean {:.2}x (Sec. 6.3; other geomeans OCR-damaged, see EXPERIMENTS.md)",
        paper::SPEEDUP_GEOMEAN_TEST
    );
    println!(
        "highest pipelined speedup observed: {:.2}x",
        train_pipe
            .iter()
            .chain(&test_pipe)
            .fold(0.0f64, |m, &x| m.max(x))
    );
    Ok(())
}
