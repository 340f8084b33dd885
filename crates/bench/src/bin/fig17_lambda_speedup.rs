//! Figure 17 — speedup (vs GPU) as a function of the parallelism-granularity
//! scale λ ∈ {0, 0.25, 0.5, 1, 2, 4, max} for the five VGG networks.
//!
//! The paper's observation: speedup increases monotonically with λ (Fig. 17)
//! while area grows too (Fig. 18) — choosing λ balances the two.

use pipelayer::Accelerator;
use pipelayer_baselines::GpuModel;
use pipelayer_bench::workloads::{BATCH, N_IMAGENET};
use pipelayer_bench::{fmt_f, Table};
use pipelayer_nn::zoo::{vgg, VggVariant};
use std::num::NonZeroUsize;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gpu = GpuModel::default();
    let lambdas: [(&str, Option<f64>); 7] = [
        ("λ=0", Some(0.0)),
        ("λ=0.25", Some(0.25)),
        ("λ=0.5", Some(0.5)),
        ("λ=1", Some(1.0)),
        ("λ=2", Some(2.0)),
        ("λ=4", Some(4.0)),
        ("λ=max", None),
    ];

    let mut headers = vec!["network"];
    headers.extend(lambdas.iter().map(|(n, _)| *n));
    let mut table = Table::new(
        "Figure 17: training speedup vs parallelism granularity",
        &headers,
    );

    for variant in VggVariant::ALL {
        let spec = vgg(variant);
        let gpu_time = gpu.training(&spec, N_IMAGENET, BATCH).time_s;
        let mut row = vec![spec.name.clone()];
        for &(_, lambda) in &lambdas {
            let mut b =
                Accelerator::builder(spec.clone()).batch_size(NonZeroUsize::try_from(BATCH)?);
            b = match lambda {
                Some(l) => b.lambda(l),
                None => b.lambda(1e12), // clamps to G = P per layer
            };
            let accel = b.build()?;
            let speedup = gpu_time / accel.estimate_training(N_IMAGENET).time_s;
            row.push(fmt_f(speedup, 2));
        }
        table.row(row);
    }
    table.print();
    println!();
    println!("paper shape: speedup increases monotonically with λ for every VGG (Fig. 17).");
    Ok(())
}
