//! Ablation — accuracy under ReRAM write variation and stuck-at faults.
//!
//! Sec. 5.1 justifies limited-precision cells by neural networks' "inherent
//! error tolerance"; this ablation quantifies that tolerance on the
//! resolution-study networks: programmed levels are perturbed by Gaussian
//! write noise (σ in conductance levels of the 4-bit cells) and by dead
//! cells, and test accuracy is re-measured.
//!
//! Run with `--release` (training included). `--quick` shrinks the budget.
//! `--noise` adds a second axis: the same networks re-evaluated under the
//! unified analog non-ideality model (lognormal spread + IR drop + read
//! noise, `NoiseModel::with_strength`), reported in the same
//! normalized-accuracy schema as the write-variation sweep.

use pipelayer::variation::corrupt_network;
use pipelayer::variation::{noise_sweep, variation_sweep};
use pipelayer_bench::{fmt_f, Table};
use pipelayer_nn::data::SyntheticMnist;
use pipelayer_nn::trainer::{TrainConfig, Trainer};
use pipelayer_nn::zoo;
use pipelayer_quant::{restore_params, snapshot_params};
use pipelayer_reram::{ReramParams, VariationModel};
use std::num::NonZeroUsize;

const SIGMAS: [f64; 5] = [0.0, 0.25, 0.5, 1.0, 2.0];
/// `--noise` axis: `NoiseModel::with_strength` sweep points.
const STRENGTHS: [f64; 5] = [0.0, 1.0, 2.0, 4.0, 6.0];
/// Device-draw seed of the `--noise` axis (one simulated chip).
const NOISE_SEED: u64 = 0xA11A;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trials = NonZeroUsize::try_from(3)?;
    let quick = std::env::args().any(|a| a == "--quick");
    let noise = std::env::args().any(|a| a == "--noise");
    let (n_train, n_test, epochs) = if quick { (400, 150, 3) } else { (1500, 400, 5) };
    let data = SyntheticMnist::generate(n_train, n_test, 3141);
    let params = ReramParams::default();

    let mut headers = vec!["network".to_string(), "float".to_string()];
    headers.extend(SIGMAS.iter().map(|s| format!("σ={s}")));
    let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Ablation: normalized accuracy vs write variation (4-bit cells, 16-bit words)",
        &hrefs,
    );

    let mut noise_headers = vec!["network".to_string(), "float".to_string()];
    noise_headers.extend(STRENGTHS.iter().map(|s| format!("s={s}")));
    let nrefs: Vec<&str> = noise_headers.iter().map(|s| s.as_str()).collect();
    let mut noise_table = Table::new(
        "Ablation: normalized accuracy vs analog non-ideality strength",
        &nrefs,
    );

    for (name, build) in [
        ("M-1", zoo::m1 as fn(u64) -> pipelayer_nn::Network),
        ("M-C", zoo::mc as fn(u64) -> pipelayer_nn::Network),
        ("C-4", zoo::c4 as fn(u64) -> pipelayer_nn::Network),
    ] {
        let mut net = build(3141);
        let report = Trainer::new(TrainConfig {
            epochs,
            batch_size: 32,
            lr: 0.08,
            threads: 0,
        })
        .fit(&mut net, &data);
        let points = variation_sweep(&mut net, &data.test, &SIGMAS, trials, &params);
        let mut row = vec![
            name.to_string(),
            fmt_f(report.final_test_accuracy as f64, 3),
        ];
        row.extend(points.iter().map(|p| fmt_f(p.normalized as f64, 3)));
        table.row(row);
        if noise {
            let pts = noise_sweep(
                &mut net, &data.test, &STRENGTHS, trials, &params, NOISE_SEED,
            );
            let mut row = vec![
                name.to_string(),
                fmt_f(report.final_test_accuracy as f64, 3),
            ];
            row.extend(pts.iter().map(|p| fmt_f(p.normalized as f64, 3)));
            noise_table.row(row);
        }
    }
    table.print();
    if noise {
        println!();
        noise_table.print();
    }

    // Stuck-at fault sweep on the MLP.
    println!();
    let mut net = zoo::m1(3141);
    Trainer::new(TrainConfig {
        epochs,
        batch_size: 32,
        lr: 0.08,
        threads: 0,
    })
    .fit(&mut net, &data);
    let base = net.accuracy(&data.test.images, &data.test.labels);
    let snapshot = snapshot_params(&mut net);
    let mut fault_table = Table::new(
        "Ablation: M-1 normalized accuracy vs dead-cell (stuck-at-0) fraction",
        &["fault rate", "normalized accuracy"],
    );
    for rate in [0.0f64, 0.01, 0.05, 0.1, 0.2, 0.4] {
        let model = VariationModel {
            write_sigma: 0.0,
            stuck_at_zero: rate,
            stuck_at_max: 0.0,
        };
        corrupt_network(&mut net, &model, &params, 999);
        let acc = net.accuracy(&data.test.images, &data.test.labels);
        restore_params(&mut net, &snapshot);
        fault_table.row(vec![format!("{rate}"), fmt_f((acc / base) as f64, 3)]);
    }
    fault_table.print();
    println!();
    println!("shape: graceful degradation up to ~σ=0.5 / a few % dead cells — the");
    println!("error-tolerance premise behind PipeLayer's 4-bit cell choice (Sec. 5.1).");
    Ok(())
}
