//! Ablation — *training* at limited weight resolution (quantization-aware).
//!
//! PipeLayer trains with its weights living in ReRAM: every update is a
//! read-modify-write on the 16-bit grid that the four 4-bit segment groups
//! realise (Fig. 14b). This ablation trains with the weights pinned to an
//! N-bit grid throughout: 16-bit matches float (validating the default
//! design point), while low-resolution grids swallow the averaged SGD steps
//! and training stalls — the failure that resolution compensation exists to
//! prevent.
//!
//! Run with `--release`; `--quick` shrinks the budget.

use pipelayer_bench::{fmt_f, Table};
use pipelayer_nn::data::SyntheticMnist;
use pipelayer_nn::trainer::{TrainConfig, Trainer};
use pipelayer_nn::zoo;
use pipelayer_quant::{train_at_resolution, Quantizer};

const BITS: [u8; 6] = [16, 8, 6, 4, 3, 2];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n_train, n_test, epochs) = if quick { (400, 150, 3) } else { (1500, 400, 5) };
    let data = SyntheticMnist::generate(n_train, n_test, 2718);
    let cfg = TrainConfig {
        epochs,
        batch_size: 32,
        lr: 0.1,
        threads: 0,
    };

    let mut headers = vec!["network".to_string(), "float".to_string()];
    headers.extend(BITS.iter().map(|b| format!("{b}-bit")));
    let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Ablation: final test accuracy when TRAINING at N-bit weights",
        &hrefs,
    );

    for (name, build) in [
        ("M-1", zoo::m1 as fn(u64) -> pipelayer_nn::Network),
        ("M-3", zoo::m3 as fn(u64) -> pipelayer_nn::Network),
    ] {
        let mut float_net = build(2718);
        let float_report = Trainer::new(cfg).fit(&mut float_net, &data);
        let mut row = vec![
            name.to_string(),
            fmt_f(float_report.final_test_accuracy as f64, 3),
        ];
        for &bits in &BITS {
            let mut net = build(2718);
            let report = train_at_resolution(&mut net, &data, &cfg, Quantizer::try_new(bits)?);
            row.push(fmt_f(report.final_test_accuracy as f64, 3));
        }
        table.row(row);
    }
    table.print();
    println!();
    println!("shape: 16-bit training is float-equivalent (the paper's default);");
    println!("accuracy collapses once the grid step exceeds the averaged SGD update.");
    Ok(())
}
