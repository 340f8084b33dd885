//! Figure 13 — trade-off between ReRAM cell resolution and application
//! accuracy for the five resolution-study networks (M-1, M-2, M-3
//! perceptrons; M-C, C-4 convolutional).
//!
//! Each network is trained in float on the synthetic MNIST task, then its
//! weights are quantized to 8..1 bits and the test accuracy re-measured,
//! normalised to the float baseline (the paper's y-axis). Expected shape:
//! the perceptrons stay near 1.0 down to ~4 bits; the convolutional
//! networks — C-4 most of all — collapse at low resolution.
//!
//! Run with `--release`; training five networks takes a couple of minutes
//! in debug mode. Pass `--quick` for a reduced dataset/epoch budget.

use pipelayer_bench::{fmt_f, Table};
use pipelayer_nn::data::SyntheticMnist;
use pipelayer_nn::trainer::{TrainConfig, Trainer};
use pipelayer_nn::zoo;
use pipelayer_nn::Network;
use pipelayer_quant::{resolution_sweep, Quantizer};

const BITS: [u8; 7] = [8, 7, 6, 5, 4, 3, 2];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n_train, n_test, epochs) = if quick { (600, 200, 3) } else { (2000, 500, 6) };
    let data = SyntheticMnist::generate(n_train, n_test, 1213);
    let quantizers = BITS
        .iter()
        .map(|&b| Quantizer::try_new(b))
        .collect::<Result<Vec<_>, _>>()?;

    type NetBuilder = Box<dyn Fn(u64) -> Network>;
    let nets: Vec<(&str, NetBuilder)> = vec![
        ("M-1", Box::new(zoo::m1)),
        ("M-2", Box::new(zoo::m2)),
        ("M-3", Box::new(zoo::m3)),
        ("M-C", Box::new(zoo::mc)),
        ("C-4", Box::new(zoo::c4)),
    ];

    let mut headers = vec!["network".to_string(), "float acc".to_string()];
    headers.extend(BITS.iter().map(|b| format!("{b}-bit")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Figure 13: normalized accuracy vs weight resolution",
        &header_refs,
    );

    for (name, build) in nets {
        let mut net = build(1213);
        let report = Trainer::new(TrainConfig {
            epochs,
            batch_size: 32,
            lr: if name.starts_with('M') { 0.1 } else { 0.05 },
            threads: 0,
        })
        .fit(&mut net, &data);
        eprintln!(
            "trained {name}: train acc {:.3}, test acc {:.3}",
            report.final_train_accuracy, report.final_test_accuracy
        );

        let points = resolution_sweep(&mut net, &data.test, &quantizers);
        let mut row = vec![name.to_string(), fmt_f(points[0].accuracy as f64, 3)];
        row.extend(points[1..].iter().map(|p| fmt_f(p.normalized as f64, 3)));
        table.row(row);
    }
    table.print();
    println!();
    println!("paper shape: perceptrons ~flat to 4-bit; M-C/C-4 drop sharply below ~4-bit (C-4 to ~0.2 at 4-bit in the paper).");
    Ok(())
}
