//! Figure 18 — accelerator area (mm², log scale in the paper) as a function
//! of the parallelism-granularity scale λ for the five VGG networks.

use pipelayer::Accelerator;
use pipelayer_bench::{fmt_f, Table};
use pipelayer_nn::zoo::{vgg, VggVariant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
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
        "Figure 18: training-configuration area (mm^2) vs granularity",
        &headers,
    );

    for variant in VggVariant::ALL {
        let spec = vgg(variant);
        let mut row = vec![spec.name.clone()];
        for &(_, lambda) in &lambdas {
            let mut b = Accelerator::builder(spec.clone());
            b = match lambda {
                Some(l) => b.lambda(l),
                None => b.lambda(1e12),
            };
            row.push(fmt_f(b.build()?.training_area_mm2(), 1));
        }
        table.row(row);
    }
    table.print();
    println!();
    println!("paper shape: area grows monotonically with λ, spanning roughly two orders of magnitude (Fig. 18's log axis).");
    Ok(())
}
