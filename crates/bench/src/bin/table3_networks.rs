//! Table 3 — hyper-parameters of the four self-built MNIST networks
//! (reconstructed instantiation; the published cells are OCR-damaged, see
//! the `pipelayer-nn` zoo documentation), plus derived geometry.

use pipelayer_bench::{fmt_si, Table};
use pipelayer_nn::spec::ResolvedLayer;
use pipelayer_nn::zoo;

#[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
fn main() {
    let mut table = Table::new(
        "Table 3: MNIST network hyper-parameters",
        &[
            "network",
            "hyper parameters",
            "weighted layers",
            "weights",
            "fwd ops/image",
        ],
    );
    let describe = |spec: &pipelayer_nn::NetSpec| -> String {
        let mut parts: Vec<String> = vec![format!(
            "{}x{}x{}",
            spec.input.0, spec.input.1, spec.input.2
        )];
        for layer in &spec.layers {
            parts.push(match layer {
                pipelayer_nn::LayerSpec::Conv { k, c_out, .. } => format!("conv{k}x{c_out}"),
                pipelayer_nn::LayerSpec::Pool { k, .. } => format!("pool{k}"),
                pipelayer_nn::LayerSpec::Fc { n_out } => n_out.to_string(),
            });
        }
        parts.join("-")
    };
    for spec in zoo::mnist_net_specs() {
        table.row(vec![
            spec.name.clone(),
            describe(&spec),
            spec.weighted_layers().to_string(),
            fmt_si(spec.weight_count() as f64),
            fmt_si(
                spec.resolve()
                    .iter()
                    .map(ResolvedLayer::ops_forward)
                    .sum::<u64>() as f64,
            ),
        ]);
    }
    table.print();

    println!();
    let mut fig13 = Table::new(
        "Fig. 13 study networks",
        &["network", "hyper parameters", "weights"],
    );
    for spec in [
        zoo::spec_m1(),
        zoo::spec_m2(),
        zoo::spec_m3(),
        zoo::spec_mc(),
        zoo::spec_c4(),
    ] {
        fig13.row(vec![
            spec.name.clone(),
            describe(&spec),
            fmt_si(spec.weight_count() as f64),
        ]);
    }
    fig13.print();
}
