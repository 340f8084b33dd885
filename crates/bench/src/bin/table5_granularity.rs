//! Table 5 — default parallelism-granularity configuration of every
//! convolution layer in the five VGG networks.
//!
//! The published table's digits are OCR-damaged in the available text, so
//! these are the *reconstructed* defaults from the balanced, area-budgeted
//! search described in `pipelayer::granularity` (DESIGN.md §8).

use pipelayer::config::PipeLayerConfig;
use pipelayer::granularity::default_granularity;
use pipelayer::mapping::MappedNetwork;
use pipelayer_bench::Table;
use pipelayer_nn::zoo::{vgg, VggVariant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Collect conv-layer G per network; pad to the longest (VGG-E, 16).
    let mut columns: Vec<(String, Vec<usize>)> = Vec::new();
    for variant in VggVariant::ALL {
        let spec = vgg(variant);
        let layers = spec.resolve();
        let g = default_granularity(&layers);
        let conv_g: Vec<usize> = layers
            .iter()
            .zip(&g)
            .filter(|(l, _)| l.is_conv)
            .map(|(_, &g)| g)
            .collect();
        columns.push((spec.name.clone(), conv_g));
    }
    let max_convs = columns.iter().map(|(_, c)| c.len()).max().unwrap_or(0);

    let mut headers = vec!["layer".to_string()];
    headers.extend(columns.iter().map(|(n, _)| n.clone()));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Table 5: default parallelism granularity G per VGG conv layer (reconstructed)",
        &header_refs,
    );
    for i in 0..max_convs {
        let mut row = vec![format!("conv{}", i + 1)];
        for (_, g) in &columns {
            row.push(g.get(i).map_or("-".to_string(), |v| v.to_string()));
        }
        table.row(row);
    }
    table.print();

    println!();
    for variant in VggVariant::ALL {
        let spec = vgg(variant);
        let m = MappedNetwork::try_from_spec(&spec, PipeLayerConfig::default())?;
        let reads = m.layers.iter().map(|l| l.reads_forward).max().unwrap_or(0);
        println!(
            "{}: balanced to <= {} sequential reads per cycle, {} forward crossbars",
            spec.name,
            reads,
            m.forward_crossbars()
        );
    }
    Ok(())
}
