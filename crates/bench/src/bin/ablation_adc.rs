//! Ablation — the DAC/ADC-elimination claim (Sec. 1, Sec. 4.2).
//!
//! Compares three peripheral schemes on the same crossbar workload:
//! PipeLayer's weighted spikes + integrate-and-fire, ISAAC's spikes + ADC,
//! and a PRIME-style voltage-level (DAC) input with ADC read-out. The spike
//! scheme needs more input slots (the paper's acknowledged drawback), but
//! removes the converter energy — and the inter-layer pipeline hides the
//! extra slots.

use pipelayer::analysis::Analysis;
use pipelayer_baselines::peripherals::{PeripheralModel, PeripheralScheme};
use pipelayer_bench::{fmt_f, fmt_si, Table};
use pipelayer_nn::zoo;
use std::num::NonZeroUsize;

const SCHEMES: [PeripheralScheme; 3] = [
    PeripheralScheme::SpikeIntegrateFire,
    PeripheralScheme::SpikeAdc,
    PeripheralScheme::DacAdc,
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m = PeripheralModel::default();

    // Per-phase view: one 128x128 array, 16-bit inputs.
    let mut table = Table::new(
        "Ablation: one 128x128 read phase at 16-bit input resolution",
        &["scheme", "input slots", "latency (ns)", "energy (pJ)"],
    );
    for scheme in SCHEMES {
        let c = m.phase_cost(scheme, 128, 128, 16);
        table.row(vec![
            scheme.name().to_string(),
            c.input_slots.to_string(),
            fmt_f(c.latency_ns.0, 1),
            fmt_f(c.energy_pj.0, 1),
        ]);
    }
    table.print();

    // Network view: peripheral energy of one forward pass.
    println!();
    let mut net_table = Table::new(
        "Peripheral energy per forward pass (pJ)",
        &["network", "spike+I&F", "spike+ADC", "DAC+ADC"],
    );
    for spec in [
        zoo::spec_mnist_0(),
        zoo::alexnet(),
        zoo::vgg(zoo::VggVariant::D),
    ] {
        let row: Vec<String> = SCHEMES
            .iter()
            .map(|&s| fmt_si(m.network_forward_energy_pj(&spec, s, 128, 16).to_joules().0 * 1e12))
            .collect();
        net_table.row(vec![
            spec.name.clone(),
            row[0].clone(),
            row[1].clone(),
            row[2].clone(),
        ]);
    }
    net_table.print();

    // The pipeline's role: extra slots are throughput-neutral once the
    // pipeline is full — latency per image is one cycle regardless.
    println!();
    let a = Analysis::new(NonZeroUsize::try_from(8)?, NonZeroUsize::try_from(64)?);
    println!(
        "pipeline absorption: with the inter-layer pipeline, {} images retire in {} cycles",
        6400,
        a.testing_cycles_pipelined(6400)
    );
    println!("— one result per logical cycle, independent of the 16 input slots inside the cycle.");
    println!();
    println!("shape: spikes cost 16 slots instead of 6 (voltage levels), but remove the");
    println!("ADC term that dominates read-out energy — the Sec. 4.2 design argument.");
    Ok(())
}
