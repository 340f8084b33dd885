//! Quickstart: configure PipeLayer for a network, inspect the mapping, and
//! get end-to-end training/testing estimates.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pipelayer::Accelerator;
use pipelayer_nn::zoo;
use std::num::NonZeroUsize;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a network from the paper's evaluation zoo.
    let spec = zoo::alexnet();
    println!(
        "network: {} ({} weighted layers, {:.1}M weights)",
        spec.name,
        spec.weighted_layers(),
        spec.weight_count() as f64 / 1e6
    );

    // 2. Configure the accelerator (Sec. 5.2's Topology_set/Pipeline_set):
    //    batch size 64, default (Table 5 style) granularity, pipelined.
    let accel = Accelerator::builder(spec)
        .batch_size(NonZeroUsize::try_from(64)?)
        .build()?;

    // 3. Inspect the mapping: arrays, granularity, per-layer reads.
    println!("\nmapping (kernel matrices onto 128x128 crossbars):");
    for layer in &accel.mapped().layers {
        println!(
            "  {:>12}: matrix {}x{}, {} tiles, G={}, {} reads/cycle",
            layer.resolved.name,
            layer.resolved.matrix_rows,
            layer.resolved.matrix_cols,
            layer.tiles,
            layer.g,
            layer.reads_forward
        );
    }
    println!(
        "crossbars: {} forward / {} total (training); area {:.1} mm^2",
        accel.mapped().forward_crossbars(),
        accel.mapped().total_crossbars_training(),
        accel.training_area_mm2()
    );

    // 4. Estimate a training epoch and an inference sweep.
    let train = accel.estimate_training(6400);
    let test = accel.estimate_testing(6400);
    println!(
        "\ntraining 6400 images: {} cycles of {:.2} us -> {:.1} ms, {:.2} J, {:.0} img/s",
        train.cycles,
        train.cycle_ns.0 / 1e3,
        train.time_s.0 * 1e3,
        train.energy_j.0,
        train.throughput()
    );
    println!(
        "testing  6400 images: {} cycles of {:.2} us -> {:.1} ms, {:.2} J, {:.0} img/s",
        test.cycles,
        test.cycle_ns.0 / 1e3,
        test.time_s.0 * 1e3,
        test.energy_j.0,
        test.throughput()
    );
    Ok(())
}
