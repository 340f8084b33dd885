//! Ablation — batch-size sensitivity of the training pipeline.
//!
//! The pipelined batch costs `2L + B + 1` cycles (Fig. 7b), so throughput
//! efficiency is `B/(2L+B+1)`: small batches pay the fill repeatedly, large
//! batches amortise it. This sweep quantifies the effect for a shallow and
//! a deep network and contrasts it with an ISAAC-style deep pipeline whose
//! drain cost scales with its (much larger) stage count.

use pipelayer::analysis::Analysis;
use pipelayer::Accelerator;
use pipelayer_baselines::IsaacModel;
use pipelayer_bench::{fmt_f, Table};
use pipelayer_nn::zoo;
use std::num::NonZeroUsize;

const BATCHES: [usize; 6] = [8, 16, 32, 64, 128, 256];

#[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let isaac = IsaacModel::default();
    for spec in [zoo::spec_mnist_0(), zoo::vgg(zoo::VggVariant::E)] {
        let l = spec.weighted_layers();
        let mut table = Table::new(
            format!("Batch sensitivity: {} (L = {l})", spec.name),
            &[
                "B",
                "cycles/batch",
                "pipeline util (%)",
                "img/s",
                "J/img",
                "ISAAC util (%)",
            ],
        );
        for &b in &BATCHES {
            let n = (4 * b) as u64;
            let accel = Accelerator::builder(spec.clone())
                .batch_size(NonZeroUsize::try_from(b)?)
                .build()?;
            let est = accel.estimate_training(n);
            let a = Analysis::new(NonZeroUsize::try_from(l)?, NonZeroUsize::try_from(b)?);
            let util = 100.0 * b as f64 / a.training_cycles_pipelined(b as u64) as f64;
            let isaac_util = 100.0 * (1.0 - isaac.training_drain_fraction(&spec, b));
            table.row(vec![
                b.to_string(),
                a.training_cycles_pipelined(b as u64).to_string(),
                fmt_f(util, 1),
                fmt_f(est.throughput(), 0),
                fmt_f(est.energy_j.0 / n as f64, 4),
                fmt_f(isaac_util, 1),
            ]);
        }
        table.print();
        println!();
    }
    println!("shape: PipeLayer's utilisation climbs quickly (fill is only 2L+1 cycles)");
    println!("while the deep pipeline needs very large batches to amortise its drain —");
    println!("the paper's core argument for layer-granular training pipelining.");
    Ok(())
}
