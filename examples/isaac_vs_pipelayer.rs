//! PipeLayer vs an ISAAC-style deep pipeline on *training* workloads —
//! the architectural argument of Sec. 3.2.2: a very deep intra-layer
//! pipeline amortises its fill only over long uninterrupted input runs,
//! and training truncates every run at the batch boundary.
//!
//! The two simulators model different abstraction levels (tile stages vs
//! whole-layer cycles), so the honest comparison is each design's *pipeline
//! utilization* — sustained training throughput relative to its own
//! steady-state inference throughput.
//!
//! ```sh
//! cargo run --release --example isaac_vs_pipelayer
//! ```

use pipelayer::analysis::Analysis;
use pipelayer_baselines::IsaacModel;
use pipelayer_nn::zoo::{vgg, VggVariant};
use std::num::NonZeroUsize;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = vgg(VggVariant::D);
    let isaac = IsaacModel::default();
    let l = spec.weighted_layers();
    let n = 6400u64;

    println!("workload: {} (L = {l}) | {n} training images", spec.name);
    println!();
    println!("pipeline utilization while training (sustained / steady-state inference rate):");
    println!(
        "{:>8} {:>22} {:>22} {:>24}",
        "batch", "ISAAC-style (%)", "PipeLayer (%)", "ISAAC drain share (%)"
    );
    for batch in [8usize, 16, 32, 64, 128, 256] {
        // ISAAC: per-image training cost vs 2 traversals at the initiation
        // interval (training doubles the per-image work).
        let ideal = (2.0 * n as f64 * isaac.initiation_interval_ns()).to_seconds();
        let actual = isaac.training_time_s(&spec, n, batch);
        let isaac_util = 100.0 * ideal / actual;

        // PipeLayer: B images retire per (2L+B+1)-cycle batch; inference
        // retires one per cycle.
        let a = Analysis::new(NonZeroUsize::try_from(l)?, NonZeroUsize::try_from(batch)?);
        let pl_util = 100.0 * batch as f64 / a.training_cycles_pipelined(batch as u64) as f64;

        let drain = 100.0 * isaac.training_drain_fraction(&spec, batch);
        println!("{batch:>8} {isaac_util:>22.1} {pl_util:>22.1} {drain:>24.1}");
    }

    println!();
    println!("shape (Sec. 3.2.2): the deep pipeline's fill/drain swallows most of each");
    println!(
        "small batch — at B = 64 it idles ~{:.0}% of the time — while PipeLayer's",
        100.0 * isaac.training_drain_fraction(&spec, 64)
    );
    println!("layer-granular pipeline keeps one image entering per cycle; its only");
    println!(
        "per-batch overhead is the fixed 2L+1 = {} cycle fill plus one update cycle.",
        2 * l + 1
    );
    Ok(())
}
