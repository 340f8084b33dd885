//! Figure 6 — the pipelined training schedule: which unit processes which
//! image at every logical cycle, for the paper's running example (a 3-layer
//! network), traced by the cycle-accurate simulator.
//!
//! Legend: `A<l>[i]` = forward layer `l` on image `i`; `ErrL[i]` = output
//! error; `B<m>[i]` = backward stage `m` (computes `∂W_m` and, for `m > 1`,
//! `δ_{m-1}`); `Upd[k]` = weight update closing batch `k`.

use pipelayer::pipeline::PipelineSim;
use std::num::NonZeroUsize;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (l, b) = (3usize, 8usize);
    let sim = PipelineSim::new(NonZeroUsize::try_from(l)?, NonZeroUsize::try_from(b)?);
    let out = sim.simulate_training(NonZeroUsize::try_from(2)?, 40);

    println!("== Figure 6: pipelined training schedule (L = {l}, B = {b}, 2 batches) ==");
    for row in &out.trace {
        println!("{row}");
    }
    println!();
    println!(
        "total cycles: {} (formula (N/B)(2L+B+1) = {})",
        out.cycles,
        2 * (2 * l + b + 1)
    );
    println!("dependency violations: {}", out.dependency_violations());
    println!(
        "peak concurrent stages: {} (full pipeline = 2L+1 = {})",
        out.peak_parallel_stages,
        2 * l + 1
    );
    println!(
        "buffers needing duplication (same-cycle read+write): {:?}",
        out.same_cycle_buffers()
    );
    Ok(())
}
