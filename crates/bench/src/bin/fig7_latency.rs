//! Figure 7 — per-batch latency of the PipeLayer architecture without and
//! with the inter-layer pipeline: `(2L+1)B + 1` vs `2L + B + 1` cycles.

use pipelayer::analysis::Analysis;
use pipelayer_bench::{fmt_f, Table};
use std::num::NonZeroUsize;

#[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut table = Table::new(
        "Figure 7: cycles per batch, non-pipelined vs pipelined",
        &[
            "L",
            "B",
            "(2L+1)B+1",
            "2L+B+1",
            "speedup",
            "limit (2L+1)B/(2L+B+1)",
        ],
    );
    for l in [3usize, 8, 11, 13, 16, 19] {
        for b in [16usize, 64, 256] {
            let a = Analysis::new(NonZeroUsize::try_from(l)?, NonZeroUsize::try_from(b)?);
            let np = a.training_cycles_nonpipelined(b as u64);
            let p = a.training_cycles_pipelined(b as u64);
            table.row(vec![
                l.to_string(),
                b.to_string(),
                np.to_string(),
                p.to_string(),
                fmt_f(np as f64 / p as f64, 2),
                fmt_f(a.training_pipeline_speedup_limit(), 2),
            ]);
        }
    }
    table.print();
    println!();
    println!("the pipelined batch costs fill (2L+1) + stream (B-1) + update (1) cycles (Fig. 7b);");
    println!(
        "for B >> L the pipeline approaches the ideal 2L+1 speedup over sequential execution."
    );
    Ok(())
}
