//! Table 1 — the operation sequence a logical cycle must accommodate in
//! each of the four phase cases, with the modelled duration of every stage
//! for a concrete layer (AlexNet conv2 at default granularity).

use pipelayer::config::PipeLayerConfig;
use pipelayer::mapping::MappedNetwork;
use pipelayer::timing::TimingModel;
use pipelayer_bench::{fmt_f, Table};
use pipelayer_nn::zoo;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut table = Table::new(
        "Table 1: operations in a cycle (per phase case)",
        &["phase", "operation sequence"],
    );
    table.row(vec![
        "Forward".into(),
        "Memory read -> Spike -> Morphable A_l(d_{l-1}) -> Integrate&Fire -> Activation -> Memory write (d_l)".into(),
    ]);
    table.row(vec![
        "Backward (output)".into(),
        "Memory read (d_L, label) -> Activation (f' AND) -> Memory write (delta_L)".into(),
    ]);
    table.row(vec![
        "Backward (hidden)".into(),
        "Memory read (delta_l) -> Spike -> Morphable A_l2((W_l)*) & stored-d arrays (dW_l) -> I&F -> Activation -> Memory write (delta_{l-1}, dW buffers)".into(),
    ]);
    table.row(vec![
        "Update (batch end)".into(),
        "1/B-spike read of averaged dW -> read old weights -> subtract -> write new weights to morphable arrays".into(),
    ]);
    table.print();

    // Concrete durations for AlexNet at default granularity.
    let net = MappedNetwork::try_from_spec(&zoo::alexnet(), PipeLayerConfig::default())?;
    let t = TimingModel::new(&net);
    println!();
    println!("modelled phase durations, AlexNet, default G:");
    let mut detail = Table::new(
        "per-layer phase durations (us)",
        &["layer", "G", "fwd reads", "forward", "backward"],
    );
    for l in &net.layers {
        detail.row(vec![
            l.resolved.name.clone(),
            l.g.to_string(),
            l.reads_forward.to_string(),
            fmt_f(t.forward_phase_ns(l).0 / 1e3, 2),
            fmt_f(t.backward_phase_ns(l).0 / 1e3, 2),
        ]);
    }
    detail.print();
    println!();
    println!(
        "cycle time = max phase: testing {:.2} us, training {:.2} us, update cycle {:.2} us",
        t.cycle_testing_ns().0 / 1e3,
        t.cycle_training_ns().0 / 1e3,
        t.update_cycle_ns().0 / 1e3
    );
    Ok(())
}
