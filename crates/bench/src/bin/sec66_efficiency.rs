//! Section 6.6 — computational efficiency (GOPS/s/mm²) and power efficiency
//! (GOPS/s/W) of PipeLayer against DaDianNao and ISAAC, plus the total
//! accelerator area.

use pipelayer::area::{training_area, AreaModel};
use pipelayer::config::PipeLayerConfig;
use pipelayer::mapping::MappedNetwork;
use pipelayer::perf::PerfModel;
use pipelayer_baselines::dadiannao::{DADIANNAO, ISAAC, PIPELAYER_AREA_MM2, PIPELAYER_PUBLISHED};
use pipelayer_bench::{fmt_f, Table};
use pipelayer_nn::zoo;

#[expect(clippy::disallowed_macros, reason = "the bin checks Sec. 6.6's claims")]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper quotes efficiency for the (AlexNet) training deployment.
    let net = MappedNetwork::try_from_spec(&zoo::alexnet(), PipeLayerConfig::default())?;
    let perf = PerfModel::new(&net);
    let n = 6400;

    let est = perf.training(n, true);
    let gops = perf.training_gops(n);
    let area = training_area(&net, &AreaModel::default());
    let compute_eff = gops / area.mm2;
    let power_eff = gops / est.power_w();

    let mut table = Table::new(
        "Sec. 6.6: efficiency comparison (AlexNet training workload)",
        &["design", "GOPS/s/mm^2", "GOPS/s/W"],
    );
    table.row(vec![
        "DaDianNao (published)".into(),
        fmt_f(DADIANNAO.gops_per_mm2, 2),
        fmt_f(DADIANNAO.gops_per_w, 1),
    ]);
    table.row(vec![
        "ISAAC (published)".into(),
        fmt_f(ISAAC.gops_per_mm2, 2),
        fmt_f(ISAAC.gops_per_w, 1),
    ]);
    table.row(vec![
        PIPELAYER_PUBLISHED.name.into(),
        fmt_f(PIPELAYER_PUBLISHED.gops_per_mm2, 1),
        fmt_f(PIPELAYER_PUBLISHED.gops_per_w, 1),
    ]);
    table.row(vec![
        "PipeLayer (this reproduction)".into(),
        fmt_f(compute_eff, 1),
        fmt_f(power_eff, 1),
    ]);
    table.print();

    println!();
    println!(
        "area: {:.1} mm^2 ({} crossbars); paper: {PIPELAYER_AREA_MM2} mm^2",
        area.mm2, area.crossbars
    );
    println!(
        "sustained training throughput: {gops:.1} GOPS at {:.1} W",
        est.power_w()
    );
    println!();
    println!("paper shape: PipeLayer's computational efficiency beats both baselines");
    println!("(no ADCs, storage arrays double as compute arrays), while its power");
    println!("efficiency trails both (all data is written to ReRAM, not eDRAM).");

    // Verify the two ordering claims hold for the reproduction.
    assert!(
        compute_eff > ISAAC.gops_per_mm2,
        "computational efficiency should beat ISAAC: {compute_eff}"
    );
    assert!(
        power_eff < DADIANNAO.gops_per_w,
        "power efficiency should trail DaDianNao: {power_eff}"
    );
    println!();
    println!("ordering claims verified.");
    Ok(())
}
