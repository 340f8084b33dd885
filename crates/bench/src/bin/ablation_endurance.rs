//! Ablation — training lifetime under ReRAM cell endurance limits.
//!
//! The paper's weight cells are reprogrammed once per batch (Fig. 14b).
//! Depending on device endurance (10⁶ storage-class … 10¹² optimistic),
//! continuous training wears the weight arrays out in minutes or decades —
//! the adoption question the paper leaves open, made quantitative here from
//! the reproduction's own update-rate model.

use pipelayer::config::PipeLayerConfig;
use pipelayer::endurance::{training_lifetime, EnduranceModel};
use pipelayer::mapping::MappedNetwork;
use pipelayer_bench::{fmt_f, fmt_si, Table};
use pipelayer_nn::zoo;

fn human_time(seconds: f64) -> String {
    if seconds < 60.0 {
        format!("{seconds:.1} s")
    } else if seconds < 3_600.0 {
        format!("{:.1} min", seconds / 60.0)
    } else if seconds < 86_400.0 {
        format!("{:.1} h", seconds / 3_600.0)
    } else if seconds < 86_400.0 * 365.25 {
        format!("{:.1} days", seconds / 86_400.0)
    } else {
        format!("{:.1} years", seconds / (86_400.0 * 365.25))
    }
}

#[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let models = [
        ("1e6 (storage-class)", EnduranceModel::storage_class()),
        ("1e9 (research-grade)", EnduranceModel::research_grade()),
        ("1e12 (optimistic)", EnduranceModel::optimistic()),
    ];
    let mut table = Table::new(
        "Ablation: continuous-training lifetime of the weight cells",
        &["network", "updates/s", "@1e6", "@1e9", "@1e12"],
    );
    for spec in [
        zoo::spec_mnist_a(),
        zoo::spec_mnist_0(),
        zoo::alexnet(),
        zoo::vgg(zoo::VggVariant::D),
    ] {
        let net = MappedNetwork::try_from_spec(&spec, PipeLayerConfig::default())?;
        let lifetimes: Vec<_> = models
            .iter()
            .map(|(_, m)| training_lifetime(&net, m))
            .collect();
        let mut row = vec![spec.name.clone(), fmt_f(lifetimes[0].updates_per_second, 1)];
        row.extend(lifetimes.iter().map(|l| human_time(l.seconds.0)));
        table.row(row);
    }
    table.print();

    println!();
    println!(
        "weight cells per update (AlexNet): {} — every batch reprograms every weight",
        fmt_si(zoo::alexnet().weight_count() as f64)
    );
    println!();
    println!("takeaway: storage-class endurance rules out in-ReRAM training for the");
    println!("fast MNIST pipelines (cells die in minutes); research-grade (1e9) cells");
    println!("sustain years of the slower ImageNet-scale training — the device");
    println!("requirement the paper's training support implicitly assumes.");
    Ok(())
}
