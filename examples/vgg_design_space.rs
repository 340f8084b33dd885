//! Design-space exploration: sweep the parallelism granularity λ for one
//! VGG network and print the speed/area trade-off curve (the combined
//! content of Figs. 17 and 18), then pick the knee.
//!
//! ```sh
//! cargo run --release --example vgg_design_space [A|B|C|D|E]
//! ```

use pipelayer::Accelerator;
use pipelayer_baselines::GpuModel;
use pipelayer_nn::zoo::{vgg, VggVariant};
use std::num::NonZeroUsize;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let variant = match std::env::args().nth(1).as_deref() {
        Some("A") | None => VggVariant::A,
        Some("B") => VggVariant::B,
        Some("C") => VggVariant::C,
        Some("D") => VggVariant::D,
        Some("E") => VggVariant::E,
        Some(other) => {
            eprintln!("unknown VGG variant `{other}`, expected A..E");
            std::process::exit(2);
        }
    };
    let spec = vgg(variant);
    let gpu_train = GpuModel::default().training(&spec, 640, 64).time_s;

    println!(
        "design space for {} (training, 640 images, B = 64):",
        spec.name
    );
    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>16}",
        "lambda", "speedup", "area mm^2", "crossbars", "speedup/area"
    );

    let mut best = (0.0f64, f64::NEG_INFINITY);
    for lambda in [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let accel = Accelerator::builder(spec.clone())
            .batch_size(NonZeroUsize::try_from(64)?)
            .lambda(lambda)
            .build()?;
        let speedup = gpu_train / accel.estimate_training(640).time_s;
        let area = accel.training_area_mm2();
        let merit = speedup / area;
        if merit > best.1 {
            best = (lambda, merit);
        }
        println!(
            "{lambda:>8} {speedup:>12.2} {area:>12.1} {:>14} {merit:>16.4}",
            accel.mapped().total_crossbars_training()
        );
    }
    println!(
        "\nknee of the curve (max speedup per mm^2): lambda = {} — the kind of balance Table 5's defaults encode.",
        best.0
    );
    Ok(())
}
