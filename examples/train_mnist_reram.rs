//! Train a multilayer perceptron *on the modelled ReRAM crossbars*: every
//! matrix–vector product — forward and backward — runs through spike-coded
//! 4-bit arrays with resolution compensation, and every weight update is an
//! in-array read-modify-write (Fig. 14b).
//!
//! The host flow mirrors the paper's API (Sec. 5.2): `Copy_to_PL` →
//! `Weight_load` → `Train` → `Test` → `Copy_to_CPU`.
//!
//! ```sh
//! cargo run --release --example train_mnist_reram
//! ```

use pipelayer::functional::downsample;
use pipelayer::Accelerator;
use pipelayer_nn::data::SyntheticMnist;
use pipelayer_nn::{LayerSpec, NetSpec};
use pipelayer_tensor::Tensor;
use std::num::NonZeroUsize;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The synthetic MNIST task, downsampled 28x28 -> 7x7 so the functional
    // (circuit-level) simulation stays snappy.
    let data = SyntheticMnist::generate(300, 100, 2024);
    let ds = |imgs: &[Tensor]| -> Vec<Tensor> { imgs.iter().map(|t| downsample(t, 4)).collect() };
    let train_images = ds(&data.train.images);
    let test_images = ds(&data.test.images);

    // An MLP topology in the spirit of Table 3's Mnist-A.
    let spec = NetSpec::new(
        "Mnist-A-7x7",
        (1, 7, 7),
        vec![LayerSpec::Fc { n_out: 24 }, LayerSpec::Fc { n_out: 10 }],
    );
    let mut accel = Accelerator::builder(spec)
        .batch_size(NonZeroUsize::try_from(10)?)
        .build()?;

    // Host API flow (Sec. 5.2).
    accel.copy_to_pl(train_images, data.train.labels.clone())?;
    accel.weight_load(7)?;

    println!("training on ReRAM crossbars (16-bit spikes, 4-bit cells)...");
    for epoch in 1..=4 {
        let loss = accel.train(1, 0.25)?;
        println!("  epoch {epoch}: mean batch loss {loss:.4}");
    }

    // Evaluate on the held-out split.
    accel.copy_to_pl(test_images, data.test.labels.clone())?;
    let predictions = accel.test()?;
    let labels = accel.copy_to_cpu();
    let correct = predictions
        .iter()
        .zip(&labels)
        .filter(|(p, l)| p == l)
        .count();
    println!(
        "\ntest accuracy through the analog datapath: {}/{} = {:.1}%",
        correct,
        labels.len(),
        100.0 * correct as f64 / labels.len() as f64
    );
    assert!(
        correct * 2 > labels.len(),
        "training on ReRAM should beat chance comfortably"
    );
    Ok(())
}
