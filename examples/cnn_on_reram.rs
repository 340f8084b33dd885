//! Train a small *convolutional* network entirely on the modelled ReRAM
//! crossbars: the conv layer runs as the Fig. 4 window loop against arrays
//! holding the kernel matrix, the error backward convolution runs against
//! arrays programmed with the rot180-reordered kernels (Fig. 11), and
//! weight updates are in-array read-modify-writes (Fig. 14b). The network
//! is built from its spec by the same `ReramMlp` builder the perceptrons
//! use, so device models, fault tolerance and scrub attach the same way.
//!
//! ```sh
//! cargo run --release --example cnn_on_reram
//! ```

use pipelayer::functional::{downsample, ReramMlp};
use pipelayer_nn::data::SyntheticMnist;
use pipelayer_nn::{LayerSpec, NetSpec};
use pipelayer_reram::ReramParams;
use pipelayer_tensor::Tensor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = SyntheticMnist::generate(200, 80, 777);
    let ds = |v: &[Tensor]| -> Vec<Tensor> { v.iter().map(|t| downsample(t, 4)).collect() };
    let train = ds(&data.train.images);
    let test = ds(&data.test.images);

    // A miniature M-C: conv3x4 -> fc10 over the 7x7 downsampled task.
    let spec = NetSpec::new(
        "mini-MC",
        (1, 7, 7),
        vec![
            LayerSpec::Conv {
                k: 3,
                c_out: 4,
                stride: 1,
                pad: 0,
            },
            LayerSpec::Fc { n_out: 10 },
        ],
    );
    let params = ReramParams::default();
    let mut cnn = ReramMlp::from_spec(&spec, &params, 99)?.build();

    println!(
        "training {} on ReRAM crossbars (every MVM spike-simulated)...",
        spec.name
    );
    let before = cnn.accuracy(&test, &data.test.labels);
    for epoch in 1..=3 {
        let mut loss = 0.0;
        let mut batches = 0;
        for (imgs, labs) in train.chunks(10).zip(data.train.labels.chunks(10)) {
            loss += cnn.train_batch(imgs, labs, 0.2);
            batches += 1;
        }
        println!("  epoch {epoch}: mean loss {:.4}", loss / batches as f32);
    }
    let after = cnn.accuracy(&test, &data.test.labels);
    println!(
        "test accuracy: {:.1}% -> {:.1}%",
        before * 100.0,
        after * 100.0
    );
    println!(
        "array activity: {} read spikes, {} programming pulses",
        cnn.read_spikes(),
        cnn.write_spikes()
    );
    assert!(after > before, "training should improve accuracy");
    Ok(())
}
