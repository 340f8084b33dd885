//! Pins the synthetic data every functional pin is trained and evaluated
//! on: a change to `Tensor::from_fn`, the sampler or the pooling that moves
//! one pixel bit shows here first, before it surfaces as a moved accuracy
//! or round digest downstream.

use pipelayer::functional::downsample;
use pipelayer_nn::data::{Dataset, SyntheticMnist};

/// FNV-1a (64-bit) over the little-endian bytes of each value.
fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in values.into_iter().flat_map(u64::to_le_bytes) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every pixel's bit pattern, then every label, of both splits.
fn digest(splits: [&Dataset; 2]) -> u64 {
    let pixels = splits
        .into_iter()
        .flat_map(|d| &d.images)
        .flat_map(|img| img.as_slice().iter().map(|v| u64::from(v.to_bits())));
    let labels = splits
        .into_iter()
        .flat_map(|d| &d.labels)
        .map(|&l| l as u64);
    fnv1a(pixels.chain(labels))
}

fn downsampled(d: &Dataset, factor: usize) -> Dataset {
    Dataset {
        images: d.images.iter().map(|img| downsample(img, factor)).collect(),
        labels: d.labels.clone(),
    }
}

#[test]
fn synthetic_mnist_is_pinned() {
    let data = SyntheticMnist::generate(300, 300, 1);
    assert_eq!(data.train.images[0].dims(), [1, 28, 28]);
    let got = digest([&data.train, &data.test]);
    assert_eq!(got, PINNED_MNIST, "28x28 set moved: {got:#018x}");
    let (train, test) = (downsampled(&data.train, 4), downsampled(&data.test, 4));
    assert_eq!(train.images[0].dims(), [1, 7, 7]);
    let got = digest([&train, &test]);
    assert_eq!(got, PINNED_MNIST_7X7, "7x7 set moved: {got:#018x}");
}

const PINNED_MNIST: u64 = 0xa592_7fc0_5efe_dd28;
const PINNED_MNIST_7X7: u64 = 0x86bb_42d6_9aa2_3b80;
