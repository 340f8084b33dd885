//! Pins the float trainer's bits: serial and data-parallel training agree
//! bit for bit at every thread count, and the C-4 weights after three
//! batches match a recorded digest. A kernel change that moves one rounding
//! anywhere in the conv forward pass, either backward pass, pooling or the
//! update shows up here as a digest mismatch.

#![expect(
    clippy::disallowed_macros,
    reason = "the library gate exempts test code: a failed assertion is how a test fails"
)]

use pipelayer_nn::data::SyntheticMnist;
use pipelayer_nn::{zoo, Network};

const LR: f32 = 0.1;
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// FNV-1a (64-bit) over the little-endian bytes of each value's bit pattern.
fn fnv1a(bits: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bits.into_iter().flat_map(u32::to_le_bytes) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn weight_bits(net: &mut Network) -> Vec<u32> {
    let mut bits = Vec::new();
    for layer in net.layers_mut() {
        if let Some(p) = layer.params_mut() {
            bits.extend(p.weight.as_slice().iter().map(|v| v.to_bits()));
            bits.extend(p.bias.as_slice().iter().map(|v| v.to_bits()));
        }
    }
    bits
}

/// Trains `net` over `data` in `batch`-sized steps, serially (`None`) or on
/// `Some(threads)` workers, and returns the per-batch loss bits and the
/// final weight bits.
fn train(
    mut net: Network,
    data: &SyntheticMnist,
    batch: usize,
    threads: Option<usize>,
) -> (Vec<u32>, Vec<u32>) {
    let losses = data
        .train
        .images
        .chunks(batch)
        .zip(data.train.labels.chunks(batch))
        .map(|(imgs, labs)| match threads {
            None => net.train_batch(imgs, labs, LR),
            Some(t) => net.train_batch_parallel(imgs, labs, LR, t),
        })
        .map(f32::to_bits)
        .collect();
    (losses, weight_bits(&mut net))
}

/// Asserts that every thread count reproduces the serial run bit for bit
/// and returns the serial run.
fn serial_equals_parallel(
    make: fn(u64) -> Network,
    data: &SyntheticMnist,
    batch: usize,
) -> (Vec<u32>, Vec<u32>) {
    let serial = train(make(5), data, batch, None);
    for threads in THREADS {
        let par = train(make(5), data, batch, Some(threads));
        assert_eq!(par.0, serial.0, "{threads}-thread loss curve diverged");
        assert_eq!(par.1, serial.1, "{threads}-thread weights diverged");
    }
    serial
}

#[test]
fn mnist_a_loss_curves_are_bitwise_identical_across_threads() {
    let data = SyntheticMnist::generate(64, 1, 7);
    let (losses, _) = serial_equals_parallel(zoo::mnist_a, &data, 16);
    assert_eq!(losses.len(), 4);
    assert!(losses.iter().all(|&l| f32::from_bits(l).is_finite()));
}

#[test]
fn c4_training_is_bitwise_pinned_and_thread_independent() {
    let data = SyntheticMnist::generate(24, 1, 3);
    let (losses, weights) = serial_equals_parallel(zoo::c4, &data, 8);
    assert!(losses.iter().all(|&l| f32::from_bits(l).is_finite()));
    let digest = fnv1a(weights);
    assert_eq!(
        digest, PINNED_C4_WEIGHTS,
        "C-4 weights after 3 batches changed: {digest:#018x}"
    );
}

/// Recorded with the im2col + GEMM convolution kernels, before the
/// implicit-GEMM kernels replaced them.
const PINNED_C4_WEIGHTS: u64 = 0xedb1_561a_4d77_2015;
