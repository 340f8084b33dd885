//! Shared infrastructure for the figure/table binaries.
//!
//! Each binary under `src/bin/` regenerates one artifact of the paper's
//! evaluation section (see DESIGN.md §4 for the index); this library holds
//! the common pieces: an aligned-column table printer, geometric means,
//! the standard workload sizes, and the paper-reported reference values
//! that EXPERIMENTS.md compares against.

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::disallowed_macros,
        clippy::cast_possible_truncation,
        clippy::cast_precision_loss,
        clippy::float_cmp,
        reason = "the library gate exempts test code: a failed assertion is how a test fails"
    )
)]

pub mod paper;
pub mod report;
pub mod workloads;

pub use report::{fmt_f, fmt_si, geomean, json_num, quartiles, Table};

use pipelayer::functional::ReramMlp;
use pipelayer_nn::Network;
use pipelayer_tensor::Tensor;

/// Bit patterns of every weight and bias of `net`, layer by layer: what
/// the bitwise determinism gates compare.
pub fn weight_bits(net: &mut Network) -> Vec<u32> {
    let mut bits = Vec::new();
    for layer in net.layers_mut() {
        if let Some(p) = layer.params_mut() {
            bits.extend(p.weight.as_slice().iter().map(|v| v.to_bits()));
            bits.extend(p.bias.as_slice().iter().map(|v| v.to_bits()));
        }
    }
    bits
}

/// Trains `mlp` for `epochs` in-order passes over `images`/`labels` in
/// mini-batches of 10 at learning rate `lr`.
pub fn train_epochs(
    mlp: &mut ReramMlp,
    images: &[Tensor],
    labels: &[usize],
    epochs: usize,
    lr: f32,
) {
    for _ in 0..epochs {
        for (imgs, labs) in images.chunks(10).zip(labels.chunks(10)) {
            mlp.train_batch(imgs, labs, lr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }
}
