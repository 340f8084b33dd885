//! Whole-network weight quantization and the Fig. 13 resolution sweep.

use crate::fixed::Quantizer;
use pipelayer_nn::data::Dataset;
use pipelayer_nn::Network;
use pipelayer_tensor::Tensor;

/// Saved copies of every parameterised layer's `(weight, bias)`.
pub type ParamSnapshot = Vec<(Tensor, Tensor)>;

/// Copies all learnable parameters out of `net`.
pub fn snapshot_params(net: &mut Network) -> ParamSnapshot {
    net.layers_mut()
        .iter_mut()
        .filter_map(|l| l.params_mut())
        .map(|p| (p.weight.clone(), p.bias.clone()))
        .collect()
}

/// Restores parameters captured by [`snapshot_params`].
///
/// # Panics
///
/// Panics if the snapshot does not match the network's parameterised layers.
#[expect(clippy::disallowed_macros, reason = "caller bug: foreign snapshot")]
#[expect(clippy::expect_used, reason = "caller bug: foreign snapshot")]
pub fn restore_params(net: &mut Network, snapshot: &ParamSnapshot) {
    let mut it = snapshot.iter();
    for layer in net.layers_mut() {
        if let Some(p) = layer.params_mut() {
            let (w, b) = it.next().expect("snapshot shorter than network");
            assert_eq!(p.weight.dims(), w.dims(), "snapshot weight shape mismatch");
            *p.weight = w.clone();
            *p.bias = b.clone();
        }
    }
    assert!(it.next().is_none(), "snapshot longer than network");
}

/// Quantize–dequantizes every weight and bias tensor in place with `q`
/// (per-tensor symmetric scaling — each layer's arrays get their own
/// full-scale mapping, as in the paper's kernel-to-array mapping).
pub fn quantize_network_weights(net: &mut Network, q: Quantizer) {
    for layer in net.layers_mut() {
        if let Some(p) = layer.params_mut() {
            *p.weight = q.quantize_tensor(p.weight);
            *p.bias = q.quantize_tensor(p.bias);
        }
    }
}

/// Classification accuracy with a `q`-resolution *datapath*: the input
/// image and every layer's output are quantize–dequantized with `q` before
/// the next layer consumes them — modelling intermediate data (`d_l`)
/// stored in N-bit ReRAM cells, on top of whatever the weights already are.
/// Quantization errors compound per layer, which is why deep convolutional
/// networks (the paper's C-4) collapse at low resolution while shallow
/// perceptrons survive.
///
/// # Panics
///
/// Panics if `data` is empty.
#[expect(clippy::disallowed_macros, reason = "caller bug: empty eval set")]
#[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
pub fn accuracy_quantized_datapath(net: &Network, data: &Dataset, q: Quantizer) -> f32 {
    assert!(!data.is_empty(), "empty evaluation dataset");
    let mut correct = 0usize;
    for (img, &label) in data.images.iter().zip(&data.labels) {
        let mut x = q.quantize_tensor(img);
        for layer in net.layers() {
            x = q.quantize_tensor(&layer.infer(&x));
        }
        if x.argmax() == label {
            correct += 1;
        }
    }
    correct as f32 / data.len() as f32
}

/// Like [`quantize_network_weights`] but with an independent scale per
/// output channel (per-bitline referencing — see
/// [`Quantizer::quantize_tensor_per_channel`]). Biases stay per-tensor.
pub fn quantize_network_weights_per_channel(net: &mut Network, q: Quantizer) {
    for layer in net.layers_mut() {
        if let Some(p) = layer.params_mut() {
            *p.weight = if p.weight.shape().rank() >= 2 {
                q.quantize_tensor_per_channel(p.weight)
            } else {
                q.quantize_tensor(p.weight)
            };
            *p.bias = q.quantize_tensor(p.bias);
        }
    }
}

/// One point of the Fig. 13 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolutionPoint {
    /// Weight resolution; `None` is the float baseline.
    pub bits: Option<u8>,
    /// Absolute test accuracy at this resolution.
    pub accuracy: f32,
    /// Accuracy normalised to the float baseline (the paper's y-axis).
    pub normalized: f32,
}

/// Evaluates a *trained* network at float precision and with every
/// quantizer in `quantizers`, restoring the original weights afterwards.
/// Returns the float point first, then one point per quantizer.
///
/// At each width both the weights and the datapath (stored intermediate
/// data) run at that resolution — everything in PipeLayer lives in ReRAM
/// cells (see [`accuracy_quantized_datapath`]).
///
/// # Panics
///
/// Panics if `data` is empty.
#[expect(clippy::disallowed_macros, reason = "caller bug: empty eval set")]
pub fn resolution_sweep(
    net: &mut Network,
    data: &Dataset,
    quantizers: &[Quantizer],
) -> Vec<ResolutionPoint> {
    assert!(!data.is_empty(), "empty evaluation dataset");
    let snapshot = snapshot_params(net);
    let float_acc = net.accuracy(&data.images, &data.labels);
    let base = if float_acc > 0.0 { float_acc } else { 1.0 };

    let mut points = vec![ResolutionPoint {
        bits: None,
        accuracy: float_acc,
        normalized: 1.0,
    }];
    for &q in quantizers {
        quantize_network_weights(net, q);
        let acc = accuracy_quantized_datapath(net, data, q);
        points.push(ResolutionPoint {
            bits: Some(q.bits()),
            accuracy: acc,
            normalized: acc / base,
        });
        restore_params(net, &snapshot);
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipelayer_nn::data::SyntheticMnist;
    use pipelayer_nn::trainer::{TrainConfig, Trainer};
    use pipelayer_nn::zoo;

    fn q(bits: u8) -> Quantizer {
        Quantizer::try_new(bits).unwrap()
    }

    fn trained_mlp() -> (Network, SyntheticMnist) {
        let data = SyntheticMnist::generate(300, 100, 31);
        let mut net = zoo::m1(31);
        Trainer::new(TrainConfig {
            epochs: 3,
            batch_size: 16,
            lr: 0.1,
            threads: 1,
        })
        .fit(&mut net, &data);
        (net, data)
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let (mut net, data) = trained_mlp();
        let before = net.accuracy(&data.test.images, &data.test.labels);
        let snap = snapshot_params(&mut net);
        quantize_network_weights(&mut net, q(2));
        restore_params(&mut net, &snap);
        let after = net.accuracy(&data.test.images, &data.test.labels);
        assert_eq!(before, after);
    }

    #[test]
    fn high_resolution_preserves_accuracy() {
        let (mut net, data) = trained_mlp();
        let points = resolution_sweep(&mut net, &data.test, &[q(8)]);
        assert!(
            points[1].normalized > 0.95,
            "8-bit should be near-lossless, got {}",
            points[1].normalized
        );
    }

    #[test]
    fn accuracy_degrades_monotonically_ish() {
        let (mut net, data) = trained_mlp();
        let points = resolution_sweep(&mut net, &data.test, &[q(8), q(4), q(2), q(1)]);
        let n8 = points[1].normalized;
        let n1 = points[4].normalized;
        assert!(n1 <= n8 + 0.05, "1-bit ({n1}) should not beat 8-bit ({n8})");
    }

    #[test]
    fn sweep_restores_weights() {
        let (mut net, data) = trained_mlp();
        let acc0 = net.accuracy(&data.test.images, &data.test.labels);
        resolution_sweep(&mut net, &data.test, &[q(2)]);
        assert_eq!(net.accuracy(&data.test.images, &data.test.labels), acc0);
    }

    #[test]
    fn per_channel_network_quantization_not_worse() {
        let (mut net, data) = trained_mlp();
        let snap = snapshot_params(&mut net);
        quantize_network_weights(&mut net, q(3));
        let per_tensor = net.accuracy(&data.test.images, &data.test.labels);
        restore_params(&mut net, &snap);
        quantize_network_weights_per_channel(&mut net, q(3));
        let per_channel = net.accuracy(&data.test.images, &data.test.labels);
        restore_params(&mut net, &snap);
        assert!(
            per_channel >= per_tensor - 0.05,
            "per-channel ({per_channel}) should not trail per-tensor ({per_tensor}) meaningfully"
        );
    }

    #[test]
    fn quantized_weights_are_on_grid() {
        let (mut net, _) = trained_mlp();
        quantize_network_weights(&mut net, q(3));
        for layer in net.layers_mut() {
            if let Some(p) = layer.params_mut() {
                let absmax = p.weight.abs_max();
                if absmax == 0.0 {
                    continue;
                }
                let step = absmax / 3.0; // qmax(3 bits) = 3
                for &w in p.weight.as_slice() {
                    let k = w / step;
                    assert!((k - k.round()).abs() < 1e-3, "off-grid weight {w}");
                }
            }
        }
    }
}
