//! `float-c4`: the float `nn` trainer on C-4, the workload that runs the
//! `tensor` conv/im2col/GEMM kernels and no ReRAM code at all.
//!
//! Traced runs replay each step on a replica of the pre-step network,
//! layer by layer through `Network::layers_mut`.

use crate::trace::{per_step, self_times, step_median, Tracer};
use crate::{stats, Bench, Round, GATE_EVERY};
use pipelayer_nn::data::SyntheticMnist;
use pipelayer_nn::{zoo, Layer, LayerKind, Network};
use pipelayer_tensor::Tensor;

const TRAIN_IMAGES: usize = 1024;
const EVAL_IMAGES: usize = 1000;
const BATCH: usize = 16;
const LR: f32 = 0.1;
/// Worker threads of the reference replay the gate compares against.
const GATE_THREADS: usize = 2;

/// `(forward, backward)` span names of each layer class.
const CLASSES: [(&str, &str); 5] = [
    ("nn.conv_fwd", "nn.conv_bwd"),
    ("nn.fc_fwd", "nn.fc_bwd"),
    ("nn.pool_fwd", "nn.pool_bwd"),
    ("nn.relu_fwd", "nn.relu_bwd"),
    ("nn.flatten_fwd", "nn.flatten_bwd"),
];
/// The per-image metric of each span in [`CLASSES`], in the same order.
const CLASS_METRICS: [(&str, &str); 5] = [
    ("nn.conv_fwd_us_per_img", "nn.conv_bwd_us_per_img"),
    ("nn.fc_fwd_us_per_img", "nn.fc_bwd_us_per_img"),
    ("nn.pool_fwd_us_per_img", "nn.pool_bwd_us_per_img"),
    ("nn.relu_fwd_us_per_img", "nn.relu_bwd_us_per_img"),
    ("nn.flatten_fwd_us_per_img", "nn.flatten_bwd_us_per_img"),
];

fn class(layer: &dyn Layer) -> (&'static str, &'static str) {
    match layer.kind() {
        LayerKind::Affine if layer.name().starts_with("conv") => CLASSES[0],
        LayerKind::Affine => CLASSES[1],
        LayerKind::MaxPool { .. } | LayerKind::AvgPool { .. } => CLASSES[2],
        LayerKind::Relu => CLASSES[3],
        LayerKind::Flatten => CLASSES[4],
        _ => ("nn.other_fwd", "nn.other_bwd"),
    }
}

pub struct FloatBench {
    train: Vec<Tensor>,
    train_labels: Vec<usize>,
    eval: Vec<Tensor>,
    eval_labels: Vec<usize>,
    pristine: Network,
}

pub fn setup(seed: u64) -> FloatBench {
    let data = SyntheticMnist::generate(TRAIN_IMAGES, EVAL_IMAGES, seed);
    FloatBench {
        train: data.train.images,
        train_labels: data.train.labels,
        eval: data.test.images,
        eval_labels: data.test.labels,
        pristine: zoo::c4(seed.wrapping_add(1)),
    }
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

impl Bench for FloatBench {
    fn round(&mut self, tr: &mut Tracer, first_step: u64) -> Round {
        let mut net = self.pristine.replica();
        let mut r = Round::default();
        let batches = self
            .train
            .chunks(BATCH)
            .zip(self.train_labels.chunks(BATCH));
        for (step, (imgs, labs)) in (first_step..).zip(batches) {
            tr.set_step(step);
            // Data-parallel training must be bitwise independent of the
            // thread count.
            let witness = (r.steps.len() % GATE_EVERY == 0).then(|| net.replica());
            let before = tr.enabled().then(|| net.replica());
            let (loss, secs) = tr.span("nn.train_batch", |_| {
                net.train_batch_parallel(imgs, labs, LR, 1)
            });
            r.steps.push((imgs.len(), secs));
            if !loss.is_finite() {
                r.failed += 1;
            }
            if let Some(mut w) = witness {
                let reference = w.train_batch_parallel(imgs, labs, LR, GATE_THREADS);
                if reference.to_bits() != loss.to_bits()
                    || weight_bits(&mut w) != weight_bits(&mut net)
                {
                    r.failed += 1;
                }
            }
            if let Some(mut replica) = before {
                replay(tr, &mut replica, imgs, labs);
            }
        }
        let acc = crate::evaluate(
            tr,
            "nn.accuracy",
            &self.eval,
            &self.eval_labels,
            &mut r,
            |x, y| net.accuracy(x, y),
        );
        let checksum = weight_bits(&mut net)
            .iter()
            .fold(0u64, |h, &b| h.rotate_left(5) ^ u64::from(b));
        r.digest = vec![u64::from(acc.to_bits()), checksum];
        r.model = vec![("model.accuracy", f64::from(acc))];
        r
    }

    fn per_layer(&self, tr: &Tracer) -> Vec<(&'static str, f64)> {
        let spans = tr.spans();
        let selfs = self_times(spans);
        let per_img_us = |name: &str| step_median(spans, &selfs, name) * 1e-3 / BATCH as f64;
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for ((fwd, bwd), (fwd_metric, bwd_metric)) in CLASSES.into_iter().zip(CLASS_METRICS) {
            out.push((fwd_metric, per_img_us(fwd)));
            out.push((bwd_metric, per_img_us(bwd)));
        }
        out.push(("nn.loss_us_per_img", per_img_us("nn.loss")));
        out.push((
            "nn.update_ms_per_step",
            step_median(spans, &selfs, "nn.update") * 1e-6,
        ));
        // The step minus every replayed layer: gradient snapshots, their
        // reduction and the per-sample bookkeeping of the trainer.
        let parts: Vec<_> = CLASSES
            .iter()
            .flat_map(|&(f, b)| [f, b])
            .chain(["nn.other_fwd", "nn.other_bwd", "nn.loss", "nn.update"])
            .map(|n| per_step(spans, &selfs, n))
            .collect();
        let glue: Vec<f64> = per_step(spans, &selfs, "nn.train_batch")
            .iter()
            .map(|(s, &(total, _))| {
                let layers: u64 = parts.iter().filter_map(|p| p.get(s)).map(|v| v.0).sum();
                (total as f64 - layers as f64) * 1e-6
            })
            .collect();
        out.push(("nn.glue_ms_per_step", stats::median_or_zero(&glue)));
        out
    }
}

/// Replays one `train_batch` on `net` (the pre-step network) one layer
/// call at a time: the per-sample forward and backward of every layer,
/// the loss, and the averaged update.
fn replay(tr: &mut Tracer, net: &mut Network, imgs: &[Tensor], labels: &[usize]) {
    let loss = net.loss();
    let classes: Vec<_> = net.layers().iter().map(|l| class(l.as_ref())).collect();
    tr.span("nn.replay", |tr| {
        for (img, &label) in imgs.iter().zip(labels) {
            let mut x = img.clone();
            for (layer, &(fwd, _)) in net.layers_mut().iter_mut().zip(&classes) {
                x = tr.span(fwd, |_| layer.forward(&x)).0;
            }
            let ((_, mut d), _) = tr.span("nn.loss", |_| loss.loss_and_delta(&x, label));
            for (layer, &(_, bwd)) in net.layers_mut().iter_mut().zip(&classes).rev() {
                d = tr.span(bwd, |_| layer.backward(&d)).0;
            }
        }
        tr.span("nn.update", |_| {
            for layer in net.layers_mut() {
                layer.apply_update(LR, imgs.len());
            }
        });
    });
}
