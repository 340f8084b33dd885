//! Sequential network container with the batch-oriented training protocol of
//! Sec. 2.2 / 3.1: forward all layers, backward all layers accumulating
//! partial derivatives, apply the averaged update once per batch.

use crate::layer::Layer;
use crate::loss::Loss;
use pipelayer_tensor::Tensor;

/// A feed-forward network: an ordered stack of [`Layer`]s plus a [`Loss`].
///
/// # Example
///
/// ```
/// use pipelayer_nn::{Network, Loss};
/// use pipelayer_nn::layers::{Linear, Relu};
/// use pipelayer_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut net = Network::new("tiny", Loss::SoftmaxCrossEntropy);
/// net.push(Linear::new(4, 8, &mut rng));
/// net.push(Relu::new());
/// net.push(Linear::new(8, 2, &mut rng));
/// let out = net.forward(&Tensor::ones(&[4]));
/// assert_eq!(out.dims(), &[2]);
/// ```
pub struct Network {
    name: String,
    layers: Vec<Box<dyn Layer>>,
    loss: Loss,
}

/// One sample's gradient contribution: a `(dweight, dbias)` snapshot per
/// parameterised layer, in layer order.
type SampleGrads = Vec<(Tensor, Tensor)>;

impl Network {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>, loss: Loss) -> Self {
        Network {
            name: name.into(),
            layers: Vec::new(),
            loss,
        }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Network name (e.g. `"Mnist-A"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured loss function.
    pub fn loss(&self) -> Loss {
        self.loss
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Mutable access to the layer stack (used by the quantization pass).
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Layer access.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Total learnable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Training-mode forward pass (caches per-layer state).
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Training-mode forward pass that additionally records each layer's
    /// output value range, `(min, max)` per layer in layer order — the
    /// per-layer bound hook the range-analysis soundness harness compares
    /// against the abstract interpreter's predicted intervals.
    pub fn forward_traced(&mut self, input: &Tensor) -> (Tensor, Vec<(f32, f32)>) {
        let mut ranges = Vec::with_capacity(self.layers.len());
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
            ranges.push(value_range(&x));
        }
        (x, ranges)
    }

    /// Backward pass that records the value range of the error each layer
    /// propagates to its *input*, index-aligned with the layer stack (entry
    /// `i` is what layer `i`'s backward returned). Gradients accumulate as
    /// in [`backward`](Self::backward).
    pub fn backward_traced(&mut self, delta: &Tensor) -> (Tensor, Vec<(f32, f32)>) {
        let mut ranges = vec![(0.0f32, 0.0f32); self.layers.len()];
        let mut d = delta.clone();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            d = layer.backward(&d);
            ranges[i] = value_range(&d);
        }
        (d, ranges)
    }

    /// Inference-mode forward pass (no caching, immutable).
    pub fn infer(&self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.infer(&x);
        }
        x
    }

    /// Backward pass from an output-layer error; accumulates gradients.
    pub fn backward(&mut self, delta: &Tensor) -> Tensor {
        let mut d = delta.clone();
        for layer in self.layers.iter_mut().rev() {
            d = layer.backward(&d);
        }
        d
    }

    /// The backward pass of a training step: [`backward`](Self::backward)
    /// down to the first layer, which takes only its parameter gradients —
    /// the error w.r.t. the network input is never read.
    fn backward_to_params(&mut self, delta: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut d = delta.clone();
        for layer in rest.iter_mut().rev() {
            d = layer.backward(&d);
        }
        first.backward_params(&d);
    }

    /// Predicted class (argmax of the output).
    pub fn predict(&self, input: &Tensor) -> usize {
        self.infer(input).argmax()
    }

    /// Runs one training mini-batch: forwards and backwards every sample
    /// (accumulating partial derivatives exactly as PipeLayer buffers
    /// `ΔW` per image), then applies the averaged update. Returns the mean
    /// loss over the batch.
    ///
    /// # Panics
    ///
    /// Panics if `images` and `labels` have different lengths or are empty.
    #[expect(clippy::disallowed_macros, reason = "caller bug: empty batch")]
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
    pub fn train_batch(&mut self, images: &[Tensor], labels: &[usize], lr: f32) -> f32 {
        assert_eq!(images.len(), labels.len(), "images/labels length mismatch");
        assert!(!images.is_empty(), "empty batch");
        let mut total = 0.0;
        for (img, &label) in images.iter().zip(labels) {
            let out = self.forward(img);
            let (loss, delta) = self.loss.loss_and_delta(&out, label);
            total += loss;
            self.backward_to_params(&delta);
        }
        let b = images.len();
        for layer in &mut self.layers {
            layer.apply_update(lr, b);
        }
        total / b as f32
    }

    /// Like [`train_batch`](Self::train_batch) but with an external update
    /// rule (momentum / weight decay). `states` must be created by
    /// [`OptStates::for_network`] and reused across batches — it carries
    /// the velocity buffers.
    ///
    /// # Panics
    ///
    /// Panics on mismatched lengths, an empty batch, or states built for a
    /// different network.
    #[expect(clippy::disallowed_macros, reason = "caller bug: empty batch")]
    #[expect(clippy::expect_used, reason = "caller bug: optimizer of another net")]
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
    pub fn train_batch_opt(
        &mut self,
        images: &[Tensor],
        labels: &[usize],
        opt: &crate::optimizer::Optimizer,
        states: &mut OptStates,
    ) -> f32 {
        assert_eq!(images.len(), labels.len(), "images/labels length mismatch");
        assert!(!images.is_empty(), "empty batch");
        let mut total = 0.0;
        for (img, &label) in images.iter().zip(labels) {
            let out = self.forward(img);
            let (loss, delta) = self.loss.loss_and_delta(&out, label);
            total += loss;
            self.backward_to_params(&delta);
        }
        let b = images.len();
        let mut si = 0usize;
        for layer in &mut self.layers {
            if let Some(g) = layer.grads_mut() {
                let (ws, bs) = states
                    .slots
                    .get_mut(si)
                    .expect("OptStates built for a smaller network");
                ws.apply(opt, g.weight, g.dweight, b, true);
                bs.apply(opt, g.bias, g.dbias, b, false);
                si += 1;
            }
            layer.zero_grad();
        }
        assert_eq!(si, states.slots.len(), "OptStates layer count mismatch");
        total / b as f32
    }

    /// Creates an independent replica for a worker thread: identical
    /// parameters, fresh gradient accumulators and forward caches.
    pub fn replica(&self) -> Network {
        Network {
            name: self.name.clone(),
            layers: self.layers.iter().map(|l| l.clone_box()).collect(),
            loss: self.loss,
        }
    }

    /// Forwards and backwards one sample, returning its loss and a snapshot
    /// of the per-layer gradients (accumulators are zeroed afterwards, so
    /// the snapshot is exactly this sample's contribution).
    fn sample_grads(&mut self, img: &Tensor, label: usize) -> (f32, SampleGrads) {
        let out = self.forward(img);
        let (loss, delta) = self.loss.loss_and_delta(&out, label);
        self.backward_to_params(&delta);
        let mut grads = Vec::new();
        for layer in &mut self.layers {
            if let Some(g) = layer.grads_mut() {
                grads.push((g.dweight.clone(), g.dbias.clone()));
            }
            layer.zero_grad();
        }
        (loss, grads)
    }

    /// Computes per-sample losses and gradient snapshots for a whole batch,
    /// fanning the samples out over `threads` scoped worker threads.
    ///
    /// Results come back indexed by sample regardless of which worker
    /// produced them, and each sample's gradient is computed by an identical
    /// op sequence on an identical parameter copy — so the returned vector
    /// is bitwise independent of `threads`. Workers write disjoint chunks of
    /// the slot vector; no locks are needed.
    #[expect(clippy::expect_used, reason = "workers fill every slot before join")]
    fn collect_sample_grads(
        &mut self,
        images: &[Tensor],
        labels: &[usize],
        threads: usize,
    ) -> Vec<(f32, SampleGrads)> {
        let n = images.len();
        if threads <= 1 || n <= 1 {
            return images
                .iter()
                .zip(labels)
                .map(|(img, &label)| self.sample_grads(img, label))
                .collect();
        }
        let chunk = n.div_ceil(threads.min(n));
        let mut slots: Vec<Option<(f32, SampleGrads)>> = (0..n).map(|_| None).collect();
        let template = &*self;
        std::thread::scope(|s| {
            for ((imgs, labs), out) in images
                .chunks(chunk)
                .zip(labels.chunks(chunk))
                .zip(slots.chunks_mut(chunk))
            {
                s.spawn(move || {
                    let mut worker = template.replica();
                    for ((img, &label), slot) in imgs.iter().zip(labs).zip(out) {
                        *slot = Some(worker.sample_grads(img, label));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("worker left a sample slot unfilled"))
            .collect()
    }

    /// Sums the per-sample snapshots into the master accumulators in sample
    /// order (the fixed reduction order that makes training bitwise
    /// deterministic at any thread count) and returns the summed loss.
    fn reduce_sample_grads(&mut self, results: Vec<(f32, SampleGrads)>) -> f32 {
        let mut total = 0.0;
        for (loss, grads) in &results {
            total += loss;
            let mut gi = 0usize;
            for layer in &mut self.layers {
                if let Some(g) = layer.grads_mut() {
                    let (dw, db) = &grads[gi];
                    *g.dweight += dw;
                    *g.dbias += db;
                    gi += 1;
                }
            }
        }
        total
    }

    /// Data-parallel [`train_batch`](Self::train_batch): per-sample gradients
    /// are computed on `threads` worker replicas and reduced in sample order,
    /// so the result is bitwise identical to the serial path for any thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `images` and `labels` have different lengths, are empty, or
    /// `threads == 0`.
    #[expect(clippy::disallowed_macros, reason = "caller bug: no images/threads")]
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
    pub fn train_batch_parallel(
        &mut self,
        images: &[Tensor],
        labels: &[usize],
        lr: f32,
        threads: usize,
    ) -> f32 {
        assert_eq!(images.len(), labels.len(), "images/labels length mismatch");
        assert!(!images.is_empty(), "empty batch");
        assert!(threads > 0, "threads must be non-zero");
        let results = self.collect_sample_grads(images, labels, threads);
        let total = self.reduce_sample_grads(results);
        let b = images.len();
        for layer in &mut self.layers {
            layer.apply_update(lr, b);
        }
        total / b as f32
    }

    /// Data-parallel [`train_batch_opt`](Self::train_batch_opt): same
    /// fan-out/fixed-order reduction as
    /// [`train_batch_parallel`](Self::train_batch_parallel), with the update
    /// applied through an external optimizer.
    ///
    /// # Panics
    ///
    /// Panics on mismatched lengths, an empty batch, `threads == 0`, or
    /// states built for a different network.
    #[expect(clippy::disallowed_macros, reason = "caller bug: no images/threads")]
    #[expect(clippy::expect_used, reason = "caller bug: optimizer of another net")]
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
    pub fn train_batch_opt_parallel(
        &mut self,
        images: &[Tensor],
        labels: &[usize],
        opt: &crate::optimizer::Optimizer,
        states: &mut OptStates,
        threads: usize,
    ) -> f32 {
        assert_eq!(images.len(), labels.len(), "images/labels length mismatch");
        assert!(!images.is_empty(), "empty batch");
        assert!(threads > 0, "threads must be non-zero");
        let results = self.collect_sample_grads(images, labels, threads);
        let total = self.reduce_sample_grads(results);
        let b = images.len();
        let mut si = 0usize;
        for layer in &mut self.layers {
            if let Some(g) = layer.grads_mut() {
                let (ws, bs) = states
                    .slots
                    .get_mut(si)
                    .expect("OptStates built for a smaller network");
                ws.apply(opt, g.weight, g.dweight, b, true);
                bs.apply(opt, g.bias, g.dbias, b, false);
                si += 1;
            }
            layer.zero_grad();
        }
        assert_eq!(si, states.slots.len(), "OptStates layer count mismatch");
        total / b as f32
    }

    /// Classification accuracy over a labelled set.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or are empty.
    #[expect(clippy::disallowed_macros, reason = "caller bug: empty eval set")]
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
    pub fn accuracy(&self, images: &[Tensor], labels: &[usize]) -> f32 {
        assert_eq!(images.len(), labels.len(), "images/labels length mismatch");
        assert!(!images.is_empty(), "empty evaluation set");
        let correct = images
            .iter()
            .zip(labels)
            .filter(|(img, label)| self.predict(img) == **label)
            .count();
        correct as f32 / images.len() as f32
    }
}

/// `(min, max)` over a tensor's elements.
fn value_range(t: &Tensor) -> (f32, f32) {
    t.as_slice()
        .iter()
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// Optimizer state (velocity buffers) for every parameterised layer of a
/// network, used with [`Network::train_batch_opt`].
#[derive(Debug, Clone, Default)]
pub struct OptStates {
    slots: Vec<(crate::optimizer::ParamState, crate::optimizer::ParamState)>,
}

impl OptStates {
    /// Allocates fresh state for `net`'s parameterised layers.
    pub fn for_network(net: &mut Network) -> Self {
        let mut n = 0usize;
        for layer in &mut net.layers {
            if layer.grads_mut().is_some() {
                n += 1;
            }
        }
        OptStates {
            slots: (0..n).map(|_| Default::default()).collect(),
        }
    }

    /// Exports every velocity buffer, two entries (weight, bias) per
    /// parameterised layer, in layer order — the PLW2 `OPTS` payload.
    pub fn export_velocities(&self) -> Vec<Option<pipelayer_tensor::Tensor>> {
        self.slots
            .iter()
            .flat_map(|(w, b)| [w.velocity().cloned(), b.velocity().cloned()])
            .collect()
    }

    /// Restores velocity buffers exported by
    /// [`export_velocities`](Self::export_velocities). Returns `false`
    /// (leaving the state untouched) when the entry count does not match
    /// this network's layer structure.
    pub fn import_velocities(&mut self, vel: Vec<Option<pipelayer_tensor::Tensor>>) -> bool {
        if vel.len() != self.slots.len() * 2 {
            return false;
        }
        let mut it = vel.into_iter();
        for (w, b) in &mut self.slots {
            w.set_velocity(it.next().flatten());
            b.set_velocity(it.next().flatten());
        }
        true
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self.layers.iter().map(|l| l.name()).collect();
        write!(
            f,
            "Network({}, {} params, [{}])",
            self.name,
            self.param_count(),
            names.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xor_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new("xor", Loss::SoftmaxCrossEntropy);
        net.push(Linear::new(2, 8, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(8, 2, &mut rng));
        net
    }

    #[test]
    fn learns_xor() {
        let mut net = xor_net(3);
        let images: Vec<Tensor> = [(0., 0.), (0., 1.), (1., 0.), (1., 1.)]
            .iter()
            .map(|&(a, b)| Tensor::from_vec(&[2], vec![a, b]))
            .collect();
        let labels = vec![0usize, 1, 1, 0];
        let mut last = f32::INFINITY;
        for _ in 0..600 {
            last = net.train_batch(&images, &labels, 0.5);
        }
        assert!(last < 0.1, "xor failed to converge, loss {last}");
        assert_eq!(net.accuracy(&images, &labels), 1.0);
    }

    #[test]
    fn infer_does_not_mutate() {
        let net = xor_net(4);
        let x = Tensor::from_vec(&[2], vec![1.0, 0.0]);
        let a = net.infer(&x);
        let b = net.infer(&x);
        assert!(a.allclose(&b, 0.0));
    }

    #[test]
    fn batch_update_equals_mean_of_gradients() {
        // Train on a batch of two identical samples vs one sample: the
        // averaged update must be identical.
        let mut net1 = xor_net(5);
        let mut net2 = xor_net(5);
        let x = Tensor::from_vec(&[2], vec![0.3, 0.7]);
        net1.train_batch(std::slice::from_ref(&x), &[1], 0.1);
        net2.train_batch(&[x.clone(), x.clone()], &[1, 1], 0.1);
        let y1 = net1.infer(&x);
        let y2 = net2.infer(&x);
        assert!(y1.allclose(&y2, 1e-5));
    }

    #[test]
    fn momentum_training_converges_faster_on_xor() {
        use crate::optimizer::Optimizer;
        let images: Vec<Tensor> = [(0., 0.), (0., 1.), (1., 0.), (1., 1.)]
            .iter()
            .map(|&(a, b)| Tensor::from_vec(&[2], vec![a, b]))
            .collect();
        let labels = vec![0usize, 1, 1, 0];

        let run = |momentum: f32| -> f32 {
            let mut net = xor_net(8);
            let opt = Optimizer::with_momentum(0.1, momentum);
            let mut states = OptStates::for_network(&mut net);
            let mut last = 0.0;
            for _ in 0..250 {
                last = net.train_batch_opt(&images, &labels, &opt, &mut states);
            }
            last
        };
        let plain = run(0.0);
        let momo = run(0.9);
        assert!(momo < plain, "momentum should help: {momo} vs {plain}");
    }

    #[test]
    fn plain_opt_matches_train_batch() {
        use crate::optimizer::Optimizer;
        let x = Tensor::from_vec(&[2], vec![0.4, -0.6]);
        let mut a = xor_net(9);
        let mut b = xor_net(9);
        a.train_batch(std::slice::from_ref(&x), &[1], 0.2);
        let mut states = OptStates::for_network(&mut b);
        b.train_batch_opt(
            std::slice::from_ref(&x),
            &[1],
            &Optimizer::sgd(0.2),
            &mut states,
        );
        assert!(a.infer(&x).allclose(&b.infer(&x), 1e-5));
    }

    #[test]
    fn debug_lists_layers() {
        let net = xor_net(6);
        let dbg = format!("{net:?}");
        assert!(dbg.contains("ip2-8") && dbg.contains("relu"));
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn rejects_empty_batch() {
        xor_net(7).train_batch(&[], &[], 0.1);
    }

    fn batch8() -> (Vec<Tensor>, Vec<usize>) {
        let images: Vec<Tensor> = (0..8)
            .map(|i| Tensor::from_vec(&[2], vec![(i as f32 * 0.37).sin(), (i as f32 * 0.61).cos()]))
            .collect();
        let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
        (images, labels)
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

    /// The training walk's first layer takes the gradients `backward`
    /// takes, bit for bit, without the input error: a convolution and a
    /// linear layer first.
    #[test]
    fn training_backward_keeps_the_first_layers_gradients() {
        let c4 = || crate::zoo::c4(2);
        for make in [c4 as fn() -> Network, || xor_net(5)] {
            let (mut full, mut walk) = (make(), make());
            let input = full.layers()[0].name();
            let x = if input.starts_with("conv") {
                Tensor::from_vec(
                    &[1, 28, 28],
                    (0..784).map(|i| (i as f32 * 0.013).sin()).collect(),
                )
            } else {
                Tensor::from_vec(&[2], vec![0.3, -0.9])
            };
            let out = full.forward(&x);
            walk.forward(&x);
            let (_, delta) = full.loss().loss_and_delta(&out, 1);
            full.backward(&delta);
            walk.backward_to_params(&delta);
            let grads = |net: &mut Network| -> Vec<u32> {
                let mut bits = Vec::new();
                for layer in net.layers_mut() {
                    if let Some(g) = layer.grads_mut() {
                        bits.extend(g.dweight.as_slice().iter().map(|v| v.to_bits()));
                        bits.extend(g.dbias.as_slice().iter().map(|v| v.to_bits()));
                    }
                }
                bits
            };
            let bits = grads(&mut full);
            assert!(bits.iter().any(|&b| b != 0), "{input}: no gradient");
            assert_eq!(grads(&mut walk), bits, "{input} first");
        }
    }

    #[test]
    fn replica_matches_original() {
        let net = xor_net(10);
        let rep = net.replica();
        let x = Tensor::from_vec(&[2], vec![0.2, -0.8]);
        let a = net.infer(&x);
        let b = rep.infer(&x);
        assert_eq!(
            a.as_slice()[0].to_bits(),
            b.as_slice()[0].to_bits(),
            "replica must be bitwise identical"
        );
        assert_eq!(net.param_count(), rep.param_count());
    }

    #[test]
    fn parallel_batch_is_bitwise_identical_to_serial() {
        let (images, labels) = batch8();
        let mut serial = xor_net(11);
        serial.train_batch(&images, &labels, 0.1);
        let serial_bits = weight_bits(&mut serial);
        for threads in [1usize, 2, 3, 8, 16] {
            let mut par = xor_net(11);
            par.train_batch_parallel(&images, &labels, 0.1, threads);
            assert_eq!(
                weight_bits(&mut par),
                serial_bits,
                "{threads}-thread batch diverged from serial"
            );
        }
    }

    #[test]
    fn parallel_opt_batch_is_bitwise_identical_to_serial() {
        use crate::optimizer::Optimizer;
        let (images, labels) = batch8();
        let opt = Optimizer::with_momentum(0.1, 0.9);
        let run = |threads: Option<usize>| -> Vec<u32> {
            let mut net = xor_net(12);
            let mut states = OptStates::for_network(&mut net);
            for _ in 0..3 {
                match threads {
                    None => net.train_batch_opt(&images, &labels, &opt, &mut states),
                    Some(t) => net.train_batch_opt_parallel(&images, &labels, &opt, &mut states, t),
                };
            }
            weight_bits(&mut net)
        };
        let serial = run(None);
        assert_eq!(serial, run(Some(1)), "1-thread diverged");
        assert_eq!(serial, run(Some(4)), "4-thread diverged");
    }

    #[test]
    fn parallel_loss_matches_serial_loss() {
        let (images, labels) = batch8();
        let mut a = xor_net(13);
        let mut b = xor_net(13);
        let la = a.train_batch(&images, &labels, 0.05);
        let lb = b.train_batch_parallel(&images, &labels, 0.05, 4);
        assert_eq!(la.to_bits(), lb.to_bits(), "losses must match bitwise");
    }

    #[test]
    fn traced_passes_match_untraced_and_record_ranges() {
        let mut traced = xor_net(15);
        let mut plain = xor_net(15);
        let x = Tensor::from_vec(&[2], vec![0.3, -0.9]);
        let (y_t, fwd) = traced.forward_traced(&x);
        let y_p = plain.forward(&x);
        assert!(y_t.allclose(&y_p, 0.0));
        assert_eq!(fwd.len(), 3);
        // ReLU output range is non-negative.
        assert!(fwd[1].0 >= 0.0);
        let d = Tensor::ones(&[2]);
        let (dx_t, bwd) = traced.backward_traced(&d);
        let dx_p = plain.backward(&d);
        assert!(dx_t.allclose(&dx_p, 0.0));
        assert_eq!(bwd.len(), 3);
        for (lo, hi) in fwd.iter().chain(&bwd) {
            assert!(lo <= hi);
        }
    }

    #[test]
    fn parallel_handles_more_threads_than_samples() {
        let mut net = xor_net(14);
        let x = Tensor::from_vec(&[2], vec![0.1, 0.9]);
        let loss = net.train_batch_parallel(std::slice::from_ref(&x), &[1], 0.1, 8);
        assert!(loss.is_finite());
    }
}
