//! A calibrated GTX 1080 cost model.
//!
//! Stands in for the paper's measured baseline (Table 4: GTX 1080, 2560 CUDA
//! cores @ 1607 MHz, 8 GB GDDR5X @ 320 GB/s, Caffe, `caffe time` /
//! `nvidia-smi`). The model is a per-layer roofline:
//!
//! * convolutions are compute-bound at a fraction of peak FP32 throughput;
//! * inner-product layers are bound by the max of compute and weight
//!   traffic (large FC layers on small batches are bandwidth-bound — the
//!   reason MLPs show the largest PipeLayer speedups, Sec. 6.3);
//! * every layer pays kernel-launch overhead, and every batch pays a fixed
//!   framework/iteration overhead (dominant for the MNIST-scale networks);
//! * training costs the canonical 3× forward compute plus optimizer traffic.

use pipelayer_nn::spec::NetSpec;
use pipelayer_reram::units::{Joules, Seconds};

/// Time and energy of a modelled GPU run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuRun {
    /// Wall-clock time.
    pub time_s: Seconds,
    /// Energy.
    pub energy_j: Joules,
}

impl GpuRun {
    /// Images per second.
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn throughput(&self, n_images: u64) -> f64 {
        n_images as f64 / self.time_s.0
    }
}

/// GTX 1080 parameters (Table 4) plus empirical utilisation factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Peak FP32 throughput, FLOP/s (2560 cores × 2 × 1.733 GHz boost).
    pub peak_flops: f64,
    /// Memory bandwidth, B/s.
    pub mem_bandwidth_bytes_per_s: f64,
    /// Fraction of peak reached by convolution kernels.
    pub conv_utilization: f64,
    /// Fraction of peak reached by GEMM (inner-product) kernels.
    pub fc_utilization: f64,
    /// Per-kernel-launch overhead.
    pub launch_overhead_s: Seconds,
    /// Kernel launches per weighted layer per pass.
    pub kernels_per_layer: f64,
    /// Fixed framework overhead per iteration (Caffe data layer, host
    /// sync, solver bookkeeping). Dominates the MNIST-scale models,
    /// exactly as `caffe time` measurements do.
    pub framework_overhead_s: Seconds,
    /// Board TDP, watts.
    pub tdp_w: f64,
    /// Idle board power, watts.
    pub idle_w: f64,
}

impl Default for GpuModel {
    fn default() -> Self {
        GpuModel {
            peak_flops: 8.873e12,
            mem_bandwidth_bytes_per_s: 320e9,
            conv_utilization: 0.75,
            fc_utilization: 0.85,
            launch_overhead_s: Seconds(12e-6),
            kernels_per_layer: 3.0,
            framework_overhead_s: Seconds(1000e-6),
            tdp_w: 180.0,
            idle_w: 55.0,
        }
    }
}

impl GpuModel {
    /// Compute + launch time of one forward pass over a batch (excluding
    /// the per-iteration framework/data-layer overhead).
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    fn forward_work_s(&self, spec: &NetSpec, batch: usize) -> Seconds {
        let b = batch as f64;
        let mut t = Seconds(0.0);
        for layer in spec.resolve() {
            let ops = layer.ops_forward() as f64 * b;
            let compute = if layer.is_conv {
                // Tiny convolutions (the MNIST-scale models) never fill the
                // GPU: utilisation collapses with the per-launch work.
                let util = self.conv_utilization * ops / (ops + 60e6);
                ops / (self.peak_flops * util)
            } else {
                ops / (self.peak_flops * self.fc_utilization)
            };
            // FC weight traffic is paid once per batch; conv weights are
            // small and cached.
            let weight_bytes = if layer.is_conv {
                0.0
            } else {
                layer.weights as f64 * 4.0
            };
            let act_bytes = b
                * 4.0
                * (layer.in_shape.0 * layer.in_shape.1 * layer.in_shape.2
                    + layer.out_shape.0 * layer.out_shape.1 * layer.out_shape.2)
                    as f64;
            let memory = (weight_bytes + act_bytes) / self.mem_bandwidth_bytes_per_s;
            t += Seconds(compute.max(memory)) + self.kernels_per_layer * self.launch_overhead_s;
        }
        t
    }

    /// Modelled inference (testing) run.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `n_images` is zero.
    #[expect(clippy::disallowed_macros, reason = "caller bug: empty workload")]
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn testing(&self, spec: &NetSpec, n_images: u64, batch: usize) -> GpuRun {
        assert!(batch > 0 && n_images > 0, "degenerate GPU workload");
        let batches = (n_images as f64 / batch as f64).ceil();
        let work = self.forward_work_s(spec, batch);
        let per_batch = work + self.framework_overhead_s;
        let time_s = batches * per_batch;
        GpuRun {
            time_s,
            energy_j: Joules(time_s.0 * self.power_w(work, per_batch)),
        }
    }

    /// Modelled training run: per batch, forward + backward (2× forward
    /// compute), SGD weight-update traffic plus per-layer optimizer kernel
    /// launches, and a heavier framework/solver share per iteration.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `n_images` is zero.
    #[expect(clippy::disallowed_macros, reason = "caller bug: empty workload")]
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn training(&self, spec: &NetSpec, n_images: u64, batch: usize) -> GpuRun {
        assert!(batch > 0 && n_images > 0, "degenerate GPU workload");
        let work = 3.0 * self.forward_work_s(spec, batch);
        // SGD update: read gradient + read weight + write weight, plus one
        // optimizer kernel per layer.
        let update =
            Seconds(spec.weight_count() as f64 * 4.0 * 3.0 / self.mem_bandwidth_bytes_per_s)
                + spec.weighted_layers() as f64 * self.kernels_per_layer * self.launch_overhead_s;
        let batches = (n_images as f64 / batch as f64).ceil();
        let per_batch = work + update + 1.5 * self.framework_overhead_s;
        let time_s = batches * per_batch;
        GpuRun {
            time_s,
            energy_j: Joules(time_s.0 * self.power_w(work + update, per_batch)),
        }
    }

    /// Effective board power: idle floor plus dynamic power scaled by the
    /// fraction of each iteration the GPU spends in kernels — on the
    /// framework-bound MNIST-scale models the board idles most of the time
    /// (what `nvidia-smi` would report).
    fn power_w(&self, busy_s: Seconds, total_s: Seconds) -> f64 {
        let busy = (busy_s / total_s.max(Seconds(1e-12))).clamp(0.0, 1.0);
        self.idle_w + (self.tdp_w - self.idle_w) * busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipelayer_nn::zoo;

    #[test]
    fn alexnet_inference_in_realistic_band() {
        let gpu = GpuModel::default();
        let run = gpu.testing(&zoo::alexnet(), 6400, 64);
        let ips = run.throughput(6400);
        assert!(
            (1500.0..8000.0).contains(&ips),
            "AlexNet inference {ips} img/s outside published GTX 1080 band"
        );
    }

    #[test]
    fn alexnet_training_slower_than_inference() {
        let gpu = GpuModel::default();
        let test = gpu.testing(&zoo::alexnet(), 6400, 64);
        let train = gpu.training(&zoo::alexnet(), 6400, 64);
        assert!(train.time_s > 2.5 * test.time_s);
    }

    #[test]
    fn vgg_ordering_by_depth() {
        let gpu = GpuModel::default();
        let mut last = Seconds(0.0);
        for v in zoo::VggVariant::ALL {
            let t = gpu.training(&zoo::vgg(v), 640, 64).time_s;
            assert!(t > last, "deeper VGG should train slower");
            last = t;
        }
    }

    #[test]
    fn vgg_a_inference_band() {
        let gpu = GpuModel::default();
        let ips = gpu
            .testing(&zoo::vgg(zoo::VggVariant::A), 640, 64)
            .throughput(640);
        assert!(
            (100.0..600.0).contains(&ips),
            "VGG-A inference {ips} img/s implausible for a GTX 1080"
        );
    }

    #[test]
    fn mnist_mlp_is_overhead_bound() {
        let gpu = GpuModel::default();
        let spec = zoo::spec_mnist_a();
        let run = gpu.testing(&spec, 6400, 64);
        // Pure compute would take ~1 µs/batch; fixed overheads dominate.
        let per_batch = run.time_s / 100.0;
        let overhead =
            gpu.framework_overhead_s + 2.0 * gpu.kernels_per_layer * gpu.launch_overhead_s;
        assert!(
            overhead / per_batch > 0.8,
            "expected overhead-dominated batch: {overhead:?} vs {per_batch:?}"
        );
        let ips = run.throughput(6400);
        assert!((20_000.0..500_000.0).contains(&ips), "{ips} img/s");
    }

    #[test]
    fn energy_positive_and_tdp_bounded() {
        let gpu = GpuModel::default();
        let run = gpu.training(&zoo::vgg(zoo::VggVariant::E), 64, 64);
        let power = run.energy_j.0 / run.time_s.0;
        assert!(power > gpu.idle_w && power <= gpu.tdp_w);
    }

    #[test]
    fn mlp_draws_less_power_than_vgg() {
        let gpu = GpuModel::default();
        let mlp = gpu.testing(&zoo::spec_mnist_a(), 640, 64);
        let vgg = gpu.testing(&zoo::vgg(zoo::VggVariant::D), 640, 64);
        assert!(mlp.energy_j.0 / mlp.time_s.0 < vgg.energy_j.0 / vgg.time_s.0);
    }
}
