//! End-to-end performance estimates: cycles × cycle time + energy — the
//! numbers behind Figs. 15/16 and the Sec. 6.6 efficiency metrics.

use crate::analysis::Analysis;
use crate::energy::EnergyModel;
use crate::mapping::MappedNetwork;
use crate::nonpipelined::NonPipelined;
use crate::timing::TimingModel;
use pipelayer_reram::units::{Joules, Nanoseconds, Seconds};

/// Estimated time/energy of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunEstimate {
    /// Logical cycles.
    pub cycles: u64,
    /// Compute-cycle duration.
    pub cycle_ns: Nanoseconds,
    /// Wall-clock time (including weight-update cycles).
    pub time_s: Seconds,
    /// Energy.
    pub energy_j: Joules,
    /// Images processed.
    pub images: u64,
}

impl RunEstimate {
    /// Images per second.
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn throughput(&self) -> f64 {
        self.images as f64 / self.time_s.0
    }

    /// Average power, watts.
    pub fn power_w(&self) -> f64 {
        self.energy_j.0 / self.time_s.0
    }
}

/// Performance model over a mapped network.
#[derive(Debug, Clone, Copy)]
pub struct PerfModel<'a> {
    net: &'a MappedNetwork,
}

impl<'a> PerfModel<'a> {
    /// Creates a model over `net`.
    pub fn new(net: &'a MappedNetwork) -> Self {
        PerfModel { net }
    }

    fn analysis(&self) -> Analysis {
        Analysis::new(self.net.weighted_layers(), self.net.config.batch_size)
    }

    /// Training estimate for `n` images (a multiple of the batch size).
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive multiple of the batch size.
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn training(&self, n: u64, pipelined: bool) -> RunEstimate {
        let timing = TimingModel::new(self.net);
        let cycle_ns = timing.cycle_training_ns();
        let update_ns = timing.update_cycle_ns();
        let batches = n / self.net.config.batch_size.get() as u64;
        let cycles = if pipelined {
            self.analysis().training_cycles_pipelined(n)
        } else {
            NonPipelined::new(self.net.weighted_layers(), self.net.config.batch_size)
                .training_cycles(n)
        };
        // One cycle per batch is the (differently-timed) update cycle;
        // scrub passes add their amortised per-image time (`+ 0.0` off).
        let compute_cycles = cycles - batches;
        let scrub_ns = n as f64 * timing.scrub_ns_per_image();
        let time_s =
            (compute_cycles as f64 * cycle_ns + batches as f64 * update_ns + scrub_ns).to_seconds();
        RunEstimate {
            cycles,
            cycle_ns,
            time_s,
            energy_j: EnergyModel::new(self.net).training_energy_j(n),
            images: n,
        }
    }

    /// Testing estimate for `n` images.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn testing(&self, n: u64, pipelined: bool) -> RunEstimate {
        let timing = TimingModel::new(self.net);
        let cycle_ns = timing.cycle_testing_ns();
        let a = self.analysis();
        let cycles = if pipelined {
            a.testing_cycles_pipelined(n)
        } else {
            a.testing_cycles_nonpipelined(n)
        };
        RunEstimate {
            cycles,
            cycle_ns,
            time_s: (cycles as f64 * cycle_ns).to_seconds(),
            energy_j: EnergyModel::new(self.net).testing_energy_j(n),
            images: n,
        }
    }

    /// Sustained throughput in GOPS during pipelined training (the paper's
    /// operation-count convention: forward + backward ops per image).
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn training_gops(&self, n: u64) -> f64 {
        let est = self.training(n, true);
        let ops_per_image: u64 = self
            .net
            .layers
            .iter()
            .map(|l| l.resolved.ops_forward() + l.resolved.ops_backward())
            .sum();
        (n as f64 * ops_per_image as f64) / est.time_s.0 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipeLayerConfig;
    use pipelayer_nn::zoo;

    fn model_net(spec: &pipelayer_nn::NetSpec) -> MappedNetwork {
        MappedNetwork::try_from_spec(spec, PipeLayerConfig::default()).unwrap()
    }

    #[test]
    fn pipelined_training_faster_same_energy() {
        let net = model_net(&zoo::spec_mnist_0());
        let perf = PerfModel::new(&net);
        let pipe = perf.training(640, true);
        let seq = perf.training(640, false);
        assert!(
            pipe.time_s < seq.time_s / 4.0,
            "{:?} vs {:?}",
            pipe.time_s,
            seq.time_s
        );
        assert_eq!(pipe.energy_j, seq.energy_j);
    }

    #[test]
    fn testing_throughput_approaches_cycle_rate() {
        let net = model_net(&zoo::spec_mnist_a());
        let perf = PerfModel::new(&net);
        let est = perf.testing(100_000, true);
        let per_cycle = 1e9 / est.cycle_ns.0;
        assert!((est.throughput() - per_cycle).abs() / per_cycle < 0.01);
    }

    #[test]
    fn training_slower_than_testing_per_image() {
        let net = model_net(&zoo::alexnet());
        let perf = PerfModel::new(&net);
        let train = perf.training(6400, true);
        let test = perf.testing(6400, true);
        assert!(train.time_s > test.time_s);
        assert!(train.energy_j > test.energy_j);
    }

    #[test]
    fn gops_positive_and_plausible() {
        let net = model_net(&zoo::alexnet());
        let g = PerfModel::new(&net).training_gops(6400);
        assert!(
            g > 100.0,
            "AlexNet training should sustain >100 GOPS, got {g}"
        );
        assert!(g < 1e9, "GOPS implausibly high: {g}");
    }

    #[test]
    fn power_is_finite_positive() {
        let net = model_net(&zoo::vgg(zoo::VggVariant::A));
        let est = PerfModel::new(&net).training(640, true);
        assert!(est.power_w() > 0.0 && est.power_w().is_finite());
    }
}
