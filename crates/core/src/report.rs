//! A complete, self-describing report for one accelerator configuration —
//! the artifact a downstream user asks the simulator for: mapping, timing,
//! throughput, energy, power and area in one structure with a readable
//! `Display`.

use crate::area::{training_area, AreaModel};
use crate::mapping::MappedNetwork;
use crate::perf::{PerfModel, RunEstimate};
use crate::timing::TimingModel;
use pipelayer_reram::units::Nanoseconds;
use std::fmt;

/// Per-layer mapping summary.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name (`conv3x64`, `ip4096-1000`, ...).
    pub name: String,
    /// Kernel-matrix dimensions (rows × cols).
    pub matrix: (usize, usize),
    /// Crossbar tiles per copy.
    pub tiles: usize,
    /// Replication factor `G`.
    pub g: usize,
    /// Sequential reads per forward cycle.
    pub reads: u64,
    /// Forward-phase duration.
    pub forward_ns: Nanoseconds,
    /// Backward-phase duration.
    pub backward_ns: Nanoseconds,
}

/// The full configuration report.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigurationReport {
    /// Network name.
    pub network: String,
    /// Weighted layers `L`.
    pub layers: usize,
    /// Batch size `B`.
    pub batch: usize,
    /// Per-layer mapping/timing rows.
    pub per_layer: Vec<LayerReport>,
    /// Total crossbars (training deployment).
    pub crossbars: u64,
    /// Die area, mm².
    pub area_mm2: f64,
    /// Training estimate for the probe workload.
    pub training: RunEstimate,
    /// Testing estimate for the probe workload.
    pub testing: RunEstimate,
    /// Sustained training GOPS.
    pub gops: f64,
}

impl ConfigurationReport {
    /// Builds the report over a probe workload of `n` images (rounded down
    /// to a batch multiple, minimum one batch).
    pub fn build(net: &MappedNetwork, n: u64) -> Self {
        let b = net.config.batch_size.get() as u64;
        let n = (n - n % b).max(b);
        let perf = PerfModel::new(net);
        let timing = TimingModel::new(net);
        let per_layer = net
            .layers
            .iter()
            .map(|l| LayerReport {
                name: l.resolved.name.clone(),
                matrix: (l.resolved.matrix_rows, l.resolved.matrix_cols),
                tiles: l.tiles,
                g: l.g,
                reads: l.reads_forward,
                forward_ns: timing.forward_phase_ns(l),
                backward_ns: timing.backward_phase_ns(l),
            })
            .collect();
        let area = training_area(net, &AreaModel::default());
        ConfigurationReport {
            network: net.name.clone(),
            layers: net.weighted_layers().get(),
            batch: net.config.batch_size.get(),
            per_layer,
            crossbars: area.crossbars,
            area_mm2: area.mm2,
            training: perf.training(n, true),
            testing: perf.testing(n, true),
            gops: perf.training_gops(n),
        }
    }

    /// Computational efficiency, GOPS/s/mm².
    pub fn compute_efficiency(&self) -> f64 {
        self.gops / self.area_mm2
    }

    /// Power efficiency, GOPS/s/W.
    pub fn power_efficiency(&self) -> f64 {
        self.gops / self.training.power_w()
    }
}

impl fmt::Display for ConfigurationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} — L={} B={} | {} crossbars, {:.1} mm^2",
            self.network, self.layers, self.batch, self.crossbars, self.area_mm2
        )?;
        writeln!(
            f,
            "  training: {:>10.0} img/s  {:>8.3} J  cycle {:.2} us",
            self.training.throughput(),
            self.training.energy_j.0,
            self.training.cycle_ns.0 / 1e3
        )?;
        writeln!(
            f,
            "  testing:  {:>10.0} img/s  {:>8.3} J  cycle {:.2} us",
            self.testing.throughput(),
            self.testing.energy_j.0,
            self.testing.cycle_ns.0 / 1e3
        )?;
        writeln!(
            f,
            "  {:.0} GOPS | {:.1} GOPS/s/mm^2 | {:.1} GOPS/s/W",
            self.gops,
            self.compute_efficiency(),
            self.power_efficiency()
        )?;
        for l in &self.per_layer {
            writeln!(
                f,
                "    {:>14} {:>5}x{:<5} tiles {:>5} G {:>5} reads {:>4}  fwd {:>9.2} us  bwd {:>9.2} us",
                l.name,
                l.matrix.0,
                l.matrix.1,
                l.tiles,
                l.g,
                l.reads,
                l.forward_ns.0 / 1e3,
                l.backward_ns.0 / 1e3
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipeLayerConfig;
    use pipelayer_nn::zoo;
    use std::num::NonZeroUsize;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn report_covers_every_layer() {
        let net =
            MappedNetwork::try_from_spec(&zoo::alexnet(), PipeLayerConfig::default()).unwrap();
        let r = ConfigurationReport::build(&net, 640);
        assert_eq!(r.per_layer.len(), 8);
        assert!(r.area_mm2 > 0.0 && r.gops > 0.0);
        assert!(r.compute_efficiency() > 0.0 && r.power_efficiency() > 0.0);
    }

    #[test]
    fn probe_workload_rounds_to_batch() {
        let net =
            MappedNetwork::try_from_spec(&zoo::spec_mnist_a(), PipeLayerConfig::with_batch(nz(64)))
                .unwrap();
        let r = ConfigurationReport::build(&net, 100); // rounds to 64
        assert_eq!(r.training.images, 64);
        let r2 = ConfigurationReport::build(&net, 10); // clamps up to one batch
        assert_eq!(r2.training.images, 64);
    }

    #[test]
    fn display_is_complete_and_nonempty() {
        let net =
            MappedNetwork::try_from_spec(&zoo::spec_mnist_0(), PipeLayerConfig::default()).unwrap();
        let r = ConfigurationReport::build(&net, 128);
        let s = r.to_string();
        assert!(s.contains("Mnist-0"));
        assert!(s.contains("GOPS"));
        assert!(s.lines().count() >= 4 + 4);
    }
}
