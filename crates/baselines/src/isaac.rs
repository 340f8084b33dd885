//! An ISAAC-style deep intra-layer pipeline model (Sec. 3.2.2).
//!
//! ISAAC pipelines *within* a layer at tile granularity: a layer starts
//! consuming partial outputs of its predecessor as soon as small tiles are
//! ready, giving a very deep pipeline whose throughput is excellent **only
//! when a long run of consecutive inputs is available**. The paper's
//! critique, which this model reproduces:
//!
//! 1. in training, at most `B` (batch size) consecutive inputs exist before
//!    a weight update forces a full drain — for deep pipelines the
//!    fill/drain cost is amortised over only `B` images;
//! 2. a point in layer `l` depends on a pyramid of points in earlier layers
//!    (40 points across four 2×2-kernel layers in the paper's example), so a
//!    single delayed tile stalls downstream computation — modelled as a
//!    per-stage bubble probability inflating effective stage count.

use pipelayer_nn::spec::NetSpec;
use pipelayer_reram::units::{Nanoseconds, Seconds};

/// ISAAC-like pipeline timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsaacModel {
    /// Pipeline stages per weighted layer (tile-granular: ISAAC's deep
    /// pipeline subdivides each layer into many tile stages).
    pub stages_per_layer: usize,
    /// One pipeline stage latency (ISAAC's 100 ns IMA cycle).
    pub stage_ns: Nanoseconds,
    /// Probability a stage incurs a one-cycle bubble from a late
    /// cross-layer dependency.
    pub bubble_probability: f64,
}

impl Default for IsaacModel {
    fn default() -> Self {
        IsaacModel {
            stages_per_layer: 22,
            stage_ns: Nanoseconds(100.0),
            bubble_probability: 0.05,
        }
    }
}

impl IsaacModel {
    /// Total pipeline depth for a network.
    pub fn depth(&self, spec: &NetSpec) -> usize {
        spec.weighted_layers() * self.stages_per_layer
    }

    /// Effective per-result initiation interval, including bubbles.
    pub fn initiation_interval_ns(&self) -> Nanoseconds {
        self.stage_ns * (1.0 + self.bubble_probability)
    }

    /// Inference time for `n_images` fed continuously: one fill plus one
    /// result per initiation interval. This is where the deep pipeline
    /// shines.
    ///
    /// # Panics
    ///
    /// Panics if `n_images` is zero.
    #[expect(clippy::disallowed_macros, reason = "caller bug: empty workload")]
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn testing_time_s(&self, spec: &NetSpec, n_images: u64) -> Seconds {
        assert!(n_images > 0, "empty workload");
        let fill = self.depth(spec) as f64 * self.stage_ns;
        (fill + (n_images - 1) as f64 * self.initiation_interval_ns()).to_seconds()
    }

    /// Training time: every batch must drain fully before the next may
    /// enter (weights change), so the fill/drain penalty recurs `N/B`
    /// times, and training roughly doubles the per-image work.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `n_images` is zero.
    #[expect(clippy::disallowed_macros, reason = "caller bug: empty workload")]
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn training_time_s(&self, spec: &NetSpec, n_images: u64, batch: usize) -> Seconds {
        assert!(batch > 0 && n_images > 0, "degenerate workload");
        let batches = n_images.div_ceil(batch as u64) as f64;
        // Forward + backward traversal: double depth, double work.
        let fill_drain = 2.0 * self.depth(spec) as f64 * self.stage_ns;
        let per_batch = fill_drain + (batch as f64 * 2.0 - 1.0) * self.initiation_interval_ns();
        (batches * per_batch).to_seconds()
    }

    /// Fraction of training time lost to fill/drain at batch boundaries —
    /// the quantity PipeLayer's layer-granular pipeline avoids.
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn training_drain_fraction(&self, spec: &NetSpec, batch: usize) -> f64 {
        let fill_drain = 2.0 * self.depth(spec) as f64 * self.stage_ns;
        let per_batch = fill_drain + (batch as f64 * 2.0 - 1.0) * self.initiation_interval_ns();
        fill_drain / per_batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipelayer_nn::zoo;

    #[test]
    fn inference_amortises_fill() {
        let m = IsaacModel::default();
        let spec = zoo::vgg(zoo::VggVariant::A);
        let t_1 = m.testing_time_s(&spec, 1);
        let t_10k = m.testing_time_s(&spec, 10_000);
        // Per-image cost collapses towards the initiation interval.
        assert!(t_10k / 10_000.0 < t_1 / 4.0);
    }

    #[test]
    fn training_pays_drain_every_batch() {
        let m = IsaacModel::default();
        let spec = zoo::vgg(zoo::VggVariant::E);
        let frac = m.training_drain_fraction(&spec, 64);
        assert!(
            frac > 0.3,
            "deep pipeline should lose a large fraction to drain, got {frac}"
        );
        // Larger batches amortise better.
        assert!(m.training_drain_fraction(&spec, 256) < frac);
    }

    #[test]
    fn deeper_network_deeper_pipeline() {
        let m = IsaacModel::default();
        assert!(m.depth(&zoo::vgg(zoo::VggVariant::E)) > m.depth(&zoo::vgg(zoo::VggVariant::A)));
    }

    #[test]
    fn bubbles_slow_the_pipe() {
        let clean = IsaacModel {
            bubble_probability: 0.0,
            ..IsaacModel::default()
        };
        let bubbly = IsaacModel {
            bubble_probability: 0.2,
            ..IsaacModel::default()
        };
        let spec = zoo::alexnet();
        assert!(bubbly.testing_time_s(&spec, 1000) > clean.testing_time_s(&spec, 1000));
    }
}
