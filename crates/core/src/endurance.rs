//! ReRAM endurance under training — how long the accelerator can train
//! before its weight cells wear out.
//!
//! The paper does not discuss endurance, but it is the first question any
//! adopter of in-ReRAM *training* asks: every batch update programs every
//! weight cell (Fig. 14b), and metal-oxide cells survive a bounded number
//! of programming cycles (reported values range from ~10⁶ for dense
//! storage-class parts to ~10¹⁰–10¹² for research devices). This module
//! turns the reproduction's write accounting into lifetime estimates, so
//! the trade-off is explicit instead of implicit.

use crate::mapping::MappedNetwork;
use crate::perf::PerfModel;
use pipelayer_reram::units::Seconds;

/// Device endurance in programming cycles per cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnduranceModel {
    /// Programming cycles a cell survives.
    pub write_cycles: f64,
}

impl EnduranceModel {
    /// A storage-class device (~10⁶ cycles).
    pub fn storage_class() -> Self {
        EnduranceModel { write_cycles: 1e6 }
    }

    /// A typical research-grade metal-oxide cell (~10⁹ cycles).
    pub fn research_grade() -> Self {
        EnduranceModel { write_cycles: 1e9 }
    }

    /// An optimistic endurance-optimised device (~10¹² cycles).
    pub fn optimistic() -> Self {
        EnduranceModel { write_cycles: 1e12 }
    }
}

/// Lifetime estimate for continuous training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lifetime {
    /// Weight updates (batches) per second at full training throughput.
    pub updates_per_second: f64,
    /// Programming pulses each weight cell receives per update (≈1; the
    /// averaged SGD step moves a cell at most a level or two).
    pub pulses_per_update: f64,
    /// Extra pulses the scrub scheduler lands on the worst-worn weight
    /// cell per processed image (0.0 with scrubbing off).
    pub scrub_pulses_per_image: f64,
    /// Time until the weight cells reach the endurance budget.
    pub seconds: Seconds,
}

impl Lifetime {
    /// Lifetime in days.
    pub fn days(&self) -> f64 {
        self.seconds.0 / 86_400.0
    }

    /// Lifetime in years.
    pub fn years(&self) -> f64 {
        self.days() / 365.25
    }
}

/// Estimates how long `net` can train continuously before its weight cells
/// wear out under `model`.
///
/// The binding resource is the *weight* cells: every update reprograms
/// them, while buffer cells can be wear-levelled across the (much larger)
/// memory region. `pulses_per_update` is derived from the config's write
/// discipline: 1 for the ideal single-shot write (small averaged SGD deltas
/// move a cell at most one level), higher when program-and-verify retries
/// re-pulse cells — fault tolerance trades lifetime for accuracy.
///
/// # Panics
///
/// Panics if `model.write_cycles` is not positive.
#[expect(clippy::disallowed_macros, reason = "caller bug: endurance ≤ 0")]
#[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
pub fn training_lifetime(net: &MappedNetwork, model: &EnduranceModel) -> Lifetime {
    assert!(model.write_cycles > 0.0, "endurance must be positive");
    let b = net.config.batch_size.get() as u64;
    // Time per batch at steady state: estimate over a long run.
    let n = 100 * b;
    let est = PerfModel::new(net).training(n, true);
    let updates_per_second = (n / b) as f64 / est.time_s.0;
    let pulses_per_update = net.config.write_pulse_multiplier();
    // Scrub wear on the worst-placed cell: a layer whose matrix has
    // `rows_l` word lines sees each of its cells re-scanned every
    // `rows_l / rows_per_pass` passes, and the expected re-pulse fraction
    // of scans lands a pulse. The narrowest matrix wears fastest.
    let scrub_pulses_per_image = if net.config.scrub_enabled() {
        let s = &net.config.scrub;
        net.layers
            .iter()
            .map(|l| {
                let rows = l.resolved.matrix_rows.max(1) as f64;
                let scanned = rows.min(s.rows_per_pass as f64);
                s.repulse_fraction * scanned / rows * s.passes_per_image()
            })
            .fold(0.0, f64::max)
    } else {
        0.0
    };
    let images_per_second = n as f64 / est.time_s.0;
    // `+ 0.0` with scrub off: baseline lifetimes stay bit-identical.
    let wear_per_second =
        updates_per_second * pulses_per_update + images_per_second * scrub_pulses_per_image;
    Lifetime {
        updates_per_second,
        pulses_per_update,
        scrub_pulses_per_image,
        seconds: Seconds(model.write_cycles / wear_per_second),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipeLayerConfig;
    use pipelayer_nn::zoo;

    fn mapped(spec: &pipelayer_nn::NetSpec) -> MappedNetwork {
        MappedNetwork::try_from_spec(spec, PipeLayerConfig::default()).unwrap()
    }

    #[test]
    fn storage_class_cells_wear_out_fast() {
        // MNIST-scale training updates thousands of times per second;
        // a 10⁶-cycle device lasts minutes — the adoption blocker.
        let net = mapped(&zoo::spec_mnist_a());
        let life = training_lifetime(&net, &EnduranceModel::storage_class());
        assert!(
            life.seconds < Seconds(3_600.0),
            "storage-class cells should die within an hour: {:?}",
            life.seconds
        );
    }

    #[test]
    fn research_grade_survives_much_longer() {
        let net = mapped(&zoo::spec_mnist_a());
        let weak = training_lifetime(&net, &EnduranceModel::storage_class());
        let strong = training_lifetime(&net, &EnduranceModel::research_grade());
        assert!((strong.seconds / weak.seconds - 1e3).abs() < 1.0);
    }

    #[test]
    fn slower_pipelines_wear_slower() {
        // VGG's long cycle means far fewer updates per second than an MLP.
        let mlp = training_lifetime(
            &mapped(&zoo::spec_mnist_a()),
            &EnduranceModel::research_grade(),
        );
        let vgg = training_lifetime(
            &mapped(&zoo::vgg(zoo::VggVariant::D)),
            &EnduranceModel::research_grade(),
        );
        assert!(vgg.updates_per_second < mlp.updates_per_second);
        assert!(vgg.seconds > mlp.seconds);
    }

    #[test]
    fn verify_retries_shorten_lifetime() {
        use crate::repair::SpareBudget;
        use pipelayer_reram::{FaultModel, VerifyPolicy};
        let spec = zoo::spec_mnist_a();
        let base = mapped(&spec);
        let cfg = PipeLayerConfig::default().with_fault_tolerance(
            FaultModel::with_stuck_rate(1e-3),
            VerifyPolicy {
                max_attempts: 5,
                write_sigma: 0.5,
            },
            SpareBudget::typical(),
        );
        let ft = MappedNetwork::try_from_spec(&spec, cfg).unwrap();
        let model = EnduranceModel::research_grade();
        let l_base = training_lifetime(&base, &model);
        let l_ft = training_lifetime(&ft, &model);
        assert_eq!(l_base.pulses_per_update, 1.0, "ideal write: one pulse");
        assert!(
            l_ft.pulses_per_update > 1.0,
            "retries must show up in wear: {}",
            l_ft.pulses_per_update
        );
        assert!(l_ft.seconds < l_base.seconds);
    }

    #[test]
    fn scrub_repulses_shorten_lifetime() {
        use crate::scrub::ScrubPolicy;
        let spec = zoo::spec_mnist_a();
        let base = mapped(&spec);
        let cfg = PipeLayerConfig {
            scrub: ScrubPolicy::every(10, 64),
            ..Default::default()
        };
        let scrubbed = MappedNetwork::try_from_spec(&spec, cfg).unwrap();
        let model = EnduranceModel::research_grade();
        let l_base = training_lifetime(&base, &model);
        let l_scrub = training_lifetime(&scrubbed, &model);
        assert_eq!(l_base.scrub_pulses_per_image, 0.0);
        assert!(l_scrub.scrub_pulses_per_image > 0.0);
        // Scrubbing also throttles throughput, so *wall-clock* lifetime can
        // go either way; the invariant is that the device trains through
        // fewer images before wearing out (higher wear per image).
        let images = |l: &Lifetime| l.seconds.0 * l.updates_per_second * 64.0;
        assert!(images(&l_scrub) < images(&l_base));
    }

    #[test]
    fn unit_conversions() {
        let l = Lifetime {
            updates_per_second: 1.0,
            pulses_per_update: 1.0,
            scrub_pulses_per_image: 0.0,
            seconds: Seconds(86_400.0 * 365.25),
        };
        assert!((l.days() - 365.25).abs() < 1e-9);
        assert!((l.years() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_endurance() {
        let net = mapped(&zoo::spec_mnist_a());
        training_lifetime(&net, &EnduranceModel { write_cycles: 0.0 });
    }
}
