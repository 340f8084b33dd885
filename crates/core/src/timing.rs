//! The logical-cycle timing model (Sec. 3.1, Table 1).
//!
//! PipeLayer's pipeline advances in *logical cycles*; each logical cycle
//! must fit the longest sequence of operations any layer performs in any
//! phase (Table 1): memory read → spike → morphable array reads →
//! integrate-and-fire → activation → memory write. For a layer with
//! granularity `G` the forward phase performs `⌈P/G⌉` sequential array
//! reads, each taking `data_bits` spike slots of `t_read` (Sec. 4.2.1), and
//! then writes its outputs into the next memory subarray. Backward phases
//! (error convolution and partial-derivative computation, which run
//! concurrently in different arrays — Fig. 3, cycle T5) are costed the same
//! way.

use crate::mapping::{MappedLayer, MappedNetwork};
use pipelayer_reram::units::Nanoseconds;
use pipelayer_reram::ReramParams;

/// Computes phase and cycle durations for a mapped network.
#[derive(Debug, Clone, Copy)]
pub struct TimingModel<'a> {
    net: &'a MappedNetwork,
}

impl<'a> TimingModel<'a> {
    /// Creates a timing model over `net`.
    pub fn new(net: &'a MappedNetwork) -> Self {
        TimingModel { net }
    }

    fn params(&self) -> &ReramParams {
        &self.net.config.params
    }

    /// Time to write `words` 16-bit results into a memory subarray, ns.
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    fn mem_write_ns(&self, words: u64) -> Nanoseconds {
        let p = self.params();
        words.div_ceil(p.mem_write_width as u64) as f64 * p.write_latency_ns
    }

    /// Forward-phase duration of one layer, ns: array reads plus the
    /// buffer write of its outputs.
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn forward_phase_ns(&self, layer: &MappedLayer) -> Nanoseconds {
        let p = self.params();
        layer.reads_forward as f64 * p.read_phase_ns() + self.mem_write_ns(layer.out_words)
    }

    /// Backward-phase duration of one layer, ns. The error convolution and
    /// the gradient computation proceed in separate arrays (Fig. 3, T5) but
    /// both are driven from the same `δ` through spike drivers that are
    /// shared between adjacent subarrays (Sec. 4.2.1), and their input
    /// sequences differ (sliding windows vs channel vectors) — so their
    /// read phases serialise. The phase further pays the `δ` buffer write
    /// and the copy of the forward data `d` into morphable arrays for the
    /// gradient convolution (Sec. 6.6) — the "more intermediate data
    /// processing" that makes training slower than testing.
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn backward_phase_ns(&self, layer: &MappedLayer) -> Nanoseconds {
        let p = self.params();
        let err = layer.reads_error as f64 * p.read_phase_ns();
        let grad = layer.reads_gradient as f64 * p.read_phase_ns();
        let d_copy =
            layer.in_words.div_ceil(p.morphable_write_width as u64) as f64 * p.write_latency_ns;
        err + grad + self.mem_write_ns(layer.delta_words) + d_copy
    }

    /// Logical-cycle duration for testing (forward phases only), ns.
    pub fn cycle_testing_ns(&self) -> Nanoseconds {
        self.net
            .layers
            .iter()
            .map(|l| self.forward_phase_ns(l))
            .fold(Nanoseconds(0.0), Nanoseconds::max)
    }

    /// Logical-cycle duration for training (longest of all forward and
    /// backward phases), ns.
    pub fn cycle_training_ns(&self) -> Nanoseconds {
        self.net
            .layers
            .iter()
            .map(|l| self.forward_phase_ns(l).max(self.backward_phase_ns(l)))
            .fold(Nanoseconds(0.0), Nanoseconds::max)
    }

    /// The layer whose forward phase sets the testing cycle (index and
    /// duration) — the pipeline's bottleneck stage, useful when choosing
    /// where extra granularity pays off.
    pub fn bottleneck(&self) -> (usize, Nanoseconds) {
        self.net
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| (i, self.forward_phase_ns(l)))
            .max_by(|(_, a), (_, b)| a.0.total_cmp(&b.0))
            // MappedNetwork construction rejects zero-layer specs, so the
            // fallback is unreachable; it replaces a panic path all the same.
            .unwrap_or((0, Nanoseconds(0.0)))
    }

    /// Duration of the weight-update cycle at a batch boundary, ns: the
    /// averaged partial derivatives are read out with `1/B`-weighted spikes
    /// (Sec. 4.4.2; the read-out proceeds in parallel across the stored-`d`
    /// arrays of all layers), old weights are read, and the new weights are
    /// written back row-by-row — all arrays reprogram in parallel
    /// (Fig. 14b), so the cycle costs one read phase plus two row-serial
    /// array programming passes.
    ///
    /// With fault tolerance on, the write-back passes stretch by the
    /// expected pulse multiplier (verify retries re-pulse rows) and each
    /// programming attempt appends a row-serial verify read pass.
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn update_cycle_ns(&self) -> Nanoseconds {
        let p = self.params();
        let cfg = &self.net.config;
        let reprogram = p.xbar_size.get() as f64 * p.write_latency_ns;
        let verify_reads = cfg.verify_reads_per_cell_write() * p.read_phase_ns();
        2.0 * reprogram * cfg.write_pulse_multiplier() + p.read_phase_ns() + verify_reads
    }

    /// Amortised scrub time per processed image, ns: every
    /// `interval_images` images a pass walks `rows_per_pass` word lines
    /// row-serially (all mapped arrays scrub in parallel, like the update
    /// cycle's reprogramming), each row costing one verify-read phase plus
    /// the expected re-pulse fraction of a row-write. Exactly 0.0 with
    /// scrubbing off.
    pub fn scrub_ns_per_image(&self) -> Nanoseconds {
        let cfg = &self.net.config;
        if !cfg.scrub_enabled() {
            return Nanoseconds(0.0);
        }
        let p = self.params();
        let row_ns = p.read_phase_ns() + cfg.scrub.repulse_fraction * p.write_latency_ns;
        cfg.scrub.rows_per_image() * row_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipeLayerConfig;
    use crate::mapping::MappedNetwork;
    use pipelayer_nn::zoo;

    fn mapped(spec: &pipelayer_nn::NetSpec) -> MappedNetwork {
        MappedNetwork::try_from_spec(spec, PipeLayerConfig::default()).unwrap()
    }

    #[test]
    fn mlp_cycle_is_one_read_phase_plus_write() {
        let m = mapped(&zoo::spec_mnist_a());
        let t = TimingModel::new(&m);
        let p = m.config.params;
        // Mnist-A: 1 read phase (P=1) + 1 write pulse.
        let want = p.read_phase_ns() + p.write_latency_ns;
        assert!((t.cycle_testing_ns() - want).0.abs() < 1e-6);
    }

    #[test]
    fn training_cycle_at_least_testing_cycle() {
        for spec in [
            zoo::spec_mnist_0(),
            zoo::alexnet(),
            zoo::vgg(zoo::VggVariant::A),
        ] {
            let m = mapped(&spec);
            let t = TimingModel::new(&m);
            assert!(t.cycle_training_ns() >= t.cycle_testing_ns());
        }
    }

    #[test]
    fn larger_g_shortens_cycle() {
        let spec = zoo::vgg(zoo::VggVariant::A);
        let resolved = spec.resolve();
        let g1 = vec![1usize; resolved.len()];
        let m1 =
            MappedNetwork::try_with_granularity(&spec, &g1, PipeLayerConfig::default()).unwrap();
        let m_def = mapped(&spec);
        let c1 = TimingModel::new(&m1).cycle_testing_ns();
        let cd = TimingModel::new(&m_def).cycle_testing_ns();
        assert!(
            cd < c1 / 10.0,
            "replication should cut the cycle: {cd:?} vs {c1:?}"
        );
    }

    #[test]
    fn balanced_vgg_cycle_near_min_read_count() {
        // Default granularity balances conv layers to ~196 reads; the cycle
        // should be within small factors of 196 read phases.
        let m = mapped(&zoo::vgg(zoo::VggVariant::D));
        let t = TimingModel::new(&m);
        let p = m.config.params;
        let cycle = t.cycle_testing_ns();
        let reads = cycle / p.read_phase_ns();
        assert!(
            (150.0..800.0).contains(&reads),
            "cycle is {reads} read-phases, expected a balanced few hundred"
        );
    }

    #[test]
    fn bottleneck_is_the_max_phase() {
        let m = mapped(&zoo::vgg(zoo::VggVariant::A));
        let t = TimingModel::new(&m);
        let (idx, ns) = t.bottleneck();
        assert!((ns - t.cycle_testing_ns()).0.abs() < 1e-9);
        assert!(idx < m.layers.len());
    }

    #[test]
    fn update_cycle_positive_and_bounded() {
        let m = mapped(&zoo::alexnet());
        let t = TimingModel::new(&m);
        let u = t.update_cycle_ns();
        assert!(u > Nanoseconds(0.0));
        // The update must not dwarf the pipeline: it is one cycle per batch.
        assert!(u < 100.0 * t.cycle_training_ns());
    }

    #[test]
    fn scrub_time_is_exact_noop_when_off_and_costed_when_on() {
        use crate::scrub::ScrubPolicy;
        let m = mapped(&zoo::spec_mnist_a());
        assert_eq!(TimingModel::new(&m).scrub_ns_per_image(), Nanoseconds(0.0));

        let cfg = PipeLayerConfig {
            scrub: ScrubPolicy::every(100, 8),
            ..Default::default()
        };
        let scrubbed = MappedNetwork::try_from_spec(&zoo::spec_mnist_a(), cfg).unwrap();
        let t = TimingModel::new(&scrubbed);
        let p = scrubbed.config.params;
        let want = 8.0 / 100.0 * (p.read_phase_ns() + 0.05 * p.write_latency_ns);
        assert!((t.scrub_ns_per_image() - want).0.abs() < 1e-12);
        // Compute cycles are untouched — scrub steals no pipeline slots.
        assert_eq!(
            t.cycle_training_ns(),
            TimingModel::new(&m).cycle_training_ns()
        );
    }

    #[test]
    fn verify_retries_stretch_the_update_cycle() {
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
        let u_base = TimingModel::new(&base).update_cycle_ns();
        let u_ft = TimingModel::new(&ft).update_cycle_ns();
        assert!(u_ft > u_base, "{u_ft:?} vs {u_base:?}");
        // Forward timing is untouched: reads are not retried.
        assert_eq!(
            TimingModel::new(&ft).cycle_testing_ns(),
            TimingModel::new(&base).cycle_testing_ns()
        );
    }
}
