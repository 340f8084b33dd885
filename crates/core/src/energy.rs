//! Spike-level energy accounting for full runs (Fig. 16).
//!
//! Reads: every array-read phase injects up to `data_bits` spikes per word
//! line (half on average for random data), fanned across the column tiles
//! and the 8 crossbars (pos/neg × four segment groups) of each matrix copy.
//! Writes: intermediate data (`d`, `δ`) written into ReRAM memory subarrays
//! and morphable `d` copies — PipeLayer "writes all of data to ReRAM arrays"
//! (Sec. 6.6), which is why write energy dominates — plus the per-batch
//! weight reprogramming (Fig. 14b).

use crate::mapping::{MappedLayer, MappedNetwork};
use pipelayer_reram::units::Joules;
use pipelayer_reram::EnergyCounter;

/// Per-image energy decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Array-read spikes.
    pub reads_j_per_image: Joules,
    /// Intermediate-data writes (input, d, morphable copies, δ).
    pub data_writes_j_per_image: Joules,
    /// Weight reprogramming (amortised per image).
    pub weight_updates_j_per_image: Joules,
    /// Scrub scheduler: verify reads over scanned cells plus re-pulses
    /// (amortised per image; exactly 0.0 with scrubbing off).
    pub scrub_j_per_image: Joules,
}

impl EnergyBreakdown {
    /// Total per-image energy.
    pub fn total_j_per_image(&self) -> Joules {
        self.reads_j_per_image
            + self.data_writes_j_per_image
            + self.weight_updates_j_per_image
            + self.scrub_j_per_image
    }
}

/// Per-image / per-batch spike counts for a mapped network.
#[derive(Debug, Clone, Copy)]
pub struct EnergyModel<'a> {
    net: &'a MappedNetwork,
}

impl<'a> EnergyModel<'a> {
    /// Creates an energy model over `net`.
    pub fn new(net: &'a MappedNetwork) -> Self {
        EnergyModel { net }
    }

    /// Average read spikes one forward pass of `layer` injects per image:
    /// `P · rows · (bits/2) · col_tiles · 8`.
    fn forward_read_spikes(&self, layer: &MappedLayer) -> u64 {
        let p = &self.net.config.params;
        let col_tiles = layer.resolved.matrix_cols.div_ceil(p.xbar_size.get()) as u64;
        let positions = layer.resolved.window_positions.max(1) as u64;
        positions
            * layer.resolved.matrix_rows as u64
            * (p.data_bits as u64 / 2)
            * col_tiles
            * p.crossbars_per_matrix() as u64
    }

    /// Read spikes per image during testing.
    pub fn testing_read_spikes_per_image(&self) -> u64 {
        self.net
            .layers
            .iter()
            .map(|l| self.forward_read_spikes(l))
            .sum()
    }

    /// Words written to memory subarrays per image during testing:
    /// the staged input image (`d_0` enters via `Copy_to_PL`) plus each
    /// layer's outputs flowing into the next buffer.
    pub fn testing_write_words_per_image(&self) -> u64 {
        self.input_words() + self.net.layers.iter().map(|l| l.out_words).sum::<u64>()
    }

    /// Words of one input image.
    fn input_words(&self) -> u64 {
        let (c, h, w) = self.net.layers[0].resolved.in_shape;
        (c * h * w) as u64
    }

    /// Read spikes per image during training: forward, plus the error
    /// convolution (≈ one forward-equivalent, absent for layer 1) and the
    /// partial-derivative computation (≈ one forward-equivalent).
    pub fn training_read_spikes_per_image(&self) -> u64 {
        self.net
            .layers
            .iter()
            .enumerate()
            .map(|(idx, l)| {
                let fwd = self.forward_read_spikes(l);
                let err = if idx == 0 { 0 } else { fwd };
                fwd + err + fwd
            })
            .sum()
    }

    /// Words written per image during training: the staged input, each
    /// layer's `d` into the inter-layer buffer, the copy of its *input*
    /// data into morphable arrays for the gradient convolution (Fig. 12),
    /// and the `δ`s.
    pub fn training_write_words_per_image(&self) -> u64 {
        self.input_words()
            + self
                .net
                .layers
                .iter()
                .map(|l| l.out_words + l.in_words + l.delta_words)
                .sum::<u64>()
    }

    /// Programming spikes per weight update (once per batch). A tuning
    /// pulse moves a cell one conductance level; averaged SGD steps move
    /// most weights by at most one level of one segment, so the expected
    /// cost is about one pulse per stored cell — `cells_per_word` pulses
    /// per weight (full re-levelling would cost `cells_per_word × 2^bits`).
    pub fn update_write_spikes_per_batch(&self) -> u64 {
        let cells = self.net.config.params.cells_per_word() as u64;
        self.net
            .layers
            .iter()
            .map(|l| cells * l.resolved.weights as u64)
            .sum()
    }

    /// Programming spikes per weight update *including* program-and-verify
    /// retries: the ideal count scaled by the config's expected pulse
    /// multiplier (healthy-cell retry expectation plus budget burned on
    /// faulty cells). Equals the ideal count with fault tolerance off.
    #[expect(clippy::cast_possible_truncation, reason = "a rounded spike count ≥ 0")]
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn verified_update_write_spikes_per_batch(&self) -> u64 {
        (self.update_write_spikes_per_batch() as f64 * self.net.config.write_pulse_multiplier())
            .round() as u64
    }

    /// Verify-read spikes per weight update: one read-back per programming
    /// attempt on every written cell. Zero with fault tolerance off (the
    /// base model's write has no read-back).
    #[expect(clippy::cast_possible_truncation, reason = "a rounded spike count ≥ 0")]
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn update_verify_read_spikes_per_batch(&self) -> u64 {
        (self.update_write_spikes_per_batch() as f64
            * self.net.config.verify_reads_per_cell_write())
        .round() as u64
    }

    /// Cells one scrub pass reads back across all mapped matrices:
    /// `min(rows_per_pass, rows_l) · cols_l · cells_per_word` per layer
    /// (every cell on a scanned word line is probed once). Zero when
    /// scrubbing is off.
    pub fn scrub_cells_per_pass(&self) -> u64 {
        let cfg = &self.net.config;
        if !cfg.scrub_enabled() {
            return 0;
        }
        let cells = cfg.params.cells_per_word() as u64;
        self.net
            .layers
            .iter()
            .map(|l| {
                let rows = l.resolved.matrix_rows as u64;
                let scanned = rows.min(cfg.scrub.rows_per_pass as u64);
                scanned * l.resolved.matrix_cols as u64 * cells
            })
            .sum()
    }

    /// Verify-read spikes the scrub scheduler spends per processed image
    /// (a pass every `interval_images`, one probe read per scanned cell).
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn scrub_read_spikes_per_image(&self) -> f64 {
        self.scrub_cells_per_pass() as f64 * self.net.config.scrub.passes_per_image()
    }

    /// Re-programming pulses the scrub scheduler spends per processed
    /// image: the expected re-pulse fraction of the scanned cells.
    pub fn scrub_write_spikes_per_image(&self) -> f64 {
        self.scrub_read_spikes_per_image() * self.net.config.scrub.repulse_fraction
    }

    /// Scrub energy per processed image, joules. Exactly 0.0 when off,
    /// so baseline totals are bit-identical with scrubbing disabled.
    pub fn scrub_j_per_image(&self) -> Joules {
        let p = &self.net.config.params;
        (self.scrub_read_spikes_per_image() * p.read_energy_pj).to_joules()
            + (self.scrub_write_spikes_per_image() * p.write_energy_pj).to_joules()
    }

    /// Total testing energy for `n` images, joules.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[expect(clippy::disallowed_macros, reason = "caller bug: empty workload")]
    pub fn testing_energy_j(&self, n: u64) -> Joules {
        assert!(n > 0, "empty workload");
        let p = &self.net.config.params;
        let mut e = EnergyCounter::new();
        e.add_read_spikes(n * self.testing_read_spikes_per_image());
        e.add_word_writes(n * self.testing_write_words_per_image(), p);
        e.energy_joules(p)
    }

    /// Where the training energy goes, joules per image (plus the per-batch
    /// update amortised over the batch): array reads, intermediate-data
    /// writes, and weight reprogramming. The writes dominating is the
    /// Sec. 6.6 explanation for PipeLayer's power-efficiency deficit.
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn training_breakdown_j_per_image(&self) -> EnergyBreakdown {
        let p = &self.net.config.params;
        let b = self.net.config.batch_size.get() as f64;
        let reads = ((self.training_read_spikes_per_image() as f64
            + self.update_verify_read_spikes_per_batch() as f64 / b)
            * p.read_energy_pj)
            .to_joules();
        let writes = ((self.training_write_words_per_image() * p.cells_per_word() as u64) as f64
            * p.write_energy_pj)
            .to_joules();
        let update = (self.verified_update_write_spikes_per_batch() as f64 * p.write_energy_pj)
            .to_joules()
            / b;
        EnergyBreakdown {
            reads_j_per_image: reads,
            data_writes_j_per_image: writes,
            weight_updates_j_per_image: update,
            scrub_j_per_image: self.scrub_j_per_image(),
        }
    }

    /// Total training energy for `n` images, joules.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive multiple of the batch size.
    #[expect(clippy::disallowed_macros, reason = "caller bug: ragged workload")]
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn training_energy_j(&self, n: u64) -> Joules {
        let b = self.net.config.batch_size.get() as u64;
        assert!(
            n > 0 && n.is_multiple_of(b),
            "n must be a multiple of the batch size"
        );
        let p = &self.net.config.params;
        let mut e = EnergyCounter::new();
        e.add_read_spikes(n * self.training_read_spikes_per_image());
        e.add_read_spikes((n / b) * self.update_verify_read_spikes_per_batch());
        e.add_word_writes(n * self.training_write_words_per_image(), p);
        e.add_write_spikes((n / b) * self.verified_update_write_spikes_per_batch());
        // `+ 0.0` with scrub off: the baseline total stays bit-identical.
        e.energy_joules(p) + n as f64 * self.scrub_j_per_image()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipeLayerConfig;
    use crate::mapping::MappedNetwork;
    use pipelayer_nn::zoo;
    use std::num::NonZeroUsize;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    fn model_for(spec: &pipelayer_nn::NetSpec) -> MappedNetwork {
        MappedNetwork::try_from_spec(spec, PipeLayerConfig::default()).unwrap()
    }

    #[test]
    fn training_costs_more_than_testing() {
        let net = model_for(&zoo::spec_mnist_0());
        let e = EnergyModel::new(&net);
        assert!(e.training_energy_j(64) > e.testing_energy_j(64));
    }

    #[test]
    fn energy_linear_in_images() {
        let net = model_for(&zoo::alexnet());
        let e = EnergyModel::new(&net);
        let e1 = e.testing_energy_j(64);
        let e2 = e.testing_energy_j(128);
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn write_energy_dominates_training() {
        // Sec. 6.6: PipeLayer writes all data to ReRAM; with 3.91 nJ/write
        // vs 1.08 pJ/read the writes must dominate the training budget.
        let net = model_for(&zoo::alexnet());
        let e = EnergyModel::new(&net);
        let p = &net.config.params;
        let read_j = (e.training_read_spikes_per_image() as f64 * p.read_energy_pj).to_joules();
        let write_j = ((e.training_write_words_per_image() * p.cells_per_word() as u64) as f64
            * p.write_energy_pj)
            .to_joules();
        assert!(write_j > read_j, "write {write_j:?} vs read {read_j:?}");
    }

    #[test]
    fn larger_batch_amortises_update_energy() {
        let spec = zoo::spec_mnist_c();
        let small =
            MappedNetwork::try_from_spec(&spec, PipeLayerConfig::with_batch(nz(8))).unwrap();
        let large =
            MappedNetwork::try_from_spec(&spec, PipeLayerConfig::with_batch(nz(64))).unwrap();
        let e_small = EnergyModel::new(&small).training_energy_j(64);
        let e_large = EnergyModel::new(&large).training_energy_j(64);
        assert!(e_large < e_small);
    }

    #[test]
    fn deeper_vgg_costs_more() {
        let a = model_for(&zoo::vgg(zoo::VggVariant::A));
        let e_var = model_for(&zoo::vgg(zoo::VggVariant::E));
        assert!(
            EnergyModel::new(&e_var).testing_energy_j(64)
                > EnergyModel::new(&a).testing_energy_j(64)
        );
    }

    #[test]
    fn breakdown_sums_to_total() {
        let net = model_for(&zoo::spec_mnist_0());
        let e = EnergyModel::new(&net);
        let bd = e.training_breakdown_j_per_image();
        let total = e.training_energy_j(64) / 64.0;
        assert!(
            (bd.total_j_per_image() - total).0.abs() < 1e-9 * total.0,
            "breakdown {:?} vs total {total:?}",
            bd.total_j_per_image(),
        );
        // Writes dominate (Sec. 6.6).
        assert!(bd.data_writes_j_per_image > bd.reads_j_per_image);
    }

    #[test]
    #[should_panic(expected = "multiple of the batch")]
    fn training_rejects_partial_batch() {
        let net = model_for(&zoo::spec_mnist_a());
        EnergyModel::new(&net).training_energy_j(63);
    }

    #[test]
    fn scrub_energy_noop_when_off_and_reconciles_when_on() {
        use crate::scrub::ScrubPolicy;
        let spec = zoo::spec_mnist_0();
        let base = model_for(&spec);
        let e_base = EnergyModel::new(&base);
        assert_eq!(e_base.scrub_cells_per_pass(), 0);
        assert_eq!(e_base.scrub_j_per_image(), Joules(0.0));
        assert_eq!(
            e_base.training_breakdown_j_per_image().scrub_j_per_image,
            Joules(0.0)
        );

        let cfg = PipeLayerConfig {
            scrub: ScrubPolicy::every(50, 16),
            ..Default::default()
        };
        let scrubbed = MappedNetwork::try_from_spec(&spec, cfg).unwrap();
        let e = EnergyModel::new(&scrubbed);
        assert!(e.scrub_cells_per_pass() > 0);
        assert!(e.scrub_read_spikes_per_image() > 0.0);
        assert!(e.scrub_write_spikes_per_image() > 0.0);
        assert!(e.training_energy_j(64) > e_base.training_energy_j(64));

        // Breakdown still reconciles with the total under scrubbing.
        let bd = e.training_breakdown_j_per_image();
        assert!(bd.scrub_j_per_image > Joules(0.0));
        let total = e.training_energy_j(64) / 64.0;
        assert!((bd.total_j_per_image() - total).0.abs() < 1e-6 * total.0);
    }

    #[test]
    fn verify_retries_raise_training_energy() {
        use crate::repair::SpareBudget;
        use pipelayer_reram::{FaultModel, VerifyPolicy};
        let spec = zoo::spec_mnist_0();
        let base = model_for(&spec);
        let ft_cfg = PipeLayerConfig::default().with_fault_tolerance(
            FaultModel::with_stuck_rate(1e-3),
            VerifyPolicy {
                max_attempts: 5,
                write_sigma: 0.5,
            },
            SpareBudget::typical(),
        );
        let ft = MappedNetwork::try_from_spec(&spec, ft_cfg).unwrap();
        let e_base = EnergyModel::new(&base);
        let e_ft = EnergyModel::new(&ft);

        // Ideal pulse counts agree; verified counts diverge.
        assert_eq!(
            e_base.update_write_spikes_per_batch(),
            e_ft.update_write_spikes_per_batch()
        );
        assert_eq!(
            e_base.verified_update_write_spikes_per_batch(),
            e_base.update_write_spikes_per_batch(),
            "fault tolerance off: verified == ideal"
        );
        assert_eq!(e_base.update_verify_read_spikes_per_batch(), 0);
        assert!(
            e_ft.verified_update_write_spikes_per_batch() > e_ft.update_write_spikes_per_batch()
        );
        assert!(e_ft.update_verify_read_spikes_per_batch() > 0);
        assert!(e_ft.training_energy_j(64) > e_base.training_energy_j(64));

        // Breakdown still reconciles with the total under fault tolerance.
        let bd = e_ft.training_breakdown_j_per_image();
        let total = e_ft.training_energy_j(64) / 64.0;
        assert!((bd.total_j_per_image() - total).0.abs() < 1e-6 * total.0);
    }
}
