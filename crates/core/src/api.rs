//! The host-side programming interface of Sec. 5.2.
//!
//! The paper exposes PipeLayer through `Copy_to_PL` / `Copy_to_CPU` (data
//! movement), `Topology_set` (configure the `G` groups of arrays per
//! layer), `Weight_load` (program pretrained or initial weights),
//! `Pipeline_set` and finally `Train` / `Test`. [`Accelerator`] mirrors
//! that flow with a builder (`Topology_set` ≈ [`AcceleratorBuilder`]) and
//! snake-cased methods for the rest.
//!
//! Timing/energy/area estimates are available for every network in the
//! zoo; *functional* execution (actually running data through the modelled
//! crossbars) is available for MLPs and stride-1, max-pooling CNNs via the
//! [`functional`] datapath.
//!
//! [`functional`]: crate::functional

use crate::area::{testing_area, training_area, AreaModel};
use crate::config::PipeLayerConfig;
use crate::functional::{FunctionalError, ReramMlp};
use crate::granularity::{default_granularity, scale_lambda};
use crate::mapping::{MapError, MappedNetwork};
use crate::perf::{PerfModel, RunEstimate};
use crate::repair::SpareBudget;
use pipelayer_nn::spec::NetSpec;
use pipelayer_tensor::Tensor;
use std::error::Error;
use std::fmt;
use std::num::NonZeroUsize;

/// Errors from functional accelerator operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcceleratorError {
    /// The functional datapath cannot run this network.
    Functional(FunctionalError),
    /// `Weight_load` must run before `Train`/`Test`.
    WeightsNotLoaded,
    /// `Copy_to_PL` must stage data before `Train`/`Test`.
    NoStagedData,
    /// `Copy_to_PL` was given a different number of images and labels.
    LengthMismatch {
        /// Images offered.
        images: usize,
        /// Labels offered.
        labels: usize,
    },
}

impl fmt::Display for AcceleratorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcceleratorError::Functional(e) => write!(f, "functional execution: {e}"),
            AcceleratorError::WeightsNotLoaded => write!(f, "call weight_load before train/test"),
            AcceleratorError::NoStagedData => write!(f, "call copy_to_pl before train/test"),
            AcceleratorError::LengthMismatch { images, labels } => {
                write!(f, "copy_to_pl got {images} images but {labels} labels")
            }
        }
    }
}

impl Error for AcceleratorError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AcceleratorError::Functional(e) => Some(e),
            _ => None,
        }
    }
}

/// Builder implementing `Topology_set`/`Pipeline_set`.
#[derive(Debug, Clone)]
pub struct AcceleratorBuilder {
    spec: NetSpec,
    config: PipeLayerConfig,
    granularity: Option<Vec<usize>>,
    lambda: Option<f64>,
    pipelined: bool,
}

impl AcceleratorBuilder {
    /// Training batch size `B`.
    pub fn batch_size(mut self, b: NonZeroUsize) -> Self {
        self.config.batch_size = b;
        self
    }

    /// The whole configuration: device parameters, the device model
    /// (faults, drift, noise, wear) that [`Accelerator::weight_load`]
    /// builds the arrays with, and the verify, spare, scrub and repair
    /// knobs. Replaces a batch size set earlier. [`build`](Self::build)
    /// checks it through [`PipeLayerConfig::validate`].
    pub fn config(mut self, config: PipeLayerConfig) -> Self {
        self.config = config;
        self
    }

    /// Explicit per-layer parallelism granularity (`Topology_set`'s `G`).
    pub fn granularity(mut self, g: Vec<usize>) -> Self {
        self.granularity = Some(g);
        self
    }

    /// Scale the default granularity by λ (Fig. 17/18 sweeps).
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda = Some(lambda);
        self
    }

    /// Enable or disable the inter-layer pipeline (`Pipeline_set`).
    pub fn pipelined(mut self, on: bool) -> Self {
        self.pipelined = on;
        self
    }

    /// Finalises the configuration and maps the network onto arrays.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::InvalidLambda`] for a negative or non-finite λ,
    /// and any error of [`MappedNetwork::try_with_granularity`] (geometry
    /// that does not resolve, invalid config, bad explicit granularity).
    pub fn build(self) -> Result<Accelerator, MapError> {
        if let Some(lambda) = self.lambda.filter(|l| !(l.is_finite() && *l >= 0.0)) {
            return Err(MapError::InvalidLambda(lambda));
        }
        let resolved = self.spec.try_resolve()?;
        let g = match (self.granularity, self.lambda) {
            (Some(g), _) => g,
            (None, Some(lambda)) => {
                scale_lambda(&default_granularity(&resolved), lambda, &resolved)
            }
            (None, None) => default_granularity(&resolved),
        };
        let mapped = MappedNetwork::try_from_resolved(&self.spec, resolved, &g, self.config)?;
        Ok(Accelerator {
            spec: self.spec,
            mapped,
            pipelined: self.pipelined,
            mlp: None,
            staged_images: Vec::new(),
            staged_labels: Vec::new(),
        })
    }
}

/// A configured PipeLayer instance.
pub struct Accelerator {
    spec: NetSpec,
    mapped: MappedNetwork,
    pipelined: bool,
    mlp: Option<ReramMlp>,
    staged_images: Vec<Tensor>,
    staged_labels: Vec<usize>,
}

impl Accelerator {
    /// Starts configuring an accelerator for `spec` (Sec. 5.2's
    /// `Topology_set` flow).
    pub fn builder(spec: NetSpec) -> AcceleratorBuilder {
        AcceleratorBuilder {
            spec,
            config: PipeLayerConfig::default(),
            granularity: None,
            lambda: None,
            pipelined: true,
        }
    }

    /// The mapped network (arrays, granularity, tiles).
    pub fn mapped(&self) -> &MappedNetwork {
        &self.mapped
    }

    /// The network description.
    pub fn spec(&self) -> &NetSpec {
        &self.spec
    }

    /// Whether the inter-layer pipeline is enabled.
    pub fn is_pipelined(&self) -> bool {
        self.pipelined
    }

    /// Estimated training run for `n` images.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive multiple of the batch size.
    pub fn estimate_training(&self, n: u64) -> RunEstimate {
        PerfModel::new(&self.mapped).training(n, self.pipelined)
    }

    /// Estimated testing run for `n` images.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn estimate_testing(&self, n: u64) -> RunEstimate {
        PerfModel::new(&self.mapped).testing(n, self.pipelined)
    }

    /// Builds a full configuration report (mapping, timing, energy, area,
    /// efficiency) over a probe workload of `n` images.
    pub fn report(&self, n: u64) -> crate::report::ConfigurationReport {
        crate::report::ConfigurationReport::build(&self.mapped, n)
    }

    /// Die area of the training deployment, mm².
    pub fn training_area_mm2(&self) -> f64 {
        training_area(&self.mapped, &AreaModel::default()).mm2
    }

    /// Die area of a testing-only deployment, mm².
    pub fn testing_area_mm2(&self) -> f64 {
        testing_area(&self.mapped, &AreaModel::default()).mm2
    }

    /// `Copy_to_PL`: stages labelled images in accelerator memory.
    ///
    /// # Errors
    ///
    /// [`AcceleratorError::LengthMismatch`], staging nothing, unless there
    /// is one label per image.
    pub fn copy_to_pl(
        &mut self,
        images: Vec<Tensor>,
        labels: Vec<usize>,
    ) -> Result<(), AcceleratorError> {
        if images.len() != labels.len() {
            return Err(AcceleratorError::LengthMismatch {
                images: images.len(),
                labels: labels.len(),
            });
        }
        self.staged_images = images;
        self.staged_labels = labels;
        Ok(())
    }

    /// `Weight_load`: programs initial weights into the morphable arrays,
    /// building the functional network from the spec on the arrays the
    /// config describes: its device model and repair ladder always, and
    /// its verify/spare and scrub knobs where they depart from the
    /// defaults, so a default config builds ideal, fire-and-forget arrays.
    ///
    /// # Errors
    ///
    /// [`AcceleratorError::Functional`] for a network the functional
    /// datapath cannot run (a strided convolution, average pooling).
    pub fn weight_load(&mut self, seed: u64) -> Result<(), AcceleratorError> {
        let cfg = &self.mapped.config;
        let mut builder = ReramMlp::from_spec(&self.spec, &cfg.params, seed)
            .map_err(AcceleratorError::Functional)?
            .device(cfg.device)
            .repair_policy(cfg.repair);
        if cfg.fault_tolerance_enabled() || cfg.spares != SpareBudget::none() {
            builder = builder.fault_tolerance(cfg.verify, cfg.spares);
        }
        if cfg.scrub_enabled() {
            builder = builder.scrub(cfg.scrub, cfg.verify);
        }
        self.mlp = Some(builder.build());
        Ok(())
    }

    /// `Train`: runs `epochs` of mini-batch SGD on the staged data through
    /// the ReRAM datapath. Returns the final mean batch loss.
    ///
    /// # Errors
    ///
    /// Fails if weights are not loaded or no data is staged.
    pub fn train(&mut self, epochs: usize, lr: f32) -> Result<f32, AcceleratorError> {
        if self.staged_images.is_empty() {
            return Err(AcceleratorError::NoStagedData);
        }
        let mlp = self
            .mlp
            .as_mut()
            .ok_or(AcceleratorError::WeightsNotLoaded)?;
        let b = self.mapped.config.batch_size.get();
        let mut last = 0.0;
        for _ in 0..epochs.max(1) {
            let batches = self
                .staged_images
                .chunks(b)
                .zip(self.staged_labels.chunks(b));
            for (images, labels) in batches {
                last = mlp.train_batch(images, labels, lr);
            }
        }
        Ok(last)
    }

    /// `Test`: classifies the staged images; results stay on-accelerator
    /// until [`copy_to_cpu`](Self::copy_to_cpu).
    ///
    /// # Errors
    ///
    /// Fails if weights are not loaded or no data is staged.
    pub fn test(&mut self) -> Result<Vec<usize>, AcceleratorError> {
        if self.staged_images.is_empty() {
            return Err(AcceleratorError::NoStagedData);
        }
        let mlp = self
            .mlp
            .as_mut()
            .ok_or(AcceleratorError::WeightsNotLoaded)?;
        let predict = |t: &Tensor| mlp.predict(t.as_slice());
        Ok(self.staged_images.iter().map(predict).collect())
    }

    /// `Copy_to_CPU`: returns (a copy of) the staged labels — the host-side
    /// readback path.
    pub fn copy_to_cpu(&self) -> Vec<usize> {
        self.staged_labels.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::downsample;
    use pipelayer_nn::data::SyntheticMnist;
    use pipelayer_nn::zoo;

    #[test]
    fn builder_defaults() {
        let acc = Accelerator::builder(zoo::alexnet()).build().unwrap();
        assert!(acc.is_pipelined());
        assert_eq!(acc.mapped().config.batch_size.get(), 64);
        assert_eq!(acc.mapped().weighted_layers().get(), 8);
    }

    #[test]
    fn lambda_controls_arrays() {
        let small = Accelerator::builder(zoo::vgg(zoo::VggVariant::A))
            .lambda(0.25)
            .build()
            .unwrap();
        let big = Accelerator::builder(zoo::vgg(zoo::VggVariant::A))
            .lambda(4.0)
            .build()
            .unwrap();
        assert!(big.training_area_mm2() > small.training_area_mm2());
        assert!(big.estimate_testing(640).time_s < small.estimate_testing(640).time_s);
    }

    #[test]
    fn functional_flow_on_mlp() {
        let data = SyntheticMnist::generate(60, 20, 9);
        // A small custom MLP spec over downsampled 7x7 inputs.
        let spec = pipelayer_nn::NetSpec::new(
            "tiny-mlp",
            (1, 7, 7),
            vec![
                pipelayer_nn::LayerSpec::Fc { n_out: 12 },
                pipelayer_nn::LayerSpec::Fc { n_out: 10 },
            ],
        );
        let mut acc = Accelerator::builder(spec)
            .batch_size(NonZeroUsize::new(10).unwrap())
            .build()
            .unwrap();
        let images: Vec<_> = data.train.images.iter().map(|t| downsample(t, 4)).collect();
        acc.copy_to_pl(images, data.train.labels.clone()).unwrap();
        acc.weight_load(3).expect("MLP loads");
        let loss1 = acc.train(1, 0.3).expect("train");
        let loss5 = acc.train(3, 0.3).expect("train more");
        assert!(loss5 < loss1, "loss should fall: {loss1} -> {loss5}");
        let preds = acc.test().expect("test");
        assert_eq!(preds.len(), 60);
    }

    #[test]
    fn copy_to_pl_rejects_mismatched_lengths() {
        let mut acc = Accelerator::builder(zoo::spec_mnist_a()).build().unwrap();
        let image = Tensor::zeros(&[1, 28, 28]);
        assert_eq!(
            acc.copy_to_pl(vec![image.clone(); 2], vec![1]),
            Err(AcceleratorError::LengthMismatch {
                images: 2,
                labels: 1
            })
        );
        let e = acc.copy_to_pl(Vec::new(), vec![0]).unwrap_err();
        assert_eq!(e.to_string(), "copy_to_pl got 0 images but 1 labels");
        // Nothing was staged.
        acc.weight_load(0).unwrap();
        assert_eq!(acc.test(), Err(AcceleratorError::NoStagedData));
        acc.copy_to_pl(vec![image], vec![1]).unwrap();
        assert_eq!(acc.test().unwrap().len(), 1);
    }

    /// A 7×7 MLP and four batches of ten downsampled images.
    fn tiny_task() -> (NetSpec, Vec<Tensor>, Vec<usize>) {
        use pipelayer_nn::LayerSpec;
        let data = SyntheticMnist::generate(40, 1, 11);
        let spec = NetSpec::new(
            "tiny-mlp",
            (1, 7, 7),
            vec![LayerSpec::Fc { n_out: 12 }, LayerSpec::Fc { n_out: 10 }],
        );
        let images = data.train.images.iter().map(|t| downsample(t, 4)).collect();
        (spec, images, data.train.labels)
    }

    /// The device configs `weight_load` is checked under, each with the
    /// network its builder chain builds from `seed`: faults with verify and
    /// spares, drift and noise with scrub, wear with the laddered repair,
    /// and the edge values `validate` accepts (no conductance window, no
    /// write budget).
    fn device_configs(spec: &NetSpec, seed: u64) -> Vec<(&'static str, PipeLayerConfig, ReramMlp)> {
        use crate::repair::RepairPolicy;
        use crate::scrub::ScrubPolicy;
        use pipelayer_reram::{DeviceModel, DriftModel, FaultModel, NoiseModel};
        use pipelayer_reram::{VerifyPolicy, WearModel};
        let ideal = DeviceModel::ideal();
        let verify = VerifyPolicy {
            max_attempts: 3,
            write_sigma: 0.3,
        };
        let spares = SpareBudget::with_cols(2);
        let faults = FaultModel::with_stuck_rate(0.02);
        let aging = ideal
            .with_drift(DriftModel {
                nu: 0.1,
                nu_sigma: 0.05,
                t0_cycles: 5,
                disturb_per_level: 40,
            })
            .with_noise(NoiseModel::with_strength(0.5));
        let scrub = ScrubPolicy::every(15, 4);
        let wear = ideal.with_wear(WearModel::with_endurance(30.0));
        let no_budget = ideal.with_wear(WearModel {
            median_writes: 0.0,
            sigma: 0.5,
        });

        let base = PipeLayerConfig::with_batch(NonZeroUsize::new(10).unwrap());
        let faulty = base.with_fault_tolerance(faults, verify, spares);
        let mut aged = base;
        aged.device = aging;
        aged.scrub = scrub;
        let mut worn = base.with_fault_tolerance(FaultModel::ideal(), verify, spares);
        worn.device = wear;
        worn.repair = RepairPolicy::laddered();
        let mut budgetless = base;
        budgetless.device = no_budget;
        budgetless.repair = RepairPolicy::laddered();

        let chain = || ReramMlp::from_spec(spec, &base.params, seed).unwrap();
        vec![
            (
                "faults + verify + spares",
                faulty,
                chain()
                    .device(ideal.with_faults(faults))
                    .fault_tolerance(verify, spares)
                    .build(),
            ),
            (
                "drift + noise + scrub",
                aged,
                chain()
                    .device(aging)
                    .scrub(scrub, VerifyPolicy::default())
                    .build(),
            ),
            (
                "wear + laddered repair",
                worn,
                chain()
                    .device(wear)
                    .fault_tolerance(verify, spares)
                    .repair_policy(RepairPolicy::laddered())
                    .build(),
            ),
            (
                "wear with median_writes = 0",
                budgetless,
                chain()
                    .device(no_budget)
                    .repair_policy(RepairPolicy::laddered())
                    .build(),
            ),
        ]
    }

    /// Trains `acc` one staged batch per `train` call, and `mlp` on the
    /// same batches, and checks that losses, device state, spike counters
    /// and predictions agree bit for bit.
    fn assert_trains_like(name: &str, acc: &mut Accelerator, mut mlp: ReramMlp) {
        let (_, images, labels) = tiny_task();
        for (x, y) in images.chunks(10).zip(labels.chunks(10)) {
            acc.copy_to_pl(x.to_vec(), y.to_vec()).unwrap();
            let got = acc.train(1, 0.3).unwrap();
            let want = mlp.train_batch(x, y, 0.3);
            assert_eq!(got.to_bits(), want.to_bits(), "{name}: loss");
        }
        let same_state = |acc: &Accelerator, mlp: &ReramMlp, when: &str| {
            let trained = acc.mlp.as_ref().unwrap();
            let state = trained.device_state() == mlp.device_state();
            assert!(state, "{name}: device state after {when}");
            let spikes = (trained.read_spikes(), trained.write_spikes());
            assert_eq!(
                spikes,
                (mlp.read_spikes(), mlp.write_spikes()),
                "{name}: {when}"
            );
        };
        same_state(acc, &mlp, "train");
        acc.copy_to_pl(images.clone(), labels).unwrap();
        let preds = acc.test().unwrap();
        let want: Vec<usize> = images.iter().map(|t| mlp.predict(t.as_slice())).collect();
        assert_eq!(preds, want, "{name}: predictions");
        same_state(acc, &mlp, "test");
    }

    #[test]
    fn default_config_trains_like_the_ideal_network() {
        let (spec, ..) = tiny_task();
        let mut acc = Accelerator::builder(spec.clone())
            .batch_size(NonZeroUsize::new(10).unwrap())
            .build()
            .unwrap();
        acc.weight_load(5).unwrap();
        let params = acc.mapped().config.params;
        let mlp = ReramMlp::from_spec(&spec, &params, 5).unwrap().build();
        assert_trains_like("default", &mut acc, mlp);
    }

    /// `Train` runs on the arrays the config describes: each device config
    /// trains exactly like the builder chain it stands for.
    #[test]
    fn device_configs_train_like_their_builder_chains() {
        let (spec, ..) = tiny_task();
        for (name, cfg, mlp) in device_configs(&spec, 9) {
            assert_eq!(cfg.validate(), Ok(()), "{name}");
            let mut acc = Accelerator::builder(spec.clone())
                .config(cfg)
                .build()
                .unwrap();
            acc.weight_load(9).unwrap();
            assert_trains_like(name, &mut acc, mlp);
        }
    }

    #[test]
    fn stride_one_conv_nets_load_functionally() {
        let mut acc = Accelerator::builder(zoo::spec_mnist_0()).build().unwrap();
        acc.weight_load(0)
            .expect("Mnist-0 (stride-1 convs, max pooling) loads");
        let image = Tensor::from_fn(&[1, 28, 28], |i| ((i[1] * 28 + i[2]) as f32 * 0.01).sin());
        acc.copy_to_pl(vec![image], vec![3]).unwrap();
        assert_eq!(acc.test().expect("test").len(), 1);
    }

    #[test]
    fn strided_conv_nets_reject_functional_but_estimate() {
        use crate::functional::FunctionalError;
        let mut acc = Accelerator::builder(zoo::alexnet()).build().unwrap();
        let Err(AcceleratorError::Functional(FunctionalError::StridedConv { at, stride })) =
            acc.weight_load(0)
        else {
            panic!("AlexNet's strided conv must be rejected");
        };
        assert_eq!((at.index, at.name.as_str(), stride), (0, "conv11x96", 4));
        let est = acc.estimate_training(64);
        assert!(est.time_s.0 > 0.0);
    }

    #[test]
    fn train_without_data_errors() {
        let mut acc = Accelerator::builder(zoo::spec_mnist_a()).build().unwrap();
        acc.weight_load(0).unwrap();
        assert_eq!(acc.train(1, 0.1), Err(AcceleratorError::NoStagedData));
    }

    #[test]
    fn build_rejects_bad_lambda_and_granularity() {
        for lambda in [-1.0, f64::NAN, f64::INFINITY] {
            let err = Accelerator::builder(zoo::spec_mnist_a())
                .lambda(lambda)
                .build();
            assert!(matches!(err, Err(MapError::InvalidLambda(_))));
        }
        let ok = Accelerator::builder(zoo::spec_mnist_a())
            .lambda(0.0)
            .build();
        assert!(ok.is_ok(), "λ = 0 floors every G at 1");
        let err = Accelerator::builder(zoo::spec_mnist_a())
            .granularity(vec![1])
            .build();
        assert!(matches!(err, Err(MapError::GranularityLength { .. })));
    }

    #[test]
    fn build_rejects_geometry_that_does_not_resolve() {
        use pipelayer_nn::spec::ShapeError;
        use pipelayer_nn::LayerSpec;
        // A 5×5 window over a 3×3 input used to panic inside `resolve`.
        let conv = LayerSpec::Conv {
            k: 5,
            c_out: 2,
            stride: 1,
            pad: 0,
        };
        let misfit = NetSpec::new("misfit", (1, 3, 3), vec![conv]);
        for lambda in [None, Some(2.0)] {
            let mut builder = Accelerator::builder(misfit.clone());
            if let Some(lambda) = lambda {
                builder = builder.lambda(lambda);
            }
            let err = builder.build().map(|_| ()).unwrap_err();
            assert!(matches!(
                err,
                MapError::Shape(ShapeError::WindowTooBig { .. })
            ));
            assert!(err.to_string().contains("layer 0 (conv5x2)"), "{err}");
        }
    }

    #[test]
    fn error_messages_are_informative() {
        let mut acc = Accelerator::builder(zoo::alexnet()).build().unwrap();
        let e = acc.weight_load(0).unwrap_err();
        assert!(e.to_string().contains("layer 0 (conv11x96)"), "{e}");
        assert!(e.source().is_some(), "the functional error is the source");
    }
}
