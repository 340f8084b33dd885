//! # PipeLayer: a pipelined ReRAM-based accelerator for deep learning
//!
//! A from-scratch reproduction of *PipeLayer* (Song, Qian, Li, Chen —
//! HPCA 2017): a processing-in-memory CNN accelerator built from metal-oxide
//! ReRAM crossbars that supports **both training and testing**, with
//! intra-layer parallelism (parallelism granularity `G` + weight
//! replication, Sec. 3.2) and a stall-free inter-layer pipeline (Sec. 3.3).
//!
//! The crate models the accelerator at three levels:
//!
//! 1. **Analytical** ([`analysis`]) — the closed-form cycle/buffer/array
//!    formulas of Table 2 and Fig. 7.
//! 2. **Cycle-accurate** ([`pipeline`], [`nonpipelined`], [`buffers`]) — a
//!    schedule simulator that executes the training pipeline of Fig. 6
//!    event by event, checks every data dependency against the circular
//!    buffers of Fig. 8, and is validated against the analytical formulas.
//! 3. **Functional** ([`functional`]) — actual network training where every
//!    matrix–vector product runs through the `pipelayer-reram` crossbar
//!    datapath (spike coding, integrate-and-fire, 4-bit cells with
//!    resolution compensation).
//!
//! [`mapping`]/[`granularity`] translate a network description into arrays
//! (kernel mapping of Fig. 4/5, Table 5 defaults); [`timing`], [`energy`]
//! and [`area`] produce absolute time/energy/area; [`perf`] combines them
//! into the end-to-end estimates behind Figs. 15–18; [`api`] offers the
//! host-side programming interface of Sec. 5.2.
//!
//! # Quickstart
//!
//! ```
//! use pipelayer::api::Accelerator;
//! use pipelayer_nn::zoo;
//! use std::num::NonZeroUsize;
//!
//! // Configure PipeLayer for AlexNet training at default granularity.
//! let accel = Accelerator::builder(zoo::alexnet())
//!     .batch_size(NonZeroUsize::try_from(64)?)
//!     .build()?;
//! let est = accel.estimate_training(6400);
//! assert!(est.time_s.0 > 0.0 && est.energy_j.0 > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::disallowed_macros,
        clippy::cast_possible_truncation,
        clippy::cast_precision_loss,
        clippy::float_cmp,
        reason = "the library gate exempts test code: a failed assertion is how a test fails"
    )
)]

pub mod analysis;
pub mod api;
pub mod area;
pub mod buffers;
pub mod config;
pub mod controller;
pub mod endurance;
pub mod energy;
pub mod functional;
pub mod granularity;
pub mod mapping;
pub mod nonpipelined;
pub mod perf;
pub mod pipeline;
pub mod repair;
pub mod report;
pub mod scrub;
pub mod timing;
pub mod variation;

pub use api::Accelerator;
pub use config::{ConfigError, DatapathFormat, PipeLayerConfig};
pub use mapping::{MapError, MappedLayer, MappedNetwork};
pub use perf::RunEstimate;
pub use repair::{RepairController, RepairOutcome, RepairPolicy, SpareBudget};
pub use report::ConfigurationReport;
pub use scrub::{DriftReport, DriftSample, ScrubPolicy};
pub use variation::{ReramNoiseHook, VariationPoint};
