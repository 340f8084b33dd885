//! Baseline platform models for the PipeLayer reproduction.
//!
//! The paper's baseline is a physical GTX 1080 running Caffe (Table 4), with
//! runtimes from `caffe time` and energy from `nvidia-smi`; Sec. 6.6 further
//! compares against DaDianNao and ISAAC, and Sec. 3.2.2 analyses ISAAC's
//! deep-pipeline stall behaviour. None of that hardware is available here,
//! so this crate provides calibrated analytical stand-ins (DESIGN.md §2):
//!
//! * [`gpu`] — a roofline + launch-overhead cost model of the GTX 1080,
//!   giving per-network training/testing time and energy;
//! * [`isaac`] — an ISAAC-style intra-layer tile pipeline with fill/drain
//!   and batch-boundary stalls, for the training-throughput comparison;
//! * [`dadiannao`] — published efficiency constants for the Sec. 6.6 table.

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

pub mod dadiannao;
pub mod gpu;
pub mod isaac;
pub mod peripherals;

pub use gpu::{GpuModel, GpuRun};
pub use isaac::IsaacModel;
