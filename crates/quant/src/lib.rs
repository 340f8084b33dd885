//! Fixed-point quantization for the PipeLayer reproduction.
//!
//! ReRAM cells support only limited precision (Sec. 5.1 of the paper): the
//! default PipeLayer configuration stores 16-bit weights on 4-bit cells via
//! the resolution-compensation scheme of Fig. 14, which
//! `pipelayer_reram::ReramMatrix` runs. Fig. 13 studies the
//! accuracy cost of *reducing* the stored weight resolution from float down
//! to 2 bits on five networks (M-1, M-2, M-3, M-C, C-4).
//!
//! This crate provides:
//! * [`fixed`] — symmetric fixed-point quantizers for scalars and tensors;
//! * [`grid`] — exact integer-code grids plus the accumulator-width
//!   arithmetic behind the PL04x range analysis in `pipelayer-check`;
//! * [`qnetwork`] — whole-network weight quantization with snapshot/restore,
//!   and the resolution sweep that regenerates Fig. 13.
//!
//! # Example
//!
//! ```
//! use pipelayer_quant::fixed::Quantizer;
//!
//! let q = Quantizer::try_new(4)?;
//! // 4-bit symmetric: 15 levels; 0.1 maps to the nearest grid point.
//! let v = q.quantize_dequantize(0.1, 1.0);
//! assert!((v - 0.1).abs() <= 1.0 / 7.0 / 2.0 + 1e-6);
//! # Ok::<(), pipelayer_quant::QuantError>(())
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

pub mod fixed;
pub mod grid;
pub mod qat;
pub mod qnetwork;

pub use fixed::{QuantError, Quantizer};
pub use grid::{accumulator_bits_worst_case, bits_for_magnitude, QuantizedGrid};
pub use qat::{train_at_resolution, QatReport};
pub use qnetwork::{
    accuracy_quantized_datapath, quantize_network_weights, quantize_network_weights_per_channel,
    resolution_sweep, restore_params, snapshot_params,
};
