//! Minimal ND tensor library for the PipeLayer reproduction.
//!
//! This crate provides the dense `f32` tensor type and the numerical kernels
//! (GEMM, 2-D convolution forward/backward, pooling forward/backward) that the
//! CNN training framework ([`pipelayer-nn`]) and the functional ReRAM
//! simulation are built on. It is deliberately small: row-major storage,
//! owned buffers, no views/broadcasting beyond what the reproduction needs.
//!
//! # Example
//!
//! ```
//! use pipelayer_tensor::{Tensor, ops};
//!
//! // A 1x4x4 single-channel image convolved with one 3x3 kernel.
//! let img = Tensor::from_fn(&[1, 4, 4], |i| i[1] as f32 + i[2] as f32);
//! let w = Tensor::ones(&[1, 1, 3, 3]);
//! let b = Tensor::zeros(&[1]);
//! let out = ops::conv2d(&img, &w, &b, 1, 0);
//! assert_eq!(out.dims(), &[1, 2, 2]);
//! ```
//!
//! [`pipelayer-nn`]: ../pipelayer_nn/index.html

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

pub mod ops;
mod shape;
mod tensor;

pub use shape::Shape;
pub use tensor::Tensor;
