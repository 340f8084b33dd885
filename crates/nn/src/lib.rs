//! A from-scratch CNN training framework for the PipeLayer reproduction.
//!
//! PipeLayer (HPCA'17) accelerates *complete* deep-learning applications —
//! both the testing (inference) and the training phase with its weight
//! updates and data dependencies (Sec. 2.2 of the paper). To reproduce the
//! paper without Caffe or a GPU we need a real training framework: this crate
//! provides layers (convolution, pooling, inner product, ReLU), losses (L2
//! and softmax cross-entropy), mini-batch SGD with the paper's
//! accumulate-then-average weight-update semantics, the network zoo used in
//! the evaluation (AlexNet, VGG-A..E, the four MNIST networks of Table 3 and
//! the five resolution-study networks of Fig. 13), and procedurally generated
//! datasets standing in for MNIST/ImageNet.
//!
//! # Example: train a small MLP on the synthetic MNIST task
//!
//! ```
//! use pipelayer_nn::data::SyntheticMnist;
//! use pipelayer_nn::trainer::{Trainer, TrainConfig};
//! use pipelayer_nn::zoo;
//!
//! let data = SyntheticMnist::generate(600, 100, 42);
//! let mut net = zoo::mnist_a(1);
//! let report = Trainer::new(TrainConfig { epochs: 2, batch_size: 16, lr: 0.05, threads: 1 })
//!     .fit(&mut net, &data);
//! assert!(report.final_test_accuracy > 0.5);
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

pub mod data;
pub mod init;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod network;
pub mod optimizer;
pub mod serialize;
pub mod spec;
pub mod trainer;
pub mod zoo;

pub use layer::{Layer, LayerKind};
pub use loss::Loss;
pub use network::Network;
pub use optimizer::Optimizer;
pub use serialize::{CheckpointState, TrainCursor};
pub use spec::{LayerSpec, NetSpec};
pub use trainer::{CheckpointError, CheckpointPolicy, DeviceState, FitOutcome};
