//! Functional training *through the ReRAM datapath* (Sec. 3.1, 4.3, 4.4).
//!
//! Every matrix–vector product — forward (`A_l`), error backward (`A_l2`
//! holding the reordered kernels) — runs through the `pipelayer-reram`
//! crossbar model: 16-bit spike-coded inputs, 4-bit cells with
//! positive/negative pairs and resolution compensation, exact
//! integrate-and-fire read-out. Weight updates follow Fig. 14(b): the old
//! weights are *read from the arrays*, the averaged partial derivatives are
//! subtracted, and the result is written back.
//!
//! Two executors:
//! * [`ReramMlp`] — multilayer perceptrons (the Table 3 Mnist-A/B/C class);
//! * [`ReramCnn`] — convolutional networks: conv layers run as the im2col
//!   window loop of Fig. 4 against crossbars holding the kernel matrix,
//!   max-pooling runs through the activation component's max register, and
//!   the error backward convolution uses arrays programmed with the
//!   rot180-reordered kernels of Fig. 11.
//!
//! These are fidelity proofs, not fast trainers — every spike slot of every
//! array read is simulated.

mod cnn;
mod mlp;

pub use cnn::ReramCnn;
pub use mlp::{downsample, ReramMlp, ReramMlpBuilder};
