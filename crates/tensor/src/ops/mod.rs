//! Numerical kernels: GEMM, 2-D convolution (forward and both backward
//! passes), pooling, and the im2col lowering that turns a convolution into
//! a matrix product — the same lowering PipeLayer uses to map kernels onto
//! crossbar columns (Fig. 4 of the paper). The float convolution kernels
//! compute that product as an implicit GEMM, reading patch entries from a
//! padded copy of the input instead of building the patch matrix; the
//! functional ReRAM CNN still lowers through `im2col`.

mod conv;
mod gemm;
mod im2col;
mod lowered;
mod pool;

pub use conv::{
    conv2d, conv2d_backward_input, conv2d_backward_input_scalar, conv2d_backward_weights,
    conv2d_backward_weights_scalar, conv_output_len, rot180,
};
pub use gemm::{matmul, matmul_nt, matmul_tn, matvec, matvec_transposed, outer, outer_acc};
pub use im2col::{col2im, conv2d_im2col, im2col};
pub use lowered::{
    conv2d_backward_input_with, conv2d_backward_weights_with, conv2d_im2col_with, ConvScratch,
};
pub use pool::{
    avgpool2d, avgpool2d_backward, maxpool2d, maxpool2d_backward, pool_output_len, PoolIndices,
};
