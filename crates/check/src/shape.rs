//! The PL00x shape diagnostics. [`NetSpec::try_resolve`] computes the
//! geometry with checked arithmetic and returns its first fault as a
//! [`ShapeError`]; this module gives that error its code and a fix-it hint,
//! so a bad workload is rejected before any tensor is allocated.

use crate::diag::{self, Diagnostic};
use pipelayer_nn::spec::{NetSpec, ShapeError};

/// The diagnostic `plcheck` reports for `net`'s shape error `err`.
pub fn diagnostic(net: &NetSpec, err: &ShapeError) -> Diagnostic {
    let (code, help) = match err {
        ShapeError::EmptyInput { .. } => (
            diag::SHAPE_EMPTY_INPUT,
            "every input dimension (channels, height, width) must be positive",
        ),
        ShapeError::ZeroKernelOrStride { .. } => (
            diag::SHAPE_ZERO_KERNEL_OR_STRIDE,
            "use k >= 1 and stride >= 1",
        ),
        ShapeError::ZeroOutputs { conv: true, .. } => (diag::SHAPE_ZERO_OUTPUTS, "set c_out >= 1"),
        ShapeError::ZeroOutputs { conv: false, .. } => (diag::SHAPE_ZERO_OUTPUTS, "set n_out >= 1"),
        ShapeError::WindowTooBig { pool: false, .. } => (
            diag::SHAPE_WINDOW_TOO_BIG,
            "shrink the kernel, add padding, or fix the upstream layer's output shape",
        ),
        ShapeError::WindowTooBig { pool: true, .. } => (
            diag::SHAPE_WINDOW_TOO_BIG,
            "shrink the pool window or fix the upstream layer's output shape",
        ),
        ShapeError::LeadingPool { .. } => (
            diag::SHAPE_LEADING_POOL,
            "pooling is folded into the preceding weighted layer (Sec. 4.2.3); \
             put a conv or fc layer first",
        ),
        ShapeError::SpatialAfterFc { .. } => (
            diag::SHAPE_SPATIAL_AFTER_FC,
            "put every conv and pool layer before the first fc layer; \
             nothing turns an fc output back into a feature map",
        ),
        ShapeError::NoWeightedLayers => (
            diag::SHAPE_NO_WEIGHTED_LAYERS,
            "add at least one conv or fc layer",
        ),
        ShapeError::Overflow { .. } => (
            diag::SHAPE_OVERFLOW,
            "shrink the input or the layer until every count fits in usize",
        ),
    };
    Diagnostic::error(
        code,
        format!("{}: {}", net.name, err.site()),
        err.to_string(),
        help,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipelayer_nn::spec::{LayerSpec, PoolKind};

    /// The shape pass's findings for `spec`: none, or the one diagnostic of
    /// its first fault.
    fn diags(spec: &NetSpec) -> Vec<Diagnostic> {
        spec.try_resolve()
            .err()
            .map(|e| diagnostic(spec, &e))
            .into_iter()
            .collect()
    }

    fn conv(k: usize, c_out: usize, stride: usize, pad: usize) -> LayerSpec {
        LayerSpec::Conv {
            k,
            c_out,
            stride,
            pad,
        }
    }

    fn pool(k: usize, stride: usize) -> LayerSpec {
        LayerSpec::Pool {
            k,
            stride,
            kind: PoolKind::Max,
        }
    }

    #[test]
    fn rejects_oversized_window() {
        let spec = NetSpec::new("bad", (1, 4, 4), vec![conv(7, 2, 1, 0)]);
        let report = diags(&spec);
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].code, diag::SHAPE_WINDOW_TOO_BIG);
    }

    #[test]
    fn rejects_leading_pool_and_zero_dims() {
        let spec = NetSpec::new("bad", (1, 8, 8), vec![pool(2, 2)]);
        assert_eq!(diags(&spec)[0].code, diag::SHAPE_LEADING_POOL);

        let spec = NetSpec::new("bad", (0, 8, 8), vec![LayerSpec::Fc { n_out: 4 }]);
        assert_eq!(diags(&spec)[0].code, diag::SHAPE_EMPTY_INPUT);

        let spec = NetSpec::new("bad", (1, 8, 8), vec![]);
        assert_eq!(diags(&spec)[0].code, diag::SHAPE_NO_WEIGHTED_LAYERS);
    }

    #[test]
    fn rejects_spatial_layer_after_fc() {
        // It used to resolve, and the float forward then panicked in the
        // convolution kernel.
        let spec = NetSpec::new(
            "bad",
            (1, 4, 4),
            vec![LayerSpec::Fc { n_out: 4 }, conv(1, 2, 1, 0)],
        );
        let d = &diags(&spec)[0];
        assert_eq!(
            [d.code, &*d.location, &*d.message, &*d.help],
            [
                "PL008",
                "bad: layer 1 (conv1x2)",
                "convolution follows an inner-product layer",
                "put every conv and pool layer before the first fc layer; \
                 nothing turns an fc output back into a feature map",
            ]
        );
        let spec = NetSpec::new(
            "bad",
            (1, 8, 8),
            vec![conv(3, 4, 1, 0), LayerSpec::Fc { n_out: 4 }, pool(1, 1)],
        );
        assert_eq!(diags(&spec)[0].code, diag::SHAPE_SPATIAL_AFTER_FC);
    }

    #[test]
    fn rejects_zero_stride_and_zero_outputs() {
        let spec = NetSpec::new("bad", (1, 8, 8), vec![conv(3, 4, 0, 0)]);
        assert_eq!(diags(&spec)[0].code, diag::SHAPE_ZERO_KERNEL_OR_STRIDE);

        let spec = NetSpec::new("bad", (1, 8, 8), vec![LayerSpec::Fc { n_out: 0 }]);
        assert_eq!(diags(&spec)[0].code, diag::SHAPE_ZERO_OUTPUTS);
    }

    #[test]
    fn downstream_mismatch_is_caught_where_it_happens() {
        // Pooling shrinks 8x8 to 2x2; the next conv's 3x3 window no longer
        // fits — exactly the class of bug that used to panic in `tensor`.
        let spec = NetSpec::new(
            "bad",
            (1, 8, 8),
            vec![conv(3, 4, 1, 0), pool(3, 3), conv(3, 8, 1, 0)],
        );
        let report = diags(&spec);
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].code, diag::SHAPE_WINDOW_TOO_BIG);
        assert!(report[0].location.contains("layer 2"));
    }

    #[test]
    fn overflow_is_an_error_in_every_profile() {
        // 2^66 input elements: a wrapped product once read as a clean
        // `ip0-2` layer in release builds.
        let spec = NetSpec::new(
            "huge",
            (1 << 33, 1 << 33, 1),
            vec![LayerSpec::Fc { n_out: 2 }],
        );
        let report = diags(&spec);
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].code, diag::SHAPE_OVERFLOW);
        assert_eq!(report[0].location, "huge: input");
    }

    /// `(code, location, message, help)` of every bad spec above, recorded
    /// from the checker before shape inference moved into
    /// `NetSpec::try_resolve`: the move must not change a byte.
    #[test]
    fn diagnostics_are_pinned_byte_for_byte() {
        let cases: Vec<(NetSpec, [&str; 4])> = vec![
            (
                NetSpec::new("bad", (1, 4, 4), vec![conv(7, 2, 1, 0)]),
                [
                    "PL002",
                    "bad: layer 0 (conv7x2)",
                    "window 7×7 (pad 0) does not fit the 4×4 input",
                    "shrink the kernel, add padding, or fix the upstream layer's output shape",
                ],
            ),
            (
                NetSpec::new("bad", (1, 8, 8), vec![pool(2, 2)]),
                [
                    "PL004",
                    "bad: layer 0 (pool2s2)",
                    "pooling precedes every weighted layer",
                    "pooling is folded into the preceding weighted layer (Sec. 4.2.3); \
                     put a conv or fc layer first",
                ],
            ),
            (
                NetSpec::new("bad", (0, 8, 8), vec![LayerSpec::Fc { n_out: 4 }]),
                [
                    "PL001",
                    "bad: input",
                    "input shape (0, 8, 8) has a zero dimension",
                    "every input dimension (channels, height, width) must be positive",
                ],
            ),
            (
                NetSpec::new("bad", (1, 8, 8), vec![]),
                [
                    "PL006",
                    "bad: network",
                    "no weighted layers: nothing to map onto crossbars",
                    "add at least one conv or fc layer",
                ],
            ),
            (
                NetSpec::new("bad", (1, 8, 8), vec![conv(3, 4, 0, 0)]),
                [
                    "PL003",
                    "bad: layer 0 (conv3x4)",
                    "kernel size 3 / stride 0 must both be positive",
                    "use k >= 1 and stride >= 1",
                ],
            ),
            (
                NetSpec::new("bad", (1, 8, 8), vec![LayerSpec::Fc { n_out: 0 }]),
                [
                    "PL005",
                    "bad: layer 0 (ip64-0)",
                    "inner-product layer with zero output neurons",
                    "set n_out >= 1",
                ],
            ),
            (
                NetSpec::new(
                    "bad",
                    (1, 8, 8),
                    vec![conv(3, 4, 1, 0), pool(3, 3), conv(3, 8, 1, 0)],
                ),
                [
                    "PL002",
                    "bad: layer 2 (conv3x8)",
                    "window 3×3 (pad 0) does not fit the 2×2 input",
                    "shrink the kernel, add padding, or fix the upstream layer's output shape",
                ],
            ),
            (
                NetSpec::new("bad", (1, 8, 8), vec![conv(0, 4, 1, 0)]),
                [
                    "PL003",
                    "bad: layer 0 (conv0x4)",
                    "kernel size 0 / stride 1 must both be positive",
                    "use k >= 1 and stride >= 1",
                ],
            ),
            (
                NetSpec::new("bad", (1, 8, 8), vec![conv(3, 0, 1, 0)]),
                [
                    "PL005",
                    "bad: layer 0 (conv3x0)",
                    "convolution with zero output channels",
                    "set c_out >= 1",
                ],
            ),
            (
                NetSpec::new("bad", (1, 8, 8), vec![conv(3, 4, 1, 0), pool(2, 0)]),
                [
                    "PL003",
                    "bad: layer 1 (pool2s0)",
                    "pool window 2 / stride 0 must both be positive",
                    "use k >= 1 and stride >= 1",
                ],
            ),
            (
                NetSpec::new("bad", (1, 8, 8), vec![conv(3, 4, 1, 0), pool(7, 1)]),
                [
                    "PL002",
                    "bad: layer 1 (pool7s1)",
                    "pool window 7×7 does not fit the 6×6 input",
                    "shrink the pool window or fix the upstream layer's output shape",
                ],
            ),
            (
                NetSpec::new("bad", (1, 8, 8), vec![pool(0, 0)]),
                [
                    "PL004",
                    "bad: layer 0 (pool0s0)",
                    "pooling precedes every weighted layer",
                    "pooling is folded into the preceding weighted layer (Sec. 4.2.3); \
                     put a conv or fc layer first",
                ],
            ),
        ];
        for (spec, [code, location, message, help]) in &cases {
            let report = diags(spec);
            assert_eq!(report.len(), 1, "{spec:?}");
            let d = &report[0];
            assert_eq!(
                (
                    d.code,
                    d.location.as_str(),
                    d.message.as_str(),
                    d.help.as_str()
                ),
                (*code, *location, *message, *help)
            );
        }
    }
}
