//! Architecture-level network descriptions.
//!
//! The accelerator model in the `pipelayer` crate never needs to *execute*
//! AlexNet or VGG — it needs their geometry: layer shapes, kernel-matrix
//! dimensions, the number of kernel-window positions per layer (the
//! sequential-input count of Fig. 4), and operation counts. [`NetSpec`]
//! captures exactly that, and [`NetSpec::build`] can also instantiate a
//! functional [`Network`] for the MNIST-scale models.
//!
//! [`Network`]: crate::Network
//!
//! Pooling is *folded into the preceding weighted layer*: in PipeLayer, max
//! pooling is performed by the register in the activation component
//! (Sec. 4.2.3) and its error backward is routed by the same component
//! (Sec. 4.3, Fig. 10b), so a pool never occupies a pipeline stage of its
//! own. `L` in the paper's cycle formulas counts *weighted* layers.

use crate::layers::{AvgPool2d, Conv2d, Flatten, Linear, MaxPool2d, Relu};
use crate::loss::Loss;
use crate::network::Network;
use rand::Rng;

/// Pooling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Max pooling (register in the activation component).
    Max,
    /// Average pooling (shift-add when `K²` is a power of two).
    Avg,
}

/// One layer of a network description, in the paper's notation
/// (`ConvKxC`, pooling, `N1-N2` inner product).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerSpec {
    /// Convolution with `c_out` kernels of spatial size `k×k`, followed by
    /// ReLU.
    Conv {
        /// Kernel spatial size `K`.
        k: usize,
        /// Output channels.
        c_out: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// Pooling over `k×k` windows with stride `stride`.
    Pool {
        /// Window size.
        k: usize,
        /// Stride.
        stride: usize,
        /// Max or average.
        kind: PoolKind,
    },
    /// Inner-product layer to `n_out` neurons, followed by ReLU unless it is
    /// the network's final layer.
    Fc {
        /// Output neurons.
        n_out: usize,
    },
}

/// A complete network description: input geometry plus layer list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetSpec {
    /// Network name as used in the paper's figures (e.g. `"VGG-C"`).
    pub name: String,
    /// Input `(channels, height, width)`.
    pub input: (usize, usize, usize),
    /// Ordered layers.
    pub layers: Vec<LayerSpec>,
}

/// A layer of a [`NetSpec`]: its index into [`NetSpec::layers`] and its
/// name (`convKxC`, `poolKsS` or `ipM-N`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerAt {
    /// Index into [`NetSpec::layers`].
    pub index: usize,
    /// Layer name.
    pub name: String,
}

/// Why a [`NetSpec`] has no valid geometry: the first fault
/// [`NetSpec::try_resolve`] meets, walking the layers in order. `Display`
/// gives the message and [`site`](Self::site) where it sits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// An input dimension is zero.
    EmptyInput {
        /// The input `(C, H, W)`.
        input: (usize, usize, usize),
    },
    /// A convolution or pooling window has zero size or zero stride.
    ZeroKernelOrStride {
        /// The layer.
        at: LayerAt,
        /// `true` for a pooling layer, `false` for a convolution.
        pool: bool,
        /// Window size.
        k: usize,
        /// Stride.
        stride: usize,
    },
    /// A weighted layer has zero output channels or neurons.
    ZeroOutputs {
        /// The layer.
        at: LayerAt,
        /// `true` for a convolution, `false` for an inner product.
        conv: bool,
    },
    /// A convolution or pooling window does not fit its padded input.
    WindowTooBig {
        /// The layer.
        at: LayerAt,
        /// `true` for a pooling layer, `false` for a convolution.
        pool: bool,
        /// Window size.
        k: usize,
        /// Zero padding on each side.
        pad: usize,
        /// The unpadded input `(H, W)`.
        input: (usize, usize),
    },
    /// A pooling layer precedes every weighted layer, so there is no layer
    /// to fold it into (Sec. 4.2.3).
    LeadingPool {
        /// The layer.
        at: LayerAt,
    },
    /// A convolution or pooling layer follows an inner-product layer: the
    /// float network has no layer that turns a vector back into a
    /// `[C, H, W]` map.
    SpatialAfterFc {
        /// The layer.
        at: LayerAt,
        /// `true` for a pooling layer, `false` for a convolution.
        pool: bool,
    },
    /// The network has no conv or inner-product layer to map.
    NoWeightedLayers,
    /// An element count, kernel-matrix size, weight count or operation
    /// count does not fit in `usize`.
    Overflow {
        /// The layer; `None` for the input's element count.
        at: Option<LayerAt>,
    },
}

impl ShapeError {
    /// Where the fault sits: `"input"`, `"network"` or
    /// `"layer 2 (conv3x8)"`.
    pub fn site(&self) -> String {
        match self {
            ShapeError::EmptyInput { .. } | ShapeError::Overflow { at: None } => "input".into(),
            ShapeError::NoWeightedLayers => "network".into(),
            ShapeError::ZeroKernelOrStride { at, .. }
            | ShapeError::ZeroOutputs { at, .. }
            | ShapeError::WindowTooBig { at, .. }
            | ShapeError::LeadingPool { at }
            | ShapeError::SpatialAfterFc { at, .. }
            | ShapeError::Overflow { at: Some(at) } => format!("layer {} ({})", at.index, at.name),
        }
    }
}

impl core::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ShapeError::EmptyInput { input: (c, h, w) } => {
                write!(f, "input shape ({c}, {h}, {w}) has a zero dimension")
            }
            ShapeError::ZeroKernelOrStride {
                pool, k, stride, ..
            } => {
                let what = if *pool { "pool window" } else { "kernel size" };
                write!(f, "{what} {k} / stride {stride} must both be positive")
            }
            ShapeError::ZeroOutputs { conv: true, .. } => {
                f.write_str("convolution with zero output channels")
            }
            ShapeError::ZeroOutputs { conv: false, .. } => {
                f.write_str("inner-product layer with zero output neurons")
            }
            ShapeError::WindowTooBig {
                pool,
                k,
                pad,
                input: (h, w),
                ..
            } => {
                if *pool {
                    write!(f, "pool window {k}×{k} does not fit the {h}×{w} input")
                } else {
                    write!(
                        f,
                        "window {k}×{k} (pad {pad}) does not fit the {h}×{w} input"
                    )
                }
            }
            ShapeError::LeadingPool { .. } => f.write_str("pooling precedes every weighted layer"),
            ShapeError::SpatialAfterFc { pool, .. } => {
                let what = if *pool { "pooling" } else { "convolution" };
                write!(f, "{what} follows an inner-product layer")
            }
            ShapeError::NoWeightedLayers => {
                f.write_str("no weighted layers: nothing to map onto crossbars")
            }
            ShapeError::Overflow { .. } => {
                f.write_str("an element, kernel-matrix, weight or operation count overflows usize")
            }
        }
    }
}

impl std::error::Error for ShapeError {}

/// A weighted layer with its geometry resolved against the input shape —
/// the unit the accelerator maps onto morphable subarrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedLayer {
    /// `"convKxC"` or `"ipM-N"`.
    pub name: String,
    /// `true` for convolution, `false` for inner product.
    pub is_conv: bool,
    /// Input shape `(C, H, W)`; for FC layers `(n_in, 1, 1)`.
    pub in_shape: (usize, usize, usize),
    /// Output shape before pooling `(C, H, W)`; for FC `(n_out, 1, 1)`.
    pub out_shape: (usize, usize, usize),
    /// Shape after the folded pooling stage, if any.
    pub post_pool_shape: (usize, usize, usize),
    /// Rows of the mapped kernel matrix: `K·K·C_in + 1` (with bias),
    /// or `n_in + 1`.
    pub matrix_rows: usize,
    /// Columns of the mapped kernel matrix: `C_out` or `n_out`.
    pub matrix_cols: usize,
    /// Kernel-window positions per image — the number of sequential input
    /// vectors fed to the crossbars (Fig. 4). `1` for FC layers.
    pub window_positions: usize,
    /// Learnable scalars (weights + biases).
    pub weights: usize,
    /// Multiply–accumulate operations in one forward pass.
    pub macs_forward: u64,
}

impl ResolvedLayer {
    /// Forward operation count (2 ops per MAC, the GOPS convention used in
    /// the paper's efficiency numbers).
    pub fn ops_forward(&self) -> u64 {
        2 * self.macs_forward
    }

    /// Backward operation count: error backward (≈ forward cost) plus the
    /// weight-gradient convolution (≈ forward cost).
    pub fn ops_backward(&self) -> u64 {
        4 * self.macs_forward
    }
}

/// `∏ xs`, or `None` on overflow.
fn product(xs: &[usize]) -> Option<usize> {
    xs.iter().try_fold(1usize, |acc, &x| acc.checked_mul(x))
}

/// The MAC count `∏ xs`, or `None` unless it and the 4 ops per MAC of
/// [`ResolvedLayer::ops_backward`] fit.
fn mac_count(xs: &[usize]) -> Option<u64> {
    let macs = u64::try_from(product(xs)?).ok()?;
    macs.checked_mul(4).map(|_| macs)
}

impl NetSpec {
    /// Creates a spec.
    pub fn new(
        name: impl Into<String>,
        input: (usize, usize, usize),
        layers: Vec<LayerSpec>,
    ) -> Self {
        NetSpec {
            name: name.into(),
            input,
            layers,
        }
    }

    /// Resolves the spec into weighted layers with concrete geometry,
    /// folding each pooling stage into the preceding weighted layer.
    ///
    /// This is the one place the conv/pool/fc window arithmetic lives, and
    /// every product in it is checked: an `Ok` layer's shapes, kernel
    /// matrix, weight count and operation counts all fit in `usize`/`u64`.
    ///
    /// # Errors
    ///
    /// The first [`ShapeError`] in layer order; the input is checked
    /// before any layer and [`ShapeError::NoWeightedLayers`] after all.
    pub fn try_resolve(&self) -> Result<Vec<ResolvedLayer>, ShapeError> {
        let (c, h, w) = self.input;
        if c == 0 || h == 0 || w == 0 {
            return Err(ShapeError::EmptyInput { input: self.input });
        }
        // Element count of the current shape: the next FC layer's `n_in`.
        let mut numel = product(&[c, h, w]).ok_or(ShapeError::Overflow { at: None })?;
        let mut shape = self.input;
        let mut out: Vec<ResolvedLayer> = Vec::new();
        for (index, spec) in self.layers.iter().enumerate() {
            let name = match *spec {
                LayerSpec::Conv { k, c_out, .. } => format!("conv{k}x{c_out}"),
                LayerSpec::Pool { k, stride, .. } => format!("pool{k}s{stride}"),
                LayerSpec::Fc { n_out } => format!("ip{numel}-{n_out}"),
            };
            let at = LayerAt { index, name };
            let overflow = || ShapeError::Overflow {
                at: Some(at.clone()),
            };
            // One window walk serves all three kinds: an FC layer is a 1×1
            // window over its flattened input, and a pool has no `c_out`.
            let (k, stride, pad, c_out) = match *spec {
                LayerSpec::Fc { n_out: 0 } => {
                    return Err(ShapeError::ZeroOutputs { at, conv: false })
                }
                LayerSpec::Fc { n_out } => {
                    shape = (numel, 1, 1);
                    (1, 1, 0, Some(n_out))
                }
                LayerSpec::Pool { .. } if out.is_empty() => {
                    return Err(ShapeError::LeadingPool { at })
                }
                // Every weighted layer after the first FC is an FC layer.
                LayerSpec::Pool { .. } | LayerSpec::Conv { .. }
                    if out.last().is_some_and(|l| !l.is_conv) =>
                {
                    let pool = matches!(spec, LayerSpec::Pool { .. });
                    return Err(ShapeError::SpatialAfterFc { at, pool });
                }
                LayerSpec::Pool { k, stride, .. } => (k, stride, 0, None),
                LayerSpec::Conv {
                    k,
                    c_out,
                    stride,
                    pad,
                } => (k, stride, pad, Some(c_out)),
            };
            let (c, h, w) = shape;
            let pool = c_out.is_none();
            if k == 0 || stride == 0 {
                return Err(ShapeError::ZeroKernelOrStride {
                    at,
                    pool,
                    k,
                    stride,
                });
            }
            if c_out == Some(0) {
                return Err(ShapeError::ZeroOutputs { at, conv: true });
            }
            let padded = |x: usize| pad.checked_mul(2).and_then(|p| x.checked_add(p));
            let (hp, wp) = (padded(h), padded(w));
            let (hp, wp) = (hp.ok_or_else(overflow)?, wp.ok_or_else(overflow)?);
            if hp < k || wp < k {
                return Err(ShapeError::WindowTooBig {
                    at,
                    pool,
                    k,
                    pad,
                    input: (h, w),
                });
            }
            let (ho, wo) = ((hp - k) / stride + 1, (wp - k) / stride + 1);
            shape = (c_out.unwrap_or(c), ho, wo);
            numel = product(&[shape.0, ho, wo]).ok_or_else(overflow)?;
            let Some(c_out) = c_out else {
                if let Some(prev) = out.last_mut() {
                    prev.post_pool_shape = shape;
                }
                continue;
            };
            let fan_in = product(&[k, k, c]).ok_or_else(overflow)?;
            let weights = fan_in.checked_mul(c_out).and_then(|n| n.checked_add(c_out));
            out.push(ResolvedLayer {
                name: at.name.clone(),
                is_conv: matches!(spec, LayerSpec::Conv { .. }),
                in_shape: (c, h, w),
                out_shape: shape,
                post_pool_shape: shape,
                matrix_rows: fan_in.checked_add(1).ok_or_else(overflow)?,
                matrix_cols: c_out,
                window_positions: ho.checked_mul(wo).ok_or_else(overflow)?,
                weights: weights.ok_or_else(overflow)?,
                macs_forward: mac_count(&[ho, wo, c_out, fan_in]).ok_or_else(overflow)?,
            });
        }
        if out.is_empty() {
            return Err(ShapeError::NoWeightedLayers);
        }
        Ok(out)
    }

    /// [`try_resolve`](Self::try_resolve) for specs known to be well
    /// formed: the zoo, benches and tests.
    ///
    /// # Panics
    ///
    /// Panics with the [`ShapeError`] where `try_resolve` returns one.
    /// Geometry that comes from a caller goes through `try_resolve`.
    #[expect(clippy::expect_used, reason = "the panicking twin of `try_resolve`")]
    pub fn resolve(&self) -> Vec<ResolvedLayer> {
        self.try_resolve().expect("network geometry must resolve")
    }

    /// Number of weighted layers — the `L` of the paper's cycle formulas.
    pub fn weighted_layers(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| !matches!(l, LayerSpec::Pool { .. }))
            .count()
    }

    /// Total learnable scalars.
    pub fn weight_count(&self) -> usize {
        self.resolve().iter().map(|l| l.weights).sum()
    }

    /// `true` if the network has no convolution layers (pure MLP).
    pub fn is_mlp(&self) -> bool {
        !self
            .layers
            .iter()
            .any(|l| matches!(l, LayerSpec::Conv { .. }))
    }

    /// Instantiates a functional, trainable [`Network`] from this spec.
    /// ReLU follows every weighted layer except the last; pooling layers are
    /// instantiated explicitly. Each layer's shape comes from
    /// [`resolve`](Self::resolve). Intended for the MNIST-scale networks —
    /// the ImageNet models would allocate gigabytes.
    ///
    /// # Panics
    ///
    /// Panics where [`resolve`](Self::resolve) does.
    pub fn build(&self, loss: Loss, rng: &mut impl Rng) -> Network {
        let layers = self.resolve();
        let mut net = Network::new(self.name.clone(), loss);
        // `resolve` yields one layer per conv/fc entry, in order.
        let mut seen = 0usize;
        let mut flattened = false;
        for spec in &self.layers {
            match *spec {
                LayerSpec::Conv {
                    k,
                    c_out,
                    stride,
                    pad,
                } => {
                    let c_in = layers[seen].in_shape.0;
                    net.push(Conv2d::new(c_in, c_out, k, stride, pad, rng));
                }
                LayerSpec::Pool { k, stride, kind } => {
                    match kind {
                        PoolKind::Max => net.push(MaxPool2d::new(k, stride)),
                        PoolKind::Avg => net.push(AvgPool2d::new(k, stride)),
                    };
                    continue;
                }
                LayerSpec::Fc { n_out } => {
                    let prev = seen.checked_sub(1).map(|p| layers[p].post_pool_shape);
                    let (_, h, w) = prev.unwrap_or(self.input);
                    if !flattened && (h > 1 || w > 1) {
                        net.push(Flatten::new());
                        flattened = true;
                    }
                    net.push(Linear::new(layers[seen].in_shape.0, n_out, rng));
                }
            }
            seen += 1;
            if seen < layers.len() {
                net.push(Relu::new());
            }
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lenet_like() -> NetSpec {
        NetSpec::new(
            "lenet",
            (1, 28, 28),
            vec![
                LayerSpec::Conv {
                    k: 5,
                    c_out: 20,
                    stride: 1,
                    pad: 0,
                },
                LayerSpec::Pool {
                    k: 2,
                    stride: 2,
                    kind: PoolKind::Max,
                },
                LayerSpec::Conv {
                    k: 5,
                    c_out: 50,
                    stride: 1,
                    pad: 0,
                },
                LayerSpec::Pool {
                    k: 2,
                    stride: 2,
                    kind: PoolKind::Max,
                },
                LayerSpec::Fc { n_out: 500 },
                LayerSpec::Fc { n_out: 10 },
            ],
        )
    }

    #[test]
    fn resolve_shapes() {
        let layers = lenet_like().resolve();
        assert_eq!(layers.len(), 4);
        assert_eq!(layers[0].out_shape, (20, 24, 24));
        assert_eq!(layers[0].post_pool_shape, (20, 12, 12));
        assert_eq!(layers[1].out_shape, (50, 8, 8));
        assert_eq!(layers[1].post_pool_shape, (50, 4, 4));
        assert_eq!(layers[2].in_shape, (800, 1, 1));
        assert_eq!(layers[3].out_shape, (10, 1, 1));
    }

    #[test]
    fn matrix_dims_match_fig4() {
        // Fig. 4: 28 channels of 5x5 kernels over 24x24 output -> the mapped
        // matrix for a layer with C_in=28, K=5, C_out=28 has 700+1 rows.
        let spec = NetSpec::new(
            "fig4",
            (28, 28, 28),
            vec![LayerSpec::Conv {
                k: 5,
                c_out: 28,
                stride: 1,
                pad: 0,
            }],
        );
        let l = &spec.resolve()[0];
        assert_eq!(l.matrix_rows, 5 * 5 * 28 + 1);
        assert_eq!(l.matrix_cols, 28);
        assert_eq!(l.window_positions, 24 * 24);
    }

    #[test]
    fn weighted_layer_count_ignores_pools() {
        assert_eq!(lenet_like().weighted_layers(), 4);
    }

    #[test]
    fn mac_counts() {
        let spec = lenet_like();
        let layers = spec.resolve();
        // conv1: 24*24*20*5*5*1 = 288000 MACs
        assert_eq!(layers[0].macs_forward, 288_000);
        // fc to 10: 500*10
        assert_eq!(layers[3].macs_forward, 5_000);
        let forward: u64 = layers.iter().map(ResolvedLayer::ops_forward).sum();
        let macs: u64 = layers.iter().map(|l| l.macs_forward).sum();
        assert_eq!(forward, 2 * macs, "2 ops/MAC");
        let backward: u64 = layers.iter().map(ResolvedLayer::ops_backward).sum();
        assert_eq!(backward, 2 * forward);
    }

    #[test]
    fn weight_count_matches_known_formula() {
        let spec = lenet_like();
        let want = (5 * 5 * 20 + 20) + (5 * 5 * 20 * 50 + 50) + (800 * 500 + 500) + (500 * 10 + 10);
        assert_eq!(spec.weight_count(), want);
    }

    #[test]
    fn build_produces_trainable_network() {
        let mut rng = StdRng::seed_from_u64(9);
        let spec = NetSpec::new(
            "tiny",
            (1, 6, 6),
            vec![
                LayerSpec::Conv {
                    k: 3,
                    c_out: 4,
                    stride: 1,
                    pad: 0,
                },
                LayerSpec::Pool {
                    k: 2,
                    stride: 2,
                    kind: PoolKind::Max,
                },
                LayerSpec::Fc { n_out: 3 },
            ],
        );
        let mut net = spec.build(Loss::SoftmaxCrossEntropy, &mut rng);
        let x = pipelayer_tensor::Tensor::ones(&[1, 6, 6]);
        let y = net.forward(&x);
        assert_eq!(y.dims(), &[3]);
        let loss0 = net.train_batch(std::slice::from_ref(&x), &[1], 0.1);
        let loss1 = net.train_batch(std::slice::from_ref(&x), &[1], 0.1);
        assert!(loss1 < loss0);
    }

    #[test]
    fn mlp_detection() {
        assert!(!lenet_like().is_mlp());
        let mlp = NetSpec::new("m", (1, 28, 28), vec![LayerSpec::Fc { n_out: 10 }]);
        assert!(mlp.is_mlp());
    }

    #[test]
    fn try_resolve_names_the_first_broken_layer() {
        let conv = |k, pad| LayerSpec::Conv {
            k,
            c_out: 2,
            stride: 1,
            pad,
        };
        let misfit = NetSpec::new("misfit", (1, 3, 3), vec![conv(3, 0), conv(5, 0)]);
        let err = misfit.try_resolve().unwrap_err();
        assert_eq!(
            err,
            ShapeError::WindowTooBig {
                at: LayerAt {
                    index: 1,
                    name: "conv5x2".into(),
                },
                pool: false,
                k: 5,
                pad: 0,
                input: (1, 1),
            }
        );
        assert_eq!(err.site(), "layer 1 (conv5x2)");
        assert_eq!(
            err.to_string(),
            "window 5\u{d7}5 (pad 0) does not fit the 1\u{d7}1 input"
        );
        let empty = NetSpec::new("empty", (1, 3, 3), vec![]);
        assert_eq!(empty.try_resolve(), Err(ShapeError::NoWeightedLayers));
    }

    #[test]
    fn try_resolve_checks_every_product() {
        let overflow_at = |spec: &NetSpec| match spec.try_resolve() {
            Err(ShapeError::Overflow { at }) => at.map(|at| at.index),
            other => panic!("expected an overflow, got {other:?}"),
        };
        // 2^66 input elements: the FC layer's `n_in` used to wrap to 0.
        let huge_input = NetSpec::new(
            "huge",
            (1 << 33, 1 << 33, 1),
            vec![LayerSpec::Fc { n_out: 2 }],
        );
        assert_eq!(overflow_at(&huge_input), None);
        let huge_pad = NetSpec::new(
            "pad",
            (1, 4, 4),
            vec![LayerSpec::Conv {
                k: 3,
                c_out: 2,
                stride: 1,
                pad: usize::MAX / 2 + 1,
            }],
        );
        assert_eq!(overflow_at(&huge_pad), Some(0));
        let huge_fc = NetSpec::new(
            "fc",
            (1, 4, 4),
            vec![
                LayerSpec::Fc { n_out: 4 },
                LayerSpec::Fc {
                    n_out: usize::MAX / 2,
                },
            ],
        );
        assert_eq!(overflow_at(&huge_fc), Some(1));
        // 4·MACs must fit too, for `ResolvedLayer::ops_backward`.
        let ops = NetSpec::new("ops", (1, 1, 1), vec![LayerSpec::Fc { n_out: 1 << 62 }]);
        assert_eq!(overflow_at(&ops), Some(0));
    }

    #[test]
    fn rejects_spatial_layers_after_fc() {
        let fc = LayerSpec::Fc { n_out: 4 };
        let conv = LayerSpec::Conv {
            k: 1,
            c_out: 2,
            stride: 1,
            pad: 0,
        };
        let pool = LayerSpec::Pool {
            k: 1,
            stride: 1,
            kind: PoolKind::Max,
        };
        let after_fc = |layers: Vec<LayerSpec>| NetSpec::new("s", (1, 4, 4), layers).try_resolve();
        let err = after_fc(vec![fc, conv]).unwrap_err();
        let at = LayerAt {
            index: 1,
            name: "conv1x2".into(),
        };
        assert_eq!(err, ShapeError::SpatialAfterFc { at, pool: false });
        assert_eq!(err.site(), "layer 1 (conv1x2)");
        assert_eq!(
            err.to_string(),
            "convolution follows an inner-product layer"
        );
        let err = after_fc(vec![conv, fc, fc, pool]).unwrap_err();
        assert_eq!(err.to_string(), "pooling follows an inner-product layer");
        assert!(matches!(err, ShapeError::SpatialAfterFc { pool: true, .. }));
        assert!(after_fc(vec![conv, pool, fc, fc]).is_ok());
    }

    #[test]
    #[should_panic(expected = "LeadingPool")]
    fn rejects_leading_pool() {
        NetSpec::new(
            "bad",
            (1, 4, 4),
            vec![LayerSpec::Pool {
                k: 2,
                stride: 2,
                kind: PoolKind::Max,
            }],
        )
        .resolve();
    }
}
