//! Kernel-to-array mapping (Figs. 4/5) and array accounting (Table 2).
//!
//! Each weighted layer's kernel matrix (`K·K·C_in+1 × C_out`, Fig. 4) is
//! partitioned onto `128×128` crossbar tiles (Fig. 5), duplicated `G` times
//! (parallelism granularity) and ×8 for the positive/negative pair and the
//! four 4-bit segment groups (Fig. 14). Training additionally provisions:
//!
//! * `A_l2` arrays holding the reordered kernels `(W_l)*` for the error
//!   backward convolution (Fig. 11), for every layer except the first;
//! * morphable arrays holding the forward data `d` of in-flight images,
//!   used as kernels when computing partial derivatives (Fig. 12; Sec. 6.6
//!   notes `d` is written to morphable subarrays) — one copy per in-flight
//!   image, `B` per layer in the pipelined design;
//! * memory subarrays for the inter-layer circular buffers (Fig. 8).

use crate::config::{ConfigError, PipeLayerConfig};
use crate::granularity::default_granularity;
use pipelayer_nn::spec::{NetSpec, ResolvedLayer, ShapeError};
use pipelayer_reram::tile_grid;
use std::num::NonZeroUsize;

/// A rejected mapping request.
#[derive(Debug, Clone, PartialEq)]
pub enum MapError {
    /// The network's geometry does not resolve ([`NetSpec::try_resolve`]),
    /// including a network with no weighted layer to map.
    Shape(ShapeError),
    /// The per-layer granularity vector's length differed from the number
    /// of weighted layers.
    GranularityLength {
        /// Weighted layers in the network.
        expected: usize,
        /// Entries supplied.
        got: usize,
    },
    /// A granularity entry was zero.
    ZeroGranularity {
        /// Index of the offending layer.
        layer: usize,
    },
    /// The granularity scale λ was negative or non-finite.
    InvalidLambda(f64),
    /// The configuration itself was invalid.
    Config(ConfigError),
}

impl core::fmt::Display for MapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MapError::Shape(e) => write!(f, "invalid network geometry at {}: {e}", e.site()),
            MapError::GranularityLength { expected, got } => {
                write!(
                    f,
                    "granularity length mismatch: {expected} layers, {got} entries"
                )
            }
            MapError::ZeroGranularity { layer } => {
                write!(f, "granularity must be positive (layer {layer} is zero)")
            }
            MapError::InvalidLambda(l) => {
                write!(f, "lambda {l} must be finite and non-negative")
            }
            MapError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for MapError {}

impl From<ConfigError> for MapError {
    fn from(e: ConfigError) -> Self {
        MapError::Config(e)
    }
}

impl From<ShapeError> for MapError {
    fn from(e: ShapeError) -> Self {
        MapError::Shape(e)
    }
}

/// One weighted layer mapped onto arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedLayer {
    /// Geometry from the network spec.
    pub resolved: ResolvedLayer,
    /// Parallelism granularity `G` (weight-replication factor).
    pub g: usize,
    /// Crossbar tiles per matrix copy (`⌈rows/128⌉·⌈cols/128⌉`).
    pub tiles: usize,
    /// Tiles for the transposed/reordered backward matrix `(W)*` (zero for
    /// the first layer, which holds no `A_l2`).
    pub tiles_backward: usize,
    /// Sequential array-read phases per image in the forward pass:
    /// `⌈P/G⌉` (Fig. 4's loop, shortened by replication).
    pub reads_forward: u64,
    /// Read phases for the error-backward convolution (zero for the first
    /// layer — `δ_0` is never needed).
    pub reads_error: u64,
    /// Read phases for the partial-derivative computation (Fig. 12).
    pub reads_gradient: u64,
    /// Output words written to the inter-layer buffer per image.
    pub out_words: u64,
    /// Error (`δ`) words written per image during backward.
    pub delta_words: u64,
    /// Input-data words copied into morphable arrays for the gradient
    /// convolution (the stored `d_{l-1}`, Fig. 12).
    pub in_words: u64,
}

/// A network fully mapped onto the accelerator. Built only by the `try_*`
/// constructors, which resolve the geometry with [`NetSpec::try_resolve`]
/// and validate the configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedNetwork {
    /// Network name.
    pub name: String,
    /// Weighted layers in order.
    pub layers: Vec<MappedLayer>,
    /// Configuration used for the mapping.
    pub config: PipeLayerConfig,
    /// `L`, fixed when the network was mapped.
    weighted_layers: NonZeroUsize,
}

impl MappedNetwork {
    /// Maps `spec` with the default (Table 5 style) granularity.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::Shape`] if `spec`'s geometry does not resolve
    /// and [`MapError::Config`] if `config` is invalid.
    pub fn try_from_spec(spec: &NetSpec, config: PipeLayerConfig) -> Result<Self, MapError> {
        let resolved = spec.try_resolve()?;
        let g = default_granularity(&resolved);
        Self::try_from_resolved(spec, resolved, &g, config)
    }

    /// Maps `spec` with an explicit per-layer granularity.
    ///
    /// # Errors
    ///
    /// Returns a [`MapError`] if `spec`'s geometry does not resolve,
    /// `config` is invalid, `g.len()` differs from the number of weighted
    /// layers, or any entry is zero.
    pub fn try_with_granularity(
        spec: &NetSpec,
        g: &[usize],
        config: PipeLayerConfig,
    ) -> Result<Self, MapError> {
        Self::try_from_resolved(spec, spec.try_resolve()?, g, config)
    }

    /// Maps the layers `spec.try_resolve()` returned, so a caller that
    /// needs them to pick `g` resolves once.
    pub(crate) fn try_from_resolved(
        spec: &NetSpec,
        resolved: Vec<ResolvedLayer>,
        g: &[usize],
        config: PipeLayerConfig,
    ) -> Result<Self, MapError> {
        config.validate()?;
        let weighted_layers =
            NonZeroUsize::new(resolved.len()).ok_or(ShapeError::NoWeightedLayers)?;
        if g.len() != resolved.len() {
            return Err(MapError::GranularityLength {
                expected: resolved.len(),
                got: g.len(),
            });
        }
        if let Some(layer) = g.iter().position(|&x| x == 0) {
            return Err(MapError::ZeroGranularity { layer });
        }
        let size = config.params.xbar_size;
        let layers = resolved
            .into_iter()
            .zip(g)
            .enumerate()
            .map(|(idx, (r, &gl))| {
                let (tr, tc) = tile_grid(r.matrix_rows, r.matrix_cols, size);
                // Backward matrix: kernels reordered/transposed (Fig. 11);
                // for FC it is literally Wᵀ. The first layer has none.
                let (btr, btc) = match idx {
                    0 => (0, 0),
                    _ => tile_grid(r.matrix_cols, r.matrix_rows, size),
                };
                let p = r.window_positions.max(1) as u64;
                // Error backward convolves over the layer's *input* spatial
                // extent (zero-padded full convolution, Fig. 11).
                let p_err = if r.is_conv {
                    (r.in_shape.1 * r.in_shape.2) as u64
                } else {
                    1
                };
                let reads_error = if idx == 0 {
                    0
                } else {
                    p_err.div_ceil(gl as u64)
                };
                // Gradient phase: δ channels drive the stored-d arrays
                // (Fig. 12) — one input vector per output channel for conv.
                // FC gradients are produced entirely by the batch-averaged
                // 1/B-spike read at update time (Sec. 4.4.2), so they cost
                // nothing in the per-image backward phase.
                let reads_gradient = if r.is_conv {
                    (r.matrix_cols as u64).div_ceil(gl as u64)
                } else {
                    0
                };
                let out_words =
                    (r.post_pool_shape.0 * r.post_pool_shape.1 * r.post_pool_shape.2) as u64;
                let delta_words = (r.out_shape.0 * r.out_shape.1 * r.out_shape.2) as u64;
                let in_words = (r.in_shape.0 * r.in_shape.1 * r.in_shape.2) as u64;
                MappedLayer {
                    reads_forward: p.div_ceil(gl as u64),
                    reads_error,
                    reads_gradient,
                    out_words,
                    delta_words,
                    in_words,
                    tiles: tr * tc,
                    tiles_backward: btr * btc,
                    g: gl,
                    resolved: r,
                }
            })
            .collect();
        Ok(MappedNetwork {
            name: spec.name.clone(),
            layers,
            config,
            weighted_layers,
        })
    }

    /// Number of weighted layers (`L`).
    pub fn weighted_layers(&self) -> NonZeroUsize {
        self.weighted_layers
    }

    /// Physical crossbars in the forward (morphable, computation-mode)
    /// region: `Σ_l tiles_l · G_l · 8`.
    pub fn forward_crossbars(&self) -> u64 {
        let per_matrix = self.config.params.crossbars_per_matrix() as u64;
        self.layers
            .iter()
            .map(|l| l.tiles as u64 * l.g as u64 * per_matrix)
            .sum()
    }

    /// Crossbars holding the reordered backward kernels (`A_l2`), absent
    /// for the first layer.
    pub fn backward_crossbars(&self) -> u64 {
        let per_matrix = self.config.params.crossbars_per_matrix() as u64;
        self.layers
            .iter()
            .map(|l| l.tiles_backward as u64 * l.g as u64 * per_matrix)
            .sum()
    }

    /// Morphable crossbars storing the forward data `d` of in-flight images
    /// for gradient computation: capacity for `B` images per layer
    /// (4 cells per 16-bit word).
    pub fn gradient_data_crossbars(&self) -> u64 {
        let cells_per_xbar = (self.config.params.xbar_size.get() as u64).pow(2);
        let cells_per_word = self.config.params.cells_per_word() as u64;
        let b = self.config.batch_size.get() as u64;
        self.layers
            .iter()
            .map(|l| (l.out_words * cells_per_word * b).div_ceil(cells_per_xbar))
            .sum()
    }

    /// Memory-subarray crossbars for the circular buffers of Fig. 8
    /// (depth `2(L−l)+1` per inter-layer `d` buffer, plus the duplicated
    /// same-cycle read/write buffers for `d_L` and the `δ`s).
    pub fn buffer_crossbars(&self) -> u64 {
        let cells_per_xbar = (self.config.params.xbar_size.get() as u64).pow(2);
        let cells_per_word = self.config.params.cells_per_word() as u64;
        let l_total = self.layers.len() as u64;
        let mut words = 0u64;
        for (idx, l) in self.layers.iter().enumerate() {
            let depth = 2 * (l_total - 1 - idx as u64) + 1;
            words += l.out_words * depth; // d buffer, Fig. 8 sizing
            words += l.delta_words * 2; // δ buffer, duplicated (same-cycle R/W)
        }
        (words * cells_per_word).div_ceil(cells_per_xbar)
    }

    /// All crossbars for the training configuration.
    pub fn total_crossbars_training(&self) -> u64 {
        self.forward_crossbars()
            + self.backward_crossbars()
            + self.gradient_data_crossbars()
            + self.buffer_crossbars()
    }

    /// Fractional area overhead of the spare-column provision: every weight
    /// crossbar carries `spares.cols_per_matrix` redundant bit lines next
    /// to its `xbar_size` working ones. Zero with no budget.
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn spare_overhead_fraction(&self) -> f64 {
        self.config.spares.cols_per_matrix as f64 / self.config.params.xbar_size.get() as f64
    }

    /// Equivalent extra crossbars the spare columns cost across the weight
    /// (forward + backward) arrays — what the redundancy adds to the area
    /// budget.
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn spare_crossbar_equivalent(&self) -> f64 {
        (self.forward_crossbars() + self.backward_crossbars()) as f64
            * self.spare_overhead_fraction()
    }

    /// Crossbars for a testing-only deployment (forward arrays plus
    /// single-entry inter-layer buffers).
    pub fn total_crossbars_testing(&self) -> u64 {
        let cells_per_xbar = (self.config.params.xbar_size.get() as u64).pow(2);
        let cells_per_word = self.config.params.cells_per_word() as u64;
        let words: u64 = self.layers.iter().map(|l| l.out_words).sum();
        self.forward_crossbars() + (words * cells_per_word).div_ceil(cells_per_xbar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipelayer_nn::zoo;

    fn mapped(spec: &pipelayer_nn::NetSpec) -> MappedNetwork {
        MappedNetwork::try_from_spec(spec, PipeLayerConfig::default()).unwrap()
    }

    #[test]
    fn fig5_tile_count() {
        // A 512-row, 256-column kernel matrix needs 8 tiles of 128x128; with
        // bias row it grows to 513 rows → 5×2 = 10 tiles.
        let spec = pipelayer_nn::NetSpec::new(
            "fig5",
            (128, 8, 8),
            vec![pipelayer_nn::LayerSpec::Conv {
                k: 2,
                c_out: 256,
                stride: 1,
                pad: 0,
            }],
        );
        let m = mapped(&spec);
        assert_eq!(m.layers[0].resolved.matrix_rows, 513);
        assert_eq!(m.layers[0].tiles, 5 * 2);
    }

    #[test]
    fn reads_forward_divided_by_g() {
        let spec = zoo::spec_mnist_0();
        let m = mapped(&spec);
        for l in &m.layers {
            assert_eq!(
                l.reads_forward,
                (l.resolved.window_positions.max(1) as u64).div_ceil(l.g as u64)
            );
        }
    }

    #[test]
    fn first_layer_has_no_error_phase() {
        let m = mapped(&zoo::alexnet());
        assert_eq!(m.layers[0].reads_error, 0);
        assert!(m.layers[1].reads_error > 0);
    }

    #[test]
    fn crossbar_counts_scale_with_g() {
        let spec = zoo::vgg(zoo::VggVariant::A);
        let resolved = spec.resolve();
        let g1 = vec![1usize; resolved.len()];
        let g2 = vec![2usize; resolved.len()];
        let cfg = PipeLayerConfig::default();
        let m1 = MappedNetwork::try_with_granularity(&spec, &g1, cfg).unwrap();
        let m2 = MappedNetwork::try_with_granularity(&spec, &g2, cfg).unwrap();
        assert_eq!(m2.forward_crossbars(), 2 * m1.forward_crossbars());
        assert!(m2.total_crossbars_training() > m1.total_crossbars_training());
    }

    #[test]
    fn training_needs_more_arrays_than_testing() {
        let m = mapped(&zoo::spec_mnist_0());
        assert!(m.total_crossbars_training() > m.total_crossbars_testing());
    }

    #[test]
    fn buffer_sizing_follows_fig8() {
        // For a 4-weighted-layer net the d-buffer depths are 7,5,3,1.
        let m = mapped(&zoo::spec_mnist_0());
        let l = m.layers.len() as u64;
        let depths: Vec<u64> = (0..l).map(|i| 2 * (l - 1 - i) + 1).collect();
        assert_eq!(depths, vec![7, 5, 3, 1]);
        assert!(m.buffer_crossbars() > 0);
    }

    #[test]
    fn eight_crossbars_per_matrix_copy() {
        let m = mapped(&zoo::spec_mnist_a());
        // Mnist-A: ip785-100 → 7×1 tiles, G=1 → 56 crossbars; ip101-10 → 8.
        assert_eq!(m.forward_crossbars(), (7 + 1) * 8);
    }

    #[test]
    fn try_variants_return_errors_not_panics() {
        let spec = zoo::spec_mnist_a();
        let err = MappedNetwork::try_with_granularity(&spec, &[1], PipeLayerConfig::default());
        assert_eq!(
            err,
            Err(MapError::GranularityLength {
                expected: 2,
                got: 1
            })
        );
        let err = MappedNetwork::try_with_granularity(&spec, &[1, 0], PipeLayerConfig::default());
        assert_eq!(err, Err(MapError::ZeroGranularity { layer: 1 }));
        let empty = pipelayer_nn::NetSpec::new("empty", (1, 4, 4), vec![]);
        assert_eq!(
            MappedNetwork::try_from_spec(&empty, PipeLayerConfig::default()),
            Err(MapError::Shape(ShapeError::NoWeightedLayers))
        );
        // A 5×5 window over a 3×3 input used to panic inside `resolve`.
        let misfit = pipelayer_nn::NetSpec::new(
            "misfit",
            (1, 3, 3),
            vec![pipelayer_nn::LayerSpec::Conv {
                k: 5,
                c_out: 2,
                stride: 1,
                pad: 0,
            }],
        );
        for err in [
            MappedNetwork::try_from_spec(&misfit, PipeLayerConfig::default()),
            MappedNetwork::try_with_granularity(&misfit, &[1], PipeLayerConfig::default()),
        ] {
            assert!(matches!(
                err,
                Err(MapError::Shape(ShapeError::WindowTooBig {
                    pool: false,
                    ..
                }))
            ));
        }
        let ok = MappedNetwork::try_from_spec(&spec, PipeLayerConfig::default()).unwrap();
        assert_eq!(ok.weighted_layers().get(), ok.layers.len());
    }

    #[test]
    fn try_mapping_propagates_config_errors() {
        let spec = zoo::spec_mnist_a();
        let mut bad = PipeLayerConfig::default();
        bad.verify.max_attempts = 0;
        assert!(matches!(
            MappedNetwork::try_from_spec(&spec, bad),
            Err(MapError::Config(crate::config::ConfigError::ZeroAttempts))
        ));
    }

    #[test]
    fn spare_budget_adds_area_overhead() {
        use crate::repair::SpareBudget;
        let spec = zoo::spec_mnist_0();
        let none = mapped(&spec);
        assert_eq!(none.spare_overhead_fraction(), 0.0);
        assert_eq!(none.spare_crossbar_equivalent(), 0.0);

        let cfg = PipeLayerConfig {
            spares: SpareBudget::typical(),
            ..Default::default()
        };
        let spared = MappedNetwork::try_from_spec(&spec, cfg).unwrap();
        assert!((spared.spare_overhead_fraction() - 4.0 / 128.0).abs() < 1e-12);
        assert!(spared.spare_crossbar_equivalent() > 0.0);
        // Redundancy never changes the working-array accounting.
        assert_eq!(spared.forward_crossbars(), none.forward_crossbars());
    }
}
