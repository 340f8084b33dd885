//! ImageNet-scale network descriptions: AlexNet \[13\] and the five VGG
//! configurations A–E \[10\]. These specs drive the timing/energy/area models;
//! they are never executed functionally (the paper likewise measures them on
//! the GPU and models them on PipeLayer).

use crate::spec::{LayerSpec, NetSpec, PoolKind};

const CONV3: fn(usize) -> LayerSpec = |c| LayerSpec::Conv {
    k: 3,
    c_out: c,
    stride: 1,
    pad: 1,
};
const CONV1: fn(usize) -> LayerSpec = |c| LayerSpec::Conv {
    k: 1,
    c_out: c,
    stride: 1,
    pad: 0,
};
const POOL2: LayerSpec = LayerSpec::Pool {
    k: 2,
    stride: 2,
    kind: PoolKind::Max,
};

/// AlexNet (one-tower formulation): 5 conv + 3 FC layers, 227×227×3 input.
pub fn alexnet() -> NetSpec {
    NetSpec::new(
        "AlexNet",
        (3, 227, 227),
        vec![
            LayerSpec::Conv {
                k: 11,
                c_out: 96,
                stride: 4,
                pad: 0,
            }, // -> 55x55
            LayerSpec::Pool {
                k: 3,
                stride: 2,
                kind: PoolKind::Max,
            }, // -> 27x27
            LayerSpec::Conv {
                k: 5,
                c_out: 256,
                stride: 1,
                pad: 2,
            }, // -> 27x27
            LayerSpec::Pool {
                k: 3,
                stride: 2,
                kind: PoolKind::Max,
            }, // -> 13x13
            LayerSpec::Conv {
                k: 3,
                c_out: 384,
                stride: 1,
                pad: 1,
            },
            LayerSpec::Conv {
                k: 3,
                c_out: 384,
                stride: 1,
                pad: 1,
            },
            LayerSpec::Conv {
                k: 3,
                c_out: 256,
                stride: 1,
                pad: 1,
            },
            LayerSpec::Pool {
                k: 3,
                stride: 2,
                kind: PoolKind::Max,
            }, // -> 6x6
            LayerSpec::Fc { n_out: 4096 },
            LayerSpec::Fc { n_out: 4096 },
            LayerSpec::Fc { n_out: 1000 },
        ],
    )
}

/// VGG configuration selector (Simonyan & Zisserman, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VggVariant {
    /// 8 conv layers.
    A,
    /// 10 conv layers.
    B,
    /// 13 conv layers, three of them 1×1.
    C,
    /// 13 conv layers, all 3×3.
    D,
    /// 16 conv layers.
    E,
}

impl VggVariant {
    /// All five variants in paper order.
    pub const ALL: [VggVariant; 5] = [
        VggVariant::A,
        VggVariant::B,
        VggVariant::C,
        VggVariant::D,
        VggVariant::E,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            VggVariant::A => "VGG-A",
            VggVariant::B => "VGG-B",
            VggVariant::C => "VGG-C",
            VggVariant::D => "VGG-D",
            VggVariant::E => "VGG-E",
        }
    }
}

/// Builds the requested VGG configuration over a 224×224×3 input.
pub fn vgg(variant: VggVariant) -> NetSpec {
    let mut layers: Vec<LayerSpec> = Vec::new();
    // Five conv blocks with channel widths 64,128,256,512,512.
    let widths = [64usize, 128, 256, 512, 512];
    for (block, &c) in widths.iter().enumerate() {
        let deep_block = block >= 2; // blocks 3..5 grow first in C/D/E
        let convs: Vec<LayerSpec> = match (variant, deep_block) {
            (VggVariant::A, _) => {
                if deep_block {
                    vec![CONV3(c), CONV3(c)]
                } else {
                    vec![CONV3(c)]
                }
            }
            (VggVariant::B, _) => vec![CONV3(c), CONV3(c)],
            (VggVariant::C, false) => vec![CONV3(c), CONV3(c)],
            (VggVariant::C, true) => vec![CONV3(c), CONV3(c), CONV1(c)],
            (VggVariant::D, false) => vec![CONV3(c), CONV3(c)],
            (VggVariant::D, true) => vec![CONV3(c), CONV3(c), CONV3(c)],
            (VggVariant::E, false) => vec![CONV3(c), CONV3(c)],
            (VggVariant::E, true) => vec![CONV3(c), CONV3(c), CONV3(c), CONV3(c)],
        };
        layers.extend(convs);
        layers.push(POOL2);
    }
    layers.push(LayerSpec::Fc { n_out: 4096 });
    layers.push(LayerSpec::Fc { n_out: 4096 });
    layers.push(LayerSpec::Fc { n_out: 1000 });
    NetSpec::new(variant.name(), (3, 224, 224), layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ResolvedLayer;

    #[test]
    fn alexnet_geometry() {
        let spec = alexnet();
        let layers = spec.resolve();
        assert_eq!(spec.weighted_layers(), 8);
        assert_eq!(layers[0].out_shape, (96, 55, 55));
        assert_eq!(layers[0].post_pool_shape, (96, 27, 27));
        assert_eq!(layers[4].post_pool_shape, (256, 6, 6));
        assert_eq!(layers[5].matrix_rows, 256 * 6 * 6 + 1); // fc6
        assert_eq!(layers[7].matrix_cols, 1000);
    }

    #[test]
    fn alexnet_parameter_count_roughly_60m() {
        let n = alexnet().weight_count();
        assert!(
            (55_000_000..65_000_000).contains(&n),
            "AlexNet params {n} outside the canonical ~60M"
        );
    }

    #[test]
    fn vgg_conv_layer_counts() {
        let counts: Vec<usize> = VggVariant::ALL
            .iter()
            .map(|&v| vgg(v).resolve().iter().filter(|l| l.is_conv).count())
            .collect();
        assert_eq!(counts, vec![8, 10, 13, 13, 16]);
    }

    #[test]
    fn vgg_weighted_layer_totals() {
        // conv layers + 3 FC
        let totals: Vec<usize> = VggVariant::ALL
            .iter()
            .map(|&v| vgg(v).weighted_layers())
            .collect();
        assert_eq!(totals, vec![11, 13, 16, 16, 19]);
    }

    #[test]
    fn vgg_d_parameter_count_roughly_138m() {
        let n = vgg(VggVariant::D).weight_count();
        assert!(
            (130_000_000..145_000_000).contains(&n),
            "VGG-16 params {n} outside the canonical ~138M"
        );
    }

    #[test]
    fn vgg_spatial_pyramid() {
        let layers = vgg(VggVariant::A).resolve();
        // After the five pooled blocks the map is 512x7x7.
        let last_conv = layers.iter().rfind(|l| l.is_conv).unwrap();
        assert_eq!(last_conv.post_pool_shape, (512, 7, 7));
        let fc6 = layers.iter().find(|l| !l.is_conv).unwrap();
        assert_eq!(fc6.matrix_rows, 512 * 7 * 7 + 1);
    }

    #[test]
    fn vgg_c_has_1x1_convs() {
        let spec = vgg(VggVariant::C);
        let ones = spec
            .layers
            .iter()
            .filter(|l| matches!(l, LayerSpec::Conv { k: 1, .. }))
            .count();
        assert_eq!(ones, 3);
    }

    #[test]
    fn vgg_flops_ordering_matches_depth() {
        let ops: Vec<u64> = VggVariant::ALL
            .iter()
            .map(|&v| {
                vgg(v)
                    .resolve()
                    .iter()
                    .map(ResolvedLayer::ops_forward)
                    .sum()
            })
            .collect();
        // A < B < C < D < E in forward cost.
        for w in ops.windows(2) {
            assert!(w[0] < w[1], "flops not increasing: {ops:?}");
        }
        // VGG-A forward ≈ 15.2 GFLOPs (2 ops/MAC convention, ~7.6 GMACs).
        assert!(
            (14.0e9..17.0e9).contains(&(ops[0] as f64)),
            "VGG-A flops {} out of expected range",
            ops[0]
        );
    }
}
