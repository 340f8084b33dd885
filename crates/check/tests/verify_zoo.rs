//! Regression: every evaluation network verifies clean under the default
//! configuration, and deliberately broken workloads produce exactly the
//! expected `PL0xx` codes.

#![expect(
    clippy::unwrap_used,
    clippy::disallowed_macros,
    reason = "the library gate exempts test code: a failed assertion is how a test fails"
)]

use pipelayer::analysis::Analysis;
use pipelayer::granularity::default_granularity;
use pipelayer::PipeLayerConfig;
use pipelayer_check::{diag, has_errors, verify, verify_with, Diagnostic, Overrides, Severity};
use pipelayer_nn::spec::{LayerSpec, NetSpec, PoolKind};
use pipelayer_nn::zoo;

#[test]
fn every_zoo_network_verifies_clean() {
    let cfg = PipeLayerConfig::default();
    for spec in zoo::evaluation_specs() {
        let diags = verify(&spec, &cfg);
        assert!(
            !has_errors(&diags),
            "{} should be clean, got: {}",
            spec.name,
            diags
                .iter()
                .map(|d| d.render())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn undersized_buffer_yields_stale_read_code() {
    let spec = zoo::alexnet();
    let cfg = PipeLayerConfig::default();
    let l = std::num::NonZeroUsize::new(spec.weighted_layers()).unwrap();
    let paper = Analysis::new(l, cfg.batch_size).buffer_depths();
    let mut depths: Vec<usize> = paper.iter().map(|d| d.get()).collect();
    depths[0] -= 1; // 2(L-1)+1 -> 2(L-1): one slot short
    let over = Overrides {
        depths: Some(depths),
        ..Overrides::default()
    };
    let diags = verify_with(&spec, &cfg, &over);
    assert!(has_errors(&diags));
    let stale: Vec<_> = diags
        .iter()
        .filter(|d| d.code == diag::SCHED_STALE_READ)
        .collect();
    assert_eq!(stale.len(), 1, "{diags:?}");
    assert!(stale[0].location.contains("buffer d1"));
}

#[test]
fn over_replicated_granularity_yields_capacity_code() {
    // Force every conv layer to its max replication but slash the crossbar
    // budget: the mapping cannot fit.
    let spec = zoo::vgg(zoo::VggVariant::A);
    let g = default_granularity(&spec.resolve());
    let over = Overrides {
        granularity: Some(g),
        conv_xbar_budget: Some(64),
        ..Overrides::default()
    };
    let diags = verify_with(&spec, &PipeLayerConfig::default(), &over);
    assert!(diags
        .iter()
        .any(|d| d.code == diag::MAP_OVER_CAPACITY && d.severity == Severity::Error));
}

#[test]
fn conv_window_larger_than_input_yields_shape_code() {
    // 8x8 input -> conv3 (6x6) -> pool3/3 (2x2) -> conv3 cannot fit.
    let spec = NetSpec::new(
        "broken-shapes",
        (1, 8, 8),
        vec![
            LayerSpec::Conv {
                k: 3,
                c_out: 4,
                stride: 1,
                pad: 0,
            },
            LayerSpec::Pool {
                k: 3,
                stride: 3,
                kind: PoolKind::Max,
            },
            LayerSpec::Conv {
                k: 3,
                c_out: 8,
                stride: 1,
                pad: 0,
            },
        ],
    );
    let diags = verify(&spec, &PipeLayerConfig::default());
    assert!(has_errors(&diags));
    assert!(diags
        .iter()
        .any(|d| d.code == diag::SHAPE_WINDOW_TOO_BIG && d.location.contains("layer 2")));
    // Shape errors suppress the downstream schedule/mapping passes.
    assert!(!diags.iter().any(|d| d.code == diag::SCHED_STALE_READ));
    assert_eq!(
        shape_tuples(&diags),
        [(
            "PL002",
            "broken-shapes: layer 2 (conv3x8)",
            "window 3×3 (pad 0) does not fit the 2×2 input",
            "shrink the kernel, add padding, or fix the upstream layer's output shape",
        )]
    );
}

/// `(code, location, message, help)` of every PL00x finding. The expected
/// tuples were recorded before shape inference moved into
/// `NetSpec::try_resolve`, and must not change.
fn shape_tuples(diags: &[Diagnostic]) -> Vec<(&str, &str, &str, &str)> {
    diags
        .iter()
        .filter(|d| d.code.starts_with("PL00"))
        .map(|d| {
            (
                d.code,
                d.location.as_str(),
                d.message.as_str(),
                d.help.as_str(),
            )
        })
        .collect()
}

#[test]
fn fc_mismatch_is_impossible_by_construction_but_zero_outputs_is_not() {
    let spec = NetSpec::new(
        "zero-out",
        (1, 4, 4),
        vec![LayerSpec::Fc { n_out: 8 }, LayerSpec::Fc { n_out: 0 }],
    );
    let diags = verify(&spec, &PipeLayerConfig::default());
    assert!(diags.iter().any(|d| d.code == diag::SHAPE_ZERO_OUTPUTS));
    assert_eq!(
        shape_tuples(&diags),
        [(
            "PL005",
            "zero-out: layer 1 (ip8-0)",
            "inner-product layer with zero output neurons",
            "set n_out >= 1",
        )]
    );
}

#[test]
fn overflowing_counts_yield_their_own_code_in_every_profile() {
    // 2^66 input elements: release builds used to wrap the FC layer's
    // `n_in` to 0 and call the network clean, debug builds panicked.
    let spec = NetSpec::new(
        "huge",
        (1 << 33, 1 << 33, 1),
        vec![LayerSpec::Fc { n_out: 2 }],
    );
    let diags = verify(&spec, &PipeLayerConfig::default());
    assert!(has_errors(&diags));
    assert_eq!(
        shape_tuples(&diags),
        [(
            "PL007",
            "huge: input",
            "an element, kernel-matrix, weight or operation count overflows usize",
            "shrink the input or the layer until every count fits in usize",
        )]
    );
}

#[test]
fn bad_device_bits_yield_quant_codes_for_any_network() {
    let mut cfg = PipeLayerConfig::default();
    cfg.params.data_bits = 40; // > 32 spike slots, and 40 % 4 == 0
    let diags = verify(&zoo::spec_mnist_a(), &cfg);
    assert!(diags.iter().any(|d| d.code == diag::QUANT_SPIKE_OVERFLOW));
}

#[test]
fn zero_bit_cells_are_one_error_not_a_panic() {
    let mut cfg = PipeLayerConfig::default();
    cfg.params.cell_bits = 0;
    let diags = verify(&zoo::spec_mnist_a(), &cfg);
    let errors: Vec<_> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert_eq!(errors.len(), 1, "{diags:?}");
    assert_eq!(errors[0].code, diag::QUANT_BITS_MISALIGNED);
}

#[test]
fn each_bad_width_is_reported_once() {
    for (cell, data) in [(4, 40), (3, 16), (9, 18)] {
        let mut cfg = PipeLayerConfig::default();
        cfg.params.cell_bits = cell;
        cfg.params.data_bits = data;
        let diags = verify(&zoo::spec_mnist_a(), &cfg);
        let errors = diags.iter().filter(|d| d.severity == Severity::Error);
        assert_eq!(errors.count(), 1, "{cell}/{data}: {diags:?}");
    }
    // 32-bit data is the spike driver's limit, not past it.
    let mut cfg = PipeLayerConfig::default();
    cfg.params.data_bits = 32;
    let diags = verify(&zoo::spec_mnist_a(), &cfg);
    assert!(
        diags.iter().all(|d| {
            ![
                diag::QUANT_BITS_MISALIGNED,
                diag::QUANT_SPIKE_OVERFLOW,
                diag::CONFIG_INVALID,
            ]
            .contains(&d.code)
        }),
        "{diags:?}"
    );
}

#[test]
fn json_rendering_is_well_formed_enough_to_grep() {
    let diags = verify(&zoo::spec_mnist_a(), &PipeLayerConfig::default());
    let json = pipelayer_check::render_json(&diags);
    assert!(json.starts_with('[') && json.ends_with(']'));
    for d in &diags {
        assert!(json.contains(d.code));
    }
}
