//! Boundary behaviour of the fixed-point quantizer and the Fig. 14 segment
//! decomposition — the exact edges the PL04x range analysis reasons about:
//! values at ±absmax, values just past the clamp, and full-scale codes
//! round-tripping through split/recombine at every resolution the
//! resolution study (Fig. 13) sweeps.

use pipelayer_quant::compose::{compose_segments, split_segments};
use pipelayer_quant::Quantizer;

/// At exactly ±absmax the quantizer must hit ±qmax and dequantize back to
/// ±absmax without any rounding wobble.
#[test]
fn full_scale_values_map_to_qmax_exactly() {
    for bits in 1..=24u8 {
        let q = Quantizer::try_new(bits).unwrap();
        for absmax in [1.0f32, 0.5, 3.75, 1e-3, 1e4] {
            assert_eq!(q.quantize(absmax, absmax), q.qmax(), "bits={bits}");
            assert_eq!(q.quantize(-absmax, absmax), -q.qmax(), "bits={bits}");
            let rt = q.quantize_dequantize(absmax, absmax);
            assert!(
                (rt - absmax).abs() <= absmax * 1e-6,
                "bits={bits} absmax={absmax}: {rt}"
            );
            let rt = q.quantize_dequantize(-absmax, absmax);
            assert!(
                (rt + absmax).abs() <= absmax * 1e-6,
                "bits={bits} absmax={absmax}: {rt}"
            );
        }
    }
}

/// Values past the representable range clamp to ±qmax — the datapath
/// saturates, it never wraps. This is the semantics PL043 relies on.
#[test]
fn out_of_range_values_saturate_to_the_clamp() {
    for bits in 2..=16u8 {
        let q = Quantizer::try_new(bits).unwrap();
        let absmax = 2.0f32;
        for factor in [1.0001f32, 1.5, 10.0, 1e6] {
            assert_eq!(q.quantize(absmax * factor, absmax), q.qmax(), "bits={bits}");
            assert_eq!(
                q.quantize(-absmax * factor, absmax),
                -q.qmax(),
                "bits={bits}"
            );
        }
        // The dequantized image of anything beyond the range is exactly the
        // full-scale grid point.
        let clamped = q.quantize_dequantize(absmax * 7.0, absmax);
        assert!((clamped - absmax).abs() <= absmax * 1e-6, "bits={bits}");
    }
}

/// One step inside the clamp still quantizes to a distinct (non-saturated)
/// code once the resolution can represent it.
#[test]
fn values_one_step_inside_stay_unsaturated() {
    // bits >= 3 so qmax >= 3 and there is a distinct code below full scale
    // (1.4 steps inside rounds to qmax-1 regardless of f32 wobble).
    for bits in 3..=16u8 {
        let q = Quantizer::try_new(bits).unwrap();
        let absmax = 1.0f32;
        let step = q.scale(absmax);
        let code = q.quantize(absmax - 1.4 * step, absmax);
        assert_eq!(code, q.qmax() - 1, "bits={bits}: near-full-scale code");
    }
}

/// Fig. 14 split/recombine is the identity on every magnitude the datapath
/// can store, for every resolution of the Fig. 13 sweep and every cell
/// width that divides it — including the boundary codes 0, 1, qmax−1 and
/// qmax.
#[test]
fn boundary_codes_round_trip_through_segment_recombination() {
    for bits in 2..=16u8 {
        let q = Quantizer::try_new(bits).unwrap();
        let qmax = u32::try_from(q.qmax()).expect("qmax is positive");
        for cell in [1u8, 2, 3, 4, 8] {
            if !bits.is_multiple_of(cell) {
                continue;
            }
            for code in [0u32, 1, qmax.saturating_sub(1), qmax] {
                let segments = split_segments(code, bits, cell);
                assert_eq!(
                    segments.len(),
                    usize::from(bits / cell),
                    "bits={bits} cell={cell}"
                );
                let mask = (1u32 << cell) - 1;
                for &s in &segments {
                    assert!(u32::from(s) <= mask, "segment exceeds cell resolution");
                }
                assert_eq!(
                    compose_segments(&segments, cell),
                    code,
                    "bits={bits} cell={cell} code={code}"
                );
            }
        }
    }
}

/// The full quantize → split → recombine → dequantize pipeline (what the
/// crossbars physically store and the shift-add reconstructs) agrees with
/// plain quantize-dequantize at the range boundaries.
#[test]
fn hardware_path_agrees_with_reference_at_boundaries() {
    for bits in 2..=16u8 {
        let q = Quantizer::try_new(bits).unwrap();
        let absmax = 1.0f32;
        for x in [absmax, -absmax, absmax * 0.999, -absmax * 0.999, 0.0] {
            let code = q.quantize(x, absmax);
            let magnitude = code.unsigned_abs();
            let cell = if bits.is_multiple_of(4) { 4 } else { 1 };
            let recombined = compose_segments(&split_segments(magnitude, bits, cell), cell);
            assert_eq!(recombined, magnitude, "bits={bits} x={x}");
            let sign = if code < 0 { -1.0 } else { 1.0 };
            let via_hw = sign * recombined as f32 * q.scale(absmax);
            let reference = q.quantize_dequantize(x, absmax);
            assert!(
                (via_hw - reference).abs() <= f32::EPSILON * absmax.abs() * 4.0,
                "bits={bits} x={x}: {via_hw} vs {reference}"
            );
        }
    }
}
