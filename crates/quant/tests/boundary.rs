//! Boundary behaviour of the fixed-point quantizer — the exact edges the
//! PL04x range analysis reasons about: values at ±absmax and values just
//! past the clamp, at every resolution the resolution study (Fig. 13)
//! sweeps. The Fig. 14 segment decomposition of those codes is checked on
//! the crossbars that store them, in `pipelayer_reram::array_group`.

#![expect(
    clippy::unwrap_used,
    clippy::disallowed_macros,
    reason = "the library gate exempts test code: a failed assertion is how a test fails"
)]

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
