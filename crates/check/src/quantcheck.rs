//! Quantization / spike-coding sanity: the device's bit-width knobs must
//! compose — `data_bits` splits into `cell_bits` segment groups (Fig. 14),
//! the spike driver injects one time slot per data bit (Fig. 9a, at most
//! 32), the functional quantizer models 1..=24-bit resolutions, and the
//! configured accumulator must hold at least one full-scale partial
//! product (the network-independent floor of the PL042 range check —
//! `absint` tightens it per layer with the real matrix geometry).

use crate::diag::{self, Diagnostic};
use pipelayer::PipeLayerConfig;
use pipelayer_quant::{accumulator_bits_worst_case, Quantizer};
use pipelayer_reram::BitWidthError;

/// Checks the bit-width configuration in `cfg.params`. The widths' domain
/// is [`ReramParams::check_bit_widths`](pipelayer_reram::ReramParams::check_bit_widths),
/// the rule `PipeLayerConfig::validate` applies too; this pass reports its
/// verdict under the bit-width codes.
pub fn check(cfg: &PipeLayerConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let data = cfg.params.data_bits;

    if let Err(e) = cfg.params.check_bit_widths() {
        let (code, hint) = match e {
            BitWidthError::TooWide(_) => (
                diag::QUANT_SPIKE_OVERFLOW,
                "the Fig. 9(a) driver injects one LSBF time slot per data bit; \
                 one array-read phase cannot exceed 32 slots",
            ),
            BitWidthError::CellBits(_) | BitWidthError::Misaligned { .. } => (
                diag::QUANT_BITS_MISALIGNED,
                "Fig. 14 decomposes each word into data_bits/cell_bits segment groups \
                 of 1..=8-bit cells; data_bits must be a positive multiple of \
                 cell_bits (default 16 = 4 x 4)",
            ),
        };
        diags.push(Diagnostic::error(
            code,
            "config.params",
            e.to_string(),
            hint,
        ));
    } else if Quantizer::try_new(data).is_err() {
        diags.push(Diagnostic::warning(
            diag::QUANT_UNSUPPORTED_RESOLUTION,
            "config.params",
            format!("data_bits = {data} is outside the functional quantizer's 1..=24-bit range"),
            "timing/energy models still apply, but the functional datapath \
             (quantize-dequantize, Fig. 13 studies) cannot model this resolution",
        ));
    }

    // Network-independent accumulator floor: one qmax x qmax partial
    // product must fit, or every non-trivial dot product overflows.
    let acc = u32::from(cfg.datapath.accumulator_bits);
    if data > 0 && Quantizer::try_new(data).is_ok() {
        let floor = accumulator_bits_worst_case(1, data, data);
        if acc < floor {
            diags.push(Diagnostic::error(
                diag::RANGE_ACC_TOO_NARROW,
                "config.datapath",
                format!(
                    "accumulator_bits = {acc} cannot hold even a single {data}-bit \u{d7} \
                     {data}-bit product ({floor} bits)"
                ),
                "widen datapath.accumulator_bits to at least the single-product width; \
                 the per-layer PL042 check then bounds the full dot products",
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn with_bits(cell: u8, data: u8) -> PipeLayerConfig {
        let mut cfg = PipeLayerConfig::default();
        cfg.params.cell_bits = cell;
        cfg.params.data_bits = data;
        cfg
    }

    #[test]
    fn defaults_are_clean() {
        assert!(check(&PipeLayerConfig::default()).is_empty());
    }

    #[test]
    fn misaligned_bits_are_rejected() {
        for (cell, data) in [(0u8, 16u8), (4, 0), (5, 16), (3, 16)] {
            let diags = check(&with_bits(cell, data));
            assert!(
                diags.iter().any(|d| d.code == diag::QUANT_BITS_MISALIGNED),
                "cell={cell} data={data}: {diags:?}"
            );
        }
    }

    #[test]
    fn spike_overflow_is_an_error() {
        let diags = check(&with_bits(4, 40));
        assert!(diags
            .iter()
            .any(|d| d.code == diag::QUANT_SPIKE_OVERFLOW && d.severity == Severity::Error));
    }

    #[test]
    fn accumulator_below_single_product_floor_is_an_error() {
        let mut cfg = PipeLayerConfig::default();
        cfg.datapath.accumulator_bits = 16; // one 16x16-bit product needs 31
        let diags = check(&cfg);
        assert!(
            diags
                .iter()
                .any(|d| d.code == diag::RANGE_ACC_TOO_NARROW && d.severity == Severity::Error),
            "{diags:?}"
        );
        // At the floor itself the check is quiet (the per-layer pass takes over).
        cfg.datapath.accumulator_bits = 31;
        assert!(check(&cfg).is_empty());
    }

    #[test]
    fn beyond_quantizer_range_is_a_warning() {
        // 28 = 7 x 4-bit groups: physically mappable, spike-encodable, but
        // past the functional quantizer's 24-bit ceiling.
        let diags = check(&with_bits(4, 28));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, diag::QUANT_UNSUPPORTED_RESOLUTION);
        assert_eq!(diags[0].severity, Severity::Warning);
    }
}
