//! Peripheral-scheme comparison: spike+integrate-and-fire (PipeLayer)
//! versus spike+ADC (ISAAC) versus DAC+ADC (PRIME-style voltage levels).
//!
//! One of the paper's contributions is eliminating *both* converter types:
//! "to eliminate the overhead of DACs and ADCs, PipeLayer uses a spike-based
//! scheme ... Such design requires more cycles to inject data, however, the
//! drawback is offset by the pipelined architecture" (Sec. 1). This module
//! makes the trade quantitative for a single crossbar read phase so the
//! `ablation_adc` bench can reproduce the argument.
//!
//! Constants (documented estimates from the ISAAC and PRIME papers):
//! * ISAAC's 8-bit SAR ADC: 1.28 GS/s at 16 mW → 12.5 pJ per conversion,
//!   one conversion per bit line per input slot-group;
//! * a word-line DAC: ≈ 1 pJ per conversion at low resolution; PRIME used
//!   3-bit input voltages, so a 16-bit input needs ⌈16/3⌉ = 6 level phases;
//! * PipeLayer's integrate-and-fire: a capacitor + comparator + counter per
//!   bit-line group, ≈ 0.1 pJ per output value, no conversion clock.

use pipelayer_nn::spec::NetSpec;
use pipelayer_reram::units::{Nanoseconds, Picojoules};

/// How a crossbar's inputs and outputs cross the analog/digital boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeripheralScheme {
    /// PipeLayer: weighted spike trains in, integrate-and-fire out.
    SpikeIntegrateFire,
    /// ISAAC: bit-serial spikes in, ADC out every slot.
    SpikeAdc,
    /// PRIME-style: DAC-generated voltage levels in, ADC out.
    DacAdc,
}

impl PeripheralScheme {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PeripheralScheme::SpikeIntegrateFire => "spike + I&F (PipeLayer)",
            PeripheralScheme::SpikeAdc => "spike + ADC (ISAAC)",
            PeripheralScheme::DacAdc => "DAC + ADC (PRIME-style)",
        }
    }
}

/// Cost of one array read phase (one input vector against one crossbar).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseCost {
    /// Latency.
    pub latency_ns: Nanoseconds,
    /// Energy.
    pub energy_pj: Picojoules,
    /// Input time slots needed for a full-resolution input.
    pub input_slots: u32,
}

/// Peripheral cost model for a `rows × cols` crossbar at `data_bits` input
/// resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeripheralModel {
    /// Array read latency per spike/level phase (29.31 ns in the paper).
    pub read_ns: Nanoseconds,
    /// Read energy per input spike (1.08 pJ).
    pub spike_pj: Picojoules,
    /// ADC energy per conversion.
    pub adc_pj: Picojoules,
    /// ADC conversion time.
    pub adc_ns: Nanoseconds,
    /// DAC energy per conversion.
    pub dac_pj: Picojoules,
    /// DAC input resolution, bits (PRIME used 3-bit voltage levels).
    pub dac_bits: u32,
    /// Integrate-and-fire energy per output value.
    pub if_pj: Picojoules,
}

impl Default for PeripheralModel {
    fn default() -> Self {
        PeripheralModel {
            read_ns: Nanoseconds(29.31),
            spike_pj: Picojoules(1.08),
            adc_pj: Picojoules(12.5),
            adc_ns: Nanoseconds(0.78), // 1.28 GS/s SAR
            dac_pj: Picojoules(1.0),
            dac_bits: 3,
            if_pj: Picojoules(0.1),
        }
    }
}

impl PeripheralModel {
    /// Cost of one full-resolution (`data_bits`) input vector processed by
    /// one `rows × cols` array under `scheme`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the resolution is zero.
    #[expect(clippy::disallowed_macros, reason = "caller bug: zero-sized phase")]
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn phase_cost(
        &self,
        scheme: PeripheralScheme,
        rows: usize,
        cols: usize,
        data_bits: u32,
    ) -> PhaseCost {
        assert!(rows > 0 && cols > 0 && data_bits > 0, "degenerate phase");
        let (r, c, b) = (rows as f64, cols as f64, data_bits as f64);
        match scheme {
            PeripheralScheme::SpikeIntegrateFire => {
                // b slots; on average half the slots carry a spike per row;
                // fire-counting costs if_pj per output.
                PhaseCost {
                    latency_ns: b * self.read_ns,
                    energy_pj: r * (b / 2.0) * self.spike_pj + c * self.if_pj,
                    input_slots: data_bits,
                }
            }
            PeripheralScheme::SpikeAdc => {
                // Same input slots, but every slot's partial sums are
                // digitised: one ADC conversion per bit line per slot.
                PhaseCost {
                    latency_ns: b * (self.read_ns + self.adc_ns),
                    energy_pj: r * (b / 2.0) * self.spike_pj + c * b * self.adc_pj,
                    input_slots: data_bits,
                }
            }
            PeripheralScheme::DacAdc => {
                // Voltage levels carry dac_bits per phase → fewer phases,
                // but every row needs a DAC conversion per phase and every
                // column an ADC conversion per phase.
                let phases = data_bits.div_ceil(self.dac_bits) as f64;
                PhaseCost {
                    latency_ns: phases * (self.read_ns + self.adc_ns),
                    energy_pj: phases * (r * self.dac_pj + r * self.spike_pj + c * self.adc_pj),
                    input_slots: data_bits.div_ceil(self.dac_bits),
                }
            }
        }
    }

    /// Per-image peripheral energy for a whole network's forward pass:
    /// every layer's `P` window positions, each one phase per crossbar
    /// column-tile (×8 crossbars per matrix copy).
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn network_forward_energy_pj(
        &self,
        spec: &NetSpec,
        scheme: PeripheralScheme,
        xbar: usize,
        data_bits: u32,
    ) -> Picojoules {
        spec.resolve()
            .iter()
            .map(|l| {
                let col_tiles = l.matrix_cols.div_ceil(xbar);
                let rows = l.matrix_rows.min(xbar);
                let cost = self.phase_cost(scheme, rows, l.matrix_cols.min(xbar), data_bits);
                let row_tiles = l.matrix_rows.div_ceil(xbar);
                l.window_positions.max(1) as f64
                    * cost.energy_pj
                    * (col_tiles * row_tiles * 8) as f64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelayer_eliminates_adc_energy() {
        let m = PeripheralModel::default();
        let inf = m.phase_cost(PeripheralScheme::SpikeIntegrateFire, 128, 128, 16);
        let adc = m.phase_cost(PeripheralScheme::SpikeAdc, 128, 128, 16);
        assert!(
            adc.energy_pj > 5.0 * inf.energy_pj,
            "ADC read-out should dominate: {:?} vs {:?}",
            adc.energy_pj,
            inf.energy_pj
        );
    }

    #[test]
    fn voltage_scheme_is_faster_but_needs_converters() {
        let m = PeripheralModel::default();
        let inf = m.phase_cost(PeripheralScheme::SpikeIntegrateFire, 128, 128, 16);
        let dac = m.phase_cost(PeripheralScheme::DacAdc, 128, 128, 16);
        // Fewer input slots (the paper's acknowledged drawback of spikes)...
        assert!(dac.input_slots < inf.input_slots);
        assert!(dac.latency_ns < inf.latency_ns);
        // ...but more energy per phase.
        assert!(dac.energy_pj > inf.energy_pj);
    }

    #[test]
    fn slot_count_matches_resolution() {
        let m = PeripheralModel::default();
        let c = m.phase_cost(PeripheralScheme::SpikeIntegrateFire, 64, 64, 16);
        assert_eq!(c.input_slots, 16);
        let d = m.phase_cost(PeripheralScheme::DacAdc, 64, 64, 16);
        assert_eq!(d.input_slots, 6); // ceil(16/3)
    }

    #[test]
    fn network_energy_ordering_holds() {
        let m = PeripheralModel::default();
        let spec = pipelayer_nn::zoo::spec_mnist_0();
        let e_if =
            m.network_forward_energy_pj(&spec, PeripheralScheme::SpikeIntegrateFire, 128, 16);
        let e_adc = m.network_forward_energy_pj(&spec, PeripheralScheme::SpikeAdc, 128, 16);
        let e_dac = m.network_forward_energy_pj(&spec, PeripheralScheme::DacAdc, 128, 16);
        assert!(
            e_if < e_adc && e_if < e_dac,
            "I&F must be cheapest: {e_if:?} {e_adc:?} {e_dac:?}"
        );
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn rejects_zero_rows() {
        PeripheralModel::default().phase_cost(PeripheralScheme::SpikeAdc, 0, 4, 8);
    }
}
