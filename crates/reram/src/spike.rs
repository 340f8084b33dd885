//! The weighted spike coding scheme of Fig. 9(a).
//!
//! A digital `N`-bit input value is injected over `N` time slots, **least
//! significant bit first** (LSBF). Inside the driver, `N` reference voltages
//! `V0/2^N .. V0/2` are generated; the timing control shifts key `K1`
//! non-decreasingly through them, and key `K2` (driven by the data bits)
//! decides whether the slot's spike fires. The charge a spike deposits is
//! therefore proportional to `2^slot`, so the integrated bitline charge
//! equals the exact weighted dot product — no DAC needed.

/// A spike train: one boolean per time slot, LSB first.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpikeTrain {
    slots: Vec<bool>,
}

impl SpikeTrain {
    /// Encodes `value` into `bits` LSBF slots (at most 32, the ladder's
    /// rungs). A `value` that needs more than `bits` bits keeps only its
    /// low `bits` bits — exactly what the slot ladder can physically inject.
    pub fn encode(value: u32, bits: u8) -> Self {
        SpikeTrain {
            slots: (0..bits.min(32)).map(|i| (value >> i) & 1 == 1).collect(),
        }
    }

    /// Number of time slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if the train has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether slot `i` fires. Slots past the end of the train never
    /// fire — a driver clamped to fewer bits than the caller asked for
    /// simply injects nothing in the missing slots (no panic).
    pub fn fires(&self, slot: usize) -> bool {
        self.slots.get(slot).is_some_and(|&s| s)
    }

    /// Number of spikes actually fired (drives read energy).
    pub fn spike_count(&self) -> u32 {
        self.slots.iter().filter(|&&s| s).count() as u32
    }

    /// Decodes the train back into its value: `Σ fires(i)·2^i`.
    pub fn decode(&self) -> u32 {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(i, _)| 1u32 << i)
            .sum()
    }

    /// The relative charge weight of slot `i` (`2^i` in LSB units) —
    /// the non-decreasing reference-voltage ladder of Fig. 9(a).
    pub fn slot_weight(slot: usize) -> u64 {
        1u64 << slot
    }
}

/// The spike driver: encodes input values for computation mode, and serves
/// as the write driver when tuning weights (Sec. 4.2.1). Drivers are shared
/// between adjacent subarrays, which the area model accounts for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpikeDriver {
    bits: u8,
}

impl SpikeDriver {
    /// A driver producing `bits`-slot trains.
    ///
    /// `bits` outside `1..=32` clamps to that range (in every profile):
    /// the reference-voltage ladder physically has at most 32 rungs, so a
    /// wider request degrades to the widest ladder instead of panicking.
    /// Callers streaming slots must bound their loops by [`Self::bits`],
    /// not by the resolution they asked for.
    pub fn new(bits: u8) -> Self {
        SpikeDriver {
            bits: bits.clamp(1, 32),
        }
    }

    /// Input resolution (time slots per value).
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Encodes one value (see [`SpikeTrain::encode`] for range behaviour).
    pub fn encode(&self, value: u32) -> SpikeTrain {
        SpikeTrain::encode(value, self.bits)
    }

    /// Encodes a whole input vector (one train per word line).
    pub fn encode_vector(&self, values: &[u32]) -> Vec<SpikeTrain> {
        values.iter().map(|&v| self.encode(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_is_lsb_first() {
        let t = SpikeTrain::encode(0b1010, 4);
        assert!(!t.fires(0));
        assert!(t.fires(1));
        assert!(!t.fires(2));
        assert!(t.fires(3));
    }

    #[test]
    fn spike_count_is_popcount() {
        assert_eq!(SpikeTrain::encode(0b1011, 4).spike_count(), 3);
        assert_eq!(SpikeTrain::encode(0, 16).spike_count(), 0);
    }

    #[test]
    fn slot_weights_non_decreasing() {
        for i in 0..15 {
            assert!(SpikeTrain::slot_weight(i + 1) > SpikeTrain::slot_weight(i));
        }
    }

    #[test]
    fn driver_encodes_vectors() {
        let d = SpikeDriver::new(8);
        let trains = d.encode_vector(&[0, 255, 7]);
        assert_eq!(trains[1].spike_count(), 8);
        assert_eq!(trains[2].decode(), 7);
    }

    #[test]
    fn overflow_keeps_the_low_bits_on_every_mvm_path() {
        assert_eq!(SpikeTrain::encode(0b1_0110, 4).decode(), 0b0110);
        let mut gemm = crate::Crossbar::new(2, 2, 4);
        gemm.program(&[3, 5, 7, 9]);
        let mut scalar = gemm.clone();
        let input = [0b1_0110, 0xFFFF_FFF3];
        let out = gemm.mvm_spiked(&input, 4);
        assert_eq!(out, scalar.mvm_spiked_scalar(&input, 4));
        assert_eq!(out, vec![6 * 3 + 3 * 7, 6 * 5 + 3 * 9]);
        assert_eq!(gemm.read_spikes(), scalar.read_spikes());
    }

    #[test]
    fn out_of_range_slot_never_fires() {
        let t = SpikeTrain::encode(0b1111, 4);
        assert!(t.fires(3));
        assert!(!t.fires(4));
        assert!(!t.fires(1000));
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip(v in 0u32..65536) {
            prop_assert_eq!(SpikeTrain::encode(v, 16).decode(), v);
        }

        #[test]
        fn charge_equals_value(v in 0u32..65536) {
            // Σ fires(i)·slot_weight(i) == v: the integrated charge of the
            // weighted spike train reproduces the digital value exactly.
            let t = SpikeTrain::encode(v, 16);
            let charge: u64 = (0..t.len())
                .filter(|&i| t.fires(i))
                .map(SpikeTrain::slot_weight)
                .sum();
            prop_assert_eq!(charge, v as u64);
        }
    }
}
