//! NVSim-derived device parameters and spike-level energy accounting.
//!
//! The paper's simulator is "based on NVSim \[19\]; the read/write latency,
//! read/write energy cost used in the simulator are 29.31 ns / 50.88 ns per
//! spike and 1.08 pJ / 3.91 nJ per spike, reported in \[46\]" (Sec. 6.2).
//! Those four scalars, the crossbar geometry and the resolution choices of
//! Sec. 5.1 (16-bit data on 4-bit cells) are collected in [`ReramParams`];
//! [`EnergyCounter`] turns spike counts into joules. Latencies and energies
//! are typed ([`Nanoseconds`], [`Picojoules`], [`Joules`]; see [`crate::units`]).

use crate::units::{Joules, Nanoseconds, Picojoules};
use std::num::NonZeroUsize;

/// Device/array parameters shared across the reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReramParams {
    /// Crossbar word/bit-line count (`128×128`; the Fig. 5 example
    /// partitions a 512×256 matrix into 8 such tiles).
    pub xbar_size: NonZeroUsize,
    /// Bits per ReRAM cell (Sec. 5.1: 4).
    pub cell_bits: u8,
    /// Data resolution in bits (Sec. 5.1: 16, built from four 4-bit
    /// segment groups per Fig. 14).
    pub data_bits: u8,
    /// Read latency per spike, ns (29.31).
    pub read_latency_ns: Nanoseconds,
    /// Write (programming) latency per spike, ns (50.88).
    pub write_latency_ns: Nanoseconds,
    /// Read energy per spike, pJ (1.08).
    pub read_energy_pj: Picojoules,
    /// Write energy per spike, pJ (3.91 nJ = 3910 pJ).
    pub write_energy_pj: Picojoules,
    /// Memory-subarray words written in parallel per write pulse
    /// (bank-level parallelism of the conventional-memory region).
    pub mem_write_width: usize,
    /// Words per write pulse when storing data into *morphable* arrays
    /// (precision cell tuning is slower than bulk memory-bank writes).
    pub morphable_write_width: usize,
}

impl Default for ReramParams {
    fn default() -> Self {
        ReramParams {
            xbar_size: NonZeroUsize::MIN.saturating_add(127),
            cell_bits: 4,
            data_bits: 16,
            read_latency_ns: Nanoseconds(29.31),
            write_latency_ns: Nanoseconds(50.88),
            read_energy_pj: Picojoules(1.08),
            write_energy_pj: Picojoules(3910.0),
            mem_write_width: 8192,
            morphable_write_width: 1024,
        }
    }
}

/// The widest `data_bits` a crossbar takes: the Fig. 9(a) spike driver
/// injects one time slot per data bit and has 32. Weights then round into
/// `i32` (magnitudes up to `2^31 − 1`) and input phases into `u32`
/// (magnitudes up to `2^31`).
pub const MAX_DATA_BITS: u8 = 32;

/// Why a [`ReramParams`]'s bit widths cannot configure a crossbar
/// ([`ReramParams::check_bit_widths`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitWidthError {
    /// `cell_bits` lies outside `1..=8`.
    CellBits(u8),
    /// `data_bits` is 0 or not a whole number of cells.
    Misaligned {
        /// The rejected data width.
        data_bits: u8,
        /// The cell resolution it has to split into.
        cell_bits: u8,
    },
    /// `data_bits` exceeds [`MAX_DATA_BITS`].
    TooWide(u8),
}

impl core::fmt::Display for BitWidthError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            BitWidthError::CellBits(b) => write!(f, "cell resolution {b} bits must be in 1..=8"),
            BitWidthError::Misaligned {
                data_bits,
                cell_bits,
            } => write!(
                f,
                "data_bits = {data_bits} does not split into {cell_bits}-bit cell segment groups"
            ),
            BitWidthError::TooWide(b) => write!(
                f,
                "data_bits = {b} exceeds the {MAX_DATA_BITS}-slot spike-train limit"
            ),
        }
    }
}

impl std::error::Error for BitWidthError {}

impl ReramParams {
    /// Checks the bit widths every crossbar model divides by: `cell_bits`
    /// in `1..=8`, and `data_bits` a positive multiple of it, at most
    /// [`MAX_DATA_BITS`].
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint, in that order.
    pub fn check_bit_widths(&self) -> Result<(), BitWidthError> {
        let (cell_bits, data_bits) = (self.cell_bits, self.data_bits);
        if !(1..=8).contains(&cell_bits) {
            Err(BitWidthError::CellBits(cell_bits))
        } else if data_bits == 0 || !data_bits.is_multiple_of(cell_bits) {
            Err(BitWidthError::Misaligned {
                data_bits,
                cell_bits,
            })
        } else if data_bits > MAX_DATA_BITS {
            Err(BitWidthError::TooWide(data_bits))
        } else {
            Ok(())
        }
    }

    /// Segment groups per signed matrix: `data_bits / cell_bits` (4).
    pub fn bit_groups(&self) -> usize {
        (self.data_bits / self.cell_bits) as usize
    }

    /// Physical crossbars per logical matrix copy: segment groups × the
    /// positive/negative pair (8 by default).
    pub fn crossbars_per_matrix(&self) -> usize {
        self.bit_groups() * 2
    }

    /// Cells needed to store one `data_bits` word (4).
    pub fn cells_per_word(&self) -> usize {
        self.bit_groups()
    }

    /// Duration of one spike-coded array read phase: `data_bits` time slots.
    pub fn read_phase_ns(&self) -> Nanoseconds {
        self.data_bits as f64 * self.read_latency_ns
    }
}

/// Accumulates spike counts and converts them to energy.
///
/// Reads are input spikes into morphable arrays; writes cover both weight
/// programming and intermediate-data writes into memory subarrays (PipeLayer
/// writes *all* data to ReRAM, the reason its power efficiency trails
/// eDRAM-buffered designs, Sec. 6.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnergyCounter {
    read_spikes: u64,
    write_spikes: u64,
}

impl EnergyCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        EnergyCounter::default()
    }

    /// Adds array-read spikes.
    pub fn add_read_spikes(&mut self, n: u64) {
        self.read_spikes += n;
    }

    /// Adds programming/memory-write spikes.
    pub fn add_write_spikes(&mut self, n: u64) {
        self.write_spikes += n;
    }

    /// Adds memory-subarray word writes: each `data_bits` word occupies
    /// `cells_per_word` cells, one programming spike each.
    pub fn add_word_writes(&mut self, words: u64, params: &ReramParams) {
        self.write_spikes += words * params.cells_per_word() as u64;
    }

    /// Read spikes so far.
    pub fn read_spikes(&self) -> u64 {
        self.read_spikes
    }

    /// Write spikes so far.
    pub fn write_spikes(&self) -> u64 {
        self.write_spikes
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &EnergyCounter) {
        self.read_spikes += other.read_spikes;
        self.write_spikes += other.write_spikes;
    }

    /// Total energy in joules under `params`.
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn energy_joules(&self, params: &ReramParams) -> Joules {
        (self.read_spikes as f64 * params.read_energy_pj
            + self.write_spikes as f64 * params.write_energy_pj)
            .to_joules()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_widths_have_one_rule() {
        let with_bits = |cell_bits, data_bits| {
            ReramParams {
                cell_bits,
                data_bits,
                ..ReramParams::default()
            }
            .check_bit_widths()
        };
        for (cell, data) in [(1, 1), (4, 16), (8, 8), (4, 28), (1, 31), (4, 32), (8, 32)] {
            assert_eq!(with_bits(cell, data), Ok(()), "{cell}/{data}");
        }
        for cell in [0, 9, 255] {
            assert_eq!(with_bits(cell, 16), Err(BitWidthError::CellBits(cell)));
        }
        for (cell, data) in [(4, 0), (3, 16), (5, 16), (3, 40)] {
            let misaligned = BitWidthError::Misaligned {
                data_bits: data,
                cell_bits: cell,
            };
            assert_eq!(with_bits(cell, data), Err(misaligned), "{cell}/{data}");
        }
        for (cell, data) in [(4, 36), (8, 40), (1, 33), (8, 248)] {
            assert_eq!(with_bits(cell, data), Err(BitWidthError::TooWide(data)));
        }
    }

    #[test]
    fn defaults_match_paper_constants() {
        let p = ReramParams::default();
        assert_eq!(p.read_latency_ns, Nanoseconds(29.31));
        assert_eq!(p.write_latency_ns, Nanoseconds(50.88));
        assert_eq!(p.read_energy_pj, Picojoules(1.08));
        assert_eq!(p.write_energy_pj, Picojoules(3910.0));
        assert_eq!(p.xbar_size.get(), 128);
        assert_eq!(p.bit_groups(), 4);
        assert_eq!(p.crossbars_per_matrix(), 8);
    }

    #[test]
    fn read_phase_is_16_slots() {
        let p = ReramParams::default();
        assert!((p.read_phase_ns().0 - 16.0 * 29.31).abs() < 1e-9);
    }

    #[test]
    fn energy_arithmetic() {
        let p = ReramParams::default();
        let mut e = EnergyCounter::new();
        e.add_read_spikes(1_000_000); // 1M × 1.08 pJ = 1.08 µJ
        e.add_write_spikes(1_000); // 1k × 3.91 nJ = 3.91 µJ
        let j = e.energy_joules(&p).0;
        assert!((j - (1.08e-6 + 3.91e-6)).abs() < 1e-12);
    }

    #[test]
    fn word_writes_use_four_cells() {
        let p = ReramParams::default();
        let mut e = EnergyCounter::new();
        e.add_word_writes(10, &p);
        assert_eq!(e.write_spikes(), 40);
    }

    #[test]
    fn merge_sums() {
        let mut a = EnergyCounter::new();
        a.add_read_spikes(3);
        let mut b = EnergyCounter::new();
        b.add_read_spikes(4);
        b.add_write_spikes(5);
        a.merge(&b);
        assert_eq!(a.read_spikes(), 7);
        assert_eq!(a.write_spikes(), 5);
    }

    #[test]
    fn write_energy_dominates_matched_counts() {
        // One write spike costs ~3600× one read spike — the asymmetry that
        // drives the paper's training-vs-testing energy gap.
        let p = ReramParams::default();
        let mut r = EnergyCounter::new();
        r.add_read_spikes(1);
        let mut w = EnergyCounter::new();
        w.add_write_spikes(1);
        assert!(w.energy_joules(&p) > 3000.0 * r.energy_joules(&p));
    }
}
