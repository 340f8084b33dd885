//! Morphable and memory subarrays (Sec. 4.1).
//!
//! PipeLayer partitions the ReRAM main memory into two regions: *morphable*
//! subarrays that can operate either as conventional storage or as
//! compute arrays (matrix–vector multiplication), and *memory* subarrays
//! that only store data. The mode of a morphable subarray is configured by
//! the controller; this module models the state machine and enforces its
//! protocol:
//!
//! * in **memory mode** a subarray serves word reads/writes and refuses
//!   compute requests;
//! * in **compute mode** it serves spike-coded MVMs against its programmed
//!   weights and refuses word accesses;
//! * switching modes is explicit (the controller's `Topology_set` path) and
//!   counted, because each conversion reprograms the peripheral
//!   configuration — e.g. in training, the stored forward data `d` is
//!   written while the subarray is in memory mode, then the subarray is
//!   *converted to compute mode* to run the gradient convolution
//!   (Sec. 6.6).

use crate::crossbar::Crossbar;

/// The operating mode of a morphable subarray.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubarrayMode {
    /// Conventional data storage (words of `cells_per_word` cells).
    Memory,
    /// In-situ matrix–vector multiplication.
    Compute,
}

/// Errors returned when the subarray protocol is violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubarrayError {
    /// A compute request arrived while in memory mode.
    NotInComputeMode,
    /// A word access arrived while in compute mode.
    NotInMemoryMode,
    /// Address out of range.
    AddressOutOfRange,
}

impl std::fmt::Display for SubarrayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubarrayError::NotInComputeMode => write!(f, "subarray is in memory mode"),
            SubarrayError::NotInMemoryMode => write!(f, "subarray is in compute mode"),
            SubarrayError::AddressOutOfRange => write!(f, "address out of range"),
        }
    }
}

impl std::error::Error for SubarrayError {}

/// A morphable subarray: one crossbar plus the mode state machine.
///
/// In memory mode, cells store data words nibble-wise (4 bits per cell,
/// matching [`ReramParams::cells_per_word`]); in compute mode the same
/// cells hold weight levels and the spike path is active.
///
/// [`ReramParams::cells_per_word`]: crate::ReramParams::cells_per_word
#[derive(Debug, Clone)]
pub struct MorphableSubarray {
    xbar: Crossbar,
    mode: SubarrayMode,
    conversions: u64,
}

impl MorphableSubarray {
    /// A fresh subarray in memory mode (the reset state of the main-memory
    /// region).
    pub fn new(size: usize, cell_bits: u8) -> Self {
        MorphableSubarray {
            xbar: Crossbar::new(size, size, cell_bits),
            mode: SubarrayMode::Memory,
            conversions: 0,
        }
    }

    /// Current mode.
    pub fn mode(&self) -> SubarrayMode {
        self.mode
    }

    /// Number of mode conversions performed.
    pub fn conversions(&self) -> u64 {
        self.conversions
    }

    /// Words storable in memory mode: `size²` cells / cells-per-word.
    pub fn capacity_words(&self, cells_per_word: usize) -> usize {
        (self.xbar.rows() * self.xbar.cols()) / cells_per_word
    }

    /// Switches mode; a no-op if already there (no conversion counted).
    pub fn set_mode(&mut self, mode: SubarrayMode) {
        if self.mode != mode {
            self.mode = mode;
            self.conversions += 1;
        }
    }

    /// Stores a 16-bit word at `addr` (memory mode only): four consecutive
    /// cells take its nibbles, LSB first.
    ///
    /// # Errors
    ///
    /// [`SubarrayError::NotInMemoryMode`] in compute mode;
    /// [`SubarrayError::AddressOutOfRange`] past capacity.
    pub fn write_word(&mut self, addr: usize, value: u16) -> Result<(), SubarrayError> {
        if self.mode != SubarrayMode::Memory {
            return Err(SubarrayError::NotInMemoryMode);
        }
        let cells_per_word = (16 / self.xbar.cell_bits()) as usize;
        if addr >= self.capacity_words(cells_per_word) {
            return Err(SubarrayError::AddressOutOfRange);
        }
        let cols = self.xbar.cols();
        // Program the word's nibbles into consecutive cells via a one-row
        // level patch (reusing the crossbar programming path so write
        // spikes are counted).
        let base = addr * cells_per_word;
        let mask = (1u16 << self.xbar.cell_bits()) - 1;
        for g in 0..cells_per_word {
            let cell = base + g;
            let (r, c) = (cell / cols, cell % cols);
            let nibble = ((value >> (g as u16 * self.xbar.cell_bits() as u16)) & mask) as u8;
            self.program_cell(r, c, nibble);
        }
        Ok(())
    }

    /// Reads a 16-bit word from `addr` (memory mode only).
    ///
    /// # Errors
    ///
    /// Same conditions as [`write_word`](Self::write_word).
    pub fn read_word(&self, addr: usize) -> Result<u16, SubarrayError> {
        if self.mode != SubarrayMode::Memory {
            return Err(SubarrayError::NotInMemoryMode);
        }
        let cells_per_word = (16 / self.xbar.cell_bits()) as usize;
        if addr >= self.capacity_words(cells_per_word) {
            return Err(SubarrayError::AddressOutOfRange);
        }
        let cols = self.xbar.cols();
        let base = addr * cells_per_word;
        let mut value = 0u16;
        for g in 0..cells_per_word {
            let cell = base + g;
            let (r, c) = (cell / cols, cell % cols);
            value |= (self.xbar.level(r, c) as u16) << (g as u16 * self.xbar.cell_bits() as u16);
        }
        Ok(value)
    }

    /// Programs the whole array with row-major weight levels (compute mode
    /// only).
    ///
    /// # Errors
    ///
    /// [`SubarrayError::NotInComputeMode`] in memory mode.
    ///
    /// # Panics
    ///
    /// Panics if `levels` does not cover the whole array.
    pub fn program_weights(&mut self, levels: &[u8]) -> Result<u64, SubarrayError> {
        if self.mode != SubarrayMode::Compute {
            return Err(SubarrayError::NotInComputeMode);
        }
        Ok(self.xbar.program(levels))
    }

    /// Spike-coded MVM (compute mode only).
    ///
    /// # Errors
    ///
    /// [`SubarrayError::NotInComputeMode`] in memory mode.
    pub fn mvm(&mut self, input: &[u32], input_bits: u8) -> Result<Vec<u64>, SubarrayError> {
        if self.mode != SubarrayMode::Compute {
            return Err(SubarrayError::NotInComputeMode);
        }
        Ok(self.xbar.mvm_spiked(input, input_bits))
    }

    /// Underlying crossbar (spike counters etc.).
    pub fn crossbar(&self) -> &Crossbar {
        &self.xbar
    }

    fn program_cell(&mut self, row: usize, col: usize, level: u8) {
        // One-cell patch: keep all other cells as they are.
        let mut levels = self.xbar.stored_levels();
        levels[row * self.xbar.cols() + col] = level;
        self.xbar.program(&levels);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_in_memory_mode() {
        let sa = MorphableSubarray::new(16, 4);
        assert_eq!(sa.mode(), SubarrayMode::Memory);
        assert_eq!(sa.conversions(), 0);
    }

    #[test]
    fn word_roundtrip_in_memory_mode() {
        let mut sa = MorphableSubarray::new(16, 4);
        sa.write_word(0, 0xBEEF).unwrap();
        sa.write_word(5, 0x1234).unwrap();
        assert_eq!(sa.read_word(0).unwrap(), 0xBEEF);
        assert_eq!(sa.read_word(5).unwrap(), 0x1234);
        assert_eq!(sa.read_word(1).unwrap(), 0);
    }

    #[test]
    fn compute_requests_rejected_in_memory_mode() {
        let mut sa = MorphableSubarray::new(4, 4);
        assert_eq!(
            sa.mvm(&[1, 2, 3, 4], 8),
            Err(SubarrayError::NotInComputeMode)
        );
        assert_eq!(
            sa.program_weights(&[0; 16]),
            Err(SubarrayError::NotInComputeMode)
        );
    }

    #[test]
    fn word_access_rejected_in_compute_mode() {
        let mut sa = MorphableSubarray::new(4, 4);
        sa.set_mode(SubarrayMode::Compute);
        assert_eq!(sa.write_word(0, 1), Err(SubarrayError::NotInMemoryMode));
        assert_eq!(sa.read_word(0), Err(SubarrayError::NotInMemoryMode));
    }

    #[test]
    fn conversion_counting() {
        let mut sa = MorphableSubarray::new(4, 4);
        sa.set_mode(SubarrayMode::Compute);
        sa.set_mode(SubarrayMode::Compute); // no-op
        sa.set_mode(SubarrayMode::Memory);
        assert_eq!(sa.conversions(), 2);
    }

    #[test]
    fn stored_data_becomes_weights_after_conversion() {
        // The Sec. 6.6 trick: write d in memory mode, convert, and the same
        // cells act as kernel weights for the gradient convolution.
        let mut sa = MorphableSubarray::new(4, 4);
        // Word 0 -> nibbles of 0x4321 into cells (0,0..4): 1,2,3,4.
        sa.write_word(0, 0x4321).unwrap();
        sa.set_mode(SubarrayMode::Compute);
        // Drive word line 0: outputs are the nibble levels times the input.
        let out = sa.mvm(&[10, 0, 0, 0], 8).unwrap();
        assert_eq!(out, vec![10, 20, 30, 40]);
    }

    #[test]
    fn capacity_and_bounds() {
        let mut sa = MorphableSubarray::new(16, 4);
        assert_eq!(sa.capacity_words(4), 64);
        assert_eq!(sa.write_word(64, 1), Err(SubarrayError::AddressOutOfRange));
    }

    #[test]
    fn errors_are_displayable() {
        assert!(SubarrayError::NotInComputeMode
            .to_string()
            .contains("memory mode"));
    }
}
