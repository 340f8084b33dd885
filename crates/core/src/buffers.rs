//! Circular inter-layer buffers (Sec. 3.3, Fig. 8).
//!
//! In the pipelined design, layer `l`'s output `d_l` computed for image `i`
//! is consumed twice: by layer `l+1`'s forward phase one cycle later, and by
//! the partial-derivative computation `∂W_{l+1}` exactly `2(L−l)+1` cycles
//! later. Since a new output is produced *every* cycle, the buffer between
//! `A_l` and `A_{l+1}` must hold `2(L−l)+1` entries, written round-robin; a
//! slot is overwritten on the same cycle its old value is last read, which
//! is legal because reads are served before the cycle's write commits (the
//! paper instead duplicates the depth-1 buffers — `d_L` and the `δ`s — to
//! allow a same-cycle read and write; [`CircularBuffer::same_cycle_conflicts`]
//! counts exactly those cases).

use std::num::NonZeroUsize;

/// A tagged circular buffer: each write deposits `(tag, cycle)` into the
/// next slot round-robin; reads look a fixed number of slots back and check
/// the tag, which makes stale-data bugs (undersized buffers) observable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircularBuffer {
    slots: Vec<Option<(u64, u64)>>, // (tag, write_cycle)
    head: usize,
    writes: u64,
    conflicts: u64,
    last_write_cycle: Option<u64>,
}

impl CircularBuffer {
    /// Creates a buffer with `depth` slots.
    pub fn new(depth: NonZeroUsize) -> Self {
        CircularBuffer {
            slots: vec![None; depth.get()],
            head: 0,
            writes: 0,
            conflicts: 0,
            last_write_cycle: None,
        }
    }

    /// Number of slots.
    pub fn depth(&self) -> usize {
        self.slots.len()
    }

    /// Writes `tag` at `cycle` into the slot under the head pointer and
    /// advances the pointer (the paper's logical pointer that wraps around).
    pub fn write(&mut self, tag: u64, cycle: u64) {
        self.slots[self.head] = Some((tag, cycle));
        self.head = (self.head + 1) % self.slots.len();
        self.writes += 1;
        self.last_write_cycle = Some(cycle);
    }

    /// Reads the value written for `tag`, recording a same-cycle
    /// read/write conflict if the buffer was also written at `cycle`.
    /// Returns `true` if the tag is present (fresh), `false` if the data
    /// has been overwritten (a dependency violation).
    pub fn read(&mut self, tag: u64, cycle: u64) -> bool {
        if self.last_write_cycle == Some(cycle) {
            self.conflicts += 1;
        }
        self.slots.iter().flatten().any(|&(t, _)| t == tag)
    }

    /// Same-cycle read/write events observed — the condition that forces
    /// buffer duplication in the paper.
    pub fn same_cycle_conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Total writes.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn buffer(depth: usize) -> CircularBuffer {
        CircularBuffer::new(NonZeroUsize::new(depth).unwrap())
    }

    #[test]
    fn survives_exactly_depth_minus_one_later_writes() {
        let mut buf = buffer(5);
        buf.write(0, 0);
        for c in 1..5 {
            buf.write(c, c);
        }
        // After 4 more writes the first value is still there...
        assert!(buf.read(0, 4));
        // ...but the 5th overwrite evicts it.
        buf.write(5, 5);
        assert!(!buf.read(0, 5));
    }

    #[test]
    fn conflict_detected_on_same_cycle() {
        let mut buf = buffer(1);
        buf.write(7, 3);
        assert!(buf.read(7, 3));
        assert_eq!(buf.same_cycle_conflicts(), 1);
        assert!(buf.read(7, 4));
        assert_eq!(buf.same_cycle_conflicts(), 1);
    }

    proptest! {
        /// Fig. 8's claim as a property: with one write per cycle, a value
        /// needed `gap` cycles after production survives iff
        /// `depth >= gap` (the paper's `2(L−l)+1` sizing uses
        /// `gap = 2(L−l)+1` with the read served before the overwrite).
        #[test]
        fn depth_is_exactly_sufficient(gap in 1usize..30, extra in 0usize..5) {
            // Sufficient depth.
            let mut ok = buffer(gap + extra);
            ok.write(0, 0);
            for c in 1..gap as u64 {
                ok.write(c, c);
            }
            prop_assert!(ok.read(0, gap as u64));

            // One slot short: the value dies one cycle early.
            if gap > 1 {
                let mut short = buffer(gap - 1);
                short.write(0, 0);
                for c in 1..gap as u64 {
                    short.write(c, c);
                }
                prop_assert!(!short.read(0, gap as u64));
            }
        }
    }
}
