//! Circular inter-layer buffers (Sec. 3.3, Fig. 8).
//!
//! In the pipelined design, layer `l`'s output `d_l` computed for image `i`
//! is consumed twice: by layer `l+1`'s forward phase one cycle later, and by
//! the partial-derivative computation `∂W_{l+1}` exactly `2(L−l)+1` cycles
//! later. Since a new output is produced *every* cycle, the buffer between
//! `A_l` and `A_{l+1}` must hold `2(L−l)+1` entries, written round-robin; a
//! slot is overwritten on the same cycle its old value is last read, which
//! is legal because reads are served before the cycle's write commits. The
//! buffer holds slots only: which buffers see a read and a write in one
//! cycle (the paper duplicates `d_L` and the `δ`s for that) is a property
//! of the schedule, counted by [`PipelineSim`](crate::pipeline::PipelineSim).

use std::num::NonZeroUsize;

/// A tagged circular buffer: each write deposits a tag into the next slot
/// round-robin; a read checks that its tag is still held, which makes
/// stale-data bugs (undersized buffers) observable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircularBuffer {
    slots: Vec<Option<u64>>,
    head: usize,
}

impl CircularBuffer {
    /// Creates a buffer with `depth` slots.
    pub fn new(depth: NonZeroUsize) -> Self {
        CircularBuffer {
            slots: vec![None; depth.get()],
            head: 0,
        }
    }

    /// Writes `tag` into the slot under the head pointer and advances the
    /// pointer (the paper's logical pointer that wraps around).
    pub fn write(&mut self, tag: u64) {
        self.slots[self.head] = Some(tag);
        self.head = (self.head + 1) % self.slots.len();
    }

    /// Returns `true` if the value written for `tag` is still held (fresh),
    /// `false` if it has been overwritten (a dependency violation).
    pub fn read(&self, tag: u64) -> bool {
        self.slots.contains(&Some(tag))
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
        for tag in 0..5 {
            buf.write(tag);
        }
        // After 4 more writes the first value is still there...
        assert!(buf.read(0));
        // ...but the 5th overwrite evicts it.
        buf.write(5);
        assert!(!buf.read(0));
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
            for tag in 0..gap as u64 {
                ok.write(tag);
            }
            prop_assert!(ok.read(0));

            // One slot short: the value dies one cycle early.
            if gap > 1 {
                let mut short = buffer(gap - 1);
                for tag in 0..gap as u64 {
                    short.write(tag);
                }
                prop_assert!(!short.read(0));
            }
        }
    }
}
