//! Cycle-accurate simulation of the inter-layer training pipeline
//! (Sec. 3.3, Figs. 3 and 6).
//!
//! The simulator executes the exact schedule of Fig. 3 — forward layers at
//! `T_{i+l}`, output error at `T_{i+L+1}`, backward stages walking down at
//! one layer per cycle, the weight update one cycle after the batch's last
//! partial derivative — for every image of every batch, while *replaying
//! every data dependency against the circular buffers of Fig. 8*. A read
//! that finds its producer's data already overwritten is a dependency
//! violation; correctly sized buffers (`2(L−l)+1`) yield zero violations
//! and undersized ones provably fail (see the tests).
//!
//! The same engine produces the Fig. 6 schedule trace and validates the
//! closed-form cycle counts of [`analysis`](crate::analysis).

use crate::buffers::CircularBuffer;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;

/// Pipeline simulator for `L` weighted layers and batch size `B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineSim {
    l: NonZeroUsize,
    b: NonZeroUsize,
}

/// Result of a simulated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// Total logical cycles elapsed.
    pub cycles: u64,
    /// Reads that found their data overwritten (0 for correct buffers).
    pub dependency_violations: u64,
    /// Buffers that experienced a read and a write in the same cycle — the
    /// buffers the paper duplicates (`d_L` and the `δ`s).
    pub same_cycle_buffers: Vec<String>,
    /// Peak number of concurrently active compute stages in one cycle.
    pub peak_parallel_stages: usize,
    /// Fig. 6-style schedule rows (`cycle: stage[image] ...`), if tracing.
    pub trace: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stage {
    Forward(usize),  // A_l computes d_l
    Error,           // δ_L from d_L and the label
    Backward(usize), // stage m: δ_{m-1} (if m>1) and ∂W_m
    Update,
}

impl Stage {
    fn label(&self) -> String {
        match self {
            Stage::Forward(l) => format!("A{l}"),
            Stage::Error => "ErrL".to_string(),
            Stage::Backward(m) => format!("B{m}"),
            Stage::Update => "Upd".to_string(),
        }
    }
}

impl PipelineSim {
    /// Creates a simulator.
    pub fn new(l: NonZeroUsize, b: NonZeroUsize) -> Self {
        PipelineSim { l, b }
    }

    /// Simulates training of `n_batches` full batches with the d-buffer
    /// depths offset by `depth_slack` (0 = the paper's `2(L−l)+1`;
    /// negative values undersize the buffers to demonstrate failure).
    /// Set `trace_cycles > 0` to record that many schedule rows.
    pub fn simulate_training(
        &self,
        n_batches: usize,
        depth_slack: i64,
        trace_cycles: usize,
    ) -> SimOutcome {
        assert!(n_batches > 0, "need at least one batch");
        let (l, b) = (self.l.get() as u64, self.b.get() as u64);

        // Event schedule: cycle → [(stage, image id)].
        let mut events: BTreeMap<u64, Vec<(Stage, u64)>> = BTreeMap::new();
        for batch in 0..n_batches as u64 {
            let s = 1 + batch * (2 * l + b + 1);
            for i in 0..b {
                let img = batch * b + i;
                for layer in 1..=l {
                    events
                        .entry(s + i + layer - 1)
                        .or_default()
                        .push((Stage::Forward(layer as usize), img));
                }
                events
                    .entry(s + i + l)
                    .or_default()
                    .push((Stage::Error, img));
                for m in (1..=l).rev() {
                    events
                        .entry(s + i + 2 * l - m + 1)
                        .or_default()
                        .push((Stage::Backward(m as usize), img));
                }
            }
            events
                .entry(s + b + 2 * l)
                .or_default()
                .push((Stage::Update, batch));
        }

        // Buffers: d_1..d_L with Fig. 8 depths (+slack, floored at one
        // slot), δ_1..δ_L depth 1.
        let l_count = self.l.get();
        let mut d_buf: Vec<CircularBuffer> = (1..=l_count)
            .map(|layer| {
                let depth = (2 * (l_count - layer) + 1) as i64 + depth_slack;
                let depth = usize::try_from(depth).ok().and_then(NonZeroUsize::new);
                CircularBuffer::new(depth.unwrap_or(NonZeroUsize::MIN))
            })
            .collect();
        let mut delta_buf: Vec<CircularBuffer> = (0..l_count)
            .map(|_| CircularBuffer::new(NonZeroUsize::MIN))
            .collect();

        let mut violations = 0u64;
        let mut peak = 0usize;
        let mut trace = Vec::new();
        let mut conflicted: std::collections::BTreeSet<String> = Default::default();
        let mut last_cycle = 0u64;

        for (&cycle, evs) in &events {
            last_cycle = cycle;
            peak = peak.max(evs.iter().filter(|(s, _)| *s != Stage::Update).count());

            // Reads first (buffer state from the previous cycle), writes after.
            let mut reads: Vec<(usize, char, u64)> = Vec::new(); // (idx, kind, tag)
            let mut writes: Vec<(usize, char, u64)> = Vec::new();
            for &(stage, img) in evs {
                match stage {
                    Stage::Forward(layer) => {
                        if layer > 1 {
                            reads.push((layer - 2, 'd', img));
                        }
                        writes.push((layer - 1, 'd', img));
                    }
                    Stage::Error => {
                        reads.push((l_count - 1, 'd', img));
                        writes.push((l_count - 1, 'e', img));
                    }
                    Stage::Backward(m) => {
                        reads.push((m - 1, 'e', img)); // δ_m
                        if m > 1 {
                            reads.push((m - 2, 'd', img)); // d_{m-1} for ∂W_m
                            writes.push((m - 2, 'e', img)); // δ_{m-1}
                        }
                    }
                    Stage::Update => {}
                }
            }
            for &(idx, kind, tag) in &reads {
                let buf = if kind == 'd' {
                    &mut d_buf[idx]
                } else {
                    &mut delta_buf[idx]
                };
                if !buf.read(tag, cycle) {
                    violations += 1;
                }
                if writes.iter().any(|&(wi, wk, _)| wi == idx && wk == kind) {
                    conflicted.insert(format!(
                        "{}{}",
                        if kind == 'd' { "d" } else { "delta" },
                        idx + 1
                    ));
                }
            }
            for &(idx, kind, tag) in &writes {
                let buf = if kind == 'd' {
                    &mut d_buf[idx]
                } else {
                    &mut delta_buf[idx]
                };
                buf.write(tag, cycle);
            }

            if trace.len() < trace_cycles {
                let mut row: Vec<String> = evs
                    .iter()
                    .map(|(s, img)| format!("{}[{img}]", s.label()))
                    .collect();
                row.sort();
                trace.push(format!("T{cycle}: {}", row.join(" ")));
            }
        }

        SimOutcome {
            cycles: last_cycle,
            dependency_violations: violations,
            same_cycle_buffers: conflicted.into_iter().collect(),
            peak_parallel_stages: peak,
            trace,
        }
    }

    /// Simulates pipelined testing of `n` images (no batch drains; one image
    /// enters per cycle; buffers hold a single entry each).
    pub fn simulate_testing(&self, n: u64, trace_cycles: usize) -> SimOutcome {
        assert!(n > 0, "empty workload");
        let l = self.l.get() as u64;
        let mut d_buf: Vec<CircularBuffer> = (0..self.l.get())
            .map(|_| CircularBuffer::new(NonZeroUsize::MIN))
            .collect();
        let mut violations = 0u64;
        let mut peak = 0usize;
        let mut trace = Vec::new();
        let mut conflicted: std::collections::BTreeSet<String> = Default::default();

        let total = n + l - 1;
        for cycle in 1..=total {
            // Active stages: layer `layer` processes image `cycle - layer`.
            let mut active: Vec<(u64, u64)> = Vec::new(); // (layer, img)
            for layer in 1..=l {
                if cycle >= layer && cycle - layer < n {
                    active.push((layer, cycle - layer));
                }
            }
            peak = peak.max(active.len());
            for &(layer, img) in &active {
                if layer > 1 {
                    if !d_buf[(layer - 2) as usize].read(img, cycle) {
                        violations += 1;
                    }
                    if active.iter().any(|&(wl, _)| wl == layer - 1) {
                        conflicted.insert(format!("d{}", layer - 1));
                    }
                }
            }
            for &(layer, img) in &active {
                d_buf[(layer - 1) as usize].write(img, cycle);
            }
            if trace.len() < trace_cycles {
                let row: Vec<String> = active
                    .iter()
                    .map(|(layer, img)| format!("A{layer}[{img}]"))
                    .collect();
                trace.push(format!("T{cycle}: {}", row.join(" ")));
            }
        }

        SimOutcome {
            cycles: total,
            dependency_violations: violations,
            same_cycle_buffers: conflicted.into_iter().collect(),
            peak_parallel_stages: peak,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analysis;
    use proptest::prelude::*;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn matches_fig3_single_image() {
        // L = 3, B = 1: one image takes 2L+1 = 7 compute cycles + update.
        let sim = PipelineSim::new(nz(3), nz(1));
        let out = sim.simulate_training(1, 0, 10);
        assert_eq!(out.cycles, 8);
        assert_eq!(out.dependency_violations, 0);
        // T1 runs A1 only; T5 runs B3 (∂W3 + δ2).
        assert_eq!(out.trace[0], "T1: A1[0]");
        assert!(out.trace[4].contains("B3[0]"));
        assert!(out.trace[6].contains("B1[0]"));
    }

    #[test]
    fn cycle_count_matches_table2_formula() {
        for (l, b, batches) in [(3usize, 4usize, 2usize), (8, 64, 1), (5, 16, 3)] {
            let sim = PipelineSim::new(nz(l), nz(b));
            let out = sim.simulate_training(batches, 0, 0);
            let a = Analysis::new(nz(l), nz(b));
            assert_eq!(
                out.cycles,
                a.training_cycles_pipelined((batches * b) as u64),
                "L={l} B={b}"
            );
            assert_eq!(out.dependency_violations, 0);
        }
    }

    #[test]
    fn undersized_buffers_violate_dependencies() {
        // Shrinking every d-buffer by one slot must break the pipeline —
        // the paper's 2(L−l)+1 sizing is tight.
        let sim = PipelineSim::new(nz(4), nz(16));
        let out = sim.simulate_training(1, -1, 0);
        assert!(
            out.dependency_violations > 0,
            "undersized buffers should corrupt ∂W inputs"
        );
        // Extra slack must stay clean.
        let ok = sim.simulate_training(1, 1, 0);
        assert_eq!(ok.dependency_violations, 0);
    }

    #[test]
    fn duplicated_buffers_are_dl_and_deltas() {
        // The paper: same-cycle read+write "happens for the buffer at d_L,
        // δ_3, δ_2, δ_1" (L = 3).
        let sim = PipelineSim::new(nz(3), nz(8));
        let out = sim.simulate_training(1, 0, 0);
        assert!(out.same_cycle_buffers.contains(&"d3".to_string()));
        assert!(out.same_cycle_buffers.contains(&"delta2".to_string()));
        assert!(out.same_cycle_buffers.contains(&"delta3".to_string()));
    }

    #[test]
    fn pipeline_reaches_full_occupancy() {
        // Mid-batch every stage (L forward + 1 error + L backward) is busy.
        let sim = PipelineSim::new(nz(3), nz(32));
        let out = sim.simulate_training(1, 0, 0);
        assert_eq!(out.peak_parallel_stages, 2 * 3 + 1);
    }

    #[test]
    fn testing_matches_formula_and_is_clean() {
        let sim = PipelineSim::new(nz(8), nz(64));
        let out = sim.simulate_testing(1000, 0);
        assert_eq!(
            out.cycles,
            Analysis::new(nz(8), nz(64)).testing_cycles_pipelined(1000)
        );
        assert_eq!(out.dependency_violations, 0);
        assert_eq!(out.peak_parallel_stages, 8);
    }

    #[test]
    fn trace_shows_one_new_image_per_cycle() {
        let sim = PipelineSim::new(nz(2), nz(4));
        let out = sim.simulate_training(1, 0, 4);
        assert!(out.trace[0].contains("A1[0]"));
        assert!(out.trace[1].contains("A1[1]") && out.trace[1].contains("A2[0]"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// For any geometry, correctly sized buffers never violate a
        /// dependency and the cycle count equals the closed form.
        #[test]
        fn schedule_always_clean(l in 1usize..10, b in 1usize..32, batches in 1usize..4) {
            let sim = PipelineSim::new(nz(l), nz(b));
            let out = sim.simulate_training(batches, 0, 0);
            prop_assert_eq!(out.dependency_violations, 0);
            let a = Analysis::new(nz(l), nz(b));
            prop_assert_eq!(out.cycles, a.training_cycles_pipelined((batches * b) as u64));
        }
    }
}
