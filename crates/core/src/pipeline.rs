//! Cycle-accurate simulation of the inter-layer training pipeline
//! (Sec. 3.3, Figs. 3 and 6).
//!
//! The simulator builds the exact schedule of Fig. 3 — forward layers at
//! `T_{i+l}`, output error at `T_{i+L+1}`, backward stages walking down at
//! one layer per cycle, the weight update one cycle after the batch's last
//! partial derivative — for every image of every batch, and *replays every
//! data dependency against the circular buffers of Fig. 8*: one per
//! inter-layer `d_l` and one single-entry buffer per `δ_l`. A read that
//! finds its producer's data already overwritten is a dependency violation;
//! the paper's depths `2(L−l)+1` yield zero violations and undersized ones
//! provably fail (see the tests). Pipelined testing is the training forward
//! timing without batch drains, replayed by the same loop.
//!
//! The same engine produces the Fig. 6 schedule trace, validates the
//! closed-form cycle counts of [`analysis`](crate::analysis) and supplies
//! the per-buffer findings of the `plcheck` schedule diagnostics.

use crate::analysis::Analysis;
use crate::buffers::CircularBuffer;
use std::collections::BTreeMap;
use std::num::{NonZeroU64, NonZeroUsize};

/// Pipeline simulator for `L` weighted layers and batch size `B`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineSim {
    b: NonZeroUsize,
    /// Depths of `d_1..d_L`; `L` is their count.
    depths: Vec<NonZeroUsize>,
}

/// Traffic on one inter-layer buffer over a simulated run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Reads that found their data overwritten.
    pub stale_reads: u64,
    /// The first stale read, as `(image, cycle)`.
    pub first_stale: Option<(u64, u64)>,
    /// Whether the buffer was read and written in the same cycle.
    pub same_cycle: bool,
}

/// Result of a simulated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// Total logical cycles elapsed.
    pub cycles: u64,
    /// Peak number of concurrently active compute stages in one cycle.
    pub peak_parallel_stages: usize,
    /// Fig. 6-style schedule rows (`cycle: stage[image] ...`), if tracing.
    pub trace: Vec<String>,
    /// Stats of the `d_1..d_L` buffers.
    pub d: Vec<BufferStats>,
    /// Stats of the `δ_1..δ_L` buffers.
    pub delta: Vec<BufferStats>,
}

impl SimOutcome {
    /// Reads that found their data overwritten, over every buffer (0 for
    /// correct buffers).
    pub fn dependency_violations(&self) -> u64 {
        self.d
            .iter()
            .chain(&self.delta)
            .map(|s| s.stale_reads)
            .sum()
    }

    /// Names (`d<l>`, `delta<l>`, sorted) of the buffers read and written
    /// in the same cycle. The paper duplicates the single-entry ones, `d_L`
    /// and the `δ`s; on a deeper `d` buffer the read and the write land on
    /// different slots.
    pub fn same_cycle_buffers(&self) -> Vec<String> {
        let mut names: Vec<String> = [("d", &self.d), ("delta", &self.delta)]
            .into_iter()
            .flat_map(|(prefix, stats)| {
                stats
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.same_cycle)
                    .map(move |(idx, _)| format!("{prefix}{}", idx + 1))
            })
            .collect();
        names.sort();
        names
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// What a run streams through the pipeline.
#[derive(Debug, Clone, Copy)]
enum Run {
    /// Full batches: forward, error, backward and update.
    Training { batches: u64 },
    /// One image per cycle through the forward stages only.
    Testing { images: u64 },
}

/// The schedule: cycle → the stages active in it, with their image (the
/// batch index for an update).
type Events = BTreeMap<u64, Vec<(Stage, u64)>>;

impl PipelineSim {
    /// Creates a simulator whose `d` buffers have the paper's depths
    /// `2(L−l)+1`.
    pub fn new(l: NonZeroUsize, b: NonZeroUsize) -> Self {
        PipelineSim {
            b,
            depths: Analysis::new(l, b).buffer_depths(),
        }
    }

    /// Replaces the `d_1..d_L` buffer depths; `None` unless `depths` has
    /// one entry per weighted layer.
    pub fn with_depths(self, depths: Vec<NonZeroUsize>) -> Option<Self> {
        (depths.len() == self.depths.len()).then_some(PipelineSim { depths, ..self })
    }

    /// The `d_1..d_L` buffer depths.
    pub fn depths(&self) -> &[NonZeroUsize] {
        &self.depths
    }

    /// Simulates training of `n_batches` full batches. Set
    /// `trace_cycles > 0` to record that many schedule rows.
    pub fn simulate_training(&self, n_batches: NonZeroUsize, trace_cycles: usize) -> SimOutcome {
        let batches = n_batches.get() as u64;
        self.replay(&self.events(Run::Training { batches }), trace_cycles)
    }

    /// Simulates pipelined testing of `n` images (no batch drains; one
    /// image enters per cycle). Each `d_l` is read one cycle after its
    /// write, so any buffer depth serves it.
    pub fn simulate_testing(&self, n: NonZeroU64, trace_cycles: usize) -> SimOutcome {
        self.replay(&self.events(Run::Testing { images: n.get() }), trace_cycles)
    }

    /// Builds the Fig. 3 event list for `run`.
    #[expect(clippy::cast_possible_truncation, reason = "layer ≤ L, a usize")]
    fn events(&self, run: Run) -> Events {
        let (l, b) = (self.depths.len() as u64, self.b.get() as u64);
        let mut events = Events::new();
        let mut at = |cycle: u64, stage: Stage, tag: u64| {
            events.entry(cycle).or_default().push((stage, tag));
        };
        match run {
            Run::Testing { images } => {
                for img in 0..images {
                    for layer in 1..=l {
                        at(img + layer, Stage::Forward(layer as usize), img);
                    }
                }
            }
            Run::Training { batches } => {
                for batch in 0..batches {
                    let s = 1 + batch * (2 * l + b + 1);
                    for i in 0..b {
                        let img = batch * b + i;
                        for layer in 1..=l {
                            at(s + i + layer - 1, Stage::Forward(layer as usize), img);
                        }
                        at(s + i + l, Stage::Error, img);
                        for m in (1..=l).rev() {
                            at(s + i + 2 * l - m + 1, Stage::Backward(m as usize), img);
                        }
                    }
                    at(s + b + 2 * l, Stage::Update, batch);
                }
            }
        }
        events
    }

    /// Replays `events` against the buffers: each cycle's reads are served
    /// against the previous cycle's buffer state, then its writes commit.
    fn replay(&self, events: &Events, trace_cycles: usize) -> SimOutcome {
        // Buffers `0..L` are `d_1..d_L`; `L..2L` are the single-entry
        // `δ_1..δ_L`.
        let l = self.depths.len();
        let delta_slot = std::iter::repeat_n(NonZeroUsize::MIN, l);
        let mut bufs: Vec<CircularBuffer> = self
            .depths
            .iter()
            .copied()
            .chain(delta_slot)
            .map(CircularBuffer::new)
            .collect();
        let mut stats = vec![BufferStats::default(); 2 * l];
        let mut peak = 0usize;
        let mut trace = Vec::new();
        let (mut reads, mut writes) = (Vec::new(), Vec::new());

        for (&cycle, evs) in events {
            peak = peak.max(evs.iter().filter(|(s, _)| *s != Stage::Update).count());
            reads.clear();
            writes.clear();
            for &(stage, img) in evs {
                match stage {
                    Stage::Forward(layer) => {
                        if layer > 1 {
                            reads.push((layer - 2, img)); // d_{l-1} feeds A_l
                        }
                        writes.push((layer - 1, img));
                    }
                    Stage::Error => {
                        reads.push((l - 1, img)); // d_L feeds the error unit
                        writes.push((2 * l - 1, img)); // δ_L
                    }
                    Stage::Backward(m) => {
                        reads.push((l + m - 1, img)); // δ_m drives stage B_m
                        if m > 1 {
                            reads.push((m - 2, img)); // d_{m-1} for ∂W_m
                            writes.push((l + m - 2, img)); // δ_{m-1}
                        }
                    }
                    Stage::Update => {}
                }
            }
            for &(buf, img) in &reads {
                let s = &mut stats[buf];
                if !bufs[buf].read(img) {
                    s.stale_reads += 1;
                    s.first_stale.get_or_insert((img, cycle));
                }
                if writes.iter().any(|&(w, _)| w == buf) {
                    s.same_cycle = true;
                }
            }
            for &(buf, img) in &writes {
                bufs[buf].write(img);
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

        let delta = stats.split_off(l);
        SimOutcome {
            cycles: events.keys().next_back().copied().unwrap_or(0),
            peak_parallel_stages: peak,
            trace,
            d: stats,
            delta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    /// The paper's depths shifted by `slack`, floored at one slot.
    fn with_slack(sim: PipelineSim, slack: i64) -> PipelineSim {
        let depths = sim
            .depths()
            .iter()
            .map(|d| nz((d.get() as i64 + slack).max(1) as usize))
            .collect();
        sim.with_depths(depths).unwrap()
    }

    #[test]
    fn matches_fig3_single_image() {
        // L = 3, B = 1: one image takes 2L+1 = 7 compute cycles + update.
        let sim = PipelineSim::new(nz(3), nz(1));
        let out = sim.simulate_training(nz(1), 10);
        assert_eq!(out.cycles, 8);
        assert_eq!(out.dependency_violations(), 0);
        // T1 runs A1 only; T5 runs B3 (∂W3 + δ2).
        assert_eq!(out.trace[0], "T1: A1[0]");
        assert!(out.trace[4].contains("B3[0]"));
        assert!(out.trace[6].contains("B1[0]"));
    }

    #[test]
    fn cycle_count_matches_table2_formula() {
        for (l, b, batches) in [(3usize, 4usize, 2usize), (8, 64, 1), (5, 16, 3)] {
            let sim = PipelineSim::new(nz(l), nz(b));
            let out = sim.simulate_training(nz(batches), 0);
            let a = Analysis::new(nz(l), nz(b));
            assert_eq!(
                out.cycles,
                a.training_cycles_pipelined((batches * b) as u64),
                "L={l} B={b}"
            );
            assert_eq!(out.dependency_violations(), 0);
        }
    }

    #[test]
    fn undersized_buffers_violate_dependencies() {
        // Shrinking every d-buffer by one slot must break the pipeline —
        // the paper's 2(L−l)+1 sizing is tight.
        let sim = PipelineSim::new(nz(4), nz(16));
        let out = with_slack(sim.clone(), -1).simulate_training(nz(1), 0);
        assert!(
            out.dependency_violations() > 0,
            "undersized buffers should corrupt ∂W inputs"
        );
        // The first offender is image 0's ∂W1 read, 2(L−1)+1 cycles after
        // its write at T1.
        assert_eq!(out.d[0].first_stale, Some((0, 8)));
        // Extra slack must stay clean.
        let ok = with_slack(sim, 1).simulate_training(nz(1), 0);
        assert_eq!(ok.dependency_violations(), 0);
    }

    #[test]
    fn depth_vector_must_match_the_layer_count() {
        let sim = PipelineSim::new(nz(3), nz(4));
        assert!(sim.clone().with_depths(vec![nz(5), nz(3)]).is_none());
        assert_eq!(sim.depths(), [nz(5), nz(3), nz(1)]);
    }

    #[test]
    fn duplicated_buffers_are_dl_and_deltas() {
        // The paper: same-cycle read+write "happens for the buffer at d_L,
        // δ_3, δ_2, δ_1" (L = 3).
        let sim = PipelineSim::new(nz(3), nz(8));
        let out = sim.simulate_training(nz(1), 0);
        let names = out.same_cycle_buffers();
        assert!(names.contains(&"d3".to_string()));
        assert!(names.contains(&"delta2".to_string()));
        assert!(names.contains(&"delta3".to_string()));
    }

    #[test]
    fn pipeline_reaches_full_occupancy() {
        // Mid-batch every stage (L forward + 1 error + L backward) is busy.
        let sim = PipelineSim::new(nz(3), nz(32));
        let out = sim.simulate_training(nz(1), 0);
        assert_eq!(out.peak_parallel_stages, 2 * 3 + 1);
    }

    #[test]
    fn testing_matches_formula_and_is_clean() {
        let sim = PipelineSim::new(nz(8), nz(64));
        let out = sim.simulate_testing(NonZeroU64::new(1000).unwrap(), 0);
        assert_eq!(
            out.cycles,
            Analysis::new(nz(8), nz(64)).testing_cycles_pipelined(1000)
        );
        assert_eq!(out.dependency_violations(), 0);
        assert_eq!(out.peak_parallel_stages, 8);
        // One-slot buffers serve testing as well as the paper's depths.
        let ones = sim.with_depths(vec![nz(1); 8]).unwrap();
        let flat = ones.simulate_testing(NonZeroU64::new(1000).unwrap(), 0);
        assert_eq!(flat, out);
    }

    #[test]
    fn trace_shows_one_new_image_per_cycle() {
        let sim = PipelineSim::new(nz(2), nz(4));
        let out = sim.simulate_training(nz(1), 4);
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
            let out = sim.simulate_training(nz(batches), 0);
            prop_assert_eq!(out.dependency_violations(), 0);
            let a = Analysis::new(nz(l), nz(b));
            prop_assert_eq!(out.cycles, a.training_cycles_pipelined((batches * b) as u64));
        }
    }
}
