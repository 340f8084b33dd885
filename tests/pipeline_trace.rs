//! Golden Fig. 6 schedules: the exact trace rows and counters of the
//! cycle-accurate pipeline simulator for the geometries the figure and the
//! `plsim schedule` command print.

use pipelayer::pipeline::{PipelineSim, SimOutcome};
use std::num::{NonZeroU64, NonZeroUsize};

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

/// The trace rows, then one line of counters.
fn render(out: &SimOutcome) -> String {
    let mut text = out.trace.join("\n");
    text.push_str(&format!(
        "\ncycles {} | violations {} | peak {} | same-cycle {:?}",
        out.cycles,
        out.dependency_violations(),
        out.peak_parallel_stages,
        out.same_cycle_buffers()
    ));
    text
}

const L3_B4_TWO_BATCHES: &str = "\
T1: A1[0]
T2: A1[1] A2[0]
T3: A1[2] A2[1] A3[0]
T4: A1[3] A2[2] A3[1] ErrL[0]
T5: A2[3] A3[2] B3[0] ErrL[1]
T6: A3[3] B2[0] B3[1] ErrL[2]
T7: B1[0] B2[1] B3[2] ErrL[3]
T8: B1[1] B2[2] B3[3]
T9: B1[2] B2[3]
T10: B1[3]
T11: Upd[0]
T12: A1[4]
T13: A1[5] A2[4]
T14: A1[6] A2[5] A3[4]
T15: A1[7] A2[6] A3[5] ErrL[4]
T16: A2[7] A3[6] B3[4] ErrL[5]
T17: A3[7] B2[4] B3[5] ErrL[6]
T18: B1[4] B2[5] B3[6] ErrL[7]
T19: B1[5] B2[6] B3[7]
T20: B1[6] B2[7]
T21: B1[7]
T22: Upd[1]
cycles 22 | violations 0 | peak 4 | same-cycle [\"d1\", \"d2\", \"d3\", \"delta1\", \"delta2\", \"delta3\"]";

const L3_B8_ONE_BATCH: &str = "\
T1: A1[0]
T2: A1[1] A2[0]
T3: A1[2] A2[1] A3[0]
T4: A1[3] A2[2] A3[1] ErrL[0]
T5: A1[4] A2[3] A3[2] B3[0] ErrL[1]
T6: A1[5] A2[4] A3[3] B2[0] B3[1] ErrL[2]
T7: A1[6] A2[5] A3[4] B1[0] B2[1] B3[2] ErrL[3]
T8: A1[7] A2[6] A3[5] B1[1] B2[2] B3[3] ErrL[4]
T9: A2[7] A3[6] B1[2] B2[3] B3[4] ErrL[5]
T10: A3[7] B1[3] B2[4] B3[5] ErrL[6]
T11: B1[4] B2[5] B3[6] ErrL[7]
T12: B1[5] B2[6] B3[7]
T13: B1[6] B2[7]
T14: B1[7]
T15: Upd[0]
cycles 15 | violations 0 | peak 7 | same-cycle [\"d1\", \"d2\", \"d3\", \"delta1\", \"delta2\", \"delta3\"]";

#[test]
fn training_trace_is_pinned() {
    let sim = PipelineSim::new(nz(3), nz(4));
    assert_eq!(render(&sim.simulate_training(nz(2), 40)), L3_B4_TWO_BATCHES);
    let sim = PipelineSim::new(nz(3), nz(8));
    assert_eq!(render(&sim.simulate_training(nz(1), 64)), L3_B8_ONE_BATCH);
}

#[test]
fn trace_stops_at_the_requested_row_count() {
    let out = PipelineSim::new(nz(3), nz(8)).simulate_training(nz(1), 3);
    assert_eq!(
        out.trace,
        ["T1: A1[0]", "T2: A1[1] A2[0]", "T3: A1[2] A2[1] A3[0]"]
    );
    assert_eq!(out.cycles, 15);
}

#[test]
fn testing_trace_is_pinned() {
    let out = PipelineSim::new(nz(3), nz(8)).simulate_testing(NonZeroU64::new(4).unwrap(), 64);
    assert_eq!(
        render(&out),
        "\
T1: A1[0]
T2: A1[1] A2[0]
T3: A1[2] A2[1] A3[0]
T4: A1[3] A2[2] A3[1]
T5: A2[3] A3[2]
T6: A3[3]
cycles 6 | violations 0 | peak 3 | same-cycle [\"d1\", \"d2\"]"
    );
}
