//! Property: the paper's Fig. 8 buffer sizing is *exactly* sufficient.
//!
//! For a random pipeline of `L ≤ 16` weighted layers and any layer `l`, the
//! symbolic schedule with depth `2(L−l)+1` for buffer `d_l` is hazard-free,
//! while shrinking that single buffer to `2(L−l)` produces exactly one
//! stale-read diagnostic on that buffer — cross-checked against the
//! closed-form [`Analysis::buffer_depth`].

use pipelayer::analysis::Analysis;
use pipelayer_check::{diag, schedule, Severity};
use proptest::prelude::*;
use std::num::NonZeroUsize;

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

fn stale_reads(diags: &[pipelayer_check::Diagnostic]) -> Vec<&pipelayer_check::Diagnostic> {
    diags
        .iter()
        .filter(|d| d.code == diag::SCHED_STALE_READ)
        .collect()
}

proptest! {
    #[test]
    fn paper_depth_is_hazard_free(l in 1usize..=16, b in 1usize..=8, batches in 1usize..=3) {
        let analysis = Analysis::new(nz(l), nz(b));
        let depths = schedule::paper_depths(l);
        for layer in 1..=l {
            prop_assert_eq!(depths[layer - 1], analysis.buffer_depth(layer));
        }
        let diags = schedule::check_training(l, b, &depths, batches);
        prop_assert!(
            !diags.iter().any(|d| d.severity == Severity::Error),
            "L={} B={}: {:?}", l, b, diags
        );
    }

    #[test]
    fn one_slot_short_is_exactly_one_stale_read(l in 2usize..=16, extra_b in 0usize..=4, layer in 1usize..=16) {
        // Shrinking d_layer from 2(L-layer)+1 to 2(L-layer) must break that
        // buffer and only that buffer. layer == L has depth 1 (shrinking it
        // to 0 is the separate PL013 case), so restrict to layer < L; and
        // the eviction needs the batch to keep streaming for a full buffer
        // wrap, so B must be at least the paper depth 2(L-layer)+1.
        let layer = 1 + (layer - 1) % (l - 1);
        let b = 2 * (l - layer) + 1 + extra_b;
        let analysis = Analysis::new(nz(l), nz(b));
        let mut depths = schedule::paper_depths(l);
        depths[layer - 1] = analysis.buffer_depth(layer) - 1;
        let diags = schedule::check_training(l, b, &depths, 2);
        let stale = stale_reads(&diags);
        prop_assert_eq!(stale.len(), 1, "L={} B={} layer={}: {:?}", l, b, layer, diags);
        let expected = format!("buffer d{layer}");
        prop_assert_eq!(stale[0].location.as_str(), expected.as_str());
        prop_assert!(!diags.iter().any(|d| d.code == diag::SCHED_ZERO_DEPTH));
    }

    #[test]
    fn symbolic_checker_agrees_with_cycle_accurate_sim(l in 1usize..=8, b in 1usize..=8, slack in -2i64..=2) {
        let sim = pipelayer::pipeline::PipelineSim::new(nz(l), nz(b));
        let sim_violations = sim.simulate_training(2, slack, 0).dependency_violations;
        let depths: Vec<usize> = schedule::paper_depths(l)
            .iter()
            .map(|&d| (d as i64 + slack).max(1) as usize)
            .collect();
        let stale = stale_reads(&schedule::check_training(l, b, &depths, 2)).len();
        prop_assert_eq!(
            sim_violations > 0,
            stale > 0,
            "L={} B={} slack={}: sim={} check={}", l, b, slack, sim_violations, stale
        );
    }
}
