//! Property: the paper's Fig. 8 buffer sizing is *exactly* sufficient.
//!
//! For a random pipeline of `L ≤ 16` weighted layers and any layer `l`, the
//! schedule check with depth `2(L−l)+1` for buffer `d_l` is hazard-free,
//! while shrinking that single buffer to `2(L−l)` produces exactly one
//! stale-read diagnostic on that buffer — cross-checked against the
//! closed-form [`Analysis::buffer_depth`]. The stale-read diagnostics are
//! exactly the per-buffer stats of [`PipelineSim`] for the same depths.

#![expect(
    clippy::unwrap_used,
    clippy::cast_possible_truncation,
    reason = "the library gate exempts test code: a failed assertion is how a test fails"
)]

use pipelayer::analysis::Analysis;
use pipelayer::pipeline::PipelineSim;
use pipelayer_check::{diag, schedule, Severity};
use proptest::prelude::*;
use std::num::NonZeroUsize;

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

fn paper_depths(l: usize, b: usize) -> Vec<usize> {
    let paper = Analysis::new(nz(l), nz(b)).buffer_depths();
    paper.iter().map(|d| d.get()).collect()
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
        let depths = paper_depths(l, b);
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
        let mut depths = paper_depths(l, b);
        depths[layer - 1] = analysis.buffer_depth(layer) - 1;
        let diags = schedule::check_training(l, b, &depths, 2);
        let stale = stale_reads(&diags);
        prop_assert_eq!(stale.len(), 1, "L={} B={} layer={}: {:?}", l, b, layer, diags);
        let expected = format!("buffer d{layer}");
        prop_assert_eq!(stale[0].location.as_str(), expected.as_str());
        prop_assert!(!diags.iter().any(|d| d.code == diag::SCHED_ZERO_DEPTH));
    }

    #[test]
    fn stale_read_diagnostics_are_the_simulators_stats(
        l in 1usize..=8,
        b in 1usize..=8,
        offsets in 0u64..=u64::MAX,
    ) {
        // Every d buffer sits within two slots of the paper's depth (floored
        // at one slot), each drawing its own offset from 3 bits of `offsets`.
        let depths: Vec<usize> = paper_depths(l, b)
            .iter()
            .enumerate()
            .map(|(idx, &d)| (d as i64 + ((offsets >> (3 * idx)) % 5) as i64 - 2).max(1) as usize)
            .collect();
        let sim = PipelineSim::new(nz(l), nz(b))
            .with_depths(depths.iter().map(|&d| nz(d)).collect())
            .unwrap();
        let out = sim.simulate_training(nz(2), 0);
        let mut expected = Vec::new();
        for (idx, s) in out.d.iter().enumerate() {
            if let Some((img, cycle)) = s.first_stale {
                expected.push((
                    format!("buffer d{}", idx + 1),
                    format!(
                        "{} stale read(s) at depth {}: image {img}'s output was overwritten \
                         before its \u{2202}W read at cycle {cycle}",
                        s.stale_reads, depths[idx]
                    ),
                ));
            }
        }
        for (idx, s) in out.delta.iter().enumerate() {
            if s.stale_reads > 0 {
                expected.push((
                    format!("buffer delta{}", idx + 1),
                    format!("{} stale read(s) on the \u{3b4} buffer", s.stale_reads),
                ));
            }
        }
        let got: Vec<(String, String)> = stale_reads(&schedule::check_training(l, b, &depths, 2))
            .into_iter()
            .map(|d| (d.location.clone(), d.message.clone()))
            .collect();
        prop_assert_eq!(
            got.len() as u64 > 0,
            out.dependency_violations() > 0,
            "L={} B={} depths={:?}", l, b, depths
        );
        prop_assert_eq!(got, expected, "L={} B={} depths={:?}", l, b, depths);
    }
}
