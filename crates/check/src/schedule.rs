//! Diagnostics for the training pipeline schedule (Sec. 3.3, Fig. 6).
//!
//! No tensors move: [`PipelineSim`] replays the exact event schedule of
//! Fig. 3 as `(tag, cycle)` dataflow through one circular buffer per
//! inter-layer `d` buffer (user-supplied depth) and one single-entry buffer
//! per `δ`, and reports per-buffer stale reads and same-cycle traffic. This
//! module checks the depth vector before the run and turns those stats into
//! diagnostics: the paper's depth `2(L−l)+1` is *proven* hazard-free by
//! exhaustion over the simulated window, and any undersized depth produces a
//! [`diag::SCHED_STALE_READ`] pinned to the first offending (image, cycle)
//! pair.

use crate::diag::{self, Diagnostic};
use pipelayer::analysis::Analysis;
use pipelayer::pipeline::PipelineSim;
use std::num::NonZeroUsize;

/// Checks `batches` training batches of a pipeline with `l` weighted layers
/// and batch size `b`, with per-layer `d`-buffer `depths` (index 0 = the
/// buffer after layer 1). Returns one diagnostic per finding:
///
/// * [`diag::SCHED_DEPTH_LEN`] / [`diag::SCHED_ZERO_DEPTH`] — malformed
///   depth vector (a zero-depth buffer is simulated with one slot so the
///   remaining buffers are still checked);
/// * [`diag::SCHED_STALE_READ`] — a read hit overwritten data (one
///   diagnostic per buffer, with the violation count and first offender);
/// * [`diag::SCHED_SAME_CYCLE`] (info) — buffers needing duplication;
/// * [`diag::SCHED_OVERSIZED`] (warning) — depth beyond `2(L−l)+1`.
pub fn check_training(l: usize, b: usize, depths: &[usize], batches: usize) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let (Some(lz), Some(bz), Some(batches)) = (
        NonZeroUsize::new(l),
        NonZeroUsize::new(b),
        NonZeroUsize::new(batches),
    ) else {
        diags.push(Diagnostic::error(
            diag::SCHED_DEPTH_LEN,
            "schedule",
            format!("degenerate pipeline: L={l}, B={b}, batches={batches}"),
            "layers, batch size and batch count must all be positive",
        ));
        return diags;
    };
    let slots = depths
        .iter()
        .map(|&d| NonZeroUsize::new(d).unwrap_or(NonZeroUsize::MIN))
        .collect();
    let Some(sim) = PipelineSim::new(lz, bz).with_depths(slots) else {
        diags.push(Diagnostic::error(
            diag::SCHED_DEPTH_LEN,
            "schedule",
            format!(
                "depth vector has {} entries for {l} weighted layers",
                depths.len()
            ),
            "supply one inter-layer buffer depth per weighted layer",
        ));
        return diags;
    };
    let required = Analysis::new(lz, bz).buffer_depths();
    for (idx, (&depth, req)) in depths.iter().zip(&required).enumerate() {
        if depth == 0 {
            diags.push(Diagnostic::error(
                diag::SCHED_ZERO_DEPTH,
                format!("buffer d{}", idx + 1),
                "zero-depth buffer cannot hold any in-flight output".to_string(),
                format!("the paper's sizing for this buffer is 2(L-l)+1 = {req}"),
            ));
        } else if depth > req.get() {
            diags.push(Diagnostic::warning(
                diag::SCHED_OVERSIZED,
                format!("buffer d{}", idx + 1),
                format!("depth {depth} exceeds the required 2(L-l)+1 = {req}"),
                "extra slots cost memory subarrays without removing any hazard",
            ));
        }
    }

    let out = sim.simulate_training(batches, 0);
    for (idx, (s, slots)) in out.d.iter().zip(sim.depths()).enumerate() {
        if s.stale_reads > 0 {
            let (img, cycle) = s.first_stale.unwrap_or((0, 0));
            diags.push(Diagnostic::error(
                diag::SCHED_STALE_READ,
                format!("buffer d{}", idx + 1),
                format!(
                    "{} stale read(s) at depth {slots}: image {img}'s output was overwritten \
                     before its \u{2202}W read at cycle {cycle}",
                    s.stale_reads,
                ),
                format!(
                    "the partial-derivative read arrives 2(L-l)+1 = {} cycles after the \
                     write (Fig. 8); deepen the buffer to at least that",
                    required[idx]
                ),
            ));
        }
        // Same-cycle traffic on a multi-slot circular buffer touches two
        // different slots (read-before-write on the wrapped pointer); only
        // the depth-1 buffers collide on one slot and need the paper's
        // duplication.
        if s.same_cycle && *slots == NonZeroUsize::MIN {
            diags.push(Diagnostic::info(
                diag::SCHED_SAME_CYCLE,
                format!("buffer d{}", idx + 1),
                "read and write land on the same slot in the same cycle".to_string(),
                "the paper duplicates this buffer so the read can be served from the twin",
            ));
        }
    }
    for (idx, s) in out.delta.iter().enumerate() {
        if s.stale_reads > 0 {
            diags.push(Diagnostic::error(
                diag::SCHED_STALE_READ,
                format!("buffer delta{}", idx + 1),
                format!("{} stale read(s) on the \u{3b4} buffer", s.stale_reads),
                "\u{3b4} buffers are single-entry and consumed the cycle after production"
                    .to_string(),
            ));
        }
        if s.same_cycle {
            diags.push(Diagnostic::info(
                diag::SCHED_SAME_CYCLE,
                format!("buffer delta{}", idx + 1),
                "read and write land in the same cycle".to_string(),
                "the paper duplicates this buffer so the read can be served from the twin",
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn paper_depths(l: usize) -> Vec<usize> {
        let a = Analysis::new(NonZeroUsize::new(l).unwrap(), NonZeroUsize::MIN);
        a.buffer_depths().iter().map(|d| d.get()).collect()
    }

    fn errors(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
        diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    #[test]
    fn paper_sizing_is_hazard_free() {
        for l in [1usize, 2, 3, 8] {
            for b in [1usize, 4, 16] {
                let diags = check_training(l, b, &paper_depths(l), 2);
                assert!(errors(&diags).is_empty(), "L={l} B={b}: {diags:?}");
            }
        }
    }

    #[test]
    fn undersized_buffer_is_a_stale_read() {
        // L=4: buffer after layer 1 needs depth 7; depth 6 = 2(L-l) fails.
        let mut depths = paper_depths(4);
        depths[0] -= 1;
        let diags = check_training(4, 8, &depths, 1);
        let errs = errors(&diags);
        assert_eq!(errs.len(), 1, "{diags:?}");
        assert_eq!(errs[0].code, diag::SCHED_STALE_READ);
        assert_eq!(errs[0].location, "buffer d1");
    }

    #[test]
    fn zero_depth_and_length_mismatch_are_rejected() {
        let diags = check_training(3, 4, &[5, 0, 1], 1);
        assert!(diags.iter().any(|d| d.code == diag::SCHED_ZERO_DEPTH));
        let diags = check_training(3, 4, &[5, 3], 1);
        assert_eq!(diags[0].code, diag::SCHED_DEPTH_LEN);
        let diags = check_training(0, 4, &[], 1);
        assert_eq!(diags[0].code, diag::SCHED_DEPTH_LEN);
        assert!(diags[0].message.starts_with("degenerate pipeline"));
    }

    #[test]
    fn oversized_buffer_is_flagged_not_fatal() {
        let mut depths = paper_depths(3);
        depths[1] += 4;
        let diags = check_training(3, 4, &depths, 1);
        assert!(errors(&diags).is_empty(), "{diags:?}");
        assert!(diags
            .iter()
            .any(|d| d.code == diag::SCHED_OVERSIZED && d.location == "buffer d2"));
    }

    #[test]
    fn duplicated_buffers_surface_as_info() {
        // Sec. 3.3: the same-cycle read/write cases are d_L and the δs.
        let diags = check_training(3, 8, &paper_depths(3), 1);
        let conflicted: Vec<&str> = diags
            .iter()
            .filter(|d| d.code == diag::SCHED_SAME_CYCLE)
            .map(|d| d.location.as_str())
            .collect();
        assert!(conflicted.contains(&"buffer d3"), "{conflicted:?}");
        assert!(conflicted.contains(&"buffer delta2"), "{conflicted:?}");
        assert!(!conflicted.contains(&"buffer d1"), "{conflicted:?}");
    }
}
