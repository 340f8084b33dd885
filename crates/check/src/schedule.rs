//! Symbolic execution of the training pipeline schedule (Sec. 3.3, Fig. 6).
//!
//! No tensors move: the checker replays the exact event schedule of Fig. 3 —
//! forward stages at `T_{i+l}`, the output error at `T_{i+L+1}`, backward
//! stages walking down one layer per cycle — as pure `(tag, cycle)` dataflow
//! through [`CircularBuffer`]s, one per inter-layer `d` buffer (user-supplied
//! depth) and one duplicated-depth-1 buffer per `δ`. A read that misses its
//! tag is a stale-read/WAR hazard; the paper's depth `2(L−l)+1` is *proven*
//! hazard-free by exhaustion over the simulated window, and any undersized
//! depth produces a [`diag::SCHED_STALE_READ`] pinned to the first offending
//! (image, cycle) pair.

use crate::diag::{self, Diagnostic};
use pipelayer::buffers::CircularBuffer;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;

/// The paper's buffer-depth vector: entry `l` (0-based) is `2(L−1−l)+1`,
/// i.e. `2(L−l)+1` for the 1-based layer index of Sec. 3.3.
pub fn paper_depths(l: usize) -> Vec<usize> {
    (0..l).map(|idx| 2 * (l - 1 - idx) + 1).collect()
}

/// Outcome of one symbolic run, before diagnostic rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BufferStats {
    stale_reads: u64,
    first_stale: Option<(u64, u64)>, // (image tag, cycle)
    same_cycle: bool,
}

/// Symbolically executes `batches` training batches of a pipeline with `l`
/// weighted layers and batch size `b`, with per-layer `d`-buffer `depths`
/// (index 0 = the buffer after layer 1). Returns one diagnostic per finding:
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
    if l == 0 || b == 0 || batches == 0 {
        diags.push(Diagnostic::error(
            diag::SCHED_DEPTH_LEN,
            "schedule",
            format!("degenerate pipeline: L={l}, B={b}, batches={batches}"),
            "layers, batch size and batch count must all be positive",
        ));
        return diags;
    }
    if depths.len() != l {
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
    }
    let required = paper_depths(l);
    let mut effective = Vec::with_capacity(l);
    for (idx, (&depth, &req)) in depths.iter().zip(&required).enumerate() {
        let Some(slots) = NonZeroUsize::new(depth) else {
            diags.push(Diagnostic::error(
                diag::SCHED_ZERO_DEPTH,
                format!("buffer d{}", idx + 1),
                "zero-depth buffer cannot hold any in-flight output".to_string(),
                format!("the paper's sizing for this buffer is 2(L-l)+1 = {req}"),
            ));
            effective.push(NonZeroUsize::MIN);
            continue;
        };
        if depth > req {
            diags.push(Diagnostic::warning(
                diag::SCHED_OVERSIZED,
                format!("buffer d{}", idx + 1),
                format!("depth {depth} exceeds the required 2(L-l)+1 = {req}"),
                "extra slots cost memory subarrays without removing any hazard",
            ));
        }
        effective.push(slots);
    }

    let (stats_d, stats_delta) = run(l, b, &effective, batches);
    for (idx, s) in stats_d.iter().enumerate() {
        if s.stale_reads > 0 {
            let (img, cycle) = s.first_stale.unwrap_or((0, 0));
            diags.push(Diagnostic::error(
                diag::SCHED_STALE_READ,
                format!("buffer d{}", idx + 1),
                format!(
                    "{} stale read(s) at depth {}: image {img}'s output was overwritten \
                     before its \u{2202}W read at cycle {cycle}",
                    s.stale_reads, effective[idx],
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
        if s.same_cycle && effective[idx] == NonZeroUsize::MIN {
            diags.push(Diagnostic::info(
                diag::SCHED_SAME_CYCLE,
                format!("buffer d{}", idx + 1),
                "read and write land on the same slot in the same cycle".to_string(),
                "the paper duplicates this buffer so the read can be served from the twin",
            ));
        }
    }
    for (idx, s) in stats_delta.iter().enumerate() {
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

/// The Fig. 3 event schedule as pure `(tag, cycle)` dataflow; returns the
/// per-buffer stats for the `d` and `δ` buffers.
fn run(
    l: usize,
    b: usize,
    depths: &[NonZeroUsize],
    batches: usize,
) -> (Vec<BufferStats>, Vec<BufferStats>) {
    let (lu, bu) = (l as u64, b as u64);
    // (stage-kind, layer, image): kind 0 = forward writes d_layer,
    // 1 = error (reads d_L, writes δ_L), 2 = backward stage m.
    let mut events: BTreeMap<u64, Vec<(u8, usize, u64)>> = BTreeMap::new();
    for batch in 0..batches as u64 {
        let s = 1 + batch * (2 * lu + bu + 1);
        for i in 0..bu {
            let img = batch * bu + i;
            for layer in 1..=l {
                events
                    .entry(s + i + layer as u64 - 1)
                    .or_default()
                    .push((0, layer, img));
            }
            events.entry(s + i + lu).or_default().push((1, l, img));
            for m in (1..=l).rev() {
                events
                    .entry(s + i + 2 * lu - m as u64 + 1)
                    .or_default()
                    .push((2, m, img));
            }
        }
    }

    let new_stats = || BufferStats {
        stale_reads: 0,
        first_stale: None,
        same_cycle: false,
    };
    let mut d_buf: Vec<CircularBuffer> = depths.iter().map(|&d| CircularBuffer::new(d)).collect();
    let mut delta_buf: Vec<CircularBuffer> = (0..l)
        .map(|_| CircularBuffer::new(NonZeroUsize::MIN))
        .collect();
    let mut stats_d: Vec<BufferStats> = (0..l).map(|_| new_stats()).collect();
    let mut stats_delta: Vec<BufferStats> = (0..l).map(|_| new_stats()).collect();

    for (&cycle, evs) in &events {
        // Reads are served against the previous cycle's buffer state; the
        // cycle's writes commit afterwards (the paper's read-before-write).
        let mut reads: Vec<(usize, bool, u64)> = Vec::new(); // (idx, is_d, tag)
        let mut writes: Vec<(usize, bool, u64)> = Vec::new();
        for &(kind, layer, img) in evs {
            match kind {
                0 => {
                    if layer > 1 {
                        reads.push((layer - 2, true, img)); // d_{l-1} feeds A_l
                    }
                    writes.push((layer - 1, true, img));
                }
                1 => {
                    reads.push((l - 1, true, img)); // d_L feeds the error unit
                    writes.push((l - 1, false, img)); // δ_L
                }
                _ => {
                    reads.push((layer - 1, false, img)); // δ_m drives stage B_m
                    if layer > 1 {
                        reads.push((layer - 2, true, img)); // d_{m-1} for ∂W_m
                        writes.push((layer - 2, false, img)); // δ_{m-1}
                    }
                }
            }
        }
        for &(idx, is_d, tag) in &reads {
            let (buf, stats) = if is_d {
                (&mut d_buf[idx], &mut stats_d[idx])
            } else {
                (&mut delta_buf[idx], &mut stats_delta[idx])
            };
            if !buf.read(tag, cycle) {
                stats.stale_reads += 1;
                if stats.first_stale.is_none() {
                    stats.first_stale = Some((tag, cycle));
                }
            }
            if writes.iter().any(|&(wi, wd, _)| wi == idx && wd == is_d) {
                stats.same_cycle = true;
            }
        }
        for &(idx, is_d, tag) in &writes {
            if is_d {
                d_buf[idx].write(tag, cycle);
            } else {
                delta_buf[idx].write(tag, cycle);
            }
        }
    }
    (stats_d, stats_delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    fn errors(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
        diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    #[test]
    fn paper_depths_match_analysis() {
        let a = pipelayer::analysis::Analysis::new(nz(5), nz(4));
        let depths = paper_depths(5);
        for layer in 1..=5 {
            assert_eq!(depths[layer - 1], a.buffer_depth(layer));
        }
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

    #[test]
    fn agrees_with_the_cycle_accurate_simulator() {
        // The independent PipelineSim and this symbolic checker must agree
        // on hazard presence for uniform slack in -2..=+2.
        for slack in -2i64..=2 {
            let sim = pipelayer::pipeline::PipelineSim::new(nz(4), nz(8));
            let sim_violations = sim.simulate_training(2, slack, 0).dependency_violations;
            let depths: Vec<usize> = paper_depths(4)
                .iter()
                .map(|&d| ((d as i64 + slack).max(1)) as usize)
                .collect();
            let stale = check_training(4, 8, &depths, 2)
                .iter()
                .filter(|d| d.code == diag::SCHED_STALE_READ)
                .count();
            assert_eq!(
                sim_violations > 0,
                stale > 0,
                "slack {slack}: sim={sim_violations}, check={stale}"
            );
        }
    }
}
