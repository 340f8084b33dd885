//! Online scrub/refresh scheduling against device aging.
//!
//! The drift model (`pipelayer_reram::drift`) ages weight cells while the
//! pipeline runs: retention drift pulls conductances down, read disturb
//! pushes them up, and — because a batch update only re-pulses cells whose
//! quantized level actually changed — *stable* weights keep aging straight
//! through training. The classical answer is a scrub (refresh) scheduler:
//! every `interval_images` processed images, a budgeted slice of
//! `rows_per_pass` word lines is read back and any cell found off its
//! programmed level is re-programmed through the PR 1 program-and-verify
//! loop.
//!
//! The policy's costs are threaded into the timing, energy and endurance
//! models exactly like verify costs were: a scrub pass spends one verify
//! read per scanned cell and one tuning pulse per re-pulsed cell, its
//! row-serial time is amortised per image, and its pulses wear the weight
//! cells. The default policy is **off** and every cost term is then an
//! exact no-op (`+ 0.0` / `× 1.0`), so the calibrated paper numbers are
//! bit-identical with scrub disabled.

/// When and how much to scrub. Defaults to off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrubPolicy {
    /// Scrub period in processed images (logical cycles); `0` disables
    /// scrubbing entirely.
    pub interval_images: u64,
    /// Word lines refreshed per scrub pass on every mapped matrix (the
    /// pass wraps round-robin through the array across passes).
    pub rows_per_pass: usize,
    /// Planning estimate of the fraction of scanned cells that need a
    /// re-pulse — the knob the analytic energy/endurance models use
    /// (the functional simulator counts actual pulses instead).
    pub repulse_fraction: f64,
    /// Wear-leveling guard: a scrub pass skips any word line whose
    /// smallest remaining write budget is below this threshold, instead of
    /// burning a near-dead row's last pulses on maintenance writes. `0`
    /// disables the guard (scrub every row — the exact pre-wear
    /// behaviour); the guard only bites when a wear model is attached.
    pub min_headroom_writes: u64,
}

impl ScrubPolicy {
    /// Scrubbing disabled; all cost terms are exact no-ops.
    pub fn off() -> Self {
        ScrubPolicy {
            interval_images: 0,
            rows_per_pass: 0,
            repulse_fraction: 0.0,
            min_headroom_writes: 0,
        }
    }

    /// Scrub `rows_per_pass` rows every `interval_images` images, with the
    /// default planning estimate of 5% of scanned cells needing a
    /// re-pulse.
    pub fn every(interval_images: u64, rows_per_pass: usize) -> Self {
        ScrubPolicy {
            interval_images,
            rows_per_pass,
            repulse_fraction: 0.05,
            min_headroom_writes: 0,
        }
    }

    /// The same schedule with the wear-leveling guard set: rows whose
    /// remaining write budget has fallen below `min_headroom_writes` are
    /// skipped rather than scrubbed.
    pub fn with_min_headroom(mut self, min_headroom_writes: u64) -> Self {
        self.min_headroom_writes = min_headroom_writes;
        self
    }

    /// True when the policy never scrubs.
    pub fn is_off(&self) -> bool {
        self.interval_images == 0
    }

    /// Scrub passes per processed image (0 when off).
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn passes_per_image(&self) -> f64 {
        if self.is_off() {
            0.0
        } else {
            1.0 / self.interval_images as f64
        }
    }

    /// Word lines refreshed per processed image (0 when off).
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn rows_per_image(&self) -> f64 {
        self.rows_per_pass as f64 * self.passes_per_image()
    }
}

impl Default for ScrubPolicy {
    fn default() -> Self {
        ScrubPolicy::off()
    }
}

/// One accuracy sample of an aging campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSample {
    /// Logical cycles (processed images) of aging at this sample.
    pub cycles: u64,
    /// Classification accuracy at this point in time.
    pub accuracy: f64,
}

/// Accuracy-versus-time under device aging, with and without scrubbing —
/// the summary artifact of a drift campaign (`ablation_resilience`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DriftReport {
    /// Accuracy before any aging (t = 0, drift-free).
    pub baseline_accuracy: f64,
    /// Samples along the aging axis with the scrub scheduler running.
    pub scrub_on: Vec<DriftSample>,
    /// Samples along the same axis with scrubbing disabled.
    pub scrub_off: Vec<DriftSample>,
}

impl DriftReport {
    /// Final accuracy with scrub on (baseline if no samples were taken).
    pub fn final_scrub_on(&self) -> f64 {
        self.scrub_on
            .last()
            .map_or(self.baseline_accuracy, |s| s.accuracy)
    }

    /// Final accuracy with scrub off (baseline if no samples were taken).
    pub fn final_scrub_off(&self) -> f64 {
        self.scrub_off
            .last()
            .map_or(self.baseline_accuracy, |s| s.accuracy)
    }

    /// Accuracy points the scrub scheduler saved at the end of the
    /// campaign: `final_scrub_on − final_scrub_off`.
    pub fn accuracy_saved(&self) -> f64 {
        self.final_scrub_on() - self.final_scrub_off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_with_zero_rates() {
        let p = ScrubPolicy::default();
        assert!(p.is_off());
        assert_eq!(p.passes_per_image(), 0.0);
        assert_eq!(p.rows_per_image(), 0.0);
    }

    #[test]
    fn rates_follow_interval_and_budget() {
        let p = ScrubPolicy::every(100, 8);
        assert!(!p.is_off());
        assert_eq!(p.passes_per_image(), 0.01);
        assert_eq!(p.rows_per_image(), 0.08);
        assert_eq!(p.repulse_fraction, 0.05);
        assert_eq!(p.min_headroom_writes, 0, "guard defaults off");
    }

    #[test]
    fn headroom_guard_is_builder_set() {
        let p = ScrubPolicy::every(100, 8).with_min_headroom(500);
        assert_eq!(p.min_headroom_writes, 500);
        assert_eq!(p.rows_per_pass, 8, "schedule unchanged");
    }

    #[test]
    fn report_summarises_endpoints() {
        let r = DriftReport {
            baseline_accuracy: 0.9,
            scrub_on: vec![
                DriftSample {
                    cycles: 100,
                    accuracy: 0.89,
                },
                DriftSample {
                    cycles: 200,
                    accuracy: 0.88,
                },
            ],
            scrub_off: vec![DriftSample {
                cycles: 200,
                accuracy: 0.5,
            }],
        };
        assert_eq!(r.final_scrub_on(), 0.88);
        assert_eq!(r.final_scrub_off(), 0.5);
        assert!((r.accuracy_saved() - 0.38).abs() < 1e-12);
    }

    #[test]
    fn empty_report_degenerates_to_baseline() {
        let r = DriftReport {
            baseline_accuracy: 0.7,
            ..DriftReport::default()
        };
        assert_eq!(r.final_scrub_on(), 0.7);
        assert_eq!(r.accuracy_saved(), 0.0);
    }
}
