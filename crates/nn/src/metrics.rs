//! Evaluation metrics.

use crate::data::Dataset;
use crate::network::Network;

/// A `C×C` confusion matrix: `counts[true][predicted]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// Evaluates `net` over `data`, assuming `classes` output classes.
    /// Samples whose label is not below `classes` are skipped.
    pub fn evaluate(net: &Network, data: &Dataset, classes: usize) -> Self {
        let mut counts = vec![vec![0usize; classes]; classes];
        for (img, &label) in data.images.iter().zip(&data.labels) {
            let pred = net.predict(img);
            if let Some(row) = counts.get_mut(label) {
                row[pred.min(classes - 1)] += 1;
            }
        }
        ConfusionMatrix { counts }
    }

    /// Raw counts, `counts()[true][pred]`.
    pub fn counts(&self) -> &[Vec<usize>] {
        &self.counts
    }

    /// Overall accuracy.
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
    pub fn accuracy(&self) -> f32 {
        let total: usize = self.counts.iter().map(|r| r.iter().sum::<usize>()).sum();
        if total == 0 {
            return 0.0;
        }
        let diag: usize = self.counts.iter().enumerate().map(|(i, r)| r[i]).sum();
        diag as f32 / total as f32
    }

    /// Per-class recall (`None` where a class has no samples).
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
    pub fn recall(&self) -> Vec<Option<f32>> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let n: usize = row.iter().sum();
                (n > 0).then(|| row[i] as f32 / n as f32)
            })
            .collect()
    }
}

/// Plain accuracy of `net` on `data`.
pub fn accuracy(net: &Network, data: &Dataset) -> f32 {
    net.accuracy(&data.images, &data.labels)
}

/// Accuracy lost relative to a baseline, in percentage points (positive
/// means the degraded run is worse). The unit the device-robustness
/// studies (variation sweep, fault-tolerance ablation) report in.
pub fn accuracy_drop_points(baseline: f32, degraded: f32) -> f32 {
    (baseline - degraded) * 100.0
}

/// A baseline-vs-degraded accuracy comparison for robustness studies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationReport {
    /// Accuracy of the unperturbed reference run.
    pub baseline: f32,
    /// Accuracy of the degraded (faulty / corrupted) run.
    pub degraded: f32,
    /// Spare columns still unconsumed across the device when the degraded
    /// accuracy was measured (0 for runs without a repair layer).
    pub spares_left: usize,
    /// Output columns masked off after the repair ladder exhausted its
    /// options — the graceful-degradation toll paid so far.
    pub masked_units: usize,
}

impl DegradationReport {
    /// A report with no repair-layer state (spares/masks zero) — the shape
    /// every pre-wear robustness study produces.
    pub fn new(baseline: f32, degraded: f32) -> Self {
        DegradationReport {
            baseline,
            degraded,
            spares_left: 0,
            masked_units: 0,
        }
    }

    /// Attaches the repair-layer state observed at measurement time.
    pub fn with_repair_state(mut self, spares_left: usize, masked_units: usize) -> Self {
        self.spares_left = spares_left;
        self.masked_units = masked_units;
        self
    }

    /// Accuracy lost, percentage points (positive = worse).
    pub fn drop_points(&self) -> f32 {
        accuracy_drop_points(self.baseline, self.degraded)
    }

    /// `true` if the degraded run stays within `tolerance_points` of the
    /// baseline — the pass criterion of the fault-tolerance round trip.
    pub fn within(&self, tolerance_points: f32) -> bool {
        self.drop_points() <= tolerance_points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticMnist;
    use crate::zoo;

    #[test]
    fn confusion_matrix_consistent_with_accuracy() {
        let data = SyntheticMnist::generate(20, 20, 11);
        let net = zoo::mnist_a(11); // untrained
        let cm = ConfusionMatrix::evaluate(&net, &data.test, 10);
        let total: usize = cm.counts().iter().map(|r| r.iter().sum::<usize>()).sum();
        assert_eq!(total, 20);
        assert!((cm.accuracy() - accuracy(&net, &data.test)).abs() < 1e-6);
    }

    #[test]
    fn degradation_report_measures_in_points() {
        let r = DegradationReport::new(0.92, 0.895);
        assert!((r.drop_points() - 2.5).abs() < 1e-4);
        assert!(r.within(3.0));
        assert!(!r.within(2.0));
        // An improvement is a negative drop and always "within".
        let better = DegradationReport::new(0.5, 0.6);
        assert!(better.drop_points() < 0.0);
        assert!(better.within(0.0));
        // Repair state rides along without touching the accuracy math.
        let repaired = DegradationReport::new(0.92, 0.91).with_repair_state(3, 1);
        assert_eq!(repaired.spares_left, 3);
        assert_eq!(repaired.masked_units, 1);
        assert!(repaired.within(2.0));
    }

    #[test]
    fn recall_handles_missing_classes() {
        let cm = ConfusionMatrix {
            counts: vec![vec![2, 0], vec![0, 0]],
        };
        let r = cm.recall();
        assert_eq!(r[0], Some(1.0));
        assert_eq!(r[1], None);
    }
}
