//! Paper-reported reference values, printed next to our measurements.
//!
//! Some digits in the available paper text are OCR-damaged; where that is
//! the case the canonical published value is used and flagged in
//! EXPERIMENTS.md (DESIGN.md §8 lists them all).

/// Geometric-mean speedup over the GPU baseline, testing (Sec. 6.3).
pub const SPEEDUP_GEOMEAN_TEST: f64 = 42.45;
/// Geometric-mean energy saving over GPU, training (Sec. 6.4).
pub const ENERGY_SAVING_GEOMEAN_TRAIN: f64 = 6.52;
/// Geometric-mean energy saving over GPU, testing (Sec. 6.4).
pub const ENERGY_SAVING_GEOMEAN_TEST: f64 = 7.88;
/// Overall geometric-mean energy saving (abstract/Sec. 6.4).
pub const ENERGY_SAVING_GEOMEAN_ALL: f64 = 7.17;
/// Highest per-network energy saving, training (Mnist-C, Sec. 6.4).
pub const ENERGY_SAVING_MAX_TRAIN: f64 = 27.3;
/// Highest per-network energy saving, testing (Mnist-A, Sec. 6.4).
pub const ENERGY_SAVING_MAX_TEST: f64 = 70.1;
/// Total accelerator area, mm² (Sec. 6.6).
pub const AREA_MM2: f64 = 82.6;
/// Computational efficiency, GOPS/s/mm² (Sec. 6.6).
pub const COMPUTE_EFFICIENCY: f64 = 1485.0;
/// Power efficiency, GOPS/s/W (Sec. 6.6).
pub const POWER_EFFICIENCY: f64 = 142.9;

/// Evaluation network names in figure order.
pub const NETWORKS: [&str; 10] = [
    "Mnist-A", "Mnist-B", "Mnist-C", "Mnist-0", "AlexNet", "VGG-A", "VGG-B", "VGG-C", "VGG-D",
    "VGG-E",
];

#[cfg(test)]
mod tests {
    #[test]
    #[expect(clippy::assertions_on_constants, reason = "pins published constants")]
    fn reference_values_consistent() {
        // Overall energy geomean must sit between the train and test means.
        assert!(super::ENERGY_SAVING_GEOMEAN_ALL > super::ENERGY_SAVING_GEOMEAN_TRAIN);
        assert!(super::ENERGY_SAVING_GEOMEAN_ALL < super::ENERGY_SAVING_GEOMEAN_TEST);
    }
}
