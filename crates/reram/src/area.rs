//! Area model.
//!
//! The paper's area numbers come from circuit data in \[47\]; only aggregates
//! are published: total PipeLayer area 82.6 mm², computational efficiency
//! 1485 GOPS/s/mm². We model area as
//!
//! ```text
//! area = n_crossbars · (crossbar + peripheral share) + fixed (controller/IO)
//! ```
//!
//! with the per-crossbar constant calibrated so that the default-granularity
//! AlexNet training configuration lands at the published 82.6 mm²
//! (see `pipelayer::area` for the configuration-level accounting and
//! EXPERIMENTS.md for the calibration).

/// Per-crossbar and fixed area constants, in mm².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Effective area of one 128×128 crossbar *including* its share of
    /// spike drivers (shared between adjacent subarrays), integrate-and-fire
    /// units, activation components and connection fabric.
    pub crossbar_mm2: f64,
    /// Fixed overhead: controller, global row decoder, global I/O row
    /// buffer (Fig. 9).
    pub fixed_mm2: f64,
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel {
            // 128×128 cells at 4F², F = 50 nm, gives 0.00041 mm² for the
            // bare array; the remainder covers the array's share of
            // drivers/I&F/activation/connection. Calibrated so the default
            // AlexNet training deployment (130,839 crossbars) hits the
            // paper's 82.6 mm² (EXPERIMENTS.md).
            crossbar_mm2: 0.000616,
            fixed_mm2: 2.0,
        }
    }
}

impl AreaModel {
    /// Total area for `n_crossbars` arrays.
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
    pub fn total_mm2(&self, n_crossbars: u64) -> f64 {
        self.fixed_mm2 + n_crossbars as f64 * self.crossbar_mm2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_is_affine_in_array_count() {
        let m = AreaModel::default();
        let a1 = m.total_mm2(1000);
        let a2 = m.total_mm2(2000);
        assert!((a2 - a1 - 1000.0 * m.crossbar_mm2).abs() < 1e-9);
        assert!(m.total_mm2(0) == m.fixed_mm2);
    }

    #[test]
    fn default_is_positive() {
        let m = AreaModel::default();
        assert!(m.crossbar_mm2 > 0.0 && m.fixed_mm2 > 0.0);
    }
}
