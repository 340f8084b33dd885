//! Published efficiency constants for the Sec. 6.6 comparison.
//!
//! The paper compares PipeLayer's computational efficiency (GOPS/s/mm²) and
//! power efficiency (GOPS/s/W) against DaDianNao \[44\] and ISAAC \[2\]. Only
//! the aggregate numbers enter the comparison; we record the published
//! values here (the OCR of the available text damages some digits — the
//! values below are the canonical ones from the DaDianNao/ISAAC papers and
//! the PipeLayer text, see DESIGN.md §8).

/// An accelerator's published efficiency pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Efficiency {
    /// Name used in the paper.
    pub name: &'static str,
    /// Computational efficiency, GOPS/s/mm².
    pub gops_per_mm2: f64,
    /// Power efficiency, GOPS/s/W.
    pub gops_per_w: f64,
}

/// DaDianNao (eDRAM-buffered ASIC).
pub const DADIANNAO: Efficiency = Efficiency {
    name: "DaDianNao",
    gops_per_mm2: 63.46,
    gops_per_w: 286.4,
};

/// ISAAC (ReRAM inference accelerator with ADCs and eDRAM buffers).
pub const ISAAC: Efficiency = Efficiency {
    name: "ISAAC",
    gops_per_mm2: 479.0,
    gops_per_w: 380.7,
};

/// PipeLayer's own published numbers (Sec. 6.6), used as the paper-side
/// reference in EXPERIMENTS.md.
pub const PIPELAYER_PUBLISHED: Efficiency = Efficiency {
    name: "PipeLayer (paper)",
    gops_per_mm2: 1485.0,
    gops_per_w: 142.9,
};

/// PipeLayer's published total area, mm².
pub const PIPELAYER_AREA_MM2: f64 = 82.6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(clippy::assertions_on_constants, reason = "pins published constants")]
    fn paper_ordering_holds() {
        // Sec. 6.6: PipeLayer beats both on computational efficiency but
        // trails both on power efficiency (it writes all data to ReRAM).
        assert!(PIPELAYER_PUBLISHED.gops_per_mm2 > ISAAC.gops_per_mm2);
        assert!(ISAAC.gops_per_mm2 > DADIANNAO.gops_per_mm2);
        assert!(PIPELAYER_PUBLISHED.gops_per_w < DADIANNAO.gops_per_w);
        assert!(PIPELAYER_PUBLISHED.gops_per_w < ISAAC.gops_per_w);
    }
}
