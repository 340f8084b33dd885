//! Accelerator configuration.

use crate::repair::{RepairPolicy, SpareBudget};
use crate::scrub::ScrubPolicy;
use pipelayer_reram::{BitWidthError, DeviceModel, FaultModel, ReramParams, VerifyPolicy};
use std::num::NonZeroUsize;

/// A rejected [`PipeLayerConfig`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A fault-model probability was outside `[0, 1]` (or their sum was).
    InvalidFaultRate(f64),
    /// The verify policy allowed zero programming attempts.
    ZeroAttempts,
    /// The per-attempt write noise was negative or non-finite.
    InvalidWriteSigma(f64),
    /// A datapath range bound (activation/gradient absmax) was non-positive
    /// or non-finite.
    InvalidRangeBound(f64),
    /// The bit-line accumulator was configured with zero width.
    ZeroAccumulatorBits,
    /// Scrubbing was enabled with a zero rows-per-pass budget.
    ZeroScrubRows,
    /// The scrub re-pulse fraction was outside `[0, 1]` or non-finite.
    InvalidScrubFraction(f64),
    /// A noise-model σ (lognormal device spread or read noise) was negative
    /// or non-finite.
    InvalidNoiseSigma(f64),
    /// The noise model's IR-drop attenuation was outside `[0, 1]` or
    /// non-finite.
    InvalidNoiseFraction(f64),
    /// The noise model's conductance on/off floor `g_ratio` was outside
    /// `[0, 1)` or non-finite. At 1 the conductance window is empty, so
    /// every stored level would read back as 0.
    InvalidConductanceRatio(f64),
    /// The wear model's median write budget was negative or non-finite.
    InvalidWearBudget(f64),
    /// The wear model's lognormal σ was negative or non-finite.
    InvalidWearSigma(f64),
    /// A drift exponent (median ν or its cell-to-cell σ) was negative or
    /// non-finite.
    InvalidDriftExponent(f64),
    /// The drift model's retention knee `t0_cycles` was zero.
    ZeroDriftKnee,
    /// The cell or data width failed
    /// [`ReramParams::check_bit_widths`].
    InvalidBitWidths(BitWidthError),
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::InvalidFaultRate(r) => {
                write!(f, "fault rate {r} must be in [0,1] (and sum to at most 1)")
            }
            ConfigError::ZeroAttempts => write!(f, "need at least one programming attempt"),
            ConfigError::InvalidWriteSigma(s) => {
                write!(f, "write sigma {s} must be finite and non-negative")
            }
            ConfigError::InvalidRangeBound(b) => {
                write!(f, "datapath range bound {b} must be positive and finite")
            }
            ConfigError::ZeroAccumulatorBits => {
                write!(f, "accumulator needs at least one bit")
            }
            ConfigError::ZeroScrubRows => {
                write!(f, "an enabled scrub policy needs a non-zero row budget")
            }
            ConfigError::InvalidScrubFraction(r) => {
                write!(f, "scrub re-pulse fraction {r} must be in [0,1]")
            }
            ConfigError::InvalidNoiseSigma(s) => {
                write!(f, "noise sigma {s} must be finite and non-negative")
            }
            ConfigError::InvalidNoiseFraction(r) => {
                write!(f, "noise fraction {r} must be in [0,1]")
            }
            ConfigError::InvalidConductanceRatio(r) => {
                write!(f, "conductance on/off ratio {r} must be in [0,1)")
            }
            ConfigError::InvalidWearBudget(w) => {
                write!(
                    f,
                    "wear median write budget {w} must be finite and non-negative"
                )
            }
            ConfigError::InvalidWearSigma(s) => {
                write!(f, "wear sigma {s} must be finite and non-negative")
            }
            ConfigError::InvalidDriftExponent(nu) => {
                write!(f, "drift exponent {nu} must be finite and non-negative")
            }
            ConfigError::ZeroDriftKnee => {
                write!(f, "drift needs a retention knee of at least one cycle")
            }
            ConfigError::InvalidBitWidths(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Value-range format of the fixed-point datapath: the envelopes the PL04x
/// range analysis (`pipelayer-check`) proves computed values against.
///
/// The paper fixes the *resolution* of the datapath (16-bit words on 4-bit
/// cells, Fig. 14) but never states the *range* — the largest activation,
/// gradient and dot-product magnitudes the spike-coded arithmetic must
/// carry without saturating. ISAAC (PAPERS.md) sizes its ADC/accumulator
/// widths from exactly this worst-case range arithmetic; the defaults here
/// are sized the same way, from interval bounds over the executable network
/// zoo with ≥4× headroom (see DESIGN.md §6.4):
///
/// * `activation_absmax = 2^20` — the worst-case forward activation bound
///   over the MNIST-scale zoo is ≈1.5×10⁵ (C-4's final inner product), so
///   2²⁰ ≈ 1.05×10⁶ leaves ~7× headroom while keeping a power-of-two
///   binary point.
/// * `gradient_absmax = 2^24` — the dominant backward quantity is the
///   per-sample `ΔW` partial buffered per image, bounded by
///   `P·|δ|·|x|` with `P` window positions; C-4's first conv reaches
///   ≈1.9×10⁶, so 2²⁴ ≈ 1.68×10⁷ leaves ~9× headroom.
/// * `accumulator_bits = 48` — the widest mapped matrix in the zoo (VGG's
///   `ip25088-4096`, 25 089 rows) needs `⌈log₂(25089·32767²)⌉+1 = 46`
///   signed bits for a worst-case 16-bit × 16-bit dot product.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatapathFormat {
    /// Largest representable activation magnitude (forward values).
    pub activation_absmax: f64,
    /// Largest representable error / per-sample weight-gradient magnitude
    /// (backward values, the `ΔW` partials buffered per image).
    pub gradient_absmax: f64,
    /// Signed width (bits, including sign) of the shift-add accumulator
    /// behind each bit line — the register that sums spike-slot partial
    /// products over a whole array-read phase (Figs. 9/14).
    pub accumulator_bits: u8,
}

impl Default for DatapathFormat {
    fn default() -> Self {
        DatapathFormat {
            activation_absmax: (1u32 << 20) as f64,
            gradient_absmax: (1u32 << 24) as f64,
            accumulator_bits: 48,
        }
    }
}

impl DatapathFormat {
    /// Checks the format's own domain.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for b in [self.activation_absmax, self.gradient_absmax] {
            if !(b.is_finite() && b > 0.0) {
                return Err(ConfigError::InvalidRangeBound(b));
            }
        }
        if self.accumulator_bits == 0 {
            return Err(ConfigError::ZeroAccumulatorBits);
        }
        Ok(())
    }
}

/// PipeLayer configuration: device parameters and device model, training
/// batch size, and the (opt-in) fault-tolerance, scrub and repair knobs.
/// [`validate`](Self::validate) is the one place its values are checked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipeLayerConfig {
    /// ReRAM device/array parameters (NVSim-derived, Sec. 6.2).
    pub params: ReramParams,
    /// Training batch size `B` (the paper's running example uses 64).
    pub batch_size: NonZeroUsize,
    /// The arrays' device non-idealities — stuck-at/dead faults, drift and
    /// read disturb, analog read noise and endurance wear-out
    /// ([`DeviceModel::ideal`] by default, the paper's perfect device and
    /// an exact no-op on every read and write).
    pub device: DeviceModel,
    /// Program-and-verify write discipline (defaults to the ideal
    /// single-shot write, so verification is strictly opt-in).
    pub verify: VerifyPolicy,
    /// Spare bit lines provisioned per mapped matrix (none by default).
    pub spares: SpareBudget,
    /// Value-range format of the fixed-point datapath — what the PL04x
    /// range analysis checks computed values against.
    pub datapath: DatapathFormat,
    /// Online scrub/refresh scheduling against device aging (off by
    /// default — all scrub cost terms are then exact no-ops).
    pub scrub: ScrubPolicy,
    /// How verify failures escalate to spares — the retry → backoff →
    /// remap → mask ladder (immediate escalation by default, the
    /// commissioning-time behaviour).
    pub repair: RepairPolicy,
}

/// The paper's running-example batch size, `B = 64`.
const DEFAULT_BATCH: NonZeroUsize = NonZeroUsize::MIN.saturating_add(63);

impl Default for PipeLayerConfig {
    fn default() -> Self {
        PipeLayerConfig {
            params: ReramParams::default(),
            batch_size: DEFAULT_BATCH,
            device: DeviceModel::ideal(),
            verify: VerifyPolicy::default(),
            spares: SpareBudget::none(),
            datapath: DatapathFormat::default(),
            scrub: ScrubPolicy::off(),
            repair: RepairPolicy::immediate(),
        }
    }
}

impl PipeLayerConfig {
    /// Creates a config with the default device parameters and the given
    /// batch size.
    pub fn with_batch(batch_size: NonZeroUsize) -> Self {
        PipeLayerConfig {
            batch_size,
            ..Self::default()
        }
    }

    /// Enables the fault-tolerance stack: stuck-at faults drawn from
    /// `faults`, writes going through `verify`, and `spares` columns of
    /// redundancy per matrix. The values are checked where the config
    /// enters a model ([`validate`](Self::validate)).
    pub fn with_fault_tolerance(
        mut self,
        faults: FaultModel,
        verify: VerifyPolicy,
        spares: SpareBudget,
    ) -> Self {
        self.device.faults = faults;
        self.verify = verify;
        self.spares = spares;
        self
    }

    /// Checks every field against its domain.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint. The bit widths come last, so
    /// a [`ConfigError::InvalidBitWidths`] means every other field is in
    /// its domain.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let DeviceModel {
            faults,
            drift,
            noise,
            wear,
        } = &self.device;
        faults.validate().map_err(ConfigError::InvalidFaultRate)?;
        if self.verify.max_attempts == 0 {
            return Err(ConfigError::ZeroAttempts);
        }
        if self.verify.write_sigma < 0.0 || !self.verify.write_sigma.is_finite() {
            return Err(ConfigError::InvalidWriteSigma(self.verify.write_sigma));
        }
        if !self.scrub.is_off() {
            if self.scrub.rows_per_pass == 0 {
                return Err(ConfigError::ZeroScrubRows);
            }
            let f = self.scrub.repulse_fraction;
            if !(0.0..=1.0).contains(&f) || !f.is_finite() {
                return Err(ConfigError::InvalidScrubFraction(f));
            }
        }
        for s in [noise.lrs_sigma, noise.hrs_sigma, noise.read_sigma] {
            if s < 0.0 || !s.is_finite() {
                return Err(ConfigError::InvalidNoiseSigma(s));
            }
        }
        if !(0.0..=1.0).contains(&noise.ir_drop) {
            return Err(ConfigError::InvalidNoiseFraction(noise.ir_drop));
        }
        if !(0.0..1.0).contains(&noise.g_ratio) {
            return Err(ConfigError::InvalidConductanceRatio(noise.g_ratio));
        }
        if wear.median_writes < 0.0 || !wear.median_writes.is_finite() {
            return Err(ConfigError::InvalidWearBudget(wear.median_writes));
        }
        if wear.sigma < 0.0 || !wear.sigma.is_finite() {
            return Err(ConfigError::InvalidWearSigma(wear.sigma));
        }
        for nu in [drift.nu, drift.nu_sigma] {
            if nu < 0.0 || !nu.is_finite() {
                return Err(ConfigError::InvalidDriftExponent(nu));
            }
        }
        if drift.t0_cycles == 0 {
            return Err(ConfigError::ZeroDriftKnee);
        }
        self.datapath.validate()?;
        self.params
            .check_bit_widths()
            .map_err(ConfigError::InvalidBitWidths)
    }

    /// `true` once any fault-tolerance knob departs from the ideal
    /// defaults — the gate that keeps the calibrated baseline numbers
    /// bit-exact when fault tolerance is off.
    pub fn fault_tolerance_enabled(&self) -> bool {
        !self.device.faults.is_ideal() || self.verify != VerifyPolicy::default()
    }

    /// Expected programming pulses per cell write relative to the ideal
    /// single-shot write — the factor the energy, timing and endurance
    /// models scale reprogramming by. Exactly 1.0 with fault tolerance off.
    pub fn write_pulse_multiplier(&self) -> f64 {
        if !self.fault_tolerance_enabled() {
            return 1.0;
        }
        self.verify.expected_pulse_multiplier(&self.device.faults)
    }

    /// Expected verify reads per written cell (one per programming
    /// attempt). Zero with fault tolerance off: the base model's
    /// fire-and-forget write has no read-back.
    pub fn verify_reads_per_cell_write(&self) -> f64 {
        if !self.fault_tolerance_enabled() {
            return 0.0;
        }
        let f = self.device.faults.total_rate();
        (1.0 - f) * self.verify.expected_attempts_healthy() + f * self.verify.max_attempts as f64
    }

    /// `true` once the scrub scheduler is turned on — the gate that keeps
    /// baseline timing/energy/endurance numbers bit-exact with scrub off.
    pub fn scrub_enabled(&self) -> bool {
        !self.scrub.is_off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_batch_is_64() {
        assert_eq!(PipeLayerConfig::default().batch_size.get(), 64);
        let b = NonZeroUsize::new(8).unwrap();
        assert_eq!(PipeLayerConfig::with_batch(b).batch_size, b);
    }

    #[test]
    fn defaults_are_exact_noops() {
        let c = PipeLayerConfig::default();
        assert!(!c.fault_tolerance_enabled());
        assert_eq!(c.device, DeviceModel::ideal());
        assert_eq!(c.repair, crate::repair::RepairPolicy::immediate());
        assert_eq!(c.write_pulse_multiplier(), 1.0);
        assert_eq!(c.verify_reads_per_cell_write(), 0.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn bit_widths_validate_last() {
        let mut cfg = PipeLayerConfig::default();
        cfg.params.cell_bits = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::InvalidBitWidths(BitWidthError::CellBits(0)))
        );
        cfg.params.data_bits = 32;
        cfg.params.cell_bits = 4;
        assert_eq!(cfg.validate(), Ok(()));
        cfg.params.data_bits = 40;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::InvalidBitWidths(BitWidthError::TooWide(40)))
        );
        cfg.verify.max_attempts = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroAttempts));
    }

    #[test]
    fn wear_model_validates_its_domain() {
        use pipelayer_reram::WearModel;
        let mut cfg = PipeLayerConfig::default();
        cfg.device.wear = WearModel::with_endurance(1e6);
        assert!(cfg.validate().is_ok());

        let mut bad = cfg;
        bad.device.wear.median_writes = -1.0;
        assert_eq!(bad.validate(), Err(ConfigError::InvalidWearBudget(-1.0)));

        bad.device.wear = WearModel {
            median_writes: 1e6,
            sigma: f64::NAN,
        };
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::InvalidWearSigma(_))
        ));
    }

    #[test]
    fn noise_model_validates_its_domain() {
        use pipelayer_reram::NoiseModel;
        let mut cfg = PipeLayerConfig::default();
        cfg.device.noise = NoiseModel::with_strength(1.0);
        assert!(cfg.validate().is_ok());

        cfg.device.noise = NoiseModel {
            lrs_sigma: -0.1,
            ..NoiseModel::ideal()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::InvalidNoiseSigma(-0.1)));

        cfg.device.noise = NoiseModel {
            read_sigma: f64::NAN,
            ..NoiseModel::ideal()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::InvalidNoiseSigma(_))
        ));

        cfg.device.noise = NoiseModel {
            ir_drop: 1.5,
            ..NoiseModel::ideal()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::InvalidNoiseFraction(1.5)));

        cfg.device.noise = NoiseModel {
            g_ratio: -0.01,
            ..NoiseModel::ideal()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::InvalidConductanceRatio(_))
        ));
    }

    #[test]
    fn drift_model_validates_its_domain() {
        use pipelayer_reram::DriftModel;
        let mut cfg = PipeLayerConfig::default();
        let drift = DriftModel {
            nu: 0.1,
            nu_sigma: 0.05,
            t0_cycles: 100,
            disturb_per_level: 40,
        };
        cfg.device.drift = drift;
        assert!(cfg.validate().is_ok());

        cfg.device.drift.nu = -0.1;
        assert_eq!(cfg.validate(), Err(ConfigError::InvalidDriftExponent(-0.1)));

        cfg.device.drift = DriftModel {
            nu_sigma: f64::INFINITY,
            ..drift
        };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::InvalidDriftExponent(f64::INFINITY))
        );

        cfg.device.drift = DriftModel {
            nu: f64::NAN,
            ..drift
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::InvalidDriftExponent(_))
        ));

        // The knee is checked whether or not the model drifts: the power
        // law divides by it.
        cfg.device.drift = DriftModel {
            t0_cycles: 0,
            ..DriftModel::ideal()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroDriftKnee));
    }

    #[test]
    fn fault_tolerance_costs_pulses_and_reads() {
        let c = PipeLayerConfig::default().with_fault_tolerance(
            FaultModel::with_stuck_rate(1e-3),
            VerifyPolicy {
                max_attempts: 5,
                write_sigma: 0.4,
            },
            SpareBudget::typical(),
        );
        assert!(c.fault_tolerance_enabled());
        assert!(c.write_pulse_multiplier() > 1.0);
        assert!(c.verify_reads_per_cell_write() > 1.0);
    }

    #[test]
    fn validate_rejects_bad_fault_tolerance() {
        let err = PipeLayerConfig::default()
            .with_fault_tolerance(
                FaultModel {
                    stuck_at_zero: 0.8,
                    stuck_at_max: 0.8,
                    dead: 0.0,
                },
                VerifyPolicy::default(),
                SpareBudget::none(),
            )
            .validate();
        assert!(matches!(err, Err(ConfigError::InvalidFaultRate(_))));

        let err = PipeLayerConfig::default()
            .with_fault_tolerance(
                FaultModel::ideal(),
                VerifyPolicy::with_attempts(0),
                SpareBudget::none(),
            )
            .validate();
        assert_eq!(err, Err(ConfigError::ZeroAttempts));

        let err = PipeLayerConfig::default()
            .with_fault_tolerance(
                FaultModel::ideal(),
                VerifyPolicy {
                    max_attempts: 2,
                    write_sigma: f64::NAN,
                },
                SpareBudget::none(),
            )
            .validate();
        assert!(matches!(err, Err(ConfigError::InvalidWriteSigma(_))));
    }

    #[test]
    fn datapath_format_validates_its_domain() {
        assert!(DatapathFormat::default().validate().is_ok());
        let bad = DatapathFormat {
            activation_absmax: 0.0,
            ..DatapathFormat::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::InvalidRangeBound(0.0)));
        let bad = DatapathFormat {
            gradient_absmax: f64::NAN,
            ..DatapathFormat::default()
        };
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::InvalidRangeBound(_))
        ));
        let bad = DatapathFormat {
            accumulator_bits: 0,
            ..DatapathFormat::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::ZeroAccumulatorBits));
        // The config-level validate sees datapath violations too.
        let mut cfg = PipeLayerConfig::default();
        cfg.datapath.accumulator_bits = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroAccumulatorBits));
    }

    #[test]
    fn scrub_policy_validates() {
        use crate::scrub::ScrubPolicy;
        let mut cfg = PipeLayerConfig::default();
        assert!(!cfg.scrub_enabled());
        assert!(cfg.validate().is_ok());

        cfg.scrub = ScrubPolicy::every(100, 0);
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroScrubRows));

        cfg.scrub = ScrubPolicy {
            interval_images: 100,
            rows_per_pass: 4,
            repulse_fraction: 1.5,
            min_headroom_writes: 0,
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::InvalidScrubFraction(_))
        ));

        cfg.scrub = ScrubPolicy::every(100, 4);
        assert!(cfg.validate().is_ok());
        assert!(cfg.scrub_enabled());
    }

    #[test]
    fn config_error_messages_are_stable() {
        assert_eq!(
            ConfigError::ZeroScrubRows.to_string(),
            "an enabled scrub policy needs a non-zero row budget"
        );
        assert!(ConfigError::ZeroAttempts
            .to_string()
            .contains("at least one"));
    }
}
