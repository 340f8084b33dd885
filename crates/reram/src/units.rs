//! Typed physical quantities for the analytic model.
//!
//! The paper's results are arithmetic over four NVSim device scalars
//! (29.31 ns / 50.88 ns and 1.08 pJ / 3.91 nJ per read/write spike,
//! Sec. 6.2). Carrying them as [`Nanoseconds`] and [`Picojoules`] instead of
//! bare `f64` lets the compiler reject mixed-unit arithmetic: a duration
//! never adds to an energy, and a pJ value never reaches a joule parameter
//! without the one explicit [`Picojoules::to_joules`] conversion.
//!
//! Every type supports the same small set of operations: `+`, `-`, `+=`
//! between equal units, scaling by a dimensionless `f64` from either side,
//! `/ f64`, a dimensionless ratio `Self / Self -> f64` (speedups, energy
//! savings), `Sum`, ordering and [`max`](Nanoseconds::max). There is no
//! generic dimension algebra: a quantity whose unit is not one of these
//! four (throughput, power, GOPS) stays a plain `f64` computed from `.0`.
//!
//! ```
//! use pipelayer_reram::units::Nanoseconds;
//! use pipelayer_reram::ReramParams;
//!
//! // One spike-coded read phase is 16 slots of the 29.31 ns read latency.
//! let phase = Nanoseconds(29.31) * 16.0;
//! assert_eq!(phase.0.to_bits(), ReramParams::default().read_phase_ns().0.to_bits());
//! ```
//!
//! Durations and energies do not mix:
//!
//! ```compile_fail
//! use pipelayer_reram::units::{Joules, Nanoseconds};
//! let _ = Nanoseconds(29.31) + Joules(1.08e-12);
//! ```
//!
//! A pJ value is not a joule value until it is converted:
//!
//! ```compile_fail
//! use pipelayer_reram::units::{Joules, Picojoules};
//! fn report(_energy: Joules) {}
//! report(Picojoules(1.08));
//! ```
//!
//! Seconds and nanoseconds are different scales, so their ratio is not a
//! plain number:
//!
//! ```compile_fail
//! use pipelayer_reram::units::{Nanoseconds, Seconds};
//! let _ratio: f64 = Seconds(1.0) / Nanoseconds(1.0);
//! ```

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

macro_rules! quantity {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
        pub struct $name(pub f64);

        impl $name {
            /// The larger of the two, with `f64::max` semantics.
            pub fn max(self, other: Self) -> Self {
                $name(self.0.max(other.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                $name(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, k: f64) -> Self {
                $name(self.0 * k)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, q: $name) -> $name {
                $name(self * q.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, k: f64) -> Self {
                $name(self.0 / k)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                $name(iter.map(|q| q.0).sum())
            }
        }
    };
}

quantity!(
    /// A duration in nanoseconds: device latencies, phase and cycle times.
    Nanoseconds
);
quantity!(
    /// A duration in seconds: whole-run times and lifetimes.
    Seconds
);
quantity!(
    /// An energy in picojoules: per-spike and per-conversion costs.
    Picojoules
);
quantity!(
    /// An energy in joules: whole-run and per-image totals.
    Joules
);

impl Nanoseconds {
    /// The same duration in seconds (`× 1e-9`).
    pub fn to_seconds(self) -> Seconds {
        Seconds(self.0 * 1e-9)
    }
}

impl Picojoules {
    /// The same energy in joules (`× 1e-12`).
    pub fn to_joules(self) -> Joules {
        Joules(self.0 * 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_single_multiplies() {
        let ns = Nanoseconds(29.31);
        assert_eq!(ns.to_seconds().0.to_bits(), (29.31 * 1e-9f64).to_bits());
        let pj = Picojoules(3910.0);
        assert_eq!(pj.to_joules().0.to_bits(), (3910.0 * 1e-12f64).to_bits());
    }

    #[test]
    fn arithmetic_matches_bare_f64() {
        let (a, b) = (0.1, 0.2);
        assert_eq!((Seconds(a) + Seconds(b)).0, a + b);
        assert_eq!((Seconds(b) - Seconds(a)).0, b - a);
        assert_eq!((3.0 * Joules(a)).0, 3.0 * a);
        assert_eq!((Joules(a) * 3.0).0, a * 3.0);
        assert_eq!((Joules(a) / 3.0).0, a / 3.0);
        assert_eq!(Picojoules(b) / Picojoules(a), b / a);
        let mut acc = Nanoseconds(a);
        acc += Nanoseconds(b);
        assert_eq!(acc.0, a + b);
    }

    #[test]
    fn sum_and_max_follow_f64() {
        let xs = [0.1, 0.2, 0.3];
        let typed: Joules = xs.iter().map(|&x| Joules(x)).sum();
        assert_eq!(typed.0.to_bits(), xs.iter().sum::<f64>().to_bits());
        let empty: Joules = std::iter::empty().sum();
        assert_eq!(
            empty.0.to_bits(),
            std::iter::empty::<f64>().sum::<f64>().to_bits()
        );
        assert_eq!(Nanoseconds(1.0).max(Nanoseconds(2.0)), Nanoseconds(2.0));
        assert_eq!(
            Nanoseconds(f64::NAN).max(Nanoseconds(2.0)),
            Nanoseconds(2.0)
        );
        assert!(Seconds(1.0) < Seconds(2.0));
    }
}
