//! ReRAM substrate for the PipeLayer reproduction.
//!
//! PipeLayer computes matrix–vector multiplications *inside* metal-oxide
//! ReRAM crossbars (Sec. 2.3, 4.2 of the paper). This crate models that
//! substrate, bottom-up:
//!
//! * [`cell`] — a multi-level (default 4-bit) ReRAM cell with discrete
//!   conductance states and programming.
//! * [`spike`] — the weighted spike coding scheme of Fig. 9(a): an `N`-bit
//!   input becomes `N` time slots, LSB first, slot `i` carrying weight `2^i`.
//!   Eliminates DACs.
//! * [`integrate_fire`] — the integrate-and-fire converter of Fig. 9(b):
//!   bitline current charges a capacitor; comparator spikes are counted.
//!   Eliminates ADCs.
//! * [`packed`] — bit-packed spike trains (64 rows per `u64` word per
//!   time slot) and bit-plane-decomposed conductances; turns one MVM time
//!   slot into `popcount(fires & g_plane) << (slot + plane)` — bitwise
//!   identical to the scalar walk. No crossbar calls it; it remains for
//!   per-kernel timing probes.
//! * [`crossbar`] — a single crossbar array combining the above into an
//!   exact fixed-point MVM (an integer GEMM over the effective levels on
//!   the hot path, the scalar slot walk retained as its spec).
//! * [`array_group`] — signed, full-resolution matrices built from
//!   positive/negative array pairs and the four 4-bit segment groups of the
//!   resolution-compensation scheme (Fig. 14).
//! * [`partition`] — the tile grid of a large kernel matrix on fixed-size
//!   arrays (the balanced scheme of Fig. 5), which the mapping and
//!   granularity models count.
//! * [`fault`] — persistent stuck-at/dead cell maps and the bounded
//!   program-and-verify write discipline (retry pulses, unrecoverable-cell
//!   reports) the repair layer consumes.
//! * [`drift`] — time-dependent degradation: power-law retention drift and
//!   read-disturb accumulation, advanced in logical pipeline cycles and
//!   countered by the crossbar-level scrub pass.
//! * [`noise`] — analog read-path non-idealities: lognormal LRS/HRS
//!   conductance spread, wire-resistance IR drop across the array
//!   geometry, and per-read Gaussian noise, all seeded through the same
//!   stream discipline so noisy campaigns replay bitwise.
//! * [`wear`] — endurance wear-out: seeded per-cell lognormal write
//!   budgets decremented by every programming pulse, transitioning
//!   exhausted cells into live dead faults mid-run.
//! * [`device`] — [`DeviceModel`], the four models above as one value
//!   attached once per array; each crossbar keeps the resulting state in
//!   one stack that composes them in a single `resolve`.
//! * [`seedstream`] — the documented `(seed, crossbar, row, col, epoch)`
//!   per-cell random-stream convention shared by `fault`, `variation`,
//!   `drift` and `wear` so campaigns reproduce at any thread count.
//! * [`energy`] / [`area`] — NVSim-derived timing/energy constants
//!   (29.31 ns / 50.88 ns and 1.08 pJ / 3.91 nJ per read/write spike) and the
//!   area model.
//! * [`units`] — the `Nanoseconds`/`Seconds`/`Picojoules`/`Joules`
//!   newtypes the analytic model computes in.
//!
//! # Example: exact crossbar MVM
//!
//! ```
//! use pipelayer_reram::crossbar::Crossbar;
//!
//! // 2x2 array of 4-bit cells.
//! let mut xbar = Crossbar::new(2, 2, 4);
//! xbar.program(&[3, 1, 2, 15]); // row-major levels
//! let out = xbar.mvm_spiked(&[10, 100], 8);
//! assert_eq!(out, vec![3 * 10 + 2 * 100, 1 * 10 + 15 * 100]);
//! ```

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::disallowed_macros,
        clippy::cast_possible_truncation,
        clippy::cast_precision_loss,
        clippy::float_cmp,
        reason = "the library gate exempts test code: a failed assertion is how a test fails"
    )
)]

pub mod area;
pub mod array_group;
mod cell;
pub mod crossbar;
pub mod device;
pub mod drift;
pub mod energy;
pub mod fault;
pub mod integrate_fire;
mod multiversion;
pub mod noise;
pub mod packed;
pub mod partition;
pub mod seedstream;
pub mod spike;
pub mod units;
pub mod variation;
pub mod wear;

pub use area::AreaModel;
pub use array_group::ReramMatrix;
pub use crossbar::Crossbar;
pub use device::DeviceModel;
pub use drift::{DriftModel, DriftState};
pub use energy::{BitWidthError, EnergyCounter, ReramParams, MAX_DATA_BITS};
pub use fault::{FaultKind, FaultMap, FaultModel, ProgramReport, UnrecoverableCell, VerifyPolicy};
pub use integrate_fire::IntegrateFire;
pub use multiversion::kernel_arm;
pub use noise::{NoiseModel, NoiseState};
pub use packed::{BitPlanes, PackedSpikes};
pub use partition::tile_grid;
pub use variation::VariationModel;
pub use wear::{WearModel, WearState};
