//! Analog read-path non-idealities: lognormal conductance spread,
//! wire-resistance IR drop and stochastic read noise.
//!
//! PipeLayer Sec. 5.1 leans on neural networks' "inherent error tolerance"
//! to justify 4-bit cells, but the classic analog killers live on the
//! *read* path, not the write path the earlier fault/variation models
//! cover:
//!
//! * **Lognormal device spread** — metal-oxide ReRAM resistance states are
//!   lognormally distributed around their target, with the
//!   high-resistance state spreading wider than the low-resistance one
//!   (the pytorx/HyperMetric calibration; HRS σ ≈ 2–3 × LRS σ). Each cell
//!   draws one standard-normal deviate per *programming generation* from
//!   the documented [`seedstream`](crate::seedstream) scheme, so a read is
//!   a pure function of `(seed, crossbar, row, col, epoch)` — the same
//!   discipline as [`drift`](crate::drift).
//! * **IR drop** — word/bit-line wire resistance attenuates the current a
//!   cell contributes in proportion to its electrical distance from the
//!   driver and the sense amplifier. Modeled as a cheap closed-form
//!   per-position attenuation (monotone in distance), not a SPICE solve:
//!   the far corner of a 128×128 array sees the full `ir_drop` fraction.
//! * **Read noise** — thermal/shot noise adds a fresh Gaussian perturbation
//!   on every array read. The "fresh" draw is still deterministic: its
//!   stream epoch is a per-crossbar monotone MVM counter, so campaigns
//!   replay bitwise at any thread count.
//!
//! All three act in the *conductance* domain — levels map to relative
//! conductances `g = g_ratio + (1-g_ratio)·v/v_max` (an `1/g_ratio` on/off
//! window), get perturbed, and snap back through the read quantizer. The
//! [`ideal`](NoiseModel::ideal) model is a mathematically exact no-op so
//! every calibrated paper figure is bit-identical with noise off.
//!
//! A read splits into two stages. The device deviate changes only when
//! the cell is written and the IR attenuation never does, so the
//! conductance they give is read-invariant. Only the read-noise draw and the quantizer
//! run per read. The read epoch is not part of [`NoiseState`]: the
//! crossbar counts its own array reads and passes the count in, so a read
//! that only advances the epoch changes no device state. A cell whose
//! level is the same with the read-noise deviate at either end of
//! [`GAUSS_BOUND`](seedstream::GAUSS_BOUND) presents that level on every
//! read: `g + σ·z`, the window scaling, `round` and the clamp are all
//! monotone in `z`. The crossbar caches such cells' levels and draws read
//! noise only for the rest.

use crate::seedstream;

/// Stream-domain tags separating the per-generation device draw from the
/// per-read noise draw (both hang off the same crossbar-qualified seed).
const DEVICE_DOMAIN: u64 = 0x0de1;
const READ_DOMAIN: u64 = 0x4ead;

/// Parameters of the analog non-ideality model. The default
/// ([`ideal`](NoiseModel::ideal)) is an exact no-op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Lognormal σ of the low-resistance (full-conductance) state, in
    /// ln-conductance units. 0 disables device spread at full scale.
    pub lrs_sigma: f64,
    /// Lognormal σ of the high-resistance (level-0) state. Physically
    /// larger than `lrs_sigma`; intermediate levels interpolate.
    pub hrs_sigma: f64,
    /// Fractional conductance lost by the electrically farthest cell of
    /// the array to wire resistance (0 disables IR drop; 0.15 means the
    /// far corner contributes 15% less current than an ideal wire).
    pub ir_drop: f64,
    /// Per-read Gaussian noise σ as a fraction of the full-scale
    /// conductance (0 disables read noise).
    pub read_sigma: f64,
    /// Off/on conductance ratio `g_min/g_max` of the cell (0 models an
    /// infinite on/off window). On its own this is a pure re-labelling of
    /// the level axis and therefore also an exact no-op.
    pub g_ratio: f64,
}

impl NoiseModel {
    /// No non-ideality at all: every read returns the stored level.
    pub fn ideal() -> Self {
        NoiseModel {
            lrs_sigma: 0.0,
            hrs_sigma: 0.0,
            ir_drop: 0.0,
            read_sigma: 0.0,
            g_ratio: 0.0,
        }
    }

    /// The canonical one-knob sweep point used by the noise ablation:
    /// `strength` scales a calibrated non-ideality set (lognormal spread
    /// with HRS ≈ 2.5 × LRS, IR drop and read noise) together.
    /// A `strength` of 0 or below is [`ideal`](Self::ideal); a non-finite
    /// one yields non-finite σs, which `PipeLayerConfig::validate` rejects.
    pub fn with_strength(strength: f64) -> Self {
        if strength <= 0.0 {
            return Self::ideal();
        }
        NoiseModel {
            lrs_sigma: 0.04 * strength,
            hrs_sigma: 0.10 * strength,
            ir_drop: 0.10 * strength,
            read_sigma: 0.004 * strength,
            g_ratio: 0.02,
        }
    }

    /// True when the model can never alter a read.
    pub fn is_ideal(&self) -> bool {
        self.lrs_sigma <= 0.0
            && self.hrs_sigma <= 0.0
            && self.ir_drop <= 0.0
            && self.read_sigma <= 0.0
    }

    /// Relative conductance of a stored level: `g_ratio` at level 0,
    /// 1.0 at full scale, linear in between.
    fn conductance(&self, level: u8, max_level: u8) -> f64 {
        let frac = if max_level == 0 {
            0.0
        } else {
            f64::from(level) / f64::from(max_level)
        };
        self.g_ratio + (1.0 - self.g_ratio) * frac
    }

    /// Inverse of [`conductance`](Self::conductance): snaps a perturbed
    /// conductance back to the nearest representable level.
    fn quantize(&self, g: f64, max_level: u8) -> u8 {
        let window = 1.0 - self.g_ratio;
        let frac = if window > 0.0 {
            (g - self.g_ratio) / window
        } else {
            0.0
        };
        let lv = (frac * f64::from(max_level)).round();
        if lv.is_nan() {
            return 0;
        }
        lv.clamp(0.0, f64::from(max_level)) as u8
    }

    /// Lognormal σ for a stored level: `hrs_sigma` at level 0 narrowing to
    /// `lrs_sigma` at full scale (HRS spreads wider than LRS).
    fn device_sigma(&self, level: u8, max_level: u8) -> f64 {
        let frac = if max_level == 0 {
            0.0
        } else {
            f64::from(level) / f64::from(max_level)
        };
        self.hrs_sigma + (self.lrs_sigma - self.hrs_sigma) * frac
    }

    /// Wire-resistance attenuation of cell `(row, col)` in a
    /// `rows × cols` array: 1.0 next to the driver and sense amp, falling
    /// linearly (in conductance) to `1 - ir_drop` at the far corner.
    /// Monotone non-increasing in each coordinate.
    pub fn ir_attenuation(&self, row: usize, col: usize, rows: usize, cols: usize) -> f64 {
        if self.ir_drop <= 0.0 {
            return 1.0;
        }
        // Electrical distance: along the word line to the cell (col), then
        // down the bit line to the sense amp (row), each normalised to its
        // wire length and averaged so the far corner sits at distance 1.
        let row_frac = if rows > 1 {
            row as f64 / (rows - 1) as f64
        } else {
            0.0
        };
        let col_frac = if cols > 1 {
            col as f64 / (cols - 1) as f64
        } else {
            0.0
        };
        let distance = 0.5 * (row_frac + col_frac);
        1.0 - self.ir_drop * distance
    }

    /// The level a read sees for a cell storing `level`, with the device
    /// deviate drawn at `device_epoch` (programming generation) and the
    /// read-noise deviate at `read_epoch` (array-read counter). Pure in
    /// its arguments — the reproducibility contract of the whole model.
    #[allow(clippy::too_many_arguments)]
    pub fn perturb_level(
        &self,
        level: u8,
        max_level: u8,
        row: usize,
        col: usize,
        rows: usize,
        cols: usize,
        seed: u64,
        device_epoch: u64,
        read_epoch: u64,
    ) -> u8 {
        if self.is_ideal() {
            return level;
        }
        let g = self.device_conductance(level, max_level, row, col, rows, cols, seed, device_epoch);
        let z = if self.read_sigma > 0.0 {
            read_gauss(seed, row, col, read_epoch)
        } else {
            0.0
        };
        self.read_level(g, z, max_level)
    }

    /// The read-invariant stage of [`perturb_level`](Self::perturb_level):
    /// the conductance of `level` scaled by the device deviate drawn at
    /// `device_epoch` and by the IR attenuation of `(row, col)`.
    #[allow(clippy::too_many_arguments)]
    fn device_conductance(
        &self,
        level: u8,
        max_level: u8,
        row: usize,
        col: usize,
        rows: usize,
        cols: usize,
        seed: u64,
        device_epoch: u64,
    ) -> f64 {
        let mut g = self.conductance(level, max_level);
        let sigma = self.device_sigma(level, max_level);
        if sigma > 0.0 {
            let z = seedstream::cell_gauss(
                seedstream::crossbar_seed(seed, DEVICE_DOMAIN),
                row,
                col,
                device_epoch,
            );
            g *= (sigma * z).exp();
        }
        g * self.ir_attenuation(row, col, rows, cols)
    }

    /// The per-read stage of [`perturb_level`](Self::perturb_level): the
    /// level a read presents for read-invariant conductance `g` under the
    /// read-noise deviate `z`. Monotone non-decreasing in `z`.
    pub(crate) fn read_level(&self, g: f64, z: f64, max_level: u8) -> u8 {
        if self.read_sigma > 0.0 {
            self.quantize(g + self.read_sigma * z, max_level)
        } else {
            self.quantize(g, max_level)
        }
    }

    /// Perturbs a whole float buffer as if quantized to `data_bits` words
    /// of `cell_bits` cells and read back once through the analog path:
    /// each element lands at a virtual position of a 128×128 tile, its
    /// magnitude segments live on per-group positive/negative crossbars
    /// (matching [`ReramMatrix`](crate::ReramMatrix)'s layout), and every
    /// segment level goes through [`perturb_level`](Self::perturb_level).
    /// Deterministic in `(seed, read_epoch)`; element fate is independent
    /// of buffer traversal order. Words span `data_bits / cell_bits` whole
    /// cells (plcheck's PL030 rejects widths that do not divide).
    pub fn perturb_weights(
        &self,
        weights: &[f32],
        data_bits: u8,
        cell_bits: u8,
        seed: u64,
        read_epoch: u64,
    ) -> Vec<f32> {
        if self.is_ideal() {
            return weights.to_vec();
        }
        let absmax = weights.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
        if absmax == 0.0 {
            return weights.to_vec();
        }
        let qmax = ((1i64 << (data_bits - 1)) - 1) as f64;
        let scale = absmax as f64 / qmax;
        let groups = u32::from(data_bits / cell_bits);
        let mask = (1u32 << cell_bits) - 1;
        let max_level = mask as u8;
        weights
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let (row, col) = virtual_cell(i);
                let q = (f64::from(w) / scale).round().clamp(-qmax, qmax) as i64;
                let neg = u64::from(q < 0);
                let magnitude = q.unsigned_abs();
                let mut out = 0u64;
                for g in 0..groups {
                    let shift = g * u32::from(cell_bits);
                    let seg = ((magnitude >> shift) & u64::from(mask)) as u8;
                    let xbar_seed = seedstream::crossbar_seed(seed, 2 * u64::from(g) + neg);
                    let noisy = self.perturb_level(
                        seg,
                        max_level,
                        row,
                        col,
                        VIRTUAL_ARRAY_DIM,
                        VIRTUAL_ARRAY_DIM,
                        xbar_seed,
                        0,
                        read_epoch,
                    );
                    out |= u64::from(noisy) << shift;
                }
                let signed = (out as i64).min(qmax as i64);
                let v = signed as f64 * scale;
                (if q < 0 { -v } else { v }) as f32
            })
            .collect()
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel::ideal()
    }
}

/// The paper's physical array dimension — the tile geometry
/// [`NoiseModel::perturb_weights`] maps flat buffers onto.
pub const VIRTUAL_ARRAY_DIM: usize = 128;

/// Virtual `(row, col)` of flat element `i` on a 128×128 tile.
fn virtual_cell(i: usize) -> (usize, usize) {
    (
        (i / VIRTUAL_ARRAY_DIM) % VIRTUAL_ARRAY_DIM,
        i % VIRTUAL_ARRAY_DIM,
    )
}

/// The read-noise deviate of `(row, col)` at `read_epoch` under the
/// crossbar-qualified `seed`.
fn read_gauss(seed: u64, row: usize, col: usize, read_epoch: u64) -> f64 {
    seedstream::cell_gauss(
        seedstream::crossbar_seed(seed, READ_DOMAIN),
        row,
        col,
        read_epoch,
    )
}

/// One cell's read split at the read-noise draw: what
/// [`NoiseState::stage`] resolves once per write of the array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum StagedRead {
    /// Every read presents this level: no read noise reaches it.
    Fixed(u8),
    /// A read presents [`NoiseModel::read_level`] of `g` and its read-noise
    /// deviate; with the deviate at `∓GAUSS_BOUND` that is `lo` and `hi`,
    /// so every draw lands in `lo..=hi`, and `lo == hi` means no draw can
    /// move the level.
    Noisy { g: f64, lo: u8, hi: u8 },
}

/// Per-crossbar non-ideality state: the model, the crossbar-qualified
/// seed and each cell's programming generation (the device-deviate
/// epoch). The read-noise epoch is the owning crossbar's read counter,
/// passed to every read. Mirrors [`DriftState`](crate::drift::DriftState):
/// no RNG object is carried — every draw re-derives from the seedstream,
/// so clones and replays are bitwise exact.
#[derive(Debug, Clone)]
pub struct NoiseState {
    model: NoiseModel,
    seed: u64,
    rows: usize,
    cols: usize,
    generation: Vec<u64>,
}

impl NoiseState {
    /// Fresh state: every cell at programming generation 0. `seed` should
    /// already be crossbar-qualified via [`seedstream::crossbar_seed`].
    pub fn new(rows: usize, cols: usize, model: NoiseModel, seed: u64) -> Self {
        NoiseState {
            model,
            seed,
            rows,
            cols,
            generation: vec![0; rows * cols],
        }
    }

    pub fn model(&self) -> &NoiseModel {
        &self.model
    }

    /// Record that the cell was physically re-programmed: its device
    /// deviate is redrawn for the new generation. Call only when a write
    /// actually issued pulses.
    pub fn note_program(&mut self, row: usize, col: usize) {
        if let Some(g) = self.generation.get_mut(row * self.cols + col) {
            *g = g.wrapping_add(1);
        }
    }

    /// The level the read at `read_epoch` sees for a cell whose
    /// (fault/drift-resolved) base level is `stored`. Pure in the state
    /// and the epoch.
    pub fn effective_level(
        &self,
        row: usize,
        col: usize,
        stored: u8,
        max_level: u8,
        read_epoch: u64,
    ) -> u8 {
        if self.model.is_ideal() {
            return stored;
        }
        self.model.perturb_level(
            stored,
            max_level,
            row,
            col,
            self.rows,
            self.cols,
            self.seed,
            self.device_epoch(row, col),
            read_epoch,
        )
    }

    /// [`effective_level`](Self::effective_level) up to the read-noise
    /// draw: the level when the model has no read noise, else the
    /// read-invariant conductance and the level range the draw can reach.
    pub(crate) fn stage(&self, row: usize, col: usize, stored: u8, max_level: u8) -> StagedRead {
        let m = &self.model;
        if m.is_ideal() {
            return StagedRead::Fixed(stored);
        }
        let (rows, cols, seed) = (self.rows, self.cols, self.seed);
        let epoch = self.device_epoch(row, col);
        let g = m.device_conductance(stored, max_level, row, col, rows, cols, seed, epoch);
        if m.read_sigma > 0.0 {
            let lo = m.read_level(g, -seedstream::GAUSS_BOUND, max_level);
            let hi = m.read_level(g, seedstream::GAUSS_BOUND, max_level);
            StagedRead::Noisy { g, lo, hi }
        } else {
            StagedRead::Fixed(m.read_level(g, 0.0, max_level))
        }
    }

    /// The per-read stage: the level the read at `read_epoch` presents for
    /// a cell [`stage`](Self::stage) found [`StagedRead::Noisy`] with
    /// read-invariant conductance `g`.
    pub(crate) fn read_level(
        &self,
        row: usize,
        col: usize,
        g: f64,
        max_level: u8,
        read_epoch: u64,
    ) -> u8 {
        let z = read_gauss(self.seed, row, col, read_epoch);
        self.model.read_level(g, z, max_level)
    }

    /// The cell's programming generation: its device-deviate epoch.
    fn device_epoch(&self, row: usize, col: usize) -> u64 {
        self.generation
            .get(row * self.cols + col)
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mid_model() -> NoiseModel {
        NoiseModel::with_strength(1.0)
    }

    #[test]
    fn ideal_model_never_alters_reads() {
        let mut s = NoiseState::new(8, 8, NoiseModel::ideal(), 7);
        s.note_program(3, 3);
        for stored in 0..=15u8 {
            assert_eq!(s.effective_level(3, 3, stored, 15, 1), stored);
        }
    }

    #[test]
    fn g_ratio_alone_is_exact_noop() {
        let m = NoiseModel {
            g_ratio: 0.1,
            ..NoiseModel::ideal()
        };
        assert!(m.is_ideal());
        let s = NoiseState::new(4, 4, m, 3);
        for stored in 0..=15u8 {
            assert_eq!(s.effective_level(2, 2, stored, 15, 0), stored);
        }
    }

    #[test]
    fn reads_are_deterministic_in_state() {
        let a = NoiseState::new(6, 6, mid_model(), 42);
        let b = NoiseState::new(6, 6, mid_model(), 42);
        for r in 0..6 {
            for c in 0..6 {
                assert_eq!(
                    a.effective_level(r, c, 9, 15, 0),
                    b.effective_level(r, c, 9, 15, 0)
                );
            }
        }
    }

    #[test]
    fn read_epoch_changes_the_draw() {
        // With read noise on, consecutive MVMs see different perturbations
        // for at least some cell; replaying the same epoch reproduces them.
        let s = NoiseState::new(8, 8, mid_model(), 11);
        let read = |epoch| -> Vec<u8> {
            (0..64)
                .map(|i| s.effective_level(i / 8, i % 8, 8, 15, epoch))
                .collect()
        };
        let before = read(0);
        assert_eq!(before, read(0), "same epoch must replay bitwise");
        let after = read(1);
        assert_ne!(before, after, "a new read epoch must redraw read noise");
    }

    #[test]
    fn reprogramming_redraws_the_device_deviate() {
        let m = NoiseModel {
            lrs_sigma: 0.3,
            hrs_sigma: 0.3,
            ..NoiseModel::ideal()
        };
        let mut s = NoiseState::new(4, 4, m, 5);
        // Find a cell whose draw moves on reprogram (overwhelmingly likely
        // within 16 cells at σ=0.3).
        let mut moved = false;
        for idx in 0..16 {
            let (r, c) = (idx / 4, idx % 4);
            let before = s.effective_level(r, c, 8, 15, 0);
            s.note_program(r, c);
            if s.effective_level(r, c, 8, 15, 0) != before {
                moved = true;
                break;
            }
        }
        assert!(moved, "a new generation must redraw some deviate");
    }

    #[test]
    fn hrs_spreads_wider_than_lrs() {
        let m = mid_model();
        assert!(m.device_sigma(0, 15) > m.device_sigma(15, 15));
    }

    #[test]
    fn ir_attenuation_is_monotone_in_distance() {
        let m = NoiseModel {
            ir_drop: 0.2,
            ..NoiseModel::ideal()
        };
        let (rows, cols) = (128, 128);
        for r in 0..rows {
            for c in 1..cols {
                assert!(
                    m.ir_attenuation(r, c, rows, cols) <= m.ir_attenuation(r, c - 1, rows, cols),
                    "attenuation must not grow along the word line"
                );
            }
        }
        for c in 0..cols {
            for r in 1..rows {
                assert!(
                    m.ir_attenuation(r, c, rows, cols) <= m.ir_attenuation(r - 1, c, rows, cols),
                    "attenuation must not grow along the bit line"
                );
            }
        }
        assert_eq!(m.ir_attenuation(0, 0, rows, cols), 1.0);
        let far = m.ir_attenuation(rows - 1, cols - 1, rows, cols);
        assert!((far - 0.8).abs() < 1e-12, "far corner sees the full drop");
    }

    #[test]
    fn ir_drop_pulls_far_levels_down() {
        let m = NoiseModel {
            ir_drop: 0.3,
            ..NoiseModel::ideal()
        };
        let s = NoiseState::new(128, 128, m, 1);
        assert_eq!(s.effective_level(0, 0, 15, 15, 0), 15, "near corner exact");
        assert!(
            s.effective_level(127, 127, 15, 15, 0) < 15,
            "far corner attenuated"
        );
    }

    #[test]
    fn perturb_weights_ideal_is_identity() {
        let w = vec![0.5f32, -0.25, 0.0, 1.0];
        assert_eq!(NoiseModel::ideal().perturb_weights(&w, 16, 4, 1, 0), w);
    }

    #[test]
    fn perturb_weights_deterministic_and_epoch_sensitive() {
        let m = mid_model();
        let w: Vec<f32> = (0..300).map(|i| ((i as f32) * 0.017).sin()).collect();
        assert_eq!(
            m.perturb_weights(&w, 16, 4, 5, 3),
            m.perturb_weights(&w, 16, 4, 5, 3)
        );
        assert_ne!(
            m.perturb_weights(&w, 16, 4, 5, 3),
            m.perturb_weights(&w, 16, 4, 5, 4),
            "read epoch must matter"
        );
        assert_ne!(
            m.perturb_weights(&w, 16, 4, 5, 3),
            m.perturb_weights(&w, 16, 4, 6, 3),
            "seed must matter"
        );
    }

    #[test]
    fn stronger_noise_larger_error() {
        let w: Vec<f32> = (0..500).map(|i| ((i as f32) * 0.013).cos()).collect();
        let err = |s: f64| -> f32 {
            let p = NoiseModel::with_strength(s).perturb_weights(&w, 16, 4, 9, 0);
            w.iter().zip(&p).map(|(a, b)| (a - b).abs()).sum()
        };
        assert!(err(2.0) > err(0.25), "error must grow with strength");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sign preservation and range: the positive/negative crossbars are
        /// physically separate, so noise never flips a weight's sign, and
        /// perturbed magnitudes stay representable.
        #[test]
        fn perturbed_weights_preserve_sign(seed in 0u64..200, strength in 0.0f64..3.0) {
            let m = NoiseModel::with_strength(strength);
            let w = [0.9f32, -0.9, 0.1, -0.1, 0.0];
            let p = m.perturb_weights(&w, 16, 4, seed, 0);
            for (a, b) in w.iter().zip(&p) {
                prop_assert!(b.abs() <= 1.0 + 1e-6);
                if *a > 0.0 { prop_assert!(*b >= 0.0); }
                if *a < 0.0 { prop_assert!(*b <= 0.0); }
            }
        }

        /// The quantizer clamps every perturbed level into range.
        #[test]
        fn perturbed_levels_stay_in_range(
            level in 0u8..=15,
            seed in 0u64..200,
            strength in 0.0f64..4.0,
            epoch in 0u64..8,
        ) {
            let m = NoiseModel::with_strength(strength);
            let lv = m.perturb_level(level, 15, 3, 7, 128, 128, seed, 0, epoch);
            prop_assert!(lv <= 15);
        }
    }
}
