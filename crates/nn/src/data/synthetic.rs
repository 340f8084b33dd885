//! Procedural stand-ins for MNIST and ImageNet.

use pipelayer_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, RngExt as _, SeedableRng};

/// A labelled image set.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// `[1, 28, 28]` images (or whatever shape the generator produced).
    pub images: Vec<Tensor>,
    /// Class labels, parallel to `images`.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }
}

/// The synthetic 10-class MNIST replacement.
///
/// Each class `k` owns a fixed prototype built from 5 Gaussian "stroke
/// blobs"; a sample is the prototype translated by up to ±2 pixels with
/// additive pixel noise, clamped to `[0, 1]`. Classes are distinguishable by
/// blob layout (spatial structure, so convolutions help), but noise and
/// jitter keep the task non-trivial — quantizing a trained network's weights
/// measurably costs accuracy, which is what Fig. 13 needs.
#[derive(Debug, Clone)]
pub struct SyntheticMnist {
    /// Training split.
    pub train: Dataset,
    /// Test split.
    pub test: Dataset,
}

const SIDE: usize = 28;
const CLASSES: usize = 10;
const BLOBS: usize = 5;

/// Per-class prototype: Gaussian stroke blobs, partly *shared between
/// neighbouring classes* so the classes genuinely overlap — the task must
/// be hard enough that quantizing a trained network's weights costs
/// accuracy (Fig. 13 needs headroom to degrade into).
#[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
fn prototypes(seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    // A shared pool of stroke blobs reused across classes.
    let pool: Vec<(f32, f32, f32, f32)> = (0..12)
        .map(|_| {
            (
                rng.random_range(5.0..23.0), // cy
                rng.random_range(5.0..23.0), // cx
                rng.random_range(1.4..3.0),  // sigma
                rng.random_range(0.6..1.0),  // amplitude
            )
        })
        .collect();
    (0..CLASSES)
        .map(|k| {
            // Two shared blobs (overlapping neighbours) + three unique ones.
            let mut blobs = vec![pool[k % 12], pool[(k + 3) % 12]];
            for _ in 0..BLOBS - 2 {
                blobs.push((
                    rng.random_range(5.0..23.0),
                    rng.random_range(5.0..23.0),
                    rng.random_range(1.4..3.0),
                    rng.random_range(0.35..0.7),
                ));
            }
            Tensor::from_fn(&[1, SIDE, SIDE], |i| {
                let (y, x) = (i[1] as f32, i[2] as f32);
                blobs
                    .iter()
                    .map(|&(cy, cx, s, a)| {
                        let d2 = (y - cy).powi(2) + (x - cx).powi(2);
                        a * (-d2 / (2.0 * s * s)).exp()
                    })
                    .sum::<f32>()
                    .min(1.0)
            })
        })
        .collect()
}

#[expect(clippy::cast_possible_truncation, reason = "pixel coordinates fit i32")]
fn sample(proto: &Tensor, rng: &mut impl Rng) -> Tensor {
    let dy = rng.random_range(-3i32..=3);
    let dx = rng.random_range(-3i32..=3);
    let proto = proto.as_slice();
    Tensor::from_fn(&[1, SIDE, SIDE], |i| {
        let sy = i[1] as i32 - dy;
        let sx = i[2] as i32 - dx;
        let base = if (0..SIDE as i32).contains(&sy) && (0..SIDE as i32).contains(&sx) {
            proto[sy as usize * SIDE + sx as usize]
        } else {
            0.0
        };
        let noise: f32 = (rng.random::<f32>() - 0.5) * 0.9;
        (base + noise).clamp(0.0, 1.0)
    })
}

impl SyntheticMnist {
    /// Generates `n_train` + `n_test` samples with balanced classes,
    /// deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    #[expect(clippy::disallowed_macros, reason = "caller bug: empty split")]
    pub fn generate(n_train: usize, n_test: usize, seed: u64) -> Self {
        assert!(
            n_train > 0 && n_test > 0,
            "need at least one sample per split"
        );
        let protos = prototypes(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut make = |n: usize| {
            let mut images = Vec::with_capacity(n);
            let mut labels = Vec::with_capacity(n);
            for i in 0..n {
                let class = i % CLASSES;
                images.push(sample(&protos[class], &mut rng));
                labels.push(class);
            }
            Dataset { images, labels }
        };
        SyntheticMnist {
            train: make(n_train),
            test: make(n_test),
        }
    }
}

/// Unlabeled random images of shape `[c, h, w]` in `[0, 1)`, for
/// timing-only workloads.
pub fn random_images(n: usize, c: usize, h: usize, w: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Tensor::uniform(&[c, h, w], 0.0, 1.0, &mut rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = SyntheticMnist::generate(20, 10, 7);
        let b = SyntheticMnist::generate(20, 10, 7);
        assert!(a.train.images[3].allclose(&b.train.images[3], 0.0));
        assert_eq!(a.test.labels, b.test.labels);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticMnist::generate(10, 10, 1);
        let b = SyntheticMnist::generate(10, 10, 2);
        assert!(!a.train.images[0].allclose(&b.train.images[0], 1e-6));
    }

    #[test]
    fn balanced_classes() {
        let d = SyntheticMnist::generate(100, 50, 3);
        for class in 0..10 {
            let n = d.train.labels.iter().filter(|&&l| l == class).count();
            assert_eq!(n, 10, "class {class} unbalanced");
        }
    }

    #[test]
    fn pixels_in_unit_range() {
        let d = SyntheticMnist::generate(30, 10, 4);
        for img in &d.train.images {
            assert!(img.min() >= 0.0 && img.max() <= 1.0);
            assert_eq!(img.dims(), &[1, 28, 28]);
        }
    }

    #[test]
    fn classes_are_separable_by_prototype_distance() {
        // Nearest-prototype classification should already beat chance by a
        // wide margin — the learning task is well-posed.
        let seed = 5;
        let protos = prototypes(seed);
        let d = SyntheticMnist::generate(100, 100, seed);
        let mut correct = 0;
        for (img, &label) in d.test.images.iter().zip(&d.test.labels) {
            let mut best = (f32::INFINITY, 0usize);
            for (k, p) in protos.iter().enumerate() {
                let dist = (img - p).norm_sq();
                if dist < best.0 {
                    best = (dist, k);
                }
            }
            if best.1 == label {
                correct += 1;
            }
        }
        assert!(
            correct >= 70,
            "only {correct}/100 nearest-prototype correct"
        );
    }

    #[test]
    fn random_images_shape() {
        let imgs = random_images(3, 3, 8, 8, 0);
        assert_eq!(imgs.len(), 3);
        assert_eq!(imgs[0].dims(), &[3, 8, 8]);
    }
}
