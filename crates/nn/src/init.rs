//! Weight initialisation schemes.

use pipelayer_tensor::Tensor;
use rand::Rng;

/// Fans of a `[out, in, …]` weight tensor: `fan_out = dims[0]` and
/// `fan_in` the product of the remaining axes.
fn fans(dims: &[usize]) -> (usize, usize) {
    let fan_out = dims.first().copied().unwrap_or(1);
    (dims.iter().skip(1).product(), fan_out)
}

/// Xavier/Glorot-uniform initialisation of a `[out, in, …]` tensor:
/// `U(−a, a)` with `a = sqrt(6 / (fan_in + fan_out))`. Keeps activations in
/// the linear regime at the start of training, which matters doubly here
/// because the quantization study (Fig. 13) maps these weights onto
/// limited-resolution ReRAM cells.
#[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
pub fn xavier_uniform(dims: &[usize], rng: &mut impl Rng) -> Tensor {
    let (fan_in, fan_out) = fans(dims);
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::uniform(dims, -a, a, rng)
}

/// He-normal initialisation of a `[out, in, …]` tensor
/// (`N(0, sqrt(2/fan_in))`), the standard choice in front of ReLU
/// activations.
#[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
pub fn he_normal(dims: &[usize], rng: &mut impl Rng) -> Tensor {
    let std = (2.0 / fans(dims).0 as f32).sqrt();
    Tensor::randn(dims, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = xavier_uniform(&[100, 100], &mut rng);
        let a = (6.0f32 / 200.0).sqrt();
        assert!(t.abs_max() <= a);
        assert!(t.abs_max() > a * 0.5, "suspiciously small spread");
    }

    #[test]
    fn he_normal_scale() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = he_normal(&[64, 64], &mut rng);
        let var = t.norm_sq() / t.numel() as f32;
        let want = 2.0 / 64.0;
        assert!((var - want).abs() < want * 0.3, "var {var} vs want {want}");
    }

    #[test]
    fn fans_come_from_the_dims() {
        assert_eq!(fans(&[10, 785]), (785, 10));
        assert_eq!(fans(&[16, 3, 5, 5]), (75, 16));
    }

    #[test]
    #[should_panic(expected = "invalid linear geometry")]
    fn rejects_zero_fan() {
        let mut rng = StdRng::seed_from_u64(3);
        crate::layers::Linear::new(0, 4, &mut rng);
    }
}
