//! Ziggurat sampler for the standard normal distribution.
//!
//! [`standard_normal`] draws N(0, 1) variates with the Marsaglia–Tsang
//! ziggurat method (128 layers): the common path (~98.5% of draws) costs
//! one 64-bit RNG word, one table lookup, one multiply, and one compare —
//! no `ln`/`sqrt`/`sin_cos` — which is roughly 5× cheaper per variate than
//! the Box–Muller transform on scalar hardware. The rare rejection paths
//! (wedge and tail) fall back to exact transcendental evaluation, so the
//! sampled distribution is exact, not approximate.
//!
//! The draw pattern (how many RNG words each variate consumes) is
//! deterministic for a given RNG stream, which keeps replay and
//! checkpoint-resume of code built on this sampler bit-reproducible.

use std::sync::OnceLock;

use rand::Rng;

/// Number of ziggurat layers (rectangles).
const LAYERS: usize = 128;

/// Right edge of the base strip: `x₁` in Marsaglia–Tsang (2000) for 128
/// layers.
const R: f64 = 3.442_619_855_899;

/// Common area of every layer (and of the base strip + tail).
const V: f64 = 9.912_563_035_262_17e-3;

/// `2⁻⁵³`: maps the top 53 bits of a `u64` onto `[0, 1)`.
const SCALE: f64 = 1.0 / (1u64 << 53) as f64;

struct Tables {
    /// Layer right edges, descending: `x[1] = R`, `x[128] = 0`. `x[0]` is
    /// the *virtual* width `V / f(R)` of the base strip so the common-path
    /// test below covers the tail layer with the same arithmetic.
    x: [f64; LAYERS + 1],
    /// `f(x[i]) = exp(-x[i]²/2)` for the wedge rejection test.
    f: [f64; LAYERS + 1],
    /// `x[i+1] / x[i]`: a uniform in `[0, 1)` below this lands in the
    /// rectangular core of layer `i` and is accepted immediately.
    ratio: [f64; LAYERS],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let pdf = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; LAYERS + 1];
        x[0] = V / pdf(R);
        x[1] = R;
        for i in 2..LAYERS {
            // Each layer has area V: V = x[i-1] · (f(x[i]) − f(x[i-1])).
            x[i] = (-2.0 * (V / x[i - 1] + pdf(x[i - 1])).ln()).sqrt();
        }
        x[LAYERS] = 0.0;
        let mut f = [0.0; LAYERS + 1];
        for i in 0..=LAYERS {
            f[i] = pdf(x[i]);
        }
        let mut ratio = [0.0; LAYERS];
        for i in 0..LAYERS {
            ratio[i] = x[i + 1] / x[i];
        }
        Tables { x, f, ratio }
    })
}

/// Draws one exact N(0, 1) variate.
pub(crate) fn standard_normal<Rg: Rng + ?Sized>(rng: &mut Rg) -> f64 {
    let t = tables();
    loop {
        let bits = rng.next_u64();
        // Bits 0–6 pick the layer, bit 7 the sign, bits 11–63 the offset
        // within the layer — disjoint fields of a single RNG word.
        let i = (bits & 0x7F) as usize;
        let sign = if bits & 0x80 == 0 { 1.0 } else { -1.0 };
        let u = (bits >> 11) as f64 * SCALE;
        if u < t.ratio[i] {
            return sign * u * t.x[i];
        }
        if i == 0 {
            // Tail (|z| > R): Marsaglia's exact exponential-rejection step.
            loop {
                let u1 = ((rng.next_u64() >> 11) as f64 * SCALE).max(f64::MIN_POSITIVE);
                let u2 = ((rng.next_u64() >> 11) as f64 * SCALE).max(f64::MIN_POSITIVE);
                let xt = -u1.ln() / R;
                let yt = -u2.ln();
                if yt + yt >= xt * xt {
                    return sign * (R + xt);
                }
            }
        }
        // Wedge between the rectangular core and the density curve.
        let x = u * t.x[i];
        let w = ((rng.next_u64() >> 11) as f64 * SCALE).max(f64::MIN_POSITIVE);
        if t.f[i] + w * (t.f[i + 1] - t.f[i]) < (-0.5 * x * x).exp() {
            return sign * x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn tables_are_monotone_and_consistent() {
        let t = tables();
        assert!((t.x[1] - R).abs() < 1e-12);
        assert_eq!(t.x[LAYERS], 0.0);
        for i in 1..LAYERS {
            assert!(t.x[i] > t.x[i + 1], "x must descend at layer {i}");
            assert!(t.ratio[i] < 1.0);
        }
        // The canonical (R, V) pair closes the recurrence at the published
        // last edge, x₁₂₇ ≈ 0.2723.
        assert!(
            (t.x[LAYERS - 1] - 0.2723).abs() < 1e-3,
            "x[127] = {}",
            t.x[LAYERS - 1]
        );
        assert!((t.f[LAYERS] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn moments_and_tails_match_the_standard_normal() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 400_000usize;
        let (mut sum, mut sq) = (0.0, 0.0);
        let (mut beyond1, mut beyond2, mut beyond3) = (0usize, 0usize, 0usize);
        for _ in 0..n {
            let z = standard_normal(&mut rng);
            sum += z;
            sq += z * z;
            if z.abs() > 1.0 {
                beyond1 += 1;
            }
            if z.abs() > 2.0 {
                beyond2 += 1;
            }
            if z.abs() > 3.0 {
                beyond3 += 1;
            }
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        // Two-sided tail masses: 0.3173, 0.0455, 0.0027.
        let frac = |c: usize| c as f64 / n as f64;
        assert!(
            (frac(beyond1) - 0.3173).abs() < 0.01,
            "P(|z|>1) {}",
            frac(beyond1)
        );
        assert!(
            (frac(beyond2) - 0.0455).abs() < 0.005,
            "P(|z|>2) {}",
            frac(beyond2)
        );
        assert!(
            (frac(beyond3) - 0.0027).abs() < 0.002,
            "P(|z|>3) {}",
            frac(beyond3)
        );
    }

    #[test]
    fn stream_is_deterministic_for_a_seed() {
        let draw = || {
            let mut rng = SmallRng::seed_from_u64(99);
            (0..64)
                .map(|_| standard_normal(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw());
    }
}
