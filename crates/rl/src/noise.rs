//! Exploration noise: adaptive parameter-space noise and OU action noise.

use serde::{Deserialize, Serialize};

/// Adaptive parameter-space noise (Plappert et al., ICLR 2018) — the
/// exploration mechanism MIRAS uses (§IV-D).
///
/// A copy of the actor network is perturbed with Gaussian noise of standard
/// deviation `sigma`. After each perturbation the *induced action-space
/// distance* between the clean and perturbed policies is measured on recent
/// states; `sigma` is scaled up when the distance falls below the target
/// `delta` (noise too timid) and down when it exceeds it (noise too wild).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct AdaptiveParamNoise {
    sigma: f64,
    delta: f64,
    alpha: f64,
}

impl AdaptiveParamNoise {
    /// Creates the controller with initial `sigma`, target action-space
    /// distance `delta`, and adaption factor `alpha > 1`.
    ///
    /// # Panics
    ///
    /// Panics unless `sigma > 0`, `delta > 0` and `alpha > 1`.
    #[must_use]
    pub(crate) fn new(sigma: f64, delta: f64, alpha: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        assert!(delta > 0.0, "delta must be positive");
        assert!(alpha > 1.0, "alpha must exceed 1");
        AdaptiveParamNoise {
            sigma,
            delta,
            alpha,
        }
    }

    /// The current perturbation scale.
    #[must_use]
    pub(crate) fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Updates `sigma` from the observed action-space `distance` between the
    /// clean and perturbed policies.
    pub(crate) fn adapt(&mut self, distance: f64) {
        if distance < self.delta {
            self.sigma *= self.alpha;
        } else {
            self.sigma /= self.alpha;
        }
    }

    /// Scales `sigma` by `factor`, flooring at a tiny positive value so the
    /// controller never reaches an invalid zero scale. Used by the
    /// divergence watchdog, which halves exploration noise after a rollback.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and positive.
    pub(crate) fn scale_sigma(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "sigma scale factor must be finite and positive"
        );
        self.sigma = (self.sigma * factor).max(1e-9);
    }
}

/// Ornstein–Uhlenbeck action-space noise — the classical DDPG exploration
/// (Lillicrap et al.) used here as the ablation baseline the paper argues
/// against: added directly to actions it frequently violates the consumer
/// budget (§IV-D).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct OrnsteinUhlenbeck {
    theta: f64,
    sigma: f64,
    state: Vec<f64>,
}

impl OrnsteinUhlenbeck {
    /// Creates a zero-mean OU process over `dim` dimensions with mean
    /// reversion `theta` and volatility `sigma` (unit time step).
    ///
    /// # Panics
    ///
    /// Panics unless `dim > 0`, `theta >= 0`, and `sigma >= 0`.
    #[must_use]
    pub(crate) fn new(dim: usize, theta: f64, sigma: f64) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            theta >= 0.0 && sigma >= 0.0,
            "parameters must be non-negative"
        );
        OrnsteinUhlenbeck {
            theta,
            sigma,
            state: vec![0.0; dim],
        }
    }

    /// Advances the process one step and returns the new noise vector.
    pub(crate) fn sample<R: rand::Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<f64> {
        use rand_distr::{Distribution, StandardNormal};
        for x in &mut self.state {
            let dw: f64 = StandardNormal.sample(rng);
            *x += self.theta * (0.0 - *x) + self.sigma * dw;
        }
        self.state.clone()
    }

    /// Resets the process to zero.
    pub(crate) fn reset(&mut self) {
        self.state.iter_mut().for_each(|x| *x = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn param_noise_scales_both_ways() {
        let mut n = AdaptiveParamNoise::new(0.1, 0.2, 1.05);
        n.adapt(0.1);
        let grown = n.sigma();
        assert!((grown - 0.105).abs() < 1e-12);
        n.adapt(0.3);
        assert!((n.sigma() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn param_noise_converges_to_target_band() {
        // If the induced distance is proportional to sigma, adaption steers
        // sigma so the distance approaches delta.
        let mut n = AdaptiveParamNoise::new(1.0, 0.2, 1.1);
        for _ in 0..200 {
            let induced = 0.5 * n.sigma(); // pretend linear response
            n.adapt(induced);
        }
        let induced = 0.5 * n.sigma();
        assert!((induced - 0.2).abs() < 0.05, "induced {induced}");
    }

    #[test]
    fn scale_sigma_halves_and_floors() {
        let mut n = AdaptiveParamNoise::new(0.2, 0.1, 1.01);
        n.scale_sigma(0.5);
        assert!((n.sigma() - 0.1).abs() < 1e-12);
        for _ in 0..200 {
            n.scale_sigma(0.5);
        }
        assert!(n.sigma() >= 1e-9, "sigma must stay positive");
    }

    #[test]
    #[should_panic(expected = "sigma scale factor must be finite and positive")]
    fn scale_sigma_rejects_nan() {
        let mut n = AdaptiveParamNoise::new(0.2, 0.1, 1.01);
        n.scale_sigma(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "alpha must exceed 1")]
    fn alpha_one_panics() {
        let _ = AdaptiveParamNoise::new(0.1, 0.1, 1.0);
    }

    #[test]
    fn ou_reverts_toward_mean() {
        let mut n = OrnsteinUhlenbeck::new(1, 0.5, 0.0); // no volatility
        n.state[0] = 4.0;
        let mut rng = SmallRng::seed_from_u64(0);
        let s = n.sample(&mut rng);
        assert!((s[0] - 2.0).abs() < 1e-12); // 4 + 0.5 (0 − 4)
    }

    #[test]
    fn ou_is_temporally_correlated() {
        let mut n = OrnsteinUhlenbeck::new(1, 0.05, 0.1);
        let mut rng = SmallRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..2000).map(|_| n.sample(&mut rng)[0]).collect();
        // Lag-1 autocorrelation of an OU process with small theta is high.
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var: f64 = samples.iter().map(|s| (s - mean).powi(2)).sum();
        let cov: f64 = samples
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum();
        let rho = cov / var;
        assert!(rho > 0.7, "autocorrelation {rho}");
    }

    #[test]
    fn ou_reset_zeroes_state() {
        let mut n = OrnsteinUhlenbeck::new(3, 0.15, 0.2);
        let mut rng = SmallRng::seed_from_u64(2);
        let _ = n.sample(&mut rng);
        n.reset();
        assert_eq!(n.state, vec![0.0; 3]);
    }
}
