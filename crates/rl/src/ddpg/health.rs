//! Per-step training statistics and the divergence watchdog over them.

use serde::{Deserialize, Serialize};

/// Statistics from one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainStats {
    /// Critic MSE before the update.
    pub critic_loss: f64,
    /// Mean Q-value of the actor's actions on the minibatch.
    pub mean_q: f64,
}

/// A detected training-health failure, raised by
/// [`Ddpg::try_train_step`](crate::Ddpg::try_train_step) instead of
/// letting a diverged agent keep training (or a hot-path assertion kill the
/// process). The trainer boundary turns these into a rollback to the last
/// good checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The critic loss or mean Q of a step came back NaN or ±∞.
    NonFiniteLoss {
        /// The agent's lifetime train-step count when the failure occurred.
        step: u64,
        /// The offending critic loss.
        critic_loss: f64,
        /// The offending mean Q.
        mean_q: f64,
    },
    /// A network weight became NaN or ±∞ (sampled periodically).
    NonFiniteWeights {
        /// The agent's lifetime train-step count when the failure occurred.
        step: u64,
    },
    /// The critic loss blew past `factor ×` its exponential moving average —
    /// the classic shape of a diverging critic before it reaches NaN.
    CriticBlowup {
        /// The agent's lifetime train-step count when the failure occurred.
        step: u64,
        /// The offending critic loss.
        critic_loss: f64,
        /// The EWMA baseline the loss was compared against.
        ewma: f64,
        /// The trip threshold multiplier.
        factor: f64,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::NonFiniteLoss {
                step,
                critic_loss,
                mean_q,
            } => write!(
                f,
                "non-finite training loss at step {step}: critic_loss={critic_loss}, mean_q={mean_q}"
            ),
            TrainError::NonFiniteWeights { step } => {
                write!(f, "non-finite network weights detected at step {step}")
            }
            TrainError::CriticBlowup {
                step,
                critic_loss,
                ewma,
                factor,
            } => write!(
                f,
                "critic loss blow-up at step {step}: {critic_loss} > {factor} x EWMA {ewma}"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

impl TrainError {
    /// A short machine-readable tag (`non_finite_loss`,
    /// `non_finite_weights`, `critic_blowup`) used in telemetry `recovery`
    /// events.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TrainError::NonFiniteLoss { .. } => "non_finite_loss",
            TrainError::NonFiniteWeights { .. } => "non_finite_weights",
            TrainError::CriticBlowup { .. } => "critic_blowup",
        }
    }
}

/// Divergence watchdog over a stream of [`TrainStats`].
///
/// Tracks an exponential moving average of the critic loss and trips when a
/// step's loss is non-finite or exceeds `blowup_factor ×` the EWMA after a
/// warm-up period (early training legitimately spikes while the critic
/// finds its scale). The monitor is pure bookkeeping — it never touches the
/// agent — so checking health cannot perturb training determinism.
///
/// # Examples
///
/// ```
/// use rl::{TrainHealth, TrainStats};
///
/// let mut health = TrainHealth::new(0.99, 1e4, 8);
/// for step in 0..20 {
///     let stats = TrainStats { critic_loss: 1.0, mean_q: 0.0 };
///     health.check(step, &stats).unwrap();
/// }
/// let spike = TrainStats { critic_loss: 1e9, mean_q: 0.0 };
/// assert!(health.check(20, &spike).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainHealth {
    ewma: Option<f64>,
    beta: f64,
    blowup_factor: f64,
    warmup: usize,
    checked: usize,
}

impl TrainHealth {
    /// Creates a watchdog with EWMA smoothing `beta` (0 < beta < 1; higher
    /// is smoother), trip multiplier `blowup_factor` (> 1) and `warmup`
    /// checks during which blow-up detection is suppressed (non-finite
    /// values always trip, even during warm-up).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters.
    #[must_use]
    pub fn new(beta: f64, blowup_factor: f64, warmup: usize) -> Self {
        assert!(
            beta > 0.0 && beta < 1.0,
            "EWMA beta must be strictly inside (0, 1)"
        );
        assert!(
            blowup_factor.is_finite() && blowup_factor > 1.0,
            "blow-up factor must be finite and exceed 1"
        );
        TrainHealth {
            ewma: None,
            beta,
            blowup_factor,
            warmup,
            checked: 0,
        }
    }

    /// The defaults the MIRAS trainer uses: EWMA beta 0.99, trip at 10⁴×
    /// the moving average, 100-step warm-up.
    #[must_use]
    pub fn default_policy() -> Self {
        TrainHealth::new(0.99, 1e4, 100)
    }

    /// Checks one step's statistics, updating the EWMA on success. `step`
    /// is the agent's lifetime train-step index, carried into errors for
    /// diagnostics.
    ///
    /// # Errors
    ///
    /// [`TrainError::NonFiniteLoss`] when the loss or mean Q is NaN/±∞;
    /// [`TrainError::CriticBlowup`] when, past warm-up, the loss exceeds
    /// `blowup_factor ×` the EWMA. On error the EWMA is left at its last
    /// good value (the caller rolls the agent back anyway).
    pub fn check(&mut self, step: u64, stats: &TrainStats) -> Result<(), TrainError> {
        if !stats.critic_loss.is_finite() || !stats.mean_q.is_finite() {
            return Err(TrainError::NonFiniteLoss {
                step,
                critic_loss: stats.critic_loss,
                mean_q: stats.mean_q,
            });
        }
        if self.checked >= self.warmup {
            if let Some(ewma) = self.ewma {
                // The max(EWMA, tiny) floor keeps a near-zero baseline from
                // tripping on any normal-sized loss.
                let baseline = ewma.max(1e-6);
                if stats.critic_loss > self.blowup_factor * baseline {
                    return Err(TrainError::CriticBlowup {
                        step,
                        critic_loss: stats.critic_loss,
                        ewma,
                        factor: self.blowup_factor,
                    });
                }
            }
        }
        self.ewma = Some(match self.ewma {
            Some(e) => self.beta * e + (1.0 - self.beta) * stats.critic_loss,
            None => stats.critic_loss,
        });
        self.checked += 1;
        Ok(())
    }

    /// Forgets all history (used after a rollback, when the restored agent's
    /// loss scale may differ from the diverged run's).
    pub fn reset(&mut self) {
        self.ewma = None;
        self.checked = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_trips_on_non_finite_loss() {
        let mut health = TrainHealth::new(0.99, 1e4, 0);
        let bad = TrainStats {
            critic_loss: f64::NAN,
            mean_q: 0.0,
        };
        match health.check(7, &bad) {
            Err(TrainError::NonFiniteLoss { step: 7, .. }) => {}
            other => panic!("expected NonFiniteLoss, got {other:?}"),
        }
    }

    #[test]
    fn health_trips_on_blowup_after_warmup_only() {
        let mut health = TrainHealth::new(0.99, 100.0, 5);
        let normal = TrainStats {
            critic_loss: 1.0,
            mean_q: 0.0,
        };
        let spike = TrainStats {
            critic_loss: 1e6,
            mean_q: 0.0,
        };
        // During warm-up even a huge finite spike passes.
        health.check(0, &normal).unwrap();
        health.check(1, &spike).unwrap();
        health.reset();
        for i in 0..5 {
            health.check(i, &normal).unwrap();
        }
        match health.check(5, &spike) {
            Err(TrainError::CriticBlowup { .. }) => {}
            other => panic!("expected CriticBlowup, got {other:?}"),
        }
    }
}
