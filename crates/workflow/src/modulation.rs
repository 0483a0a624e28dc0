//! Time-varying request processes.
//!
//! The paper motivates MIRAS with "the variability of dynamic workloads":
//! request rates that change over time, not just stationary Poisson
//! background plus one-shot bursts. [`RatePattern`] describes how a base
//! rate evolves over the run and [`ModulatedPoisson`] samples a
//! non-homogeneous Poisson process under it (by thinning), so evaluation
//! scenarios can include diurnal waves, ramps, and step changes.

use desim::SimTime;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Arrival, ArrivalTrace, WorkflowTypeId};

/// A multiplicative modulation of a base arrival rate over time.
///
/// The instantaneous rate of workflow type `i` is
/// `base_rates[i] × pattern.factor(t)`; factors are non-negative and
/// bounded, so thinning applies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RatePattern {
    /// No modulation: the plain homogeneous Poisson process.
    Constant,
    /// A sinusoidal wave: `1 + amplitude · sin(2πt / period)`, clamped at 0.
    /// With a 24 h period this is the classic diurnal load curve.
    Sine {
        /// Length of one full cycle.
        #[serde(with = "simtime_serde")]
        period: SimTime,
        /// Relative swing around the base rate (0.5 ⇒ ±50%).
        amplitude: f64,
    },
    /// Linear ramp from `from_factor` to `to_factor` over `[0, duration]`,
    /// constant at `to_factor` afterwards.
    Ramp {
        /// Multiplier at time zero.
        from_factor: f64,
        /// Multiplier at and after `duration`.
        to_factor: f64,
        /// How long the ramp lasts.
        #[serde(with = "simtime_serde")]
        duration: SimTime,
    },
    /// A step change: `1` before `at`, `factor` afterwards (e.g. a flash
    /// crowd arriving, or a tenant going offline).
    Step {
        /// When the step happens.
        #[serde(with = "simtime_serde")]
        at: SimTime,
        /// Multiplier after the step.
        factor: f64,
    },
}

// `SimTime` lives in serde-free `desim`; serialize through microseconds.
mod simtime_serde {
    use desim::SimTime;
    use serde::{Deserialize, Deserializer, Serializer};

    pub(crate) fn serialize<S: Serializer>(t: &SimTime, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_u64(t.as_micros())
    }

    pub(crate) fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<SimTime, D::Error> {
        Ok(SimTime::from_micros(u64::deserialize(d)?))
    }
}

impl RatePattern {
    /// The rate multiplier at time `t` (non-negative).
    #[must_use]
    pub(crate) fn factor(&self, t: SimTime) -> f64 {
        match self {
            RatePattern::Constant => 1.0,
            RatePattern::Sine { period, amplitude } => {
                let phase = 2.0 * std::f64::consts::PI * t.as_secs_f64() / period.as_secs_f64();
                (1.0 + amplitude * phase.sin()).max(0.0)
            }
            RatePattern::Ramp {
                from_factor,
                to_factor,
                duration,
            } => {
                if duration.is_zero() || t >= *duration {
                    *to_factor
                } else {
                    let progress = t.as_secs_f64() / duration.as_secs_f64();
                    (from_factor + (to_factor - from_factor) * progress).max(0.0)
                }
            }
            RatePattern::Step { at, factor } => {
                if t < *at {
                    1.0
                } else {
                    factor.max(0.0)
                }
            }
        }
    }

    /// An upper bound on the multiplier over all times (used for thinning).
    #[must_use]
    pub(crate) fn max_factor(&self) -> f64 {
        match self {
            RatePattern::Constant => 1.0,
            RatePattern::Sine { amplitude, .. } => 1.0 + amplitude.abs(),
            RatePattern::Ramp {
                from_factor,
                to_factor,
                ..
            } => from_factor.max(*to_factor).max(0.0),
            RatePattern::Step { factor, .. } => factor.max(1.0),
        }
    }
}

/// A non-homogeneous Poisson request process: per-type base rates modulated
/// by a shared [`RatePattern`], sampled exactly via thinning.
///
/// # Examples
///
/// ```
/// use desim::SimTime;
/// use rand::SeedableRng;
/// use workflow::{ModulatedPoisson, RatePattern};
///
/// let process = ModulatedPoisson::new(
///     vec![0.5, 0.5],
///     RatePattern::Step { at: SimTime::from_secs(100), factor: 3.0 },
/// );
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let trace = process.generate(SimTime::from_secs(200), &mut rng);
/// let before = trace.arrivals().iter().filter(|a| a.time < SimTime::from_secs(100)).count();
/// let after = trace.len() - before;
/// assert!(after > before, "the step should triple the arrival rate");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModulatedPoisson {
    base_rates: Vec<f64>,
    pattern: RatePattern,
}

impl ModulatedPoisson {
    /// Creates the process from per-type base rates and a shared pattern.
    ///
    /// # Panics
    ///
    /// Panics if any base rate is negative or non-finite.
    #[must_use]
    pub fn new(base_rates: Vec<f64>, pattern: RatePattern) -> Self {
        for &r in &base_rates {
            assert!(r.is_finite() && r >= 0.0, "arrival rate must be >= 0");
        }
        ModulatedPoisson {
            base_rates,
            pattern,
        }
    }

    /// Samples arrivals over `[0, horizon)` with Lewis–Shedler thinning.
    pub fn generate<R: Rng + ?Sized>(&self, horizon: SimTime, rng: &mut R) -> ArrivalTrace {
        let max_factor = self.pattern.max_factor();
        let mut arrivals = Vec::new();
        if max_factor <= 0.0 {
            return ArrivalTrace::new();
        }
        for (i, &base) in self.base_rates.iter().enumerate() {
            if base <= 0.0 {
                continue;
            }
            let envelope = base * max_factor;
            let mut t = 0.0f64;
            loop {
                // Candidate from the homogeneous envelope process…
                t += -(1.0 - rng.gen::<f64>()).ln() / envelope;
                let at = SimTime::from_secs_f64(t);
                if at >= horizon {
                    break;
                }
                // …thinned by the instantaneous acceptance probability.
                let accept = self.pattern.factor(at) / max_factor;
                if rng.gen::<f64>() < accept {
                    arrivals.push(Arrival::new(at, WorkflowTypeId::new(i)));
                }
            }
        }
        arrivals.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn constant_matches_plain_poisson_rate() {
        let p = ModulatedPoisson::new(vec![1.0], RatePattern::Constant);
        let mut rng = SmallRng::seed_from_u64(0);
        let n = p.generate(SimTime::from_secs(4_000), &mut rng).len() as f64;
        assert!((n - 4_000.0).abs() < 4.0 * 4_000.0f64.sqrt(), "n = {n}");
    }

    #[test]
    fn sine_produces_waves() {
        let period = SimTime::from_secs(1_000);
        let p = ModulatedPoisson::new(
            vec![2.0],
            RatePattern::Sine {
                period,
                amplitude: 0.9,
            },
        );
        let mut rng = SmallRng::seed_from_u64(1);
        let trace = p.generate(SimTime::from_secs(1_000), &mut rng);
        // First half (sin > 0) must contain more arrivals than the second half.
        let first_half = trace
            .arrivals()
            .iter()
            .filter(|a| a.time < SimTime::from_secs(500))
            .count();
        let second_half = trace.len() - first_half;
        assert!(
            first_half > second_half + 100,
            "{first_half} vs {second_half}"
        );
    }

    #[test]
    fn ramp_increases_rate_over_time() {
        let p = ModulatedPoisson::new(
            vec![1.0],
            RatePattern::Ramp {
                from_factor: 0.2,
                to_factor: 2.0,
                duration: SimTime::from_secs(2_000),
            },
        );
        let mut rng = SmallRng::seed_from_u64(2);
        let trace = p.generate(SimTime::from_secs(2_000), &mut rng);
        let early = trace
            .arrivals()
            .iter()
            .filter(|a| a.time < SimTime::from_secs(500))
            .count();
        let late = trace
            .arrivals()
            .iter()
            .filter(|a| a.time >= SimTime::from_secs(1_500))
            .count();
        assert!(late > 2 * early, "{early} early vs {late} late");
    }

    #[test]
    fn step_factor_zero_silences_arrivals() {
        let p = ModulatedPoisson::new(
            vec![2.0],
            RatePattern::Step {
                at: SimTime::from_secs(100),
                factor: 0.0,
            },
        );
        let mut rng = SmallRng::seed_from_u64(3);
        let trace = p.generate(SimTime::from_secs(1_000), &mut rng);
        assert!(trace
            .arrivals()
            .iter()
            .all(|a| a.time < SimTime::from_secs(100)));
    }

    #[test]
    fn factors_are_never_negative() {
        let patterns = [
            RatePattern::Sine {
                period: SimTime::from_secs(100),
                amplitude: 2.0, // over-modulated: clamped at zero
            },
            RatePattern::Ramp {
                from_factor: 1.0,
                to_factor: 0.0,
                duration: SimTime::from_secs(10),
            },
            RatePattern::Step {
                at: SimTime::from_secs(5),
                factor: 0.0,
            },
        ];
        for p in &patterns {
            for t in 0..200 {
                assert!(p.factor(SimTime::from_secs(t)) >= 0.0, "{p:?} at {t}");
            }
        }
    }

    #[test]
    fn max_factor_bounds_factor() {
        let patterns = [
            RatePattern::Constant,
            RatePattern::Sine {
                period: SimTime::from_secs(300),
                amplitude: 0.7,
            },
            RatePattern::Ramp {
                from_factor: 0.3,
                to_factor: 2.5,
                duration: SimTime::from_secs(100),
            },
            RatePattern::Step {
                at: SimTime::from_secs(50),
                factor: 4.0,
            },
        ];
        for p in &patterns {
            let max = p.max_factor();
            for t in 0..500 {
                assert!(p.factor(SimTime::from_secs(t)) <= max + 1e-12, "{p:?}");
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let p = ModulatedPoisson::new(
            vec![0.4, 0.6],
            RatePattern::Sine {
                period: SimTime::from_secs(600),
                amplitude: 0.5,
            },
        );
        let json = serde_json::to_string(&p).unwrap();
        let back: ModulatedPoisson = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
