//! The workload scenario zoo: deterministic, seeded generators for
//! non-stationary background traffic.
//!
//! The MIRAS paper evaluates on stationary Poisson arrivals; the roadmap's
//! north star is a system serving realistic traffic — diurnal cycles,
//! trends, flash crowds, and recorded traces. A [`WorkloadSpec`] describes
//! how the per-type base arrival rates in
//! [`EnvConfig`](crate::EnvConfig) are modulated over a run:
//! the instantaneous rate of workflow type `i` at time `t` is
//! `arrival_rates[i] × factor(t)`.
//!
//! # Determinism contract
//!
//! Every generator is a pure function of the spec (plus, for
//! [`WorkloadSpec::FlashCrowd`], its embedded `spike_seed`): the same spec
//! and the same environment seed produce bit-identical arrival streams.
//! [`WorkloadSpec::Stationary`] has `factor(t) ≡ 1.0` exactly, and the
//! environment multiplies the Poisson window mean by that factor — IEEE 754
//! guarantees `x * 1.0 == x` for finite `x`, so selecting `Stationary`
//! reproduces today's arrival stream bit-for-bit (the golden traces pin
//! this). [`WorkloadSpec::TraceReplay`] suppresses background sampling
//! entirely (factor 0, no RNG draws) and feeds arrivals through
//! [`MicroserviceEnv::load_workload_trace`](crate::MicroserviceEnv::load_workload_trace)
//! instead.
//!
//! Rather than thinning per arrival, the environment integrates the
//! modulation analytically over each decision window: the window's Poisson
//! mean is `rate × window_secs × mean_factor(window_start, window_end)`.
//! This keeps one RNG draw per (type, window) regardless of the modulation
//! — the same draw count as the stationary path — which is what makes the
//! bit-identity guarantee possible. This is the crate's only arrival
//! sampler: [`MicroserviceEnv::step`](crate::MicroserviceEnv::step) and
//! [`background_trace`](crate::background_trace) both call it.

use desim::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::config::ConfigError;

/// How background arrival rates evolve over a run.
///
/// Serialized externally tagged under the Rust variant name
/// (`"Stationary"`, `{"Diurnal":{…}}`) — the form every checkpoint holds.
/// `Stationary` is the serde default, so configs recorded before the
/// workload axis existed deserialize unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum WorkloadSpec {
    /// Today's behavior: a homogeneous Poisson process at the base rates.
    /// Bit-identical to the pre-workload arrival stream.
    #[default]
    Stationary,
    /// Sinusoidal modulation `1 + amplitude · sin(2πt / period)` — the
    /// classic diurnal curve. `amplitude ∈ [0, 1]` keeps the rate
    /// non-negative.
    Diurnal {
        /// Length of one full cycle.
        period: SimTime,
        /// Relative swing around the base rate (0.8 ⇒ ±80%).
        amplitude: f64,
    },
    /// A ramp from `from_factor` to `to_factor` over `[0, duration]`,
    /// constant at `to_factor` afterwards. Linear by default; with
    /// `exponential` the ramp is geometric (`from · (to/from)^(t/d)`),
    /// which requires both endpoints strictly positive.
    Trending {
        /// Multiplier at time zero.
        from_factor: f64,
        /// Multiplier at and after `duration`.
        to_factor: f64,
        /// How long the ramp lasts.
        duration: SimTime,
        /// Geometric instead of linear interpolation.
        #[serde(default)]
        exponential: bool,
    },
    /// A seeded schedule of load spikes. Spike start times are drawn from
    /// an exponential-gap process seeded by `spike_seed` (independent of
    /// the environment seed, so the same crowd hits every algorithm in a
    /// comparison). Each spike ramps linearly from 0 to `magnitude` over
    /// `rise`, then decays exponentially with time constant `decay`.
    /// Spikes superpose: `factor(t) = 1 + Σ_i spike_i(t)`.
    FlashCrowd {
        /// Seed for the spike schedule (not the arrival RNG).
        spike_seed: u64,
        /// Mean gap between spike starts.
        mean_interval: SimTime,
        /// Peak extra load of one spike, relative to the base rate.
        magnitude: f64,
        /// Linear ramp-up duration of each spike.
        rise: SimTime,
        /// Exponential decay time constant after the peak.
        decay: SimTime,
    },
    /// Replay a recorded JSONL arrival trace instead of sampling
    /// background arrivals. The trace is injected through
    /// [`MicroserviceEnv::load_workload_trace`](crate::MicroserviceEnv::load_workload_trace);
    /// background sampling is fully suppressed (factor 0, no RNG draws).
    TraceReplay {
        /// Path to the trace file: JSONL, one arrival per line, as
        /// `workflow::ArrivalTrace::load` reads it.
        path: String,
    },
}

/// Horizon (relative to run start) out to which a flash-crowd spike
/// schedule is generated. Runs are window-stepped and far shorter than
/// this in practice; the bound just keeps schedule generation finite.
const FLASH_CROWD_HORIZON_SECS: f64 = 7.0 * 24.0 * 3600.0;

impl WorkloadSpec {
    /// Short stable name for tables, file names, and CLI round-trips.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::Stationary => "stationary",
            WorkloadSpec::Diurnal { .. } => "diurnal",
            WorkloadSpec::Trending { .. } => "trending",
            WorkloadSpec::FlashCrowd { .. } => "flash-crowd",
            WorkloadSpec::TraceReplay { .. } => "trace-replay",
        }
    }

    /// Parses a CLI workload argument. Named presets cover the zoo
    /// (`stationary`, `diurnal`, `trending`, `flash-crowd`) and
    /// `trace:<path>` selects trace replay.
    ///
    /// The presets are sized for bench runs of a few dozen 30 s windows:
    /// the diurnal period and ramp duration are 600 s so a 20–25 window
    /// run sees the full shape, not a flat slice of a 24 h curve.
    #[must_use]
    pub fn parse(s: &str) -> Option<WorkloadSpec> {
        if let Some(path) = s.strip_prefix("trace:") {
            if path.is_empty() {
                return None;
            }
            return Some(WorkloadSpec::TraceReplay {
                path: path.to_string(),
            });
        }
        match s {
            "stationary" => Some(WorkloadSpec::Stationary),
            "diurnal" => Some(WorkloadSpec::Diurnal {
                period: SimTime::from_secs(600),
                amplitude: 0.8,
            }),
            "trending" => Some(WorkloadSpec::Trending {
                from_factor: 0.5,
                to_factor: 2.0,
                duration: SimTime::from_secs(600),
                exponential: false,
            }),
            "flash-crowd" | "flash_crowd" | "flashcrowd" => Some(WorkloadSpec::FlashCrowd {
                spike_seed: 7,
                mean_interval: SimTime::from_secs(300),
                magnitude: 4.0,
                rise: SimTime::from_secs(10),
                decay: SimTime::from_secs(60),
            }),
            _ => None,
        }
    }

    /// Validates the spec's parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field when a shape
    /// parameter is out of range (e.g. diurnal amplitude outside `[0, 1]`,
    /// a non-positive period, or an exponential ramp with a zero endpoint).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err =
            |field: &'static str, reason: &'static str| Err(ConfigError::Env { field, reason });
        match self {
            WorkloadSpec::Stationary => Ok(()),
            WorkloadSpec::Diurnal { period, amplitude } => {
                if period.as_micros() == 0 {
                    return err("workload.period", "must be positive");
                }
                if !amplitude.is_finite() || !(0.0..=1.0).contains(amplitude) {
                    return err("workload.amplitude", "must be in [0, 1]");
                }
                Ok(())
            }
            WorkloadSpec::Trending {
                from_factor,
                to_factor,
                duration,
                exponential,
            } => {
                if duration.as_micros() == 0 {
                    return err("workload.duration", "must be positive");
                }
                for (name, &f) in [
                    ("workload.from_factor", from_factor),
                    ("workload.to_factor", to_factor),
                ] {
                    if !f.is_finite() || f < 0.0 {
                        return err(name, "must be finite and non-negative");
                    }
                    if *exponential && f <= 0.0 {
                        return err(name, "must be strictly positive for an exponential ramp");
                    }
                }
                Ok(())
            }
            WorkloadSpec::FlashCrowd {
                mean_interval,
                magnitude,
                rise: _,
                decay,
                spike_seed: _,
            } => {
                if mean_interval.as_micros() == 0 {
                    return err("workload.mean_interval", "must be positive");
                }
                if !magnitude.is_finite() || *magnitude < 0.0 {
                    return err("workload.magnitude", "must be finite and non-negative");
                }
                if decay.as_micros() == 0 {
                    return err("workload.decay", "must be positive");
                }
                Ok(())
            }
            WorkloadSpec::TraceReplay { path } => {
                if path.is_empty() {
                    return err("workload.path", "must be non-empty");
                }
                Ok(())
            }
        }
    }

    /// The instantaneous rate multiplier at time `t` (time measured from
    /// the start of the run): the reference the tests integrate to check
    /// [`mean_factor`](WorkloadSpec::mean_factor), which the environment
    /// consumes.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn factor(&self, t: SimTime) -> f64 {
        let t = t.as_secs_f64();
        match self {
            WorkloadSpec::Stationary => 1.0,
            WorkloadSpec::TraceReplay { .. } => 0.0,
            WorkloadSpec::Diurnal { period, amplitude } => {
                let p = period.as_secs_f64();
                1.0 + amplitude * (std::f64::consts::TAU * t / p).sin()
            }
            WorkloadSpec::Trending {
                from_factor,
                to_factor,
                duration,
                exponential,
            } => {
                let d = duration.as_secs_f64();
                let u = (t / d).min(1.0);
                if *exponential {
                    from_factor * (to_factor / from_factor).powf(u)
                } else {
                    from_factor + (to_factor - from_factor) * u
                }
            }
            WorkloadSpec::FlashCrowd {
                spike_seed,
                mean_interval,
                magnitude,
                rise,
                decay,
            } => {
                let rise_s = rise.as_secs_f64();
                let decay_s = decay.as_secs_f64();
                let mut f = 1.0;
                for spike in spike_times(*spike_seed, *mean_interval) {
                    if t < spike {
                        break;
                    }
                    let dt = t - spike;
                    f += if dt < rise_s {
                        magnitude * dt / rise_s
                    } else {
                        magnitude * (-(dt - rise_s) / decay_s).exp()
                    };
                }
                f
            }
        }
    }

    /// The mean rate multiplier over the window `[start, end]`, i.e.
    /// `∫ factor(t) dt / (end − start)`, computed analytically per shape.
    /// The environment multiplies the window's Poisson mean by this, so
    /// the *expected* injected load matches the spec exactly — there is no
    /// per-window floor or discretization bias.
    ///
    /// `Stationary` returns exactly `1.0` and `TraceReplay` exactly `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start` (debug builds).
    #[must_use]
    pub(crate) fn mean_factor(&self, start: SimTime, end: SimTime) -> f64 {
        debug_assert!(end > start, "window must have positive length");
        let (s, e) = (start.as_secs_f64(), end.as_secs_f64());
        let len = e - s;
        match self {
            WorkloadSpec::Stationary => 1.0,
            WorkloadSpec::TraceReplay { .. } => 0.0,
            WorkloadSpec::Diurnal { period, amplitude } => {
                // ∫ 1 + A·sin(2πt/P) dt = Δt + A·P/(2π)·(cos(2πs/P) − cos(2πe/P))
                let p = period.as_secs_f64();
                let w = std::f64::consts::TAU / p;
                1.0 + amplitude * ((w * s).cos() - (w * e).cos()) / (w * len)
            }
            WorkloadSpec::Trending {
                from_factor,
                to_factor,
                duration,
                exponential,
            } => {
                let d = duration.as_secs_f64();
                // Split at the ramp end: [s, min(e,d)] is on the ramp,
                // [max(s,d), e] is flat at to_factor.
                let ramp_end = e.min(d);
                let mut integral = if e > d {
                    (e - s.max(d)) * to_factor
                } else {
                    0.0
                };
                if s < d {
                    let (a, b) = (s, ramp_end);
                    integral += if *exponential {
                        let k = (to_factor / from_factor).ln();
                        if k.abs() < 1e-12 {
                            from_factor * (b - a)
                        } else {
                            from_factor * d / k * ((k * b / d).exp() - (k * a / d).exp())
                        }
                    } else {
                        // ∫ from + (to−from)·t/d dt over [a, b]
                        from_factor * (b - a)
                            + (to_factor - from_factor) * (b * b - a * a) / (2.0 * d)
                    };
                }
                integral / len
            }
            WorkloadSpec::FlashCrowd {
                spike_seed,
                mean_interval,
                magnitude,
                rise,
                decay,
            } => {
                let rise_s = rise.as_secs_f64();
                let decay_s = decay.as_secs_f64();
                let mut integral = len; // the baseline 1.0
                for spike in spike_times(*spike_seed, *mean_interval) {
                    if spike >= e {
                        break;
                    }
                    integral += magnitude * spike_integral(spike, rise_s, decay_s, s, e);
                }
                integral / len
            }
        }
    }
}

/// The deterministic spike-start schedule of a
/// [`FlashCrowd`](WorkloadSpec::FlashCrowd) spec, ascending and drawn
/// lazily out to a one-week horizon: a caller that stops at its window end
/// pays only for the spikes before it, and a prefix of the schedule never
/// depends on how far it is read.
fn spike_times(spike_seed: u64, mean_interval: SimTime) -> impl Iterator<Item = f64> {
    let mean = mean_interval.as_secs_f64();
    let mut rng = SmallRng::seed_from_u64(spike_seed);
    let mut t = 0.0;
    std::iter::from_fn(move || {
        // Exponential gap via inverse CDF; gen_range is in [0, 1) so
        // 1 − u is in (0, 1] and the log is finite.
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -mean * (1.0 - u).ln();
        Some(t)
    })
    .take_while(|&t| t <= FLASH_CROWD_HORIZON_SECS)
}

/// `∫ g(t) dt` over `[a, b]` for one unit-magnitude spike starting at
/// `spike`: linear 0→1 over `[spike, spike+rise]`, then `exp(−Δ/decay)`.
fn spike_integral(spike: f64, rise: f64, decay: f64, a: f64, b: f64) -> f64 {
    let mut integral = 0.0;
    // Rise segment ∩ [a, b]: g(t) = (t − spike)/rise.
    if rise > 0.0 {
        let lo = a.max(spike);
        let hi = b.min(spike + rise);
        if hi > lo {
            integral += ((hi - spike).powi(2) - (lo - spike).powi(2)) / (2.0 * rise);
        }
    }
    // Decay segment ∩ [a, b]: g(t) = exp(−(t − spike − rise)/decay).
    let peak = spike + rise;
    let lo = a.max(peak);
    if b > lo {
        integral += decay * ((-(lo - peak) / decay).exp() - (-(b - peak) / decay).exp());
    }
    integral
}

#[cfg(test)]
mod tests {
    use super::*;

    fn win(a: u64, b: u64) -> (SimTime, SimTime) {
        (SimTime::from_secs(a), SimTime::from_secs(b))
    }

    #[test]
    fn stationary_factor_is_exactly_one() {
        let spec = WorkloadSpec::Stationary;
        let (s, e) = win(0, 30);
        assert_eq!(spec.mean_factor(s, e), 1.0);
        assert_eq!(spec.factor(SimTime::from_secs(17)), 1.0);
        // The bit-identity contract: multiplying by the stationary factor
        // is a no-op at the bit level.
        for x in [0.3 * 30.0, 1e-9, 12345.678] {
            assert_eq!(x * spec.mean_factor(s, e), x);
        }
    }

    #[test]
    fn trace_replay_suppresses_background() {
        let spec = WorkloadSpec::TraceReplay {
            path: "t.jsonl".into(),
        };
        let (s, e) = win(0, 30);
        assert_eq!(spec.mean_factor(s, e), 0.0);
    }

    #[test]
    fn diurnal_mean_over_full_period_is_one() {
        let spec = WorkloadSpec::Diurnal {
            period: SimTime::from_secs(600),
            amplitude: 0.8,
        };
        let (s, e) = win(0, 600);
        assert!((spec.mean_factor(s, e) - 1.0).abs() < 1e-12);
        // First half-period is above baseline, second below.
        let (s1, e1) = win(0, 300);
        let (s2, e2) = win(300, 600);
        assert!(spec.mean_factor(s1, e1) > 1.0);
        assert!(spec.mean_factor(s2, e2) < 1.0);
    }

    #[test]
    fn diurnal_mean_matches_numeric_integral() {
        let spec = WorkloadSpec::Diurnal {
            period: SimTime::from_secs(600),
            amplitude: 0.6,
        };
        let (s, e) = win(45, 75);
        let numeric: f64 = (0..30_000)
            .map(|i| spec.factor(SimTime::from_secs_f64(45.0 + (i as f64 + 0.5) * 0.001)))
            .sum::<f64>()
            / 30_000.0;
        assert!((spec.mean_factor(s, e) - numeric).abs() < 1e-6);
    }

    #[test]
    fn trending_linear_endpoints_and_mean() {
        let spec = WorkloadSpec::Trending {
            from_factor: 0.5,
            to_factor: 2.0,
            duration: SimTime::from_secs(600),
            exponential: false,
        };
        assert!((spec.factor(SimTime::from_secs(0)) - 0.5).abs() < 1e-12);
        assert!((spec.factor(SimTime::from_secs(600)) - 2.0).abs() < 1e-12);
        assert!((spec.factor(SimTime::from_secs(900)) - 2.0).abs() < 1e-12);
        // Mean over the whole ramp = midpoint of the endpoints.
        let (s, e) = win(0, 600);
        assert!((spec.mean_factor(s, e) - 1.25).abs() < 1e-12);
        // Past the ramp: constant to_factor.
        let (s, e) = win(600, 700);
        assert!((spec.mean_factor(s, e) - 2.0).abs() < 1e-12);
        // Straddling the ramp end: 570–600 averages ~1.9625, 600–630 is 2.0.
        let (s, e) = win(570, 630);
        let expected = (1.9625 * 30.0 + 2.0 * 30.0) / 60.0;
        assert!((spec.mean_factor(s, e) - expected).abs() < 1e-9);
    }

    #[test]
    fn trending_exponential_matches_numeric_integral() {
        let spec = WorkloadSpec::Trending {
            from_factor: 0.5,
            to_factor: 2.0,
            duration: SimTime::from_secs(600),
            exponential: true,
        };
        let (s, e) = win(100, 130);
        let numeric: f64 = (0..30_000)
            .map(|i| spec.factor(SimTime::from_secs_f64(100.0 + (i as f64 + 0.5) * 0.001)))
            .sum::<f64>()
            / 30_000.0;
        assert!((spec.mean_factor(s, e) - numeric).abs() < 1e-6);
    }

    #[test]
    fn flash_crowd_schedule_is_seed_deterministic() {
        let schedule = |seed| spike_times(seed, SimTime::from_secs(300)).collect::<Vec<_>>();
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
        let times = schedule(7);
        assert!(!times.is_empty());
        assert!(times.windows(2).all(|w| w[0] < w[1]), "sorted ascending");
        assert!(*times.last().unwrap() <= FLASH_CROWD_HORIZON_SECS);
    }

    #[test]
    fn flash_crowd_mean_matches_numeric_integral() {
        let spec = WorkloadSpec::FlashCrowd {
            spike_seed: 7,
            mean_interval: SimTime::from_secs(120),
            magnitude: 3.0,
            rise: SimTime::from_secs(10),
            decay: SimTime::from_secs(40),
        };
        // A window that overlaps at least one spike for this seed.
        for (a, b) in [(0u64, 30u64), (60, 90), (120, 150), (300, 330)] {
            let (s, e) = win(a, b);
            let numeric: f64 = (0..30_000)
                .map(|i| spec.factor(SimTime::from_secs_f64(a as f64 + (i as f64 + 0.5) * 0.001)))
                .sum::<f64>()
                / 30_000.0;
            assert!(
                (spec.mean_factor(s, e) - numeric).abs() < 1e-4,
                "window [{a}, {b}]: analytic {} vs numeric {numeric}",
                spec.mean_factor(s, e)
            );
        }
    }

    #[test]
    fn parse_covers_the_zoo() {
        assert_eq!(
            WorkloadSpec::parse("stationary"),
            Some(WorkloadSpec::Stationary)
        );
        assert_eq!(WorkloadSpec::parse("diurnal").unwrap().name(), "diurnal");
        assert_eq!(WorkloadSpec::parse("trending").unwrap().name(), "trending");
        assert_eq!(
            WorkloadSpec::parse("flash-crowd").unwrap().name(),
            "flash-crowd"
        );
        assert_eq!(
            WorkloadSpec::parse("trace:runs/t.jsonl"),
            Some(WorkloadSpec::TraceReplay {
                path: "runs/t.jsonl".into()
            })
        );
        assert_eq!(WorkloadSpec::parse("trace:"), None);
        assert_eq!(WorkloadSpec::parse("bogus"), None);
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        let bad = [
            WorkloadSpec::Diurnal {
                period: SimTime::ZERO,
                amplitude: 0.5,
            },
            WorkloadSpec::Diurnal {
                period: SimTime::from_secs(600),
                amplitude: 1.5,
            },
            WorkloadSpec::Trending {
                from_factor: -1.0,
                to_factor: 2.0,
                duration: SimTime::from_secs(600),
                exponential: false,
            },
            WorkloadSpec::Trending {
                from_factor: 0.0,
                to_factor: 2.0,
                duration: SimTime::from_secs(600),
                exponential: true,
            },
            WorkloadSpec::FlashCrowd {
                spike_seed: 7,
                mean_interval: SimTime::ZERO,
                magnitude: 4.0,
                rise: SimTime::from_secs(10),
                decay: SimTime::from_secs(60),
            },
            WorkloadSpec::TraceReplay {
                path: String::new(),
            },
        ];
        for spec in bad {
            assert!(spec.validate().is_err(), "should reject {spec:?}");
        }
        for name in ["stationary", "diurnal", "trending", "flash-crowd"] {
            assert!(WorkloadSpec::parse(name).unwrap().validate().is_ok());
        }
    }

    #[test]
    fn serde_round_trip_and_default() {
        // The exact bytes checkpoints hold: externally tagged, Rust variant
        // names. Changing any of these strands every saved run.
        let golden = [
            (WorkloadSpec::Stationary, r#""Stationary""#),
            (
                WorkloadSpec::parse("diurnal").unwrap(),
                r#"{"Diurnal":{"period":600000000,"amplitude":0.8}}"#,
            ),
            (
                WorkloadSpec::parse("trending").unwrap(),
                r#"{"Trending":{"from_factor":0.5,"to_factor":2.0,"duration":600000000,"exponential":false}}"#,
            ),
            (
                WorkloadSpec::parse("flash-crowd").unwrap(),
                r#"{"FlashCrowd":{"spike_seed":7,"mean_interval":300000000,"magnitude":4.0,"rise":10000000,"decay":60000000}}"#,
            ),
            (
                WorkloadSpec::TraceReplay {
                    path: "t.jsonl".into(),
                },
                r#"{"TraceReplay":{"path":"t.jsonl"}}"#,
            ),
        ];
        for (spec, json) in golden {
            assert_eq!(serde_json::to_string(&spec).unwrap(), json);
            let back: WorkloadSpec = serde_json::from_str(json).unwrap();
            assert_eq!(back, spec, "{json}");
        }
        assert_eq!(WorkloadSpec::default(), WorkloadSpec::Stationary);
    }
}
