//! Configuration for the emulated cluster and the RL-facing environment.

use std::fmt;

use desim::SimTime;
use serde::{Deserialize, Serialize};
use workflow::Ensemble;

use crate::workload::WorkloadSpec;

/// Why a configuration value was rejected.
///
/// One typed error across the whole config surface:
/// `SimConfig::validate`, `EnvConfig::validate` and `MirasConfig`'s
/// validating builders in `miras-core` (which re-exports this type) all
/// return it, and the constructors that check a config panic with its
/// [`Display`](fmt::Display) rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A [`SimConfig`] field was rejected.
    Sim {
        /// The field that failed validation.
        field: &'static str,
        /// Human-readable constraint that was violated.
        reason: &'static str,
    },
    /// An [`EnvConfig`] field was rejected.
    Env {
        /// The field that failed validation.
        field: &'static str,
        /// Human-readable constraint that was violated.
        reason: &'static str,
    },
    /// A `MirasConfig` field was rejected.
    Miras {
        /// The field that failed validation.
        field: &'static str,
        /// Human-readable constraint that was violated.
        reason: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (config, field, reason) = match self {
            ConfigError::Sim { field, reason } => ("SimConfig", field, reason),
            ConfigError::Env { field, reason } => ("EnvConfig", field, reason),
            ConfigError::Miras { field, reason } => ("MirasConfig", field, reason),
        };
        write!(f, "invalid {config}.{field}: {reason}")
    }
}

impl std::error::Error for ConfigError {}

/// Low-level emulator parameters.
///
/// Defaults follow the paper's measurements: Kubernetes takes 5–10 s to
/// start/stop a container (§VI-A2), so scaling a consumer pool up incurs a
/// uniformly distributed start-up delay per consumer.
///
/// Plain data: start from [`SimConfig::new`] and set fields directly.
/// [`Cluster::new`](crate::Cluster::new) checks the result once with
/// `SimConfig::validate`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Minimum container start-up delay.
    pub startup_min: SimTime,
    /// Maximum container start-up delay.
    pub startup_max: SimTime,
    /// Seed for the emulator's service-time and start-up RNG.
    pub seed: u64,
    /// Mean consumer failures per consumer-hour of busy time (0 disables
    /// failure injection). A failing consumer crashes mid-request; the
    /// request is redelivered to the front of its queue (the paper's
    /// RabbitMQ acknowledgement mechanism guarantees at-least-once
    /// processing) and the orchestrator starts a replacement container
    /// (Kubernetes Replication Controller behaviour, §V).
    pub failure_rate_per_hour: f64,
    /// Total CPU cores shared by all consumers, modelling the paper's
    /// 3-node × 1-vCPU testbed where up to 14 containers contend for 3
    /// cores. `None` (default) disables contention: every consumer runs at
    /// full speed. With `Some(cores)`, a task dispatched while `b` consumers
    /// are busy cluster-wide runs at `max(1, b / cores)` times its nominal
    /// service time (processor sharing approximated at dispatch time).
    pub total_cores: Option<f64>,
    /// Number of physical nodes consumers are spread over (positive;
    /// consumer pool `j` lives on node `j mod node_count`). Only meaningful
    /// together with [`SimConfig::node_outage_rate_per_hour`] or
    /// [`SimConfig::node_speed_factors`].
    pub node_count: usize,
    /// Mean correlated node outages per node-hour (0 disables, the
    /// default). When a node fails, *every* consumer hosted on it dies at
    /// the same instant — busy consumers crash mid-request (their requests
    /// are redelivered) and idle consumers are lost; the orchestrator
    /// starts replacements for all of them. This models the correlated
    /// mass failure a single-machine loss causes, which independent
    /// per-consumer crashes cannot.
    pub node_outage_rate_per_hour: f64,
    /// Probability in `[0, 1]` that a dispatched request is a straggler (0
    /// disables, the default).
    pub straggler_prob: f64,
    /// Service-time multiplier applied to straggler requests (≥ 1).
    pub straggler_factor: f64,
    /// Probability in `[0, 1]` that a task's queue delivery is delayed (0
    /// disables, the default) — modelling message-broker delivery latency
    /// spikes.
    pub delivery_delay_prob: f64,
    /// Maximum delivery delay, positive whenever
    /// [`SimConfig::delivery_delay_prob`] is; delayed deliveries are
    /// postponed by a uniform draw from `(0, delivery_delay_max]`.
    pub delivery_delay_max: SimTime,
    /// Runtime invariant auditing (default off). Debug builds always check
    /// the simulator's invariants via `debug_assert!`; setting this (or
    /// exporting `MIRAS_AUDIT=1`) keeps the checks on in release builds,
    /// where violations surface as typed
    /// [`AuditViolation`](crate::AuditViolation)s and `audit` telemetry
    /// events instead of panics. Auditing is observation-only: results are
    /// bit-identical with it on or off.
    pub audit: bool,
    /// Per-node service-speed multipliers for a heterogeneous cluster.
    /// Empty (the default, and what older serialized configs deserialize
    /// to) means every node runs at nominal speed — bit-identical to the
    /// homogeneous behaviour. When non-empty every factor must be finite
    /// and positive and the length must equal [`SimConfig::node_count`]: a task
    /// dispatched to consumer pool `j` has its sampled service time
    /// divided by `node_speed_factors[j % node_count]`, so a factor of 2
    /// is a node twice as fast as nominal and 0.5 one half as fast.
    #[serde(default)]
    pub node_speed_factors: Vec<f64>,
}

impl SimConfig {
    /// Paper-faithful defaults: start-up delay uniform in [5 s, 10 s].
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SimConfig {
            startup_min: SimTime::from_secs(5),
            startup_max: SimTime::from_secs(10),
            seed,
            failure_rate_per_hour: 0.0,
            total_cores: None,
            node_count: 1,
            node_outage_rate_per_hour: 0.0,
            straggler_prob: 0.0,
            straggler_factor: 1.0,
            delivery_delay_prob: 0.0,
            delivery_delay_max: SimTime::ZERO,
            audit: false,
            node_speed_factors: Vec::new(),
        }
    }

    /// Checks every field; [`Cluster::new`](crate::Cluster::new) calls this
    /// and panics with the error's [`Display`](fmt::Display) text.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Sim`] naming the first field out of range.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        let err =
            |field: &'static str, reason: &'static str| Err(ConfigError::Sim { field, reason });
        let probability = |p: f64| p.is_finite() && (0.0..=1.0).contains(&p);
        let rate = |r: f64| r.is_finite() && r >= 0.0;
        if let Some(cores) = self.total_cores {
            if !(cores.is_finite() && cores > 0.0) {
                return err("total_cores", "core count must be positive");
            }
        }
        if !rate(self.failure_rate_per_hour) {
            return err("failure_rate_per_hour", "failure rate must be non-negative");
        }
        if self.startup_min > self.startup_max {
            return err("startup_min/startup_max", "startup delay range inverted");
        }
        if self.node_count == 0 {
            return err("node_count", "node count must be positive");
        }
        if !rate(self.node_outage_rate_per_hour) {
            return err(
                "node_outage_rate_per_hour",
                "node outage rate must be non-negative",
            );
        }
        if !probability(self.straggler_prob) {
            return err("straggler_prob", "straggler probability must be in [0, 1]");
        }
        if !(self.straggler_factor.is_finite() && self.straggler_factor >= 1.0) {
            return err(
                "straggler_factor",
                "straggler factor must be finite and at least 1",
            );
        }
        if !probability(self.delivery_delay_prob) {
            return err(
                "delivery_delay_prob",
                "delivery delay probability must be in [0, 1]",
            );
        }
        if self.delivery_delay_prob != 0.0 && self.delivery_delay_max.is_zero() {
            return err(
                "delivery_delay_max",
                "delivery delay max must be positive when spikes are enabled",
            );
        }
        if !self
            .node_speed_factors
            .iter()
            .all(|s| s.is_finite() && *s > 0.0)
        {
            return err(
                "node_speed_factors",
                "node speed factors must be finite and strictly positive",
            );
        }
        if !(self.node_speed_factors.is_empty() || self.node_speed_factors.len() == self.node_count)
        {
            return err(
                "node_speed_factors",
                "node speed factors must have one entry per node",
            );
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::new(0)
    }
}

/// Configuration of the windowed RL environment wrapped around a cluster.
///
/// Plain data: start from [`EnvConfig::for_ensemble`] and set fields
/// directly (struct-update syntax or field writes).
/// [`MicroserviceEnv::new`](crate::MicroserviceEnv::new) checks the result
/// once with `EnvConfig::validate` and panics on the first invalid field,
/// however the config was built or deserialized.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvConfig {
    /// Length of one decision window (paper: 30 s; must be positive).
    pub window: SimTime,
    /// Total-consumer constraint `C` (paper: 14 for MSD, 30 for LIGO).
    pub consumer_budget: usize,
    /// Background Poisson arrival rate (requests/s) per workflow type;
    /// finite and non-negative.
    pub arrival_rates: Vec<f64>,
    /// Emulator parameters.
    pub sim: SimConfig,
    /// How the background arrival rates evolve over the run (the workload
    /// scenario zoo). Defaults to [`WorkloadSpec::Stationary`], which is
    /// bit-identical to the pre-workload arrival stream; configs recorded
    /// before the field existed deserialize to it.
    #[serde(default)]
    pub workload: WorkloadSpec,
}

impl EnvConfig {
    /// Paper-faithful configuration for `ensemble`: 30 s windows, the
    /// ensemble's default consumer budget and background arrival rates.
    #[must_use]
    pub fn for_ensemble(ensemble: &Ensemble) -> Self {
        EnvConfig {
            window: SimTime::from_secs(30),
            consumer_budget: ensemble.default_consumer_budget(),
            arrival_rates: ensemble.default_arrival_rates().to_vec(),
            sim: SimConfig::default(),
            workload: WorkloadSpec::Stationary,
        }
    }

    /// Sets the RNG seed (service times, start-up delays, and arrivals all
    /// derive from it).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Checks every field, then [`SimConfig::validate`] and
    /// [`WorkloadSpec::validate`];
    /// [`MicroserviceEnv::new`](crate::MicroserviceEnv::new) calls this and
    /// panics with the error's [`Display`](fmt::Display) text.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found, naming its field.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        let err =
            |field: &'static str, reason: &'static str| Err(ConfigError::Env { field, reason });
        if self.window.is_zero() {
            return err("window", "window must be positive");
        }
        if !self
            .arrival_rates
            .iter()
            .all(|r| r.is_finite() && *r >= 0.0)
        {
            return err(
                "arrival_rates",
                "arrival rates must be finite and non-negative",
            );
        }
        self.sim.validate()?;
        self.workload.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, MicroserviceEnv};

    #[test]
    fn defaults_match_paper() {
        let msd = Ensemble::msd();
        let c = EnvConfig::for_ensemble(&msd);
        assert_eq!(c.window, SimTime::from_secs(30));
        assert_eq!(c.consumer_budget, 14);
        assert_eq!(c.sim.startup_min, SimTime::from_secs(5));
        assert_eq!(c.sim.startup_max, SimTime::from_secs(10));
    }

    #[test]
    fn fault_model_defaults_are_off() {
        let c = SimConfig::new(0);
        assert_eq!(c.node_count, 1);
        assert_eq!(c.node_outage_rate_per_hour, 0.0);
        assert_eq!(c.straggler_prob, 0.0);
        assert_eq!(c.straggler_factor, 1.0);
        assert_eq!(c.delivery_delay_prob, 0.0);
        assert!(c.delivery_delay_max.is_zero());
    }

    /// One test per rejected value: a field write on the paper-default MSD
    /// config `c`, and the exact panic text of `MicroserviceEnv::new`.
    macro_rules! rejects {
        ($($name:ident: |$c:ident| $edit:expr => $msg:literal;)*) => {$(
            #[test]
            #[should_panic(expected = $msg)]
            fn $name() {
                let mut $c = EnvConfig::for_ensemble(&Ensemble::msd());
                $edit;
                let _ = MicroserviceEnv::new(Ensemble::msd(), $c);
            }
        )*};
    }

    rejects! {
        zero_window_panics: |c| c.window = SimTime::ZERO
            => "invalid EnvConfig.window: window must be positive";
        nan_arrival_rate_panics: |c| c.arrival_rates = vec![1.0, f64::NAN, 0.0]
            => "invalid EnvConfig.arrival_rates: arrival rates must be finite and non-negative";
        negative_arrival_rate_panics: |c| c.arrival_rates = vec![-0.5, 0.0, 0.0]
            => "invalid EnvConfig.arrival_rates: arrival rates must be finite and non-negative";
        zero_workload_period_panics: |c| c.workload = WorkloadSpec::Diurnal {
                period: SimTime::ZERO,
                amplitude: 0.5,
            }
            => "invalid EnvConfig.workload.period: must be positive";
        infinite_core_count_panics: |c| c.sim.total_cores = Some(f64::INFINITY)
            => "invalid SimConfig.total_cores: core count must be positive";
        nan_failure_rate_panics: |c| c.sim.failure_rate_per_hour = f64::NAN
            => "invalid SimConfig.failure_rate_per_hour: failure rate must be non-negative";
        inverted_startup_range_panics: |c| c.sim.startup_min = SimTime::from_secs(11)
            => "invalid SimConfig.startup_min/startup_max: startup delay range inverted";
        zero_node_count_panics: |c| c.sim.node_count = 0
            => "invalid SimConfig.node_count: node count must be positive";
        nan_node_outage_rate_panics: |c| c.sim.node_outage_rate_per_hour = f64::NAN
            => "invalid SimConfig.node_outage_rate_per_hour: node outage rate must be non-negative";
        straggler_prob_above_one_panics: |c| c.sim.straggler_prob = 1.5
            => "invalid SimConfig.straggler_prob: straggler probability must be in [0, 1]";
        nan_straggler_factor_panics: |c| c.sim.straggler_factor = f64::NAN
            => "invalid SimConfig.straggler_factor: straggler factor must be finite and at least 1";
        nan_delivery_delay_prob_panics: |c| c.sim.delivery_delay_prob = f64::NAN
            => "invalid SimConfig.delivery_delay_prob: delivery delay probability must be in [0, 1]";
        zero_delivery_delay_max_panics: |c| c.sim.delivery_delay_prob = 0.1
            => "invalid SimConfig.delivery_delay_max: delivery delay max must be positive when spikes are enabled";
        zero_node_speed_panics: |c| c.sim.node_speed_factors = vec![0.0]
            => "invalid SimConfig.node_speed_factors: node speed factors must be finite and strictly positive";
    }

    #[test]
    fn validate_returns_typed_errors() {
        let sim = SimConfig {
            total_cores: Some(0.0),
            ..SimConfig::new(0)
        };
        let err = sim.validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::Sim {
                field: "total_cores",
                reason: "core count must be positive",
            }
        );
        assert_eq!(
            err.to_string(),
            "invalid SimConfig.total_cores: core count must be positive"
        );
        let env = EnvConfig {
            window: SimTime::ZERO,
            ..EnvConfig::for_ensemble(&Ensemble::msd())
        };
        assert!(matches!(
            env.validate(),
            Err(ConfigError::Env {
                field: "window",
                ..
            })
        ));
        for bad in [
            vec![0.0],
            vec![1.0, -2.0],
            vec![f64::NAN],
            vec![f64::INFINITY],
        ] {
            let sim = SimConfig {
                node_count: bad.len(),
                node_speed_factors: bad,
                ..SimConfig::new(0)
            };
            assert!(matches!(
                sim.validate(),
                Err(ConfigError::Sim {
                    field: "node_speed_factors",
                    ..
                })
            ));
        }
        // EnvConfig::validate reaches into its sim config.
        let mut env = EnvConfig::for_ensemble(&Ensemble::msd());
        env.sim.node_count = 0;
        assert!(matches!(
            env.validate(),
            Err(ConfigError::Sim {
                field: "node_count",
                ..
            })
        ));
    }

    #[test]
    fn validate_accepts_valid_values() {
        for ensemble in [Ensemble::msd(), Ensemble::ligo(), Ensemble::gpu_serve()] {
            assert_eq!(EnvConfig::for_ensemble(&ensemble).validate(), Ok(()));
        }
        let sim = SimConfig {
            total_cores: Some(3.0),
            failure_rate_per_hour: 0.5,
            startup_min: SimTime::from_secs(1),
            startup_max: SimTime::from_secs(2),
            node_count: 3,
            node_outage_rate_per_hour: 0.2,
            straggler_prob: 0.05,
            straggler_factor: 8.0,
            delivery_delay_prob: 0.1,
            delivery_delay_max: SimTime::from_secs(2),
            node_speed_factors: vec![1.0, 2.0, 0.5],
            ..SimConfig::new(0)
        };
        let env = EnvConfig {
            window: SimTime::from_secs(5),
            arrival_rates: vec![0.1, 0.2],
            workload: WorkloadSpec::parse("diurnal").unwrap(),
            sim,
            ..EnvConfig::for_ensemble(&Ensemble::msd())
        };
        assert_eq!(env.validate(), Ok(()));
    }

    /// Values that would otherwise panic inside `rand` mid-run (or be
    /// silently reinterpreted) are rejected by `Cluster::new`, whether
    /// written as a literal or loaded from JSON.
    #[test]
    fn cluster_new_rejects_values_that_would_fail_mid_run() {
        let construction_panic = |sim: SimConfig| -> String {
            let payload = std::panic::catch_unwind(|| Cluster::new(Ensemble::msd(), sim))
                .expect_err("Cluster::new must reject the config");
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        };
        let zero_delay = SimConfig {
            delivery_delay_prob: 0.5,
            delivery_delay_max: SimTime::ZERO,
            ..SimConfig::new(0)
        };
        let inverted = SimConfig {
            startup_min: SimTime::from_secs(10),
            startup_max: SimTime::from_secs(5),
            ..SimConfig::new(0)
        };
        let straggly = SimConfig {
            straggler_prob: 1.5,
            ..SimConfig::new(0)
        };
        let json = serde_json::to_string(&zero_delay).unwrap();
        let loaded: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(loaded, zero_delay);
        for (sim, field) in [
            (zero_delay, "delivery_delay_max"),
            (inverted, "startup_min/startup_max"),
            (straggly, "straggler_prob"),
            (loaded, "delivery_delay_max"),
        ] {
            let msg = construction_panic(sim);
            assert!(
                msg.contains(&format!("SimConfig.{field}:")),
                "panic {msg:?} should name {field}"
            );
        }
    }

    #[test]
    fn legacy_config_json_deserializes_with_new_defaults() {
        // A config serialized before the workload axis / heterogeneous
        // nodes existed must round-trip to the stationary, homogeneous
        // behaviour.
        use serde::value::{from_value, to_value, Value};
        let env = EnvConfig::for_ensemble(&Ensemble::msd());
        let Ok(Value::Object(mut fields)) = to_value(&env) else {
            panic!("EnvConfig serialises to an object");
        };
        fields.retain(|(k, _)| k != "workload");
        for (k, v) in &mut fields {
            if k == "sim" {
                let Value::Object(sim_fields) = v else {
                    panic!("SimConfig serialises to an object");
                };
                sim_fields.retain(|(k, _)| k != "node_speed_factors");
            }
        }
        let restored: EnvConfig = from_value::<_, serde::Error>(Value::Object(fields)).unwrap();
        assert_eq!(restored, env);
        assert_eq!(restored.workload, WorkloadSpec::Stationary);
        assert!(restored.sim.node_speed_factors.is_empty());
    }

    #[test]
    fn configs_serde_round_trip() {
        let sim = SimConfig {
            failure_rate_per_hour: 0.25,
            total_cores: Some(3.0),
            node_outage_rate_per_hour: 0.2,
            straggler_prob: 0.05,
            straggler_factor: 8.0,
            delivery_delay_prob: 0.1,
            delivery_delay_max: SimTime::from_secs(2),
            node_count: 3,
            node_speed_factors: vec![1.0, 2.0, 0.5],
            ..SimConfig::new(42)
        };
        let json = serde_json::to_string(&sim).unwrap();
        let restored: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, sim);

        let env = EnvConfig {
            sim,
            arrival_rates: vec![0.1, 0.2, 0.3],
            workload: WorkloadSpec::parse("flash-crowd").unwrap(),
            ..EnvConfig::for_ensemble(&Ensemble::msd())
        }
        .with_seed(7);
        let json = serde_json::to_string(&env).unwrap();
        let restored: EnvConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, env);
    }
}
