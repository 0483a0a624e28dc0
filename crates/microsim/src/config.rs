//! Configuration for the emulated cluster and the RL-facing environment.

use std::fmt;

use desim::SimTime;
use serde::{Deserialize, Serialize};
use workflow::Ensemble;

use crate::workload::WorkloadSpec;

/// Why a configuration builder rejected a value.
///
/// One typed error across the whole config surface: every validating
/// builder on [`SimConfig`] and [`EnvConfig`] (and `MirasConfig` in
/// `miras-core`, which re-exports this type) has a `try_with_*` form
/// returning `Result<Self, ConfigError>`; the panicking `with_*` forms
/// delegate to it and panic with the error's [`Display`](fmt::Display)
/// rendering.
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
    /// Number of physical nodes consumers are spread over (consumer pool
    /// `j` lives on node `j mod node_count`). Only meaningful together with
    /// [`SimConfig::node_outage_rate_per_hour`]; see
    /// [`SimConfig::with_node_model`].
    pub node_count: usize,
    /// Mean correlated node outages per node-hour (0 disables, the
    /// default). When a node fails, *every* consumer hosted on it dies at
    /// the same instant — busy consumers crash mid-request (their requests
    /// are redelivered) and idle consumers are lost; the orchestrator
    /// starts replacements for all of them. This models the correlated
    /// mass failure a single-machine loss causes, which independent
    /// per-consumer crashes cannot.
    pub node_outage_rate_per_hour: f64,
    /// Probability that a dispatched request is a straggler (0 disables,
    /// the default).
    pub straggler_prob: f64,
    /// Service-time multiplier applied to straggler requests (≥ 1).
    pub straggler_factor: f64,
    /// Probability that a task's queue delivery is delayed (0 disables,
    /// the default) — modelling message-broker delivery latency spikes.
    pub delivery_delay_prob: f64,
    /// Maximum delivery delay; delayed deliveries are postponed by a
    /// uniform draw from `(0, delivery_delay_max]`.
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
    /// homogeneous behaviour. When non-empty the length must equal
    /// [`SimConfig::node_count`] (enforced by
    /// [`SimConfig::with_node_speeds`], which sets both together): a task
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

    /// Enables runtime invariant auditing: the checks debug builds run via
    /// `debug_assert!` stay on in release builds, and violations surface as
    /// typed [`AuditViolation`](crate::AuditViolation)s (collected through
    /// [`Cluster::take_audit_violations`](crate::Cluster::take_audit_violations)
    /// and mirrored as `audit` telemetry events) instead of panicking.
    #[must_use]
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }

    /// Enables CPU-contention modelling with the given cluster-wide core
    /// count (the paper's testbed: 3).
    ///
    /// # Panics
    ///
    /// Panics unless `cores` is positive and finite; see
    /// [`SimConfig::try_with_total_cores`] for the non-panicking form.
    #[must_use]
    pub fn with_total_cores(self, cores: f64) -> Self {
        self.try_with_total_cores(cores)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`SimConfig::with_total_cores`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::Sim`] unless `cores` is positive and finite.
    pub fn try_with_total_cores(mut self, cores: f64) -> Result<Self, ConfigError> {
        if !(cores.is_finite() && cores > 0.0) {
            return Err(ConfigError::Sim {
                field: "total_cores",
                reason: "core count must be positive",
            });
        }
        self.total_cores = Some(cores);
        Ok(self)
    }

    /// Enables consumer-failure injection at the given mean rate
    /// (failures per consumer-hour of busy time).
    ///
    /// # Panics
    ///
    /// Panics if the rate is negative or non-finite; see
    /// [`SimConfig::try_with_failure_rate`] for the non-panicking form.
    #[must_use]
    pub fn with_failure_rate(self, per_hour: f64) -> Self {
        self.try_with_failure_rate(per_hour)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`SimConfig::with_failure_rate`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::Sim`] if the rate is negative or non-finite.
    pub fn try_with_failure_rate(mut self, per_hour: f64) -> Result<Self, ConfigError> {
        if !(per_hour.is_finite() && per_hour >= 0.0) {
            return Err(ConfigError::Sim {
                field: "failure_rate_per_hour",
                reason: "failure rate must be non-negative",
            });
        }
        self.failure_rate_per_hour = per_hour;
        Ok(self)
    }

    /// Overrides the container start-up delay range.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`; see [`SimConfig::try_with_startup_delay`] for
    /// the non-panicking form.
    #[must_use]
    pub fn with_startup_delay(self, min: SimTime, max: SimTime) -> Self {
        self.try_with_startup_delay(min, max)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`SimConfig::with_startup_delay`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::Sim`] if `min > max`.
    pub fn try_with_startup_delay(
        mut self,
        min: SimTime,
        max: SimTime,
    ) -> Result<Self, ConfigError> {
        if min > max {
            return Err(ConfigError::Sim {
                field: "startup_min/startup_max",
                reason: "startup delay range inverted",
            });
        }
        self.startup_min = min;
        self.startup_max = max;
        Ok(self)
    }

    /// Enables correlated node outages: consumers are spread round-robin
    /// over `nodes` physical nodes (pool `j` lives on node `j mod nodes`)
    /// and each node fails independently at mean rate `outages_per_hour`
    /// per node-hour. A failing node takes down *all* its consumers at the
    /// same instant; see [`SimConfig::node_outage_rate_per_hour`].
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or the rate is negative or non-finite; see
    /// [`SimConfig::try_with_node_model`] for the non-panicking form.
    #[must_use]
    pub fn with_node_model(self, nodes: usize, outages_per_hour: f64) -> Self {
        self.try_with_node_model(nodes, outages_per_hour)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`SimConfig::with_node_model`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::Sim`] if `nodes` is zero or the rate is negative or
    /// non-finite.
    pub fn try_with_node_model(
        mut self,
        nodes: usize,
        outages_per_hour: f64,
    ) -> Result<Self, ConfigError> {
        if nodes == 0 {
            return Err(ConfigError::Sim {
                field: "node_count",
                reason: "node count must be positive",
            });
        }
        if !(outages_per_hour.is_finite() && outages_per_hour >= 0.0) {
            return Err(ConfigError::Sim {
                field: "node_outage_rate_per_hour",
                reason: "node outage rate must be non-negative",
            });
        }
        self.node_count = nodes;
        self.node_outage_rate_per_hour = outages_per_hour;
        Ok(self)
    }

    /// Enables straggler injection: each dispatched request independently
    /// becomes a straggler with probability `prob`, running `factor` times
    /// its nominal service time.
    ///
    /// # Panics
    ///
    /// Panics unless `prob` is a probability in `[0, 1]` and `factor` is
    /// finite and at least 1; see [`SimConfig::try_with_stragglers`] for the
    /// non-panicking form.
    #[must_use]
    pub fn with_stragglers(self, prob: f64, factor: f64) -> Self {
        self.try_with_stragglers(prob, factor)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`SimConfig::with_stragglers`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::Sim`] unless `prob` is a probability in `[0, 1]` and
    /// `factor` is finite and at least 1.
    pub fn try_with_stragglers(mut self, prob: f64, factor: f64) -> Result<Self, ConfigError> {
        if !(prob.is_finite() && (0.0..=1.0).contains(&prob)) {
            return Err(ConfigError::Sim {
                field: "straggler_prob",
                reason: "straggler probability must be in [0, 1]",
            });
        }
        if !(factor.is_finite() && factor >= 1.0) {
            return Err(ConfigError::Sim {
                field: "straggler_factor",
                reason: "straggler factor must be finite and at least 1",
            });
        }
        self.straggler_prob = prob;
        self.straggler_factor = factor;
        Ok(self)
    }

    /// Enables queue-delivery delay spikes: each task delivery is delayed
    /// with probability `prob` by a uniform draw from `(0, max]`, modelling
    /// message-broker latency spikes.
    ///
    /// # Panics
    ///
    /// Panics unless `prob` is a probability in `[0, 1]`, or if `prob` is
    /// positive while `max` is zero (a delay spike of zero length is a
    /// configuration error, not a feature); see
    /// [`SimConfig::try_with_delivery_delay_spikes`] for the non-panicking
    /// form.
    #[must_use]
    pub fn with_delivery_delay_spikes(self, prob: f64, max: SimTime) -> Self {
        self.try_with_delivery_delay_spikes(prob, max)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`SimConfig::with_delivery_delay_spikes`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::Sim`] unless `prob` is a probability in `[0, 1]` and
    /// `max` is positive whenever `prob` is.
    pub fn try_with_delivery_delay_spikes(
        mut self,
        prob: f64,
        max: SimTime,
    ) -> Result<Self, ConfigError> {
        if !(prob.is_finite() && (0.0..=1.0).contains(&prob)) {
            return Err(ConfigError::Sim {
                field: "delivery_delay_prob",
                reason: "delivery delay probability must be in [0, 1]",
            });
        }
        if prob != 0.0 && max.is_zero() {
            return Err(ConfigError::Sim {
                field: "delivery_delay_max",
                reason: "delivery delay max must be positive when spikes are enabled",
            });
        }
        self.delivery_delay_prob = prob;
        self.delivery_delay_max = max;
        Ok(self)
    }

    /// Makes the cluster heterogeneous: one service-speed multiplier per
    /// physical node (so this also sets [`SimConfig::node_count`] to
    /// `speeds.len()`). A task dispatched to pool `j` runs at
    /// `1 / speeds[j % node_count]` times its sampled service time. Pass an
    /// empty vector to return to the homogeneous default.
    ///
    /// # Panics
    ///
    /// Panics unless every factor is finite and strictly positive; see
    /// [`SimConfig::try_with_node_speeds`] for the non-panicking form.
    #[must_use]
    pub fn with_node_speeds(self, speeds: Vec<f64>) -> Self {
        self.try_with_node_speeds(speeds)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`SimConfig::with_node_speeds`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::Sim`] unless every factor is finite and strictly
    /// positive.
    pub fn try_with_node_speeds(mut self, speeds: Vec<f64>) -> Result<Self, ConfigError> {
        if !speeds.iter().all(|s| s.is_finite() && *s > 0.0) {
            return Err(ConfigError::Sim {
                field: "node_speed_factors",
                reason: "node speed factors must be finite and strictly positive",
            });
        }
        if !speeds.is_empty() {
            self.node_count = speeds.len();
        }
        self.node_speed_factors = speeds;
        Ok(self)
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::new(0)
    }
}

/// Configuration of the windowed RL environment wrapped around a cluster.
///
/// Constructed with [`EnvConfig::for_ensemble`] and customised through the
/// `with_*` builder methods; fields are crate-private so every knob goes
/// through one audited, validating surface. Read access goes through the
/// same-named getters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvConfig {
    /// Length of one decision window (paper: 30 s).
    pub(crate) window: SimTime,
    /// Total-consumer constraint `C` (paper: 14 for MSD, 30 for LIGO).
    pub(crate) consumer_budget: usize,
    /// Background Poisson arrival rate (requests/s) per workflow type.
    pub(crate) arrival_rates: Vec<f64>,
    /// Emulator parameters.
    pub(crate) sim: SimConfig,
    /// When true (default), actions whose consumer total exceeds the budget
    /// are scaled down proportionally instead of rejected; the violation is
    /// recorded in the step's [`WindowMetrics`](crate::WindowMetrics).
    pub(crate) clamp_actions: bool,
    /// Capacity multiple used during [`reset`](crate::MicroserviceEnv::reset)
    /// ("provision sufficient consumers of each microservice to reduce WIP
    /// close to 0", §VI-A3).
    pub(crate) reset_capacity_factor: usize,
    /// Maximum number of windows a reset may run before giving up.
    pub(crate) reset_max_windows: usize,
    /// Reset finishes once total WIP is at or below this threshold.
    pub(crate) reset_wip_threshold: usize,
    /// How the background arrival rates evolve over the run (the workload
    /// scenario zoo). Defaults to [`WorkloadSpec::Stationary`], which is
    /// bit-identical to the pre-workload arrival stream; configs recorded
    /// before the field existed deserialize to it.
    #[serde(default)]
    pub(crate) workload: WorkloadSpec,
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
            clamp_actions: true,
            reset_capacity_factor: 5,
            reset_max_windows: 40,
            reset_wip_threshold: 0,
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

    /// Sets the decision-window length (the paper compares 5 s / 15 s / 30 s).
    ///
    /// # Panics
    ///
    /// Panics if the window is zero; see [`EnvConfig::try_with_window`] for
    /// the non-panicking form.
    #[must_use]
    pub fn with_window(self, window: SimTime) -> Self {
        self.try_with_window(window)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`EnvConfig::with_window`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::Env`] if the window is zero.
    pub fn try_with_window(mut self, window: SimTime) -> Result<Self, ConfigError> {
        if window.is_zero() {
            return Err(ConfigError::Env {
                field: "window",
                reason: "window must be positive",
            });
        }
        self.window = window;
        Ok(self)
    }

    /// Sets the total-consumer constraint `C`.
    #[must_use]
    pub fn with_consumer_budget(mut self, budget: usize) -> Self {
        self.consumer_budget = budget;
        self
    }

    /// Sets the background arrival rates (requests/s per workflow type).
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative or non-finite — a NaN rate would
    /// silently poison every Poisson arrival draw downstream. See
    /// [`EnvConfig::try_with_arrival_rates`] for the non-panicking form.
    #[must_use]
    pub fn with_arrival_rates(self, rates: Vec<f64>) -> Self {
        self.try_with_arrival_rates(rates)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`EnvConfig::with_arrival_rates`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::Env`] if any rate is negative or non-finite.
    pub fn try_with_arrival_rates(mut self, rates: Vec<f64>) -> Result<Self, ConfigError> {
        if !rates.iter().all(|r| r.is_finite() && *r >= 0.0) {
            return Err(ConfigError::Env {
                field: "arrival_rates",
                reason: "arrival rates must be finite and non-negative",
            });
        }
        self.arrival_rates = rates;
        Ok(self)
    }

    /// Replaces the low-level emulator parameters wholesale. Note that
    /// [`EnvConfig::with_seed`] writes into the sim config, so apply it
    /// after this.
    #[must_use]
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Sets whether over-budget actions are proportionally clamped (default)
    /// or rejected with a panic.
    #[must_use]
    pub fn with_clamp_actions(mut self, clamp: bool) -> Self {
        self.clamp_actions = clamp;
        self
    }

    /// Disables proportional clamping: over-budget actions panic instead.
    /// Used by the exploration ablation to count hard violations.
    #[must_use]
    pub fn with_strict_actions(self) -> Self {
        self.with_clamp_actions(false)
    }

    /// Sets the reset capacity multiple (consumers provisioned during
    /// [`reset`](crate::MicroserviceEnv::reset) are
    /// `consumer_budget * factor` per task type).
    ///
    /// # Panics
    ///
    /// Panics if the factor is zero; see
    /// [`EnvConfig::try_with_reset_capacity_factor`] for the non-panicking
    /// form.
    #[must_use]
    pub fn with_reset_capacity_factor(self, factor: usize) -> Self {
        self.try_with_reset_capacity_factor(factor)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`EnvConfig::with_reset_capacity_factor`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::Env`] if the factor is zero.
    pub fn try_with_reset_capacity_factor(mut self, factor: usize) -> Result<Self, ConfigError> {
        if factor == 0 {
            return Err(ConfigError::Env {
                field: "reset_capacity_factor",
                reason: "reset capacity factor must be positive",
            });
        }
        self.reset_capacity_factor = factor;
        Ok(self)
    }

    /// Sets the maximum number of windows a reset may run before giving up.
    #[must_use]
    pub fn with_reset_max_windows(mut self, windows: usize) -> Self {
        self.reset_max_windows = windows;
        self
    }

    /// Sets the total-WIP threshold at which a reset is considered done.
    #[must_use]
    pub fn with_reset_wip_threshold(mut self, threshold: usize) -> Self {
        self.reset_wip_threshold = threshold;
        self
    }

    /// Selects the workload scenario modulating the background arrival
    /// rates (see [`WorkloadSpec`]).
    ///
    /// # Panics
    ///
    /// Panics if the spec's shape parameters are out of range; see
    /// [`EnvConfig::try_with_workload`] for the non-panicking form.
    #[must_use]
    pub fn with_workload(self, workload: WorkloadSpec) -> Self {
        self.try_with_workload(workload)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`EnvConfig::with_workload`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::Env`] if the spec fails [`WorkloadSpec::validate`].
    pub fn try_with_workload(mut self, workload: WorkloadSpec) -> Result<Self, ConfigError> {
        workload.validate()?;
        self.workload = workload;
        Ok(self)
    }

    /// The decision-window length.
    #[must_use]
    pub fn window(&self) -> SimTime {
        self.window
    }

    /// The total-consumer constraint `C`.
    #[must_use]
    pub fn consumer_budget(&self) -> usize {
        self.consumer_budget
    }

    /// Background Poisson arrival rates (requests/s per workflow type).
    #[must_use]
    pub fn arrival_rates(&self) -> &[f64] {
        &self.arrival_rates
    }

    /// The low-level emulator parameters.
    #[must_use]
    pub fn sim(&self) -> &SimConfig {
        &self.sim
    }

    /// Whether over-budget actions are proportionally clamped.
    #[must_use]
    pub fn clamp_actions(&self) -> bool {
        self.clamp_actions
    }

    /// Capacity multiple used during reset.
    #[must_use]
    pub fn reset_capacity_factor(&self) -> usize {
        self.reset_capacity_factor
    }

    /// Maximum number of windows a reset may run.
    #[must_use]
    pub fn reset_max_windows(&self) -> usize {
        self.reset_max_windows
    }

    /// Total-WIP threshold at which a reset finishes.
    #[must_use]
    pub fn reset_wip_threshold(&self) -> usize {
        self.reset_wip_threshold
    }

    /// The workload scenario modulating the background arrival rates.
    #[must_use]
    pub fn workload(&self) -> &WorkloadSpec {
        &self.workload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn builders_apply() {
        let msd = Ensemble::msd();
        let c = EnvConfig::for_ensemble(&msd)
            .with_seed(99)
            .with_window(SimTime::from_secs(5))
            .with_consumer_budget(20);
        assert_eq!(c.sim.seed, 99);
        assert_eq!(c.window, SimTime::from_secs(5));
        assert_eq!(c.consumer_budget, 20);
    }

    #[test]
    fn extended_builders_and_getters_round_trip() {
        let msd = Ensemble::msd();
        let sim = SimConfig::new(7).with_failure_rate(0.5);
        let c = EnvConfig::for_ensemble(&msd)
            .with_sim(sim.clone())
            .with_clamp_actions(false)
            .with_reset_capacity_factor(3)
            .with_reset_max_windows(12)
            .with_reset_wip_threshold(2);
        assert_eq!(c.sim(), &sim);
        assert!(!c.clamp_actions());
        assert_eq!(c.reset_capacity_factor(), 3);
        assert_eq!(c.reset_max_windows(), 12);
        assert_eq!(c.reset_wip_threshold(), 2);
        assert_eq!(c.window(), SimTime::from_secs(30));
        assert_eq!(c.consumer_budget(), 14);
        assert_eq!(c.arrival_rates().len(), 3);
        // with_seed after with_sim overrides the sim seed.
        assert_eq!(c.with_seed(9).sim().seed, 9);
    }

    #[test]
    #[should_panic(expected = "reset capacity factor must be positive")]
    fn zero_reset_capacity_factor_panics() {
        let _ = EnvConfig::for_ensemble(&Ensemble::msd()).with_reset_capacity_factor(0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = EnvConfig::for_ensemble(&Ensemble::msd()).with_window(SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "startup delay range inverted")]
    fn inverted_startup_range_panics() {
        let _ = SimConfig::new(0).with_startup_delay(SimTime::from_secs(10), SimTime::from_secs(5));
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

    #[test]
    fn fault_model_builders_apply() {
        let c = SimConfig::new(0)
            .with_node_model(3, 0.2)
            .with_stragglers(0.05, 8.0)
            .with_delivery_delay_spikes(0.1, SimTime::from_secs(2));
        assert_eq!(c.node_count, 3);
        assert_eq!(c.node_outage_rate_per_hour, 0.2);
        assert_eq!(c.straggler_prob, 0.05);
        assert_eq!(c.straggler_factor, 8.0);
        assert_eq!(c.delivery_delay_prob, 0.1);
        assert_eq!(c.delivery_delay_max, SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "failure rate must be non-negative")]
    fn nan_failure_rate_panics() {
        let _ = SimConfig::new(0).with_failure_rate(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "core count must be positive")]
    fn infinite_core_count_panics() {
        let _ = SimConfig::new(0).with_total_cores(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "node count must be positive")]
    fn zero_node_count_panics() {
        let _ = SimConfig::new(0).with_node_model(0, 0.1);
    }

    #[test]
    #[should_panic(expected = "node outage rate must be non-negative")]
    fn nan_node_outage_rate_panics() {
        let _ = SimConfig::new(0).with_node_model(3, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "straggler probability must be in [0, 1]")]
    fn straggler_prob_above_one_panics() {
        let _ = SimConfig::new(0).with_stragglers(1.5, 4.0);
    }

    #[test]
    #[should_panic(expected = "straggler factor must be finite and at least 1")]
    fn nan_straggler_factor_panics() {
        let _ = SimConfig::new(0).with_stragglers(0.1, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "delivery delay probability must be in [0, 1]")]
    fn nan_delivery_delay_prob_panics() {
        let _ = SimConfig::new(0).with_delivery_delay_spikes(f64::NAN, SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "delivery delay max must be positive when spikes are enabled")]
    fn zero_delivery_delay_max_panics() {
        let _ = SimConfig::new(0).with_delivery_delay_spikes(0.1, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "arrival rates must be finite and non-negative")]
    fn nan_arrival_rate_panics() {
        let _ = EnvConfig::for_ensemble(&Ensemble::msd()).with_arrival_rates(vec![1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "arrival rates must be finite and non-negative")]
    fn negative_arrival_rate_panics() {
        let _ = EnvConfig::for_ensemble(&Ensemble::msd()).with_arrival_rates(vec![-0.5]);
    }

    #[test]
    fn try_builders_return_typed_errors() {
        let err = SimConfig::new(0).try_with_total_cores(0.0).err().unwrap();
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
        let err = EnvConfig::for_ensemble(&Ensemble::msd())
            .try_with_window(SimTime::ZERO)
            .err()
            .unwrap();
        assert!(matches!(
            err,
            ConfigError::Env {
                field: "window",
                ..
            }
        ));
        assert!(err.to_string().contains("window must be positive"));
    }

    #[test]
    fn try_builders_accept_valid_values() {
        let sim = SimConfig::new(0)
            .try_with_total_cores(3.0)
            .and_then(|c| c.try_with_failure_rate(0.5))
            .and_then(|c| c.try_with_startup_delay(SimTime::from_secs(1), SimTime::from_secs(2)))
            .and_then(|c| c.try_with_node_model(3, 0.2))
            .and_then(|c| c.try_with_stragglers(0.05, 8.0))
            .and_then(|c| c.try_with_delivery_delay_spikes(0.1, SimTime::from_secs(2)))
            .unwrap();
        assert_eq!(sim.total_cores, Some(3.0));
        assert_eq!(sim.node_count, 3);
        let env = EnvConfig::for_ensemble(&Ensemble::msd())
            .try_with_window(SimTime::from_secs(5))
            .and_then(|c| c.try_with_arrival_rates(vec![0.1, 0.2]))
            .and_then(|c| c.try_with_reset_capacity_factor(2))
            .unwrap();
        assert_eq!(env.window(), SimTime::from_secs(5));
        assert_eq!(env.arrival_rates(), &[0.1, 0.2]);
    }

    #[test]
    fn node_speeds_set_node_count_and_validate() {
        let c = SimConfig::new(0).with_node_speeds(vec![1.0, 2.0, 0.5]);
        assert_eq!(c.node_count, 3);
        assert_eq!(c.node_speed_factors, vec![1.0, 2.0, 0.5]);
        // Back to homogeneous: node_count is left alone.
        let c = c.with_node_speeds(Vec::new());
        assert_eq!(c.node_count, 3);
        assert!(c.node_speed_factors.is_empty());
        for bad in [
            vec![0.0],
            vec![1.0, -2.0],
            vec![f64::NAN],
            vec![f64::INFINITY],
        ] {
            assert!(matches!(
                SimConfig::new(0).try_with_node_speeds(bad).unwrap_err(),
                ConfigError::Sim {
                    field: "node_speed_factors",
                    ..
                }
            ));
        }
    }

    #[test]
    fn workload_builder_validates_and_defaults_stationary() {
        let msd = Ensemble::msd();
        let c = EnvConfig::for_ensemble(&msd);
        assert_eq!(c.workload(), &WorkloadSpec::Stationary);
        let c = c.with_workload(WorkloadSpec::parse("diurnal").unwrap());
        assert_eq!(c.workload().name(), "diurnal");
        let err = EnvConfig::for_ensemble(&msd)
            .try_with_workload(WorkloadSpec::Diurnal {
                period: SimTime::ZERO,
                amplitude: 0.5,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            ConfigError::Env {
                field: "workload.period",
                ..
            }
        ));
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
        assert_eq!(restored.workload(), &WorkloadSpec::Stationary);
        assert!(restored.sim().node_speed_factors.is_empty());
    }

    #[test]
    fn configs_serde_round_trip() {
        let sim = SimConfig::new(42)
            .with_failure_rate(0.25)
            .with_total_cores(3.0)
            .with_node_model(3, 0.2)
            .with_stragglers(0.05, 8.0)
            .with_delivery_delay_spikes(0.1, SimTime::from_secs(2))
            .with_node_speeds(vec![1.0, 2.0, 0.5]);
        let json = serde_json::to_string(&sim).unwrap();
        let restored: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, sim);

        let env = EnvConfig::for_ensemble(&Ensemble::msd())
            .with_sim(sim)
            .with_seed(7)
            .with_arrival_rates(vec![0.1, 0.2, 0.3])
            .with_workload(WorkloadSpec::parse("flash-crowd").unwrap());
        let json = serde_json::to_string(&env).unwrap();
        let restored: EnvConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, env);
    }
}
