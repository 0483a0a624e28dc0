//! The RL-facing, window-stepped view of the cluster.

use std::collections::VecDeque;

use desim::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Poisson};
use serde::{Deserialize, Serialize};
use workflow::{Arrival, ArrivalTrace, BurstSpec, Ensemble, WorkflowTypeId};

use telemetry::{Telemetry, Value};

use crate::cluster::ClusterSnapshot;
use crate::{Cluster, EnvConfig, WindowMetrics, WorkloadSpec};

/// Consumers per task type during [`MicroserviceEnv::reset`], as a
/// multiple of the consumer budget ("provision sufficient consumers of
/// each microservice to reduce WIP close to 0", §VI-A3).
const RESET_CAPACITY_FACTOR: usize = 5;

/// Maximum number of windows a reset may run before giving up on an empty
/// cluster.
const RESET_MAX_WINDOWS: usize = 40;

/// The paper's reward function, `r(k) = 1 − Σ_j w_j(k+1)`: the single
/// audited implementation every layer (real environment, synthetic
/// model-based environment, evaluation harnesses) must route through.
///
/// The reward is 1 when the cluster is fully drained and decreases linearly
/// in the total work-in-progress left at the end of the window (§IV-B).
#[must_use]
pub fn reward_from_total_wip(total_wip: f64) -> f64 {
    1.0 - total_wip
}

/// The result of advancing the environment by one decision window.
///
/// This is the environment-side mirror of `rl::Transition`'s
/// `(next_state, reward)` pair (the `rl` crate keeps its own copy to stay
/// independent of the emulator): `state` feeds the agent's next decision and
/// `reward` is `r(k) = 1 − Σ_j w_j(k+1)` per [`reward_from_total_wip`],
/// while `metrics` carries everything else an evaluation harness may want.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// The next state `w(k+1)`: WIP per task type as floats (RL convention).
    pub state: Vec<f64>,
    /// The paper's reward `r(k) = 1 − Σ_j w_j(k+1)`.
    pub reward: f64,
    /// Full window observability for evaluation harnesses.
    pub metrics: WindowMetrics,
}

/// The microservice workflow system viewed as a reinforcement-learning
/// environment (paper §IV-B).
///
/// Each [`step`](MicroserviceEnv::step) applies a consumer allocation
/// `m(k)`, advances simulated time by one decision window (default 30 s)
/// while background Poisson arrivals stream in, and returns the WIP state,
/// reward, and evaluation metrics. [`reset`](MicroserviceEnv::reset)
/// implements the paper's reset: "provision sufficient consumers of each
/// microservice to reduce WIP close to 0" (§VI-A3).
///
/// # Examples
///
/// ```
/// use microsim::{EnvConfig, MicroserviceEnv};
/// use workflow::{BurstSpec, Ensemble};
///
/// let ensemble = Ensemble::msd();
/// let config = EnvConfig::for_ensemble(&ensemble).with_seed(3);
/// let mut env = MicroserviceEnv::new(ensemble, config);
/// env.reset();
/// env.inject_burst(&BurstSpec::new(vec![50, 0, 0]));
/// let out = env.step(&[8, 3, 2, 1]);
/// assert!(out.metrics.arrivals[0] >= 50);
/// ```
#[derive(Debug)]
pub struct MicroserviceEnv {
    cluster: Cluster,
    config: EnvConfig,
    arrival_rng: SmallRng,
    window_index: usize,
    /// Injected (burst/trace) arrivals not yet attributed to a window's
    /// metrics, sorted by arrival time.
    injected_schedule: VecDeque<(SimTime, usize)>,
    /// In-flight trace recording (observation-only; not part of
    /// [`EnvSnapshot`]). See [`MicroserviceEnv::record_trace`].
    trace_recorder: Option<TraceRecorder>,
    telemetry: Telemetry,
}

/// State of an in-progress trace recording: arrivals are stored relative
/// to `origin`, so the trace replays with
/// [`MicroserviceEnv::load_workload_trace`] (which offsets by the instant
/// of injection).
#[derive(Debug)]
struct TraceRecorder {
    origin: SimTime,
    trace: ArrivalTrace,
}

/// Hard ceiling on the Poisson mean of one window's background arrivals
/// for a single workflow type — an order of magnitude above the
/// million-request stress scale, so no legitimate scenario reaches it.
/// It exists so a pathological rate × window × modulation product (up to
/// and including infinity) degrades to a bounded, deterministic flood
/// instead of a panic in `Poisson::new`.
const MAX_WINDOW_ARRIVAL_MEAN: f64 = 10_000_000.0;

/// Draws a Poisson-distributed arrival count with a checked, saturating
/// `f64 → usize` conversion.
///
/// The pre-workload code wrote `Poisson::new(mean).expect(..).sample(rng)
/// as usize`, which panics outright for a non-finite mean (a huge
/// time-varying rate times a long window overflows to infinity) and
/// leans on the implicit saturation of `as` for negative or non-finite
/// samples. This helper makes every edge explicit: non-positive or NaN
/// means draw nothing (and consume no RNG), over-large means clamp to
/// [`MAX_WINDOW_ARRIVAL_MEAN`], and the sampled count clamps into
/// `[0, usize::MAX]`.
///
/// For any positive finite mean at or below the ceiling this performs
/// exactly one `Poisson::new(mean)` construction and one sample — the
/// same RNG stream as the pre-workload code, which keeps `Stationary`
/// runs bit-identical.
fn checked_poisson_count(mean: f64, rng: &mut SmallRng) -> usize {
    if mean.is_nan() || mean <= 0.0 {
        return 0; // zero, negative, or NaN mean: nothing arrives
    }
    let mean = if mean.is_finite() {
        mean.min(MAX_WINDOW_ARRIVAL_MEAN)
    } else {
        MAX_WINDOW_ARRIVAL_MEAN
    };
    let sample = Poisson::new(mean)
        .expect("mean is positive and finite")
        .sample(rng);
    if sample.is_nan() || sample <= 0.0 {
        return 0; // guard a NaN or negative draw from the sampler
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    if sample >= usize::MAX as f64 {
        usize::MAX
    } else {
        sample as usize
    }
}

/// The arrival stream of an environment over `config`: derived from the
/// simulation seed but distinct from it, so that arrival sampling and
/// service-time sampling do not interleave.
fn arrival_rng(config: &EnvConfig) -> SmallRng {
    SmallRng::seed_from_u64(config.sim.seed.wrapping_add(0x9E37_79B9))
}

/// Samples one window's background arrivals, handing each to `sink` in
/// draw order, and returns the window's mean workload factor.
///
/// The workload's modulation is integrated analytically over the window:
/// one Poisson draw per (type, window) whatever the shape, then one
/// uniform offset per arrival. `Stationary` yields exactly 1.0 and
/// `x * 1.0 == x` for finite x, so the stationary RNG stream is
/// bit-identical to the pre-workload code; `TraceReplay` yields 0.0 and
/// samples nothing. The sink is generic, not `dyn`: a large ensemble
/// pushes ~128k arrivals a window through it.
fn sample_window<F: FnMut(SimTime, WorkflowTypeId)>(
    config: &EnvConfig,
    window_start: SimTime,
    rng: &mut SmallRng,
    mut sink: F,
) -> f64 {
    let window_secs = config.window.as_secs_f64();
    let factor = config
        .workload
        .mean_factor(window_start, window_start + config.window);
    for (i, &rate) in config.arrival_rates.iter().enumerate() {
        let mean = rate * window_secs * factor;
        if mean <= 0.0 {
            continue;
        }
        let n = checked_poisson_count(mean, rng);
        for _ in 0..n {
            let offset = rng.gen_range(0.0..window_secs);
            sink(
                window_start + SimTime::from_secs_f64(offset),
                WorkflowTypeId::new(i),
            );
        }
    }
    factor
}

/// The background arrivals of the first `windows` decision windows of a
/// fresh environment over `config`, with trace time 0 at the start of the
/// first window.
///
/// This is exactly what [`MicroserviceEnv::record_trace`] captures from a
/// new, never-reset environment at the same config stepped `windows` times
/// with no injections, under any allocation: background arrivals never see
/// the allocation. It needs no cluster, so it is the cheap way to write a
/// trace for [`WorkloadSpec::TraceReplay`].
///
/// # Panics
///
/// Panics with the [`ConfigError`](crate::ConfigError) text if
/// `EnvConfig::validate` rejects `config`.
#[must_use]
pub fn background_trace(config: &EnvConfig, windows: usize) -> ArrivalTrace {
    if let Err(e) = config.validate() {
        panic!("{e}");
    }
    let mut rng = arrival_rng(config);
    let mut arrivals = Vec::new();
    let mut window_start = SimTime::ZERO;
    for _ in 0..windows {
        sample_window(config, window_start, &mut rng, |at, wf| {
            arrivals.push(Arrival::new(at, wf));
        });
        window_start += config.window;
    }
    // A stable sort of the draw order, as `ArrivalTrace::push` does one
    // arrival at a time for a recording.
    arrivals.into_iter().collect()
}

impl MicroserviceEnv {
    /// Creates an environment over a fresh cluster.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`](crate::ConfigError) text if
    /// `EnvConfig::validate` rejects `config`, or if
    /// `config.arrival_rates.len()` differs from the ensemble's number of
    /// workflow types.
    #[must_use]
    pub fn new(ensemble: Ensemble, config: EnvConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        assert_eq!(
            config.arrival_rates.len(),
            ensemble.num_workflow_types(),
            "one arrival rate per workflow type"
        );
        let arrival_rng = arrival_rng(&config);
        let cluster = Cluster::new(ensemble, config.sim.clone());
        MicroserviceEnv {
            cluster,
            config,
            arrival_rng,
            window_index: 0,
            injected_schedule: VecDeque::new(),
            trace_recorder: None,
            telemetry: Telemetry::noop(),
        }
    }

    /// Attaches a telemetry handle. Each subsequent [`step`] emits a
    /// `window` event carrying the full [`WindowMetrics`] plus an
    /// event-engine checkpoint; recording is observability-only and leaves
    /// simulation results bit-identical.
    ///
    /// [`step`]: MicroserviceEnv::step
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.cluster.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Number of task types `J` (the state and action dimensionality).
    #[must_use]
    pub fn num_task_types(&self) -> usize {
        self.cluster.ensemble().num_task_types()
    }

    /// Number of workflow types `N`.
    #[must_use]
    pub fn num_workflow_types(&self) -> usize {
        self.cluster.ensemble().num_workflow_types()
    }

    /// The total-consumer constraint `C`.
    #[must_use]
    pub fn consumer_budget(&self) -> usize {
        self.config.consumer_budget
    }

    /// The current state `w(k)` as floats.
    #[must_use]
    pub fn state(&self) -> Vec<f64> {
        self.cluster.wip().iter().map(|&w| w as f64).collect()
    }

    /// Read-only access to the underlying cluster.
    #[must_use]
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Index of the next decision window.
    #[must_use]
    pub fn window_index(&self) -> usize {
        self.window_index
    }

    /// Injects a front-loaded request burst at the current instant (the
    /// paper's §VI-D evaluation protocol).
    pub fn inject_burst(&mut self, burst: &BurstSpec) {
        let now = self.cluster.now();
        for arrival in burst.trace().arrivals() {
            self.cluster.submit(now, arrival.workflow_type);
            self.record_injection(now, arrival.workflow_type.index());
            self.record_arrival(now, arrival.workflow_type);
        }
    }

    /// Injects a pre-generated arrival trace, offset so that trace time 0 is
    /// the current instant. The trace's sorted order is preserved: equal
    /// offsets keep their trace order, and the attribution schedule stays
    /// time-sorted even if the trace was built out of order. Every
    /// workflow type must be one of the ensemble's
    /// ([`load_workload_trace`](MicroserviceEnv::load_workload_trace)
    /// checks that before it calls this).
    pub(crate) fn inject_trace(&mut self, trace: &ArrivalTrace) {
        let now = self.cluster.now();
        for arrival in trace.arrivals() {
            let at = now + arrival.time;
            self.cluster.submit(at, arrival.workflow_type);
            self.record_injection(at, arrival.workflow_type.index());
            self.record_arrival(at, arrival.workflow_type);
        }
    }

    /// If the configured workload is [`WorkloadSpec::TraceReplay`], loads
    /// its trace file and injects it at the current instant, returning the
    /// number of arrivals injected; for every other workload this is a
    /// no-op returning 0. Call it right after [`reset`] so trace time 0
    /// lines up with the first decision window.
    ///
    /// [`reset`]: MicroserviceEnv::reset
    ///
    /// # Errors
    ///
    /// Propagates I/O and parse errors from loading the trace file, and
    /// returns [`std::io::ErrorKind::InvalidData`] if an arrival names a
    /// workflow type the ensemble does not have; nothing is injected then.
    pub fn load_workload_trace(&mut self) -> std::io::Result<usize> {
        let WorkloadSpec::TraceReplay { path } = &self.config.workload else {
            return Ok(0);
        };
        let trace = ArrivalTrace::load(path)?;
        let types = self.num_workflow_types();
        let mut named = trace.arrivals().iter().map(|a| a.workflow_type);
        if let Some(bad) = named.find(|t| t.index() >= types) {
            let msg = format!("{bad} is not one of the ensemble's {types} workflow types");
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, msg));
        }
        self.inject_trace(&trace);
        Ok(trace.len())
    }

    /// Starts recording every subsequent arrival — background and injected
    /// alike — into a trace whose time 0 is the current instant. Recording
    /// is observation-only (it never changes the run and is not part of
    /// [`EnvSnapshot`]); fetch the result with
    /// [`take_recorded_trace`](MicroserviceEnv::take_recorded_trace).
    ///
    /// Saving the recorded trace and replaying it from the same post-reset
    /// state under a [`WorkloadSpec::TraceReplay`] configuration
    /// ([`load_workload_trace`](MicroserviceEnv::load_workload_trace))
    /// reproduces the original run byte-identically; see DESIGN.md §17 for
    /// the determinism contract and its measure-zero boundary caveat.
    pub fn record_trace(&mut self) {
        self.trace_recorder = Some(TraceRecorder {
            origin: self.cluster.now(),
            trace: ArrivalTrace::new(),
        });
    }

    /// Stops recording and returns the trace accumulated since
    /// [`record_trace`](MicroserviceEnv::record_trace) (empty if recording
    /// was never started).
    pub fn take_recorded_trace(&mut self) -> ArrivalTrace {
        self.trace_recorder
            .take()
            .map_or_else(ArrivalTrace::new, |r| r.trace)
    }

    /// Appends an arrival to the in-flight recording, if one is active.
    /// `ArrivalTrace::push` is stable for equal times, so submission order
    /// — which is what the engine's tie-break preserves — survives the
    /// round trip.
    fn record_arrival(&mut self, at: SimTime, workflow_type: WorkflowTypeId) {
        if let Some(rec) = &mut self.trace_recorder {
            rec.trace.push(Arrival::new(at - rec.origin, workflow_type));
        }
    }

    /// Queues an injected arrival for metric attribution, keeping the
    /// schedule time-sorted.
    fn record_injection(&mut self, at: SimTime, workflow_type: usize) {
        // Injections come in time order per call; merge lazily by insertion.
        let pos = self
            .injected_schedule
            .iter()
            .rposition(|&(t, _)| t <= at)
            .map_or(0, |p| p + 1);
        self.injected_schedule.insert(pos, (at, workflow_type));
    }

    /// Applies the consumer allocation `action` for one window and advances
    /// simulated time to the window's end.
    ///
    /// If the allocation's total exceeds the budget it is proportionally
    /// scaled down and the violation recorded in the step's
    /// [`WindowMetrics`](crate::WindowMetrics).
    ///
    /// # Panics
    ///
    /// Panics if `action.len()` differs from the number of task types.
    pub fn step(&mut self, action: &[usize]) -> StepOutcome {
        assert_eq!(
            action.len(),
            self.num_task_types(),
            "one consumer count per task type"
        );
        let (applied, violated) = self.enforce_budget(action);
        self.cluster.set_consumers(&applied);

        // Stream this window's background Poisson arrivals, and attribute
        // any injected arrivals whose time falls inside this window.
        let window_start = self.cluster.now();
        let window_end = window_start + self.config.window;
        let mut arrivals = vec![0; self.num_workflow_types()];
        // A window owns injected arrivals with `t <= window_end`, matching
        // the engine's `pop_until(horizon)` (which processes events at
        // `t <= horizon`): an arrival landing exactly on the boundary is
        // executed in this window, so it must be attributed here too.
        // Windows are contiguous, so each arrival is popped exactly once.
        while let Some(&(t, wf)) = self.injected_schedule.front() {
            if t > window_end {
                break;
            }
            arrivals[wf] += 1;
            self.injected_schedule.pop_front();
        }
        let cluster = &mut self.cluster;
        let recorder = &mut self.trace_recorder;
        let workload_factor = sample_window(
            &self.config,
            window_start,
            &mut self.arrival_rng,
            |at, wf| {
                cluster.submit(at, wf);
                if let Some(rec) = recorder {
                    rec.trace.push(Arrival::new(at - rec.origin, wf));
                }
                arrivals[wf.index()] += 1;
            },
        );

        self.cluster.run_until(window_end);

        let wip = self.cluster.wip();
        #[allow(clippy::cast_precision_loss)]
        let reward = reward_from_total_wip(wip.iter().sum::<usize>() as f64);
        let (completions, mean_response_secs) = self.cluster.take_window_completions();
        let metrics = WindowMetrics {
            window_index: self.window_index,
            wip: wip.clone(),
            reward,
            action_applied: applied,
            constraint_violated: violated,
            arrivals,
            completions,
            mean_response_secs,
        };
        self.audit_metrics(&metrics);
        self.cluster.audit_window();
        self.window_index += 1;
        if self.telemetry.is_enabled() {
            self.cluster.telemetry_checkpoint();
            self.telemetry.event_struct("window", &metrics);
            self.telemetry.counter(
                "microsim.arrivals",
                metrics.arrivals.iter().sum::<usize>() as u64,
            );
            self.telemetry.counter(
                "microsim.completions",
                metrics.completions.iter().sum::<usize>() as u64,
            );
            #[allow(clippy::cast_precision_loss)]
            self.telemetry.gauge(
                "microsim.workflows_in_flight",
                self.cluster.workflows_in_flight() as f64,
            );
            let base_rate: f64 = self.config.arrival_rates.iter().sum();
            self.telemetry.event(
                "workload.target_rate",
                &[
                    ("window_index", Value::UInt(metrics.window_index as u64)),
                    (
                        "workload",
                        Value::String(self.config.workload.name().to_string()),
                    ),
                    ("factor", Value::Float(workload_factor)),
                    ("rate_per_sec", Value::Float(base_rate * workload_factor)),
                ],
            );
        }
        StepOutcome {
            state: wip.iter().map(|&w| w as f64).collect(),
            reward,
            metrics,
        }
    }

    /// Drains WIP close to zero by provisioning ample consumers, then winds
    /// the pools back down. Returns the post-reset state.
    ///
    /// Background arrivals are paused during the reset, which happens
    /// "outside" the measured decision timeline (the window index does not
    /// advance).
    pub fn reset(&mut self) -> Vec<f64> {
        let capacity = self.config.consumer_budget * RESET_CAPACITY_FACTOR;
        let targets = vec![capacity.max(1); self.num_task_types()];
        self.cluster.force_consumers(&targets);
        for _ in 0..RESET_MAX_WINDOWS {
            let horizon = self.cluster.now() + self.config.window;
            self.cluster.run_until(horizon);
            if self.cluster.total_wip() == 0 {
                break;
            }
        }
        // Wind the pools back down; the next step's action re-provisions.
        let zeros = vec![0; self.num_task_types()];
        self.cluster.set_consumers(&zeros);
        // Reset-period completions are not part of any window's metrics;
        // injected arrivals overtaken by the reset drop out of attribution.
        let _ = self.cluster.take_window_completions();
        let now = self.cluster.now();
        while matches!(self.injected_schedule.front(), Some(&(t, _)) if t <= now) {
            self.injected_schedule.pop_front();
        }
        self.state()
    }

    /// Checks the per-window metric vectors for length agreement: the
    /// task-type–indexed vectors must have `J` entries and the
    /// workflow-type–indexed ones `N`. A disagreement would make
    /// [`WindowMetrics::overall_mean_response_secs`] silently drop workflow
    /// types from its weighted mean, so it is flagged here at the source.
    fn audit_metrics(&mut self, metrics: &WindowMetrics) {
        if !(cfg!(debug_assertions) || self.cluster.audit_enabled()) {
            return;
        }
        let j = self.num_task_types();
        let n = self.num_workflow_types();
        let checks: [(&'static str, usize, usize); 5] = [
            ("wip", j, metrics.wip.len()),
            ("action_applied", j, metrics.action_applied.len()),
            ("arrivals", n, metrics.arrivals.len()),
            ("completions", n, metrics.completions.len()),
            ("mean_response_secs", n, metrics.mean_response_secs.len()),
        ];
        for (field, expected, actual) in checks {
            if expected != actual {
                self.cluster
                    .flag_metric_shape(metrics.window_index, field, expected, actual);
            }
        }
    }

    /// Invariant violations recorded so far by the audit layer (see
    /// [`Cluster::audit_violations`](crate::Cluster::audit_violations)).
    #[must_use]
    pub fn audit_violations(&self) -> &[crate::AuditViolation] {
        self.cluster.audit_violations()
    }

    /// Removes and returns the invariant violations recorded so far.
    pub fn take_audit_violations(&mut self) -> Vec<crate::AuditViolation> {
        self.cluster.take_audit_violations()
    }

    fn enforce_budget(&self, action: &[usize]) -> (Vec<usize>, bool) {
        let total: usize = action.iter().sum();
        let budget = self.config.consumer_budget;
        if total <= budget {
            return (action.to_vec(), false);
        }
        // Proportional scale-down with largest-remainder rounding: floor
        // each share, then hand the leftover consumers to the largest
        // fractional remainders (ties to the lowest index). Plain flooring
        // systematically wasted budget — [14, 14, 14, 14] at C = 14
        // floored to 3+3+3+3 = 12, a 14% under-allocation on every
        // clamped window — while largest-remainder always spends exactly
        // the budget and stays within one consumer of the exact
        // proportional share.
        #[allow(clippy::cast_precision_loss)]
        let scale = budget as f64 / total as f64;
        #[allow(clippy::cast_precision_loss)]
        let shares: Vec<f64> = action.iter().map(|&m| m as f64 * scale).collect();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let mut applied: Vec<usize> = shares.iter().map(|&s| s.floor() as usize).collect();
        let mut leftover = budget.saturating_sub(applied.iter().sum());
        let mut order: Vec<usize> = (0..shares.len()).collect();
        order.sort_by(|&a, &b| {
            let (fa, fb) = (shares[a] - shares[a].floor(), shares[b] - shares[b].floor());
            fb.partial_cmp(&fa)
                .expect("shares are finite")
                .then(a.cmp(&b))
        });
        for &i in &order {
            if leftover == 0 {
                break;
            }
            applied[i] += 1;
            leftover -= 1;
        }
        (applied, true)
    }

    /// Captures the environment's complete dynamic state (cluster, arrival
    /// RNG, window index, pending injected arrivals) for checkpointing.
    /// Telemetry attachment is not part of the snapshot; reattach with
    /// [`MicroserviceEnv::set_telemetry`] after restoring.
    #[must_use]
    pub fn snapshot(&self) -> EnvSnapshot {
        EnvSnapshot {
            cluster: self.cluster.snapshot(),
            config: self.config.clone(),
            arrival_rng_state: self.arrival_rng.state(),
            window_index: self.window_index,
            injected_schedule: self.injected_schedule.clone(),
        }
    }

    /// Rebuilds an environment from an [`EnvSnapshot`], continuing
    /// bit-identically with the run that produced it.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's config fails `EnvConfig::validate` or
    /// `ensemble` does not match the snapshot (wrong task-type or
    /// workflow-type count for this checkpoint).
    #[must_use]
    pub fn from_snapshot(ensemble: Ensemble, snapshot: EnvSnapshot) -> Self {
        if let Err(e) = snapshot.config.validate() {
            panic!("{e}");
        }
        assert_eq!(
            snapshot.config.arrival_rates.len(),
            ensemble.num_workflow_types(),
            "one arrival rate per workflow type"
        );
        MicroserviceEnv {
            cluster: Cluster::from_snapshot(ensemble, snapshot.cluster),
            config: snapshot.config,
            arrival_rng: SmallRng::from_state(snapshot.arrival_rng_state),
            window_index: snapshot.window_index,
            injected_schedule: snapshot.injected_schedule,
            trace_recorder: None,
            telemetry: Telemetry::noop(),
        }
    }
}

/// Serializable checkpoint of a [`MicroserviceEnv`]'s full dynamic state.
///
/// An opaque token: its only contract is that
/// [`MicroserviceEnv::from_snapshot`] resumes bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvSnapshot {
    cluster: ClusterSnapshot,
    config: EnvConfig,
    arrival_rng_state: [u64; 4],
    window_index: usize,
    injected_schedule: VecDeque<(SimTime, usize)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msd_env(seed: u64) -> MicroserviceEnv {
        let ensemble = Ensemble::msd();
        let config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
        MicroserviceEnv::new(ensemble, config)
    }

    /// A quiet environment: no background arrivals.
    fn quiet_env(seed: u64) -> MicroserviceEnv {
        let ensemble = Ensemble::msd();
        let config = EnvConfig {
            arrival_rates: vec![0.0; 3],
            ..EnvConfig::for_ensemble(&ensemble).with_seed(seed)
        };
        MicroserviceEnv::new(ensemble, config)
    }

    #[test]
    fn step_advances_one_window() {
        let mut env = msd_env(1);
        let before = env.cluster().now();
        let _ = env.step(&[4, 4, 4, 2]);
        assert_eq!(env.cluster().now() - before, SimTime::from_secs(30));
        assert_eq!(env.window_index(), 1);
    }

    #[test]
    fn reward_is_one_minus_total_wip() {
        let mut env = msd_env(2);
        let out = env.step(&[4, 4, 4, 2]);
        assert!((out.reward - (1.0 - out.metrics.total_wip() as f64)).abs() < 1e-12);
        assert_eq!(out.reward, reward_from_total_wip(out.state.iter().sum()));
    }

    #[test]
    fn telemetry_emits_one_window_event_per_step() {
        use telemetry::{JsonlSink, Recorder, Telemetry};
        let sink = JsonlSink::in_memory();
        let mut env = msd_env(12);
        env.set_telemetry(Telemetry::new(sink.clone()));
        let _ = env.step(&[4, 4, 4, 2]);
        let _ = env.step(&[4, 4, 4, 2]);
        Recorder::flush(&*sink);
        let text = String::from_utf8(sink.take_output()).unwrap();
        let windows = text
            .lines()
            .filter(|l| l.contains("\"name\":\"window\""))
            .count();
        assert_eq!(windows, 2);
        assert!(text.contains("\"desim.events_processed\""));
        assert!(text.contains("\"window_index\""));
    }

    #[test]
    fn telemetry_does_not_change_results() {
        let run = |with_telemetry: bool| {
            let mut env = msd_env(13);
            if with_telemetry {
                env.set_telemetry(telemetry::Telemetry::new(telemetry::JsonlSink::in_memory()));
            }
            env.reset();
            (0..6).map(|_| env.step(&[4, 4, 4, 2])).collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn wip_grows_without_consumers() {
        let mut env = msd_env(3);
        let mut last = 0usize;
        for _ in 0..5 {
            let out = env.step(&[0, 0, 0, 0]);
            let wip = out.metrics.total_wip();
            assert!(wip >= last, "WIP must be monotone with no capacity");
            last = wip;
        }
        assert!(last > 0, "arrivals should have accumulated WIP");
    }

    #[test]
    fn sufficient_capacity_keeps_wip_low() {
        let mut env = msd_env(4);
        env.reset();
        let mut total = 0usize;
        for _ in 0..10 {
            total = env.step(&[4, 4, 4, 2]).metrics.total_wip();
        }
        // Offered load ≈ 8.1 consumer-seconds/s vs 14 consumers: stable.
        assert!(total < 60, "WIP exploded: {total}");
    }

    #[test]
    fn reset_drains_wip() {
        let mut env = msd_env(5);
        // Pile up a burst with no capacity.
        env.inject_burst(&BurstSpec::new(vec![100, 100, 100]));
        let out = env.step(&[0, 0, 0, 0]);
        assert!(out.metrics.total_wip() >= 300);
        let state = env.reset();
        assert!(
            state.iter().sum::<f64>() <= 1.0,
            "reset left WIP: {state:?}"
        );
    }

    #[test]
    fn over_budget_action_is_clamped_proportionally() {
        let mut env = quiet_env(6);
        let out = env.step(&[14, 14, 14, 14]); // 56 > 14
        assert!(out.metrics.constraint_violated);
        let total: usize = out.metrics.action_applied.iter().sum();
        // Largest-remainder rounding spends the whole budget (the old
        // floor-only clamp produced [3, 3, 3, 3] = 12 of 14); equal
        // fractional remainders break ties toward the lowest index.
        assert_eq!(total, 14);
        assert_eq!(out.metrics.action_applied, vec![4, 4, 3, 3]);
    }

    /// Regression for the floor-bias bug: the clamp must allocate exactly
    /// the budget for *every* over-budget action, not just on average.
    /// The old floor-only scaling under-allocated on almost every clamped
    /// window (e.g. [5, 5, 5, 4] of a 14 budget from [10, 10, 10, 8]),
    /// a systematic capacity loss under sustained overload.
    #[test]
    fn budget_clamp_has_no_floor_bias() {
        use rand::Rng;
        let mut env = quiet_env(20);
        let budget = env.consumer_budget();
        let mut rng = SmallRng::seed_from_u64(99);
        let mut clamped_windows = 0usize;
        for _ in 0..40 {
            let action: Vec<usize> = (0..4).map(|_| rng.gen_range(0..30)).collect();
            let requested: usize = action.iter().sum();
            let out = env.step(&action);
            let applied = &out.metrics.action_applied;
            let total: usize = applied.iter().sum();
            if requested > budget {
                clamped_windows += 1;
                assert_eq!(total, budget, "clamp must spend the budget: {action:?}");
                // Each entry stays within one consumer of its exact
                // proportional share.
                for (i, (&m, &a)) in action.iter().zip(applied).enumerate() {
                    let share = m as f64 * budget as f64 / requested as f64;
                    assert!(
                        (a as f64 - share).abs() < 1.0 + 1e-9,
                        "entry {i} of {action:?}: applied {a} vs share {share}"
                    );
                }
            } else {
                assert_eq!(applied, &action);
            }
        }
        assert!(clamped_windows > 20, "the sweep should mostly over-ask");
    }

    /// Regression for the unchecked `as usize` Poisson cast: a huge
    /// rate × window × modulation product (up to infinity) used to panic
    /// in `Poisson::new("positive mean")`; now it clamps to the
    /// per-window ceiling and every conversion edge is explicit.
    #[test]
    fn poisson_count_conversion_is_checked_at_extreme_means() {
        let mut rng = SmallRng::seed_from_u64(7);
        // Non-positive and NaN means draw nothing and consume no RNG.
        let state = rng.state();
        assert_eq!(checked_poisson_count(0.0, &mut rng), 0);
        assert_eq!(checked_poisson_count(-3.0, &mut rng), 0);
        assert_eq!(checked_poisson_count(f64::NAN, &mut rng), 0);
        assert_eq!(rng.state(), state, "guards must not burn RNG draws");
        // Infinite and absurd finite means clamp instead of panicking
        // (the old code's Poisson::new(inf) panicked outright).
        for mean in [f64::INFINITY, f64::MAX, 1e300] {
            let n = checked_poisson_count(mean, &mut rng);
            let bound = 2.0 * MAX_WINDOW_ARRIVAL_MEAN;
            assert!(n > 0 && (n as f64) < bound, "mean {mean}: n = {n}");
        }
        // A sane mean still behaves like a Poisson draw.
        let n = checked_poisson_count(9.0, &mut rng);
        assert!(n < 100, "mean 9 drew {n}");
    }

    /// An extreme (but finite-mean) arrival rate must flow through the
    /// whole step path without panic or truncation.
    #[test]
    fn step_survives_extreme_arrival_rates() {
        let ensemble = Ensemble::msd();
        // ~1500 arrivals per 30 s window for type 0.
        let config = EnvConfig {
            arrival_rates: vec![50.0, 0.0, 0.0],
            ..EnvConfig::for_ensemble(&ensemble).with_seed(13)
        };
        let mut env = MicroserviceEnv::new(ensemble, config);
        let out = env.step(&[4, 4, 4, 2]);
        assert!(out.metrics.arrivals[0] > 1000);
        assert!(env.audit_violations().is_empty());
    }

    /// Regression for the window-boundary attribution bug: the engine's
    /// `pop_until(horizon)` executes events at `t <= horizon`, so an
    /// injected arrival landing exactly on a window's end boundary has its
    /// cluster effects in that window — but the old attribution loop broke
    /// at `t >= window_end` and counted it one window late, making the
    /// reported arrivals disagree with the WIP they caused.
    #[test]
    fn boundary_arrival_is_attributed_to_the_window_it_executes_in() {
        let mut env = quiet_env(30);
        let mut trace = ArrivalTrace::new();
        // Exactly on the end of the first window (30 s in trace time).
        trace.push(Arrival::new(SimTime::from_secs(30), WorkflowTypeId::new(0)));
        // Strictly inside the second window.
        trace.push(Arrival::new(SimTime::from_secs(31), WorkflowTypeId::new(1)));
        env.inject_trace(&trace);
        let w0 = env.step(&[0, 0, 0, 0]);
        assert_eq!(
            w0.metrics.arrivals,
            vec![1, 0, 0],
            "boundary arrival belongs to the window whose horizon executed it"
        );
        assert!(
            w0.metrics.total_wip() > 0,
            "its WIP is visible in the same window's state"
        );
        let w1 = env.step(&[0, 0, 0, 0]);
        assert_eq!(w1.metrics.arrivals, vec![0, 1, 0], "no double count");
        let w2 = env.step(&[0, 0, 0, 0]);
        assert_eq!(w2.metrics.arrivals, vec![0, 0, 0], "exactly one window");
    }

    /// An out-of-order trace (possible via hand-edited files) must land
    /// the same attribution as its sorted form: `record_injection` keeps
    /// the pending schedule time-sorted regardless of push order.
    #[test]
    fn out_of_order_trace_attribution_matches_sorted() {
        let arrivals = [(95u64, 2usize), (5, 0), (65, 1), (35, 0), (65, 2), (5, 1)];
        let run = |order: &[usize]| {
            let mut env = quiet_env(31);
            let mut trace = ArrivalTrace::new();
            for &i in order {
                let (secs, wf) = arrivals[i];
                trace.push(Arrival::new(
                    SimTime::from_secs(secs),
                    WorkflowTypeId::new(wf),
                ));
            }
            env.inject_trace(&trace);
            (0..4)
                .map(|_| env.step(&[4, 4, 4, 2]).metrics.arrivals)
                .collect::<Vec<_>>()
        };
        let shuffled = run(&[0, 1, 2, 3, 4, 5]);
        let sorted = run(&[1, 5, 3, 2, 4, 0]);
        assert_eq!(shuffled, sorted);
        assert_eq!(
            shuffled,
            vec![vec![1, 1, 0], vec![1, 0, 0], vec![0, 1, 1], vec![0, 0, 1],]
        );
    }

    #[test]
    fn recorded_trace_replays_burst_and_background() {
        // Record a run's arrivals, then inject them into a quiet env and
        // check per-window counts line up (the byte-identical round-trip
        // lives in tests/workload_roundtrip.rs).
        let mut env = msd_env(33);
        env.reset();
        env.record_trace();
        env.inject_burst(&BurstSpec::new(vec![5, 2, 0]));
        let original: Vec<_> = (0..3)
            .map(|_| env.step(&[4, 4, 4, 2]).metrics.arrivals)
            .collect();
        let trace = env.take_recorded_trace();
        assert_eq!(trace.len(), original.iter().flatten().sum::<usize>());

        let ensemble = Ensemble::msd();
        let config = EnvConfig {
            arrival_rates: vec![0.0; 3],
            ..EnvConfig::for_ensemble(&ensemble).with_seed(33)
        };
        let mut replay_env = MicroserviceEnv::new(ensemble, config);
        replay_env.reset();
        replay_env.inject_trace(&trace);
        let replayed: Vec<_> = (0..3)
            .map(|_| replay_env.step(&[4, 4, 4, 2]).metrics.arrivals)
            .collect();
        assert_eq!(replayed, original);
        // Taking again yields an empty trace; recording is one-shot.
        assert!(env.take_recorded_trace().is_empty());
    }

    /// An MSD config with the given background rates.
    fn rates_config(rates: Vec<f64>, seed: u64) -> EnvConfig {
        EnvConfig {
            arrival_rates: rates,
            ..EnvConfig::for_ensemble(&Ensemble::msd()).with_seed(seed)
        }
    }

    #[test]
    fn background_trace_rate_zero_emits_nothing() {
        let trace = background_trace(&rates_config(vec![0.0, 2.0, 0.0], 1), 2);
        let counts = trace.counts(3);
        assert_eq!((counts[0], counts[2]), (0, 0));
        assert!(counts[1] > 0);
    }

    #[test]
    fn background_trace_is_deterministic_for_fixed_seed() {
        let config = rates_config(vec![0.7, 0.3, 0.0], 42);
        assert_eq!(background_trace(&config, 7), background_trace(&config, 7));
        assert_ne!(
            background_trace(&config, 7),
            background_trace(&rates_config(vec![0.7, 0.3, 0.0], 43), 7)
        );
        // A shorter trace is a prefix of a longer one.
        let long = background_trace(&config, 7);
        let short = background_trace(&config, 3);
        assert_eq!(short.arrivals(), &long.arrivals()[..short.len()]);
    }

    #[test]
    fn background_trace_mean_is_close_to_rate() {
        let windows = 66; // 1 980 s
        let n = background_trace(&rates_config(vec![2.0, 0.0, 0.0], 9), windows).len() as f64;
        let expected = 2.0 * 30.0 * windows as f64;
        assert!((n - expected).abs() < 4.0 * expected.sqrt() + 1.0, "n={n}");
    }

    #[test]
    #[should_panic(expected = "arrival rates must be finite and non-negative")]
    fn background_trace_panics_on_a_negative_rate() {
        let _ = background_trace(&rates_config(vec![-1.0, 0.0, 0.0], 1), 1);
    }

    #[test]
    fn within_budget_action_untouched() {
        let mut env = quiet_env(7);
        let out = env.step(&[5, 4, 3, 2]);
        assert!(!out.metrics.constraint_violated);
        assert_eq!(out.metrics.action_applied, vec![5, 4, 3, 2]);
    }

    #[test]
    fn burst_is_visible_in_arrival_counts() {
        let mut env = quiet_env(9);
        env.inject_burst(&BurstSpec::new(vec![10, 20, 30]));
        let out = env.step(&[4, 4, 4, 2]);
        assert_eq!(out.metrics.arrivals, vec![10, 20, 30]);
    }

    #[test]
    fn completions_report_response_times() {
        let mut env = quiet_env(10);
        env.inject_burst(&BurstSpec::new(vec![3, 0, 0]));
        let mut completed = 0;
        for _ in 0..10 {
            let out = env.step(&[4, 4, 4, 2]);
            for (i, c) in out.metrics.completions.iter().enumerate() {
                if *c > 0 {
                    assert!(out.metrics.mean_response_secs[i].unwrap() > 0.0);
                }
                completed += c;
            }
        }
        assert_eq!(completed, 3);
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let run = |seed| {
            let mut env = msd_env(seed);
            env.reset();
            let mut states = Vec::new();
            for k in 0..8 {
                let a = [(k % 4) + 1, 3, 4, 2];
                states.push(env.step(&a).state);
            }
            states
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn env_snapshot_restore_resumes_bit_identically() {
        let ensemble = Ensemble::msd();
        let config = EnvConfig {
            sim: crate::SimConfig {
                failure_rate_per_hour: 10.0,
                ..crate::SimConfig::new(91)
            },
            ..EnvConfig::for_ensemble(&ensemble)
        };
        let mut env = MicroserviceEnv::new(ensemble, config);
        env.reset();
        for k in 0..4 {
            let _ = env.step(&[(k % 4) + 1, 3, 4, 2]);
        }
        // Leave injected arrivals pending across the snapshot boundary: they
        // are attributed to the first post-restore window.
        env.inject_burst(&BurstSpec::new(vec![5, 5, 5]));

        let json = serde_json::to_string(&env.snapshot()).unwrap();
        // Snapshots written while `SimConfig` still had a `queue` field carry
        // it in both embedded configs; either value must load and be ignored.
        let next_field = "\"node_speed_factors\"";
        assert_eq!(json.matches(next_field).count(), 2);
        let legacy =
            |kind: &str| json.replace(next_field, &format!("\"queue\":\"{kind}\",{next_field}"));
        let mut restored: Vec<MicroserviceEnv> = [json.clone(), legacy("Heap"), legacy("Wheel")]
            .iter()
            .map(|form| {
                let snap: EnvSnapshot = serde_json::from_str(form).unwrap();
                MicroserviceEnv::from_snapshot(Ensemble::msd(), snap)
            })
            .collect();

        for k in 0..6 {
            let a = [(k % 4) + 1, 3, 4, 2];
            let expected = env.step(&a);
            let expected_metrics = serde_json::to_string(&expected.metrics).unwrap();
            for (form, r) in restored.iter_mut().enumerate() {
                let got = r.step(&a);
                assert_eq!(got, expected, "window {k}, form {form}");
                assert_eq!(
                    serde_json::to_string(&got.metrics).unwrap(),
                    expected_metrics
                );
            }
        }
        for r in &restored {
            assert_eq!(env.snapshot(), r.snapshot());
        }
    }

    #[test]
    fn ligo_env_has_nine_dims() {
        let ensemble = Ensemble::ligo();
        let config = EnvConfig::for_ensemble(&ensemble).with_seed(11);
        let mut env = MicroserviceEnv::new(ensemble, config);
        let state = env.reset();
        assert_eq!(state.len(), 9);
        assert_eq!(env.consumer_budget(), 30);
        let out = env.step(&[4, 4, 4, 3, 3, 3, 3, 3, 3]);
        assert_eq!(out.state.len(), 9);
    }
}
