//! The decision loop: observations in, decisions out, telemetry on the
//! side, hot-swap between windows — now deadline-bounded and
//! overload-aware.
//!
//! The hardening invariant: **every admitted window gets exactly one
//! decision** — normal, or degraded-fallback when the primary policy
//! misses its deadline — and every refused window gets exactly one typed
//! shed reply. The service never stalls a stream waiting for a slow
//! policy and never aborts one over a malformed line.

use std::fmt;
use std::io::{self, BufRead};
use std::sync::Arc;
use std::time::{Duration, Instant};

use baselines::Policy;
use telemetry::{Telemetry, Value};
use workflow::{BurstSpec, Ensemble};

use crate::admission::ServeCounters;
use crate::intake::Intake;
use crate::watcher::{CheckpointWatcher, LoadError, SwapOutcome};
use crate::wire::{parse_observation_line, DecisionRecord, WindowObservation, MAX_LINE_BYTES};

/// A fatal serving-loop error (I/O on the transport, not bad input — bad
/// input is skipped and counted, see `serve.wire_rejected`).
#[derive(Debug)]
pub enum ServeError {
    /// An I/O operation on the serving transport failed outright.
    Io {
        /// Which operation (`"accept"`, `"write_reply"`, ...).
        op: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// An I/O operation kept failing transiently until its retry budget
    /// ran out.
    RetryExhausted {
        /// Which operation.
        op: &'static str,
        /// Attempts made.
        attempts: u32,
        /// The final error.
        last: std::io::Error,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { op, source } => write!(f, "{op}: {source}"),
            ServeError::RetryExhausted { op, attempts, last } => {
                write!(f, "{op} failed after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Per-run decision-latency aggregates (microseconds), computed by exact
/// nearest-rank percentile over every decision the service made.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of decisions measured.
    pub count: usize,
    /// Median decision latency.
    pub p50_us: f64,
    /// 99th-percentile decision latency (the <1 ms budget is stated
    /// against this).
    pub p99_us: f64,
    /// Worst decision latency.
    pub max_us: f64,
}

impl LatencyStats {
    fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let rank = |p: f64| {
            let idx = ((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1) - 1;
            sorted[idx.min(sorted.len() - 1)]
        };
        Some(LatencyStats {
            count: sorted.len(),
            p50_us: rank(50.0),
            p99_us: rank(99.0),
            max_us: *sorted.last().expect("non-empty"),
        })
    }
}

/// The long-running decision service: one [`Policy`] behind a window
/// stream, with per-decision latency accounting, optional checkpoint
/// hot-swap, and optional deadline-bounded degradation.
///
/// [`DecisionService::handle`] is the entire per-window hot path: poll the
/// watcher (one `stat` while the checkpoint is unchanged; a swap happens
/// here, *between* windows, so no request is ever dropped or split across
/// policies), run the policy, enforce the decision deadline, record
/// telemetry, return the wire record. The watcher's content hash runs on
/// its own verifier thread, never in `handle`. Everything a
/// *normal* record contains is a pure function of the observation and the
/// policy — latency lives only in telemetry — which is what makes shadow
/// output byte-identical to batch replay. Degradation (deadline
/// enforcement with a fallback policy) is opt-in via
/// [`DecisionService::with_deadline`] + [`DecisionService::with_fallback`];
/// without both, every decision is the policy's own, however late.
pub struct DecisionService {
    policy: Box<dyn Policy>,
    fallback: Option<Box<dyn Policy>>,
    deadline: Option<Duration>,
    watcher: Option<CheckpointWatcher>,
    telemetry: Telemetry,
    counters: Arc<ServeCounters>,
    latencies_us: Vec<f64>,
    swaps: u64,
    injected_stall: Option<Duration>,
    expected_dims: Option<usize>,
}

impl DecisionService {
    /// Wraps a policy. Telemetry may be [`Telemetry::noop`].
    #[must_use]
    pub fn new(policy: Box<dyn Policy>, telemetry: Telemetry) -> Self {
        telemetry.gauge("serve.policy_version", policy.policy_version() as f64);
        DecisionService {
            policy,
            fallback: None,
            deadline: None,
            watcher: None,
            telemetry,
            counters: Arc::new(ServeCounters::default()),
            latencies_us: Vec::new(),
            swaps: 0,
            injected_stall: None,
            expected_dims: None,
        }
    }

    /// Attaches a checkpoint watcher; every subsequent window boundary
    /// polls it (a `stat`, see [`CheckpointWatcher::poll`]) and atomically
    /// swaps the policy when the file changes. The load runs on the
    /// decision thread, so the first window after a write is served by the
    /// new policy. A file whose policy has a different
    /// [`Policy::num_task_types`] than the serving one is a failed swap:
    /// the old policy keeps serving.
    #[must_use]
    pub fn with_watcher(mut self, watcher: CheckpointWatcher) -> Self {
        self.watcher = Some(watcher);
        self
    }

    /// Sets the per-window decision deadline. A primary decision whose
    /// (effective) latency exceeds it is replaced by the fallback policy's
    /// decision, stamped `degraded: true` — provided a fallback is attached;
    /// a deadline without a fallback only records the miss.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches the degraded-mode fallback policy (conventionally
    /// [`baselines::fallback`], i.e. `wip-proportional`).
    #[must_use]
    pub fn with_fallback(mut self, fallback: Box<dyn Policy>) -> Self {
        self.fallback = Some(fallback);
        self
    }

    /// Declares the WIP dimension the serving ensemble uses; observations
    /// of any other dimension are wire-rejected before they can reach a
    /// policy (whose input layer they would otherwise violate).
    #[must_use]
    pub fn with_expected_dims(mut self, dims: usize) -> Self {
        self.expected_dims = Some(dims);
        self
    }

    /// The active policy's name.
    #[must_use]
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// The active policy's version.
    #[must_use]
    pub fn policy_version(&self) -> u64 {
        self.policy.policy_version()
    }

    /// Number of successful hot-swaps so far.
    #[must_use]
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// The shared overload/robustness counters.
    #[must_use]
    pub fn counters(&self) -> Arc<ServeCounters> {
        self.counters.clone()
    }

    /// The intake this service's wire lines go through: its counters,
    /// telemetry, expected WIP dimension and policy name (which shed
    /// replies carry), detached so reader threads can share them.
    pub(crate) fn intake(&self) -> Intake {
        Intake {
            counters: self.counters.clone(),
            telemetry: self.telemetry.clone(),
            expected_dims: self.expected_dims,
            policy_name: self.policy.name().to_string(),
        }
    }

    /// Chaos hook: adds `stall` to the *next* decision's effective latency
    /// (accounting-only — no real sleep), forcing a deterministic deadline
    /// miss. Consumed by the next [`DecisionService::handle`].
    pub(crate) fn inject_stall(&mut self, stall: Duration) {
        self.injected_stall = Some(stall);
    }

    fn poll_watcher(&mut self, window: usize) {
        let Some(watcher) = &mut self.watcher else {
            return;
        };
        let started = Instant::now();
        let outcome = watcher.poll();
        // Probe + load time on the decision thread, reported with a swap.
        let load_ms = started.elapsed().as_secs_f64() * 1e3;
        let watcher_retries = watcher.take_retries();
        if watcher_retries > 0 {
            ServeCounters::bump(
                &self.counters.retries,
                watcher_retries,
                &self.telemetry,
                "serve.retries",
            );
        }
        // A policy over a different task-type count would panic on its
        // first decision: refuse it like any other unusable file.
        let outcome = match outcome {
            Some(SwapOutcome::Swapped { policy, .. })
                if policy.num_task_types() != self.policy.num_task_types() =>
            {
                Some(SwapOutcome::Failed(LoadError::TaskTypeMismatch {
                    serving: self.policy.num_task_types(),
                    loaded: policy.num_task_types(),
                }))
            }
            other => other,
        };
        match outcome {
            Some(SwapOutcome::Swapped { policy, version }) => {
                self.policy = policy;
                self.swaps += 1;
                self.telemetry.counter("serve.swaps", 1);
                self.telemetry.gauge("serve.policy_version", version as f64);
                self.telemetry.event(
                    "serve.swap",
                    &[
                        ("window", Value::UInt(window as u64)),
                        ("policy_version", Value::UInt(version)),
                        ("load_ms", Value::Float(load_ms)),
                    ],
                );
            }
            Some(SwapOutcome::Failed(e)) => {
                self.telemetry.counter("serve.swap_failures", 1);
                self.telemetry.event(
                    "serve.swap_failed",
                    &[
                        ("window", Value::UInt(window as u64)),
                        ("error", Value::String(e.to_string())),
                        ("load_ms", Value::Float(load_ms)),
                    ],
                );
            }
            None => {}
        }
    }

    /// Processes one admitted window: hot-swap check, decision, deadline
    /// enforcement, telemetry. Always returns exactly one record.
    ///
    /// The hot-swap check is a `stat` of the watched checkpoint and an
    /// atomic load. Only a changed file (or one the watcher's background
    /// verifier flagged) costs a read, hash and load here; the
    /// `serve.swap` / `serve.swap_failed` events report that time as
    /// `load_ms`.
    pub fn handle(&mut self, obs: &WindowObservation) -> DecisionRecord {
        self.poll_watcher(obs.window);
        let decision = self.policy.decide(&obs.observation());
        let mut effective = decision.latency;
        if let Some(stall) = self.injected_stall.take() {
            effective = effective.saturating_add(stall);
        }
        self.telemetry.counter("serve.decisions", 1);
        self.telemetry
            .observe("serve.decision_latency", effective.as_secs_f64());

        let missed = self.deadline.is_some_and(|d| effective > d);
        if missed {
            if let Some(fallback) = &mut self.fallback {
                let fb = fallback.decide(&obs.observation());
                ServeCounters::bump(
                    &self.counters.degraded,
                    1,
                    &self.telemetry,
                    "serve.degraded",
                );
                self.telemetry.event(
                    "serve.degraded",
                    &[
                        ("window", Value::UInt(obs.window as u64)),
                        ("latency_us", Value::Float(effective.as_secs_f64() * 1e6)),
                        (
                            "deadline_us",
                            Value::Float(
                                self.deadline.expect("missed implies set").as_secs_f64() * 1e6,
                            ),
                        ),
                    ],
                );
                return DecisionRecord::degraded(
                    obs.window,
                    fallback.name(),
                    fallback.policy_version(),
                    fb.allocations,
                );
            }
            // Deadline without fallback: note the miss, serve the late
            // decision anyway (late beats never when there is no plan B).
            self.telemetry.counter("serve.deadline_misses", 1);
        }
        // The p99 gate is stated over admitted, non-degraded decisions.
        self.latencies_us.push(effective.as_secs_f64() * 1e6);
        DecisionRecord::normal(
            obs.window,
            self.policy.name(),
            decision.policy_version,
            decision.allocations,
        )
    }

    /// Serves one line stream in lockstep: reads a line, decides it,
    /// hands the record to `emit`, then reads the next. Lines go through
    /// the same intake as socket clients (this stream is client 0), so a
    /// line is bounded at [`MAX_LINE_BYTES`] while it is read, and blank,
    /// malformed, non-UTF-8 or oversized lines are skipped and counted,
    /// never fatal. Nothing is queued, so nothing is shed.
    ///
    /// # Errors
    ///
    /// The first error `emit` returns, or a read error that outlasted the
    /// bounded retry.
    pub fn lockstep(
        &mut self,
        input: impl BufRead,
        mut emit: impl FnMut(DecisionRecord) -> io::Result<()>,
    ) -> io::Result<()> {
        let intake = self.intake();
        for obs in intake.observations(0, input) {
            let obs = obs.map_err(|exhausted| exhausted.last)?;
            emit(self.handle(&obs))?;
        }
        Ok(())
    }

    /// Runs a whole JSONL stream through [`DecisionService::lockstep`],
    /// returning one record per observation line. Malformed lines are
    /// skipped and counted, never fatal.
    pub fn handle_stream(&mut self, text: &str) -> Vec<DecisionRecord> {
        let mut records = Vec::new();
        self.lockstep(text.as_bytes(), |record| {
            records.push(record);
            Ok(())
        })
        .expect("an in-memory stream reads and collects without error");
        records
    }

    /// Latency aggregates over every non-degraded decision so far (`None`
    /// before the first decision).
    #[must_use]
    pub fn latency_stats(&self) -> Option<LatencyStats> {
        LatencyStats::from_samples(&self.latencies_us)
    }

    /// Publishes final latency gauges (`serve.latency_p99_us` et al.),
    /// forces the overload counters to appear in the output even when zero
    /// (so a stream check can assert their presence on healthy runs too),
    /// and flushes the telemetry sink.
    pub fn finish(&self) {
        if let Some(stats) = self.latency_stats() {
            self.telemetry.gauge("serve.latency_p50_us", stats.p50_us);
            self.telemetry.gauge("serve.latency_p99_us", stats.p99_us);
            self.telemetry.gauge("serve.latency_max_us", stats.max_us);
        }
        for name in [
            "serve.shed",
            "serve.degraded",
            "serve.wire_rejected",
            "serve.retries",
            "serve.disconnects",
            "serve.dropped_replies",
        ] {
            // Delta 0 materialises the row without changing the total.
            self.telemetry.counter(name, 0);
        }
        self.telemetry.flush();
    }
}

/// Batch-replays a JSONL observation stream through a bare policy — no
/// service machinery, no telemetry, no watcher. This is the reference the
/// shadow-mode determinism proof compares against: if the streaming
/// service's records differ from this in a single byte, the serving layer
/// changed the numerics. Malformed lines are skipped by exactly the same
/// rule the service uses, so the proof also holds for streams carrying
/// wire noise.
pub fn replay_stream(policy: &mut dyn Policy, text: &str) -> Vec<DecisionRecord> {
    let mut records = Vec::new();
    for line in text.lines() {
        let Ok(Some(obs)) = parse_observation_line(line, MAX_LINE_BYTES, None) else {
            continue;
        };
        let decision = policy.decide(&obs.observation());
        records.push(DecisionRecord::normal(
            obs.window,
            policy.name(),
            decision.policy_version,
            decision.allocations,
        ));
    }
    records
}

/// Generates a realistic observation stream by driving the cluster
/// emulator with `policy` for `windows` windows (optionally front-loading
/// `burst`), through the same [`baselines::run_episode`] as the bench
/// harness. Each emitted observation carries the previous window's
/// metrics, so replaying the stream gives adaptive baselines the same
/// inputs they would see live.
#[must_use]
pub fn record_stream(
    ensemble: &Ensemble,
    seed: u64,
    windows: usize,
    burst: Option<&BurstSpec>,
    policy: &mut dyn Policy,
) -> Vec<WindowObservation> {
    use microsim::{EnvConfig, MicroserviceEnv};

    let config = EnvConfig::for_ensemble(ensemble).with_seed(seed);
    let mut env = MicroserviceEnv::new(ensemble.clone(), config);
    let mut observations = Vec::with_capacity(windows);
    baselines::run_episode(&mut env, burst, windows, policy, |obs, _, _| {
        observations.push(WindowObservation {
            window: obs.window_index,
            wip: obs.wip.to_vec(),
            metrics: obs.previous.cloned(),
        });
    })
    .expect("a stationary workload has no trace to load");
    observations
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::{by_name, PolicyConfig};
    use std::sync::atomic::Ordering;

    fn uniform() -> Box<dyn Policy> {
        by_name("uniform", &PolicyConfig::new(&Ensemble::msd())).unwrap()
    }

    #[test]
    fn service_emits_one_record_per_line() {
        let mut svc = DecisionService::new(uniform(), Telemetry::noop());
        let stream = "{\"window\":0,\"wip\":[1.0,2.0,3.0,4.0]}\n\n{\"window\":1,\"wip\":[0.0,0.0,0.0,0.0]}\n";
        let records = svc.handle_stream(stream);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].window, 0);
        assert_eq!(records[1].window, 1);
        assert_eq!(records[0].policy, "uniform");
        let stats = svc.latency_stats().unwrap();
        assert_eq!(stats.count, 2);
        assert!(stats.p99_us >= stats.p50_us);
    }

    #[test]
    fn malformed_lines_are_skipped_and_counted_not_fatal() {
        let mut svc = DecisionService::new(uniform(), Telemetry::noop());
        let stream = "{\"window\":0,\"wip\":[1.0]}\nnot json\n{\"window\":1,\"wip\":[2.0]}\n";
        let records = svc.handle_stream(stream);
        assert_eq!(records.len(), 2, "good lines around the bad one survive");
        assert_eq!(records[0].window, 0);
        assert_eq!(records[1].window, 1);
        assert_eq!(svc.counters().wire_rejected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn wrong_dimension_observations_are_rejected_when_dims_declared() {
        let mut svc = DecisionService::new(uniform(), Telemetry::noop()).with_expected_dims(4);
        let stream = "{\"window\":0,\"wip\":[1.0,2.0]}\n{\"window\":1,\"wip\":[1.0,2.0,3.0,4.0]}\n";
        let records = svc.handle_stream(stream);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].window, 1);
        assert_eq!(svc.counters().wire_rejected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn service_matches_bare_replay() {
        let stream =
            "{\"window\":0,\"wip\":[5.0,0.0,3.0,1.0]}\n{\"window\":1,\"wip\":[2.0,2.0,2.0,2.0]}\n";
        let mut svc = DecisionService::new(uniform(), Telemetry::noop());
        let live = svc.handle_stream(stream);
        let batch = replay_stream(uniform().as_mut(), stream);
        assert_eq!(live, batch);
        let live_bytes: Vec<String> = live.iter().map(DecisionRecord::to_line).collect();
        let batch_bytes: Vec<String> = batch.iter().map(DecisionRecord::to_line).collect();
        assert_eq!(live_bytes, batch_bytes);
    }

    #[test]
    fn replay_skips_malformed_lines_by_the_same_rule_as_the_service() {
        let stream = "garbage\n{\"window\":0,\"wip\":[5.0,0.0,3.0,1.0]}\n{bad\n";
        let mut svc = DecisionService::new(uniform(), Telemetry::noop());
        let live = svc.handle_stream(stream);
        let batch = replay_stream(uniform().as_mut(), stream);
        assert_eq!(live, batch);
        assert_eq!(live.len(), 1);
    }

    #[test]
    fn injected_stall_past_deadline_degrades_to_fallback() {
        let cfg = PolicyConfig::new(&Ensemble::msd());
        let mut svc = DecisionService::new(by_name("uniform", &cfg).unwrap(), Telemetry::noop())
            .with_deadline(Duration::from_micros(1000))
            .with_fallback(baselines::fallback(&cfg));
        let obs = WindowObservation {
            window: 3,
            wip: vec![8.0, 0.0, 1.0, 1.0],
            metrics: None,
        };
        // Normal window: primary answers.
        let normal = svc.handle(&obs);
        assert!(!normal.degraded);
        assert_eq!(normal.policy, "uniform");

        // Stalled window: deterministic deadline miss, fallback answers.
        svc.inject_stall(Duration::from_millis(50));
        let degraded = svc.handle(&obs);
        assert!(degraded.degraded);
        assert_eq!(degraded.policy, baselines::FALLBACK_POLICY);
        assert!(degraded.is_actionable());
        assert!(!degraded.allocations.is_empty());
        assert_eq!(svc.counters().degraded.load(Ordering::Relaxed), 1);

        // The degraded allocation is the fallback's own answer.
        let mut bare = baselines::fallback(&cfg);
        let expect = bare.decide(&obs.observation());
        assert_eq!(degraded.allocations, expect.allocations);

        // Degraded windows stay out of the p99 gate's sample set.
        assert_eq!(svc.latency_stats().unwrap().count, 1);

        // The stall is one-shot: the next window is normal again.
        let after = svc.handle(&obs);
        assert!(!after.degraded);
    }

    #[test]
    fn deadline_without_fallback_serves_late_and_counts_the_miss() {
        let mut svc = DecisionService::new(uniform(), Telemetry::noop())
            .with_deadline(Duration::from_micros(1));
        svc.inject_stall(Duration::from_millis(10));
        let obs = WindowObservation {
            window: 0,
            wip: vec![1.0, 1.0, 1.0, 1.0],
            metrics: None,
        };
        let record = svc.handle(&obs);
        assert!(
            !record.degraded,
            "no fallback attached, late decision served"
        );
        assert_eq!(record.policy, "uniform");
    }

    #[test]
    fn finish_materialises_zero_counters_for_the_checker() {
        let sink = telemetry::JsonlSink::in_memory();
        let svc = DecisionService::new(uniform(), Telemetry::new(sink.clone()));
        svc.finish();
        let text = String::from_utf8(sink.take_output()).unwrap();
        for name in [
            "serve.shed",
            "serve.degraded",
            "serve.wire_rejected",
            "serve.retries",
        ] {
            assert!(
                text.contains(&format!("\"{name}\"")),
                "missing {name} in {text}"
            );
        }
    }

    #[test]
    fn recorded_stream_has_metrics_after_first_window() {
        let obs = record_stream(&Ensemble::msd(), 7, 3, None, uniform().as_mut());
        assert_eq!(obs.len(), 3);
        assert!(obs[0].metrics.is_none());
        assert!(obs[1].metrics.is_some());
        assert!(obs[2].metrics.is_some());
        assert_eq!(obs[0].wip.len(), 4);
    }

    #[test]
    fn latency_percentiles_are_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let stats = LatencyStats::from_samples(&samples).unwrap();
        assert_eq!(stats.p50_us, 50.0);
        assert_eq!(stats.p99_us, 99.0);
        assert_eq!(stats.max_us, 100.0);
        assert!(LatencyStats::from_samples(&[]).is_none());
    }
}
