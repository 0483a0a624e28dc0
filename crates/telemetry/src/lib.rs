//! Unified observability layer for the MIRAS workspace.
//!
//! Every layer of the stack — the discrete-event engine, the cluster
//! emulator, the neural-network core, the DDPG learner and the Algorithm 2
//! trainer — reports what it is doing through one small vocabulary:
//!
//! * **counters** — monotone totals (`desim.events_processed`,
//!   `ddpg.train_steps`, `refine.lend_triggers`);
//! * **gauges** — last-value samples (`ddpg.sigma`, `desim.pending`);
//! * **histograms** — fixed-bucket distributions, used for span timings and
//!   loss distributions;
//! * **span timers** — RAII guards that observe their elapsed wall time into
//!   a histogram on drop;
//! * **structured events** — named JSON records (one per decision window,
//!   per training epoch, per Algorithm 2 iteration) that figure binaries
//!   replay to produce their tables.
//!
//! All of it funnels through the [`Recorder`] trait. Call sites hold a
//! cheap, cloneable [`Telemetry`] handle; the default handle is disabled
//! ([`Telemetry::noop`]) and every recording method then reduces to a single
//! branch on an `Option` — no allocation, no formatting, no clock reads.
//! Instrumentation is **deterministic-neutral** by construction: recorders
//! only observe values the computation already produced, never feed anything
//! back, and never touch an RNG, so results are bit-identical with recording
//! on or off.
//!
//! The one bundled production recorder is [`JsonlSink`], which buffers
//! events as JSON Lines and emits aggregate counter/gauge/histogram rows on
//! [`Telemetry::flush`].

#![warn(missing_docs)]

mod buffer;
mod histogram;
mod scrape;
mod sink;

pub use buffer::BufferedRecorder;
pub(crate) use histogram::Histogram;
pub use scrape::ScrapeRecorder;
pub use sink::JsonlSink;

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Re-export of the vendored dynamic value type used for event fields.
pub use serde::value::Value;

/// Version of the telemetry record schema. Stamped as a `schema_version`
/// field on every JSONL record [`JsonlSink`] writes and checked by the
/// tests' stream-shape rules, so the file sink and the scrape endpoint
/// share one documented, versioned schema. Bump whenever a record shape
/// changes incompatibly.
pub const SCHEMA_VERSION: u32 = 1;

/// Sink interface implemented by telemetry back-ends.
///
/// Implementations must be thread-safe: the nn thread pool and sharded DDPG
/// gradient workers may record concurrently.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the named monotone counter.
    fn counter(&self, name: &str, delta: u64);

    /// Sets the named gauge to `value` (last write wins).
    fn gauge(&self, name: &str, value: f64);

    /// Records `value` into the named histogram.
    fn observe(&self, name: &str, value: f64);

    /// Records a structured event with the given payload.
    fn event(&self, name: &str, data: Value);

    /// Writes out any buffered state. Called at the end of a run.
    fn flush(&self) {}
}

/// Cheap cloneable handle through which instrumented code records.
///
/// A disabled handle (`Telemetry::noop()`, also the `Default`) carries no
/// recorder; every method then early-returns after one branch. Use
/// [`Telemetry::is_enabled`] to guard construction of expensive payloads
/// (e.g. serialising a whole metrics struct, or walking network weights to
/// measure target divergence).
///
/// # Examples
///
/// ```
/// use telemetry::{JsonlSink, Telemetry};
///
/// let noop = Telemetry::noop();
/// noop.counter("events", 3); // one branch, nothing recorded
///
/// let sink = JsonlSink::in_memory();
/// let tel = Telemetry::new(sink.clone());
/// tel.counter("events", 3);
/// tel.flush();
/// let text = String::from_utf8(sink.take_output()).unwrap();
/// assert!(text.contains("\"events\""));
/// ```
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<dyn Recorder>>,
}

impl Telemetry {
    /// A disabled handle: all recording methods are single-branch no-ops.
    #[must_use]
    pub fn noop() -> Self {
        Telemetry { inner: None }
    }

    /// Wraps a recorder.
    #[must_use]
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        Telemetry {
            inner: Some(recorder),
        }
    }

    /// Whether a recorder is attached. Guard expensive payload construction
    /// with this; the recording methods already guard themselves.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to a monotone counter.
    #[inline]
    pub fn counter(&self, name: &str, delta: u64) {
        if let Some(r) = &self.inner {
            r.counter(name, delta);
        }
    }

    /// Sets a gauge (last write wins).
    #[inline]
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(r) = &self.inner {
            r.gauge(name, value);
        }
    }

    /// Records a histogram observation.
    #[inline]
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(r) = &self.inner {
            r.observe(name, value);
        }
    }

    /// Records a structured event from explicit fields.
    ///
    /// Fields are only materialised into a [`Value`] when enabled, but the
    /// caller still pays for building the slice; wrap genuinely expensive
    /// field computation in [`Telemetry::is_enabled`].
    #[inline]
    pub fn event(&self, name: &str, fields: &[(&str, Value)]) {
        if let Some(r) = &self.inner {
            let data = Value::Object(
                fields
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), v.clone()))
                    .collect(),
            );
            r.event(name, data);
        }
    }

    /// Records a structured event from an already-built [`Value`] payload
    /// (the replay path of [`BufferedRecorder`]; prefer
    /// [`Telemetry::event`] / [`Telemetry::event_struct`] at call sites).
    #[inline]
    pub(crate) fn event_value(&self, name: &str, data: Value) {
        if let Some(r) = &self.inner {
            r.event(name, data);
        }
    }

    /// Records a structured event whose payload is any `Serialize` type
    /// (e.g. a whole `WindowMetrics` or `IterationReport`).
    ///
    /// Serialisation only happens when a recorder is attached. Payloads that
    /// fail to serialise are dropped silently — telemetry must never abort
    /// the computation it observes.
    #[inline]
    pub fn event_struct<T: serde::Serialize>(&self, name: &str, payload: &T) {
        if let Some(r) = &self.inner {
            if let Ok(data) = serde::value::to_value(payload) {
                r.event(name, data);
            }
        }
    }

    /// Starts a span timer that observes its elapsed seconds into the
    /// histogram `name` when dropped. Disabled handles never read the clock.
    #[inline]
    #[must_use]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span {
            telemetry: self,
            name,
            start: self.inner.as_ref().map(|_| Instant::now()),
        }
    }

    /// Flushes the underlying recorder, if any.
    pub fn flush(&self) {
        if let Some(r) = &self.inner {
            r.flush();
        }
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// RAII wall-clock timer produced by [`Telemetry::span`].
///
/// Observes `elapsed_secs` into the named histogram on drop. Timings are
/// observability-only — they never influence simulation or training state —
/// so spans cannot break determinism even though wall time varies run to
/// run.
#[derive(Debug)]
pub struct Span<'a> {
    telemetry: &'a Telemetry,
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.telemetry
                .observe(self.name, start.elapsed().as_secs_f64());
        }
    }
}

/// A [`Recorder`] that forwards every call to several recorders.
///
/// Lets one instrumented computation feed both a durable [`JsonlSink`] and
/// a live [`ScrapeRecorder`] (the pattern `miras-serve` uses: decisions are
/// logged to disk *and* visible on the metrics endpoint).
pub struct FanoutRecorder {
    targets: Vec<Arc<dyn Recorder>>,
}

impl FanoutRecorder {
    /// Builds a fanout over the given recorders; calls are forwarded in
    /// order.
    #[must_use]
    pub fn new(targets: Vec<Arc<dyn Recorder>>) -> Arc<Self> {
        Arc::new(FanoutRecorder { targets })
    }
}

impl Recorder for FanoutRecorder {
    fn counter(&self, name: &str, delta: u64) {
        for t in &self.targets {
            t.counter(name, delta);
        }
    }

    fn gauge(&self, name: &str, value: f64) {
        for t in &self.targets {
            t.gauge(name, value);
        }
    }

    fn observe(&self, name: &str, value: f64) {
        for t in &self.targets {
            t.observe(name, value);
        }
    }

    fn event(&self, name: &str, data: Value) {
        for t in &self.targets {
            t.event(name, data.clone());
        }
    }

    fn flush(&self) {
        for t in &self.targets {
            t.flush();
        }
    }
}

/// Replaces non-finite floats with `Null` anywhere in a value tree.
///
/// The vendored `serde_json` (like real JSON) rejects `NaN`/`±inf`;
/// diagnostics containing them (e.g. a diverged loss) must still serialise.
#[must_use]
pub(crate) fn sanitize(value: Value) -> Value {
    match value {
        Value::Float(f) if !f.is_finite() => Value::Null,
        Value::Array(items) => Value::Array(items.into_iter().map(sanitize).collect()),
        Value::Object(fields) => {
            Value::Object(fields.into_iter().map(|(k, v)| (k, sanitize(v))).collect())
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_is_disabled_and_inert() {
        let t = Telemetry::noop();
        assert!(!t.is_enabled());
        t.counter("c", 1);
        t.gauge("g", 1.0);
        t.observe("h", 1.0);
        t.event("e", &[("x", Value::UInt(1))]);
        t.flush();
        let span = t.span("s");
        assert!(
            span.start.is_none(),
            "disabled span must not read the clock"
        );
    }

    #[test]
    fn default_is_noop() {
        assert!(!Telemetry::default().is_enabled());
    }

    #[test]
    fn fanout_reaches_every_target() {
        let sink = JsonlSink::in_memory();
        let scrape = ScrapeRecorder::new();
        let tel = Telemetry::new(FanoutRecorder::new(vec![sink.clone(), scrape.clone()]));
        tel.counter("c", 4);
        tel.event("e", &[("x", Value::UInt(1))]);
        tel.flush();
        let text = String::from_utf8(sink.take_output()).unwrap();
        assert!(text.contains("\"c\""), "{text}");
        assert!(text.contains("\"e\""), "{text}");
        assert!(scrape.render().contains("c 4\n"));
    }

    #[test]
    fn every_jsonl_record_is_schema_stamped() {
        let sink = JsonlSink::in_memory();
        let tel = Telemetry::new(sink.clone());
        tel.event("e", &[]);
        tel.counter("c", 1);
        tel.gauge("g", 0.5);
        tel.observe("h", 0.25);
        tel.flush();
        let text = String::from_utf8(sink.take_output()).unwrap();
        let rows: Vec<&str> = text.lines().collect();
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert!(
                row.starts_with(&format!("{{\"schema_version\":{SCHEMA_VERSION},")),
                "unstamped record: {row}"
            );
        }
    }

    #[test]
    fn sanitize_strips_non_finite_floats() {
        let v = Value::Object(vec![
            ("ok".to_string(), Value::Float(1.5)),
            ("nan".to_string(), Value::Float(f64::NAN)),
            (
                "nested".to_string(),
                Value::Array(vec![Value::Float(f64::INFINITY), Value::Int(-2)]),
            ),
        ]);
        let s = sanitize(v);
        assert_eq!(
            s,
            Value::Object(vec![
                ("ok".to_string(), Value::Float(1.5)),
                ("nan".to_string(), Value::Null),
                (
                    "nested".to_string(),
                    Value::Array(vec![Value::Null, Value::Int(-2)]),
                ),
            ])
        );
    }
}
