//! In-memory aggregating recorder rendered in the Prometheus text
//! exposition format.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::{Histogram, Recorder, Value};

/// A [`Recorder`] that keeps live aggregates in memory and renders them as
/// a plaintext `/metrics`-style page on demand.
///
/// The serving loop attaches one of these (usually fanned out alongside a
/// [`JsonlSink`](crate::JsonlSink) via
/// [`FanoutRecorder`](crate::FanoutRecorder)) and hands
/// [`ScrapeRecorder::render`] to its scrape endpoint. Events are not
/// retained — only counted (`telemetry_events_total`) — because the scrape
/// surface is for aggregates; the JSONL sink is the durable event log.
///
/// Metric names have `.` and `-` rewritten to `_` (Prometheus name
/// charset); histograms render in the standard `_bucket`/`_sum`/`_count`
/// triplet with cumulative `le` buckets.
///
/// # Examples
///
/// ```
/// use telemetry::{ScrapeRecorder, Telemetry};
///
/// let scrape = ScrapeRecorder::new();
/// let tel = Telemetry::new(scrape.clone());
/// tel.counter("serve.decisions", 3);
/// tel.gauge("serve.policy_version", 7.0);
/// let page = scrape.render();
/// assert!(page.contains("serve_decisions 3"));
/// assert!(page.contains("serve_policy_version 7"));
/// ```
pub struct ScrapeRecorder {
    state: Mutex<ScrapeState>,
}

#[derive(Default)]
struct ScrapeState {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    events: u64,
}

impl ScrapeRecorder {
    /// Creates an empty scrape surface.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(ScrapeRecorder {
            state: Mutex::new(ScrapeState::default()),
        })
    }

    /// Renders the current aggregates as a Prometheus text-format page.
    ///
    /// Output is deterministic for a given recorder state (sorted by metric
    /// name). Floats render via `{:?}`, which round-trips `f64` exactly.
    #[must_use]
    pub fn render(&self) -> String {
        let state = self.lock();
        let mut out = String::new();
        for (name, value) in &state.counters {
            let name = sanitize_name(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        out.push_str(&format!(
            "# TYPE telemetry_events_total counter\ntelemetry_events_total {}\n",
            state.events
        ));
        for (name, value) in &state.gauges {
            let name = sanitize_name(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", num(*value)));
        }
        for (name, hist) in &state.histograms {
            let name = sanitize_name(name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0;
            for (le, count) in hist.bounds().iter().zip(hist.bucket_counts()) {
                cumulative += count;
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                    num(*le)
                ));
            }
            out.push_str(&format!(
                "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
                hist.count(),
                num(hist.sum()),
                hist.count()
            ));
        }
        out
    }

    fn lock(&self) -> MutexGuard<'_, ScrapeState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Rewrites a dotted metric name into the Prometheus charset.
fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Prometheus number rendering: finite floats via `{:?}` (exact), the rest
/// as the spec's `NaN`/`+Inf`/`-Inf` spellings.
fn num(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_string()
    } else if value == f64::INFINITY {
        "+Inf".to_string()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{value:?}")
    }
}

impl Recorder for ScrapeRecorder {
    fn counter(&self, name: &str, delta: u64) {
        let mut state = self.lock();
        *state.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    fn gauge(&self, name: &str, value: f64) {
        let mut state = self.lock();
        state.gauges.insert(name.to_string(), value);
    }

    fn observe(&self, name: &str, value: f64) {
        let mut state = self.lock();
        state
            .histograms
            .entry(name.to_string())
            .or_insert_with(Histogram::default_time)
            .observe(value);
    }

    fn event(&self, _name: &str, _data: Value) {
        self.lock().events += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn renders_all_metric_kinds() {
        let scrape = ScrapeRecorder::new();
        let tel = Telemetry::new(scrape.clone());
        tel.counter("serve.decisions", 2);
        tel.counter("serve.decisions", 1);
        tel.gauge("serve.policy_version", 3.0);
        scrape
            .lock()
            .histograms
            .insert("serve.latency".into(), Histogram::new(&[0.001, 0.01]));
        tel.observe("serve.latency", 0.0005);
        tel.observe("serve.latency", 0.5);
        tel.event("decision", &[]);
        let page = scrape.render();
        assert!(page.contains("# TYPE serve_decisions counter\nserve_decisions 3\n"));
        assert!(page.contains("serve_policy_version 3.0\n"));
        assert!(page.contains("serve_latency_bucket{le=\"0.001\"} 1\n"));
        assert!(page.contains("serve_latency_bucket{le=\"+Inf\"} 2\n"));
        assert!(page.contains("serve_latency_count 2\n"));
        assert!(page.contains("telemetry_events_total 1\n"));
    }

    #[test]
    fn names_are_sanitized_to_the_prometheus_charset() {
        assert_eq!(
            sanitize_name("desim.wheel-cascades"),
            "desim_wheel_cascades"
        );
        assert_eq!(sanitize_name("ok_name:sub"), "ok_name:sub");
    }

    #[test]
    fn render_is_deterministic() {
        let scrape = ScrapeRecorder::new();
        let tel = Telemetry::new(scrape.clone());
        tel.gauge("b", 2.0);
        tel.gauge("a", 1.0);
        tel.counter("z", 9);
        assert_eq!(scrape.render(), scrape.render());
        let a = scrape.render().find("\na 1.0").unwrap();
        let b = scrape.render().find("\nb 2.0").unwrap();
        assert!(a < b, "gauges render sorted by name");
    }

    #[test]
    fn non_finite_values_render_per_spec() {
        let scrape = ScrapeRecorder::new();
        let tel = Telemetry::new(scrape.clone());
        tel.gauge("bad", f64::NAN);
        tel.gauge("hot", f64::INFINITY);
        let page = scrape.render();
        assert!(page.contains("bad NaN\n"));
        assert!(page.contains("hot +Inf\n"));
    }
}
