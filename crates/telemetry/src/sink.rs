//! Buffered JSON Lines recorder.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::{sanitize, Histogram, Recorder, Value, SCHEMA_VERSION};

/// How many buffered event lines trigger an early write-out.
const BUFFER_CAP: usize = 4096;

/// A [`Recorder`] that renders telemetry as JSON Lines.
///
/// Events are buffered as pre-formatted lines and written out when the
/// buffer fills or on [`Recorder::flush`]; counters, gauges and histograms
/// are aggregated in memory and emitted as summary rows at flush time (a
/// re-flush re-emits updated totals — consumers keep the last row per name).
///
/// Record shapes:
///
/// ```json
/// {"t":"event","seq":0,"name":"window","data":{...}}
/// {"t":"counter","name":"desim.events_processed","value":10290}
/// {"t":"gauge","name":"ddpg.sigma","value":0.18}
/// {"t":"hist","name":"nn.train_epoch","count":40,"sum":1.2,
///  "buckets":[{"le":0.001,"count":3},...,{"le":null,"count":40}]}
/// ```
///
/// `buckets` counts are cumulative (Prometheus `le` convention) and the
/// final `"le":null` entry is the `+Inf` bucket. Non-finite floats anywhere
/// are rendered as `null` (JSON has no `NaN`).
///
/// For file-backed sinks ([`JsonlSink::create`]) every flush also fsyncs
/// (`File::sync_all`), so records survive a crash of the process *or* the
/// machine once `flush` returns. In-run I/O errors are swallowed — telemetry
/// must never abort the run it observes — but the final flush in `Drop`
/// reports failures on stderr, and [`JsonlSink::try_flush`] exposes them to
/// callers that want to hard-fail.
pub struct JsonlSink {
    state: Mutex<SinkState>,
}

enum Output {
    /// A file plus buffering; flush fsyncs for crash durability.
    File(BufWriter<File>),
    Buffer(Vec<u8>),
}

struct SinkState {
    out: Output,
    lines: Vec<String>,
    seq: u64,
    dirty: bool,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl JsonlSink {
    fn with_output(out: Output) -> Arc<Self> {
        Arc::new(JsonlSink {
            state: Mutex::new(SinkState {
                out,
                lines: Vec::new(),
                seq: 0,
                dirty: false,
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                histograms: BTreeMap::new(),
            }),
        })
    }

    /// Creates a sink writing to the file at `path` (truncating it),
    /// creating parent directories as needed. File-backed sinks fsync on
    /// every flush, so flushed records survive crashes.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Arc<Self>> {
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        Ok(Self::with_output(Output::File(BufWriter::new(file))))
    }

    /// Creates a sink that accumulates its output in memory; retrieve it
    /// with [`JsonlSink::take_output`]. Intended for tests.
    #[must_use]
    pub fn in_memory() -> Arc<Self> {
        Self::with_output(Output::Buffer(Vec::new()))
    }

    /// Takes the bytes accumulated by an [`JsonlSink::in_memory`] sink
    /// (without flushing first — call [`Recorder::flush`] yourself).
    /// Returns an empty vector for file-backed sinks.
    #[must_use]
    pub fn take_output(&self) -> Vec<u8> {
        match &mut self.lock().out {
            Output::Buffer(buf) => std::mem::take(buf),
            Output::File(_) => Vec::new(),
        }
    }

    /// Like [`Recorder::flush`] but reporting I/O failures instead of
    /// swallowing them. For file-backed sinks a successful return means the
    /// data has reached the disk (`File::sync_all`), not just the kernel.
    ///
    /// # Errors
    ///
    /// Returns the first write, flush, or fsync error encountered.
    pub fn try_flush(&self) -> io::Result<()> {
        let mut state = self.lock();
        state.summary_rows();
        let write_res = state.write_lines();
        let sync_res = match &mut state.out {
            Output::File(w) => w.flush().and_then(|()| w.get_ref().sync_all()),
            Output::Buffer(_) => Ok(()),
        };
        state.dirty = false;
        write_res.and(sync_res)
    }

    /// Overrides the histogram bucket bounds for `name`. Must be called
    /// before the first observation of that histogram; later calls are
    /// ignored. Bounds must be finite and strictly increasing.
    pub fn set_buckets(&self, name: &str, bounds: &[f64]) {
        let mut state = self.lock();
        state
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds));
    }

    fn lock(&self) -> MutexGuard<'_, SinkState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Prefixes a record's fields with the `schema_version` stamp every JSONL
/// record carries (see [`SCHEMA_VERSION`]).
fn stamped(fields: Vec<(String, Value)>) -> Value {
    let mut row = Vec::with_capacity(fields.len() + 1);
    row.push((
        "schema_version".to_string(),
        Value::UInt(u64::from(SCHEMA_VERSION)),
    ));
    row.extend(fields);
    Value::Object(row)
}

impl SinkState {
    fn push_line(&mut self, value: Value) {
        if let Ok(line) = serde_json::to_string(&sanitize(value)) {
            self.lines.push(line);
        }
        self.dirty = true;
        if self.lines.len() >= BUFFER_CAP {
            let _ = self.write_lines();
        }
    }

    fn write_lines(&mut self) -> io::Result<()> {
        let out: &mut dyn Write = match &mut self.out {
            Output::File(w) => w,
            Output::Buffer(b) => b,
        };
        let mut result = Ok(());
        for line in self.lines.drain(..) {
            if let Err(e) = writeln!(out, "{line}") {
                if result.is_ok() {
                    result = Err(e);
                }
            }
        }
        result
    }

    fn summary_rows(&mut self) {
        let mut rows = Vec::new();
        for (name, value) in &self.counters {
            rows.push(stamped(vec![
                ("t".to_string(), Value::String("counter".to_string())),
                ("name".to_string(), Value::String(name.clone())),
                ("value".to_string(), Value::UInt(*value)),
            ]));
        }
        for (name, value) in &self.gauges {
            rows.push(stamped(vec![
                ("t".to_string(), Value::String("gauge".to_string())),
                ("name".to_string(), Value::String(name.clone())),
                ("value".to_string(), Value::Float(*value)),
            ]));
        }
        for (name, hist) in &self.histograms {
            let mut cumulative = 0;
            let mut buckets: Vec<Value> = hist
                .bounds()
                .iter()
                .zip(hist.bucket_counts())
                .map(|(le, n)| {
                    cumulative += n;
                    Value::Object(vec![
                        ("le".to_string(), Value::Float(*le)),
                        ("count".to_string(), Value::UInt(cumulative)),
                    ])
                })
                .collect();
            buckets.push(Value::Object(vec![
                ("le".to_string(), Value::Null),
                ("count".to_string(), Value::UInt(hist.count())),
            ]));
            rows.push(stamped(vec![
                ("t".to_string(), Value::String("hist".to_string())),
                ("name".to_string(), Value::String(name.clone())),
                ("count".to_string(), Value::UInt(hist.count())),
                ("sum".to_string(), Value::Float(hist.sum())),
                ("buckets".to_string(), Value::Array(buckets)),
            ]));
        }
        for row in rows {
            if let Ok(line) = serde_json::to_string(&sanitize(row)) {
                self.lines.push(line);
            }
        }
    }
}

impl Recorder for JsonlSink {
    fn counter(&self, name: &str, delta: u64) {
        let mut state = self.lock();
        *state.counters.entry(name.to_string()).or_insert(0) += delta;
        state.dirty = true;
    }

    fn gauge(&self, name: &str, value: f64) {
        let mut state = self.lock();
        state.gauges.insert(name.to_string(), value);
        state.dirty = true;
    }

    fn observe(&self, name: &str, value: f64) {
        let mut state = self.lock();
        state
            .histograms
            .entry(name.to_string())
            .or_insert_with(Histogram::default_time)
            .observe(value);
        state.dirty = true;
    }

    fn event(&self, name: &str, data: Value) {
        let mut state = self.lock();
        let seq = state.seq;
        state.seq += 1;
        state.push_line(stamped(vec![
            ("t".to_string(), Value::String("event".to_string())),
            ("seq".to_string(), Value::UInt(seq)),
            ("name".to_string(), Value::String(name.to_string())),
            ("data".to_string(), data),
        ]));
    }

    fn flush(&self) {
        let _ = self.try_flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if self.lock().dirty {
            if let Err(e) = self.try_flush() {
                eprintln!("telemetry: final flush failed, records may be lost: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn lines(sink: &JsonlSink) -> Vec<Value> {
        let bytes = sink.take_output();
        String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).expect("line parses as JSON"))
            .collect()
    }

    fn field<'a>(obj: &'a Value, key: &str) -> &'a Value {
        match obj {
            Value::Object(fields) => &fields.iter().find(|(k, _)| k == key).expect("field").1,
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn event_round_trips_through_json() {
        let sink = JsonlSink::in_memory();
        let tel = Telemetry::new(sink.clone());
        tel.event(
            "window",
            &[
                ("window_index", Value::UInt(3)),
                ("reward", Value::Float(-0.25)),
                ("label", Value::String("msd".to_string())),
            ],
        );
        tel.flush();
        let rows = lines(&sink);
        assert_eq!(rows.len(), 1);
        assert_eq!(field(&rows[0], "t"), &Value::String("event".to_string()));
        assert_eq!(field(&rows[0], "seq"), &Value::UInt(0));
        let data = field(&rows[0], "data");
        assert_eq!(field(data, "window_index"), &Value::UInt(3));
        assert_eq!(field(data, "reward"), &Value::Float(-0.25));
        assert_eq!(field(data, "label"), &Value::String("msd".to_string()));
    }

    #[test]
    fn float_payloads_round_trip_bit_exactly() {
        let sink = JsonlSink::in_memory();
        let tel = Telemetry::new(sink.clone());
        let awkward = 0.1 + 0.2; // 0.30000000000000004
        tel.event("e", &[("x", Value::Float(awkward))]);
        tel.flush();
        let rows = lines(&sink);
        match field(field(&rows[0], "data"), "x") {
            Value::Float(x) => assert_eq!(x.to_bits(), awkward.to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn aggregates_appear_as_summary_rows_on_flush() {
        let sink = JsonlSink::in_memory();
        let tel = Telemetry::new(sink.clone());
        tel.counter("events", 2);
        tel.counter("events", 3);
        tel.gauge("sigma", 0.5);
        sink.set_buckets("loss", &[1.0, 2.0]);
        tel.observe("loss", 0.5);
        tel.observe("loss", 1.5);
        tel.observe("loss", 9.0);
        tel.flush();
        let rows = lines(&sink);
        assert_eq!(rows.len(), 3);
        let counter = &rows[0];
        assert_eq!(field(counter, "t"), &Value::String("counter".to_string()));
        assert_eq!(field(counter, "value"), &Value::UInt(5));
        let gauge = &rows[1];
        assert_eq!(field(gauge, "value"), &Value::Float(0.5));
        let hist = &rows[2];
        assert_eq!(field(hist, "count"), &Value::UInt(3));
        // Cumulative le buckets: <=1 holds one, <=2 holds two, +Inf all three.
        let buckets = match field(hist, "buckets") {
            Value::Array(items) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(field(&buckets[0], "count"), &Value::UInt(1));
        assert_eq!(field(&buckets[1], "count"), &Value::UInt(2));
        assert_eq!(field(&buckets[2], "le"), &Value::Null);
        assert_eq!(field(&buckets[2], "count"), &Value::UInt(3));
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let sink = JsonlSink::in_memory();
        let tel = Telemetry::new(sink.clone());
        tel.event("e", &[("bad", Value::Float(f64::NAN))]);
        tel.gauge("g", f64::INFINITY);
        tel.flush();
        let rows = lines(&sink);
        assert_eq!(field(field(&rows[0], "data"), "bad"), &Value::Null);
        assert_eq!(field(&rows[1], "value"), &Value::Null);
    }

    #[test]
    fn file_backed_try_flush_persists_records() {
        let path = std::env::temp_dir().join("miras_telemetry_sink_flush_test.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        let tel = Telemetry::new(sink.clone());
        tel.event("tick", &[("n", Value::UInt(1))]);
        sink.try_flush().expect("flush + fsync succeeds");
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.contains("\"tick\""), "{contents}");
        drop(tel);
        drop(sink);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn event_sequence_numbers_increase() {
        let sink = JsonlSink::in_memory();
        let tel = Telemetry::new(sink.clone());
        for _ in 0..3 {
            tel.event("tick", &[]);
        }
        tel.flush();
        let rows = lines(&sink);
        let seqs: Vec<&Value> = rows.iter().map(|r| field(r, "seq")).collect();
        assert_eq!(seqs, [&Value::UInt(0), &Value::UInt(1), &Value::UInt(2)]);
    }
}
