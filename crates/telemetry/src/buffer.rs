//! Deterministic buffering recorder for parallel fan-out.
//!
//! When independent work items (e.g. the benchmark's scenario × algorithm
//! grid cells) run on worker threads that all want to record telemetry, the
//! interleaving of their records in a shared sink depends on scheduling. A
//! [`BufferedRecorder`] gives each work item a private, ordered capture of
//! everything it recorded; after the threads join, the captures are replayed
//! into the real sink in a deterministic order, making the final output
//! independent of how many workers ran.

use std::sync::Mutex;

use crate::{Recorder, Telemetry, Value};

/// One buffered telemetry record, in the order it was made.
#[derive(Debug, Clone, PartialEq)]
enum Record {
    Counter(String, u64),
    Gauge(String, f64),
    Observe(String, f64),
    Event(String, Value),
}

/// A [`Recorder`] that captures records in order instead of emitting them,
/// for later [`replay`](BufferedRecorder::replay) into a real sink.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use telemetry::{BufferedRecorder, JsonlSink, Telemetry};
///
/// let buf = Arc::new(BufferedRecorder::new());
/// let tel = Telemetry::new(buf.clone());
/// tel.counter("cell.work", 2);
/// tel.event("cell.done", &[("id", telemetry::Value::UInt(7))]);
///
/// let sink = JsonlSink::in_memory();
/// buf.replay(&Telemetry::new(sink.clone()));
/// sink.try_flush().unwrap();
/// let out = String::from_utf8(sink.take_output()).unwrap();
/// assert!(out.contains("cell.done"));
/// ```
#[derive(Debug, Default)]
pub struct BufferedRecorder {
    records: Mutex<Vec<Record>>,
}

impl BufferedRecorder {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        BufferedRecorder::default()
    }

    /// Replays every captured record, in capture order, into `target`.
    /// The buffer is left empty.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the buffer lock.
    pub fn replay(&self, target: &Telemetry) {
        let records = std::mem::take(&mut *self.records.lock().expect("buffer poisoned"));
        for record in records {
            match record {
                Record::Counter(name, delta) => target.counter(&name, delta),
                Record::Gauge(name, value) => target.gauge(&name, value),
                Record::Observe(name, value) => target.observe(&name, value),
                Record::Event(name, data) => target.event_value(&name, data),
            }
        }
    }

    fn push(&self, record: Record) {
        self.records.lock().expect("buffer poisoned").push(record);
    }
}

impl Recorder for BufferedRecorder {
    fn counter(&self, name: &str, delta: u64) {
        self.push(Record::Counter(name.to_string(), delta));
    }

    fn gauge(&self, name: &str, value: f64) {
        self.push(Record::Gauge(name.to_string(), value));
    }

    fn observe(&self, name: &str, value: f64) {
        self.push(Record::Observe(name.to_string(), value));
    }

    fn event(&self, name: &str, data: Value) {
        self.push(Record::Event(name.to_string(), data));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JsonlSink;
    use std::sync::Arc;

    #[test]
    fn captures_and_replays_in_order() {
        let buf = Arc::new(BufferedRecorder::new());
        let tel = Telemetry::new(buf.clone());
        tel.counter("a", 1);
        tel.gauge("b", 2.0);
        tel.observe("c", 3.0);
        tel.event("d", &[("k", Value::Int(4))]);
        assert_eq!(buf.records.lock().unwrap().len(), 4);

        let sink = JsonlSink::in_memory();
        buf.replay(&Telemetry::new(sink.clone()));
        assert!(buf.records.lock().unwrap().is_empty());
        sink.try_flush().unwrap();
        let out = String::from_utf8(sink.take_output()).unwrap();
        assert!(out.contains("\"d\""), "event missing from {out}");
        assert!(out.contains("\"a\""), "counter missing from {out}");
    }

    #[test]
    fn replay_into_two_sinks_is_identical() {
        // The same buffered capture replayed twice produces byte-identical
        // event streams — the property the parallel grid relies on.
        let buf = Arc::new(BufferedRecorder::new());
        let tel = Telemetry::new(buf.clone());
        for i in 0..10 {
            tel.event("tick", &[("i", Value::UInt(i))]);
        }
        let render = |records: &Arc<BufferedRecorder>| {
            let sink = JsonlSink::in_memory();
            records.replay(&Telemetry::new(sink.clone()));
            sink.try_flush().unwrap();
            String::from_utf8(sink.take_output()).unwrap()
        };
        // Refill after the first (draining) replay.
        let first = render(&buf);
        let tel = Telemetry::new(buf.clone());
        for i in 0..10 {
            tel.event("tick", &[("i", Value::UInt(i))]);
        }
        let second = render(&buf);
        let events = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.contains("\"t\":\"event\""))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(events(&first), events(&second));
    }
}
