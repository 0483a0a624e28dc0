//! Workload description: bursts and arrival traces.
//!
//! The paper drives its evaluation with (a) continuous workflow requests
//! sampled from a Poisson process (§VI-A1) and (b) request bursts injected at
//! the beginning of each evaluation run (§VI-D). [`BurstSpec`] models the
//! bursts; the Poisson background is sampled by the emulator (`microsim`),
//! which can also write it out as an [`ArrivalTrace`], a time-sorted list of
//! workflow-request arrivals that the emulator replays.

use std::io;
use std::path::Path;

use desim::SimTime;
use serde::{Deserialize, Serialize};

use crate::WorkflowTypeId;

/// The longest line [`ArrivalTrace::load`] reads. An arrival line is a few
/// dozen bytes; the bound only stops one huge line being read whole.
const MAX_TRACE_LINE_BYTES: usize = 1 << 16;

/// One workflow-request arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the request enters the system.
    pub time: SimTime,
    /// Which workflow type is requested.
    pub workflow_type: WorkflowTypeId,
}

impl Arrival {
    /// Creates an arrival of `workflow_type` at `time`.
    #[must_use]
    pub fn new(time: SimTime, workflow_type: WorkflowTypeId) -> Self {
        Arrival {
            time,
            workflow_type,
        }
    }
}

// `SimTime` lives in `desim`, which doesn't depend on serde, so Arrival's
// serde impls are written by hand through microsecond integers.
impl Serialize for Arrival {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = s.serialize_struct("Arrival", 2)?;
        st.serialize_field("time_micros", &self.time.as_micros())?;
        st.serialize_field("workflow_type", &self.workflow_type)?;
        st.end()
    }
}

impl<'de> Deserialize<'de> for Arrival {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Raw {
            time_micros: u64,
            workflow_type: WorkflowTypeId,
        }
        let raw = Raw::deserialize(d)?;
        Ok(Arrival {
            time: SimTime::from_micros(raw.time_micros),
            workflow_type: raw.workflow_type,
        })
    }
}

/// A time-sorted sequence of workflow-request arrivals.
///
/// Traces are the common currency between workload generators and the
/// emulator: a recorded or sampled background and a burst front-load can be
/// [merged](ArrivalTrace::merge) before a run.
///
/// # Examples
///
/// ```
/// use desim::SimTime;
/// use workflow::{Arrival, ArrivalTrace, WorkflowTypeId};
///
/// let mut trace = ArrivalTrace::new();
/// trace.push(Arrival::new(SimTime::from_secs(2), WorkflowTypeId::new(0)));
/// trace.push(Arrival::new(SimTime::from_secs(1), WorkflowTypeId::new(1)));
/// // Pushes keep the trace sorted.
/// assert_eq!(trace.arrivals()[0].time, SimTime::from_secs(1));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArrivalTrace {
    arrivals: Vec<Arrival>,
}

impl ArrivalTrace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        ArrivalTrace::default()
    }

    /// Adds an arrival, keeping the trace time-sorted (stable for ties).
    pub fn push(&mut self, arrival: Arrival) {
        let idx = self.arrivals.partition_point(|a| a.time <= arrival.time);
        self.arrivals.insert(idx, arrival);
    }

    /// The sorted arrivals.
    #[must_use]
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Number of arrivals in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Merges another trace into this one, preserving global time order.
    pub fn merge(&mut self, other: ArrivalTrace) {
        self.arrivals.extend(other.arrivals);
        self.arrivals.sort_by_key(|a| a.time);
    }

    /// Saves the trace as JSONL: one arrival object per line, which streams
    /// and diffs well for large recorded runs. [`ArrivalTrace::load`] reads
    /// it back.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the file.
    pub fn save_jsonl<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        use std::io::Write;
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for a in &self.arrivals {
            let line = serde_json::to_string(a).expect("arrivals always serialise");
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")?;
        }
        w.flush()
    }

    /// Loads a JSONL trace, one arrival object per line (what
    /// [`ArrivalTrace::save_jsonl`] writes), reading it line by line. Blank
    /// lines are skipped and arrivals are re-sorted (stably), so an
    /// out-of-order or hand-edited file replays identically to its sorted
    /// form.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the file cannot be read, or an
    /// `InvalidData` error naming the line when a line is longer than 64 KiB,
    /// is not UTF-8 or does not parse as an arrival.
    pub fn load<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        use std::io::{BufRead, Read};
        let mut reader = io::BufReader::new(std::fs::File::open(path)?);
        let mut arrivals = Vec::new();
        let mut buf = Vec::new();
        for lineno in 1.. {
            let invalid = |e: &dyn std::fmt::Display| {
                io::Error::new(io::ErrorKind::InvalidData, format!("line {lineno}: {e}"))
            };
            buf.clear();
            // One byte past the bound tells a line at the bound from a
            // longer one, without reading the rest of it.
            let read = (&mut reader)
                .take(MAX_TRACE_LINE_BYTES as u64 + 1)
                .read_until(b'\n', &mut buf)?;
            if read == 0 {
                break;
            }
            if buf.last() == Some(&b'\n') {
                buf.pop();
            } else if read > MAX_TRACE_LINE_BYTES {
                return Err(invalid(&format_args!(
                    "longer than {MAX_TRACE_LINE_BYTES} bytes"
                )));
            }
            let line = std::str::from_utf8(&buf).map_err(|e| invalid(&e))?.trim();
            if line.is_empty() {
                continue;
            }
            arrivals.push(serde_json::from_str(line).map_err(|e| invalid(&e))?);
        }
        Ok(arrivals.into_iter().collect())
    }

    /// Counts arrivals per workflow type, given the number of types.
    #[must_use]
    pub fn counts(&self, num_workflow_types: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_workflow_types];
        for a in &self.arrivals {
            counts[a.workflow_type.index()] += 1;
        }
        counts
    }
}

impl FromIterator<Arrival> for ArrivalTrace {
    fn from_iter<I: IntoIterator<Item = Arrival>>(iter: I) -> Self {
        let mut arrivals: Vec<Arrival> = iter.into_iter().collect();
        arrivals.sort_by_key(|a| a.time);
        ArrivalTrace { arrivals }
    }
}

impl Extend<Arrival> for ArrivalTrace {
    fn extend<I: IntoIterator<Item = Arrival>>(&mut self, iter: I) {
        self.arrivals.extend(iter);
        self.arrivals.sort_by_key(|a| a.time);
    }
}

/// A front-loaded burst of requests, as used in the paper's §VI-D comparison
/// ("request bursts are fed into the system at the beginning of each
/// evaluation").
///
/// # Examples
///
/// The paper's first MSD burst, 300/200/300 requests of Type1–Type3:
///
/// ```
/// use workflow::BurstSpec;
///
/// let burst = BurstSpec::new(vec![300, 200, 300]);
/// let trace = burst.trace();
/// assert_eq!(trace.len(), 800);
/// assert!(trace.arrivals().iter().all(|a| a.time.is_zero()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BurstSpec {
    counts: Vec<usize>,
}

impl BurstSpec {
    /// A burst of `counts[i]` requests of workflow type `i`, all at time 0.
    #[must_use]
    pub fn new(counts: Vec<usize>) -> Self {
        BurstSpec { counts }
    }

    /// Per-type request counts.
    #[must_use]
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total number of requests across types.
    #[must_use]
    pub(crate) fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Materialises the burst as an [`ArrivalTrace`] at time zero.
    ///
    /// Requests of different types are interleaved round-robin so no type is
    /// systematically enqueued last.
    #[must_use]
    pub fn trace(&self) -> ArrivalTrace {
        let mut arrivals = Vec::with_capacity(self.total());
        let max = self.counts.iter().copied().max().unwrap_or(0);
        for round in 0..max {
            for (i, &c) in self.counts.iter().enumerate() {
                if round < c {
                    arrivals.push(Arrival::new(SimTime::ZERO, WorkflowTypeId::new(i)));
                }
            }
        }
        ArrivalTrace { arrivals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_push_keeps_sorted() {
        let mut t = ArrivalTrace::new();
        for s in [5u64, 1, 3, 2, 4] {
            t.push(Arrival::new(SimTime::from_secs(s), WorkflowTypeId::new(0)));
        }
        let times: Vec<u64> = t.arrivals().iter().map(|a| a.time.as_micros()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }

    #[test]
    fn merge_interleaves() {
        let mut a: ArrivalTrace = (0..5)
            .map(|s| Arrival::new(SimTime::from_secs(s * 2), WorkflowTypeId::new(0)))
            .collect();
        let b: ArrivalTrace = (0..5)
            .map(|s| Arrival::new(SimTime::from_secs(s * 2 + 1), WorkflowTypeId::new(1)))
            .collect();
        a.merge(b);
        assert_eq!(a.len(), 10);
        for w in a.arrivals().windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn burst_counts_and_interleave() {
        let b = BurstSpec::new(vec![3, 1, 2]);
        let trace = b.trace();
        assert_eq!(trace.counts(3), vec![3, 1, 2]);
        // Round-robin interleave: first three arrivals cover all types.
        let first: Vec<usize> = trace.arrivals()[..3]
            .iter()
            .map(|a| a.workflow_type.index())
            .collect();
        assert_eq!(first, vec![0, 1, 2]);
    }

    #[test]
    fn burst_paper_scenarios_total() {
        assert_eq!(BurstSpec::new(vec![300, 200, 300]).total(), 800);
        assert_eq!(BurstSpec::new(vec![100, 100, 50, 30]).total(), 280);
    }

    #[test]
    fn trace_file_round_trip() {
        let mut t = ArrivalTrace::new();
        for s in [3u64, 1, 2] {
            t.push(Arrival::new(SimTime::from_secs(s), WorkflowTypeId::new(0)));
        }
        let dir = std::env::temp_dir().join("miras_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        // JSONL whatever the file name; a `{"arrivals":[…]}` document, the
        // layout of builds before JSONL, is refused at its first line.
        let path = dir.join("trace.json");
        t.save_jsonl(&path).unwrap();
        assert_eq!(ArrivalTrace::load(&path).unwrap(), t);
        std::fs::write(
            &path,
            "{\"arrivals\":[{\"time_micros\":1000000,\"workflow_type\":0}]}\n",
        )
        .unwrap();
        let err = ArrivalTrace::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("line 1: "), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_jsonl_round_trip() {
        let mut t = ArrivalTrace::new();
        for (s, wf) in [(3u64, 0usize), (1, 1), (2, 0), (1, 2)] {
            t.push(Arrival::new(SimTime::from_secs(s), WorkflowTypeId::new(wf)));
        }
        let dir = std::env::temp_dir().join("miras_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        t.save_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 4, "one arrival per line");
        let back = ArrivalTrace::load(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_jsonl_sorts_out_of_order_files_and_names_bad_lines() {
        let dir = std::env::temp_dir().join("miras_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ooo.jsonl");
        std::fs::write(
            &path,
            "{\"time_micros\":45000000,\"workflow_type\":1}\n\n\
             {\"time_micros\":5000000,\"workflow_type\":0}\n",
        )
        .unwrap();
        let t = ArrivalTrace::load(&path).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.arrivals()[0].time, SimTime::from_secs(5));
        assert_eq!(t.arrivals()[1].time, SimTime::from_secs(45));

        std::fs::write(&path, "{\"time_micros\":1}\nnot json\n").unwrap();
        let err = ArrivalTrace::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 1"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_refuses_a_line_past_the_bound_and_reads_one_at_it() {
        let dir = std::env::temp_dir().join("miras_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("long_line.jsonl");
        let arrival = "{\"time_micros\":1,\"workflow_type\":0}";
        // Trailing blanks pad a valid arrival to a line of `len` bytes.
        let padded = |len: usize| format!("{arrival}{}\n", " ".repeat(len - arrival.len()));
        let at_bound = padded(MAX_TRACE_LINE_BYTES);
        std::fs::write(&path, format!("{at_bound}{arrival}\n")).unwrap();
        assert_eq!(ArrivalTrace::load(&path).unwrap().len(), 2);

        let past_bound = padded(MAX_TRACE_LINE_BYTES + 1);
        std::fs::write(&path, format!("{past_bound}{arrival}\n")).unwrap();
        let err = ArrivalTrace::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            format!("line 1: longer than {MAX_TRACE_LINE_BYTES} bytes")
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_json_rejects_garbage() {
        let dir = std::env::temp_dir().join("miras_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "not json").unwrap();
        let err = ArrivalTrace::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::write(&path, "{\"arrivals\":[{\"time_micros\":1}]}").unwrap();
        let err = ArrivalTrace::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::write(&path, b"{\"time_micros\":1,\"workflow_type\":0}\n\xff\n").unwrap();
        let err = ArrivalTrace::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("line 2: "), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn arrival_serde_round_trip() {
        let a = Arrival::new(SimTime::from_millis(1234), WorkflowTypeId::new(2));
        let json = serde_json::to_string(&a).unwrap();
        let back: Arrival = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
