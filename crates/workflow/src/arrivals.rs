//! Workload generation: Poisson request processes, bursts, arrival traces.
//!
//! The paper drives its evaluation with (a) continuous workflow requests
//! sampled from a Poisson process (§VI-A1) and (b) request bursts injected at
//! the beginning of each evaluation run (§VI-D). [`PoissonProcess`] and
//! [`BurstSpec`] model those two generators; both produce an
//! [`ArrivalTrace`], a time-sorted list of workflow-request arrivals that the
//! emulator replays.

use desim::SimTime;
use rand::Rng;
use rand_distr::{Distribution, Exp};
use serde::{Deserialize, Serialize};

use crate::WorkflowTypeId;

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
/// emulator: Poisson background and burst front-loads are generated
/// separately and [merged](ArrivalTrace::merge) before a run.
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
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ArrivalTrace {
    arrivals: Vec<Arrival>,
}

// Deserialization re-establishes the sort invariant instead of trusting
// the file's order: a hand-edited or externally recorded trace may be out
// of order, and an unsorted `arrivals` vector would break `push`'s
// partition-point insertion and the emulator's window attribution. The
// sort is stable, so equal-time arrivals keep their file order.
impl<'de> Deserialize<'de> for ArrivalTrace {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Raw {
            arrivals: Vec<Arrival>,
        }
        let mut raw = Raw::deserialize(d)?;
        raw.arrivals.sort_by_key(|a| a.time);
        Ok(ArrivalTrace {
            arrivals: raw.arrivals,
        })
    }
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

    /// Saves the trace as JSON.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the file.
    pub fn save_json<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        let json = serde_json::to_string(self).expect("traces always serialise");
        std::fs::write(path, json)
    }

    /// Loads a trace previously written by [`ArrivalTrace::save_json`].
    /// Arrivals are re-sorted defensively in case the file was edited.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the file cannot be read, or an
    /// `InvalidData` error when it does not parse as a trace.
    pub fn load_json<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let mut trace: ArrivalTrace = serde_json::from_str(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        trace.arrivals.sort_by_key(|a| a.time);
        Ok(trace)
    }

    /// Saves the trace as JSONL: one arrival object per line. The line
    /// format streams and diffs better than the JSON array for large
    /// recorded runs and is what the workload zoo's trace-replay mode
    /// consumes.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the file.
    pub fn save_jsonl<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for a in &self.arrivals {
            let line = serde_json::to_string(a).expect("arrivals always serialise");
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")?;
        }
        w.flush()
    }

    /// Loads a trace previously written by [`ArrivalTrace::save_jsonl`].
    /// Blank lines are skipped and arrivals are re-sorted (stably), so an
    /// out-of-order or hand-edited file replays identically to its sorted
    /// form.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the file cannot be read, or an
    /// `InvalidData` error (naming the line) when a line does not parse as
    /// an arrival.
    pub fn load_jsonl<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let mut arrivals = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let arrival: Arrival = serde_json::from_str(line).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("line {}: {e}", lineno + 1),
                )
            })?;
            arrivals.push(arrival);
        }
        arrivals.sort_by_key(|a| a.time);
        Ok(ArrivalTrace { arrivals })
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

/// Independent Poisson request processes, one per workflow type.
///
/// This emulates the paper's continuous background workload: "We use Poisson
/// process to emulate request traces for both workflow datasets" (§VI-A1).
///
/// # Examples
///
/// ```
/// use desim::SimTime;
/// use rand::SeedableRng;
/// use workflow::PoissonProcess;
///
/// let process = PoissonProcess::new(vec![1.0, 0.5]);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let trace = process.generate(SimTime::from_secs(100), &mut rng);
/// let counts = trace.counts(2);
/// // Rates 1.0/s and 0.5/s over 100 s: roughly 100 and 50 arrivals.
/// assert!(counts[0] > 60 && counts[0] < 140);
/// assert!(counts[1] > 25 && counts[1] < 80);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoissonProcess {
    rates_per_sec: Vec<f64>,
}

impl PoissonProcess {
    /// Creates a process with the given per-workflow-type rates
    /// (requests per second). A rate of `0.0` disables that type.
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative or non-finite.
    #[must_use]
    pub fn new(rates_per_sec: Vec<f64>) -> Self {
        for &r in &rates_per_sec {
            assert!(r.is_finite() && r >= 0.0, "arrival rate must be >= 0");
        }
        PoissonProcess { rates_per_sec }
    }

    /// Samples arrivals over `[0, horizon)`.
    pub fn generate<R: Rng + ?Sized>(&self, horizon: SimTime, rng: &mut R) -> ArrivalTrace {
        let mut trace = Vec::new();
        for (i, &rate) in self.rates_per_sec.iter().enumerate() {
            if rate <= 0.0 {
                continue;
            }
            let exp = Exp::new(rate).expect("validated rate");
            let mut t = 0.0f64;
            loop {
                t += exp.sample(rng);
                let at = SimTime::from_secs_f64(t);
                if at >= horizon {
                    break;
                }
                trace.push(Arrival::new(at, WorkflowTypeId::new(i)));
            }
        }
        trace.into_iter().collect()
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
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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
    fn poisson_rate_zero_emits_nothing() {
        let p = PoissonProcess::new(vec![0.0, 2.0]);
        let mut rng = SmallRng::seed_from_u64(1);
        let trace = p.generate(SimTime::from_secs(50), &mut rng);
        assert_eq!(trace.counts(2)[0], 0);
        assert!(trace.counts(2)[1] > 0);
    }

    #[test]
    fn poisson_is_deterministic_for_fixed_seed() {
        let p = PoissonProcess::new(vec![0.7, 0.3]);
        let t1 = p.generate(SimTime::from_secs(200), &mut SmallRng::seed_from_u64(42));
        let t2 = p.generate(SimTime::from_secs(200), &mut SmallRng::seed_from_u64(42));
        assert_eq!(t1, t2);
    }

    #[test]
    fn poisson_mean_is_close_to_rate() {
        let p = PoissonProcess::new(vec![2.0]);
        let mut rng = SmallRng::seed_from_u64(9);
        let horizon = SimTime::from_secs(2_000);
        let n = p.generate(horizon, &mut rng).len() as f64;
        let expected = 2.0 * 2_000.0;
        assert!((n - expected).abs() < 4.0 * expected.sqrt() + 1.0, "n={n}");
    }

    #[test]
    #[should_panic(expected = "arrival rate must be >= 0")]
    fn negative_rate_panics() {
        let _ = PoissonProcess::new(vec![-1.0]);
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
        let path = dir.join("trace.json");
        t.save_json(&path).unwrap();
        let back = ArrivalTrace::load_json(&path).unwrap();
        assert_eq!(t, back);
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
        let back = ArrivalTrace::load_jsonl(&path).unwrap();
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
        let t = ArrivalTrace::load_jsonl(&path).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.arrivals()[0].time, SimTime::from_secs(5));
        assert_eq!(t.arrivals()[1].time, SimTime::from_secs(45));

        std::fs::write(&path, "{\"time_micros\":1}\nnot json\n").unwrap();
        let err = ArrivalTrace::load_jsonl(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 1"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deserialized_trace_is_sorted_even_when_the_file_is_not() {
        // Regression: the derived Deserialize used to trust the file's
        // order, so an out-of-order trace violated the sorted contract
        // that `push`'s partition-point insertion depends on.
        let json = "{\"arrivals\":[\
            {\"time_micros\":45000000,\"workflow_type\":1},\
            {\"time_micros\":5000000,\"workflow_type\":0}]}";
        let mut t: ArrivalTrace = serde_json::from_str(json).unwrap();
        let times: Vec<u64> = t.arrivals().iter().map(|a| a.time.as_micros()).collect();
        assert_eq!(times, vec![5_000_000, 45_000_000]);
        // And push keeps working on the restored trace.
        t.push(Arrival::new(SimTime::from_secs(20), WorkflowTypeId::new(2)));
        let times: Vec<u64> = t.arrivals().iter().map(|a| a.time.as_micros()).collect();
        assert_eq!(times, vec![5_000_000, 20_000_000, 45_000_000]);
    }

    #[test]
    fn load_json_rejects_garbage() {
        let dir = std::env::temp_dir().join("miras_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "not json").unwrap();
        let err = ArrivalTrace::load_json(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
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
