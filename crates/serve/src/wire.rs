//! The serving wire format: JSON Lines in both directions, hardened for
//! hostile input.
//!
//! One [`WindowObservation`] per input line, one [`DecisionRecord`] per
//! output line. Decision records deliberately exclude the measured latency
//! — wall-clock varies run to run, and the shadow-mode determinism proof
//! (`miras-serve --shadow` output is byte-identical to a batch replay)
//! requires every emitted byte to be a pure function of the stream and the
//! checkpoint. Latency is recorded through telemetry instead.
//!
//! A malformed line — garbage bytes, truncated JSON, an oversized line, a
//! WIP vector of the wrong dimension or with non-finite entries — is a
//! typed [`WireError`], which the service **skips and counts**
//! (`serve.wire_rejected`) instead of aborting the stream: one bad client
//! line must never take down a multi-client control loop. [`LineReader`]
//! additionally bounds per-line memory, so a slow-loris client feeding an
//! endless unterminated line cannot exhaust the server.

use std::fmt;
use std::io::{self, BufRead};

use serde::{Deserialize, Serialize};

use baselines::Observation;
use microsim::WindowMetrics;

/// Default upper bound on one wire line, in bytes. A window observation at
/// paper scale is a few hundred bytes; a megabyte already implies a broken
/// or hostile client.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Why an input line was rejected. Rejected lines are skipped and counted
/// (`serve.wire_rejected`), never fatal.
#[derive(Debug)]
pub enum WireError {
    /// The line is not valid JSON for a [`WindowObservation`].
    Parse {
        /// Parser diagnostics.
        message: String,
    },
    /// The line exceeded the per-line byte bound and was discarded.
    Oversized {
        /// How many bytes the line held when it was cut off.
        bytes: usize,
        /// The configured bound.
        limit: usize,
    },
    /// The observation parsed but its WIP vector has the wrong dimension
    /// for the serving ensemble (feeding it onward would be undefined —
    /// for learned policies, a dimension-mismatch panic).
    BadDims {
        /// Dimension received.
        got: usize,
        /// Dimension the service expects.
        want: usize,
    },
    /// The observation parsed but carries non-finite WIP entries.
    NonFinite {
        /// Index of the first offending entry.
        index: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Parse { message } => write!(f, "unparseable observation: {message}"),
            WireError::Oversized { bytes, limit } => {
                write!(f, "line of {bytes}+ bytes exceeds the {limit}-byte bound")
            }
            WireError::BadDims { got, want } => {
                write!(f, "wip has {got} entries, the serving ensemble has {want}")
            }
            WireError::NonFinite { index } => {
                write!(f, "wip[{index}] is not finite")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// Short stable label for telemetry events (`parse`, `oversized`,
    /// `bad_dims`, `non_finite`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            WireError::Parse { .. } => "parse",
            WireError::Oversized { .. } => "oversized",
            WireError::BadDims { .. } => "bad_dims",
            WireError::NonFinite { .. } => "non_finite",
        }
    }
}

/// Parses one wire line into a [`WindowObservation`], enforcing the byte
/// bound, the WIP dimension (when `expected_dims` is known) and WIP
/// finiteness.
///
/// Empty/whitespace-only lines return `Ok(None)` — they are stream keepalive
/// noise, not errors.
///
/// # Errors
///
/// A typed [`WireError`] describing why the line must be skipped.
pub fn parse_observation_line(
    line: &str,
    max_bytes: usize,
    expected_dims: Option<usize>,
) -> Result<Option<WindowObservation>, WireError> {
    if line.len() > max_bytes {
        return Err(WireError::Oversized {
            bytes: line.len(),
            limit: max_bytes,
        });
    }
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    let obs: WindowObservation = serde_json::from_str(trimmed).map_err(|e| WireError::Parse {
        message: e.to_string(),
    })?;
    if let Some(want) = expected_dims {
        if obs.wip.len() != want {
            return Err(WireError::BadDims {
                got: obs.wip.len(),
                want,
            });
        }
    }
    if let Some(index) = obs.wip.iter().position(|w| !w.is_finite()) {
        return Err(WireError::NonFinite { index });
    }
    Ok(Some(obs))
}

/// One line produced by [`LineReader::next_line`].
#[derive(Debug)]
pub enum LineRead {
    /// A complete line (newline stripped; invalid UTF-8 replaced, which the
    /// JSON parser then rejects as garbage).
    Line(String),
    /// A line that exceeded the byte bound; its bytes were discarded up to
    /// the next newline.
    Oversized {
        /// Bytes the line held when the reader gave up on it.
        bytes: usize,
    },
}

/// Memory-bounded, resumable line reader over any [`BufRead`].
///
/// Unlike [`BufRead::read_line`], a line longer than the bound is
/// *discarded as it streams in* — the reader never buffers more than the
/// bound per line, so a slow-loris client cannot balloon server memory.
/// A transient read error (e.g. a socket read timeout) leaves the partial
/// line intact; calling [`LineReader::next_line`] again resumes exactly
/// where the failed read stopped.
pub struct LineReader<R> {
    inner: R,
    max_bytes: usize,
    partial: Vec<u8>,
    discarding: bool,
    discarded: usize,
}

impl<R: BufRead> LineReader<R> {
    /// Wraps `inner`, bounding every line at `max_bytes`.
    pub fn new(inner: R, max_bytes: usize) -> Self {
        LineReader {
            inner,
            max_bytes,
            partial: Vec::new(),
            discarding: false,
            discarded: 0,
        }
    }

    /// Reads the next line. `Ok(None)` is end-of-stream.
    ///
    /// # Errors
    ///
    /// Propagates the underlying read error; partial-line state survives
    /// the error, so transient failures (timeouts) are resumable.
    pub fn next_line(&mut self) -> io::Result<Option<LineRead>> {
        loop {
            let (consumed, newline_at) = {
                let chunk = self.inner.fill_buf()?;
                if chunk.is_empty() {
                    // EOF: a trailing unterminated line still counts.
                    if self.discarding {
                        let bytes = self.discarded;
                        self.discarding = false;
                        self.discarded = 0;
                        return Ok(Some(LineRead::Oversized { bytes }));
                    }
                    if self.partial.is_empty() {
                        return Ok(None);
                    }
                    let line = String::from_utf8_lossy(&self.partial).into_owned();
                    self.partial.clear();
                    return Ok(Some(LineRead::Line(line)));
                }
                match chunk.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        if !self.discarding {
                            self.partial.extend_from_slice(&chunk[..pos]);
                        } else {
                            self.discarded += pos;
                        }
                        (pos + 1, true)
                    }
                    None => {
                        if !self.discarding {
                            self.partial.extend_from_slice(chunk);
                        } else {
                            self.discarded += chunk.len();
                        }
                        (chunk.len(), false)
                    }
                }
            };
            self.inner.consume(consumed);
            if !self.discarding && self.partial.len() > self.max_bytes {
                // Switch to discard mode: drop what we buffered and skip
                // the rest of this line as it arrives.
                self.discarded = self.partial.len();
                self.partial.clear();
                self.partial.shrink_to(self.max_bytes.min(4096));
                self.discarding = true;
            }
            if newline_at {
                if self.discarding {
                    let bytes = self.discarded;
                    self.discarding = false;
                    self.discarded = 0;
                    return Ok(Some(LineRead::Oversized { bytes }));
                }
                let line = String::from_utf8_lossy(&self.partial).into_owned();
                self.partial.clear();
                return Ok(Some(LineRead::Line(line)));
            }
        }
    }
}

/// One decision window's observation, as received on the wire.
///
/// `wip` is the work-in-progress vector (requests queued or in service per
/// task type) at the decision boundary — the MIRAS state. `metrics`, when
/// present, carries the *previous* window's full metrics, which the
/// adaptive baselines (DRS, MONAD) use for model identification; learned
/// policies only need `wip`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowObservation {
    /// Window index (monotone within a stream).
    pub window: usize,
    /// Work-in-progress per task type.
    pub wip: Vec<f64>,
    /// The previous window's metrics, if the client tracks them
    /// (serialized as `null` when absent).
    #[serde(default)]
    pub metrics: Option<WindowMetrics>,
}

impl WindowObservation {
    /// The [`Observation`] a policy decides this window on.
    #[must_use]
    pub fn observation(&self) -> Observation<'_> {
        Observation::new(&self.wip, self.metrics.as_ref(), self.window)
    }
}

/// Why a [`DecisionRecord`] carries no usable allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionStatus {
    /// The window was shed by admission control before any policy ran; the
    /// record's `allocations` are empty and must not be actuated.
    Shed,
}

impl Serialize for DecisionStatus {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            DecisionStatus::Shed => serializer.serialize_str("shed"),
        }
    }
}

impl<'de> Deserialize<'de> for DecisionStatus {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error;
        match deserializer.take_value()? {
            serde::value::Value::String(s) if s == "shed" => Ok(DecisionStatus::Shed),
            serde::value::Value::String(s) => {
                Err(D::Error::custom(format!("unknown decision status '{s}'")))
            }
            other => Err(D::Error::invalid_type(
                other.kind(),
                "decision status string",
            )),
        }
    }
}

/// One allocation decision, as emitted on the wire.
///
/// The `status` and `degraded` fields are omitted from serialization in
/// the normal case (hand-written [`Serialize`] impl below), so a healthy
/// stream's bytes are identical to the pre-hardening wire format — the
/// shadow-vs-replay byte-compare carries over unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Echo of the observation's window index.
    pub window: usize,
    /// Name of the policy that decided (for shed records, the name of the
    /// policy that *would* have decided).
    pub policy: String,
    /// Version of the policy that decided (the checkpoint's iteration for
    /// checkpoint-loaded policies; changes mid-stream on hot-swap; 0 for
    /// shed records, where no versioned decision was made).
    pub policy_version: u64,
    /// Consumer counts per task type (empty for shed records).
    pub allocations: Vec<usize>,
    /// Present only when the window produced no usable allocation
    /// (`"shed"` under admission control).
    pub status: Option<DecisionStatus>,
    /// `true` when the primary policy missed its decision deadline (or was
    /// otherwise unavailable) and the allocation came from the deterministic
    /// fallback policy instead.
    pub degraded: bool,
}

impl Serialize for DecisionRecord {
    // Hand-written so `status`/`degraded` are omitted when at their healthy
    // defaults: the vendored derive has no `skip_serializing_if`, and the
    // byte-identity proof against pre-hardening streams depends on the
    // omission.
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let extra = usize::from(self.status.is_some()) + usize::from(self.degraded);
        let mut s = serializer.serialize_struct("DecisionRecord", 4 + extra)?;
        s.serialize_field("window", &self.window)?;
        s.serialize_field("policy", &self.policy)?;
        s.serialize_field("policy_version", &self.policy_version)?;
        s.serialize_field("allocations", &self.allocations)?;
        if let Some(status) = &self.status {
            s.serialize_field("status", status)?;
        }
        if self.degraded {
            s.serialize_field("degraded", &self.degraded)?;
        }
        s.end()
    }
}

impl<'de> Deserialize<'de> for DecisionRecord {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::{expect_object, opt_field, req_field};
        use serde::value::from_value;
        let mut fields = expect_object::<D::Error>(deserializer.take_value()?, "DecisionRecord")?;
        Ok(DecisionRecord {
            window: from_value(req_field::<D::Error>(&mut fields, "window")?)?,
            policy: from_value(req_field::<D::Error>(&mut fields, "policy")?)?,
            policy_version: from_value(req_field::<D::Error>(&mut fields, "policy_version")?)?,
            allocations: from_value(req_field::<D::Error>(&mut fields, "allocations")?)?,
            status: match opt_field(&mut fields, "status") {
                Some(value) => Some(from_value(value)?),
                None => None,
            },
            degraded: match opt_field(&mut fields, "degraded") {
                Some(value) => from_value(value)?,
                None => false,
            },
        })
    }
}

impl DecisionRecord {
    /// A normal decision from the primary policy.
    #[must_use]
    pub fn normal(
        window: usize,
        policy: &str,
        policy_version: u64,
        allocations: Vec<usize>,
    ) -> Self {
        DecisionRecord {
            window,
            policy: policy.to_string(),
            policy_version,
            allocations,
            status: None,
            degraded: false,
        }
    }

    /// A degraded decision: the fallback policy answered for the primary.
    #[must_use]
    pub fn degraded(
        window: usize,
        policy: &str,
        policy_version: u64,
        allocations: Vec<usize>,
    ) -> Self {
        DecisionRecord {
            window,
            policy: policy.to_string(),
            policy_version,
            allocations,
            status: None,
            degraded: true,
        }
    }

    /// A shed reply: admission control refused the window before any policy
    /// ran. `policy` names the serving policy for attribution; the version
    /// is 0 because no versioned decision was made.
    #[must_use]
    pub fn shed(window: usize, policy: &str) -> Self {
        DecisionRecord {
            window,
            policy: policy.to_string(),
            policy_version: 0,
            allocations: Vec::new(),
            status: Some(DecisionStatus::Shed),
            degraded: false,
        }
    }

    /// Whether this record carries a usable allocation (not shed).
    #[must_use]
    pub fn is_actionable(&self) -> bool {
        self.status.is_none()
    }

    /// Renders the record as its wire line (stable field order, no
    /// trailing newline).
    ///
    /// # Panics
    ///
    /// Panics if serialization fails, which cannot happen for this type
    /// (no floats, no non-string keys).
    #[must_use]
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("DecisionRecord always serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn observation_parses_without_metrics() {
        let obs: WindowObservation =
            serde_json::from_str(r#"{"window":3,"wip":[1.0,0.0,2.5]}"#).unwrap();
        assert_eq!(obs.window, 3);
        assert_eq!(obs.wip, vec![1.0, 0.0, 2.5]);
        assert!(obs.metrics.is_none());
    }

    #[test]
    fn decision_line_is_stable_and_omits_health_fields_when_normal() {
        let d = DecisionRecord::normal(1, "miras", 4, vec![5, 3, 4, 2]);
        assert_eq!(
            d.to_line(),
            r#"{"window":1,"policy":"miras","policy_version":4,"allocations":[5,3,4,2]}"#
        );
        let back: DecisionRecord = serde_json::from_str(&d.to_line()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn shed_and_degraded_records_round_trip() {
        let s = DecisionRecord::shed(9, "miras");
        assert_eq!(
            s.to_line(),
            r#"{"window":9,"policy":"miras","policy_version":0,"allocations":[],"status":"shed"}"#
        );
        assert!(!s.is_actionable());
        let d = DecisionRecord::degraded(2, "wip-proportional", 0, vec![4, 4, 3, 3]);
        assert!(
            d.to_line().ends_with(r#""degraded":true}"#),
            "{}",
            d.to_line()
        );
        assert!(d.is_actionable());
        for r in [s, d] {
            let back: DecisionRecord = serde_json::from_str(&r.to_line()).unwrap();
            assert_eq!(back, r);
        }
    }

    // --- fuzz-ish malformed-line coverage -------------------------------

    #[test]
    fn garbage_lines_are_typed_parse_errors() {
        for garbage in [
            "not json",
            "{",
            "[]",
            "42",
            "{\"window\":0}",                  // missing wip
            "{\"wip\":[1.0]}",                 // missing window
            "{\"window\":-1,\"wip\":[1.0]}",   // negative index
            "{\"window\":0,\"wip\":[\"x\"]}",  // wrong wip type
            "\u{fffd}\u{fffd}binary\u{0}junk", // replacement/NUL bytes
        ] {
            let err = parse_observation_line(garbage, MAX_LINE_BYTES, None)
                .err()
                .unwrap_or_else(|| panic!("{garbage:?} should be rejected"));
            assert!(matches!(err, WireError::Parse { .. }), "{garbage:?}: {err}");
            assert_eq!(err.kind(), "parse");
        }
    }

    #[test]
    fn truncated_lines_are_typed_parse_errors() {
        let full = r#"{"window":3,"wip":[1.0,0.0,2.5],"metrics":null}"#;
        for cut in 1..full.len() {
            let truncated = &full[..cut];
            let result = parse_observation_line(truncated, MAX_LINE_BYTES, None);
            if let Err(e) = result {
                assert!(matches!(e, WireError::Parse { .. }), "cut at {cut}: {e}");
            }
            // Some prefixes happen to be valid JSON of the wrong shape;
            // those are also Parse errors, asserted above. No prefix may
            // parse as a *valid* observation except the full line.
            if cut < full.len() {
                assert!(
                    parse_observation_line(truncated, MAX_LINE_BYTES, None).is_err(),
                    "prefix of length {cut} must not parse"
                );
            }
        }
    }

    #[test]
    fn oversized_lines_are_rejected_by_size_alone() {
        let huge = format!("{{\"window\":0,\"wip\":[{}1.0]}}", "1.0,".repeat(3000));
        let err = parse_observation_line(&huge, 1024, None).err().unwrap();
        match err {
            WireError::Oversized { bytes, limit } => {
                assert_eq!(bytes, huge.len());
                assert_eq!(limit, 1024);
            }
            other => panic!("expected Oversized, got {other}"),
        }
    }

    #[test]
    fn dimension_and_finiteness_guards() {
        let err = parse_observation_line(r#"{"window":0,"wip":[1.0,2.0]}"#, 4096, Some(4))
            .err()
            .unwrap();
        assert!(
            matches!(err, WireError::BadDims { got: 2, want: 4 }),
            "{err}"
        );
        let err = parse_observation_line(r#"{"window":0,"wip":[1.0,null,2.0,3.0]}"#, 4096, Some(4))
            .err()
            .unwrap();
        // serde rejects null-in-f64-vec at parse time.
        assert!(matches!(err, WireError::Parse { .. }), "{err}");
        // 1e999 overflows to +inf in float parsing — the JSON accepts it,
        // the finiteness guard must not.
        let err = parse_observation_line(r#"{"window":0,"wip":[1.0,1e999]}"#, 4096, Some(2))
            .err()
            .unwrap();
        assert!(matches!(err, WireError::NonFinite { index: 1 }), "{err}");
    }

    #[test]
    fn empty_lines_are_skipped_not_errors() {
        assert!(parse_observation_line("", 4096, None).unwrap().is_none());
        assert!(parse_observation_line("   \t", 4096, None)
            .unwrap()
            .is_none());
        let obs = parse_observation_line(r#" {"window":1,"wip":[1.0]} "#, 4096, None)
            .unwrap()
            .unwrap();
        assert_eq!(obs.window, 1);
    }

    // --- bounded line reader --------------------------------------------

    #[test]
    fn line_reader_round_trips_ordinary_lines() {
        let mut lr = LineReader::new(BufReader::new("a\nbb\n\nccc".as_bytes()), 64);
        let mut got = Vec::new();
        while let Some(line) = lr.next_line().unwrap() {
            match line {
                LineRead::Line(s) => got.push(s),
                LineRead::Oversized { .. } => panic!("nothing oversized here"),
            }
        }
        assert_eq!(got, ["a", "bb", "", "ccc"]);
    }

    #[test]
    fn line_reader_discards_oversized_lines_and_recovers() {
        let input = format!("short\n{}\nafter\n", "x".repeat(200));
        let mut lr = LineReader::new(BufReader::with_capacity(16, input.as_bytes()), 32);
        match lr.next_line().unwrap().unwrap() {
            LineRead::Line(s) => assert_eq!(s, "short"),
            other => panic!("{other:?}"),
        }
        match lr.next_line().unwrap().unwrap() {
            LineRead::Oversized { bytes } => assert_eq!(bytes, 200),
            other => panic!("{other:?}"),
        }
        match lr.next_line().unwrap().unwrap() {
            LineRead::Line(s) => assert_eq!(s, "after", "reader recovers after oversize"),
            other => panic!("{other:?}"),
        }
        assert!(lr.next_line().unwrap().is_none());
    }

    #[test]
    fn line_reader_handles_invalid_utf8_as_replaced_text() {
        let input: &[u8] = b"\xff\xfe\xfd\nok\n";
        let mut lr = LineReader::new(BufReader::new(input), 64);
        match lr.next_line().unwrap().unwrap() {
            LineRead::Line(s) => {
                assert!(parse_observation_line(&s, 64, None).is_err());
            }
            other => panic!("{other:?}"),
        }
        match lr.next_line().unwrap().unwrap() {
            LineRead::Line(s) => assert_eq!(s, "ok"),
            other => panic!("{other:?}"),
        }
    }

    /// A reader that injects a transient error mid-line, emulating a socket
    /// read timeout against a slow-loris client.
    struct Flaky<'a> {
        chunks: Vec<Option<&'a [u8]>>, // None = transient error
        at: usize,
    }

    impl std::io::Read for Flaky<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.at >= self.chunks.len() {
                return Ok(0);
            }
            let item = self.chunks[self.at];
            self.at += 1;
            match item {
                None => Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "simulated timeout",
                )),
                Some(bytes) => {
                    buf[..bytes.len()].copy_from_slice(bytes);
                    Ok(bytes.len())
                }
            }
        }
    }

    #[test]
    fn line_reader_resumes_partial_lines_across_transient_errors() {
        let flaky = Flaky {
            chunks: vec![Some(b"{\"window\":0,"), None, Some(b"\"wip\":[1.0]}\n")],
            at: 0,
        };
        let mut lr = LineReader::new(BufReader::new(flaky), 256);
        let err = lr.next_line().expect_err("first pass hits the timeout");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        match lr.next_line().unwrap().unwrap() {
            LineRead::Line(s) => {
                let obs = parse_observation_line(&s, 256, Some(1)).unwrap().unwrap();
                assert_eq!(obs.window, 0);
            }
            other => panic!("{other:?}"),
        }
    }
}
