//! The one intake every serving mode shares. Socket readers
//! ([`crate::serve_clients`]), the lockstep loop behind stdin and
//! `--replay` ([`crate::DecisionService::lockstep`]) and the chaos
//! executor ([`crate::chaos::run_schedule`]) all read, bound, reject and
//! shed lines through [`Intake`], and count dropped replies, retries and
//! disconnects through it. Every `serve.wire_rejected` event carries
//! `client`, `line`, `kind` and `error`; stdin and `--replay` are
//! client 0.

use std::io::{self, BufRead, Write};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, PoisonError};

use telemetry::{Telemetry, Value};

use crate::admission::{AdmissionQueue, PushOutcome, ServeCounters};
use crate::retry::{io_transient, retry_with, RetryExhausted, RetryPolicy};
use crate::wire::{
    parse_observation_line, DecisionRecord, LineRead, LineReader, WindowObservation, WireError,
    MAX_LINE_BYTES,
};

/// One admitted window and the client its reply goes to: a writer handle
/// in the threaded server, a client id in the chaos executor.
pub(crate) struct Admitted<C> {
    pub(crate) obs: WindowObservation,
    pub(crate) client: C,
}

/// The line rule and the reply accounting of one service, built by
/// [`crate::DecisionService::intake`].
pub(crate) struct Intake {
    pub(crate) counters: Arc<ServeCounters>,
    pub(crate) telemetry: Telemetry,
    pub(crate) expected_dims: Option<usize>,
    pub(crate) policy_name: String,
}

impl Intake {
    /// The observations on `input`, read at [`MAX_LINE_BYTES`] per line
    /// with bounded retry of transient read errors. Blank and rejected
    /// lines are skipped (rejections counted); the stream ends at EOF or
    /// with the read error that exhausted the retries.
    pub(crate) fn observations<R: BufRead>(&self, client: usize, input: R) -> Observations<'_, R> {
        Observations {
            intake: self,
            client,
            lines: LineReader::new(input, MAX_LINE_BYTES),
            line: 0,
        }
    }

    /// Decides one line, the `line`-th of `client`'s stream: `Ok(Some)` for
    /// an observation, `Ok(None)` for a blank keepalive, `Err` for a
    /// rejection, which is already counted and reported.
    pub(crate) fn admit(
        &self,
        client: usize,
        line: usize,
        read: LineRead,
    ) -> Result<Option<WindowObservation>, WireError> {
        let parsed = match read {
            LineRead::Line(text) => {
                parse_observation_line(&text, MAX_LINE_BYTES, self.expected_dims)
            }
            LineRead::Oversized { bytes } => Err(WireError::Oversized {
                bytes,
                limit: MAX_LINE_BYTES,
            }),
        };
        parsed.inspect_err(|e| {
            self.bump(&self.counters.wire_rejected, "serve.wire_rejected");
            self.telemetry.event(
                "serve.wire_rejected",
                &[
                    ("client", Value::UInt(client as u64)),
                    ("line", Value::UInt(line as u64)),
                    ("kind", Value::String(e.kind().to_string())),
                    ("error", Value::String(e.to_string())),
                ],
            );
        })
    }

    /// Offers `obs` to the admission queue. When admission control refuses
    /// a window (the new one, or the oldest under drop-oldest), returns
    /// that window's client and its shed reply.
    pub(crate) fn push<C: Clone>(
        &self,
        queue: &AdmissionQueue<Admitted<C>>,
        obs: WindowObservation,
        client: C,
    ) -> Option<(C, DecisionRecord)> {
        let window = obs.window;
        let (client, window) = match queue.push(Admitted {
            obs,
            client: client.clone(),
        }) {
            PushOutcome::Admitted => return None,
            PushOutcome::ShedNew => (client, window),
            PushOutcome::ShedOldest(victim) => (victim.client, victim.obs.window),
        };
        Some((client, self.shed(window)))
    }

    /// Counts one shed window and mints its reply: no allocations, policy
    /// version 0, the serving policy's name for attribution.
    pub(crate) fn shed(&self, window: usize) -> DecisionRecord {
        self.bump(&self.counters.shed, "serve.shed");
        DecisionRecord::shed(window, &self.policy_name)
    }

    /// Writes one reply line to a client. A vanished client costs a
    /// dropped reply, never an error: the decision already happened and
    /// its telemetry stands.
    pub(crate) fn write_reply<W: Write>(&self, client: &Mutex<W>, record: &DecisionRecord) {
        let mut out = client.lock().unwrap_or_else(PoisonError::into_inner);
        let line = record.to_line();
        let delivered = out
            .write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .and_then(|()| out.flush());
        if delivered.is_err() {
            self.dropped_reply();
        }
    }

    fn bump(&self, counter: &AtomicU64, name: &'static str) {
        ServeCounters::bump(counter, 1, &self.telemetry, name);
    }

    /// Counts one retry of a transient socket failure.
    pub(crate) fn retried(&self) {
        self.bump(&self.counters.retries, "serve.retries");
    }

    /// Counts a reply whose client was gone.
    pub(crate) fn dropped_reply(&self) {
        self.bump(&self.counters.dropped_replies, "serve.dropped_replies");
    }

    /// Counts a client lost to a read error (or a scheduled chaos
    /// disconnect) and reports why.
    pub(crate) fn disconnect(&self, client: usize, error: &str) {
        self.bump(&self.counters.disconnects, "serve.disconnects");
        self.telemetry.event(
            "serve.disconnect",
            &[
                ("client", Value::UInt(client as u64)),
                ("error", Value::String(error.to_string())),
            ],
        );
    }
}

/// Iterator over one client's observations; see [`Intake::observations`].
pub(crate) struct Observations<'a, R> {
    intake: &'a Intake,
    client: usize,
    lines: LineReader<R>,
    line: usize,
}

impl<R: BufRead> Iterator for Observations<'_, R> {
    type Item = Result<WindowObservation, RetryExhausted<io::Error>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let read = retry_with(
                RetryPolicy::default(),
                "client_read",
                io_transient,
                |_| self.intake.retried(),
                || self.lines.next_line(),
            );
            match read {
                Ok(Some(read)) => {
                    self.line += 1;
                    if let Ok(Some(obs)) = self.intake.admit(self.client, self.line, read) {
                        return Some(Ok(obs));
                    }
                }
                Ok(None) => return None,
                Err(exhausted) => return Some(Err(exhausted)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DecisionService;
    use baselines::{by_name, PolicyConfig};
    use std::sync::atomic::Ordering;
    use workflow::Ensemble;

    fn uniform_intake() -> (DecisionService, Intake) {
        let policy = by_name("uniform", &PolicyConfig::new(&Ensemble::msd())).unwrap();
        let svc = DecisionService::new(policy, Telemetry::noop()).with_expected_dims(4);
        let intake = svc.intake();
        (svc, intake)
    }

    #[test]
    fn shed_reply_counts_and_carries_the_policy_name() {
        let (svc, intake) = uniform_intake();
        let shed = intake.shed(9);
        assert!(!shed.is_actionable());
        assert_eq!(shed.policy, "uniform");
        assert!(shed.allocations.is_empty());
        assert_eq!(svc.counters().shed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn observations_skip_blank_and_rejected_lines_and_bound_every_line() {
        let (svc, intake) = uniform_intake();
        let mut input = b"{\"window\":0,\"wip\":[1.0,2.0,3.0,4.0]}\n\n\xff\xfe\n".to_vec();
        input.extend(std::iter::repeat_n(b'x', MAX_LINE_BYTES + 1));
        input.extend_from_slice(
            b"\n{\"window\":1,\"wip\":[1.0]}\n{\"window\":2,\"wip\":[0.0,0.0,0.0,0.0]}",
        );
        let windows: Vec<usize> = intake
            .observations(0, input.as_slice())
            .map(|obs| obs.unwrap().window)
            .collect();
        assert_eq!(windows, [0, 2]);
        let counters = svc.counters().snapshot();
        assert_eq!(counters.wire_rejected, 3, "non-UTF-8, oversized, bad dims");
        assert_eq!(counters.disconnects, 0);
    }

    #[test]
    fn refused_windows_get_one_shed_reply_addressed_to_their_client() {
        use crate::admission::{AdmissionConfig, ShedPolicy};
        let (svc, intake) = uniform_intake();
        let obs = |window| WindowObservation {
            window,
            wip: vec![1.0; 4],
            metrics: None,
        };
        for (shed, victim) in [
            (ShedPolicy::Reject, (7, 1)),
            (ShedPolicy::DropOldest, (5, 0)),
        ] {
            let queue = AdmissionQueue::new(AdmissionConfig {
                max_inflight: 1,
                shed,
            });
            assert!(intake.push(&queue, obs(0), 5).is_none());
            let (client, record) = intake.push(&queue, obs(1), 7).expect("queue is full");
            assert_eq!((client, record.window), victim);
            assert!(!record.is_actionable());
        }
        assert_eq!(svc.counters().shed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn failed_reply_writes_and_disconnects_are_counted() {
        struct Closed;
        impl Write for Closed {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let (svc, intake) = uniform_intake();
        let record = intake.shed(0);
        let open = Mutex::new(Vec::new());
        intake.write_reply(&open, &record);
        let written = open.into_inner().unwrap();
        assert_eq!(written, format!("{}\n", record.to_line()).into_bytes());
        intake.write_reply(&Mutex::new(Closed), &record);
        intake.disconnect(3, "gone");
        let counters = svc.counters().snapshot();
        assert_eq!((counters.dropped_replies, counters.disconnects), (1, 1));
    }
}
