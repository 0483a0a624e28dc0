//! The multi-client serving loop: N concurrent connections feeding one
//! decision thread through bounded admission.
//!
//! Thread layout (all scoped — `serve_clients` returns only after every
//! thread is done):
//!
//! ```text
//!   accept thread ──spawns──▶ reader thread per client
//!        │                        │  parse + admission push
//!        │                        ▼
//!        │                 AdmissionQueue (bounded, shed on overflow)
//!        │                        │
//!        └── close() after ───────▼
//!            readers finish   decision thread (caller's thread, owns the
//!                             DecisionService) — drains, then returns
//! ```
//!
//! Decisions stay on a single thread, which is what keeps hot-swap atomic
//! and the admitted-window output deterministic; only ingestion fans out.
//! Shed replies are written from the reader threads immediately (the
//! client that overflowed never waits on the decision queue it was refused
//! from), and graceful shutdown means: stop admitting, decide everything
//! already admitted, answer it, then return.

use std::io::Write;
use std::sync::{Arc, Mutex};

use telemetry::Value;

use crate::admission::{AdmissionConfig, AdmissionQueue, PushOutcome, ServeCounters};
use crate::net::Listener;
use crate::retry::{io_transient, retry_with, RetryPolicy};
use crate::service::{DecisionService, ServeError};
use crate::wire::{
    parse_observation_line, DecisionRecord, LineRead, LineReader, WindowObservation,
};

/// A client's writer half, shared between its reader thread (shed replies)
/// and the decision thread (normal/degraded replies).
type ClientWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// One admitted window waiting for the decision thread.
struct Entry {
    obs: WindowObservation,
    reply: ClientWriter,
}

/// Multi-client server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Admission bound and shed policy.
    pub admission: AdmissionConfig,
    /// Total client connections to serve before graceful shutdown
    /// (accept-loop bound; each client may stream any number of windows).
    pub clients: usize,
    /// Per-read socket timeout for client connections. `None` means reads
    /// block forever — fine for trusted peers, unwise under chaos.
    pub read_timeout: Option<std::time::Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            admission: AdmissionConfig::default(),
            clients: 1,
            read_timeout: None,
        }
    }
}

/// What a completed serve run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerReport {
    /// Client connections accepted and served.
    pub clients: usize,
    /// Windows decided by the decision thread (normal + degraded).
    pub decided: u64,
}

/// Writes one record line to a client; returns whether the client was
/// still there. A vanished client costs a `dropped_replies` count, never a
/// crash — the decision itself already happened and its telemetry stands.
fn write_reply(
    writer: &ClientWriter,
    record: &DecisionRecord,
    counters: &ServeCounters,
    telemetry: &telemetry::Telemetry,
) -> bool {
    let mut guard = writer
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let line = record.to_line();
    let ok = guard
        .write_all(line.as_bytes())
        .and_then(|()| guard.write_all(b"\n"))
        .and_then(|()| guard.flush())
        .is_ok();
    if !ok {
        ServeCounters::bump(
            &counters.dropped_replies,
            1,
            telemetry,
            "serve.dropped_replies",
        );
    }
    ok
}

/// Per-client reader loop: bounded line reading, wire validation,
/// admission push, immediate shed replies. Runs on its own thread. A read
/// timeout counts as one transient failure under the default
/// [`RetryPolicy`]; exhaustion disconnects the client.
#[allow(clippy::too_many_arguments)]
fn read_client(
    client_id: usize,
    reader: Box<dyn std::io::BufRead + Send>,
    writer: ClientWriter,
    queue: &AdmissionQueue<Entry>,
    counters: &ServeCounters,
    telemetry: &telemetry::Telemetry,
    policy_name: &str,
    max_line_bytes: usize,
    expected_dims: Option<usize>,
) {
    let mut lines = LineReader::new(reader, max_line_bytes);
    let mut lineno = 0usize;
    loop {
        let read = retry_with(
            RetryPolicy::default(),
            "client_read",
            io_transient,
            |_| ServeCounters::bump(&counters.retries, 1, telemetry, "serve.retries"),
            || lines.next_line(),
        );
        let line = match read {
            Ok(Some(LineRead::Line(line))) => {
                lineno += 1;
                line
            }
            Ok(Some(LineRead::Oversized { bytes })) => {
                lineno += 1;
                ServeCounters::bump(&counters.wire_rejected, 1, telemetry, "serve.wire_rejected");
                telemetry.event(
                    "serve.wire_rejected",
                    &[
                        ("client", Value::UInt(client_id as u64)),
                        ("line", Value::UInt(lineno as u64)),
                        ("kind", Value::String("oversized".to_string())),
                        ("bytes", Value::UInt(bytes as u64)),
                    ],
                );
                continue;
            }
            Ok(None) => return, // clean EOF
            Err(exhausted) => {
                ServeCounters::bump(&counters.disconnects, 1, telemetry, "serve.disconnects");
                telemetry.event(
                    "serve.disconnect",
                    &[
                        ("client", Value::UInt(client_id as u64)),
                        ("error", Value::String(exhausted.to_string())),
                    ],
                );
                return;
            }
        };
        let obs = match parse_observation_line(&line, max_line_bytes, expected_dims) {
            Ok(Some(obs)) => obs,
            Ok(None) => continue, // blank keepalive
            Err(e) => {
                ServeCounters::bump(&counters.wire_rejected, 1, telemetry, "serve.wire_rejected");
                telemetry.event(
                    "serve.wire_rejected",
                    &[
                        ("client", Value::UInt(client_id as u64)),
                        ("line", Value::UInt(lineno as u64)),
                        ("kind", Value::String(e.kind().to_string())),
                        ("error", Value::String(e.to_string())),
                    ],
                );
                continue;
            }
        };
        let window = obs.window;
        match queue.push(Entry {
            obs,
            reply: writer.clone(),
        }) {
            PushOutcome::Admitted => {}
            PushOutcome::ShedNew => {
                ServeCounters::bump(&counters.shed, 1, telemetry, "serve.shed");
                let record = DecisionRecord::shed(window, policy_name);
                write_reply(&writer, &record, counters, telemetry);
            }
            PushOutcome::ShedOldest(victim) => {
                ServeCounters::bump(&counters.shed, 1, telemetry, "serve.shed");
                let record = DecisionRecord::shed(victim.obs.window, policy_name);
                write_reply(&victim.reply, &record, counters, telemetry);
            }
        }
    }
}

/// Serves `config.clients` connections from `listener` through `service`,
/// returning once every accepted connection has ended and every admitted
/// window is decided and answered.
///
/// The caller's thread becomes the decision thread. Overload is shed per
/// `config.admission`; malformed input is skipped and counted; transient
/// I/O is retried with bounded backoff. The only fatal errors are
/// listener-level: a non-transient accept failure, or accept-retry
/// exhaustion.
///
/// # Errors
///
/// [`ServeError::Io`] / [`ServeError::RetryExhausted`] from the accept
/// loop. Windows admitted before the failure are still decided and
/// answered first (the queue drains before the error is returned).
pub fn serve_clients(
    listener: &Listener,
    service: &mut DecisionService,
    config: &ServerConfig,
) -> Result<ServerReport, ServeError> {
    let queue = AdmissionQueue::new(config.admission);
    let counters = service.counters();
    let telemetry = service.telemetry();
    let policy_name = service.policy_name().to_string();
    let max_line_bytes = service.max_line_bytes();
    let expected_dims = service.expected_dims();
    let clients = config.clients.max(1);
    let accept_error: Mutex<Option<ServeError>> = Mutex::new(None);
    let accepted = std::sync::atomic::AtomicUsize::new(0);

    let mut decided = 0u64;
    std::thread::scope(|scope| {
        let queue = &queue;
        let counters = counters.as_ref();
        let telemetry = &telemetry;
        let policy_name = policy_name.as_str();
        let accept_error = &accept_error;
        let accepted = &accepted;
        scope.spawn(move || {
            let mut readers = Vec::with_capacity(clients);
            for client_id in 0..clients {
                let conn = retry_with(
                    RetryPolicy::default(),
                    "accept",
                    io_transient,
                    |_| ServeCounters::bump(&counters.retries, 1, telemetry, "serve.retries"),
                    || listener.accept_timed(config.read_timeout),
                );
                let (reader, writer) = match conn {
                    Ok(halves) => halves,
                    Err(exhausted) => {
                        let err = if exhausted.attempts == 1 && !io_transient(&exhausted.last) {
                            ServeError::Io {
                                op: "accept",
                                source: exhausted.last,
                            }
                        } else {
                            ServeError::RetryExhausted {
                                op: "accept",
                                attempts: exhausted.attempts,
                                last: exhausted.last,
                            }
                        };
                        *accept_error
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(err);
                        break;
                    }
                };
                accepted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let writer: ClientWriter = Arc::new(Mutex::new(writer));
                readers.push(scope.spawn(move || {
                    read_client(
                        client_id,
                        reader,
                        writer,
                        queue,
                        counters,
                        telemetry,
                        policy_name,
                        max_line_bytes,
                        expected_dims,
                    );
                }));
            }
            for handle in readers {
                let _ = handle.join();
            }
            // All clients done (or accept failed): stop admitting. The
            // decision thread drains what was admitted, then returns.
            queue.close();
        });

        while let Some(entry) = queue.pop_wait() {
            let record = service.handle(&entry.obs);
            decided += 1;
            write_reply(&entry.reply, &record, counters, telemetry);
        }
    });

    if let Some(err) = accept_error
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take()
    {
        return Err(err);
    }
    Ok(ServerReport {
        clients: accepted.load(std::sync::atomic::Ordering::Relaxed),
        decided,
    })
}
