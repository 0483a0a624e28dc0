//! The multi-client serving loop: N concurrent connections feeding one
//! decision thread through bounded admission.
//!
//! Thread layout (all scoped — `serve_clients` returns only after every
//! thread is done):
//!
//! ```text
//!   accept thread ──spawns──▶ reader thread per client
//!        │                        │  intake (read, bound, parse) + push
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

use crate::admission::{AdmissionConfig, AdmissionQueue};
use crate::intake::{Admitted, Intake};
use crate::net::Listener;
use crate::retry::{io_transient, retry_with, RetryPolicy};
use crate::service::{DecisionService, ServeError};

/// A client's writer half, shared between its reader thread (shed replies)
/// and the decision thread (normal/degraded replies).
type ClientWriter = Arc<Mutex<Box<dyn Write + Send>>>;

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

/// Per-client reader loop: the intake reads, bounds and validates lines;
/// observations are pushed into admission and refused ones answered with
/// a shed reply at once. Runs on its own thread. A read timeout counts as
/// one transient failure under the default [`RetryPolicy`]; exhaustion
/// disconnects the client.
fn read_client(
    intake: &Intake,
    client_id: usize,
    reader: Box<dyn std::io::BufRead + Send>,
    writer: ClientWriter,
    queue: &AdmissionQueue<Admitted<ClientWriter>>,
) {
    for obs in intake.observations(client_id, reader) {
        match obs {
            Ok(obs) => {
                if let Some((victim, record)) = intake.push(queue, obs, writer.clone()) {
                    intake.write_reply(&victim, &record);
                }
            }
            Err(exhausted) => {
                intake.disconnect(client_id, &exhausted.to_string());
                return;
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
    let intake = service.intake();
    let clients = config.clients.max(1);
    let accept_error: Mutex<Option<ServeError>> = Mutex::new(None);
    let accepted = std::sync::atomic::AtomicUsize::new(0);

    let mut decided = 0u64;
    std::thread::scope(|scope| {
        let queue = &queue;
        let intake = &intake;
        let accept_error = &accept_error;
        let accepted = &accepted;
        scope.spawn(move || {
            let mut readers = Vec::with_capacity(clients);
            for client_id in 0..clients {
                let conn = retry_with(
                    RetryPolicy::default(),
                    "accept",
                    io_transient,
                    |_| intake.retried(),
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
                    read_client(intake, client_id, reader, writer, queue);
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
            intake.write_reply(&entry.client, &record);
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
