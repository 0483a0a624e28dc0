//! Socket ingestion and the metrics scrape endpoint.
//!
//! Deliberately minimal: the wire protocol is JSON Lines over a stream
//! socket (one observation per line in, one decision per line out), and
//! the metrics endpoint speaks just enough HTTP/1.1 for Prometheus-style
//! scrapers and `curl`. No async runtime — the decision loop is
//! single-threaded by design (hot-swap atomicity comes from swapping
//! between windows), and a scrape endpoint serving one small page needs
//! nothing more than a thread.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

use telemetry::ScrapeRecorder;

/// A bound observation-stream listener (`--listen tcp:ADDR` or
/// `--listen unix:PATH`).
pub enum Listener {
    /// TCP stream socket.
    Tcp(TcpListener),
    /// Unix-domain stream socket.
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Binds a listener from its spec: `tcp:HOST:PORT` or `unix:PATH`.
    /// An existing socket file at a `unix:` path is removed first (the
    /// conventional take-over-the-address behaviour for local services).
    ///
    /// # Errors
    ///
    /// `InvalidInput` for an unrecognized spec; otherwise whatever bind
    /// returns.
    pub fn bind(spec: &str) -> io::Result<Listener> {
        if let Some(addr) = spec.strip_prefix("tcp:") {
            return Ok(Listener::Tcp(TcpListener::bind(addr)?));
        }
        if let Some(path) = spec.strip_prefix("unix:") {
            let path = PathBuf::from(path);
            if path.exists() {
                std::fs::remove_file(&path)?;
            }
            return Ok(Listener::Unix(UnixListener::bind(&path)?, path));
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("listen spec must be tcp:HOST:PORT or unix:PATH, got {spec}"),
        ))
    }

    /// The bound TCP address, when TCP (useful with port 0 in tests).
    #[must_use]
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(..) => None,
        }
    }

    /// Accepts one client, returning buffered line-oriented reader and
    /// writer halves of the same connection. Both halves are `Send` so the
    /// multi-client server can hand them to reader threads.
    ///
    /// `read_timeout` sets an optional per-read timeout on the returned
    /// connection. A timed-out read surfaces as a transient
    /// `WouldBlock`/`TimedOut` error, which is what lets reader threads
    /// apply bounded retry instead of hanging forever on a slow-loris
    /// client.
    ///
    /// # Errors
    ///
    /// Propagates accept/clone/configure failures.
    pub(crate) fn accept_timed(
        &self,
        read_timeout: Option<std::time::Duration>,
    ) -> io::Result<(Box<dyn BufRead + Send>, Box<dyn Write + Send>)> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_read_timeout(read_timeout)?;
                let reader = stream.try_clone()?;
                Ok((Box::new(BufReader::new(reader)), Box::new(stream)))
            }
            Listener::Unix(l, _) => {
                let (stream, _) = l.accept()?;
                stream.set_read_timeout(read_timeout)?;
                let reader = stream.try_clone()?;
                Ok((Box::new(BufReader::new(reader)), Box::new(stream)))
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Serves `scrape.render()` as a plaintext HTTP page on `addr`
/// (`host:port`; port 0 picks a free port — the chosen address is
/// returned). Every request gets the current aggregates regardless of
/// method or path, which is all a scrape target needs.
///
/// The endpoint runs on a detached thread for the life of the process;
/// the decision loop never blocks on it.
///
/// # Errors
///
/// Propagates bind failures.
pub fn spawn_metrics_endpoint(
    addr: &str,
    scrape: Arc<ScrapeRecorder>,
) -> io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let handle = std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            // Drain the request head (we answer every request the same way).
            let mut head = [0u8; 1024];
            let _ = stream.read(&mut head);
            let body = scrape.render();
            let response = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            let _ = stream.write_all(response.as_bytes());
        }
    });
    Ok((local, handle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    #[test]
    fn metrics_endpoint_serves_current_aggregates() {
        let scrape = ScrapeRecorder::new();
        let tel = telemetry::Telemetry::new(scrape.clone());
        tel.counter("serve.decisions", 5);
        let (addr, _handle) = spawn_metrics_endpoint("127.0.0.1:0", scrape).unwrap();
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("serve_decisions 5"), "{response}");
    }

    #[test]
    fn tcp_listener_round_trips_lines() {
        let listener = Listener::bind("tcp:127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(b"hello\n").unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let mut reply = String::new();
            conn.read_to_string(&mut reply).unwrap();
            reply
        });
        let (mut reader, mut writer) = listener.accept_timed(None).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "hello\n");
        writer.write_all(b"ack\n").unwrap();
        drop(writer);
        drop(reader);
        assert_eq!(client.join().unwrap(), "ack\n");
    }

    #[test]
    fn unix_listener_round_trips_lines() {
        let path = std::env::temp_dir().join("miras_serve_net_test.sock");
        let listener = Listener::bind(&format!("unix:{}", path.display())).unwrap();
        let path_for_client = path.clone();
        let client = std::thread::spawn(move || {
            let mut conn = std::os::unix::net::UnixStream::connect(&path_for_client).unwrap();
            conn.write_all(b"{\"window\":0}\n").unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let mut reply = String::new();
            conn.read_to_string(&mut reply).unwrap();
            reply
        });
        let (mut reader, mut writer) = listener.accept_timed(None).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "{\"window\":0}\n");
        writer.write_all(b"ok\n").unwrap();
        drop(writer);
        drop(reader);
        assert_eq!(client.join().unwrap(), "ok\n");
        drop(listener);
        assert!(!path.exists(), "socket file cleaned up on drop");
    }

    #[test]
    fn bad_listen_spec_is_invalid_input() {
        let err = Listener::bind("udp:1.2.3.4:5").err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
