//! Threaded integration tests for the multi-client serving loop: real TCP
//! sockets, concurrent clients, overload, and abrupt disconnects.
//!
//! The single-threaded chaos harness (`serve::chaos`) proves byte-level
//! determinism; these tests prove the *threaded* properties that a
//! deterministic schedule cannot — every admitted window is answered even
//! under flood, shedding engages instead of blocking, and a client that
//! vanishes mid-stream never takes the server down.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use baselines::{by_name, Observation, Policy, PolicyConfig};
use serve::{
    record_stream, replay_stream, AdmissionConfig, DecisionService, Listener, ServerConfig,
    ShedPolicy,
};
use telemetry::Telemetry;
use workflow::Ensemble;

/// Wraps a policy with a per-decision sleep so a flood test can reliably
/// outpace the decision thread and force the admission queue to overflow.
struct SlowPolicy {
    inner: Box<dyn Policy>,
    delay: Duration,
}

impl Policy for SlowPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn consumer_budget(&self) -> usize {
        self.inner.consumer_budget()
    }
    fn num_task_types(&self) -> usize {
        self.inner.num_task_types()
    }
    fn allocate(&mut self, obs: &Observation) -> Vec<usize> {
        std::thread::sleep(self.delay);
        self.inner.allocate(obs)
    }
}

fn observation_lines(windows: usize) -> Vec<String> {
    let ensemble = Ensemble::msd();
    let mut driver = by_name("uniform", &PolicyConfig::new(&ensemble)).unwrap();
    record_stream(&ensemble, 11, windows, None, driver.as_mut())
        .iter()
        .map(|obs| serde_json::to_string(obs).unwrap())
        .collect()
}

fn uniform_service() -> DecisionService {
    let cfg = PolicyConfig::new(&Ensemble::msd());
    DecisionService::new(by_name("uniform", &cfg).unwrap(), Telemetry::noop())
}

/// Sends each line and waits for its reply before sending the next, so the
/// client can never overflow admission; returns the reply lines.
fn lockstep_client(addr: std::net::SocketAddr, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut replies = Vec::with_capacity(lines.len());
    for line in lines {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        replies.push(reply.trim_end().to_string());
    }
    writer.shutdown(Shutdown::Write).unwrap();
    replies
}

#[test]
fn lockstep_clients_match_batch_replay() {
    let lines = observation_lines(12);
    let (a_lines, b_lines): (Vec<_>, Vec<_>) = lines
        .iter()
        .cloned()
        .enumerate()
        .partition(|(i, _)| i % 2 == 0);
    let a_lines: Vec<String> = a_lines.into_iter().map(|(_, l)| l).collect();
    let b_lines: Vec<String> = b_lines.into_iter().map(|(_, l)| l).collect();

    let listener = Listener::bind("tcp:127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServerConfig {
        clients: 2,
        ..ServerConfig::default()
    };

    let server = std::thread::spawn(move || {
        let mut svc = uniform_service();
        let report = serve_clients_owned(&listener, &mut svc, &config);
        (report, svc.counters().snapshot())
    });
    let (a_replies, b_replies) = {
        let a = std::thread::spawn({
            let a_lines = a_lines.clone();
            move || lockstep_client(addr, &a_lines)
        });
        let b = std::thread::spawn({
            let b_lines = b_lines.clone();
            move || lockstep_client(addr, &b_lines)
        });
        (a.join().unwrap(), b.join().unwrap())
    };
    let (report, counters) = server.join().unwrap();
    let report = report.unwrap();

    assert_eq!(report.clients, 2);
    assert_eq!(report.decided, 12);
    assert_eq!(counters.shed, 0, "lockstep clients must never be shed");

    // Uniform is stateless, so each client's reply stream must be
    // byte-identical to a batch replay of just that client's lines —
    // regardless of how the two streams interleaved on the decision thread.
    let cfg = PolicyConfig::new(&Ensemble::msd());
    for (sent, got) in [(&a_lines, &a_replies), (&b_lines, &b_replies)] {
        let mut policy = by_name("uniform", &cfg).unwrap();
        let expect: Vec<String> = replay_stream(policy.as_mut(), &sent.join("\n"))
            .iter()
            .map(serve::DecisionRecord::to_line)
            .collect();
        assert_eq!(got, &expect);
    }
}

// serve_clients takes &mut DecisionService; tiny shim so the server thread
// closure above stays readable.
fn serve_clients_owned(
    listener: &Listener,
    svc: &mut DecisionService,
    config: &ServerConfig,
) -> Result<serve::ServerReport, serve::ServeError> {
    serve::serve_clients(listener, svc, config)
}

#[test]
fn flood_sheds_but_answers_every_window() {
    const WINDOWS: usize = 80;
    let lines = observation_lines(WINDOWS);

    let listener = Listener::bind("tcp:127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServerConfig {
        admission: AdmissionConfig {
            max_inflight: 2,
            shed: ShedPolicy::Reject,
        },
        clients: 1,
        ..ServerConfig::default()
    };

    let server = std::thread::spawn(move || {
        let cfg = PolicyConfig::new(&Ensemble::msd());
        let slow = SlowPolicy {
            inner: by_name("uniform", &cfg).unwrap(),
            delay: Duration::from_millis(2),
        };
        let mut svc = DecisionService::new(Box::new(slow), Telemetry::noop());
        let report = serve_clients_owned(&listener, &mut svc, &config);
        (report, svc.counters().snapshot())
    });

    // Blast every window without reading a single reply, then close the
    // write half and drain.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for line in &lines {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
    }
    writer.flush().unwrap();
    writer.shutdown(Shutdown::Write).unwrap();
    let mut replies = Vec::new();
    loop {
        let mut reply = String::new();
        if reader.read_line(&mut reply).unwrap() == 0 {
            break;
        }
        replies.push(reply.trim_end().to_string());
    }

    let (report, counters) = server.join().unwrap();
    let report = report.unwrap();

    // Liveness under overload: every window sent gets exactly one reply —
    // a decision or a typed shed — and the flood must actually have shed.
    assert_eq!(replies.len(), WINDOWS, "one reply per window, shed or not");
    assert!(counters.shed > 0, "flood past max_inflight=2 must shed");
    assert_eq!(report.decided + counters.shed, WINDOWS as u64);
    let shed_replies = replies
        .iter()
        .filter(|r| r.contains("\"status\":\"shed\""))
        .count() as u64;
    assert_eq!(shed_replies, counters.shed);
    for reply in &replies {
        let record: serve::DecisionRecord = serde_json::from_str(reply).unwrap();
        if record.is_actionable() {
            assert!(!record.allocations.is_empty());
        } else {
            assert!(record.allocations.is_empty(), "shed replies carry no work");
        }
    }
}

#[test]
fn client_vanishing_mid_stream_does_not_take_the_server_down() {
    let lines = observation_lines(8);

    let listener = Listener::bind("tcp:127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServerConfig {
        clients: 2,
        ..ServerConfig::default()
    };

    let server = std::thread::spawn(move || {
        let mut svc = uniform_service();
        let report = serve_clients_owned(&listener, &mut svc, &config);
        (report, svc.counters().snapshot())
    });

    // Client 1 sends a few windows and vanishes without ever reading.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        for line in &lines[..3] {
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
        }
        stream.flush().unwrap();
        // Dropped here: the socket closes while replies may still be in
        // flight. The server must absorb any resulting write failures.
    }

    // Client 2 arrives afterwards and must be served normally.
    let survivor: Vec<String> = lockstep_client(addr, &lines[3..]);

    let (report, _counters) = server.join().unwrap();
    let report = report.unwrap();
    assert_eq!(report.clients, 2);
    assert_eq!(survivor.len(), 5);
    assert!(
        report.decided >= 5,
        "the surviving client's windows decided"
    );
    for reply in &survivor {
        let record: serve::DecisionRecord = serde_json::from_str(reply).unwrap();
        assert!(record.is_actionable());
    }
}

#[test]
fn unix_socket_round_trip() {
    let path = std::env::temp_dir().join(format!("miras_overload_{}.sock", std::process::id()));
    let listener = Listener::bind(&format!("unix:{}", path.display())).unwrap();
    let lines = observation_lines(4);

    let server = std::thread::spawn(move || {
        let mut svc = uniform_service();
        serve_clients_owned(&listener, &mut svc, &ServerConfig::default()).unwrap()
    });

    let stream = std::os::unix::net::UnixStream::connect(&path).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut replies = Vec::new();
    for line in &lines {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        replies.push(reply.trim_end().to_string());
    }
    writer.shutdown(Shutdown::Write).unwrap();

    let report = server.join().unwrap();
    assert_eq!(report.decided, 4);
    assert_eq!(replies.len(), 4);
}
