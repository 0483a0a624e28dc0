//! Decoder safety for wire lines: damaged observation streams never panic
//! the serving intake, every non-blank line is either decided or counted
//! as rejected, and a rejection is reported with the same fields whichever
//! mode read it (socket client, lockstep loop, chaos executor).

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex, OnceLock};

use baselines::{by_name, PolicyConfig};
use proptest::prelude::*;
use serve::chaos::{run_schedule, ChaosConfig, ChaosEvent, ChaosSchedule};
use serve::{
    record_stream, serve_clients, AdmissionConfig, DecisionService, Listener, ServerConfig,
    MAX_LINE_BYTES,
};
use telemetry::{Recorder, Telemetry, Value};
use workflow::Ensemble;

/// A recorded 12-window MSD stream, as `miras-serve --record` writes it.
fn stream() -> &'static [u8] {
    static STREAM: OnceLock<Vec<u8>> = OnceLock::new();
    STREAM.get_or_init(|| {
        let ensemble = Ensemble::msd();
        let mut driver = by_name("uniform", &PolicyConfig::new(&ensemble)).unwrap();
        record_stream(&ensemble, 3, 12, None, driver.as_mut())
            .iter()
            .flat_map(|obs| format!("{}\n", serde_json::to_string(obs).unwrap()).into_bytes())
            .collect()
    })
}

/// Keeps every telemetry event, in order.
#[derive(Default)]
struct Events(Mutex<Vec<(String, Value)>>);

impl Recorder for Events {
    fn counter(&self, _: &str, _: u64) {}
    fn gauge(&self, _: &str, _: f64) {}
    fn observe(&self, _: &str, _: f64) {}
    fn event(&self, name: &str, data: Value) {
        self.0.lock().unwrap().push((name.to_string(), data));
    }
}

impl Events {
    /// The field names of every `serve.wire_rejected` event, in order.
    fn rejection_fields(&self) -> Vec<Vec<String>> {
        self.0
            .lock()
            .unwrap()
            .iter()
            .filter(|(name, _)| name == "serve.wire_rejected")
            .map(|(_, data)| match data {
                Value::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
                other => panic!("event payload is not an object: {other:?}"),
            })
            .collect()
    }
}

/// The service `miras-serve --policy wip-proportional` assembles for MSD,
/// recording into `events`.
fn service(events: &Arc<Events>) -> DecisionService {
    let ensemble = Ensemble::msd();
    let policy = by_name("wip-proportional", &PolicyConfig::new(&ensemble)).unwrap();
    DecisionService::new(policy, Telemetry::new(events.clone()))
        .with_expected_dims(ensemble.num_task_types())
}

/// Lines the intake must account for: every newline-terminated or trailing
/// segment that is not whitespace after lossy UTF-8 decoding.
fn non_blank_lines(bytes: &[u8]) -> u64 {
    let mut segments: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    if segments.last().is_some_and(|s| s.is_empty()) {
        segments.pop();
    }
    segments
        .iter()
        .filter(|s| s.len() > MAX_LINE_BYTES || !String::from_utf8_lossy(s).trim().is_empty())
        .count() as u64
}

/// Serves `bytes` through the lockstep loop; returns the decisions made.
fn lockstep(svc: &mut DecisionService, bytes: &[u8]) -> u64 {
    let mut decided = 0;
    svc.lockstep(bytes, |_| {
        decided += 1;
        Ok(())
    })
    .expect("an in-memory stream never fails to read");
    decided
}

/// Sends `bytes` as one client of a real TCP server and reads the replies.
fn over_a_socket(svc: &mut DecisionService, bytes: &[u8]) -> String {
    let listener = Listener::bind("tcp:127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = std::thread::spawn({
        let bytes = bytes.to_vec();
        move || {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(&bytes).unwrap();
            conn.shutdown(Shutdown::Write).unwrap();
            let mut replies = String::new();
            conn.read_to_string(&mut replies).unwrap();
            replies
        }
    });
    serve_clients(&listener, svc, &ServerConfig::default()).unwrap();
    client.join().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A recorded stream cut anywhere and with any byte flipped: the
    /// lockstep loop never panics, and decided windows plus rejected lines
    /// equal the non-blank lines it read.
    #[test]
    fn damaged_streams_are_decided_or_rejected_line_by_line(
        cut in 0usize..1_000_000,
        at in 0usize..1_000_000,
        mask in 1u8..=255,
    ) {
        let full = stream();
        let mut bytes = full[..cut % (full.len() + 1)].to_vec();
        if !bytes.is_empty() {
            let at = at % bytes.len();
            bytes[at] ^= mask;
        }
        let events = Arc::new(Events::default());
        let mut svc = service(&events);
        let decided = lockstep(&mut svc, &bytes);
        let rejected = svc.counters().snapshot().wire_rejected;
        prop_assert_eq!(decided + rejected, non_blank_lines(&bytes));
        prop_assert_eq!(events.rejection_fields().len() as u64, rejected);
    }

    /// One malformed line (junk bytes, or one byte over the bound) is
    /// reported by a `serve.wire_rejected` event with the same field names
    /// from a socket client, the lockstep loop and the chaos executor.
    #[test]
    fn rejections_carry_one_field_set_in_every_mode(
        junk in proptest::collection::vec(0u8..=255, 0..48),
        oversized_bit in 0u8..2,
    ) {
        let mut line: Vec<u8> = if oversized_bit == 1 {
            vec![b'x'; MAX_LINE_BYTES + 1]
        } else {
            // '#' keeps the line non-blank and never valid JSON.
            std::iter::once(b'#')
                .chain(junk.into_iter().map(|b| if b == b'\n' { b' ' } else { b }))
                .collect()
        };
        let text = String::from_utf8_lossy(&line).into_owned();
        line.push(b'\n');

        let socket = Arc::new(Events::default());
        let replies = over_a_socket(&mut service(&socket), &line);
        prop_assert_eq!(replies, "");

        let stdin = Arc::new(Events::default());
        prop_assert_eq!(lockstep(&mut service(&stdin), &line), 0);

        let chaos = Arc::new(Events::default());
        let schedule = ChaosSchedule {
            config: ChaosConfig::quiet(0),
            events: vec![ChaosEvent::Deliver { client: 0, line: text }],
        };
        let outcome = run_schedule(
            &mut service(&chaos),
            AdmissionConfig::default(),
            &schedule,
            None,
        );
        prop_assert_eq!(outcome.delivered_rejected, 1);

        let want = vec![["client", "line", "kind", "error"].map(String::from).to_vec()];
        prop_assert_eq!(socket.rejection_fields(), want.clone());
        prop_assert_eq!(stdin.rejection_fields(), want.clone());
        prop_assert_eq!(chaos.rejection_fields(), want);
    }
}
