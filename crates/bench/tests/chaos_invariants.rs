//! Chaos against a *real* trained MIRAS checkpoint, deployed as a watched
//! policy file behind a deadline and a fallback, exactly as `miras-serve`
//! serves one. Over seeded fault schedules (malformed lines, disconnects,
//! overload, stalls, checkpoint corruption mid-hot-swap):
//!
//! * every invariant of `chaos::verify` holds, for three seeds under both
//!   shed policies;
//! * a second run of a schedule delivers byte-identical transcripts;
//! * a fault-free control run equals a bare batch replay byte for byte;
//! * the `serve.*` counter rows the service writes into its telemetry
//!   stream equal the counters of the outcome;
//! * corruption never leaves the service on a broken policy, and a
//!   post-chaos hot-swap to a newer checkpoint still works.
//!
//! The cheap-policy variants of these properties live in
//! `crates/serve/tests/chaos_properties.rs`; these exist because checkpoint
//! corruption only exercises the real load/validate path when the
//! checkpoint actually contains a trained agent.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

use baselines::{by_name, fallback, PolicyConfig};
use microsim::{EnvConfig, MicroserviceEnv};
use miras_core::{save_policy, ClusterEnvAdapter, MirasConfig, MirasTrainer};
use serve::chaos::{
    generate_schedule, run_schedule, verify, ChaosConfig, ChaosEvent, ChaosOutcome,
};
use serve::{
    load_policy, record_stream, replay_stream, AdmissionConfig, CheckpointWatcher, DecisionService,
    ShedPolicy,
};
use telemetry::{JsonlSink, Telemetry, Value};
use workflow::Ensemble;

/// Far above a smoke agent's decision time and far below every injected
/// stall (>= 1 s), so which windows degrade is a pure function of the
/// schedule.
const DEADLINE: Duration = Duration::from_millis(100);

fn temp_checkpoint(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "miras_chaos_invariants_{tag}_{}.json",
        std::process::id()
    ))
}

/// The policy file of an MSD agent trained for one smoke iteration at seed
/// 7, saved as `miras-cli train --out` saves it; trained once per process.
fn policy_file() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let ensemble = Ensemble::msd();
        let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(7);
        let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, env_config));
        let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(7));
        trainer.run_iteration(&mut env);
        let path = temp_checkpoint("trained");
        save_policy(&path, &trainer.agent(), 1).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        bytes
    })
}

/// A copy of the policy file at a path of its own: a chaos run corrupts
/// and restores its watched checkpoint, so tests running side by side
/// must not share one.
fn deploy(tag: &str) -> PathBuf {
    let path = temp_checkpoint(tag);
    std::fs::write(&path, policy_file()).unwrap();
    path
}

/// The clean stream every schedule is expanded from: 50 recorded MSD
/// windows at seed 7 under `uniform`.
fn base_lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let ensemble = Ensemble::msd();
        let mut driver = by_name("uniform", &PolicyConfig::new(&ensemble)).unwrap();
        record_stream(&ensemble, 7, 50, None, driver.as_mut())
            .iter()
            .map(|obs| serde_json::to_string(obs).unwrap())
            .collect()
    })
}

/// The chaotic schedules: a heavy fault mix at seeds 1-3 under both shed
/// policies, and the default mix at seeds 42-44, one of them at a queue
/// bound of 2.
fn cases() -> Vec<(ChaosConfig, AdmissionConfig)> {
    let heavy = |seed| ChaosConfig {
        seed,
        clients: 3,
        malformed: 0.15,
        disconnect: 0.04,
        stall: 0.10,
        corrupt: 0.06,
        burst: 4,
    };
    let default = |seed| ChaosConfig {
        seed,
        ..ChaosConfig::default()
    };
    let admission = |max_inflight, shed| AdmissionConfig { max_inflight, shed };
    let mut cases = Vec::new();
    for seed in 1..=3 {
        for shed in [ShedPolicy::Reject, ShedPolicy::DropOldest] {
            cases.push((heavy(seed), admission(4, shed)));
        }
    }
    cases.push((default(42), admission(4, ShedPolicy::Reject)));
    cases.push((default(43), admission(4, ShedPolicy::DropOldest)));
    cases.push((default(44), admission(2, ShedPolicy::Reject)));
    cases
}

/// Runs `case`'s schedule once on a fresh service over `checkpoint` (its
/// watcher armed, the deadline and the fallback attached), recording into
/// `telemetry`, and finishes the service as the daemon does at exit.
fn run(
    case: &(ChaosConfig, AdmissionConfig),
    checkpoint: &Path,
    telemetry: Telemetry,
) -> ChaosOutcome {
    let ensemble = Ensemble::msd();
    let (policy, _version) = load_policy(checkpoint).unwrap();
    let mut svc = DecisionService::new(policy, telemetry)
        .with_watcher(CheckpointWatcher::new_deployed(checkpoint.to_path_buf()))
        .with_deadline(DEADLINE)
        .with_fallback(fallback(&PolicyConfig::new(&ensemble)))
        .with_expected_dims(ensemble.num_task_types());
    let schedule = generate_schedule(&case.0, base_lines());
    let outcome = run_schedule(&mut svc, case.1, &schedule, Some(checkpoint));
    svc.finish();
    outcome
}

#[test]
fn every_chaos_invariant_holds_on_a_trained_watched_checkpoint() {
    let ckpt = deploy("verify");
    let mut faults = [0u64; 4];
    for case in cases() {
        let outcome = run(&case, &ckpt, Telemetry::noop());
        if let Err(violation) = verify(&outcome) {
            panic!("{case:?}: {violation}");
        }
        let c = outcome.counters;
        let seen = [c.shed, c.degraded, c.wire_rejected, c.disconnects];
        for (total, n) in faults.iter_mut().zip(seen) {
            *total += n;
        }
    }
    let _ = std::fs::remove_file(&ckpt);
    assert!(
        faults.iter().all(|&n| n > 0),
        "the schedules shed, degrade, reject and disconnect: {faults:?}"
    );
}

#[test]
fn a_second_run_of_each_schedule_delivers_the_same_bytes() {
    let ckpt = deploy("determinism");
    for case in cases() {
        let clients = case.0.clients;
        let first = run(&case, &ckpt, Telemetry::noop()).transcript(clients);
        let second = run(&case, &ckpt, Telemetry::noop()).transcript(clients);
        assert!(first == second, "{case:?}: the two transcripts differ");
    }
    let _ = std::fs::remove_file(&ckpt);
}

/// Chaos off and overload off, the service is a batch replay. The control
/// carries no deadline: with no injected stall, a degraded window would
/// hinge on wall-clock noise, which the byte identity excludes.
#[test]
fn the_quiet_control_equals_batch_replay() {
    let ckpt = deploy("control");
    let (mut bare, _version) = load_policy(&ckpt).unwrap();
    let replayed: String = replay_stream(bare.as_mut(), &base_lines().join("\n"))
        .iter()
        .map(|record| record.to_line() + "\n")
        .collect();
    for seed in 1..=3 {
        let (policy, _version) = load_policy(&ckpt).unwrap();
        let mut control = DecisionService::new(policy, Telemetry::noop())
            .with_expected_dims(Ensemble::msd().num_task_types());
        let schedule = generate_schedule(&ChaosConfig::quiet(seed), base_lines());
        let outcome = run_schedule(&mut control, AdmissionConfig::default(), &schedule, None);
        assert!(
            outcome.transcript(1).concat() == replayed,
            "seed {seed}: the control diverges from batch replay"
        );
        verify(&outcome).unwrap_or_else(|v| panic!("seed {seed}: control: {v}"));
    }
    let _ = std::fs::remove_file(&ckpt);
}

/// The summary rows of one kind (`counter`, `gauge`) in a telemetry
/// stream, by name; a later row of a name replaces an earlier one.
fn summary_rows(stream: &[u8], kind: &str) -> HashMap<String, Value> {
    let field = |fields: &[(String, Value)], key: &str| {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    String::from_utf8_lossy(stream)
        .lines()
        .filter_map(|line| match serde_json::from_str(line).ok()? {
            Value::Object(fields) => Some(fields),
            _ => None,
        })
        .filter(|fields| field(fields, "t") == Some(Value::String(kind.to_string())))
        .filter_map(
            |fields| match (field(&fields, "name")?, field(&fields, "value")?) {
                (Value::String(name), value) => Some((name, value)),
                _ => None,
            },
        )
        .collect()
}

/// What the service reports to a telemetry sink agrees with what the run
/// did: every overload counter row equals the outcome's counter, the
/// `serve.decisions` row counts the actionable replies, and the p99 gauge
/// is there.
#[test]
fn the_telemetry_counter_rows_equal_the_outcome_counters() {
    let ckpt = deploy("telemetry");
    for case in cases() {
        let sink = JsonlSink::in_memory();
        let outcome = run(&case, &ckpt, Telemetry::new(sink.clone()));
        let stream = sink.take_output();
        let counters = summary_rows(&stream, "counter");
        let c = outcome.counters;
        for (name, value) in [
            ("serve.shed", c.shed),
            ("serve.degraded", c.degraded),
            ("serve.wire_rejected", c.wire_rejected),
            ("serve.retries", c.retries),
            ("serve.disconnects", c.disconnects),
            ("serve.dropped_replies", c.dropped_replies),
            ("serve.decisions", outcome.decisions() as u64),
        ] {
            assert_eq!(
                counters.get(name),
                Some(&Value::UInt(value)),
                "{case:?}: {name}"
            );
        }
        assert!(
            summary_rows(&stream, "gauge").contains_key("serve.latency_p99_us"),
            "{case:?}: no p99 gauge"
        );
    }
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn checkpoint_corruption_under_chaos_never_breaks_the_service() {
    let ensemble = Ensemble::msd();
    let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(21);
    let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble.clone(), env_config));
    let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(21));
    trainer.run_iteration(&mut env);
    let ckpt = temp_checkpoint("agent");
    save_policy(&ckpt, &trainer.agent(), 1).unwrap();

    let mut driver = by_name("uniform", &PolicyConfig::new(&ensemble)).unwrap();
    let base_lines: Vec<String> = record_stream(&ensemble, 23, 40, None, driver.as_mut())
        .iter()
        .map(|obs| serde_json::to_string(obs).unwrap())
        .collect();

    // Corruption-heavy mix so the watcher's reject path definitely runs.
    let config = ChaosConfig {
        seed: 99,
        clients: 2,
        malformed: 0.10,
        disconnect: 0.02,
        stall: 0.08,
        corrupt: 0.30,
        burst: 3,
    };
    let schedule = generate_schedule(&config, &base_lines);
    assert!(
        schedule.events.contains(&ChaosEvent::CorruptCheckpoint),
        "a 30% corruption rate over 40 windows must schedule corruption"
    );

    let (policy, _version) = load_policy(&ckpt).unwrap();
    let cfg = PolicyConfig::new(&ensemble);
    let mut svc = DecisionService::new(policy, Telemetry::noop())
        .with_watcher(CheckpointWatcher::new_deployed(ckpt.clone()))
        .with_deadline(DEADLINE)
        .with_fallback(fallback(&cfg))
        .with_expected_dims(ensemble.num_task_types());

    let admission = AdmissionConfig {
        max_inflight: 4,
        shed: ShedPolicy::DropOldest,
    };
    let outcome = run_schedule(&mut svc, admission, &schedule, Some(&ckpt));
    verify(&outcome).expect("chaos invariants hold against a trained checkpoint");
    assert!(outcome.decisions() > 0, "some windows decided under chaos");

    // The service survived corruption on a *policy that still works*: it
    // answers a fresh window non-degraded (no stall pending).
    let probe = serve::parse_observation_line(&base_lines[0], serve::MAX_LINE_BYTES, None)
        .unwrap()
        .unwrap();
    let record = svc.handle(&probe);
    assert!(record.is_actionable());
    assert!(!record.degraded);

    // And hot-swap still works after all that: write a *newer, valid*
    // checkpoint and confirm the watcher picks it up.
    trainer.run_iteration(&mut env);
    save_policy(&ckpt, &trainer.agent(), 2).unwrap();
    let swaps_before = svc.swaps();
    let _ = svc.handle(&probe);
    assert_eq!(
        svc.swaps(),
        swaps_before + 1,
        "post-chaos checkpoint publish must still hot-swap"
    );

    let _ = std::fs::remove_file(&ckpt);
}
