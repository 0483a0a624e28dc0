//! End-to-end chaos invariants against a *real* trained MIRAS checkpoint:
//! corruption of the watched checkpoint mid-run must never panic, never
//! lose a reply, and never leave the service on a broken policy — and a
//! post-chaos hot-swap to a newer checkpoint must still work.
//!
//! The cheap-policy variants of these properties live in
//! `crates/serve/tests/chaos_properties.rs`; this test exists because
//! checkpoint corruption only exercises the real load/validate path when
//! the checkpoint actually contains a trained agent.

use std::path::PathBuf;

use baselines::{by_name, fallback, PolicyConfig};
use microsim::{EnvConfig, MicroserviceEnv};
use miras_core::{ClusterEnvAdapter, MirasConfig, MirasTrainer};
use serve::chaos::{generate_schedule, run_schedule, verify, ChaosConfig, ChaosEvent};
use serve::{
    load_policy, record_stream, AdmissionConfig, CheckpointWatcher, DecisionService, ShedPolicy,
};
use telemetry::Telemetry;
use workflow::Ensemble;

fn temp_checkpoint(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "miras_chaos_invariants_{tag}_{}.json",
        std::process::id()
    ))
}

#[test]
fn checkpoint_corruption_under_chaos_never_breaks_the_service() {
    let ensemble = Ensemble::msd();
    let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(21);
    let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble.clone(), env_config));
    let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(21));
    trainer.run_iteration(&mut env);
    let ckpt = temp_checkpoint("agent");
    let agent_json = serde_json::to_string(&trainer.agent()).unwrap();
    std::fs::write(&ckpt, &agent_json).unwrap();

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
        .with_deadline(std::time::Duration::from_millis(100))
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
    std::fs::write(&ckpt, serde_json::to_string(&trainer.agent()).unwrap()).unwrap();
    let swaps_before = svc.swaps();
    let _ = svc.handle(&probe);
    assert_eq!(
        svc.swaps(),
        swaps_before + 1,
        "post-chaos checkpoint publish must still hot-swap"
    );

    let _ = std::fs::remove_file(&ckpt);
}
