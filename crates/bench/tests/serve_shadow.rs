//! Shadow-mode determinism: the serving loop's decision stream is
//! byte-identical to a batch replay of the same observations at the same
//! checkpoint, and both match the bare agent's `allocate` — the serving
//! layer adds no numerics of its own.

use std::path::PathBuf;

use baselines::{by_name, PolicyConfig};
use microsim::{EnvConfig, MicroserviceEnv};
use miras_core::{CheckpointPayload, ClusterEnvAdapter, MirasConfig, MirasTrainer};
use serve::{
    load_policy, record_stream, replay_stream, CheckpointWatcher, DecisionRecord, DecisionService,
    WindowObservation,
};
use telemetry::Telemetry;
use workflow::Ensemble;

fn temp_checkpoint(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "miras_bench_serve_shadow_{tag}_{}.json",
        std::process::id()
    ))
}

#[test]
fn shadow_stream_is_byte_identical_to_batch_replay_and_the_bare_agent() {
    // Train a smoke-scale agent and persist the full checkpoint.
    let ensemble = Ensemble::msd();
    let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(13);
    let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble.clone(), env_config));
    let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(13));
    trainer.run_iteration(&mut env);
    let ckpt = temp_checkpoint("current");
    trainer.save_checkpoint(&env, &ckpt).unwrap();

    // A 50-window recorded stream, as the CI smoke uses.
    let mut driver = by_name("uniform", &PolicyConfig::new(&ensemble)).unwrap();
    let observations = record_stream(&ensemble, 17, 50, None, driver.as_mut());
    let text: String = observations
        .iter()
        .map(|o| serde_json::to_string(o).unwrap() + "\n")
        .collect();

    // Shadow run: full service machinery — telemetry-free here, but with
    // the hot-swap watcher armed (the file never changes, so it must be a
    // no-op).
    let (policy, version) = load_policy(&ckpt).unwrap();
    let mut svc = DecisionService::new(policy, Telemetry::noop())
        .with_watcher(CheckpointWatcher::new_deployed(ckpt.clone()));
    let shadow = svc.handle_stream(&text);
    assert_eq!(svc.swaps(), 0, "an unchanged checkpoint must not swap");

    // Batch replay: bare policy, no service machinery.
    let (mut bare, _) = load_policy(&ckpt).unwrap();
    let batch = replay_stream(bare.as_mut(), &text);

    let shadow_bytes: Vec<String> = shadow.iter().map(DecisionRecord::to_line).collect();
    let batch_bytes: Vec<String> = batch.iter().map(DecisionRecord::to_line).collect();
    assert_eq!(
        shadow_bytes, batch_bytes,
        "shadow must equal batch replay byte-for-byte"
    );

    // Both must equal the checkpoint's deployable agent called directly.
    let payload = CheckpointPayload::load(&ckpt).unwrap();
    let agent = payload.deployable_agent();
    for (record, obs) in shadow.iter().zip(&observations) {
        let direct = agent.allocate(&obs.wip);
        assert_eq!(record.allocations, direct, "window {}", obs.window);
        assert_eq!(record.policy, "miras");
        assert_eq!(record.policy_version, version);
    }

    // Latency accounting covered every decision; report the percentiles so
    // test logs document the serving overhead (the <1 ms budget is gated by
    // `ci/gate.sh smoke` in release, not in this possibly-debug build).
    let stats = svc.latency_stats().unwrap();
    assert_eq!(stats.count, 50);
    assert!(stats.p50_us > 0.0 && stats.p99_us >= stats.p50_us && stats.max_us >= stats.p99_us);
    println!(
        "serve shadow latency over {} decisions: p50 {:.1}us p99 {:.1}us max {:.1}us",
        stats.count, stats.p50_us, stats.p99_us, stats.max_us
    );

    let _ = std::fs::remove_file(ckpt);
}

#[test]
fn recorded_streams_round_trip_through_the_wire_format() {
    let ensemble = Ensemble::msd();
    let mut driver = by_name("stream", &PolicyConfig::new(&ensemble)).unwrap();
    let observations = record_stream(&ensemble, 23, 10, None, driver.as_mut());
    for obs in &observations {
        let line = serde_json::to_string(obs).unwrap();
        let back: WindowObservation = serde_json::from_str(&line).unwrap();
        assert_eq!(&back, obs);
    }
}
