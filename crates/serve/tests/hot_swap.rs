//! Checkpoint hot-swap correctness: a mid-stream swap produces exactly the
//! decisions of stopping the service, cold-restarting on the new
//! checkpoint, and replaying the remainder — and a corrupt swap never
//! dislodges the serving policy. Each holds for current checkpoints (policy
//! line first) and for legacy ones (training state alone).

mod common;

use std::path::PathBuf;

use baselines::{by_name, PolicyConfig};
use microsim::{EnvConfig, MicroserviceEnv};
use miras_core::{ClusterEnvAdapter, MirasConfig, MirasTrainer};
use serve::{
    load_policy, record_stream, replay_stream, CheckpointWatcher, DecisionRecord, DecisionService,
};
use telemetry::Telemetry;
use workflow::Ensemble;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "miras_serve_hotswap_{name}_{}.json",
        std::process::id()
    ))
}

/// Trains a smoke-scale MIRAS run and saves checkpoints after iteration 1
/// (`a`) and iteration 2 (`b`), in the legacy layout when `legacy`.
fn two_checkpoints(tag: &str, legacy: bool) -> (PathBuf, PathBuf) {
    let ensemble = Ensemble::msd();
    let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(5);
    let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, env_config));
    let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(5));
    let a = temp_path(&format!("{tag}_a"));
    let b = temp_path(&format!("{tag}_b"));
    trainer.run_iteration(&mut env);
    trainer.save_checkpoint(&env, &a).unwrap();
    trainer.run_iteration(&mut env);
    trainer.save_checkpoint(&env, &b).unwrap();
    if legacy {
        common::strip_policy_line(&a);
        common::strip_policy_line(&b);
    }
    (a, b)
}

/// A short recorded observation stream (uniform policy driving the
/// emulator, so the WIP trajectories are realistic).
fn stream(windows: usize) -> String {
    let ensemble = Ensemble::msd();
    let mut driver = by_name("uniform", &PolicyConfig::new(&ensemble)).unwrap();
    record_stream(&ensemble, 11, windows, None, driver.as_mut())
        .iter()
        .map(|obs| serde_json::to_string(obs).unwrap() + "\n")
        .collect()
}

fn lines(records: &[DecisionRecord]) -> Vec<String> {
    records.iter().map(DecisionRecord::to_line).collect()
}

/// Serves checkpoint A for four windows, swaps to B between windows and
/// serves four more; the decisions must equal cold runs of A and then B.
fn mid_stream_swap(tag: &str, ckpt_a: PathBuf, ckpt_b: PathBuf) {
    let serving = temp_path(&format!("{tag}_live"));
    std::fs::copy(&ckpt_a, &serving).unwrap();

    let text = stream(8);
    let all: Vec<String> = text.lines().map(|l| format!("{l}\n")).collect();
    let (head, tail) = all.split_at(4);

    // Live run: serve 4 windows from checkpoint A, swap to B between
    // windows, serve the remaining 4.
    let (policy, version) = load_policy(&serving).unwrap();
    assert_eq!(version, 1, "checkpoint A was saved after iteration 1");
    let mut svc = DecisionService::new(policy, Telemetry::noop())
        .with_watcher(CheckpointWatcher::new_deployed(serving.clone()));
    let mut live = svc.handle_stream(&head.concat());
    std::fs::copy(&ckpt_b, &serving).unwrap();
    live.extend(svc.handle_stream(&tail.concat()));
    assert_eq!(svc.swaps(), 1, "exactly one hot-swap");
    assert_eq!(svc.policy_version(), 2, "checkpoint B is iteration 2");
    assert_eq!(live.len(), 8, "no decision dropped across the swap");

    // Reference: cold runs — A over the head, a fresh restart on B over
    // the remainder.
    let (mut cold_a, _) = load_policy(&ckpt_a).unwrap();
    let mut reference = replay_stream(cold_a.as_mut(), &head.concat());
    let (mut cold_b, _) = load_policy(&ckpt_b).unwrap();
    reference.extend(replay_stream(cold_b.as_mut(), &tail.concat()));

    assert_eq!(lines(&live), lines(&reference));
    assert!(live[..4].iter().all(|r| r.policy_version == 1));
    assert!(live[4..].iter().all(|r| r.policy_version == 2));

    for p in [ckpt_a, ckpt_b, serving] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn mid_stream_swap_equals_cold_restart_and_replay_of_remainder() {
    let (ckpt_a, ckpt_b) = two_checkpoints("swap", false);
    mid_stream_swap("swap", ckpt_a, ckpt_b);
}

#[test]
fn mid_stream_swap_on_legacy_checkpoints() {
    let (ckpt_a, ckpt_b) = two_checkpoints("swap_legacy", true);
    mid_stream_swap("swap_legacy", ckpt_a, ckpt_b);
}

/// An upgrade in place: a server started on a legacy checkpoint swaps to
/// the next one saved with its policy line.
#[test]
fn mid_stream_swap_from_a_legacy_checkpoint_to_a_current_one() {
    let (ckpt_a, ckpt_b) = two_checkpoints("upgrade", false);
    common::strip_policy_line(&ckpt_a);
    mid_stream_swap("upgrade", ckpt_a, ckpt_b);
}

fn corrupt_swap(tag: &str, legacy: bool) {
    let (ckpt_a, ckpt_b) = two_checkpoints(tag, legacy);
    let serving = temp_path(&format!("{tag}_live"));
    std::fs::copy(&ckpt_a, &serving).unwrap();

    let text = stream(6);
    let all: Vec<String> = text.lines().map(|l| format!("{l}\n")).collect();

    let (policy, _) = load_policy(&serving).unwrap();
    let mut svc = DecisionService::new(policy, Telemetry::noop())
        .with_watcher(CheckpointWatcher::new_deployed(serving.clone()));
    let mut records = svc.handle_stream(&all[..2].concat());

    // A corrupt file lands on the watched path: the service must keep
    // deciding with the old policy.
    std::fs::write(&serving, "{ this is not a checkpoint").unwrap();
    records.extend(svc.handle_stream(&all[2..4].concat()));
    assert_eq!(svc.swaps(), 0);
    assert_eq!(svc.policy_version(), 1, "old policy still serving");
    assert!(records.iter().all(|r| r.policy_version == 1));

    // A good checkpoint replaces it: the swap goes through.
    std::fs::copy(&ckpt_b, &serving).unwrap();
    let rest = svc.handle_stream(&all[4..].concat());
    assert_eq!(svc.swaps(), 1);
    assert!(rest.iter().all(|r| r.policy_version == 2));

    for p in [ckpt_a, ckpt_b, serving] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn corrupt_swap_keeps_the_old_policy_until_a_good_one_appears() {
    corrupt_swap("corrupt", false);
}

#[test]
fn corrupt_swap_keeps_the_old_legacy_policy_until_a_good_one_appears() {
    corrupt_swap("corrupt_legacy", true);
}

/// Regression test for the `(mtime, len)` fingerprint race: a checkpoint
/// rewritten with *different bytes of the same length* and a forced
/// *identical mtime* must still trigger a swap, because the fingerprint
/// also hashes the content. Before the checksum, this exact scenario —
/// two checkpoint saves within the filesystem's mtime granularity, fixed
/// schema so equal length — left the stale policy serving silently.
fn same_mtime_same_len_rewrite(tag: &str, legacy: bool) {
    let (ckpt_a, ckpt_b) = two_checkpoints(tag, legacy);
    let serving = temp_path(&format!("{tag}_live"));

    // Pad both checkpoints with trailing whitespace (JSON-harmless) to the
    // same byte length.
    let mut bytes_a = std::fs::read(&ckpt_a).unwrap();
    let mut bytes_b = std::fs::read(&ckpt_b).unwrap();
    let target = bytes_a.len().max(bytes_b.len()) + 4;
    bytes_a.resize(target, b' ');
    bytes_b.resize(target, b' ');
    assert_eq!(bytes_a.len(), bytes_b.len());
    assert_ne!(bytes_a, bytes_b, "same length, different content");

    std::fs::write(&serving, &bytes_a).unwrap();
    let stamp = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_700_000_000);
    let file = std::fs::File::options()
        .append(true)
        .open(&serving)
        .unwrap();
    file.set_modified(stamp).unwrap();
    drop(file);

    let (policy, version) = load_policy(&serving).unwrap();
    assert_eq!(version, 1);
    let mut svc = DecisionService::new(policy, Telemetry::noop())
        .with_watcher(CheckpointWatcher::new_deployed(serving.clone()));

    let text = stream(4);
    let all: Vec<String> = text.lines().map(|l| format!("{l}\n")).collect();
    let head = svc.handle_stream(&all[..2].concat());
    assert!(head.iter().all(|r| r.policy_version == 1));

    // The adversarial rewrite: same length, same (forced) mtime.
    std::fs::write(&serving, &bytes_b).unwrap();
    let file = std::fs::File::options()
        .append(true)
        .open(&serving)
        .unwrap();
    file.set_modified(stamp).unwrap();
    drop(file);
    let meta = std::fs::metadata(&serving).unwrap();
    assert_eq!(meta.modified().unwrap(), stamp, "mtime pinned");
    assert_eq!(meta.len() as usize, target, "length pinned");

    let tail = svc.handle_stream(&all[2..].concat());
    assert_eq!(svc.swaps(), 1, "content checksum caught the rewrite");
    assert_eq!(svc.policy_version(), 2);
    assert!(tail.iter().all(|r| r.policy_version == 2));

    for p in [ckpt_a, ckpt_b, serving] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn same_mtime_same_len_rewrite_still_swaps() {
    same_mtime_same_len_rewrite("fingerprint_race", false);
}

#[test]
fn same_mtime_same_len_legacy_rewrite_still_swaps() {
    same_mtime_same_len_rewrite("fingerprint_race_legacy", true);
}

#[test]
fn raw_agent_json_loads_as_version_zero() {
    let ensemble = Ensemble::msd();
    let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(3);
    let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, env_config));
    let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(3));
    trainer.run_iteration(&mut env);
    let path = temp_path("raw_agent");
    std::fs::write(&path, serde_json::to_string(&trainer.agent()).unwrap()).unwrap();

    let (policy, version) = load_policy(&path).unwrap();
    assert_eq!(version, 0, "raw agents are unversioned");
    assert_eq!(policy.name(), "miras");
    let _ = std::fs::remove_file(path);
}
