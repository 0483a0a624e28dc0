//! The two checkpoint decoders — `load_policy` (the policy line) and
//! `CheckpointPayload::load` (the training state) — under damage: cut or
//! bit-flipped files never panic either of them, and each reads only its own
//! line.

mod common;

use std::path::PathBuf;
use std::sync::OnceLock;

use microsim::{EnvConfig, MicroserviceEnv};
use miras_core::{
    CheckpointError, CheckpointPayload, ClusterEnvAdapter, MirasConfig, MirasTrainer,
};
use proptest::prelude::*;
use serve::{
    load_policy, replay_stream, CheckpointWatcher, DecisionRecord, DecisionService, LoadError,
};
use telemetry::Telemetry;
use workflow::Ensemble;

/// Two windows of MSD observations.
const STREAM: &str = "{\"window\":0,\"wip\":[3.0,1.0,0.0,2.0]}\n\
                      {\"window\":1,\"wip\":[40.0,0.0,7.5,1.0]}\n";

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "miras_serve_decoders_{name}_{}.json",
        std::process::id()
    ))
}

/// The bytes of smoke-scale checkpoints saved after iterations 1 and 2 of
/// one run, trained once per test binary.
fn checkpoints() -> &'static (Vec<u8>, Vec<u8>) {
    static CHECKPOINTS: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    CHECKPOINTS.get_or_init(|| {
        let ensemble = Ensemble::msd();
        let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(29);
        let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, env_config));
        let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(29));
        let path = temp_path("fixture");
        let mut save = || {
            trainer.run_iteration(&mut env);
            trainer.save_checkpoint(&env, &path).unwrap();
            std::fs::read(&path).unwrap()
        };
        let first = save();
        let second = save();
        let _ = std::fs::remove_file(&path);
        (first, second)
    })
}

/// Length of the policy line, newline excluded.
fn policy_line_len(checkpoint: &[u8]) -> usize {
    checkpoint
        .iter()
        .position(|&b| b == b'\n')
        .expect("a policy line")
}

fn lines(records: &[DecisionRecord]) -> Vec<String> {
    records.iter().map(DecisionRecord::to_line).collect()
}

/// Decisions of the policy `load_policy` reads from `path`.
fn served(path: &std::path::Path) -> Vec<String> {
    let (mut policy, _) = load_policy(path).unwrap();
    lines(&replay_stream(policy.as_mut(), STREAM))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cuts and single-byte flips, anywhere in the file or inside the
    /// policy line: `load_policy` returns a policy that decides or a typed
    /// error, and `CheckpointPayload::load` returns a payload or a typed
    /// error. Neither panics.
    #[test]
    fn cut_or_flipped_checkpoints_decode_to_a_policy_or_a_typed_error(
        kind in 0u8..4,
        at in 0u64..1_000_000,
        mask in 1u8..=255,
    ) {
        let (checkpoint, _) = checkpoints();
        let line_len = policy_line_len(checkpoint);
        // Even kinds damage the policy line only; odd kinds any byte.
        let span = if kind % 2 == 0 { line_len } else { checkpoint.len() };
        let at = (at as usize) * span / 1_000_000;
        let bytes = if kind < 2 {
            checkpoint[..at].to_vec()
        } else {
            let mut flipped = checkpoint.clone();
            flipped[at] ^= mask;
            flipped
        };
        let path = temp_path(&format!("prop_{kind}_{at}_{mask}"));
        std::fs::write(&path, &bytes).unwrap();

        match load_policy(&path) {
            Ok((mut policy, _)) => {
                prop_assert!(kind != 0, "a cut inside the policy line served");
                prop_assert_eq!(replay_stream(policy.as_mut(), STREAM).len(), 2);
            }
            Err(LoadError::Unusable(_)) => {
                prop_assert!(
                    kind != 1 || at < line_len,
                    "a cut after the policy line was refused"
                );
            }
            Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
        }
        match CheckpointPayload::load(&path) {
            Ok(_) => prop_assert!(kind >= 2, "a cut checkpoint loaded"),
            Err(CheckpointError::Corrupt(_) | CheckpointError::Mismatch(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// A file cut inside its policy line is refused, and behind a watcher the
/// previous policy keeps serving until a whole file lands.
#[test]
fn a_cut_policy_line_is_refused_and_the_previous_policy_keeps_serving() {
    let (first, second) = checkpoints();
    let serving = temp_path("cut_live");
    std::fs::write(&serving, first).unwrap();
    let (policy, version) = load_policy(&serving).unwrap();
    assert_eq!(version, 1);
    let mut svc = DecisionService::new(policy, Telemetry::noop())
        .with_watcher(CheckpointWatcher::new_deployed(serving.clone()));
    let before = svc.handle_stream(STREAM);

    let cut = &second[..policy_line_len(second) / 2];
    let cut_path = temp_path("cut_alone");
    std::fs::write(&cut_path, cut).unwrap();
    assert!(matches!(
        load_policy(&cut_path),
        Err(LoadError::Unusable(CheckpointError::Corrupt(_)))
    ));

    std::fs::write(&serving, cut).unwrap();
    let during = svc.handle_stream(STREAM);
    assert_eq!(svc.swaps(), 0, "the cut file was not swapped in");
    assert_eq!(
        lines(&during),
        lines(&before),
        "the old policy still decides"
    );

    std::fs::write(&serving, second).unwrap();
    let after = svc.handle_stream(STREAM);
    assert_eq!(svc.swaps(), 1);
    assert!(after.iter().all(|r| r.policy_version == 2));

    for p in [serving, cut_path] {
        let _ = std::fs::remove_file(p);
    }
}

/// Serving never parses the training state: a checkpoint whose second line
/// is garbage serves exactly as the intact file does, while resume refuses
/// it.
#[test]
fn a_garbage_training_state_still_serves_but_does_not_resume() {
    let (checkpoint, _) = checkpoints();
    let intact = temp_path("intact");
    std::fs::write(&intact, checkpoint).unwrap();
    let garbage = temp_path("garbage_state");
    let mut bytes = checkpoint[..=policy_line_len(checkpoint)].to_vec();
    bytes.extend_from_slice(b"{\"version\":1, this is not a training state");
    std::fs::write(&garbage, &bytes).unwrap();

    assert_eq!(load_policy(&garbage).unwrap().1, 1);
    assert_eq!(served(&garbage), served(&intact));
    let err = MirasTrainer::resume(&garbage, Ensemble::msd()).unwrap_err();
    assert!(matches!(err, CheckpointError::Corrupt(_)), "got {err}");

    for p in [intact, garbage] {
        let _ = std::fs::remove_file(p);
    }
}

/// The three files one iteration can be served from — the checkpoint, its
/// first line alone (`head -n 1`), and the legacy layout — decide and stamp
/// byte-identically.
#[test]
fn checkpoint_policy_line_and_legacy_layout_serve_identically() {
    let (checkpoint, _) = checkpoints();
    let full = temp_path("layout_full");
    std::fs::write(&full, checkpoint).unwrap();
    let head = temp_path("layout_head");
    std::fs::write(&head, &checkpoint[..=policy_line_len(checkpoint)]).unwrap();
    let legacy = temp_path("layout_legacy");
    std::fs::write(&legacy, checkpoint).unwrap();
    common::strip_policy_line(&legacy);

    let reference = served(&full);
    assert!(reference.iter().all(|l| l.contains("\"policy_version\":1")));
    assert_eq!(served(&head), reference);
    assert_eq!(served(&legacy), reference);

    for p in [full, head, legacy] {
        let _ = std::fs::remove_file(p);
    }
}

/// Checkpoints written by the retired actor–learner engine, rebuilt from
/// a real one by editing its text: the rollout mode becomes `Distributed`
/// and the training state carries the version schedule those builds
/// recorded. Whatever the worker count, and in both layouts, they serve
/// byte-identically to the unedited file.
#[test]
fn actor_learner_checkpoints_still_serve() {
    let (checkpoint, _) = checkpoints();
    let text = std::str::from_utf8(checkpoint).unwrap();
    let full = temp_path("actor_learner_reference");
    std::fs::write(&full, checkpoint).unwrap();
    let reference = served(&full);

    let mode = "\"rollout_mode\":\"Sequential\"";
    assert_eq!(text.matches(mode).count(), 1, "one rollout mode");
    for workers in [1, 2] {
        let edited = text.replace(
            mode,
            &format!("\"rollout_mode\":{{\"Distributed\":{{\"workers\":{workers},\"lanes\":1}}}}"),
        );
        let edited = format!(
            "{},\"last_schedule\":{{\"workers\":{workers},\"lanes\":1,\"entries\":\
             [{{\"worker\":0,\"wave\":0,\"version\":0}}]}}}}",
            edited.strip_suffix('}').expect("a JSON object")
        );
        let current = temp_path(&format!("actor_learner_{workers}"));
        std::fs::write(&current, &edited).unwrap();
        let legacy = temp_path(&format!("actor_learner_{workers}_legacy"));
        std::fs::write(&legacy, &edited).unwrap();
        common::strip_policy_line(&legacy);
        assert!(std::fs::read_to_string(&legacy)
            .unwrap()
            .contains("\"Distributed\""));

        assert_eq!(served(&current), reference, "workers={workers}");
        assert_eq!(served(&legacy), reference, "workers={workers} legacy");
        for p in [current, legacy] {
            let _ = std::fs::remove_file(p);
        }
    }
    let _ = std::fs::remove_file(full);
}
