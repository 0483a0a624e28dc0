//! The real `miras-serve` binary decides identically from a checkpoint,
//! from its first line alone (`head -n 1 ckpt.json`), and from the same
//! checkpoint in the layout saved before policy lines existed; it refuses a
//! flag it does not read.

use std::path::{Path, PathBuf};
use std::process::Command;

use miras::prelude::*;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "miras_serve_binary_{name}_{}.jsonl",
        std::process::id()
    ))
}

/// Runs `miras-serve` with `args` and returns its stdout.
fn miras_serve(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_miras-serve"))
        .args(args)
        .output()
        .expect("running miras-serve");
    assert!(
        out.status.success(),
        "miras-serve {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn replay(checkpoint: &Path, stream: &Path) -> String {
    miras_serve(&[
        "--checkpoint",
        checkpoint.to_str().unwrap(),
        "--replay",
        stream.to_str().unwrap(),
    ])
}

#[test]
fn replay_from_a_checkpoint_its_first_line_and_its_legacy_layout_is_byte_identical() {
    let ensemble = Ensemble::msd();
    let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(7);
    let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, env_config));
    let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(7));
    trainer.run_iteration(&mut env);
    let checkpoint = temp_path("checkpoint");
    trainer.save_checkpoint(&env, &checkpoint).unwrap();

    let text = std::fs::read_to_string(&checkpoint).unwrap();
    let (policy_line, state) = text.split_once('\n').expect("a policy line");
    let head = temp_path("head");
    std::fs::write(&head, format!("{policy_line}\n")).unwrap();
    let legacy = temp_path("legacy");
    std::fs::write(&legacy, state).unwrap();

    let stream = temp_path("stream");
    std::fs::write(
        &stream,
        miras_serve(&["--record", "30", "--ensemble", "msd", "--seed", "7"]),
    )
    .unwrap();

    let reference = replay(&checkpoint, &stream);
    assert_eq!(reference.lines().count(), 30);
    assert!(reference
        .lines()
        .all(|l| l.contains("\"policy_version\":1")));
    assert_eq!(replay(&head, &stream), reference, "first line alone");
    assert_eq!(replay(&legacy, &stream), reference, "legacy layout");

    for p in [checkpoint, head, legacy, stream] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn unknown_flags_are_refused_by_name() {
    let out = Command::new(env!("CARGO_BIN_EXE_miras-serve"))
        .args(["--bogus", "1", "--shadow"])
        .output()
        .expect("running miras-serve");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("miras-serve does not take --bogus"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}
