//! The real `miras-serve` binary decides identically from a checkpoint
//! and from its first line alone (`head -n 1 ckpt.json`), and refuses a
//! file whose only line is a training state; it refuses a flag it does not
//! read; it serves a noisy stream from stdin exactly as
//! `--replay` does, writing a well-formed `--telemetry` stream with the
//! serving loop's rows; and a closed stdout ends it with an error, not a
//! panic.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use miras::prelude::*;
use telemetry_stream::{check_stream, Require};

#[path = "../crates/bench/tests/telemetry_stream/mod.rs"]
mod telemetry_stream;

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
fn replay_from_a_checkpoint_and_its_first_line_is_byte_identical() {
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
    let state_alone = temp_path("state_alone");
    std::fs::write(&state_alone, state).unwrap();

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

    // The training state alone (the layout of a version-1 checkpoint) holds
    // no policy line: refused before any decision.
    let out = Command::new(env!("CARGO_BIN_EXE_miras-serve"))
        .args(["--checkpoint", state_alone.to_str().unwrap(), "--shadow"])
        .stdin(Stdio::null())
        .output()
        .expect("running miras-serve");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let named = format!("error: loading {}: ", state_alone.display());
    assert!(
        String::from_utf8_lossy(&out.stderr).starts_with(&named),
        "{out:?}"
    );
    assert!(out.stdout.is_empty());

    for p in [checkpoint, head, state_alone, stream] {
        let _ = std::fs::remove_file(p);
    }
}

/// `--chaos` and `--stream` are refused like any unknown flag: the chaos
/// harness runs in the test suites, not in the binary.
#[test]
fn unknown_flags_are_refused_by_name() {
    for args in [
        &["--bogus", "1", "--shadow"][..],
        &["--chaos", "seed=1"],
        &["--stream", "s.jsonl"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_miras-serve"))
            .args(args)
            .output()
            .expect("running miras-serve");
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("error: miras-serve does not take {}", args[0])),
            "{stderr}"
        );
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn noisy_streams_are_served_identically_from_stdin_and_replay() {
    let recorded = miras_serve(&["--record", "10", "--ensemble", "msd", "--seed", "7"]);
    let lines: Vec<&str> = recorded.lines().collect();
    assert_eq!(lines.len(), 10);
    let mut noisy = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        noisy.extend_from_slice(line.as_bytes());
        noisy.push(b'\n');
        match i {
            2 => noisy.extend_from_slice(b"\xff\xfe\n"),
            5 => {
                noisy.extend(std::iter::repeat_n(b'x', serve::MAX_LINE_BYTES + 1));
                noisy.push(b'\n');
            }
            7 => noisy.extend_from_slice(b"{\"window\":99,\"wip\":[1.0]}\n"),
            _ => {}
        }
    }
    let stream = temp_path("noisy");
    std::fs::write(&stream, &noisy).unwrap();

    let telemetry = temp_path("telemetry");
    let _ = std::fs::remove_file(&telemetry);
    let shadow = Command::new(env!("CARGO_BIN_EXE_miras-serve"))
        .args(["--shadow", "--telemetry", telemetry.to_str().unwrap()])
        .stdin(File::open(&stream).unwrap())
        .output()
        .expect("running miras-serve --shadow");
    let replay = Command::new(env!("CARGO_BIN_EXE_miras-serve"))
        .args(["--replay", stream.to_str().unwrap()])
        .output()
        .expect("running miras-serve --replay");
    let _ = std::fs::remove_file(&stream);

    for (mode, out) in [("--shadow", &shadow), ("--replay", &replay)] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{mode}: {stderr}");
        assert!(stderr.contains(" 3 wire-rejected,"), "{mode}: {stderr}");
    }
    assert_eq!(shadow.stdout, replay.stdout);
    let decided = String::from_utf8(shadow.stdout).unwrap();
    let windows: Vec<&str> = decided
        .lines()
        .map(|l| l.split(',').next().unwrap())
        .collect();
    let expected: Vec<String> = (0..10).map(|w| format!("{{\"window\":{w}")).collect();
    assert_eq!(windows, expected);

    let rows = std::fs::read(&telemetry).unwrap();
    let _ = std::fs::remove_file(&telemetry);
    check_stream(&rows, &[Require::Serve]).unwrap_or_else(|e| panic!("--telemetry: {e}"));
    let rows = String::from_utf8(rows).unwrap();
    for row in [
        r#""name":"serve.decisions","value":10}"#,
        r#""name":"serve.wire_rejected","value":3}"#,
    ] {
        assert!(rows.contains(row), "no {row} in {rows}");
    }
}

#[test]
fn a_closed_stdout_ends_the_run_with_an_error_not_a_panic() {
    let stream = temp_path("closed_stdout");
    std::fs::write(
        &stream,
        miras_serve(&["--record", "5", "--ensemble", "msd", "--seed", "7"]),
    )
    .unwrap();
    let replay = ["--replay", stream.to_str().unwrap()];
    for args in [&["--help"][..], &["--record", "5"], &replay, &["--shadow"]] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_miras-serve"))
            .args(args)
            .stdin(File::open(&stream).unwrap())
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("running miras-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("error: Broken pipe"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(stream);
}
