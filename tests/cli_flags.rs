//! The real `miras-cli` binary refuses a flag its subcommand does not
//! read, naming it, instead of silently ignoring it, and its subcommands
//! read the files its other subcommands write. `--help` prints the usage;
//! a closed stdout ends a run with an error, not a panic.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "miras_cli_flags_{name}_{}.json",
        std::process::id()
    ))
}

fn miras_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_miras-cli"))
        .args(args)
        .output()
        .expect("running miras-cli")
}

#[test]
fn train_refuses_flags_it_does_not_read() {
    for (flag, value) in [("--workers", "2"), ("--iteration", "1")] {
        let out = miras_cli(&["train", "--smoke", flag, value]);
        assert!(!out.status.success(), "train {flag} {value} succeeded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("'train' does not take {flag}")),
            "train {flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "train {flag} ran before refusing");
    }
}

#[test]
fn flags_are_checked_per_subcommand() {
    // --lanes belongs to train, not to allocate.
    let out = miras_cli(&["allocate", "--lanes", "3"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("'allocate' does not take --lanes"));
}

#[test]
fn train_smoke_at_three_lanes_still_succeeds() {
    let agent = temp_path("lanes");
    let out = miras_cli(&[
        "train",
        "--ensemble",
        "msd",
        "--smoke",
        "--iterations",
        "1",
        "--seed",
        "7",
        "--lanes",
        "3",
        "--out",
        agent.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("rollout engine: inline, 3 lane(s)\n"),
        "{stdout}"
    );
    // A policy file: one line, stamped with the iterations run.
    let saved = std::fs::read_to_string(&agent).unwrap();
    assert!(saved.starts_with("{\"policy_version\":1,\"agent\":{\"actor\""));
    assert_eq!(saved.lines().count(), 1);
    assert!(saved.ends_with("}\n"));
    let _ = std::fs::remove_file(agent);
}

/// `--agent` reads a policy file or a training checkpoint through the one
/// policy-line decoder: a checkpoint allocates exactly as its first line
/// does, and a malformed agent, a bare serialized agent or a file whose
/// only line is a training state is refused with an error naming the file
/// instead of panicking.
#[test]
fn agent_files_go_through_the_policy_decoder() {
    use miras::prelude::*;

    let ensemble = Ensemble::msd();
    let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(7);
    let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, env_config));
    let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(7));
    let _ = trainer.run_iteration(&mut env);
    let checkpoint = temp_path("decoder_checkpoint");
    trainer.save_checkpoint(&env, &checkpoint).unwrap();
    let text = std::fs::read_to_string(&checkpoint).unwrap();
    let (policy_line, state) = text.split_once('\n').unwrap();
    let head = temp_path("decoder_head");
    std::fs::write(&head, policy_line).unwrap();
    let refused = [
        // One weight matrix claims a row it does not hold.
        (
            "malformed",
            policy_line.replacen("\"rows\":16", "\"rows\":17", 1),
        ),
        ("bare", serde_json::to_string(&trainer.agent()).unwrap()),
        ("state", state.to_string()),
    ]
    .map(|(name, content)| {
        let path = temp_path(&format!("decoder_{name}"));
        std::fs::write(&path, content).unwrap();
        path
    });

    let allocate = |path: &PathBuf| {
        let agent = path.to_str().unwrap();
        miras_cli(&["allocate", "--agent", agent, "--wip", "12,3,40,7"])
    };
    let from_checkpoint = allocate(&checkpoint);
    assert!(from_checkpoint.status.success(), "{from_checkpoint:?}");
    assert_eq!(allocate(&head).stdout, from_checkpoint.stdout);
    for path in refused {
        let out = allocate(&path);
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let named = format!("error: loading {}: corrupt checkpoint", path.display());
        assert!(stderr.contains(&named), "{stderr}");
        assert!(out.stdout.is_empty());
        let _ = std::fs::remove_file(path);
    }
    for p in [checkpoint, head] {
        let _ = std::fs::remove_file(p);
    }
}

/// `gen-trace` writes the emulator's own background sample as JSONL and
/// `simulate --trace` replays it (it used to read only the older
/// single-document layout); the retired shape flags are refused by name.
#[test]
fn gen_trace_writes_a_trace_simulate_replays() {
    use miras::prelude::*;

    let trace = std::env::temp_dir().join(format!(
        "miras_cli_flags_trace_{}.jsonl",
        std::process::id()
    ));
    let path = trace.to_str().unwrap();
    let out = miras_cli(&[
        "gen-trace",
        "--workload",
        "diurnal",
        "--windows",
        "20",
        "--out",
        path,
    ]);
    assert!(out.status.success(), "{out:?}");
    let written = ArrivalTrace::load(&trace).unwrap();
    let config = EnvConfig {
        workload: WorkloadSpec::parse("diurnal").unwrap(),
        ..EnvConfig::for_ensemble(&Ensemble::msd()).with_seed(42)
    };
    assert_eq!(written, background_trace(&config, 20));

    let out = miras_cli(&["simulate", "--trace", path, "--windows", "3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let replaying = format!("replaying {} arrivals from {path}", written.len());
    assert!(String::from_utf8_lossy(&out.stdout).contains(&replaying));

    let out = miras_cli(&["gen-trace", "--pattern", "sine", "--out", path]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("'gen-trace' does not take --pattern"),
        "{stderr}"
    );
    let _ = std::fs::remove_file(trace);
}

/// `simulate --trace` replays the file as the whole workload, with no
/// background sampled on top: replaying `gen-trace`'s sample of a seed
/// prints the same table as plain `simulate` at that seed.
///
/// The burst goes in before the trace, as it goes in before the background
/// a plain run samples, so the same holds with a `--burst` on both runs.
#[test]
fn a_generated_trace_replays_to_the_plain_simulation() {
    let trace = std::env::temp_dir().join(format!(
        "miras_cli_flags_roundtrip_{}.jsonl",
        std::process::id()
    ));
    let path = trace.to_str().unwrap();
    let out = miras_cli(&["gen-trace", "--seed", "42", "--windows", "6", "--out", path]);
    assert!(out.status.success(), "{out:?}");
    for burst in [&[][..], &["--burst", "300,200,300"]] {
        let run = [&["--seed", "42", "--windows", "6"][..], burst].concat();
        let plain = miras_cli(&[&["simulate"][..], &run].concat());
        let replayed = miras_cli(&[&["simulate", "--trace", path][..], &run].concat());
        assert!(replayed.status.success(), "{replayed:?}");
        let replayed = String::from_utf8(replayed.stdout).unwrap();
        let (banner, rest) = replayed.split_once('\n').unwrap();
        let (replaying, table) = rest.split_once('\n').unwrap();
        assert!(replaying.starts_with("replaying "), "{replaying}");
        assert_eq!(
            format!("{banner}\n{table}"),
            String::from_utf8(plain.stdout).unwrap(),
            "{burst:?}"
        );
    }
    let _ = std::fs::remove_file(trace);
}

/// The usage follows a flag error or an unknown command only: a run that
/// fails on its input (here a corrupt `--agent` file) names the fault
/// alone.
#[test]
fn only_flag_errors_print_the_usage() {
    let corrupt = temp_path("corrupt_agent");
    std::fs::write(&corrupt, "{\"actor\":").unwrap();
    let agent = corrupt.to_str().unwrap();
    let out = miras_cli(&["allocate", "--agent", agent, "--wip", "1,2,3,4"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let named = format!("error: loading {agent}: corrupt checkpoint");
    assert!(stderr.starts_with(&named), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
    for args in [&["allocate", "--agents", agent][..], &["alocate"]] {
        let out = miras_cli(args);
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("\nusage: miras-cli <command>"), "{stderr}");
    }
    let _ = std::fs::remove_file(corrupt);
}

/// A trace naming a workflow type the ensemble does not have is bad input:
/// exit 1 with an error naming the file, not a panic.
#[test]
fn a_trace_with_an_unknown_workflow_type_is_refused() {
    let trace = std::env::temp_dir().join(format!(
        "miras_cli_flags_bad_type_{}.jsonl",
        std::process::id()
    ));
    std::fs::write(&trace, "{\"time_micros\":1000000,\"workflow_type\":7}\n").unwrap();
    let path = trace.to_str().unwrap();
    let out = miras_cli(&["simulate", "--trace", path, "--windows", "1"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("error: loading {path}: ")),
        "{stderr}"
    );
    assert!(stderr.contains("workflow#7 is not one of"), "{stderr}");
    let _ = std::fs::remove_file(trace);
}

#[test]
fn help_prints_the_usage_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = miras_cli(&[flag]);
        assert!(out.status.success(), "{flag}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: miras-cli <command>"), "{stdout}");
        assert!(out.stderr.is_empty(), "{flag}: {out:?}");
    }
}

#[test]
fn a_closed_stdout_ends_the_run_with_an_error_not_a_panic() {
    for args in [&["simulate", "--windows", "40"][..], &["--help"]] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_miras-cli"))
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("running miras-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("error: Broken pipe"), "{args:?}: {stderr}");
    }
}
