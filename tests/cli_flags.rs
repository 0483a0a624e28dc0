//! The real `miras-cli` binary refuses a flag its subcommand does not
//! read, naming it, instead of silently ignoring it.

use std::path::PathBuf;
use std::process::{Command, Output};

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
    assert!(std::fs::read_to_string(&agent)
        .unwrap()
        .contains("\"actor\""));
    let _ = std::fs::remove_file(agent);
}

/// `--agent` reads a saved agent, a policy line or a training checkpoint
/// through the one agent decoder: a checkpoint allocates exactly as its
/// first line does, and a malformed agent is refused with an error naming
/// the file instead of panicking.
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
    let head = temp_path("decoder_head");
    std::fs::write(&head, text.lines().next().unwrap()).unwrap();
    // One weight matrix claims a row it does not hold.
    let agent = serde_json::to_string(&trainer.agent()).unwrap();
    let malformed = temp_path("decoder_malformed");
    std::fs::write(&malformed, agent.replacen("\"rows\":16", "\"rows\":17", 1)).unwrap();

    let allocate = |path: &PathBuf| {
        let agent = path.to_str().unwrap();
        miras_cli(&["allocate", "--agent", agent, "--wip", "12,3,40,7"])
    };
    let from_checkpoint = allocate(&checkpoint);
    assert!(from_checkpoint.status.success(), "{from_checkpoint:?}");
    assert_eq!(allocate(&head).stdout, from_checkpoint.stdout);
    let out = allocate(&malformed);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let named = format!("error: loading {}: corrupt checkpoint", malformed.display());
    assert!(stderr.contains(&named), "{stderr}");
    for p in [checkpoint, head, malformed] {
        let _ = std::fs::remove_file(p);
    }
}
