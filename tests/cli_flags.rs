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
