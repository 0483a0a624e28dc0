//! Every bench binary parses its command line through `miras::flags`
//! against exactly the flags it reads: a flag it does not read is refused
//! by name, with exit status 1, before any training or simulation starts
//! (so nothing reaches stdout). `--paper` with `--smoke`
//! is refused the same way, and a `--workload trace:FILE` that does not
//! load ends the run before any training.

use std::process::Command;

/// Each binary with one flag it does not read, among flags it does.
const CASES: &[(&str, &str, &[&str])] = &[
    (
        "ablation_discretization",
        env!("CARGO_BIN_EXE_ablation_discretization"),
        &["--seed", "1", "--steady"],
    ),
    (
        "ablation_exploration",
        env!("CARGO_BIN_EXE_ablation_exploration"),
        &["--paper"],
    ),
    (
        "ablation_model_ensemble",
        env!("CARGO_BIN_EXE_ablation_model_ensemble"),
        &["--smoke"],
    ),
    (
        "ablation_refinement",
        env!("CARGO_BIN_EXE_ablation_refinement"),
        &["--workload", "diurnal"],
    ),
    (
        "ablation_sample_efficiency",
        env!("CARGO_BIN_EXE_ablation_sample_efficiency"),
        &["--steady", "--smoke"],
    ),
    (
        "ablation_window_length",
        env!("CARGO_BIN_EXE_ablation_window_length"),
        &["--iterations", "2"],
    ),
    (
        "fig5_model_accuracy",
        env!("CARGO_BIN_EXE_fig5_model_accuracy"),
        &["--smoke", "--no-cache"],
    ),
    (
        "fig6_training_trace",
        env!("CARGO_BIN_EXE_fig6_training_trace"),
        &["--smoke", "--workload", "diurnal"],
    ),
    (
        "fig7_msd_comparison",
        env!("CARGO_BIN_EXE_fig7_msd_comparison"),
        &["--smoke", "--no-cache", "--ensemble", "ligo"],
    ),
    (
        "fig8_ligo_comparison",
        env!("CARGO_BIN_EXE_fig8_ligo_comparison"),
        &["--smoke", "--ensemble", "msd"],
    ),
    (
        "resilience_comparison",
        env!("CARGO_BIN_EXE_resilience_comparison"),
        &["--smoke", "--steady"],
    ),
    (
        "workload_grid",
        env!("CARGO_BIN_EXE_workload_grid"),
        &["--smoke", "--steady"],
    ),
];

#[test]
fn every_bench_binary_refuses_a_flag_it_does_not_read() {
    for (bin, exe, args) in CASES {
        let out = Command::new(exe).args(*args).output().expect("running");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let refused = args.iter().rev().find(|a| a.starts_with("--")).unwrap();
        assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!(
                "error: {bin} does not take {refused}\nusage: {bin} "
            )),
            "{bin} {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran before refusing");
    }
}

/// `--ensemble` reads the one name table: no case folding, no aliases.
#[test]
fn an_ensemble_outside_the_name_table_is_refused() {
    let exe = env!("CARGO_BIN_EXE_resilience_comparison");
    for name in ["MSD", "gpu_serve", "gpuserve"] {
        let out = Command::new(exe)
            .args(["--ensemble", name, "--smoke"])
            .output()
            .expect("running");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: unknown ensemble '{name}'")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn paper_and_smoke_are_mutually_exclusive() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig7_msd_comparison"))
        .args(["--smoke", "--paper", "--no-cache"])
        .output()
        .expect("running");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: --paper and --smoke are mutually exclusive"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}

/// A missing trace, or one naming a workflow type MSD lacks (type 3 of
/// MSD's three), exits 1 naming the file before MIRAS or the model-free
/// baseline is trained, and before the run prints a banner or opens its
/// telemetry stream. Every grid binary refuses a missing trace the same
/// way.
#[test]
fn a_trace_that_does_not_load_ends_the_run_before_training() {
    let dir = std::env::temp_dir().join(format!("miras_flag_refusal_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("ligo.jsonl"),
        "{\"time_micros\":1000,\"workflow_type\":0}\n{\"time_micros\":2000,\"workflow_type\":3}\n",
    )
    .unwrap();
    for (file, reason) in [
        ("missing.jsonl", "No such file"),
        (
            "ligo.jsonl",
            "workflow#3 is not one of the ensemble's 3 workflow types",
        ),
    ] {
        // Run in a scratch directory, where the telemetry stream lands.
        let out = Command::new(env!("CARGO_BIN_EXE_fig7_msd_comparison"))
            .args(["--smoke", "--no-cache", "--workload"])
            .arg(format!("trace:{file}"))
            .current_dir(&dir)
            .output()
            .expect("running");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{file}: {stderr}");
        assert!(
            stderr.contains(&format!("error: workload trace {file}: {reason}")),
            "{file}: {stderr}"
        );
        assert!(!stderr.contains("[train"), "{file} trained first: {stderr}");
        assert!(out.stdout.is_empty(), "{file}: {out:?}");
        assert!(!dir.join("results").exists(), "{file} opened a stream");
    }
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_fig8_ligo_comparison"), &[][..]),
        (
            env!("CARGO_BIN_EXE_resilience_comparison"),
            &["--ensemble", "msd"],
        ),
        (env!("CARGO_BIN_EXE_workload_grid"), &["--ensemble", "msd"]),
    ] {
        let out = Command::new(bin)
            .args(["--smoke", "--no-cache", "--workload", "trace:missing.jsonl"])
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("running");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bin}: {stderr}");
        assert!(
            stderr.starts_with("error: workload trace missing.jsonl: "),
            "{bin}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin}: {out:?}");
        assert!(!dir.join("results").exists(), "{bin} opened a stream");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
