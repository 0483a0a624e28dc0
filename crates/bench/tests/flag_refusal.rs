//! Every bench binary but `telemetry_check` parses its command line through
//! `miras::flags` against exactly the flags it reads: a flag it does not
//! read is refused by name, with exit status 1, before any training or
//! simulation starts (so nothing reaches stdout).

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
    ("sim_audit", env!("CARGO_BIN_EXE_sim_audit"), &["--paper"]),
    (
        "serve_chaos",
        env!("CARGO_BIN_EXE_serve_chaos"),
        &["--smoke", "--seed", "3"],
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
