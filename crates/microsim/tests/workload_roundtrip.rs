//! Workload-generator correctness: every generator kind survives a
//! record → trace-replay round trip byte-identically, and arbitrary
//! workload specs keep the simulator audit-clean and deterministic.
//!
//! The round trip is the strongest arrival-path check we have: it proves
//! that window-by-window Poisson sampling (generator mode) and pre-queued
//! injected arrivals (trace mode) drive the cluster through the *same*
//! trajectory — same per-window metrics, same audit stream — which pins
//! down the window-boundary attribution semantics fixed in this change.

use desim::SimTime;
use microsim::{EnvConfig, MicroserviceEnv, SimConfig, WorkloadSpec};
use proptest::prelude::*;
use workflow::{BurstSpec, Ensemble};

const WINDOWS: usize = 4;
const ACTION: [usize; 4] = [4, 4, 4, 2]; // MSD budget 14

fn env_with(workload: WorkloadSpec, seed: u64) -> MicroserviceEnv {
    let ensemble = Ensemble::msd();
    let config = EnvConfig {
        sim: SimConfig {
            audit: true,
            ..SimConfig::new(seed)
        },
        workload,
        ..EnvConfig::for_ensemble(&ensemble)
    };
    MicroserviceEnv::new(ensemble, config)
}

/// Runs `WINDOWS` uniform-allocation windows and returns each window's
/// metrics serialised to JSON (a byte-level fingerprint of the trajectory).
fn run_fingerprint(env: &mut MicroserviceEnv) -> Vec<String> {
    (0..WINDOWS)
        .map(|_| {
            let out = env.step(&ACTION);
            serde_json::to_string(&out.metrics).expect("metrics serialise")
        })
        .collect()
}

#[test]
fn every_generator_kind_round_trips_through_trace_replay() {
    let specs = [
        WorkloadSpec::parse("stationary").unwrap(),
        WorkloadSpec::parse("diurnal").unwrap(),
        WorkloadSpec::parse("trending").unwrap(),
        WorkloadSpec::parse("flash-crowd").unwrap(),
    ];
    for spec in specs {
        let name = spec.name();
        let seed = 2024;

        // Record: generator-driven run, with a burst on top so injected
        // arrivals are part of the recorded stream too.
        let mut original = env_with(spec, seed);
        let _ = original.reset();
        original.record_trace();
        original.inject_burst(&BurstSpec::new(vec![5, 2, 0]));
        let original_metrics = run_fingerprint(&mut original);
        let original_audit = original.take_audit_violations();
        assert!(
            original_audit.is_empty(),
            "{name}: generator run has audit violations: {original_audit:?}"
        );
        let trace = original.take_recorded_trace();
        assert!(!trace.is_empty(), "{name}: recorded no arrivals");

        let path = std::env::temp_dir().join(format!(
            "miras_workload_rt_{}_{name}.jsonl",
            std::process::id()
        ));
        trace.save_jsonl(&path).expect("trace saves");

        // Replay: same seed, same actions, but all arrivals come from the
        // trace; the generator contributes nothing (factor 0).
        let replay_spec = WorkloadSpec::TraceReplay {
            path: path.display().to_string(),
        };
        let mut replay = env_with(replay_spec, seed);
        let _ = replay.reset();
        let loaded = replay.load_workload_trace().expect("trace loads");
        assert_eq!(loaded, trace.len(), "{name}: replay loaded a short trace");
        let replay_metrics = run_fingerprint(&mut replay);
        let replay_audit = replay.take_audit_violations();
        assert!(
            replay_audit.is_empty(),
            "{name}: replay run has audit violations: {replay_audit:?}"
        );

        assert_eq!(
            original_metrics, replay_metrics,
            "{name}: replayed trajectory diverges from the recorded one"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn trace_replay_contributes_no_background_of_its_own() {
    // Replaying an *empty* trace with non-zero configured arrival rates
    // must produce zero arrivals: TraceReplay means "the file is the whole
    // workload", not "the file plus the Poisson background".
    let path =
        std::env::temp_dir().join(format!("miras_workload_empty_{}.jsonl", std::process::id()));
    std::fs::write(&path, "").expect("empty trace writes");
    let mut env = env_with(
        WorkloadSpec::TraceReplay {
            path: path.display().to_string(),
        },
        7,
    );
    let _ = env.reset();
    assert_eq!(env.load_workload_trace().expect("loads"), 0);
    for _ in 0..3 {
        let out = env.step(&ACTION);
        assert_eq!(out.metrics.arrivals.iter().sum::<usize>(), 0);
    }
    let _ = std::fs::remove_file(&path);
}

/// A strategy over every generator-backed workload shape, with parameters
/// spanning (and slightly exceeding) the presets' ranges. A kind selector
/// plus a flat parameter tuple, since the vendored proptest has no
/// `prop_oneof!`.
fn arbitrary_workload() -> impl Strategy<Value = WorkloadSpec> {
    (
        0usize..4,
        (60u64..1200, 0.0f64..1.0),
        (0.1f64..3.0, 0.1f64..3.0, 0u64..2),
        (0u64..1000, 60u64..900),
        (0.5f64..6.0, 1u64..60, 1u64..120),
    )
        .prop_map(
            |(
                kind,
                (period, amplitude),
                (from_factor, to_factor, expo),
                (spike_seed, mean_interval),
                (magnitude, rise, decay),
            )| match kind {
                0 => WorkloadSpec::Stationary,
                1 => WorkloadSpec::Diurnal {
                    period: SimTime::from_secs(period),
                    amplitude,
                },
                2 => WorkloadSpec::Trending {
                    from_factor,
                    to_factor,
                    duration: SimTime::from_secs(period),
                    exponential: expo == 1,
                },
                _ => WorkloadSpec::FlashCrowd {
                    spike_seed,
                    mean_interval: SimTime::from_secs(mean_interval),
                    magnitude,
                    rise: SimTime::from_secs(rise),
                    decay: SimTime::from_secs(decay),
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid workload spec keeps the audited simulator clean.
    #[test]
    fn random_workloads_are_audit_clean(
        spec in arbitrary_workload(),
        seed in 0u64..1000,
    ) {
        prop_assert!(spec.validate().is_ok());
        let mut env = env_with(spec, seed);
        let _ = env.reset();
        for _ in 0..3 {
            let _ = env.step(&ACTION);
        }
        let violations = env.take_audit_violations();
        prop_assert!(violations.is_empty(), "audit violations: {violations:?}");
    }

    /// Same spec + same seed → byte-identical trajectory.
    #[test]
    fn random_workloads_are_deterministic(
        spec in arbitrary_workload(),
        seed in 0u64..1000,
    ) {
        let mut a = env_with(spec.clone(), seed);
        let _ = a.reset();
        let mut b = env_with(spec, seed);
        let _ = b.reset();
        prop_assert_eq!(run_fingerprint(&mut a), run_fingerprint(&mut b));
    }

    /// Serde round-trips preserve the spec exactly (traces and configs are
    /// stored on disk between record and replay).
    #[test]
    fn workload_specs_serde_round_trip(spec in arbitrary_workload()) {
        let json = serde_json::to_string(&spec).expect("spec serialises");
        let back: WorkloadSpec = serde_json::from_str(&json).expect("spec parses");
        prop_assert_eq!(spec, back);
    }
}
