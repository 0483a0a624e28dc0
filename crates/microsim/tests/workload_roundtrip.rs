//! Workload-generator correctness: every generator kind survives a
//! record → trace-replay round trip byte-identically, `background_trace`
//! is exactly what a fresh environment records, arbitrary workload specs
//! keep the simulator audit-clean (under every fault configuration, and
//! again when their recorded trace is replayed) and deterministic, and a
//! damaged trace file loads or fails with a typed error.
//!
//! The round trip is the strongest arrival-path check we have: it proves
//! that window-by-window Poisson sampling (generator mode) and pre-queued
//! injected arrivals (trace mode) drive the cluster through the *same*
//! trajectory — same per-window metrics, same audit stream — which pins
//! down the window-boundary attribution semantics fixed in this change.

use std::sync::OnceLock;

use desim::SimTime;
use microsim::{background_trace, EnvConfig, MicroserviceEnv, SimConfig, WorkloadSpec};
use proptest::prelude::*;
use workflow::{ArrivalTrace, BurstSpec, Ensemble};

use fault_configs::fault_configs;

mod fault_configs;

const WINDOWS: usize = 4;
const ACTION: [usize; 4] = [4, 4, 4, 2]; // MSD budget 14

fn env_with(workload: WorkloadSpec, seed: u64) -> MicroserviceEnv {
    env_under(workload, audited(seed))
}

fn audited(seed: u64) -> SimConfig {
    SimConfig {
        audit: true,
        ..SimConfig::new(seed)
    }
}

fn env_under(workload: WorkloadSpec, sim: SimConfig) -> MicroserviceEnv {
    let ensemble = Ensemble::msd();
    let config = EnvConfig {
        sim,
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

/// The equivalence that lets `background_trace` stand in for a recorded
/// run: for every generator shape on MSD and LIGO, a fresh environment
/// (no `reset`, so time 0 lines up) recording its first `N` windows under
/// an allocation that changes every window captures exactly
/// `background_trace(&config, N)`, arrival for arrival.
#[test]
fn background_trace_equals_a_fresh_env_recording() {
    const N: usize = 20; // the presets' 600 s diurnal period and ramp
    for ensemble in [Ensemble::msd(), Ensemble::ligo()] {
        for name in ["stationary", "diurnal", "trending", "flash-crowd"] {
            let config = EnvConfig {
                workload: WorkloadSpec::parse(name).unwrap(),
                ..EnvConfig::for_ensemble(&ensemble).with_seed(2024)
            };
            let mut env = MicroserviceEnv::new(ensemble.clone(), config.clone());
            env.record_trace();
            let j = ensemble.num_task_types();
            for k in 0..N {
                let mut action = vec![1; j];
                action[k % j] = config.consumer_budget - (j - 1);
                let _ = env.step(&action);
            }
            let recorded = env.take_recorded_trace();
            let label = format!("{} {name}", ensemble.name());
            assert!(!recorded.is_empty(), "{label}: recorded nothing");
            assert_eq!(recorded, background_trace(&config, N), "{label}");
        }
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

    /// Any valid workload spec keeps the audited simulator clean under any
    /// of the fault configurations, and so does a replay of the trace it
    /// recorded, under the same faults.
    #[test]
    fn random_workloads_are_audit_clean(
        spec in arbitrary_workload(),
        fault in 0usize..5,
        seed in 0u64..1000,
    ) {
        prop_assert!(spec.validate().is_ok());
        let (name, sim) = fault_configs(audited(seed))[fault].clone();
        let mut env = env_under(spec, sim.clone());
        let _ = env.reset();
        env.record_trace();
        for _ in 0..3 {
            let _ = env.step(&ACTION);
        }
        let violations = env.take_audit_violations();
        prop_assert!(violations.is_empty(), "{}: audit violations: {:?}", name, violations);

        let path = temp_path(&format!("audit_{fault}_{seed}.jsonl"));
        env.take_recorded_trace().save_jsonl(&path).unwrap();
        let replay_spec = WorkloadSpec::TraceReplay {
            path: path.display().to_string(),
        };
        let mut replay = env_under(replay_spec, sim);
        let _ = replay.reset();
        let loaded = replay.load_workload_trace();
        let _ = std::fs::remove_file(&path);
        prop_assert!(loaded.is_ok(), "{:?}", loaded);
        for _ in 0..3 {
            let _ = replay.step(&ACTION);
        }
        let violations = replay.take_audit_violations();
        prop_assert!(violations.is_empty(), "{} replay: audit violations: {:?}", name, violations);
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

/// A real trace's bytes, as `save_jsonl` writes them.
fn trace_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let config = EnvConfig {
            workload: WorkloadSpec::parse("flash-crowd").unwrap(),
            ..EnvConfig::for_ensemble(&Ensemble::msd()).with_seed(5)
        };
        let trace = background_trace(&config, 3);
        assert!(trace.len() > 10, "a trace worth damaging");
        let path = temp_path("layout.jsonl");
        trace.save_jsonl(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(load_bytes(&bytes, "intact").unwrap(), trace);
        bytes
    })
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("miras_trace_decoder_{}_{name}", std::process::id()))
}

fn load_bytes(bytes: &[u8], name: &str) -> std::io::Result<ArrivalTrace> {
    let path = temp_path(name);
    std::fs::write(&path, bytes).unwrap();
    let loaded = ArrivalTrace::load(&path);
    let _ = std::fs::remove_file(&path);
    loaded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `background_trace` is time-sorted, inside its windows, and names
    /// only configured workflow types, for any shape, rates and seed.
    #[test]
    fn background_traces_sorted_and_bounded(
        spec in arbitrary_workload(),
        seed in 0u64..1000,
        rates in proptest::collection::vec(0.0f64..2.0, 1..4),
        windows in 0usize..8,
    ) {
        let config = EnvConfig {
            arrival_rates: rates.clone(),
            workload: spec,
            ..EnvConfig::for_ensemble(&Ensemble::msd()).with_seed(seed)
        };
        let trace = background_trace(&config, windows);
        let horizon = SimTime::from_secs(30 * windows as u64);
        for pair in trace.arrivals().windows(2) {
            prop_assert!(pair[0].time <= pair[1].time);
        }
        for a in trace.arrivals() {
            prop_assert!(a.time < horizon);
            prop_assert!(a.workflow_type.index() < rates.len());
        }
    }

    /// A real trace, cut at any byte or with any byte flipped, loads or
    /// fails with `InvalidData`: `ArrivalTrace::load` never panics and
    /// never reports a damaged file as another kind of error.
    #[test]
    fn cut_or_flipped_traces_load_or_fail_as_invalid_data(
        flip in 0u8..2,
        at in 0u64..1_000_000,
        mask in 1u8..=255,
    ) {
        let intact = trace_bytes();
        let at = (at as usize) * intact.len() / 1_000_000;
        let bytes = if flip == 1 {
            let mut flipped = intact.to_vec();
            flipped[at] ^= mask;
            flipped
        } else {
            intact[..at].to_vec()
        };
        match load_bytes(&bytes, "damaged") {
            Ok(trace) => {
                for pair in trace.arrivals().windows(2) {
                    prop_assert!(pair[0].time <= pair[1].time);
                }
            }
            Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{}", e),
        }
    }
}
