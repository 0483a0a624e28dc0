//! Differential validation of the emulator against analytic queueing theory.
//!
//! A single-task workflow under Poisson arrivals with `c` consumers is an
//! M/G/c queue. The emulator's default log-normal service times run at
//! coefficient of variation 1, where the Allen–Cunneen M/G/c correction
//! `(CV_a² + CV_s²) / 2` equals 1 — so plain Erlang-C (M/M/c) steady-state
//! predictions from `baselines::queueing` should match the simulated
//! steady state. The tolerance is 10% on mean response time and mean
//! work-in-progress (covering both the Allen–Cunneen approximation error at
//! c > 1 and sampling noise over the measurement horizon) and 5% on
//! throughput.
//!
//! Any disagreement beyond that flags either a simulator defect (lost or
//! double-counted work, clock errors) or a broken analytic helper — which is
//! exactly what this harness exists to catch.

use desim::SimTime;
use microsim::{EnvConfig, MicroserviceEnv, SimConfig};
use workflow::{Dag, Ensemble, TaskTypeDef, TaskTypeId, WorkflowDef};

/// One workflow type consisting of a single task with mean service time
/// `1/mu` seconds at CV 1, arriving Poisson at `lambda` requests/s.
fn mmc_ensemble(lambda: f64, mu: f64, c: usize) -> Ensemble {
    Ensemble::new(
        "mmc",
        vec![TaskTypeDef::new("S", 1.0 / mu, 1.0)],
        vec![WorkflowDef {
            name: "single".into(),
            dag: Dag::chain(vec![TaskTypeId::new(0)]).unwrap(),
        }],
        c,
        vec![lambda],
    )
}

struct SteadyState {
    mean_response_secs: f64,
    mean_wip: f64,
    throughput_per_sec: f64,
}

/// Runs the emulator to steady state and measures over `measure` windows.
fn simulate(lambda: f64, mu: f64, c: usize, seed: u64) -> SteadyState {
    let window_secs = 30u64;
    let warmup = 20usize;
    let measure = 200usize;
    let ensemble = mmc_ensemble(lambda, mu, c);
    let config = EnvConfig {
        window: SimTime::from_secs(window_secs),
        sim: SimConfig {
            startup_min: SimTime::ZERO,
            startup_max: SimTime::ZERO,
            ..SimConfig::new(seed)
        },
        ..EnvConfig::for_ensemble(&ensemble)
    };
    let mut env = MicroserviceEnv::new(ensemble, config);
    let _ = env.reset();
    let action = vec![c];
    for _ in 0..warmup {
        let _ = env.step(&action);
    }
    let mut weighted_response = 0.0;
    let mut completions = 0usize;
    let mut wip_sum = 0usize;
    for _ in 0..measure {
        let m = env.step(&action).metrics;
        if let Some(r) = m.overall_mean_response_secs() {
            let done: usize = m.completions.iter().sum();
            weighted_response += r * done as f64;
            completions += done;
        }
        wip_sum += m.total_wip();
    }
    assert!(
        env.audit_violations().is_empty(),
        "audit violations during differential run: {:?}",
        env.audit_violations()
    );
    let horizon_secs = (measure as u64 * window_secs) as f64;
    SteadyState {
        mean_response_secs: weighted_response / completions as f64,
        mean_wip: wip_sum as f64 / measure as f64,
        throughput_per_sec: completions as f64 / horizon_secs,
    }
}

fn assert_within(observed: f64, predicted: f64, tolerance: f64, what: &str) {
    let rel = (observed - predicted).abs() / predicted;
    assert!(
        rel <= tolerance,
        "{what}: observed {observed:.4} vs predicted {predicted:.4} \
         (relative error {:.1}% > {:.0}% tolerance)",
        rel * 100.0,
        tolerance * 100.0
    );
}

fn check_against_erlang_c(lambda: f64, mu: f64, c: usize, seed: u64) {
    let observed = simulate(lambda, mu, c, seed);
    assert_within(
        observed.mean_response_secs,
        baselines::queueing::mmc_mean_response(lambda, mu, c),
        0.10,
        "mean response time",
    );
    assert_within(
        observed.mean_wip,
        baselines::queueing::mmc_mean_in_system(lambda, mu, c),
        0.10,
        "mean work-in-progress",
    );
    assert_within(observed.throughput_per_sec, lambda, 0.05, "throughput");
}

#[test]
fn steady_state_matches_mm1_at_half_load() {
    // M/M/1 with ρ = 0.5: W = 1/(μ−λ) = 2 s, L = 1.
    check_against_erlang_c(0.5, 1.0, 1, 11);
}

#[test]
fn steady_state_matches_mmc_at_moderate_load() {
    // M/M/3 with λ = 2, μ = 1: ρ = 2/3, W = 13/9 s, L = 26/9.
    check_against_erlang_c(2.0, 1.0, 3, 12);
}

#[test]
fn steady_state_matches_mmc_at_high_load() {
    // M/M/3 with λ = 2.5, μ = 1: ρ = 5/6, W ≈ 2.405 s — queueing-dominated,
    // so any systematic accounting error in the emulator shows up here.
    check_against_erlang_c(2.5, 1.0, 3, 13);
}

/// Golden-trace replay: the MSD ensemble at a pinned seed must reproduce
/// this exact per-window trace. Catches any unintended behaviour change —
/// RNG-stream reordering, dispatch-order changes, accounting drift — that
/// the statistical tests above are too coarse to see. If a PR changes this
/// trace *deliberately*, regenerate the literals and say why in the PR.
#[test]
fn golden_trace_msd_seed_2024() {
    let ensemble = Ensemble::msd();
    let config = EnvConfig::for_ensemble(&ensemble).with_seed(2024);
    let mut env = MicroserviceEnv::new(ensemble, config);
    assert_eq!(env.reset(), vec![0.0; 4]);
    #[allow(clippy::type_complexity)]
    let expected: [(usize, [usize; 4], [usize; 3], [usize; 3], f64); 8] = [
        (0, [5, 1, 5, 1], [11, 10, 8], [6, 7, 5], -11.0),
        (1, [1, 3, 4, 1], [6, 9, 7], [8, 10, 6], -8.0),
        (2, [1, 4, 3, 1], [9, 5, 13], [6, 6, 15], -8.0),
        (3, [1, 0, 3, 3], [9, 8, 6], [13, 6, 6], -6.0),
        (4, [2, 1, 6, 3], [16, 10, 8], [11, 10, 9], -11.0),
        (5, [1, 1, 8, 3], [5, 9, 12], [10, 6, 9], -12.0),
        (6, [0, 2, 6, 6], [8, 9, 8], [6, 13, 8], -13.0),
        (7, [1, 3, 4, 1], [10, 5, 11], [11, 6, 11], -8.0),
    ];
    for (window, wip, arrivals, completions, reward) in expected {
        let o = env.step(&[4, 4, 4, 2]);
        assert_eq!(o.metrics.window_index, window);
        assert_eq!(o.metrics.wip, wip, "window {window}");
        assert_eq!(o.metrics.arrivals, arrivals, "window {window}");
        assert_eq!(o.metrics.completions, completions, "window {window}");
        assert!((o.reward - reward).abs() < 1e-12, "window {window}");
    }
}

/// Auditing must be observation-only: the exact same seed with auditing on
/// and off must produce bit-identical window metrics.
#[test]
fn audit_mode_is_bit_identical() {
    let run = |audit: bool| {
        let ensemble = Ensemble::msd();
        let config = EnvConfig {
            sim: SimConfig {
                audit,
                ..SimConfig::new(77)
            },
            ..EnvConfig::for_ensemble(&ensemble)
        };
        let mut env = MicroserviceEnv::new(ensemble, config);
        let _ = env.reset();
        (0..12)
            .map(|_| env.step(&[4, 4, 4, 2]).metrics)
            .collect::<Vec<_>>()
    };
    let plain = run(false);
    let audited = run(true);
    assert_eq!(plain, audited);
}
