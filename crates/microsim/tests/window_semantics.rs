//! Integration tests for decision-window semantics: window length, reset
//! behaviour, and the interaction between container start-up and windows.

use desim::SimTime;
use microsim::{EnvConfig, MicroserviceEnv};
use workflow::{BurstSpec, Ensemble};

fn env_with_window(window_secs: u64, seed: u64) -> MicroserviceEnv {
    let ensemble = Ensemble::msd();
    let config = EnvConfig {
        window: SimTime::from_secs(window_secs),
        ..EnvConfig::for_ensemble(&ensemble).with_seed(seed)
    };
    MicroserviceEnv::new(ensemble, config)
}

#[test]
fn window_length_scales_simulated_time() {
    for secs in [5u64, 15, 30] {
        let mut env = env_with_window(secs, 1);
        let before = env.cluster().now();
        for _ in 0..4 {
            let _ = env.step(&[4, 4, 4, 2]);
        }
        assert_eq!(
            (env.cluster().now() - before).as_secs_f64(),
            (4 * secs) as f64
        );
    }
}

#[test]
fn short_windows_feel_container_startup() {
    // With 5 s windows, a consumer ordered now (5–10 s start-up) cannot
    // process anything within the same window.
    let mut env = env_with_window(5, 2);
    env.inject_burst(&BurstSpec::new(vec![20, 0, 0]));
    let out = env.step(&[14, 0, 0, 0]);
    assert_eq!(
        out.metrics.completions.iter().sum::<usize>(),
        0,
        "nothing can finish before any container is up"
    );
    // Within 30 s windows the same order processes plenty.
    let mut env = env_with_window(30, 2);
    env.inject_burst(&BurstSpec::new(vec![20, 0, 0]));
    let out = env.step(&[14, 0, 0, 0]);
    assert!(
        out.metrics.wip[0] < 20,
        "the A queue should have drained some"
    );
}

#[test]
fn arrivals_scale_with_window_length() {
    // Expected arrivals per window are rate × window: 6× more in 30 s
    // windows than in 5 s windows, summed over many windows.
    let count = |secs: u64| -> usize {
        let mut env = env_with_window(secs, 3);
        let steps = (3_000 / secs) as usize; // same total horizon
        let mut total = 0;
        for _ in 0..steps {
            total += env
                .step(&[4, 4, 4, 2])
                .metrics
                .arrivals
                .iter()
                .sum::<usize>();
        }
        total
    };
    let short = count(5);
    let long = count(30);
    let ratio = long as f64 / short as f64;
    assert!(
        (0.85..1.15).contains(&ratio),
        "same horizon, same workload: ratio {ratio}"
    );
}

#[test]
fn reset_is_idempotent() {
    let mut env = env_with_window(30, 4);
    env.inject_burst(&BurstSpec::new(vec![50, 50, 50]));
    let _ = env.step(&[0; 4]);
    let s1 = env.reset();
    let s2 = env.reset();
    assert!(s1.iter().sum::<f64>() <= 1.0);
    assert!(s2.iter().sum::<f64>() <= 1.0);
}

#[test]
fn window_index_counts_only_steps() {
    let mut env = env_with_window(30, 5);
    assert_eq!(env.window_index(), 0);
    let _ = env.step(&[4, 4, 4, 2]);
    let _ = env.reset(); // resets do not advance the decision index
    let _ = env.step(&[4, 4, 4, 2]);
    assert_eq!(env.window_index(), 2);
}

#[test]
fn metrics_window_index_matches_env() {
    let mut env = env_with_window(30, 6);
    for expected in 0..5 {
        let out = env.step(&[4, 4, 4, 2]);
        assert_eq!(out.metrics.window_index, expected);
    }
}
