//! Integration tests for the beyond-the-paper features, exercised together
//! through the public API: CPU contention, failure injection, time-varying
//! workloads and model ensembles.

use miras::microsim::{Cluster, SimConfig};
use miras::miras_core::EnsembleDynamics;
use miras::prelude::*;

#[test]
fn contention_and_failures_compose() {
    // A flaky, CPU-starved cluster still conserves and eventually finishes
    // all work.
    let config = SimConfig {
        total_cores: Some(3.0),
        failure_rate_per_hour: 20.0,
        ..SimConfig::new(5)
    };
    let mut cluster = Cluster::new(Ensemble::msd(), config);
    cluster.set_consumers(&[4, 4, 4, 2]);
    for i in 0..60 {
        cluster.submit(SimTime::from_secs(i), WorkflowTypeId::new((i % 3) as usize));
    }
    cluster.run_until(SimTime::from_secs(40_000));
    assert_eq!(cluster.drain_completions().len(), 60);
    assert!(cluster.consumer_failures() > 0);
}

#[test]
fn modulated_workload_drives_the_env() {
    // A ramping workload replayed through the environment produces more
    // arrivals late than early.
    let ensemble = Ensemble::msd();
    let process = ModulatedPoisson::new(
        vec![0.3, 0.3, 0.3],
        RatePattern::Ramp {
            from_factor: 0.1,
            to_factor: 3.0,
            duration: SimTime::from_secs(600),
        },
    );
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(8);
    let trace = process.generate(SimTime::from_secs(600), &mut rng);

    let config = EnvConfig {
        arrival_rates: vec![0.0; 3], // only the injected trace
        ..EnvConfig::for_ensemble(&ensemble).with_seed(8)
    };
    let mut env = MicroserviceEnv::new(ensemble, config);
    let _ = env.reset();
    env.inject_trace(&trace);
    let mut per_window = Vec::new();
    for _ in 0..20 {
        let out = env.step(&[4, 4, 4, 2]);
        per_window.push(out.metrics.arrivals.iter().sum::<usize>());
    }
    let early: usize = per_window[..5].iter().sum();
    let late: usize = per_window[15..].iter().sum();
    assert!(late > 2 * early, "ramp not visible: {per_window:?}");
}

#[test]
fn ensemble_model_learns_the_real_emulator() {
    // Train a 3-member ensemble on real transitions; its mean prediction
    // must beat the worst single member on held-out data.
    use rand::{Rng, SeedableRng};
    use rl::Environment;
    let ensemble = Ensemble::msd();
    let config = EnvConfig::for_ensemble(&ensemble).with_seed(9);
    let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, config));
    let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
    let mut dataset = TransitionDataset::new(4);
    let _ = env.reset();
    for step in 0..400 {
        if step % 25 == 0 {
            let _ = env.reset();
        }
        let raw: Vec<f64> = (0..4).map(|_| rng.gen_range(0.0..1.0)).collect();
        let _ = env.step(&rl::policy::project_to_simplex(&raw));
    }
    env.drain_into(&mut dataset);

    let miras_config = MirasConfig::msd_fast(9);
    let mut models = EnsembleDynamics::new(4, &miras_config, 3);
    let _ = models.train(&dataset, 60, 64);

    // Held out: fresh transitions from a different seed.
    let config2 = EnvConfig::for_ensemble(&Ensemble::msd()).with_seed(10);
    let mut env2 = ClusterEnvAdapter::new(MicroserviceEnv::new(Ensemble::msd(), config2));
    let _ = env2.reset();
    for _ in 0..50 {
        let _ = env2.step(&[0.25, 0.25, 0.25, 0.25]);
    }
    let test = env2.take_transitions();

    type Predictor<'a> = &'a dyn Fn(&[f64], &[f64]) -> Vec<f64>;
    let mae = |f: Predictor| -> f64 {
        test.iter()
            .map(|t| {
                f(&t.state, &t.action)
                    .iter()
                    .zip(&t.next_state)
                    .map(|(p, y)| (p - y).abs())
                    .sum::<f64>()
                    / 4.0
            })
            .sum::<f64>()
            / test.len() as f64
    };
    let mean_mae = mae(&|s, a| models.predict_mean(s, a));
    let worst_member = (0..3)
        .map(|m| mae(&|s, a| models.predict_member(m, s, a)))
        .fold(0.0f64, f64::max);
    assert!(
        mean_mae <= worst_member + 1e-9,
        "ensemble mean {mean_mae} vs worst member {worst_member}"
    );
}

#[test]
fn latency_summary_from_live_completions() {
    let mut cluster = Cluster::new(
        Ensemble::msd(),
        SimConfig {
            startup_min: SimTime::ZERO,
            startup_max: SimTime::ZERO,
            ..SimConfig::new(12)
        },
    );
    cluster.set_consumers(&[4, 4, 4, 2]);
    for i in 0..100 {
        cluster.submit(
            SimTime::from_secs(i / 3),
            WorkflowTypeId::new((i % 3) as usize),
        );
    }
    cluster.run_until(SimTime::from_secs(2_000));
    let completions = cluster.drain_completions();
    let summary = miras::microsim::LatencySummary::from_completions(&completions).unwrap();
    assert_eq!(summary.count, 100);
    assert!(summary.min > 0.0);
    assert!(summary.min <= summary.p50 && summary.p50 <= summary.p95);
    assert!(summary.p95 <= summary.p99 && summary.p99 <= summary.max);
}

#[test]
fn dot_export_of_builtin_ensembles_is_valid_dot() {
    for ensemble in [Ensemble::msd(), Ensemble::ligo()] {
        let dot = ensemble.to_dot();
        assert_eq!(
            dot.matches("digraph").count(),
            ensemble.num_workflow_types()
        );
        // Balanced braces.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }
}
