//! The resilience benchmark must cover every scenario × allocator cell and
//! keep its metrics finite even with every fault class firing.

use miras_bench::{fault_scenarios, run_resilience, summarize, BenchArgs, EnsembleKind};
use telemetry::{JsonlSink, Telemetry};

#[test]
fn resilience_smoke_covers_all_scenarios_and_algorithms() {
    let args = BenchArgs {
        ensemble: Some(EnsembleKind::Msd),
        seed: 9,
        paper: false,
        iterations: None,
        no_cache: true,
        steady: false,
        smoke: true,
        workload: microsim::WorkloadSpec::Stationary,
    };
    let sink = JsonlSink::in_memory();
    let telemetry = Telemetry::new(sink.clone());
    let results = run_resilience(EnsembleKind::Msd, &args, &telemetry);
    telemetry.flush();

    let scenarios = fault_scenarios();
    let algorithms = ["miras", "uniform", "stream", "heft", "monad", "rl"];
    assert_eq!(results.len(), scenarios.len() * algorithms.len());
    for scenario in &scenarios {
        for algorithm in algorithms {
            let (_, _, records) = results
                .iter()
                .find(|(s, a, _)| s == scenario.name && a == algorithm)
                .unwrap_or_else(|| panic!("missing {}/{algorithm}", scenario.name));
            assert!(!records.is_empty());
            let summary = summarize(algorithm, records);
            assert!(
                summary.total_reward.is_finite() && summary.mean_response_secs.is_finite(),
                "non-finite metrics for {}/{algorithm}",
                scenario.name
            );
        }
    }

    // The JSONL stream segments per scenario via a string field.
    let stream = String::from_utf8(sink.take_output()).unwrap();
    for scenario in &scenarios {
        assert!(
            stream.contains(&format!("\"scenario\":\"{}\"", scenario.name)),
            "scenario {} missing from stream",
            scenario.name
        );
    }
    assert!(stream.contains("\"name\":\"bench.summary\""));
}

/// Faults must actually bite: with the crash scenario's failure rate, the
/// emulator records consumer failures that the healthy control never sees.
#[test]
fn fault_scenarios_perturb_the_environment() {
    use microsim::{EnvConfig, MicroserviceEnv};
    use workflow::Ensemble;

    let scenarios = fault_scenarios();
    let crashes = scenarios.iter().find(|s| s.name == "crashes").unwrap();
    let ensemble = Ensemble::msd();
    let mut config = EnvConfig::for_ensemble(&ensemble).with_seed(4);
    config.sim = crashes.apply(config.sim);
    let mut env = MicroserviceEnv::new(ensemble, config);
    let _ = env.reset();
    env.inject_burst(&workflow::BurstSpec::new(vec![100, 100, 100]));
    for _ in 0..10 {
        let _ = env.step(&[4, 4, 3, 3]);
    }
    assert!(
        env.cluster().consumer_failures() > 0,
        "crash scenario produced no consumer failures"
    );
}
