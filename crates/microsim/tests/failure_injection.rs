//! Failure-injection tests: consumer crashes must never lose work (the
//! paper's at-least-once acknowledgement guarantee) and the orchestrator
//! must restore capacity (Kubernetes Replication Controller behaviour).

use desim::SimTime;
use microsim::{Cluster, SimConfig};
use proptest::prelude::*;
use workflow::{Ensemble, TaskTypeId, WorkflowTypeId};

use fault_configs::fault_configs;

mod fault_configs;

fn faulty_cluster(seed: u64, failures_per_hour: f64) -> Cluster {
    let config = SimConfig {
        startup_min: SimTime::from_secs(5),
        startup_max: SimTime::from_secs(10),
        failure_rate_per_hour: failures_per_hour,
        ..SimConfig::new(seed)
    };
    Cluster::new(Ensemble::msd(), config)
}

#[test]
fn zero_rate_means_no_failures() {
    let mut c = faulty_cluster(1, 0.0);
    c.set_consumers(&[4, 4, 4, 2]);
    for i in 0..100 {
        c.submit(SimTime::from_secs(i), WorkflowTypeId::new((i % 3) as usize));
    }
    c.run_until(SimTime::from_secs(2_000));
    assert_eq!(c.consumer_failures(), 0);
}

#[test]
fn failures_occur_at_high_rate() {
    // 60 failures per consumer-hour ≈ one per busy-minute: with multi-second
    // tasks failures are frequent.
    let mut c = faulty_cluster(2, 60.0);
    c.set_consumers(&[4, 4, 4, 2]);
    for i in 0..200 {
        c.submit(
            SimTime::from_secs(i / 2),
            WorkflowTypeId::new((i % 3) as usize),
        );
    }
    c.run_until(SimTime::from_secs(4_000));
    assert!(c.consumer_failures() > 0, "expected injected failures");
}

#[test]
fn no_work_is_lost_under_failures() {
    // Every submitted workflow still completes despite frequent crashes:
    // requests are redelivered and containers replaced.
    let mut c = faulty_cluster(3, 30.0);
    c.set_consumers(&[4, 4, 4, 2]);
    let total = 120;
    for i in 0..total {
        c.submit(SimTime::from_secs(i as u64), WorkflowTypeId::new(i % 3));
    }
    c.run_until(SimTime::from_secs(20_000));
    let done = c.completion_totals().total();
    assert!(
        c.consumer_failures() > 0,
        "test needs failures to be meaningful"
    );
    assert_eq!(done, total, "lost {} workflows", total - done);
    assert_eq!(c.total_wip(), 0);
    assert_eq!(c.workflows_in_flight(), 0);
}

#[test]
fn capacity_is_restored_after_crashes() {
    let mut c = faulty_cluster(4, 60.0);
    c.set_consumers(&[3, 3, 3, 3]);
    for i in 0..150 {
        c.submit(SimTime::from_secs(i), WorkflowTypeId::new((i % 3) as usize));
    }
    c.run_until(SimTime::from_secs(3_000));
    assert!(c.consumer_failures() > 0);
    // Once the dust settles (long after the last crash could have left a
    // replacement pending), every pool is back at its target.
    c.run_until(SimTime::from_secs(3_600));
    for j in 0..4 {
        let pool = c.pool(TaskTypeId::new(j));
        assert_eq!(
            pool.active() + pool.starting(),
            3,
            "pool {j} not restored: {pool:?}"
        );
    }
}

#[test]
fn failures_slow_processing_down() {
    let run = |rate: f64| {
        let mut c = faulty_cluster(5, rate);
        c.set_consumers(&[4, 4, 4, 2]);
        for i in 0..400 {
            c.submit(SimTime::ZERO, WorkflowTypeId::new(i % 3));
        }
        // Horizon short enough that the backlog is still draining: the
        // throughput difference is visible mid-flight.
        c.run_until(SimTime::from_secs(300));
        c.completion_totals().total()
    };
    let healthy = run(0.0);
    let degraded = run(240.0);
    assert!(
        degraded < healthy,
        "failures should cost throughput: {degraded} vs {healthy}"
    );
}

/// Every fault class must leave the simulator's invariants intact: runs
/// with runtime auditing enabled record zero violations under consumer
/// crashes, correlated node outages, stragglers, and delivery-delay spikes
/// (the resilience benchmark's scenario rates). `workload_roundtrip.rs`
/// audits the same configurations under non-stationary traffic and trace
/// replay.
#[test]
fn fault_scenarios_run_audit_clean() {
    let base = SimConfig {
        audit: true,
        ..SimConfig::new(9)
    };
    for (name, sim) in fault_configs(base) {
        let mut c = Cluster::new(Ensemble::msd(), sim);
        c.set_consumers(&[4, 4, 4, 2]);
        for i in 0..200 {
            c.submit(
                SimTime::from_secs(i / 2),
                WorkflowTypeId::new((i % 3) as usize),
            );
        }
        c.run_until(SimTime::from_secs(4_000));
        assert!(c.audit_enabled());
        assert_eq!(
            c.audit_violations(),
            &[],
            "scenario `{name}` violated simulator invariants"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Workflow conservation holds for any failure rate: submitted equals
    /// completed plus in-flight.
    #[test]
    fn conservation_under_arbitrary_failure_rates(
        seed in 0u64..500,
        rate in 0.0f64..100.0,
        n in 1usize..60,
    ) {
        let mut c = faulty_cluster(seed, rate);
        c.set_consumers(&[3, 3, 3, 3]);
        for i in 0..n {
            c.submit(SimTime::from_secs(i as u64), WorkflowTypeId::new(i % 3));
        }
        c.run_until(SimTime::from_secs(5_000));
        let done = c.completion_totals().total();
        prop_assert_eq!(n, done + c.workflows_in_flight());
    }
}
