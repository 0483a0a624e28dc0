//! CPU-contention tests: with bounded cores, packing more busy consumers
//! slows everyone down — the regime the paper's 3-vCPU testbed ran in.

use desim::SimTime;
use microsim::{Cluster, SimConfig};
use workflow::{Ensemble, WorkflowTypeId};

fn cluster(seed: u64, cores: Option<f64>) -> Cluster {
    let config = SimConfig {
        startup_min: SimTime::ZERO,
        startup_max: SimTime::ZERO,
        total_cores: cores,
        ..SimConfig::new(seed)
    };
    Cluster::new(Ensemble::msd(), config)
}

/// Throughput over a fixed horizon with a saturating backlog.
fn completions(seed: u64, cores: Option<f64>, consumers: usize) -> usize {
    let mut c = cluster(seed, cores);
    c.set_consumers(&[consumers, consumers, consumers, consumers]);
    for i in 0..600 {
        c.submit(SimTime::ZERO, WorkflowTypeId::new(i % 3));
    }
    c.run_until(SimTime::from_secs(600));
    c.completion_totals().total()
}

#[test]
fn unlimited_cores_match_no_contention() {
    // With more cores than consumers the contention model must be a no-op.
    let free = completions(1, None, 3);
    let many_cores = completions(1, Some(1_000.0), 3);
    assert_eq!(free, many_cores);
}

#[test]
fn scarce_cores_reduce_throughput() {
    let free = completions(2, None, 4);
    let contended = completions(2, Some(3.0), 4); // paper's 3 vCPUs
    assert!(
        contended < free / 2,
        "16 consumers on 3 cores should run far slower: {contended} vs {free}"
    );
}

#[test]
fn adding_consumers_beyond_cores_has_diminishing_returns() {
    // Without contention, doubling consumers roughly doubles throughput on
    // a backlog. With 3 cores it cannot.
    let few = completions(3, Some(3.0), 1); // 4 consumers, ~3 cores: ok
    let many = completions(3, Some(3.0), 4); // 16 consumers, 3 cores
    let few_free = completions(3, None, 1);
    let many_free = completions(3, None, 4);
    let free_speedup = many_free as f64 / few_free as f64;
    let contended_speedup = many as f64 / few as f64;
    assert!(
        contended_speedup < free_speedup,
        "contended speedup {contended_speedup:.2} vs free {free_speedup:.2}"
    );
}

#[test]
fn contention_preserves_work_conservation() {
    let mut c = cluster(4, Some(2.0));
    c.set_consumers(&[3, 3, 3, 3]);
    for i in 0..80 {
        c.submit(SimTime::from_secs(i), WorkflowTypeId::new((i % 3) as usize));
    }
    c.run_until(SimTime::from_secs(30_000));
    assert_eq!(c.completion_totals().total() + c.workflows_in_flight(), 80);
    assert_eq!(c.workflows_in_flight(), 0, "everything drains eventually");
}
