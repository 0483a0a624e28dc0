//! Chaos day: diurnal load waves plus consumer crashes.
//!
//! The paper motivates MIRAS with dynamic workloads and an infrastructure
//! that keeps requests safe across container churn. This example stresses
//! both at once: a sinusoidal ("diurnal") arrival wave, sampled by the
//! emulator's workload model, is replayed into the MSD cluster while
//! consumers crash at a configurable rate, and an adaptive allocator keeps
//! re-planning. At the end, the at-least-once guarantee is
//! checked: nothing submitted was lost.
//!
//! Run: `cargo run --release --example chaos_day`

use miras::microsim::{Cluster, SimConfig};
use miras::prelude::*;

fn main() {
    let ensemble = Ensemble::msd();
    let horizon = SimTime::from_secs(3_600); // one simulated hour

    // A load wave: base rates swinging ±80% over a 20-minute period.
    let wave = EnvConfig {
        workload: WorkloadSpec::Diurnal {
            period: SimTime::from_secs(1_200),
            amplitude: 0.8,
        },
        ..EnvConfig::for_ensemble(&ensemble).with_seed(99)
    };
    let window = wave.window; // 30 s: 120 windows make the hour
    let trace = background_trace(&wave, 120);
    println!(
        "generated {} arrivals over {} (diurnal wave)",
        trace.len(),
        horizon
    );

    // A flaky cluster: ~12 crashes per consumer-hour of busy time.
    let sim = SimConfig {
        failure_rate_per_hour: 12.0,
        ..SimConfig::new(7)
    };
    let mut cluster = Cluster::new(ensemble.clone(), sim);
    for arrival in trace.arrivals() {
        cluster.submit(arrival.time, arrival.workflow_type);
    }

    // Re-plan every 30 s with the WIP-proportional heuristic.
    let mut policy =
        miras::baselines::by_name("wip-proportional", &PolicyConfig::new(&ensemble)).unwrap();
    let mut t = SimTime::ZERO;
    let mut peak_wip = 0usize;
    while t < horizon {
        let wip: Vec<f64> = cluster.wip().iter().map(|&w| w as f64).collect();
        let m = policy.decide(&Observation::first(&wip)).allocations;
        cluster.set_consumers(&m);
        t += window;
        cluster.run_until(t);
        peak_wip = peak_wip.max(cluster.total_wip());
    }
    // Let the tail drain with full capacity.
    cluster.set_consumers(&vec![
        ensemble.default_consumer_budget();
        ensemble.num_task_types()
    ]);
    cluster.run_until(horizon + SimTime::from_secs(1_200));

    let completed = cluster.completion_totals().total();
    let submitted: u64 = cluster.workflows_submitted().iter().sum();
    println!("submitted  : {submitted}");
    println!("completed  : {completed}");
    println!("in flight  : {}", cluster.workflows_in_flight());
    println!("crashes    : {}", cluster.consumer_failures());
    println!("peak WIP   : {peak_wip}");
    assert_eq!(
        submitted as usize,
        completed + cluster.workflows_in_flight(),
        "at-least-once violated: workflows were lost"
    );
    println!("at-least-once guarantee held despite the crashes ✔");
}
