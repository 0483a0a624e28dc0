//! Ablation A1: decision-window length (paper §VI-A2).
//!
//! The paper tests 5 s, 15 s, and 30 s windows and picks 30 s: a window
//! must be long enough that the 5–10 s container start-up cost is amortised,
//! but short enough to react to load changes. This ablation runs the same
//! adaptive allocator (WIP-proportional — chosen because it re-plans every
//! window and therefore feels the start-up cost directly) under all three
//! window lengths with a burst, and reports throughput and response time.
//!
//! Run: `cargo run -p miras-bench --release --bin ablation_window_length`

use baselines::{Allocator, Observation, WipProportionalAllocator};
use desim::SimTime;
use microsim::{EnvConfig, MicroserviceEnv};
use miras_bench::BenchArgs;

fn main() {
    let args = BenchArgs::parse();
    let (telemetry, _sink) = miras_bench::init_telemetry("ablation_window_length");
    println!(
        "Ablation A1 — decision-window length (seed {})\n",
        args.seed
    );
    for kind in args.ensembles() {
        let ensemble = kind.ensemble();
        let burst = kind.burst_scenarios()[0].clone();
        // Same total simulated time for each window length.
        let horizon_secs = 750u64;
        println!(
            "##### {} — burst {:?}, horizon {horizon_secs}s #####",
            kind.name().to_uppercase(),
            burst.counts()
        );
        println!(
            "{:>9} {:>7} {:>13} {:>14} {:>11} {:>10}",
            "window(s)", "steps", "completions", "mean_resp(s)", "final_wip", "decisions"
        );
        for window_secs in [5u64, 15, 30] {
            let steps = (horizon_secs / window_secs) as usize;
            let config = EnvConfig {
                window: SimTime::from_secs(window_secs),
                ..EnvConfig::for_ensemble(&ensemble).with_seed(args.seed)
            };
            let mut env = MicroserviceEnv::new(ensemble.clone(), config);
            env.set_telemetry(telemetry.clone());
            let _ = env.reset();
            env.inject_burst(&burst);
            let mut alloc =
                WipProportionalAllocator::new(ensemble.num_task_types(), env.consumer_budget());
            let mut completions = 0usize;
            let mut resp_sum = 0.0;
            let mut resp_n = 0usize;
            let mut final_wip = 0usize;
            let mut prev = None;
            for step in 0..steps {
                let wip = env.state();
                let m = alloc.allocate(&Observation::new(&wip, prev.as_ref(), step));
                let out = env.step(&m);
                completions += out.metrics.completions.iter().sum::<usize>();
                if let Some(r) = out.metrics.overall_mean_response_secs() {
                    resp_sum += r;
                    resp_n += 1;
                }
                final_wip = out.metrics.total_wip();
                prev = Some(out.metrics);
            }
            let mean_resp = if resp_n > 0 {
                resp_sum / resp_n as f64
            } else {
                0.0
            };
            println!(
                "{window_secs:>9} {steps:>7} {completions:>13} {mean_resp:>14.1} \
                 {final_wip:>11} {steps:>10}"
            );
        }
        println!(
            "(paper: 5 s windows churn containers — start-up eats the window; \
             30 s amortises start-up while staying responsive)\n"
        );
    }
    telemetry.flush();
}
