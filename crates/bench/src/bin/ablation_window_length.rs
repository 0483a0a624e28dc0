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

use baselines::{Policy, WipProportionalAllocator};
use desim::SimTime;
use microsim::EnvConfig;
use miras_bench::{run_allocator_configured, summarize, BenchArgs};

fn main() {
    let args = BenchArgs::parse("ensemble seed");
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
            let mut alloc = WipProportionalAllocator::new(
                ensemble.num_task_types(),
                ensemble.default_consumer_budget(),
            );
            let records =
                run_allocator_configured(kind, config, Some(&burst), steps, &mut alloc, &telemetry);
            let s = summarize(alloc.name(), &records);
            println!(
                "{window_secs:>9} {steps:>7} {:>13} {:>14.1} {:>11} {steps:>10}",
                s.total_completions, s.mean_response_secs, s.final_wip
            );
        }
        println!(
            "(paper: 5 s windows churn containers — start-up eats the window; \
             30 s amortises start-up while staying responsive)\n"
        );
    }
    telemetry.flush();
}
