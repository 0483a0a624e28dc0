//! Resilience benchmark: allocators under environment faults.
//!
//! Evaluates MIRAS (trained on the healthy environment) and the five
//! baselines — `uniform`, `stream` (DRS), `heft`, `monad`, and model-free
//! `rl` — under the fault scenarios `microsim` can inject: independent
//! consumer crashes, correlated node outages, straggler requests, and
//! queue delivery-delay spikes, plus a healthy control. Each scenario runs
//! the ensemble's first burst workload; per-scenario summaries stream to
//! `results/resilience_comparison.jsonl` as `bench.summary` events tagged
//! with a string `scenario` field.
//!
//! Expected shape: every algorithm degrades under faults (redelivered
//! requests and dead consumers cost throughput), but the adaptive
//! policies (MIRAS, `rl`) reallocate around the damage while the static
//! ones cannot; correlated node outages hurt more than the same number of
//! independent crashes.
//!
//! Run: `cargo run -p miras-bench --release --bin resilience_comparison`

use miras_bench::{run_resilience, BenchArgs};

fn main() {
    let args = BenchArgs::parse("ensemble seed paper smoke iterations no-cache workload");
    args.check_trace(&args.ensembles());
    let (telemetry, _sink) = miras_bench::init_telemetry("resilience_comparison");
    println!(
        "Resilience benchmark (seed {}, {} scale)",
        args.seed,
        args.scale()
    );
    for kind in args.ensembles() {
        let _ = run_resilience(kind, &args, &telemetry);
    }
    telemetry.flush();
}
