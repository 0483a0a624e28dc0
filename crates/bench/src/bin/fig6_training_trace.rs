//! Figure 6: MIRAS policy-training traces.
//!
//! Reproduces §VI-C: run the iterative model-based loop (Algorithm 2) and,
//! at the end of every outer iteration, evaluate the greedy policy on the
//! real environment — 25 steps for MSD, 100 for LIGO — reporting the
//! aggregated reward. The paper observes convergence after about 11
//! iterations; the reproduced trace should climb and flatten the same way.
//!
//! Run: `cargo run -p miras-bench --release --bin fig6_training_trace`
//! (`--paper` for the paper's full per-iteration budgets, `--iterations N`
//! to change the trace length).

use miras_bench::{train_miras, BenchArgs};

fn main() {
    let args = BenchArgs::parse("ensemble seed paper smoke iterations");
    let (telemetry, _sink) = miras_bench::init_telemetry("fig6_training_trace");
    let iterations = args.resolved_iterations();
    println!(
        "Fig. 6 reproduction — training traces (seed {}, {} iterations, {} scale)",
        args.seed,
        iterations,
        args.scale()
    );
    for kind in args.ensembles() {
        println!(
            "\n##### Fig. 6 — {} policy training trace #####",
            kind.name().to_uppercase()
        );
        // Always train (the trace IS the figure); cache the agent for the
        // comparison figures.
        let (reports, _agent) = train_miras(kind, &args, false, true, &telemetry);
        println!(
            "{:>9} {:>12} {:>16} {:>14} {:>10} {:>9}",
            "iteration", "model_loss", "synthetic_return", "eval_return", "dataset", "sigma"
        );
        for r in &reports {
            println!(
                "{:>9} {:>12.4} {:>16.1} {:>14.1} {:>10} {:>9.4}",
                r.iteration,
                r.model_loss,
                r.synthetic_return_mean,
                r.eval_return,
                r.dataset_size,
                r.exploration_sigma.unwrap_or(f64::NAN)
            );
        }
        // Convergence check in the spirit of the paper's observation.
        if reports.len() >= 6 {
            let early: f64 = reports[..3].iter().map(|r| r.eval_return).sum::<f64>() / 3.0;
            let late: f64 = reports[reports.len() - 3..]
                .iter()
                .map(|r| r.eval_return)
                .sum::<f64>()
                / 3.0;
            println!(
                "\nmean eval return, first 3 iterations: {early:.1}; last 3: {late:.1} \
                 (paper: trace climbs then flattens ≈ iteration 11)"
            );
        }
    }
    telemetry.flush();
}
