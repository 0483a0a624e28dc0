//! Figure 8: LIGO response-time comparison under bursts.
//!
//! Reproduces §VI-D for the LIGO ensemble: MIRAS vs `stream` (DRS), `heft`,
//! `monad`, and `rl` under bursts (100, 100, 50, 30), (150, 150, 80, 50),
//! and (80, 80, 80, 80) requests of DataFind/CAT/Full/Injection, with
//! C = 30 consumers.
//!
//! Expected shape (paper): MIRAS wins under the small burst; under the
//! larger bursts its response time rises temporarily (the policy deliberately
//! defers Coire work) and then recovers below the baselines — long-term
//! return beats short-term greed.
//!
//! Run: `cargo run -p miras-bench --release --bin fig8_ligo_comparison`

use miras_bench::{run_comparison, BenchArgs, EnsembleKind};

fn main() {
    let args = BenchArgs::parse("seed paper smoke iterations no-cache workload");
    args.check_trace(&[EnsembleKind::Ligo]);
    let (telemetry, _sink) = miras_bench::init_telemetry("fig8_ligo_comparison");
    println!(
        "Fig. 8 reproduction — LIGO comparison (seed {}, {} scale)",
        args.seed,
        args.scale()
    );
    let _ = run_comparison(EnsembleKind::Ligo, &args, &telemetry);
    telemetry.flush();
}
