//! Figure 7: MSD response-time comparison under bursts.
//!
//! Reproduces §VI-D for the MSD ensemble: MIRAS vs `stream` (DRS), `heft`,
//! `monad` (MPC), and `rl` (model-free DDPG at the same real-interaction
//! budget), under the paper's three bursts — (300, 200, 300),
//! (1000, 300, 400), and (500, 500, 500) requests of Type1–Type3 injected
//! at the start on top of the continuous Poisson background — with the
//! consumer constraint C = 14.
//!
//! Expected shape (paper): MIRAS is significantly better than the other
//! algorithms on MSD, especially in long-term (tail) response time.
//!
//! Run: `cargo run -p miras-bench --release --bin fig7_msd_comparison`

use miras_bench::{run_comparison, BenchArgs, EnsembleKind};

fn main() {
    let args = BenchArgs::parse("seed paper smoke iterations no-cache workload");
    args.check_trace(&[EnsembleKind::Msd]);
    let (telemetry, _sink) = miras_bench::init_telemetry("fig7_msd_comparison");
    println!(
        "Fig. 7 reproduction — MSD comparison (seed {}, {} scale)",
        args.seed,
        args.scale()
    );
    let _ = run_comparison(EnsembleKind::Msd, &args, &telemetry);
    telemetry.flush();
}
