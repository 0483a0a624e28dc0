//! Workload scenario grid: MIRAS vs the comparison baselines under every
//! background-traffic shape in the workload zoo.
//!
//! The paper trains and evaluates under a stationary Poisson background;
//! this benchmark asks how the same policies fare when the background
//! drifts (`trending`), cycles (`diurnal`), spikes (`flash-crowd`), or
//! replays a recorded arrival trace (`trace-replay` — recorded on the fly
//! from a stationary run, since background arrivals are
//! policy-independent). Training always happens on the stationary
//! background; only the evaluation environments get the workload shape.
//!
//! Run: `cargo run -p miras-bench --release --bin workload_grid`
//! (add `--smoke` for a seconds-scale CI run, `--workload SPEC` to sweep a
//! single shape, `--ensemble msd|ligo|gpu-serve` to pick an ensemble).

use microsim::WorkloadSpec;
use miras_bench::{record_background_trace, run_workload_grid, workload_zoo, BenchArgs};

fn main() {
    let args = BenchArgs::parse("ensemble seed paper smoke iterations no-cache workload");
    args.check_trace(&args.ensembles());
    let (telemetry, _sink) = miras_bench::init_telemetry("workload_grid");
    println!(
        "Workload grid — scenario zoo comparison (seed {}, {} scale)",
        args.seed,
        args.scale()
    );
    for kind in args.ensembles() {
        // An explicit non-stationary `--workload` narrows the sweep to that
        // one shape; the default sweeps the whole zoo plus a trace replay.
        let workloads: Vec<WorkloadSpec> = if args.workload == WorkloadSpec::Stationary {
            let mut zoo = workload_zoo();
            let trace_windows = if args.smoke { 4 } else { 10 };
            match record_background_trace(kind, args.seed, trace_windows) {
                Ok(path) => zoo.push(WorkloadSpec::TraceReplay {
                    path: path.display().to_string(),
                }),
                Err(e) => eprintln!(
                    "[workload] cannot record a trace for {}: {e}; skipping trace-replay",
                    kind.name()
                ),
            }
            zoo
        } else {
            vec![args.workload.clone()]
        };
        let _ = run_workload_grid(kind, &args, &workloads, &telemetry);
    }
    telemetry.flush();
}
