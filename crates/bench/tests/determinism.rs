//! Telemetry must be observation-only: a figure run with a recording sink
//! attached must produce bit-identical results to the same run with the
//! no-op recorder. This is the repo's guard against instrumentation ever
//! consuming randomness or perturbing the computation. The Fig. 7 smoke
//! run is also pinned: its per-window records hash to a committed constant.

use microsim::WorkloadSpec;
use miras_bench::{
    run_comparison, run_workload_grid, workload_zoo, BenchArgs, EnsembleKind, StepRecord,
};
use telemetry::{JsonlSink, Telemetry};

/// FNV-1a over every field of every record of the Fig. 7 smoke run at seed
/// 5, scenario by scenario in algorithm order (see [`fold_records`]). It
/// moves only when a number of Fig. 7's comparison moves: training,
/// evaluation, the emulator or a baseline. It holds at any
/// `NN_NUM_THREADS` and at baseline x86-64 vector width.
const FIG7_SMOKE_BITS: u64 = 0x97ae_9b50_7dc1_0ae3;

fn fnv1a(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Folds one series' scenario and the bits of each record's fields into
/// `hash`; a window with no completions folds `u64::MAX` as its response.
fn fold_records(hash: &mut u64, scenario: usize, records: &[StepRecord]) {
    fnv1a(hash, scenario as u64);
    for r in records {
        fnv1a(hash, r.step as u64);
        fnv1a(hash, r.total_wip as u64);
        fnv1a(hash, r.reward.to_bits());
        fnv1a(hash, r.response_secs.map_or(u64::MAX, f64::to_bits));
        fnv1a(hash, r.completions as u64);
        fnv1a(hash, r.consumers_used as u64);
    }
}

fn smoke_args(seed: u64) -> BenchArgs {
    BenchArgs {
        ensemble: Some(EnsembleKind::Msd),
        seed,
        paper: false,
        iterations: None,
        no_cache: true,
        steady: false,
        smoke: true,
        workload: WorkloadSpec::Stationary,
    }
}

/// Runs the full Fig. 7 pipeline (MIRAS training, model-free DDPG training,
/// three burst scenarios × five allocators) at smoke scale twice — once with
/// the no-op recorder, once with a JSONL sink — and requires the per-window
/// records to serialize identically byte for byte.
#[test]
fn fig7_smoke_run_is_bit_identical_with_recorder_attached() {
    let args = smoke_args(5);

    let silent = run_comparison(EnsembleKind::Msd, &args, &Telemetry::noop());

    let sink = JsonlSink::in_memory();
    let telemetry = Telemetry::new(sink.clone());
    let recorded = run_comparison(EnsembleKind::Msd, &args, &telemetry);
    telemetry.flush();

    assert_eq!(silent.len(), recorded.len());
    let mut bits = 0xcbf2_9ce4_8422_2325;
    for ((scenario_a, name_a, records_a), (scenario_b, name_b, records_b)) in
        silent.iter().zip(&recorded)
    {
        assert_eq!(scenario_a, scenario_b);
        assert_eq!(name_a, name_b);
        // Bit-exactness, not approximate equality: serialize both series
        // (the vendored serde_json round-trips f64 exactly) and compare.
        let json_a = serde_json::to_string(records_a).expect("serializable");
        let json_b = serde_json::to_string(records_b).expect("serializable");
        assert_eq!(json_a, json_b, "{name_a} diverged in scenario {scenario_a}");
        fold_records(&mut bits, *scenario_a, records_a);
    }
    assert_eq!(
        bits, FIG7_SMOKE_BITS,
        "the Fig. 7 smoke records moved: {bits:#018x}"
    );

    // The recording run must actually have produced the stream the figure
    // binaries ship: per-window events from the environment and
    // per-iteration events from Algorithm 2.
    let stream = String::from_utf8(sink.take_output()).expect("utf-8 JSONL");
    assert!(
        stream.contains("\"name\":\"window\""),
        "no window events in stream"
    );
    assert!(
        stream.contains("\"name\":\"iteration\""),
        "no iteration events in stream"
    );
    assert!(
        stream.contains("\"name\":\"bench.summary\""),
        "no summary events in stream"
    );
}

/// The workload × algorithm grid must be byte-identical at any worker
/// count: cells are independent (no shared RNG stream), so a sequential
/// sweep and a multi-worker sweep produce the same records.
#[test]
fn workload_grid_smoke_is_worker_count_invariant() {
    let args = smoke_args(9);
    let workloads = workload_zoo();

    // Worker count does not alter any cell's inputs, so flipping the env
    // var mid-process (it is re-read on every run_grid call) only changes
    // scheduling, never results.
    std::env::set_var("MIRAS_GRID_THREADS", "1");
    let sequential = run_workload_grid(EnsembleKind::Msd, &args, &workloads, &Telemetry::noop());
    std::env::set_var("MIRAS_GRID_THREADS", "4");
    let parallel = run_workload_grid(EnsembleKind::Msd, &args, &workloads, &Telemetry::noop());
    std::env::remove_var("MIRAS_GRID_THREADS");

    assert_eq!(sequential.len(), parallel.len());
    assert_eq!(sequential.len(), workloads.len() * 5);
    for ((workload_a, name_a, records_a), (workload_b, name_b, records_b)) in
        sequential.iter().zip(&parallel)
    {
        assert_eq!(workload_a, workload_b);
        assert_eq!(name_a, name_b);
        let json_a = serde_json::to_string(records_a).expect("serializable");
        let json_b = serde_json::to_string(records_b).expect("serializable");
        assert_eq!(
            json_a, json_b,
            "{name_a} diverged under workload {workload_a}"
        );
    }
}
