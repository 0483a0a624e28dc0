//! Seeded chaos harness for the hardened serving stack.
//!
//! For each seed, this binary:
//!
//! 1. trains a smoke-scale MIRAS agent and deploys it as a watched
//!    checkpoint (so checkpoint-corruption events hit a real hot-swap
//!    path),
//! 2. expands a clean recorded observation stream into a seeded fault
//!    schedule — malformed/truncated JSONL, oversized lines, mid-stream
//!    disconnects, burst overload beyond `max_inflight`, injected
//!    decision stalls past the deadline, checkpoint corruption — and
//!    replays it through the production `AdmissionQueue` +
//!    `DecisionService`,
//! 3. checks the robustness invariants (`serve::chaos::verify`): exactly
//!    one reply per delivered valid window, every rejected line counted,
//!    counters coherent with the reply stream, shed replies inert,
//! 4. re-runs the identical schedule on a fresh service and requires the
//!    delivered byte transcripts to match exactly (chaos determinism),
//! 5. runs a fault-free control schedule and requires its output to be
//!    byte-identical to a bare batch replay (chaos-off ≡ shadow replay).
//!
//! One summary JSONL line per seed goes to stdout. Any violation is
//! reported on stderr and the process exits 1 — this is the CI
//! chaos-smoke gate (`--smoke` = 3 seeds, small stream).
//!
//! Run: `cargo run --release -p miras-bench --bin serve_chaos -- --smoke`

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use baselines::{by_name, fallback, PolicyConfig};
use microsim::{EnvConfig, MicroserviceEnv};
use miras::flags::numeric;
use miras_bench::command_line;
use miras_core::{save_policy, ClusterEnvAdapter, MirasConfig, MirasTrainer};
use serve::chaos::{generate_schedule, run_schedule, verify, ChaosConfig, ChaosOutcome};
use serve::{
    load_policy, record_stream, replay_stream, AdmissionConfig, CheckpointWatcher, DecisionService,
    ShedPolicy,
};
use telemetry::Telemetry;
use workflow::Ensemble;

/// Deadline for the chaotic runs: far above any real smoke-agent decision
/// (so wall-clock noise cannot flip a record between the two determinism
/// runs) and far below every injected stall (>= 1s), so degradation is a
/// pure function of the schedule.
const DEADLINE: Duration = Duration::from_millis(100);

/// The seeds and stream length to run: `--seeds N` runs seeds 1..=N
/// (default 5, or 3 under `--smoke`); `--windows` defaults to 80, or 40
/// under `--smoke`.
fn parse_args() -> Result<(Vec<u64>, usize), String> {
    let flags = command_line("smoke seeds windows")?;
    let smoke = flags.contains_key("smoke");
    let seeds: u64 = numeric(&flags, "seeds", if smoke { 3 } else { 5 })?;
    let windows = numeric(&flags, "windows", if smoke { 40 } else { 80 })?;
    Ok(((1..=seeds).collect(), windows))
}

fn checkpoint_fixture(path: &Path) -> Result<(), String> {
    let ensemble = Ensemble::msd();
    let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(9);
    let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, env_config));
    let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(9));
    trainer.run_iteration(&mut env);
    save_policy(path, &trainer.agent(), 1).map_err(|e| e.to_string())
}

/// A hardened service over the checkpoint, fresh counters, watcher armed.
fn build_service(checkpoint: &Path, ensemble: &Ensemble) -> Result<DecisionService, String> {
    let (policy, _version) =
        load_policy(checkpoint).map_err(|e| format!("loading fixture: {e}"))?;
    let cfg = PolicyConfig::new(ensemble);
    Ok(DecisionService::new(policy, Telemetry::noop())
        .with_watcher(CheckpointWatcher::new_deployed(checkpoint.to_path_buf()))
        .with_deadline(DEADLINE)
        .with_fallback(fallback(&cfg))
        .with_expected_dims(ensemble.num_task_types()))
}

fn transcript_bytes(outcome: &ChaosOutcome, clients: usize) -> String {
    outcome.transcript(clients).concat()
}

fn run_seed(
    seed: u64,
    base_lines: &[String],
    checkpoint: &Path,
    ensemble: &Ensemble,
) -> Result<String, String> {
    let config = ChaosConfig {
        seed,
        clients: 3,
        malformed: 0.15,
        disconnect: 0.04,
        stall: 0.10,
        corrupt: 0.06,
        burst: 4,
    };
    let admission = AdmissionConfig {
        max_inflight: 4,
        shed: if seed.is_multiple_of(2) {
            ShedPolicy::DropOldest
        } else {
            ShedPolicy::Reject
        },
    };
    let schedule = generate_schedule(&config, base_lines);

    // Run 1: invariants.
    let mut svc = build_service(checkpoint, ensemble)?;
    let outcome = run_schedule(&mut svc, admission, &schedule, Some(checkpoint));
    verify(&outcome).map_err(|v| format!("seed {seed}: invariant violated: {v}"))?;

    // Run 2: byte determinism of the delivered transcripts.
    let mut svc2 = build_service(checkpoint, ensemble)?;
    let outcome2 = run_schedule(&mut svc2, admission, &schedule, Some(checkpoint));
    let (t1, t2) = (
        transcript_bytes(&outcome, config.clients),
        transcript_bytes(&outcome2, config.clients),
    );
    if t1 != t2 {
        return Err(format!(
            "seed {seed}: chaos replay is not byte-deterministic ({} vs {} transcript bytes)",
            t1.len(),
            t2.len()
        ));
    }

    // Control: chaos off, overload off — must equal bare batch replay.
    // The control service carries no deadline: with no injected stalls,
    // degradation would hinge on wall-clock noise, which is exactly what
    // the byte-identity claim excludes.
    let quiet = ChaosConfig::quiet(seed);
    let quiet_schedule = generate_schedule(&quiet, base_lines);
    let (policy, _version) = load_policy(checkpoint).map_err(|e| e.to_string())?;
    let mut control = DecisionService::new(policy, Telemetry::noop())
        .with_expected_dims(ensemble.num_task_types());
    let control_outcome = run_schedule(
        &mut control,
        AdmissionConfig::default(),
        &quiet_schedule,
        None,
    );
    verify(&control_outcome).map_err(|v| format!("seed {seed}: control invariant: {v}"))?;
    let control_bytes = transcript_bytes(&control_outcome, 1);
    let (mut bare, _) = load_policy(checkpoint).map_err(|e| e.to_string())?;
    let replay_bytes: String = replay_stream(bare.as_mut(), &base_lines.join("\n"))
        .iter()
        .map(|r| r.to_line() + "\n")
        .collect();
    if control_bytes != replay_bytes {
        return Err(format!(
            "seed {seed}: chaos-off control diverges from batch replay ({} vs {} bytes)",
            control_bytes.len(),
            replay_bytes.len()
        ));
    }

    Ok(format!(
        "{{\"seed\":{seed},\"events\":{},\"replies\":{},\"decisions\":{},\"shed\":{},\"degraded\":{},\"wire_rejected\":{},\"dropped_replies\":{},\"disconnects\":{},\"swap_attempts_survived\":true,\"deterministic\":true,\"control_matches_replay\":true}}",
        schedule.events.len(),
        outcome.replies.len(),
        outcome.decisions(),
        outcome.counters.shed,
        outcome.counters.degraded,
        outcome.counters.wire_rejected,
        outcome.counters.dropped_replies,
        outcome.counters.disconnects,
    ))
}

fn main() -> ExitCode {
    let (seeds, windows) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let ensemble = Ensemble::msd();
    let mut driver = by_name("uniform", &PolicyConfig::new(&ensemble)).expect("uniform exists");
    let base_lines: Vec<String> = record_stream(&ensemble, 7, windows, None, driver.as_mut())
        .iter()
        .map(|obs| serde_json::to_string(obs).expect("observations serialize"))
        .collect();

    let checkpoint = std::env::temp_dir().join(format!(
        "miras_serve_chaos_fixture_{}.json",
        std::process::id()
    ));
    if let Err(e) = checkpoint_fixture(&checkpoint) {
        eprintln!("serve_chaos: building checkpoint fixture: {e}");
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for &seed in &seeds {
        match run_seed(seed, &base_lines, &checkpoint, &ensemble) {
            Ok(summary) => println!("{summary}"),
            Err(e) => {
                eprintln!("serve_chaos: {e}");
                failed = true;
            }
        }
    }
    let _ = std::fs::remove_file(&checkpoint);
    if failed {
        ExitCode::FAILURE
    } else {
        eprintln!(
            "serve_chaos: {} seeds x {} windows: all invariants held, chaos replay deterministic, chaos-off control byte-identical to replay",
            seeds.len(),
            windows
        );
        ExitCode::SUCCESS
    }
}
