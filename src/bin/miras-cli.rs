//! `miras-cli` — drive the MIRAS reproduction from the command line.
//!
//! Subcommands:
//!
//! * `simulate` — run a baseline allocator against the emulated cluster and
//!   print per-window metrics,
//! * `train`    — run the MIRAS training loop and save the agent as a
//!   one-line policy file (what a checkpoint's first line holds),
//! * `evaluate` — replay a saved agent against a workload,
//! * `allocate` — one-shot: WIP vector in, consumer allocation out,
//! * `gen-trace` — sample an ensemble's background arrivals under a
//!   workload shape and write them as a JSONL trace, which `--trace` (and
//!   `--workload trace:FILE` in the bench binaries) replays.
//!
//! Examples:
//!
//! ```text
//! miras-cli simulate --ensemble msd --policy drs --burst 300,200,300 --windows 25
//! miras-cli train --ensemble msd --iterations 12 --out agent.json
//! miras-cli evaluate --agent agent.json --burst 500,500,500 --windows 25
//! miras-cli allocate --agent agent.json --wip 12,3,40,7
//! miras-cli gen-trace --ensemble msd --workload diurnal --windows 40 --out t.jsonl
//! miras-cli simulate --ensemble msd --trace t.jsonl --windows 40
//! ```

use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

use miras::flags::{burst_from, ensemble_from, list, numeric, parse_flags, Flags};
use miras::miras_core::{decode_policy_line, read_policy_line, save_policy};
use miras::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let mut stdout = std::io::stdout().lock();
    let result = match COMMANDS.iter().find(|(name, ..)| name == command) {
        Some((_, accepted, run)) => {
            parse_flags(&format!("'{command}'"), accepted, rest).and_then(|f| run(&f, &mut stdout))
        }
        None if command == "--help" || command == "-h" => {
            writeln!(stdout, "{USAGE}").map_err(|e| e.to_string())
        }
        None => Err(format!("unknown command '{command}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage: miras-cli <command> [flags]

commands:
  simulate  --ensemble msd|ligo|gpu-serve [--policy NAME] [--burst N,N,..]
            [--trace FILE] [--windows N] [--seed N]
            (NAME is any registry policy: uniform, wip-proportional,
             stream/drs, heft, monad)
  train     --ensemble msd|ligo|gpu-serve [--iterations N] [--paper] [--smoke]
            [--seed N] [--out FILE] [--lanes B]
            (--lanes B steps B synthetic rollouts in lockstep)
  evaluate  --agent FILE [--ensemble msd|ligo|gpu-serve] [--burst N,N,..]
            [--trace FILE] [--windows N] [--seed N]
  allocate  --agent FILE --wip X,X,..
  gen-trace --ensemble msd|ligo|gpu-serve --out FILE [--workload SHAPE]
            [--windows N] [--seed N]
            (SHAPE: stationary, diurnal, trending or flash-crowd; the
             trace is JSONL, the layout --trace reads)";

/// A subcommand: its flags in, its report written to `stdout`.
type Command = fn(&Flags, &mut dyn Write) -> Result<(), String>;

/// Every subcommand with the flags it reads, space-separated; any other
/// flag is an error, so a misspelt one cannot be silently ignored.
const COMMANDS: &[(&str, &str, Command)] = &[
    (
        "simulate",
        "ensemble policy burst trace windows seed",
        simulate,
    ),
    (
        "train",
        "ensemble iterations paper smoke seed out lanes",
        train,
    ),
    (
        "evaluate",
        "agent ensemble burst trace windows seed",
        evaluate,
    ),
    ("allocate", "agent wip", allocate),
    ("gen-trace", "ensemble out workload windows seed", gen_trace),
];

/// Runs an allocation policy against the emulator, printing one row per
/// decision window.
fn run_policy(
    ensemble: Ensemble,
    seed: u64,
    burst: Option<BurstSpec>,
    trace_path: Option<&str>,
    windows: usize,
    policy: &mut dyn Policy,
    stdout: &mut dyn Write,
) -> Result<(), String> {
    let mut config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
    if let Some(path) = trace_path {
        if path.is_empty() {
            return Err("--trace needs a file name".to_string());
        }
        // The trace is the whole workload: no background is sampled.
        config.workload = WorkloadSpec::TraceReplay {
            path: path.to_string(),
        };
    }
    let mut env = MicroserviceEnv::new(ensemble, config);
    let _ = env.reset();
    if let Some(burst) = burst {
        env.inject_burst(&burst);
    }
    if let Some(path) = trace_path {
        let replayed = env
            .load_workload_trace()
            .map_err(|e| format!("loading {path}: {e}"))?;
        writeln!(stdout, "replaying {replayed} arrivals from {path}").map_err(|e| e.to_string())?;
    }
    writeln!(
        stdout,
        "{:>6} {:>10} {:>9} {:>13} {:>12} {:>24}",
        "window", "total_wip", "reward", "completions", "resp_secs", "allocation"
    )
    .map_err(|e| e.to_string())?;
    let mut previous: Option<WindowMetrics> = None;
    let mut total_reward = 0.0;
    let mut total_completions = 0usize;
    for w in 0..windows {
        let wip = env.state();
        let decision = policy.decide(&Observation::new(&wip, previous.as_ref(), w));
        let m = decision.allocations;
        let out = env.step(&m);
        total_reward += out.reward;
        let completions: usize = out.metrics.completions.iter().sum();
        total_completions += completions;
        let resp = out
            .metrics
            .overall_mean_response_secs()
            .map_or("-".to_string(), |r| format!("{r:.1}"));
        writeln!(
            stdout,
            "{:>6} {:>10} {:>9.0} {:>13} {:>12} {:>24}",
            w,
            out.metrics.total_wip(),
            out.reward,
            completions,
            resp,
            format!("{m:?}")
        )
        .map_err(|e| e.to_string())?;
        previous = Some(out.metrics);
    }
    writeln!(
        stdout,
        "\ntotal reward {total_reward:.0}, total completions {total_completions}"
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

fn simulate(flags: &Flags, stdout: &mut dyn Write) -> Result<(), String> {
    let ensemble = ensemble_from(flags)?;
    let seed = numeric(flags, "seed", 42u64)?;
    let windows = numeric(flags, "windows", 25usize)?;
    let burst = burst_from(flags, &ensemble)?;
    let policy_name = flags
        .get("policy")
        .cloned()
        .unwrap_or_else(|| "drs".to_string());
    let mut policy = miras::baselines::by_name(&policy_name, &PolicyConfig::new(&ensemble))
        .map_err(|e| e.to_string())?;
    writeln!(
        stdout,
        "simulating {} under '{}' (seed {seed}, {windows} windows)",
        ensemble.name(),
        policy.name()
    )
    .map_err(|e| e.to_string())?;
    let trace = flags.get("trace").map(String::as_str);
    run_policy(
        ensemble,
        seed,
        burst,
        trace,
        windows,
        policy.as_mut(),
        stdout,
    )
}

fn train(flags: &Flags, stdout: &mut dyn Write) -> Result<(), String> {
    let ensemble = ensemble_from(flags)?;
    let seed = numeric(flags, "seed", 42u64)?;
    let iterations = numeric(flags, "iterations", 12usize)?;
    let paper = flags.contains_key("paper");
    let smoke = flags.contains_key("smoke");
    if paper && smoke {
        return Err("--paper and --smoke are mutually exclusive".to_string());
    }
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("miras_agent_{}.json", ensemble.name().to_lowercase()));

    let mut config = if smoke {
        MirasConfig::smoke_test(seed)
    } else {
        match (ensemble.name(), paper) {
            ("MSD", false) => MirasConfig::msd_fast(seed),
            ("MSD", true) => MirasConfig::msd_paper(seed),
            ("LIGO", false) => MirasConfig::ligo_fast(seed),
            ("LIGO", true) => MirasConfig::ligo_paper(seed),
            ("GPU-SERVE", false) => MirasConfig::gpu_serve_fast(seed),
            ("GPU-SERVE", true) => MirasConfig::gpu_serve_paper(seed),
            _ => MirasConfig::msd_fast(seed),
        }
    };
    if flags.contains_key("lanes") {
        let lanes = numeric(flags, "lanes", 1usize)?;
        config = config.try_with_lockstep(lanes).map_err(|e| e.to_string())?;
    }
    writeln!(
        stdout,
        "rollout engine: inline, {} lane(s)",
        config.rollout_mode.lanes()
    )
    .map_err(|e| e.to_string())?;
    let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
    let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, env_config));
    let mut trainer = MirasTrainer::new(&env, config);
    writeln!(stdout, "training MIRAS for {iterations} iterations…").map_err(|e| e.to_string())?;
    for _ in 0..iterations {
        let r = trainer.run_iteration(&mut env);
        writeln!(
            stdout,
            "iteration {:>2}: model_loss {:.4}, eval_return {:>10.1}, dataset {}",
            r.iteration, r.model_loss, r.eval_return, r.dataset_size
        )
        .map_err(|e| e.to_string())?;
    }
    save_policy(Path::new(&out), &trainer.agent(), iterations as u64)
        .map_err(|e| format!("writing {out}: {e}"))?;
    writeln!(stdout, "agent saved to {out}").map_err(|e| e.to_string())?;
    Ok(())
}

/// The policy in `--agent FILE`: a saved agent, a policy line or a
/// training checkpoint (of which only the first line is read), checked to
/// be able to decide before it is used.
fn load_agent(flags: &Flags) -> Result<MirasAgent, String> {
    let path = flags.get("agent").ok_or("--agent FILE is required")?;
    let line = File::open(path)
        .and_then(|file| read_policy_line(&file))
        .map_err(|e| format!("reading {path}: {e}"))?;
    decode_policy_line(&line)
        .map(|(agent, _)| agent)
        .map_err(|e| format!("loading {path}: {e}"))
}

fn evaluate(flags: &Flags, stdout: &mut dyn Write) -> Result<(), String> {
    let mut agent = load_agent(flags)?;
    let ensemble = ensemble_from(flags)?;
    if agent.num_task_types() != ensemble.num_task_types() {
        return Err(format!(
            "agent controls {} task types but {} has {}",
            agent.num_task_types(),
            ensemble.name(),
            ensemble.num_task_types()
        ));
    }
    let seed = numeric(flags, "seed", 42u64)?;
    let windows = numeric(flags, "windows", 25usize)?;
    let burst = burst_from(flags, &ensemble)?;
    writeln!(
        stdout,
        "evaluating saved agent on {} (seed {seed}, {windows} windows)",
        ensemble.name()
    )
    .map_err(|e| e.to_string())?;
    let trace = flags.get("trace").map(String::as_str);
    run_policy(ensemble, seed, burst, trace, windows, &mut agent, stdout)
}

/// Writes the background arrivals an environment over `--ensemble` and
/// `--workload` samples in its first `--windows` windows at `--seed`: the
/// trace a `record_trace` of that run would capture.
fn gen_trace(flags: &Flags, stdout: &mut dyn Write) -> Result<(), String> {
    let ensemble = ensemble_from(flags)?;
    let seed = numeric(flags, "seed", 42u64)?;
    let windows = numeric(flags, "windows", 120usize)?;
    let out = flags.get("out").ok_or("--out FILE is required")?;
    let name = flags.get("workload").map_or("stationary", String::as_str);
    let workload = match WorkloadSpec::parse(name) {
        Some(WorkloadSpec::TraceReplay { .. }) => {
            return Err("gen-trace samples a workload shape; a trace has nothing to sample".into())
        }
        Some(spec) => spec,
        None => return Err(format!("unknown workload '{name}'")),
    };
    let config = EnvConfig {
        workload,
        ..EnvConfig::for_ensemble(&ensemble).with_seed(seed)
    };
    let trace = background_trace(&config, windows);
    trace
        .save_jsonl(out)
        .map_err(|e| format!("writing {out}: {e}"))?;
    writeln!(
        stdout,
        "wrote {} {name} arrivals over {windows} windows to {out} (counts per type: {:?})",
        trace.len(),
        trace.counts(ensemble.num_workflow_types())
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

fn allocate(flags: &Flags, stdout: &mut dyn Write) -> Result<(), String> {
    let agent = load_agent(flags)?;
    let wip: Vec<f64> = list(flags, "wip")?.ok_or("--wip X,X,.. is required")?;
    if wip.len() != agent.num_task_types() {
        return Err(format!(
            "agent expects {} WIP values, got {}",
            agent.num_task_types(),
            wip.len()
        ));
    }
    let dist = agent.distribution(&wip);
    let m = agent.allocate(&wip);
    writeln!(stdout, "distribution: {dist:?}").map_err(|e| e.to_string())?;
    writeln!(
        stdout,
        "allocation:   {m:?} (total {}, budget {})",
        m.iter().sum::<usize>(),
        agent.consumer_budget()
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}
