//! `miras-cli` — drive the MIRAS reproduction from the command line.
//!
//! Subcommands:
//!
//! * `simulate` — run a baseline allocator against the emulated cluster and
//!   print per-window metrics,
//! * `train`    — run the MIRAS training loop and save the agent as JSON,
//! * `evaluate` — replay a saved agent against a workload,
//! * `allocate` — one-shot: WIP vector in, consumer allocation out.
//!
//! Examples:
//!
//! ```text
//! miras-cli simulate --ensemble msd --policy drs --burst 300,200,300 --windows 25
//! miras-cli train --ensemble msd --iterations 12 --out agent.json
//! miras-cli evaluate --agent agent.json --burst 500,500,500 --windows 25
//! miras-cli allocate --agent agent.json --wip 12,3,40,7
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use miras::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match COMMANDS.iter().find(|(name, ..)| name == command) {
        Some((_, accepted, run)) => parse_flags(command, accepted, rest).and_then(|f| run(&f)),
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
  gen-trace --ensemble msd|ligo|gpu-serve --out FILE [--horizon SECS] [--seed N]
            [--pattern constant|sine|ramp|step] [--period SECS]
            [--amplitude X] [--factor X] [--at SECS]";

type Flags = HashMap<String, String>;

type Command = fn(&Flags) -> Result<(), String>;

/// Every subcommand with the flags it reads; any other flag is an error,
/// so a misspelt one cannot be silently ignored.
const COMMANDS: &[(&str, &[&str], Command)] = &[
    (
        "simulate",
        &["ensemble", "policy", "burst", "trace", "windows", "seed"],
        simulate,
    ),
    (
        "train",
        &[
            "ensemble",
            "iterations",
            "paper",
            "smoke",
            "seed",
            "out",
            "lanes",
        ],
        train,
    ),
    (
        "evaluate",
        &["agent", "ensemble", "burst", "trace", "windows", "seed"],
        evaluate,
    ),
    ("allocate", &["agent", "wip"], allocate),
    (
        "gen-trace",
        &[
            "ensemble",
            "out",
            "horizon",
            "seed",
            "pattern",
            "period",
            "amplitude",
            "factor",
            "at",
        ],
        gen_trace,
    ),
];

fn parse_flags(command: &str, accepted: &[&str], args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, found '{flag}'"));
        };
        if !accepted.contains(&name) {
            return Err(format!("'{command}' does not take --{name}"));
        }
        if name == "paper" || name == "smoke" {
            flags.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn ensemble_from(flags: &Flags) -> Result<Ensemble, String> {
    match flags.get("ensemble").map(String::as_str) {
        Some("msd") | None => Ok(Ensemble::msd()),
        Some("ligo") => Ok(Ensemble::ligo()),
        Some("gpu-serve") => Ok(Ensemble::gpu_serve()),
        Some(other) => Err(format!(
            "unknown ensemble '{other}' (msd, ligo, or gpu-serve)"
        )),
    }
}

fn numeric<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} expects a number, got '{v}'")),
    }
}

fn list(flags: &Flags, name: &str) -> Result<Option<Vec<usize>>, String> {
    match flags.get(name) {
        None => Ok(None),
        Some(v) => v
            .split(',')
            .map(|part| {
                part.trim()
                    .parse()
                    .map_err(|_| format!("--{name} expects comma-separated integers"))
            })
            .collect::<Result<Vec<usize>, String>>()
            .map(Some),
    }
}

fn float_list(flags: &Flags, name: &str) -> Result<Option<Vec<f64>>, String> {
    match flags.get(name) {
        None => Ok(None),
        Some(v) => v
            .split(',')
            .map(|part| {
                part.trim()
                    .parse()
                    .map_err(|_| format!("--{name} expects comma-separated numbers"))
            })
            .collect::<Result<Vec<f64>, String>>()
            .map(Some),
    }
}

/// Runs an allocation policy against the emulator, printing one row per
/// decision window.
fn run_policy(
    ensemble: Ensemble,
    seed: u64,
    burst: Option<Vec<usize>>,
    trace_path: Option<&str>,
    windows: usize,
    policy: &mut dyn Policy,
) -> Result<(), String> {
    let config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
    let mut env = MicroserviceEnv::new(ensemble, config);
    let _ = env.reset();
    if let Some(counts) = burst {
        if counts.len() != env.num_workflow_types() {
            return Err(format!(
                "--burst needs {} comma-separated counts",
                env.num_workflow_types()
            ));
        }
        env.inject_burst(&BurstSpec::new(counts));
    }
    if let Some(path) = trace_path {
        let trace = ArrivalTrace::load_json(path).map_err(|e| format!("loading {path}: {e}"))?;
        println!("replaying {} arrivals from {path}", trace.len());
        env.inject_trace(&trace);
    }
    println!(
        "{:>6} {:>10} {:>9} {:>13} {:>12} {:>24}",
        "window", "total_wip", "reward", "completions", "resp_secs", "allocation"
    );
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
        println!(
            "{:>6} {:>10} {:>9.0} {:>13} {:>12} {:>24}",
            w,
            out.metrics.total_wip(),
            out.reward,
            completions,
            resp,
            format!("{m:?}")
        );
        previous = Some(out.metrics);
    }
    println!("\ntotal reward {total_reward:.0}, total completions {total_completions}");
    Ok(())
}

fn simulate(flags: &Flags) -> Result<(), String> {
    let ensemble = ensemble_from(flags)?;
    let seed = numeric(flags, "seed", 42u64)?;
    let windows = numeric(flags, "windows", 25usize)?;
    let burst = list(flags, "burst")?;
    let policy_name = flags
        .get("policy")
        .cloned()
        .unwrap_or_else(|| "drs".to_string());
    let mut policy = miras::baselines::by_name(&policy_name, &PolicyConfig::new(&ensemble))
        .map_err(|e| e.to_string())?;
    println!(
        "simulating {} under '{}' (seed {seed}, {windows} windows)",
        ensemble.name(),
        policy.name()
    );
    let trace = flags.get("trace").map(String::as_str);
    run_policy(ensemble, seed, burst, trace, windows, policy.as_mut())
}

fn train(flags: &Flags) -> Result<(), String> {
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
    println!(
        "rollout engine: inline, {} lane(s)",
        config.rollout_mode.lanes()
    );
    let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
    let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, env_config));
    let mut trainer = MirasTrainer::new(&env, config);
    println!("training MIRAS for {iterations} iterations…");
    for _ in 0..iterations {
        let r = trainer.run_iteration(&mut env);
        println!(
            "iteration {:>2}: model_loss {:.4}, eval_return {:>10.1}, dataset {}",
            r.iteration, r.model_loss, r.eval_return, r.dataset_size
        );
    }
    let agent = trainer.agent();
    let json = serde_json::to_string(&agent).map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| format!("writing {out}: {e}"))?;
    println!("agent saved to {out}");
    Ok(())
}

/// The policy in `--agent FILE`: a saved agent, a policy line or a
/// training checkpoint (of which only the first line is read), checked to
/// be able to decide before it is used.
fn load_agent(flags: &Flags) -> Result<MirasAgent, String> {
    let path = flags.get("agent").ok_or("--agent FILE is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let line = text.lines().next().unwrap_or_default();
    miras::miras_core::decode_policy_line(line)
        .map(|(agent, _)| agent)
        .map_err(|e| format!("loading {path}: {e}"))
}

fn evaluate(flags: &Flags) -> Result<(), String> {
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
    let burst = list(flags, "burst")?;
    println!(
        "evaluating saved agent on {} (seed {seed}, {windows} windows)",
        ensemble.name()
    );
    let trace = flags.get("trace").map(String::as_str);
    run_policy(ensemble, seed, burst, trace, windows, &mut agent)
}

fn gen_trace(flags: &Flags) -> Result<(), String> {
    use miras::workflow::{ModulatedPoisson, RatePattern};
    use rand::SeedableRng;
    let ensemble = ensemble_from(flags)?;
    let seed = numeric(flags, "seed", 42u64)?;
    let horizon_secs = numeric(flags, "horizon", 3_600u64)?;
    let out = flags.get("out").ok_or("--out FILE is required")?;
    let pattern = match flags.get("pattern").map(String::as_str) {
        Some("constant") | None => RatePattern::Constant,
        Some("sine") => RatePattern::Sine {
            period: SimTime::from_secs(numeric(flags, "period", 1_200u64)?),
            amplitude: numeric(flags, "amplitude", 0.5f64)?,
        },
        Some("ramp") => RatePattern::Ramp {
            from_factor: 1.0,
            to_factor: numeric(flags, "factor", 2.0f64)?,
            duration: SimTime::from_secs(horizon_secs),
        },
        Some("step") => RatePattern::Step {
            at: SimTime::from_secs(numeric(flags, "at", horizon_secs / 2)?),
            factor: numeric(flags, "factor", 2.0f64)?,
        },
        Some(other) => return Err(format!("unknown pattern '{other}'")),
    };
    let process = ModulatedPoisson::new(ensemble.default_arrival_rates().to_vec(), pattern);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let trace = process.generate(SimTime::from_secs(horizon_secs), &mut rng);
    trace
        .save_json(out)
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {} arrivals over {horizon_secs}s to {out} (counts per type: {:?})",
        trace.len(),
        trace.counts(ensemble.num_workflow_types())
    );
    Ok(())
}

fn allocate(flags: &Flags) -> Result<(), String> {
    let agent = load_agent(flags)?;
    let wip = float_list(flags, "wip")?.ok_or("--wip X,X,.. is required")?;
    if wip.len() != agent.num_task_types() {
        return Err(format!(
            "agent expects {} WIP values, got {}",
            agent.num_task_types(),
            wip.len()
        ));
    }
    let dist = agent.distribution(&wip);
    let m = agent.allocate(&wip);
    println!("distribution: {dist:?}");
    println!(
        "allocation:   {m:?} (total {}, budget {})",
        m.iter().sum::<usize>(),
        agent.consumer_budget()
    );
    Ok(())
}
