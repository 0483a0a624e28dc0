//! Shared harness code for the figure-reproduction binaries.
//!
//! Every figure in the MIRAS paper's evaluation has a binary in
//! `src/bin/` (see `DESIGN.md` §5 for the index); this library holds the
//! pieces they share: command-line parsing through `miras::flags`,
//! ensemble selection, the evaluation grid that runs registry-built
//! [`Policy`] episodes ([`run_episode`]) against the emulated cluster,
//! MIRAS training with on-disk caching of the trained agent, and
//! plain-text table output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use baselines::{by_name, run_episode, Policy, PolicyConfig};
use desim::SimTime;
use microsim::{EnvConfig, MicroserviceEnv, SimConfig, WorkloadSpec};
use miras::flags::{ensemble_choice, numeric, parse_flags, usage, workload_from, Flags, ENSEMBLES};
use miras_core::{
    decode_policy_line, read_policy_line, save_policy, ClusterEnvAdapter, IterationReport,
    MirasAgent, MirasConfig, MirasTrainer, Transition,
};
use rand::Rng;
use rl::policy::project_to_simplex;
use rl::Environment;
use serde::{Deserialize, Serialize};
use telemetry::{BufferedRecorder, JsonlSink, Telemetry, Value};
use workflow::{BurstSpec, Ensemble};

/// The worker-thread budget for the scenario × algorithm evaluation grid:
/// `MIRAS_GRID_THREADS` when set to a positive integer, otherwise the `nn`
/// kernel thread budget. The variable is re-read on every call (unlike
/// `NN_NUM_THREADS`, which is latched once per process) so in-process tests
/// can compare single- and multi-worker runs.
#[must_use]
pub fn grid_threads() -> usize {
    match std::env::var("MIRAS_GRID_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => nn::threads::effective_threads(),
    }
}

/// Runs independent evaluation-grid cells on up to [`grid_threads`] worker
/// threads, returning their results **in cell order** regardless of how the
/// cells were scheduled. Cells are statically partitioned into contiguous
/// chunks, one per worker; each cell runs under
/// [`nn::threads::with_serial`] when more than one worker is live, so grid
/// workers do not also fan out kernel threads and oversubscribe the machine.
///
/// Cells must be independent: they may not share mutable state or consume a
/// common RNG stream, which is what makes the outputs identical for every
/// worker count.
pub fn run_grid<T, F>(tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    let workers = grid_threads().min(n).max(1);
    if workers <= 1 {
        return tasks.into_iter().map(|f| f()).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut slots: Vec<Option<F>> = tasks.into_iter().map(Some).collect();
    let mut results: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        for (task_chunk, result_chunk) in slots.chunks_mut(chunk).zip(results.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (task, result) in task_chunk.iter_mut().zip(result_chunk.iter_mut()) {
                    if let Some(f) = task.take() {
                        *result = Some(nn::threads::with_serial(f));
                    }
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every grid cell ran"))
        .collect()
}

/// Which workload ensemble to run: the paper's two scientific ensembles
/// plus the GPU inference-serving ensemble. Declared in the order of
/// [`miras::flags::ENSEMBLES`], whose entry gives each kind its name and
/// ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnsembleKind {
    /// Material Science Data: 3 workflows, 4 task types, C = 14.
    Msd,
    /// LIGO inspiral analysis: 4 workflows, 9 task types, C = 30.
    Ligo,
    /// GPU inference serving (KIS-S style): 3 request classes, 6 task
    /// types, C = 24.
    GpuServe,
}

impl EnsembleKind {
    /// Every kind, in [`ENSEMBLES`] order.
    const ALL: [EnsembleKind; 3] = [
        EnsembleKind::Msd,
        EnsembleKind::Ligo,
        EnsembleKind::GpuServe,
    ];

    /// Builds the ensemble definition.
    #[must_use]
    pub fn ensemble(self) -> Ensemble {
        let (_, build, ..) = ENSEMBLES[self as usize];
        build()
    }

    /// The `--ensemble` name, also used in output and cache paths.
    #[must_use]
    pub fn name(self) -> &'static str {
        ENSEMBLES[self as usize].0
    }

    /// The MIRAS configuration: paper-scale when `paper` is set, otherwise
    /// the proportionally scaled-down fast variant.
    #[must_use]
    pub fn miras_config(self, seed: u64, paper: bool) -> MirasConfig {
        let (_, _, fast, full) = ENSEMBLES[self as usize];
        if paper {
            full(seed)
        } else {
            fast(seed)
        }
    }

    /// The three burst scenarios for this ensemble (§VI-D for the paper's
    /// ensembles; sized analogously for GPU serving).
    #[must_use]
    pub fn burst_scenarios(self) -> Vec<BurstSpec> {
        match self {
            EnsembleKind::Msd => vec![
                BurstSpec::new(vec![300, 200, 300]),
                BurstSpec::new(vec![1000, 300, 400]),
                BurstSpec::new(vec![500, 500, 500]),
            ],
            EnsembleKind::Ligo => vec![
                BurstSpec::new(vec![100, 100, 50, 30]),
                BurstSpec::new(vec![150, 150, 80, 50]),
                BurstSpec::new(vec![80, 80, 80, 80]),
            ],
            EnsembleKind::GpuServe => vec![
                BurstSpec::new(vec![200, 80, 20]),
                BurstSpec::new(vec![400, 120, 40]),
                BurstSpec::new(vec![150, 150, 60]),
            ],
        }
    }

    /// Evaluation horizon (decision windows) used by the comparison figures.
    #[must_use]
    pub fn comparison_steps(self) -> usize {
        match self {
            EnsembleKind::Msd => 25,
            EnsembleKind::Ligo => 40,
            EnsembleKind::GpuServe => 25,
        }
    }
}

/// Command-line arguments shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Which ensemble(s) to run; `None` means both.
    pub ensemble: Option<EnsembleKind>,
    /// Master seed.
    pub seed: u64,
    /// Run at the paper's full scale instead of the fast scale.
    pub paper: bool,
    /// Override the number of outer iterations (training traces).
    pub iterations: Option<usize>,
    /// Ignore any cached trained agent.
    pub no_cache: bool,
    /// Evaluate in the steady-state (burst-free) regime where applicable
    /// (used by the sample-efficiency ablation).
    pub steady: bool,
    /// Shrink every budget to a seconds-scale run (used by CI to validate
    /// the pipeline and the telemetry stream, not the scientific results).
    pub smoke: bool,
    /// Background-traffic shape applied to *evaluation* environments
    /// (training always sees the stationary background the paper assumes).
    /// Defaults to [`WorkloadSpec::Stationary`], which is bit-identical to
    /// not setting a workload at all.
    pub workload: WorkloadSpec,
}

impl BenchArgs {
    /// Parses the command line of a bench binary that reads exactly the
    /// `accepted` flags; on an unread, misspelt or malformed flag it prints
    /// `error: …` and exits with status 1, before anything runs.
    #[must_use]
    pub fn parse(accepted: &str) -> Self {
        match command_line(accepted).and_then(|flags| Self::from_flags(&flags)) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    /// The arguments `flags` set, one field per flag of the same name;
    /// absent flags keep their defaults (seed 42).
    ///
    /// # Errors
    ///
    /// A message naming a flag whose value does not parse, or refusing
    /// `--paper` with `--smoke`.
    pub fn from_flags(flags: &Flags) -> Result<Self, String> {
        if flags.contains_key("paper") && flags.contains_key("smoke") {
            return Err("--paper and --smoke are mutually exclusive".to_string());
        }
        Ok(BenchArgs {
            ensemble: ensemble_choice(flags)?.map(|i| EnsembleKind::ALL[i]),
            seed: numeric(flags, "seed", 42)?,
            paper: flags.contains_key("paper"),
            iterations: flags
                .contains_key("iterations")
                .then(|| numeric(flags, "iterations", 0))
                .transpose()?,
            no_cache: flags.contains_key("no-cache"),
            steady: flags.contains_key("steady"),
            smoke: flags.contains_key("smoke"),
            workload: workload_from(flags)?,
        })
    }

    /// The budget scale these arguments run: `smoke`, `paper` or `fast`,
    /// for banners and cache paths.
    #[must_use]
    pub fn scale(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else if self.paper {
            "paper"
        } else {
            "fast"
        }
    }

    /// The ensembles selected (both when unspecified).
    #[must_use]
    pub fn ensembles(&self) -> Vec<EnsembleKind> {
        match self.ensemble {
            Some(k) => vec![k],
            None => vec![EnsembleKind::Msd, EnsembleKind::Ligo],
        }
    }

    /// The number of outer training iterations: the explicit `--iterations`
    /// value if given, otherwise 2 under `--smoke` and the figures'
    /// default of 12.
    #[must_use]
    pub fn resolved_iterations(&self) -> usize {
        self.iterations.unwrap_or(if self.smoke { 2 } else { 12 })
    }

    /// The MIRAS configuration these arguments select for `kind`:
    /// [`MirasConfig::smoke_test`] under `--smoke`, otherwise the
    /// paper-scale or fast-scale variant per `--paper`.
    #[must_use]
    pub fn miras_config(&self, kind: EnsembleKind) -> MirasConfig {
        if self.smoke {
            MirasConfig::smoke_test(self.seed)
        } else {
            kind.miras_config(self.seed, self.paper)
        }
    }

    /// The evaluation horizon for the comparison figures: 6 windows under
    /// `--smoke`, otherwise the ensemble's paper horizon.
    #[must_use]
    pub(crate) fn comparison_steps(&self, kind: EnsembleKind) -> usize {
        if self.smoke {
            6
        } else {
            kind.comparison_steps()
        }
    }
}

/// The process's command line, parsed by [`parse_flags`] against the
/// `accepted` flags; errors name the program as it was invoked.
///
/// # Errors
///
/// The flag error, followed by the program's usage line.
pub fn command_line(accepted: &str) -> Result<Flags, String> {
    let args: Vec<String> = std::env::args().collect();
    let program = args
        .first()
        .and_then(|p| Path::new(p).file_stem()?.to_str());
    let who = program.unwrap_or("bench");
    let flags = args.get(1..).unwrap_or_default();
    parse_flags(who, accepted, flags).map_err(|e| format!("{e}\n{}", usage(who, accepted)))
}

/// Opens the standard telemetry stream for a figure binary: a buffered
/// [`JsonlSink`] at `results/<bin_name>.jsonl` (the directory is created;
/// an existing file is truncated). Call [`Telemetry::flush`] before exiting
/// to emit the aggregate counter/gauge/histogram summary rows.
///
/// If the file cannot be created (e.g. a read-only working directory) the
/// stream falls back to an in-memory buffer with a warning, so the figure
/// still runs.
#[must_use]
pub fn init_telemetry(bin_name: &str) -> (Telemetry, Arc<JsonlSink>) {
    let path = PathBuf::from("results").join(format!("{bin_name}.jsonl"));
    let sink = match JsonlSink::create(&path) {
        Ok(sink) => {
            eprintln!("[telemetry] writing {}", path.display());
            sink
        }
        Err(e) => {
            eprintln!(
                "[telemetry] cannot write {}: {e}; buffering in memory",
                path.display()
            );
            JsonlSink::in_memory()
        }
    };
    // Losses span orders of magnitude above the default (seconds-oriented)
    // bucket bounds; give them their own decades.
    sink.set_buckets(
        "ddpg.critic_loss",
        &[1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6],
    );
    (Telemetry::new(sink.clone()), sink)
}

/// One evaluated decision window of an allocator run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// Window index within the run.
    pub step: usize,
    /// Total WIP at the window's end.
    pub total_wip: usize,
    /// Reward `1 − Σ w`.
    pub reward: f64,
    /// Mean response time (seconds) of workflows completing in this window.
    pub response_secs: Option<f64>,
    /// Workflow completions in this window (all types).
    pub completions: usize,
    /// Total consumers the allocator requested.
    pub consumers_used: usize,
}

/// Summary statistics over a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Policy name.
    pub algorithm: String,
    /// Mean response time over windows that had completions.
    pub mean_response_secs: f64,
    /// Response time averaged over the last quarter of the run (the
    /// "long-term" behaviour the paper emphasises).
    pub tail_response_secs: f64,
    /// Total workflow completions.
    pub total_completions: usize,
    /// Aggregated reward.
    pub total_reward: f64,
    /// Final-window total WIP.
    pub final_wip: usize,
}

/// Runs `policy` against a fresh environment built from `config` for
/// `steps` windows through [`run_episode`]: `burst` is injected at the
/// start, then a trace-replay workload's trace; any other workload is
/// sampled window by window. Returns the per-window records. The
/// configuration lets callers inject faults (consumer crashes, node
/// outages, stragglers, delivery-delay spikes) or otherwise reshape the
/// cluster, as the resilience benchmark does.
///
/// The environment is wired to `telemetry`, so each window emits a `window`
/// event at source (see `microsim`); the run itself is announced with one
/// `bench.run` event naming the algorithm, which lets stream consumers
/// attribute the window records that follow. Each decision's latency is
/// observed under `bench.decision_latency`.
///
/// # Panics
///
/// If a trace-replay workload's trace file does not load.
pub fn run_allocator_configured(
    kind: EnsembleKind,
    config: EnvConfig,
    burst: Option<&BurstSpec>,
    steps: usize,
    policy: &mut dyn Policy,
    telemetry: &Telemetry,
) -> Vec<StepRecord> {
    let seed = config.sim.seed;
    let mut env = MicroserviceEnv::new(kind.ensemble(), config);
    env.set_telemetry(telemetry.clone());
    telemetry.event(
        "bench.run",
        &[
            ("ensemble", Value::String(kind.name().to_string())),
            ("algorithm", Value::String(policy.name().to_string())),
            ("steps", Value::UInt(steps as u64)),
            ("seed", Value::UInt(seed)),
        ],
    );
    let mut records = Vec::with_capacity(steps);
    let replayed = run_episode(&mut env, burst, steps, policy, |obs, decision, out| {
        telemetry.observe("bench.decision_latency", decision.latency.as_secs_f64());
        records.push(StepRecord {
            step: obs.window_index,
            total_wip: out.metrics.total_wip(),
            reward: out.reward,
            response_secs: out.metrics.overall_mean_response_secs(),
            completions: out.metrics.completions.iter().sum(),
            consumers_used: decision.allocations.iter().sum(),
        });
    })
    .expect("workload trace file loads");
    if replayed > 0 {
        eprintln!("[workload] replayed {replayed} trace arrivals");
    }
    records
}

/// Summarises a run's records.
#[must_use]
pub fn summarize(algorithm: &str, records: &[StepRecord]) -> RunSummary {
    let responses: Vec<f64> = records.iter().filter_map(|r| r.response_secs).collect();
    let mean = if responses.is_empty() {
        0.0
    } else {
        responses.iter().sum::<f64>() / responses.len() as f64
    };
    let tail_start = records.len() - records.len() / 4;
    let tail: Vec<f64> = records[tail_start..]
        .iter()
        .filter_map(|r| r.response_secs)
        .collect();
    let tail_mean = if tail.is_empty() {
        0.0
    } else {
        tail.iter().sum::<f64>() / tail.len() as f64
    };
    RunSummary {
        algorithm: algorithm.to_string(),
        mean_response_secs: mean,
        tail_response_secs: tail_mean,
        total_completions: records.iter().map(|r| r.completions).sum(),
        total_reward: records.iter().map(|r| r.reward).sum(),
        final_wip: records.last().map_or(0, |r| r.total_wip),
    }
}

/// Trains a MIRAS agent per `args` (scale, seed, iteration count — see
/// [`BenchArgs::miras_config`] and [`BenchArgs::resolved_iterations`]),
/// returning the per-iteration reports and the final agent. When
/// `read_cache` is set and a previously trained agent exists under
/// `bench_artifacts/`, training is skipped and the reports come back empty;
/// the trained agent is persisted for later binaries whenever `write_cache`
/// is set. `--smoke` runs never touch the cache (their budgets are not
/// comparable). Training is wired to `telemetry`: the trainer emits one
/// `iteration` event per Algorithm 2 iteration and the environment emits
/// `window` events for every real interaction.
pub fn train_miras(
    kind: EnsembleKind,
    args: &BenchArgs,
    read_cache: bool,
    write_cache: bool,
    telemetry: &Telemetry,
) -> (Vec<IterationReport>, MirasAgent) {
    let iterations = args.resolved_iterations();
    let cache = cache_path(kind, args, iterations);
    if read_cache && !args.smoke {
        if let Some(agent) = load_cached_agent(&cache) {
            eprintln!("[cache] reusing trained agent from {}", cache.display());
            return (Vec::new(), agent);
        }
    }
    let ensemble = kind.ensemble();
    let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(args.seed);
    let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, env_config));
    env.set_telemetry(telemetry.clone());
    let config = args.miras_config(kind);
    let mut trainer = MirasTrainer::new(&env, config);
    trainer.set_telemetry(telemetry.clone());
    let mut reports = Vec::with_capacity(iterations);
    for i in 0..iterations {
        let report = trainer.run_iteration(&mut env);
        eprintln!(
            "[train {}] iter {:>2}: model_loss={:.4} eval_return={:>10.1} dataset={}",
            kind.name(),
            i,
            report.model_loss,
            report.eval_return,
            report.dataset_size
        );
        reports.push(report);
    }
    let agent = trainer.agent();
    if write_cache && !args.smoke {
        store_cached_agent(&cache, &agent, iterations);
    }
    (reports, agent)
}

/// Where a non-smoke run caches its trained agent.
fn cache_path(kind: EnsembleKind, args: &BenchArgs, iterations: usize) -> PathBuf {
    PathBuf::from("bench_artifacts").join(format!(
        "miras_agent_{}_{}_seed{}_it{iterations}.json",
        kind.name(),
        args.scale(),
        args.seed
    ))
}

/// The cached agent at `path`, if it is there and decodes to an agent that
/// can decide.
fn load_cached_agent(path: &Path) -> Option<MirasAgent> {
    let line = read_policy_line(&fs::File::open(path).ok()?).ok()?;
    decode_policy_line(&line).ok().map(|(agent, _)| agent)
}

/// Caches `agent`, trained for `iterations`, as a policy file.
fn store_cached_agent(path: &Path, agent: &MirasAgent, iterations: usize) {
    if let Some(dir) = path.parent() {
        let _ = fs::create_dir_all(dir);
    }
    if let Err(e) = save_policy(path, agent, iterations as u64) {
        eprintln!("[cache] could not write {}: {e}", path.display());
    }
}

/// Collects `steps` transitions from `env` under the paper's §VI-B data
/// policy: a uniformly random point of the action simplex, drawn from
/// `rng` and held for 4 steps. The environment is reset first and then
/// every `reset_every` steps (never again when 0).
pub fn collect_random_transitions(
    env: &mut ClusterEnvAdapter,
    steps: usize,
    reset_every: usize,
    rng: &mut impl Rng,
) -> Vec<Transition> {
    let j = env.state_dim();
    let _ = env.reset();
    let mut current = vec![1.0 / j as f64; j];
    for step in 0..steps {
        if reset_every > 0 && step > 0 && step % reset_every == 0 {
            let _ = env.reset();
        }
        if step % 4 == 0 {
            let raw: Vec<f64> = (0..j).map(|_| rng.gen_range(0.0..1.0)).collect();
            current = project_to_simplex(&raw);
        }
        let _ = env.step(&current);
    }
    env.take_transitions()
}

/// Prints per-step response-time series for several algorithms as an
/// aligned text table (one row per window, one column per algorithm).
pub(crate) fn print_response_table(title: &str, series: &[(String, Vec<StepRecord>)]) {
    println!("\n=== {title} ===");
    print!("{:>5}", "step");
    for (name, _) in series {
        print!("{name:>12}");
    }
    println!();
    let steps = series.iter().map(|(_, r)| r.len()).max().unwrap_or(0);
    for step in 0..steps {
        print!("{step:>5}");
        for (_, records) in series {
            match records.get(step).and_then(|r| r.response_secs) {
                Some(r) => print!("{r:>12.1}"),
                None => print!("{:>12}", "-"),
            }
        }
        println!();
    }
}

/// Prints run summaries as an aligned text table.
pub(crate) fn print_summaries(summaries: &[RunSummary]) {
    println!(
        "{:>12} {:>14} {:>14} {:>12} {:>14} {:>10}",
        "algorithm", "mean_resp(s)", "tail_resp(s)", "completions", "total_reward", "final_wip"
    );
    for s in summaries {
        println!(
            "{:>12} {:>14.1} {:>14.1} {:>12} {:>14.1} {:>10}",
            s.algorithm,
            s.mean_response_secs,
            s.tail_response_secs,
            s.total_completions,
            s.total_reward,
            s.final_wip
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> Flags {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    /// `--ensemble` reads the one name table, exactly: no case folding and
    /// no spelling aliases.
    #[test]
    fn ensemble_kind_round_trips() {
        for kind in EnsembleKind::ALL {
            let args = BenchArgs::from_flags(&flags(&[("ensemble", kind.name())])).unwrap();
            assert_eq!(args.ensemble, Some(kind));
        }
        assert_eq!(EnsembleKind::GpuServe.name(), "gpu-serve");
        assert_eq!(BenchArgs::from_flags(&Flags::new()).unwrap().ensemble, None);
        for name in ["MSD", "gpu_serve", "gpuserve", "bogus"] {
            let err = BenchArgs::from_flags(&flags(&[("ensemble", name)])).unwrap_err();
            assert!(err.contains(&format!("unknown ensemble '{name}'")), "{err}");
        }
    }

    #[test]
    fn gpu_serve_kind_is_wired_like_the_paper_ensembles() {
        let kind = EnsembleKind::GpuServe;
        assert_eq!(kind.name(), "gpu-serve");
        assert_eq!(kind.ensemble().num_workflow_types(), 3);
        assert_eq!(kind.burst_scenarios().len(), 3);
        for b in kind.burst_scenarios() {
            assert_eq!(b.counts().len(), 3);
        }
        let cfg = kind.miras_config(5, false);
        assert_eq!(cfg.collect_burst_max, Some(vec![300, 120, 40]));
    }

    #[test]
    fn burst_scenarios_match_paper() {
        let msd = EnsembleKind::Msd.burst_scenarios();
        assert_eq!(msd[0].counts(), &[300, 200, 300]);
        assert_eq!(msd[1].counts(), &[1000, 300, 400]);
        assert_eq!(msd[2].counts(), &[500, 500, 500]);
        let ligo = EnsembleKind::Ligo.burst_scenarios();
        assert_eq!(ligo[0].counts(), &[100, 100, 50, 30]);
        assert_eq!(ligo[1].counts(), &[150, 150, 80, 50]);
        assert_eq!(ligo[2].counts(), &[80, 80, 80, 80]);
    }

    #[test]
    fn run_allocator_produces_full_series() {
        let mut policy =
            by_name("uniform", &PolicyConfig::new(&EnsembleKind::Msd.ensemble())).unwrap();
        let records = run_allocator_configured(
            EnsembleKind::Msd,
            EnvConfig::for_ensemble(&EnsembleKind::Msd.ensemble()).with_seed(7),
            None,
            5,
            policy.as_mut(),
            &Telemetry::noop(),
        );
        assert_eq!(records.len(), 5);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.step, i);
            assert!(r.consumers_used <= 14);
        }
    }

    /// Burst first, then trace: replaying the background a stationary run
    /// samples, with the same burst on both runs, gives the same windows.
    /// Every driver runs this order through `run_episode`.
    #[test]
    fn a_background_trace_with_a_burst_replays_to_the_stationary_run() {
        let kind = EnsembleKind::Msd;
        let steps = 8;
        let stationary = EnvConfig::for_ensemble(&kind.ensemble()).with_seed(11);
        let path = std::env::temp_dir().join(format!(
            "miras_bench_trace_burst_{}.jsonl",
            std::process::id()
        ));
        microsim::background_trace(&stationary, steps)
            .save_jsonl(&path)
            .unwrap();
        let replay = EnvConfig {
            workload: WorkloadSpec::TraceReplay {
                path: path.display().to_string(),
            },
            ..stationary.clone()
        };
        let burst = &kind.burst_scenarios()[0];
        let run = |config| {
            let mut policy = by_name("stream", &PolicyConfig::new(&kind.ensemble())).unwrap();
            let noop = Telemetry::noop();
            run_allocator_configured(kind, config, Some(burst), steps, policy.as_mut(), &noop)
        };
        let plain = run(stationary);
        let replayed = run(replay);
        let _ = fs::remove_file(&path);
        assert!(plain.iter().any(|r| r.completions > 0));
        assert_eq!(replayed, plain);
    }

    #[test]
    fn smoke_args_shrink_budgets() {
        let mut args = BenchArgs {
            ensemble: None,
            seed: 1,
            paper: false,
            iterations: None,
            no_cache: false,
            steady: false,
            smoke: true,
            workload: WorkloadSpec::Stationary,
        };
        assert_eq!(args.resolved_iterations(), 2);
        assert_eq!(args.comparison_steps(EnsembleKind::Msd), 6);
        assert_eq!(
            args.miras_config(EnsembleKind::Msd),
            MirasConfig::smoke_test(1)
        );
        assert_eq!(args.scale(), "smoke");
        args.smoke = false;
        assert_eq!(args.resolved_iterations(), 12);
        assert_eq!(args.comparison_steps(EnsembleKind::Msd), 25);
        assert_eq!(args.scale(), "fast");
        args.paper = true;
        assert_eq!(args.scale(), "paper");
    }

    #[test]
    fn flags_set_the_args_and_malformed_values_are_refused() {
        let args = BenchArgs::from_flags(&flags(&[
            ("seed", "7"),
            ("iterations", "3"),
            ("no-cache", "true"),
            ("workload", "flash-crowd"),
        ]))
        .unwrap();
        assert_eq!((args.seed, args.iterations), (7, Some(3)));
        assert!(args.no_cache && !args.smoke && !args.paper && !args.steady);
        assert_eq!(args.workload.name(), "flash-crowd");
        for (flag, value) in [("seed", "x"), ("iterations", "-1"), ("workload", "sine")] {
            assert!(BenchArgs::from_flags(&flags(&[(flag, value)])).is_err());
        }
    }

    #[test]
    fn summary_aggregates_responses() {
        let records = vec![
            StepRecord {
                step: 0,
                total_wip: 10,
                reward: -9.0,
                response_secs: Some(20.0),
                completions: 2,
                consumers_used: 14,
            },
            StepRecord {
                step: 1,
                total_wip: 5,
                reward: -4.0,
                response_secs: None,
                completions: 0,
                consumers_used: 14,
            },
            StepRecord {
                step: 2,
                total_wip: 0,
                reward: 1.0,
                response_secs: Some(10.0),
                completions: 3,
                consumers_used: 14,
            },
        ];
        let s = summarize("test", &records);
        assert!((s.mean_response_secs - 15.0).abs() < 1e-12);
        assert_eq!(s.total_completions, 5);
        assert_eq!(s.final_wip, 0);
    }
}

/// A named environment-fault configuration for the resilience benchmark.
///
/// Applying a scenario to a [`SimConfig`] turns on its fault model while
/// leaving everything else (seed, start-up delays, contention) untouched;
/// the `healthy` scenario is the identity.
#[derive(Clone, Copy)]
pub struct FaultScenario {
    /// Name used in output tables and the `scenario` field of
    /// `bench.summary` telemetry events.
    pub name: &'static str,
    apply: fn(SimConfig) -> SimConfig,
}

impl FaultScenario {
    /// Returns `sim` with this scenario's fault model enabled.
    #[must_use]
    pub fn apply(&self, sim: SimConfig) -> SimConfig {
        (self.apply)(sim)
    }
}

/// The resilience benchmark's scenario suite: a healthy control plus one
/// scenario per fault class in `microsim` — independent consumer crashes,
/// correlated node outages, stragglers, and queue delivery-delay spikes.
/// Rates are chosen so each fault visibly perturbs a 25-window run.
#[must_use]
pub fn fault_scenarios() -> Vec<FaultScenario> {
    vec![
        FaultScenario {
            name: "healthy",
            apply: |s| s,
        },
        FaultScenario {
            name: "crashes",
            apply: |s| SimConfig {
                failure_rate_per_hour: 20.0,
                ..s
            },
        },
        FaultScenario {
            name: "outages",
            apply: |s| SimConfig {
                node_count: 3,
                node_outage_rate_per_hour: 2.0,
                ..s
            },
        },
        FaultScenario {
            name: "stragglers",
            apply: |s| SimConfig {
                straggler_prob: 0.05,
                straggler_factor: 10.0,
                ..s
            },
        },
        FaultScenario {
            name: "delays",
            apply: |s| SimConfig {
                delivery_delay_prob: 0.10,
                delivery_delay_max: SimTime::from_secs(10),
                ..s
            },
        },
    ]
}

/// Runs the resilience benchmark for one ensemble: MIRAS and all five
/// baselines (`uniform`, `stream`/DRS, `heft`, `monad`, model-free `rl`)
/// under every [`fault_scenarios`] entry, each with the ensemble's first
/// burst scenario on top of the Poisson background.
///
/// Agents are trained once on the *healthy* environment — resilience here
/// means how a policy trained under nominal conditions copes when the
/// cluster degrades. Returns `(scenario, algorithm, records)` tuples and
/// prints a summary table per scenario; every run summary is also emitted
/// as a `bench.summary` telemetry event with a string `scenario` field, so
/// the JSONL stream segments per scenario.
///
/// Exits with status 1, before any training, if a trace-replay workload's
/// trace does not load.
pub fn run_resilience(
    kind: EnsembleKind,
    args: &BenchArgs,
    telemetry: &Telemetry,
) -> Vec<(String, String, Vec<StepRecord>)> {
    let ensemble = kind.ensemble();
    let steps = args.comparison_steps(kind);
    let burst = kind.burst_scenarios().remove(0);
    let scenarios = fault_scenarios();
    let rows = scenarios
        .iter()
        .map(|scenario| {
            let mut config = EnvConfig {
                workload: args.workload.clone(),
                ..EnvConfig::for_ensemble(&ensemble).with_seed(args.seed)
            };
            config.sim = scenario.apply(config.sim);
            let tag = Value::String(scenario.name.to_string());
            (tag, config, Some(&burst))
        })
        .collect();
    let grid = run_rows(
        kind,
        args,
        telemetry,
        RESILIENCE_ALGORITHMS,
        "scenario",
        rows,
    );

    let mut results = Vec::new();
    for (scenario, row) in scenarios.iter().zip(grid) {
        println!(
            "\n=== {} resilience — scenario `{}` (burst {:?}, {} windows) ===",
            kind.name().to_uppercase(),
            scenario.name,
            burst.counts(),
            steps
        );
        print_summaries(&row.summaries);
        for cell in row.cells {
            results.push((scenario.name.to_string(), cell.name, cell.records));
        }
    }
    results
}

/// The algorithm roster of the resilience grid, in output order. The names
/// are the policies' own [`Policy::name`] values.
const RESILIENCE_ALGORITHMS: &[&str] = &["miras", "uniform", "stream", "heft", "monad", "rl"];

/// The algorithm roster of the comparison grid (Figs. 7–8), in output order.
const COMPARISON_ALGORITHMS: &[&str] = &["miras", "stream", "heft", "monad", "rl"];

/// One completed evaluation-grid cell: the algorithm's name, its per-window
/// records, and the telemetry it captured while running.
struct GridCell {
    name: String,
    records: Vec<StepRecord>,
    buffer: Arc<BufferedRecorder>,
}

/// A grid cell as a deferred task: builds `algorithm` from the registry,
/// runs it on a fresh environment from `config`, and records into a private
/// buffer. Cells share nothing, so a grid's numbers are identical to a
/// sequential sweep; callers replay the buffers in cell order afterwards,
/// so the telemetry stream is too.
fn grid_cell<'a>(
    kind: EnsembleKind,
    algorithm: &'static str,
    policy_cfg: PolicyConfig,
    config: EnvConfig,
    burst: Option<&'a BurstSpec>,
    steps: usize,
    enabled: bool,
) -> Box<dyn FnOnce() -> GridCell + Send + 'a> {
    Box::new(move || {
        let buffer = Arc::new(BufferedRecorder::new());
        let cell_telemetry = if enabled {
            Telemetry::new(buffer.clone())
        } else {
            Telemetry::noop()
        };
        let mut policy = by_name(algorithm, &policy_cfg).expect("grid algorithms are registered");
        let records =
            run_allocator_configured(kind, config, burst, steps, policy.as_mut(), &cell_telemetry);
        GridCell {
            name: algorithm.to_string(),
            records,
            buffer,
        }
    })
}

/// Replays a grid row's buffered telemetry in cell order, then summarises
/// each cell and emits the summaries as `bench.summary` events carrying
/// the row's `key: tag` field.
fn summarize_row(
    row: &[GridCell],
    key: &str,
    tag: &Value,
    telemetry: &Telemetry,
) -> Vec<RunSummary> {
    for cell in row {
        cell.buffer.replay(telemetry);
    }
    let summaries: Vec<RunSummary> = row
        .iter()
        .map(|cell| summarize(&cell.name, &cell.records))
        .collect();
    if telemetry.is_enabled() {
        for summary in &summaries {
            if let Ok(Value::Object(mut fields)) = serde::value::to_value(summary) {
                fields.push((key.to_string(), tag.clone()));
                telemetry.event_struct("bench.summary", &Value::Object(fields));
            }
        }
    }
    summaries
}

/// One finished grid row: its cells in algorithm order and their summaries.
struct GridRow {
    cells: Vec<GridCell>,
    summaries: Vec<RunSummary>,
}

/// The evaluation loop the comparison, resilience and workload grids share:
/// checks the rows' trace files ([`check_traces`]), trains (or loads) the
/// learned policies, fans every row × `algorithms` cell out across worker
/// threads (see `grid_cell` for the determinism contract), then summarises
/// the rows in order, tagging each row's `bench.summary` events with
/// `key: tag`. A row is its tag, environment config and optional burst.
fn run_rows(
    kind: EnsembleKind,
    args: &BenchArgs,
    telemetry: &Telemetry,
    algorithms: &[&'static str],
    key: &str,
    rows: Vec<(Value, EnvConfig, Option<&BurstSpec>)>,
) -> Vec<GridRow> {
    check_traces(kind, &rows);
    let policy_cfg = learned_policies(kind, args, telemetry);
    let steps = args.comparison_steps(kind);
    let enabled = telemetry.is_enabled();
    let mut tasks = Vec::new();
    for (_, config, burst) in &rows {
        for &algorithm in algorithms {
            tasks.push(grid_cell(
                kind,
                algorithm,
                policy_cfg.clone(),
                config.clone(),
                *burst,
                steps,
                enabled,
            ));
        }
    }
    let mut cells = run_grid(tasks).into_iter();
    rows.iter()
        .map(|(tag, _, _)| {
            let cells: Vec<GridCell> = cells.by_ref().take(algorithms.len()).collect();
            let summaries = summarize_row(&cells, key, tag, telemetry);
            GridRow { cells, summaries }
        })
        .collect()
}

/// Loads each trace-replay row's trace into a throwaway environment, the
/// check every grid cell's episode makes: a file that does not load, or an
/// arrival whose workflow type `kind`'s ensemble lacks, prints `error: …`
/// naming the file and exits with status 1, before any training.
fn check_traces(kind: EnsembleKind, rows: &[(Value, EnvConfig, Option<&BurstSpec>)]) {
    for (_, config, _) in rows {
        if let WorkloadSpec::TraceReplay { path } = &config.workload {
            let mut env = MicroserviceEnv::new(kind.ensemble(), config.clone());
            if let Err(e) = env.load_workload_trace() {
                eprintln!("error: workload trace {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Trains (or loads) MIRAS, then trains the model-free DDPG baseline with
/// the same number of real interactions (§VI-D), and returns the registry
/// config with both agents attached.
fn learned_policies(kind: EnsembleKind, args: &BenchArgs, telemetry: &Telemetry) -> PolicyConfig {
    let ensemble = kind.ensemble();
    let (_, miras_agent) = train_miras(kind, args, !args.no_cache, true, telemetry);
    let miras_cfg = args.miras_config(kind);
    let interaction_budget =
        args.resolved_iterations() * (miras_cfg.real_steps_per_iter + miras_cfg.eval_steps);
    eprintln!(
        "[train {}] model-free DDPG with {} real interactions",
        kind.name(),
        interaction_budget
    );
    let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(args.seed.wrapping_add(7));
    let mut mf_env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble.clone(), env_config));
    mf_env.set_telemetry(telemetry.clone());
    let model_free = baselines::train_model_free(
        &mut mf_env,
        interaction_budget,
        miras_cfg.reset_every,
        miras_cfg.ddpg.clone(),
        miras_cfg.collect_burst_max.as_deref(),
    );
    PolicyConfig::new(&ensemble)
        .with_miras_agent(miras_agent)
        .with_model_free(model_free.agent().clone())
}

/// Runs the paper's five-algorithm comparison (Figs. 7 and 8) for one
/// ensemble: MIRAS vs `stream` (DRS), `heft`, `monad`, and `rl` (model-free
/// DDPG with the same real-interaction budget), across the paper's three
/// burst scenarios. Returns `(scenario, algorithm, records)` tuples and
/// prints tables along the way; every run summary is also emitted as a
/// `bench.summary` telemetry event.
///
/// Exits with status 1, before any training, if a trace-replay workload's
/// trace does not load.
pub fn run_comparison(
    kind: EnsembleKind,
    args: &BenchArgs,
    telemetry: &Telemetry,
) -> Vec<(usize, String, Vec<StepRecord>)> {
    let ensemble = kind.ensemble();
    let config = EnvConfig {
        workload: args.workload.clone(),
        ..EnvConfig::for_ensemble(&ensemble).with_seed(args.seed)
    };
    let bursts = kind.burst_scenarios();
    let rows = bursts
        .iter()
        .enumerate()
        .map(|(scenario, burst)| (Value::UInt(scenario as u64), config.clone(), Some(burst)))
        .collect();
    let grid = run_rows(
        kind,
        args,
        telemetry,
        COMPARISON_ALGORITHMS,
        "scenario",
        rows,
    );

    let mut results = Vec::new();
    for (scenario, (burst, row)) in bursts.iter().zip(grid).enumerate() {
        let series: Vec<(String, Vec<StepRecord>)> = row
            .cells
            .into_iter()
            .map(|cell| (cell.name, cell.records))
            .collect();
        print_response_table(
            &format!(
                "{} burst {} {:?} — mean response time (s) per 30 s window",
                kind.name().to_uppercase(),
                scenario + 1,
                burst.counts()
            ),
            &series,
        );
        println!();
        print_summaries(&row.summaries);
        for (name, records) in series {
            results.push((scenario, name, records));
        }
    }
    results
}

/// The generator-backed workload shapes the `workload_grid` benchmark
/// sweeps by default (trace replay is added separately by recording a
/// stationary run first — see [`record_background_trace`]).
#[must_use]
pub fn workload_zoo() -> Vec<WorkloadSpec> {
    ["stationary", "diurnal", "trending", "flash-crowd"]
        .iter()
        .map(|name| WorkloadSpec::parse(name).expect("zoo entries are known specs"))
        .collect()
}

/// Writes `steps` decision windows of the ensemble's stationary Poisson
/// background as a JSONL trace under `results/`, for replay via
/// [`WorkloadSpec::TraceReplay`]. The trace is
/// [`microsim::background_trace`], the arrivals an environment at `seed`
/// would record: background arrivals are policy-independent (the arrival
/// RNG never sees allocations), so the trace replays identically under
/// every allocator. Returns the trace path.
///
/// # Errors
///
/// Propagates filesystem errors from creating or writing the trace file.
pub fn record_background_trace(
    kind: EnsembleKind,
    seed: u64,
    steps: usize,
) -> std::io::Result<PathBuf> {
    let config = EnvConfig::for_ensemble(&kind.ensemble()).with_seed(seed);
    let trace = microsim::background_trace(&config, steps);
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("workload_trace_{}.jsonl", kind.name()));
    trace.save_jsonl(&path)?;
    eprintln!(
        "[workload] recorded {} arrivals over {steps} windows to {}",
        trace.len(),
        path.display()
    );
    Ok(path)
}

/// Runs the workload grid for one ensemble: MIRAS and the comparison
/// baselines under every given workload shape, burst-free so the background
/// shape itself is the stressor. Agents are trained once on the stationary
/// background (the regime the paper's training protocol assumes); the grid
/// then measures how those policies cope when the traffic drifts, cycles,
/// spikes, or follows a recorded trace.
///
/// Returns `(workload, algorithm, records)` tuples and prints a summary
/// table per workload; every run summary is also emitted as a
/// `bench.summary` telemetry event with a string `workload` field.
///
/// Exits with status 1, before any training, if a trace-replay workload's
/// trace does not load.
pub fn run_workload_grid(
    kind: EnsembleKind,
    args: &BenchArgs,
    workloads: &[WorkloadSpec],
    telemetry: &Telemetry,
) -> Vec<(String, String, Vec<StepRecord>)> {
    let ensemble = kind.ensemble();
    let steps = args.comparison_steps(kind);
    let rows = workloads
        .iter()
        .map(|workload| {
            let config = EnvConfig {
                workload: workload.clone(),
                ..EnvConfig::for_ensemble(&ensemble).with_seed(args.seed)
            };
            (Value::String(workload.name().to_string()), config, None)
        })
        .collect();
    let grid = run_rows(
        kind,
        args,
        telemetry,
        COMPARISON_ALGORITHMS,
        "workload",
        rows,
    );

    let mut results = Vec::new();
    for (workload, row) in workloads.iter().zip(grid) {
        println!(
            "\n=== {} workload `{}` ({} windows, no burst) ===",
            kind.name().to_uppercase(),
            workload.name(),
            steps
        );
        print_summaries(&row.summaries);
        for cell in row.cells {
            results.push((workload.name().to_string(), cell.name, cell.records));
        }
    }
    results
}
