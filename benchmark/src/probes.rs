//! Per-layer probes for the traced run: every layer's public calls, timed
//! from outside, one span per call (one per batch where a call is
//! sub-microsecond). Fixed counts and the run's seed, so the numbers mean
//! the same in every traced run, whichever workload it belongs to.
//!
//! Layer = crate name. `workflow` has no hot public call of its own: its
//! cost sits inside `microsim.step_*`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use baselines::{fallback, Observation, PolicyConfig};
use desim::{EventQueue, SimTime};
use miras_core::{BatchedSyntheticEnv, DynamicsModel, MirasTrainer, RefinedModel, SyntheticEnv};
use nn::{Activation, Adam, Matrix, Mlp};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rl::{Ddpg, DdpgConfig, Environment};
use serve::{
    parse_observation_line, AdmissionConfig, AdmissionQueue, CheckpointWatcher, DecisionService,
    MAX_LINE_BYTES,
};
use telemetry::{JsonlSink, Telemetry, Value};
use workflow::Ensemble;

use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::workloads::serve::{
    parse_self_reported_p99_us, Deadline, ObsStream, PolicySource, Session, TempFile, Until, Wait,
};
use crate::workloads::sim::{LargeSim, PaperSim, SimStats, POLICIES};
use crate::workloads::train::{fixed_work_config, msd_env};
use crate::workloads::Env;

/// Rounds (one episode per combination) in each paper-scale segment.
const PAPER_ROUNDS: usize = 4;
/// Timed windows of the 1024-consumer cluster.
const LARGE_WINDOWS: usize = 4;
/// In-process serve samples; each pays a full checkpoint re-read.
const SERVE_SAMPLES: usize = 200;
/// Closed-loop requests against the real daemon: enough for ten samples
/// beyond the p99.
const SOCKET_REQUESTS: u64 = 1100;

/// Named per-layer values plus human-readable detail.
#[derive(Debug, Default)]
pub struct Probed {
    pub metrics: Vec<(String, f64)>,
    pub detail: Vec<String>,
}

impl Probed {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Records the per-call median of `layer`/`span` as `metric`, with the
    /// tail in the detail lines.
    fn put_p50(&mut self, tracer: &Tracer, layer: &str, span: &str, metric: &str, scale: f64) {
        // No span, no value: the run then fails on the unmeasured metric.
        let Some(summary) = Summary::of(&tracer.per_call_us(layer, span)) else {
            return;
        };
        self.put(metric, summary.p50 * scale);
        self.detail.push(format!(
            "{metric}: p50 {:.3} p99 {:.3} max {:.3} over {} spans",
            summary.p50 * scale,
            summary.p99 * scale,
            summary.max * scale,
            summary.count
        ));
    }
}

/// Runs every probe. Spans land in `tracer` (which must be recording).
///
/// # Errors
///
/// If the checkpoint or the daemon cannot be set up.
pub fn run(seed: u64, env: &Env, tracer: &mut Tracer) -> Result<Probed, String> {
    let mut out = Probed::default();
    let mut local = Tracer::with_origin(true, tracer.origin());
    microsim_paper(seed, &mut local, &mut out);
    microsim_large_and_desim(seed, &mut local, &mut out);
    nn_kernels(seed, &mut local, &mut out);
    let checkpoint = TempFile(
        env.out_dir
            .join(format!("probe-ckpt-{}.json", std::process::id())),
    );
    training(seed, &checkpoint.0, &mut local, &mut out)?;
    serving(seed, env, &checkpoint.0, &mut local, &mut out)?;
    telemetry_cost(seed, &mut local, &mut out);
    tracer.absorb(local);
    Ok(out)
}

fn paper_segment(seed: u64, telemetry: &Telemetry, tracer: &mut Tracer) -> (SimStats, f64) {
    let mut sim = PaperSim::build(seed, telemetry);
    let mut stats = SimStats::default();
    let start = Instant::now();
    for _ in 0..PAPER_ROUNDS * sim.combos() {
        sim.episode(tracer, &mut stats);
    }
    (stats, start.elapsed().as_secs_f64())
}

fn microsim_paper(seed: u64, tracer: &mut Tracer, out: &mut Probed) {
    let (stats, _) = paper_segment(seed, &Telemetry::noop(), tracer);
    out.put_p50(
        tracer,
        "microsim",
        "step.paper",
        "microsim.step_us.paper",
        1.0,
    );
    out.put_p50(tracer, "microsim", "reset", "microsim.reset_us", 1.0);
    for (policy, span) in POLICIES {
        out.put_p50(
            tracer,
            "baselines",
            span,
            &format!("baselines.decide_us.{policy}"),
            1.0,
        );
    }
    out.put(
        "microsim.events_per_window.paper",
        stats.events as f64 / stats.windows as f64,
    );
    out.put(
        "microsim.stats_checksum.paper",
        stats.checksum.finish48() as f64,
    );
}

fn microsim_large_and_desim(seed: u64, tracer: &mut Tracer, out: &mut Probed) {
    let mut sim = LargeSim::build(seed);
    let mut stats = SimStats::default();
    sim.warm_up(&mut stats);
    let (warm_events, warm_arrivals) = (stats.events, stats.arrivals);
    for _ in 0..LARGE_WINDOWS {
        sim.window(tracer, &mut stats);
    }
    drop(sim);
    let events = stats.events - warm_events;
    let arrivals = stats.arrivals - warm_arrivals;
    out.put_p50(
        tracer,
        "microsim",
        "step.large",
        "microsim.step_us.large",
        1.0,
    );
    out.put(
        "microsim.events_per_window.large",
        events as f64 / LARGE_WINDOWS as f64,
    );
    out.put(
        "microsim.stats_checksum.large",
        stats.checksum.finish48() as f64,
    );

    // The same arrival / fan-out profile through the bare queue: a
    // window's arrivals are scheduled up front, and each popped arrival
    // schedules `children` near-term follow-ups one service time apart,
    // the way one workflow request fans out into task completions.
    let arrivals_per_window = (arrivals / LARGE_WINDOWS as u64).max(1);
    let children = (events / arrivals.max(1)).saturating_sub(1).max(1);
    let ensemble = Ensemble::synthetic(128, 64, 1024, 0.03);
    let service_secs = ensemble
        .task_types()
        .iter()
        .map(|t| t.mean_service_secs)
        .sum::<f64>()
        / ensemble.num_task_types() as f64;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut queue: EventQueue<u64> = EventQueue::new();
    let (mut pops, mut peak) = (0u64, 0usize);
    let window_secs = 30.0;
    let offsets: Vec<f64> = (0..arrivals_per_window)
        .map(|_| rng.gen_range(0.0..window_secs))
        .collect();
    let replay_windows = 2u64;
    let span = tracer.begin_calls(
        "desim",
        "queue_push_pop",
        0,
        replay_windows * arrivals_per_window * (children + 1),
    );
    for w in 0..replay_windows {
        let base = w as f64 * window_secs;
        for (i, offset) in offsets.iter().enumerate() {
            queue.push(SimTime::from_secs_f64(base + offset), i as u64);
        }
        peak = peak.max(queue.len());
        // The last window drains completely, tail of follow-ups included.
        let horizon = (w + 1 < replay_windows).then(|| SimTime::from_secs_f64(base + window_secs));
        while let Some(t) = queue.peek_time() {
            if horizon.is_some_and(|h| t >= h) {
                break;
            }
            let ev = queue.pop().expect("peeked non-empty");
            pops += 1;
            if ev.event < arrivals_per_window {
                for c in 0..children {
                    let at = ev.time + SimTime::from_secs_f64(service_secs * (c + 1) as f64);
                    queue.push(at, arrivals_per_window + c);
                }
            }
        }
    }
    tracer.end(span);
    std::hint::black_box(pops);
    out.put_p50(
        tracer,
        "desim",
        "queue_push_pop",
        "desim.queue_ns_per_event",
        1e3,
    );
    out.put("desim.queue_peak_pending", peak as f64);
}

fn nn_kernels(seed: u64, tracer: &mut Tracer, out: &mut Probed) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let random = |rows: usize, cols: usize, rng: &mut SmallRng| {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    };
    // The actor `msd_fast` trains: 4 -> 64 -> 64 -> 64 -> 4.
    let actor = Ddpg::new(4, 4, DdpgConfig::paper(64, seed)).actor().clone();
    let x1: Vec<f64> = (0..4).map(|_| rng.gen_range(0.0..50.0)).collect();
    let mut y1 = Vec::new();
    for i in 0..2000 {
        let span = tracer.begin("nn", "forward_one", i);
        actor.forward_one_into(std::hint::black_box(&x1), &mut y1);
        tracer.end(span);
    }
    std::hint::black_box(&y1);
    out.put_p50(tracer, "nn", "forward_one", "nn.forward_one_us", 1.0);
    for (batch, span_name, metric) in [
        (16, "forward_b16", "nn.forward_b16_us"),
        (64, "forward_b64", "nn.forward_b64_us"),
    ] {
        let x = random(batch, 4, &mut rng);
        let mut y = Matrix::zeros(0, 0);
        for i in 0..1000 {
            let span = tracer.begin("nn", span_name, i);
            actor.forward_into(std::hint::black_box(&x), &mut y);
            tracer.end(span);
        }
        std::hint::black_box(&y);
        out.put_p50(tracer, "nn", span_name, metric, 1.0);
    }

    // The dynamics model `msd_fast` fits: 8 -> 20 -> 20 -> 20 -> 4.
    let mut model = Mlp::new(
        &[8, 20, 20, 20, 4],
        Activation::Relu,
        Activation::Linear,
        &mut rng,
    );
    let mut adam = Adam::new(3e-3);
    let (x, y) = (random(64, 8, &mut rng), random(64, 4, &mut rng));
    for i in 0..1000 {
        let span = tracer.begin("nn", "train_mse_b64", i);
        std::hint::black_box(model.train_mse(&x, &y, &mut adam));
        tracer.end(span);
    }
    out.put_p50(tracer, "nn", "train_mse_b64", "nn.train_mse_b64_us", 1.0);

    for (n, reps, span_name, metric) in [
        (64usize, 1000u64, "matmul_64", "nn.matmul_64_us"),
        (256, 40, "matmul_256", "nn.matmul_256_us"),
    ] {
        let (a, b) = (random(n, n, &mut rng), random(n, n, &mut rng));
        let mut c = Matrix::zeros(n, n);
        for i in 0..reps {
            let span = tracer.begin("nn", span_name, i);
            std::hint::black_box(&a).matmul_into(&b, &mut c);
            tracer.end(span);
        }
        std::hint::black_box(&c);
        out.put_p50(tracer, "nn", span_name, metric, 1.0);
    }
    // Computed, not counted: 2 n^3 floating-point operations over the
    // median time of the 256^3 product.
    let us = median(&tracer.per_call_us("nn", "matmul_256"));
    out.put("nn.matmul_256_gflops", 2.0 * 256f64.powi(3) / (us * 1e3));
    out.put(
        "nn.threads_effective",
        nn::threads::configured_threads() as f64,
    );
}

/// `run_iteration` as a whole, checkpoint save/load, then the same
/// iteration re-driven out of public parts so each part gets a span.
fn training(
    seed: u64,
    checkpoint: &std::path::Path,
    tracer: &mut Tracer,
    out: &mut Probed,
) -> Result<(), String> {
    let config = fixed_work_config(seed);

    let mut env = msd_env(seed);
    let mut trainer = MirasTrainer::new(&env, config.clone());
    let span = tracer.begin("miras-core", "run_iteration", 0);
    let report = trainer.run_iteration(&mut env);
    tracer.end(span);
    out.put(
        "miras-core.iteration_s",
        tracer.total_s("miras-core", "run_iteration"),
    );
    out.put("miras-core.eval_return", report.eval_return);

    let span = tracer.begin("miras-core", "checkpoint_save", 0);
    trainer
        .save_checkpoint(&env, checkpoint)
        .map_err(|e| format!("saving {}: {e}", checkpoint.display()))?;
    tracer.end(span);
    let span = tracer.begin("miras-core", "checkpoint_load", 0);
    let resumed = MirasTrainer::resume(checkpoint, Ensemble::msd())
        .map_err(|e| format!("resuming {}: {e}", checkpoint.display()))?;
    tracer.end(span);
    drop(resumed);
    out.put_p50(
        tracer,
        "miras-core",
        "checkpoint_save",
        "miras-core.checkpoint_save_ms",
        1e-3,
    );
    out.put_p50(
        tracer,
        "miras-core",
        "checkpoint_load",
        "miras-core.checkpoint_load_ms",
        1e-3,
    );
    let bytes = std::fs::metadata(checkpoint)
        .map_err(|e| format!("stat {}: {e}", checkpoint.display()))?
        .len();
    out.put("miras-core.checkpoint_bytes", bytes as f64);

    // Re-driven: same seed, same budgets, sequential engine.
    let mut env = msd_env(seed);
    let mut trainer = MirasTrainer::new(&env, config.clone());
    let j = env.env().num_task_types();
    let budget = env.consumer_budget();
    let whole = tracer.begin("miras-ledger", "iteration_redriven", 0);

    let span = tracer.begin("miras-core", "collect_random", 0);
    trainer.collect_random(&mut env, config.real_steps_per_iter);
    tracer.end(span);
    let dataset = trainer.dataset().clone();

    let mut model = DynamicsModel::new(j, &config);
    let span = tracer.begin("miras-core", "model_fit", 0);
    model.train(&dataset, config.model_epochs, config.model_batch);
    tracer.end(span);

    let span = tracer.begin("miras-core", "refine_fit", 0);
    let refined = RefinedModel::fit(model, &dataset, config.refine_percentile);
    tracer.end(span);

    let mut synth = SyntheticEnv::new(refined.clone(), dataset.clone(), budget, seed ^ 0xBEEF);
    let agent = trainer.agent_mut();
    let mut updates = 0u64;
    for rollout in 0..config.rollouts_per_iter as u64 {
        let mut s = synth.reset();
        let span = tracer.begin("rl", "resample_perturbation", rollout);
        agent.resample_perturbation();
        tracer.end(span);
        for _ in 0..config.rollout_len {
            let span = tracer.begin("rl", "act_exploratory", rollout);
            let a = agent.act_exploratory(&s);
            tracer.end(span);
            let span = tracer.begin("miras-core", "synth_step", rollout);
            let t = synth.step(&a);
            tracer.end(span);
            let span = tracer.begin("rl", "observe", rollout);
            agent.observe(&s, &a, t.reward, &t.next_state);
            tracer.end(span);
            let span = tracer.begin("rl", "train_step", rollout);
            updates += u64::from(agent.train_step().is_some());
            tracer.end(span);
            s = t.next_state;
        }
    }

    let span = tracer.begin("miras-core", "evaluate", 0);
    let _ = trainer.evaluate(&mut env, config.eval_steps);
    tracer.end(span);
    tracer.end(whole);

    for (span, metric) in [
        ("collect_random", "miras-core.collect_s"),
        ("model_fit", "miras-core.model_fit_s"),
        ("refine_fit", "miras-core.refine_fit_s"),
        ("evaluate", "miras-core.evaluate_s"),
    ] {
        out.put(metric, tracer.total_s("miras-core", span));
    }
    out.put_p50(
        tracer,
        "miras-core",
        "synth_step",
        "miras-core.synth_step_us",
        1.0,
    );
    for (span, metric) in [
        ("train_step", "rl.train_step_us"),
        ("act_exploratory", "rl.act_exploratory_us"),
        ("observe", "rl.observe_us"),
        ("resample_perturbation", "rl.resample_perturbation_us"),
    ] {
        out.put_p50(tracer, "rl", span, metric, 1.0);
    }
    out.put("rl.updates_per_iter", updates as f64);
    // The layers-add-up contract: what of the re-driven iteration no
    // span of a public call accounts for.
    let whole_idx = tracer
        .spans()
        .iter()
        .position(|s| s.name == "iteration_redriven")
        .expect("span recorded above");
    let whole_span = &tracer.spans()[whole_idx];
    let unattributed = tracer.self_times_ns()[whole_idx] as f64 / whole_span.dur_ns() as f64;
    out.put("miras-core.unattributed_share", unattributed);
    out.detail.push(format!(
        "re-driven iteration {:.3} s vs run_iteration {:.3} s; unattributed {:.1} %{}",
        whole_span.dur_ns() as f64 / 1e9,
        tracer.total_s("miras-core", "run_iteration"),
        unattributed * 100.0,
        if unattributed > 0.10 {
            "  WARNING: above 10 %, the layers do not add up"
        } else {
            ""
        }
    ));

    // The wave engine's two batched calls at 16 lanes.
    let agent = trainer.agent_mut();
    let mut batch_env = BatchedSyntheticEnv::new(refined, dataset, budget, seed ^ 0xBEEF, 16);
    batch_env.reset(16);
    let mut states = Matrix::zeros(0, 0);
    for i in 0..200 {
        states.resize(batch_env.states().rows(), batch_env.states().cols());
        states
            .as_mut_slice()
            .copy_from_slice(batch_env.states().as_slice());
        let span = tracer.begin("rl", "act_batch_l16", i);
        let actions = agent.act_exploratory_batch(&states);
        tracer.end(span);
        let span = tracer.begin("miras-core", "batch_step_l16", i);
        batch_env.step(&actions);
        tracer.end(span);
    }
    out.put_p50(tracer, "rl", "act_batch_l16", "rl.act_batch_l16_us", 1.0);
    out.put_p50(
        tracer,
        "miras-core",
        "batch_step_l16",
        "miras-core.batch_step_l16_us",
        1.0,
    );
    Ok(())
}

/// The serve path in-process, stage by stage, then the real daemon over a
/// socket for what only it can tell: its own report and the socket's cost.
fn serving(
    seed: u64,
    env: &Env,
    checkpoint: &std::path::Path,
    tracer: &mut Tracer,
    out: &mut Probed,
) -> Result<(), String> {
    let stream = Arc::new(ObsStream::record(seed)?);
    let mut line = String::new();
    let lines: Vec<String> = (0..SERVE_SAMPLES as u64)
        .map(|id| {
            stream.line_into(id, &mut line);
            line.clone()
        })
        .collect();
    let dims = Ensemble::msd().num_task_types();
    let load = || serve::load_policy(checkpoint).map_err(|e| e.to_string());

    let mut observations = Vec::with_capacity(lines.len());
    for (i, text) in lines.iter().enumerate() {
        let span = tracer.begin("serve", "parse", i as u64);
        let parsed = parse_observation_line(text, MAX_LINE_BYTES, Some(dims));
        tracer.end(span);
        observations.push(
            parsed
                .map_err(|e| e.to_string())?
                .ok_or("blank recorded line")?,
        );
    }

    let (mut policy, _) = load()?;
    for obs in &observations {
        let span = tracer.begin("serve", "decide", obs.window as u64);
        let decision = policy.decide(&Observation::new(
            &obs.wip,
            obs.metrics.as_ref(),
            obs.window,
        ));
        tracer.end(span);
        std::hint::black_box(decision);
    }

    let mut watcher = CheckpointWatcher::new_deployed(checkpoint.to_path_buf());
    for i in 0..observations.len() as u64 {
        let span = tracer.begin("serve", "watcher_poll", i);
        let swapped = watcher.poll().is_some();
        tracer.end(span);
        if swapped {
            return Err("the unchanged checkpoint triggered a swap".to_string());
        }
    }

    // The service as `miras-serve --checkpoint` assembles it in live mode.
    let mut service = DecisionService::new(load()?.0, Telemetry::noop())
        .with_watcher(CheckpointWatcher::new_deployed(checkpoint.to_path_buf()))
        .with_expected_dims(dims)
        .with_deadline(Duration::from_micros(1000))
        .with_fallback(fallback(&PolicyConfig::new(&Ensemble::msd())));
    let mut records = Vec::with_capacity(observations.len());
    for obs in &observations {
        let span = tracer.begin("serve", "handle", obs.window as u64);
        let record = service.handle(obs);
        tracer.end(span);
        records.push(record);
    }
    for record in &records {
        let span = tracer.begin("serve", "to_line", record.window as u64);
        std::hint::black_box(record.to_line());
        tracer.end(span);
    }
    // The whole in-process request, stages nested under one span.
    for (i, text) in lines.iter().enumerate() {
        let i = i as u64;
        let whole = tracer.begin("serve", "inproc_total", i);
        let span = tracer.begin("serve", "inproc.parse", i);
        let obs = parse_observation_line(text, MAX_LINE_BYTES, Some(dims));
        tracer.end(span);
        if let Ok(Some(obs)) = obs {
            let span = tracer.begin("serve", "inproc.handle", i);
            let record = service.handle(&obs);
            tracer.end(span);
            let span = tracer.begin("serve", "inproc.to_line", i);
            std::hint::black_box(record.to_line());
            tracer.end(span);
        }
        tracer.end(whole);
    }

    let queue: AdmissionQueue<u64> = AdmissionQueue::new(AdmissionConfig::default());
    let pairs = 200_000u64;
    let span = tracer.begin_calls("serve", "admission_push_pop", 0, pairs);
    for i in 0..pairs {
        let _ = queue.push(i);
        std::hint::black_box(queue.pop_wait());
    }
    tracer.end(span);

    for (span, metric) in [
        ("parse", "serve.parse_us"),
        ("decide", "serve.decide_us"),
        ("watcher_poll", "serve.watcher_poll_us"),
        ("handle", "serve.handle_us"),
        ("to_line", "serve.to_line_us"),
        ("inproc_total", "serve.inproc_total_us"),
    ] {
        out.put_p50(tracer, "serve", span, metric, 1.0);
    }
    out.put_p50(
        tracer,
        "serve",
        "admission_push_pop",
        "serve.admission_ns",
        1e3,
    );

    let mut session = Session::start(
        env,
        PolicySource::Checkpoint(checkpoint.to_path_buf()),
        1,
        Deadline::LiveDefault,
        stream,
    )?;
    let warm = session.closed_loop(0, Until::Sent(32), Wait::Block, &mut Tracer::new(false))?;
    let counts = session.closed_loop(0, Until::Sent(SOCKET_REQUESTS), Wait::Poll, tracer)?;
    let closing_line = session
        .stop()?
        .ok_or("miras-serve printed no latency summary")?;
    let socket = Summary::of(&counts.latency_us).ok_or("the daemon answered nothing")?;
    let (socket_p50, inproc_p50) = (
        socket.p50,
        median(&tracer.per_call_us("serve", "inproc_total")),
    );
    out.put("serve.socket_overhead_us", socket_p50 - inproc_p50);
    out.put("serve.p99_us", socket.p99);
    out.put(
        "serve.self_reported_p99_us",
        parse_self_reported_p99_us(&closing_line)
            .ok_or_else(|| format!("no p99 in the daemon's closing line: {closing_line}"))?,
    );
    out.put("serve.sent", counts.sent as f64);
    out.put("serve.normal", counts.normal as f64);
    out.put("serve.shed", counts.shed as f64);
    out.put("serve.degraded", counts.degraded as f64);
    out.put("serve.missing", counts.missing as f64);
    out.detail
        .push(counts.describe("probe socket phase (1 x 1)"));
    out.detail.push(format!(
        "probe socket p50 {socket_p50:.1} us vs in-process {inproc_p50:.1} us; warm-up sent {} normal {}",
        warm.sent, warm.normal
    ));
    out.detail
        .push(format!("daemon self-report (decide only): {closing_line}"));
    Ok(())
}

fn telemetry_cost(seed: u64, tracer: &mut Tracer, out: &mut Probed) {
    let calls = 2_000_000u64;
    let noop = Telemetry::noop();
    let span = tracer.begin_calls("telemetry", "noop_counter", 0, calls);
    for _ in 0..calls {
        std::hint::black_box(&noop).counter("ledger.probe", 1);
    }
    tracer.end(span);
    out.put_p50(
        tracer,
        "telemetry",
        "noop_counter",
        "telemetry.noop_ns",
        1e3,
    );

    let events = 100_000u64;
    let sink = JsonlSink::in_memory();
    let recording = Telemetry::new(sink.clone());
    let span = tracer.begin_calls("telemetry", "jsonl_event", 0, events);
    for i in 0..events {
        recording.event(
            "ledger.probe",
            &[("window", Value::UInt(i)), ("wip", Value::Float(0.5))],
        );
    }
    tracer.end(span);
    std::hint::black_box(sink.take_output().len());
    out.put_p50(
        tracer,
        "telemetry",
        "jsonl_event",
        "telemetry.jsonl_event_ns",
        1e3,
    );

    // One paper-scale segment with the emulator recording every window
    // against the same segment with telemetry off, alternating.
    let mut off = Tracer::new(false);
    let (mut noop_secs, mut recording_secs) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        noop_secs.push(paper_segment(seed, &Telemetry::noop(), &mut off).1);
        let sink = JsonlSink::in_memory();
        recording_secs.push(paper_segment(seed, &Telemetry::new(sink.clone()), &mut off).1);
        std::hint::black_box(sink.take_output().len());
    }
    out.put(
        "telemetry.sim_overhead_share",
        median(&recording_secs) / median(&noop_secs) - 1.0,
    );
}
