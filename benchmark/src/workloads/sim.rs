//! `sim-paper` / `sim-large`: what an evaluation harness waits for — the
//! emulator at the paper's scale (per-window overhead dominates) and at
//! 1024 consumers (per-event cost dominates).

use std::time::Instant;

use baselines::{by_name, Observation, Policy, PolicyConfig};
use microsim::{EnvConfig, MicroserviceEnv, StepOutcome};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use telemetry::Telemetry;
use workflow::{BurstSpec, Ensemble};

use super::{Measurement, Workload};
use crate::stats::Fnv;
use crate::trace::Tracer;

/// The registry policies every figure bin sweeps (the learned ones need a
/// trained agent and are the train-* workloads' business).
/// Each with the name of the span its `Policy::decide` calls are timed in.
pub const POLICIES: [(&str, &str); 5] = [
    ("uniform", "decide.uniform"),
    ("wip-proportional", "decide.wip-proportional"),
    ("drs", "decide.drs"),
    ("heft", "decide.heft"),
    ("monad", "decide.monad"),
];
/// Decision windows per episode, as in the paper's evaluation (§VI-D).
const EPISODE_WINDOWS: usize = 25;
/// Untimed rounds (one episode per combination) before `sim-paper` is timed.
const PAPER_WARMUP_ROUNDS: usize = 3;
/// Untimed windows that fill `sim-large`'s queues before timing starts.
const LARGE_WARMUP_WINDOWS: usize = 2;
/// Timed rounds / windows after which peak memory is read.
const PAPER_RSS_MARK_ROUNDS: usize = 50;
const LARGE_RSS_MARK_WINDOWS: usize = 10;

/// Simulated statistics of a run of windows: exact counts that must repeat
/// bit for bit for the same seed on any commit that leaves the model alone.
#[derive(Debug, Default, Clone)]
pub struct SimStats {
    pub windows: u64,
    pub events: u64,
    /// Workflow requests that arrived (sizes the bare-queue replay).
    pub arrivals: u64,
    pub over_budget: u64,
    pub checksum: Fnv,
}

impl SimStats {
    fn record(&mut self, out: &StepOutcome, events: u64, allocated: usize, budget: usize) {
        self.windows += 1;
        self.events += events;
        self.arrivals += out.metrics.arrivals.iter().sum::<usize>() as u64;
        if allocated > budget || out.metrics.constraint_violated {
            self.over_budget += 1;
        }
        for &w in &out.metrics.wip {
            self.checksum.write_u64(w as u64);
        }
        for &c in &out.metrics.completions {
            self.checksum.write_u64(c as u64);
        }
        self.checksum.write_u64(out.reward.to_bits());
    }
}

struct Combo {
    env: MicroserviceEnv,
    policy: Box<dyn Policy>,
    decide_span: &'static str,
    budget: usize,
    burst_max: Vec<usize>,
}

/// {MSD, LIGO, gpu-serve} x [`POLICIES`], stepped round-robin one
/// 25-window episode at a time.
pub struct PaperSim {
    combos: Vec<Combo>,
    burst_rng: SmallRng,
    episodes_done: u64,
}

impl PaperSim {
    /// # Panics
    ///
    /// Panics if a registry policy cannot be built, which needs no artifact.
    #[must_use]
    pub fn build(seed: u64, telemetry: &Telemetry) -> Self {
        // Burst ceilings: each ensemble's first evaluation scenario.
        let ensembles = [
            (Ensemble::msd(), vec![300, 200, 300]),
            (Ensemble::ligo(), vec![100, 100, 50, 30]),
            (Ensemble::gpu_serve(), vec![200, 80, 20]),
        ];
        let mut combos = Vec::new();
        for (ensemble, burst_max) in ensembles {
            let policy_config = PolicyConfig::new(&ensemble);
            for (name, decide_span) in POLICIES {
                let config =
                    EnvConfig::for_ensemble(&ensemble).with_seed(seed + combos.len() as u64);
                let mut env = MicroserviceEnv::new(ensemble.clone(), config);
                env.set_telemetry(telemetry.clone());
                let policy = by_name(name, &policy_config).expect("registry policy");
                combos.push(Combo {
                    budget: policy.consumer_budget(),
                    env,
                    policy,
                    decide_span,
                    burst_max: burst_max.clone(),
                });
            }
        }
        PaperSim {
            combos,
            burst_rng: SmallRng::seed_from_u64(seed ^ 0xB0B5),
            episodes_done: 0,
        }
    }

    #[must_use]
    pub fn combos(&self) -> usize {
        self.combos.len()
    }

    /// One episode on the next combination: reset, seeded burst, 25 x
    /// (decide + step). Returns its wall-clock in seconds.
    pub fn episode(&mut self, tracer: &mut Tracer, stats: &mut SimStats) -> f64 {
        let id = self.episodes_done;
        let which = (id % self.combos.len() as u64) as usize;
        let combo = &mut self.combos[which];
        let burst: Vec<usize> = combo
            .burst_max
            .iter()
            .map(|&max| self.burst_rng.gen_range(max / 2..=max))
            .collect();
        let episode = tracer.begin("miras-ledger", "episode", id);
        let start = Instant::now();

        let span = tracer.begin("microsim", "reset", id);
        let mut state = combo.env.reset();
        tracer.end(span);
        combo.env.inject_burst(&BurstSpec::new(burst));
        let mut previous = None;
        for window in 0..EPISODE_WINDOWS {
            let span = tracer.begin("baselines", combo.decide_span, id);
            let decision =
                combo
                    .policy
                    .decide(&Observation::new(&state, previous.as_ref(), window));
            tracer.end(span);
            let events_before = combo.env.cluster().events_processed();
            let span = tracer.begin("microsim", "step.paper", id);
            let out = combo.env.step(&decision.allocations);
            tracer.end(span);
            stats.record(
                &out,
                combo.env.cluster().events_processed() - events_before,
                decision.allocations.iter().sum(),
                combo.budget,
            );
            state = out.state;
            previous = Some(out.metrics);
        }

        let secs = start.elapsed().as_secs_f64();
        tracer.end(episode);
        self.episodes_done += 1;
        secs
    }
}

pub struct SimPaper {
    seed: u64,
    sim: Option<PaperSim>,
}

impl SimPaper {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SimPaper { seed, sim: None }
    }
}

impl Workload for SimPaper {
    fn op_unit(&self) -> &'static str {
        "25-window episode (reset + burst + 25 x (decide + step))"
    }

    fn work_unit(&self) -> &'static str {
        "simulated 30 s windows"
    }

    fn setup(&mut self) -> Result<u64, String> {
        let mut sim = PaperSim::build(self.seed, &Telemetry::noop());
        let mut warm = SimStats::default();
        for _ in 0..PAPER_WARMUP_ROUNDS * sim.combos() {
            sim.episode(&mut Tracer::new(false), &mut warm);
        }
        self.sim = Some(sim);
        Ok(warm.checksum.finish48())
    }

    fn measure(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Measurement, String> {
        let sim = self
            .sim
            .as_mut()
            .ok_or("sim-paper measured before set-up")?;
        let mut m = Measurement::default();
        let mut stats = SimStats::default();
        let start = Instant::now();
        // Whole rounds, so every run times the same mix of combinations.
        while m.rates.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let (round_start, windows_before) = (Instant::now(), stats.windows);
            for _ in 0..sim.combos() {
                m.op_ms.push(sim.episode(tracer, &mut stats) * 1e3);
            }
            m.rates.push(
                (stats.windows - windows_before) as f64 / round_start.elapsed().as_secs_f64(),
            );
            if m.rates.len() == PAPER_RSS_MARK_ROUNDS {
                m.peak_rss_mb = crate::host::peak_rss_mb("self");
            }
        }
        m.peak_rss_mb = m.peak_rss_mb.or_else(|| crate::host::peak_rss_mb("self"));
        m.attempted = stats.windows;
        for _ in 0..stats.over_budget {
            m.wrong("allocation over the consumer budget".to_string());
        }
        m.info.push(format!(
            "{} episodes, {} windows, {:.1} events/window, checksum {}",
            m.op_ms.len(),
            stats.windows,
            stats.events as f64 / stats.windows.max(1) as f64,
            stats.checksum.finish48()
        ));
        Ok(m)
    }
}

/// `Ensemble::synthetic(128, 64, 1024, 0.03)` under a uniform allocation:
/// ~640 k events per window at load 0.5.
pub struct LargeSim {
    env: MicroserviceEnv,
    action: Vec<usize>,
    budget: usize,
    windows_done: u64,
}

impl LargeSim {
    #[must_use]
    pub fn build(seed: u64) -> Self {
        let ensemble = Ensemble::synthetic(128, 64, 1024, 0.03);
        let budget = ensemble.default_consumer_budget();
        let j = ensemble.num_task_types();
        let config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
        LargeSim {
            env: MicroserviceEnv::new(ensemble, config),
            action: vec![(budget / j).max(1); j],
            budget,
            windows_done: 0,
        }
    }

    /// Runs the untimed windows that bring the queues to steady state.
    pub fn warm_up(&mut self, stats: &mut SimStats) {
        for _ in 0..LARGE_WARMUP_WINDOWS {
            self.window(&mut Tracer::new(false), stats);
        }
    }

    /// One window; returns its wall-clock in seconds.
    pub fn window(&mut self, tracer: &mut Tracer, stats: &mut SimStats) -> f64 {
        let events_before = self.env.cluster().events_processed();
        let span = tracer.begin("microsim", "step.large", self.windows_done);
        let start = Instant::now();
        let out = self.env.step(&self.action);
        let secs = start.elapsed().as_secs_f64();
        tracer.end(span);
        stats.record(
            &out,
            self.env.cluster().events_processed() - events_before,
            self.action.iter().sum(),
            self.budget,
        );
        self.windows_done += 1;
        secs
    }
}

pub struct SimLarge {
    seed: u64,
    sim: Option<LargeSim>,
}

impl SimLarge {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SimLarge { seed, sim: None }
    }
}

impl Workload for SimLarge {
    fn op_unit(&self) -> &'static str {
        "30 s window of 128 task types x 1024 consumers"
    }

    fn work_unit(&self) -> &'static str {
        "simulation events"
    }

    fn setup(&mut self) -> Result<u64, String> {
        self.sim = None; // free the previous cluster before building the next
        let mut sim = LargeSim::build(self.seed);
        let mut warm = SimStats::default();
        sim.warm_up(&mut warm);
        self.sim = Some(sim);
        Ok(warm.checksum.finish48())
    }

    fn measure(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Measurement, String> {
        let sim = self
            .sim
            .as_mut()
            .ok_or("sim-large measured before set-up")?;
        let mut m = Measurement::default();
        let mut stats = SimStats::default();
        let mut timed_secs = 0.0;
        while m.rates.is_empty() || timed_secs < seconds {
            let events_before = stats.events;
            let secs = sim.window(tracer, &mut stats);
            m.op_ms.push(secs * 1e3);
            m.rates.push((stats.events - events_before) as f64 / secs);
            timed_secs += secs;
            if m.rates.len() == LARGE_RSS_MARK_WINDOWS {
                m.peak_rss_mb = crate::host::peak_rss_mb("self");
            }
        }
        m.peak_rss_mb = m.peak_rss_mb.or_else(|| crate::host::peak_rss_mb("self"));
        m.attempted = stats.windows;
        for _ in 0..stats.over_budget {
            m.wrong("allocation over the consumer budget".to_string());
        }
        m.info.push(format!(
            "{} windows, {:.0} events/window, checksum {}",
            stats.windows,
            stats.events as f64 / stats.windows.max(1) as f64,
            stats.checksum.finish48()
        ));
        Ok(m)
    }
}
