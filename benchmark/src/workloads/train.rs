//! `train-seq` / `train-wave`: what a researcher waits for — one
//! Algorithm-2 iteration of `msd_fast`, repeated on fresh trainers.

use std::time::Instant;

use microsim::{EnvConfig, MicroserviceEnv};
use miras_core::{ClusterEnvAdapter, IterationReport, MirasConfig, MirasTrainer};
use workflow::Ensemble;

use super::{Measurement, Workload};
use crate::stats::Fnv;
use crate::trace::Tracer;

/// `train-wave`'s engine shape: workers x lanes.
pub const WAVE: (usize, usize) = (2, 16);

/// The MSD emulator behind the trainer's environment interface.
#[must_use]
pub fn msd_env(seed: u64) -> ClusterEnvAdapter {
    let ensemble = Ensemble::msd();
    let config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
    ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, config))
}

/// `msd_fast` with early stopping off, so every iteration does the same
/// fixed work: 250 real steps, 150 model epochs, 100 x 25 synthetic steps.
#[must_use]
pub fn fixed_work_config(seed: u64) -> MirasConfig {
    let mut config = MirasConfig::msd_fast(seed);
    config.inner_patience = 0;
    config
}

pub struct Train {
    seed: u64,
    wave: bool,
    /// The environment and trainer the next repetition runs on.
    ready: Option<(ClusterEnvAdapter, MirasTrainer)>,
    /// The first repetition's report: `train-seq` must repeat it byte for
    /// byte.
    reference: Option<String>,
    reps_done: u64,
}

impl Train {
    #[must_use]
    pub fn new(seed: u64, wave: bool) -> Self {
        Train {
            seed,
            wave,
            ready: None,
            reference: None,
            reps_done: 0,
        }
    }

    fn config(&self) -> MirasConfig {
        let config = fixed_work_config(self.seed);
        if self.wave {
            config
                .try_with_distributed(WAVE.0, WAVE.1)
                .expect("msd_fast explores in parameter space")
        } else {
            config
        }
    }

    fn fresh(&self) -> (ClusterEnvAdapter, MirasTrainer) {
        let env = msd_env(self.seed);
        let trainer = MirasTrainer::new(&env, self.config());
        (env, trainer)
    }

    fn check(&mut self, report: &IterationReport, m: &mut Measurement) {
        let config = self.config();
        let text = serde_json::to_string(report).unwrap_or_default();
        let expected_dataset = config.real_steps_per_iter + config.eval_steps;
        if text.is_empty()
            || !report.model_loss.is_finite()
            || !report.eval_return.is_finite()
            || !report.synthetic_return_mean.is_finite()
        {
            m.wrong(format!("non-finite iteration report: {report:?}"));
        } else if report.rollouts_run != config.rollouts_per_iter
            || report.dataset_size != expected_dataset
        {
            m.wrong(format!(
                "iteration did {} rollouts over {} transitions, expected {} over {expected_dataset}",
                report.rollouts_run, report.dataset_size, config.rollouts_per_iter
            ));
        } else if !self.wave {
            // Asynchronous workers race for weight versions by design, so
            // only the sequential engine is held to byte-equal reports.
            match &self.reference {
                None => self.reference = Some(text),
                Some(first) if *first != text => {
                    m.wrong(format!(
                        "report differs from the first repetition's: {text}"
                    ));
                }
                Some(_) => {}
            }
        }
    }
}

impl Workload for Train {
    fn op_unit(&self) -> &'static str {
        "Algorithm-2 iteration"
    }

    fn work_unit(&self) -> &'static str {
        "synthetic steps (one DDPG update each)"
    }

    fn setup(&mut self) -> Result<u64, String> {
        // Warm the allocator and code paths with a short iteration at the
        // timed iteration's network shapes (sequential in both workloads:
        // its report is the part of set-up that must repeat exactly).
        let mut config = fixed_work_config(self.seed);
        config.real_steps_per_iter = 50;
        config.model_epochs = 10;
        config.rollouts_per_iter = 6;
        let mut env = msd_env(self.seed);
        let mut warm = MirasTrainer::new(&env, config);
        let report = warm.run_iteration(&mut env);
        let mut signature = Fnv::default();
        signature.write_bytes(
            serde_json::to_string(&report)
                .map_err(|e| format!("warm-up report: {e}"))?
                .as_bytes(),
        );
        self.ready = Some(self.fresh());
        Ok(signature.finish48())
    }

    fn measure(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Measurement, String> {
        let mut m = Measurement::default();
        let rollout_len = self.config().rollout_len;
        let mut timed_secs = 0.0;
        while m.op_ms.is_empty() || timed_secs < seconds {
            let (mut env, mut trainer) = self.ready.take().unwrap_or_else(|| self.fresh());
            let span = tracer.begin("miras-core", "run_iteration", self.reps_done);
            let start = Instant::now();
            let report = trainer.run_iteration(&mut env);
            let secs = start.elapsed().as_secs_f64();
            tracer.end(span);
            m.op_ms.push(secs * 1e3);
            timed_secs += secs;
            m.rates
                .push((report.rollouts_run * rollout_len) as f64 / secs);
            m.attempted += 1;
            if m.peak_rss_mb.is_none() {
                m.peak_rss_mb = crate::host::peak_rss_mb("self");
            }
            self.check(&report, &mut m);
            m.info.push(format!(
                "rep {}: {secs:.3} s, eval_return {:.1}",
                self.reps_done, report.eval_return
            ));
            self.reps_done += 1;
        }
        Ok(m)
    }
}
