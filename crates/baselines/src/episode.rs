//! The closed-loop evaluation episode every driver runs: the paper's §VI-D
//! protocol of resetting the cluster, front-loading a burst on the
//! background traffic and letting a [`Policy`] allocate the consumers
//! window by window.

use std::io;

use microsim::{MicroserviceEnv, StepOutcome};
use workflow::BurstSpec;

use crate::{Decision, Observation, Policy};

/// Runs `policy` on `env` for `windows` decision windows and hands
/// `on_window` each window's observation, decision and outcome. The caller
/// builds `env`, so its telemetry, audit and workload settings apply.
///
/// The episode resets `env`, injects `burst` if there is one, then loads a
/// trace-replay workload's trace
/// ([`MicroserviceEnv::load_workload_trace`]). Burst first, then trace, as
/// a generated workload's background is sampled after the burst: a trace
/// of [`microsim::background_trace`] replays to the same windows as the
/// stationary run it was sampled from, with or without a burst. Each
/// window decides on the current WIP and the previous window's metrics.
///
/// Returns the number of trace arrivals replayed (0 for a generated
/// workload).
///
/// # Errors
///
/// The trace file's I/O or parse error, or an arrival naming a workflow
/// type the ensemble lacks; no window runs then.
pub fn run_episode(
    env: &mut MicroserviceEnv,
    burst: Option<&BurstSpec>,
    windows: usize,
    policy: &mut dyn Policy,
    mut on_window: impl FnMut(&Observation<'_>, &Decision, &StepOutcome),
) -> io::Result<usize> {
    let _ = env.reset();
    if let Some(burst) = burst {
        env.inject_burst(burst);
    }
    let replayed = env.load_workload_trace()?;
    let mut previous = None;
    for window in 0..windows {
        let wip = env.state();
        let observation = Observation::new(&wip, previous.as_ref(), window);
        let decision = policy.decide(&observation);
        let outcome = env.step(&decision.allocations);
        on_window(&observation, &decision, &outcome);
        previous = Some(outcome.metrics);
    }
    Ok(replayed)
}

#[cfg(test)]
mod tests {
    use microsim::{EnvConfig, WindowMetrics, WorkloadSpec};
    use workflow::Ensemble;

    use super::*;
    use crate::UniformAllocator;

    /// With trace arrivals tied with the burst at the first instant, the
    /// injection order decides the run: the episode is reset, burst, then
    /// trace, and the other order gives different windows.
    #[test]
    fn the_burst_goes_in_before_the_trace() {
        let path = std::env::temp_dir().join(format!(
            "miras_episode_tied_trace_{}.jsonl",
            std::process::id()
        ));
        let lines: String = (0..60)
            .map(|i| format!("{{\"time_micros\":0,\"workflow_type\":{}}}\n", i % 3))
            .collect();
        std::fs::write(&path, lines).unwrap();
        let ensemble = Ensemble::msd();
        let config = EnvConfig {
            workload: WorkloadSpec::TraceReplay {
                path: path.display().to_string(),
            },
            ..EnvConfig::for_ensemble(&ensemble).with_seed(3)
        };
        let burst = BurstSpec::new(vec![30, 20, 30]);
        let by_hand = |burst_first: bool| {
            let mut env = MicroserviceEnv::new(ensemble.clone(), config.clone());
            let _ = env.reset();
            if burst_first {
                env.inject_burst(&burst);
            }
            assert_eq!(env.load_workload_trace().unwrap(), 60);
            if !burst_first {
                env.inject_burst(&burst);
            }
            let windows: Vec<WindowMetrics> =
                (0..6).map(|_| env.step(&[4, 4, 3, 3]).metrics).collect();
            windows
        };
        let mut env = MicroserviceEnv::new(ensemble.clone(), config.clone());
        let mut episode = Vec::new();
        let replayed = run_episode(
            &mut env,
            Some(&burst),
            6,
            &mut UniformAllocator::new(4, 14),
            |_, decision, out| {
                assert_eq!(decision.allocations, [4, 4, 3, 3]);
                episode.push(out.metrics.clone());
            },
        );
        assert_eq!(replayed.unwrap(), 60);
        assert_eq!(episode, by_hand(true));
        assert_ne!(episode, by_hand(false));
        let _ = std::fs::remove_file(&path);
    }
}
