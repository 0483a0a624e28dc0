//! The decision surface: the [`Policy`] trait every baseline and
//! [`MirasAgent`] implement, and the string-keyed policy registry.
//!
//! A policy maps an [`Observation`] to consumer counts
//! ([`Policy::allocate`]). [`Policy::decide`] wraps that in a typed
//! [`Decision`] carrying the allocation, the measured decision latency, and
//! the version of the policy that produced it. The serving loop
//! (`miras-serve`), the evaluation grid, the resilience benchmark, and the
//! CLI all construct policies through one API — [`by_name`] over a
//! [`PolicyConfig`] — instead of hand-rolling per-binary `match` arms.
//!
//! # Examples
//!
//! ```
//! use baselines::{by_name, Observation, PolicyConfig};
//! use workflow::Ensemble;
//!
//! let cfg = PolicyConfig::new(&Ensemble::msd());
//! let mut policy = by_name("uniform", &cfg).unwrap();
//! let decision = policy.decide(&Observation::first(&[3.0, 1.0, 0.0, 2.0]));
//! assert_eq!(decision.allocations.iter().sum::<usize>(), 14);
//! assert_eq!(decision.policy_version, 0);
//! ```

use std::fmt;
use std::time::{Duration, Instant};

use microsim::WindowMetrics;
use miras_core::MirasAgent;
use rl::Ddpg;
use workflow::Ensemble;

use crate::{
    DrsAllocator, HeftAllocator, ModelFreeDdpg, MonadAllocator, UniformAllocator,
    WipProportionalAllocator,
};

/// The decision window the model-predictive baselines (`stream`, `monad`)
/// plan over: the paper's 30 s.
const WINDOW_SECS: f64 = 30.0;

/// Everything a policy may observe when making one window's decision.
///
/// Bundling the observation into one struct keeps the [`Policy`] trait
/// stable as new observables are added, and makes the window index available
/// to policies that warm up or schedule over time. Borrowed fields keep the
/// struct copy-free: it is built fresh each window from data the harness
/// already holds.
///
/// # Examples
///
/// ```
/// use baselines::Observation;
///
/// let wip = [3.0, 1.0];
/// let obs = Observation::first(&wip);
/// assert_eq!(obs.window_index, 0);
/// assert!(obs.previous.is_none());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Observation<'a> {
    /// The current per-task-type work-in-progress vector `w(k)`.
    pub wip: &'a [f64],
    /// Metrics of the *previous* window (arrival counts, applied action,
    /// completions), absent on the very first decision. Adaptive baselines
    /// use these to update their internal estimates.
    pub previous: Option<&'a WindowMetrics>,
    /// Index `k` of the decision window about to start (0-based).
    pub window_index: usize,
}

impl<'a> Observation<'a> {
    /// Builds an observation for window `window_index`.
    #[must_use]
    pub fn new(wip: &'a [f64], previous: Option<&'a WindowMetrics>, window_index: usize) -> Self {
        Observation {
            wip,
            previous,
            window_index,
        }
    }

    /// The observation for the very first decision window: no previous
    /// metrics, index zero.
    #[must_use]
    pub fn first(wip: &'a [f64]) -> Self {
        Observation::new(wip, None, 0)
    }
}

/// One typed allocation decision.
///
/// Produced by [`Policy::decide`]; the latency is measured around the
/// underlying allocation computation only (not I/O or telemetry), which is
/// what the serving loop's <1 ms/decision budget is stated against. The
/// latency is observability-only — it never appears in the wire-format
/// decision record, so decision streams stay byte-deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Consumer counts per task type; respects the policy's budget.
    pub allocations: Vec<usize>,
    /// Wall-clock time the decision took to compute.
    pub latency: Duration,
    /// Version of the policy that produced the decision (0 for unversioned
    /// policies; checkpoint-loaded policies stamp the checkpoint's
    /// iteration here, so hot-swaps are visible in the decision stream).
    pub policy_version: u64,
}

/// A resource-allocation policy: observation in, consumer counts out.
///
/// The one object-safe decision surface every harness (serving loop,
/// evaluation grid, CLI) runs against. Every baseline and [`MirasAgent`]
/// implement it directly; obtain one by name from [`by_name`].
/// Implementations receive an [`Observation`] — the current per-task-type
/// WIP vector, the previous window's [`WindowMetrics`] (absent on the first
/// decision), and the window index. Allocations must respect the
/// implementation's consumer budget.
pub trait Policy: Send {
    /// Short name used in reports and decision records (matches the
    /// paper's figure legends: `miras`, `stream`, `heft`, `monad`, `rl`, …).
    fn name(&self) -> &str;

    /// The total-consumer constraint the policy was configured with.
    fn consumer_budget(&self) -> usize;

    /// The number of task types `J` the policy allocates over: the length
    /// of the WIP vector it accepts and of every allocation it returns.
    fn num_task_types(&self) -> usize;

    /// Consumer counts for the next window given the observation.
    fn allocate(&mut self, obs: &Observation) -> Vec<usize>;

    /// The policy's version (0 when unversioned). Checkpoint hot-swap bumps
    /// this, so consumers of a decision stream can attribute every decision
    /// to the policy revision that made it.
    fn policy_version(&self) -> u64 {
        0
    }

    /// Makes one window's decision: times [`Policy::allocate`] and stamps
    /// [`Policy::policy_version`].
    fn decide(&mut self, obs: &Observation) -> Decision {
        let start = Instant::now();
        let allocations = self.allocate(obs);
        Decision {
            allocations,
            latency: start.elapsed(),
            policy_version: self.policy_version(),
        }
    }
}

/// [`MirasAgent`] is itself a policy, so the harness can run MIRAS and the
/// baselines through one code path. The agent's policy is a pure function
/// of the WIP state, so the rest of the observation is unused.
impl Policy for MirasAgent {
    fn name(&self) -> &str {
        "miras"
    }

    fn consumer_budget(&self) -> usize {
        MirasAgent::consumer_budget(self)
    }

    fn num_task_types(&self) -> usize {
        MirasAgent::num_task_types(self)
    }

    fn allocate(&mut self, obs: &Observation) -> Vec<usize> {
        MirasAgent::allocate(self, obs.wip)
    }
}

/// Everything the registry may need to construct a policy: the ensemble,
/// plus the trained agents the learned policies run.
///
/// Built once per harness from the ensemble; trained artifacts (the MIRAS
/// agent, the model-free DDPG agent) are attached only by harnesses that
/// run the learned policies. The consumer budget is the ensemble's default
/// and the decision window the paper's 30 s.
#[derive(Debug, Clone)]
pub struct PolicyConfig {
    ensemble: Ensemble,
    miras_agent: Option<MirasAgent>,
    model_free: Option<Ddpg>,
}

impl PolicyConfig {
    /// Configuration for `ensemble`, with no trained agents attached.
    #[must_use]
    pub fn new(ensemble: &Ensemble) -> Self {
        PolicyConfig {
            ensemble: ensemble.clone(),
            miras_agent: None,
            model_free: None,
        }
    }

    /// Attaches a trained MIRAS agent, enabling the `miras` policy.
    #[must_use]
    pub fn with_miras_agent(mut self, agent: MirasAgent) -> Self {
        self.miras_agent = Some(agent);
        self
    }

    /// Attaches a trained model-free DDPG agent, enabling the `rl` policy.
    #[must_use]
    pub fn with_model_free(mut self, agent: Ddpg) -> Self {
        self.model_free = Some(agent);
        self
    }
}

/// Why the registry could not build a policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// The name is not in the registry; see [`known_policies`].
    Unknown {
        /// The name that failed to resolve.
        name: String,
    },
    /// The policy needs a trained artifact the [`PolicyConfig`] lacks.
    MissingArtifact {
        /// The policy that was requested.
        policy: &'static str,
        /// What has to be attached to the config (and how).
        artifact: &'static str,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::Unknown { name } => {
                write!(
                    f,
                    "unknown policy '{name}' (known: {})",
                    known_policies().join(", ")
                )
            }
            PolicyError::MissingArtifact { policy, artifact } => {
                write!(f, "policy '{policy}' needs {artifact}")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// The registry's policy names, in the order the benchmarks report them.
/// `drs` and `wip` are accepted as aliases for `stream` and
/// `wip-proportional`.
#[must_use]
pub fn known_policies() -> &'static [&'static str] {
    &[
        "miras",
        "uniform",
        "wip-proportional",
        "stream",
        "heft",
        "monad",
        "rl",
    ]
}

/// The registry name of the degraded-mode fallback policy the serving loop
/// uses when the primary policy misses its decision deadline: cheap
/// (O(J) integer arithmetic, no model evaluation), deterministic, and
/// artifact-free, so it can always be constructed and always answers
/// within the budget.
pub const FALLBACK_POLICY: &str = "wip-proportional";

/// Builds the serving loop's degraded-mode fallback policy
/// ([`FALLBACK_POLICY`]) for `config`.
///
/// Unlike [`by_name`] this cannot fail: the fallback is deliberately one of
/// the artifact-free registry policies, so a serving process that can start
/// at all can always degrade instead of stalling.
#[must_use]
pub fn fallback(config: &PolicyConfig) -> Box<dyn Policy> {
    by_name(FALLBACK_POLICY, config).expect("the fallback policy is artifact-free")
}

/// Builds a policy by registry name.
///
/// Static policies (`uniform`, `wip-proportional`/`wip`, `stream`/`drs`,
/// `heft`, `monad`) need only the ensemble already in the config; the
/// learned policies (`miras`, `rl`) additionally need their trained agents
/// attached via [`PolicyConfig::with_miras_agent`] /
/// [`PolicyConfig::with_model_free`].
///
/// # Errors
///
/// [`PolicyError::Unknown`] for names outside [`known_policies`],
/// [`PolicyError::MissingArtifact`] when a learned policy's agent is
/// absent.
pub fn by_name(name: &str, config: &PolicyConfig) -> Result<Box<dyn Policy>, PolicyError> {
    let ensemble = &config.ensemble;
    let j = ensemble.num_task_types();
    let budget = ensemble.default_consumer_budget();
    Ok(match name {
        "miras" => Box::new(
            config
                .miras_agent
                .clone()
                .ok_or(PolicyError::MissingArtifact {
                    policy: "miras",
                    artifact: "a trained MirasAgent (PolicyConfig::with_miras_agent)",
                })?,
        ),
        "uniform" => Box::new(UniformAllocator::new(j, budget)),
        "wip" | "wip-proportional" => Box::new(WipProportionalAllocator::new(j, budget)),
        "stream" | "drs" => Box::new(DrsAllocator::new(ensemble, budget, WINDOW_SECS)),
        "heft" => Box::new(HeftAllocator::new(ensemble, budget)),
        "monad" => Box::new(MonadAllocator::new(j, budget, WINDOW_SECS)),
        "rl" => {
            let agent = config
                .model_free
                .clone()
                .ok_or(PolicyError::MissingArtifact {
                    policy: "rl",
                    artifact: "a trained model-free Ddpg (PolicyConfig::with_model_free)",
                })?;
            Box::new(ModelFreeDdpg::new(agent, budget))
        }
        other => {
            return Err(PolicyError::Unknown {
                name: other.to_string(),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::{Activation, Mlp};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn cfg() -> PolicyConfig {
        PolicyConfig::new(&Ensemble::msd())
    }

    #[test]
    fn observation_constructors_populate_fields() {
        let wip = [1.0, 2.0];
        let metrics = WindowMetrics {
            window_index: 6,
            wip: vec![1, 2],
            reward: 0.0,
            action_applied: vec![1, 1],
            constraint_violated: false,
            arrivals: vec![0],
            completions: vec![0],
            mean_response_secs: vec![None],
        };
        let obs = Observation::new(&wip, Some(&metrics), 7);
        assert_eq!(obs.wip, &wip);
        assert_eq!(obs.previous.unwrap().window_index, 6);
        assert_eq!(obs.window_index, 7);
    }

    #[test]
    fn static_policies_build_and_respect_budget() {
        for name in [
            "uniform",
            "wip",
            "wip-proportional",
            "stream",
            "drs",
            "heft",
            "monad",
        ] {
            let mut p = by_name(name, &cfg()).unwrap();
            let d = p.decide(&Observation::first(&[5.0, 1.0, 0.0, 9.0]));
            assert!(
                d.allocations.iter().sum::<usize>() <= 14,
                "{name}: {:?}",
                d.allocations
            );
            assert_eq!(d.policy_version, 0, "{name}");
            assert_eq!(p.consumer_budget(), 14, "{name}");
            assert_eq!(p.num_task_types(), 4, "{name}");
        }
    }

    #[test]
    fn aliases_resolve_to_the_same_algorithm() {
        assert_eq!(by_name("drs", &cfg()).unwrap().name(), "stream");
        assert_eq!(
            by_name("wip", &cfg()).unwrap().name(),
            by_name("wip-proportional", &cfg()).unwrap().name()
        );
    }

    #[test]
    fn unknown_name_is_a_typed_error() {
        let err = by_name("bogus", &cfg()).err().unwrap();
        assert!(matches!(err, PolicyError::Unknown { .. }));
        assert!(err.to_string().contains("bogus"));
        assert!(err.to_string().contains("miras"));
    }

    #[test]
    fn learned_policies_require_artifacts() {
        let err = by_name("miras", &cfg()).err().unwrap();
        assert!(matches!(
            err,
            PolicyError::MissingArtifact {
                policy: "miras",
                ..
            }
        ));
        let err = by_name("rl", &cfg()).err().unwrap();
        assert!(matches!(
            err,
            PolicyError::MissingArtifact { policy: "rl", .. }
        ));
    }

    #[test]
    fn miras_builds_once_agent_is_attached() {
        let mut rng = SmallRng::seed_from_u64(0);
        let actor = Mlp::new(&[4, 8, 4], Activation::Relu, Activation::Softmax, &mut rng);
        let agent = MirasAgent::new(actor, 14);
        let config = cfg().with_miras_agent(agent.clone());
        let mut p = by_name("miras", &config).unwrap();
        assert_eq!(p.name(), "miras");
        assert_eq!(p.consumer_budget(), 14);
        assert_eq!(p.num_task_types(), 4);
        let d = p.decide(&Observation::first(&[1.0, 2.0, 3.0, 4.0]));
        assert_eq!(d.allocations, agent.allocate(&[1.0, 2.0, 3.0, 4.0]));
    }

    #[test]
    fn miras_agent_is_a_policy() {
        let mut rng = SmallRng::seed_from_u64(0);
        let actor = Mlp::new(&[4, 8, 4], Activation::Relu, Activation::Softmax, &mut rng);
        let mut agent = MirasAgent::new(actor, 14);
        let policy: &mut dyn Policy = &mut agent;
        assert_eq!(policy.name(), "miras");
        assert_eq!(policy.consumer_budget(), 14);
        let d = policy.decide(&Observation::first(&[1.0, 2.0, 3.0, 4.0]));
        assert!(d.allocations.iter().sum::<usize>() <= 14);
    }

    #[test]
    fn fallback_is_cheap_deterministic_and_budget_respecting() {
        let mut fb = fallback(&cfg());
        assert_eq!(fb.name(), FALLBACK_POLICY);
        assert_eq!(fb.consumer_budget(), 14);
        let wip = [8.0, 0.0, 1.0, 1.0];
        let a = fb.decide(&Observation::first(&wip));
        let b = fb.decide(&Observation::first(&wip));
        assert_eq!(a.allocations, b.allocations, "fallback is deterministic");
        assert!(a.allocations.iter().sum::<usize>() <= 14);
    }

    #[test]
    fn registry_order_matches_reports() {
        assert_eq!(
            known_policies(),
            &[
                "miras",
                "uniform",
                "wip-proportional",
                "stream",
                "heft",
                "monad",
                "rl"
            ]
        );
    }
}
