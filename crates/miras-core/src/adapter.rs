//! Adapter presenting the emulated cluster as an RL environment.

use microsim::{EnvSnapshot, MicroserviceEnv, WindowMetrics};
use rl::policy::allocation_largest_remainder;
use rl::{Environment, Transition as RlTransition};
use serde::{Deserialize, Serialize};
use workflow::Ensemble;

use crate::{Transition, TransitionDataset};

/// Wraps a [`MicroserviceEnv`] as an [`rl::Environment`] whose actions are
/// softmax distributions over task types.
///
/// Each step converts the distribution into consumer counts with the
/// largest-remainder rule (the paper's `m_j = ⌊C · a_j⌋` floor, plus
/// assignment of the up-to-`J − 1` consumers the plain floor would discard
/// — see DESIGN.md §4b), applies them for one decision window, and records
/// the `(s, m, s')` tuple so the trainer can harvest model-training data
/// ([`ClusterEnvAdapter::take_transitions`]).
///
/// # Examples
///
/// ```
/// use miras_core::ClusterEnvAdapter;
/// use microsim::{EnvConfig, MicroserviceEnv};
/// use rl::Environment;
/// use workflow::Ensemble;
///
/// let ensemble = Ensemble::msd();
/// let config = EnvConfig::for_ensemble(&ensemble).with_seed(5);
/// let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, config));
/// let s = env.reset();
/// let t = env.step(&[0.25, 0.25, 0.25, 0.25]);
/// assert_eq!(t.next_state.len(), s.len());
/// assert_eq!(env.take_transitions().len(), 1);
/// ```
#[derive(Debug)]
pub struct ClusterEnvAdapter {
    env: MicroserviceEnv,
    pending: Vec<Transition>,
    last_metrics: Option<WindowMetrics>,
    current_state: Vec<f64>,
}

impl ClusterEnvAdapter {
    /// Wraps the environment.
    #[must_use]
    pub fn new(env: MicroserviceEnv) -> Self {
        let current_state = env.state();
        ClusterEnvAdapter {
            env,
            pending: Vec::new(),
            last_metrics: None,
            current_state,
        }
    }

    /// The total-consumer budget `C`.
    #[must_use]
    pub fn consumer_budget(&self) -> usize {
        self.env.consumer_budget()
    }

    /// Read access to the wrapped environment.
    #[must_use]
    pub fn env(&self) -> &MicroserviceEnv {
        &self.env
    }

    /// Mutable access to the wrapped environment (e.g. to inject bursts).
    pub fn env_mut(&mut self) -> &mut MicroserviceEnv {
        &mut self.env
    }

    /// Attaches a telemetry handle to the wrapped environment (see
    /// [`MicroserviceEnv::set_telemetry`]).
    pub fn set_telemetry(&mut self, telemetry: telemetry::Telemetry) {
        self.env.set_telemetry(telemetry);
    }

    /// Metrics of the most recent step, if any.
    #[must_use]
    pub fn last_metrics(&self) -> Option<&WindowMetrics> {
        self.last_metrics.as_ref()
    }

    /// Invariant violations recorded by the wrapped environment's
    /// simulation auditor so far. Empty unless auditing was enabled
    /// via [`microsim::SimConfig::audit`] or `MIRAS_AUDIT=1`.
    #[must_use]
    pub fn audit_violations(&self) -> &[microsim::AuditViolation] {
        self.env.audit_violations()
    }

    /// Removes and returns the recorded invariant violations, so training
    /// loops can surface them once per epoch without re-reporting.
    pub fn take_audit_violations(&mut self) -> Vec<microsim::AuditViolation> {
        self.env.take_audit_violations()
    }

    /// Removes and returns the `(s, m, s')` tuples recorded since the last
    /// call — the raw material for [`TransitionDataset`].
    pub fn take_transitions(&mut self) -> Vec<Transition> {
        std::mem::take(&mut self.pending)
    }

    /// Appends all pending transitions into `dataset`.
    pub fn drain_into(&mut self, dataset: &mut TransitionDataset) {
        for t in self.take_transitions() {
            dataset.push(t);
        }
    }

    /// Captures the adapter's complete dynamic state — the wrapped
    /// environment plus the not-yet-drained transitions — for checkpointing.
    /// Telemetry is not part of the snapshot; reattach after restoring.
    #[must_use]
    pub fn snapshot(&self) -> AdapterSnapshot {
        AdapterSnapshot {
            env: self.env.snapshot(),
            pending: self.pending.clone(),
            last_metrics: self.last_metrics.clone(),
            current_state: self.current_state.clone(),
        }
    }

    /// Rebuilds an adapter from an [`AdapterSnapshot`], continuing
    /// bit-identically with the run that produced it.
    ///
    /// # Panics
    ///
    /// Panics if `ensemble` does not match the snapshot (see
    /// [`MicroserviceEnv::from_snapshot`]).
    #[must_use]
    pub(crate) fn from_snapshot(ensemble: Ensemble, snapshot: AdapterSnapshot) -> Self {
        ClusterEnvAdapter {
            env: MicroserviceEnv::from_snapshot(ensemble, snapshot.env),
            pending: snapshot.pending,
            last_metrics: snapshot.last_metrics,
            current_state: snapshot.current_state,
        }
    }
}

/// Serializable checkpoint of a [`ClusterEnvAdapter`]'s full dynamic state.
///
/// An opaque token: its only contract is that
/// `ClusterEnvAdapter::from_snapshot` resumes bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdapterSnapshot {
    env: EnvSnapshot,
    pending: Vec<Transition>,
    last_metrics: Option<WindowMetrics>,
    current_state: Vec<f64>,
}

impl Environment for ClusterEnvAdapter {
    fn state_dim(&self) -> usize {
        self.env.num_task_types()
    }

    fn action_dim(&self) -> usize {
        self.env.num_task_types()
    }

    fn reset(&mut self) -> Vec<f64> {
        let s = self.env.reset();
        self.current_state = s.clone();
        s
    }

    fn step(&mut self, action: &[f64]) -> RlTransition {
        let allocation = allocation_largest_remainder(action, self.env.consumer_budget());
        let outcome = self.env.step(&allocation);
        self.pending.push(Transition {
            state: self.current_state.clone(),
            action: allocation.iter().map(|&m| m as f64).collect(),
            next_state: outcome.state.clone(),
        });
        self.current_state = outcome.state.clone();
        self.last_metrics = Some(outcome.metrics);
        RlTransition {
            next_state: outcome.state,
            reward: outcome.reward,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microsim::EnvConfig;
    use workflow::Ensemble;

    fn adapter(seed: u64) -> ClusterEnvAdapter {
        let ensemble = Ensemble::msd();
        let config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
        ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, config))
    }

    #[test]
    fn dims_match_ensemble() {
        let a = adapter(0);
        assert_eq!(a.state_dim(), 4);
        assert_eq!(a.action_dim(), 4);
        assert_eq!(a.consumer_budget(), 14);
    }

    #[test]
    fn step_applies_largest_remainder_rule() {
        let mut a = adapter(1);
        let _ = a.reset();
        let _ = a.step(&[0.5, 0.25, 0.25, 0.0]);
        let metrics = a.last_metrics().unwrap();
        assert_eq!(metrics.action_applied, vec![7, 4, 3, 0]);
        assert!(!metrics.constraint_violated);
    }

    #[test]
    fn transitions_record_applied_allocation() {
        let mut a = adapter(2);
        let s0 = a.reset();
        let t = a.step(&[0.25; 4]);
        let recorded = a.take_transitions();
        assert_eq!(recorded.len(), 1);
        assert_eq!(recorded[0].state, s0);
        assert_eq!(recorded[0].action, vec![4.0, 4.0, 3.0, 3.0]);
        assert_eq!(recorded[0].next_state, t.next_state);
        // Taking again yields nothing.
        assert!(a.take_transitions().is_empty());
    }

    #[test]
    fn drain_into_fills_dataset() {
        let mut a = adapter(3);
        let _ = a.reset();
        for _ in 0..5 {
            let _ = a.step(&[0.25; 4]);
        }
        let mut d = TransitionDataset::new(4);
        a.drain_into(&mut d);
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn reset_resyncs_current_state() {
        let mut a = adapter(4);
        let _ = a.reset();
        let _ = a.step(&[0.0, 0.0, 0.0, 0.0]); // WIP accumulates
        let s = a.reset();
        let _ = a.step(&[0.25; 4]);
        let recorded = a.take_transitions();
        assert_eq!(recorded[1].state, s);
    }
}
