//! Property-based tests: conservation and constraint invariants of the
//! emulated cluster, mirroring the paper's acknowledgement guarantee that
//! "task requests (and the workflows they belong to) do not get lost".

use desim::SimTime;
use microsim::{Cluster, EnvConfig, MicroserviceEnv, SimConfig};
use proptest::prelude::*;
use workflow::{BurstSpec, Ensemble, WorkflowTypeId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// No workflow is ever lost: submitted = completed + in flight, under
    /// arbitrary submission patterns and capacity churn.
    #[test]
    fn workflows_are_conserved(
        seed in 0u64..1000,
        submissions in proptest::collection::vec((0u64..300, 0usize..3), 0..60),
        retargets in proptest::collection::vec(
            (proptest::collection::vec(0usize..5, 4), 0u64..300), 0..10),
    ) {
        let mut c = Cluster::new(Ensemble::msd(), SimConfig::new(seed));
        for &(at, wf) in &submissions {
            c.submit(SimTime::from_secs(at), WorkflowTypeId::new(wf));
        }
        let mut horizon = SimTime::ZERO;
        for (targets, at) in &retargets {
            horizon = horizon.max(SimTime::from_secs(*at));
            c.run_until(SimTime::from_secs(*at));
            c.set_consumers(targets);
        }
        c.run_until(horizon + SimTime::from_secs(400));
        let completed = c.drain_completions().len();
        let submitted: u64 = c.workflows_submitted().iter().sum();
        prop_assert_eq!(submitted as usize, completed + c.workflows_in_flight());
    }

    /// With ample capacity everything eventually completes and WIP returns
    /// to zero.
    #[test]
    fn ample_capacity_drains_everything(
        seed in 0u64..1000,
        counts in proptest::collection::vec(0usize..20, 3),
    ) {
        let mut c = Cluster::new(
            Ensemble::msd(),
            SimConfig {
                startup_min: SimTime::ZERO,
                startup_max: SimTime::ZERO,
                ..SimConfig::new(seed)
            },
        );
        c.set_consumers(&[50, 50, 50, 50]);
        let total: usize = counts.iter().sum();
        for (i, &n) in counts.iter().enumerate() {
            for _ in 0..n {
                c.submit(SimTime::ZERO, WorkflowTypeId::new(i));
            }
        }
        c.run_until(SimTime::from_secs(3_000));
        prop_assert_eq!(c.drain_completions().len(), total);
        prop_assert_eq!(c.total_wip(), 0);
        prop_assert_eq!(c.workflows_in_flight(), 0);
    }

    /// The environment never applies an allocation that exceeds the budget,
    /// whatever the requested action.
    #[test]
    fn env_enforces_budget(
        seed in 0u64..1000,
        actions in proptest::collection::vec(
            proptest::collection::vec(0usize..40, 4), 1..6),
    ) {
        let ensemble = Ensemble::msd();
        let budget = ensemble.default_consumer_budget();
        let config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
        let mut env = MicroserviceEnv::new(ensemble, config);
        for action in &actions {
            let out = env.step(action);
            let applied: usize = out.metrics.action_applied.iter().sum();
            prop_assert!(applied <= budget, "applied {applied} > budget {budget}");
            let requested: usize = action.iter().sum();
            prop_assert_eq!(out.metrics.constraint_violated, requested > budget);
        }
    }

    /// Environment state equals the metrics' WIP, and reward follows the
    /// paper's Eq. (1).
    #[test]
    fn reward_consistent_with_state(
        seed in 0u64..1000,
        burst in proptest::collection::vec(0usize..50, 3),
    ) {
        let ensemble = Ensemble::msd();
        let config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
        let mut env = MicroserviceEnv::new(ensemble, config);
        env.inject_burst(&BurstSpec::new(burst));
        for _ in 0..3 {
            let out = env.step(&[4, 4, 4, 2]);
            let wip_from_state: f64 = out.state.iter().sum();
            prop_assert!((out.reward - (1.0 - wip_from_state)).abs() < 1e-9);
            let metric_wip: usize = out.metrics.total_wip();
            prop_assert_eq!(metric_wip as f64, wip_from_state);
        }
    }
}
