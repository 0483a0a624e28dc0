//! Integration tests for every policy against the real emulator, on every
//! ensemble, under burst and steady-state workloads.

use baselines::{by_name, known_policies};
use miras::nn::{Activation, Mlp};
use miras::prelude::*;
use rand::SeedableRng;

/// Runs a policy for `steps` windows; returns (final WIP, completions).
/// Every decision must allocate over all `J` task types, stay within the
/// policy's budget, and never trip the emulator's constraint check.
fn drive(
    ensemble: Ensemble,
    seed: u64,
    burst: Option<BurstSpec>,
    steps: usize,
    allocator: &mut dyn Policy,
) -> (usize, usize) {
    let j = ensemble.num_task_types();
    let config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
    let mut env = MicroserviceEnv::new(ensemble, config);
    let name = allocator.name().to_string();
    let budget = allocator.consumer_budget();
    let mut completions = 0;
    let mut final_wip = 0;
    run_episode(
        &mut env,
        burst.as_ref(),
        steps,
        allocator,
        |_, decision, out| {
            let m = &decision.allocations;
            assert_eq!(m.len(), j, "{name} allocation length");
            let total: usize = m.iter().sum();
            assert!(total <= budget, "{name} exceeded budget: {m:?}");
            assert!(!out.metrics.constraint_violated, "{name}");
            completions += out.metrics.completions.iter().sum::<usize>();
            final_wip = out.metrics.total_wip();
        },
    )
    .unwrap();
    (final_wip, completions)
}

/// Every registered policy for `ensemble`, in registry order, the learned
/// ones with freshly built (untrained) agents attached.
fn registry(ensemble: &Ensemble) -> Vec<Box<dyn Policy>> {
    let j = ensemble.num_task_types();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(23);
    let actor = Mlp::new(&[j, 16, j], Activation::Relu, Activation::Softmax, &mut rng);
    let config = PolicyConfig::new(ensemble)
        .with_miras_agent(MirasAgent::new(actor, ensemble.default_consumer_budget()))
        .with_model_free(Ddpg::new(j, j, DdpgConfig::small_test(23)));
    known_policies()
        .iter()
        .map(|name| by_name(name, &config).unwrap())
        .collect()
}

/// The static baselines: the registry minus the learned policies.
fn all_allocators(ensemble: &Ensemble) -> impl Iterator<Item = Box<dyn Policy>> {
    registry(ensemble)
        .into_iter()
        .filter(|p| !matches!(p.name(), "miras" | "rl"))
}

#[test]
fn every_registered_policy_conforms_on_every_ensemble() {
    for ensemble in [Ensemble::msd(), Ensemble::ligo(), Ensemble::gpu_serve()] {
        let burst = BurstSpec::new(vec![20; ensemble.num_workflow_types()]);
        let policies = registry(&ensemble);
        assert_eq!(policies.len(), known_policies().len());
        for mut policy in policies {
            assert_eq!(policy.num_task_types(), ensemble.num_task_types());
            drive(
                ensemble.clone(),
                23,
                Some(burst.clone()),
                6,
                policy.as_mut(),
            );
        }
    }
}

#[test]
fn every_allocator_survives_msd_steady_state() {
    let ensemble = Ensemble::msd();
    for mut alloc in all_allocators(&ensemble) {
        let (wip, done) = drive(ensemble.clone(), 11, None, 20, alloc.as_mut());
        assert!(done > 0, "{} completed nothing", alloc.name());
        // Offered load fits in the budget; adaptive allocators must keep the
        // backlog bounded.
        assert!(wip < 500, "{} WIP exploded: {wip}", alloc.name());
    }
}

#[test]
fn every_allocator_survives_ligo_burst() {
    let ensemble = Ensemble::ligo();
    let burst = BurstSpec::new(vec![50, 50, 25, 15]);
    for mut alloc in all_allocators(&ensemble) {
        let (_, done) = drive(
            ensemble.clone(),
            13,
            Some(burst.clone()),
            30,
            alloc.as_mut(),
        );
        assert!(done > 0, "{} completed nothing under burst", alloc.name());
    }
}

#[test]
fn adaptive_allocators_beat_uniform_on_skewed_bursts() {
    // A burst hitting only Type1 (A → B → C): WIP-aware policies should
    // clear more work than the blind uniform split.
    let ensemble = Ensemble::msd();
    let burst = BurstSpec::new(vec![200, 0, 0]);
    let mut uniform = UniformAllocator::new(4, 14);
    let (u_wip, _) = drive(ensemble.clone(), 17, Some(burst.clone()), 20, &mut uniform);
    let mut monad = MonadAllocator::new(4, 14, 30.0);
    let (m_wip, _) = drive(ensemble.clone(), 17, Some(burst.clone()), 20, &mut monad);
    let mut prop = WipProportionalAllocator::new(4, 14);
    let (p_wip, _) = drive(ensemble, 17, Some(burst), 20, &mut prop);
    assert!(
        m_wip <= u_wip && p_wip <= u_wip,
        "monad {m_wip}, prop {p_wip}, uniform {u_wip}"
    );
}

#[test]
fn model_free_ddpg_trains_and_allocates() {
    let ensemble = Ensemble::msd();
    let config = EnvConfig::for_ensemble(&ensemble).with_seed(19);
    let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble.clone(), config));
    let mut policy =
        baselines::train_model_free(&mut env, 40, 20, DdpgConfig::small_test(19), None);
    let (_, done) = drive(
        ensemble,
        19,
        Some(BurstSpec::new(vec![30, 20, 30])),
        15,
        &mut policy,
    );
    assert!(done > 0);
}

#[test]
fn drs_respects_stability_on_both_ensembles() {
    for ensemble in [Ensemble::msd(), Ensemble::ligo()] {
        let budget = ensemble.default_consumer_budget();
        let mut drs = DrsAllocator::new(&ensemble, budget, 30.0);
        let alloc = drs.allocate(&Observation::first(&vec![0.0; ensemble.num_task_types()]));
        let lambda = drs.task_arrival_rates();
        for (j, ((&l, &m), t)) in lambda
            .iter()
            .zip(&alloc)
            .zip(ensemble.task_types())
            .enumerate()
        {
            if l > 0.0 {
                let mu = 1.0 / t.mean_service_secs;
                assert!(
                    m as f64 * mu > l,
                    "{} queue {j} unstable: m={m}, λ={l:.3}, μ={mu:.3}",
                    ensemble.name()
                );
            }
        }
    }
}
