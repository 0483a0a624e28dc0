//! Property: checkpointing is invisible. For arbitrary seeds, interposing
//! save → load between training iterations changes nothing — the resumed
//! run's reports, agent state, and environment state are bit-identical to
//! an uninterrupted run's.

use microsim::{EnvConfig, MicroserviceEnv};
use miras_core::{ClusterEnvAdapter, MirasConfig, MirasTrainer};
use proptest::prelude::*;
use workflow::Ensemble;

fn fresh(env_seed: u64, train_seed: u64) -> (MirasTrainer, ClusterEnvAdapter) {
    let ensemble = Ensemble::msd();
    let config = EnvConfig::for_ensemble(&ensemble).with_seed(env_seed);
    let env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, config));
    let trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(train_seed));
    (trainer, env)
}

/// Trains 1 + k iterations straight through and, separately, 1 iteration,
/// save, resume, k iterations; the two must agree bit for bit.
fn save_load_train_k(env_seed: u64, train_seed: u64, k: usize) -> Result<(), TestCaseError> {
    let path =
        std::env::temp_dir().join(format!("miras_ckpt_prop_{env_seed}_{train_seed}_{k}.json"));

    // Uninterrupted run: 1 + k iterations.
    let (mut ref_trainer, mut ref_env) = fresh(env_seed, train_seed);
    let _ = ref_trainer.run_iteration(&mut ref_env);
    let mut ref_reports = Vec::new();
    for _ in 0..k {
        ref_reports.push(ref_trainer.run_iteration(&mut ref_env));
    }

    // Round-tripped run: 1 iteration, save, load, k iterations.
    let (mut trainer, mut env) = fresh(env_seed, train_seed);
    let _ = trainer.run_iteration(&mut env);
    trainer.save_checkpoint(&env, &path).unwrap();
    let (mut resumed, mut resumed_env) = MirasTrainer::resume(&path, Ensemble::msd()).unwrap();
    let mut reports = Vec::new();
    for _ in 0..k {
        reports.push(resumed.run_iteration(&mut resumed_env));
    }

    prop_assert_eq!(reports, ref_reports);
    // Bit-exact state comparison through the exact-f64 JSON round trip.
    prop_assert_eq!(
        serde_json::to_string(&resumed.agent_mut().snapshot()).unwrap(),
        serde_json::to_string(&ref_trainer.agent_mut().snapshot()).unwrap()
    );
    prop_assert_eq!(
        serde_json::to_string(&resumed_env.snapshot()).unwrap(),
        serde_json::to_string(&ref_env.snapshot()).unwrap()
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}

proptest! {
    // Each case trains several smoke iterations; keep the budget small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn save_load_train_k_is_bit_identical(
        env_seed in 0u64..1_000_000,
        train_seed in 0u64..1_000_000,
        k in 1usize..3,
    ) {
        save_load_train_k(env_seed, train_seed, k)?;
    }
}
