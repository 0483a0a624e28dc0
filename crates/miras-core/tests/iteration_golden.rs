//! Golden Algorithm-2 iterations: a fixed-seed `smoke_test` trainer run for
//! three outer iterations must report the same bits in every
//! `IterationReport` field and end with the same numbers in its actor and
//! critic networks (online and target) and in its dataset `D`,
//! configuration by configuration.
//!
//! `train_step_golden` pins the DDPG update and the microsim golden traces
//! pin the emulator; this pins the loop between them: collection with
//! ε-mixing and injected bursts, model fit, refinement, the rollout engine
//! and evaluation. The network and dataset hashes cover numbers only (every
//! integer and float of the serialised value, in order), never key names,
//! so a serialised config losing or renaming a key cannot move them.

use microsim::{EnvConfig, MicroserviceEnv};
use miras_core::{ClusterEnvAdapter, MirasConfig, MirasTrainer};
use serde::value::{to_value, Value};
use workflow::Ensemble;

const ITERATIONS: usize = 3;
const SEED: u64 = 11;
/// The networks whose parameters are hashed, by agent-snapshot field.
const NETWORKS: [&str; 4] = ["actor", "actor_target", "critic", "critic_target"];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Folds every number below `value` into `hash`, depth first.
fn fold_numbers(hash: &mut u64, value: &Value) {
    match value {
        Value::Int(i) => fnv1a(hash, &i.to_le_bytes()),
        Value::UInt(u) => fnv1a(hash, &u.to_le_bytes()),
        Value::Float(f) => fnv1a(hash, &f.to_bits().to_le_bytes()),
        Value::Array(items) => items.iter().for_each(|v| fold_numbers(hash, v)),
        Value::Object(fields) => fields.iter().for_each(|(_, v)| fold_numbers(hash, v)),
        Value::Null | Value::Bool(_) | Value::String(_) => {}
    }
}

/// FNV-1a hashes of `[every report's float bits, the networks' numbers,
/// the dataset's numbers]`. The reports' count fields are checked exactly.
fn run(config: MirasConfig) -> [u64; 3] {
    let ensemble = Ensemble::msd();
    let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(5);
    let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, env_config));
    let per_iter = config.real_steps_per_iter + config.eval_steps;
    let (steps, rollouts) = (config.real_steps_per_iter, config.rollouts_per_iter);
    let mut trainer = MirasTrainer::new(&env, config);
    let mut hashes = [0xcbf2_9ce4_8422_2325u64; 3];
    for i in 0..ITERATIONS {
        let r = trainer.run_iteration(&mut env);
        let counts = (
            r.iteration,
            r.steps_collected,
            r.dataset_size,
            r.rollouts_run,
        );
        assert_eq!(counts, (i, steps, (i + 1) * per_iter, rollouts));
        let sigma = r
            .exploration_sigma
            .expect("smoke_test explores in parameter space");
        for x in [r.model_loss, r.synthetic_return_mean, r.eval_return, sigma] {
            fnv1a(&mut hashes[0], &x.to_bits().to_le_bytes());
        }
    }
    let Value::Object(fields) = to_value(&trainer.agent_mut().snapshot()).unwrap() else {
        panic!("a snapshot serialises as an object");
    };
    for name in NETWORKS {
        let (_, net) = fields.iter().find(|(k, _)| k == name).expect(name);
        fold_numbers(&mut hashes[1], net);
    }
    fold_numbers(&mut hashes[2], &to_value(trainer.dataset()).unwrap());
    hashes
}

fn check(config: MirasConfig, want: [u64; 3]) {
    let got = run(config);
    assert_eq!(
        got, want,
        "[reports, networks, dataset] hashes moved: got {got:#018x?}"
    );
}

#[test]
fn one_lane_iterations_are_pinned() {
    let config = MirasConfig::smoke_test(SEED).try_with_lockstep(1).unwrap();
    check(
        config,
        [
            0x5f47_f2bd_fe3f_2224,
            0x1177_7bda_4869_eb27,
            0xe429_8f9d_60e2_2c50,
        ],
    );
}

#[test]
fn three_lane_iterations_are_pinned() {
    let config = MirasConfig::smoke_test(SEED).try_with_lockstep(3).unwrap();
    check(
        config,
        [
            0xf0b0_26c0_e183_8bf1,
            0x97da_2e09_83a1_575f,
            0xc8b2_79fb_7ba2_9155,
        ],
    );
}

#[test]
fn burst_collection_iterations_are_pinned() {
    let config = MirasConfig {
        collect_burst_max: Some(vec![40, 25, 40]),
        ..MirasConfig::smoke_test(SEED)
    };
    check(
        config,
        [
            0x92d1_74fb_91ce_e76d,
            0x72a1_ff71_dd7d_ae29,
            0xeb2c_89ac_a284_f5c6,
        ],
    );
}
