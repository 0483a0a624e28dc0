//! The policy line does not move: what `save_policy` writes for a
//! fixed-seed smoke agent hashes to a pinned FNV-1a, a decoded policy line
//! saves back to the same bytes, and a checkpoint's first line is that
//! policy file. The agent holds its actor packed for inference, but the
//! file holds the actor as the plain network it was packed from.

use std::path::PathBuf;

use microsim::{EnvConfig, MicroserviceEnv};
use miras_core::{
    decode_policy_line, read_policy_line, save_policy, ClusterEnvAdapter, MirasAgent, MirasConfig,
    MirasTrainer,
};
use workflow::Ensemble;

const SEED: u64 = 13;
const POLICY_VERSION: u64 = 1;

/// FNV-1a 64 of the policy file `save_policy` writes for the agent
/// [`trained`] returns, as written when the actor was still stored as an
/// unpacked network.
const POLICY_FNV1A: u64 = 0xf2d8_70cc_2032_8fae;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "miras_policy_line_{name}_{}.json",
        std::process::id()
    ))
}

/// A smoke-scale trainer after one iteration on a seeded MSD cluster, and
/// the cluster.
fn trained() -> (MirasTrainer, ClusterEnvAdapter) {
    let ensemble = Ensemble::msd();
    let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(SEED);
    let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, env_config));
    let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(SEED));
    let _ = trainer.run_iteration(&mut env);
    (trainer, env)
}

/// The bytes `save_policy` writes for `agent`.
fn policy_file(agent: &MirasAgent, name: &str) -> Vec<u8> {
    let path = temp_path(name);
    save_policy(&path, agent, POLICY_VERSION).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(path);
    bytes
}

#[test]
fn a_smoke_policy_file_keeps_its_pinned_bytes() {
    let (trainer, env) = trained();
    let bytes = policy_file(&trainer.agent(), "pinned");
    assert_eq!(
        fnv1a64(&bytes),
        POLICY_FNV1A,
        "policy file of {} bytes moved",
        bytes.len()
    );

    // A checkpoint saved at the same point starts with that file.
    let checkpoint = temp_path("checkpoint");
    trainer.save_checkpoint(&env, &checkpoint).unwrap();
    let saved = std::fs::read(&checkpoint).unwrap();
    assert!(saved.starts_with(&bytes), "checkpoint's first line differs");
    let _ = std::fs::remove_file(checkpoint);
}

#[test]
fn a_decoded_policy_line_saves_back_byte_for_byte() {
    let (trainer, _) = trained();
    let agent = trainer.agent();
    let bytes = policy_file(&agent, "original");
    let path = temp_path("decode");
    std::fs::write(&path, &bytes).unwrap();
    let line = read_policy_line(&std::fs::File::open(&path).unwrap()).unwrap();
    let _ = std::fs::remove_file(path);

    let (decoded, version) = decode_policy_line(&line).unwrap();
    assert_eq!(version, POLICY_VERSION);
    assert_eq!(decoded, agent);
    assert_eq!(policy_file(&decoded, "decoded"), bytes);
    for wip in [[0.0; 4], [12.0, 3.0, 40.0, 7.0], [1e6, 0.0, 5.0, 1.0]] {
        assert_eq!(decoded.allocate(&wip), agent.allocate(&wip), "{wip:?}");
    }
}
