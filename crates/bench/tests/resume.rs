//! Crash-safety guarantees, end to end: a training run killed after a
//! checkpoint and resumed from disk must be bit-identical to one that was
//! never interrupted, and damaged checkpoints must be rejected cleanly.

use microsim::{EnvConfig, MicroserviceEnv};
use miras_core::{CheckpointError, ClusterEnvAdapter, MirasConfig, MirasTrainer};
use workflow::Ensemble;

fn fresh(seed: u64) -> (MirasTrainer, ClusterEnvAdapter) {
    let ensemble = Ensemble::msd();
    let config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
    let env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, config));
    let trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(seed.wrapping_add(100)));
    (trainer, env)
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("miras_resume_test_{name}.json"))
}

/// Property over seeds: for every seed, save → load → train(k) equals an
/// uninterrupted train(k), bit for bit. The comparison serializes the full
/// post-training state (agent snapshot + environment snapshot) through the
/// vendored serde_json, which round-trips f64 exactly.
#[test]
fn save_load_train_is_bit_identical_across_seeds() {
    for seed in [3u64, 17, 61] {
        let path = temp_path(&format!("prop_{seed}"));

        // Uninterrupted reference run: 2 iterations.
        let (mut ref_trainer, mut ref_env) = fresh(seed);
        let _ = ref_trainer.run_iteration(&mut ref_env);
        let ref_report = ref_trainer.run_iteration(&mut ref_env);

        // Killed run: 1 iteration, checkpoint, process "dies".
        let (mut trainer, mut env) = fresh(seed);
        let _ = trainer.run_iteration(&mut env);
        trainer.save_checkpoint(&env, &path).unwrap();
        drop(trainer);
        drop(env);

        // Resurrected run: resume from disk, continue.
        let (mut resumed, mut env) = MirasTrainer::resume(&path, Ensemble::msd()).unwrap();
        let report = resumed.run_iteration(&mut env);

        assert_eq!(report, ref_report, "report diverged for seed {seed}");
        let a = serde_json::to_string(&resumed.agent_mut().snapshot()).unwrap();
        let b = serde_json::to_string(&ref_trainer.agent_mut().snapshot()).unwrap();
        assert_eq!(a, b, "agent state diverged for seed {seed}");
        let ea = serde_json::to_string(&env.snapshot()).unwrap();
        let eb = serde_json::to_string(&ref_env.snapshot()).unwrap();
        assert_eq!(ea, eb, "environment state diverged for seed {seed}");
        std::fs::remove_file(&path).ok();
    }
}

/// A checkpoint truncated at any point — as a crash racing the filesystem
/// could leave it, were the save not atomic — must be rejected as corrupt,
/// never half-loaded.
#[test]
fn truncated_checkpoints_are_rejected_at_every_cut() {
    let path = temp_path("truncation");
    let (mut trainer, mut env) = fresh(23);
    let _ = trainer.run_iteration(&mut env);
    trainer.save_checkpoint(&env, &path).unwrap();
    let full = std::fs::read_to_string(&path).unwrap();

    for fraction in [0, 1, 2, 3] {
        let cut = full.len() * fraction / 4 + fraction; // 0, ~¼, ~½, ~¾
        let cut = cut.min(full.len() - 1);
        std::fs::write(&path, &full[..cut]).unwrap();
        let err = MirasTrainer::resume(&path, Ensemble::msd()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Corrupt(_)),
            "cut at {cut}/{} gave {err}",
            full.len()
        );
    }

    // The intact payload still loads after all that abuse.
    std::fs::write(&path, &full).unwrap();
    assert!(MirasTrainer::resume(&path, Ensemble::msd()).is_ok());
    std::fs::remove_file(&path).ok();
}

/// Garbage that is valid JSON, laid out as a checkpoint of the current
/// format version (2), but not a checkpoint is also rejected.
#[test]
fn foreign_json_is_rejected() {
    let path = temp_path("foreign");
    std::fs::write(&path, "{}\n{\"version\":2,\"surprise\":true}").unwrap();
    let err = MirasTrainer::resume(&path, Ensemble::msd()).unwrap_err();
    assert!(matches!(err, CheckpointError::Corrupt(_)), "got {err}");
    std::fs::remove_file(&path).ok();
}
