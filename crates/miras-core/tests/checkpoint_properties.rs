//! Property: checkpointing is invisible. For arbitrary seeds, interposing
//! save → load between training iterations changes nothing — the resumed
//! run's reports, agent state, and environment state are bit-identical to
//! an uninterrupted run's. And a checkpoint whose training state cannot
//! run is refused at resume, not at the first iteration after it.

use microsim::{EnvConfig, MicroserviceEnv};
use miras_core::{CheckpointError, ClusterEnvAdapter, MirasConfig, MirasTrainer};
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

/// Sets every `"key":<count>` in `text` to `"key":0`; returns the new text
/// and how many counts it zeroed.
fn zero_counts(text: &str, key: &str) -> (String, usize) {
    let pattern = format!("\"{key}\":");
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    let mut zeroed = 0;
    while let Some(at) = rest.find(&pattern) {
        let (head, tail) = rest.split_at(at + pattern.len());
        let digits = tail.len() - tail.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        out.push_str(head);
        if digits > 0 {
            out.push('0');
            zeroed += 1;
        }
        rest = &tail[digits..];
    }
    out.push_str(rest);
    (out, zeroed)
}

/// A fresh checkpoint edited to a zero count a run divides or batches by
/// resumes to a trainer whose first iteration would panic (or, for
/// `model_batch`, silently clamp); resume refuses each as corrupt, naming
/// the field.
#[test]
fn checkpoints_with_a_zero_count_are_refused_at_resume() {
    let path = std::env::temp_dir().join(format!("miras_ckpt_counts_{}.json", std::process::id()));
    let (mut trainer, mut env) = fresh(3, 4);
    let _ = trainer.run_iteration(&mut env);
    trainer.save_checkpoint(&env, &path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();

    // The DDPG batch size is stored twice: in the run's config and, after
    // it, in the agent snapshot's. Zeroing the snapshot's alone leaves a
    // valid run config, but an agent that is not the one it builds.
    let snapshot_at = text.find("\"batch_size\":").unwrap() + 1;
    for (key, skip, copies, field) in [
        ("lanes", 0, 1, "lanes"),
        ("reset_every", 0, 1, "reset_every"),
        ("model_batch", 0, 1, "model_batch"),
        ("batch_size", 0, 2, "ddpg.batch_size"),
        ("batch_size", snapshot_at, 1, "ddpg"),
    ] {
        let (edited, zeroed) = zero_counts(&text[skip..], key);
        assert_eq!(zeroed, copies, "{key}");
        std::fs::write(&path, format!("{}{edited}", &text[..skip])).unwrap();
        match MirasTrainer::resume(&path, Ensemble::msd()) {
            Err(CheckpointError::Corrupt(msg)) => assert!(
                msg.contains(&format!("MirasConfig.{field}:")),
                "{key}: {msg}"
            ),
            Err(e) => panic!("{key}: expected Corrupt, got {e}"),
            Ok(_) => panic!("a checkpoint with zero `{key}` resumed"),
        }
    }
    let _ = std::fs::remove_file(path);
}
