//! A hot swap to an agent over a different number of task types is a failed
//! swap, not a crash: a LIGO-shaped agent (9 task types) written to the path
//! an MSD service (4 task types) watches is refused and counted, and the
//! old policy keeps serving. Holds for current checkpoints (policy line
//! first) and for legacy ones (training state alone).

mod common;

use std::path::PathBuf;

use baselines::{by_name, PolicyConfig};
use microsim::{EnvConfig, MicroserviceEnv};
use miras_core::{ClusterEnvAdapter, MirasAgent, MirasConfig, MirasTrainer};
use nn::{Activation, Mlp};
use rand::SeedableRng;
use serve::{load_policy, record_stream, CheckpointWatcher, DecisionService};
use telemetry::{JsonlSink, Telemetry};
use workflow::Ensemble;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "miras_serve_task_types_{name}_{}.json",
        std::process::id()
    ))
}

fn nine_task_swap_under_a_four_task_service(tag: &str, legacy: bool) {
    // MSD checkpoints after iterations 1 and 2.
    let ensemble = Ensemble::msd();
    let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(5);
    let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble.clone(), env_config));
    let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(5));
    let msd: Vec<PathBuf> = ["msd_1", "msd_2"]
        .iter()
        .map(|name| {
            trainer.run_iteration(&mut env);
            let path = temp_path(&format!("{tag}_{name}"));
            trainer.save_checkpoint(&env, &path).unwrap();
            if legacy {
                common::strip_policy_line(&path);
            }
            path
        })
        .collect();
    // An agent file as `miras-cli train --ensemble ligo` writes it.
    let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
    let actor = Mlp::new(&[9, 8, 9], Activation::Relu, Activation::Softmax, &mut rng);
    let ligo = temp_path(&format!("{tag}_ligo"));
    std::fs::write(
        &ligo,
        serde_json::to_string(&MirasAgent::new(actor, 30)).unwrap(),
    )
    .unwrap();

    let serving = temp_path(&format!("{tag}_live"));
    std::fs::copy(&msd[0], &serving).unwrap();
    let (policy, version) = load_policy(&serving).unwrap();
    assert_eq!((policy.num_task_types(), version), (4, 1));
    let sink = JsonlSink::in_memory();
    let mut svc = DecisionService::new(policy, Telemetry::new(sink.clone()))
        .with_watcher(CheckpointWatcher::new_deployed(serving.clone()));
    let mut uniform = by_name("uniform", &PolicyConfig::new(&ensemble)).unwrap();
    let lines: Vec<String> = record_stream(&ensemble, 11, 6, None, uniform.as_mut())
        .iter()
        .map(|obs| serde_json::to_string(obs).unwrap() + "\n")
        .collect();
    let mut records = svc.handle_stream(&lines[..2].concat());

    // The 9-task agent lands on the watched path: refused, and the MSD
    // policy keeps answering every window.
    std::fs::copy(&ligo, &serving).unwrap();
    records.extend(svc.handle_stream(&lines[2..4].concat()));
    assert_eq!(svc.swaps(), 0, "mismatched agent was not swapped in");
    assert_eq!(records.len(), 4, "no window dropped");
    assert!(records
        .iter()
        .all(|r| r.policy_version == 1 && r.allocations.len() == 4));

    svc.finish();
    let text = String::from_utf8(sink.take_output()).unwrap();
    let failed: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"serve.swap_failed\""))
        .collect();
    assert_eq!(failed.len(), 1, "one swap_failed event: {text}");
    assert!(
        failed[0].contains("controls 9 task types") && failed[0].contains("controls 4"),
        "the error names both counts: {}",
        failed[0]
    );
    assert!(
        text.lines()
            .any(|l| l.contains("\"serve.swap_failures\"") && l.contains("\"value\":1")),
        "serve.swap_failures counted once: {text}"
    );

    // A matching checkpoint afterwards swaps in as usual.
    std::fs::copy(&msd[1], &serving).unwrap();
    let rest = svc.handle_stream(&lines[4..].concat());
    assert_eq!(svc.swaps(), 1);
    assert!(rest.iter().all(|r| r.policy_version == 2));

    for p in msd.into_iter().chain([ligo, serving]) {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn swap_to_a_nine_task_checkpoint_under_a_four_task_service_fails_safely() {
    nine_task_swap_under_a_four_task_service("current", false);
}

#[test]
fn swap_to_a_nine_task_agent_under_a_legacy_checkpoint_fails_safely() {
    nine_task_swap_under_a_four_task_service("legacy", true);
}
