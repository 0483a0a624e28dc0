//! LIGO burst recovery: watch how an allocation policy sequences work.
//!
//! The paper's most interesting qualitative finding (§VI-D): under large
//! LIGO bursts, the learnt policy "puts aside certain tasks, e.g., Coire…
//! at the beginning and focuses on other tasks", letting response times
//! spike briefly and then recovering below the baselines. This example
//! feeds the large burst (150, 150, 80, 50) to a trained (fast-scale) MIRAS
//! agent and prints the per-task-type allocation and WIP every window, so
//! the deferral pattern is visible directly.
//!
//! Run: `cargo run --release --example ligo_burst_recovery`

use miras::prelude::*;

fn main() {
    let seed = 42;
    let ensemble = Ensemble::ligo();
    let names: Vec<String> = ensemble
        .task_types()
        .iter()
        .map(|t| t.name.clone())
        .collect();

    println!("training MIRAS on LIGO (fast scale, 8 iterations)...");
    let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
    let mut train_env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble.clone(), env_config));
    let mut trainer = MirasTrainer::new(&train_env, MirasConfig::ligo_fast(seed));
    for _ in 0..8 {
        let r = trainer.run_iteration(&mut train_env);
        println!("  iter {}: eval return {:.1}", r.iteration, r.eval_return);
    }
    let mut agent = trainer.agent();

    // Fresh environment, large burst.
    let config = EnvConfig::for_ensemble(&ensemble).with_seed(seed + 1);
    let mut env = MicroserviceEnv::new(ensemble.clone(), config);
    let burst = BurstSpec::new(vec![150, 150, 80, 50]);

    println!("\nburst (150, 150, 80, 50) of DataFind/CAT/Full/Injection, C = 30:");
    println!("task types: {names:?}");
    println!(
        "{:>5} {:>42} {:>42} {:>10}",
        "step", "allocation m(k)", "WIP w(k+1)", "resp(s)"
    );
    run_episode(
        &mut env,
        Some(&burst),
        30,
        &mut agent,
        |obs, decision, out| {
            let resp = out
                .metrics
                .overall_mean_response_secs()
                .map_or("-".to_string(), |r| format!("{r:.0}"));
            println!(
                "{:>5} {:>42} {:>42} {:>10}",
                obs.window_index,
                format!("{:?}", decision.allocations),
                format!("{:?}", out.metrics.wip),
                resp
            );
        },
    )
    .expect("a stationary workload has no trace to load");

    // How much attention did each microservice get in the first vs second
    // half of the recovery?
    println!(
        "\n(the paper: MIRAS defers Coire-class queues early under large \
         bursts, then returns to them once upstream queues drain)"
    );
}
