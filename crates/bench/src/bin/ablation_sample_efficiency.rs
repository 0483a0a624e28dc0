//! Ablation A4: sample efficiency — model-based vs model-free (paper §I,
//! §VI-D).
//!
//! MIRAS's core claim: by training the policy against a learnt environment
//! model, it needs far fewer *real* interactions than model-free DDPG.
//! This ablation trains both at a range of real-interaction budgets and
//! evaluates each resulting greedy policy on the real environment.
//!
//! Expected shape: MIRAS's return climbs steeply with few interactions;
//! model-free DDPG needs several times the budget to approach it ("with
//! limited interactions with the real environment it doesn't converge to a
//! good policy, showing its poor sample efficiency").
//!
//! Run: `cargo run -p miras-bench --release --bin ablation_sample_efficiency`

use baselines::train_model_free;
use microsim::{EnvConfig, MicroserviceEnv};
use miras_bench::{BenchArgs, EnsembleKind};
use miras_core::{ClusterEnvAdapter, MirasTrainer};
use rl::Environment;

fn fresh_env(kind: EnsembleKind, seed: u64) -> ClusterEnvAdapter {
    let ensemble = kind.ensemble();
    let config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
    ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, config))
}

/// Greedy-policy return over `steps` real windows, given an action function.
/// Evaluation includes a deployment-like burst (the paper's smallest §VI-D
/// scenario) so that policies are scored on the regime they will face.
fn evaluate(
    kind: EnsembleKind,
    env: &mut ClusterEnvAdapter,
    steps: usize,
    steady: bool,
    mut act: impl FnMut(&[f64]) -> Vec<f64>,
) -> (f64, usize) {
    let mut s = env.reset();
    if !steady {
        env.env_mut().inject_burst(&kind.burst_scenarios()[0]);
    }
    let mut total = 0.0;
    let mut completions = 0usize;
    for _ in 0..steps {
        let a = act(&s);
        let t = env.step(&a);
        total += t.reward;
        s = t.next_state;
        if let Some(m) = env.last_metrics() {
            completions += m.completions.iter().sum::<usize>();
        }
    }
    let _ = env.take_transitions();
    (total, completions)
}

fn main() {
    let args = BenchArgs::parse("ensemble seed paper steady");
    let (telemetry, _sink) = miras_bench::init_telemetry("ablation_sample_efficiency");
    println!(
        "Ablation A4 — sample efficiency (seed {}, {} evaluation)\n",
        args.seed,
        if args.steady { "steady-state" } else { "burst" }
    );
    for kind in args.ensembles() {
        let config = kind.miras_config(args.seed, args.paper);
        let per_iter = config.real_steps_per_iter + config.eval_steps;
        let eval_steps = kind.comparison_steps();
        println!(
            "##### {} — eval return (higher is better) vs real-interaction budget #####",
            kind.name().to_uppercase()
        );
        println!(
            "{:>13} {:>12} {:>12} {:>14} {:>14}",
            "interactions", "miras_ret", "miras_done", "modelfree_ret", "modelfree_done"
        );
        for iters in [1usize, 3, 6, 12] {
            let budget = iters * per_iter;

            // MIRAS at this budget.
            let mut env = fresh_env(kind, args.seed);
            env.set_telemetry(telemetry.clone());
            let mut trainer = MirasTrainer::new(&env, config.clone());
            trainer.set_telemetry(telemetry.clone());
            for _ in 0..iters {
                let _ = trainer.run_iteration(&mut env);
            }
            let agent = trainer.agent();
            let mut eval_env = fresh_env(kind, args.seed.wrapping_add(99));
            let (miras_return, miras_done) =
                evaluate(kind, &mut eval_env, eval_steps, args.steady, |s| {
                    agent.distribution(s)
                });

            // Model-free DDPG at the same budget.
            let mut mf_env = fresh_env(kind, args.seed.wrapping_add(7));
            let mf = train_model_free(
                &mut mf_env,
                budget,
                config.reset_every,
                config.ddpg.clone(),
                config.collect_burst_max.as_deref(),
            );
            let mut eval_env2 = fresh_env(kind, args.seed.wrapping_add(99));
            let (mf_return, mf_done) =
                evaluate(kind, &mut eval_env2, eval_steps, args.steady, |s| {
                    mf.agent().act(s)
                });

            println!(
                "{budget:>13} {miras_return:>12.0} {miras_done:>12} {mf_return:>14.0} {mf_done:>14}"
            );
        }
        println!();
    }
    telemetry.flush();
}
