//! Ablation A2: Lend–Giveback model refinement (paper §IV-C2).
//!
//! Two measurements:
//!
//! 1. **Model level** — one-step prediction error of the raw vs refined
//!    model, split by whether the source state touches the WIP ≈ 0 boundary
//!    (any dimension below its τ_j threshold). The paper's claim: near the
//!    boundary the raw model is dominated by system randomness; Lend–
//!    Giveback evaluates it in the well-sampled region instead.
//! 2. **Policy level** — final evaluation return of MIRAS trained with and
//!    without refinement, all else equal.
//!
//! Run: `cargo run -p miras-bench --release --bin ablation_refinement`

use microsim::{EnvConfig, MicroserviceEnv};
use miras_bench::{collect_random_transitions, BenchArgs, EnsembleKind};
use miras_core::{ClusterEnvAdapter, DynamicsModel, MirasTrainer, RefinedModel, TransitionDataset};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn model_level(kind: EnsembleKind, seed: u64) {
    let ensemble = kind.ensemble();
    let j = ensemble.num_task_types();
    let config = kind.miras_config(seed, false);
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(0xAB1));

    let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
    let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble.clone(), env_config));
    let mut dataset = TransitionDataset::new(j);
    dataset.extend(collect_random_transitions(
        &mut env,
        1500,
        config.reset_every,
        &mut rng,
    ));

    let test_config = EnvConfig::for_ensemble(&ensemble).with_seed(seed + 1);
    let mut test_env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble.clone(), test_config));
    let test = collect_random_transitions(&mut test_env, 400, config.reset_every, &mut rng);

    let mut model = DynamicsModel::new(j, &config);
    let _ = model.train(&dataset, config.model_epochs, config.model_batch);
    let refined = RefinedModel::fit(model.clone(), &dataset, config.refine_percentile);

    let mut raw_boundary = (0.0, 0usize);
    let mut ref_boundary = (0.0, 0usize);
    let mut raw_interior = (0.0, 0usize);
    let mut ref_interior = (0.0, 0usize);
    for t in &test {
        let at_boundary = t.state.iter().zip(refined.tau()).any(|(&s, &tau)| s < tau);
        let raw_pred = model.predict(&t.state, &t.action);
        let ref_pred = refined.predict(&t.state, &t.action, &mut rng);
        let mae = |pred: &[f64]| {
            pred.iter()
                .zip(&t.next_state)
                .map(|(p, y)| (p - y).abs())
                .sum::<f64>()
                / j as f64
        };
        if at_boundary {
            raw_boundary.0 += mae(&raw_pred);
            raw_boundary.1 += 1;
            ref_boundary.0 += mae(&ref_pred);
            ref_boundary.1 += 1;
        } else {
            raw_interior.0 += mae(&raw_pred);
            raw_interior.1 += 1;
            ref_interior.0 += mae(&ref_pred);
            ref_interior.1 += 1;
        }
    }
    let avg = |(s, n): (f64, usize)| if n > 0 { s / n as f64 } else { f64::NAN };
    println!(
        "model-level MAE ({}): boundary raw={:.2} refined={:.2} ({} pts); \
         interior raw={:.2} refined={:.2} ({} pts)",
        kind.name(),
        avg(raw_boundary),
        avg(ref_boundary),
        ref_boundary.1,
        avg(raw_interior),
        avg(ref_interior),
        ref_interior.1
    );
}

fn policy_level(
    kind: EnsembleKind,
    seed: u64,
    iterations: usize,
    telemetry: &telemetry::Telemetry,
) {
    for (label, refine) in [("with refinement", true), ("without refinement", false)] {
        let ensemble = kind.ensemble();
        let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
        let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, env_config));
        env.set_telemetry(telemetry.clone());
        let mut config = kind.miras_config(seed, false);
        config.refine_enabled = refine;
        let mut trainer = MirasTrainer::new(&env, config);
        trainer.set_telemetry(telemetry.clone());
        let mut last = f64::NAN;
        for _ in 0..iterations {
            last = trainer.run_iteration(&mut env).eval_return;
        }
        println!(
            "policy-level ({}, {label}): final eval return = {last:.1}",
            kind.name()
        );
    }
}

fn main() {
    let args = BenchArgs::parse();
    let (telemetry, _sink) = miras_bench::init_telemetry("ablation_refinement");
    let iterations = args.iterations.unwrap_or(6);
    println!(
        "Ablation A2 — Lend–Giveback refinement (seed {})\n",
        args.seed
    );
    for kind in args.ensembles() {
        println!("##### {} #####", kind.name().to_uppercase());
        model_level(kind, args.seed);
        policy_level(kind, args.seed, iterations, &telemetry);
        println!();
    }
    telemetry.flush();
}
