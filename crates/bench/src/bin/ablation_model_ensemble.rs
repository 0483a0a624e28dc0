//! Ablation A6 (extension): single environment model vs a deep ensemble.
//!
//! The paper's Fig. 5 shows its single model's iterative (open-loop)
//! predictions drifting through cumulative error. The standard model-based
//! RL remedy — an ensemble of independently initialised models whose mean
//! prediction is used (Nagabandi et al., the paper's ref \[25\]) — is
//! implemented in `miras_core::EnsembleDynamics`. This ablation repeats the
//! Fig. 5 protocol with both and compares one-step and open-loop accuracy,
//! plus the ensemble's disagreement signal in and out of distribution.
//!
//! Run: `cargo run -p miras-bench --release --bin ablation_model_ensemble`

use microsim::{EnvConfig, MicroserviceEnv};
use miras_bench::{collect_random_transitions, BenchArgs};
use miras_core::{
    ClusterEnvAdapter, DynamicsModel, EnsembleDynamics, Transition, TransitionDataset,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Mean absolute error of one-step and open-loop predictions over a test
/// trace, for an arbitrary predictor.
fn accuracy(
    test: &[Transition],
    mut predict: impl FnMut(&[f64], &[f64]) -> Vec<f64>,
) -> (f64, f64) {
    let mut one_step = 0.0;
    let mut open_loop = 0.0;
    let mut state = test[0].state.clone();
    let dims = test[0].state.len() as f64;
    for t in test {
        let fixed = predict(&t.state, &t.action);
        one_step += fixed
            .iter()
            .zip(&t.next_state)
            .map(|(p, y)| (p - y).abs())
            .sum::<f64>()
            / dims;
        let rolled = predict(&state, &t.action);
        open_loop += rolled
            .iter()
            .zip(&t.next_state)
            .map(|(p, y)| (p - y).abs())
            .sum::<f64>()
            / dims;
        state = rolled;
    }
    let n = test.len() as f64;
    (one_step / n, open_loop / n)
}

fn main() {
    let args = BenchArgs::parse();
    let (telemetry, _sink) = miras_bench::init_telemetry("ablation_model_ensemble");
    println!(
        "Ablation A6 — single model vs deep ensemble (seed {})\n",
        args.seed
    );
    for kind in args.ensembles() {
        let ensemble = kind.ensemble();
        let j = ensemble.num_task_types();
        let config = kind.miras_config(args.seed, args.paper);
        let mut rng = SmallRng::seed_from_u64(args.seed.wrapping_add(0xE5));

        let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(args.seed);
        let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble.clone(), env_config));
        env.set_telemetry(telemetry.clone());
        let mut dataset = TransitionDataset::new(j);
        dataset.extend(collect_random_transitions(
            &mut env,
            2_000,
            config.reset_every,
            &mut rng,
        ));

        let test_config = EnvConfig::for_ensemble(&ensemble).with_seed(args.seed + 1);
        let mut test_env =
            ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble.clone(), test_config));
        let test = collect_random_transitions(&mut test_env, 100, 0, &mut rng);

        let mut single = DynamicsModel::new(j, &config);
        let _ = single.train_with_telemetry(
            &dataset,
            config.model_epochs,
            config.model_batch,
            &telemetry,
        );
        let mut ens = EnsembleDynamics::new(j, &config, 5);
        let _ = ens.train(&dataset, config.model_epochs, config.model_batch);

        let (s_one, s_open) = accuracy(&test, |s, a| single.predict(s, a));
        let (e_one, e_open) = accuracy(&test, |s, a| ens.predict_mean(s, a));

        println!(
            "##### {} (2000 train transitions, 100-step open-loop test) #####",
            kind.name().to_uppercase()
        );
        println!(
            "{:>18} {:>14} {:>14}",
            "model", "one-step MAE", "open-loop MAE"
        );
        println!("{:>18} {:>14.2} {:>14.2}", "single (paper)", s_one, s_open);
        println!("{:>18} {:>14.2} {:>14.2}", "ensemble of 5", e_one, e_open);

        // Disagreement as an out-of-distribution detector.
        let typical = &test[test.len() / 2];
        let in_dist = ens.disagreement(&typical.state, &typical.action);
        let far_state: Vec<f64> = typical.state.iter().map(|&v| v * 20.0 + 500.0).collect();
        let out_dist = ens.disagreement(&far_state, &typical.action);
        println!(
            "disagreement: in-distribution {in_dist:.2}, far out-of-distribution {out_dist:.2}\n"
        );
    }
    telemetry.flush();
}
