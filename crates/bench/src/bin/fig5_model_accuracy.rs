//! Figure 5: predictive-model accuracy.
//!
//! Reproduces the paper's §VI-B protocol: collect transitions from the real
//! (emulated) system under random actions that change every 4 steps, train
//! the environment model on everything but a held-out contiguous trace of
//! 100 points, then compare against ground truth:
//!
//! * **fixed-input** one-step predictions (state and action from the real
//!   trace), and
//! * **iterative** open-loop predictions (only the initial state is real;
//!   subsequent states come from the model's own outputs, actions replayed
//!   from the trace),
//!
//! for the immediate reward and the first WIP dimension, on both MSD and
//! LIGO. Paper scale collects 14,000 (MSD) / 37,000 (LIGO) transitions;
//! the default fast scale collects 2,000 / 3,000.
//!
//! Run: `cargo run -p miras-bench --release --bin fig5_model_accuracy`
//! (add `--paper` for full scale, `--ensemble msd|ligo` to restrict).

use microsim::{EnvConfig, MicroserviceEnv};
use miras_bench::{collect_random_transitions, BenchArgs, EnsembleKind};
use miras_core::{ClusterEnvAdapter, DynamicsModel, TransitionDataset};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn mean_abs_error(truth: &[f64], pred: &[f64]) -> f64 {
    truth
        .iter()
        .zip(pred)
        .map(|(t, p)| (t - p).abs())
        .sum::<f64>()
        / truth.len() as f64
}

fn correlation(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
    let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
    if va <= 0.0 || vb <= 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

fn run_for(kind: EnsembleKind, args: &BenchArgs, telemetry: &telemetry::Telemetry) {
    let seed = args.seed;
    let (collect_steps, test_steps) = if args.smoke {
        (300, 30)
    } else {
        match (kind, args.paper) {
            (EnsembleKind::Msd, true) => (14_000, 100),
            (EnsembleKind::Ligo, true) => (37_000, 100),
            (EnsembleKind::Msd, false) => (2_000, 100),
            (EnsembleKind::Ligo, false) => (3_000, 100),
            // MSD-sized state space; use the MSD budgets.
            (EnsembleKind::GpuServe, true) => (14_000, 100),
            (EnsembleKind::GpuServe, false) => (2_000, 100),
        }
    };
    let config = args.miras_config(kind);
    let ensemble = kind.ensemble();
    let j = ensemble.num_task_types();

    println!(
        "\n##### Fig. 5 — {} (collect {} transitions, test {}) #####",
        kind.name().to_uppercase(),
        collect_steps,
        test_steps
    );

    // Training data: random actions with periodic resets (§VI-A3).
    let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
    let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble.clone(), env_config));
    env.set_telemetry(telemetry.clone());
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(0xF15));
    let mut dataset = TransitionDataset::new(j);
    dataset.extend(collect_random_transitions(
        &mut env,
        collect_steps,
        config.reset_every,
        &mut rng,
    ));

    // Held-out test trace: contiguous (no resets) so the iterative rollout
    // is well defined. A different seed keeps it disjoint from training.
    let test_env_config = EnvConfig::for_ensemble(&ensemble).with_seed(seed.wrapping_add(1));
    let mut test_env =
        ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble.clone(), test_env_config));
    let test_trace = collect_random_transitions(&mut test_env, test_steps, 0, &mut rng);

    // Train the environment model (paper-faithful architecture per §VI-A3).
    let mut model = DynamicsModel::new(j, &config);
    let final_loss =
        model.train_with_telemetry(&dataset, config.model_epochs, config.model_batch, telemetry);
    println!("model trained: final epoch MSE (standardised) = {final_loss:.4}");

    // Fixed-input one-step predictions.
    let mut truth_reward = Vec::new();
    let mut fixed_reward = Vec::new();
    let mut truth_w0 = Vec::new();
    let mut fixed_w0 = Vec::new();
    for t in &test_trace {
        let pred = model.predict(&t.state, &t.action);
        truth_reward.push(microsim::reward_from_total_wip(
            t.next_state.iter().sum::<f64>(),
        ));
        fixed_reward.push(microsim::reward_from_total_wip(pred.iter().sum::<f64>()));
        truth_w0.push(t.next_state[0]);
        fixed_w0.push(pred[0]);
    }

    // Iterative open-loop rollout: real initial state, replayed actions.
    let mut iter_reward = Vec::new();
    let mut iter_w0 = Vec::new();
    let mut state = test_trace[0].state.clone();
    for t in &test_trace {
        let pred = model.predict(&state, &t.action);
        iter_reward.push(microsim::reward_from_total_wip(pred.iter().sum::<f64>()));
        iter_w0.push(pred[0]);
        state = pred;
    }

    println!(
        "\n{:>5} {:>13} {:>13} {:>13} {:>10} {:>10} {:>10}",
        "step", "truth_reward", "fixed_reward", "iter_reward", "truth_w0", "fixed_w0", "iter_w0"
    );
    for i in 0..test_trace.len() {
        println!(
            "{:>5} {:>13.1} {:>13.1} {:>13.1} {:>10.1} {:>10.1} {:>10.1}",
            i,
            truth_reward[i],
            fixed_reward[i],
            iter_reward[i],
            truth_w0[i],
            fixed_w0[i],
            iter_w0[i]
        );
    }

    println!("\nsummary ({}):", kind.name());
    println!(
        "  reward   fixed-input: MAE={:>8.2}  corr={:.3}",
        mean_abs_error(&truth_reward, &fixed_reward),
        correlation(&truth_reward, &fixed_reward)
    );
    println!(
        "  reward   iterative  : MAE={:>8.2}  corr={:.3}",
        mean_abs_error(&truth_reward, &iter_reward),
        correlation(&truth_reward, &iter_reward)
    );
    println!(
        "  w0       fixed-input: MAE={:>8.2}  corr={:.3}",
        mean_abs_error(&truth_w0, &fixed_w0),
        correlation(&truth_w0, &fixed_w0)
    );
    println!(
        "  w0       iterative  : MAE={:>8.2}  corr={:.3}",
        mean_abs_error(&truth_w0, &iter_w0),
        correlation(&truth_w0, &iter_w0)
    );
}

fn main() {
    let args = BenchArgs::parse("ensemble seed paper smoke");
    let (telemetry, _sink) = miras_bench::init_telemetry("fig5_model_accuracy");
    println!(
        "Fig. 5 reproduction — predictive model accuracy (seed {})",
        args.seed
    );
    for kind in args.ensembles() {
        run_for(kind, &args, &telemetry);
    }
    telemetry.flush();
}
