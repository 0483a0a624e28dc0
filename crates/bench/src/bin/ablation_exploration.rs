//! Ablation A3: parameter-space vs action-space exploration (paper §IV-D).
//!
//! The paper's argument for parameter noise: action-space noise added to the
//! softmax output frequently leaves the probability simplex — i.e. violates
//! the consumer-budget constraint — producing invalid explorations, while
//! parameter noise perturbs the network weights so every explored action is
//! still a valid distribution.
//!
//! Two measurements:
//!
//! 1. **Violation rate** — fraction of raw (unprojected) exploratory
//!    actions that leave the simplex, for both exploration modes.
//! 2. **Training quality** — MIRAS eval return per iteration when the
//!    inner DDPG explores with parameter noise vs (projected) action noise.
//!
//! Run: `cargo run -p miras-bench --release --bin ablation_exploration`

use microsim::{EnvConfig, MicroserviceEnv};
use miras_bench::{BenchArgs, EnsembleKind};
use miras_core::{ClusterEnvAdapter, MirasTrainer};
use rl::{Ddpg, DdpgConfig, Exploration};

fn violation_rate(exploration: Exploration, seed: u64) -> f64 {
    let mut config = DdpgConfig::small_test(seed);
    config.exploration = exploration;
    let mut agent = Ddpg::new(4, 4, config);
    let mut violations = 0usize;
    let trials = 2000;
    for i in 0..trials {
        let state = [
            (i % 37) as f64,
            (i % 11) as f64,
            (i % 5) as f64,
            (i % 3) as f64,
        ];
        let a = agent.act_exploratory_unprojected(&state);
        let sum: f64 = a.iter().sum();
        if (sum - 1.0).abs() > 1e-6 || a.iter().any(|&p| p < 0.0) {
            violations += 1;
        }
    }
    violations as f64 / trials as f64
}

fn training_quality(
    kind: EnsembleKind,
    seed: u64,
    iterations: usize,
    telemetry: &telemetry::Telemetry,
) {
    for (label, action_noise) in [("parameter noise", false), ("action noise", true)] {
        let ensemble = kind.ensemble();
        let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
        let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, env_config));
        env.set_telemetry(telemetry.clone());
        let mut config = kind.miras_config(seed, false);
        if action_noise {
            config = config.with_action_noise(0.15, 0.2);
        }
        let mut trainer = MirasTrainer::new(&env, config);
        trainer.set_telemetry(telemetry.clone());
        print!("  {label:>16}: eval returns =");
        for _ in 0..iterations {
            let r = trainer.run_iteration(&mut env);
            print!(" {:.0}", r.eval_return);
        }
        println!();
    }
}

fn main() {
    let args = BenchArgs::parse("ensemble seed iterations");
    let (telemetry, _sink) = miras_bench::init_telemetry("ablation_exploration");
    let iterations = args.iterations.unwrap_or(6);
    println!("Ablation A3 — exploration strategy (seed {})\n", args.seed);

    println!("raw-action constraint-violation rate (2000 exploratory actions):");
    let param = violation_rate(Exploration::ParamNoise { resample_every: 25 }, args.seed);
    let action = violation_rate(
        Exploration::ActionNoise {
            theta: 0.15,
            sigma: 0.2,
        },
        args.seed,
    );
    println!("  parameter-space noise: {:.1}%", param * 100.0);
    println!("  action-space noise   : {:.1}%", action * 100.0);
    println!("(paper: action-space noise 'often violates our constraints on total number of consumers')\n");

    for kind in args.ensembles() {
        println!(
            "##### {} — training with each exploration mode #####",
            kind.name().to_uppercase()
        );
        training_quality(kind, args.seed, iterations, &telemetry);
        println!();
    }
    telemetry.flush();
}
