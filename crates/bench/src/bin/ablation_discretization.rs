//! Ablation A5: action discretisation — the paper's floor rule vs largest
//! remainder.
//!
//! The paper converts the actor's softmax distribution into consumer counts
//! with `m_j = ⌊C · a_j⌋` (§IV-D). Flooring discards up to `J − 1` of the
//! `C` consumers; with C = 14 and J = 4 that is up to 21% of total capacity
//! every window, and with an entropy-regularised actor (DESIGN.md §4b) the
//! waste is systematic rather than occasional. This ablation replays the
//! same trained policy through both discretisations and measures the
//! capacity actually used and the work completed.
//!
//! Run: `cargo run -p miras-bench --release --bin ablation_discretization`

use microsim::{EnvConfig, MicroserviceEnv};
use miras_bench::{train_miras, BenchArgs, EnsembleKind};
use miras_core::MirasAgent;
use rl::policy::{allocation_floor, allocation_largest_remainder};

fn replay(kind: EnsembleKind, agent: &MirasAgent, seed: u64, floor: bool) -> (f64, usize, usize) {
    let ensemble = kind.ensemble();
    let config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
    let mut env = MicroserviceEnv::new(ensemble, config);
    let _ = env.reset();
    env.inject_burst(&kind.burst_scenarios()[0]);
    let budget = agent.consumer_budget();
    let mut used = 0usize;
    let mut completions = 0usize;
    let mut reward = 0.0;
    let steps = kind.comparison_steps();
    for _ in 0..steps {
        let dist = agent.distribution(&env.state());
        let m = if floor {
            allocation_floor(&dist, budget)
        } else {
            allocation_largest_remainder(&dist, budget)
        };
        used += m.iter().sum::<usize>();
        let out = env.step(&m);
        completions += out.metrics.completions.iter().sum::<usize>();
        reward += out.reward;
    }
    (reward, completions, used / steps)
}

fn main() {
    let args = BenchArgs::parse("ensemble seed paper smoke iterations no-cache");
    let (telemetry, _sink) = miras_bench::init_telemetry("ablation_discretization");
    println!(
        "Ablation A5 — floor vs largest-remainder discretisation (seed {})\n",
        args.seed
    );
    for kind in args.ensembles() {
        let (_, agent) = train_miras(kind, &args, !args.no_cache, true, &telemetry);
        println!(
            "##### {} — burst {:?}, same trained policy #####",
            kind.name().to_uppercase(),
            kind.burst_scenarios()[0].counts()
        );
        println!(
            "{:>20} {:>14} {:>13} {:>18}",
            "rule", "total_reward", "completions", "mean_consumers_used"
        );
        for (label, floor) in [("floor (paper)", true), ("largest remainder", false)] {
            let (reward, completions, used) = replay(kind, &agent, args.seed, floor);
            println!("{label:>20} {reward:>14.1} {completions:>13} {used:>18}");
        }
        println!(
            "(budget C = {}; flooring leaves consumers idle every window)\n",
            kind.ensemble().default_consumer_budget()
        );
    }
    telemetry.flush();
}
