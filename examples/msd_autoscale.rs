//! MSD autoscaling under a request burst: MIRAS vs simple baselines.
//!
//! Trains a (fast-scale) MIRAS agent on the MSD ensemble, then injects the
//! paper's first burst — 300/200/300 requests of Type1–Type3 — and compares
//! how MIRAS, DRS (`stream`), HEFT, and a uniform split work the backlog
//! off, window by window.
//!
//! Run: `cargo run --release --example msd_autoscale`

use miras::prelude::*;

/// Runs one policy against a fresh burst scenario; returns
/// (per-window total WIP, total completions).
fn run(policy: &mut dyn Policy, seed: u64, steps: usize) -> (Vec<usize>, usize) {
    let ensemble = Ensemble::msd();
    let config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
    let mut env = MicroserviceEnv::new(ensemble, config);
    let burst = BurstSpec::new(vec![300, 200, 300]);
    let mut wip_series = Vec::new();
    let mut completions = 0;
    run_episode(&mut env, Some(&burst), steps, policy, |_, _, out| {
        wip_series.push(out.metrics.total_wip());
        completions += out.metrics.completions.iter().sum::<usize>();
    })
    .expect("a stationary workload has no trace to load");
    (wip_series, completions)
}

fn main() {
    let seed = 42;
    let steps = 25;
    let ensemble = Ensemble::msd();

    // Train MIRAS (fast scale, a few iterations).
    println!("training MIRAS (fast scale, 12 iterations)...");
    let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
    let mut train_env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble.clone(), env_config));
    let mut trainer = MirasTrainer::new(&train_env, MirasConfig::msd_fast(seed));
    for _ in 0..12 {
        let r = trainer.run_iteration(&mut train_env);
        println!("  iter {}: eval return {:.1}", r.iteration, r.eval_return);
    }
    // Every contender — trained or static — comes out of the one policy
    // registry.
    let cfg = PolicyConfig::new(&ensemble).with_miras_agent(trainer.agent());
    let mut miras = miras::baselines::by_name("miras", &cfg).unwrap();
    let mut drs = miras::baselines::by_name("stream", &cfg).unwrap();
    let mut heft = miras::baselines::by_name("heft", &cfg).unwrap();
    let mut uniform = miras::baselines::by_name("uniform", &cfg).unwrap();

    println!("\nburst 300/200/300 on top of Poisson background, {steps} windows of 30 s:");
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>8}",
        "step", "miras", "stream", "heft", "uniform"
    );
    let (m_wip, m_done) = run(miras.as_mut(), seed, steps);
    let (d_wip, d_done) = run(drs.as_mut(), seed, steps);
    let (h_wip, h_done) = run(heft.as_mut(), seed, steps);
    let (u_wip, u_done) = run(uniform.as_mut(), seed, steps);
    for i in 0..steps {
        println!(
            "{:>6} {:>8} {:>8} {:>8} {:>8}",
            i, m_wip[i], d_wip[i], h_wip[i], u_wip[i]
        );
    }
    println!("\nworkflows completed over the run:");
    println!("  miras   {m_done}");
    println!("  stream  {d_done}");
    println!("  heft    {h_done}");
    println!("  uniform {u_done}");
}
