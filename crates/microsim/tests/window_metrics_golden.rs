//! Golden digests of every [`WindowMetrics`] field.
//!
//! `differential.rs`'s goldens pin WIP, completions and reward; these also
//! pin window indices, applied actions, budget violations, arrivals and the
//! bits of every `mean_response_secs` entry, so a change to how the
//! emulator adds up response times must keep them bit for bit. Each run
//! also pins the events it processed. Regenerate the literals only for a
//! deliberate behaviour change, and say why in the commit message.
//!
//! The full-size `sim-large` case is `#[ignore]`d (a few seconds in
//! release); run it with
//! `cargo test --release -p microsim --test window_metrics_golden -- --ignored`.

use microsim::{EnvConfig, EnvSnapshot, MicroserviceEnv, WindowMetrics};
use workflow::{BurstSpec, Ensemble};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over one little-endian 64-bit word.
fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Folds every field of `m` into `hash`. Each vector is prefixed by its
/// length, and a `None` mean is a distinct tag word rather than a value.
fn digest(mut hash: u64, m: &WindowMetrics) -> u64 {
    hash = fnv1a(hash, m.window_index as u64);
    for v in [&m.wip, &m.action_applied, &m.arrivals, &m.completions] {
        hash = fnv1a(hash, v.len() as u64);
        for &n in v {
            hash = fnv1a(hash, n as u64);
        }
    }
    hash = fnv1a(hash, m.reward.to_bits());
    hash = fnv1a(hash, u64::from(m.constraint_violated));
    hash = fnv1a(hash, m.mean_response_secs.len() as u64);
    for mean in &m.mean_response_secs {
        hash = match mean {
            None => fnv1a(hash, 0),
            Some(secs) => fnv1a(fnv1a(hash, 1), secs.to_bits()),
        };
    }
    hash
}

/// Steps `env` through `actions`, returning the events each window
/// processed and the digest of all windows' metrics.
fn run_windows(env: &mut MicroserviceEnv, actions: &[Vec<usize>]) -> (Vec<u64>, u64) {
    let mut hash = FNV_OFFSET;
    let mut events = Vec::with_capacity(actions.len());
    for action in actions {
        let before = env.cluster().events_processed();
        let m = env.step(action).metrics;
        events.push(env.cluster().events_processed() - before);
        hash = digest(hash, &m);
    }
    (events, hash)
}

/// `episodes` × (`reset` + `inject_burst` + 12 windows). The action cycles
/// through four allocations, one of them over budget, so windows both
/// starve and drain the cluster and the budget clamp shows in the digest.
fn episodes_digest(ensemble: Ensemble, burst: &BurstSpec, episodes: usize) -> (u64, u64) {
    let j = ensemble.num_task_types();
    let budget = ensemble.default_consumer_budget();
    let config = EnvConfig::for_ensemble(&ensemble).with_seed(2024);
    let mut env = MicroserviceEnv::new(ensemble, config);
    let actions: Vec<Vec<usize>> = (0..12)
        .map(|k| match k % 4 {
            0 => vec![budget / j; j],
            1 => (0..j).map(|i| 1 + (i + k) % 3).collect(),
            2 => vec![budget; j],
            _ => vec![0; j],
        })
        .collect();
    let mut hash = FNV_OFFSET;
    for _ in 0..episodes {
        env.reset();
        env.inject_burst(burst);
        let (_, h) = run_windows(&mut env, &actions);
        hash = fnv1a(hash, h);
    }
    (env.cluster().events_processed(), hash)
}

#[test]
fn msd_and_ligo_episodes_with_resets_and_bursts() {
    let msd = episodes_digest(Ensemble::msd(), &BurstSpec::new(vec![300, 200, 300]), 3);
    assert_eq!(msd, (12_188, 15_366_648_564_944_625_643), "MSD");
    let ligo = episodes_digest(Ensemble::ligo(), &BurstSpec::new(vec![60, 40, 60, 40]), 3);
    assert_eq!(ligo, (11_453, 426_465_144_641_129_356), "LIGO");
}

/// A scaled-down `sim-large`: many workflows complete in every window, so
/// every per-type mean is an average over hundreds of completions.
#[test]
fn synthetic_ensemble_windows() {
    let ensemble = Ensemble::synthetic(32, 16, 256, 0.03);
    let (budget, j) = (
        ensemble.default_consumer_budget(),
        ensemble.num_task_types(),
    );
    let config = EnvConfig::for_ensemble(&ensemble).with_seed(42);
    let mut env = MicroserviceEnv::new(ensemble, config);
    let got = run_windows(&mut env, &vec![vec![(budget / j).max(1); j]; 3]);
    assert_eq!(
        got,
        (vec![142_295, 160_167, 156_851], 11_738_238_950_693_623_645)
    );
}

/// `sim-large`'s ensemble, seed and allocation, as the benchmark builds it.
#[test]
#[ignore = "full-size: a few seconds in release; `ci/gate.sh release` runs it with --ignored"]
fn sim_large_windows() {
    let ensemble = Ensemble::synthetic(128, 64, 1024, 0.03);
    let (budget, j) = (
        ensemble.default_consumer_budget(),
        ensemble.num_task_types(),
    );
    let config = EnvConfig::for_ensemble(&ensemble).with_seed(42);
    let mut env = MicroserviceEnv::new(ensemble, config);
    let got = run_windows(&mut env, &vec![vec![(budget / j).max(1); j]; 3]);
    assert_eq!(
        got,
        (vec![606_261, 637_179, 639_233], 4_560_126_165_182_707_069)
    );
}

/// An environment snapshot written mid-burst, with workflows in flight and
/// events pending, by an earlier build; its empty per-request completion
/// list (a snapshot is taken at a window boundary) was rewritten as
/// `completion_totals` at zero. It must decode and resume with the same
/// metrics as when that build wrote it.
#[test]
fn old_mid_burst_snapshot_resumes() {
    let json = include_str!("fixtures/msd_mid_burst_snapshot.json");
    let snap: EnvSnapshot = serde_json::from_str(json).unwrap();
    let mut env = MicroserviceEnv::from_snapshot(Ensemble::msd(), snap);
    assert!(env.cluster().workflows_in_flight() > 0);
    let got = run_windows(&mut env, &vec![vec![4, 4, 4, 2]; 6]);
    assert_eq!(
        got,
        (
            vec![160, 133, 128, 130, 112, 109],
            1_115_032_363_573_520_860
        )
    );
}
