//! Golden DDPG update: a fixed-seed agent driven through a few hundred
//! `observe` + `train_step` + periodic `resample_perturbation` calls must
//! end in the same `Ddpg::snapshot()` JSON and emit the same `TrainStats`
//! bits, configuration by configuration.
//!
//! The update is rewritten for speed under a bit-identity contract: any
//! reordering of a floating-point sum anywhere below `train_step` — GEMM,
//! backward pass, Adam, Polyak update, batch assembly — changes these
//! hashes.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rl::{Ddpg, DdpgConfig};

const STATE_DIM: usize = 4;
const ACTION_DIM: usize = 4;
const STEPS: usize = 300;
const RESAMPLE_EVERY: usize = 25;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `(FNV-1a of the final snapshot JSON, FNV-1a of every TrainStats bit
/// pattern in order, number of updates that ran)`.
fn drive(config: DdpgConfig) -> (u64, u64, usize) {
    let mut world = SmallRng::seed_from_u64(config.seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut agent = Ddpg::new(STATE_DIM, ACTION_DIM, config);
    let mut state: Vec<f64> = (0..STATE_DIM).map(|_| world.gen_range(0.0..50.0)).collect();
    let mut stats_hash = 0xcbf2_9ce4_8422_2325u64;
    let mut updates = 0;
    for step in 0..STEPS {
        let action = agent.act_exploratory(&state);
        // WIP-like dynamics: arrivals add, the allocated share drains.
        let next: Vec<f64> = state
            .iter()
            .zip(&action)
            .map(|(&w, &a)| (w + world.gen_range(0.0..6.0) - 20.0 * a).max(0.0))
            .collect();
        let reward = 1.0 - next.iter().sum::<f64>();
        agent.observe(&state, &action, reward, &next);
        state = next;
        if let Some(stats) = agent.train_step() {
            fnv1a(&mut stats_hash, &stats.critic_loss.to_bits().to_le_bytes());
            fnv1a(&mut stats_hash, &stats.mean_q.to_bits().to_le_bytes());
            updates += 1;
        }
        if (step + 1) % RESAMPLE_EVERY == 0 {
            agent.resample_perturbation();
        }
    }
    let json = serde_json::to_string(&agent.snapshot()).expect("snapshot serialises");
    let mut snapshot_hash = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut snapshot_hash, json.as_bytes());
    (snapshot_hash, stats_hash, updates)
}

fn check(name: &str, config: DdpgConfig, snapshot: u64, stats: u64) {
    let batch = config.batch_size;
    let (got_snapshot, got_stats, updates) = drive(config);
    assert_eq!(updates, STEPS - batch + 1, "{name}: update count");
    assert_eq!(
        (got_snapshot, got_stats),
        (snapshot, stats),
        "{name}: snapshot / TrainStats hash moved: got ({got_snapshot:#018x}, {got_stats:#018x})"
    );
}

#[test]
fn default_update_is_pinned() {
    check(
        "default",
        DdpgConfig::paper(64, 42),
        0xcaa9_1326_42bf_53fb,
        0x9cea_46d6_6cd0_255e,
    );
}

#[test]
fn entropy_free_update_is_pinned() {
    let mut config = DdpgConfig::paper(64, 7);
    config.entropy_weight = 0.0;
    check(
        "entropy_weight = 0",
        config,
        0xdba4_b3c3_65b9_1e3d,
        0x8a2d_f757_ef1a_98ee,
    );
}

#[test]
fn raw_reward_update_is_pinned() {
    let mut config = DdpgConfig::paper(64, 99);
    config.normalize_rewards = false;
    check(
        "normalize_rewards = false",
        config,
        0xf177_a343_61a6_ea1c,
        0x8171_48ad_4668_7f6d,
    );
}
