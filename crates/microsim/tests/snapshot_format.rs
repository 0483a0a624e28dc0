//! Pins the checkpoint bytes of [`MicroserviceEnv::snapshot`].
//!
//! The cluster's in-memory layout may change (how the event queue stores
//! its wheel, how predecessor counts are kept), but a snapshot's
//! `serde_json` bytes may not: checkpoints written by earlier builds must
//! keep loading and resuming bit-identically. Each snapshot is taken
//! mid-burst, with workflows in flight and events pending, so every part of
//! the cluster's state is non-trivial. Regenerate the literals only for a
//! deliberate format change, and say why in the commit message.
//!
//! Deliberate format changes so far: the cluster's per-request
//! `"completions":[]` list became `"completion_totals":{"count":[0,..],
//! "response_secs_sum":[0.0,..]}`, one entry per workflow type. Every other
//! byte stayed the same, and files holding the old key still resume (see
//! `window_metrics_golden.rs`).

use microsim::{EnvConfig, EnvSnapshot, MicroserviceEnv};
use workflow::{BurstSpec, Ensemble};

/// FNV-1a 64-bit over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `reset` + `inject_burst` + `windows` steps at a fixed allocation
/// and returns the snapshot's JSON text, checking that the restored
/// environment serialises to the very same text.
fn mid_burst_snapshot(
    ensemble: &Ensemble,
    burst: &BurstSpec,
    action: &[usize],
    windows: usize,
) -> String {
    let config = EnvConfig::for_ensemble(ensemble).with_seed(2024);
    let mut env = MicroserviceEnv::new(ensemble.clone(), config);
    env.reset();
    env.inject_burst(burst);
    for _ in 0..windows {
        let _ = env.step(action);
    }
    assert!(
        env.cluster().workflows_in_flight() > 0,
        "the snapshot must catch workflows in flight"
    );
    let json = serde_json::to_string(&env.snapshot()).unwrap();
    let snap: EnvSnapshot = serde_json::from_str(&json).unwrap();
    let restored = MicroserviceEnv::from_snapshot(ensemble.clone(), snap);
    assert_eq!(
        serde_json::to_string(&restored.snapshot()).unwrap(),
        json,
        "a restored environment must snapshot to the same bytes"
    );
    json
}

#[test]
fn msd_mid_burst_snapshot_bytes_are_pinned() {
    let json = mid_burst_snapshot(
        &Ensemble::msd(),
        &BurstSpec::new(vec![300, 200, 300]),
        &[4, 4, 4, 2],
        3,
    );
    assert_eq!(
        (json.len(), fnv1a(json.as_bytes())),
        (100_048, 2_829_045_533_375_339_958)
    );
}

#[test]
fn ligo_mid_burst_snapshot_bytes_are_pinned() {
    let json = mid_burst_snapshot(
        &Ensemble::ligo(),
        &BurstSpec::new(vec![60, 40, 60, 40]),
        &[4, 3, 3, 4, 3, 3, 4, 3, 3],
        3,
    );
    assert_eq!(
        (json.len(), fnv1a(json.as_bytes())),
        (32_868, 1_009_198_521_042_176_050)
    );
}
