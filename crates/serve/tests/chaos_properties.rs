//! Property tests for the chaos harness: over arbitrary seeds and fault
//! mixes, the serving loop never panics, every robustness invariant holds,
//! replays are byte-deterministic, and shedding changes *which* windows are
//! decided — never *what* is decided.

use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Duration;

use baselines::{by_name, fallback, PolicyConfig};
use proptest::prelude::*;
use serve::chaos::{generate_schedule, run_schedule, verify, ChaosConfig};
use serve::{replay_stream, AdmissionConfig, DecisionService, ShedPolicy};
use telemetry::Telemetry;
use workflow::Ensemble;

/// Far above real wip-proportional latency, far below injected stalls
/// (>= 1s) — degradation is a pure function of the schedule.
const DEADLINE: Duration = Duration::from_millis(100);

fn base_lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let ensemble = Ensemble::msd();
        let mut driver = by_name("uniform", &PolicyConfig::new(&ensemble)).unwrap();
        serve::record_stream(&ensemble, 5, 30, None, driver.as_mut())
            .iter()
            .map(|obs| serde_json::to_string(obs).unwrap())
            .collect()
    })
}

fn hardened_service() -> DecisionService {
    let cfg = PolicyConfig::new(&Ensemble::msd());
    DecisionService::new(
        by_name("wip-proportional", &cfg).unwrap(),
        Telemetry::noop(),
    )
    .with_deadline(DEADLINE)
    .with_fallback(fallback(&cfg))
    .with_expected_dims(Ensemble::msd().num_task_types())
}

fn chaos_config(seed: u64, clients: usize, burst: usize, rates: (f64, f64, f64)) -> ChaosConfig {
    let (malformed, disconnect, stall) = rates;
    ChaosConfig {
        seed,
        clients,
        malformed,
        disconnect,
        stall,
        corrupt: 0.0, // no watcher attached in the property suite
        burst,
    }
}

fn admission(max_inflight: usize, drop_oldest: bool) -> AdmissionConfig {
    AdmissionConfig {
        max_inflight,
        shed: if drop_oldest {
            ShedPolicy::DropOldest
        } else {
            ShedPolicy::Reject
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the seed, fault mix, queue bound, and shed policy: no
    /// panic, and every machine-checked invariant of `chaos::verify` holds
    /// (exactly one reply per delivered valid window, rejected lines all
    /// counted, counters coherent with the reply stream, shed replies
    /// inert).
    #[test]
    fn invariants_hold_for_any_seed(
        seed in 0u64..u64::MAX,
        clients in 1usize..4,
        burst in 1usize..5,
        max_inflight in 1usize..12,
        drop_oldest_bit in 0u8..2,
        (malformed, disconnect, stall) in (0.0f64..0.35, 0.0f64..0.15, 0.0f64..0.25),
    ) {
        let drop_oldest = drop_oldest_bit == 1;
        let config = chaos_config(seed, clients, burst, (malformed, disconnect, stall));
        let schedule = generate_schedule(&config, base_lines());
        let mut svc = hardened_service();
        let outcome = run_schedule(&mut svc, admission(max_inflight, drop_oldest), &schedule, None);
        if let Err(violation) = verify(&outcome) {
            prop_assert!(false, "seed {}: {}", seed, violation);
        }
    }

    /// Replaying the same schedule on a fresh service reproduces the
    /// delivered transcripts byte-for-byte and the same counters.
    #[test]
    fn replay_is_byte_deterministic(
        seed in 0u64..u64::MAX,
        clients in 1usize..4,
        burst in 1usize..5,
        max_inflight in 1usize..12,
        drop_oldest_bit in 0u8..2,
    ) {
        let drop_oldest = drop_oldest_bit == 1;
        let config = chaos_config(seed, clients, burst, (0.15, 0.05, 0.10));
        let schedule = generate_schedule(&config, base_lines());
        let adm = admission(max_inflight, drop_oldest);

        let mut first = hardened_service();
        let a = run_schedule(&mut first, adm, &schedule, None);
        let mut second = hardened_service();
        let b = run_schedule(&mut second, adm, &schedule, None);

        prop_assert_eq!(a.transcript(clients), b.transcript(clients));
        prop_assert_eq!(a.counters, b.counters);
        prop_assert_eq!(a.delivered_valid, b.delivered_valid);
        prop_assert_eq!(a.delivered_rejected, b.delivered_rejected);
    }

    /// Admission-control determinism: overload changes *which* windows get
    /// decided, never *what* is decided. Every actionable reply under any
    /// queue bound carries exactly the allocations a bare batch replay
    /// produces for that window.
    #[test]
    fn shedding_never_changes_admitted_decisions(
        seed in 0u64..u64::MAX,
        burst in 2usize..6,
        max_inflight in 1usize..8,
        drop_oldest_bit in 0u8..2,
    ) {
        // Overload only — no malformed lines, stalls, or disconnects, so
        // every reply is either a clean decision or a typed shed.
        let drop_oldest = drop_oldest_bit == 1;
        let config = chaos_config(seed, 2, burst, (0.0, 0.0, 0.0));
        let schedule = generate_schedule(&config, base_lines());
        let mut svc = hardened_service();
        let outcome = run_schedule(&mut svc, admission(max_inflight, drop_oldest), &schedule, None);

        let cfg = PolicyConfig::new(&Ensemble::msd());
        let mut bare = by_name("wip-proportional", &cfg).unwrap();
        let expected: HashMap<usize, Vec<usize>> =
            replay_stream(bare.as_mut(), &base_lines().join("\n"))
                .into_iter()
                .map(|r| (r.window, r.allocations))
                .collect();

        let mut decided = 0usize;
        for reply in &outcome.replies {
            if !reply.record.is_actionable() {
                continue;
            }
            decided += 1;
            prop_assert!(!reply.record.degraded, "no stalls were injected");
            let want = expected
                .get(&reply.record.window)
                .expect("every admitted window came from the base stream");
            prop_assert_eq!(&reply.record.allocations, want);
        }
        prop_assert!(decided > 0, "some windows must have been admitted");
    }
}
