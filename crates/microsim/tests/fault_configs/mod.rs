//! The resilience benchmark's five fault configurations (healthy, consumer
//! crashes, correlated node outages, stragglers, delivery-delay spikes) at
//! its rates, shared by the tests that audit the simulator under faults.

use desim::SimTime;
use microsim::SimConfig;

/// Each fault configuration, by scenario name, on top of `base`.
pub(crate) fn fault_configs(base: SimConfig) -> [(&'static str, SimConfig); 5] {
    [
        ("healthy", base.clone()),
        (
            "crashes",
            SimConfig {
                failure_rate_per_hour: 20.0,
                ..base.clone()
            },
        ),
        (
            "outages",
            SimConfig {
                node_count: 3,
                node_outage_rate_per_hour: 2.0,
                ..base.clone()
            },
        ),
        (
            "stragglers",
            SimConfig {
                straggler_prob: 0.05,
                straggler_factor: 10.0,
                ..base.clone()
            },
        ),
        (
            "delays",
            SimConfig {
                delivery_delay_prob: 0.10,
                delivery_delay_max: SimTime::from_secs(10),
                ..base
            },
        ),
    ]
}
