//! What the numbers were measured on: host fingerprint, effective thread
//! knobs, toolchain, and peak resident memory from `/proc`.

use crate::json::{obj, Json};

/// `VmHWM` (peak resident set, kB) out of a `/proc/<pid>/status` text.
#[must_use]
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut parts = rest.split_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(value)
}

/// Peak resident memory of process `pid` in MB (`"self"` for the ledger).
#[must_use]
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A value `run.sh` exported at build time, or `"unknown"`.
fn exported(name: &str) -> String {
    std::env::var(name)
        .ok()
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Recorded with every result. The benchmark sets no thread knob: these are
/// the values the user's environment gives.
#[must_use]
pub fn fingerprint() -> Json {
    let simd = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .iter()
    .filter(|(_, on)| *on)
    .map(|(name, _)| *name)
    .collect::<Vec<_>>()
    .join(",");
    obj(vec![
        ("cpu_model", Json::String(cpu_model())),
        (
            "cores",
            Json::UInt(
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as u64,
            ),
        ),
        ("rustc", Json::String(exported("MIRAS_LEDGER_RUSTC"))),
        ("commit", Json::String(exported("MIRAS_LEDGER_COMMIT"))),
        (
            "rustflags",
            Json::String(exported("MIRAS_LEDGER_RUSTFLAGS")),
        ),
        ("target_features", Json::String(simd)),
        (
            "nn_num_threads_effective",
            Json::UInt(nn::threads::configured_threads() as u64),
        ),
        (
            "nn_num_threads_env",
            Json::String(std::env::var("NN_NUM_THREADS").unwrap_or_else(|_| "unset".to_string())),
        ),
        (
            "miras_grid_threads_env",
            Json::String(
                std::env::var("MIRAS_GRID_THREADS").unwrap_or_else(|_| "unset".to_string()),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parsing() {
        let status =
            "Name:\tmiras-serve\nVmPeak:\t  123456 kB\nVmHWM:\t    5120 kB\nVmRSS:\t    4000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5120));
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 kB"), Some(12));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t12 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb(""), None);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb("self").is_some_and(|mb| mb > 0.0));
    }
}
