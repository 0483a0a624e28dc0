//! Crate-global telemetry hook for the compute kernels.
//!
//! The network types (`Mlp`, `Dense`) derive `PartialEq`/`Serialize` and are
//! snapshotted wholesale by checkpointing code, so they cannot carry a
//! recorder handle themselves. Instead the crate keeps one process-global
//! [`Telemetry`] slot; binaries that want kernel-level observability install
//! a handle with [`set_global`] and the hot paths check a single relaxed
//! atomic before doing any recording work.
//!
//! Everything recorded here (GEMM call counts and timings, batch-training
//! timings) is observability-only: the kernels never read telemetry state to
//! make decisions, so results are bit-identical with or without a recorder.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;

use telemetry::Telemetry;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SLOT: RwLock<Option<Telemetry>> = RwLock::new(None);

/// Installs `telemetry` as the crate-global recorder handle. Passing a
/// disabled handle turns kernel recording off.
pub fn set_global(telemetry: Telemetry) {
    let enabled = telemetry.is_enabled();
    if let Ok(mut slot) = SLOT.write() {
        *slot = enabled.then_some(telemetry);
    }
    ENABLED.store(enabled, Ordering::Release);
}

/// Runs `f` with the installed handle, if any. One relaxed atomic load on
/// the disabled path.
#[inline]
pub(crate) fn with<F: FnOnce(&Telemetry)>(f: F) {
    if ENABLED.load(Ordering::Relaxed) {
        if let Ok(slot) = SLOT.read() {
            if let Some(t) = slot.as_ref() {
                f(t);
            }
        }
    }
}

/// Whether a global handle is installed (for guarding expensive payloads).
#[inline]
#[must_use]
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}
