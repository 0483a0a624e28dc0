//! Thread-count configuration for the compute kernels.
//!
//! The crate parallelises large matrix products and (downstream) ensemble
//! members with `std::thread::scope` — no thread-pool dependency. The
//! degree of parallelism is controlled by the `NN_NUM_THREADS` environment
//! variable, read once per process:
//!
//! * unset or unparsable → `std::thread::available_parallelism()`,
//! * `1` → every code path stays strictly serial,
//! * `n > 1` → at most `n` worker threads per parallel region.
//!
//! Kernels are written so that the split across threads never changes the
//! floating-point reduction order of any output element; a matrix product is
//! therefore bit-identical for every thread count. Coarser regions
//! (ensemble members) give each unit of work its own seed and reduce in a
//! fixed order, so `NN_NUM_THREADS` sets speed, never results.

use std::cell::Cell;
use std::sync::OnceLock;

static CONFIGURED: OnceLock<usize> = OnceLock::new();

/// The process-wide thread budget from `NN_NUM_THREADS` (see module docs).
#[must_use]
pub fn configured_threads() -> usize {
    *CONFIGURED.get_or_init(|| {
        match std::env::var("NN_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    })
}

thread_local! {
    static FORCE_SERIAL: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with all kernel-level parallelism disabled on this thread.
///
/// Used by coarse-grained parallel regions (ensemble-member training,
/// grid cells, actor–learner workers) so their workers do not spawn nested
/// kernel threads and oversubscribe the machine.
pub fn with_serial<R>(f: impl FnOnce() -> R) -> R {
    FORCE_SERIAL.with(|flag| {
        let prev = flag.replace(true);
        let out = f();
        flag.set(prev);
        out
    })
}

/// The thread budget for a parallel region started on this thread: `1`
/// inside [`with_serial`], otherwise [`configured_threads`].
#[must_use]
pub fn effective_threads() -> usize {
    if FORCE_SERIAL.with(Cell::get) {
        1
    } else {
        configured_threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_least_one_thread() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn with_serial_forces_one_and_restores() {
        let inside = with_serial(effective_threads);
        assert_eq!(inside, 1);
        assert_eq!(effective_threads(), configured_threads());
    }

    #[test]
    fn with_serial_nests() {
        with_serial(|| {
            with_serial(|| assert_eq!(effective_threads(), 1));
            assert_eq!(effective_threads(), 1);
        });
    }
}
