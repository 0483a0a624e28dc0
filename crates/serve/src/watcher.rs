//! Checkpoint hot-swap: watch a path, load new policies between windows.

use std::fmt;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

use baselines::{Observation, Policy};
use miras_core::{CheckpointError, CheckpointPayload, MirasAgent};

use crate::retry::{io_transient, retry_with, RetryPolicy};

/// Why a checkpoint could not be turned into a policy.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file could not be read even after bounded retry of a transient
    /// failure.
    RetryExhausted {
        /// How many attempts were made.
        attempts: u32,
        /// The final attempt's error.
        last: std::io::Error,
    },
    /// The file parses as neither a full checkpoint nor a raw agent.
    Unusable {
        /// What the checkpoint loader said.
        checkpoint: String,
        /// What the raw-agent parser said.
        agent: String,
    },
    /// The file loaded, but its policy allocates over a different number
    /// of task types than the one serving (e.g. a LIGO agent swapped in
    /// under an MSD stream), so its first decision would panic.
    TaskTypeMismatch {
        /// Task types of the policy currently serving.
        serving: usize,
        /// Task types of the policy the file holds.
        loaded: usize,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "cannot read policy file: {e}"),
            LoadError::RetryExhausted { attempts, last } => write!(
                f,
                "cannot read policy file after {attempts} attempts: {last}"
            ),
            LoadError::Unusable { checkpoint, agent } => write!(
                f,
                "file is neither a checkpoint ({checkpoint}) nor a raw agent ({agent})"
            ),
            LoadError::TaskTypeMismatch { serving, loaded } => write!(
                f,
                "policy controls {loaded} task types but the serving policy controls {serving}"
            ),
        }
    }
}

impl std::error::Error for LoadError {}

/// A checkpoint-loaded agent: the one versioned policy. Every decision is
/// stamped with the iteration the checkpoint was saved after.
struct CheckpointPolicy {
    agent: MirasAgent,
    version: u64,
}

impl Policy for CheckpointPolicy {
    fn name(&self) -> &str {
        self.agent.name()
    }

    fn consumer_budget(&self) -> usize {
        self.agent.consumer_budget()
    }

    fn num_task_types(&self) -> usize {
        self.agent.num_task_types()
    }

    fn allocate(&mut self, obs: &Observation) -> Vec<usize> {
        self.agent.allocate(obs.wip)
    }

    fn policy_version(&self) -> u64 {
        self.version
    }
}

/// Loads a deployable policy from `path`.
///
/// Accepts either a full PR-3 training checkpoint (the deployable agent is
/// extracted and the policy is versioned with the checkpoint's iteration)
/// or a raw serialized [`MirasAgent`] (as cached under `bench_artifacts/`;
/// versioned 0). Returns the boxed policy and its version.
///
/// # Errors
///
/// [`LoadError::Io`] if the file cannot be read, [`LoadError::Unusable`]
/// if it parses as neither format.
pub fn load_policy(path: &Path) -> Result<(Box<dyn Policy>, u64), LoadError> {
    let checkpoint_err = match CheckpointPayload::load(path) {
        Ok(payload) => {
            let version = payload.iteration() as u64;
            let agent = payload.deployable_agent();
            return Ok((Box::new(CheckpointPolicy { agent, version }), version));
        }
        Err(CheckpointError::Io(e)) => return Err(LoadError::Io(e)),
        Err(e) => e.to_string(),
    };
    let json = std::fs::read_to_string(path).map_err(LoadError::Io)?;
    match serde_json::from_str::<MirasAgent>(&json) {
        Ok(agent) => Ok((Box::new(agent), 0)),
        Err(e) => Err(LoadError::Unusable {
            checkpoint: checkpoint_err,
            agent: e.to_string(),
        }),
    }
}

/// Change-detection fingerprint: `(mtime, len, content checksum)`.
///
/// The checksum (FNV-1a over the file bytes) closes the classic
/// `(mtime, len)` race: a rewrite that lands within the filesystem's mtime
/// granularity *and* happens to produce the same byte length — entirely
/// plausible for fixed-schema checkpoints written twice in quick
/// succession — is still detected, because the bytes differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    mtime: SystemTime,
    len: u64,
    checksum: u64,
}

/// FNV-1a 64-bit over `bytes` — cheap, dependency-free, and stable across
/// platforms.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Watches a checkpoint path for changes between decision windows.
///
/// The serve loop is single-threaded by design: the watcher is polled at
/// the window boundary (never mid-decision), so a swap can never drop or
/// tear a request — the Nth decision comes entirely from the old policy or
/// entirely from the new one. Change detection is by
/// `(mtime, len, content checksum)` fingerprint (see `Fingerprint`); the
/// PR-3 checkpoint writer is atomic (temp + fsync + rename), so a changed
/// fingerprint always points at a complete file. Length and checksum are
/// computed from one open file handle, so a rename racing the probe yields
/// a self-consistent fingerprint of one version or the other — never a mix.
///
/// A file that appears but fails to load (e.g. hand-corrupted) is reported
/// once via [`SwapOutcome::Failed`] and not retried until its fingerprint
/// changes again; the service keeps the old policy, which is the safe
/// behaviour for a live control loop. Transient probe failures are retried
/// with bounded exponential backoff ([`RetryPolicy`]); the retry count is
/// surfaced through [`CheckpointWatcher::take_retries`] so the service can
/// fold it into the `serve.retries` counter.
#[derive(Debug)]
pub struct CheckpointWatcher {
    path: PathBuf,
    fingerprint: Option<Fingerprint>,
    retries: u64,
}

/// What a watcher poll produced.
pub enum SwapOutcome {
    /// A new checkpoint loaded cleanly.
    Swapped {
        /// The freshly loaded policy.
        policy: Box<dyn Policy>,
        /// Its version (checkpoint iteration, or 0 for raw agents).
        version: u64,
    },
    /// The path changed but could not be loaded (or, as judged by the
    /// service, holds a policy over the wrong task types); the old policy
    /// stays.
    Failed(LoadError),
}

impl CheckpointWatcher {
    /// Watches `path`, treating the currently present file as already
    /// deployed (only *subsequent* changes trigger swaps). Used when the
    /// service loads its initial policy from the same path at startup.
    #[must_use]
    pub fn new_deployed(path: PathBuf) -> Self {
        let fingerprint = Self::probe(&path).ok().flatten();
        CheckpointWatcher {
            path,
            fingerprint,
            retries: 0,
        }
    }

    /// Drains the count of transient-probe retries performed since the last
    /// call (the service folds this into `serve.retries`).
    pub fn take_retries(&mut self) -> u64 {
        std::mem::take(&mut self.retries)
    }

    /// One probe: open, stat (same handle, so mtime/len/bytes are the same
    /// inode even mid-rename), read, checksum. `Ok(None)` when the file
    /// does not exist.
    fn probe(path: &Path) -> std::io::Result<Option<Fingerprint>> {
        let mut file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let meta = file.metadata()?;
        let mut bytes = Vec::with_capacity(usize::try_from(meta.len()).unwrap_or(0));
        file.read_to_end(&mut bytes)?;
        Ok(Some(Fingerprint {
            mtime: meta.modified()?,
            len: bytes.len() as u64,
            checksum: fnv1a64(&bytes),
        }))
    }

    /// Checks the path; `None` means no change since the last poll (or the
    /// probe failed transiently even after retry — the next window polls
    /// again, so a flaky filesystem delays a swap rather than killing it).
    pub fn poll(&mut self) -> Option<SwapOutcome> {
        let retries = &mut self.retries;
        let probed = retry_with(
            RetryPolicy::default(),
            "watcher_fingerprint",
            io_transient,
            |_| *retries += 1,
            || Self::probe(&self.path),
        );
        let current = match probed {
            Ok(Some(fp)) => fp,
            Ok(None) => return None,
            Err(exhausted) => {
                // Leave the stored fingerprint alone: when the filesystem
                // recovers, the change (if any) is still detected.
                return Some(SwapOutcome::Failed(LoadError::RetryExhausted {
                    attempts: exhausted.attempts,
                    last: exhausted.last,
                }));
            }
        };
        if self.fingerprint == Some(current) {
            return None;
        }
        self.fingerprint = Some(current);
        match load_policy(&self.path) {
            Ok((policy, version)) => Some(SwapOutcome::Swapped { policy, version }),
            Err(e) => Some(SwapOutcome::Failed(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn probe_distinguishes_same_length_content() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("miras_watch_probe_{}.json", std::process::id()));
        std::fs::write(&path, b"AAAA").unwrap();
        let a = CheckpointWatcher::probe(&path).unwrap().unwrap();
        std::fs::write(&path, b"BBBB").unwrap();
        let b = CheckpointWatcher::probe(&path).unwrap().unwrap();
        assert_eq!(a.len, b.len);
        assert_ne!(a.checksum, b.checksum, "same length, different bytes");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn probe_of_missing_file_is_none_not_error() {
        let path = std::env::temp_dir().join("miras_watch_probe_never_exists.json");
        assert!(CheckpointWatcher::probe(&path).unwrap().is_none());
    }
}
