//! Crash-safe persistence of the full Algorithm 2 training state.
//!
//! A checkpoint captures *everything* that influences the remaining run —
//! the agent (networks, target networks, Adam moments, replay buffer,
//! parameter-noise state), the environment model and its optimizer, the
//! transition dataset, the trainer's RNG, the iteration index, and the real
//! environment's complete simulator state. Loading a checkpoint and
//! continuing therefore produces *bit-identical* results to a run that was
//! never interrupted (verified by `trainer::tests` and
//! `crates/bench/tests/resume.rs`).
//!
//! Saves are atomic: the payload is written to a `<path>.tmp` sibling,
//! fsynced, then renamed over the target, so a crash mid-save can never
//! leave a truncated checkpoint in place of a good one. Loads validate the
//! format version and reject corrupt or truncated files with
//! [`CheckpointError::Corrupt`] instead of panicking.

use std::fmt;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use rl::DdpgSnapshot;
use serde::{Deserialize, Serialize};

use crate::adapter::AdapterSnapshot;
use crate::distributed::VersionSchedule;
use crate::{DynamicsModel, MirasAgent, MirasConfig, TransitionDataset};

/// Format version written into every checkpoint; bumped whenever the
/// payload layout changes incompatibly.
pub(crate) const CHECKPOINT_VERSION: u32 = 1;

/// Why a checkpoint could not be saved or loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// The filesystem refused the read/write/rename.
    Io(std::io::Error),
    /// The file exists but is not a valid checkpoint (truncated, not JSON,
    /// or structurally wrong).
    Corrupt(String),
    /// The file is a valid checkpoint but from an incompatible format
    /// version.
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::Mismatch(msg) => write!(f, "incompatible checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// The complete serialized training state (one outer-loop boundary of
/// Algorithm 2).
///
/// Produced by [`crate::MirasTrainer::save_checkpoint`] and consumed by
/// [`crate::MirasTrainer::resume`]; the fields are crate-private because
/// the payload's only contract is bit-identical resume.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointPayload {
    pub(crate) version: u32,
    pub(crate) config: MirasConfig,
    pub(crate) iteration: usize,
    pub(crate) consumer_budget: usize,
    pub(crate) dataset: TransitionDataset,
    pub(crate) model: DynamicsModel,
    pub(crate) agent: DdpgSnapshot,
    pub(crate) trainer_rng_state: [u64; 4],
    pub(crate) lend_triggers_total: u64,
    pub(crate) adapter: AdapterSnapshot,
    /// Version-schedule manifest of the last completed distributed inner
    /// loop, if any. Absent in pre-distributed checkpoints (`default`
    /// keeps them loadable) and in non-distributed runs.
    #[serde(default)]
    pub(crate) last_schedule: Option<VersionSchedule>,
}

impl CheckpointPayload {
    /// Serializes the payload and atomically writes it to `path`
    /// (temp file + fsync + rename, plus a best-effort directory fsync).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if any filesystem operation fails and
    /// [`CheckpointError::Corrupt`] if serialization itself fails (which
    /// indicates a bug, e.g. a NaN smuggled into a field that rejects it).
    pub(crate) fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let json = serde_json::to_string(self)
            .map_err(|e| CheckpointError::Corrupt(format!("serialization failed: {e}")))?;
        let tmp = format!("{}.tmp", path.display());
        {
            let mut f = File::create(&tmp)?;
            f.write_all(json.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        // Best-effort: persist the rename itself. Not all platforms allow
        // fsync on a directory handle, so failures are ignored.
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// The outer-loop iteration the checkpoint was taken at. Monotone over
    /// a training run, which makes it the natural `policy_version` for
    /// serving: a hot-swapped later checkpoint always carries a larger one.
    #[must_use]
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Extracts the greedy policy as a deployable [`MirasAgent`] — the same
    /// actor + observation-normaliser snapshot
    /// [`MirasTrainer::agent`](crate::MirasTrainer::agent) would return
    /// after resuming this checkpoint, without rebuilding the trainer (or
    /// needing the real environment at all). This is what `miras-serve`
    /// loads.
    #[must_use]
    pub fn deployable_agent(&self) -> MirasAgent {
        let agent = rl::Ddpg::from_snapshot(self.agent.clone());
        MirasAgent::new(agent.actor().clone(), self.consumer_budget)
            .with_normalizer(agent.obs_normalizer().clone())
    }

    /// Reads and validates a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the file cannot be read,
    /// [`CheckpointError::Corrupt`] if it does not parse as a checkpoint
    /// (e.g. it was truncated by a crash that beat the atomic-rename
    /// protocol's temp file into place), and [`CheckpointError::Mismatch`]
    /// if its format version differs from `CHECKPOINT_VERSION`.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let mut json = String::new();
        File::open(path)?.read_to_string(&mut json)?;
        let payload: CheckpointPayload = serde_json::from_str(&json)
            .map_err(|e| CheckpointError::Corrupt(format!("parse failed: {e}")))?;
        if payload.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint version {} (this build reads {})",
                payload.version, CHECKPOINT_VERSION
            )));
        }
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = CheckpointError::Corrupt("parse failed: eof".into());
        assert!(e.to_string().contains("corrupt"));
        let e = CheckpointError::Mismatch("checkpoint version 7".into());
        assert!(e.to_string().contains("incompatible"));
        let e = CheckpointError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(e.to_string().contains("I/O"));
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = CheckpointPayload::load(Path::new("/nonexistent/dir/ckpt.json")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}
