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
//! A checkpoint file is two lines. The first is the *policy line*: one
//! compact JSON object holding the deployable agent and its policy version
//! (the iteration), which is all serving reads ([`decode_policy_line`]);
//! `head -n 1` of a checkpoint is therefore a servable policy file. The
//! second is the training state, which only resume reads. Files written
//! before policy lines existed hold the training state alone, on one line,
//! and still load both ways.
//!
//! Saves are atomic: both lines are written to a `<path>.tmp` sibling,
//! fsynced, then renamed over the target, so a crash mid-save can never
//! leave a truncated checkpoint in place of a good one, and the two lines
//! always come from the same save. Loads validate the format version and
//! reject corrupt or truncated files with [`CheckpointError::Corrupt`]
//! instead of panicking.

use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::Path;

use rl::DdpgSnapshot;
use serde::value::{from_value, Value};
use serde::{Deserialize, Serialize};

use crate::adapter::AdapterSnapshot;
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
    /// version, or (on resume) from a run this build cannot continue.
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
///
/// Loading skips fields this build no longer reads, such as the
/// `last_schedule` that builds with an actor–learner engine wrote.
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
}

/// The first line of every checkpoint: exactly what
/// [`CheckpointPayload::deployable_agent`] returns, plus the iteration it
/// was saved after as the policy version.
#[derive(Serialize, Deserialize)]
struct PolicyLine {
    policy_version: u64,
    agent: MirasAgent,
}

fn serialization_failed(e: serde_json::Error) -> CheckpointError {
    CheckpointError::Corrupt(format!("serialization failed: {e}"))
}

fn parse_failed(e: serde_json::Error) -> CheckpointError {
    CheckpointError::Corrupt(format!("parse failed: {e}"))
}

impl CheckpointPayload {
    /// Serializes the payload behind its policy line and atomically writes
    /// both to `path` (temp file + fsync + rename, plus a best-effort
    /// directory fsync).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if any filesystem operation fails and
    /// [`CheckpointError::Corrupt`] if serialization itself fails (which
    /// indicates a bug, e.g. a NaN smuggled into a field that rejects it).
    pub(crate) fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let policy = PolicyLine {
            policy_version: self.iteration as u64,
            agent: self.deployable_agent(),
        };
        let policy = serde_json::to_string(&policy).map_err(serialization_failed)?;
        let state = serde_json::to_string(self).map_err(serialization_failed)?;
        let tmp = format!("{}.tmp", path.display());
        {
            let mut f = File::create(&tmp)?;
            f.write_all(policy.as_bytes())?;
            f.write_all(b"\n")?;
            f.write_all(state.as_bytes())?;
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
    /// needing the real environment at all). This is what the policy line
    /// holds.
    #[must_use]
    pub fn deployable_agent(&self) -> MirasAgent {
        let (actor, obs_norm) = self.agent.greedy_policy();
        MirasAgent::from_parts(actor.clone(), obs_norm.clone(), self.consumer_budget)
    }

    /// Reads and validates a checkpoint from `path`, skipping its policy
    /// line: the training state parses exactly as it was saved.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the file cannot be read,
    /// [`CheckpointError::Corrupt`] if it does not parse as a checkpoint
    /// (e.g. it was truncated by a crash that beat the atomic-rename
    /// protocol's temp file into place), and [`CheckpointError::Mismatch`]
    /// if its format version differs from `CHECKPOINT_VERSION`.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = String::from_utf8(std::fs::read(path)?)
            .map_err(|e| CheckpointError::Corrupt(format!("not UTF-8: {e}")))?;
        // A file without a newline predates policy lines: all of it is the
        // training state.
        let state = text
            .split_once('\n')
            .map_or(text.as_str(), |(_, state)| state);
        serde_json::from_str::<CheckpointPayload>(state)
            .map_err(parse_failed)?
            .checked()
    }

    /// The payload, if its format version is the one this build reads.
    fn checked(self) -> Result<Self, CheckpointError> {
        if self.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint version {} (this build reads {})",
                self.version, CHECKPOINT_VERSION
            )));
        }
        Ok(self)
    }
}

/// Decodes the deployable policy from the first line of a policy file and
/// returns it with its policy version. The line is parsed once and
/// dispatched on its shape:
///
/// - a policy line, as every checkpoint starts with (or a `head -n 1` copy
///   of one): the agent and the iteration it was saved after;
/// - a bare serialized [`MirasAgent`]: version 0;
/// - a checkpoint saved before policy lines existed, whose one line is the
///   whole training state: its [`deployable_agent`] and iteration.
///
/// Only the last case parses training state; serving a current checkpoint
/// never does. Whatever the shape, the agent is checked to be able to
/// decide (well-formed actor and normaliser over one task-type count)
/// before it is returned.
///
/// # Errors
///
/// [`CheckpointError::Corrupt`] if the line is not one of those shapes
/// (e.g. it was cut short) or its agent cannot decide, and
/// [`CheckpointError::Mismatch`] for a legacy checkpoint of another format
/// version.
///
/// [`deployable_agent`]: CheckpointPayload::deployable_agent
pub fn decode_policy_line(line: &str) -> Result<(MirasAgent, u64), CheckpointError> {
    let value: Value = serde_json::from_str(line).map_err(parse_failed)?;
    let Value::Object(fields) = &value else {
        return Err(CheckpointError::Corrupt(format!(
            "expected a JSON object, found {}",
            value.kind()
        )));
    };
    let has = |key: &str| fields.iter().any(|(k, _)| k == key);
    let (agent, version) = if has("policy_version") {
        let line: PolicyLine = from_value(value).map_err(parse_failed)?;
        (line.agent, line.policy_version)
    } else if has("actor") {
        (from_value(value).map_err(parse_failed)?, 0)
    } else {
        let payload = from_value::<CheckpointPayload, _>(value)
            .map_err(parse_failed)?
            .checked()?;
        (payload.deployable_agent(), payload.iteration as u64)
    };
    agent
        .validate()
        .map_err(|e| CheckpointError::Corrupt(format!("unusable agent: {e}")))?;
    Ok((agent, version))
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

    fn agent_json() -> String {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
        let actor = nn::Mlp::new(
            &[4, 8, 4],
            nn::Activation::Relu,
            nn::Activation::Softmax,
            &mut rng,
        );
        serde_json::to_string(&MirasAgent::new(actor, 14)).unwrap()
    }

    #[test]
    fn agents_that_cannot_decide_are_refused() {
        let agent = agent_json();
        let norm = |dim: usize, clip: &str| {
            let zeros = vec!["0.0"; dim].join(",");
            format!(
                "\"obs_norm\":{{\"count\":0,\"mean\":[{zeros}],\"m2\":[{zeros}],\"clip\":{clip}}}"
            )
        };
        // JSON has no infinity, but a number too large for f64 parses as one.
        let bias = agent.find("\"bias\":[").unwrap() + "\"bias\":[".len();
        let first_bias_end = bias + agent[bias..].find(',').unwrap();
        let infinite = format!("{}1e999{}", &agent[..bias], &agent[first_bias_end..]);
        for (broken, why) in [
            (infinite, "non-finite parameter"),
            (
                agent.replacen("\"rows\":8", "\"rows\":9", 1),
                "9×4 weight matrix",
            ),
            (
                agent.replacen("\"cols\":4", "\"cols\":8", 1),
                "holds 32 entries",
            ),
            (
                "{\"actor\":{\"layers\":[]},\"obs_norm\":null,\"consumer_budget\":14}".to_string(),
                "no layers",
            ),
            (
                agent.replace("\"obs_norm\":null", &norm(3, "5.0")),
                "3 dimensions",
            ),
            (agent.replace("\"obs_norm\":null", &norm(4, "-1.0")), "clip"),
            ("[1,2]".to_string(), "JSON object"),
            (agent[..agent.len() / 2].to_string(), "parse failed"),
        ] {
            match decode_policy_line(&broken) {
                Err(CheckpointError::Corrupt(msg)) => assert!(msg.contains(why), "{msg}"),
                other => panic!("{why}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = CheckpointPayload::load(Path::new("/nonexistent/dir/ckpt.json")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}
