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
//! [`save_policy`] writes a trained agent as a policy line alone, and
//! [`read_policy_line`] is the one reader of that line in any of these
//! files: it stops at the first `\n`.
//!
//! Saves are atomic: the file is written to a `<path>.tmp` sibling,
//! fsynced, then renamed over the target, so a crash mid-save can never
//! leave a truncated file in place of a good one, and a checkpoint's two
//! lines always come from the same save. Loads validate the format version
//! and reject corrupt or truncated files with [`CheckpointError::Corrupt`]
//! instead of panicking.
//!
//! Some config fields older builds wrote are now constants (see
//! [`RETIRED_KEYS`]). Loading skips them like any unknown field, but a file
//! that stores one with a value other than the constant was trained under
//! behaviour this build no longer has, so it is refused with
//! [`CheckpointError::Mismatch`] naming the key.

use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

use rl::DdpgSnapshot;
use serde::value::{from_value, Value};
use serde::{Deserialize, Serialize};

use crate::adapter::AdapterSnapshot;
use crate::{DynamicsModel, MirasAgent, MirasConfig, TransitionDataset};

/// Format version written into every checkpoint; bumped whenever the
/// payload layout changes incompatibly.
pub(crate) const CHECKPOINT_VERSION: u32 = 1;

/// Config fields that older builds let a caller set and this build runs
/// as constants: each key's dotted path from the root of a training state
/// (or of a serialized [`MirasAgent`]), with the constant as those builds
/// serialized it. The agent snapshot's copy of the DDPG config is not
/// listed: a trainer always built it from `config.ddpg`.
const RETIRED_KEYS: [(&str, &str); 12] = [
    ("config.model_lr", "0.003"),
    ("config.ddpg.grad_clip", "10.0"),
    ("config.ddpg.reward_scale", "1.0"),
    ("config.ddpg.twin_critic", "false"),
    ("config.ddpg.exploration.ParamNoise.initial_sigma", "0.05"),
    ("config.ddpg.exploration.ParamNoise.delta", "0.1"),
    ("config.ddpg.exploration.ParamNoise.alpha", "1.01"),
    ("adapter.env.config.clamp_actions", "true"),
    ("adapter.env.config.reset_capacity_factor", "5"),
    ("adapter.env.config.reset_max_windows", "40"),
    ("adapter.env.config.reset_wip_threshold", "0"),
    ("strict_floor", "false"),
];

/// The value at `key` of a JSON object, if `value` is one and has it.
fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Refuses `root` if it stores any of [`RETIRED_KEYS`] with a value other
/// than the constant this build runs with. An absent key passes.
fn check_retired(root: &Value) -> Result<(), CheckpointError> {
    for (path, constant) in RETIRED_KEYS {
        let Some(found) = path.split('.').try_fold(root, field) else {
            continue;
        };
        let found = serde_json::to_string(found).unwrap_or_default();
        if found != constant {
            return Err(CheckpointError::Mismatch(format!(
                "`{path}` is {found}, but this build only runs with {constant}"
            )));
        }
    }
    Ok(())
}

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

/// The one atomic writer of policy and checkpoint files: the policy line
/// of `agent` at `policy_version`, a `\n`, then `rest`, written to a
/// `<path>.tmp` sibling, fsynced and renamed over `path`; then a
/// best-effort fsync of the directory (not every platform allows one).
fn write_atomic(
    path: &Path,
    agent: MirasAgent,
    policy_version: u64,
    rest: &[u8],
) -> Result<(), CheckpointError> {
    let line = PolicyLine {
        policy_version,
        agent,
    };
    let line = serde_json::to_string(&line).map_err(serialization_failed)?;
    let tmp = format!("{}.tmp", path.display());
    {
        let mut f = File::create(&tmp)?;
        f.write_all(line.as_bytes())?;
        f.write_all(b"\n")?;
        f.write_all(rest)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Atomically writes `agent` to `path` as a policy file: exactly the first
/// line, `{"policy_version":N,"agent":{...}}` and its `\n`, of a checkpoint
/// saved after iteration `N`, so it serves and hot-swaps like one.
///
/// # Errors
///
/// [`CheckpointError::Io`] if a filesystem operation fails,
/// [`CheckpointError::Corrupt`] if the agent does not serialize.
pub fn save_policy(
    path: &Path,
    agent: &MirasAgent,
    policy_version: u64,
) -> Result<(), CheckpointError> {
    write_atomic(path, agent.clone(), policy_version, b"")
}

/// Reads line one of a policy file, without its `\n`: the whole deployable
/// policy of every layout [`decode_policy_line`] accepts, so nothing that
/// serves or evaluates a file reads past it. Takes an open file so that a
/// caller can `stat` the handle it reads.
///
/// # Errors
///
/// Any error reading the file.
pub fn read_policy_line(file: &File) -> std::io::Result<Vec<u8>> {
    let mut line = Vec::new();
    BufReader::new(file).read_until(b'\n', &mut line)?;
    if line.last() == Some(&b'\n') {
        line.pop();
    }
    Ok(line)
}

impl CheckpointPayload {
    /// Serializes the payload behind its policy line and writes both to
    /// `path` through the one atomic writer (temp file + fsync + rename,
    /// plus a best-effort directory fsync).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if any filesystem operation fails and
    /// [`CheckpointError::Corrupt`] if serialization itself fails (which
    /// indicates a bug, e.g. a NaN smuggled into a field that rejects it).
    pub(crate) fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let state = serde_json::to_string(self).map_err(serialization_failed)?;
        let version = self.iteration as u64;
        write_atomic(path, self.deployable_agent(), version, state.as_bytes())
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
    /// if its format version differs from `CHECKPOINT_VERSION` or it stores
    /// a retired config key with a value other than its constant.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = String::from_utf8(std::fs::read(path)?)
            .map_err(|e| CheckpointError::Corrupt(format!("not UTF-8: {e}")))?;
        // A file without a newline predates policy lines: all of it is the
        // training state.
        let state = text
            .split_once('\n')
            .map_or(text.as_str(), |(_, state)| state);
        let value: Value = serde_json::from_str(state).map_err(parse_failed)?;
        check_retired(&value)?;
        from_value::<CheckpointPayload, _>(value)
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

/// Decodes the deployable policy from the first line of a policy file (as
/// [`read_policy_line`] returns it) and returns it with its policy version.
/// The line is parsed once and dispatched on its shape:
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
/// [`CheckpointError::Corrupt`] if the line is not UTF-8 or not one of
/// those shapes (e.g. it was cut short) or its agent cannot decide, and
/// [`CheckpointError::Mismatch`] for a legacy checkpoint of another format
/// version, or for an agent stored with a retired key at a value other
/// than its constant (`"strict_floor":true`).
///
/// [`deployable_agent`]: CheckpointPayload::deployable_agent
pub fn decode_policy_line(line: &[u8]) -> Result<(MirasAgent, u64), CheckpointError> {
    let line = std::str::from_utf8(line)
        .map_err(|e| CheckpointError::Corrupt(format!("not UTF-8: {e}")))?;
    let value: Value = serde_json::from_str(line).map_err(parse_failed)?;
    if !matches!(value, Value::Object(_)) {
        return Err(CheckpointError::Corrupt(format!(
            "expected a JSON object, found {}",
            value.kind()
        )));
    }
    let has = |key: &str| field(&value, key).is_some();
    let (agent, version) = if has("policy_version") {
        if let Some(agent) = field(&value, "agent") {
            check_retired(agent)?;
        }
        let line: PolicyLine = from_value(value).map_err(parse_failed)?;
        (line.agent, line.policy_version)
    } else if has("actor") {
        check_retired(&value)?;
        (from_value(value).map_err(parse_failed)?, 0)
    } else {
        // The deployable agent is rebuilt from the actor and normaliser
        // alone, so no retired training key changes what it decides.
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
            match decode_policy_line(broken.as_bytes()) {
                Err(CheckpointError::Corrupt(msg)) => assert!(msg.contains(why), "{msg}"),
                other => panic!("{why}: expected Corrupt, got {other:?}"),
            }
        }
    }

    /// Agents saved before the literal-floor option went: `false` decodes
    /// as the current agent, `true` is refused naming the key, both as a
    /// bare agent and inside a policy line.
    #[test]
    fn agents_stored_with_strict_floor_decode_only_at_false() {
        let agent = agent_json();
        let current = decode_policy_line(agent.as_bytes()).unwrap();
        for floor in [false, true] {
            let stored = format!(
                "{},\"strict_floor\":{floor}}}",
                agent.strip_suffix('}').unwrap()
            );
            let line = format!("{{\"policy_version\":3,\"agent\":{stored}}}");
            for (text, version) in [(stored, 0), (line, 3)] {
                match decode_policy_line(text.as_bytes()) {
                    Ok(decoded) if !floor => assert_eq!(decoded, (current.0.clone(), version)),
                    Err(CheckpointError::Mismatch(msg)) if floor => {
                        assert!(msg.contains("`strict_floor` is true"), "{msg}");
                    }
                    other => panic!("strict_floor={floor}: got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = CheckpointPayload::load(Path::new("/nonexistent/dir/ckpt.json")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}
