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
//! compact JSON object, `{"policy_version":N,"agent":{...}}`, holding the
//! deployable agent and its policy version (the iteration), which is all
//! serving reads ([`decode_policy_line`]); `head -n 1` of a checkpoint is
//! therefore a servable policy file. The second is the training state,
//! which only resume reads. A policy line is the one shape of deployable
//! policy: a bare serialized agent, or a one-line version-1 checkpoint
//! from before policy lines, is refused with [`CheckpointError::Corrupt`].
//!
//! [`save_policy`] writes a trained agent as a policy line alone, and
//! [`read_policy_line`] is the one reader of that line in any of these
//! files: it stops at the first `\n`.
//!
//! Saves are atomic: the file is written to a `<path>.tmp` sibling,
//! fsynced, then renamed over the target, so a crash mid-save can never
//! leave a truncated file in place of a good one, and a checkpoint's two
//! lines always come from the same save. Loads check the training state's
//! format version first, refusing any other one (version 1 included) with
//! [`CheckpointError::Mismatch`], and reject corrupt or truncated files
//! with [`CheckpointError::Corrupt`] instead of panicking.

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
/// payload layout changes incompatibly. Version 2 names the lane count
/// `lanes`, where version 1 stored a `rollout_mode`.
pub(crate) const CHECKPOINT_VERSION: u32 = 2;

/// The value at `key` of a JSON object, if `value` is one and has it.
fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Refuses a serialized [`MirasAgent`] that stores `strict_floor`, the
/// literal-floor rounding option older builds let a caller set, with any
/// value but `false`: this build always rounds by largest remainder. A
/// policy line carries no format version, so the key is checked by name;
/// at `false` it is skipped like any unknown field.
fn check_strict_floor(agent: &Value) -> Result<(), CheckpointError> {
    match field(agent, "strict_floor") {
        None | Some(Value::Bool(false)) => Ok(()),
        Some(found) => Err(CheckpointError::Mismatch(format!(
            "`strict_floor` is {}, but this build only runs with false",
            serde_json::to_string(found).unwrap_or_default()
        ))),
    }
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

/// Reads line one of a policy or checkpoint file, without its `\n`: the
/// whole deployable policy, so nothing that serves or evaluates a file
/// reads past it. Takes an open file so that a caller can `stat` the
/// handle it reads.
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
        MirasAgent::from_parts(actor, obs_norm.clone(), self.consumer_budget)
    }

    /// Reads and validates a checkpoint from `path`, skipping its policy
    /// line: the training state parses exactly as it was saved.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the file cannot be read,
    /// [`CheckpointError::Mismatch`] if the training state's format version
    /// is not `CHECKPOINT_VERSION` (checked before anything else in it is
    /// decoded), and [`CheckpointError::Corrupt`] if the file does not parse
    /// as a two-line checkpoint (e.g. it was truncated by a crash that beat
    /// the atomic-rename protocol's temp file into place) or its training
    /// state's configuration fails [`MirasConfig::validate`].
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = String::from_utf8(std::fs::read(path)?)
            .map_err(|e| CheckpointError::Corrupt(format!("not UTF-8: {e}")))?;
        // A one-line file is refused below, but a version-1 checkpoint from
        // before policy lines is one line too, and is named as version 1.
        let (policy, state) = text.split_once('\n').unwrap_or(("", &text));
        let value: Value = serde_json::from_str(state).map_err(parse_failed)?;
        let version = match field(&value, "version") {
            Some(Value::UInt(version)) => *version,
            _ => return Err(CheckpointError::Corrupt("no format version".into())),
        };
        if version != u64::from(CHECKPOINT_VERSION) {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint version {version} (this build reads {CHECKPOINT_VERSION})"
            )));
        }
        if policy.is_empty() {
            return Err(CheckpointError::Corrupt("no policy line".into()));
        }
        let payload: Self = from_value(value).map_err(parse_failed)?;
        payload
            .config
            .validate()
            .map_err(|e| CheckpointError::Corrupt(e.to_string()))?;
        Ok(payload)
    }
}

/// Decodes the deployable policy from the first line of a policy file (as
/// [`read_policy_line`] returns it), `{"policy_version":N,"agent":{...}}`,
/// and returns the agent with its policy version. The agent is checked to
/// be able to decide (well-formed actor and normaliser over one task-type
/// count) before it is returned.
///
/// # Errors
///
/// [`CheckpointError::Corrupt`] if the line is not UTF-8, is not a policy
/// line (e.g. it was cut short, or is a bare agent or a one-line version-1
/// checkpoint) or its agent cannot decide, and
/// [`CheckpointError::Mismatch`] for an agent stored with
/// `"strict_floor":true`.
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
    if let Some(agent) = field(&value, "agent") {
        check_strict_floor(agent)?;
    }
    let PolicyLine {
        policy_version,
        agent,
    } = from_value(value).map_err(parse_failed)?;
    agent
        .validate()
        .map_err(|e| CheckpointError::Corrupt(format!("unusable agent: {e}")))?;
    Ok((agent, policy_version))
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

    fn policy_line(agent: &str) -> String {
        format!("{{\"policy_version\":3,\"agent\":{agent}}}")
    }

    /// An agent whose actor layers are each well formed but do not chain:
    /// layer 0 gives 8 outputs and layer 1 takes 6.
    fn disagreeing_widths_agent() -> String {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let mut layer = |fan_in: usize, fan_out: usize| {
            let act = nn::Activation::Softmax;
            let net = nn::Mlp::new(&[fan_in, fan_out], act, act, &mut rng);
            let json = serde_json::to_string(&net).unwrap();
            json["{\"layers\":[".len()..json.len() - "]}".len()].to_string()
        };
        let layers = [layer(4, 8), layer(6, 4)].join(",");
        format!("{{\"actor\":{{\"layers\":[{layers}]}},\"obs_norm\":null,\"consumer_budget\":14}}")
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
        let line = policy_line(&agent);
        for (broken, why) in [
            (policy_line(&infinite), "non-finite parameter"),
            (
                policy_line(&agent.replacen("\"rows\":8", "\"rows\":9", 1)),
                "9×4 weight matrix",
            ),
            (
                policy_line(&agent.replacen("\"cols\":4", "\"cols\":8", 1)),
                "holds 32 entries",
            ),
            (
                policy_line("{\"actor\":{\"layers\":[]},\"obs_norm\":null,\"consumer_budget\":14}"),
                "no layers",
            ),
            (
                policy_line(&disagreeing_widths_agent()),
                "layer 1 takes 6 inputs but layer 0 gives 8",
            ),
            (
                policy_line(&agent.replace("\"obs_norm\":null", &norm(3, "5.0"))),
                "3 dimensions",
            ),
            (
                policy_line(&agent.replace("\"obs_norm\":null", &norm(4, "-1.0"))),
                "clip",
            ),
            ("[1,2]".to_string(), "JSON object"),
            (line[..line.len() / 2].to_string(), "parse failed"),
            // The layouts only older builds read: a bare agent, and a
            // version-1 checkpoint's one line of training state.
            (agent.clone(), "policy_version"),
            (
                "{\"version\":1,\"config\":{},\"iteration\":3}".to_string(),
                "policy_version",
            ),
        ] {
            match decode_policy_line(broken.as_bytes()) {
                Err(CheckpointError::Corrupt(msg)) => assert!(msg.contains(why), "{msg}"),
                other => panic!("{why}: expected Corrupt, got {other:?}"),
            }
        }
    }

    /// Agents saved before the literal-floor option went: `false` decodes
    /// as the current agent, `true` is refused naming the key.
    #[test]
    fn agents_stored_with_strict_floor_decode_only_at_false() {
        let agent = agent_json();
        let current = decode_policy_line(policy_line(&agent).as_bytes()).unwrap();
        assert_eq!(current.1, 3);
        for floor in [false, true] {
            let stored = format!(
                "{},\"strict_floor\":{floor}}}",
                agent.strip_suffix('}').unwrap()
            );
            match decode_policy_line(policy_line(&stored).as_bytes()) {
                Ok(decoded) if !floor => assert_eq!(decoded, current),
                Err(CheckpointError::Mismatch(msg)) if floor => {
                    assert!(msg.contains("`strict_floor` is true"), "{msg}");
                }
                other => panic!("strict_floor={floor}: got {other:?}"),
            }
        }
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = CheckpointPayload::load(Path::new("/nonexistent/dir/ckpt.json")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}
