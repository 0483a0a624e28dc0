//! Checkpoint hot-swap: watch a path, load new policies between windows.
//! A `stat` per window on the decision thread, a re-hash of the policy line
//! about once a second on a verifier thread.

use std::fmt;
use std::fs::File;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use baselines::{Observation, Policy};
use miras_core::{decode_policy_line, read_policy_line, CheckpointError, MirasAgent};

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
    /// The file's first line is not a policy line (a bare agent, or a
    /// version-1 checkpoint's one line of training state, is not one).
    Unusable(CheckpointError),
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
            LoadError::Unusable(e) => write!(f, "file holds no deployable policy: {e}"),
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

/// Loads a deployable policy from `path`, reading only the file's first
/// line.
///
/// That line is a checkpoint's policy line,
/// `{"policy_version":N,"agent":{...}}`; it is also the whole of a
/// `head -n 1` policy file and of the policy file `miras-cli train --out`
/// and the `bench_artifacts/` cache write ([`miras_core::save_policy`]),
/// versioned with the iteration they were saved after. The line is read
/// once ([`read_policy_line`]) and parsed once ([`decode_policy_line`]); a
/// checkpoint's training state is never read. Returns the boxed policy and
/// its version.
///
/// # Errors
///
/// [`LoadError::Io`] if the file cannot be read, [`LoadError::Unusable`]
/// if its first line is not a policy line (e.g. the file was cut inside
/// it, or holds a bare serialized [`MirasAgent`] or a version-1
/// checkpoint's one line of training state).
pub fn load_policy(path: &Path) -> Result<(Box<dyn Policy>, u64), LoadError> {
    let file = File::open(path).map_err(LoadError::Io)?;
    decode(&read_policy_line(&file).map_err(LoadError::Io)?)
}

/// The policy a policy line holds, boxed for serving, and its version.
fn decode(line: &[u8]) -> Result<(Box<dyn Policy>, u64), LoadError> {
    let (agent, version) = decode_policy_line(line).map_err(LoadError::Unusable)?;
    Ok((Box::new(CheckpointPolicy { agent, version }), version))
}

/// How often the verifier thread re-hashes the watched file's policy line.
const VERIFY_INTERVAL: Duration = Duration::from_secs(1);

/// The cheap change key: everything one `stat` call says about the file
/// that a rewrite, a `touch` or a rename-over moves. `ctime` cannot be set
/// from user space, so even a rewrite that restores `mtime` moves it —
/// unless it lands within one timestamp tick, which the verifier covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StatKey {
    len: u64,
    mtime: (i64, i64),
    ctime: (i64, i64),
    ino: u64,
    dev: u64,
}

impl StatKey {
    fn of(meta: &std::fs::Metadata) -> Self {
        StatKey {
            len: meta.len(),
            mtime: (meta.mtime(), meta.mtime_nsec()),
            ctime: (meta.ctime(), meta.ctime_nsec()),
            ino: meta.ino(),
            dev: meta.dev(),
        }
    }

    /// One `metadata` call; `None` when the path cannot be stat'ed (absent,
    /// or unreachable — a change back is a key change and re-probes).
    fn current(path: &Path) -> Option<Self> {
        std::fs::metadata(path).ok().map(|meta| StatKey::of(&meta))
    }
}

/// The change-detection fingerprint: FNV-1a 64-bit over the policy line,
/// the bytes serving reads. A swap happens only when it differs from the
/// deployed one, so a rewrite of a checkpoint's training state alone, or a
/// `touch`, swaps nothing: serving would load the same policy. A rewrite
/// of the policy line is caught even when it keeps the file's length and
/// lands within the filesystem's mtime granularity, because the bytes
/// differ. Cheap, dependency-free and stable across platforms.
fn fnv1a64(line: &[u8]) -> u64 {
    line.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One full probe: open, stat (same handle, so the key and the line come
/// from the same inode even mid-rename), read the policy line. The key is
/// taken *before* the read, so a write racing the read moves the file's
/// key away from the stored one and the next poll probes again. `Ok(None)`
/// when the file does not exist.
fn probe(path: &Path) -> std::io::Result<Option<(StatKey, Vec<u8>)>> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let key = StatKey::of(&file.metadata()?);
    Ok(Some((key, read_policy_line(&file)?)))
}

/// State the decision thread shares with its verifier.
#[derive(Debug, Default)]
struct Shared {
    /// Set by the verifier when the file's policy line no longer matches
    /// `fingerprint`; makes the next poll run the full probe.
    dirty: AtomicBool,
    /// Fingerprint of the last probed policy line (`None` before the
    /// first). Only the decision thread writes it.
    fingerprint: Mutex<Option<u64>>,
}

impl Shared {
    fn fingerprint(&self) -> MutexGuard<'_, Option<u64>> {
        self.fingerprint
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// One verifier pass: re-read the policy line and flag a re-probe when its
/// fingerprint differs from the last probed one. A missing or unreadable
/// file flags nothing; the stat check owns those. A stale comparison (the
/// decision thread probed a newer file mid-pass) only costs one extra
/// probe: swaps are still decided by the decision thread's own probe.
fn verify(path: &Path, shared: &Shared) {
    let Some(expected) = *shared.fingerprint() else {
        return;
    };
    if let Ok(Some((_, line))) = probe(path) {
        if fnv1a64(&line) != expected {
            shared.dirty.store(true, Ordering::Relaxed);
        }
    }
}

/// The background verifier thread: runs [`verify`] every
/// [`VERIFY_INTERVAL`] until dropped. Dropping wakes it at once and joins.
#[derive(Debug)]
struct Verifier {
    stop: Sender<()>,
    thread: Option<JoinHandle<()>>,
}

impl Verifier {
    fn spawn(path: PathBuf, shared: Arc<Shared>) -> Self {
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = std::thread::Builder::new()
            .name("checkpoint-verifier".to_string())
            .spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(VERIFY_INTERVAL) {
                    verify(&path, &shared);
                }
            })
            .expect("spawning the checkpoint verifier thread");
        Verifier {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Verifier {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Watches a checkpoint path for changes between decision windows.
///
/// The serve loop is single-threaded by design: the watcher is polled at
/// the window boundary (never mid-decision), so a swap can never drop or
/// tear a request — the Nth decision comes entirely from the old policy or
/// entirely from the new one.
///
/// Change detection is split in two. On the decision thread, [`poll`]
/// costs one `stat` and one atomic load: it compares the file's
/// `(len, mtime, ctime, inode, device)` with the key stored at the last
/// probe, and checks a `dirty` flag. Only when either says "changed" does
/// it run the full probe: open, stat, read the policy line (line one, the
/// only bytes serving reads) and FNV-1a-hash it. If that fingerprint
/// differs from the deployed one, the same buffer is decoded into the new
/// policy, so a swap opens the file once. All of it runs synchronously, so
/// the first window polled after a write is served by the new policy. A
/// rewrite that keeps the policy line — new training state behind the
/// same policy, or a `touch` — re-probes but never swaps.
///
/// Off the decision thread, a verifier thread owned by the watcher
/// re-reads and re-hashes the policy line about once a second and sets
/// `dirty` when it no longer matches the deployed fingerprint. That
/// catches a same-length rewrite landing within one timestamp tick, which
/// no stat field shows. The flag only forces a re-probe; a swap still
/// needs the decision thread's own probe to see a new fingerprint, so a
/// racing or half-read verifier pass can never swap. Dropping the watcher
/// stops the verifier at once.
///
/// Every writer of policy and checkpoint files is atomic (temp + fsync +
/// rename), so a changed fingerprint always points at a complete line. Key
/// and line come from one open file handle, so a rename racing the probe
/// yields a self-consistent probe of one version or the other.
///
/// A file that fails to load (e.g. hand-corrupted), or cannot be read at
/// all, is reported once via [`SwapOutcome::Failed`] and not retried until
/// its stat key changes or the verifier sees new content; the service
/// keeps the old policy, which is the safe behaviour for a live control
/// loop. Transient probe failures are retried with bounded exponential
/// backoff; the retry count is surfaced through
/// `CheckpointWatcher::take_retries` so the service can fold it into the
/// `serve.retries` counter.
///
/// [`poll`]: CheckpointWatcher::poll
#[derive(Debug)]
pub struct CheckpointWatcher {
    path: PathBuf,
    /// Stat key as of the last full probe (or failed probe attempt).
    key: Option<StatKey>,
    shared: Arc<Shared>,
    retries: u64,
    _verifier: Verifier,
}

/// What a watcher poll produced.
pub enum SwapOutcome {
    /// A new checkpoint loaded cleanly.
    Swapped {
        /// The freshly loaded policy.
        policy: Box<dyn Policy>,
        /// Its version (the iteration the file was saved after).
        version: u64,
    },
    /// The path changed but could not be read or loaded (or, as judged by
    /// the service, holds a policy over the wrong task types); the old
    /// policy stays.
    Failed(LoadError),
}

impl CheckpointWatcher {
    /// Watches `path`, treating the currently present file as already
    /// deployed (only *subsequent* changes trigger swaps). Used when the
    /// service loads its initial policy from the same path at startup.
    /// Starts the watcher's verifier thread.
    #[must_use]
    pub fn new_deployed(path: PathBuf) -> Self {
        let probed = probe(&path).ok().flatten();
        let shared = Arc::new(Shared::default());
        *shared.fingerprint() = probed.as_ref().map(|(_, line)| fnv1a64(line));
        CheckpointWatcher {
            _verifier: Verifier::spawn(path.clone(), Arc::clone(&shared)),
            path,
            key: probed.map(|(key, _)| key),
            shared,
            retries: 0,
        }
    }

    /// Drains the count of transient-probe retries performed since the last
    /// call (the service folds this into `serve.retries`).
    pub(crate) fn take_retries(&mut self) -> u64 {
        std::mem::take(&mut self.retries)
    }

    /// Checks the path. `None` means no change since the last poll: the
    /// stat key is unchanged and the verifier has not flagged new content,
    /// or the full probe found the same policy line, or the file is gone
    /// (the old policy keeps serving). `Some(Swapped)` carries the new
    /// policy. `Some(Failed)` means the changed file could not be read
    /// (after bounded retry of transient errors, as
    /// [`LoadError::RetryExhausted`]) or could not be loaded. A failure is
    /// reported once: later polls return `None` until the stat key changes
    /// or the verifier flags new content.
    pub fn poll(&mut self) -> Option<SwapOutcome> {
        let key = StatKey::current(&self.path);
        let dirty = self.shared.dirty.load(Ordering::Relaxed);
        if key == self.key && !dirty {
            return None;
        }
        if dirty {
            self.shared.dirty.store(false, Ordering::Relaxed);
        }
        // Stored before probing, so a probe that fails on this key is not
        // repeated (and reported) every window.
        self.key = key;
        let retries = &mut self.retries;
        let probed = retry_with(
            RetryPolicy::default(),
            "watcher_fingerprint",
            io_transient,
            |_| *retries += 1,
            || probe(&self.path),
        );
        let line = match probed {
            Ok(Some((key, line))) => {
                self.key = Some(key);
                line
            }
            Ok(None) => return None,
            Err(exhausted) => {
                // Leave the stored fingerprint alone: when the file becomes
                // readable, the change (if any) is still detected.
                return Some(SwapOutcome::Failed(LoadError::RetryExhausted {
                    attempts: exhausted.attempts,
                    last: exhausted.last,
                }));
            }
        };
        let current = Some(fnv1a64(&line));
        if std::mem::replace(&mut *self.shared.fingerprint(), current) == current {
            return None;
        }
        Some(match decode(&line) {
            Ok((policy, version)) => SwapOutcome::Swapped { policy, version },
            Err(e) => SwapOutcome::Failed(e),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miras_core::MirasAgent;
    use nn::{Activation, Mlp};
    use rand::SeedableRng;
    use std::time::Instant;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("miras_watch_{name}_{}.json", std::process::id()))
    }

    /// A loadable policy line at version 0 over MSD's four task types.
    fn policy_line(seed: u64) -> String {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let actor = Mlp::new(&[4, 8, 4], Activation::Relu, Activation::Softmax, &mut rng);
        let agent = serde_json::to_string(&MirasAgent::new(actor, 14)).unwrap();
        format!("{{\"policy_version\":0,\"agent\":{agent}}}")
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn probe_distinguishes_same_length_content() {
        let path = temp_path("probe");
        std::fs::write(&path, b"AAAA\nstate").unwrap();
        let (_, a) = probe(&path).unwrap().unwrap();
        std::fs::write(&path, b"BBBB\nstate").unwrap();
        let (key, b) = probe(&path).unwrap().unwrap();
        assert_eq!((a.as_slice(), b.as_slice()), (&b"AAAA"[..], &b"BBBB"[..]));
        assert_ne!(fnv1a64(&a), fnv1a64(&b), "same length, different bytes");
        assert_eq!(Some(key), StatKey::current(&path));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn probe_of_missing_file_is_none_not_error() {
        let path = std::env::temp_dir().join("miras_watch_probe_never_exists.json");
        assert!(probe(&path).unwrap().is_none());
    }

    /// Two files with the same policy line and different training states
    /// have one fingerprint, so rewriting only the training state (here
    /// to a different length, so the stat key moves) swaps nothing.
    #[test]
    fn a_new_training_state_behind_the_same_policy_line_does_not_swap() {
        let path = temp_path("same_line");
        let other = temp_path("same_line_other");
        let line = policy_line(1);
        std::fs::write(&path, format!("{line}\n{{\"state\":1}}")).unwrap();
        std::fs::write(&other, format!("{line}\n{{\"state\":[2,3,4]}}")).unwrap();
        let (_, a) = probe(&path).unwrap().unwrap();
        let (_, b) = probe(&other).unwrap().unwrap();
        assert_eq!(fnv1a64(&a), fnv1a64(&b));

        let mut watcher = CheckpointWatcher::new_deployed(path.clone());
        std::fs::rename(&other, &path).unwrap();
        assert_ne!(watcher.key, StatKey::current(&path), "the stat key moved");
        assert!(watcher.poll().is_none(), "same policy line, no swap");
        assert_eq!(watcher.key, StatKey::current(&path), "re-probed once");

        // The policy line itself changing still swaps.
        std::fs::write(&path, format!("{}\n{{\"state\":1}}", policy_line(2))).unwrap();
        assert!(matches!(
            watcher.poll(),
            Some(SwapOutcome::Swapped { version: 0, .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    /// A `touch`: the mtime (and ctime) move, the content does not, and the
    /// policy is not reloaded.
    #[test]
    fn touching_an_unchanged_file_does_not_swap() {
        let path = temp_path("touch");
        std::fs::write(&path, policy_line(1)).unwrap();
        let mut watcher = CheckpointWatcher::new_deployed(path.clone());
        let stamp = std::time::SystemTime::UNIX_EPOCH + Duration::from_secs(1_700_000_000);
        File::options()
            .append(true)
            .open(&path)
            .unwrap()
            .set_modified(stamp)
            .unwrap();
        assert_ne!(watcher.key, StatKey::current(&path), "the stat key moved");
        assert!(watcher.poll().is_none());
        assert!(watcher.poll().is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn verifier_pass_flags_a_rewrite_the_stat_key_missed() {
        let path = temp_path("verify");
        std::fs::write(&path, policy_line(1)).unwrap();
        let mut watcher = CheckpointWatcher::new_deployed(path.clone());
        assert!(watcher.poll().is_none(), "unchanged file");

        // A rewrite within one timestamp tick: the stored stat key matches
        // the new file, but the stored checksum is the old content's.
        std::fs::write(&path, policy_line(2)).unwrap();
        watcher.key = StatKey::current(&path);
        assert!(watcher.poll().is_none(), "the stat check cannot see it");

        verify(&path, &watcher.shared);
        assert!(watcher.shared.dirty.load(Ordering::Relaxed));
        assert!(matches!(
            watcher.poll(),
            Some(SwapOutcome::Swapped { version: 0, .. })
        ));
        assert!(!watcher.shared.dirty.load(Ordering::Relaxed));
        assert!(watcher.poll().is_none(), "the new content is now deployed");

        // A pass over unchanged content flags nothing.
        verify(&path, &watcher.shared);
        assert!(!watcher.shared.dirty.load(Ordering::Relaxed));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unreadable_checkpoint_is_reported_once_then_recovers() {
        let path = temp_path("unreadable");
        std::fs::write(&path, policy_line(1)).unwrap();
        let mut watcher = CheckpointWatcher::new_deployed(path.clone());
        assert!(watcher.poll().is_none());

        // A directory of the same name: `read` fails with EISDIR, even as
        // root.
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        assert!(matches!(
            watcher.poll(),
            Some(SwapOutcome::Failed(LoadError::RetryExhausted { .. }))
        ));
        for _ in 0..3 {
            assert!(watcher.poll().is_none(), "reported once, not per window");
        }

        std::fs::remove_dir(&path).unwrap();
        std::fs::write(&path, policy_line(2)).unwrap();
        assert!(matches!(watcher.poll(), Some(SwapOutcome::Swapped { .. })));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dropping_a_watcher_stops_its_verifier_promptly() {
        let path = temp_path("drop");
        std::fs::write(&path, b"{}").unwrap();
        let watcher = CheckpointWatcher::new_deployed(path.clone());
        std::thread::sleep(VERIFY_INTERVAL / 4);
        let started = Instant::now();
        drop(watcher);
        assert!(
            started.elapsed() < VERIFY_INTERVAL / 4,
            "drop took {:?}",
            started.elapsed()
        );
        let _ = std::fs::remove_file(&path);
    }
}
