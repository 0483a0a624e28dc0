//! Checkpoint hot-swap: watch a path, load new policies between windows.
//! A `stat` per window on the decision thread, a content re-hash about once
//! a second on a verifier thread.

use std::fmt;
use std::io::{BufRead, BufReader, Read};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime};

use baselines::{Observation, Policy};
use miras_core::{decode_policy_line, CheckpointError, MirasAgent};

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
    /// The file's first line is neither a policy line, a legacy
    /// checkpoint nor a raw agent.
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
/// That line is a checkpoint's policy line; it is also the whole of a
/// `head -n 1` policy file, of a checkpoint saved before policy lines
/// existed, and of a raw serialized [`MirasAgent`] (as cached under
/// `bench_artifacts/`). Checkpoint policies are versioned with the
/// iteration they were saved after, raw agents with 0. The line is read
/// once and parsed once ([`decode_policy_line`]); a current checkpoint's
/// training state is never read. Returns the boxed policy and its version.
///
/// # Errors
///
/// [`LoadError::Io`] if the file cannot be read, [`LoadError::Unusable`]
/// if its first line holds no policy (e.g. the file was cut inside it).
pub fn load_policy(path: &Path) -> Result<(Box<dyn Policy>, u64), LoadError> {
    let mut line = Vec::new();
    BufReader::new(std::fs::File::open(path).map_err(LoadError::Io)?)
        .read_until(b'\n', &mut line)
        .map_err(LoadError::Io)?;
    let line = String::from_utf8(line)
        .map_err(|e| LoadError::Unusable(CheckpointError::Corrupt(format!("not UTF-8: {e}"))))?;
    let (agent, version) = decode_policy_line(&line).map_err(LoadError::Unusable)?;
    Ok((Box::new(CheckpointPolicy { agent, version }), version))
}

/// How often the verifier thread re-hashes the watched file.
const VERIFY_INTERVAL: Duration = Duration::from_secs(1);

/// Read size for streaming a file through FNV-1a: the probe and the
/// verifier never hold more than this much of the checkpoint at once.
const HASH_CHUNK: usize = 64 * 1024;

/// FNV-1a 64-bit offset basis (the hash of the empty input).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

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

/// Change-detection fingerprint: `(mtime, len, content checksum)`. A swap
/// happens only when this differs from the last probed one.
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

/// Continues an FNV-1a 64-bit hash over `bytes` — cheap, dependency-free,
/// and stable across platforms.
fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Streams `reader` through FNV-1a in [`HASH_CHUNK`] pieces: `(bytes read,
/// checksum)`, equal to hashing the whole content in one slice.
fn hash_stream(reader: &mut impl Read) -> std::io::Result<(u64, u64)> {
    let mut buf = [0u8; HASH_CHUNK];
    let (mut len, mut hash) = (0u64, FNV_OFFSET);
    loop {
        match reader.read(&mut buf) {
            Ok(0) => return Ok((len, hash)),
            Ok(n) => {
                hash = fnv1a64_extend(hash, &buf[..n]);
                len += n as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// One full probe: open, stat (same handle, so the key, mtime and bytes are
/// the same inode even mid-rename), stream the bytes through the checksum.
/// The key is taken *before* the read, so a write racing the read moves
/// the file's key away from the stored one and the next poll probes again.
/// `Ok(None)` when the file does not exist.
fn probe(path: &Path) -> std::io::Result<Option<(StatKey, Fingerprint)>> {
    let mut file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let meta = file.metadata()?;
    let (len, checksum) = hash_stream(&mut file)?;
    let fingerprint = Fingerprint {
        mtime: meta.modified()?,
        len,
        checksum,
    };
    Ok(Some((StatKey::of(&meta), fingerprint)))
}

/// State the decision thread shares with its verifier.
#[derive(Debug, Default)]
struct Shared {
    /// Set by the verifier when the file's content no longer matches
    /// `checksum`; makes the next poll run the full probe.
    dirty: AtomicBool,
    /// Checksum of the last probed content (`None` before the first).
    checksum: Mutex<Option<u64>>,
}

impl Shared {
    fn checksum(&self) -> MutexGuard<'_, Option<u64>> {
        self.checksum.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One verifier pass: re-hash the file and flag a re-probe when its content
/// differs from the last probed checksum. A missing or unreadable file
/// flags nothing; the stat check owns those. A stale comparison (the
/// decision thread probed a newer file mid-pass) only costs one extra
/// probe: swaps are still decided by the full fingerprint.
fn verify(path: &Path, shared: &Shared) {
    let Some(expected) = *shared.checksum() else {
        return;
    };
    if let Ok(Some((_, fingerprint))) = probe(path) {
        if fingerprint.checksum != expected {
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
/// it run the full probe (open, stat, stream the bytes through an FNV-1a
/// checksum) and, if the `(mtime, len, checksum)` fingerprint differs,
/// load the file — synchronously, so the first window polled after a write
/// is served by the new policy. Off the decision thread, a verifier thread
/// owned by the watcher re-hashes the file about once a second and sets
/// `dirty` when the content no longer matches the last probed checksum.
/// That catches a same-length rewrite landing within one timestamp tick,
/// which no stat field shows. The flag only forces a re-probe; a swap
/// still needs the full fingerprint to differ, so a racing or half-read
/// verifier pass can never swap. Dropping the watcher stops the verifier
/// at once.
///
/// The PR-3 checkpoint writer is atomic (temp + fsync + rename), so a
/// changed fingerprint always points at a complete file. Key, length and
/// checksum come from one open file handle, so a rename racing the probe
/// yields a self-consistent fingerprint of one version or the other.
///
/// A file that fails to load (e.g. hand-corrupted), or cannot be read at
/// all, is reported once via [`SwapOutcome::Failed`] and not retried until
/// its stat key changes or the verifier sees new content; the service
/// keeps the old policy, which is the safe behaviour for a live control
/// loop. Transient probe failures are retried with bounded exponential
/// backoff ([`RetryPolicy`]); the retry count is surfaced through
/// `CheckpointWatcher::take_retries` so the service can fold it into the
/// `serve.retries` counter.
///
/// [`poll`]: CheckpointWatcher::poll
#[derive(Debug)]
pub struct CheckpointWatcher {
    path: PathBuf,
    /// Stat key as of the last full probe (or failed probe attempt).
    key: Option<StatKey>,
    fingerprint: Option<Fingerprint>,
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
        /// Its version (checkpoint iteration, or 0 for raw agents).
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
        *shared.checksum() = probed.map(|(_, fp)| fp.checksum);
        CheckpointWatcher {
            _verifier: Verifier::spawn(path.clone(), Arc::clone(&shared)),
            path,
            key: probed.map(|(key, _)| key),
            fingerprint: probed.map(|(_, fp)| fp),
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
    /// or the full probe found the same fingerprint, or the file is gone
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
        let current = match probed {
            Ok(Some((key, fp))) => {
                self.key = Some(key);
                fp
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
        if self.fingerprint == Some(current) {
            return None;
        }
        self.fingerprint = Some(current);
        *self.shared.checksum() = Some(current.checksum);
        match load_policy(&self.path) {
            Ok((policy, version)) => Some(SwapOutcome::Swapped { policy, version }),
            Err(e) => Some(SwapOutcome::Failed(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miras_core::MirasAgent;
    use nn::{Activation, Mlp};
    use rand::SeedableRng;
    use std::time::Instant;

    /// FNV-1a 64-bit over `bytes` in one slice.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        fnv1a64_extend(FNV_OFFSET, bytes)
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("miras_watch_{name}_{}.json", std::process::id()))
    }

    /// A loadable raw-agent file over MSD's four task types.
    fn agent_json(seed: u64) -> String {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let actor = Mlp::new(&[4, 8, 4], Activation::Relu, Activation::Softmax, &mut rng);
        serde_json::to_string(&MirasAgent::new(actor, 14)).unwrap()
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
        std::fs::write(&path, b"AAAA").unwrap();
        let (_, a) = probe(&path).unwrap().unwrap();
        std::fs::write(&path, b"BBBB").unwrap();
        let (_, b) = probe(&path).unwrap().unwrap();
        assert_eq!(a.len, b.len);
        assert_ne!(a.checksum, b.checksum, "same length, different bytes");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn probe_of_missing_file_is_none_not_error() {
        let path = std::env::temp_dir().join("miras_watch_probe_never_exists.json");
        assert!(probe(&path).unwrap().is_none());
    }

    #[test]
    fn streamed_probe_matches_whole_file_hash() {
        let path = temp_path("streamed");
        // Three and a bit chunks, with a byte pattern that is not periodic
        // in the chunk size.
        let bytes: Vec<u8> = (0..3 * HASH_CHUNK + 1234)
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        std::fs::write(&path, &bytes).unwrap();
        let (key, fp) = probe(&path).unwrap().unwrap();
        let whole = std::fs::read(&path).unwrap();
        assert_eq!((fp.len, fp.checksum), (whole.len() as u64, fnv1a64(&whole)));
        assert_eq!(Some(key), StatKey::current(&path));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn verifier_pass_flags_a_rewrite_the_stat_key_missed() {
        let path = temp_path("verify");
        std::fs::write(&path, agent_json(1)).unwrap();
        let mut watcher = CheckpointWatcher::new_deployed(path.clone());
        assert!(watcher.poll().is_none(), "unchanged file");

        // A rewrite within one timestamp tick: the stored stat key matches
        // the new file, but the stored checksum is the old content's.
        std::fs::write(&path, agent_json(2)).unwrap();
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
        std::fs::write(&path, agent_json(1)).unwrap();
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
        std::fs::write(&path, agent_json(2)).unwrap();
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
