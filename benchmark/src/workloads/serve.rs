//! `serve-ckpt` / `serve-registry`: what a cluster controller waits for —
//! the real `miras-serve` binary answering window observations over a Unix
//! socket.
//!
//! Closed loop throughout: every controller waits for its reply before it
//! sends its next window (the paper's caller makes one decision per 30 s
//! window), so a slow server receives less load instead of a growing
//! backlog. Phase A (1 connection x 1 outstanding) gives latency; phase B
//! (2 connections x 16 outstanding, 32 in flight under the admission bound
//! of 64, so nothing is shed by construction) gives throughput.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use baselines::{by_name, Policy, PolicyConfig};
use miras_core::MirasTrainer;
use serve::{record_stream, replay_stream, DecisionRecord};
use workflow::Ensemble;

use super::train::{fixed_work_config, msd_env};
use super::{Env, Measurement, Workload};
use crate::stats::{Fnv, Summary};
use crate::trace::Tracer;

/// Windows in the recorded observation stream, which is then looped.
const STREAM_WINDOWS: usize = 2000;
/// Connections `miras-serve` is told to serve; phase B uses all of them.
const CONNECTIONS: usize = 2;
/// Requests each phase-B connection keeps in flight.
const OUTSTANDING: usize = 16;
/// Equal slices phase B is cut into; throughput is the median slice's rate.
const SLICES: usize = 10;
/// Phase-A requests after which the daemon's peak memory is read.
const RSS_MARK_REQUESTS: u64 = 512;
/// The server's admission bound; above `CONNECTIONS * OUTSTANDING`.
const MAX_INFLIGHT: usize = 64;
/// Closed-loop requests per connection before anything is timed.
const WARMUP_REQUESTS: u64 = 64;
/// A reply later than this is a hung server: stop instead of waiting.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// The registry policy `serve-registry` serves.
pub const REGISTRY_POLICY: &str = "drs";

/// A recorded MSD observation stream, pre-serialised so that sending a
/// window costs one integer format: each entry is a wire line with its
/// `{"window":N` head cut off.
pub struct ObsStream {
    tails: Vec<String>,
}

impl ObsStream {
    /// Drives the emulator for [`STREAM_WINDOWS`] windows under the uniform
    /// policy, as `miras-serve --record` does.
    ///
    /// # Errors
    ///
    /// If an observation does not serialise to the expected shape.
    pub fn record(seed: u64) -> Result<Self, String> {
        let ensemble = Ensemble::msd();
        let mut driver =
            by_name("uniform", &PolicyConfig::new(&ensemble)).map_err(|e| e.to_string())?;
        let observations = record_stream(&ensemble, seed, STREAM_WINDOWS, None, driver.as_mut());
        let tails = observations
            .iter()
            .map(|obs| {
                let line = serde_json::to_string(obs).map_err(|e| e.to_string())?;
                let head = format!("{{\"window\":{}", obs.window);
                line.strip_prefix(&head)
                    .filter(|tail| tail.starts_with(','))
                    .map(str::to_string)
                    .ok_or_else(|| format!("observation line does not start with {head},"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ObsStream { tails })
    }

    /// Writes the wire line (newline included) for unique window id `id`,
    /// whose body is the recorded window `id mod len`.
    pub fn line_into(&self, id: u64, buf: &mut String) {
        buf.clear();
        let tail = &self.tails[(id % self.tails.len() as u64) as usize];
        let _ = writeln!(buf, "{{\"window\":{id}{tail}");
    }
}

/// Pairs replies with the windows that were sent, whatever order they come
/// back in: a shed reply is written by the server's reader thread and can
/// overtake earlier windows still queued for the decision thread.
#[derive(Debug, Default)]
pub struct Matcher {
    outstanding: HashMap<u64, u64>,
}

impl Matcher {
    pub fn sent(&mut self, window: u64, at_ns: u64) {
        self.outstanding.insert(window, at_ns);
    }

    /// The reply's latency in nanoseconds, or `None` for a window that was
    /// never sent or is already answered.
    pub fn reply(&mut self, window: u64, at_ns: u64) -> Option<u64> {
        self.outstanding
            .remove(&window)
            .map(|sent| at_ns.saturating_sub(sent))
    }

    /// Windows sent and not answered.
    #[must_use]
    pub fn missing(&self) -> usize {
        self.outstanding.len()
    }
}

/// How one phase's requests ended.
#[derive(Debug, Default, Clone)]
pub struct PhaseCounts {
    pub sent: u64,
    pub normal: u64,
    pub shed: u64,
    pub degraded: u64,
    pub missing: u64,
    /// Unparseable, unmatched or over-budget replies, described.
    pub malformed: Vec<String>,
    /// Socket write -> reply line read, per answered request.
    pub latency_us: Vec<f64>,
    /// Normal replies per [`SLICES`]-th of the phase's timed interval ...
    pub normal_by_slice: [u64; SLICES],
    /// ... of this many seconds.
    pub secs: f64,
}

impl PhaseCounts {
    fn merge(&mut self, other: PhaseCounts) {
        self.sent += other.sent;
        self.normal += other.normal;
        self.shed += other.shed;
        self.degraded += other.degraded;
        self.missing += other.missing;
        self.malformed.extend(other.malformed);
        self.latency_us.extend(other.latency_us);
        for (mine, theirs) in self.normal_by_slice.iter_mut().zip(other.normal_by_slice) {
            *mine += theirs;
        }
        self.secs = self.secs.max(other.secs);
    }

    #[must_use]
    pub fn describe(&self, phase: &str) -> String {
        let latency = Summary::of(&self.latency_us).map_or_else(String::new, |s| {
            format!(
                ", latency min {:.1} us p50 {:.1} us p99 {:.1} us max {:.1} us over {} samples",
                s.min, s.p50, s.p99, s.max, s.count
            )
        });
        format!(
            "{phase}: sent {} normal {} shed {} degraded {} missing {} malformed {}{latency}",
            self.sent,
            self.normal,
            self.shed,
            self.degraded,
            self.missing,
            self.malformed.len()
        )
    }

    fn into_measurement(self, m: &mut Measurement) {
        m.attempted += self.sent;
        m.failed += self.shed + self.degraded + self.missing;
        for what in self.malformed {
            m.wrong(what);
        }
    }
}

/// One client connection: line writer and buffered line reader.
struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    matcher: Matcher,
    line: String,
    reply: String,
}

impl Conn {
    fn open(socket: &Path) -> Result<Self, String> {
        let writer = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        writer
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn {
            writer,
            reader,
            matcher: Matcher::default(),
            line: String::new(),
            reply: String::new(),
        })
    }

    /// Switches the connection between sleeping in `read` and polling it
    /// (see [`Wait`]).
    fn set_polling(&mut self, on: bool) -> Result<(), String> {
        self.writer
            .set_nonblocking(on)
            .map_err(|e| format!("set_nonblocking: {e}"))
    }

    fn send(&mut self, stream: &ObsStream, id: u64, origin: Instant) -> Result<(), String> {
        stream.line_into(id, &mut self.line);
        self.matcher.sent(id, origin.elapsed().as_nanos() as u64);
        self.writer
            .write_all(self.line.as_bytes())
            .map_err(|e| format!("writing window {id}: {e}"))
    }

    /// Reads one reply line and books it; a normal reply also counts
    /// towards the slice of the timed `interval` (start, seconds) it arrived
    /// in. `false` when the server hung up or stopped answering: the
    /// windows still outstanding are missing.
    fn receive(
        &mut self,
        budget: usize,
        origin: Instant,
        interval: (Instant, f64),
        counts: &mut PhaseCounts,
    ) -> bool {
        self.reply.clear();
        let waiting_since = Instant::now();
        loop {
            match self.reader.read_line(&mut self.reply) {
                Ok(n) if n > 0 && self.reply.ends_with('\n') => break,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        && waiting_since.elapsed() < REPLY_TIMEOUT =>
                {
                    std::hint::spin_loop();
                }
                _ => return false,
            }
        }
        let now = Instant::now();
        let at_ns = now.duration_since(origin).as_nanos() as u64;
        let slice = now.duration_since(interval.0).as_secs_f64() / interval.1 * SLICES as f64;
        let text = self.reply.trim_end();
        let record: DecisionRecord = match serde_json::from_str(text) {
            Ok(record) => record,
            Err(e) => {
                counts
                    .malformed
                    .push(format!("unparseable reply ({e}): {text}"));
                return true;
            }
        };
        let Some(latency_ns) = self.matcher.reply(record.window as u64, at_ns) else {
            counts
                .malformed
                .push(format!("reply for a window not outstanding: {text}"));
            return true;
        };
        counts.latency_us.push(latency_ns as f64 / 1e3);
        if !record.is_actionable() {
            counts.shed += 1;
        } else if record.degraded {
            counts.degraded += 1;
        } else if record.allocations.iter().sum::<usize>() > budget {
            counts
                .malformed
                .push(format!("allocation over the budget of {budget}: {text}"));
        } else {
            counts.normal += 1;
            if let Some(count) = counts.normal_by_slice.get_mut(slice as usize) {
                *count += 1;
            }
        }
        true
    }
}

/// A spawned `miras-serve`, killed and reaped on drop along with its
/// socket and log, so a failed run leaves nothing behind.
struct Server {
    child: Child,
    socket: PathBuf,
    stderr_log: PathBuf,
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
        let _ = std::fs::remove_file(&self.stderr_log);
    }
}

/// Which policy the server is started with.
pub enum PolicySource {
    /// `--checkpoint FILE`: hot-swap watcher plus the actor forward.
    Checkpoint(PathBuf),
    /// `--policy NAME`: no watcher, no network.
    Registry(&'static str),
}

impl PolicySource {
    /// The same policy, loaded in-process, for the byte-equality reference.
    fn load(&self) -> Result<Box<dyn Policy>, String> {
        match self {
            PolicySource::Checkpoint(path) => serve::load_policy(path)
                .map(|(policy, _version)| policy)
                .map_err(|e| e.to_string()),
            PolicySource::Registry(name) => {
                by_name(name, &PolicyConfig::new(&Ensemble::msd())).map_err(|e| e.to_string())
            }
        }
    }
}

/// The p99 in the daemon's closing stderr line
/// (`serve: N decisions ... latency p50 Xus p99 Yus max Zus`): decide-only
/// latency, which is what its `--max-p99-us` gate sees.
#[must_use]
pub fn parse_self_reported_p99_us(closing_line: &str) -> Option<f64> {
    let after = closing_line.split(" p99 ").nth(1)?;
    after.split("us").next()?.trim().parse().ok()
}

/// The daemon's per-decision deadline.
#[derive(Debug, Clone, Copy)]
pub enum Deadline {
    /// Live mode's default: a decide over 1 ms is answered by the fallback
    /// policy, stamped degraded.
    LiveDefault,
    /// `--deadline-us 0`. The workloads run with the deadline off: with it
    /// on, the host preempting the decision thread mid-decide turns about
    /// one request in 250 000 into a degraded reply, so whether a run has
    /// a failed operation would be a coin flip. The check itself is one
    /// comparison per decision.
    Off,
}

/// How a closed-loop generator waits for its reply.
#[derive(Debug, Clone, Copy)]
pub enum Wait {
    /// Asleep in `read`.
    Block,
    /// Polling the socket. The timed 1 x 1 phase waits this way so that
    /// the generator's own wake-up is not part of the latency it reports:
    /// asleep, the round trip flips between two modes (~20 us and ~65 us
    /// on the reference host) with where the scheduler put the threads.
    Poll,
}

/// When a closed-loop phase stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this many seconds.
    Elapsed(f64),
    /// After this many requests.
    Sent(u64),
}

/// A live server plus its client connections.
pub struct Session {
    // Declared before `server`: connections close first, so the daemon
    // sees EOF and drains before it is reaped.
    conns: Vec<Conn>,
    server: Server,
    stream: Arc<ObsStream>,
    source: PolicySource,
    budget: usize,
    origin: Instant,
    next_id: u64,
    /// `(line sent, reply received)` in order, from the first request on,
    /// until the byte-equality check against in-process replay consumes it.
    first_pass: Option<Vec<(String, String)>>,
}

impl Session {
    /// Spawns `miras-serve` on a fresh Unix socket and connects `clients`
    /// connections to it.
    ///
    /// # Errors
    ///
    /// If the server cannot be spawned or does not start listening.
    pub fn start(
        env: &Env,
        source: PolicySource,
        clients: usize,
        deadline: Deadline,
        stream: Arc<ObsStream>,
    ) -> Result<Self, String> {
        std::fs::create_dir_all(&env.out_dir)
            .map_err(|e| format!("creating {}: {e}", env.out_dir.display()))?;
        let tag = format!("serve-{}", std::process::id());
        let socket = env.out_dir.join(format!("{tag}.sock"));
        let stderr_log = env.out_dir.join(format!("{tag}.stderr"));
        let _ = std::fs::remove_file(&socket);
        let log = std::fs::File::create(&stderr_log)
            .map_err(|e| format!("creating {}: {e}", stderr_log.display()))?;
        let mut command = Command::new(&env.serve_bin);
        match &source {
            PolicySource::Checkpoint(path) => command.arg("--checkpoint").arg(path),
            PolicySource::Registry(name) => command.arg("--policy").arg(name),
        };
        command
            .arg("--listen")
            .arg(format!("unix:{}", socket.display()))
            .args(["--clients", &clients.to_string()])
            .args(["--max-inflight", &MAX_INFLIGHT.to_string()])
            .args(["--shed-policy", "reject"])
            .args(match deadline {
                Deadline::LiveDefault => &[][..],
                Deadline::Off => &["--deadline-us", "0"][..],
            })
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        let child = command
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", env.serve_bin.display()))?;
        let mut server = Server {
            child,
            socket,
            stderr_log,
        };

        let started = Instant::now();
        let mut conns = Vec::with_capacity(clients);
        while conns.len() < clients {
            match Conn::open(&server.socket) {
                Ok(conn) => conns.push(conn),
                Err(e) => {
                    if let Ok(Some(status)) = server.child.try_wait() {
                        let log = std::fs::read_to_string(&server.stderr_log).unwrap_or_default();
                        return Err(format!("miras-serve exited ({status}) at start-up: {log}"));
                    }
                    if started.elapsed() > Duration::from_secs(10) {
                        return Err(format!("miras-serve not listening after 10 s: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        Ok(Session {
            conns,
            server,
            stream,
            source,
            budget: Ensemble::msd().default_consumer_budget(),
            origin: Instant::now(),
            next_id: 0,
            first_pass: Some(Vec::new()),
        })
    }

    /// Closed loop on one connection, one request outstanding.
    ///
    /// # Errors
    ///
    /// If the connection breaks.
    pub fn closed_loop(
        &mut self,
        conn: usize,
        until: Until,
        wait: Wait,
        tracer: &mut Tracer,
    ) -> Result<PhaseCounts, String> {
        let mut counts = PhaseCounts::default();
        let c = &mut self.conns[conn];
        c.set_polling(matches!(wait, Wait::Poll))?;
        let start = Instant::now();
        let (secs, limit) = match until {
            Until::Elapsed(secs) => (secs, u64::MAX),
            Until::Sent(n) => (REPLY_TIMEOUT.as_secs_f64() * n as f64, n),
        };
        while start.elapsed().as_secs_f64() < secs && counts.sent < limit {
            let id = self.next_id;
            self.next_id += 1;
            let span = tracer.begin("serve", "socket_request", id);
            c.send(&self.stream, id, self.origin)?;
            counts.sent += 1;
            let alive = c.receive(self.budget, self.origin, (start, secs), &mut counts);
            tracer.end(span);
            if let Some(log) = &mut self.first_pass {
                if log.len() < STREAM_WINDOWS {
                    log.push((c.line.clone(), c.reply.trim_end().to_string()));
                }
            }
            if !alive {
                break;
            }
        }
        counts.secs = start.elapsed().as_secs_f64();
        counts.missing = c.matcher.missing() as u64;
        c.set_polling(false)?;
        Ok(counts)
    }

    /// Every connection keeps [`OUTSTANDING`] requests in flight for
    /// `secs`, one blocking generator thread per connection, then drains.
    ///
    /// # Errors
    ///
    /// If a connection breaks.
    pub fn loaded(&mut self, secs: f64, tracer: &mut Tracer) -> Result<PhaseCounts, String> {
        // No byte-equality after this: interleaving two connections makes
        // an adaptive policy's inputs schedule-dependent.
        let threads = self.conns.len() as u64;
        let base = self.next_id;
        let (stream, budget, origin) = (&self.stream, self.budget, self.origin);
        let barrier = Barrier::new(self.conns.len());
        let trace_on = tracer.enabled();
        let trace_origin = tracer.origin();
        let results: Vec<Result<(PhaseCounts, u64, Tracer), String>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .conns
                    .iter_mut()
                    .enumerate()
                    .map(|(k, c)| {
                        let barrier = &barrier;
                        scope.spawn(move || {
                            let mut counts = PhaseCounts::default();
                            let mut local = Tracer::with_origin(trace_on, trace_origin);
                            // Connection k sends ids base + k, base + k + threads, ...
                            let mut next = base + k as u64;
                            barrier.wait();
                            let start = Instant::now();
                            let deadline = start + Duration::from_secs_f64(secs);
                            let span = local.begin("serve", "socket_loaded", k as u64);
                            for _ in 0..OUTSTANDING {
                                c.send(stream, next, origin)?;
                                next += threads;
                                counts.sent += 1;
                            }
                            while c.matcher.missing() > 0 {
                                if !c.receive(budget, origin, (start, secs), &mut counts) {
                                    break;
                                }
                                if Instant::now() < deadline {
                                    c.send(stream, next, origin)?;
                                    next += threads;
                                    counts.sent += 1;
                                }
                            }
                            local.end(span);
                            counts.secs = secs;
                            counts.missing = c.matcher.missing() as u64;
                            Ok((counts, next, local))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|_| Err("generator thread panicked".to_string()))
                    })
                    .collect()
            });
        let mut total = PhaseCounts::default();
        for result in results {
            let (counts, next, local) = result?;
            total.merge(counts);
            self.next_id = self.next_id.max(next);
            tracer.absorb(local);
        }
        Ok(total)
    }

    /// Checks the logged first pass byte for byte against `replay_stream`
    /// of the same lines through the same policy loaded in-process.
    /// Degraded replies come from the fallback policy and are skipped (they
    /// are counted as failed).
    fn check_first_pass(&mut self, m: &mut Measurement) -> Result<(), String> {
        let Some(log) = self.first_pass.take() else {
            return Ok(());
        };
        let mut policy = self.source.load()?;
        let text: String = log.iter().map(|(line, _)| line.as_str()).collect();
        let reference = replay_stream(policy.as_mut(), &text);
        if reference.len() != log.len() {
            m.wrong(format!(
                "in-process replay produced {} records for {} lines",
                reference.len(),
                log.len()
            ));
        }
        for ((_, reply), expected) in log.iter().zip(&reference) {
            if reply.contains("\"degraded\":true") {
                continue;
            }
            let expected = expected.to_line();
            if *reply != expected {
                m.wrong(format!(
                    "reply differs from in-process replay: got {reply}, expected {expected}"
                ));
            }
        }
        Ok(())
    }

    /// The daemon's peak resident memory so far.
    #[must_use]
    pub fn server_rss_mb(&self) -> Option<f64> {
        crate::host::peak_rss_mb(&self.server.child.id().to_string())
    }

    /// Closes the connections, waits for the daemon's graceful drain, and
    /// returns its closing latency line, if it printed one.
    ///
    /// # Errors
    ///
    /// If the daemon had to be killed or exited with a failure.
    pub fn stop(mut self) -> Result<Option<String>, String> {
        self.conns.clear();
        let started = Instant::now();
        let status = loop {
            match self.server.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if started.elapsed() > Duration::from_secs(10) => {
                    return Err("miras-serve did not exit within 10 s of EOF".to_string());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("waiting for miras-serve: {e}")),
            }
        };
        let stderr = std::fs::read_to_string(&self.server.stderr_log).unwrap_or_default();
        if !status.success() {
            return Err(format!("miras-serve exited with {status}: {stderr}"));
        }
        Ok(stderr
            .lines()
            .rev()
            .find(|l| l.contains(" latency p50 "))
            .map(str::to_string))
    }
}

/// Trains one fixed-work `msd_fast` iteration and saves a real training
/// checkpoint: the file `miras-serve --checkpoint` watches.
///
/// # Errors
///
/// If the checkpoint cannot be written.
pub fn train_checkpoint(seed: u64, path: &Path) -> Result<(), String> {
    let mut env = msd_env(seed);
    let mut trainer = MirasTrainer::new(&env, fixed_work_config(seed));
    let _ = trainer.run_iteration(&mut env);
    trainer
        .save_checkpoint(&env, path)
        .map_err(|e| format!("saving {}: {e}", path.display()))
}

/// A checkpoint file removed when its owner goes away, however it goes.
pub struct TempFile(pub PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

pub struct Serve {
    seed: u64,
    ckpt: bool,
    env: Env,
    // Declared before `checkpoint`: the server goes before its file.
    session: Option<Session>,
    checkpoint: Option<TempFile>,
}

impl Serve {
    #[must_use]
    pub fn new(seed: u64, ckpt: bool, env: Env) -> Self {
        Serve {
            seed,
            ckpt,
            env,
            session: None,
            checkpoint: None,
        }
    }
}

impl Workload for Serve {
    fn op_unit(&self) -> &'static str {
        "request -> reply over the socket, 1 connection x 1 outstanding"
    }

    fn work_unit(&self) -> &'static str {
        "normal replies at 2 connections x 16 outstanding"
    }

    fn setup(&mut self) -> Result<u64, String> {
        if self.session.is_some() {
            return Err("serve set up twice without a teardown".to_string());
        }
        std::fs::create_dir_all(&self.env.out_dir)
            .map_err(|e| format!("creating {}: {e}", self.env.out_dir.display()))?;
        let source = if self.ckpt {
            let path = self
                .env
                .out_dir
                .join(format!("ckpt-{}.json", std::process::id()));
            self.checkpoint = Some(TempFile(path.clone()));
            train_checkpoint(self.seed, &path)?;
            PolicySource::Checkpoint(path)
        } else {
            PolicySource::Registry(REGISTRY_POLICY)
        };
        let stream = Arc::new(ObsStream::record(self.seed)?);
        let mut session = Session::start(&self.env, source, CONNECTIONS, Deadline::Off, stream)?;
        let mut warm = PhaseCounts::default();
        for conn in 0..CONNECTIONS {
            warm.merge(session.closed_loop(
                conn,
                Until::Sent(WARMUP_REQUESTS),
                Wait::Block,
                &mut Tracer::new(false),
            )?);
        }
        if warm.normal != warm.sent {
            return Err(format!("warm-up failed: {}", warm.describe("warm-up")));
        }
        // The warm-up replies so far are the repeatable part of set-up.
        let mut signature = Fnv::default();
        for (_, reply) in session.first_pass.iter().flatten() {
            signature.write_bytes(reply.as_bytes());
        }
        self.session = Some(session);
        Ok(signature.finish48())
    }

    fn teardown(&mut self) -> Result<Vec<String>, String> {
        let mut info = Vec::new();
        if let Some(session) = self.session.take() {
            if let Some(line) = session.stop()? {
                info.push(format!("daemon self-report (decide only): {line}"));
            }
        }
        self.checkpoint = None;
        Ok(info)
    }

    fn measure(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Measurement, String> {
        let session = self
            .session
            .as_mut()
            .ok_or("serve measured before set-up")?;
        let mut m = Measurement::default();

        // The first timed part (the first-pass log is still open) starts
        // with a fixed number of requests, after which the daemon's peak
        // memory is read.
        let start = Instant::now();
        let mut a = PhaseCounts::default();
        if session.first_pass.is_some() {
            a = session.closed_loop(0, Until::Sent(RSS_MARK_REQUESTS), Wait::Poll, tracer)?;
            m.peak_rss_mb = session.server_rss_mb();
        }
        let rest = seconds / 2.0 - start.elapsed().as_secs_f64();
        if rest > 0.0 {
            a.merge(session.closed_loop(0, Until::Elapsed(rest), Wait::Poll, tracer)?);
        }
        m.info.push(a.describe("phase A (1 x 1)"));
        m.op_ms = a.latency_us.iter().map(|us| us / 1e3).collect();
        session.check_first_pass(&mut m)?;
        a.into_measurement(&mut m);

        let b = session.loaded(seconds / 2.0, tracer)?;
        m.info.push(b.describe("phase B (2 x 16)"));
        let slice_secs = b.secs / SLICES as f64;
        m.rates = b
            .normal_by_slice
            .iter()
            .map(|&n| n as f64 / slice_secs)
            .collect();
        b.into_measurement(&mut m);
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_match_windows_with_out_of_order_shed_replies() {
        let mut m = Matcher::default();
        m.sent(1, 100);
        m.sent(2, 110);
        m.sent(3, 120);
        // Window 3 is shed by the reader thread and overtakes 1 and 2.
        assert_eq!(m.reply(3, 125), Some(5));
        assert_eq!(m.missing(), 2);
        assert_eq!(m.reply(1, 400), Some(300));
        assert_eq!(m.reply(2, 410), Some(300));
        assert_eq!(m.missing(), 0);
        // A second reply for an answered window, or one never sent, does
        // not match.
        assert_eq!(m.reply(3, 500), None);
        assert_eq!(m.reply(9, 500), None);
        m.sent(4, 600);
        assert_eq!(m.missing(), 1);
    }

    #[test]
    fn self_reported_p99_is_parsed_from_the_closing_line() {
        let line = "serve: 4000 decisions via 'miras' v1 (0 hot-swaps), latency p50 13.1us p99 26.4us max 180.2us";
        assert_eq!(parse_self_reported_p99_us(line), Some(26.4));
        assert_eq!(parse_self_reported_p99_us("serve: no decisions made"), None);
    }

    #[test]
    fn looped_stream_lines_carry_unique_window_ids() {
        let stream = ObsStream {
            tails: vec![",\"wip\":[1.0]}".to_string(), ",\"wip\":[2.0]}".to_string()],
        };
        let mut buf = String::new();
        stream.line_into(0, &mut buf);
        assert_eq!(buf, "{\"window\":0,\"wip\":[1.0]}\n");
        stream.line_into(5, &mut buf);
        assert_eq!(buf, "{\"window\":5,\"wip\":[2.0]}\n");
    }
}
