//! `miras-serve` — the trained autoscaler as a long-running decision
//! service.
//!
//! Reads one JSON observation per line (stdin by default, or a TCP/Unix
//! socket with `--listen`), emits one JSON allocation decision per line on
//! stdout. Decision records contain no wall-clock, so output is a pure
//! function of the input stream and the policy: a streaming run is
//! byte-identical to `--replay` of the same stream at the same checkpoint.
//!
//! Overload hardening: `--listen` serves `--clients` concurrent
//! connections through a bounded admission queue (`--max-inflight`,
//! `--shed-policy`); refused windows get an immediate `status: "shed"`
//! reply. With a deadline (`--deadline-us`) and fallback (`--fallback`),
//! a primary decision that overruns its budget is answered by the cheap
//! deterministic fallback policy instead, stamped `degraded: true`.
//! Malformed input lines are skipped and counted (`serve.wire_rejected`),
//! never fatal.
//!
//! Examples:
//!
//! ```text
//! # Record a 50-window observation stream, then serve it in shadow mode.
//! miras-serve --record 50 --ensemble msd --seed 7 > stream.jsonl
//! miras-serve --checkpoint ckpt.json --shadow < stream.jsonl > live.jsonl
//! miras-serve --checkpoint ckpt.json --replay stream.jsonl > batch.jsonl
//! cmp live.jsonl batch.jsonl
//!
//! # Long-running, multi-client, with hot-swap and a metrics scrape page.
//! miras-serve --checkpoint ckpt.json --listen tcp:0.0.0.0:7070 \
//!             --clients 8 --max-inflight 64 --shed-policy drop-oldest \
//!             --metrics 0.0.0.0:9090 --telemetry serve_telemetry.jsonl
//! ```

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use miras::baselines::{by_name, fallback, Policy, PolicyConfig, FALLBACK_POLICY};
use miras::flags::{burst_from, ensemble_from, numeric, parse_flags, Flags};
use miras::prelude::Ensemble;
use miras::telemetry::{FanoutRecorder, JsonlSink, Recorder, ScrapeRecorder, Telemetry};
use serve::{
    load_policy, record_stream, serve_clients, spawn_metrics_endpoint, AdmissionConfig,
    CheckpointWatcher, DecisionService, Listener, ServerConfig, ShedPolicy,
};

const USAGE: &str = "\
usage: miras-serve [flags]

modes (default: serve observations from stdin, decisions to stdout):
  --record N     drive the emulator for N windows and print the
                 observation stream (input for the other modes)
  --replay FILE  batch-replay a recorded stream (the determinism
                 reference for shadow mode); noisy lines are skipped
                 and counted as in live mode

policy source (default: --policy uniform):
  --checkpoint FILE  load the policy of a training checkpoint (or a
                     `miras-cli train --out` policy file, or raw agent
                     JSON) and hot-swap whenever its first line changes
                     between windows; only that line is read, so
                     `head -n 1 ckpt.json > policy.json` makes a
                     servable policy file
  --policy NAME      registry policy: uniform, wip-proportional, stream,
                     heft, monad

flags:
  --ensemble msd|ligo|gpu-serve   workload ensemble (default msd)
  --seed N              emulator seed for --record (default 42)
  --burst N,N,..        front-loaded burst for --record
  --shadow              quiet mode: stdout carries decisions only, no
                        stderr banner (decisions are never actuated)
  --listen SPEC         serve clients from tcp:HOST:PORT or unix:PATH
                        instead of stdin/stdout
  --clients N           connections to serve before graceful shutdown
                        (default 1; admitted windows are drained first)
  --max-inflight N      admission bound on undecided windows (default 64)
  --shed-policy P       reject (refuse new) or drop-oldest (evict stale)
                        when the queue is full (default reject)
  --deadline-us N       decision deadline; a primary-policy overrun is
                        answered by the fallback, stamped degraded
                        (default 1000; 0 disables; off by default in
                        --shadow/--replay so the byte-identity proof is
                        untouched by wall-clock noise)
  --fallback NAME       degraded-mode policy (default wip-proportional;
                        'none' serves late instead of degrading)
  --read-timeout-ms N   per-read socket timeout; timeouts get bounded
                        retry, then the client is disconnected
  --metrics HOST:PORT   expose telemetry as a plaintext /metrics page
  --telemetry FILE      append telemetry records to a JSONL file
  --max-p99-us N        exit nonzero if p99 decision latency (admitted,
                        non-degraded windows) exceeds N";

/// Every flag `miras-serve` reads; any other is refused by name.
const FLAGS: &str = "record replay checkpoint policy ensemble seed burst shadow listen \
    clients max-inflight shed-policy deadline-us fallback read-timeout-ms metrics telemetry \
    max-p99-us";

/// Builds the policy and, for checkpoint-backed policies, returns the
/// checkpoint path the hot-swap watcher should watch.
fn build_policy(
    flags: &Flags,
    ensemble: &Ensemble,
) -> Result<(Box<dyn Policy>, Option<PathBuf>), String> {
    match (flags.get("checkpoint"), flags.get("policy")) {
        (Some(_), Some(_)) => Err("--checkpoint and --policy are mutually exclusive".to_string()),
        (Some(path), None) => {
            let path = PathBuf::from(path);
            let (policy, _version) =
                load_policy(&path).map_err(|e| format!("loading {}: {e}", path.display()))?;
            if policy.num_task_types() != ensemble.num_task_types() {
                return Err(format!(
                    "{}: the checkpoint's agent controls {} task types but {} has {}",
                    path.display(),
                    policy.num_task_types(),
                    ensemble.name(),
                    ensemble.num_task_types()
                ));
            }
            Ok((policy, Some(path)))
        }
        (None, name) => {
            let name = name.map_or("uniform", String::as_str);
            let cfg = PolicyConfig::new(ensemble);
            let policy = by_name(name, &cfg).map_err(|e| e.to_string())?;
            Ok((policy, None))
        }
    }
}

/// Assembles the telemetry pipeline from `--telemetry` and `--metrics`.
fn build_telemetry(flags: &Flags, shadow: bool) -> Result<Telemetry, String> {
    let mut recorders: Vec<Arc<dyn Recorder>> = Vec::new();
    if let Some(path) = flags.get("telemetry") {
        let sink = JsonlSink::create(path).map_err(|e| format!("opening {path}: {e}"))?;
        recorders.push(sink);
    }
    if let Some(addr) = flags.get("metrics") {
        let scrape = ScrapeRecorder::new();
        let (bound, _handle) = spawn_metrics_endpoint(addr, scrape.clone())
            .map_err(|e| format!("binding metrics endpoint {addr}: {e}"))?;
        if !shadow {
            eprintln!("metrics at http://{bound}/metrics");
        }
        recorders.push(scrape);
    }
    Ok(match recorders.len() {
        0 => Telemetry::noop(),
        1 => Telemetry::new(recorders.remove(0)),
        _ => Telemetry::new(FanoutRecorder::new(recorders)),
    })
}

/// `--record N`: drive the emulator and print the observation stream.
fn record(flags: &Flags, windows: usize) -> Result<(), String> {
    let ensemble = ensemble_from(flags)?;
    let seed = numeric(flags, "seed", 42u64)?;
    let burst = burst_from(flags, &ensemble)?;
    let (mut policy, _) = build_policy(flags, &ensemble)?;
    let observations = record_stream(&ensemble, seed, windows, burst.as_ref(), policy.as_mut());
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for obs in &observations {
        let line = serde_json::to_string(obs).map_err(|e| e.to_string())?;
        writeln!(out, "{line}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Parses the admission-control flags.
fn admission_from(flags: &Flags) -> Result<AdmissionConfig, String> {
    let max_inflight = numeric(flags, "max-inflight", 64usize)?;
    let shed: ShedPolicy = match flags.get("shed-policy") {
        None => ShedPolicy::Reject,
        Some(v) => v.parse()?,
    };
    Ok(AdmissionConfig { max_inflight, shed })
}

/// Applies the deadline/fallback hardening flags to a service.
///
/// The deadline defaults on (1000us, the paper's <1 ms budget) for live
/// serving, but off for `--shadow`/`--replay` unless explicitly set:
/// deadline enforcement reads the wall clock, and the shadow-vs-replay
/// byte-identity proof must not depend on scheduler noise.
fn harden(
    mut svc: DecisionService,
    flags: &Flags,
    ensemble: &Ensemble,
    determinism_mode: bool,
) -> Result<DecisionService, String> {
    svc = svc.with_expected_dims(ensemble.num_task_types());
    let deadline_us = numeric(flags, "deadline-us", 1000u64)?;
    let deadline_on = deadline_us > 0 && (flags.contains_key("deadline-us") || !determinism_mode);
    if deadline_on {
        svc = svc.with_deadline(Duration::from_micros(deadline_us));
        let fallback_name = flags
            .get("fallback")
            .map_or(FALLBACK_POLICY, String::as_str);
        if fallback_name != "none" {
            let cfg = PolicyConfig::new(ensemble);
            let fb = if fallback_name == FALLBACK_POLICY {
                fallback(&cfg)
            } else {
                by_name(fallback_name, &cfg).map_err(|e| e.to_string())?
            };
            svc = svc.with_fallback(fb);
        }
    }
    Ok(svc)
}

/// Prints the latency/overload summary and enforces `--max-p99-us`.
fn finish(svc: &DecisionService, flags: &Flags) -> Result<(), String> {
    svc.finish();
    let counters = svc.counters().snapshot();
    if counters.shed + counters.degraded + counters.wire_rejected + counters.disconnects > 0 {
        eprintln!(
            "serve: overload/robustness: {} shed, {} degraded, {} wire-rejected, {} retries, {} disconnects, {} dropped replies",
            counters.shed,
            counters.degraded,
            counters.wire_rejected,
            counters.retries,
            counters.disconnects,
            counters.dropped_replies
        );
    }
    let Some(stats) = svc.latency_stats() else {
        eprintln!("serve: no decisions made");
        return Ok(());
    };
    eprintln!(
        "serve: {} decisions via '{}' v{} ({} hot-swaps), latency p50 {:.1}us p99 {:.1}us max {:.1}us",
        stats.count,
        svc.policy_name(),
        svc.policy_version(),
        svc.swaps(),
        stats.p50_us,
        stats.p99_us,
        stats.max_us
    );
    let max_p99_us = numeric(flags, "max-p99-us", f64::INFINITY)?;
    if stats.p99_us > max_p99_us {
        return Err(format!(
            "p99 decision latency {:.1}us exceeds --max-p99-us {max_p99_us}",
            stats.p99_us
        ));
    }
    Ok(())
}

fn run(flags: &Flags) -> Result<(), String> {
    if let Some(windows) = flags.get("record") {
        let windows: usize = windows
            .parse()
            .map_err(|_| format!("--record expects a window count, got '{windows}'"))?;
        return record(flags, windows);
    }

    let shadow = flags.contains_key("shadow");
    let ensemble = ensemble_from(flags)?;
    let (policy, checkpoint) = build_policy(flags, &ensemble)?;
    let telemetry = build_telemetry(flags, shadow)?;
    let mut svc = DecisionService::new(policy, telemetry);
    // Replay is a batch reference run: the checkpoint is pinned, never
    // swapped mid-stream, so it gets no watcher.
    let replaying = flags.contains_key("replay");
    if let Some(path) = checkpoint {
        if !replaying {
            svc = svc.with_watcher(CheckpointWatcher::new_deployed(path));
        }
    }
    svc = harden(svc, flags, &ensemble, shadow || replaying)?;

    if !shadow {
        eprintln!(
            "serving '{}' v{} ({})",
            svc.policy_name(),
            svc.policy_version(),
            if replaying { "replay" } else { "live" }
        );
    }

    if let Some(spec) = flags.get("listen").filter(|_| !replaying) {
        let listener = Listener::bind(spec).map_err(|e| format!("binding {spec}: {e}"))?;
        let config = ServerConfig {
            admission: admission_from(flags)?,
            clients: numeric(flags, "clients", 1usize)?,
            read_timeout: match numeric(flags, "read-timeout-ms", 0u64)? {
                0 => None,
                ms => Some(Duration::from_millis(ms)),
            },
        };
        if !shadow {
            let where_ = listener
                .local_addr()
                .map_or_else(|| spec.clone(), |addr| format!("tcp:{addr}"));
            eprintln!(
                "listening on {where_} ({} clients, max {} in flight, shed {})",
                config.clients, config.admission.max_inflight, config.admission.shed
            );
        }
        let report = serve_clients(&listener, &mut svc, &config).map_err(|e| e.to_string())?;
        if !shadow {
            eprintln!(
                "served {} clients, {} windows decided",
                report.clients, report.decided
            );
        }
    } else {
        // stdin and --replay share one lockstep loop; each decision is
        // flushed as it is made so a peer sees it promptly.
        let (source, input): (&str, Box<dyn BufRead>) = match flags.get("replay") {
            Some(path) => {
                let file = File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
                (path, Box::new(BufReader::new(file)))
            }
            None => ("stdin", Box::new(std::io::stdin().lock())),
        };
        let mut out = std::io::stdout().lock();
        let mut write_failed = false;
        svc.lockstep(input, |record| {
            let written = writeln!(out, "{}", record.to_line()).and_then(|()| out.flush());
            write_failed = written.is_err();
            written
        })
        .map_err(|e| {
            if write_failed {
                e.to_string()
            } else {
                format!("reading {source}: {e}")
            }
        })?;
    }

    finish(&svc, flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.iter().any(|a| a == "--help" || a == "-h") {
        writeln!(std::io::stdout(), "{USAGE}").map_err(|e| e.to_string())
    } else {
        parse_flags("miras-serve", FLAGS, &args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|flags| run(&flags))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
