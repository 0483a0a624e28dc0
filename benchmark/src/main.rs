//! `miras-ledger`: the repository's one perf instrument.
//!
//! ```text
//! miras-ledger --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! miras-ledger all [--seed N] [--seconds S] [--runs K] [--workload W] [--trace 0|1]
//! miras-ledger compare <baseline.json> <candidate.json>
//! miras-ledger selfcheck [--seed N] [--seconds S] [--runs K]
//! ```
//!
//! Every layer is measured from outside, through its public functions
//! (serving: the real `miras-serve` binary over a socket). The ledger sets
//! no thread knob; it records the ones in effect.

mod compare;
mod host;
mod json;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::{as_f64, fields, get, obj, Json};
use spec::{MetricSpec, Spec};
use stats::{median, spread, Summary};
use trace::Tracer;
use workloads::{Env, Measurement, Workload};

/// Set-up repetitions in an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest operations an untraced run times, however short `--seconds` is:
/// a median needs three.
const MIN_OPS: usize = 3;
/// Untraced/traced pairs of slices in a traced run. Alternating them puts
/// both under the same host weather; two halves would not be.
const TRACE_PAIRS: usize = 3;
/// The line before the result line: what `all` needs and the result object
/// may not hold (the host fingerprint).
const DETAIL_PREFIX: &str = "detail ";

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, found '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot read '{v}'")),
    }
}

/// Build outputs and scratch files live under the cargo target directory,
/// which `.gitignore` names; `run.sh` exports both locations.
fn env_from_process() -> Env {
    let out = std::env::var("MIRAS_LEDGER_OUT").unwrap_or_else(|_| "target/ledger".to_string());
    let serve_bin = std::env::var("MIRAS_LEDGER_SERVE_BIN")
        .unwrap_or_else(|_| "target/release/miras-serve".to_string());
    Env {
        out_dir: PathBuf::from(out),
        serve_bin: PathBuf::from(serve_bin),
    }
}

/// Looks up every metric the spec lists; a missing or non-finite one is a
/// bug in the ledger, not a result.
fn metrics_json(specs: &[MetricSpec], values: &[(String, f64)]) -> Result<Json, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(name, _)| !specs.iter().any(|m| m.name == *name))
    {
        return Err(format!("metric {name} is not in BENCHMARK.json"));
    }
    let mut out = Vec::with_capacity(specs.len());
    for m in specs {
        let value = values
            .iter()
            .find(|(name, _)| *name == m.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", m.name));
        }
        println!("metric {} = {value} {}", m.name, m.unit);
        out.push((
            m.name.clone(),
            obj(vec![
                ("value", Json::Float(value)),
                ("unit", Json::String(m.unit.clone())),
            ]),
        ));
    }
    Ok(Json::Object(out))
}

fn print_host(host: &Json) {
    let text: Vec<String> = fields(host)
        .iter()
        .map(|(k, v)| format!("{k}={}", json::to_string(v).unwrap_or_default()))
        .collect();
    println!("host: {}", text.join(" "));
}

/// One contract run: set up, measure for `seconds`, check, print.
fn run_one(flags: &Flags) -> Result<(), String> {
    let spec = Spec::load();
    let name: String = flag(flags, "workload", String::new())?;
    let seed: u64 = flag(flags, "seed", 42)?;
    let seconds: f64 = flag(flags, "seconds", spec.run_seconds)?;
    let trace = flag(flags, "trace", 0u8)? != 0;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let env = env_from_process();
    std::fs::create_dir_all(&env.out_dir)
        .map_err(|e| format!("creating {}: {e}", env.out_dir.display()))?;
    let mut workload = workloads::by_name(&name, seed, &env)?;
    let host = host::fingerprint();
    println!(
        "miras-ledger workload={name} seed={seed} seconds={seconds} trace={}",
        u8::from(trace)
    );
    print_host(&host);
    println!(
        "operation: {}; work unit: {}",
        workload.op_unit(),
        workload.work_unit()
    );

    let (m, values, specs) = if trace {
        let (m, values) = traced(workload.as_mut(), &name, seed, seconds, &env)?;
        (m, values, &spec.per_layer)
    } else {
        let (m, values) = untraced(workload.as_mut(), seconds)?;
        (m, values, &spec.end_to_end)
    };
    let correct = m.incorrect.is_empty();
    for line in &m.info {
        println!("{line}");
    }
    for what in &m.incorrect {
        println!("INCORRECT: {what}");
    }
    let metrics = metrics_json(specs, &values)?;
    println!(
        "attempted={} failed={} fail_share={} correct={correct}",
        m.attempted,
        m.failed,
        m.failed as f64 / m.attempted.max(1) as f64
    );
    let detail = obj(vec![("host", host)]);
    println!("{DETAIL_PREFIX}{}", json::to_string(&detail)?);
    let result = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(m.attempted.max(1))),
        ("failed", Json::UInt(m.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", json::to_string(&result)?);
    Ok(())
}

/// Sets up [`SETUP_REPS`] times (the same seed must reproduce the same
/// warm-up outputs), then measures with tracing off.
fn untraced(
    workload: &mut dyn Workload,
    seconds: f64,
) -> Result<(Measurement, Vec<(String, f64)>), String> {
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut signatures = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        if rep > 0 {
            workload.teardown()?;
        }
        let start = Instant::now();
        signatures.push(workload.setup()?);
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    println!(
        "set-up x{SETUP_REPS}: {} s",
        setup_secs
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut m = workload.measure(seconds, &mut Tracer::new(false))?;
    while m.op_ms.len() < MIN_OPS {
        m.absorb(workload.measure(0.0, &mut Tracer::new(false))?);
    }
    if signatures.iter().any(|s| *s != signatures[0]) {
        m.incorrect.push(format!(
            "warm-up outputs differ between set-ups from the same seed: {signatures:?}"
        ));
    }
    let rss = m
        .peak_rss_mb
        .ok_or("cannot read VmHWM of the process doing the work")?;
    m.info.extend(workload.teardown()?);
    let ops = Summary::of(&m.op_ms).ok_or("no operation completed")?;
    println!(
        "operations: {} samples, min {:.4} p50 {:.4} p99 {:.4} max {:.4} ms{}",
        ops.count,
        ops.min,
        ops.p50,
        ops.p99,
        ops.max,
        if ops.count < 1000 {
            " (fewer than 1000 samples: p99 has fewer than 10 beyond it)"
        } else {
            ""
        }
    );
    let values = vec![
        ("setup_s".to_string(), median(&setup_secs)),
        ("peak_rss_mb".to_string(), rss),
        ("op_p50_ms".to_string(), ops.p50),
        ("throughput_per_s".to_string(), median(&m.rates)),
    ];
    Ok((m, values))
}

/// Alternates untraced and traced slices of the timed part (the ratio of
/// their median operation times is the tracing overhead), then runs the
/// per-layer probes; spans go to a file at the end.
fn traced(
    workload: &mut dyn Workload,
    name: &str,
    seed: u64,
    seconds: f64,
    env: &Env,
) -> Result<(Measurement, Vec<(String, f64)>), String> {
    workload.setup()?;
    let mut tracer = Tracer::new(true);
    let mut m = Measurement::default();
    let (mut plain_ms, mut spanned_ms) = (Vec::new(), Vec::new());
    let slice = seconds / (2 * TRACE_PAIRS) as f64;
    for _ in 0..TRACE_PAIRS {
        let plain = workload.measure(slice, &mut Tracer::new(false))?;
        plain_ms.extend_from_slice(&plain.op_ms);
        m.absorb(plain);
        let spanned = workload.measure(slice, &mut tracer)?;
        spanned_ms.extend_from_slice(&spanned.op_ms);
        m.absorb(spanned);
    }
    let (plain, spanned) = (median(&plain_ms), median(&spanned_ms));
    m.info.extend(workload.teardown()?);

    let probed = probes::run(seed, env, &mut tracer)?;
    let mut values = probed.metrics;
    values.push(("trace_overhead_share".to_string(), spanned / plain - 1.0));
    m.info.extend(probed.detail);
    m.info.push(format!(
        "operation p50 {plain:.4} ms untraced, {spanned:.4} ms traced"
    ));
    m.info
        .push("self time by layer (span minus children), workload pass and probes:".to_string());
    for (layer, secs, spans) in tracer.layer_self_times() {
        m.info
            .push(format!("  {layer:<13} {secs:>9.4} s in {spans} spans"));
    }
    let path = env.out_dir.join(format!("trace-{name}.jsonl"));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    m.info.push(format!(
        "{} spans -> {}",
        tracer.spans().len(),
        path.display()
    ));
    Ok((m, values))
}

/// Runs one contract run in a child process (peak memory is per process)
/// and returns its result and detail objects.
fn spawn_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result_line = lines.pop().unwrap_or_default();
    let mut detail = Json::Null;
    for line in lines {
        match line.strip_prefix(DETAIL_PREFIX) {
            Some(text) => detail = json::parse(text)?,
            None => eprintln!("{line}"),
        }
    }
    if !output.status.success() {
        return Err(format!("run of {workload} failed: {}", output.status));
    }
    Ok((json::parse(result_line)?, detail))
}

/// `all`: every workload, `runs` untraced runs on consecutive seeds and one
/// traced run, as one document.
fn run_all(flags: &Flags) -> Result<Json, String> {
    let spec = Spec::load();
    let seed: u64 = flag(flags, "seed", 42)?;
    let seconds: f64 = flag(flags, "seconds", spec.run_seconds)?;
    let runs: u64 = flag(flags, "runs", 1)?;
    let only: String = flag(flags, "workload", String::new())?;
    // Both by default; `--trace 0` / `--trace 1` keeps one kind.
    let kinds: Vec<bool> = match flags.get("trace").map(String::as_str) {
        None => vec![false, true],
        Some("0") => vec![false],
        Some("1") => vec![true],
        Some(other) => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    let mut host = Json::Null;
    let mut workloads_out = Vec::new();
    for name in spec
        .workloads
        .iter()
        .filter(|w| only.is_empty() || **w == only)
    {
        let mut end_to_end: Vec<(String, Vec<Json>)> = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.clone(), Vec::new()))
            .collect();
        let mut per_layer = Json::Null;
        let (mut attempted, mut failed, mut correct) = (Vec::new(), Vec::new(), true);
        for &trace in &kinds {
            for run in 0..if trace { 1 } else { runs } {
                let (result, detail) = spawn_run(name, seed + run, seconds, trace)?;
                if let Some(h) = get(&detail, "host") {
                    host = h.clone();
                }
                attempted.push(get(&result, "attempted").cloned().unwrap_or(Json::Null));
                failed.push(get(&result, "failed").cloned().unwrap_or(Json::Null));
                correct &= matches!(get(&result, "correct"), Some(Json::Bool(true)));
                let metrics = get(&result, "metrics").ok_or("result without metrics")?;
                if trace {
                    per_layer = metrics.clone();
                } else {
                    for (metric, values) in &mut end_to_end {
                        let value = get(metrics, metric)
                            .and_then(|m| get(m, "value"))
                            .and_then(as_f64)
                            .ok_or_else(|| format!("{name}: no {metric}"))?;
                        values.push(Json::Float(value));
                    }
                }
            }
        }
        workloads_out.push((
            name.clone(),
            obj(vec![
                (
                    "end_to_end",
                    Json::Object(
                        end_to_end
                            .into_iter()
                            .map(|(k, v)| (k, Json::Array(v)))
                            .collect(),
                    ),
                ),
                ("per_layer", per_layer),
                ("attempted", Json::Array(attempted)),
                ("failed", Json::Array(failed)),
                ("correct", Json::Bool(correct)),
            ]),
        ));
    }
    if workloads_out.is_empty() {
        return Err(format!("no workload named '{only}'"));
    }
    Ok(obj(vec![
        ("claim", Json::Null),
        ("host", host),
        ("seed", Json::UInt(seed)),
        ("seconds", Json::Float(seconds)),
        ("runs", Json::UInt(runs)),
        ("workloads", Json::Object(workloads_out)),
    ]))
}

/// Prints each end-to-end metric's median and spread per workload.
fn summarise(spec: &Spec, doc: &Json) {
    for (workload, w) in get(doc, "workloads").map(fields).unwrap_or_default() {
        for m in &spec.end_to_end {
            let values = json::numbers(get(w, "end_to_end").and_then(|e| get(e, &m.name)));
            if values.is_empty() {
                continue;
            }
            eprintln!(
                "{workload:<15} {:<17} median {:>14.6} {:<4} spread {} over {} runs (bound {:.0} %)",
                m.name,
                median(&values),
                m.unit,
                spread(&values).map_or("   n/a".to_string(), |s| format!("{:5.1} %", s * 100.0)),
                values.len(),
                m.bound.unwrap_or(0.0) * 100.0
            );
        }
    }
}

fn write_doc(doc: &Json, file: &str) -> Result<String, String> {
    let text = json::to_string(doc)?;
    let dir = env_from_process().out_dir;
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, format!("{text}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(text)
}

fn main_inner(args: &[String]) -> Result<bool, String> {
    let spec = Spec::load();
    match args.first().map(String::as_str) {
        Some("all") => {
            let flags = parse_flags(&args[1..])?;
            let doc = run_all(&flags)?;
            summarise(&spec, &doc);
            let seed: u64 = flag(&flags, "seed", 42)?;
            println!("{}", write_doc(&doc, &format!("ledger-seed{seed}.json"))?);
            Ok(true)
        }
        Some("compare") => {
            let [_, a, b] = args else {
                return Err("usage: miras-ledger compare <baseline.json> <candidate.json>".to_string());
            };
            let read = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("reading {path}: {e}"))
                    .and_then(|text| json::parse(text.trim()))
            };
            let (a, b) = (read(a)?, read(b)?);
            let rows = compare::compare(&spec, &a, &b)?;
            Ok(compare::report(&rows, &a, &b))
        }
        Some("selfcheck") => {
            let mut flags = parse_flags(&args[1..])?;
            flags.insert("trace".to_string(), "0".to_string());
            flags.entry("runs".to_string()).or_insert("3".to_string());
            let first = run_all(&flags)?;
            write_doc(&first, "selfcheck-a.json")?;
            let second = run_all(&flags)?;
            write_doc(&second, "selfcheck-b.json")?;
            summarise(&spec, &first);
            summarise(&spec, &second);
            let rows = compare::compare(&spec, &first, &second)?;
            Ok(compare::report(&rows, &first, &second))
        }
        Some(first) if first.starts_with("--") => {
            run_one(&parse_flags(args)?)?;
            Ok(true)
        }
        _ => Err(
            "usage: miras-ledger --workload W --seed N --seconds S --trace 0|1 | all | compare A B | selfcheck"
                .to_string(),
        ),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("miras-ledger: {e}");
            ExitCode::from(2)
        }
    }
}
