//! Validates the telemetry JSONL stream a figure binary produced.
//!
//! Used by CI after a `--smoke` figure run: checks every line parses as a
//! JSON object with the record envelope (a `schema_version` stamp matching
//! this build's `telemetry::SCHEMA_VERSION`, `t`, and the type-specific
//! fields), that event sequence numbers increase, and that the stream
//! contains the records the MIRAS pipeline is expected to emit — per-window `window`
//! events and (when `--require-training` is passed) per-iteration
//! `iteration` events from Algorithm 2. With `--require-serve` the window
//! requirement is replaced by a check for the serving loop's records —
//! `serve.decisions` counters, the final
//! `serve.latency_p99_us` gauge, and the overload counters
//! (`serve.shed`, `serve.degraded`, `serve.wire_rejected`,
//! `serve.retries`), which the hardened loop materialises even at zero —
//! since `miras-serve` only decides, never simulates. With
//! `--require-workload` (additive, like `--require-training`) the stream
//! must also carry per-window `workload.target_rate` events from the
//! workload generator.
//!
//! Run: `cargo run -p miras-bench --bin telemetry_check -- \
//!       results/fig7_msd_comparison.jsonl --require-training`
//!
//! Exits non-zero with a description of the first problem found.

use std::process::ExitCode;

use serde::value::Value;

/// Looks up a key in an object-shaped value.
fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::String(s) => Some(s),
        _ => None,
    }
}

fn as_u64(value: &Value) -> Option<u64> {
    match value {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn is_number(value: &Value) -> bool {
    matches!(value, Value::Int(_) | Value::UInt(_) | Value::Float(_))
}

/// One validation failure: line number (1-based) plus description.
struct Problem(usize, String);

fn check(
    text: &str,
    require_training: bool,
    require_serve: bool,
    require_workload: bool,
) -> Result<String, Problem> {
    let mut events = 0usize;
    let mut windows = 0usize;
    let mut iterations = 0usize;
    let mut summaries = 0usize;
    let mut workload_rates = 0usize;
    let mut serve_decisions = 0usize;
    let mut serve_p99 = 0usize;
    // The overload/robustness counters the hardened serving loop must
    // always materialise, even at zero (DecisionService::finish forces a
    // zero-delta row for each).
    const SERVE_COUNTERS: [&str; 4] = [
        "serve.shed",
        "serve.degraded",
        "serve.wire_rejected",
        "serve.retries",
    ];
    let mut serve_counter_rows = [0usize; SERVE_COUNTERS.len()];
    let mut desim_pending = 0usize;
    let mut desim_cascades = 0usize;
    let mut last_seq: Option<u64> = None;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let value: Value = serde_json::from_str(line)
            .map_err(|e| Problem(lineno, format!("not valid JSON: {e}")))?;
        let schema = get(&value, "schema_version")
            .and_then(as_u64)
            .ok_or_else(|| Problem(lineno, "record has no `schema_version` field".into()))?;
        if schema != u64::from(telemetry::SCHEMA_VERSION) {
            return Err(Problem(
                lineno,
                format!(
                    "unknown schema_version {schema} (this build reads {})",
                    telemetry::SCHEMA_VERSION
                ),
            ));
        }
        let t = get(&value, "t")
            .and_then(as_str)
            .ok_or_else(|| Problem(lineno, "record has no string `t` field".into()))?;
        match t {
            "event" => {
                events += 1;
                let name = get(&value, "name")
                    .and_then(as_str)
                    .ok_or_else(|| Problem(lineno, "event has no `name`".into()))?;
                let seq = get(&value, "seq")
                    .and_then(as_u64)
                    .ok_or_else(|| Problem(lineno, "event has no `seq`".into()))?;
                if let Some(prev) = last_seq {
                    if seq <= prev {
                        return Err(Problem(
                            lineno,
                            format!("event seq {seq} does not increase past {prev}"),
                        ));
                    }
                }
                last_seq = Some(seq);
                let data = get(&value, "data")
                    .ok_or_else(|| Problem(lineno, "event has no `data`".into()))?;
                match name {
                    "window" => {
                        windows += 1;
                        for field in ["window_index", "wip", "reward", "arrivals", "completions"] {
                            if get(data, field).is_none() {
                                return Err(Problem(
                                    lineno,
                                    format!("window event missing `{field}`"),
                                ));
                            }
                        }
                        if !is_number(get(data, "reward").expect("checked above")) {
                            return Err(Problem(lineno, "window `reward` is not numeric".into()));
                        }
                    }
                    "iteration" => {
                        iterations += 1;
                        for field in [
                            "iteration",
                            "model_loss",
                            "dataset_size",
                            "eval_return",
                            "lend_triggers",
                            "reward_gap_per_step",
                        ] {
                            if get(data, field).is_none() {
                                return Err(Problem(
                                    lineno,
                                    format!("iteration event missing `{field}`"),
                                ));
                            }
                        }
                    }
                    "bench.summary" => summaries += 1,
                    "workload.target_rate" => {
                        workload_rates += 1;
                        for field in ["window_index", "workload", "factor", "rate_per_sec"] {
                            if get(data, field).is_none() {
                                return Err(Problem(
                                    lineno,
                                    format!("workload.target_rate event missing `{field}`"),
                                ));
                            }
                        }
                        for field in ["factor", "rate_per_sec"] {
                            if !is_number(get(data, field).expect("checked above")) {
                                return Err(Problem(
                                    lineno,
                                    format!("workload.target_rate `{field}` is not numeric"),
                                ));
                            }
                        }
                    }
                    _ => {}
                }
            }
            "counter" | "gauge" => {
                let Some(name) = get(&value, "name").and_then(as_str) else {
                    return Err(Problem(lineno, format!("{t} record has no `name`")));
                };
                match (t, name) {
                    ("gauge", "desim.pending") => desim_pending += 1,
                    ("counter", "desim.wheel_cascades") => desim_cascades += 1,
                    ("counter", "serve.decisions") => serve_decisions += 1,
                    ("gauge", "serve.latency_p99_us") => serve_p99 += 1,
                    ("counter", _) => {
                        if let Some(i) = SERVE_COUNTERS.iter().position(|c| *c == name) {
                            serve_counter_rows[i] += 1;
                        }
                    }
                    _ => {}
                }
                let v = get(&value, "value")
                    .ok_or_else(|| Problem(lineno, format!("{t} record has no `value`")))?;
                if !is_number(v) {
                    return Err(Problem(lineno, format!("{t} `value` is not numeric")));
                }
            }
            "hist" => {
                let buckets = get(&value, "buckets")
                    .ok_or_else(|| Problem(lineno, "hist record has no `buckets`".into()))?;
                match buckets {
                    Value::Array(entries) if !entries.is_empty() => {
                        let last = entries.last().expect("non-empty");
                        if get(last, "le") != Some(&Value::Null) {
                            return Err(Problem(
                                lineno,
                                "hist buckets do not end with the +Inf (`le: null`) bucket".into(),
                            ));
                        }
                    }
                    _ => {
                        return Err(Problem(
                            lineno,
                            "hist `buckets` is not a non-empty array".into(),
                        ))
                    }
                }
            }
            other => return Err(Problem(lineno, format!("unknown record type `{other}`"))),
        }
    }
    if require_serve {
        if serve_decisions == 0 {
            return Err(Problem(
                0,
                "stream contains no `serve.decisions` counters".into(),
            ));
        }
        if serve_p99 == 0 {
            return Err(Problem(
                0,
                "stream contains no `serve.latency_p99_us` gauge".into(),
            ));
        }
        for (name, rows) in SERVE_COUNTERS.iter().zip(serve_counter_rows) {
            if rows == 0 {
                return Err(Problem(
                    0,
                    format!(
                        "stream contains no `{name}` counter (the hardened serving \
                         loop must materialise it even at zero)"
                    ),
                ));
            }
        }
    } else if windows == 0 {
        return Err(Problem(0, "stream contains no `window` events".into()));
    }
    if require_training && iterations == 0 {
        return Err(Problem(0, "stream contains no `iteration` events".into()));
    }
    if require_workload && workload_rates == 0 {
        return Err(Problem(
            0,
            "stream contains no `workload.target_rate` events (the environment \
             emits one per decision window)"
                .into(),
        ));
    }
    // Any run with decision windows drove the cluster's event engine, whose
    // per-window checkpoint must report queue depth and wheel-cascade
    // counts (zero-delta counters are still emitted).
    if windows > 0 && desim_pending == 0 {
        return Err(Problem(
            0,
            "stream has `window` events but no `desim.pending` gauge".into(),
        ));
    }
    if windows > 0 && desim_cascades == 0 {
        return Err(Problem(
            0,
            "stream has `window` events but no `desim.wheel_cascades` counter".into(),
        ));
    }
    Ok(format!(
        "{events} events ({windows} window, {iterations} iteration, {summaries} summary, \
         {serve_decisions} serve-decision counters, {workload_rates} workload rates)"
    ))
}

fn main() -> ExitCode {
    let mut path = None;
    let mut require_training = false;
    let mut require_serve = false;
    let mut require_workload = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--require-training" => require_training = true,
            "--require-serve" => require_serve = true,
            "--require-workload" => require_workload = true,
            other if path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!(
                    "unexpected argument {other}; usage: \
                     telemetry_check FILE [--require-training] [--require-serve] \
                     [--require-workload]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!(
            "usage: telemetry_check FILE [--require-training] [--require-serve] \
             [--require-workload]"
        );
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("telemetry_check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check(&text, require_training, require_serve, require_workload) {
        Ok(report) => {
            println!("telemetry_check: {path} OK — {report}");
            ExitCode::SUCCESS
        }
        Err(Problem(lineno, message)) => {
            if lineno > 0 {
                eprintln!("telemetry_check: {path}:{lineno}: {message}");
            } else {
                eprintln!("telemetry_check: {path}: {message}");
            }
            ExitCode::FAILURE
        }
    }
}
