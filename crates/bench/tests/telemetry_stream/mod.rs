//! The shape of every telemetry stream the system writes, checked on the
//! JSONL the tests already record (`mod telemetry_stream;` in a test of
//! this crate, `#[path]` from elsewhere).
//!
//! Envelope rules, for every record: `schema_version` is this build's
//! [`telemetry::SCHEMA_VERSION`], `t` is a known record type, event `seq`
//! strictly increases, counter and gauge values are numeric, and histogram
//! buckets end with the `+Inf` (`le: null`) bucket. Record rules: `window`,
//! `iteration` and `workload.target_rate` events carry their fields, and a
//! stream with windows carries the event engine's `desim.pending` gauge and
//! `desim.wheel_cascades` counter. [`Require`] names what a stream must
//! hold on top of that.

#![allow(dead_code)]

use std::collections::HashSet;

use telemetry::Value;

/// A kind of record a stream must contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Require {
    /// Per-window `window` events from the environment.
    Windows,
    /// Per-iteration `iteration` events from Algorithm 2.
    Iterations,
    /// `bench.summary` events from a comparison run.
    Summaries,
    /// Per-window `workload.target_rate` events from the workload generator.
    WorkloadRates,
    /// The serving loop's rows: `serve.decisions`, the final
    /// `serve.latency_p99_us` gauge, and every overload counter, which
    /// `DecisionService::finish` writes even at zero.
    Serve,
}

/// The overload counters a finished serving loop always writes.
const SERVE_COUNTERS: [&str; 4] = [
    "serve.shed",
    "serve.degraded",
    "serve.wire_rejected",
    "serve.retries",
];

fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_str(value: Option<&Value>) -> Option<&str> {
    match value {
        Some(Value::String(s)) => Some(s),
        _ => None,
    }
}

fn as_u64(value: Option<&Value>) -> Option<u64> {
    match value {
        Some(Value::UInt(n)) => Some(*n),
        Some(Value::Int(n)) => u64::try_from(*n).ok(),
        _ => None,
    }
}

fn is_number(value: Option<&Value>) -> bool {
    matches!(
        value,
        Some(Value::Int(_) | Value::UInt(_) | Value::Float(_))
    )
}

/// Fails unless `data` has every one of `fields`, and `numeric` ones are
/// numbers.
fn has_fields(data: &Value, name: &str, fields: &[&str], numeric: &[&str]) -> Result<(), String> {
    for field in fields {
        let value = get(data, field);
        if value.is_none() {
            return Err(format!("`{name}` event has no `{field}`"));
        }
        if numeric.contains(field) && !is_number(value) {
            return Err(format!("`{name}` `{field}` is not numeric"));
        }
    }
    Ok(())
}

/// Checks one record; `names` collects the event and row names seen, with
/// the record type as a prefix (`event:window`, `gauge:desim.pending`).
fn check_record(
    value: &Value,
    last_seq: &mut Option<u64>,
    names: &mut HashSet<String>,
) -> Result<(), String> {
    let schema = as_u64(get(value, "schema_version")).ok_or("no `schema_version`")?;
    if schema != u64::from(telemetry::SCHEMA_VERSION) {
        return Err(format!(
            "schema_version {schema}, but this build writes {}",
            telemetry::SCHEMA_VERSION
        ));
    }
    let t = as_str(get(value, "t")).ok_or("no string `t`")?;
    let name = as_str(get(value, "name")).ok_or_else(|| format!("`{t}` record has no `name`"))?;
    match t {
        "event" => {
            let seq = as_u64(get(value, "seq")).ok_or("event has no `seq`")?;
            if let Some(prev) = *last_seq {
                if seq <= prev {
                    return Err(format!("event seq {seq} does not increase past {prev}"));
                }
            }
            *last_seq = Some(seq);
            let data = get(value, "data").ok_or("event has no `data`")?;
            match name {
                "window" => has_fields(
                    data,
                    name,
                    &["window_index", "wip", "reward", "arrivals", "completions"],
                    &["reward"],
                )?,
                "iteration" => has_fields(
                    data,
                    name,
                    &[
                        "iteration",
                        "model_loss",
                        "dataset_size",
                        "eval_return",
                        "lend_triggers",
                        "reward_gap_per_step",
                    ],
                    &[],
                )?,
                "workload.target_rate" => has_fields(
                    data,
                    name,
                    &["window_index", "workload", "factor", "rate_per_sec"],
                    &["factor", "rate_per_sec"],
                )?,
                _ => {}
            }
        }
        "counter" | "gauge" => {
            if !is_number(get(value, "value")) {
                return Err(format!("{t} `{name}` value is not numeric"));
            }
        }
        "hist" => match get(value, "buckets") {
            Some(Value::Array(buckets)) if !buckets.is_empty() => {
                if get(&buckets[buckets.len() - 1], "le") != Some(&Value::Null) {
                    return Err(format!(
                        "hist `{name}` does not end with the `le: null` bucket"
                    ));
                }
            }
            _ => return Err(format!("hist `{name}` has no buckets")),
        },
        other => return Err(format!("unknown record type `{other}`")),
    }
    names.insert(format!("{t}:{name}"));
    Ok(())
}

/// Checks `stream` against the envelope and record rules, then that it
/// holds every record `required` names. The error names the offending
/// line, 1-based, or the missing record.
pub(crate) fn check_stream(stream: &[u8], required: &[Require]) -> Result<(), String> {
    let text = std::str::from_utf8(stream).map_err(|e| format!("not UTF-8: {e}"))?;
    let mut last_seq = None;
    let mut names = HashSet::new();
    for (i, line) in text.lines().enumerate() {
        let value: Value =
            serde_json::from_str(line).map_err(|e| format!("line {}: not JSON: {e}", i + 1))?;
        check_record(&value, &mut last_seq, &mut names)
            .map_err(|e| format!("line {}: {e}", i + 1))?;
    }
    let mut wanted: Vec<String> = Vec::new();
    if names.contains("event:window") {
        wanted.extend([
            "gauge:desim.pending".into(),
            "counter:desim.wheel_cascades".into(),
        ]);
    }
    for require in required {
        match require {
            Require::Windows => wanted.push("event:window".into()),
            Require::Iterations => wanted.push("event:iteration".into()),
            Require::Summaries => wanted.push("event:bench.summary".into()),
            Require::WorkloadRates => wanted.push("event:workload.target_rate".into()),
            Require::Serve => {
                wanted.push("counter:serve.decisions".into());
                wanted.push("gauge:serve.latency_p99_us".into());
                wanted.extend(SERVE_COUNTERS.map(|c| format!("counter:{c}")));
            }
        }
    }
    match wanted.iter().find(|w| !names.contains(*w)) {
        Some(missing) => {
            let (t, name) = missing.split_once(':').expect("`t:name`");
            Err(format!("the stream has no {t} `{name}`"))
        }
        None => Ok(()),
    }
}
