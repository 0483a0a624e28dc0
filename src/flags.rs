//! Command-line flags shared by the `miras-cli` and `miras-serve` binaries:
//! one parser that refuses, by name, any flag its caller does not read, so
//! a misspelt flag is never silently ignored.

use std::collections::HashMap;
use std::str::FromStr;

use workflow::{BurstSpec, Ensemble};

/// Parsed flags: name (without `--`) to value; a switch maps to `"true"`.
pub type Flags = HashMap<String, String>;

/// The flags that take no value.
const SWITCHES: [&str; 3] = ["paper", "smoke", "shadow"];

/// Parses `args` as `--name value` pairs and bare switches. `accepted`
/// lists, space-separated, every flag the caller reads.
///
/// # Errors
///
/// A message naming the first argument that is not a `--flag`, a flag not
/// in `accepted` (as "`{who}` does not take --flag"), or a flag missing
/// its value.
pub fn parse_flags(who: &str, accepted: &str, args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, found '{flag}'"));
        };
        if !accepted.split_whitespace().any(|a| a == name) {
            return Err(format!("{who} does not take --{name}"));
        }
        let value = if SWITCHES.contains(&name) {
            "true"
        } else {
            it.next().ok_or_else(|| format!("--{name} needs a value"))?
        };
        flags.insert(name.to_string(), value.to_string());
    }
    Ok(flags)
}

/// The number in `--name`, or `default` when the flag is absent.
///
/// # Errors
///
/// A message naming the flag when its value does not parse.
pub fn numeric<T: FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} expects a number, got '{v}'")),
    }
}

/// The ensemble named by `--ensemble` (MSD when absent).
///
/// # Errors
///
/// A message naming an unknown ensemble.
pub fn ensemble_from(flags: &Flags) -> Result<Ensemble, String> {
    match flags.get("ensemble").map(String::as_str) {
        Some("msd") | None => Ok(Ensemble::msd()),
        Some("ligo") => Ok(Ensemble::ligo()),
        Some("gpu-serve") => Ok(Ensemble::gpu_serve()),
        Some(other) => Err(format!(
            "unknown ensemble '{other}' (msd, ligo, or gpu-serve)"
        )),
    }
}

/// The comma-separated values of `--name`, or `None` when it is absent.
///
/// # Errors
///
/// A message naming the flag when a value does not parse.
pub fn list<T: FromStr>(flags: &Flags, name: &str) -> Result<Option<Vec<T>>, String> {
    let Some(v) = flags.get(name) else {
        return Ok(None);
    };
    let values: Result<Vec<T>, _> = v.split(',').map(|part| part.trim().parse()).collect();
    values
        .map(Some)
        .map_err(|_| format!("--{name} expects comma-separated numbers, got '{v}'"))
}

/// The front-loaded burst in `--burst`: one request count per workflow type
/// of `ensemble`.
///
/// # Errors
///
/// A message when the counts do not parse or do not match the ensemble.
pub fn burst_from(flags: &Flags, ensemble: &Ensemble) -> Result<Option<BurstSpec>, String> {
    let Some(counts) = list(flags, "burst")? else {
        return Ok(None);
    };
    if counts.len() != ensemble.num_workflow_types() {
        return Err(format!(
            "--burst needs {} comma-separated counts",
            ensemble.num_workflow_types()
        ));
    }
    Ok(Some(BurstSpec::new(counts)))
}
