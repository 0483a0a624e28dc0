//! Command-line flags shared by every binary (`miras-cli`, `miras-serve`
//! and the bench binaries but `telemetry_check`): one parser that refuses,
//! by name, any flag its caller does not read, so a misspelt flag is never
//! silently ignored.

use std::collections::HashMap;
use std::str::FromStr;

use microsim::WorkloadSpec;
use miras_core::MirasConfig;
use workflow::{BurstSpec, Ensemble};

/// Parsed flags: name (without `--`) to value; a switch maps to `"true"`.
pub type Flags = HashMap<String, String>;

/// The flags that take no value.
const SWITCHES: [&str; 5] = ["paper", "smoke", "shadow", "no-cache", "steady"];

/// A MIRAS training budget at a seed.
type Budget = fn(u64) -> MirasConfig;

/// An ensemble's `--ensemble` name, its constructor, and its fast and
/// paper-scale training budgets.
type Entry = (&'static str, fn() -> Ensemble, Budget, Budget);

/// Every ensemble `--ensemble` names: the one name table of every binary.
#[rustfmt::skip]
pub const ENSEMBLES: [Entry; 3] = [
    ("msd", Ensemble::msd, MirasConfig::msd_fast, MirasConfig::msd_paper),
    ("ligo", Ensemble::ligo, MirasConfig::ligo_fast, MirasConfig::ligo_paper),
    ("gpu-serve", Ensemble::gpu_serve, MirasConfig::gpu_serve_fast, MirasConfig::gpu_serve_paper),
];

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

/// The position in [`ENSEMBLES`] of the ensemble `--ensemble` names, or
/// `None` when the flag is absent.
///
/// # Errors
///
/// A message naming an unknown ensemble.
pub fn ensemble_choice(flags: &Flags) -> Result<Option<usize>, String> {
    let Some(name) = flags.get("ensemble") else {
        return Ok(None);
    };
    let position = ENSEMBLES.iter().position(|(known, ..)| known == name);
    let unknown = || format!("unknown ensemble '{name}' (msd, ligo, or gpu-serve)");
    position.map(Some).ok_or_else(unknown)
}

/// The ensemble named by `--ensemble` (MSD when absent).
///
/// # Errors
///
/// A message naming an unknown ensemble.
pub fn ensemble_from(flags: &Flags) -> Result<Ensemble, String> {
    let (_, build, ..) = ENSEMBLES[ensemble_choice(flags)?.unwrap_or(0)];
    Ok(build())
}

/// The background-traffic shape named by `--workload` (stationary when
/// absent); see [`WorkloadSpec::parse`].
///
/// # Errors
///
/// A message naming an unknown shape.
pub fn workload_from(flags: &Flags) -> Result<WorkloadSpec, String> {
    let name = flags.get("workload").map_or("stationary", String::as_str);
    WorkloadSpec::parse(name).ok_or_else(|| {
        format!(
            "unknown workload '{name}' (stationary, diurnal, trending, flash-crowd or trace:FILE)"
        )
    })
}

/// A one-line usage for a binary `who` that reads the `accepted` flags
/// (space-separated, as for [`parse_flags`]).
#[must_use]
pub fn usage(who: &str, accepted: &str) -> String {
    let mut line = format!("usage: {who}");
    for name in accepted.split_whitespace() {
        let switch = SWITCHES.contains(&name);
        line.push_str(&format!(
            " [--{name}{}]",
            if switch { "" } else { " VALUE" }
        ));
    }
    line
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
