//! The six workloads. Each has an untimed set-up (repeatable, so its cost
//! can be reported as a median) and a timed part that runs whole
//! operations until `seconds` have passed.

pub mod serve;
pub mod sim;
pub mod train;

use std::path::PathBuf;

use crate::trace::Tracer;

pub const NAMES: [&str; 6] = [
    "train-seq",
    "train-wave",
    "sim-paper",
    "sim-large",
    "serve-ckpt",
    "serve-registry",
];

/// Where the ledger may write and which server binary it drives.
#[derive(Debug, Clone)]
pub struct Env {
    /// Scratch directory inside the checkout (checkpoints, sockets, traces).
    pub out_dir: PathBuf,
    /// The real `miras-serve` release binary.
    pub serve_bin: PathBuf,
}

/// What one timed part produced.
#[derive(Debug, Default)]
pub struct Measurement {
    /// Wall-clock of every operation, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Units of work (see [`Workload::work_unit`]) per second, one rate per
    /// slice of the timed part (a repetition, a round, a window, a tenth of
    /// a phase). `throughput_per_s` is their median, so a burst of host
    /// interference costs a few slices, not the result.
    pub rates: Vec<f64>,
    /// Peak resident memory (`VmHWM`, MB) of the process doing the work,
    /// read when the timed part had completed a fixed number of operations
    /// (at its end, if it was too short to get there). Several layers keep
    /// a little state per operation, so a peak read at the end of a
    /// time-boxed run would grow with the run's speed.
    pub peak_rss_mb: Option<f64>,
    pub attempted: u64,
    /// Operations without a normal result, wrong outputs included.
    pub failed: u64,
    /// Outputs that were wrong, described (first few).
    pub incorrect: Vec<String>,
    /// Human-readable detail (per-phase counts and the like).
    pub info: Vec<String>,
}

impl Measurement {
    pub fn wrong(&mut self, what: String) {
        self.failed += 1;
        if self.incorrect.len() < 8 {
            self.incorrect.push(what);
        }
    }

    pub fn absorb(&mut self, other: Measurement) {
        self.op_ms.extend(other.op_ms);
        self.rates.extend(other.rates);
        self.peak_rss_mb = self.peak_rss_mb.or(other.peak_rss_mb);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.incorrect.extend(other.incorrect);
        self.info.extend(other.info);
    }
}

pub trait Workload {
    /// What one operation (`op_p50_ms`, `op_p99_ms`) is.
    fn op_unit(&self) -> &'static str;
    /// What `throughput_per_s` counts.
    fn work_unit(&self) -> &'static str;

    /// The untimed phase: builds inputs and the system under test, warms it
    /// up. Replaces any earlier set-up. Returns a signature of the warm-up's
    /// outputs, which the same seed must reproduce.
    ///
    /// # Errors
    ///
    /// A description of what could not be set up.
    fn setup(&mut self) -> Result<u64, String>;

    /// Releases what `setup` holds (outside any timing). The default holds
    /// nothing that needs it.
    ///
    /// # Errors
    ///
    /// A description of what could not be shut down cleanly.
    fn teardown(&mut self) -> Result<Vec<String>, String> {
        Ok(Vec::new())
    }

    /// Runs whole operations until `seconds` have passed, at least one.
    ///
    /// # Errors
    ///
    /// A description of what broke the run (not a failed operation: those
    /// are counted in the measurement).
    fn measure(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Measurement, String>;
}

/// # Errors
///
/// Unknown workload name.
pub fn by_name(name: &str, seed: u64, env: &Env) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "train-seq" => Box::new(train::Train::new(seed, false)),
        "train-wave" => Box::new(train::Train::new(seed, true)),
        "sim-paper" => Box::new(sim::SimPaper::new(seed)),
        "sim-large" => Box::new(sim::SimLarge::new(seed)),
        "serve-ckpt" => Box::new(serve::Serve::new(seed, true, env.clone())),
        "serve-registry" => Box::new(serve::Serve::new(seed, false, env.clone())),
        other => {
            return Err(format!(
                "unknown workload '{other}' (known: {})",
                NAMES.join(", ")
            ))
        }
    })
}
