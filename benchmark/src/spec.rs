//! `BENCHMARK.json`, compiled in: the one list of workload and metric
//! names, units and regression bounds. The ledger emits exactly these
//! names and `compare` applies exactly these bounds.

use crate::json::{as_array, as_f64, as_str, get, parse, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Json, key: &str) -> Vec<MetricSpec> {
    as_array(get(doc, key).expect("metric list"))
        .expect("metric array")
        .iter()
        .map(|m| {
            let text = |k: &str| as_str(get(m, k).expect(k)).expect(k).to_string();
            MetricSpec {
                name: text("name"),
                unit: text("unit"),
                higher_is_better: match text("better").as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => panic!("better must be higher or lower, not {other}"),
                },
                bound: get(m, "bound").and_then(as_f64),
            }
        })
        .collect()
}

impl Spec {
    /// # Panics
    ///
    /// Panics if the compiled-in file is not the documented shape, which
    /// the unit test below rules out.
    #[must_use]
    pub fn load() -> Self {
        let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Spec {
            run_seconds: as_f64(get(&doc, "run_seconds").expect("run_seconds"))
                .expect("run_seconds is a number"),
            workloads: as_array(get(&doc, "workloads").expect("workloads"))
                .expect("workload array")
                .iter()
                .map(|w| {
                    as_str(get(w, "name").expect("name"))
                        .expect("name")
                        .to_string()
                })
                .collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_the_ledgers_workloads_and_bounds_every_end_to_end_metric() {
        let spec = Spec::load();
        assert_eq!(spec.workloads, crate::workloads::NAMES);
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are used once");
    }
}
