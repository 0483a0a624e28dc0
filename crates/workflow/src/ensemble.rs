//! Workflow ensembles: shared task types plus the workflow DAGs over them.

use serde::{Deserialize, Serialize};

use crate::{Dag, TaskTypeId, WorkflowTypeId};

/// Definition of one task type (one microservice).
///
/// Service times are log-normally distributed (the paper: "the processing
/// time of each microservice is not fixed, due to variant sizes of input
/// data"). `mean_service_secs` is the distribution mean and `service_cv` its
/// coefficient of variation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskTypeDef {
    /// Human-readable name (e.g. `"Inspiral"`).
    pub name: String,
    /// Mean service time in seconds for one request on one consumer.
    pub mean_service_secs: f64,
    /// Coefficient of variation (σ/μ) of the service time.
    pub service_cv: f64,
}

impl TaskTypeDef {
    /// Creates a task-type definition.
    ///
    /// # Panics
    ///
    /// Panics if `mean_service_secs` is not strictly positive or `service_cv`
    /// is negative, since the emulator cannot sample from such distributions.
    #[must_use]
    pub fn new(name: impl Into<String>, mean_service_secs: f64, service_cv: f64) -> Self {
        assert!(
            mean_service_secs > 0.0,
            "mean service time must be positive"
        );
        assert!(service_cv >= 0.0, "service-time CV must be non-negative");
        TaskTypeDef {
            name: name.into(),
            mean_service_secs,
            service_cv,
        }
    }
}

/// Definition of one workflow type: a name and its task DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowDef {
    /// Human-readable name (e.g. `"Injection"`).
    pub name: String,
    /// The precedence graph over task instances.
    pub dag: Dag,
}

/// A workflow ensemble: `J` task types shared by `N` workflow types.
///
/// This is the static description of a workload domain; the paper evaluates
/// on two of them, available as [`Ensemble::msd`] and [`Ensemble::ligo`].
/// Custom ensembles can be built with [`Ensemble::new`].
///
/// # Examples
///
/// ```
/// use workflow::Ensemble;
///
/// let ligo = Ensemble::ligo();
/// assert_eq!(ligo.num_task_types(), 9);
/// assert_eq!(ligo.num_workflow_types(), 4);
/// assert_eq!(ligo.default_consumer_budget(), 30);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ensemble {
    name: String,
    task_types: Vec<TaskTypeDef>,
    workflows: Vec<WorkflowDef>,
    default_consumer_budget: usize,
    default_arrival_rates: Vec<f64>,
}

impl Ensemble {
    /// Builds a custom ensemble.
    ///
    /// `default_arrival_rates` gives the background Poisson rate (requests
    /// per second) for each workflow type; `default_consumer_budget` is the
    /// total-consumer constraint `C`.
    ///
    /// # Panics
    ///
    /// Panics when any workflow DAG references a task type outside
    /// `0..task_types.len()`, when `default_arrival_rates.len()` differs from
    /// the number of workflows, or when either list is empty.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        task_types: Vec<TaskTypeDef>,
        workflows: Vec<WorkflowDef>,
        default_consumer_budget: usize,
        default_arrival_rates: Vec<f64>,
    ) -> Self {
        assert!(!task_types.is_empty(), "ensemble needs task types");
        assert!(!workflows.is_empty(), "ensemble needs workflows");
        assert_eq!(
            default_arrival_rates.len(),
            workflows.len(),
            "one arrival rate per workflow type"
        );
        for wf in &workflows {
            for &tt in wf.dag.task_types() {
                assert!(
                    tt.index() < task_types.len(),
                    "workflow '{}' references unknown task type {}",
                    wf.name,
                    tt
                );
            }
        }
        Ensemble {
            name: name.into(),
            task_types,
            workflows,
            default_consumer_budget,
            default_arrival_rates,
        }
    }

    /// The Material Science Data ensemble (paper §VI-A1): 3 workflow types
    /// over 4 task types, consumer budget 14.
    ///
    /// DAG shapes are a reconstruction (see `DESIGN.md` §3): the paper only
    /// states the counts and that task types are shared across workflows.
    #[must_use]
    pub fn msd() -> Self {
        let t = TaskTypeId::new;
        let task_types = vec![
            TaskTypeDef::new("A", 2.0, 0.5),
            TaskTypeDef::new("B", 3.0, 0.5),
            TaskTypeDef::new("C", 4.0, 0.5),
            TaskTypeDef::new("D", 2.5, 0.5),
        ];
        let workflows = vec![
            WorkflowDef {
                name: "Type1".to_string(),
                // A → B → C
                dag: Dag::chain(vec![t(0), t(1), t(2)]).expect("static DAG"),
            },
            WorkflowDef {
                name: "Type2".to_string(),
                // A → C → D
                dag: Dag::chain(vec![t(0), t(2), t(3)]).expect("static DAG"),
            },
            WorkflowDef {
                name: "Type3".to_string(),
                // B → (C ∥ D): fan-out, both branches must finish.
                dag: Dag::new(vec![t(1), t(2), t(3)], vec![(0, 1), (0, 2)]).expect("static DAG"),
            },
        ];
        Ensemble::new("MSD", task_types, workflows, 14, vec![0.30, 0.30, 0.30])
    }

    /// The LIGO inspiral-analysis ensemble (paper §VI-A1): 4 workflow types
    /// (DataFind, CAT, Full, Injection) over 9 task types, consumer budget 30.
    ///
    /// Stage names follow Juve et al.'s LIGO characterisation; Coire is shared
    /// by CAT/Full/Injection, matching the paper's §VI-D observation that the
    /// learnt policy defers Coire under large bursts.
    #[must_use]
    pub fn ligo() -> Self {
        let t = TaskTypeId::new;
        // 0 DataFind, 1 TmpltBank, 2 Inspiral, 3 Thinca, 4 TrigBank,
        // 5 InspiralVeto, 6 Sire, 7 Coire, 8 Inject
        let task_types = vec![
            TaskTypeDef::new("DataFind", 3.0, 0.5),
            TaskTypeDef::new("TmpltBank", 5.0, 0.5),
            TaskTypeDef::new("Inspiral", 12.0, 0.6),
            TaskTypeDef::new("Thinca", 4.0, 0.5),
            TaskTypeDef::new("TrigBank", 3.0, 0.5),
            TaskTypeDef::new("InspiralVeto", 6.0, 0.5),
            TaskTypeDef::new("Sire", 2.0, 0.4),
            TaskTypeDef::new("Coire", 5.0, 0.5),
            TaskTypeDef::new("Inject", 2.0, 0.4),
        ];
        let workflows = vec![
            WorkflowDef {
                name: "DataFind".to_string(),
                // DataFind → TmpltBank → Inspiral → Sire
                dag: Dag::chain(vec![t(0), t(1), t(2), t(6)]).expect("static DAG"),
            },
            WorkflowDef {
                name: "CAT".to_string(),
                // DataFind → TmpltBank → Inspiral → Thinca → Coire
                dag: Dag::chain(vec![t(0), t(1), t(2), t(3), t(7)]).expect("static DAG"),
            },
            WorkflowDef {
                name: "Full".to_string(),
                // DataFind → TmpltBank → Inspiral → Thinca
                //   → (TrigBank ∥ InspiralVeto) → Sire → Coire
                dag: Dag::new(
                    vec![t(0), t(1), t(2), t(3), t(4), t(5), t(6), t(7)],
                    vec![
                        (0, 1),
                        (1, 2),
                        (2, 3),
                        (3, 4),
                        (3, 5),
                        (4, 6),
                        (5, 6),
                        (6, 7),
                    ],
                )
                .expect("static DAG"),
            },
            WorkflowDef {
                name: "Injection".to_string(),
                // Inject → TmpltBank → Inspiral → Thinca → TrigBank → Sire → Coire
                dag: Dag::chain(vec![t(8), t(1), t(2), t(3), t(4), t(6), t(7)])
                    .expect("static DAG"),
            },
        ];
        Ensemble::new(
            "LIGO",
            task_types,
            workflows,
            30,
            vec![0.15, 0.15, 0.15, 0.15],
        )
    }

    /// A GPU inference-serving ensemble in the style of KIS-S: three request
    /// classes share CPU-side Frontend/Preprocess/Postprocess stages but hit
    /// the GPU at different batch sizes. GPU service time follows the usual
    /// linear batching model `t(b) = t0 + c·b` with `t0 = 2.0 s` and
    /// `c = 0.5 s` (batch sizes 1, 8, and 32), modelled as three distinct
    /// task types so each batch tier gets its own queue and consumer pool.
    ///
    /// Batching amortises the fixed cost: per-request GPU time is 2.5 s at
    /// b=1 but only 0.5625 s at b=32, which is exactly the trade-off a
    /// resource allocator must navigate when interactive traffic spikes.
    #[must_use]
    pub fn gpu_serve() -> Self {
        let t = TaskTypeId::new;
        // 0 Frontend, 1 Preprocess, 2 GpuBatch1, 3 GpuBatch8, 4 GpuBatch32,
        // 5 Postprocess. GPU stages have low CV (batch execution is regular);
        // CPU stages keep the usual 0.4.
        let task_types = vec![
            TaskTypeDef::new("Frontend", 1.0, 0.4),
            TaskTypeDef::new("Preprocess", 1.5, 0.4),
            TaskTypeDef::new("GpuBatch1", 2.5, 0.2), // t(1)  = 2.0 + 0.5·1
            TaskTypeDef::new("GpuBatch8", 6.0, 0.2), // t(8)  = 2.0 + 0.5·8
            TaskTypeDef::new("GpuBatch32", 18.0, 0.2), // t(32) = 2.0 + 0.5·32
            TaskTypeDef::new("Postprocess", 1.0, 0.4),
        ];
        let workflows = vec![
            WorkflowDef {
                name: "Interactive".to_string(),
                // Frontend → Preprocess → GpuBatch1 → Postprocess
                dag: Dag::chain(vec![t(0), t(1), t(2), t(5)]).expect("static DAG"),
            },
            WorkflowDef {
                name: "MicroBatch".to_string(),
                // Frontend → Preprocess → GpuBatch8 → Postprocess
                dag: Dag::chain(vec![t(0), t(1), t(3), t(5)]).expect("static DAG"),
            },
            WorkflowDef {
                name: "Bulk".to_string(),
                // Frontend → Preprocess → GpuBatch32 → Postprocess
                dag: Dag::chain(vec![t(0), t(1), t(4), t(5)]).expect("static DAG"),
            },
        ];
        // Offered load ≈ 7.2 + 4.75 + 3.2 ≈ 15.2 consumer-seconds/s against
        // a budget of 24: sufficient but not redundant, like MSD/LIGO.
        Ensemble::new("GPU-SERVE", task_types, workflows, 24, vec![1.2, 0.5, 0.15])
    }

    /// A deterministic scaled-up ensemble for benchmarks and stress tests:
    /// `num_task_types` microservices shared by `num_workflow_types`
    /// workflows (alternating 4-node chains and fan-out/join diamonds, task
    /// types assigned round-robin with a per-workflow stride so they are
    /// shared across workflows like in MSD/LIGO).
    ///
    /// Service-time means are spread deterministically over
    /// `[0.5, 1.5) × mean_service_secs` (no RNG: the same arguments always
    /// produce the identical ensemble). Default arrival rates are scaled so
    /// the offered load is half the consumer budget, each workflow type
    /// contributing equally.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero, the budget is zero, or
    /// `mean_service_secs` is not strictly positive.
    #[must_use]
    pub fn synthetic(
        num_task_types: usize,
        num_workflow_types: usize,
        consumer_budget: usize,
        mean_service_secs: f64,
    ) -> Self {
        assert!(num_task_types > 0, "synthetic ensemble needs task types");
        assert!(num_workflow_types > 0, "synthetic ensemble needs workflows");
        assert!(consumer_budget > 0, "synthetic ensemble needs a budget");
        assert!(
            mean_service_secs > 0.0,
            "mean service time must be positive"
        );
        let task_types: Vec<TaskTypeDef> = (0..num_task_types)
            .map(|j| {
                // Knuth multiplicative hash spreads the means over
                // [0.5, 1.5) without an RNG.
                let jitter = 0.5 + (j.wrapping_mul(2_654_435_761) % 1024) as f64 / 1024.0;
                TaskTypeDef::new(format!("S{j}"), mean_service_secs * jitter, 0.5)
            })
            .collect();
        let t = TaskTypeId::new;
        let workflows: Vec<WorkflowDef> = (0..num_workflow_types)
            .map(|i| {
                let task_at = |k: usize| t((i * 7 + k * 3) % num_task_types);
                let nodes = vec![task_at(0), task_at(1), task_at(2), task_at(3)];
                let dag = if i % 2 == 0 {
                    Dag::chain(nodes)
                } else {
                    // root → (b ∥ c) → join
                    Dag::new(nodes, vec![(0, 1), (0, 2), (1, 3), (2, 3)])
                }
                .expect("generated DAG is well-formed");
                WorkflowDef {
                    name: format!("W{i}"),
                    dag,
                }
            })
            .collect();
        let target_load = 0.5 * consumer_budget as f64;
        let rates: Vec<f64> = workflows
            .iter()
            .map(|w| {
                let demand: f64 = w
                    .dag
                    .task_types()
                    .iter()
                    .map(|&tt| task_types[tt.index()].mean_service_secs)
                    .sum();
                target_load / (num_workflow_types as f64 * demand)
            })
            .collect();
        Ensemble::new(
            format!("SYN-{num_task_types}x{num_workflow_types}"),
            task_types,
            workflows,
            consumer_budget,
            rates,
        )
    }

    /// The ensemble's name (`"MSD"`, `"LIGO"`, or a custom label).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of task types `J`.
    #[must_use]
    pub fn num_task_types(&self) -> usize {
        self.task_types.len()
    }

    /// Number of workflow types `N`.
    #[must_use]
    pub fn num_workflow_types(&self) -> usize {
        self.workflows.len()
    }

    /// Definition of task type `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn task_type(&self, j: TaskTypeId) -> &TaskTypeDef {
        &self.task_types[j.index()]
    }

    /// All task-type definitions, indexed by [`TaskTypeId`].
    #[must_use]
    pub fn task_types(&self) -> &[TaskTypeDef] {
        &self.task_types
    }

    /// Definition of workflow type `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn workflow(&self, i: WorkflowTypeId) -> &WorkflowDef {
        &self.workflows[i.index()]
    }

    /// All workflow definitions, indexed by [`WorkflowTypeId`].
    #[must_use]
    pub fn workflows(&self) -> &[WorkflowDef] {
        &self.workflows
    }

    /// Looks up a task type by name.
    #[must_use]
    pub fn task_type_by_name(&self, name: &str) -> Option<TaskTypeId> {
        self.task_types
            .iter()
            .position(|t| t.name == name)
            .map(TaskTypeId::new)
    }

    /// Looks up a workflow type by name.
    #[must_use]
    pub fn workflow_by_name(&self, name: &str) -> Option<WorkflowTypeId> {
        self.workflows
            .iter()
            .position(|w| w.name == name)
            .map(WorkflowTypeId::new)
    }

    /// The total-consumer constraint `C` used by the paper for this ensemble
    /// (14 for MSD, 30 for LIGO).
    #[must_use]
    pub fn default_consumer_budget(&self) -> usize {
        self.default_consumer_budget
    }

    /// Default background Poisson arrival rate (requests/s) per workflow
    /// type.
    #[must_use]
    pub fn default_arrival_rates(&self) -> &[f64] {
        &self.default_arrival_rates
    }

    /// Iterates over the workflow types whose DAG uses task type `j`.
    #[cfg(test)]
    pub(crate) fn workflows_using(
        &self,
        j: TaskTypeId,
    ) -> impl Iterator<Item = WorkflowTypeId> + '_ {
        self.workflows
            .iter()
            .enumerate()
            .filter(move |(_, w)| w.dag.task_types().contains(&j))
            .map(|(i, _)| WorkflowTypeId::new(i))
    }

    /// Renders every workflow's DAG as one Graphviz DOT document with
    /// human-readable task names — handy for documenting custom ensembles.
    #[must_use]
    pub fn to_dot(&self) -> String {
        let names: Vec<String> = self.task_types.iter().map(|t| t.name.clone()).collect();
        let mut out = String::new();
        for wf in &self.workflows {
            out.push_str(
                &wf.dag
                    .to_dot(&wf.name.replace([' ', '-'], "_"), Some(&names)),
            );
        }
        out
    }

    /// Total expected service demand (consumer-seconds per second) induced by
    /// the given per-workflow arrival rates — a load estimate used to sanity
    /// check consumer budgets.
    ///
    /// # Panics
    ///
    /// Panics if `rates.len() != self.num_workflow_types()`.
    #[must_use]
    pub fn offered_load(&self, rates: &[f64]) -> f64 {
        assert_eq!(rates.len(), self.workflows.len());
        self.workflows
            .iter()
            .zip(rates)
            .map(|(w, &rate)| {
                let demand: f64 = w
                    .dag
                    .task_types()
                    .iter()
                    .map(|&tt| self.task_types[tt.index()].mean_service_secs)
                    .sum();
                rate * demand
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msd_matches_paper_counts() {
        let e = Ensemble::msd();
        assert_eq!(e.num_task_types(), 4);
        assert_eq!(e.num_workflow_types(), 3);
        assert_eq!(e.default_consumer_budget(), 14);
        assert_eq!(e.name(), "MSD");
    }

    #[test]
    fn ligo_matches_paper_counts() {
        let e = Ensemble::ligo();
        assert_eq!(e.num_task_types(), 9);
        assert_eq!(e.num_workflow_types(), 4);
        assert_eq!(e.default_consumer_budget(), 30);
        for name in ["DataFind", "CAT", "Full", "Injection"] {
            assert!(e.workflow_by_name(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn coire_shared_by_cat_full_injection() {
        let e = Ensemble::ligo();
        let coire = e.task_type_by_name("Coire").unwrap();
        let users: Vec<String> = e
            .workflows_using(coire)
            .map(|i| e.workflow(i).name.clone())
            .collect();
        assert_eq!(users, vec!["CAT", "Full", "Injection"]);
    }

    #[test]
    fn msd_task_sharing_causes_cascades() {
        let e = Ensemble::msd();
        let c = e.task_type_by_name("C").unwrap();
        assert_eq!(e.workflows_using(c).count(), 3);
        let a = e.task_type_by_name("A").unwrap();
        assert_eq!(e.workflows_using(a).count(), 2);
    }

    #[test]
    fn gpu_serve_matches_model_counts() {
        let e = Ensemble::gpu_serve();
        assert_eq!(e.num_task_types(), 6);
        assert_eq!(e.num_workflow_types(), 3);
        assert_eq!(e.default_consumer_budget(), 24);
        assert_eq!(e.name(), "GPU-SERVE");
        for name in ["Interactive", "MicroBatch", "Bulk"] {
            assert!(e.workflow_by_name(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn gpu_serve_batch_tiers_follow_linear_batching_model() {
        // t(b) = t0 + c·b with t0 = 2.0, c = 0.5.
        let e = Ensemble::gpu_serve();
        for (name, b) in [("GpuBatch1", 1.0), ("GpuBatch8", 8.0), ("GpuBatch32", 32.0)] {
            let j = e.task_type_by_name(name).unwrap();
            let mean = e.task_type(j).mean_service_secs;
            assert!(
                (mean - (2.0 + 0.5 * b)).abs() < 1e-12,
                "{name}: {mean} != t({b})"
            );
        }
        // CPU stages are shared by all three request classes.
        for name in ["Frontend", "Preprocess", "Postprocess"] {
            let j = e.task_type_by_name(name).unwrap();
            assert_eq!(e.workflows_using(j).count(), 3, "{name} not shared");
        }
    }

    #[test]
    fn default_load_leaves_burst_headroom() {
        // The paper picks budgets that are "sufficient but not redundant":
        // offered load should sit well below the budget but above half of it.
        for e in [Ensemble::msd(), Ensemble::ligo(), Ensemble::gpu_serve()] {
            let load = e.offered_load(e.default_arrival_rates());
            let budget = e.default_consumer_budget() as f64;
            assert!(
                load > 0.4 * budget && load < 0.9 * budget,
                "{}: load {load:.2} vs budget {budget}",
                e.name()
            );
        }
    }

    #[test]
    fn ligo_full_has_fan_out_join() {
        let e = Ensemble::ligo();
        let full = e.workflow(e.workflow_by_name("Full").unwrap());
        // Sire joins TrigBank and InspiralVeto.
        let sire_node = 6;
        assert_eq!(full.dag.fan_in(sire_node), 2);
        assert_eq!(full.dag.depth(), 7);
    }

    #[test]
    #[should_panic(expected = "references unknown task type")]
    fn unknown_task_type_panics() {
        let bad = WorkflowDef {
            name: "bad".into(),
            dag: Dag::chain(vec![TaskTypeId::new(5)]).unwrap(),
        };
        let _ = Ensemble::new(
            "X",
            vec![TaskTypeDef::new("only", 1.0, 0.1)],
            vec![bad],
            4,
            vec![0.1],
        );
    }

    #[test]
    #[should_panic(expected = "one arrival rate per workflow type")]
    fn rate_count_mismatch_panics() {
        let wf = WorkflowDef {
            name: "w".into(),
            dag: Dag::chain(vec![TaskTypeId::new(0)]).unwrap(),
        };
        let _ = Ensemble::new(
            "X",
            vec![TaskTypeDef::new("t", 1.0, 0.1)],
            vec![wf],
            4,
            vec![0.1, 0.2],
        );
    }

    #[test]
    fn dot_export_covers_every_workflow() {
        let e = Ensemble::ligo();
        let dot = e.to_dot();
        for wf in ["DataFind", "CAT", "Full", "Injection"] {
            assert!(dot.contains(&format!("digraph {wf}")), "missing {wf}");
        }
        assert!(dot.contains("Inspiral"));
        assert!(dot.contains("Coire"));
    }

    #[test]
    fn synthetic_is_deterministic_and_well_formed() {
        let a = Ensemble::synthetic(128, 64, 1024, 0.03);
        let b = Ensemble::synthetic(128, 64, 1024, 0.03);
        assert_eq!(a, b, "same arguments must produce the identical ensemble");
        assert_eq!(a.num_task_types(), 128);
        assert_eq!(a.num_workflow_types(), 64);
        assert_eq!(a.default_consumer_budget(), 1024);
        // Default rates put the offered load at half the budget.
        let load = a.offered_load(a.default_arrival_rates());
        assert!((load - 512.0).abs() < 1e-6, "load {load}");
        // Both DAG shapes appear, and fan-out workflows join correctly.
        assert_eq!(a.workflow(WorkflowTypeId::new(0)).dag.depth(), 4);
        let diamond = &a.workflow(WorkflowTypeId::new(1)).dag;
        assert_eq!(diamond.fan_in(3), 2);
    }

    #[test]
    fn synthetic_shares_task_types_across_workflows() {
        let e = Ensemble::synthetic(16, 12, 64, 1.0);
        let shared = (0..16)
            .filter(|&j| e.workflows_using(TaskTypeId::new(j)).count() > 1)
            .count();
        assert!(shared > 0, "synthetic ensembles must share task types");
    }

    #[test]
    fn serde_round_trip() {
        let e = Ensemble::ligo();
        let json = serde_json::to_string(&e).unwrap();
        let back: Ensemble = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
