//! The emulated microservice workflow cluster.
//!
//! [`Cluster`] wires together everything the paper's Figure 1 shows: workflow
//! requests arrive, the task-dependency service releases the workflow's entry
//! tasks into their microservices' request queues, consumers drain the queues
//! with stochastic service times, and each task completion releases successor
//! tasks (AND-join) until the workflow's last task finishes.

use std::collections::VecDeque;

use desim::{Engine, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};
use workflow::{Ensemble, TaskTypeId, WorkflowTypeId};

use crate::audit::{audit_env_enabled, AuditViolation, SimAuditor};
use crate::pool::ConsumerPool;
use crate::slab::Slab;
use crate::SimConfig;

/// Identifier of one in-flight workflow instance: its slot in the instance
/// slab. Slots are reused after a workflow completes, so an `InstanceId` is
/// only meaningful while its workflow is in flight — which is the only time
/// the simulator ever references one (every pending event naming an
/// instance keeps it alive through its `remaining_nodes` count).
type InstanceId = u32;

/// Index of a node within its workflow's DAG, as events and queues store
/// it. [`Cluster::new`] checks that every DAG's node count fits.
type NodeId = u32;

/// Narrows a DAG node index to a [`NodeId`].
fn node_id(node: usize) -> NodeId {
    NodeId::try_from(node).expect("DAG node index fits u32")
}

/// Per-workflow-type totals of the workflow requests completed since the
/// totals were last cleared. A decision window reads nothing else about
/// its completions, so the cluster adds each one up as it finishes instead
/// of keeping a record per request: its memory follows the workflows in
/// flight, not a window's throughput.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CompletionTotals {
    /// Requests completed, per workflow type.
    pub count: Vec<usize>,
    /// Sum of those requests' end-to-end response times in seconds, per
    /// workflow type, added in completion order.
    pub response_secs_sum: Vec<f64>,
}

impl CompletionTotals {
    fn zeroed(num_workflow_types: usize) -> Self {
        CompletionTotals {
            count: vec![0; num_workflow_types],
            response_secs_sum: vec![0.0; num_workflow_types],
        }
    }

    /// Requests completed across all workflow types.
    #[must_use]
    pub fn total(&self) -> usize {
        self.count.iter().sum()
    }

    /// Mean response time in seconds per workflow type; `None` where no
    /// request of that type completed.
    #[must_use]
    pub fn mean_response_secs(&self) -> Vec<Option<f64>> {
        self.count
            .iter()
            .zip(&self.response_secs_sum)
            .map(|(&c, &s)| (c > 0).then(|| s / c as f64))
            .collect()
    }
}

/// Simulation events.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Event {
    /// A workflow request of the given type arrives.
    Arrival(WorkflowTypeId),
    /// A consumer of the given task type finished the request it was
    /// processing for workflow `instance`, DAG node `node`.
    TaskComplete {
        task: TaskTypeId,
        instance: InstanceId,
        node: NodeId,
    },
    /// A consumer of the given task type crashed while processing the
    /// request for workflow `instance`, DAG node `node` (failure injection).
    ConsumerFailed {
        task: TaskTypeId,
        instance: InstanceId,
        node: NodeId,
    },
    /// A container of the given task type finished starting up.
    ConsumerUp(TaskTypeId),
    /// The physical node with the given index fails, taking down every
    /// consumer it hosts at the same instant (correlated outage injection).
    NodeOutage(usize),
    /// A delayed queue delivery (message-broker latency spike): the task
    /// request materialises in its queue only now.
    Deliver {
        task: TaskTypeId,
        instance: InstanceId,
        node: NodeId,
    },
}

/// Bookkeeping for one in-flight workflow request. Its per-node
/// predecessor counts live in [`Cluster::remaining_preds`], at its slab key.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WorkflowInstance {
    workflow_type: WorkflowTypeId,
    arrival: SimTime,
    /// Number of DAG nodes that have not completed yet.
    remaining_nodes: usize,
}

/// Checkpoint form of one in-flight workflow request: the live record
/// together with its predecessor counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct InstanceSnapshot {
    workflow_type: WorkflowTypeId,
    arrival: SimTime,
    /// Per-DAG-node count of predecessors that have not completed yet.
    remaining_preds: Vec<usize>,
    /// Number of DAG nodes that have not completed yet.
    remaining_nodes: usize,
}

/// One task request waiting in a microservice queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct PendingTask {
    instance: InstanceId,
    node: NodeId,
}

// Every pending event and queued task pays these sizes; a wider field must
// not regrow them unnoticed.
const _: () = assert!(std::mem::size_of::<desim::ScheduledEvent<Event>>() == 32);
const _: () = assert!(std::mem::size_of::<PendingTask>() == 8);

/// The emulated microservice workflow system.
///
/// The cluster is the "real environment" of the MIRAS paper: callers submit
/// workflow requests ([`Cluster::submit`]), set per-microservice consumer
/// counts ([`Cluster::set_consumers`]), advance simulated time
/// ([`Cluster::run_until`]), and observe per-microservice work-in-progress
/// ([`Cluster::wip`]) plus per-type totals of completed-workflow response
/// times ([`Cluster::completion_totals`]).
///
/// # Examples
///
/// ```
/// use desim::SimTime;
/// use microsim::{Cluster, SimConfig};
/// use workflow::{Ensemble, WorkflowTypeId};
///
/// let mut cluster = Cluster::new(Ensemble::msd(), SimConfig::new(42));
/// cluster.set_consumers(&[4, 4, 4, 2]);
/// cluster.submit(SimTime::ZERO, WorkflowTypeId::new(0));
/// cluster.run_until(SimTime::from_secs(120));
/// let done = cluster.completion_totals();
/// assert_eq!(done.count, vec![1, 0, 0]);
/// assert!(done.response_secs_sum[0] > 0.0);
/// ```
#[derive(Debug)]
pub struct Cluster {
    ensemble: Ensemble,
    engine: Engine<Event>,
    queues: Vec<VecDeque<PendingTask>>,
    pools: Vec<ConsumerPool>,
    instances: Slab<WorkflowInstance>,
    /// Per-DAG-node count of predecessors that have not completed yet, for
    /// every instance slot: slot `key` owns the `preds_stride` entries from
    /// `key * preds_stride`. Grows with the slab's peak population, so a
    /// steady-state arrival allocates nothing.
    remaining_preds: Vec<u32>,
    /// Node count of the ensemble's largest DAG.
    preds_stride: usize,
    /// Reusable scratch for the `(task, node)` releases of one event.
    scratch_release: Vec<(TaskTypeId, NodeId)>,
    service_dists: Vec<LogNormal<f64>>,
    rng: SmallRng,
    config: SimConfig,
    completion_totals: CompletionTotals,
    tasks_completed: Vec<u64>,
    workflows_submitted: Vec<u64>,
    /// Workflow requests completed so far, per workflow type (cumulative —
    /// unlike `completion_totals`, never cleared; the audit layer's
    /// conservation checks depend on it).
    workflows_completed: Vec<u64>,
    /// Task requests released into the delivery system so far, per task
    /// type (cumulative; counts each DAG-node release exactly once —
    /// redeliveries after a consumer crash are not new releases).
    tasks_released: Vec<u64>,
    /// Task requests currently held up by a delivery-delay spike, per task
    /// type (released but neither queued nor in service yet).
    tasks_in_delivery: Vec<usize>,
    consumer_failures: u64,
    /// Absolute time of each node's next correlated outage (empty when the
    /// node fault model is disabled). Dispatch consults this so requests
    /// whose service would outlive the node fail at the outage instant.
    node_next_outage: Vec<SimTime>,
    node_outages: u64,
    auditor: SimAuditor,
}

impl Cluster {
    /// Creates a cluster for `ensemble` with no consumers provisioned.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`](crate::ConfigError) text if
    /// `SimConfig::validate` rejects `config`, or if a task type's
    /// service-time parameters cannot form a
    /// log-normal distribution (guarded upstream by
    /// [`workflow::TaskTypeDef::new`]).
    #[must_use]
    pub fn new(ensemble: Ensemble, config: SimConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let j = ensemble.num_task_types();
        let service_dists = ensemble
            .task_types()
            .iter()
            .map(|t| {
                // Log-normal with mean m and coefficient of variation c:
                // sigma^2 = ln(1 + c^2), mu = ln(m) - sigma^2 / 2.
                let c2 = t.service_cv * t.service_cv;
                let sigma2 = (1.0 + c2).ln();
                let mu = t.mean_service_secs.ln() - sigma2 / 2.0;
                LogNormal::new(mu, sigma2.sqrt()).expect("valid service distribution")
            })
            .collect();
        let n = ensemble.num_workflow_types();
        let preds_stride = ensemble
            .workflows()
            .iter()
            .map(|w| w.dag.num_nodes())
            .max()
            .unwrap_or(0);
        // Node indices and fan-ins are below the DAG's node count, so both
        // fit a u32.
        assert!(
            u32::try_from(preds_stride).is_ok(),
            "a workflow DAG has more than u32::MAX nodes"
        );
        let audit = config.audit || audit_env_enabled();
        let mut cluster = Cluster {
            ensemble,
            engine: Engine::new(),
            queues: vec![VecDeque::new(); j],
            pools: vec![ConsumerPool::new(); j],
            instances: Slab::new(),
            remaining_preds: Vec::new(),
            preds_stride,
            scratch_release: Vec::new(),
            service_dists,
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            completion_totals: CompletionTotals::zeroed(n),
            tasks_completed: vec![0; j],
            workflows_submitted: vec![0; n],
            workflows_completed: vec![0; n],
            tasks_released: vec![0; j],
            tasks_in_delivery: vec![0; j],
            consumer_failures: 0,
            node_next_outage: Vec::new(),
            node_outages: 0,
            auditor: SimAuditor::new(audit),
        };
        if cluster.config.node_outage_rate_per_hour > 0.0 {
            for node in 0..cluster.config.node_count {
                let at = cluster.sample_outage_gap();
                cluster.node_next_outage.push(at);
                cluster.engine.schedule(at, Event::NodeOutage(node));
            }
        }
        cluster
    }

    /// The workload domain this cluster serves.
    #[must_use]
    pub fn ensemble(&self) -> &Ensemble {
        &self.ensemble
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Schedules a workflow request of type `workflow_type` to arrive at
    /// `at` (clamped to the current time if already past).
    ///
    /// # Panics
    ///
    /// Panics if `workflow_type` is out of range for the ensemble.
    pub fn submit(&mut self, at: SimTime, workflow_type: WorkflowTypeId) {
        assert!(
            workflow_type.index() < self.ensemble.num_workflow_types(),
            "unknown workflow type {workflow_type}"
        );
        self.engine.schedule(at, Event::Arrival(workflow_type));
    }

    /// Retargets every consumer pool; `targets[j]` is the desired number of
    /// consumers for task type `j`. Newly started consumers come up after a
    /// uniformly distributed start-up delay.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the number of task types.
    pub fn set_consumers(&mut self, targets: &[usize]) {
        assert_eq!(
            targets.len(),
            self.pools.len(),
            "one consumer target per task type"
        );
        for (j, &target) in targets.iter().enumerate() {
            let retarget = self.pools[j].retarget(target);
            for _ in 0..retarget.to_start {
                let delay = self.sample_startup_delay();
                self.engine
                    .schedule_after(delay, Event::ConsumerUp(TaskTypeId::new(j)));
            }
            self.dispatch(TaskTypeId::new(j));
        }
    }

    /// Immediately provisions `targets[j]` *active* consumers per pool,
    /// skipping start-up delays. Used by environment resets, which model the
    /// paper's "provision sufficient consumers" reset outside the measured
    /// timeline.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the number of task types.
    pub(crate) fn force_consumers(&mut self, targets: &[usize]) {
        assert_eq!(targets.len(), self.pools.len());
        for (j, &target) in targets.iter().enumerate() {
            let retarget = self.pools[j].retarget(target);
            for _ in 0..retarget.to_start {
                // Come up "immediately" (next event at the current instant).
                self.engine
                    .schedule_after(SimTime::ZERO, Event::ConsumerUp(TaskTypeId::new(j)));
            }
        }
    }

    /// Advances simulated time to `horizon`, processing all events up to it.
    ///
    /// In debug builds, and in release builds with auditing enabled (see
    /// [`SimConfig::audit`]), the audit layer checks event-time
    /// monotonicity plus the pool and task-conservation invariants after
    /// every event.
    pub fn run_until(&mut self, horizon: SimTime) {
        let audit = cfg!(debug_assertions) || self.auditor.is_enabled();
        while let Some((at, event)) = self.engine.pop_until(horizon) {
            if audit {
                self.auditor.check_event_time(at);
            }
            self.handle(event);
            if audit {
                self.audit_event_invariants();
            }
        }
    }

    /// Work-in-progress per microservice: requests waiting in the queue plus
    /// requests being processed (`w_j(k)` in the paper).
    #[must_use]
    pub fn wip(&self) -> Vec<usize> {
        self.queues
            .iter()
            .zip(&self.pools)
            .map(|(q, p)| q.len() + p.busy())
            .collect()
    }

    /// Total work-in-progress across microservices.
    #[must_use]
    pub fn total_wip(&self) -> usize {
        self.wip().iter().sum()
    }

    /// The consumer pool of task type `j` (for inspection).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn pool(&self, j: TaskTypeId) -> &ConsumerPool {
        &self.pools[j.index()]
    }

    /// Per-type totals of the workflow requests completed since the
    /// environment last took them (for a bare cluster: since construction).
    #[must_use]
    pub fn completion_totals(&self) -> &CompletionTotals {
        &self.completion_totals
    }

    /// Returns the completion counts and mean response times per workflow
    /// type, then zeroes the totals for the next window.
    pub(crate) fn take_window_completions(&mut self) -> (Vec<usize>, Vec<Option<f64>>) {
        let totals = &mut self.completion_totals;
        let taken = (totals.count.clone(), totals.mean_response_secs());
        totals.count.fill(0);
        totals.response_secs_sum.fill(0.0);
        taken
    }

    /// Attaches a telemetry handle to the underlying event engine and the
    /// audit layer (violations emit structured `audit` events).
    pub(crate) fn set_telemetry(&mut self, telemetry: telemetry::Telemetry) {
        self.auditor.set_telemetry(telemetry.clone());
        self.engine.set_telemetry(telemetry);
    }

    /// Publishes event-engine progress (see
    /// [`desim::Engine::telemetry_checkpoint`]).
    pub(crate) fn telemetry_checkpoint(&mut self) {
        self.engine.telemetry_checkpoint();
    }

    /// Number of workflow requests submitted so far, per type.
    #[must_use]
    pub fn workflows_submitted(&self) -> &[u64] {
        &self.workflows_submitted
    }

    /// Number of workflow requests still in flight.
    #[must_use]
    pub fn workflows_in_flight(&self) -> usize {
        self.instances.len()
    }

    /// Total simulation events processed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.engine.events_processed()
    }

    /// Number of injected consumer failures so far (independent crashes plus
    /// consumers lost to node outages).
    #[must_use]
    pub fn consumer_failures(&self) -> u64 {
        self.consumer_failures
    }

    /// Whether runtime (release-mode) invariant auditing is on for this
    /// cluster (via [`SimConfig::audit`] or `MIRAS_AUDIT=1`).
    #[must_use]
    pub fn audit_enabled(&self) -> bool {
        self.auditor.is_enabled()
    }

    /// Invariant violations recorded so far (always empty unless runtime
    /// auditing is enabled — debug builds panic at the violation site
    /// instead).
    #[must_use]
    pub fn audit_violations(&self) -> &[AuditViolation] {
        self.auditor.violations()
    }

    /// Removes and returns the invariant violations recorded so far.
    pub(crate) fn take_audit_violations(&mut self) -> Vec<AuditViolation> {
        self.auditor.take_violations()
    }

    /// Records a violation: panics in debug builds (the test suite must
    /// stop at the first broken invariant), accumulates the typed report in
    /// runtime-audit mode.
    fn flag(&mut self, violation: AuditViolation) {
        debug_assert!(false, "audit violation: {violation}");
        self.auditor.record(violation);
    }

    /// Per-event invariants: every pool's population algebra plus per-task
    /// request conservation (released = completed + queued + in service +
    /// in delayed delivery). `O(J)` per event with `J` the task-type count.
    fn audit_event_invariants(&mut self) {
        let mut found: Vec<AuditViolation> = Vec::new();
        for (j, pool) in self.pools.iter().enumerate() {
            if let Err(desync) = pool.check_invariants() {
                found.push(AuditViolation::Pool { task: j, desync });
            }
            let balance = self.tasks_completed[j]
                + self.queues[j].len() as u64
                + pool.busy() as u64
                + self.tasks_in_delivery[j] as u64;
            if self.tasks_released[j] != balance {
                found.push(AuditViolation::TaskConservation {
                    task: j,
                    released: self.tasks_released[j],
                    completed: self.tasks_completed[j],
                    queued: self.queues[j].len(),
                    in_service: pool.busy(),
                    in_delivery: self.tasks_in_delivery[j],
                });
            }
        }
        for violation in found {
            self.flag(violation);
        }
    }

    /// Window-boundary audit: the per-event invariants plus per-workflow
    /// request conservation (submitted = completed + in flight), which
    /// needs an `O(instances)` sweep and therefore only runs at decision
    /// boundaries. Called by
    /// [`MicroserviceEnv::step`](crate::MicroserviceEnv::step) after every
    /// window; external harnesses driving a bare cluster can call it at
    /// their own boundaries. A no-op in release builds unless runtime
    /// auditing is enabled.
    pub(crate) fn audit_window(&mut self) {
        if !(cfg!(debug_assertions) || self.auditor.is_enabled()) {
            return;
        }
        self.audit_event_invariants();
        let mut in_flight = vec![0usize; self.ensemble.num_workflow_types()];
        for (_, inst) in self.instances.iter() {
            in_flight[inst.workflow_type.index()] += 1;
        }
        let mut found: Vec<AuditViolation> = Vec::new();
        for (i, &submitted) in self.workflows_submitted.iter().enumerate() {
            if submitted != self.workflows_completed[i] + in_flight[i] as u64 {
                found.push(AuditViolation::WorkflowConservation {
                    workflow: i,
                    submitted,
                    completed: self.workflows_completed[i],
                    in_flight: in_flight[i],
                });
            }
        }
        for violation in found {
            self.flag(violation);
        }
    }

    /// Records a metric-shape violation detected by the environment layer
    /// (vector-length disagreement in a [`crate::WindowMetrics`]).
    pub(crate) fn flag_metric_shape(
        &mut self,
        window_index: usize,
        field: &'static str,
        expected: usize,
        actual: usize,
    ) {
        self.flag(AuditViolation::MetricShape {
            window_index,
            field,
            expected,
            actual,
        });
    }

    fn sample_startup_delay(&mut self) -> SimTime {
        let min = self.config.startup_min.as_micros();
        let max = self.config.startup_max.as_micros();
        let micros = if min == max {
            min
        } else {
            self.rng.gen_range(min..=max)
        };
        SimTime::from_micros(micros)
    }

    fn sample_service(&mut self, task: TaskTypeId) -> SimTime {
        let secs = self.service_dists[task.index()].sample(&mut self.rng);
        // Guard against degenerate samples; a request always takes some time.
        SimTime::from_secs_f64(secs.max(1e-3))
    }

    /// Exponential gap until a node's next outage. Clamped to at least one
    /// microsecond so a degenerate draw cannot wedge the event loop at a
    /// single instant.
    fn sample_outage_gap(&mut self) -> SimTime {
        let rate = self.config.node_outage_rate_per_hour;
        debug_assert!(rate > 0.0);
        let hours: f64 = -(1.0 - self.rng.gen::<f64>()).ln() / rate;
        SimTime::from_secs_f64(hours * 3600.0).max(SimTime::from_micros(1))
    }

    /// The physical node hosting consumer pool `j` (round-robin placement).
    fn node_of(&self, j: usize) -> usize {
        j % self.config.node_count
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Arrival(wf) => self.handle_arrival(wf),
            Event::TaskComplete {
                task,
                instance,
                node,
            } => self.handle_task_complete(task, instance, node),
            Event::ConsumerFailed {
                task,
                instance,
                node,
            } => self.handle_consumer_failed(task, instance, node),
            Event::ConsumerUp(task) => {
                if self.pools[task.index()].consumer_up() {
                    self.dispatch(task);
                }
            }
            Event::NodeOutage(node) => self.handle_node_outage(node),
            Event::Deliver {
                task,
                instance,
                node,
            } => {
                let j = task.index();
                // The request leaves the delayed-delivery limbo and becomes
                // visible in its queue. A zero in-delivery count here is a
                // conservation desync (a Deliver event with no matching
                // deferred release).
                if let Some(n) = self.tasks_in_delivery[j].checked_sub(1) {
                    self.tasks_in_delivery[j] = n;
                } else {
                    self.flag(AuditViolation::TaskConservation {
                        task: j,
                        released: self.tasks_released[j],
                        completed: self.tasks_completed[j],
                        queued: self.queues[j].len(),
                        in_service: self.pools[j].busy(),
                        in_delivery: 0,
                    });
                }
                self.queues[j].push_back(PendingTask { instance, node });
                self.dispatch(task);
            }
        }
    }

    fn handle_arrival(&mut self, wf: WorkflowTypeId) {
        self.workflows_submitted[wf.index()] += 1;
        let mut entries = std::mem::take(&mut self.scratch_release);
        let dag = &self.ensemble.workflow(wf).dag;
        let num_nodes = dag.num_nodes();
        let id = self.instances.insert(WorkflowInstance {
            workflow_type: wf,
            arrival: self.engine.now(),
            remaining_nodes: num_nodes,
        });
        let base = id as usize * self.preds_stride;
        if self.remaining_preds.len() < base + self.preds_stride {
            self.remaining_preds.resize(base + self.preds_stride, 0);
        }
        for (n, count) in self.remaining_preds[base..][..num_nodes]
            .iter_mut()
            .enumerate()
        {
            *count = dag.fan_in(n) as u32;
        }
        entries.clear();
        entries.extend(
            dag.entry_nodes()
                .iter()
                .map(|&n| (dag.task_type(n), node_id(n))),
        );
        for &(task, node) in &entries {
            self.enqueue_task(task, id, node);
        }
        entries.clear();
        self.scratch_release = entries;
    }

    fn enqueue_task(&mut self, task: TaskTypeId, instance: InstanceId, node: NodeId) {
        self.tasks_released[task.index()] += 1;
        // Delivery-delay spikes: with configured probability the broker
        // delivers the request only after a uniform delay in (0, max].
        let p = self.config.delivery_delay_prob;
        if p > 0.0 && self.rng.gen_bool(p) {
            let max = self.config.delivery_delay_max.as_micros();
            let delay = SimTime::from_micros(self.rng.gen_range(1..=max));
            self.tasks_in_delivery[task.index()] += 1;
            self.engine.schedule_after(
                delay,
                Event::Deliver {
                    task,
                    instance,
                    node,
                },
            );
            return;
        }
        self.queues[task.index()].push_back(PendingTask { instance, node });
        self.dispatch(task);
    }

    /// Hands queued requests to idle consumers of `task`. With failure
    /// injection enabled, each execution may instead end in a consumer
    /// crash partway through the request's service time — either an
    /// independent crash (exponential time-to-failure) or a correlated
    /// node outage that would land before the service completes.
    fn dispatch(&mut self, task: TaskTypeId) {
        let j = task.index();
        while self.pools[j].idle() > 0 && !self.queues[j].is_empty() {
            let pending = self.queues[j].pop_front().expect("checked non-empty");
            self.pools[j].begin_work();
            let mut service = self.sample_service(task);
            if !self.config.node_speed_factors.is_empty() {
                // Heterogeneous nodes: pool j's host runs `speed` times
                // nominal, so its sampled service time divides by it. The
                // scaling is deterministic (no RNG draw), so a homogeneous
                // config — empty factors — stays bit-identical.
                let speed = self.config.node_speed_factors[self.node_of(j)];
                service = SimTime::from_secs_f64(service.as_secs_f64() / speed);
            }
            if self.config.straggler_prob > 0.0 && self.rng.gen_bool(self.config.straggler_prob) {
                service =
                    SimTime::from_secs_f64(service.as_secs_f64() * self.config.straggler_factor);
            }
            if let Some(cores) = self.config.total_cores {
                // Processor-sharing approximation: with b busy consumers on
                // `cores` CPUs, each runs at cores/b speed (never faster
                // than nominal). Sampled at dispatch time.
                let busy: usize = self.pools.iter().map(ConsumerPool::busy).sum();
                let slowdown = (busy as f64 / cores).max(1.0);
                service = SimTime::from_secs_f64(service.as_secs_f64() * slowdown);
            }
            let completion = self.engine.now() + service;
            let rate = self.config.failure_rate_per_hour;
            // Earliest interrupting instant, if any: an independent crash of
            // this consumer, or its node going down before the service ends.
            let mut interrupt_at: Option<SimTime> = None;
            if rate > 0.0 {
                // Exponential time-to-failure while busy.
                let hours: f64 = -(1.0 - self.rng.gen::<f64>()).ln() / rate;
                let ttf = SimTime::from_secs_f64(hours * 3600.0);
                if ttf < service {
                    interrupt_at = Some(self.engine.now() + ttf);
                }
            }
            if !self.node_next_outage.is_empty() {
                let outage = self.node_next_outage[self.node_of(j)];
                if outage < completion && interrupt_at.is_none_or(|t| outage < t) {
                    interrupt_at = Some(outage);
                }
            }
            match interrupt_at {
                Some(at) => {
                    self.engine.schedule(
                        at,
                        Event::ConsumerFailed {
                            task,
                            instance: pending.instance,
                            node: pending.node,
                        },
                    );
                }
                None => {
                    self.engine.schedule(
                        completion,
                        Event::TaskComplete {
                            task,
                            instance: pending.instance,
                            node: pending.node,
                        },
                    );
                }
            }
        }
    }

    /// A physical node failed: every consumer it hosts dies at this instant.
    /// Busy consumers fail through the [`Event::ConsumerFailed`] events that
    /// dispatch scheduled at the outage time; this handler removes the idle
    /// ones, requests replacement containers, and arms the node's next
    /// outage.
    fn handle_node_outage(&mut self, node: usize) {
        self.node_outages += 1;
        for j in 0..self.pools.len() {
            if self.node_of(j) != node {
                continue;
            }
            let lost = self.pools[j].fail_idle();
            if lost > 0 {
                self.consumer_failures += lost as u64;
                let new_target = self.pools[j].effective_target() + lost;
                let retarget = self.pools[j].retarget(new_target);
                for _ in 0..retarget.to_start {
                    let delay = self.sample_startup_delay();
                    self.engine
                        .schedule_after(delay, Event::ConsumerUp(TaskTypeId::new(j)));
                }
            }
        }
        let gap = self.sample_outage_gap();
        let next = self.engine.now() + gap;
        self.node_next_outage[node] = next;
        self.engine.schedule(next, Event::NodeOutage(node));
    }

    /// A consumer crashed mid-request: redeliver the request to the front
    /// of its queue (at-least-once semantics) and let the orchestrator
    /// start a replacement container.
    fn handle_consumer_failed(&mut self, task: TaskTypeId, instance: InstanceId, node: NodeId) {
        let j = task.index();
        self.consumer_failures += 1;
        let replace = self.pools[j].fail_busy();
        self.queues[j].push_front(PendingTask { instance, node });
        if replace {
            let new_target = self.pools[j].effective_target() + 1;
            let retarget = self.pools[j].retarget(new_target);
            for _ in 0..retarget.to_start {
                let delay = self.sample_startup_delay();
                self.engine.schedule_after(delay, Event::ConsumerUp(task));
            }
        }
        // Another idle consumer (if any) can pick the request up right away.
        self.dispatch(task);
    }

    fn handle_task_complete(&mut self, task: TaskTypeId, instance: InstanceId, node: NodeId) {
        let j = task.index();
        self.tasks_completed[j] += 1;
        let stays = self.pools[j].finish_work();

        // Ask the "task-dependency service" for successors and release any
        // whose AND-join is now satisfied.
        let mut finished_workflow = None;
        let mut released = std::mem::take(&mut self.scratch_release);
        released.clear();
        if let Some(inst) = self.instances.get_mut(instance) {
            let dag = &self.ensemble.workflow(inst.workflow_type).dag;
            let preds = &mut self.remaining_preds[instance as usize * self.preds_stride..];
            for &succ in dag.successors(node as usize) {
                preds[succ] -= 1;
                if preds[succ] == 0 {
                    released.push((dag.task_type(succ), node_id(succ)));
                }
            }
            inst.remaining_nodes -= 1;
            if inst.remaining_nodes == 0 {
                finished_workflow = Some((inst.workflow_type, inst.arrival));
            }
        } else {
            debug_assert!(false, "task completion for unknown instance");
        }

        for &(succ_task, succ_node) in &released {
            self.enqueue_task(succ_task, instance, succ_node);
        }
        released.clear();
        self.scratch_release = released;

        if let Some((wf, arrival)) = finished_workflow {
            self.instances.remove(instance);
            let i = wf.index();
            self.workflows_completed[i] += 1;
            self.completion_totals.count[i] += 1;
            self.completion_totals.response_secs_sum[i] +=
                (self.engine.now() - arrival).as_secs_f64();
        }

        if stays {
            self.dispatch(task);
        }
    }

    /// Captures the cluster's complete dynamic state for checkpointing.
    ///
    /// The snapshot embeds the event queue with its exact FIFO tie-break
    /// sequence numbers and the service-time RNG state, so a cluster
    /// restored with [`Cluster::from_snapshot`] replays the very same event
    /// trajectory the original would have. The ensemble itself is *not*
    /// stored — only a structural fingerprint — because the workload
    /// definition is static configuration the caller re-supplies at restore.
    #[must_use]
    pub(crate) fn snapshot(&self) -> ClusterSnapshot {
        let engine = self.engine.snapshot();
        // Slab iteration is already in slot order (deterministic).
        let instances: Vec<(InstanceId, InstanceSnapshot)> = self
            .instances
            .iter()
            .map(|(id, inst)| {
                let num_nodes = self.ensemble.workflow(inst.workflow_type).dag.num_nodes();
                let preds = &self.remaining_preds[id as usize * self.preds_stride..][..num_nodes];
                let record = InstanceSnapshot {
                    workflow_type: inst.workflow_type,
                    arrival: inst.arrival,
                    remaining_preds: preds.iter().map(|&p| p as usize).collect(),
                    remaining_nodes: inst.remaining_nodes,
                };
                (id, record)
            })
            .collect();
        ClusterSnapshot {
            num_task_types: self.ensemble.num_task_types(),
            num_workflow_types: self.ensemble.num_workflow_types(),
            now: engine.now,
            processed: engine.processed,
            events: engine.events,
            next_seq: engine.next_seq,
            queues: self.queues.clone(),
            pools: self.pools.clone(),
            instances,
            free_instances: self.instances.free_list().to_vec(),
            rng_state: self.rng.state(),
            config: self.config.clone(),
            completion_totals: self.completion_totals.clone(),
            tasks_completed: self.tasks_completed.clone(),
            workflows_submitted: self.workflows_submitted.clone(),
            workflows_completed: self.workflows_completed.clone(),
            tasks_released: self.tasks_released.clone(),
            tasks_in_delivery: self.tasks_in_delivery.clone(),
            consumer_failures: self.consumer_failures,
            node_next_outage: self.node_next_outage.clone(),
            node_outages: self.node_outages,
        }
    }

    /// Rebuilds a cluster from a [`ClusterSnapshot`], continuing
    /// bit-identically with the run that produced it.
    ///
    /// Telemetry is not carried across a restore; reattach with
    /// [`Cluster::set_telemetry`] if needed.
    ///
    /// # Panics
    ///
    /// Panics if `ensemble`'s structure does not match the fingerprint
    /// recorded in the snapshot (wrong workload for this checkpoint), or if
    /// an in-flight instance's predecessor counts do not match its
    /// workflow's DAG.
    #[must_use]
    pub(crate) fn from_snapshot(ensemble: Ensemble, snapshot: ClusterSnapshot) -> Self {
        assert_eq!(
            ensemble.num_task_types(),
            snapshot.num_task_types,
            "snapshot was taken for an ensemble with a different task-type count"
        );
        assert_eq!(
            ensemble.num_workflow_types(),
            snapshot.num_workflow_types,
            "snapshot was taken for an ensemble with a different workflow-type count"
        );
        let mut fresh = Cluster::new(ensemble, snapshot.config.clone());
        fresh.engine = Engine::from_snapshot(desim::EngineSnapshot {
            now: snapshot.now,
            processed: snapshot.processed,
            events: snapshot.events,
            next_seq: snapshot.next_seq,
        });
        fresh.queues = snapshot.queues;
        fresh.pools = snapshot.pools;
        let slots = snapshot.instances.len() + snapshot.free_instances.len();
        let stride = fresh.preds_stride;
        let mut remaining_preds = vec![0; slots * stride];
        let mut instances = Vec::with_capacity(snapshot.instances.len());
        for (id, record) in snapshot.instances {
            let num_nodes = fresh
                .ensemble
                .workflow(record.workflow_type)
                .dag
                .num_nodes();
            assert_eq!(
                record.remaining_preds.len(),
                num_nodes,
                "snapshot instance {id} has the wrong number of predecessor counts"
            );
            let base = usize::try_from(id)
                .ok()
                .filter(|&i| i < slots)
                .map(|i| i * stride)
                .unwrap_or_else(|| panic!("slab snapshot has out-of-range key {id}"));
            for (count, &p) in remaining_preds[base..]
                .iter_mut()
                .zip(&record.remaining_preds)
            {
                *count = u32::try_from(p).expect("predecessor count fits u32");
            }
            let inst = WorkflowInstance {
                workflow_type: record.workflow_type,
                arrival: record.arrival,
                remaining_nodes: record.remaining_nodes,
            };
            instances.push((id, inst));
        }
        fresh.instances = Slab::from_parts(instances, snapshot.free_instances);
        fresh.remaining_preds = remaining_preds;
        fresh.rng = SmallRng::from_state(snapshot.rng_state);
        fresh.config = snapshot.config;
        let n = fresh.ensemble.num_workflow_types();
        assert!(
            snapshot.completion_totals.count.len() == n
                && snapshot.completion_totals.response_secs_sum.len() == n,
            "snapshot completion totals need one entry per workflow type"
        );
        fresh.completion_totals = snapshot.completion_totals;
        fresh.tasks_completed = snapshot.tasks_completed;
        fresh.workflows_submitted = snapshot.workflows_submitted;
        fresh.workflows_completed = snapshot.workflows_completed;
        fresh.tasks_released = snapshot.tasks_released;
        fresh.tasks_in_delivery = snapshot.tasks_in_delivery;
        fresh.consumer_failures = snapshot.consumer_failures;
        fresh.node_next_outage = snapshot.node_next_outage;
        fresh.node_outages = snapshot.node_outages;
        fresh
    }
}

/// Serializable checkpoint of a [`Cluster`]'s full dynamic state.
///
/// An opaque token: its only contract is that
/// [`Cluster::from_snapshot`] resumes bit-identically. The fields include
/// the event queue (with FIFO tie-break sequence numbers) and the RNG
/// state, so two clusters that share a snapshot replay identical event
/// trajectories.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ClusterSnapshot {
    num_task_types: usize,
    num_workflow_types: usize,
    now: SimTime,
    processed: u64,
    events: Vec<(SimTime, u64, Event)>,
    next_seq: u64,
    queues: Vec<VecDeque<PendingTask>>,
    pools: Vec<ConsumerPool>,
    instances: Vec<(InstanceId, InstanceSnapshot)>,
    /// The instance slab's free list (most recently freed last), so a
    /// restored cluster reuses instance slots in the exact same order.
    free_instances: Vec<InstanceId>,
    rng_state: [u64; 4],
    config: SimConfig,
    completion_totals: CompletionTotals,
    tasks_completed: Vec<u64>,
    workflows_submitted: Vec<u64>,
    workflows_completed: Vec<u64>,
    tasks_released: Vec<u64>,
    tasks_in_delivery: Vec<usize>,
    consumer_failures: u64,
    node_next_outage: Vec<SimTime>,
    node_outages: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msd_cluster(seed: u64) -> Cluster {
        Cluster::new(Ensemble::msd(), SimConfig::new(seed))
    }

    /// Runs `c` in 1 ms steps until `n` workflows have completed in total
    /// (or `limit` passes), returning the response-time sum at that point.
    fn run_until_completed(c: &mut Cluster, n: usize, limit: SimTime) -> f64 {
        while c.completion_totals().total() < n && c.now() < limit {
            c.run_until(c.now() + SimTime::from_millis(1));
        }
        assert_eq!(c.completion_totals().total(), n);
        c.completion_totals().response_secs_sum.iter().sum()
    }

    /// A config with zero start-up delay, for tests that want immediate
    /// capacity.
    fn instant_config(seed: u64) -> SimConfig {
        SimConfig {
            startup_min: SimTime::ZERO,
            startup_max: SimTime::ZERO,
            ..SimConfig::new(seed)
        }
    }

    #[test]
    fn single_workflow_completes() {
        let mut c = Cluster::new(Ensemble::msd(), instant_config(1));
        c.set_consumers(&[2, 2, 2, 2]);
        c.submit(SimTime::ZERO, WorkflowTypeId::new(0));
        c.run_until(SimTime::from_secs(600));
        let done = c.completion_totals();
        assert_eq!(done.total(), 1);
        assert_eq!(done.count, vec![1, 0, 0]);
        assert!(done.response_secs_sum[0] > 0.0);
        assert_eq!(c.total_wip(), 0);
        assert_eq!(c.workflows_in_flight(), 0);
    }

    #[test]
    fn no_consumers_means_no_progress() {
        let mut c = msd_cluster(2);
        c.submit(SimTime::ZERO, WorkflowTypeId::new(0));
        c.run_until(SimTime::from_secs(300));
        assert_eq!(c.completion_totals().total(), 0);
        // Type1 = A → B → C: only A's queue holds work.
        assert_eq!(c.wip(), vec![1, 0, 0, 0]);
    }

    #[test]
    fn response_time_includes_queueing() {
        // One consumer of each type, two identical workflows: the second
        // must wait for the first, so its response time is longer.
        let mut c = Cluster::new(Ensemble::msd(), instant_config(3));
        c.set_consumers(&[1, 1, 1, 1]);
        c.submit(SimTime::ZERO, WorkflowTypeId::new(0));
        c.submit(SimTime::ZERO, WorkflowTypeId::new(0));
        let limit = SimTime::from_secs(600);
        let first = run_until_completed(&mut c, 1, limit);
        let second = run_until_completed(&mut c, 2, limit) - first;
        assert!(second > first);
    }

    #[test]
    fn fan_out_join_completes_workflow_once() {
        // MSD Type3 is B → (C ∥ D); the workflow finishes when both branches
        // are done, producing exactly one completion record.
        let mut c = Cluster::new(Ensemble::msd(), instant_config(4));
        c.set_consumers(&[1, 1, 1, 1]);
        c.submit(SimTime::ZERO, WorkflowTypeId::new(2));
        c.run_until(SimTime::from_secs(600));
        let done = c.completion_totals();
        assert_eq!(done.total(), 1);
        assert_eq!(done.count, vec![0, 0, 1]);
        assert_eq!(c.tasks_completed.iter().sum::<u64>(), 3);
    }

    #[test]
    fn ligo_join_requires_both_branches() {
        // LIGO Full has Sire joining TrigBank and InspiralVeto.
        let ligo = Ensemble::ligo();
        let full = ligo.workflow_by_name("Full").unwrap();
        let mut c = Cluster::new(ligo, instant_config(5));
        c.set_consumers(&[1; 9]);
        c.submit(SimTime::ZERO, full);
        c.run_until(SimTime::from_secs(3600));
        assert_eq!(c.completion_totals().total(), 1);
        assert_eq!(c.tasks_completed.iter().sum::<u64>(), 8);
        assert_eq!(c.workflows_in_flight(), 0);
    }

    #[test]
    fn startup_delay_defers_processing() {
        let cfg = SimConfig {
            startup_min: SimTime::from_secs(5),
            startup_max: SimTime::from_secs(10),
            ..SimConfig::new(6)
        };
        let mut c = Cluster::new(Ensemble::msd(), cfg);
        c.submit(SimTime::ZERO, WorkflowTypeId::new(0));
        c.set_consumers(&[1, 1, 1, 1]);
        // Before any container can have come up, nothing has been dispatched.
        c.run_until(SimTime::from_secs(4));
        assert_eq!(c.pool(TaskTypeId::new(0)).active(), 0);
        assert_eq!(c.wip()[0], 1);
        // After the maximum start-up delay the consumer is up and working.
        c.run_until(SimTime::from_secs(11));
        assert_eq!(c.pool(TaskTypeId::new(0)).active(), 1);
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let run = |seed| {
            let mut c = msd_cluster(seed);
            c.set_consumers(&[4, 4, 4, 2]);
            for s in 0..50 {
                c.submit(
                    SimTime::from_secs(s * 3),
                    WorkflowTypeId::new((s % 3) as usize),
                );
            }
            c.run_until(SimTime::from_secs(1000));
            (
                c.wip(),
                c.completion_totals().clone(),
                c.tasks_completed.to_vec(),
            )
        };
        assert_eq!(run(77), run(77));
        // ...and a different seed gives a different trajectory.
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn wip_counts_queue_plus_busy() {
        let mut c = Cluster::new(Ensemble::msd(), instant_config(8));
        c.set_consumers(&[1, 0, 0, 0]);
        for _ in 0..5 {
            c.submit(SimTime::ZERO, WorkflowTypeId::new(0));
        }
        // Advance a hair so arrivals and dispatch happen, but no completion
        // (task A's mean service time is 2 s).
        c.run_until(SimTime::from_millis(1));
        assert_eq!(c.wip()[0], 5); // 4 queued + 1 busy
        assert_eq!(c.pool(TaskTypeId::new(0)).busy(), 1);
    }

    #[test]
    fn scale_down_mid_run_is_graceful() {
        let mut c = Cluster::new(Ensemble::msd(), instant_config(9));
        c.set_consumers(&[3, 3, 3, 3]);
        for _ in 0..30 {
            c.submit(SimTime::ZERO, WorkflowTypeId::new(0));
        }
        c.run_until(SimTime::from_secs(5));
        c.set_consumers(&[0, 0, 0, 0]);
        c.run_until(SimTime::from_secs(120));
        // All pools wound down; in-flight work at the instant of scale-down
        // completed, nothing new started.
        for j in 0..4 {
            assert_eq!(c.pool(TaskTypeId::new(j)).active(), 0);
        }
        // The workflow queue still holds the rest of the work.
        assert!(c.total_wip() > 0);
        let snapshot = c.wip();
        c.run_until(SimTime::from_secs(600));
        assert_eq!(c.wip(), snapshot, "no progress with zero consumers");
    }

    #[test]
    fn force_consumers_skips_startup() {
        let mut c = msd_cluster(10); // 5-10 s startup normally
        c.force_consumers(&[2, 2, 2, 2]);
        c.submit(SimTime::ZERO, WorkflowTypeId::new(0));
        c.run_until(SimTime::from_millis(1));
        assert_eq!(c.pool(TaskTypeId::new(0)).active(), 2);
        assert_eq!(c.pool(TaskTypeId::new(0)).busy(), 1);
    }

    #[test]
    fn submitted_counters_track_types() {
        let mut c = msd_cluster(11);
        c.submit(SimTime::ZERO, WorkflowTypeId::new(1));
        c.submit(SimTime::ZERO, WorkflowTypeId::new(1));
        c.submit(SimTime::ZERO, WorkflowTypeId::new(2));
        c.run_until(SimTime::from_secs(1));
        assert_eq!(c.workflows_submitted(), &[0, 2, 1]);
    }

    #[test]
    fn node_outage_kills_idle_consumers_and_replaces_them() {
        // One node hosting everything, failing roughly every sim-hour: idle
        // consumers die in the outage and replacements are scheduled.
        let cfg = SimConfig {
            node_outage_rate_per_hour: 1.0,
            ..instant_config(21)
        };
        let mut c = Cluster::new(Ensemble::msd(), cfg);
        c.set_consumers(&[2, 2, 2, 2]);
        c.run_until(SimTime::from_secs(8 * 3600));
        assert!(c.node_outages > 0, "an outage should have fired");
        assert!(
            c.consumer_failures() >= c.node_outages,
            "each outage kills the idle consumers it finds"
        );
        // Replacements keep the pools at their targets.
        for j in 0..4 {
            assert_eq!(c.pool(TaskTypeId::new(j)).effective_target(), 2);
        }
    }

    #[test]
    fn node_outage_interrupts_inflight_work_correlated() {
        // A saturated single-node cluster: requests in flight when the node
        // dies are redelivered, so all submitted workflows still complete.
        let cfg = SimConfig {
            node_outage_rate_per_hour: 6.0,
            ..instant_config(22)
        };
        let mut c = Cluster::new(Ensemble::msd(), cfg);
        c.set_consumers(&[3, 3, 3, 3]);
        for s in 0..40 {
            c.submit(
                SimTime::from_secs(s * 30),
                WorkflowTypeId::new((s % 3) as usize),
            );
        }
        c.run_until(SimTime::from_secs(4 * 3600));
        assert!(c.node_outages > 0);
        assert_eq!(
            c.completion_totals().total(),
            40,
            "redelivery loses no work"
        );
        assert_eq!(c.workflows_in_flight(), 0);
    }

    #[test]
    fn stragglers_inflate_response_times() {
        let run = |cfg: SimConfig| {
            let mut c = Cluster::new(Ensemble::msd(), cfg);
            c.set_consumers(&[1, 1, 1, 1]);
            for s in 0..30 {
                c.submit(SimTime::from_secs(s * 60), WorkflowTypeId::new(0));
            }
            c.run_until(SimTime::from_secs(3600));
            let done = c.completion_totals();
            assert_eq!(done.total(), 30);
            done.response_secs_sum.iter().sum::<f64>()
        };
        let healthy = run(instant_config(23));
        let straggly = run(SimConfig {
            straggler_prob: 0.3,
            straggler_factor: 10.0,
            ..instant_config(23)
        });
        assert!(
            straggly > healthy * 1.5,
            "stragglers must visibly inflate total response time \
             (healthy {healthy:.1}s vs straggly {straggly:.1}s)"
        );
    }

    #[test]
    fn node_speeds_scale_service_deterministically() {
        let run = |cfg: SimConfig| {
            let mut c = Cluster::new(Ensemble::msd(), cfg);
            c.set_consumers(&[1, 1, 1, 1]);
            for s in 0..30 {
                c.submit(SimTime::from_secs(s * 60), WorkflowTypeId::new(0));
            }
            c.run_until(SimTime::from_secs(3600));
            let done = c.completion_totals();
            assert_eq!(done.total(), 30);
            done.response_secs_sum.iter().sum::<f64>()
        };
        let nominal = run(instant_config(25));
        let speeds = |factor| SimConfig {
            node_speed_factors: vec![factor],
            ..instant_config(25)
        };
        let fast = run(speeds(4.0));
        let slow = run(speeds(0.5));
        // The speed factor divides each sampled service time after the
        // draw, so the RNG stream is unchanged and — with no queueing at
        // this arrival spacing — total response scales (near) exactly.
        assert!(
            (fast * 4.0 - nominal).abs() / nominal < 1e-3,
            "4x node: {fast:.2}s vs nominal {nominal:.2}s"
        );
        assert!(
            (slow * 0.5 - nominal).abs() / nominal < 1e-3,
            "0.5x node: {slow:.2}s vs nominal {nominal:.2}s"
        );
    }

    #[test]
    #[should_panic(expected = "node speed factors must have one entry per node")]
    fn mismatched_node_speed_len_panics() {
        let mut cfg = instant_config(26);
        cfg.node_speed_factors = vec![1.0, 2.0]; // node_count is still 1
        let _ = Cluster::new(Ensemble::msd(), cfg);
    }

    #[test]
    fn delivery_delay_spikes_defer_but_do_not_lose_work() {
        let cfg = SimConfig {
            delivery_delay_prob: 1.0,
            delivery_delay_max: SimTime::from_secs(60),
            ..instant_config(24)
        };
        let mut c = Cluster::new(Ensemble::msd(), cfg);
        c.set_consumers(&[2, 2, 2, 2]);
        c.submit(SimTime::ZERO, WorkflowTypeId::new(0));
        // With every delivery delayed, nothing can be in the queue at t=1ms.
        c.run_until(SimTime::from_millis(1));
        assert_eq!(c.total_wip(), 0, "delivery is still in flight");
        c.run_until(SimTime::from_secs(600));
        assert_eq!(c.completion_totals().total(), 1);
    }

    #[test]
    fn fault_features_off_leave_trajectory_unchanged() {
        // Explicitly-disabled fault features must not perturb the RNG
        // stream: the trajectory matches a default-config run exactly.
        let run = |cfg: SimConfig| {
            let mut c = Cluster::new(Ensemble::msd(), cfg);
            c.set_consumers(&[4, 4, 4, 2]);
            for s in 0..30 {
                c.submit(
                    SimTime::from_secs(s * 3),
                    WorkflowTypeId::new((s % 3) as usize),
                );
            }
            c.run_until(SimTime::from_secs(500));
            (c.wip(), c.completion_totals().clone())
        };
        let base = run(SimConfig::new(31));
        let gated = run(SimConfig {
            straggler_factor: 5.0,
            node_count: 3,
            ..SimConfig::new(31)
        });
        assert_eq!(base, gated);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let drive = |c: &mut Cluster, from: u64, to: u64| {
            for s in from..to {
                c.submit(
                    SimTime::from_secs(s * 7),
                    WorkflowTypeId::new((s % 3) as usize),
                );
            }
            c.run_until(SimTime::from_secs(to * 7));
        };
        let cfg = SimConfig {
            failure_rate_per_hour: 20.0,
            node_count: 2,
            node_outage_rate_per_hour: 2.0,
            straggler_prob: 0.1,
            straggler_factor: 5.0,
            delivery_delay_prob: 0.2,
            delivery_delay_max: SimTime::from_secs(3),
            ..SimConfig::new(55)
        };
        let mut original = Cluster::new(Ensemble::msd(), cfg);
        original.set_consumers(&[3, 3, 3, 3]);
        drive(&mut original, 0, 40);

        // Round-trip the snapshot through JSON, as a checkpoint file would.
        let json = serde_json::to_string(&original.snapshot()).unwrap();
        let snap: ClusterSnapshot = serde_json::from_str(&json).unwrap();
        let mut restored = Cluster::from_snapshot(Ensemble::msd(), snap);

        drive(&mut original, 40, 120);
        drive(&mut restored, 40, 120);
        assert_eq!(original.snapshot(), restored.snapshot());
        assert_eq!(original.completion_totals(), restored.completion_totals());
    }

    #[test]
    fn predecessor_counts_reuse_freed_instance_slots() {
        // One workflow at a time: every arrival reuses slot 0, so the flat
        // counter array holds exactly one stride however many complete.
        let mut c = Cluster::new(Ensemble::msd(), instant_config(14));
        c.set_consumers(&[2, 2, 2, 2]);
        for k in 0..20u64 {
            c.submit(
                SimTime::from_secs(k * 300),
                WorkflowTypeId::new((k % 3) as usize),
            );
            c.run_until(SimTime::from_secs(k * 300 + 299));
        }
        assert_eq!(c.completion_totals().total(), 20);
        assert_eq!(c.preds_stride, 3, "every MSD workflow has three tasks");
        assert_eq!(c.remaining_preds.len(), c.preds_stride);
    }

    #[test]
    #[should_panic(expected = "wrong number of predecessor counts")]
    fn snapshot_restore_rejects_predecessor_counts_of_the_wrong_length() {
        let mut c = msd_cluster(15);
        c.set_consumers(&[1, 1, 1, 1]);
        c.submit(SimTime::ZERO, WorkflowTypeId::new(0));
        c.run_until(SimTime::from_secs(1));
        let mut snap = c.snapshot();
        snap.instances[0].1.remaining_preds.pop();
        let _ = Cluster::from_snapshot(Ensemble::msd(), snap);
    }

    #[test]
    #[should_panic(expected = "different task-type count")]
    fn snapshot_restore_rejects_wrong_ensemble() {
        let c = Cluster::new(Ensemble::msd(), SimConfig::new(1));
        let snap = c.snapshot();
        let _ = Cluster::from_snapshot(Ensemble::ligo(), snap);
    }

    #[test]
    #[should_panic(expected = "unknown workflow type")]
    fn submit_unknown_type_panics() {
        let mut c = msd_cluster(12);
        c.submit(SimTime::ZERO, WorkflowTypeId::new(9));
    }

    #[test]
    #[should_panic(expected = "one consumer target per task type")]
    fn wrong_target_len_panics() {
        let mut c = msd_cluster(13);
        c.set_consumers(&[1, 2]);
    }
}
