//! Scientific-workflow definitions and workload generation.
//!
//! This crate models everything the MIRAS paper's *workloads* consist of:
//!
//! * [`TaskTypeId`] / [`WorkflowTypeId`] — typed indices for the `J` task
//!   types and `N` workflow types of an ensemble,
//! * [`Dag`] — the directed-acyclic task graph of one workflow type, with
//!   validation, topological ordering, and fan-in (join) bookkeeping,
//! * [`Ensemble`] — a set of workflow types over a shared set of task types,
//!   with the paper's two evaluation ensembles, [`Ensemble::msd`] (Material
//!   Science Data: 3 workflows over 4 task types) and [`Ensemble::ligo`]
//!   (LIGO inspiral analysis: 4 workflows over 9 task types),
//! * [`BurstSpec`] and [`ArrivalTrace`] — the paper's §VI-D request bursts
//!   and time-sorted arrival traces; the §VI-A1 Poisson background is
//!   sampled by the emulator (`microsim`), which writes it out as a trace.
//!
//! The DAG shapes are reconstructions (the paper never prints them); see
//! `DESIGN.md` §3 for the rationale.
//!
//! # Examples
//!
//! ```
//! use workflow::Ensemble;
//!
//! let msd = Ensemble::msd();
//! assert_eq!(msd.num_task_types(), 4);
//! assert_eq!(msd.num_workflow_types(), 3);
//! // Task type C is shared by all three MSD workflow types.
//! let c = msd.task_type_by_name("C").unwrap();
//! let sharing = msd
//!     .workflows()
//!     .iter()
//!     .filter(|w| w.dag.task_types().contains(&c))
//!     .count();
//! assert_eq!(sharing, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod arrivals;
mod dag;
mod ensemble;
mod ids;

pub use arrivals::{Arrival, ArrivalTrace, BurstSpec};
pub use dag::{Dag, DagError};
pub use ensemble::{Ensemble, TaskTypeDef, WorkflowDef};
pub use ids::{TaskTypeId, WorkflowTypeId};
