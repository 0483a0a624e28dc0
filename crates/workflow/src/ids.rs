//! Typed indices for task types and workflow types.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Index of a task type (a "microservice") within an ensemble.
///
/// The MIRAS paper indexes task types `1 ≤ j ≤ J`; we use zero-based indices.
/// Newtyping prevents mixing task-type and workflow-type indices — the two
/// index spaces overlap numerically but mean different things. The index is
/// stored as a `u32`, which keeps the simulator's pending events small; it
/// serialises as a plain number.
///
/// # Examples
///
/// ```
/// use workflow::TaskTypeId;
///
/// let j = TaskTypeId::new(2);
/// assert_eq!(j.index(), 2);
/// assert_eq!(j.to_string(), "task#2");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TaskTypeId(u32);

impl TaskTypeId {
    /// Wraps a zero-based task-type index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        assert!(
            index <= u32::MAX as usize,
            "task-type index exceeds u32::MAX"
        );
        TaskTypeId(index as u32)
    }

    /// The underlying zero-based index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

impl From<TaskTypeId> for usize {
    fn from(id: TaskTypeId) -> usize {
        id.index()
    }
}

/// Index of a workflow type within an ensemble.
///
/// The MIRAS paper indexes workflow types `1 ≤ i ≤ N`; we use zero-based
/// indices, stored as a `u32` like [`TaskTypeId`]'s.
///
/// # Examples
///
/// ```
/// use workflow::WorkflowTypeId;
///
/// let i = WorkflowTypeId::new(0);
/// assert_eq!(i.index(), 0);
/// assert_eq!(i.to_string(), "workflow#0");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct WorkflowTypeId(u32);

impl WorkflowTypeId {
    /// Wraps a zero-based workflow-type index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        assert!(
            index <= u32::MAX as usize,
            "workflow-type index exceeds u32::MAX"
        );
        WorkflowTypeId(index as u32)
    }

    /// The underlying zero-based index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WorkflowTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workflow#{}", self.0)
    }
}

impl From<WorkflowTypeId> for usize {
    fn from(id: WorkflowTypeId) -> usize {
        id.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_index() {
        assert_eq!(TaskTypeId::new(7).index(), 7);
        assert_eq!(WorkflowTypeId::new(3).index(), 3);
        assert_eq!(usize::from(TaskTypeId::new(9)), 9);
        assert_eq!(usize::from(WorkflowTypeId::new(9)), 9);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let a = TaskTypeId::new(1);
        let b = TaskTypeId::new(2);
        assert!(a < b);
        let set: HashSet<_> = [a, b, a].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "task-type index exceeds u32::MAX")]
    fn ids_reject_indices_beyond_u32() {
        let _ = TaskTypeId::new(u32::MAX as usize + 1);
    }

    #[test]
    fn ids_serialise_as_plain_numbers() {
        assert_eq!(serde_json::to_string(&TaskTypeId::new(7)).unwrap(), "7");
        let back: WorkflowTypeId = serde_json::from_str("3").unwrap();
        assert_eq!(back, WorkflowTypeId::new(3));
    }

    #[test]
    fn display_formats() {
        assert_eq!(TaskTypeId::new(0).to_string(), "task#0");
        assert_eq!(WorkflowTypeId::new(5).to_string(), "workflow#5");
    }
}
