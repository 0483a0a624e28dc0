//! Helpers shared by the serve integration tests.

use std::path::Path;

/// Rewrites the checkpoint at `path` in the layout saved before policy
/// lines existed: the training-state line alone.
pub(crate) fn strip_policy_line(path: &Path) {
    let text = std::fs::read_to_string(path).unwrap();
    let (_, state) = text.split_once('\n').expect("a policy line");
    std::fs::write(path, state).unwrap();
}
