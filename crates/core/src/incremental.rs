//! The name the frozen `benchmark/` probes import for the checker they
//! time at checkpoints: each call is one [`check_consistency`].

use hyperring_id::IdSpace;

use crate::consistency::{check_consistency, ConsistencyReport};
use crate::table::NeighborTable;

// Kept for the frozen `benchmark/` probes, which import it. Goes when
// `benchmark/` is next touched (ROADMAP item 7(d), the thaw).
#[doc(hidden)]
#[derive(Debug)]
pub struct IncrementalChecker {
    space: IdSpace,
}

impl IncrementalChecker {
    /// A checker over `space`.
    pub fn new(space: IdSpace) -> Self {
        IncrementalChecker { space }
    }

    /// [`check_consistency`] over `tables`.
    pub fn check<'a, I>(&mut self, tables: I) -> ConsistencyReport
    where
        I: IntoIterator<Item = &'a NeighborTable>,
    {
        check_consistency(self.space, tables)
    }
}
