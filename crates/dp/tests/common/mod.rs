//! What the dp suites share: a wrapper that takes a grid off its in-place
//! path.

use lopram_dp::prelude::*;

/// `inner` with its `grid()` hidden: the same table, evaluated through the
/// schedule by every solver.
pub struct Levels<'a, P>(pub &'a P);

impl<P: DpProblem> DpProblem for Levels<'_, P> {
    type Value = P::Value;

    fn num_cells(&self) -> usize {
        self.0.num_cells()
    }

    fn dependencies(&self, cell: usize, out: &mut Vec<usize>) {
        self.0.dependencies(cell, out)
    }

    fn compute(&self, cell: usize, get: &dyn Fn(usize) -> P::Value) -> P::Value {
        self.0.compute(cell, get)
    }

    fn goal_cell(&self) -> usize {
        self.0.goal_cell()
    }
}
