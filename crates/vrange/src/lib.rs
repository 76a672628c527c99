//! Sparse conditional value-range and congruence analysis over scalars.
//!
//! `vrange` is the SCCP-shaped precision pass DESIGN.md §4g describes: it
//! tracks, for every integer scalar, an interval `[lo, hi]` (either bound
//! possibly infinite) and a congruence `r (mod m)`, propagated
//! flow-sensitively with branch narrowing on `IF` arms and
//! widening/narrowing to a fixed point across `DO` loops.
//!
//! The crate has two consumers:
//!
//! * the dataflow analyzer evaluates **symbolic** expressions
//!   ([`eval_sym`]) under an environment of proved scalar bounds, and
//!   feeds the results into `sym::compare` as a refutation oracle so
//!   Δ-unknown guards can be discharged during summary construction;
//! * panolint walks the **AST** ([`routine_facts`]) with the same
//!   lattice to derive the P007 (infeasible guard), P008 (subscript out
//!   of declared bounds) and P009 (loop never executes) diagnostics.
//!
//! Every analysis in the crate is fuel-bounded through [`Budget`]:
//! exhaustion degrades each subsequent answer to ⊤ (all values
//! possible) — never a panic, never an invented fact.

mod congruence;
mod env;
mod fixpoint;
mod interval;
mod walk;

pub use congruence::Congruence;
pub use env::{eval_sym, sign_of, RangeEnv, ValueRange};
pub use fixpoint::{loop_fixpoint, ScalarAssign, WIDENING_THRESHOLDS};
pub use interval::Interval;
pub use walk::{routine_facts, DeclaredDims, RangeFact, RangeFactKind};

use std::cell::Cell;

/// Default per-routine step budget: far above what any benchsuite
/// routine needs, low enough to bound pathological inputs.
pub const DEFAULT_BUDGET: u64 = 100_000;

/// A step budget for one analysis scope. Each expression node evaluated
/// and each transfer step charges one unit; once the budget hits zero
/// every further query answers ⊤ and [`Budget::degraded`] reports it.
#[derive(Debug)]
pub struct Budget {
    remaining: Cell<u64>,
    degraded: Cell<bool>,
}

impl Budget {
    /// A budget of `steps` units.
    pub fn new(steps: u64) -> Self {
        Budget {
            remaining: Cell::new(steps),
            degraded: Cell::new(false),
        }
    }

    /// Charges one unit; `false` once the budget is exhausted.
    pub fn step(&self) -> bool {
        let r = self.remaining.get();
        if r == 0 {
            self.degraded.set(true);
            return false;
        }
        self.remaining.set(r - 1);
        true
    }

    /// `true` once any query has been degraded to ⊤ by exhaustion.
    pub fn degraded(&self) -> bool {
        self.degraded.get()
    }

    /// Snapshots the budget state (for per-routine save/restore around
    /// cached-summary boundaries, where determinism requires each
    /// routine to see the same starting fuel on every run).
    pub fn save(&self) -> BudgetState {
        BudgetState {
            remaining: self.remaining.get(),
            degraded: self.degraded.get(),
        }
    }

    /// Restores a snapshot taken by [`Budget::save`].
    pub fn restore(&self, state: BudgetState) {
        self.remaining.set(state.remaining);
        self.degraded.set(state.degraded);
    }

    /// Resets to a full budget of `steps` units.
    pub fn reset(&self, steps: u64) {
        self.remaining.set(steps);
        self.degraded.set(false);
    }
}

/// Saved [`Budget`] state from [`Budget::save`].
#[derive(Clone, Copy, Debug)]
pub struct BudgetState {
    remaining: u64,
    degraded: bool,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::new(DEFAULT_BUDGET)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_counts_down_and_flags() {
        let b = Budget::new(2);
        assert!(b.step());
        assert!(b.step());
        assert!(!b.degraded());
        assert!(!b.step());
        assert!(b.degraded());
        assert!(!b.step());
    }
}
