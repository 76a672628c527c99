//! Loop fixed points with threshold widening and one narrowing pass.

use crate::{eval_sym, Budget, Interval, RangeEnv, ValueRange};
use sym::Expr;

/// The widening ladder (DESIGN.md §4g): a moving bound jumps outward to
/// the nearest enclosing threshold, and past the last one to ±∞, so a
/// loop stabilizes in at most one pass per rung instead of one pass per
/// integer.
pub const WIDENING_THRESHOLDS: [i64; 11] =
    [-65536, -4096, -256, -16, -1, 0, 1, 16, 256, 4096, 65536];

/// One scalar assignment inside a loop body, in symbolic form. `rhs` is
/// `None` when the right-hand side is opaque (not representable as a
/// polynomial over scalars) — the target then degrades to ⊤.
#[derive(Clone, Debug)]
pub struct ScalarAssign {
    /// The assigned scalar.
    pub var: String,
    /// Its symbolic right-hand side, if representable.
    pub rhs: Option<Expr>,
}

/// Number of pre-widening iterations: small constant loops converge
/// exactly, everything else widens on the next pass.
const DESCEND_ITERS: usize = 2;

/// Computes ranges that hold for the loop-carried values of the scalars
/// assigned in a loop body, by iterating the body's assignments from
/// `entry` to a post-fixed point: [`DESCEND_ITERS`] plain iterations,
/// then threshold widening until stable, then one narrowing pass.
///
/// `index` is the loop variable with its trip range (bound while the
/// body runs). The result binds exactly the assigned scalars; callers
/// use it to seed the clobber synthetics the analyzer allocates for
/// them.
pub fn loop_fixpoint(
    entry: &RangeEnv,
    index: Option<(&str, Interval)>,
    assigns: &[ScalarAssign],
    budget: &Budget,
) -> RangeEnv {
    let mut cur = entry.clone();
    if let Some((var, iv)) = index {
        cur.set(var, ValueRange::of_interval(iv));
    }
    let step = |env: &RangeEnv| -> RangeEnv {
        let mut next = env.clone();
        for a in assigns {
            if !budget.step() {
                next.set(a.var.clone(), ValueRange::TOP);
                continue;
            }
            let v = match &a.rhs {
                Some(e) => eval_sym(e, &next, budget),
                None => ValueRange::TOP,
            };
            // The assignment list is flow-insensitive (branch structure
            // is flattened), so an assignment may not execute on a given
            // path: join with the prior value instead of overwriting.
            let prev = next.get(&a.var);
            next.set(a.var.clone(), v.join(&prev));
        }
        next
    };
    // Plain descent: join each iterate into the accumulator.
    for _ in 0..DESCEND_ITERS {
        let next = step(&cur);
        let joined = join_assigned(&cur, &next, assigns);
        if joined == cur {
            break;
        }
        cur = joined;
    }
    // Widen until stable (the threshold ladder bounds the pass count).
    loop {
        let next = step(&cur);
        let widened = widen_assigned(&cur, &join_assigned(&cur, &next, assigns), assigns);
        if widened == cur || !budget.step() {
            break;
        }
        cur = widened;
    }
    // One narrowing pass recovers precision widening overshot.
    let narrowed = step(&cur);
    let mut out = RangeEnv::new();
    for a in assigns {
        let w = cur.get(&a.var);
        let n = narrowed.get(&a.var);
        // Narrowing may only shrink; keep the widened answer otherwise.
        let r = if w.interval.contains_interval(&n.interval) {
            w.meet(&n)
        } else {
            w
        };
        out.set(a.var.clone(), r.join(&entry.get(&a.var)));
    }
    out
}

fn join_assigned(a: &RangeEnv, b: &RangeEnv, assigns: &[ScalarAssign]) -> RangeEnv {
    let mut out = a.clone();
    for s in assigns {
        out.set(s.var.clone(), a.get(&s.var).join(&b.get(&s.var)));
    }
    out
}

fn widen_assigned(a: &RangeEnv, b: &RangeEnv, assigns: &[ScalarAssign]) -> RangeEnv {
    let mut out = a.clone();
    for s in assigns {
        out.set(s.var.clone(), a.get(&s.var).widen(&b.get(&s.var)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: i64, hi: i64) -> ValueRange {
        ValueRange::of_interval(Interval::new(Some(lo), Some(hi)))
    }

    #[test]
    fn constant_reassignment_converges_exactly() {
        // m = 150 in the body: the loop-carried range is the join with
        // the entry value.
        let mut entry = RangeEnv::new();
        entry.set("m", iv(100, 100));
        let assigns = [ScalarAssign {
            var: "m".into(),
            rhs: Some(Expr::from(150)),
        }];
        let out = loop_fixpoint(&entry, None, &assigns, &Budget::default());
        assert_eq!(out.get("m").interval, Interval::new(Some(100), Some(150)));
    }

    #[test]
    fn counter_widens_to_threshold_not_forever() {
        // k = k + 1 from [0,0]: widening must terminate with a finite
        // number of passes and an upper bound of +inf.
        let mut entry = RangeEnv::new();
        entry.set("k", iv(0, 0));
        let assigns = [ScalarAssign {
            var: "k".into(),
            rhs: Some(sym::parse_expr("k + 1").unwrap()),
        }];
        let out = loop_fixpoint(&entry, None, &assigns, &Budget::default());
        let k = out.get("k").interval;
        assert_eq!(k.lo, Some(0), "lower bound is stable");
        assert!(k.hi.is_none(), "upper bound widened to +inf, got {k}");
    }

    #[test]
    fn index_bound_flows_into_assigned_scalar() {
        let entry = RangeEnv::new();
        let assigns = [ScalarAssign {
            var: "j".into(),
            rhs: Some(sym::parse_expr("i + 1").unwrap()),
        }];
        let out = loop_fixpoint(
            &entry,
            Some(("i", Interval::new(Some(1), Some(10)))),
            &assigns,
            &Budget::default(),
        );
        // j = i + 1 with i ∈ [1,10]: j ∈ [2,11] joined with ⊤ entry = ⊤?
        // No: entry.get("j") is ⊤ — the join degrades to ⊤. The caller
        // is expected to pass the entry env only for scalars live into
        // the loop; here j's entry value is unknown so ⊤ is the sound
        // answer for the loop-carried join... unless the loop always
        // executes, which this helper does not assume.
        assert!(out.get("j").is_top());
    }

    #[test]
    fn opaque_rhs_degrades_to_top() {
        let mut entry = RangeEnv::new();
        entry.set("m", iv(1, 2));
        let assigns = [ScalarAssign {
            var: "m".into(),
            rhs: None,
        }];
        let out = loop_fixpoint(&entry, None, &assigns, &Budget::default());
        assert!(out.get("m").is_top());
    }

    #[test]
    fn zero_budget_is_all_top_not_panic() {
        let mut entry = RangeEnv::new();
        entry.set("m", iv(0, 5));
        let assigns = [ScalarAssign {
            var: "m".into(),
            rhs: Some(Expr::from(1)),
        }];
        let b = Budget::new(0);
        let out = loop_fixpoint(&entry, None, &assigns, &b);
        assert!(out.get("m").is_top());
        assert!(b.degraded());
    }
}
