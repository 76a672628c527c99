//! Property tests for the value-range refutation oracle (DESIGN.md
//! §4g): predicate simplification with a range oracle installed must
//! agree with concrete evaluation at every point inside the bounds —
//! no refutation may flip a satisfiable guard — and an exhausted
//! analysis budget must degrade to "no decisions", never to a wrong
//! one.

use pred::{Atom, EvalCtx, Pred};
use proptest::prelude::*;
use sym::{Env, Expr};
use vrange::{eval_sym, Budget, Interval, RangeEnv, ValueRange, DEFAULT_BUDGET};

const VARS: [&str; 3] = ["i", "n", "m"];

/// Per-variable closed bounds plus one concrete point inside them.
#[derive(Clone, Debug)]
struct BoundedEnv {
    bounds: Vec<(i64, i64)>,
    point: Vec<i64>,
}

fn arb_bounded_env() -> impl Strategy<Value = BoundedEnv> {
    // (lo, width, offset): bounds = (lo, lo+width), point = lo + offset
    // clamped into the span — one draw, no flat-mapping needed.
    proptest::collection::vec((-20i64..20, 0i64..12, 0i64..12), VARS.len()).prop_map(|spans| {
        let bounds: Vec<(i64, i64)> = spans.iter().map(|&(lo, w, _)| (lo, lo + w)).collect();
        let point: Vec<i64> = spans.iter().map(|&(lo, w, off)| lo + off.min(w)).collect();
        BoundedEnv { bounds, point }
    })
}

fn arb_affine() -> impl Strategy<Value = Expr> {
    (
        -8i64..8,
        0usize..VARS.len(),
        -3i64..4,
        0usize..VARS.len(),
        -2i64..3,
    )
        .prop_filter_map("overflow", |(c0, v1, c1, v2, c2)| {
            Expr::from(c0)
                .try_add(&Expr::var(VARS[v1]).try_scale(c1)?)?
                .try_add(&Expr::var(VARS[v2]).try_scale(c2)?)
        })
}

fn arb_atom() -> impl Strategy<Value = Atom> {
    (arb_affine(), arb_affine(), 0u8..4).prop_map(|(a, b, k)| match k {
        0 => Atom::lt(a, b).unwrap(),
        1 => Atom::le(a, b).unwrap(),
        2 => Atom::eq(a, b).unwrap(),
        _ => Atom::ne(a, b).unwrap(),
    })
}

/// A CNF recipe: conjunction of disjunctions of atoms. Kept as data so
/// the same predicate can be built with and without the oracle.
fn arb_cnf() -> impl Strategy<Value = Vec<Vec<Atom>>> {
    proptest::collection::vec(proptest::collection::vec(arb_atom(), 1..3), 1..4)
}

fn build(cnf: &[Vec<Atom>]) -> Pred {
    let mut p = Pred::tru();
    for disj in cnf {
        let mut d = Pred::fals();
        for a in disj {
            d = d.or(&Pred::atom(a.clone()));
        }
        p = p.and(&d);
    }
    p
}

/// Installs a range oracle answering from the given per-variable
/// bounds via interval evaluation — the same hook shape `privatize`
/// installs from a loop's `range_bounds`.
fn install_oracle(bounds: &[(i64, i64)], budget_units: u64) -> sym::bounds::OracleGuard {
    let mut env = RangeEnv::new();
    for (k, &(lo, hi)) in bounds.iter().enumerate() {
        env.set(
            VARS[k].to_string(),
            ValueRange::of_interval(Interval::new(Some(lo), Some(hi))),
        );
    }
    let budget = Budget::new(budget_units);
    sym::bounds::OracleGuard::install(Box::new(move |diff: &Expr| {
        let iv = eval_sym(diff, &env, &budget).interval;
        if iv.is_empty() {
            return None;
        }
        let ord = if iv.as_const() == Some(0) {
            sym::SymOrdering::Equal
        } else if iv.hi.is_some_and(|h| h < 0) {
            sym::SymOrdering::Less
        } else if iv.lo.is_some_and(|l| l > 0) {
            sym::SymOrdering::Greater
        } else {
            return None;
        };
        Some((ord, format!("{diff} in {iv}")))
    }))
}

fn concrete(be: &BoundedEnv) -> Env {
    Env::from_pairs(VARS.iter().copied().zip(be.point.iter().copied()))
}

proptest! {
    /// Range-assisted simplification agrees with concrete evaluation:
    /// wherever both the oracle-simplified and the plain predicate
    /// evaluate at a point inside the bounds, they agree — and an
    /// oracle-refuted predicate (`is_false`) is false at EVERY point
    /// inside the bounds. No refutation flips a satisfiable guard.
    #[test]
    fn oracle_simplify_agrees_with_concrete_eval(
        cnf in arb_cnf(),
        be in arb_bounded_env(),
    ) {
        let plain = build(&cnf);
        let assisted = {
            let _guard = install_oracle(&be.bounds, DEFAULT_BUDGET);
            build(&cnf)
        };
        let env = concrete(&be);
        let vp = EvalCtx::scalars(&env).eval_pred(&plain);
        let va = EvalCtx::scalars(&env).eval_pred(&assisted);
        if let (Some(vp), Some(va)) = (vp, va) {
            prop_assert_eq!(va, vp, "oracle changed truth at {:?}: {} vs {}", be.point, assisted, plain);
        }
        if assisted.is_false() {
            prop_assert!(
                vp != Some(true),
                "oracle refuted {} but it holds at {:?} within bounds {:?}",
                plain, be.point, be.bounds
            );
        }
    }

    /// Fuel exhaustion degrades gracefully: with a zero budget every
    /// interval evaluation widens to top, the oracle answers nothing,
    /// no decisions are logged, and the built predicate is identical
    /// to the unassisted one.
    #[test]
    fn exhausted_budget_decides_nothing(
        cnf in arb_cnf(),
        be in arb_bounded_env(),
    ) {
        let plain = build(&cnf);
        let starved = {
            let _guard = install_oracle(&be.bounds, 0);
            let p = build(&cnf);
            prop_assert!(
                sym::bounds::take_decisions().is_empty(),
                "zero-budget oracle logged decisions"
            );
            p
        };
        prop_assert_eq!(
            starved.to_string(),
            plain.to_string(),
            "zero-budget oracle changed simplification"
        );
    }
}
