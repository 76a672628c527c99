//! Property tests: guarded range/region operations are checked against
//! brute-force set enumeration. Bounds are affine in one symbolic variable
//! `a`, and guards are evaluated under random bindings of `a`, so the
//! min/max case-splitting machinery itself is exercised, not just the
//! constant fast paths.

use crate::{range_intersect, range_subtract, range_union_merge, Range};
use crate::{region_intersect, region_subtract, Region};
use pred::{EvalCtx, Pred};
use proptest::prelude::*;
use std::collections::BTreeSet;
use sym::{Env, Expr};

/// An affine bound: `c` or `a + c`.
fn arb_bound() -> impl Strategy<Value = Expr> {
    (any::<bool>(), -8i64..12).prop_map(|(use_a, c)| {
        if use_a {
            Expr::var("a").try_add(&Expr::from(c)).unwrap()
        } else {
            Expr::from(c)
        }
    })
}

fn arb_range() -> impl Strategy<Value = Range> {
    (
        arb_bound(),
        arb_bound(),
        prop_oneof![Just(1i64), Just(2i64)],
    )
        .prop_map(|(lo, hi, s)| Range::new(lo, hi, Expr::from(s)))
}

fn arb_env() -> impl Strategy<Value = Env> {
    (-5i64..6).prop_map(|a| Env::from_pairs([("a", a)]))
}

/// Concrete element set of a range under an environment.
fn elems(r: &Range, env: &Env) -> BTreeSet<i64> {
    let lo = r.lo.eval(env).unwrap();
    let hi = r.hi.eval(env).unwrap();
    let s = r.step.eval(env).unwrap();
    let mut out = BTreeSet::new();
    if s >= 1 {
        let mut x = lo;
        while x <= hi {
            out.insert(x);
            x += s;
        }
    }
    out
}

/// Union of the pieces whose guards hold; `None` if a guard is undecidable.
fn guarded_elems(cases: &[(Pred, Range)], env: &Env) -> Option<BTreeSet<i64>> {
    let ctx = EvalCtx::scalars(env);
    let mut out = BTreeSet::new();
    for (p, r) in cases {
        match ctx.eval_pred(p) {
            Some(true) => out.extend(elems(r, env)),
            Some(false) => {}
            None => return None,
        }
    }
    Some(out)
}

proptest! {
    /// Intersection cases reproduce exact set intersection.
    #[test]
    fn intersect_matches_sets(r1 in arb_range(), r2 in arb_range(), env in arb_env()) {
        if let Some(cases) = range_intersect(&Pred::tru(), &r1, &r2) {
            if let Some(got) = guarded_elems(&cases, &env) {
                let want: BTreeSet<i64> =
                    elems(&r1, &env).intersection(&elems(&r2, &env)).copied().collect();
                prop_assert_eq!(got, want, "r1={} r2={} env a={:?}", r1, r2, env.get("a"));
            }
        }
    }

    /// Subtraction cases reproduce exact set difference (valid operands).
    #[test]
    fn subtract_matches_sets(r1 in arb_range(), r2 in arb_range(), env in arb_env()) {
        // The subtraction formulas assume r1 is valid (guards of the
        // enclosing GAR carry that), so filter empty r1.
        prop_assume!(!elems(&r1, &env).is_empty());
        if let Some(cases) = range_subtract(&Pred::tru(), &r1, &r2) {
            if let Some(got) = guarded_elems(&cases, &env) {
                let want: BTreeSet<i64> =
                    elems(&r1, &env).difference(&elems(&r2, &env)).copied().collect();
                prop_assert_eq!(got, want, "r1={} r2={} env a={:?}", r1, r2, env.get("a"));
            }
        }
    }

    /// A successful union merge reproduces exact set union (valid operands).
    #[test]
    fn union_merge_matches_sets(r1 in arb_range(), r2 in arb_range(), env in arb_env()) {
        prop_assume!(!elems(&r1, &env).is_empty());
        prop_assume!(!elems(&r2, &env).is_empty());
        // Validity facts are available to the merge as context, as they
        // would be from the enclosing GAR guards.
        let ctx = r1.validity().and(&r2.validity());
        if let Some(cases) = range_union_merge(&ctx, &r1, &r2) {
            if let Some(got) = guarded_elems(&cases, &env) {
                let want: BTreeSet<i64> =
                    elems(&r1, &env).union(&elems(&r2, &env)).copied().collect();
                prop_assert_eq!(got, want, "r1={} r2={} env a={:?}", r1, r2, env.get("a"));
            }
        }
    }

    /// 2-D region intersection against brute force.
    #[test]
    fn region_intersect_matches(
        a1 in arb_range(), a2 in arb_range(),
        b1 in arb_range(), b2 in arb_range(),
        env in arb_env(),
    ) {
        let r1 = Region::from_ranges([a1.clone(), a2.clone()]);
        let r2 = Region::from_ranges([b1.clone(), b2.clone()]);
        let cases = region_intersect(&Pred::tru(), &r1, &r2);
        // Only check when all pieces are exact and guards decide.
        if cases.iter().any(|(_, r)| !r.is_exact()) {
            return Ok(());
        }
        let ctx = EvalCtx::scalars(&env);
        let mut got: BTreeSet<(i64, i64)> = BTreeSet::new();
        for (p, r) in &cases {
            match ctx.eval_pred(p) {
                Some(true) => {
                    let d0 = elems(r.dims()[0].as_range().unwrap(), &env);
                    let d1 = elems(r.dims()[1].as_range().unwrap(), &env);
                    for &x in &d0 {
                        for &y in &d1 {
                            got.insert((x, y));
                        }
                    }
                }
                Some(false) => {}
                None => return Ok(()),
            }
        }
        let mut want = BTreeSet::new();
        let (e_a1, e_a2) = (elems(&a1, &env), elems(&a2, &env));
        let (e_b1, e_b2) = (elems(&b1, &env), elems(&b2, &env));
        for x in e_a1.intersection(&e_b1) {
            for y in e_a2.intersection(&e_b2) {
                want.insert((*x, *y));
            }
        }
        prop_assert_eq!(got, want);
    }

    /// 2-D region subtraction against brute force (valid operands).
    #[test]
    fn region_subtract_matches(
        a1 in arb_range(), a2 in arb_range(),
        b1 in arb_range(), b2 in arb_range(),
        env in arb_env(),
    ) {
        prop_assume!(!elems(&a1, &env).is_empty() && !elems(&a2, &env).is_empty());
        let r1 = Region::from_ranges([a1.clone(), a2.clone()]);
        let r2 = Region::from_ranges([b1.clone(), b2.clone()]);
        let Some(cases) = region_subtract(&Pred::tru(), &r1, &r2) else { return Ok(()); };
        if cases.iter().any(|(_, r)| !r.is_exact()) {
            return Ok(());
        }
        let ctx = EvalCtx::scalars(&env);
        let mut got: BTreeSet<(i64, i64)> = BTreeSet::new();
        for (p, r) in &cases {
            match ctx.eval_pred(p) {
                Some(true) => {
                    let d0 = elems(r.dims()[0].as_range().unwrap(), &env);
                    let d1 = elems(r.dims()[1].as_range().unwrap(), &env);
                    for &x in &d0 {
                        for &y in &d1 {
                            got.insert((x, y));
                        }
                    }
                }
                Some(false) => {}
                None => return Ok(()),
            }
        }
        let mut want = BTreeSet::new();
        let (e_a1, e_a2) = (elems(&a1, &env), elems(&a2, &env));
        let (e_b1, e_b2) = (elems(&b1, &env), elems(&b2, &env));
        for &x in &e_a1 {
            for &y in &e_a2 {
                if !(e_b1.contains(&x) && e_b2.contains(&y)) {
                    want.insert((x, y));
                }
            }
        }
        prop_assert_eq!(got, want, "r1={} r2={} a={:?}", r1, r2, env.get("a"));
    }
}
