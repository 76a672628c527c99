//! Property tests for GAR-list algebra: list operations are checked against
//! brute-force element sets under random environments. `may` views must
//! over-approximate, `must` views under-approximate, and exact lists must be
//! exact.

use crate::{expand_gar, Gar, GarList, LoopCtx};
use pred::{Atom, EvalCtx, Pred};
use proptest::prelude::*;
use region::{Range, Region};
use std::collections::BTreeSet;
use sym::{Env, Expr};

fn arb_bound() -> impl Strategy<Value = Expr> {
    (any::<bool>(), -6i64..10).prop_map(|(use_a, c)| {
        if use_a {
            Expr::var("a").try_add(&Expr::from(c)).unwrap()
        } else {
            Expr::from(c)
        }
    })
}

fn arb_guard() -> impl Strategy<Value = Pred> {
    prop_oneof![
        Just(Pred::tru()),
        (arb_bound(), arb_bound()).prop_map(|(x, y)| Pred::le(x, y)),
        (arb_bound(), arb_bound()).prop_map(|(x, y)| Pred::le(x, y).not()),
    ]
}

fn arb_gar() -> impl Strategy<Value = Gar> {
    (arb_guard(), arb_bound(), arb_bound())
        .prop_map(|(g, lo, hi)| Gar::new(g, Region::from_ranges([Range::contiguous(lo, hi)])))
}

fn arb_list() -> impl Strategy<Value = GarList> {
    proptest::collection::vec(arb_gar(), 1..4).prop_map(GarList::from_gars)
}

fn arb_env() -> impl Strategy<Value = Env> {
    (-4i64..8).prop_map(|a| Env::from_pairs([("a", a)]))
}

/// Concrete element set of a list; `None` if any guard is undecidable.
fn concrete(list: &GarList, env: &Env) -> Option<BTreeSet<i64>> {
    let ctx = EvalCtx::scalars(env);
    let mut out = BTreeSet::new();
    for g in list.gars() {
        match ctx.eval_pred(&g.guard) {
            Some(true) => {
                let r = g.region.dims()[0].as_range()?;
                let lo = r.lo.eval(env)?;
                let hi = r.hi.eval(env)?;
                let s = r.step.eval(env)?;
                if s >= 1 {
                    let mut x = lo;
                    while x <= hi {
                        out.insert(x);
                        x += s;
                    }
                }
            }
            Some(false) => {}
            None => return None,
        }
    }
    Some(out)
}

proptest! {
    /// Union is the exact set union for exact lists.
    #[test]
    fn union_exact(a in arb_list(), b in arb_list(), env in arb_env()) {
        let u = a.union(&b);
        if let (Some(sa), Some(sb), Some(su)) =
            (concrete(&a, &env), concrete(&b, &env), concrete(&u, &env))
        {
            let want: BTreeSet<i64> = sa.union(&sb).copied().collect();
            prop_assert_eq!(su, want, "a={} b={} u={} env={:?}", a, b, u, env.get("a"));
        }
    }

    /// Intersection result covers the true intersection (may semantics) and
    /// equals it when the result list is exact.
    #[test]
    fn intersect_sound(a in arb_list(), b in arb_list(), env in arb_env()) {
        let i = a.intersect(&b);
        if let (Some(sa), Some(sb), Some(si)) =
            (concrete(&a, &env), concrete(&b, &env), concrete(&i, &env))
        {
            let want: BTreeSet<i64> = sa.intersection(&sb).copied().collect();
            prop_assert!(si.is_superset(&want),
                "lost elements: a={} b={} i={} env={:?}", a, b, i, env.get("a"));
            if i.is_exact() && a.is_exact() && b.is_exact() {
                prop_assert_eq!(si, want);
            }
        }
    }

    /// Emptiness verdicts are sound: a definitely-empty intersection means
    /// the true sets are disjoint.
    #[test]
    fn empty_intersection_sound(a in arb_list(), b in arb_list(), env in arb_env()) {
        if a.intersect(&b).definitely_empty() {
            if let (Some(sa), Some(sb)) = (concrete(&a, &env), concrete(&b, &env)) {
                prop_assert!(sa.is_disjoint(&sb),
                    "claimed empty but {:?} ∩ {:?} nonempty (a={} b={})", sa, sb, a, b);
            }
        }
    }

    /// Subtraction over-approximates the true difference (sound for UE) and
    /// is exact when exactness is claimed.
    #[test]
    fn subtract_sound(a in arb_list(), b in arb_list(), env in arb_env()) {
        let d = a.subtract(&b);
        if let (Some(sa), Some(sb), Some(sd)) =
            (concrete(&a, &env), concrete(&b, &env), concrete(&d, &env))
        {
            let want: BTreeSet<i64> = sa.difference(&sb).copied().collect();
            prop_assert!(sd.is_superset(&want),
                "UE lost elements: a={} b={} d={} env={:?}", a, b, d, env.get("a"));
            if d.is_exact() && a.is_exact() && b.is_exact() {
                prop_assert_eq!(sd, want, "a={} b={} d={}", a, b, d);
            }
        }
    }

    /// Expansion covers the union over all iterations, exactly when exact.
    #[test]
    fn expansion_sound(
        guard_c in -3i64..5,
        off in -3i64..4,
        lo in -2i64..3,
        span in 0i64..6,
        env in arb_env(),
    ) {
        // per-iteration GAR: [i <= guard_c + a?, A(i + off)]
        let guard = Pred::le(Expr::var("i"), Expr::var("a").try_add(&Expr::from(guard_c)).unwrap());
        let g = Gar::element(guard, [Expr::var("i").try_add(&Expr::from(off)).unwrap()]);
        let ctx = LoopCtx::new("i", Expr::from(lo), Expr::from(lo + span));
        let out = GarList::from_gars(expand_gar(&g, &ctx));

        // brute force
        let ectx = EvalCtx::scalars(&env);
        let mut want = BTreeSet::new();
        for i in lo..=(lo + span) {
            let inst = g.subst_var("i", &Expr::from(i));
            match ectx.eval_pred(&inst.guard) {
                Some(true) => { want.insert(i + off); }
                Some(false) => {}
                None => return Ok(()),
            }
        }
        if let Some(got) = concrete(&out, &env) {
            prop_assert!(got.is_superset(&want),
                "expansion lost elements: got {:?} want {:?} out={}", got, want, out);
            if out.is_exact() {
                prop_assert_eq!(got, want, "out={}", out);
            }
        }
    }

    /// `guarded_by` conjoins semantically.
    #[test]
    fn guarded_by_sound(a in arb_list(), x in arb_bound(), y in arb_bound(), env in arb_env()) {
        let p = Pred::le(x, y);
        let g = a.guarded_by(&p);
        let ectx = EvalCtx::scalars(&env);
        if let (Some(sa), Some(sg), Some(vp)) =
            (concrete(&a, &env), concrete(&g, &env), ectx.eval_pred(&p))
        {
            if vp {
                prop_assert_eq!(sg, sa);
            } else {
                prop_assert!(sg.is_empty());
            }
        }
    }
}

#[cfg(test)]
mod extra {
    use super::*;

    /// The Under/Over machinery composes: an Under piece never appears in
    /// may views after arbitrary unions.
    #[test]
    fn views_partition() {
        let under = Gar::with_approx(
            Pred::atom(Atom::ForallCond {
                deps: vec![],
                template: pred::CondTemplate::new("t"),
                lo: Expr::from(1),
                hi: Expr::from(9),
                positive: false,
            }),
            Region::from_ranges([Range::contiguous(Expr::from(1), Expr::from(9))]),
            crate::Approx::Under,
        );
        let exact = Gar::new(
            Pred::tru(),
            Region::from_ranges([Range::contiguous(Expr::from(20), Expr::from(30))]),
        );
        let list = GarList::from_gars([under, exact]);
        assert_eq!(list.may_view().count(), 1);
        assert_eq!(list.must_view().count(), 2);
    }
}
