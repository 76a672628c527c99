//! Property tests: every predicate operation must be *sound* — the result's
//! truth value under any concrete environment must match the logical
//! operation on the operands, with `None` (unknown) always permitted.

use crate::{Atom, EvalCtx, Pred};
use proptest::prelude::*;
use sym::{Env, Expr};

const VARS: [&str; 4] = ["i", "j", "n", "m"];

fn arb_affine() -> impl Strategy<Value = Expr> {
    // c0 + c1 * v1 (+ c2 * v2): realistic guard expressions.
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

fn arb_pred() -> impl Strategy<Value = Pred> {
    let atom_pred = arb_atom().prop_map(Pred::atom);
    atom_pred.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(p, q)| p.and(&q)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| p.or(&q)),
            inner.prop_map(|p| p.not()),
        ]
    })
}

fn arb_env() -> impl Strategy<Value = Env> {
    proptest::collection::vec(-10i64..10, VARS.len())
        .prop_map(|vals| Env::from_pairs(VARS.iter().copied().zip(vals)))
}

fn ev(p: &Pred, env: &Env) -> Option<bool> {
    EvalCtx::scalars(env).eval_pred(p)
}

proptest! {
    /// `and` is sound: if both operands evaluate, the result evaluates
    /// consistently (or is unknown).
    #[test]
    fn and_sound(p in arb_pred(), q in arb_pred(), env in arb_env()) {
        if let (Some(vp), Some(vq)) = (ev(&p, &env), ev(&q, &env)) {
            if let Some(vr) = ev(&p.and(&q), &env) {
                prop_assert_eq!(vr, vp && vq);
            } else {
                // unknown results may only occur when the truth is `true`
                // being weakened — but False must stay detectable:
                prop_assert!(vp && vq, "and() lost a definite false");
            }
        }
    }

    #[test]
    fn or_sound(p in arb_pred(), q in arb_pred(), env in arb_env()) {
        if let (Some(vp), Some(vq)) = (ev(&p, &env), ev(&q, &env)) {
            if let Some(vr) = ev(&p.or(&q), &env) {
                prop_assert_eq!(vr, vp || vq);
            } else {
                prop_assert!(vp || vq, "or() lost a definite false");
            }
        }
    }

    #[test]
    fn not_sound(p in arb_pred(), env in arb_env()) {
        if let Some(vp) = ev(&p, &env) {
            if let Some(vn) = ev(&p.not(), &env) {
                prop_assert_eq!(vn, !vp);
            }
        }
    }

    /// Exclusion: p ∧ ¬p must always be provably or evaluably false.
    #[test]
    fn excluded_middle_and(p in arb_pred(), env in arb_env()) {
        let contradiction = p.and(&p.not());
        if let Some(v) = ev(&contradiction, &env) {
            prop_assert!(!v);
        }
    }

    /// `is_false` is sound: a provably-false predicate never evaluates true.
    #[test]
    fn false_verdict_sound(p in arb_pred(), q in arb_pred(), env in arb_env()) {
        let r = p.and(&q);
        if r.is_false() {
            if let (Some(vp), Some(vq)) = (ev(&p, &env), ev(&q, &env)) {
                prop_assert!(!(vp && vq), "simplifier claimed False but {} and {} both hold under {:?}", p, q, env);
            }
        }
    }

    /// `implies` is sound: a proven implication holds in every environment.
    #[test]
    fn implies_sound(p in arb_pred(), q in arb_pred(), env in arb_env()) {
        if p.implies(&q) {
            if let (Some(vp), Some(vq)) = (ev(&p, &env), ev(&q, &env)) {
                prop_assert!(!vp || vq, "claimed {} => {} but falsified under {:?}", p, q, env);
            }
        }
    }

    /// Substitution commutes with evaluation for exact predicates.
    #[test]
    fn subst_sound(p in arb_pred(), c in -10i64..10, env in arb_env()) {
        let sub = p.subst_var("i", &Expr::from(c));
        let mut env2 = env.clone();
        env2.set("i", c);
        if let (Some(v1), Some(v2)) = (ev(&p, &env2), ev(&sub, &env2)) {
            prop_assert_eq!(v1, v2);
        }
    }

    /// Exactness bookkeeping: and/or of exact predicates that stay within
    /// caps remain exact or become False.
    #[test]
    fn exactness_preserved_by_and(p in arb_pred(), q in arb_pred()) {
        if p.is_exact() && q.is_exact() {
            prop_assert!(p.and(&q).is_exact());
        }
    }
}
