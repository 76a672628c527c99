//! Property-based tests: algebraic laws of `Expr` checked against direct
//! integer evaluation under random environments.

use crate::bounds::{take_decisions, OracleGuard};
use crate::{
    compare, diff_const, parse_expr, sum_const, Env, Expr, Monomial, Name, SymOrdering, Term,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

const VARS: [&str; 4] = ["i", "j", "n", "m"];

/// A strategy producing small random expressions over a fixed variable set.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(Expr::from),
        (0usize..VARS.len()).prop_map(|k| Expr::var(VARS[k])),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_filter_map("add overflow", |(a, b)| a.try_add(&b)),
            (inner.clone(), inner.clone()).prop_filter_map("sub overflow", |(a, b)| a.try_sub(&b)),
            (inner.clone(), inner.clone()).prop_filter_map("mul overflow", |(a, b)| a.try_mul(&b)),
            inner.prop_filter_map("neg overflow", |a| a.try_negate()),
        ]
    })
}

/// Coefficients at and next to the `i64` extremes, where checked
/// arithmetic overflows.
const EXTREMES: [i64; 4] = [i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX];

/// Small coefficients three times in four, an extreme one otherwise.
fn arb_coef() -> impl Strategy<Value = i64> {
    prop_oneof![
        -3i64..4,
        -20i64..20,
        -3i64..4,
        (0usize..EXTREMES.len()).prop_map(|k| EXTREMES[k]),
    ]
}

/// `1`, a variable, a product of two variables or a square.
fn arb_mono() -> impl Strategy<Value = Monomial> {
    (0usize..6).prop_map(|k| match k {
        0 => Monomial::one(),
        1..=3 => Monomial::var(VARS[k - 1]),
        4 => Monomial::from_factors([(Name::new("i"), 1), (Name::new("j"), 1)]),
        _ => Monomial::from_factors([(Name::new("n"), 2)]),
    })
}

fn arb_terms(max: usize) -> impl Strategy<Value = Vec<Term>> {
    proptest::collection::vec(
        (arb_coef(), arb_mono()).prop_map(|(c, m)| Term::new(c, m)),
        0..max,
    )
}

/// Two canonical expressions that share their main terms (as `b = a + x`
/// or `b = -a + x` with a small extra `x`) two times in three, so their
/// differences and sums are often constant.
fn arb_pair() -> impl Strategy<Value = (Expr, Expr)> {
    (arb_terms(4), arb_terms(2), arb_terms(2), 0u8..3).prop_filter_map(
        "coefficient overflow",
        |(shared, xa, xb, mode)| {
            let mirrored: Vec<Term> = match mode {
                0 => shared.clone(),
                1 => shared
                    .iter()
                    .map(|t| Some(Term::new(t.coef.checked_neg()?, t.mono.clone())))
                    .collect::<Option<_>>()?,
                _ => Vec::new(),
            };
            let a = Expr::try_from_terms(shared.into_iter().chain(xa))?;
            let b = Expr::try_from_terms(mirrored.into_iter().chain(xb))?;
            Some((a, b))
        },
    )
}

/// The definition [`compare`] had before it walked the difference: build
/// `a - b`, read a constant off it, else hand it to the oracle.
fn reference_compare(a: &Expr, b: &Expr) -> SymOrdering {
    let Some(d) = a.try_sub(b) else {
        return SymOrdering::Unknown;
    };
    match d.as_const() {
        Some(c) if c < 0 => SymOrdering::Less,
        Some(0) => SymOrdering::Equal,
        Some(_) => SymOrdering::Greater,
        None => crate::bounds::consult(a, b, &d),
    }
}

fn arb_env() -> impl Strategy<Value = Env> {
    proptest::collection::vec(-50i64..50, VARS.len())
        .prop_map(|vals| Env::from_pairs(VARS.iter().copied().zip(vals)))
}

proptest! {
    #[test]
    fn add_commutes(a in arb_expr(), b in arb_expr()) {
        prop_assume!(a.try_add(&b).is_some());
        prop_assert_eq!(a.try_add(&b), b.try_add(&a));
    }

    #[test]
    fn mul_commutes(a in arb_expr(), b in arb_expr()) {
        prop_assume!(a.try_mul(&b).is_some());
        prop_assert_eq!(a.try_mul(&b), b.try_mul(&a));
    }

    #[test]
    fn add_assoc(a in arb_expr(), b in arb_expr(), c in arb_expr()) {
        let l = a.try_add(&b).and_then(|x| x.try_add(&c));
        let r = b.try_add(&c).and_then(|x| a.try_add(&x));
        prop_assume!(l.is_some() && r.is_some());
        prop_assert_eq!(l, r);
    }

    #[test]
    fn mul_distributes_over_add(a in arb_expr(), b in arb_expr(), c in arb_expr()) {
        let l = b.try_add(&c).and_then(|s| a.try_mul(&s));
        let r = a.try_mul(&b).and_then(|ab| a.try_mul(&c).and_then(|ac| ab.try_add(&ac)));
        prop_assume!(l.is_some() && r.is_some());
        prop_assert_eq!(l, r);
    }

    #[test]
    fn sub_self_is_zero(a in arb_expr()) {
        prop_assert!(a.try_sub(&a).unwrap().is_zero());
    }

    /// Normalization is sound: the canonical form evaluates like the
    /// unnormalized arithmetic under every environment.
    #[test]
    fn eval_homomorphism(a in arb_expr(), b in arb_expr(), env in arb_env()) {
        if let (Some(sum), Some(va), Some(vb)) = (a.try_add(&b), a.eval(&env), b.eval(&env)) {
            if let (Some(vs), Some(expect)) = (sum.eval(&env), va.checked_add(vb)) {
                prop_assert_eq!(vs, expect);
            }
        }
        if let (Some(prod), Some(va), Some(vb)) = (a.try_mul(&b), a.eval(&env), b.eval(&env)) {
            if let (Some(vp), Some(expect)) = (prod.eval(&env), va.checked_mul(vb)) {
                prop_assert_eq!(vp, expect);
            }
        }
    }

    /// Substitution agrees with evaluation: eval(e[v := r]) == eval(e) when
    /// env(v) == eval(r).
    #[test]
    fn subst_agrees_with_eval(e in arb_expr(), r in arb_expr(), mut env in arb_env()) {
        // If r mentions i, rebinding i below would change r's own value.
        prop_assume!(!r.contains_var("i"));
        if let Some(rv) = r.eval(&env) {
            if let Some(substituted) = e.try_subst_var("i", &r) {
                env.set("i", rv);
                let direct = e.eval(&env);
                let via_subst = substituted.eval(&env);
                if let (Some(d), Some(s)) = (direct, via_subst) {
                    prop_assert_eq!(d, s);
                }
            }
        }
    }

    /// A definite comparison verdict holds under every environment.
    #[test]
    fn compare_sound(a in arb_expr(), b in arb_expr(), env in arb_env()) {
        if let (Some(va), Some(vb)) = (a.eval(&env), b.eval(&env)) {
            match compare(&a, &b) {
                SymOrdering::Less => prop_assert!(va < vb),
                SymOrdering::Equal => prop_assert_eq!(va, vb),
                SymOrdering::Greater => prop_assert!(va > vb),
                SymOrdering::Unknown => {}
            }
        }
    }

    /// Display → parse round-trips to the same canonical expression.
    #[test]
    fn display_parse_roundtrip(a in arb_expr()) {
        let printed = a.to_string();
        let reparsed = parse_expr(&printed).unwrap();
        prop_assert_eq!(reparsed, a);
    }

    /// `div_exact` inverts `try_scale`.
    #[test]
    fn div_inverts_scale(a in arb_expr(), c in 1i64..20) {
        if let Some(scaled) = a.try_scale(c) {
            prop_assert_eq!(scaled.div_exact(c), Some(a));
        }
    }

    /// The walked difference and sum answer exactly what the built ones
    /// do, overflow included.
    #[test]
    fn walked_difference_matches_built((a, b) in arb_pair()) {
        prop_assert_eq!(diff_const(&a, &b), a.try_sub(&b).and_then(|d| d.as_const()));
        prop_assert_eq!(diff_const(&b, &a), b.try_sub(&a).and_then(|d| d.as_const()));
        prop_assert_eq!(sum_const(&a, &b), a.try_add(&b).and_then(|s| s.as_const()));
        prop_assert_eq!(compare(&a, &b), reference_compare(&a, &b));
        prop_assert_eq!(compare(&a, &Expr::zero()), reference_compare(&a, &Expr::zero()));
    }

    /// With an oracle installed, both definitions consult it with equal
    /// differences in equal order and log the same decisions.
    #[test]
    fn walked_compare_consults_the_oracle_alike((a, b) in arb_pair(), (c, d) in arb_pair()) {
        let seen: Rc<RefCell<Vec<Expr>>> = Rc::default();
        let log = Rc::clone(&seen);
        let _guard = OracleGuard::install(Box::new(move |diff: &Expr| {
            log.borrow_mut().push(diff.clone());
            let ord = match diff.terms().first().map(|t| t.coef.rem_euclid(3)) {
                Some(0) => SymOrdering::Less,
                Some(1) => SymOrdering::Greater,
                _ => return None,
            };
            Some((ord, diff.to_string()))
        }));
        let pairs = [(&a, &b), (&b, &a), (&c, &d), (&a, &c), (&d, &Expr::zero())];
        let walked: Vec<SymOrdering> = pairs.iter().map(|(x, y)| compare(x, y)).collect();
        let walked_seen = std::mem::take(&mut *seen.borrow_mut());
        let walked_log = take_decisions();
        let built: Vec<SymOrdering> = pairs.iter().map(|(x, y)| reference_compare(x, y)).collect();
        prop_assert_eq!(walked, built);
        prop_assert_eq!(walked_seen, std::mem::take(&mut *seen.borrow_mut()));
        prop_assert_eq!(walked_log, take_decisions());
    }
}
