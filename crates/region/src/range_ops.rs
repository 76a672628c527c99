//! Guarded set operations on ranges.
//!
//! Operations take a *context predicate* — typically the conjunction of the
//! operand GARs' guards — so that comparisons which are not decidable from
//! the expressions alone (`min(1, a+1)`) can be settled from facts the
//! guards already carry (`1 <= a`), the way the paper's Fig. 5 derivation
//! uses `jlow <= jmax <= jup`.
//!
//! Every operation returns a list of `(Pred, Range)` cases: the piece
//! `Range` is part of the result exactly when its `Pred` holds (in
//! conjunction with the operands' own guards, which the caller re-attaches).
//! Produced guards include the validity `lo <= hi` of the produced range.
//! `None` means the operation could not be represented (the caller marks the
//! dimension Ω / keeps the operands separate).

use crate::range::Range;
use pred::Pred;
use sym::{compare, Expr, SymOrdering};

/// A guarded value: the value holds under the predicate.
pub type Guarded<T> = (Pred, T);

/// Proves `a <= b` from normalization or from the context.
pub fn prove_le(ctx: &Pred, a: &Expr, b: &Expr) -> bool {
    compare(a, b).is_le() || ctx.implies(&Pred::le(a.clone(), b.clone()))
}

/// Proves `a < b`.
pub fn prove_lt(ctx: &Pred, a: &Expr, b: &Expr) -> bool {
    compare(a, b) == SymOrdering::Less || ctx.implies(&Pred::lt(a.clone(), b.clone()))
}

/// Proves `a == b`.
pub fn prove_eq(ctx: &Pred, a: &Expr, b: &Expr) -> bool {
    compare(a, b) == SymOrdering::Equal || ctx.implies(&Pred::eq(a.clone(), b.clone()))
}

/// Case analysis for `min`/`max` elimination: which of `a`, `b` is smaller,
/// decided from normalization or context, else `Unknown` (case split).
fn order_under(ctx: &Pred, a: &Expr, b: &Expr) -> SymOrdering {
    match compare(a, b) {
        SymOrdering::Unknown => {
            if prove_le(ctx, a, b) {
                // a <= b suffices to pick min/max deterministically.
                SymOrdering::Less
            } else if prove_le(ctx, b, a) {
                SymOrdering::Greater
            } else {
                SymOrdering::Unknown
            }
        }
        known => known,
    }
}

/// The `min`-elimination cases: pairs of (condition, chosen expression).
/// One case when the order is provable, two guarded cases otherwise.
/// Public because loop expansion (the `gar` crate) eliminates the
/// `max(l', l) <= i <= min(u', u)` bounds of §4.1 the same way.
pub fn min_cases(ctx: &Pred, a: &Expr, b: &Expr) -> Vec<Guarded<Expr>> {
    match order_under(ctx, a, b) {
        SymOrdering::Less | SymOrdering::Equal => vec![(Pred::tru(), a.clone())],
        SymOrdering::Greater => vec![(Pred::tru(), b.clone())],
        SymOrdering::Unknown => vec![
            (Pred::le(a.clone(), b.clone()), a.clone()),
            (Pred::lt(b.clone(), a.clone()), b.clone()),
        ],
    }
}

/// The `max`-elimination cases. See [`min_cases`].
pub fn max_cases(ctx: &Pred, a: &Expr, b: &Expr) -> Vec<Guarded<Expr>> {
    match order_under(ctx, a, b) {
        SymOrdering::Less | SymOrdering::Equal => vec![(Pred::tru(), b.clone())],
        SymOrdering::Greater => vec![(Pred::tru(), a.clone())],
        SymOrdering::Unknown => vec![
            (Pred::le(a.clone(), b.clone()), b.clone()),
            (Pred::lt(b.clone(), a.clone()), a.clone()),
        ],
    }
}

/// Alignment of two const-step ranges: `Some(true)` if `l1 ≡ l2 (mod c)`,
/// `Some(false)` if provably misaligned, `None` if undecidable.
fn aligned(l1: &Expr, l2: &Expr, c: i64) -> Option<bool> {
    sym::diff_const(l1, l2).map(|d| d.rem_euclid(c) == 0)
}

/// Intersection `r1 ∩ r2` (§3 four-case formula; §5.1 step cases).
///
/// `None` means the result is not representable (mark Ω). An empty list
/// means provably empty.
pub fn range_intersect(ctx: &Pred, r1: &Range, r2: &Range) -> Option<Vec<Guarded<Range>>> {
    if r1 == r2 {
        return Some(vec![(Pred::tru(), r1.clone())]);
    }
    // A singleton meets any grid iff it lies within the bounds and on the
    // grid — decidable regardless of step mismatches (this is what proves
    // `a(i)` independent of `a(1 : i−2 : 2)` in strided loops).
    if r1.is_singleton() || r2.is_singleton() {
        let (single, other) = if r1.is_singleton() {
            (r1, r2)
        } else {
            (r2, r1)
        };
        let x = single.lo.clone();
        let mut guard =
            Pred::le(other.lo.clone(), x.clone()).and(&Pred::le(x.clone(), other.hi.clone()));
        match (other.const_step(), sym::diff_const(&x, &other.lo)) {
            (Some(1), _) => {}
            (Some(s), Some(d)) if s > 1 => {
                if d.rem_euclid(s) != 0 {
                    return Some(Vec::new()); // off the grid
                }
            }
            _ => {
                // Grid membership undecidable: keep the bounds condition
                // but mark the piece inexact.
                guard = guard.and(&Pred::unknown());
            }
        }
        if guard.is_false() {
            return Some(Vec::new());
        }
        return Some(vec![(guard, Range::unit(x))]);
    }
    let s1 = r1.const_step();
    let s2 = r2.const_step();
    let step = match (s1, s2) {
        // §5.1 case 1: both steps 1.
        (Some(1), Some(1)) => Expr::one(),
        // §5.1 case 2: equal constant step c > 1 — intersect only when the
        // grids align.
        (Some(a), Some(b)) if a == b && a > 1 => match aligned(&r1.lo, &r2.lo, a) {
            Some(true) => Expr::from(a),
            Some(false) => return Some(Vec::new()), // provably disjoint grids
            None => return None,
        },
        // §5.1 case 3: identical symbolic steps with identical lower bounds.
        _ if r1.step == r2.step && r1.lo == r2.lo => r1.step.clone(),
        // §5.1 case 4: s2 divides s1 — only the covering case is exact.
        (Some(a), Some(b)) if b >= 1 && a >= 1 && a % b == 0 && covers(ctx, r2, r1, b) => {
            return Some(vec![(Pred::tru(), r1.clone())]);
        }
        (Some(a), Some(b)) if a >= 1 && b >= 1 && b % a == 0 && covers(ctx, r1, r2, a) => {
            return Some(vec![(Pred::tru(), r2.clone())]);
        }
        // §5.1 case 5: anything else is unknown.
        _ => return None,
    };

    let mut out = Vec::new();
    for (pl, lo) in max_cases(ctx, &r1.lo, &r2.lo) {
        for (pu, hi) in min_cases(ctx, &r1.hi, &r2.hi) {
            let piece = Range::new(lo.clone(), hi.clone(), step.clone());
            if piece.definitely_empty() {
                continue;
            }
            let guard = pl.and(&pu).and(&piece.validity());
            if guard.is_false() {
                continue;
            }
            out.push((guard, piece));
        }
    }
    Some(out)
}

/// Does `outer` provably cover `inner` (same grid, enclosing bounds)?
/// `grid` is the coarser (inner) step; both steps must be constant.
fn covers(ctx: &Pred, outer: &Range, inner: &Range, _grid: i64) -> bool {
    let (Some(so), Some(_si)) = (outer.const_step(), inner.const_step()) else {
        return false;
    };
    prove_le(ctx, &outer.lo, &inner.lo)
        && prove_le(ctx, &inner.hi, &outer.hi)
        && aligned(&inner.lo, &outer.lo, so) == Some(true)
}

/// Difference `r1 − r2`.
///
/// Returns the guarded pieces of `r1` that survive. The enumeration case-
/// splits on the relative position of the ranges; under each case the
/// surviving pieces are a left part `(l1 : d.lo − s : s)` and a right part
/// `(d.hi + s : u1 : s)` around the intersection `d`, plus the whole of
/// `r1` in cases where the intersection is empty — following §5.1 with the
/// `max`/`min` operators replaced by explicit guard inequalities.
///
/// `None` means not representable; the caller must keep `r1` and mark the
/// result inexact.
pub fn range_subtract(ctx: &Pred, r1: &Range, r2: &Range) -> Option<Vec<Guarded<Range>>> {
    if r1 == r2 {
        return Some(Vec::new());
    }
    let s1 = r1.const_step();
    let s2 = r2.const_step();
    let step = match (s1, s2) {
        (Some(1), Some(1)) => 1i64,
        (Some(a), Some(b)) if a == b && a > 1 => match aligned(&r1.lo, &r2.lo, a) {
            // Misaligned grids never meet: nothing is removed.
            Some(false) => return Some(vec![(Pred::tru(), r1.clone())]),
            // Aligned: need constant bounds for exact hi-snapping below.
            Some(true) => a,
            None => return None,
        },
        _ if r1.step == r2.step && r1.lo == r2.lo => {
            // Symbolic but identical steps from the same origin: treat like
            // step 1 on the shared grid (positions map 1:1).
            return subtract_same_grid(ctx, r1, r2, &r1.step);
        }
        _ => return None,
    };
    if step > 1 {
        // Snap r2's upper bound down to the common grid when constant, so
        // the right-hand piece starts at a real element.
        let (l2c, u2c) = (r2.lo.as_const(), r2.hi.as_const());
        if let (Some(l2), Some(u2)) = (l2c, u2c) {
            let snapped = if u2 >= l2 {
                u2 - u2.checked_sub(l2)?.rem_euclid(step)
            } else {
                u2
            };
            let r2s = Range::new(r2.lo.clone(), Expr::from(snapped), r2.step.clone());
            return subtract_same_grid(ctx, r1, &r2s, &Expr::from(step));
        }
        return None;
    }
    subtract_same_grid(ctx, r1, r2, &Expr::one())
}

/// Difference of two ranges known to lie on the same grid with step `s`;
/// `None` when a bound overflows.
fn subtract_same_grid(ctx: &Pred, r1: &Range, r2: &Range, s: &Expr) -> Option<Vec<Guarded<Range>>> {
    let mut out: Vec<Guarded<Range>> = Vec::new();

    // Enumerate intersection-position cases: d.lo = max(l1, l2),
    // d.hi = min(u1, u2).
    for (pl, dlo) in max_cases(ctx, &r1.lo, &r2.lo) {
        for (pu, dhi) in min_cases(ctx, &r1.hi, &r2.hi) {
            let case = pl.and(&pu);
            if case.is_false() {
                continue;
            }
            let d_valid = Pred::le(dlo.clone(), dhi.clone());

            // Case A: intersection non-empty — two surrounding pieces.
            let in_case = case.and(&d_valid);
            if !in_case.is_false() {
                let left = Range::new(r1.lo.clone(), dlo.try_sub(s)?, s.clone());
                if !left.definitely_empty() {
                    let g = in_case.and(&left.validity());
                    if !g.is_false() {
                        out.push((g, left));
                    }
                }
                let right = Range::new(dhi.try_add(s)?, r1.hi.clone(), s.clone());
                if !right.definitely_empty() {
                    let g = in_case.and(&right.validity());
                    if !g.is_false() {
                        out.push((g, right));
                    }
                }
            }

            // Case B: intersection empty — r1 survives whole.
            let out_case = case.and(&d_valid.not());
            if !out_case.is_false() {
                out.push((out_case.and(&r1.validity()), r1.clone()));
            }
        }
    }
    Some(out)
}

/// Attempts to merge `r1 ∪ r2` into a single range (list of guarded cases).
///
/// `None` means "not mergeable into one range" — the caller keeps the two
/// operands side by side (that is *not* an approximation).
///
/// Merging assumes both operands are valid (non-empty); the paper keeps
/// validity in the enclosing guards, which justifies e.g.
/// `(1:a) ∪ (a+1:100) = (1:100)`.
pub fn range_union_merge(ctx: &Pred, r1: &Range, r2: &Range) -> Option<Vec<Guarded<Range>>> {
    if r1 == r2 {
        return Some(vec![(Pred::tru(), r1.clone())]);
    }
    let step = match (r1.const_step(), r2.const_step()) {
        (Some(1), Some(1)) => Expr::one(),
        (Some(a), Some(b)) if a == b && a > 1 => {
            if aligned(&r1.lo, &r2.lo, a) != Some(true) {
                return None;
            }
            Expr::from(a)
        }
        _ if r1.step == r2.step && r1.lo == r2.lo => r1.step.clone(),
        _ => return None,
    };
    // Union of two intervals is one interval iff they overlap or touch:
    // l2 <= u1 + s  and  l1 <= u2 + s. Both must be provable.
    let lim1 = r1.hi.try_add(&step)?;
    let lim2 = r2.hi.try_add(&step)?;
    if !(prove_le(ctx, &r2.lo, &lim1) && prove_le(ctx, &r1.lo, &lim2)) {
        return None;
    }
    let mut out = Vec::new();
    for (pl, lo) in min_cases(ctx, &r1.lo, &r2.lo) {
        for (pu, hi) in max_cases(ctx, &r1.hi, &r2.hi) {
            let guard = pl.and(&pu);
            if guard.is_false() {
                continue;
            }
            out.push((guard, Range::new(lo.clone(), hi.clone(), step.clone())));
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sym::parse_expr;

    fn e(s: &str) -> Expr {
        parse_expr(s).unwrap()
    }

    fn rng(lo: &str, hi: &str) -> Range {
        Range::contiguous(e(lo), e(hi))
    }

    #[test]
    fn intersect_constants() {
        let cases = range_intersect(&Pred::tru(), &rng("1", "10"), &rng("5", "20")).unwrap();
        assert_eq!(cases.len(), 1);
        assert!(cases[0].0.is_true());
        assert_eq!(cases[0].1, rng("5", "10"));
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let cases = range_intersect(&Pred::tru(), &rng("1", "3"), &rng("7", "9")).unwrap();
        assert!(cases.is_empty());
    }

    #[test]
    fn intersect_paper_example() {
        // (a:100) ∩ (b:100) = [a>b, (a:100)] ∪ [a<=b, (b:100)]
        let cases = range_intersect(&Pred::tru(), &rng("a", "100"), &rng("b", "100")).unwrap();
        assert_eq!(cases.len(), 2);
        let texts: Vec<String> = cases.iter().map(|(_, r)| r.to_string()).collect();
        assert!(texts.contains(&"a:100".to_string()));
        assert!(texts.contains(&"b:100".to_string()));
        // the two case guards must be mutually exclusive
        assert!(cases[0].0.and(&cases[1].0).is_false());
    }

    #[test]
    fn intersect_uses_context() {
        // Under ctx a <= b, (a:n) ∩ (b:n) needs no case split.
        let ctx = Pred::le(e("a"), e("b"));
        let cases = range_intersect(&ctx, &rng("a", "n"), &rng("b", "n")).unwrap();
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].1, rng("b", "n"));
    }

    #[test]
    fn intersect_step2_aligned() {
        let r1 = Range::new(e("1"), e("9"), e("2"));
        let r2 = Range::new(e("3"), e("13"), e("2"));
        let cases = range_intersect(&Pred::tru(), &r1, &r2).unwrap();
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].1, Range::new(e("3"), e("9"), e("2")));
    }

    #[test]
    fn intersect_step2_misaligned_empty() {
        let r1 = Range::new(e("1"), e("9"), e("2"));
        let r2 = Range::new(e("2"), e("10"), e("2"));
        let cases = range_intersect(&Pred::tru(), &r1, &r2).unwrap();
        assert!(cases.is_empty());
    }

    #[test]
    fn intersect_symbolic_steps_unknown() {
        let r1 = Range::new(e("1"), e("9"), e("s"));
        let r2 = Range::new(e("2"), e("10"), e("t"));
        assert!(range_intersect(&Pred::tru(), &r1, &r2).is_none());
    }

    #[test]
    fn intersect_case4_covering() {
        // r1 step 4 inside r2 step 2, aligned: r1 ∩ r2 = r1.
        let r1 = Range::new(e("3"), e("11"), e("4"));
        let r2 = Range::new(e("1"), e("13"), e("2"));
        let cases = range_intersect(&Pred::tru(), &r1, &r2).unwrap();
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].1, r1);
    }

    #[test]
    fn subtract_paper_example() {
        // (1:100) - (a:30) = [1 < a, (1:a-1)] ∪ [True, (31:100)]
        let cases = range_subtract(&Pred::tru(), &rng("1", "100"), &rng("a", "30")).unwrap();
        // Expect a left piece (1:a-1) guarded by validity 1 <= a-1 and a
        // right piece (31:100); the disjoint cases (a > 100 …) also appear
        // guarded.
        let has_left = cases
            .iter()
            .any(|(g, r)| r.to_string() == "1:a - 1" && !g.is_true());
        let has_right = cases.iter().any(|(_, r)| r.to_string() == "31:100");
        assert!(has_left, "missing left piece: {cases:?}");
        assert!(has_right, "missing right piece: {cases:?}");
    }

    #[test]
    fn subtract_concrete() {
        // (1:10) - (4:6) = (1:3) ∪ (7:10) unconditionally
        let cases = range_subtract(&Pred::tru(), &rng("1", "10"), &rng("4", "6")).unwrap();
        let mut texts: Vec<String> = cases
            .iter()
            .filter(|(g, _)| !g.is_false())
            .map(|(_, r)| r.to_string())
            .collect();
        texts.sort();
        assert_eq!(texts, vec!["1:3".to_string(), "7:10".to_string()]);
        for (g, _) in &cases {
            if !g.is_false() {
                assert!(g.is_true());
            }
        }
    }

    #[test]
    fn subtract_covering_removes_all() {
        let cases = range_subtract(&Pred::tru(), &rng("3", "5"), &rng("1", "10")).unwrap();
        assert!(
            cases.iter().all(|(g, _)| g.is_false()) || cases.is_empty(),
            "expected nothing to survive: {cases:?}"
        );
    }

    #[test]
    fn subtract_self_empty() {
        let r = rng("a", "b");
        assert!(range_subtract(&Pred::tru(), &r, &r).unwrap().is_empty());
    }

    #[test]
    fn subtract_disjoint_keeps_whole() {
        let cases = range_subtract(&Pred::tru(), &rng("1", "3"), &rng("7", "9")).unwrap();
        let whole: Vec<_> = cases.iter().filter(|(g, _)| !g.is_false()).collect();
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].1, rng("1", "3"));
    }

    #[test]
    fn subtract_step2_snapping() {
        // {1,3,5,7,9} - {3,5(,6 snapped)} with r2 = (3:6:2) = {3,5}
        let r1 = Range::new(e("1"), e("9"), e("2"));
        let r2 = Range::new(e("3"), e("6"), e("2"));
        let cases = range_subtract(&Pred::tru(), &r1, &r2).unwrap();
        let mut texts: Vec<String> = cases
            .iter()
            .filter(|(g, _)| !g.is_false())
            .map(|(_, r)| r.to_string())
            .collect();
        texts.sort();
        assert_eq!(texts, vec!["1".to_string(), "7:9:2".to_string()]);
    }

    #[test]
    fn union_merge_adjacent_symbolic() {
        // (1:a) ∪ (a+1:100) = (1:100) — needs validity context a >= 1,
        // a <= 99 (from the GAR guards).
        let ctx = Pred::le(e("1"), e("a")).and(&Pred::le(e("a + 1"), e("100")));
        let merged = range_union_merge(&ctx, &rng("1", "a"), &rng("a + 1", "100")).unwrap();
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].1, rng("1", "100"));
        assert!(merged[0].0.is_true());
    }

    #[test]
    fn union_merge_overlapping_constants() {
        let merged = range_union_merge(&Pred::tru(), &rng("1", "6"), &rng("4", "10")).unwrap();
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].1, rng("1", "10"));
    }

    #[test]
    fn union_no_merge_with_gap() {
        assert!(range_union_merge(&Pred::tru(), &rng("1", "3"), &rng("7", "9")).is_none());
    }

    #[test]
    fn union_no_merge_when_unprovable() {
        assert!(range_union_merge(&Pred::tru(), &rng("1", "a"), &rng("b", "100")).is_none());
    }

    #[test]
    fn union_same_range() {
        let r = rng("x", "y");
        let m = range_union_merge(&Pred::tru(), &r, &r).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].1, r);
    }

    #[test]
    fn prove_helpers() {
        let ctx = Pred::le(e("i"), e("n"));
        assert!(prove_le(&ctx, &e("i"), &e("n + 3")));
        assert!(prove_lt(&ctx, &e("i"), &e("n + 1")));
        assert!(prove_eq(&Pred::tru(), &e("2*i"), &e("i + i")));
        assert!(!prove_le(&Pred::tru(), &e("a"), &e("b")));
    }
}
