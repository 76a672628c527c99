//! The *expansion* function of §4.1: turning a per-iteration GAR into the
//! union over a range of iterations.
//!
//! For a loop index `i` with `lo <= i <= hi` and a GAR `T`:
//!
//! 1. bounds on `i` in `T`'s guard are solved out and tightened against the
//!    loop bounds (`max(l', lo) <= i <= min(u', hi)`, eliminated by case
//!    splitting);
//! 2. `i` occurring in exactly one region dimension is substituted by its
//!    range when the result is still a range;
//! 3. otherwise the affected dimensions are marked Ω;
//! 4. (∀-extension) a guard consisting of per-iteration *condition
//!    template* atoms expands into an `Over` piece (some iterations may
//!    access) plus an `Under` piece guarded by the universally quantified
//!    fact (all iterations access) — the inference needed by Fig. 1(a).

use crate::gars::{Approx, Gar};
use crate::list::GarList;
use pred::{bounds_on, Atom, Pred};
use region::{max_cases, min_cases, prove_le, Dim, Range, Region};
use sym::{diff_const, Expr};

/// Loop context for expansion.
#[derive(Clone, Debug)]
pub struct LoopCtx {
    /// The loop index variable.
    pub var: String,
    /// First iterate.
    pub lo: Expr,
    /// Last iterate bound (inclusive).
    pub hi: Expr,
    /// Constant positive loop step.
    pub step: i64,
    /// Enables the ∀-extension for condition-template guards.
    pub forall_ext: bool,
}

impl LoopCtx {
    /// A unit-step loop context.
    pub fn new(var: impl Into<String>, lo: Expr, hi: Expr) -> LoopCtx {
        LoopCtx {
            var: var.into(),
            lo,
            hi,
            step: 1,
            forall_ext: false,
        }
    }
}

/// Expands every piece of a list. See [`expand_gar`].
pub fn expand_list(list: &GarList, ctx: &LoopCtx) -> GarList {
    let mut out = Vec::new();
    for g in list.gars() {
        out.extend(expand_gar(g, ctx));
    }
    GarList::from_gars(out)
}

/// Expands one GAR over the loop, producing the union over all iterations.
pub fn expand_gar(gar: &Gar, ctx: &LoopCtx) -> Vec<Gar> {
    if !gar.contains_var(&ctx.var) {
        return vec![gar.clone()];
    }

    // Step 1: solve the index out of the guard.
    let (bounds, forall_atoms) = match bounds_on(&gar.guard, &ctx.var) {
        Some(b) => (b, Vec::new()),
        None => {
            // The guard mentions the index in a form `bounds_on` cannot
            // solve. The ∀-extension handles the case where the offending
            // clauses are all unit condition-template atoms.
            match split_cond_guard(&gar.guard, &ctx.var) {
                Some((residual, conds)) if ctx.forall_ext => {
                    let Some(b) = bounds_on(&residual, &ctx.var) else {
                        return vec![conservative(gar, ctx)];
                    };
                    (b, conds)
                }
                _ => return vec![conservative(gar, ctx)],
            }
        }
    };

    // Effective iteration bounds: max(loop lo, solved los) … min(loop hi,
    // solved his), eliminated into guarded cases.
    let residual = bounds.residual.clone();
    let mut lo_cases: Vec<(Pred, Expr)> = vec![(Pred::tru(), ctx.lo.clone())];
    for b in &bounds.los {
        let mut next = Vec::new();
        for (p, cur) in &lo_cases {
            for (q, m) in max_cases(&residual, cur, b) {
                let g = p.and(&q);
                if !g.is_false() {
                    next.push((g, m));
                }
            }
        }
        lo_cases = next;
    }
    let mut hi_cases: Vec<(Pred, Expr)> = vec![(Pred::tru(), ctx.hi.clone())];
    for b in &bounds.his {
        let mut next = Vec::new();
        for (p, cur) in &hi_cases {
            for (q, m) in min_cases(&residual, cur, b) {
                let g = p.and(&q);
                if !g.is_false() {
                    next.push((g, m));
                }
            }
        }
        hi_cases = next;
    }

    let mut out = Vec::new();
    for (pl, lo_e) in &lo_cases {
        for (ph, hi_e) in &hi_cases {
            let case = residual
                .and(pl)
                .and(ph)
                .and(&Pred::le(lo_e.clone(), hi_e.clone()));
            if case.is_false() {
                continue;
            }
            let (expanded, exact) = expand_region(&gar.region, ctx, lo_e, hi_e, &case);
            let base_approx = if exact { gar.approx } else { Approx::Over };

            if forall_atoms.is_empty() {
                out.push(Gar::with_approx(case, expanded, base_approx));
            } else {
                // ∀-extension: Over piece (∃ semantics lost → Δ) plus an
                // Under piece guarded by the universally quantified facts.
                out.push(Gar::with_approx(
                    case.and(&Pred::unknown()),
                    expanded.clone(),
                    Approx::Over,
                ));
                let mut fa_guard = case.clone();
                let mut ok = true;
                for (template, index, deps, positive) in &forall_atoms {
                    // index is affine in var with coefficient 1: index =
                    // var + c. Quantify over [lo_e + c, hi_e + c]; an
                    // overflowing bound drops the Under piece.
                    let Some((1, off)) = index.affine_decompose(&ctx.var) else {
                        ok = false;
                        break;
                    };
                    let (Some(lo), Some(hi)) = (lo_e.try_add(&off), hi_e.try_add(&off)) else {
                        ok = false;
                        break;
                    };
                    fa_guard = fa_guard.and_atom(Atom::ForallCond {
                        template: template.clone(),
                        lo,
                        hi,
                        deps: deps.clone(),
                        positive: *positive,
                    });
                }
                if ok && exact && ctx.step == 1 {
                    out.push(Gar::with_approx(fa_guard, expanded, Approx::Under));
                }
            }
        }
    }
    if out.is_empty() {
        // All cases contradictory: no iteration accesses anything.
        return Vec::new();
    }
    out
}

/// Fallback: mark everything touching the index unknown.
fn conservative(gar: &Gar, ctx: &LoopCtx) -> Gar {
    Gar::with_approx(
        gar.guard.forget_var(&ctx.var),
        gar.region.forget_var(&ctx.var),
        Approx::Over,
    )
}

/// Splits a guard into (clauses without the var, condition-template atoms
/// mentioning the var). Fails (`None`) if any var-clause is not a unit
/// `Cond` atom.
#[allow(clippy::type_complexity)]
fn split_cond_guard(
    guard: &Pred,
    var: &str,
) -> Option<(Pred, Vec<(pred::CondTemplate, Expr, Vec<sym::Name>, bool)>)> {
    let Pred::Cnf { disjs, unknown } = guard else {
        return None;
    };
    let mut residual = Vec::new();
    let mut conds = Vec::new();
    for d in disjs {
        if !d.contains_var(var) {
            residual.push(d.clone());
            continue;
        }
        match d.as_unit()? {
            Atom::Cond {
                template,
                index,
                deps,
                positive,
            } if index.contains_var(var) && !deps.iter().any(|x| x.as_str() == var) => {
                conds.push((template.clone(), index.clone(), deps.clone(), *positive));
            }
            Atom::Rel(..) | Atom::Bool(..) => {
                // A solvable relational clause — but bounds_on already
                // failed on the full guard, so some clause is unsolvable;
                // keep it in the residual and let bounds_on re-judge.
                residual.push(d.clone());
            }
            _ => return None,
        }
    }
    if conds.is_empty() {
        return None;
    }
    Some((Pred::from_disjs(residual, *unknown), conds))
}

/// Expands a region over `var ∈ [lo_e, hi_e]`. Returns the expanded region
/// and whether the expansion is exact.
fn expand_region(
    region: &Region,
    ctx: &LoopCtx,
    lo_e: &Expr,
    hi_e: &Expr,
    case: &Pred,
) -> (Region, bool) {
    let var = &ctx.var;
    let n_with_var = region
        .dims()
        .iter()
        .filter(|d| d.as_range().is_some_and(|r| r.contains_var(var)))
        .count();
    let mut exact = true;
    // Aligned stepping: for step > 1 the last iterate must land on the
    // grid for the produced strided range to be exact.
    let step_aligned =
        ctx.step == 1 || diff_const(hi_e, lo_e).is_some_and(|d| d >= 0 && d % ctx.step == 0);
    let dims = region
        .dims()
        .iter()
        .map(|d| {
            let Some(r) = d.as_range() else {
                return Dim::Unknown;
            };
            if !r.contains_var(var) {
                return d.clone();
            }
            if n_with_var > 1 {
                // §4.1: index in more than one dimension → Ω.
                exact = false;
                return Dim::Unknown;
            }
            match expand_range(r, ctx, lo_e, hi_e, case, step_aligned) {
                Some((nr, ex)) => {
                    exact &= ex;
                    Dim::Range(nr)
                }
                None => {
                    exact = false;
                    Dim::Unknown
                }
            }
        })
        .collect::<Vec<_>>();
    (Region::new(dims), exact)
}

/// Expands a single range over the index. Returns `(range, exact)` or
/// `None` for Ω, also when a coefficient overflows.
fn expand_range(
    r: &Range,
    ctx: &LoopCtx,
    lo_e: &Expr,
    hi_e: &Expr,
    case: &Pred,
    step_aligned: bool,
) -> Option<(Range, bool)> {
    let var = &ctx.var;
    if r.step.contains_var(var) {
        return None;
    }
    let (cl, _) = r.lo.affine_decompose(var)?;
    let (cu, _) = r.hi.affine_decompose(var)?;

    let at = |e: &Expr, v: &Expr| e.try_subst_var(var, v);

    // Single-element-per-iteration dimension: lo == hi as polynomials.
    if r.lo == r.hi {
        let c = cl;
        debug_assert_ne!(c, 0);
        let stride = i64::try_from(c.unsigned_abs())
            .ok()?
            .checked_mul(ctx.step)?;
        let (nl, nh) = if c > 0 {
            (at(&r.lo, lo_e)?, at(&r.lo, hi_e)?)
        } else {
            (at(&r.lo, hi_e)?, at(&r.lo, lo_e)?)
        };
        return Some((Range::new(nl, nh, Expr::from(stride)), step_aligned));
    }

    // A true range per iteration: merging consecutive iterations requires
    // unit dimension step and unit loop step for exactness.
    if !r.unit_step() {
        return None;
    }
    if cl >= 0 && cu >= 0 {
        // Monotonically nondecreasing bounds. Contiguity of consecutive
        // iterations: l(i + step) <= u(i) + 1, i.e. l + cl*step <= u + 1.
        let shifted = r.lo.try_add(&Expr::from(cl.checked_mul(ctx.step)?))?;
        let contiguous = prove_le(case, &shifted, &r.hi.try_add(&Expr::one())?);
        if contiguous || cl == 0 {
            let nl = at(&r.lo, lo_e)?;
            let nh = at(&r.hi, hi_e)?;
            return Some((Range::contiguous(nl, nh), contiguous || cl == 0));
        }
        return None;
    }
    if cl <= 0 && cu <= 0 {
        // Monotonically nonincreasing bounds.
        let shifted = r.hi.try_add(&Expr::from(cu.checked_mul(ctx.step)?))?;
        let contiguous = prove_le(case, &r.lo, &shifted.try_add(&Expr::one())?);
        if contiguous || cu == 0 {
            let nl = at(&r.lo, hi_e)?;
            let nh = at(&r.hi, lo_e)?;
            return Some((Range::contiguous(nl, nh), contiguous || cu == 0));
        }
        return None;
    }
    if cl <= 0 && cu >= 0 {
        // Growing in both directions: nested intervals, the last covers all
        // (when each iteration's interval is valid, which the guard
        // carries).
        let nl = at(&r.lo, hi_e)?;
        let nh = at(&r.hi, hi_e)?;
        return Some((Range::contiguous(nl, nh), true));
    }
    // cl > 0 && cu < 0: shrinking from both sides — union is the first
    // iteration's interval.
    let nl = at(&r.lo, lo_e)?;
    let nh = at(&r.hi, lo_e)?;
    Some((Range::contiguous(nl, nh), true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sym::parse_expr;

    fn e(s: &str) -> Expr {
        parse_expr(s).unwrap()
    }

    fn r1d(lo: &str, hi: &str) -> Region {
        Region::from_ranges([Range::contiguous(e(lo), e(hi))])
    }

    #[test]
    fn invariant_gar_unchanged() {
        let g = Gar::new(Pred::tru(), r1d("1", "n"));
        let ctx = LoopCtx::new("i", e("1"), e("m"));
        let out = expand_gar(&g, &ctx);
        assert_eq!(out, vec![g]);
    }

    #[test]
    fn paper_expansion_example() {
        // T = [c <= i+1 <= d, (1:i)], loop a <= i <= b
        // → new bounds max(a, c-1) <= i <= min(b, d-1)
        // → [.., (1 : min(b, d-1))]
        let guard = Pred::le(e("c"), e("i + 1")).and(&Pred::le(e("i + 1"), e("d")));
        let g = Gar::new(guard, r1d("1", "i"));
        let ctx = LoopCtx::new("i", e("a"), e("b"));
        let out = expand_gar(&g, &ctx);
        assert!(!out.is_empty());
        // Every produced piece must be exact, mention no i, and have an
        // upper bound of b or d-1.
        for p in &out {
            assert!(!p.contains_var("i"), "piece still has i: {p}");
            assert!(p.is_exact(), "piece not exact: {p}");
            let dim = p.region.dims()[0].as_range().unwrap();
            let hi = dim.hi.to_string();
            assert!(hi == "b" || hi == "d - 1", "unexpected hi {hi}");
        }
        // Cases for (lo: max(a, c-1, 1)) × (hi: min(b, d-1)): the extra
        // lower bound 1 comes from the region validity 1 <= i that
        // Gar::new folded into the guard.
        assert!(out.len() >= 4 && out.len() <= 8, "got {} cases", out.len());
    }

    #[test]
    fn single_element_positive_coef() {
        // [True, A(i+4)] over i in 2..5 → A(6:9)
        let g = Gar::element(Pred::tru(), [e("i + 4")]);
        let ctx = LoopCtx::new("i", e("2"), e("5"));
        let out = expand_gar(&g, &ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].region, r1d("6", "9"));
        assert!(out[0].is_exact());
    }

    #[test]
    fn single_element_negative_coef() {
        // A(10 - i) over i in 1..4 → A(6:9)
        let g = Gar::element(Pred::tru(), [e("10 - i")]);
        let ctx = LoopCtx::new("i", e("1"), e("4"));
        let out = expand_gar(&g, &ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].region, r1d("6", "9"));
    }

    #[test]
    fn single_element_coef_two_strided() {
        // A(2*i) over i in 1..n → A(2 : 2n : 2)
        let g = Gar::element(Pred::tru(), [e("2*i")]);
        let ctx = LoopCtx::new("i", e("1"), e("n"));
        let out = expand_gar(&g, &ctx);
        assert_eq!(out.len(), 1);
        let r = out[0].region.dims()[0].as_range().unwrap();
        assert_eq!(r.lo, e("2"));
        assert_eq!(r.hi, e("2*n"));
        assert_eq!(r.step, e("2"));
    }

    #[test]
    fn growing_range_merges() {
        // A(1:i) over i in 1..n → A(1:n) (cl = 0)
        let g = Gar::new(Pred::tru(), r1d("1", "i"));
        let ctx = LoopCtx::new("i", e("1"), e("n"));
        let out = expand_gar(&g, &ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].region, r1d("1", "n"));
        assert!(out[0].is_exact());
    }

    #[test]
    fn mod_lt_i_pattern() {
        // MOD_{<i}: expansion of [True, B(k)] over k in 1..i-1 → B(1:i-1),
        // as in the paper's subroutine `in` walkthrough.
        let g = Gar::element(Pred::tru(), [e("k")]);
        let ctx = LoopCtx::new("k", e("1"), e("i - 1"));
        let out = expand_gar(&g, &ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].region, r1d("1", "i - 1"));
        // validity 1 <= i-1 lives in the guard
        assert!(out[0].guard.implies(&Pred::le(e("1"), e("i - 1"))));
    }

    #[test]
    fn index_in_two_dims_goes_unknown() {
        let g = Gar::new(Pred::tru(), Region::element([e("i"), e("i + 1")]));
        let ctx = LoopCtx::new("i", e("1"), e("n"));
        let out = expand_gar(&g, &ctx);
        assert_eq!(out.len(), 1);
        assert!(!out[0].region.is_exact());
        assert_eq!(out[0].approx, Approx::Over);
    }

    #[test]
    fn sliding_window_not_contiguous_goes_unknown() {
        // A(3i : 3i+1) over i: gap between iterations → Ω.
        let g = Gar::new(Pred::tru(), r1d("3*i", "3*i + 1"));
        let ctx = LoopCtx::new("i", e("1"), e("n"));
        let out = expand_gar(&g, &ctx);
        assert_eq!(out.len(), 1);
        assert!(!out[0].region.is_exact());
    }

    #[test]
    fn sliding_window_contiguous_merges() {
        // A(i : i+2) over i in 1..n → A(1 : n+2): l(i+1)=i+1 <= u(i)+1=i+3.
        let g = Gar::new(Pred::tru(), r1d("i", "i + 2"));
        let ctx = LoopCtx::new("i", e("1"), e("n"));
        let out = expand_gar(&g, &ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].region, r1d("1", "n + 2"));
        assert!(out[0].is_exact());
    }

    #[test]
    fn guard_bounds_prune_iterations() {
        // [i >= 5, A(i)] over i in 1..3: no iteration qualifies → empty.
        let g = Gar::element(Pred::atom(Atom::ge(e("i"), e("5")).unwrap()), [e("i")]);
        let ctx = LoopCtx::new("i", e("1"), e("3"));
        let out = expand_gar(&g, &ctx);
        assert!(GarList::from_gars(out).definitely_empty());
    }

    #[test]
    fn cond_guard_without_ext_conservative() {
        let g = Gar::element(
            Pred::atom(Atom::Cond {
                deps: vec![],
                template: pred::CondTemplate::new("c"),
                index: e("k"),
                positive: false,
            }),
            [e("k + 4")],
        );
        let ctx = LoopCtx::new("k", e("2"), e("5"));
        let out = expand_gar(&g, &ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].approx, Approx::Over);
        assert!(!out[0].region.is_exact());
    }

    #[test]
    fn cond_guard_with_forall_ext() {
        // The Fig 1(a) kernel: MOD piece [¬C(k+4), A(k+4)] over k in 2..5
        // must produce an Under piece [∀j∈[6,9]: ¬C(j), A(6:9)].
        let g = Gar::element(
            Pred::atom(Atom::Cond {
                deps: vec![],
                template: pred::CondTemplate::new("c"),
                index: e("k + 4"),
                positive: false,
            }),
            [e("k + 4")],
        );
        let mut ctx = LoopCtx::new("k", e("2"), e("5"));
        ctx.forall_ext = true;
        let out = expand_gar(&g, &ctx);
        let under: Vec<_> = out.iter().filter(|p| p.approx == Approx::Under).collect();
        assert_eq!(under.len(), 1, "pieces: {out:?}");
        assert_eq!(under[0].region, r1d("6", "9"));
        // Its guard instantiates at any index in [6,9]:
        let inst = Pred::atom(Atom::Cond {
            deps: vec![],
            template: pred::CondTemplate::new("c"),
            index: e("7"),
            positive: false,
        });
        assert!(under[0].guard.implies(&inst));
        // And there is an Over piece covering may-semantics.
        assert!(out.iter().any(|p| p.approx == Approx::Over));
    }
}
