//! Minimal Fortran-expression conversion for the content walkers.
//!
//! The dependence analyzer owns the full entry-relative converter; the
//! content pass only needs affine subscripts over loop indices, literal
//! constants, PARAMETER constants and scalars proved constant by the
//! walk itself. Anything else becomes an Ω dimension (sound: Ω regions
//! are never usable as must-defined evidence).

use fortran::{BinOp, Expr as FExpr, SymbolTable, UnOp};
use region::{Dim, Region};
use std::collections::{BTreeMap, BTreeSet};
use sym::Expr;

/// Conversion context shared by both walkers.
pub struct Ctx<'a> {
    /// Symbol table of the routine being walked.
    pub table: &'a SymbolTable,
    /// Loop indices currently in scope (kept symbolic).
    pub loop_vars: &'a BTreeSet<String>,
    /// Scalars proved to hold an integer constant at this point.
    pub consts: &'a BTreeMap<String, i64>,
}

/// Converts an integer expression; `None` when not representable.
pub fn to_sym(e: &FExpr, ctx: &Ctx) -> Option<Expr> {
    match e {
        FExpr::Int(v) => Some(Expr::from(*v)),
        FExpr::Var(n) => {
            if ctx.loop_vars.contains(n) {
                return Some(Expr::var(n.as_str()));
            }
            if let Some(c) = ctx.table.constant(n) {
                return to_sym(c, ctx);
            }
            ctx.consts.get(n).map(|&c| Expr::from(c))
        }
        FExpr::Bin(op, a, b) => {
            let (a, b) = (to_sym(a, ctx)?, to_sym(b, ctx)?);
            match op {
                BinOp::Add => a.try_add(&b),
                BinOp::Sub => a.try_sub(&b),
                BinOp::Mul => a.try_mul(&b),
                _ => None,
            }
        }
        FExpr::Un(UnOp::Neg, a) => to_sym(a, ctx)?.try_negate(),
        _ => None,
    }
}

/// The region touched by `name(subs…)`. Unrepresentable subscripts (and
/// products of index variables, §3.1) become Ω dimensions.
pub fn region_of(subs: &[FExpr], ctx: &Ctx) -> Region {
    Region::new(
        subs.iter()
            .map(|s| match to_sym(s, ctx) {
                Some(e) if e.max_vars_per_term() <= 1 => Dim::unit(e),
                _ => Dim::Unknown,
            })
            .collect(),
    )
}

/// Clones `e` with every occurrence of variable `from` rewritten to `to`
/// (both scalar references and subscript uses).
pub fn subst_fvar(e: &FExpr, from: &str, to: &str) -> FExpr {
    match e {
        FExpr::Var(n) if n == from => FExpr::Var(to.to_string()),
        FExpr::Int(_) | FExpr::Real(_) | FExpr::Logical(_) | FExpr::Var(_) => e.clone(),
        FExpr::Index(n, subs) => FExpr::Index(
            n.clone(),
            subs.iter().map(|s| subst_fvar(s, from, to)).collect(),
        ),
        FExpr::Bin(op, a, b) => FExpr::bin(*op, subst_fvar(a, from, to), subst_fvar(b, from, to)),
        FExpr::Un(op, a) => FExpr::Un(*op, Box::new(subst_fvar(a, from, to))),
    }
}

/// Canonical text of a guard or subscript with the given index variable
/// replaced by a placeholder, so templates from loops with different
/// index names compare equal.
pub fn canon(e: &FExpr, idx: Option<&str>) -> String {
    match idx {
        Some(v) => format!("{}", subst_fvar(e, v, "%")),
        None => format!("{e}"),
    }
}

/// Canonical text of a subscript tuple.
pub fn canon_subs(subs: &[FExpr], idx: Option<&str>) -> String {
    let parts: Vec<String> = subs.iter().map(|s| canon(s, idx)).collect();
    parts.join(",")
}

/// Every variable name occurring in `e` (scalars, arrays, call names).
pub fn names_of(e: &FExpr, out: &mut BTreeSet<String>) {
    match e {
        FExpr::Var(n) => {
            out.insert(n.clone());
        }
        FExpr::Index(n, subs) => {
            out.insert(n.clone());
            for s in subs {
                names_of(s, out);
            }
        }
        FExpr::Bin(_, a, b) => {
            names_of(a, out);
            names_of(b, out);
        }
        FExpr::Un(_, a) => names_of(a, out),
        _ => {}
    }
}
