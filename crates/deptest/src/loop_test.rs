//! Lifting the numeric tests to whole DO loops on the AST.

use crate::tests_numeric::{banerjee_test, gcd_test, AffineSub, DepAnswer};
use fortran::{BinOp, Expr, LValue, Stmt, StmtKind, SymbolTable, UnOp};
use serde::Serialize;
use std::collections::BTreeMap;

/// Verdict of the conventional pre-filter on one loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum ConvVerdict {
    /// Every reference pair disproved: the loop is parallel without any
    /// transformation.
    Parallel,
    /// The conventional tests could not decide; the loop needs the array
    /// dataflow analysis (or stays serial).
    Unknown,
}

/// One array reference with affine subscripts.
#[derive(Clone, Debug)]
struct Ref {
    array: String,
    subs: Vec<AffineSub>,
    is_write: bool,
}

/// Runs the conventional tests on a `DO` statement. `table` supplies
/// PARAMETER constants.
pub fn conventional_loop_test(do_stmt: &Stmt, table: &SymbolTable) -> ConvVerdict {
    let StmtKind::Do {
        var,
        lo,
        hi,
        step,
        body,
    } = &do_stmt.kind
    else {
        return ConvVerdict::Unknown;
    };
    let mut bounds = BTreeMap::new();
    let mut indices = vec![var.clone()];
    let (Some(lo), Some(hi)) = (const_of(lo, table), const_of(hi, table)) else {
        return ConvVerdict::Unknown;
    };
    if step.as_ref().is_some_and(|s| const_of(s, table) != Some(1)) {
        return ConvVerdict::Unknown;
    }
    bounds.insert(var.clone(), (lo, hi));

    let mut refs = Vec::new();
    let mut order = 0usize;
    let mut scalar_first_read: BTreeMap<String, usize> = BTreeMap::new();
    let mut scalar_first_write: BTreeMap<String, usize> = BTreeMap::new();
    let mut scalar_any_write: std::collections::BTreeSet<String> = Default::default();
    if !collect(
        body,
        table,
        &mut indices,
        &mut bounds,
        &mut refs,
        &mut order,
        &mut scalar_first_read,
        &mut scalar_first_write,
        &mut scalar_any_write,
        false,
    ) {
        return ConvVerdict::Unknown;
    }

    // Scalars: every scalar read must be preceded by an unconditional
    // write in the same iteration (privatizable the conventional way).
    for (s, &r) in &scalar_first_read {
        if s == var || indices.contains(s) {
            continue;
        }
        if !scalar_any_write.contains(s) {
            continue; // read-only scalar
        }
        match scalar_first_write.get(s) {
            Some(&w) if w < r => {}
            _ => return ConvVerdict::Unknown,
        }
    }

    // Array pairs: every (write, any) pair on the same array must be
    // disproved for the carrier loop.
    for (k, w) in refs.iter().enumerate() {
        if !w.is_write {
            continue;
        }
        for (j, r) in refs.iter().enumerate() {
            if j == k && !w.is_write {
                continue;
            }
            if r.array != w.array {
                continue;
            }
            if j == k {
                // self-pair: still needs the carried-self test
            }
            if !pair_independent(w, r, &bounds, var) {
                return ConvVerdict::Unknown;
            }
        }
    }
    ConvVerdict::Parallel
}

/// Is the (write, other) pair disproved for a dependence carried by
/// `carrier`? A single independent dimension suffices.
fn pair_independent(
    a: &Ref,
    b: &Ref,
    bounds: &BTreeMap<String, (i64, i64)>,
    carrier: &str,
) -> bool {
    if a.subs.len() != b.subs.len() {
        return false;
    }
    for (sa, sb) in a.subs.iter().zip(&b.subs) {
        if gcd_test(sa, sb) == DepAnswer::Independent {
            return true;
        }
        if banerjee_test(sa, sb, bounds, Some(carrier)) == Some(DepAnswer::Independent) {
            return true;
        }
    }
    false
}

/// Walks statements collecting refs; returns `false` on anything the
/// conventional tests cannot handle (CALL, GOTO, symbolic bounds, IF —
/// handled conservatively by including both branches but noting scalar
/// writes become conditional).
#[allow(clippy::too_many_arguments)]
fn collect(
    body: &[Stmt],
    table: &SymbolTable,
    indices: &mut Vec<String>,
    bounds: &mut BTreeMap<String, (i64, i64)>,
    refs: &mut Vec<Ref>,
    order: &mut usize,
    scalar_first_read: &mut BTreeMap<String, usize>,
    scalar_first_write: &mut BTreeMap<String, usize>,
    scalar_any_write: &mut std::collections::BTreeSet<String>,
    conditional: bool,
) -> bool {
    for s in body {
        *order += 1;
        match &s.kind {
            StmtKind::Assign(lhs, rhs) => {
                if !collect_expr_reads(rhs, table, indices, refs, *order, scalar_first_read) {
                    return false;
                }
                match lhs {
                    LValue::Element(arr, subs) => {
                        let mut affs = Vec::new();
                        for sub in subs {
                            if !collect_expr_reads(
                                sub,
                                table,
                                indices,
                                refs,
                                *order,
                                scalar_first_read,
                            ) {
                                return false;
                            }
                            match affine_of(sub, table, indices) {
                                Some(a) => affs.push(a),
                                None => return false,
                            }
                        }
                        refs.push(Ref {
                            array: arr.clone(),
                            subs: affs,
                            is_write: true,
                        });
                    }
                    LValue::Var(v) => {
                        scalar_any_write.insert(v.clone());
                        // Conditional writes don't establish a definition
                        // that covers the iteration.
                        if !conditional {
                            scalar_first_write.entry(v.clone()).or_insert(*order);
                        }
                    }
                }
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                if !collect_expr_reads(cond, table, indices, refs, *order, scalar_first_read) {
                    return false;
                }
                if !collect(
                    then_body,
                    table,
                    indices,
                    bounds,
                    refs,
                    order,
                    scalar_first_read,
                    scalar_first_write,
                    scalar_any_write,
                    true,
                ) || !collect(
                    else_body,
                    table,
                    indices,
                    bounds,
                    refs,
                    order,
                    scalar_first_read,
                    scalar_first_write,
                    scalar_any_write,
                    true,
                ) {
                    return false;
                }
            }
            StmtKind::LogicalIf(cond, inner) => {
                if !collect_expr_reads(cond, table, indices, refs, *order, scalar_first_read) {
                    return false;
                }
                if !collect(
                    std::slice::from_ref(inner),
                    table,
                    indices,
                    bounds,
                    refs,
                    order,
                    scalar_first_read,
                    scalar_first_write,
                    scalar_any_write,
                    true,
                ) {
                    return false;
                }
            }
            StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let (Some(l), Some(h)) = (const_of(lo, table), const_of(hi, table)) else {
                    return false;
                };
                if step.as_ref().is_some_and(|s| const_of(s, table) != Some(1)) {
                    return false;
                }
                indices.push(var.clone());
                bounds.insert(var.clone(), (l, h));
                if !collect(
                    body,
                    table,
                    indices,
                    bounds,
                    refs,
                    order,
                    scalar_first_read,
                    scalar_first_write,
                    scalar_any_write,
                    conditional,
                ) {
                    return false;
                }
                indices.pop();
            }
            StmtKind::Continue => {}
            // CALL / GOTO / RETURN / STOP: conventional tests give up.
            _ => return false,
        }
    }
    true
}

/// Records array reads and scalar reads inside an expression.
fn collect_expr_reads(
    e: &Expr,
    table: &SymbolTable,
    indices: &[String],
    refs: &mut Vec<Ref>,
    order: usize,
    scalar_first_read: &mut BTreeMap<String, usize>,
) -> bool {
    match e {
        Expr::Index(name, subs) => {
            if table.is_array(name) {
                let mut affs = Vec::new();
                for sub in subs {
                    if !collect_expr_reads(sub, table, indices, refs, order, scalar_first_read) {
                        return false;
                    }
                    match affine_of(sub, table, indices) {
                        Some(a) => affs.push(a),
                        None => return false,
                    }
                }
                refs.push(Ref {
                    array: name.clone(),
                    subs: affs,
                    is_write: false,
                });
                true
            } else {
                subs.iter()
                    .all(|s| collect_expr_reads(s, table, indices, refs, order, scalar_first_read))
            }
        }
        Expr::Var(n) => {
            if !table.is_array(n) && table.constant(n).is_none() {
                scalar_first_read.entry(n.clone()).or_insert(order);
            }
            true
        }
        Expr::Bin(_, a, b) => {
            collect_expr_reads(a, table, indices, refs, order, scalar_first_read)
                && collect_expr_reads(b, table, indices, refs, order, scalar_first_read)
        }
        Expr::Un(_, a) => collect_expr_reads(a, table, indices, refs, order, scalar_first_read),
        _ => true,
    }
}

/// Extracts an affine form over the loop indices; `None` for anything else
/// (symbolic terms, nonlinear, array elements).
fn affine_of(e: &Expr, table: &SymbolTable, indices: &[String]) -> Option<AffineSub> {
    match e {
        Expr::Int(v) => Some(AffineSub::constant(*v)),
        Expr::Var(n) => {
            if indices.contains(n) {
                Some(AffineSub::constant(0).with(n, 1))
            } else {
                const_of(e, table).map(AffineSub::constant)
            }
        }
        Expr::Un(UnOp::Neg, a) => {
            let a = affine_of(a, table, indices)?;
            scale(a, -1)
        }
        Expr::Bin(op, a, b) => {
            let (fa, fb) = (affine_of(a, table, indices), affine_of(b, table, indices));
            match op {
                BinOp::Add => add(fa?, fb?, 1),
                BinOp::Sub => add(fa?, fb?, -1),
                BinOp::Mul => {
                    let fa = fa?;
                    let fb = fb?;
                    if fa.coeffs.is_empty() {
                        scale(fb, fa.c0)
                    } else if fb.coeffs.is_empty() {
                        scale(fa, fb.c0)
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// `c · a`; `None` on overflow.
fn scale(mut a: AffineSub, c: i64) -> Option<AffineSub> {
    a.c0 = a.c0.checked_mul(c)?;
    for v in a.coeffs.values_mut() {
        *v = v.checked_mul(c)?;
    }
    a.coeffs.retain(|_, v| *v != 0);
    Some(a)
}

/// `a + sign · b`; `None` on overflow.
fn add(mut a: AffineSub, b: AffineSub, sign: i64) -> Option<AffineSub> {
    a.c0 = a.c0.checked_add(sign.checked_mul(b.c0)?)?;
    for (k, v) in b.coeffs {
        let sum = a.coeffs.entry(k).or_insert(0);
        *sum = sum.checked_add(sign.checked_mul(v)?)?;
    }
    a.coeffs.retain(|_, v| *v != 0);
    Some(a)
}

/// Constant value of an expression (folding PARAMETERs).
fn const_of(e: &Expr, table: &SymbolTable) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(*v),
        Expr::Var(n) => const_of(table.constant(n)?, table),
        Expr::Un(UnOp::Neg, a) => const_of(a, table)?.checked_neg(),
        Expr::Bin(op, a, b) => {
            let (a, b) = (const_of(a, table)?, const_of(b, table)?);
            match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => a.checked_div(b),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortran::{analyze, parse_program};

    fn verdict(src: &str) -> ConvVerdict {
        let p = parse_program(src).unwrap();
        let sema = analyze(&p).unwrap();
        let r = &p.routines[0];
        let table = &sema.tables[&r.name];
        let do_stmt = r
            .body
            .iter()
            .find(|s| matches!(s.kind, StmtKind::Do { .. }))
            .expect("a DO loop");
        conventional_loop_test(do_stmt, table)
    }

    #[test]
    fn elementwise_parallel() {
        let v = verdict(
            "
      PROGRAM t
      REAL a(100), b(100)
      INTEGER i
      DO i = 1, 100
        a(i) = b(i) + 1.0
      ENDDO
      END
",
        );
        assert_eq!(v, ConvVerdict::Parallel);
    }

    #[test]
    fn recurrence_unknown() {
        let v = verdict(
            "
      PROGRAM t
      REAL a(100)
      INTEGER i
      DO i = 2, 100
        a(i) = a(i-1)
      ENDDO
      END
",
        );
        assert_eq!(v, ConvVerdict::Unknown);
    }

    #[test]
    fn strided_disjoint_parallel() {
        // even writes, odd reads: GCD disproves.
        let v = verdict(
            "
      PROGRAM t
      REAL a(200)
      INTEGER i
      DO i = 1, 100
        a(2*i) = a(2*i - 1)
      ENDDO
      END
",
        );
        assert_eq!(v, ConvVerdict::Parallel);
    }

    #[test]
    fn work_array_defeats_conventional() {
        // The privatizable-work-array pattern: conventional tests see
        // output/flow dependences on w and give up — exactly why array
        // dataflow analysis is needed (the paper's premise).
        let v = verdict(
            "
      PROGRAM t
      REAL w(10), a(100)
      INTEGER i, k
      DO i = 1, 100
        DO k = 1, 10
          w(k) = 1.0
        ENDDO
        DO k = 1, 10
          a(i) = a(i) + w(k)
        ENDDO
      ENDDO
      END
",
        );
        assert_eq!(v, ConvVerdict::Unknown);
    }

    #[test]
    fn call_defeats_conventional() {
        let v = verdict(
            "
      PROGRAM t
      REAL a(100)
      INTEGER i
      DO i = 1, 100
        call s(a)
      ENDDO
      END
      SUBROUTINE s(b)
      REAL b(100)
      RETURN
      END
",
        );
        assert_eq!(v, ConvVerdict::Unknown);
    }

    #[test]
    fn symbolic_bounds_defeat_conventional() {
        let v = verdict(
            "
      PROGRAM t
      REAL a(100)
      INTEGER i, n
      DO i = 1, n
        a(i) = 1.0
      ENDDO
      END
",
        );
        assert_eq!(v, ConvVerdict::Unknown);
    }

    #[test]
    fn private_scalar_ok_conventional() {
        let v = verdict(
            "
      PROGRAM t
      REAL a(100), tmp
      INTEGER i
      DO i = 1, 100
        tmp = 1.0
        a(i) = tmp
      ENDDO
      END
",
        );
        assert_eq!(v, ConvVerdict::Parallel);
    }

    #[test]
    fn exposed_scalar_unknown() {
        let v = verdict(
            "
      PROGRAM t
      REAL a(100), s
      INTEGER i
      DO i = 1, 100
        a(i) = s
        s = a(i)
      ENDDO
      END
",
        );
        assert_eq!(v, ConvVerdict::Unknown);
    }

    #[test]
    fn conditional_scalar_write_unknown() {
        // write under IF does not dominate the read
        let v = verdict(
            "
      PROGRAM t
      REAL a(100), s
      INTEGER i
      DO i = 1, 100
        IF (a(i) .GT. 0.0) s = 1.0
        a(i) = s
      ENDDO
      END
",
        );
        assert_eq!(v, ConvVerdict::Unknown);
    }

    #[test]
    fn parameter_bounds_fold() {
        let v = verdict(
            "
      PROGRAM t
      PARAMETER (n = 50)
      REAL a(100)
      INTEGER i
      DO i = 1, n
        a(i) = 1.0
      ENDDO
      END
",
        );
        assert_eq!(v, ConvVerdict::Parallel);
    }
}
