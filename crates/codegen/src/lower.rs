//! Lowering selected clauses to an executable [`interp::LoopPlan`].
//!
//! The interpreter's threaded executor keys its [`interp::ParallelPlan`]
//! by `(routine, index var, line)`, so routines with several `DO`
//! statements on the same index variable lower without ambiguity — the
//! plan entry fires only on the verified loop.
//!
//! One refusal keeps the differential byte-exact: REAL-typed reductions
//! (sum or product) — partial reassociation is not byte-stable in
//! floating point (the directive still carries `REDUCTION(+:s)` or
//! `REDUCTION(*:s)`; a real OpenMP compiler accepts the same
//! tolerance). INTEGER reductions of either operator are exact under
//! wrapping arithmetic and are planned.

use crate::clauses::Clauses;
use fortran::{Routine, SymbolKind, SymbolTable, Ty};
use interp::LoopPlan;
use privatize::{LoopVerdict, ProvEntry};

/// Tries to lower one loop's clauses to an executable plan. Returns the
/// plan, or `None` with a human-readable note naming the refusal. Either
/// way a `lower` provenance entry is appended.
pub fn lower(
    v: &LoopVerdict,
    clauses: &Clauses,
    _routine: &Routine,
    table: &SymbolTable,
    prov: &mut Vec<ProvEntry>,
) -> (Option<LoopPlan>, Option<String>) {
    let refuse = |prov: &mut Vec<ProvEntry>, note: String| {
        prov.push(ProvEntry {
            op: "lower".to_string(),
            subject: String::new(),
            detail: note.clone(),
            result: "not_planned".to_string(),
        });
        (None, Some(note))
    };

    if let Some(s) = clauses
        .reduction_add
        .iter()
        .chain(&clauses.reduction_mul)
        .find(|s| scalar_ty(table, s) == Some(Ty::Real))
    {
        return refuse(
            prov,
            format!("REAL reduction {s}: parallel partial reassociation is not byte-stable"),
        );
    }

    // Split the name lists by kind; LASTPRIVATE arrays not already
    // FIRSTPRIVATE still need a private (zero-initialized) copy.
    let is_array = |n: &String| table.is_array(n);
    let firstprivate: Vec<String> = clauses.firstprivate.clone();
    let mut private_arrays: Vec<String> = clauses
        .private
        .iter()
        .filter(|n| is_array(n))
        .cloned()
        .collect();
    for n in clauses.lastprivate.iter().filter(|n| is_array(n)) {
        if !firstprivate.contains(n) && !private_arrays.contains(n) {
            private_arrays.push(n.clone());
        }
    }
    let copy_out: Vec<String> = clauses
        .lastprivate
        .iter()
        .filter(|n| is_array(n))
        .cloned()
        .collect();
    let mut private_scalars: Vec<String> = clauses
        .private
        .iter()
        .filter(|n| !is_array(n))
        .cloned()
        .collect();
    let scalar_copy_out: Vec<String> = clauses
        .lastprivate
        .iter()
        .filter(|n| !is_array(n))
        .cloned()
        .collect();
    for s in &scalar_copy_out {
        if !private_scalars.contains(s) {
            private_scalars.push(s.clone());
        }
    }

    prov.push(ProvEntry {
        op: "lower".to_string(),
        subject: String::new(),
        detail: format!(
            "plan key ({}, {}, {}); private arrays [{}], firstprivate [{}], copy-out [{}], \
             private scalars [{}], scalar copy-out [{}], reductions [{}]",
            v.routine,
            v.var,
            v.line,
            private_arrays.join(", "),
            firstprivate.join(", "),
            copy_out.join(", "),
            private_scalars.join(", "),
            scalar_copy_out.join(", "),
            clauses
                .reduction_add
                .iter()
                .chain(&clauses.reduction_mul)
                .cloned()
                .collect::<Vec<_>>()
                .join(", "),
        ),
        result: "planned".to_string(),
    });
    (
        Some(LoopPlan {
            private_arrays,
            firstprivate,
            private_scalars,
            copy_out,
            scalar_copy_out,
            sum_reductions: clauses.reduction_add.clone(),
            mul_reductions: clauses.reduction_mul.clone(),
        }),
        None,
    )
}

/// Declared type of a scalar (None for arrays/constants/undeclared).
fn scalar_ty(table: &SymbolTable, name: &str) -> Option<Ty> {
    match table.get(name) {
        Some(SymbolKind::Scalar(t)) => Some(*t),
        _ => None,
    }
}
