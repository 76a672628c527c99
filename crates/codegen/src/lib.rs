//! panogen — the parallel-code emission backend (DESIGN.md §4h).
//!
//! Consumes privatization verdicts ([`privatize::LoopVerdict`]) together
//! with the dependence sets behind them ([`dataflow::LoopAnalysis`]) and
//! turns every parallelizable loop into parallel code, two ways at once:
//!
//! * **annotated Fortran** — the program re-printed with `!$OMP PARALLEL
//!   DO` directives whose `PRIVATE` / `FIRSTPRIVATE` / `LASTPRIVATE` /
//!   `REDUCTION` clauses come from the verdict and the UE/MOD sets
//!   ([`clauses`], [`emit`]);
//! * **an executable [`interp::ParallelPlan`]** — the same clause
//!   choices lowered to the interpreter's threaded executor ([`lower`]),
//!   so a wrong clause is not a style nit but a differential failure
//!   against sequential execution.
//!
//! Loops the backend does not transform surface as structured
//! [`SkipDiag`]s rather than silently dropping: synthetic loops (no
//! source location), serial verdicts, budget-degraded verdicts, and
//! loops nested inside an already-parallelized ancestor. A transformed
//! loop whose plan could not be lowered (REAL-typed reduction) still
//! carries its directive; `planned` is false and `plan_note` says why.
//!
//! Every decision is traced: the whole pass runs under a `codegen` span,
//! each loop under `codegen:<loop-id>`, and each [`LoopTransform`]
//! carries `clause`/`lower`/`emit` provenance entries in the same
//! [`ProvEntry`] schema the verdicts use.

#![warn(missing_docs)]

pub mod clauses;
pub mod emit;
pub mod lower;

pub use clauses::Clauses;

use dataflow::LoopAnalysis;
use emit::DirectiveMap;
use fortran::{Program, ProgramSema, Routine, Stmt, StmtKind};
use interp::ParallelPlan;
use privatize::{LoopVerdict, ProvEntry};
use serde::Serialize;
use std::collections::BTreeMap;
use trace::ledger::{self, Cause, Site};

/// Why a loop was left untransformed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkipReason {
    /// The verdict has no source location (`line == 0`): the loop was
    /// synthesized by a harness, and a directive cannot anchor to it.
    Synthetic,
    /// The verdict is serial — the blockers are listed in the detail.
    Serial,
    /// The verdict came from a budget-degraded (widened) analysis.
    /// Degraded verdicts are sound, but panogen only transforms loops
    /// proved parallel at full precision.
    Degraded,
    /// The loop is nested inside a loop already being parallelized;
    /// the executor does not nest parallel regions.
    Nested,
}

impl SkipReason {
    /// Stable lower-case name for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            SkipReason::Synthetic => "synthetic",
            SkipReason::Serial => "serial",
            SkipReason::Degraded => "degraded",
            SkipReason::Nested => "nested",
        }
    }
}

impl Serialize for SkipReason {
    /// Serializes as the stable lower-case name, matching
    /// [`SkipDiag::render`] and the DESIGN.md §4h schema.
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

/// A structured "this loop was not transformed" diagnostic.
#[derive(Clone, Debug, Serialize)]
pub struct SkipDiag {
    /// Stable loop id (`routine/do var#sg`).
    pub id: String,
    /// Enclosing routine.
    pub routine: String,
    /// Loop index variable.
    pub var: String,
    /// 1-based source line of the DO statement (0 = synthetic).
    pub line: u32,
    /// Why the loop was skipped.
    pub reason: SkipReason,
    /// Human-readable elaboration (e.g. the blocker list).
    pub detail: String,
}

impl SkipDiag {
    /// One-line rendering for stderr reports.
    pub fn render(&self) -> String {
        format!(
            "skip {} [{}]: {}",
            self.id,
            self.reason.as_str(),
            self.detail
        )
    }
}

/// One transformed loop.
#[derive(Clone, Debug, Serialize)]
pub struct LoopTransform {
    /// Stable loop id (`routine/do var#sg`).
    pub id: String,
    /// Enclosing routine.
    pub routine: String,
    /// Loop index variable.
    pub var: String,
    /// 1-based source line of the DO statement.
    pub line: u32,
    /// Selected data-sharing clauses.
    pub clauses: Clauses,
    /// The emitted `!$OMP PARALLEL DO …` directive line.
    pub directive: String,
    /// Whether the loop was also lowered into the executable plan.
    pub planned: bool,
    /// Why lowering was refused, when `planned` is false.
    pub plan_note: Option<String>,
    /// The transformation decision trace (`clause`/`lower`/`emit` ops),
    /// in the verdict-provenance schema.
    pub provenance: Vec<ProvEntry>,
}

/// The complete result of the emission backend on one program.
pub struct Transform {
    /// Transformed loops, in (routine, source line) order.
    pub loops: Vec<LoopTransform>,
    /// Structured diagnostics for every untransformed loop verdict.
    pub skipped: Vec<SkipDiag>,
    /// The executable plan covering every `planned` loop.
    pub plan: ParallelPlan,
    /// The OpenMP-annotated source (reparses to the original AST).
    pub source: String,
}

impl Transform {
    /// The transform record for a loop, by routine and index variable
    /// (outermost first, mirroring `Analysis::verdict`).
    pub fn loop_transform(&self, routine: &str, var: &str) -> Option<&LoopTransform> {
        self.loops
            .iter()
            .find(|t| t.routine == routine && t.var == var)
    }

    /// Machine-readable report: transformed loops, skip diagnostics,
    /// planned-loop count and the annotated source. The executable plan
    /// itself is not serialized — `loops[].planned` plus the `lower`
    /// provenance entries record everything it contains.
    pub fn json(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("loops".to_string(), self.loops.to_json_value()),
            ("skipped".to_string(), self.skipped.to_json_value()),
            (
                "planned".to_string(),
                serde::Value::UInt(self.loops.iter().filter(|t| t.planned).count() as u64),
            ),
            ("source".to_string(), serde::Value::Str(self.source.clone())),
        ])
    }
}

/// Records one skip diagnostic: the trace counter, the `lower_skip`
/// precision event (ledger entry and span event in one) and the
/// structured [`SkipDiag`].
fn skip(out: &mut Transform, diag: SkipDiag) {
    trace::add("codegen_skipped", 1);
    ledger::record(Cause::LowerSkip, || {
        Site::routine(diag.routine.clone())
            .var(diag.var.clone())
            .line(diag.line)
            .detail(format!("{}: {}", diag.reason.as_str(), diag.detail))
    });
    out.skipped.push(diag);
}

/// Runs the emission backend: clause selection, plan lowering and
/// directive emission for every parallelizable loop of the analysis.
pub fn transform(
    program: &Program,
    sema: &ProgramSema,
    loops: &[LoopAnalysis],
    verdicts: &[LoopVerdict],
) -> Transform {
    let _span = trace::span("codegen");
    let by_id: BTreeMap<String, &LoopAnalysis> = loops.iter().map(|la| (la.id(), la)).collect();
    let vmap: BTreeMap<(String, u32, String), &LoopVerdict> = verdicts
        .iter()
        .filter(|v| v.line > 0)
        .map(|v| ((v.routine.clone(), v.line, v.var.clone()), v))
        .collect();

    let mut out = Transform {
        loops: Vec::new(),
        skipped: Vec::new(),
        plan: ParallelPlan::new(),
        source: String::new(),
    };
    let mut directives = DirectiveMap::new();

    // Synthetic loops can never anchor a directive.
    for v in verdicts.iter().filter(|v| v.line == 0) {
        skip(
            &mut out,
            SkipDiag {
                id: v.id.clone(),
                routine: v.routine.clone(),
                var: v.var.clone(),
                line: 0,
                reason: SkipReason::Synthetic,
                detail: "no source location (line 0): harness-synthesized loop".to_string(),
            },
        );
    }

    for r in &program.routines {
        let table = &sema.tables[&r.name];
        walk(
            &r.body,
            r,
            table,
            &vmap,
            &by_id,
            None,
            &mut out,
            &mut directives,
        );
    }

    out.source = emit::emit(program, &directives);
    trace::add("codegen_emitted_bytes", out.source.len() as u64);
    out
}

/// Recursive outermost-first selection walk over one routine's body.
/// `enclosing` carries the id of the nearest transformed ancestor loop.
#[allow(clippy::too_many_arguments)]
fn walk(
    stmts: &[Stmt],
    r: &Routine,
    table: &fortran::SymbolTable,
    vmap: &BTreeMap<(String, u32, String), &LoopVerdict>,
    by_id: &BTreeMap<String, &LoopAnalysis>,
    enclosing: Option<&str>,
    out: &mut Transform,
    directives: &mut DirectiveMap,
) {
    for s in stmts {
        match &s.kind {
            StmtKind::Do { var, body, .. } => {
                let key = (r.name.clone(), s.line, var.clone());
                let verdict = vmap.get(&key).copied();
                let mut inner_enclosing = enclosing;
                if let Some(v) = verdict {
                    if let Some(parent) = enclosing {
                        skip(
                            out,
                            SkipDiag {
                                id: v.id.clone(),
                                routine: v.routine.clone(),
                                var: v.var.clone(),
                                line: v.line,
                                reason: SkipReason::Nested,
                                detail: format!("inside parallelized loop {parent}"),
                            },
                        );
                    } else if v.degraded {
                        skip(
                            out,
                            SkipDiag {
                                id: v.id.clone(),
                                routine: v.routine.clone(),
                                var: v.var.clone(),
                                line: v.line,
                                reason: SkipReason::Degraded,
                                detail: "verdict from budget-degraded (widened) analysis"
                                    .to_string(),
                            },
                        );
                    } else if !v.parallel_after_privatization {
                        skip(
                            out,
                            SkipDiag {
                                id: v.id.clone(),
                                routine: v.routine.clone(),
                                var: v.var.clone(),
                                line: v.line,
                                reason: SkipReason::Serial,
                                detail: format!("blockers: {:?}", v.blockers),
                            },
                        );
                    } else {
                        let t = transform_loop(v, by_id, r, table, body, out);
                        directives.insert(key, t.directive.clone());
                        inner_enclosing = Some(&v.id);
                        out.loops.push(t);
                    }
                }
                walk(
                    body,
                    r,
                    table,
                    vmap,
                    by_id,
                    inner_enclosing,
                    out,
                    directives,
                );
            }
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                walk(then_body, r, table, vmap, by_id, enclosing, out, directives);
                walk(else_body, r, table, vmap, by_id, enclosing, out, directives);
            }
            StmtKind::LogicalIf(_, inner) => {
                walk(
                    std::slice::from_ref(&**inner),
                    r,
                    table,
                    vmap,
                    by_id,
                    enclosing,
                    out,
                    directives,
                );
            }
            _ => {}
        }
    }
}

/// Transforms one chosen loop: selects clauses, tries to lower the plan,
/// renders the directive and records provenance.
fn transform_loop(
    v: &LoopVerdict,
    by_id: &BTreeMap<String, &LoopAnalysis>,
    r: &Routine,
    table: &fortran::SymbolTable,
    body: &[Stmt],
    out: &mut Transform,
) -> LoopTransform {
    let _span = trace::span_with(|| format!("codegen:{}", v.id));
    trace::add("codegen_transformed", 1);
    let mut prov = Vec::new();
    let la = by_id.get(&v.id).copied();
    let c = match la {
        Some(la) => clauses::select(v, la, r, table, body, &mut prov),
        // Without the dependence sets (should not happen — every verdict
        // has a LoopAnalysis) fall back to copy-in-everything, which is
        // always sound.
        None => Clauses {
            firstprivate: v.privatized.clone(),
            lastprivate: v.private_scalars.clone(),
            reduction_add: v.reductions.clone(),
            ..Clauses::default()
        },
    };
    let (plan, note) = lower::lower(v, &c, r, table, &mut prov);
    let planned = plan.is_some();
    if let Some(p) = plan {
        trace::add("codegen_planned", 1);
        out.plan.add(&v.routine, &v.var, v.line, p);
    } else {
        ledger::record(Cause::LowerSkip, || {
            Site::routine(v.routine.clone())
                .var(v.var.clone())
                .line(v.line)
                .detail(format!(
                    "directive emitted but plan not lowered: {}",
                    note.as_deref().unwrap_or("no lowering note")
                ))
        });
    }
    let directive = c.directive();
    prov.push(ProvEntry {
        op: "emit".to_string(),
        subject: String::new(),
        detail: format!("line {}", v.line),
        result: "annotated".to_string(),
    });
    LoopTransform {
        id: v.id.clone(),
        routine: v.routine.clone(),
        var: v.var.clone(),
        line: v.line,
        clauses: c,
        directive,
        planned,
        plan_note: note,
        provenance: prov,
    }
}
