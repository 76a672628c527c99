//! Routine-level initialization lints (panolint P010–P012).
//!
//! A forward walk over a routine body maintaining, per array, the
//! three-zone region map described in the crate docs (must-defined /
//! may-defined / untouched) plus the joined value component, and a list
//! of *pending* stores whose fate (read vs. overwritten) decides the
//! redundant-store lints.
//!
//! Everything is deliberately conservative in the direction that
//! *suppresses* lints: a GOTO anywhere refuses the whole routine, a
//! CALL havocs the may-defined zone and marks every pending store as
//! read, budget exhaustion stops the walk. A lint only fires from facts
//! proved on the sound side of the approximation.

use crate::conv::{collect_assigned, region_of, to_sym, Ctx};
use crate::lattice::Content;
use fortran::{walk_stmts, Expr as FExpr, LValue, Routine, Stmt, StmtKind, SymbolTable};
use gar::{expand_list, Gar, GarList, LoopCtx};
use pred::Pred;
use region::prove_le;
use std::collections::{BTreeMap, BTreeSet};
use vrange::{Budget, ValueRange};

/// Lint kinds produced by the content pass (panolint code in parens).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LintKind {
    /// An element of a local array is read on a path where no definition
    /// reaches (P010).
    ReadBeforeWrite,
    /// A store is provably overwritten before any read (P011).
    RedundantStore,
    /// A whole initialization loop whose effect is overwritten before
    /// any read (P012).
    DeadInitializationLoop,
}

/// One content lint.
#[derive(Clone, Debug)]
pub struct Lint {
    /// What fired.
    pub kind: LintKind,
    /// 1-based source line the lint anchors to (the read for P010, the
    /// dead store for P011, the DO statement for P012).
    pub line: u32,
    /// Human-readable detail.
    pub message: String,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum PendKind {
    Plain,
    InitLoop,
}

/// A store whose redundancy is still undecided.
struct Pending {
    line: u32,
    array: String,
    region: GarList,
    read: bool,
    kind: PendKind,
    desc: String,
}

const PENDING_CAP: usize = 64;

/// Runs the content lints over one routine. Returns an empty list (not
/// an error) whenever the routine uses control flow the pass refuses.
pub fn lint_routine(r: &Routine, table: &SymbolTable, budget: &Budget) -> Vec<Lint> {
    let _span = trace::span("content:lint");
    let mut has_goto = false;
    walk_stmts(&r.body, &mut |s| {
        has_goto |= matches!(s.kind, StmtKind::Goto(_))
    });
    if has_goto {
        return Vec::new();
    }
    let mut locals: BTreeSet<String> = r.arrays.iter().map(|(n, _)| n.clone()).collect();
    for p in &r.params {
        locals.remove(p);
    }
    for (_, names) in &r.commons {
        for n in names {
            locals.remove(n);
        }
    }
    for group in &r.equivalences {
        for (n, _) in group {
            locals.remove(n);
        }
    }
    let mut w = LintWalk {
        table,
        budget,
        locals,
        loop_vars: BTreeSet::new(),
        consts: BTreeMap::new(),
        may: BTreeMap::new(),
        val: BTreeMap::new(),
        havoc: false,
        stopped: false,
        pending: Vec::new(),
        seen: BTreeSet::new(),
        lints: Vec::new(),
    };
    w.walk(&r.body, 0);
    trace::add("content:lints", w.lints.len() as u64);
    w.lints
}

struct LintWalk<'a> {
    table: &'a SymbolTable,
    budget: &'a Budget,
    locals: BTreeSet<String>,
    loop_vars: BTreeSet<String>,
    consts: BTreeMap<String, i64>,
    /// May-defined regions per array (over-approximation).
    may: BTreeMap<String, GarList>,
    /// Joined value component per array.
    val: BTreeMap<String, Content>,
    /// A CALL happened: anything may be defined from here on.
    havoc: bool,
    stopped: bool,
    pending: Vec<Pending>,
    seen: BTreeSet<(u32, String)>,
    lints: Vec<Lint>,
}

impl LintWalk<'_> {
    fn ctx(&self) -> Ctx<'_> {
        Ctx {
            table: self.table,
            loop_vars: &self.loop_vars,
            consts: &self.consts,
        }
    }

    fn step(&mut self) -> bool {
        if !self.budget.step() {
            self.stopped = true;
        }
        !self.stopped
    }

    /// `depth` counts enclosing conditionals *and* loops: pending
    /// bookkeeping only happens on the unconditional top level.
    fn walk(&mut self, stmts: &[Stmt], depth: usize) {
        for s in stmts {
            if !self.step() {
                return;
            }
            match &s.kind {
                StmtKind::Assign(lv, rhs) => {
                    self.reads_of(rhs, s.line);
                    match lv {
                        LValue::Element(name, subs) => {
                            for sub in subs {
                                self.reads_of(sub, s.line);
                            }
                            if self.table.is_array(name) {
                                let name = name.clone();
                                self.write(&name, subs, rhs, s.line, depth);
                            }
                        }
                        LValue::Var(name) => {
                            let c = if depth == 0 {
                                to_sym(rhs, &self.ctx()).and_then(|e| e.as_const())
                            } else {
                                None
                            };
                            match c {
                                Some(v) => {
                                    self.consts.insert(name.clone(), v);
                                }
                                None => {
                                    self.consts.remove(name);
                                }
                            }
                        }
                    }
                }
                StmtKind::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.reads_of(cond, s.line);
                    self.walk(then_body, depth + 1);
                    self.walk(else_body, depth + 1);
                }
                StmtKind::LogicalIf(cond, inner) => {
                    self.reads_of(cond, s.line);
                    self.walk(std::slice::from_ref(inner), depth + 1);
                }
                StmtKind::Do {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    self.reads_of(lo, s.line);
                    self.reads_of(hi, s.line);
                    if let Some(st) = step {
                        self.reads_of(st, s.line);
                    }
                    self.walk_do(s.line, var, lo, hi, step.as_ref(), body, depth);
                }
                StmtKind::Call(_, args) => {
                    for a in args {
                        self.reads_of(a, s.line);
                    }
                    // The callee may read or define anything.
                    self.havoc = true;
                    for p in &mut self.pending {
                        p.read = true;
                    }
                }
                StmtKind::Return | StmtKind::Stop => {
                    if depth == 0 {
                        // Top-level exit: nothing below executes.
                        self.stopped = true;
                        return;
                    }
                    // A path may leave before any overwrite happens.
                    for p in &mut self.pending {
                        p.read = true;
                    }
                }
                StmtKind::Goto(_) => unreachable!("goto routines are refused up front"),
                StmtKind::Continue => {}
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn walk_do(
        &mut self,
        line: u32,
        var: &str,
        lo: &FExpr,
        hi: &FExpr,
        step: Option<&FExpr>,
        body: &[Stmt],
        depth: usize,
    ) {
        // Scalars reassigned inside lose their tracked constants.
        let mut assigned = BTreeSet::new();
        collect_assigned(body, &mut assigned);
        for n in &assigned {
            self.consts.remove(n);
        }
        self.consts.remove(var);
        let unit = match step {
            None => true,
            Some(s) => to_sym(s, &self.ctx()).and_then(|e| e.as_const()) == Some(1),
        };
        let lo_sym = to_sym(lo, &self.ctx());
        let hi_sym = to_sym(hi, &self.ctx());
        let trip = match (&lo_sym, &hi_sym) {
            (Some(l), Some(h)) => prove_le(&Pred::tru(), l, h),
            _ => false,
        };
        let was = self.loop_vars.insert(var.to_string());

        // Dead-initialization-loop candidate: top-level, provably
        // executing unit loop whose body only stores array elements with
        // array-free right-hand sides.
        let init = depth == 0 && unit && trip && init_stores(body);
        if init {
            if let (Some(l), Some(h)) = (lo_sym.clone(), hi_sym.clone()) {
                let lctx = LoopCtx::new(var, l, h);
                let mut per: BTreeMap<String, (GarList, Content)> = BTreeMap::new();
                let mut all_exact = true;
                for s in body {
                    if let StmtKind::Assign(LValue::Element(name, subs), rhs) = &s.kind {
                        if !self.step() {
                            break;
                        }
                        let region = region_of(subs, &self.ctx());
                        let g = GarList::single(Gar::new(Pred::tru(), region));
                        let expanded = expand_list(&g, &lctx);
                        if !expanded.is_exact() {
                            all_exact = false;
                        }
                        let v = store_value(rhs, &self.ctx());
                        let e = per
                            .entry(name.clone())
                            .or_insert_with(|| (GarList::empty(), Content::Bot));
                        e.0 = e.0.union(&expanded);
                        e.1 = e.1.join(&v);
                    }
                }
                for (name, (region, v)) in per {
                    self.store_region(&name, region.clone(), v.clone());
                    if all_exact && !self.stopped {
                        let desc = match v.value().and_then(ValueRange::as_const) {
                            Some(c) => format!("initializes {name} to {c}"),
                            None => format!("initializes {name}"),
                        };
                        self.overwrite_pendings(&name, &region);
                        self.push_pending(Pending {
                            line,
                            array: name,
                            region,
                            read: false,
                            kind: PendKind::InitLoop,
                            desc,
                        });
                    }
                }
                if !was {
                    self.loop_vars.remove(var);
                }
                return;
            }
        }

        // General loop: fold the loop's whole may-effect in first so
        // loop-carried reads (a(k-1) after a(k) was written in an
        // earlier iteration) never look uninitialized.
        let mut writes: Vec<(String, Vec<FExpr>)> = Vec::new();
        walk_stmts(body, &mut |s| {
            if let StmtKind::Assign(LValue::Element(name, subs), _) = &s.kind {
                if self.table.is_array(name) {
                    writes.push((name.clone(), subs.clone()));
                }
            }
        });
        let lctx = match (&lo_sym, &hi_sym) {
            (Some(l), Some(h)) if unit => Some(LoopCtx::new(var, l.clone(), h.clone())),
            _ => None,
        };
        for (name, subs) in writes {
            if !self.step() {
                break;
            }
            let region = region_of(&subs, &self.ctx());
            let g = GarList::single(Gar::new(Pred::tru(), region));
            let expanded = match &lctx {
                Some(c) => expand_list(&g, c),
                None => GarList::single(Gar::unknown(subs.len())),
            };
            self.store_region(&name, expanded.mark_over(), Content::Defined);
        }
        self.walk(body, depth + 1);
        if !was {
            self.loop_vars.remove(var);
        }
    }

    /// Folds a definition into the may map and value component.
    fn store_region(&mut self, name: &str, region: GarList, v: Content) {
        let e = self
            .may
            .entry(name.to_string())
            .or_insert_with(GarList::empty);
        *e = e.union(&region);
        let cur = self.val.entry(name.to_string()).or_insert(Content::Bot);
        *cur = cur.join(&v);
    }

    fn push_pending(&mut self, p: Pending) {
        if self.pending.len() < PENDING_CAP {
            self.pending.push(p);
        }
    }

    /// A new must-store of `region` into `name`: every unread pending
    /// store it fully covers was dead.
    fn overwrite_pendings(&mut self, name: &str, region: &GarList) {
        let mut fired = Vec::new();
        self.pending.retain(|p| {
            if p.array == name && !p.read && p.region.subtract(region).definitely_empty() {
                fired.push((p.kind, p.line, p.desc.clone(), p.region.clone()));
                false
            } else {
                true
            }
        });
        for (kind, line, desc, reg) in fired {
            match kind {
                PendKind::Plain => self.emit(
                    LintKind::RedundantStore,
                    line,
                    format!("store to {name}[{reg}] is overwritten before it is ever read"),
                ),
                PendKind::InitLoop => self.emit(
                    LintKind::DeadInitializationLoop,
                    line,
                    format!("{desc}, but every element is overwritten before any read"),
                ),
            }
        }
    }

    fn write(&mut self, name: &str, subs: &[FExpr], rhs: &FExpr, line: u32, depth: usize) {
        if !self.step() {
            return;
        }
        let region = region_of(subs, &self.ctx());
        let exact = region.is_exact();
        let v = store_value(rhs, &self.ctx());
        let g = GarList::single(Gar::new(Pred::tru(), region));
        if depth == 0 && exact {
            self.overwrite_pendings(name, &g);
            self.push_pending(Pending {
                line,
                array: name.to_string(),
                region: g.clone(),
                read: false,
                kind: PendKind::Plain,
                desc: String::new(),
            });
            self.store_region(name, g, v);
        } else {
            // Conditional or inexact: may only.
            self.store_region(name, g.mark_over(), v);
        }
    }

    fn reads_of(&mut self, e: &FExpr, line: u32) {
        match e {
            FExpr::Index(name, subs) => {
                for s in subs {
                    self.reads_of(s, line);
                }
                if self.table.is_array(name) {
                    let name = name.clone();
                    let subs = subs.clone();
                    self.read(&name, &subs, line);
                }
            }
            FExpr::Bin(_, a, b) => {
                self.reads_of(a, line);
                self.reads_of(b, line);
            }
            FExpr::Un(_, a) => self.reads_of(a, line),
            _ => {}
        }
    }

    fn read(&mut self, name: &str, subs: &[FExpr], line: u32) {
        if !self.step() {
            return;
        }
        let region = region_of(subs, &self.ctx());
        let g = GarList::single(Gar::new(Pred::tru(), region.clone()));
        // Pending stores the read may observe are no longer dead.
        for p in &mut self.pending {
            if p.array == name && !g.intersect(&p.region).definitely_empty() {
                p.read = true;
            }
        }
        // P010: a local array read with no reaching definition.
        if !self.havoc && self.locals.contains(name) {
            let defined = self
                .may
                .get(name)
                .map(|m| !g.intersect(m).definitely_empty())
                .unwrap_or(false);
            if !defined {
                self.emit(
                    LintKind::ReadBeforeWrite,
                    line,
                    format!("{name}{region} is read before any element is written"),
                );
            }
        }
    }

    fn emit(&mut self, kind: LintKind, line: u32, message: String) {
        let key = (line, message.clone());
        if self.seen.insert(key) {
            self.lints.push(Lint {
                kind,
                line,
                message,
            });
        }
    }
}

/// `true` when every statement is an array-element store whose
/// right-hand side reads no array and calls no function.
fn init_stores(stmts: &[Stmt]) -> bool {
    stmts.iter().all(|s| match &s.kind {
        StmtKind::Assign(LValue::Element(..), _) => {
            let mut reads_index = false;
            s.exprs(&mut |e| e.walk(&mut |x| reads_index |= matches!(x, FExpr::Index(..))));
            !reads_index
        }
        StmtKind::Continue => true,
        _ => false,
    })
}

/// The abstract content a store's right-hand side puts into the array.
fn store_value(rhs: &FExpr, ctx: &Ctx) -> Content {
    match rhs {
        FExpr::Int(v) => Content::defined_const(ValueRange::constant(*v)),
        FExpr::Real(_) | FExpr::Logical(_) => Content::Defined,
        _ => match to_sym(rhs, ctx).and_then(|e| e.as_const()) {
            Some(c) => Content::defined_const(ValueRange::constant(c)),
            None => Content::Defined,
        },
    }
}
