//! The sequential interpreter.

use crate::error::RuntimeError;
use crate::memory::{resolve_dims, ArrayStore, Memory, Value};
use crate::parallel::{run_planned_do, ParallelPlan};
use crate::trace::{LoopTrace, Tracer};
use fortran::{BinOp, Expr, LValue, Program, ProgramSema, Routine, Stmt, StmtKind, Ty, UnOp};
use std::collections::BTreeMap;

/// Execution statistics.
#[derive(Clone, Debug, Default)]
pub struct ExecStats {
    /// Abstract operations executed (statements + expression nodes).
    pub ops: u64,
    /// Per-iteration operation counts of the *hooked* loop (used by the
    /// speedup simulation).
    pub iter_ops: Vec<u64>,
    /// Iterations of planned loops completed on worker threads.
    pub parallel_iterations: u64,
    /// Planned-loop instances (trip count > 0) run across threads.
    pub forked_instances: u64,
    /// Planned-loop instances (trip count > 0) the cut-off ran on the
    /// calling thread instead: their counted work would not have repaid
    /// the threads. Always 0 from [`Machine::run_parallel_checked`].
    pub declined_instances: u64,
}

/// Statement/expression flow control.
pub(crate) enum Flow {
    Normal,
    Goto(u32),
    Return,
    Stop,
}

/// A routine activation: scalar cells and array bindings.
#[derive(Clone, Debug, Default)]
pub(crate) struct Frame {
    pub scalars: BTreeMap<String, Value>,
    /// name → (memory handle, view dims for subscripting).
    pub arrays: BTreeMap<String, (usize, Vec<(i64, i64)>)>,
}

/// Shared run state.
pub(crate) struct RunState<'p> {
    pub mem: Memory,
    pub stats: ExecStats,
    /// COMMON array storage by name.
    pub commons: BTreeMap<String, usize>,
    /// Operation budget: the run fails once `stats.ops` exceeds it (guards
    /// against goto cycles).
    pub budget: u64,
    /// Parallel plan, if any.
    pub plan: Option<&'p ParallelPlan>,
    /// Threads for the parallel executor.
    pub nthreads: usize,
    /// Fork every planned instance, whatever it costs (the checking
    /// reference, [`Machine::run_parallel_checked`]).
    pub always_fork: bool,
    /// The fork cut-off's memo, one slot per plan entry: counted ops per
    /// iteration of that loop's latest instance in this run.
    pub ops_per_iter: Vec<Option<u64>>,
    /// Loop being instrumented for per-iteration costs:
    /// `(routine, var, line)`. A `Some` line restricts the hook to the
    /// DO statement on that 1-based source line, disambiguating loops
    /// that share an index variable.
    pub hook: Option<(String, String, Option<u32>)>,
    /// Are we currently inside the hooked/parallel loop (no nesting)?
    pub in_target: bool,
    /// Shadow-memory recorder for the race oracle (traced runs only).
    pub tracer: Option<Tracer>,
}

/// Default per-run operation budget: large enough for every benchmark
/// kernel, small enough that a runaway backward-goto cycle fails fast.
pub const DEFAULT_OP_BUDGET: u64 = 50_000_000;

/// The interpreter, bound to a parsed + semantically checked program.
pub struct Machine<'a> {
    pub(crate) program: &'a Program,
    pub(crate) sema: &'a ProgramSema,
    budget: u64,
}

impl<'a> Machine<'a> {
    /// Creates a machine with the default operation budget.
    pub fn new(program: &'a Program, sema: &'a ProgramSema) -> Self {
        Machine {
            program,
            sema,
            budget: DEFAULT_OP_BUDGET,
        }
    }

    /// Creates a machine with an explicit operation budget. Exhausting
    /// it fails the run with a [`RuntimeError`] whose kind is
    /// [`crate::ErrorKind::BudgetExceeded`].
    pub fn with_budget(program: &'a Program, sema: &'a ProgramSema, budget: u64) -> Self {
        Machine {
            program,
            sema,
            budget,
        }
    }

    /// Runs the PROGRAM unit sequentially. Returns final memory and stats.
    pub fn run(&self) -> Result<(Memory, ExecStats), RuntimeError> {
        let (mem, stats, _) = self.run_with(None, None, false)?;
        Ok((mem, stats))
    }

    /// Runs with a per-iteration instrumentation hook on the loop
    /// `(routine, var)`.
    pub fn run_hooked(
        &self,
        routine: &str,
        var: &str,
    ) -> Result<(Memory, ExecStats), RuntimeError> {
        let hook = Some((routine.to_string(), var.to_string(), None));
        let (mem, stats, _) = self.run_with(None, hook, false)?;
        Ok((mem, stats))
    }

    /// Runs sequentially with shadow-memory tracing on the loop
    /// `(routine, var)`: every array-element access inside the loop is
    /// recorded and cross-iteration conflicts are classified. This is
    /// the dynamic race oracle used to validate static verdicts.
    pub fn run_traced(
        &self,
        routine: &str,
        var: &str,
    ) -> Result<(Memory, ExecStats, LoopTrace), RuntimeError> {
        self.run_traced_at(routine, var, None)
    }

    /// Like [`Machine::run_traced`], but when `line` is `Some` only the
    /// DO statement on that 1-based source line is traced — this picks
    /// one loop out of several sharing an index variable.
    pub fn run_traced_at(
        &self,
        routine: &str,
        var: &str,
        line: Option<u32>,
    ) -> Result<(Memory, ExecStats, LoopTrace), RuntimeError> {
        let hook = Some((routine.to_string(), var.to_string(), line));
        let (mem, stats, trace) = self.run_with(None, hook, true)?;
        Ok((mem, stats, trace.expect("traced run always yields a trace")))
    }

    /// Runs with a parallel plan (see [`ParallelPlan`]), forking a planned
    /// loop's instance only when that pays: the first instance in the run
    /// always, a later one iff the work counted in the previous instances
    /// outweighs the threads (crate docs, "When the executor forks"). The
    /// decisions depend only on the program, the plan and `nthreads`.
    pub fn run_parallel(
        &self,
        plan: &ParallelPlan,
        nthreads: usize,
    ) -> Result<(Memory, ExecStats), RuntimeError> {
        let (mem, stats, _) = self.run_with(Some((plan, nthreads, false)), None, false)?;
        Ok((mem, stats))
    }

    /// [`Machine::run_parallel`] without the cut-off: every instance of
    /// every planned loop forks. This is the reference the differential
    /// suites run, so a clause that is only wrong on a small loop's 2nd…Nth
    /// instance still changes the result.
    pub fn run_parallel_checked(
        &self,
        plan: &ParallelPlan,
        nthreads: usize,
    ) -> Result<(Memory, ExecStats), RuntimeError> {
        let (mem, stats, _) = self.run_with(Some((plan, nthreads, true)), None, false)?;
        Ok((mem, stats))
    }

    /// `parallel` is `(plan, nthreads, always_fork)`.
    fn run_with(
        &self,
        parallel: Option<(&ParallelPlan, usize, bool)>,
        hook: Option<(String, String, Option<u32>)>,
        traced: bool,
    ) -> Result<(Memory, ExecStats, Option<LoopTrace>), RuntimeError> {
        let (plan, nthreads, always_fork) = match parallel {
            Some((plan, nthreads, always_fork)) => (Some(plan), nthreads, always_fork),
            None => (None, 1, false),
        };
        let main = self
            .program
            .main()
            .ok_or_else(|| RuntimeError::new("?", "no PROGRAM unit"))?;
        let mut st = RunState {
            mem: Memory::default(),
            stats: ExecStats::default(),
            commons: BTreeMap::new(),
            budget: self.budget,
            plan,
            nthreads: nthreads.max(1),
            always_fork,
            ops_per_iter: vec![None; plan.map_or(0, ParallelPlan::len)],
            hook,
            in_target: false,
            tracer: traced.then(Tracer::new),
        };
        let mut frame = self.enter_frame(main, &[], &mut st)?;
        self.exec_body(main, &main.body, &mut frame, &mut st)?;
        let trace = st.tracer.take().map(|t| {
            let (r, v, _) = st.hook.as_ref().expect("traced runs set a hook");
            t.finish(r, v)
        });
        Ok((st.mem, st.stats, trace))
    }

    /// Builds a frame: allocates locals and COMMON arrays, binds params.
    pub(crate) fn enter_frame(
        &self,
        r: &Routine,
        args: &[Binding],
        st: &mut RunState,
    ) -> Result<Frame, RuntimeError> {
        let table = &self.sema.tables[&r.name];
        let mut frame = Frame::default();
        // Scalars default to zero of their type.
        for (name, kind) in table.iter() {
            if let fortran::SymbolKind::Scalar(ty) = kind {
                frame.scalars.insert(name.to_string(), Value::zero(*ty));
            }
        }
        // Bind scalar arguments first: adjustable array declarators
        // (`REAL b(n, 2)`) may reference scalar dummies in any position.
        for (k, p) in r.params.iter().enumerate() {
            if let Some(Binding::Scalar(v)) = args.get(k) {
                frame.scalars.insert(p.clone(), *v);
            }
        }
        for (k, p) in r.params.iter().enumerate() {
            match args.get(k) {
                Some(Binding::Scalar(_)) => {}
                Some(Binding::Array(handle, caller_dims)) => {
                    // View dims: the callee's own declarators when they
                    // resolve; otherwise the caller's.
                    let dims = match table.array(p) {
                        Some(info) => {
                            let total: i64 = caller_dims
                                .iter()
                                .map(|&(l, u)| (u - l + 1).max(0))
                                .product();
                            resolve_dims(&info.dims, |e| self.const_like(e, &frame, st), total)
                                .unwrap_or_else(|| caller_dims.clone())
                        }
                        None => caller_dims.clone(),
                    };
                    frame.arrays.insert(p.clone(), (*handle, dims));
                }
                None => {}
            }
        }
        // Allocate local and COMMON arrays.
        for (name, dims_decl) in &r.arrays {
            if frame.arrays.contains_key(name) {
                continue; // parameter, already bound
            }
            let info = table.array(name).expect("declared array");
            let dims = resolve_dims(&dims_decl.clone(), |e| self.const_like(e, &frame, st), 1)
                .ok_or_else(|| {
                    RuntimeError::new(&r.name, format!("cannot size local array {name}"))
                })?;
            let handle = if info.common.is_some() {
                match st.commons.get(name) {
                    Some(&h) => h,
                    None => {
                        let h = st.mem.alloc(ArrayStore::new(info.ty, dims.clone()));
                        st.commons.insert(name.clone(), h);
                        h
                    }
                }
            } else {
                st.mem.alloc(ArrayStore::new(info.ty, dims.clone()))
            };
            frame.arrays.insert(name.clone(), (handle, dims));
        }
        Ok(frame)
    }

    /// Evaluates constant-like expressions for array sizing (PARAMETERs and
    /// already-bound integer scalars).
    fn const_like(&self, e: &Expr, frame: &Frame, _st: &RunState) -> Option<i64> {
        match e {
            Expr::Int(v) => Some(*v),
            Expr::Var(n) => match frame.scalars.get(n) {
                Some(Value::Int(v)) => Some(*v),
                _ => None,
            },
            Expr::Bin(op, a, b) => {
                let (a, b) = (
                    self.const_like(a, frame, _st)?,
                    self.const_like(b, frame, _st)?,
                );
                match op {
                    BinOp::Add => a.checked_add(b),
                    BinOp::Sub => a.checked_sub(b),
                    BinOp::Mul => a.checked_mul(b),
                    _ => None,
                }
            }
            Expr::Un(UnOp::Neg, a) => Some(-self.const_like(a, frame, _st)?),
            _ => None,
        }
    }

    /// Executes a statement list, resolving local GOTOs.
    pub(crate) fn exec_body(
        &self,
        r: &Routine,
        body: &[Stmt],
        frame: &mut Frame,
        st: &mut RunState,
    ) -> Result<Flow, RuntimeError> {
        let mut i = 0usize;
        while i < body.len() {
            match self.exec_stmt(r, &body[i], frame, st)? {
                Flow::Normal => i += 1,
                Flow::Goto(l) => match body.iter().position(|s| s.label == Some(l)) {
                    Some(j) => i = j,
                    None => return Ok(Flow::Goto(l)),
                },
                f @ (Flow::Return | Flow::Stop) => return Ok(f),
            }
        }
        Ok(Flow::Normal)
    }

    fn charge(&self, r: &Routine, st: &mut RunState, n: u64) -> Result<(), RuntimeError> {
        st.stats.ops += n;
        if st.stats.ops > st.budget {
            return Err(RuntimeError::budget_exceeded(&r.name));
        }
        Ok(())
    }

    pub(crate) fn exec_stmt(
        &self,
        r: &Routine,
        s: &Stmt,
        frame: &mut Frame,
        st: &mut RunState,
    ) -> Result<Flow, RuntimeError> {
        self.charge(r, st, 1)?;
        if let Some(tr) = st.tracer.as_mut() {
            tr.set_line(s.line);
        }
        match &s.kind {
            StmtKind::Assign(lhs, rhs) => {
                let v = self.eval(r, rhs, frame, st)?;
                self.store(r, lhs, v, frame, st)?;
                Ok(Flow::Normal)
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(r, cond, frame, st)?.as_bool();
                if c {
                    self.exec_body(r, then_body, frame, st)
                } else {
                    self.exec_body(r, else_body, frame, st)
                }
            }
            StmtKind::LogicalIf(cond, inner) => {
                let c = self.eval(r, cond, frame, st)?.as_bool();
                if c {
                    self.exec_stmt(r, inner, frame, st)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => self.exec_do(r, var, s.line, lo, hi, step.as_ref(), body, frame, st),
            StmtKind::Goto(l) => Ok(Flow::Goto(*l)),
            StmtKind::Call(name, args) => {
                self.exec_call(r, name, args, frame, st)?;
                Ok(Flow::Normal)
            }
            StmtKind::Return => Ok(Flow::Return),
            StmtKind::Continue => Ok(Flow::Normal),
            StmtKind::Stop => Ok(Flow::Stop),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_do(
        &self,
        r: &Routine,
        var: &str,
        line: u32,
        lo: &Expr,
        hi: &Expr,
        step: Option<&Expr>,
        body: &[Stmt],
        frame: &mut Frame,
        st: &mut RunState,
    ) -> Result<Flow, RuntimeError> {
        let lo = self.eval(r, lo, frame, st)?.as_i64();
        let hi = self.eval(r, hi, frame, st)?.as_i64();
        let step = match step {
            Some(s) => self.eval(r, s, frame, st)?.as_i64(),
            None => 1,
        };
        if step == 0 {
            return Err(RuntimeError::new(&r.name, "zero DO step"));
        }
        let trips = if step > 0 {
            ((hi - lo) / step + 1).max(0)
        } else {
            ((lo - hi) / (-step) + 1).max(0)
        };

        // Parallel or instrumented execution of the designated loop?
        if !st.in_target {
            if let Some((slot, plan)) = st.plan.and_then(|p| p.lookup(&r.name, var, line)) {
                return run_planned_do(self, r, var, lo, step, trips, body, frame, st, slot, plan);
            }
        }
        let is_target = !st.in_target
            && st.hook.as_ref().is_some_and(|(hr, hv, hline)| {
                hr == &r.name && hv == var && hline.is_none_or(|l| l == line)
            });
        self.run_do(r, var, lo, step, trips, body, is_target, frame, st)
    }

    /// The sequential loop, on the calling thread; `is_target` marks the
    /// hooked loop (per-iteration costs, race tracing).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_do(
        &self,
        r: &Routine,
        var: &str,
        lo: i64,
        step: i64,
        trips: i64,
        body: &[Stmt],
        is_target: bool,
        frame: &mut Frame,
        st: &mut RunState,
    ) -> Result<Flow, RuntimeError> {
        if is_target {
            if let Some(tr) = st.tracer.as_mut() {
                // Register the loop routine's own bindings so witnesses
                // carry these names rather than callee dummy names.
                tr.enter_loop(frame);
            }
        }

        let mut iv = lo;
        for _t in 0..trips {
            frame.scalars.insert(var.to_string(), Value::Int(iv));
            let before = st.stats.ops;
            let prev = st.in_target;
            if is_target {
                st.in_target = true;
                if let Some(tr) = st.tracer.as_mut() {
                    tr.begin_iter(iv);
                }
            }
            let flow = self.exec_body(r, body, frame, st)?;
            st.in_target = prev;
            if is_target {
                let cost = st.stats.ops - before;
                st.stats.iter_ops.push(cost);
            }
            match flow {
                Flow::Normal => {}
                Flow::Goto(l) => {
                    // Premature exit: propagate out of the loop.
                    frame.scalars.insert(var.to_string(), Value::Int(iv));
                    return Ok(Flow::Goto(l));
                }
                f @ (Flow::Return | Flow::Stop) => return Ok(f),
            }
            iv += step;
        }
        frame.scalars.insert(var.to_string(), Value::Int(iv));
        Ok(Flow::Normal)
    }

    pub(crate) fn exec_call(
        &self,
        r: &Routine,
        name: &str,
        args: &[Expr],
        frame: &mut Frame,
        st: &mut RunState,
    ) -> Result<(), RuntimeError> {
        let callee = self
            .program
            .routine(name)
            .ok_or_else(|| RuntimeError::new(&r.name, format!("unknown routine {name}")))?;
        // Evaluate bindings.
        let mut bindings = Vec::with_capacity(args.len());
        for (k, a) in args.iter().enumerate() {
            let formal_is_array = self.sema.tables[name]
                .is_array(callee.params.get(k).map(String::as_str).unwrap_or(""));
            match a {
                Expr::Var(n) if frame.arrays.contains_key(n) => {
                    let (h, dims) = frame.arrays[n].clone();
                    bindings.push(Binding::Array(h, dims));
                }
                _ if formal_is_array => {
                    return Err(RuntimeError::new(
                        &r.name,
                        format!("array formal bound to non-array actual in call to {name}"),
                    ));
                }
                _ => bindings.push(Binding::Scalar(self.eval(r, a, frame, st)?)),
            }
        }
        let mut cframe = self.enter_frame(callee, &bindings, st)?;
        match self.exec_body(callee, &callee.body, &mut cframe, st)? {
            Flow::Goto(l) => {
                return Err(RuntimeError::new(name, format!("GOTO {l} escaped routine")))
            }
            Flow::Stop => {
                return Err(RuntimeError::new(name, "STOP inside subroutine"));
            }
            _ => {}
        }
        // Copy-back for scalar Var actuals (Fortran reference semantics).
        for (k, a) in args.iter().enumerate() {
            if let (Expr::Var(n), Some(p)) = (a, callee.params.get(k)) {
                if !frame.arrays.contains_key(n) {
                    if let Some(v) = cframe.scalars.get(p) {
                        frame.scalars.insert(n.clone(), *v);
                    }
                }
            }
        }
        Ok(())
    }

    fn store(
        &self,
        r: &Routine,
        lhs: &LValue,
        v: Value,
        frame: &mut Frame,
        st: &mut RunState,
    ) -> Result<(), RuntimeError> {
        match lhs {
            LValue::Var(n) => {
                let ty = self.sema.tables[&r.name].scalar_ty(n).unwrap_or(Ty::Real);
                frame.scalars.insert(n.clone(), v.coerce(ty));
                Ok(())
            }
            LValue::Element(name, subs) => {
                let mut idx = Vec::with_capacity(subs.len());
                for sexpr in subs {
                    idx.push(self.eval(r, sexpr, frame, st)?.as_i64());
                }
                let (h, dims) =
                    frame.arrays.get(name).cloned().ok_or_else(|| {
                        RuntimeError::new(&r.name, format!("not an array: {name}"))
                    })?;
                let flat =
                    flat_index(&dims, &idx, st.mem.arrays[h].data.len()).ok_or_else(|| {
                        RuntimeError::new(
                            &r.name,
                            format!("subscript out of bounds: {name}{idx:?} dims {dims:?}"),
                        )
                    })?;
                if st.in_target {
                    if let Some(tr) = st.tracer.as_mut() {
                        tr.record_write(h, name, &dims, flat);
                    }
                }
                st.mem.arrays[h].data.set(flat, v);
                Ok(())
            }
        }
    }

    pub(crate) fn eval(
        &self,
        r: &Routine,
        e: &Expr,
        frame: &Frame,
        st: &mut RunState,
    ) -> Result<Value, RuntimeError> {
        self.charge(r, st, 1)?;
        match e {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Real(v) => Ok(Value::Real(*v)),
            Expr::Logical(v) => Ok(Value::Logical(*v)),
            Expr::Var(n) => {
                if let Some(c) = self.sema.tables[&r.name].constant(n) {
                    return self.eval(r, c, frame, st);
                }
                frame
                    .scalars
                    .get(n)
                    .copied()
                    .ok_or_else(|| RuntimeError::new(&r.name, format!("unbound scalar {n}")))
            }
            Expr::Index(name, subs) => {
                if frame.arrays.contains_key(name) {
                    let mut idx = Vec::with_capacity(subs.len());
                    for sexpr in subs {
                        idx.push(self.eval(r, sexpr, frame, st)?.as_i64());
                    }
                    let (h, dims) = frame.arrays[name].clone();
                    let flat =
                        flat_index(&dims, &idx, st.mem.arrays[h].data.len()).ok_or_else(|| {
                            RuntimeError::new(
                                &r.name,
                                format!("subscript out of bounds: {name}{idx:?}"),
                            )
                        })?;
                    if st.in_target {
                        if let Some(tr) = st.tracer.as_mut() {
                            tr.record_read(h, name, &dims, flat);
                        }
                    }
                    Ok(st.mem.arrays[h].data.get(flat))
                } else {
                    self.intrinsic(r, name, subs, frame, st)
                }
            }
            Expr::Un(UnOp::Neg, a) => {
                let v = self.eval(r, a, frame, st)?;
                Ok(match v {
                    Value::Int(x) => Value::Int(-x),
                    Value::Real(x) => Value::Real(-x),
                    Value::Logical(_) => {
                        return Err(RuntimeError::new(&r.name, "negating a LOGICAL"))
                    }
                })
            }
            Expr::Un(UnOp::Not, a) => {
                let v = self.eval(r, a, frame, st)?.as_bool();
                Ok(Value::Logical(!v))
            }
            Expr::Bin(op, a, b) => {
                let va = self.eval(r, a, frame, st)?;
                let vb = self.eval(r, b, frame, st)?;
                self.binop(r, *op, va, vb)
            }
        }
    }

    fn binop(&self, r: &Routine, op: BinOp, a: Value, b: Value) -> Result<Value, RuntimeError> {
        use BinOp::*;
        let both_int = matches!(a, Value::Int(_)) && matches!(b, Value::Int(_));
        Ok(match op {
            Add | Sub | Mul | Div | Pow => {
                if both_int {
                    let (x, y) = (a.as_i64(), b.as_i64());
                    let v = match op {
                        Add => x.wrapping_add(y),
                        Sub => x.wrapping_sub(y),
                        Mul => x.wrapping_mul(y),
                        Div => {
                            if y == 0 {
                                return Err(RuntimeError::new(&r.name, "integer division by 0"));
                            }
                            x / y
                        }
                        Pow => {
                            if y < 0 {
                                0
                            } else {
                                x.checked_pow(y.min(62) as u32).unwrap_or(i64::MAX)
                            }
                        }
                        _ => unreachable!(),
                    };
                    Value::Int(v)
                } else {
                    let (x, y) = (a.as_f64(), b.as_f64());
                    let v = match op {
                        Add => x + y,
                        Sub => x - y,
                        Mul => x * y,
                        Div => x / y,
                        Pow => x.powf(y),
                        _ => unreachable!(),
                    };
                    Value::Real(v)
                }
            }
            Lt | Le | Gt | Ge | Eq | Ne => {
                let (x, y) = (a.as_f64(), b.as_f64());
                Value::Logical(match op {
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    Ge => x >= y,
                    Eq => x == y,
                    Ne => x != y,
                    _ => unreachable!(),
                })
            }
            And => Value::Logical(a.as_bool() && b.as_bool()),
            Or => Value::Logical(a.as_bool() || b.as_bool()),
        })
    }

    fn intrinsic(
        &self,
        r: &Routine,
        name: &str,
        args: &[Expr],
        frame: &Frame,
        st: &mut RunState,
    ) -> Result<Value, RuntimeError> {
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(r, a, frame, st)?);
        }
        let f1 = |v: &[Value]| v[0].as_f64();
        Ok(match (name, vals.as_slice()) {
            ("max" | "max0" | "amax1", v) if !v.is_empty() => {
                let any_real = v.iter().any(|x| matches!(x, Value::Real(_)));
                if any_real || name == "amax1" {
                    Value::Real(v.iter().map(|x| x.as_f64()).fold(f64::MIN, f64::max))
                } else {
                    Value::Int(v.iter().map(|x| x.as_i64()).max().unwrap())
                }
            }
            ("min" | "min0" | "amin1", v) if !v.is_empty() => {
                let any_real = v.iter().any(|x| matches!(x, Value::Real(_)));
                if any_real || name == "amin1" {
                    Value::Real(v.iter().map(|x| x.as_f64()).fold(f64::MAX, f64::min))
                } else {
                    Value::Int(v.iter().map(|x| x.as_i64()).min().unwrap())
                }
            }
            ("mod", [a, b]) => match (a, b) {
                (Value::Int(x), Value::Int(y)) => {
                    if *y == 0 {
                        return Err(RuntimeError::new(&r.name, "MOD by zero"));
                    }
                    Value::Int(x % y)
                }
                _ => Value::Real(a.as_f64() % b.as_f64()),
            },
            ("abs", [Value::Int(x)]) | ("iabs", [Value::Int(x)]) => Value::Int(x.abs()),
            ("abs", v) if v.len() == 1 => Value::Real(f1(v).abs()),
            ("sqrt", v) if v.len() == 1 => Value::Real(f1(v).sqrt()),
            ("exp", v) if v.len() == 1 => Value::Real(f1(v).exp()),
            ("log", v) if v.len() == 1 => Value::Real(f1(v).ln()),
            ("sin", v) if v.len() == 1 => Value::Real(f1(v).sin()),
            ("cos", v) if v.len() == 1 => Value::Real(f1(v).cos()),
            ("tan", v) if v.len() == 1 => Value::Real(f1(v).tan()),
            ("atan", v) if v.len() == 1 => Value::Real(f1(v).atan()),
            ("float" | "real" | "dble", v) if v.len() == 1 => Value::Real(f1(v)),
            ("int", v) if v.len() == 1 => Value::Int(v[0].as_i64()),
            ("nint", v) if v.len() == 1 => Value::Int(f1(v).round() as i64),
            ("sign", [a, b]) => {
                let m = a.as_f64().abs();
                Value::Real(if b.as_f64() < 0.0 { -m } else { m })
            }
            ("dim", [a, b]) => Value::Real((a.as_f64() - b.as_f64()).max(0.0)),
            _ => {
                return Err(RuntimeError::new(
                    &r.name,
                    format!("unknown intrinsic/array {name} with {} args", args.len()),
                ))
            }
        })
    }
}

/// Column-major flat index against view dims, with sequence association
/// for 1-D access into multi-dim storage.
pub(crate) fn flat_index(dims: &[(i64, i64)], subs: &[i64], len: usize) -> Option<usize> {
    if subs.len() != dims.len() {
        if subs.len() == 1 && !dims.is_empty() {
            let k = subs[0] - dims[0].0;
            if k >= 0 && (k as usize) < len {
                return Some(k as usize);
            }
        }
        return None;
    }
    let mut idx: i64 = 0;
    let mut stride: i64 = 1;
    for (&s, &(l, u)) in subs.iter().zip(dims) {
        if s < l || s > u {
            return None;
        }
        idx += (s - l) * stride;
        stride *= u - l + 1;
    }
    usize::try_from(idx).ok().filter(|&k| k < len)
}

/// An argument binding for a call.
#[derive(Clone, Debug)]
pub(crate) enum Binding {
    Scalar(Value),
    Array(usize, Vec<(i64, i64)>),
}
