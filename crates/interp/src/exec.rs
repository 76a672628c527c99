//! The sequential interpreter, over the resolved form of [`crate::lower`].

use crate::error::RuntimeError;
use crate::lower::{lower, Block, Call, Code, Dim, Do, Ex, Intrinsic, Kind, Routine, Size, Stmt};
use crate::memory::{element_count, flat_index, Memory, Value};
use crate::parallel::{run_planned_do, ParallelPlan, Planned};
use crate::trace::{LoopTrace, Tracer};
use fortran::{BinOp, Program, ProgramSema, UnOp};

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

/// A run-time error on its way out: boxed, so the result of evaluating a
/// node stays as small as a [`Value`].
pub(crate) type Fault = Box<RuntimeError>;

/// Statement/expression flow control.
pub(crate) enum Flow {
    Normal,
    Goto(u32),
    Return,
    Stop,
}

/// An array as a routine sees it: storage and view dims for subscripting.
#[derive(Clone)]
pub(crate) struct ArrayRef {
    pub handle: usize,
    pub dims: Vec<(i64, i64)>,
}

/// A routine activation, laid out by the routine's slots.
#[derive(Clone)]
pub(crate) struct Frame {
    pub scalars: Vec<Option<Value>>,
    pub arrays: Vec<Option<ArrayRef>>,
}

impl Frame {
    /// Scalars at their entry values, nothing bound to an array slot.
    fn new(r: &Routine) -> Frame {
        Frame {
            scalars: r.scalar_init.clone(),
            arrays: vec![None; r.arrays.len()],
        }
    }
}

/// What a run does at one DO statement.
pub(crate) enum Role {
    Plain,
    /// Run by the parallel executor.
    Planned(Planned),
    /// Instrumented: per-iteration costs, race tracing.
    Hooked,
}

/// Shared run state.
pub(crate) struct RunState<'r> {
    pub mem: Memory,
    pub stats: ExecStats,
    /// COMMON array storage, one cell per COMMON array name.
    pub commons: Vec<Option<usize>>,
    /// Operation budget: the run fails once `stats.ops` exceeds it (guards
    /// against goto cycles).
    pub budget: u64,
    /// Each loop id's role in this run; empty when every loop is plain.
    pub roles: &'r [Role],
    /// Threads for the parallel executor.
    pub nthreads: usize,
    /// Fork every planned instance, whatever it costs (the checking
    /// reference, [`Machine::run_parallel_checked`]).
    pub always_fork: bool,
    /// The fork cut-off's memo, one slot per plan entry: counted ops per
    /// iteration of that loop's latest instance in this run.
    pub ops_per_iter: Vec<Option<u64>>,
    /// Are we currently inside the hooked/parallel loop (no nesting)?
    pub in_target: bool,
    /// Shadow-memory recorder for the race oracle (traced runs only).
    pub tracer: Option<Tracer>,
}

impl RunState<'_> {
    fn charge(&mut self, r: &Routine, n: u64) -> Result<(), Fault> {
        self.stats.ops = self.stats.ops.saturating_add(n);
        if self.stats.ops > self.budget {
            return Err(RuntimeError::budget_exceeded(r.name).into());
        }
        Ok(())
    }
}

/// Default per-run operation budget: large enough for every benchmark
/// kernel, small enough that a runaway backward-goto cycle fails fast.
pub const DEFAULT_OP_BUDGET: u64 = 50_000_000;

/// Subscripts and intrinsic arguments evaluated on the stack; more spill
/// to the heap.
const MAX_ARGS: usize = 7;

/// The interpreter, bound to a parsed + semantically checked program.
pub struct Machine<'a> {
    pub(crate) code: Code<'a>,
    budget: u64,
}

impl<'a> Machine<'a> {
    /// Creates a machine with the default operation budget, lowering every
    /// routine of `program` once (crate docs, "Resolve once, then run").
    /// `sema` must be `program`'s semantic analysis.
    pub fn new(program: &'a Program, sema: &'a ProgramSema) -> Self {
        Self::with_budget(program, sema, DEFAULT_OP_BUDGET)
    }

    /// Creates a machine with an explicit operation budget. Exhausting
    /// it fails the run with a [`RuntimeError`] whose kind is
    /// [`crate::ErrorKind::BudgetExceeded`].
    pub fn with_budget(program: &'a Program, sema: &'a ProgramSema, budget: u64) -> Self {
        Machine {
            code: lower(program, sema),
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
        let (mem, stats, _) = self.run_with(None, Some((routine, var, None)), false)?;
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
        let (mem, stats, trace) = self.run_with(None, Some((routine, var, line)), true)?;
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

    /// `parallel` is `(plan, nthreads, always_fork)`; `hook` is
    /// `(routine, var, line)`. The plan or the hook is resolved to loop
    /// ids and slots here, once per run.
    fn run_with(
        &self,
        parallel: Option<(&ParallelPlan, usize, bool)>,
        hook: Option<(&str, &str, Option<u32>)>,
        traced: bool,
    ) -> Result<(Memory, ExecStats, Option<LoopTrace>), RuntimeError> {
        let code = &self.code;
        let roles: Vec<Role> = match (parallel, hook) {
            (Some((plan, ..)), _) => code
                .loops
                .iter()
                .map(|site| {
                    let r = &code.routines[site.routine];
                    match plan.lookup(r.name, site.var, site.line) {
                        Some((memo, lp)) => Role::Planned(Planned::resolve(memo, lp, r)),
                        None => Role::Plain,
                    }
                })
                .collect(),
            (None, Some((routine, var, line))) => code
                .loops
                .iter()
                .map(|site| {
                    let hit = code.routines[site.routine].name == routine
                        && site.var == var
                        && line.is_none_or(|l| l == site.line);
                    if hit {
                        Role::Hooked
                    } else {
                        Role::Plain
                    }
                })
                .collect(),
            (None, None) => Vec::new(),
        };
        let (nthreads, always_fork, memo) = match parallel {
            Some((plan, nthreads, always_fork)) => (nthreads, always_fork, plan.len()),
            None => (1, false, 0),
        };
        let main = code
            .main
            .ok_or_else(|| RuntimeError::new("?", "no PROGRAM unit"))?;
        let mut st = RunState {
            mem: Memory::default(),
            stats: ExecStats::default(),
            commons: vec![None; code.commons],
            budget: self.budget,
            roles: &roles,
            nthreads: nthreads.max(1),
            always_fork,
            ops_per_iter: vec![None; memo],
            in_target: false,
            tracer: traced.then(Tracer::new),
        };
        let r = &code.routines[main];
        let mut frame = Frame::new(r);
        self.enter(r, &mut frame, &mut st)
            .and_then(|()| self.exec_block(r, &r.body, &mut frame, &mut st))
            .map_err(|e| *e)?;
        let trace = st.tracer.take().map(|t| {
            let (routine, var, _) = hook.expect("traced runs set a hook");
            t.finish(routine, var)
        });
        Ok((st.mem, st.stats, trace))
    }

    /// Completes a frame whose dummies are bound: views array dummies
    /// through their own declarators when those resolve, and allocates
    /// local and COMMON arrays.
    fn enter(&self, r: &Routine, frame: &mut Frame, st: &mut RunState) -> Result<(), Fault> {
        let Frame { scalars, arrays } = frame;
        for p in &r.params {
            if let (Some(decl), Some(bound)) = (&p.dims, &mut arrays[p.array]) {
                // Bound views were checked when made: this cannot overflow.
                let total = element_count(&bound.dims).unwrap_or(0) as i64;
                if let Some(dims) = size_dims(decl, scalars, total) {
                    let len = st.mem.arrays[bound.handle].data.len();
                    if element_count(&dims).is_none_or(|n| n > len) {
                        let name = r.locals.iter().find(|l| l.array == p.array);
                        return Err(RuntimeError::new(
                            r.name,
                            format!(
                                "dummy array {} declared larger than its actual",
                                name.map_or("?", |l| l.name)
                            ),
                        )
                        .into());
                    }
                    bound.dims = dims;
                }
            }
        }
        for l in &r.locals {
            if arrays[l.array].is_some() {
                continue; // a dummy, already bound
            }
            let dims = size_dims(&l.dims, scalars, 1).ok_or_else(|| {
                RuntimeError::new(r.name, format!("cannot size local array {}", l.name))
            })?;
            let handle = match l.common.map(|c| (c, st.commons[c])) {
                Some((_, Some(h))) => h,
                common => {
                    let h = st
                        .mem
                        .alloc(l.ty, dims.clone())
                        .map_err(|e| RuntimeError::new(r.name, format!("{}: {e}", l.name)))?;
                    if let Some((c, _)) = common {
                        st.commons[c] = Some(h);
                    }
                    h
                }
            };
            arrays[l.array] = Some(ArrayRef { handle, dims });
        }
        Ok(())
    }

    /// Executes a statement list, resolving local GOTOs.
    pub(crate) fn exec_block(
        &self,
        r: &Routine,
        block: &Block,
        frame: &mut Frame,
        st: &mut RunState,
    ) -> Result<Flow, Fault> {
        let mut i = 0usize;
        while i < block.stmts.len() {
            match self.exec_stmt(r, &block.stmts[i], frame, st)? {
                Flow::Normal => i += 1,
                Flow::Goto(l) => match block.label(l) {
                    Some(j) => i = j,
                    None => return Ok(Flow::Goto(l)),
                },
                f @ (Flow::Return | Flow::Stop) => return Ok(f),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &self,
        r: &Routine,
        s: &Stmt,
        frame: &mut Frame,
        st: &mut RunState,
    ) -> Result<Flow, Fault> {
        st.charge(r, 1)?;
        if let Some(tr) = st.tracer.as_mut() {
            tr.set_line(s.line);
        }
        match &s.kind {
            Kind::Assign { slot, ty, rhs } => {
                let v = self.eval(r, rhs, frame, st)?;
                frame.scalars[*slot] = Some(v.coerce(*ty));
            }
            Kind::Store {
                array,
                name,
                subs,
                rhs,
            } => {
                let v = self.eval(r, rhs, frame, st)?;
                let Some(a) = array.and_then(|k| frame.arrays[k].as_ref()) else {
                    for e in subs {
                        self.eval(r, e, frame, st)?;
                    }
                    return Err(RuntimeError::new(r.name, format!("not an array: {name}")).into());
                };
                let flat = self.element(r, name, a, subs, true, frame, st)?;
                if st.in_target {
                    if let Some(tr) = st.tracer.as_mut() {
                        tr.record_write(a.handle, name, &a.dims, flat);
                    }
                }
                st.mem.arrays[a.handle].data.set(flat, v);
            }
            Kind::If {
                cond,
                then_body,
                else_body,
            } => {
                let body = if self.eval(r, cond, frame, st)?.as_bool() {
                    then_body
                } else {
                    else_body
                };
                return self.exec_block(r, body, frame, st);
            }
            Kind::LogicalIf(cond, inner) => {
                if self.eval(r, cond, frame, st)?.as_bool() {
                    return self.exec_stmt(r, inner, frame, st);
                }
            }
            Kind::Do(d) => return self.exec_do(r, d, frame, st),
            Kind::Goto(l) => return Ok(Flow::Goto(*l)),
            Kind::Call(c) => self.call(r, c, frame, st)?,
            Kind::Return => return Ok(Flow::Return),
            Kind::Continue => {}
            Kind::Stop => return Ok(Flow::Stop),
        }
        Ok(Flow::Normal)
    }

    fn exec_do(
        &self,
        r: &Routine,
        d: &Do,
        frame: &mut Frame,
        st: &mut RunState,
    ) -> Result<Flow, Fault> {
        let lo = self.eval(r, &d.lo, frame, st)?.as_i64();
        let hi = self.eval(r, &d.hi, frame, st)?.as_i64();
        let step = match &d.step {
            Some(s) => self.eval(r, s, frame, st)?.as_i64(),
            None => 1,
        };
        if step == 0 {
            return Err(RuntimeError::new(r.name, "zero DO step").into());
        }
        // Fortran's MAX((hi - lo + step) / step, 0), exact in i128; a count
        // beyond i64 is left to the op budget.
        let trips = (i128::from(hi) - i128::from(lo) + i128::from(step)) / i128::from(step);
        let trips = trips.clamp(0, i128::from(i64::MAX)) as i64;

        // Parallel or instrumented execution of the designated loop?
        let role = if st.in_target {
            None
        } else {
            st.roles.get(d.id)
        };
        match role {
            Some(Role::Planned(plan)) => {
                run_planned_do(self, r, d, lo, step, trips, frame, st, plan)
            }
            Some(Role::Hooked) => self.run_do(r, d, lo, step, trips, true, frame, st),
            _ => self.run_do(r, d, lo, step, trips, false, frame, st),
        }
    }

    /// The sequential loop, on the calling thread; `is_target` marks the
    /// hooked loop (per-iteration costs, race tracing).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_do(
        &self,
        r: &Routine,
        d: &Do,
        lo: i64,
        step: i64,
        trips: i64,
        is_target: bool,
        frame: &mut Frame,
        st: &mut RunState,
    ) -> Result<Flow, Fault> {
        if is_target {
            if let Some(tr) = st.tracer.as_mut() {
                // Register the loop routine's own bindings so witnesses
                // carry these names rather than callee dummy names.
                tr.enter_loop(&r.arrays, &frame.arrays);
            }
        }

        let mut iv = lo;
        for _ in 0..trips {
            frame.scalars[d.var] = Some(Value::Int(iv));
            let before = st.stats.ops;
            let prev = st.in_target;
            if is_target {
                st.in_target = true;
                if let Some(tr) = st.tracer.as_mut() {
                    tr.begin_iter(iv);
                }
            }
            let flow = self.exec_block(r, &d.body, frame, st)?;
            st.in_target = prev;
            if is_target {
                let cost = st.stats.ops - before;
                st.stats.iter_ops.push(cost);
            }
            match flow {
                Flow::Normal => {}
                Flow::Goto(l) => {
                    // Premature exit: propagate out of the loop.
                    frame.scalars[d.var] = Some(Value::Int(iv));
                    return Ok(Flow::Goto(l));
                }
                f @ (Flow::Return | Flow::Stop) => return Ok(f),
            }
            iv = iv.wrapping_add(step);
        }
        frame.scalars[d.var] = Some(Value::Int(iv));
        Ok(Flow::Normal)
    }

    fn call(
        &self,
        r: &Routine,
        c: &Call,
        frame: &mut Frame,
        st: &mut RunState,
    ) -> Result<(), Fault> {
        let name = c.name;
        let Some(callee) = c.callee.map(|k| &self.code.routines[k]) else {
            return Err(RuntimeError::new(r.name, format!("unknown routine {name}")).into());
        };
        // Bind the actuals: an array where the actual variable is bound to
        // one, a value otherwise.
        let mut cframe = Frame::new(callee);
        for (k, a) in c.args.iter().enumerate() {
            let param = callee.params.get(k);
            let array = a
                .var
                .and_then(|(_, array)| array)
                .and_then(|s| frame.arrays[s].as_ref());
            match array {
                Some(bound) => {
                    if let Some(p) = param {
                        cframe.arrays[p.array] = Some(bound.clone());
                    }
                }
                None if param.is_some_and(|p| p.dims.is_some()) => {
                    return Err(RuntimeError::new(
                        r.name,
                        format!("array formal bound to non-array actual in call to {name}"),
                    )
                    .into());
                }
                None => {
                    let v = self.eval(r, &a.e, frame, st)?;
                    if let Some(p) = param {
                        cframe.scalars[p.scalar] = Some(v);
                    }
                }
            }
        }
        self.enter(callee, &mut cframe, st)?;
        match self.exec_block(callee, &callee.body, &mut cframe, st)? {
            Flow::Goto(l) => {
                return Err(RuntimeError::new(name, format!("GOTO {l} escaped routine")).into())
            }
            Flow::Stop => return Err(RuntimeError::new(name, "STOP inside subroutine").into()),
            _ => {}
        }
        // Copy-back for scalar variable actuals (Fortran reference
        // semantics).
        for (a, p) in c.args.iter().zip(&callee.params) {
            if let Some((scalar, array)) = a.var {
                if array.is_none_or(|s| frame.arrays[s].is_none()) {
                    if let Some(v) = cframe.scalars[p.scalar] {
                        frame.scalars[scalar] = Some(v);
                    }
                }
            }
        }
        Ok(())
    }

    /// Evaluates `subs` against `a` and flattens them; `write` picks the
    /// out-of-bounds message.
    #[allow(clippy::too_many_arguments)]
    fn element(
        &self,
        r: &Routine,
        name: &str,
        a: &ArrayRef,
        subs: &[Ex],
        write: bool,
        frame: &Frame,
        st: &mut RunState,
    ) -> Result<usize, Fault> {
        let mut stack = [0i64; MAX_ARGS];
        let mut heap = Vec::new();
        let idx: &mut [i64] = if subs.len() <= MAX_ARGS {
            &mut stack[..subs.len()]
        } else {
            heap.resize(subs.len(), 0);
            &mut heap
        };
        // Index loops here and below: iterator adaptors are calls in
        // unoptimised builds, and these run for every element access.
        for k in 0..subs.len() {
            idx[k] = self.eval(r, &subs[k], frame, st)?.as_i64();
        }
        match flat_index(&a.dims, idx, st.mem.arrays[a.handle].data.len()) {
            Some(flat) => Ok(flat),
            None => {
                let message = if write {
                    format!("subscript out of bounds: {name}{idx:?} dims {:?}", a.dims)
                } else {
                    format!("subscript out of bounds: {name}{idx:?}")
                };
                Err(RuntimeError::new(r.name, message).into())
            }
        }
    }

    pub(crate) fn eval(
        &self,
        r: &Routine,
        e: &Ex,
        frame: &Frame,
        st: &mut RunState,
    ) -> Result<Value, Fault> {
        st.charge(r, if let Ex::Const(_, cost) = e { *cost } else { 1 })?;
        match e {
            Ex::Const(v, _) => Ok(*v),
            Ex::Scalar(slot, name) => match frame.scalars[*slot] {
                Some(v) => Ok(v),
                None => Err(RuntimeError::new(r.name, format!("unbound scalar {name}")).into()),
            },
            Ex::Param(def) => self.eval(r, def, frame, st),
            Ex::Cycle => Err(RuntimeError::budget_exceeded(r.name).into()),
            Ex::Index {
                array,
                name,
                f,
                args,
            } => {
                if let Some(k) = array {
                    if let Some(a) = &frame.arrays[*k] {
                        let flat = self.element(r, name, a, args, false, frame, st)?;
                        if st.in_target {
                            if let Some(tr) = st.tracer.as_mut() {
                                tr.record_read(a.handle, name, &a.dims, flat);
                            }
                        }
                        return Ok(st.mem.arrays[a.handle].data.get(flat));
                    }
                }
                let mut stack = [Value::Int(0); MAX_ARGS];
                let mut heap = Vec::new();
                let vals: &mut [Value] = if args.len() <= MAX_ARGS {
                    &mut stack[..args.len()]
                } else {
                    heap.resize(args.len(), Value::Int(0));
                    &mut heap
                };
                for k in 0..args.len() {
                    vals[k] = self.eval(r, &args[k], frame, st)?;
                }
                apply_intrinsic(*f, name, vals, r.name)
            }
            Ex::Un(op, a) => {
                let v = self.eval(r, a, frame, st)?;
                apply_unop(*op, v, r.name)
            }
            Ex::Bin(op, a, b) => {
                let va = self.eval(r, a, frame, st)?;
                let vb = self.eval(r, b, frame, st)?;
                apply_binop(*op, va, vb, r.name)
            }
        }
    }
}

/// Sizes a declarator from the frame's integer scalars, the way a
/// declaration is read at entry: PARAMETERs are not consulted, only
/// literals and bound integer scalars under `+ - *` and negation.
/// Assumed-size `(*)` dimensions get `assumed_extent`.
fn size_dims(
    decl: &[Dim],
    scalars: &[Option<Value>],
    assumed_extent: i64,
) -> Option<Vec<(i64, i64)>> {
    fn size(s: &Size, scalars: &[Option<Value>]) -> Option<i64> {
        match s {
            Size::Int(v) => Some(*v),
            Size::Scalar(k) => match scalars[*k] {
                Some(Value::Int(v)) => Some(v),
                _ => None,
            },
            Size::Bin(op, a, b) => {
                let (a, b) = (size(a, scalars)?, size(b, scalars)?);
                match op {
                    BinOp::Add => a.checked_add(b),
                    BinOp::Sub => a.checked_sub(b),
                    BinOp::Mul => a.checked_mul(b),
                    _ => None,
                }
            }
            Size::Neg(a) => Some(size(a, scalars)?.wrapping_neg()),
            Size::Unknown => None,
        }
    }
    decl.iter()
        .map(|d| match d {
            Dim::Upper(u) => Some((1, size(u, scalars)?)),
            Dim::Both(l, u) => Some((size(l, scalars)?, size(u, scalars)?)),
            Dim::Assumed => Some((1, assumed_extent)),
        })
        .collect()
}

/// A binary operator on two values. Integer arithmetic wraps; only a
/// division by zero fails.
pub(crate) fn apply_binop(op: BinOp, a: Value, b: Value, routine: &str) -> Result<Value, Fault> {
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
                            return Err(RuntimeError::new(routine, "integer division by 0").into());
                        }
                        x.wrapping_div(y)
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

/// A unary operator on a value; negating a LOGICAL fails.
pub(crate) fn apply_unop(op: UnOp, v: Value, routine: &str) -> Result<Value, Fault> {
    Ok(match (op, v) {
        (UnOp::Neg, Value::Int(x)) => Value::Int(x.wrapping_neg()),
        (UnOp::Neg, Value::Real(x)) => Value::Real(-x),
        (UnOp::Neg, Value::Logical(_)) => {
            return Err(RuntimeError::new(routine, "negating a LOGICAL").into())
        }
        (UnOp::Not, v) => Value::Logical(!v.as_bool()),
    })
}

/// An intrinsic on its evaluated arguments; `name` is the spelling, for
/// the error an unknown name or a wrong argument list raises.
pub(crate) fn apply_intrinsic(
    f: Intrinsic,
    name: &str,
    v: &[Value],
    routine: &str,
) -> Result<Value, Fault> {
    use Intrinsic::*;
    let any_real = || v.iter().any(|x| matches!(x, Value::Real(_)));
    Ok(match (f, v) {
        (Max | Amax1, [_, ..]) => {
            if matches!(f, Amax1) || any_real() {
                Value::Real(v.iter().map(|x| x.as_f64()).fold(f64::MIN, f64::max))
            } else {
                Value::Int(v.iter().map(|x| x.as_i64()).max().unwrap())
            }
        }
        (Min | Amin1, [_, ..]) => {
            if matches!(f, Amin1) || any_real() {
                Value::Real(v.iter().map(|x| x.as_f64()).fold(f64::MAX, f64::min))
            } else {
                Value::Int(v.iter().map(|x| x.as_i64()).min().unwrap())
            }
        }
        (Mod, [Value::Int(x), Value::Int(y)]) => {
            if *y == 0 {
                return Err(RuntimeError::new(routine, "MOD by zero").into());
            }
            Value::Int(x.wrapping_rem(*y))
        }
        (Mod, [a, b]) => Value::Real(a.as_f64() % b.as_f64()),
        (Abs | Iabs, [Value::Int(x)]) => Value::Int(x.wrapping_abs()),
        (Abs, [a]) => Value::Real(a.as_f64().abs()),
        (Real(g), [a]) => Value::Real(g(a.as_f64())),
        (Int, [a]) => Value::Int(a.as_i64()),
        (Nint, [a]) => Value::Int(a.as_f64().round() as i64),
        (Sign, [a, b]) => {
            let m = a.as_f64().abs();
            Value::Real(if b.as_f64() < 0.0 { -m } else { m })
        }
        (Dim, [a, b]) => Value::Real((a.as_f64() - b.as_f64()).max(0.0)),
        _ => {
            return Err(RuntimeError::new(
                routine,
                format!("unknown intrinsic/array {name} with {} args", v.len()),
            )
            .into())
        }
    })
}
