//! Threaded parallel DO execution and the P-processor speedup simulation.

use crate::error::RuntimeError;
use crate::exec::{Fault, Flow, Frame, Machine, RunState};
use crate::lower::{Do, Routine, Slot};
use crate::memory::{ArrayData, Value};
use serde::Serialize;

/// What to privatize for one parallel loop.
///
/// The array and scalar lists implement the OpenMP data-sharing clauses
/// the codegen backend selects, so a wrong clause choice is *executable*
/// and shows up as a differential mismatch:
///
/// * `private_arrays` — PRIVATE: each thread gets a **zero-initialized**
///   copy (OpenMP leaves it undefined; zero is the deterministic model
///   of "undefined"). Sound only when the analysis proved every read is
///   preceded by a same-iteration write.
/// * `firstprivate` — FIRSTPRIVATE: each thread's copy starts from the
///   incoming shared values (copy-in).
/// * `copy_out` — LASTPRIVATE for arrays: the sequentially-last value is
///   copied back after the join.
/// * `private_scalars` are likewise zero-scrubbed at entry;
///   `scalar_copy_out` names the subset copied back (scalar LASTPRIVATE).
#[derive(Clone, Debug, Default)]
pub struct LoopPlan {
    /// Arrays given a zero-initialized private copy per thread (PRIVATE).
    pub private_arrays: Vec<String>,
    /// Arrays given a value-copied private copy per thread (FIRSTPRIVATE).
    /// Implicitly private; a name needs to appear in only one of the two
    /// lists.
    pub firstprivate: Vec<String>,
    /// Scalars given a private copy per thread (the loop index always is).
    /// Scrubbed to the type's zero at loop entry.
    pub private_scalars: Vec<String>,
    /// Privatized arrays whose last value must be copied out (LASTPRIVATE).
    pub copy_out: Vec<String>,
    /// Private scalars whose last value must be copied out after the join
    /// (scalar LASTPRIVATE).
    pub scalar_copy_out: Vec<String>,
    /// Scalars executed as sum reductions: each thread accumulates from
    /// the additive identity and the partials are combined after the join.
    /// Floating-point results may differ from sequential execution by
    /// reassociation (as on any real parallel machine).
    pub sum_reductions: Vec<String>,
    /// Scalars executed as product reductions: each thread accumulates
    /// from the multiplicative identity and the partials are multiplied
    /// after the join.
    pub mul_reductions: Vec<String>,
}

impl LoopPlan {
    /// Every privatized array (PRIVATE ∪ FIRSTPRIVATE), in order, deduped.
    pub fn privatized_arrays(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for n in self.private_arrays.iter().chain(&self.firstprivate) {
            if !out.contains(&n.as_str()) {
                out.push(n);
            }
        }
        out
    }
}

/// The set of loops to run in parallel, keyed by
/// `(routine, index var, source line)`. The line disambiguates routines
/// with several `DO` statements on the same index variable, so a plan
/// entry fires only on the verified loop.
#[derive(Clone, Debug, Default)]
pub struct ParallelPlan {
    /// Sorted by key, so a lookup compares against the caller's borrowed
    /// strings; an entry's position is its *slot* in the per-run memo of
    /// the fork cut-off.
    loops: Vec<((String, String, u32), LoopPlan)>,
}

impl ParallelPlan {
    /// Empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, routine: &str, var: &str, line: u32) -> Result<usize, usize> {
        self.loops.binary_search_by(|((r, v, l), _)| {
            (r.as_str(), v.as_str(), *l).cmp(&(routine, var, line))
        })
    }

    /// Registers a loop.
    pub fn add(&mut self, routine: &str, var: &str, line: u32, plan: LoopPlan) {
        match self.position(routine, var, line) {
            Ok(slot) => self.loops[slot].1 = plan,
            Err(slot) => {
                let key = (routine.to_string(), var.to_string(), line);
                self.loops.insert(slot, (key, plan));
            }
        }
    }

    /// Does the plan cover this loop?
    pub fn matches(&self, routine: &str, var: &str, line: u32) -> bool {
        self.position(routine, var, line).is_ok()
    }

    /// Number of planned loops (the memo has one slot for each).
    pub(crate) fn len(&self) -> usize {
        self.loops.len()
    }

    /// The entry for this loop and its slot: a run asks once per DO
    /// statement of the program, before it starts.
    pub(crate) fn lookup(&self, routine: &str, var: &str, line: u32) -> Option<(usize, &LoopPlan)> {
        let slot = self.position(routine, var, line).ok()?;
        Some((slot, &self.loops[slot].1))
    }
}

/// A planned loop's clauses for one run, resolved to the slots of the
/// routine the loop is in. A name the routine does not have names nothing
/// and is dropped.
pub(crate) struct Planned {
    /// The loop's slot in the cut-off's memo.
    memo: usize,
    /// PRIVATE arrays that are not also FIRSTPRIVATE: scrubbed to zero.
    scrubbed: Vec<Slot>,
    /// PRIVATE ∪ FIRSTPRIVATE arrays: kept out of the shared merge.
    privatized: Vec<Slot>,
    copy_out: Vec<Slot>,
    private_scalars: Vec<Slot>,
    scalar_copy_out: Vec<Slot>,
    sum_reductions: Vec<Slot>,
    mul_reductions: Vec<Slot>,
}

impl Planned {
    pub(crate) fn resolve(memo: usize, plan: &LoopPlan, r: &Routine) -> Planned {
        let arrays = |names: &mut dyn Iterator<Item = &str>| -> Vec<Slot> {
            names.filter_map(|n| r.array_slot(n)).collect()
        };
        let scalars = |names: &[String]| -> Vec<Slot> {
            names.iter().filter_map(|n| r.scalar_slot(n)).collect()
        };
        Planned {
            memo,
            scrubbed: arrays(
                &mut plan
                    .private_arrays
                    .iter()
                    .filter(|n| !plan.firstprivate.contains(n))
                    .map(String::as_str),
            ),
            privatized: arrays(&mut plan.privatized_arrays().into_iter()),
            copy_out: arrays(&mut plan.copy_out.iter().map(String::as_str)),
            private_scalars: scalars(&plan.private_scalars),
            scalar_copy_out: scalars(&plan.scalar_copy_out),
            sum_reductions: scalars(&plan.sum_reductions),
            mul_reductions: scalars(&plan.mul_reductions),
        }
    }
}

/// Runs one instance of a planned loop, reached by the interpreter outside
/// any other planned loop: forked across threads, or *declined* — run by
/// the ordinary sequential loop on the calling thread — when the run's
/// earlier instances of this loop showed less work than the threads cost
/// (see the crate docs, "When the executor forks").
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_planned_do(
    machine: &Machine,
    r: &Routine,
    d: &Do,
    lo: i64,
    step: i64,
    trips: i64,
    frame: &mut Frame,
    st: &mut RunState,
    plan: &Planned,
) -> Result<Flow, Fault> {
    if trips <= 0 {
        frame.scalars[d.var] = Some(Value::Int(lo));
        return Ok(Flow::Normal);
    }
    let nthreads = st.nthreads.min(trips as usize);
    // A loop's first instance in a run has no estimate and always forks,
    // so every single-instance loop runs threaded.
    let fork = st.always_fork
        || st.ops_per_iter[plan.memo].is_none_or(|per_iter| {
            fork_pays((trips as u64).saturating_mul(per_iter), nthreads as u64)
        });
    let before = st.stats.ops;
    let flow = if fork {
        st.stats.forked_instances += 1;
        run_parallel_do(machine, r, d, lo, step, trips, nthreads, frame, st, plan)?
    } else {
        // Nothing nested forks either: an inner instance is smaller than
        // the one just judged too small.
        st.stats.declined_instances += 1;
        st.in_target = true;
        let flow = machine.run_do(r, d, lo, step, trips, false, frame, st)?;
        st.in_target = false;
        flow
    };
    st.ops_per_iter[plan.memo] = Some((st.stats.ops - before) / trips as u64);
    Ok(flow)
}

/// The cut-off: does running `work` counted operations on `threads`
/// threads — modelled as `work / threads + threads × THREAD_COST_OPS` —
/// beat running them on the calling thread? Never at one thread.
fn fork_pays(work: u64, threads: u64) -> bool {
    work - work / threads > threads * THREAD_COST_OPS
}

/// A scalar's additive (`one` false) or multiplicative identity, typed
/// like the value it replaces.
fn identity(v: Value, one: bool) -> Value {
    match v {
        Value::Int(_) => Value::Int(i64::from(one)),
        _ => Value::Real(if one { 1.0 } else { 0.0 }),
    }
}

/// Executes one loop instance across threads.
#[allow(clippy::too_many_arguments)]
fn run_parallel_do(
    machine: &Machine,
    r: &Routine,
    d: &Do,
    lo: i64,
    step: i64,
    trips: i64,
    nthreads: usize,
    frame: &mut Frame,
    st: &mut RunState,
    plan: &Planned,
) -> Result<Flow, Fault> {
    // Snapshot memory for diff-merging.
    let base_mem = st.mem.clone();
    let mut base_frame = frame.clone();
    // Reduction scalars: remember the incoming value, start threads from
    // the operator's identity (0 for sums, 1 for products).
    let mut reduction_pre: Vec<(Slot, Value)> = Vec::new();
    for &s in &plan.sum_reductions {
        if let Some(v) = base_frame.scalars[s] {
            reduction_pre.push((s, v));
            base_frame.scalars[s] = Some(identity(v, false));
        }
    }
    let mut mul_reduction_pre: Vec<(Slot, Value)> = Vec::new();
    for &s in &plan.mul_reductions {
        if let Some(v) = base_frame.scalars[s] {
            mul_reduction_pre.push((s, v));
            base_frame.scalars[s] = Some(identity(v, true));
        }
    }
    // PRIVATE semantics: scrub the thread-visible starting values. A
    // scalar or array the analysis proved written-before-read never sees
    // the scrub; a wrong PRIVATE-vs-FIRSTPRIVATE clause choice does, and
    // diverges from the sequential run.
    for &s in &plan.private_scalars {
        if let Some(v) = base_frame.scalars[s] {
            base_frame.scalars[s] = Some(identity(v, false));
        }
    }
    let base_frame = base_frame;
    let mut thread_base_mem = base_mem.clone();
    for &s in &plan.scrubbed {
        if let Some(a) = &frame.arrays[s] {
            match &mut thread_base_mem.arrays[a.handle].data {
                ArrayData::Int(v) => v.fill(0),
                ArrayData::Real(v) => v.fill(0.0),
                ArrayData::Logical(v) => v.fill(false),
            }
        }
    }
    let thread_base_mem = thread_base_mem;

    // Contiguous chunking.
    let chunk = (trips as usize).div_ceil(nthreads);
    struct ThreadResult {
        mem: crate::memory::Memory,
        frame: Frame,
        ops: u64,
        err: Option<Fault>,
    }
    // Each worker may spend what the run has left, so a runaway iteration
    // fails as it does sequentially instead of spinning forever.
    let budget = st.budget - st.stats.ops;
    let commons = machine.code.commons;

    let results: Vec<ThreadResult> = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..nthreads {
            let begin = t * chunk;
            let end = ((t + 1) * chunk).min(trips as usize);
            if begin >= end {
                continue;
            }
            let thread_base_mem = &thread_base_mem;
            let base_frame = &base_frame;
            handles.push(scope.spawn(move |_| {
                let mut tst = RunState {
                    mem: thread_base_mem.clone(),
                    stats: crate::exec::ExecStats::default(),
                    commons: vec![None; commons],
                    budget,
                    roles: &[],
                    nthreads: 1,
                    always_fork: false,
                    ops_per_iter: Vec::new(),
                    in_target: true,
                    tracer: None,
                };
                let mut tframe = base_frame.clone();
                let mut err = None;
                for k in begin..end {
                    let iv = lo.wrapping_add((k as i64).wrapping_mul(step));
                    tframe.scalars[d.var] = Some(Value::Int(iv));
                    // Reset private scalars each iteration is not needed —
                    // the analysis guarantees they are written before read.
                    match machine.exec_block(r, &d.body, &mut tframe, &mut tst) {
                        Ok(Flow::Normal) => {}
                        Ok(_) => {
                            err = Some(
                                RuntimeError::new(r.name, "control left a parallel loop iteration")
                                    .into(),
                            );
                            break;
                        }
                        Err(e) => {
                            err = Some(e);
                            break;
                        }
                    }
                }
                ThreadResult {
                    mem: tst.mem,
                    frame: tframe,
                    ops: tst.stats.ops,
                    err,
                }
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
    .expect("thread scope");

    for tr in &results {
        if let Some(e) = &tr.err {
            return Err(e.clone());
        }
    }

    // Private array handles (skipped in the shared merge).
    let private_handles: Vec<usize> = plan
        .privatized
        .iter()
        .filter_map(|&s| frame.arrays[s].as_ref().map(|a| a.handle))
        .collect();

    // Merge shared arrays by disjoint-write diffing.
    for tr in &results {
        for (h, (base, new)) in base_mem.arrays.iter().zip(&tr.mem.arrays).enumerate() {
            if private_handles.contains(&h) {
                continue;
            }
            merge_diff(&mut st.mem.arrays[h].data, &base.data, &new.data);
        }
        st.stats.ops += tr.ops;
    }
    // Each worker stayed within the budget; together they may not have.
    if st.stats.ops > st.budget {
        return Err(RuntimeError::budget_exceeded(r.name).into());
    }
    // No worker failed, so every iteration ran to completion.
    st.stats.parallel_iterations += trips as u64;

    // Copy-out: the thread that ran the final iteration — the last chunk,
    // whichever way the loop counts — provides last values of privatized
    // arrays and private scalars.
    if let Some(final_thread) = results.last() {
        for &s in &plan.copy_out {
            if let Some(a) = &frame.arrays[s] {
                st.mem.arrays[a.handle] = final_thread.mem.arrays[a.handle].clone();
            }
        }
        for &s in &plan.scalar_copy_out {
            if let Some(v) = final_thread.frame.scalars[s] {
                frame.scalars[s] = Some(v);
            }
        }
    }

    // Combine reduction partials: final = pre-value + Σ thread partials
    // for sums, pre-value × Π thread partials for products.
    for &(s, pre) in &reduction_pre {
        let combined = results
            .iter()
            .fold(pre, |acc, tr| match (acc, tr.frame.scalars[s]) {
                (Value::Int(a), Some(Value::Int(b))) => Value::Int(a.wrapping_add(b)),
                (a, Some(b)) => Value::Real(a.as_f64() + b.as_f64()),
                (a, None) => a,
            });
        frame.scalars[s] = Some(combined);
    }
    for &(s, pre) in &mul_reduction_pre {
        let combined = results
            .iter()
            .fold(pre, |acc, tr| match (acc, tr.frame.scalars[s]) {
                (Value::Int(a), Some(Value::Int(b))) => Value::Int(a.wrapping_mul(b)),
                (a, Some(b)) => Value::Real(a.as_f64() * b.as_f64()),
                (a, None) => a,
            });
        frame.scalars[s] = Some(combined);
    }

    frame.scalars[d.var] = Some(Value::Int(lo.wrapping_add(trips.wrapping_mul(step))));
    Ok(Flow::Normal)
}

/// Applies `new − base` differences onto `dst`, asserting disjointness in
/// debug builds (a conflict would mean the privatization verdict was
/// wrong).
fn merge_diff(dst: &mut ArrayData, base: &ArrayData, new: &ArrayData) {
    match (dst, base, new) {
        (ArrayData::Int(d), ArrayData::Int(b), ArrayData::Int(n)) => {
            for k in 0..d.len() {
                if n[k] != b[k] {
                    debug_assert!(
                        d[k] == b[k] || d[k] == n[k],
                        "conflicting parallel writes at {k}"
                    );
                    d[k] = n[k];
                }
            }
        }
        (ArrayData::Real(d), ArrayData::Real(b), ArrayData::Real(n)) => {
            for k in 0..d.len() {
                if n[k].to_bits() != b[k].to_bits() {
                    debug_assert!(
                        d[k].to_bits() == b[k].to_bits() || d[k].to_bits() == n[k].to_bits(),
                        "conflicting parallel writes at {k}"
                    );
                    d[k] = n[k];
                }
            }
        }
        (ArrayData::Logical(d), ArrayData::Logical(b), ArrayData::Logical(n)) => {
            for k in 0..d.len() {
                if n[k] != b[k] {
                    d[k] = n[k];
                }
            }
        }
        _ => unreachable!("type-changing merge"),
    }
}

/// Result of the deterministic P-processor simulation.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct SimResult {
    /// Sequential operation count of the whole program.
    pub t1: u64,
    /// Simulated parallel operation count with P processors.
    pub tp: u64,
    /// `t1 as f64 / tp as f64`.
    pub speedup: f64,
    /// Fraction of `t1` spent inside the parallelized loop.
    pub loop_fraction: f64,
    /// Iterations of the parallelized loop.
    pub iterations: usize,
}

/// Per-iteration scheduling overhead charged by the simulation (fork/join
/// and privatization copying), in abstract operations.
const SIM_OVERHEAD_PER_CHUNK: u64 = 150;

/// What creating, feeding and joining one worker thread costs the threaded
/// executor, in counted operations: the cut-off's only constant (crate
/// docs, "When the executor forks"). Measured, not tuned — see there for
/// the probe. With it a repeated instance forks at 2 threads iff its
/// estimated work exceeds 16 384 operations.
pub const THREAD_COST_OPS: u64 = 4096;

/// Simulates executing the hooked loop `(routine, var)` on `p` virtual
/// processors: runs the program sequentially once with per-iteration
/// instrumentation, then schedules contiguous chunks.
pub fn simulate_speedup(
    machine: &Machine,
    routine: &str,
    var: &str,
    p: usize,
) -> Result<SimResult, RuntimeError> {
    let (_, stats) = machine.run_hooked(routine, var)?;
    let t1 = stats.ops;
    let loop_ops: u64 = stats.iter_ops.iter().sum();
    let serial = t1 - loop_ops;
    let p = p.max(1);
    let n = stats.iter_ops.len();
    let chunk = n.div_ceil(p.max(1)).max(1);
    let mut worst: u64 = 0;
    let mut k = 0;
    while k < n {
        let end = (k + chunk).min(n);
        let cost: u64 = stats.iter_ops[k..end].iter().sum::<u64>() + SIM_OVERHEAD_PER_CHUNK;
        worst = worst.max(cost);
        k = end;
    }
    let tp = serial + if n == 0 { 0 } else { worst };
    Ok(SimResult {
        t1,
        tp,
        speedup: t1 as f64 / tp.max(1) as f64,
        loop_fraction: loop_ops as f64 / t1.max(1) as f64,
        iterations: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_lookup_is_independent_of_insertion_order() {
        let keys = [("t", "k", 9), ("s", "i", 4), ("t", "i", 9), ("t", "i", 3)];
        let mut plan = ParallelPlan::new();
        for (n, (r, v, l)) in keys.iter().enumerate() {
            let marker = LoopPlan {
                private_scalars: vec![n.to_string()],
                ..Default::default()
            };
            plan.add(r, v, *l, marker);
        }
        // Re-registering a loop replaces its entry.
        plan.add("t", "i", 9, LoopPlan::default());
        assert_eq!(plan.len(), keys.len());
        let mut slots = Vec::new();
        for (n, (r, v, l)) in keys.iter().enumerate() {
            let (slot, entry) = plan.lookup(r, v, *l).expect("registered");
            let expected = if n == 2 { vec![] } else { vec![n.to_string()] };
            assert_eq!(entry.private_scalars, expected);
            assert!(plan.matches(r, v, *l));
            slots.push(slot);
        }
        slots.sort_unstable();
        assert_eq!(slots, [0, 1, 2, 3]);
        assert!(!plan.matches("t", "i", 4) && !plan.matches("t", "j", 9));
        assert!(plan.lookup("u", "i", 3).is_none());
    }
}
