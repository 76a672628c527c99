//! Shadow-memory access tracing: the dynamic half of the race oracle.
//!
//! While the interpreter executes a designated DO loop sequentially, the
//! [`Tracer`] records every array-element access made inside the loop
//! body (including accesses from called subroutines) as
//! `(iteration, element, read|write, source line)`. Element identity is
//! the pair *(memory handle, flat offset)*, so aliased views of one
//! array — sequence association, COMMON, dummy arguments — coalesce
//! correctly even when routines use different names or shapes.
//!
//! Cross-iteration conflicts are classified online into the dynamic
//! counterparts of the paper's compile-time tests:
//!
//! * **flow** (`UE_i ∩ MOD_<i`): an upward-exposed read — no write to
//!   the element earlier in the same iteration — observing a value
//!   written by an earlier iteration;
//! * **anti** (`DE_i ∩ MOD_>i`): a read whose element is overwritten by
//!   a later iteration;
//! * **output** (`MOD_i ∩ (MOD_<i ∪ MOD_>i)`): writes to the same
//!   element from two different iterations.
//!
//! The per-element shadow state is O(1) — last write, last read, first
//! upward-exposed read — which suffices because sequential execution
//! delivers accesses in iteration order.

use crate::exec::ArrayRef;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};

/// Dynamic dependence class of a cross-iteration conflict.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Serialize)]
pub enum RaceClass {
    /// Write in an earlier iteration, upward-exposed read in a later one.
    Flow,
    /// Read in an earlier iteration, write in a later one.
    Anti,
    /// Writes in two different iterations.
    Output,
}

impl std::fmt::Display for RaceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RaceClass::Flow => "flow",
            RaceClass::Anti => "anti",
            RaceClass::Output => "output",
        })
    }
}

/// One concrete conflicting access pair, suitable for a diagnostic.
#[derive(Clone, Debug, Serialize)]
pub struct RaceWitness {
    /// Array name (as bound in the loop's routine when possible).
    pub array: String,
    /// Dependence class.
    pub class: RaceClass,
    /// Fortran subscripts of the conflicting element.
    pub element: Vec<i64>,
    /// Iteration of the earlier access (induction-variable value).
    pub earlier_iter: i64,
    /// Iteration of the later access.
    pub later_iter: i64,
    /// 1-based source line of the earlier access (0 if unknown).
    pub earlier_line: u32,
    /// 1-based source line of the later access.
    pub later_line: u32,
}

/// Dynamic conflict summary for one array over the traced loop.
#[derive(Clone, Debug, Default, Serialize)]
pub struct ArrayRaces {
    /// Elements with a loop-carried flow conflict.
    pub flow_elems: u64,
    /// Elements with a loop-carried anti conflict.
    pub anti_elems: u64,
    /// Elements with a loop-carried output conflict.
    pub output_elems: u64,
    /// First flow witness.
    pub flow_witness: Option<RaceWitness>,
    /// First anti witness.
    pub anti_witness: Option<RaceWitness>,
    /// First output witness.
    pub output_witness: Option<RaceWitness>,
    /// Some element had an upward-exposed read while another iteration
    /// wrote it (either order). A per-iteration private copy of the
    /// array would leave that read uninitialized, so privatization is
    /// unsound for this array when this is set.
    pub ue_write_conflict: bool,
}

impl ArrayRaces {
    /// Any cross-iteration conflict at all?
    pub fn has_conflict(&self) -> bool {
        self.flow_elems + self.anti_elems + self.output_elems > 0
    }

    /// The witness of `class`, if one was recorded.
    pub fn witness(&self, class: RaceClass) -> Option<&RaceWitness> {
        match class {
            RaceClass::Flow => self.flow_witness.as_ref(),
            RaceClass::Anti => self.anti_witness.as_ref(),
            RaceClass::Output => self.output_witness.as_ref(),
        }
    }

    /// Classes observed on this array, in a stable order.
    pub fn classes(&self) -> Vec<RaceClass> {
        let mut v = Vec::new();
        if self.flow_elems > 0 {
            v.push(RaceClass::Flow);
        }
        if self.anti_elems > 0 {
            v.push(RaceClass::Anti);
        }
        if self.output_elems > 0 {
            v.push(RaceClass::Output);
        }
        v
    }
}

/// The result of tracing one loop: per-array dynamic conflict summaries.
#[derive(Clone, Debug, Serialize)]
pub struct LoopTrace {
    /// Routine containing the traced loop.
    pub routine: String,
    /// Loop induction variable.
    pub var: String,
    /// Iterations the loop actually executed.
    pub iterations: u64,
    /// Conflict summary per array (only arrays accessed in the loop).
    pub arrays: BTreeMap<String, ArrayRaces>,
}

impl LoopTrace {
    /// Summary for one array (None = never accessed in the loop).
    pub fn array(&self, name: &str) -> Option<&ArrayRaces> {
        self.arrays.get(name)
    }

    /// Arrays with at least one cross-iteration conflict.
    pub fn racy_arrays(&self) -> impl Iterator<Item = (&String, &ArrayRaces)> {
        self.arrays.iter().filter(|(_, r)| r.has_conflict())
    }
}

#[derive(Default)]
struct ElemState {
    /// Loop execution this state belongs to; accesses from different
    /// executions of the target loop are never loop-carried conflicts.
    instance: u32,
    /// Iteration and line of the most recent write.
    last_write: Option<(i64, u32)>,
    /// Iteration and line of the most recent read (any read).
    last_read: Option<(i64, u32)>,
    /// First upward-exposed read (read with no earlier write in the same
    /// iteration).
    first_ue_read: Option<(i64, u32)>,
    flagged_flow: bool,
    flagged_anti: bool,
    flagged_output: bool,
}

impl ElemState {
    /// Clears per-execution state when a new execution of the target
    /// loop begins (e.g. the loop is nested inside an outer loop, or two
    /// sibling loops share the index variable). Accumulated array-level
    /// race counts are kept; only the carried-dependence bookkeeping
    /// resets.
    fn roll_instance(&mut self, instance: u32) {
        if self.instance != instance {
            *self = ElemState {
                instance,
                ..ElemState::default()
            };
        }
    }
}

struct ArrayShadow {
    name: String,
    dims: Vec<(i64, i64)>,
    elems: HashMap<usize, ElemState>,
    races: ArrayRaces,
}

/// Online shadow-memory recorder attached to a sequential run.
pub(crate) struct Tracer {
    cur_iter: i64,
    cur_line: u32,
    cur_instance: u32,
    iterations: u64,
    arrays: HashMap<usize, ArrayShadow>,
}

impl Tracer {
    pub(crate) fn new() -> Tracer {
        Tracer {
            cur_iter: 0,
            cur_line: 0,
            cur_instance: 0,
            iterations: 0,
            arrays: HashMap::new(),
        }
    }

    /// Registers the target routine's own array bindings so witnesses
    /// report the names visible at the loop, not callee dummy names.
    /// Called once per dynamic execution of the target loop; each
    /// execution is a separate instance for conflict detection.
    /// `names` are the routine's array slot names, in name order, and
    /// `arrays` its frame's bindings of those slots.
    pub(crate) fn enter_loop(&mut self, names: &[&str], arrays: &[Option<ArrayRef>]) {
        self.cur_instance = self.cur_instance.wrapping_add(1);
        for (name, a) in names.iter().zip(arrays) {
            let Some(a) = a else { continue };
            self.arrays.entry(a.handle).or_insert_with(|| ArrayShadow {
                name: name.to_string(),
                dims: a.dims.clone(),
                elems: HashMap::new(),
                races: ArrayRaces::default(),
            });
        }
    }

    pub(crate) fn begin_iter(&mut self, iv: i64) {
        self.cur_iter = iv;
        self.iterations += 1;
    }

    pub(crate) fn set_line(&mut self, line: u32) {
        if line != 0 {
            self.cur_line = line;
        }
    }

    fn shadow(&mut self, handle: usize, name: &str, dims: &[(i64, i64)]) -> &mut ArrayShadow {
        self.arrays.entry(handle).or_insert_with(|| ArrayShadow {
            name: name.to_string(),
            dims: dims.to_vec(),
            elems: HashMap::new(),
            races: ArrayRaces::default(),
        })
    }

    pub(crate) fn record_read(
        &mut self,
        handle: usize,
        name: &str,
        dims: &[(i64, i64)],
        flat: usize,
    ) {
        let (iter, line, inst) = (self.cur_iter, self.cur_line, self.cur_instance);
        let sh = self.shadow(handle, name, dims);
        let e = sh.elems.entry(flat).or_default();
        e.roll_instance(inst);
        let covered = matches!(e.last_write, Some((w, _)) if w == iter);
        if !covered {
            // Upward-exposed read: the value comes from before this
            // iteration. A write by an *earlier* iteration makes it a
            // loop-carried flow dependence.
            if let Some((w_iter, w_line)) = e.last_write {
                if !e.flagged_flow {
                    e.flagged_flow = true;
                    sh.races.flow_elems += 1;
                    sh.races.ue_write_conflict = true;
                    if sh.races.flow_witness.is_none() {
                        sh.races.flow_witness = Some(RaceWitness {
                            array: sh.name.clone(),
                            class: RaceClass::Flow,
                            element: subscripts(&sh.dims, flat),
                            earlier_iter: w_iter,
                            later_iter: iter,
                            earlier_line: w_line,
                            later_line: line,
                        });
                    }
                }
            }
            if e.first_ue_read.is_none() {
                e.first_ue_read = Some((iter, line));
            }
        }
        e.last_read = Some((iter, line));
    }

    pub(crate) fn record_write(
        &mut self,
        handle: usize,
        name: &str,
        dims: &[(i64, i64)],
        flat: usize,
    ) {
        let (iter, line, inst) = (self.cur_iter, self.cur_line, self.cur_instance);
        let sh = self.shadow(handle, name, dims);
        let e = sh.elems.entry(flat).or_default();
        e.roll_instance(inst);
        if let Some((r_iter, r_line)) = e.last_read {
            if r_iter < iter && !e.flagged_anti {
                e.flagged_anti = true;
                sh.races.anti_elems += 1;
                if sh.races.anti_witness.is_none() {
                    sh.races.anti_witness = Some(RaceWitness {
                        array: sh.name.clone(),
                        class: RaceClass::Anti,
                        element: subscripts(&sh.dims, flat),
                        earlier_iter: r_iter,
                        later_iter: iter,
                        earlier_line: r_line,
                        later_line: line,
                    });
                }
            }
        }
        if let Some((w_iter, w_line)) = e.last_write {
            if w_iter < iter && !e.flagged_output {
                e.flagged_output = true;
                sh.races.output_elems += 1;
                if sh.races.output_witness.is_none() {
                    sh.races.output_witness = Some(RaceWitness {
                        array: sh.name.clone(),
                        class: RaceClass::Output,
                        element: subscripts(&sh.dims, flat),
                        earlier_iter: w_iter,
                        later_iter: iter,
                        earlier_line: w_line,
                        later_line: line,
                    });
                }
            }
        }
        if let Some((u_iter, _)) = e.first_ue_read {
            if u_iter != iter {
                // Read of the incoming value in one iteration, write in
                // another: a private uninitialized copy would change the
                // value that read observes.
                sh.races.ue_write_conflict = true;
            }
        }
        e.last_write = Some((iter, line));
    }

    pub(crate) fn finish(self, routine: &str, var: &str) -> LoopTrace {
        let mut arrays = BTreeMap::new();
        for sh in self.arrays.into_values() {
            // Arrays never touched inside the loop were only registered;
            // skip them so the report lists actual loop accesses.
            if sh.elems.is_empty() {
                continue;
            }
            arrays.insert(sh.name, sh.races);
        }
        LoopTrace {
            routine: routine.to_string(),
            var: var.to_string(),
            iterations: self.iterations,
            arrays,
        }
    }
}

/// Inverts the column-major flat offset into Fortran subscripts.
fn subscripts(dims: &[(i64, i64)], flat: usize) -> Vec<i64> {
    if dims.is_empty() {
        return vec![flat as i64];
    }
    let mut k = flat as i64;
    let mut subs = Vec::with_capacity(dims.len());
    for &(l, u) in dims {
        let size = (u - l + 1).max(1);
        subs.push(l + k % size);
        k /= size;
    }
    subs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscripts_invert_column_major() {
        // dims (1:3, 1:2): flat 4 = (2, 2)
        assert_eq!(subscripts(&[(1, 3), (1, 2)], 4), vec![2, 2]);
        assert_eq!(subscripts(&[(0, 9)], 7), vec![7]);
    }

    #[test]
    fn flow_detected_on_ue_read_after_write() {
        let mut t = Tracer::new();
        t.begin_iter(1);
        t.set_line(10);
        t.record_write(0, "a", &[(1, 10)], 3);
        t.begin_iter(2);
        t.set_line(11);
        t.record_read(0, "a", &[(1, 10)], 3);
        let trace = t.finish("main", "i");
        let a = trace.array("a").unwrap();
        assert_eq!(a.flow_elems, 1);
        let w = a.flow_witness.as_ref().unwrap();
        assert_eq!((w.earlier_iter, w.later_iter), (1, 2));
        assert_eq!((w.earlier_line, w.later_line), (10, 11));
        assert_eq!(w.element, vec![4]);
        assert!(a.ue_write_conflict);
    }

    #[test]
    fn covered_read_is_not_flow() {
        let mut t = Tracer::new();
        for iv in 1..=3 {
            t.begin_iter(iv);
            t.set_line(5);
            t.record_write(0, "w", &[(1, 4)], 0);
            t.set_line(6);
            t.record_read(0, "w", &[(1, 4)], 0);
        }
        let trace = t.finish("main", "i");
        let w = trace.array("w").unwrap();
        assert_eq!(w.flow_elems, 0, "read is covered by same-iteration write");
        assert_eq!(w.output_elems, 1, "rewrites across iterations are output");
        assert_eq!(w.anti_elems, 1, "read then later write is anti");
        assert!(!w.ue_write_conflict, "privatization rescues this array");
    }

    #[test]
    fn anti_only_when_read_comes_first() {
        let mut t = Tracer::new();
        t.begin_iter(1);
        t.record_read(0, "b", &[(1, 8)], 2);
        t.begin_iter(2);
        t.record_write(0, "b", &[(1, 8)], 2);
        let trace = t.finish("main", "i");
        let b = trace.array("b").unwrap();
        assert_eq!(b.anti_elems, 1);
        assert_eq!(b.flow_elems, 0);
        assert!(b.ue_write_conflict, "ue read then foreign write");
    }

    #[test]
    fn separate_loop_executions_do_not_conflict() {
        let mut t = Tracer::new();
        // First execution of the target loop writes element 2 …
        t.enter_loop(&[], &[]);
        t.begin_iter(1);
        t.record_write(0, "a", &[(1, 8)], 2);
        // … a later execution (sibling loop / outer-loop re-entry) reads
        // it. Same induction values, but no loop-carried dependence.
        t.enter_loop(&[], &[]);
        t.begin_iter(1);
        t.record_read(0, "a", &[(1, 8)], 2);
        t.begin_iter(2);
        t.record_write(0, "a", &[(1, 8)], 2);
        let trace = t.finish("main", "i");
        let a = trace.array("a").unwrap();
        assert_eq!(a.flow_elems, 0, "cross-execution write/read is not carried");
        // Within the second execution: ue read at iter 1, write at iter 2.
        assert_eq!(a.anti_elems, 1);
        assert!(a.ue_write_conflict);
    }

    #[test]
    fn disjoint_elements_race_free() {
        let mut t = Tracer::new();
        for iv in 0..4 {
            t.begin_iter(iv);
            t.record_write(0, "a", &[(1, 8)], iv as usize);
            t.record_read(0, "a", &[(1, 8)], iv as usize);
        }
        let trace = t.finish("main", "i");
        let a = trace.array("a").unwrap();
        assert!(!a.has_conflict());
        assert!(!a.ue_write_conflict);
    }
}
