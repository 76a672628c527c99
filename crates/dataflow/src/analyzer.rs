//! The summary propagation engine: `SUM_segment`, `SUM_bb`, `SUM_loop`,
//! `SUM_call` (§4.1).

use crate::cache::{routine_keys, CacheKey, CachedRoutine, SummaryCache};
use crate::convert::{collect_array_reads, subscripts_region, to_pred, to_sym, ConvertCtx};
use crate::fuel::{DegradeReason, Fuel, FuelLimits};
use crate::scalars::{CounterFact, FreshNames, JoinRecord, ValueEnv};
use crate::summary::{ArraySets, Options, Summary};
use fortran::{BinOp, Expr as FExpr, LValue, Program, Stmt, StmtKind, SymbolTable};
use gar::{expand_list, Approx, Gar, GarList, LoopCtx};
use hsg::{EdgeKind, Hsg, Node, NodeId, Subgraph, SubgraphId};
use pred::{Atom, Pred};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;
use sym::Expr;
use trace::ledger::{self, Cause, Site};
use vrange::{eval_sym, loop_fixpoint, Budget, Interval, RangeEnv, ScalarAssign, ValueRange};

/// Statistics recorded during an analysis run (Fig. 4's practicality data).
#[derive(Clone, Debug, Default)]
pub struct AnalysisStats {
    /// HSG nodes visited by the backward propagation.
    pub nodes_processed: usize,
    /// Loops summarized.
    pub loops_analyzed: usize,
    /// Routines summarized.
    pub routines_analyzed: usize,
    /// Peak cumulative GAR size alive in per-node states (memory proxy).
    pub peak_state_size: usize,
    /// Total GAR pieces created across all summaries (allocation proxy).
    pub total_summary_size: usize,
}

/// Result of analyzing one routine.
#[derive(Clone, Debug)]
pub struct RoutineAnalysis {
    /// Routine name.
    pub name: String,
    /// The routine-level MOD/UE summary (formal-relative).
    pub summary: Summary,
}

/// Everything the privatization/parallelization pass needs about one loop.
#[derive(Clone, Debug)]
pub struct LoopAnalysis {
    /// Enclosing routine.
    pub routine: String,
    /// The loop's body subgraph id (a stable identifier).
    pub subgraph: SubgraphId,
    /// Loop index variable.
    pub var: String,
    /// 1-based source line of the DO statement (0 if synthetic).
    pub line: u32,
    /// Nesting depth within the routine (0 = outermost).
    pub depth: usize,
    /// Converted loop bounds (`None` = not representable).
    pub lo: Option<Expr>,
    /// Upper bound.
    pub hi: Option<Expr>,
    /// Constant step.
    pub step: i64,
    /// Per-array dependence sets.
    pub arrays: BTreeMap<String, ArraySets>,
    /// Scalars read before written in an iteration (loop-carried scalar
    /// flow dependences unless the scalar is the index).
    pub scalar_ue: BTreeSet<String>,
    /// Scalars written in the body.
    pub scalar_mod: BTreeSet<String>,
    /// Whether the body has a premature exit (multi-exit loop, §5.4).
    pub premature_exit: bool,
    /// Scalars recognized as sum/product reductions (`s = s + e` with no
    /// other uses or definitions in the body) — parallelizable with a
    /// reduction transform even though they are upwards exposed.
    pub reductions: BTreeSet<String>,
    /// Arrays used below the loop in the same routine (candidates for
    /// last-value copy-out if privatized).
    pub live_after: BTreeSet<String>,
    /// Arrays whose storage overlaps another name's (EQUIVALENCE or
    /// COMMON layout). Writes reach them under other names, so they are
    /// never privatization candidates.
    pub overlaid: BTreeSet<String>,
    /// Whether any of this loop's sets were widened because a resource
    /// budget ran out during its analysis (see [`crate::fuel`]). Widened
    /// sets are sound over-approximations; verdicts derived from them
    /// can only be conservative.
    pub degraded: bool,
    /// What the value-range pass contributed while this loop was
    /// summarized: guards refuted outright and Δ-unknown comparisons the
    /// `sym::bounds` oracle decided. Persisted here (and in cache
    /// entries) so replayed verdicts render identical provenance.
    pub range_notes: Vec<RangeNote>,
    /// Proved `(lo, hi)` interval bounds for the scalars appearing in
    /// this loop's dependence sets, snapshotted at summarization time.
    /// The judge re-installs them as a comparison oracle so the
    /// privatization tests decide the same Δ-unknown intersections the
    /// analyzer could.
    pub range_bounds: BTreeMap<String, (Option<i64>, Option<i64>)>,
    /// What the content pass contributed (DESIGN.md §4i): UE₍i₎ entries
    /// refuted by per-iteration coverage proofs and full-definition
    /// facts. Persisted like `range_notes` so cached replays render
    /// identical provenance.
    pub content_notes: Vec<ContentNote>,
    /// Arrays every iteration provably writes in full (every declared
    /// element) — a live-after privatized array in this set needs no
    /// FIRSTPRIVATE seeding for its LASTPRIVATE copy-out.
    pub content_full: BTreeSet<String>,
}

/// One contribution of the value-range pass (DESIGN.md §4g) recorded
/// against a loop for verdict provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RangeNote {
    /// A branch condition decided from proved ranges: its edge is dead
    /// and was not propagated into the loop's sets.
    Refute {
        /// The condition, displayed entry-relative.
        cond: String,
        /// `true` when the condition was proved to always hold (the
        /// false edge is dead); `false` when it can never hold.
        always: bool,
    },
    /// A Δ-unknown symbolic comparison the range oracle decided during
    /// summary construction.
    Compare {
        /// Left-hand side, displayed.
        lhs: String,
        /// Right-hand side, displayed.
        rhs: String,
        /// The proved justification (e.g. `m - 100 in [50, 100]`).
        detail: String,
        /// The decided relation: `lt`, `eq` or `gt`.
        result: String,
    },
}

/// One contribution of the array-content pass (DESIGN.md §4i) recorded
/// against a loop for verdict provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContentNote {
    /// UE₍i₎ for `array` was emptied: every read of the array in the
    /// body is covered by a prior definition in the same iteration.
    Refute {
        /// The array whose upward exposure was refuted.
        array: String,
        /// The coverage justification.
        detail: String,
    },
    /// Every iteration must-writes every declared element of `array`.
    FullDef {
        /// The fully defined array.
        array: String,
        /// The proof summary.
        detail: String,
    },
}

impl LoopAnalysis {
    /// A readable identifier like `interf/do k#3`.
    pub fn id(&self) -> String {
        format!("{}/do {}#{}", self.routine, self.var, self.subgraph)
    }
}

/// The analysis engine. Construct once per (program, options) pair, then
/// call [`Analyzer::run`].
pub struct Analyzer<'a> {
    program: &'a Program,
    sema: &'a fortran::ProgramSema,
    hsg: &'a Hsg,
    opts: Options,
    fresh: FreshNames,
    facts: BTreeMap<String, CounterFact>,
    /// Memoized context-free routine summaries.
    routine_summaries: BTreeMap<String, Summary>,
    /// Cross-run content-addressed summary cache (see [`crate::cache`]).
    cache: Option<Arc<dyn SummaryCache>>,
    /// Content keys per routine, computed once when a cache is attached.
    cache_keys: BTreeMap<String, CacheKey>,
    /// Peak transient GAR state within the routine currently being
    /// summarized (feeds per-routine cache entries).
    segment_peak: usize,
    /// Resource meter: step/size/deadline budgets with sticky exhaustion
    /// (see [`crate::fuel`]).
    fuel: Fuel,
    /// Proved scalar ranges for the routine being summarized, keyed by
    /// entry-relative names (`#` synthetics only — program names stay
    /// unbound because their meaning shifts across program points).
    /// Shared with the `sym::bounds` oracle closure.
    ranges: Rc<RefCell<RangeEnv>>,
    /// Step budget for the value-range pass, reset per routine so
    /// cached summaries are byte-identical to recomputation.
    range_budget: Rc<Budget>,
    /// Guard refutations found since the enclosing loop (if any) last
    /// collected its notes.
    pending_refutes: Vec<RangeNote>,
    /// Routines currently being summarized, innermost last — the site
    /// attribution for ledger events recorded at depths (`fuel_clamp`,
    /// `widen_bb`) where no routine name is otherwise in scope.
    routine_stack: Vec<String>,
    /// All loop analyses, in post-order of discovery.
    pub loops: Vec<LoopAnalysis>,
    /// Statistics.
    pub stats: AnalysisStats,
    /// Backward-propagation trace lines (when `opts.trace`).
    pub trace: Vec<String>,
}

/// Per-node state during backward propagation.
#[derive(Clone, Debug, Default)]
struct State {
    mods: BTreeMap<String, GarList>,
    ues: BTreeMap<String, GarList>,
    scalar_ue: BTreeSet<String>,
}

impl State {
    fn size(&self) -> usize {
        self.mods.values().map(GarList::size).sum::<usize>()
            + self.ues.values().map(GarList::size).sum::<usize>()
    }

    fn guarded_by(&self, p: &Pred) -> State {
        State {
            mods: self
                .mods
                .iter()
                .map(|(k, v)| (k.clone(), v.guarded_by(p)))
                .collect(),
            ues: self
                .ues
                .iter()
                .map(|(k, v)| (k.clone(), v.guarded_by(p)))
                .collect(),
            scalar_ue: self.scalar_ue.clone(),
        }
    }

    fn union(mut self, other: &State) -> State {
        for (k, v) in &other.mods {
            let e = self.mods.entry(k.clone()).or_default();
            *e = e.union(v);
        }
        for (k, v) in &other.ues {
            let e = self.ues.entry(k.clone()).or_default();
            *e = e.union(v);
        }
        self.scalar_ue.extend(other.scalar_ue.iter().cloned());
        self
    }

    fn mark_over(self) -> State {
        State {
            mods: self
                .mods
                .into_iter()
                .map(|(k, v)| (k.clone_into_key(), v.mark_over()))
                .collect(),
            ues: self
                .ues
                .into_iter()
                .map(|(k, v)| (k.clone_into_key(), v.mark_over()))
                .collect(),
            scalar_ue: self.scalar_ue,
        }
    }
}

// small helper so the map re-collect above reads cleanly
trait CloneIntoKey {
    fn clone_into_key(self) -> String;
}
impl CloneIntoKey for String {
    fn clone_into_key(self) -> String {
        self
    }
}

impl<'a> Analyzer<'a> {
    /// Creates an analyzer.
    pub fn new(
        program: &'a Program,
        sema: &'a fortran::ProgramSema,
        hsg: &'a Hsg,
        opts: Options,
    ) -> Self {
        Analyzer::with_cache(program, sema, hsg, opts, None)
    }

    /// Creates an analyzer that consults (and feeds) a cross-run
    /// content-addressed summary cache at the `SUM_call` boundary.
    /// Traced runs (`opts.trace`) bypass the cache: a replay would skip
    /// the propagation whose trace the caller asked for.
    pub fn with_cache(
        program: &'a Program,
        sema: &'a fortran::ProgramSema,
        hsg: &'a Hsg,
        opts: Options,
        cache: Option<Arc<dyn SummaryCache>>,
    ) -> Self {
        Analyzer::with_limits(program, sema, hsg, opts, cache, FuelLimits::unlimited())
    }

    /// Creates an analyzer with resource budgets (see [`crate::fuel`]).
    ///
    /// Result-constraining limits (steps, GAR-length cap, predicate-term
    /// cap) bypass the summary cache entirely, like traced runs: a warm
    /// hit would replay a full-precision summary that a cold run under
    /// the same limits would have widened, making the report depend on
    /// cache state. A deadline alone keeps the cache — a hit can only
    /// restore precision — but degraded results are never written back
    /// (see [`Analyzer::summarize_routine`]).
    pub fn with_limits(
        program: &'a Program,
        sema: &'a fortran::ProgramSema,
        hsg: &'a Hsg,
        opts: Options,
        cache: Option<Arc<dyn SummaryCache>>,
        limits: FuelLimits,
    ) -> Self {
        let cache = if opts.trace || limits.constrains_results() {
            if cache.is_some() {
                ledger::record(Cause::CacheBypass, || {
                    Site::default().detail(if opts.trace {
                        "summary cache bypassed: propagation trace requested"
                    } else {
                        "summary cache bypassed: resource limits constrain results"
                    })
                });
            }
            None
        } else {
            cache
        };
        let cache_keys = if cache.is_some() {
            routine_keys(program, sema, &opts)
        } else {
            BTreeMap::new()
        };
        Analyzer {
            program,
            sema,
            hsg,
            opts,
            fresh: FreshNames::default(),
            facts: BTreeMap::new(),
            routine_summaries: BTreeMap::new(),
            cache,
            cache_keys,
            segment_peak: 0,
            fuel: Fuel::new(limits),
            ranges: Rc::new(RefCell::new(RangeEnv::new())),
            range_budget: Rc::new(Budget::default()),
            pending_refutes: Vec::new(),
            routine_stack: Vec::new(),
            loops: Vec::new(),
            stats: AnalysisStats::default(),
            trace: Vec::new(),
        }
    }

    /// Runs the analysis over every routine, callees first.
    pub fn run(&mut self) -> Vec<RoutineAnalysis> {
        let order = self.sema.bottom_up.clone();
        let mut out = Vec::new();
        for name in order {
            failpoints::fail_point("analyze", &name);
            let summary = self.summarize_routine(&name);
            out.push(RoutineAnalysis {
                name: name.clone(),
                summary,
            });
        }
        out
    }

    /// Why (and whether) this run degraded: `None` means every budget
    /// held and the results are full precision.
    pub fn degradation(&self) -> Option<DegradeReason> {
        self.fuel.reason()
    }

    /// Consumes the analyzer, returning the loop analyses, statistics and
    /// trace.
    pub fn finish(self) -> (Vec<LoopAnalysis>, AnalysisStats, Vec<String>) {
        (self.loops, self.stats, self.trace)
    }

    /// The memoized context-free summary of a routine. With a cache
    /// attached, identical routine content summarized by any prior run
    /// is replayed instead of recomputed.
    pub fn summarize_routine(&mut self, name: &str) -> Summary {
        if let Some(s) = self.routine_summaries.get(name) {
            return s.clone();
        }
        let Some((cache, key)) = self.cache.clone().zip(self.cache_keys.get(name).copied()) else {
            return self.summarize_cold(name);
        };
        if let Some(entry) = cache.get(&key) {
            failpoints::fail_point("cache-replay", name);
            if let Some(summary) = self.replay_cached(name, &entry) {
                trace::add("cache_replays", 1);
                trace::event("cache_replay", || name.to_string());
                return summary;
            }
        }
        trace::add("cache_misses", 1);
        let loops_before = self.loops.len();
        let stats_before = self.stats.clone();
        let summary = self.summarize_cold(name);
        // A summary computed under a blown budget is widened; caching it
        // would serve the degraded result to later full-budget requests.
        if self.fuel.degraded() {
            return summary;
        }
        if let Some(entry) = self.record_entry(name, &summary, loops_before, &stats_before) {
            cache.put(key, Arc::new(entry));
        }
        summary
    }

    /// Cold summarization (no cache consultation). Fresh-name scoping
    /// makes the result — including every synthetic name inside it — a
    /// pure function of the routine's content, so cached replays are
    /// bitwise-identical to recomputation.
    fn summarize_cold(&mut self, name: &str) -> Summary {
        let _span = trace::span_with(|| format!("sum_routine:{name}"));
        let sg = *self
            .hsg
            .routines
            .get(name)
            .unwrap_or_else(|| panic!("routine {name} not in HSG"));
        let table = &self.sema.tables[name];
        let loop_vars = BTreeSet::new();
        let scope = self.fresh.enter_scope(name);
        self.routine_stack.push(name.to_string());
        let saved_peak = std::mem::take(&mut self.segment_peak);
        // Value-range pass (DESIGN.md §4g): give the routine a fresh
        // fact environment and a full step budget — its summary (and the
        // names/notes inside it) must be a pure function of its content
        // for cache replays to stay byte-identical — and install the
        // comparison oracle unless an enclosing summarization already
        // holds it for this thread.
        let range_state = if self.opts.value_range {
            let saved_env = std::mem::take(&mut *self.ranges.borrow_mut());
            let saved_budget = self.range_budget.save();
            self.range_budget.reset(
                self.fuel
                    .limits()
                    .range_budget
                    .unwrap_or(vrange::DEFAULT_BUDGET),
            );
            let saved_refutes = std::mem::take(&mut self.pending_refutes);
            let guard = if sym::bounds::oracle_active() {
                None
            } else {
                let env = Rc::clone(&self.ranges);
                let budget = Rc::clone(&self.range_budget);
                Some(sym::bounds::OracleGuard::install(Box::new(
                    move |diff: &Expr| {
                        let iv = eval_sym(diff, &env.borrow(), &budget).interval;
                        if iv.is_empty() {
                            return None;
                        }
                        let ord = if iv.as_const() == Some(0) {
                            sym::SymOrdering::Equal
                        } else if iv.hi.is_some_and(|h| h < 0) {
                            sym::SymOrdering::Less
                        } else if iv.lo.is_some_and(|l| l > 0) {
                            sym::SymOrdering::Greater
                        } else {
                            return None;
                        };
                        Some((ord, format!("{diff} in {iv}")))
                    },
                )))
            };
            Some((saved_env, saved_budget, saved_refutes, guard))
        } else {
            None
        };
        let summary = self.sum_segment(sg, name, table, ValueEnv::identity(), &loop_vars, 0);
        if let Some((saved_env, saved_budget, saved_refutes, guard)) = range_state {
            // The exhaustion flag is about to be overwritten by the
            // restore: this is the only window where the run can account
            // for range facts the routine silently lost to ⊤.
            if self.range_budget.degraded() {
                ledger::record(Cause::RangeBudget, || {
                    Site::routine(name)
                        .detail("value-range budget exhausted: remaining range queries answered ⊤")
                });
            }
            *self.ranges.borrow_mut() = saved_env;
            self.range_budget.restore(saved_budget);
            self.pending_refutes = saved_refutes;
            drop(guard);
        }
        self.routine_stack.pop();
        self.segment_peak = saved_peak.max(self.segment_peak);
        self.fresh.leave_scope(scope);
        self.stats.routines_analyzed += 1;
        self.stats.total_summary_size += summary.size();
        trace::add("summary_gar_pieces", summary.size() as u64);
        self.routine_summaries
            .insert(name.to_string(), summary.clone());
        summary
    }

    /// The deterministic pre-order list of a routine's loop-body
    /// subgraphs. Its indices are the *canonical loop ordinals* cache
    /// entries use in place of absolute [`SubgraphId`]s: HSG
    /// construction is deterministic per routine, so any program
    /// embedding the same routine text yields the same ordinal order
    /// even though the absolute ids differ. Loops inside condensed
    /// goto-cycles are excluded, matching `sum_condensed` (they are
    /// never individually analyzed).
    fn loop_bodies(&self, routine: &str) -> Vec<SubgraphId> {
        fn walk(hsg: &Hsg, sg: SubgraphId, out: &mut Vec<SubgraphId>) {
            for node in &hsg.subgraphs[sg].nodes {
                if let Node::Loop { body, .. } = node {
                    out.push(*body);
                    walk(hsg, *body, out);
                }
            }
        }
        let mut out = Vec::new();
        if let Some(&sg) = self.hsg.routines.get(routine) {
            walk(self.hsg, sg, &mut out);
        }
        out
    }

    /// Replays a cached routine: remaps the recorded loop analyses onto
    /// this program's subgraph ids, replays the recorded statistics
    /// deltas, and installs the summary. Returns `None` (falling back
    /// to cold analysis) if the entry does not line up with this
    /// program's HSG — impossible unless the content hash collided.
    fn replay_cached(&mut self, name: &str, entry: &CachedRoutine) -> Option<Summary> {
        let bodies = self.loop_bodies(name);
        let mut mapped = Vec::with_capacity(entry.loops.len());
        for (ordinal, la) in &entry.loops {
            let &sg = bodies.get(*ordinal)?;
            let mut la = la.clone();
            la.subgraph = sg;
            mapped.push(la);
        }
        self.loops.extend(mapped);
        self.stats.nodes_processed += entry.nodes_processed;
        self.stats.loops_analyzed += entry.loops_analyzed;
        self.stats.routines_analyzed += 1;
        self.stats.total_summary_size += entry.summary_size;
        self.stats.peak_state_size = self.stats.peak_state_size.max(entry.peak_state_size);
        self.segment_peak = self.segment_peak.max(entry.peak_state_size);
        self.routine_summaries
            .insert(name.to_string(), entry.summary.clone());
        Some(entry.summary.clone())
    }

    /// Builds the cache entry for a routine just summarized cold.
    /// Declines (returns `None`) when the extent was not self-contained
    /// — i.e. another routine was summarized inside it, which happens
    /// only when callers bypass the bottom-up order of [`Analyzer::run`]
    /// — because the recorded deltas would then double-count on replay.
    fn record_entry(
        &self,
        name: &str,
        summary: &Summary,
        loops_before: usize,
        stats_before: &AnalysisStats,
    ) -> Option<CachedRoutine> {
        if self.stats.routines_analyzed != stats_before.routines_analyzed + 1 {
            return None;
        }
        let bodies = self.loop_bodies(name);
        let mut loops = Vec::with_capacity(self.loops.len() - loops_before);
        for la in &self.loops[loops_before..] {
            let ordinal = bodies.iter().position(|&b| b == la.subgraph)?;
            loops.push((ordinal, la.clone()));
        }
        Some(CachedRoutine {
            summary: summary.clone(),
            loops,
            nodes_processed: self.stats.nodes_processed - stats_before.nodes_processed,
            loops_analyzed: self.stats.loops_analyzed - stats_before.loops_analyzed,
            peak_state_size: self.segment_peak,
            summary_size: self.stats.total_summary_size - stats_before.total_summary_size,
        })
    }

    /// `SUM_segment`: summarizes one flow subgraph under an entry value
    /// environment.
    fn sum_segment(
        &mut self,
        sg_id: SubgraphId,
        routine: &str,
        table: &SymbolTable,
        env_in: ValueEnv,
        loop_vars: &BTreeSet<String>,
        depth: usize,
    ) -> Summary {
        let g = &self.hsg.subgraphs[sg_id];
        let n = g.nodes.len();

        // ---- forward pass: value environments + per-node summaries ----
        let mut env_out: Vec<Option<ValueEnv>> = vec![None; n];
        let mut node_sum: Vec<Summary> = vec![Summary::new(); n];
        let mut cond_pred: Vec<Option<Pred>> = vec![None; n];
        // Branch conditions decided by the value-range pass: Some(true)
        // means the condition provably holds on every execution reaching
        // the node (the false edge is dead), Some(false) the reverse.
        let mut cond_known: Vec<Option<bool>> = vec![None; n];
        let mut node_must_scalar: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
        // loop-node summaries feed the live_after computation later
        let mut loop_of_node: Vec<Option<usize>> = vec![None; n];

        for &nid in &g.topo.clone() {
            if !self.fuel.tick() {
                return self.widen_segment(sg_id, routine, table, depth, &loop_of_node);
            }
            // Entry env: join of predecessors' outputs.
            let mut env = if nid == g.entry {
                env_in.clone()
            } else {
                let mut acc: Option<ValueEnv> = None;
                let mut joins: Vec<JoinRecord> = Vec::new();
                for &p in &g.preds[nid] {
                    if let Some(pe) = &env_out[p] {
                        acc = Some(match acc {
                            None => pe.clone(),
                            Some(a) => a.join_recording(pe, &mut self.fresh, &mut joins),
                        });
                    }
                }
                // A join synthetic's value is one of the two merged arm
                // values: its proved range is the join of theirs.
                if self.opts.value_range && !joins.is_empty() {
                    let mut renv = self.ranges.borrow_mut();
                    for j in &joins {
                        let l = eval_sym(&j.left, &renv, &self.range_budget);
                        let r = eval_sym(&j.right, &renv, &self.range_budget);
                        let v = l.join(&r);
                        renv.set(j.synthetic.as_str(), v);
                    }
                }
                acc.unwrap_or_else(|| env_in.clone())
            };

            match &g.nodes[nid].clone() {
                Node::Entry | Node::Exit => {}
                Node::Block(stmts) => {
                    let (sum, must) = self.sum_bb(stmts, routine, table, &mut env, loop_vars);
                    node_must_scalar[nid] = must;
                    node_sum[nid] = sum;
                }
                Node::IfCond(c) => {
                    let ctx = self.ctx(table, &env, loop_vars);
                    let mut sum = Summary::new();
                    for (arr, region) in collect_array_reads(c, &ctx) {
                        let use_list = GarList::single(Gar::new(Pred::tru(), region));
                        sum.add_de(arr.as_str(), use_list.clone());
                        sum.add_ue(arr.as_str(), use_list);
                    }
                    for s in scalar_reads(c, table) {
                        sum.scalar_ue.insert(s);
                    }
                    cond_pred[nid] = if self.opts.if_conditions {
                        to_pred(c, &ctx)
                    } else {
                        None
                    };
                    node_sum[nid] = sum;
                    if self.opts.value_range {
                        cond_known[nid] = self.decide_cond(c, table, &env, loop_vars);
                    }
                }
                Node::Call { name, args } => {
                    let sum = self.sum_call(name, args, routine, table, &mut env, loop_vars);
                    node_must_scalar[nid] = sum.scalar_must_mod.clone();
                    node_sum[nid] = sum;
                }
                Node::Loop {
                    var,
                    line,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    let (sum, idx) = self.sum_loop(
                        *body,
                        var,
                        *line,
                        lo,
                        hi,
                        step.as_ref(),
                        routine,
                        table,
                        &mut env,
                        loop_vars,
                        depth,
                    );
                    loop_of_node[nid] = idx;
                    node_must_scalar[nid] = sum.scalar_must_mod.clone();
                    node_sum[nid] = sum;
                }
                Node::Condensed(members) => {
                    let sum = self.sum_condensed(members, routine, table, &mut env, loop_vars);
                    node_sum[nid] = sum;
                }
            }
            env_out[nid] = Some(env);
        }

        // ---- backward pass: mod_in / ue_in ----
        let mut state: Vec<Option<State>> = vec![None; n];
        for &nid in g.topo.clone().iter().rev() {
            if !self.fuel.tick() {
                return self.widen_segment(sg_id, routine, table, depth, &loop_of_node);
            }
            self.stats.nodes_processed += 1;
            let merged = self.merge_succs(g, nid, &cond_pred, &cond_known, &state);

            // Guard invalidation: conditions depending on an array's
            // values go stale above a node that writes the array.
            let mut merged = merged;
            for (arr, mods) in &node_sum[nid].mods {
                if !mods.is_empty() {
                    merged = State {
                        mods: merged
                            .mods
                            .iter()
                            .map(|(k, v)| (k.clone(), forget_guard_dep(v, arr)))
                            .collect(),
                        ues: merged
                            .ues
                            .iter()
                            .map(|(k, v)| (k.clone(), forget_guard_dep(v, arr)))
                            .collect(),
                        scalar_ue: merged.scalar_ue,
                    };
                }
            }

            // Transfer: mod_in = mod(n) ∪ merged_mod;
            //           ue_in = ue(n) ∪ (merged_ue − mod(n)).
            let ns = &node_sum[nid];
            let mut st = State::default();
            for (arr, list) in &ns.mods {
                st.mods.insert(arr.clone(), list.clone());
            }
            for (arr, list) in &merged.mods {
                let e = st.mods.entry(arr.clone()).or_default();
                *e = e.union(list);
            }
            for (arr, list) in &merged.ues {
                let killed = match ns.mods.get(arr) {
                    Some(m) => list.subtract(m),
                    None => list.clone(),
                };
                if !killed.is_empty() {
                    let e = st.ues.entry(arr.clone()).or_default();
                    *e = e.union(&killed);
                }
            }
            for (arr, list) in &ns.ues {
                let e = st.ues.entry(arr.clone()).or_default();
                *e = e.union(list);
            }
            st.scalar_ue = ns.scalar_ue.clone();
            for s in &merged.scalar_ue {
                if !node_must_scalar[nid].contains(s) {
                    st.scalar_ue.insert(s.clone());
                }
            }

            // Size caps: collapse any list/guard that outgrew its budget
            // to a sound over-approximation and keep propagating.
            for list in st.mods.values_mut() {
                *list = self.fuel_clamp(std::mem::take(list));
            }
            for list in st.ues.values_mut() {
                *list = self.fuel_clamp(std::mem::take(list));
            }

            if self.opts.trace {
                self.trace_node(routine, sg_id, nid, g, &st);
            }
            // live_after for loops: arrays upward-exposed just below.
            if let Some(li) = loop_of_node[nid] {
                let below = self.merge_succs(g, nid, &cond_pred, &cond_known, &state);
                let live: BTreeSet<String> = below
                    .ues
                    .iter()
                    .filter(|(_, v)| !v.is_empty())
                    .map(|(k, _)| k.clone())
                    .collect();
                // Post-loop liveness is transitive: once a nested loop
                // finishes, anything live after THIS loop is still live,
                // so its copy-out decision must see it too.
                if !live.is_empty() {
                    for di in self.loops_under(self.loops[li].subgraph) {
                        self.loops[di].live_after.extend(live.iter().cloned());
                    }
                }
                self.loops[li].live_after.extend(live);
            }

            let live = state.iter().flatten().map(State::size).sum::<usize>() + st.size();
            self.stats.peak_state_size = self.stats.peak_state_size.max(live);
            self.segment_peak = self.segment_peak.max(live);
            state[nid] = Some(st);
        }

        // ---- forward pass: downwards-exposed uses (DE) ----
        // de_out(n) = de(n)·reach(n) ∪ (merge(de_out(preds), edge guards)
        //             − mod(n)), where reach(n) is the disjunction of path
        // conditions from the entry — so uses born inside a branch carry
        // the branch condition.
        let edge_guard = |p: NodeId, kind: EdgeKind, facts: &BTreeMap<String, CounterFact>| match (
            &cond_pred[p],
            kind,
        ) {
            (Some(c), EdgeKind::True) if self.opts.if_conditions => {
                Some(crate::convert::apply_counter_facts(c.clone(), facts))
            }
            (Some(c), EdgeKind::False) if self.opts.if_conditions => {
                Some(crate::convert::apply_counter_facts(c.not(), facts))
            }
            (None, EdgeKind::True | EdgeKind::False) => Some(Pred::unknown()),
            _ => None,
        };
        let mut reach: Vec<Pred> = vec![Pred::fals(); n];
        for &nid in &g.topo.clone() {
            if !self.fuel.tick() {
                return self.widen_segment(sg_id, routine, table, depth, &loop_of_node);
            }
            if nid == g.entry {
                reach[nid] = Pred::tru();
                continue;
            }
            let mut acc = Pred::fals();
            for &p in &g.preds[nid] {
                let kinds: Vec<EdgeKind> = g.succs[p]
                    .iter()
                    .filter(|&&(t, _)| t == nid)
                    .map(|&(_, k)| k)
                    .collect();
                for kind in kinds {
                    if dead_edge(&cond_known, p, kind) {
                        continue;
                    }
                    let piece = match edge_guard(p, kind, &self.facts) {
                        Some(c) => reach[p].and(&c),
                        None => reach[p].clone(),
                    };
                    acc = acc.or(&piece);
                }
            }
            reach[nid] = acc;
        }
        let mut de_state: Vec<Option<BTreeMap<String, GarList>>> = vec![None; n];
        for &nid in &g.topo.clone() {
            if !self.fuel.tick() {
                return self.widen_segment(sg_id, routine, table, depth, &loop_of_node);
            }
            let mut incoming: BTreeMap<String, GarList> = BTreeMap::new();
            for &p in &g.preds[nid] {
                let Some(ps) = de_state[p].clone() else {
                    continue;
                };
                // Edge guards from IF-condition predecessors.
                let kinds: Vec<EdgeKind> = g.succs[p]
                    .iter()
                    .filter(|&&(t, _)| t == nid)
                    .map(|&(_, k)| k)
                    .collect();
                for kind in kinds {
                    if dead_edge(&cond_known, p, kind) {
                        continue;
                    }
                    let guard = edge_guard(p, kind, &self.facts);
                    for (arr, list) in &ps {
                        let piece = match &guard {
                            Some(p) => list.guarded_by(p),
                            None => list.clone(),
                        };
                        let e = incoming.entry(arr.clone()).or_default();
                        *e = e.union(&piece);
                    }
                }
            }
            let ns = &node_sum[nid];
            // Stale-guard invalidation for arrays this node writes.
            for (arr, mods) in &ns.mods {
                if !mods.is_empty() {
                    for list in incoming.values_mut() {
                        *list = forget_guard_dep(list, arr);
                    }
                }
            }
            let mut out: BTreeMap<String, GarList> = BTreeMap::new();
            for (arr, list) in incoming {
                let killed = match ns.mods.get(&arr) {
                    Some(m) => list.subtract(m),
                    None => list,
                };
                if !killed.is_empty() {
                    out.insert(arr, killed);
                }
            }
            for (arr, list) in &ns.des {
                let e = out.entry(arr.clone()).or_default();
                *e = e.union(&list.guarded_by(&reach[nid]));
            }
            de_state[nid] = Some(out);
        }

        let entry_state = state[g.entry].take().unwrap_or_default();
        let mut summary = Summary::new();
        for (arr, list) in entry_state.mods {
            if !list.is_empty() {
                summary.mods.insert(arr, list);
            }
        }
        for (arr, list) in entry_state.ues {
            if !list.is_empty() {
                summary.ues.insert(arr, list);
            }
        }
        if let Some(exit_de) = de_state[g.exit].take() {
            for (arr, list) in exit_de {
                if !list.is_empty() {
                    summary.des.insert(arr, list);
                }
            }
        }
        summary.scalar_ue = entry_state.scalar_ue;
        // Scalar may/must mods: from per-node info over the whole graph
        // (may = union everywhere, must = nodes on every path — we use the
        // conservative union/entry-block approximation).
        for ns in &node_sum {
            summary
                .scalar_may_mod
                .extend(ns.scalar_may_mod.iter().cloned());
        }
        summary.scalar_must_mod = must_scalar_mods(g, &node_must_scalar);
        // Interprocedural slice of the value-range pass: proved bounds
        // on the exit values of may-modified formals and COMMON integer
        // scalars, cached alongside the rest of `SUM_call` so callers
        // can seed the clobber synthetics of written-through actuals.
        if depth == 0 && self.opts.value_range {
            if let Some(exit_env) = env_out[g.exit].as_ref() {
                let params: Vec<String> = self
                    .program
                    .routine(routine)
                    .map(|r| r.params.clone())
                    .unwrap_or_default();
                let renv = self.ranges.borrow();
                for s in &summary.scalar_may_mod {
                    let escapes = params.iter().any(|p| p == s) || table.common_block(s).is_some();
                    if !escapes || table.scalar_ty(s) != Some(fortran::Ty::Integer) {
                        continue;
                    }
                    let iv = eval_sym(&exit_env.int_value(s), &renv, &self.range_budget).interval;
                    if !iv.is_top() && !iv.is_empty() {
                        summary.scalar_exit_range.insert(s.clone(), (iv.lo, iv.hi));
                    }
                }
            }
        }
        summary
    }

    /// Decides a branch condition from proved ranges: `Some(true)` iff
    /// it holds on every execution reaching it, `Some(false)` iff it
    /// never does. Only relational conditions whose difference stays
    /// symbolic participate — constant differences are already decided
    /// by predicate simplification, so the pass only contributes where
    /// the paper's comparison rule answers Δ-unknown.
    fn decide_cond(
        &mut self,
        c: &FExpr,
        table: &SymbolTable,
        env: &ValueEnv,
        loop_vars: &BTreeSet<String>,
    ) -> Option<bool> {
        let FExpr::Bin(op, a, b) = c else { return None };
        let op = *op;
        if !matches!(
            op,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        ) {
            return None;
        }
        let (sa, sb) = {
            let ctx = self.ctx(table, env, loop_vars);
            (to_sym(a, &ctx)?, to_sym(b, &ctx)?)
        };
        let d = sa.try_sub(&sb)?;
        if d.as_const().is_some() {
            return None;
        }
        let iv = eval_sym(&d, &self.ranges.borrow(), &self.range_budget).interval;
        if iv.is_top() || iv.is_empty() {
            return None;
        }
        let neg = iv.hi.is_some_and(|h| h < 0);
        let nonpos = iv.hi.is_some_and(|h| h <= 0);
        let pos = iv.lo.is_some_and(|l| l > 0);
        let nonneg = iv.lo.is_some_and(|l| l >= 0);
        let zero = iv.as_const() == Some(0);
        let pick = |yes: bool, no: bool| {
            if yes {
                Some(true)
            } else if no {
                Some(false)
            } else {
                None
            }
        };
        let known = match op {
            BinOp::Lt => pick(neg, nonneg),
            BinOp::Le => pick(nonpos, pos),
            BinOp::Gt => pick(pos, nonpos),
            BinOp::Ge => pick(nonneg, neg),
            BinOp::Eq => pick(zero, neg || pos),
            BinOp::Ne => pick(neg || pos, zero),
            _ => None,
        }?;
        let opstr = match op {
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            _ => "!=",
        };
        trace::add("range_refutes", 1);
        trace::event("range_refute", || {
            format!("{sa} {opstr} {sb} is always {known} ({d} in {iv})")
        });
        self.pending_refutes.push(RangeNote::Refute {
            cond: format!("{sa} {opstr} {sb}"),
            always: known,
        });
        Some(known)
    }

    /// Successor-state merge for one node, applying IF-condition guards.
    /// A branch the value-range pass proved dead contributes nothing.
    fn merge_succs(
        &mut self,
        g: &Subgraph,
        nid: NodeId,
        cond_pred: &[Option<Pred>],
        cond_known: &[Option<bool>],
        state: &[Option<State>],
    ) -> State {
        let succs = &g.succs[nid];
        if succs.is_empty() {
            return State::default();
        }
        let get = |id: NodeId| state[id].clone().unwrap_or_default();
        if matches!(g.nodes[nid], Node::IfCond(_)) {
            let (t, f) = g.branch_succs(nid);
            match cond_known[nid] {
                Some(true) => return t.map(&get).unwrap_or_default(),
                Some(false) => return f.map(&get).unwrap_or_default(),
                None => {}
            }
            let ts = t.map(&get).unwrap_or_default();
            let fs = f.map(&get).unwrap_or_default();
            match &cond_pred[nid] {
                Some(p) if self.opts.if_conditions => {
                    // Counter facts rewrite `cnt = 0` clauses that only
                    // appear after negation (∀-extension).
                    let pp = crate::convert::apply_counter_facts(p.clone(), &self.facts);
                    let np = crate::convert::apply_counter_facts(p.not(), &self.facts);
                    ts.guarded_by(&pp).union(&fs.guarded_by(&np))
                }
                _ => {
                    // Conservative merge: may = union (demoted), plus the
                    // must part = intersection of the two branches' MODs.
                    let mut merged = ts.clone().union(&fs).mark_over();
                    let arrays: BTreeSet<&String> = ts.mods.keys().chain(fs.mods.keys()).collect();
                    for arr in arrays {
                        if let (Some(a), Some(b)) = (ts.mods.get(arr), fs.mods.get(arr)) {
                            let both = a.intersect(b);
                            if !both.is_empty() {
                                let e = merged.mods.entry(arr.clone()).or_default();
                                *e = e.union(&both);
                            }
                        }
                    }
                    merged
                }
            }
        } else if succs.len() == 1 {
            get(succs[0].0)
        } else {
            // Multiple unconditional successors (condensed regions):
            // conservative union.
            let mut acc = State::default();
            for &(s, _) in succs {
                acc = acc.union(&get(s));
            }
            acc.mark_over()
        }
    }

    /// Storage-overlay poisoning: an access to `name` may touch every
    /// COMMON/EQUIVALENCE partner sharing its bytes, under that
    /// partner's own name. Writes land as unknown over-approximate MOD
    /// (never a kill), reads as unknown UE; scalar partners are
    /// clobbered so value tracking cannot see through the overlay.
    fn poison_partners(
        &mut self,
        name: &str,
        write: bool,
        table: &SymbolTable,
        env: &mut ValueEnv,
        sum: &mut Summary,
    ) {
        let partners: Vec<String> = table
            .storage_partners(name)
            .into_iter()
            .map(str::to_string)
            .collect();
        for p in partners {
            if table.is_array(&p) {
                let rank = table.array(&p).map(|a| a.rank()).unwrap_or(1);
                if write {
                    sum.add_mod(&p, GarList::single(Gar::unknown(rank)));
                } else {
                    sum.add_ue(&p, GarList::single(Gar::unknown(rank)));
                }
            } else if write {
                env.clobber(&p, &mut self.fresh);
                sum.scalar_may_mod.insert(p);
            } else {
                sum.scalar_ue.insert(p);
            }
        }
    }

    /// `SUM_bb` (§4.1): forward walk over a basic block.
    fn sum_bb(
        &mut self,
        stmts: &[Stmt],
        _routine: &str,
        table: &SymbolTable,
        env: &mut ValueEnv,
        loop_vars: &BTreeSet<String>,
    ) -> (Summary, BTreeSet<String>) {
        let mut sum = Summary::new();
        let mut mods_so_far: BTreeMap<String, GarList> = BTreeMap::new();
        let mut scalar_defed: BTreeSet<String> = BTreeSet::new();
        // (reads, array write) per statement, recorded for the DE sweep.
        #[allow(clippy::type_complexity)]
        let mut record: Vec<(
            Vec<(String, region::Region)>,
            Option<(String, region::Region)>,
        )> = Vec::new();

        for s in stmts {
            if !self.fuel.tick() {
                return self.widen_bb(stmts, table, env);
            }
            let StmtKind::Assign(lhs, rhs) = &s.kind else {
                continue; // CONTINUE etc.
            };
            // Uses: arrays read by rhs and by lhs subscripts.
            let mut stmt_reads = Vec::new();
            {
                let ctx = self.ctx(table, env, loop_vars);
                let mut reads = collect_array_reads(rhs, &ctx);
                if let LValue::Element(_, subs) = lhs {
                    for sub in subs {
                        reads.extend(collect_array_reads(sub, &ctx));
                    }
                }
                for (arr, region) in reads {
                    let mut ue = GarList::single(Gar::new(Pred::tru(), region.clone()));
                    if let Some(killed) = mods_so_far.get(&arr) {
                        ue = ue.subtract(killed);
                    }
                    sum.add_ue(&arr, ue);
                    stmt_reads.push((arr, region));
                }
            }
            // Scalar uses.
            let mut used = scalar_reads(rhs, table);
            if let LValue::Element(_, subs) = lhs {
                for sub in subs {
                    used.extend(scalar_reads(sub, table));
                }
            }
            for u in used {
                self.poison_partners(&u, false, table, env, &mut sum);
                if !scalar_defed.contains(&u) {
                    sum.scalar_ue.insert(u);
                }
            }
            // Defs.
            let mut stmt_write = None;
            match lhs {
                LValue::Element(arr, subs) => {
                    let ctx = self.ctx(table, env, loop_vars);
                    let region = subscripts_region(subs, &ctx);
                    let gar = Gar::new(Pred::tru(), region.clone());
                    sum.add_mod(arr, GarList::single(gar.clone()));
                    let e = mods_so_far.entry(arr.clone()).or_default();
                    *e = e.union_gar(gar);
                    stmt_write = Some((arr.clone(), region));
                }
                LValue::Var(v) => {
                    let value = {
                        let ctx = self.ctx(table, env, loop_vars);
                        if table.scalar_ty(v) == Some(fortran::Ty::Integer) {
                            to_sym(rhs, &ctx)
                        } else {
                            None
                        }
                    };
                    match value {
                        Some(val) => env.set_int(v, val),
                        None => {
                            env.clobber(v, &mut self.fresh);
                        }
                    }
                    scalar_defed.insert(v.clone());
                    sum.scalar_may_mod.insert(v.clone());
                    sum.scalar_must_mod.insert(v.clone());
                }
            }
            for (arr, _) in &stmt_reads {
                self.poison_partners(arr, false, table, env, &mut sum);
            }
            self.poison_partners(lhs.name(), true, table, env, &mut sum);
            record.push((stmt_reads, stmt_write));
        }
        // Downwards-exposed uses: a reverse sweep over the recorded
        // reads/writes, subtracting the mods that come *after* each read.
        {
            let mut mods_after: BTreeMap<String, GarList> = BTreeMap::new();
            for (reads, write) in record.iter().rev() {
                if let Some((arr, region)) = write {
                    let e = mods_after.entry(arr.clone()).or_default();
                    *e = e.union_gar(Gar::new(Pred::tru(), region.clone()));
                }
                for (arr, region) in reads {
                    let mut de = GarList::single(Gar::new(Pred::tru(), region.clone()));
                    if let Some(killers) = mods_after.get(arr) {
                        de = de.subtract(killers);
                    }
                    sum.add_de(arr, de);
                }
            }
        }
        let must = sum.scalar_must_mod.clone();
        (sum, must)
    }

    /// `SUM_call` (§4.1): instantiate the callee's summary at a call site.
    #[allow(clippy::too_many_arguments)]
    fn sum_call(
        &mut self,
        callee: &str,
        args: &[FExpr],
        routine: &str,
        table: &SymbolTable,
        env: &mut ValueEnv,
        loop_vars: &BTreeSet<String>,
    ) -> Summary {
        let _span = trace::span_with(|| format!("sum_call:{callee}"));
        // Reads performed by evaluating the actual argument expressions.
        let mut sum = Summary::new();
        {
            let ctx = self.ctx(table, env, loop_vars);
            for a in args {
                // A bare array name is passed by reference, not read here.
                if let FExpr::Var(_) = a {
                    // scalar by reference: neither read nor written yet
                    continue;
                }
                for (arr, region) in collect_array_reads(a, &ctx) {
                    let use_list = GarList::single(Gar::new(Pred::tru(), region));
                    sum.add_de(&arr, use_list.clone());
                    sum.add_ue(&arr, use_list);
                }
                for s in scalar_reads(a, table) {
                    sum.scalar_ue.insert(s);
                }
            }
        }

        if !self.opts.interprocedural {
            // Conservative: the call may read and write every array it can
            // reach — array actuals plus storage in COMMON blocks the
            // callee (transitively) declares. Blocks only the *caller*
            // sees are untouchable by the callee and survive intact.
            let mut clobbered: BTreeSet<String> = BTreeSet::new();
            let mut scalars: BTreeSet<String> = BTreeSet::new();
            for a in args {
                match a {
                    FExpr::Var(n) | FExpr::Index(n, _) if table.is_array(n) => {
                        clobbered.insert(n.clone());
                    }
                    FExpr::Var(n) => {
                        scalars.insert(n.clone());
                        sum.scalar_ue.insert(n.clone());
                    }
                    _ => {}
                }
            }
            let reach = self.sema.common_reach.get(callee);
            for (name, loc) in table.storage_iter() {
                let fortran::StorageClass::Common(b) = &loc.class else {
                    continue;
                };
                if !reach.is_some_and(|r| r.contains(b)) {
                    continue;
                }
                if table.is_array(name) {
                    clobbered.insert(name.to_string());
                } else {
                    scalars.insert(name.to_string());
                }
            }
            // Names overlaying clobbered storage are clobbered with it.
            for n in clobbered.clone().iter().chain(scalars.clone().iter()) {
                for p in table.storage_partners(n) {
                    if table.is_array(p) {
                        clobbered.insert(p.to_string());
                    } else {
                        scalars.insert(p.to_string());
                    }
                }
            }
            for arr in clobbered {
                let rank = table.array(&arr).map(|a| a.rank()).unwrap_or(1);
                sum.add_mod(&arr, GarList::single(Gar::unknown(rank)));
                sum.add_ue(&arr, GarList::single(Gar::unknown(rank)));
                // No DE: downward-exposed uses may only be kept when the
                // read provably survives to the segment end, and nothing
                // about the callee's accesses is known here. The unknown
                // MOD above already forces the output/flow tests, so an
                // empty DE loses no soundness — a `Gar::unknown` here
                // manufactured anti dependences on every clobbered array.
            }
            for s in scalars {
                env.clobber(&s, &mut self.fresh);
                sum.scalar_may_mod.insert(s);
            }
            return sum;
        }

        let callee_summary = self.summarize_routine(callee);
        let callee_routine = self.program.routine(callee).expect("callee exists");
        let callee_table = self.sema.tables[callee].clone();

        // Freshen callee-internal synthetic names so two call sites never
        // correlate callee-private unknowns.
        let callee_summary = self.freshen_synthetics(callee_summary);

        // Build the substitution plan.
        let mut array_map: BTreeMap<String, Option<String>> = BTreeMap::new(); // formal → actual array (None = clobber)
        let mut scalar_subst: Vec<(String, Expr)> = Vec::new();
        for (k, formal) in callee_routine.params.iter().enumerate() {
            let actual = &args[k];
            if callee_table.is_array(formal) {
                match actual {
                    FExpr::Var(a) if table.is_array(a) => {
                        array_map.insert(formal.clone(), Some(a.clone()));
                    }
                    FExpr::Index(a, _) if table.is_array(a) => {
                        // Slice/base-offset passing: conservative.
                        array_map.insert(formal.clone(), None);
                        let rank = table.array(a).map(|x| x.rank()).unwrap_or(1);
                        sum.add_mod(a, GarList::single(Gar::unknown(rank)));
                        sum.add_ue(a, GarList::single(Gar::unknown(rank)));
                    }
                    _ => {
                        // A scalar (or expression) actual bound to an
                        // array formal: the callee may write through it.
                        array_map.insert(formal.clone(), None);
                        if let FExpr::Var(v) = actual {
                            env.clobber(v, &mut self.fresh);
                            sum.scalar_may_mod.insert(v.clone());
                            sum.scalar_ue.insert(v.clone());
                        }
                    }
                }
            } else {
                let ctx = self.ctx(table, env, loop_vars);
                let value = match to_sym(actual, &ctx) {
                    Some(v) => v,
                    None => match actual {
                        // Opaque scalar: its version name correlates uses.
                        FExpr::Var(v) => Expr::var(env.version(v)),
                        _ => Expr::var(self.fresh.next(formal)),
                    },
                };
                scalar_subst.push((formal.clone(), value));
            }
        }

        // Map array summaries (0 = MOD, 1 = UE, 2 = DE).
        for (src_map, kind) in [
            (&callee_summary.mods, 0u8),
            (&callee_summary.ues, 1),
            (&callee_summary.des, 2),
        ] {
            for (arr, list) in src_map {
                let (target, target_rank) = match array_map.get(arr) {
                    Some(Some(actual)) => {
                        let r = table.array(actual).map(|x| x.rank());
                        (actual.clone(), r)
                    }
                    Some(None) => continue, // already clobbered above
                    None => {
                        // Not a formal: a COMMON (or otherwise global)
                        // array — keep its name.
                        (arr.clone(), table.array(arr).map(|x| x.rank()))
                    }
                };
                let callee_rank = list.gars().first().map(|g| g.rank());
                let mut mapped = substitute_many(list, &scalar_subst, &mut self.fresh);
                if let (Some(cr), Some(tr)) = (callee_rank, target_rank) {
                    if cr != tr {
                        // Reshaped across the call: conservative.
                        mapped = GarList::single(Gar::unknown(tr));
                    }
                }
                match kind {
                    0 => sum.add_mod(&target, mapped),
                    1 => sum.add_ue(&target, mapped),
                    _ => sum.add_de(&target, mapped),
                }
            }
        }

        // Scalar effects. Clobber synthetics for written-through actuals
        // inherit the callee's proved exit range — the interprocedural
        // slice of the value-range pass.
        let bind_exit_range = |az: &Analyzer, syn: &sym::Name, s: &str| {
            if !az.opts.value_range {
                return;
            }
            if let Some(&(lo, hi)) = callee_summary.scalar_exit_range.get(s) {
                az.ranges
                    .borrow_mut()
                    .set(syn.as_str(), ValueRange::of_interval(Interval::new(lo, hi)));
            }
        };
        for s in &callee_summary.scalar_may_mod {
            // A modified formal scalar writes through to a Var actual.
            if let Some(k) = callee_routine.params.iter().position(|p| p == s) {
                match &args[k] {
                    FExpr::Var(v) => {
                        let syn = env.clobber(v, &mut self.fresh);
                        bind_exit_range(self, &syn, s);
                        sum.scalar_may_mod.insert(v.clone());
                        if callee_summary.scalar_must_mod.contains(s) {
                            sum.scalar_must_mod.insert(v.clone());
                        }
                    }
                    // An element actual `a(k)`: the write lands in `a`.
                    FExpr::Index(a, _) if table.is_array(a) => {
                        let rank = table.array(a).map(|x| x.rank()).unwrap_or(1);
                        sum.add_mod(a, GarList::single(Gar::unknown(rank)));
                    }
                    _ => {}
                }
            } else if callee_table.common_block(s).is_some() {
                let syn = env.clobber(s, &mut self.fresh);
                bind_exit_range(self, &syn, s);
                sum.scalar_may_mod.insert(s.clone());
            }
        }
        for s in &callee_summary.scalar_ue {
            if let Some(k) = callee_routine.params.iter().position(|p| p == s) {
                for u in scalar_reads(&args[k], table) {
                    sum.scalar_ue.insert(u);
                }
            } else if callee_table.common_block(s).is_some() {
                sum.scalar_ue.insert(s.clone());
            }
        }

        // Alias-aware degradation (ISSUE 4): the mapping above assumed
        // Fortran's no-alias convention. Where the call site violates it,
        // the mapped sets degrade soundly: may-aliased targets go to
        // unknown MOD/UE, every aliased target loses its DE (interleaved
        // accesses through the other name mean a use may not actually be
        // exposed at segment end; the unknown/unioned MOD keeps the
        // output test honest). Must-aliased targets keep their unioned
        // MOD/UE — over-approximate but usable.
        let aliasing =
            alias::classify_call(self.sema, routine, callee, &callee_routine.params, args);
        trace::add("alias_classifications", 1);
        if !aliasing.clean() {
            ledger::record(Cause::AliasDegrade, || {
                let mut what = Vec::new();
                let may = aliasing.may_targets();
                if !may.is_empty() {
                    what.push(format!("may-aliased {may:?} -> unknown MOD/UE"));
                }
                let de = aliasing.de_unsafe_targets();
                if !de.is_empty() {
                    what.push(format!("DE dropped for {de:?}"));
                }
                if !aliasing.mismatched_commons.is_empty() {
                    what.push(format!(
                        "mismatched COMMON {:?} degraded",
                        aliasing.mismatched_commons
                    ));
                }
                Site::routine(routine).detail(format!("call {callee}: {}", what.join("; ")))
            });
            for t in aliasing.may_targets() {
                if table.is_array(&t) {
                    let rank = table.array(&t).map(|x| x.rank()).unwrap_or(1);
                    sum.add_mod(&t, GarList::single(Gar::unknown(rank)));
                    sum.add_ue(&t, GarList::single(Gar::unknown(rank)));
                } else {
                    env.clobber(&t, &mut self.fresh);
                    sum.scalar_may_mod.insert(t.clone());
                    sum.scalar_ue.insert(t);
                }
            }
            for t in aliasing.de_unsafe_targets() {
                sum.des.remove(&t);
            }
            // A COMMON block laid out differently across routines means
            // callee-side names do not denote caller bytes one-to-one:
            // every caller member of the block degrades.
            for b in &aliasing.mismatched_commons {
                let members: Vec<String> = table
                    .storage_iter()
                    .filter(|(_, l)| matches!(&l.class, fortran::StorageClass::Common(x) if x == b))
                    .map(|(n, _)| n.to_string())
                    .collect();
                for m in members {
                    if table.is_array(&m) {
                        let rank = table.array(&m).map(|x| x.rank()).unwrap_or(1);
                        sum.add_mod(&m, GarList::single(Gar::unknown(rank)));
                        sum.add_ue(&m, GarList::single(Gar::unknown(rank)));
                        sum.des.remove(&m);
                    } else {
                        env.clobber(&m, &mut self.fresh);
                        sum.scalar_may_mod.insert(m.clone());
                        sum.scalar_ue.insert(m);
                    }
                }
            }
        }

        // Writes mapped into caller names reach their storage partners
        // too (EQUIVALENCE/COMMON overlays on the caller side).
        for m in sum.mods.keys().cloned().collect::<Vec<_>>() {
            self.poison_partners(&m, true, table, env, &mut sum);
        }
        for s in sum.scalar_may_mod.iter().cloned().collect::<Vec<_>>() {
            self.poison_partners(&s, true, table, env, &mut sum);
        }
        sum
    }

    /// `SUM_loop` (§4.1): summarize a DO loop via body summary + expansion,
    /// and record the per-loop sets for privatization.
    #[allow(clippy::too_many_arguments)]
    fn sum_loop(
        &mut self,
        body_sg: SubgraphId,
        var: &str,
        line: u32,
        lo: &FExpr,
        hi: &FExpr,
        step: Option<&FExpr>,
        routine: &str,
        table: &SymbolTable,
        env: &mut ValueEnv,
        loop_vars: &BTreeSet<String>,
        depth: usize,
    ) -> (Summary, Option<usize>) {
        let _span = trace::span_with(|| format!("sum_loop:{routine}/{var}"));
        self.stats.loops_analyzed += 1;
        let fuel_events = self.fuel.events();
        // Attribution windows for range provenance: oracle decisions and
        // guard refutations from here to the end of this loop's
        // summarization belong to its `range_notes`.
        let range_mark = sym::bounds::log_mark();
        let refutes_before = self.pending_refutes.len();
        // Bounds in the enclosing frame.
        let ctx = self.ctx(table, env, loop_vars);
        let lo_sym = to_sym(lo, &ctx);
        let hi_sym = to_sym(hi, &ctx);
        let step_const = match step {
            None => Some(1i64),
            Some(s) => to_sym(s, &ctx)
                .and_then(|e| e.as_const())
                .filter(|&c| c != 0),
        };
        // Scalars assigned anywhere inside (incl. nested calls).
        let assigned = self.scalars_assigned(body_sg, table);

        // Body environment: enclosing env with body-modified scalars
        // clobbered (their iteration-entry values are unknown) and the
        // index mapped to its own name. The value-range pass bounds the
        // clobber synthetics with a widening/narrowing fixed point over
        // the body's scalar recurrences, so "unknown" iteration-entry
        // values still carry proved intervals.
        let loop_ranges = if self.opts.value_range {
            self.loop_carried_ranges(
                body_sg,
                table,
                var,
                lo_sym.as_ref(),
                hi_sym.as_ref(),
                step_const,
                env,
                &assigned,
            )
        } else {
            RangeEnv::new()
        };
        let mut body_env = env.clone();
        for s in &assigned {
            let syn = body_env.clobber(s, &mut self.fresh);
            if self.opts.value_range {
                let r = loop_ranges.get(s);
                if !r.is_top() {
                    self.ranges.borrow_mut().set(syn.as_str(), r);
                }
            }
        }
        body_env.set_int(var, Expr::var(var));
        let mut body_loop_vars = loop_vars.clone();
        body_loop_vars.insert(var.to_string());

        let body = self.sum_segment(
            body_sg,
            routine,
            table,
            body_env,
            &body_loop_vars,
            depth + 1,
        );
        // Back-edge liveness: an array upward-exposed anywhere in this
        // body is re-read on the next iteration of THIS loop, after any
        // nested loop has finished — so every nested loop's live-after
        // must include it. The per-segment live_after assignment only
        // sees reads lexically below a loop; the back edge reaches reads
        // above it too. Over-approximating costs an extra copy-out
        // clause, never correctness.
        let back_reads: Vec<String> = body
            .ues
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(k, _)| k.clone())
            .collect();
        if !back_reads.is_empty() {
            for di in self.loops_under(body_sg) {
                self.loops[di].live_after.extend(back_reads.iter().cloned());
            }
        }
        let premature = self.hsg.subgraphs[body_sg].premature_exit;

        // §5.4: with premature exits, loop-variant components go unknown.
        let sanitize = |list: &GarList| -> GarList {
            if !premature {
                return list.clone();
            }
            GarList::from_gars(list.gars().iter().map(|g| {
                if g.contains_var(var) {
                    Gar::with_approx(
                        g.guard.forget_var(var),
                        g.region.forget_var(var),
                        Approx::Over,
                    )
                } else {
                    g.clone()
                }
            }))
        };

        // Counter-pattern detection (∀-extension).
        let counters = if self.opts.forall_ext && !premature {
            self.detect_counters(body_sg, var, table, env, loop_vars, &assigned)
        } else {
            BTreeMap::new()
        };

        // Content refinement (DESIGN.md §4i): walk the loop-body AST
        // once and prove per-iteration read coverage (refutes UE₍i₎
        // entries the backward pass over-approximated — array-element
        // guards in particular) and full-definition facts. Storage-
        // associated arrays are excluded: their elements are reachable
        // under other names the coverage proof does not see.
        let mut content_refuted: BTreeSet<String> = BTreeSet::new();
        let mut content_full: BTreeSet<String> = BTreeSet::new();
        let mut content_notes: Vec<ContentNote> = Vec::new();
        if self.opts.content && !premature && line != 0 {
            let _cspan = trace::span("content:refine");
            let content_budget = Budget::new(
                self.fuel
                    .limits()
                    .content_budget
                    .unwrap_or(vrange::DEFAULT_BUDGET),
            );
            if let Some(body_ast) = self
                .program
                .routine(routine)
                .and_then(|r| find_do_body(&r.body, line, var))
            {
                let facts =
                    content::analyze_loop_body(body_ast, var, loop_vars, table, &content_budget);
                if !facts.degraded() {
                    for arr in body.arrays() {
                        if !table.storage_partners(&arr).is_empty() {
                            continue;
                        }
                        if !body.ue_of(&arr).definitely_empty() {
                            if let Some(detail) = facts.covers_reads(&arr) {
                                content_refuted.insert(arr.clone());
                                content_notes.push(ContentNote::Refute {
                                    array: arr.clone(),
                                    detail,
                                });
                                trace::add("content:ue_refuted", 1);
                            }
                        }
                        let const_bounds = table.declared_bounds(&arr).and_then(|bs| {
                            bs.iter()
                                .map(|&(l, h)| Some((l?, h?)))
                                .collect::<Option<Vec<_>>>()
                        });
                        if let Some(bs) = const_bounds {
                            if let Some(detail) = facts.fully_defines(&arr, &bs) {
                                content_full.insert(arr.clone());
                                content_notes.push(ContentNote::FullDef {
                                    array: arr.clone(),
                                    detail,
                                });
                                trace::add("content:full_def", 1);
                            }
                        }
                    }
                } else if facts.refused() {
                    trace::add("content:degraded", 1);
                    ledger::record(Cause::ContentRefused, || {
                        Site::routine(routine).var(var).line(line).detail(
                            "content pass refused loop body: \
                             unmodelled control flow (CALL/GOTO/RETURN/STOP)",
                        )
                    });
                } else {
                    trace::add("content:degraded", 1);
                    ledger::record(Cause::ContentBudget, || {
                        Site::routine(routine).var(var).line(line).detail(
                            "content budget exhausted: coverage and full-definition \
                             facts for this loop discarded",
                        )
                    });
                }
            }
        }

        let mut loop_sum = Summary::new();
        let mut sets: BTreeMap<String, ArraySets> = BTreeMap::new();

        let ascending = match (&lo_sym, &hi_sym, step_const) {
            (Some(lo_e), Some(hi_e), Some(step_c)) => ascending_bounds(lo_e, hi_e, step_c, var),
            _ => None,
        };
        match ascending {
            Some(AscendingBounds {
                lo: lo_e,
                hi: hi_e,
                step: step_c,
                before,
                after,
            }) => {
                let k = self.fresh.next(var);

                for arr in body.arrays() {
                    let mod_i = sanitize(&body.mod_of(&arr));
                    let ue_i = if content_refuted.contains(&arr) {
                        GarList::empty()
                    } else {
                        sanitize(&body.ue_of(&arr))
                    };
                    let de_i = sanitize(&body.de_of(&arr));

                    // MOD_<i: rename i→k, expand k over [lo, i - step].
                    let mod_k = rename_var(&mod_i, var, k.as_str());
                    let mut ctx_lt =
                        LoopCtx::new(k.as_str().to_string(), lo_e.clone(), before.clone());
                    ctx_lt.step = step_c;
                    ctx_lt.forall_ext = self.opts.forall_ext;
                    let mod_lt = self.fuel_clamp(expand_list(&mod_k, &ctx_lt));

                    // MOD_>i.
                    let mut ctx_gt =
                        LoopCtx::new(k.as_str().to_string(), after.clone(), hi_e.clone());
                    ctx_gt.step = step_c;
                    ctx_gt.forall_ext = self.opts.forall_ext;
                    let mod_gt = self.fuel_clamp(expand_list(&mod_k, &ctx_gt));

                    // Loop-level UE and MOD.
                    let ue_out = ue_i.subtract(&mod_lt);
                    let mut ctx_all = LoopCtx::new(var.to_string(), lo_e.clone(), hi_e.clone());
                    ctx_all.step = step_c;
                    ctx_all.forall_ext = self.opts.forall_ext;
                    let ue_loop = self.fuel_clamp(expand_list(&ue_out, &ctx_all));
                    let mod_loop = self.fuel_clamp(expand_list(&mod_i, &ctx_all));
                    // Loop-level DE: uses of iteration i still exposed at
                    // the loop's end — not overwritten by later iterations.
                    let de_out = de_i.subtract(&mod_gt);
                    let de_loop = self.fuel_clamp(expand_list(&de_out, &ctx_all));

                    loop_sum.add_mod(&arr, mod_loop);
                    loop_sum.add_ue(&arr, ue_loop);
                    loop_sum.add_de(&arr, de_loop);
                    sets.insert(
                        arr.clone(),
                        ArraySets {
                            mod_i,
                            ue_i,
                            de_i,
                            mod_lt,
                            mod_gt,
                        },
                    );
                }
            }
            None => {
                // Bounds not representable (or overflowing): forget the
                // index everywhere.
                for arr in body.arrays() {
                    let m =
                        GarList::from_gars(sanitize(&body.mod_of(&arr)).gars().iter().map(|g| {
                            Gar::with_approx(
                                g.guard.forget_var(var),
                                g.region.forget_var(var),
                                Approx::Over,
                            )
                        }));
                    let ue_body = if content_refuted.contains(&arr) {
                        GarList::empty()
                    } else {
                        body.ue_of(&arr)
                    };
                    let u = GarList::from_gars(sanitize(&ue_body).gars().iter().map(|g| {
                        Gar::with_approx(
                            g.guard.forget_var(var),
                            g.region.forget_var(var),
                            Approx::Over,
                        )
                    }));
                    let d =
                        GarList::from_gars(sanitize(&body.de_of(&arr)).gars().iter().map(|g| {
                            Gar::with_approx(
                                g.guard.forget_var(var),
                                g.region.forget_var(var),
                                Approx::Over,
                            )
                        }));
                    loop_sum.add_mod(&arr, m);
                    loop_sum.add_ue(&arr, u);
                    loop_sum.add_de(&arr, d);
                    sets.insert(
                        arr.clone(),
                        ArraySets {
                            mod_i: body.mod_of(&arr),
                            ue_i: ue_body,
                            de_i: body.de_of(&arr),
                            mod_lt: GarList::single(Gar::unknown(
                                body.mod_of(&arr)
                                    .gars()
                                    .first()
                                    .map(|g| g.rank())
                                    .unwrap_or(1),
                            )),
                            mod_gt: GarList::single(Gar::unknown(
                                body.mod_of(&arr)
                                    .gars()
                                    .first()
                                    .map(|g| g.rank())
                                    .unwrap_or(1),
                            )),
                        },
                    );
                }
            }
        }

        // Scalar effects at the enclosing level. The post-loop clobber
        // synthetics carry the same fixed-point bounds: the exit value
        // is the entry value (zero-trip) or a loop-carried one, both
        // inside the fixed point.
        for s in &assigned {
            if counters.contains_key(s) {
                continue;
            }
            let syn = env.clobber(s, &mut self.fresh);
            if self.opts.value_range {
                let r = loop_ranges.get(s);
                if !r.is_top() {
                    self.ranges.borrow_mut().set(syn.as_str(), r);
                }
            }
            loop_sum.scalar_may_mod.insert(s.clone());
        }
        for (scalar, fact) in counters {
            // v_after = v_before + cnt, with cnt = 0 ⟺ the condition never
            // held across the iteration range. The recorded lo/hi carry the
            // condition's *index expression*; instantiate them at the loop
            // ends (coefficient of the index is 1, so monotone).
            // An instantiation that overflows clobbers the scalar.
            let ends = match (&lo_sym, &hi_sym, step_const) {
                (Some(lo_e), Some(hi_e), Some(1)) => fact
                    .lo
                    .try_subst_var(var, lo_e)
                    .zip(fact.hi.try_subst_var(var, hi_e)),
                _ => None,
            };
            let counted = ends.and_then(|(lo, hi)| {
                let cnt = self.fresh.next(&format!("{scalar}.cnt"));
                let after = env.int_value(&scalar).try_add(&Expr::var(cnt.clone()))?;
                Some((cnt, after, lo, hi))
            });
            match counted {
                Some((cnt, after, lo, hi)) => {
                    env.set_int(&scalar, after);
                    let registered = CounterFact { lo, hi, ..fact };
                    self.facts.insert(cnt.as_str().to_string(), registered);
                }
                None => {
                    env.clobber(&scalar, &mut self.fresh);
                }
            }
            loop_sum.scalar_may_mod.insert(scalar.clone());
        }
        env.clobber(var, &mut self.fresh);
        loop_sum.scalar_may_mod.insert(var.to_string());
        // Scalar UE: body UEs minus the index, plus bound reads.
        for s in &body.scalar_ue {
            if s != var {
                loop_sum.scalar_ue.insert(s.clone());
            }
        }
        for b in [Some(lo), Some(hi), step].into_iter().flatten() {
            for s in scalar_reads(b, table) {
                loop_sum.scalar_ue.insert(s);
            }
        }

        // Reduction recognition: exposed scalars whose only life in the
        // body is self-accumulation.
        let reductions = if premature {
            BTreeSet::new()
        } else {
            body.scalar_ue
                .iter()
                .filter(|s| {
                    s.as_str() != var
                        && body.scalar_may_mod.contains(*s)
                        && is_reduction_scalar(&self.hsg.subgraphs[body_sg].clone(), self.hsg, s)
                })
                .cloned()
                .collect()
        };

        // Record the loop analysis.
        let overlaid = sets
            .keys()
            .filter(|a| !table.storage_partners(a).is_empty())
            .cloned()
            .collect();
        let mut range_notes: Vec<RangeNote> = Vec::new();
        let mut range_bounds: BTreeMap<String, (Option<i64>, Option<i64>)> = BTreeMap::new();
        if self.opts.value_range {
            range_notes.extend(
                self.pending_refutes[refutes_before.min(self.pending_refutes.len())..]
                    .iter()
                    .cloned(),
            );
            for d in sym::bounds::decisions_since(range_mark) {
                range_notes.push(RangeNote::Compare {
                    lhs: d.lhs,
                    rhs: d.rhs,
                    detail: d.detail,
                    result: d.result.to_string(),
                });
            }
            range_notes.truncate(RANGE_NOTE_CAP);
            // Snapshot proved bounds for every scalar the loop's sets
            // mention, so the judge can re-install them as an oracle.
            let mut names: BTreeSet<sym::Name> = BTreeSet::new();
            for s in sets.values() {
                for list in [&s.mod_i, &s.ue_i, &s.de_i, &s.mod_lt, &s.mod_gt] {
                    list.collect_vars(&mut names);
                }
            }
            let renv = self.ranges.borrow();
            for n in names {
                let iv = renv.get(n.as_str()).interval;
                if !iv.is_top() && !iv.is_empty() {
                    range_bounds.insert(n.as_str().to_string(), (iv.lo, iv.hi));
                }
            }
            // Within this loop's sets the index variable always denotes
            // the current iteration, so its trip hull is a sound bound
            // (ascending loops only; a zero-trip loop has empty sets).
            if let (Some(lo_e), Some(hi_e), Some(s)) = (&lo_sym, &hi_sym, step_const) {
                if s > 0 {
                    let l = eval_sym(lo_e, &renv, &self.range_budget).interval;
                    let h = eval_sym(hi_e, &renv, &self.range_budget).interval;
                    let hull = Interval::new(l.lo, h.hi);
                    if !hull.is_top() && !hull.is_empty() {
                        range_bounds.insert(var.to_string(), (hull.lo, hull.hi));
                    }
                }
            }
        }
        let la = LoopAnalysis {
            routine: routine.to_string(),
            subgraph: body_sg,
            var: var.to_string(),
            line,
            depth,
            lo: lo_sym,
            hi: hi_sym,
            step: step_const.unwrap_or(1),
            arrays: sets,
            scalar_ue: body
                .scalar_ue
                .iter()
                .filter(|s| *s != var)
                .cloned()
                .collect(),
            scalar_mod: body.scalar_may_mod.clone(),
            premature_exit: premature,
            reductions,
            live_after: BTreeSet::new(),
            overlaid,
            degraded: self.fuel.halted() || self.fuel.events() != fuel_events,
            range_notes,
            range_bounds,
            content_notes,
            content_full,
        };
        if trace::enabled() {
            let mut pieces = 0u64;
            let mut pred_terms = 0u64;
            for s in la.arrays.values() {
                for list in [&s.mod_i, &s.ue_i, &s.de_i, &s.mod_lt, &s.mod_gt] {
                    pieces += list.gars().len() as u64;
                    pred_terms += list
                        .gars()
                        .iter()
                        .map(|g| g.guard.size() as u64)
                        .sum::<u64>();
                }
            }
            trace::add("loop_gar_pieces", pieces);
            trace::add("pred_terms", pred_terms);
        }
        self.loops.push(la);
        (loop_sum, Some(self.loops.len() - 1))
    }

    /// Conservative summary for a condensed goto-cycle (§5.4): every array
    /// reference inside becomes unknown MOD and UE.
    fn sum_condensed(
        &mut self,
        members: &[Node],
        routine: &str,
        table: &SymbolTable,
        env: &mut ValueEnv,
        _loop_vars: &BTreeSet<String>,
    ) -> Summary {
        let mut sum = Summary::new();
        let mut arrays = BTreeSet::new();
        let mut scalars = BTreeSet::new();
        for m in members {
            collect_node_names(m, self.hsg, &mut arrays, &mut scalars);
        }
        ledger::record(Cause::GotoCondense, || {
            let widened: Vec<&String> = arrays.iter().filter(|a| table.is_array(a)).collect();
            Site::routine(routine).detail(format!(
                "condensed goto-cycle of {} node(s): arrays {widened:?} -> unknown MOD/UE",
                members.len()
            ))
        });
        for a in arrays {
            if table.is_array(&a) {
                let rank = table.array(&a).map(|x| x.rank()).unwrap_or(1);
                sum.add_mod(&a, GarList::single(Gar::unknown(rank)));
                sum.add_ue(&a, GarList::single(Gar::unknown(rank)));
                sum.add_de(&a, GarList::single(Gar::unknown(rank)));
            } else {
                scalars_insert(&mut sum, &a);
            }
        }
        for s in scalars {
            if !table.is_array(&s) {
                env.clobber(&s, &mut self.fresh);
                sum.scalar_may_mod.insert(s.clone());
                sum.scalar_ue.insert(s);
            }
        }
        sum
    }

    /// Detects conditionally-incremented counters in a loop body:
    /// `IF (cond(k)) v = v + c` with `c > 0`, `v` assigned nowhere else.
    fn detect_counters(
        &mut self,
        body_sg: SubgraphId,
        var: &str,
        table: &SymbolTable,
        env: &ValueEnv,
        loop_vars: &BTreeSet<String>,
        assigned: &BTreeSet<String>,
    ) -> BTreeMap<String, CounterFact> {
        let g = self.hsg.subgraphs[body_sg].clone();
        let mut out = BTreeMap::new();
        for (nid, node) in g.nodes.iter().enumerate() {
            let Node::IfCond(c) = node else { continue };
            let (t, _f) = g.branch_succs(nid);
            let Some(t) = t else { continue };
            let Node::Block(stmts) = &g.nodes[t] else {
                continue;
            };
            // The true block must be exactly `v = v + const(>0)`.
            let only: Vec<&Stmt> = stmts
                .iter()
                .filter(|s| !matches!(s.kind, StmtKind::Continue))
                .collect();
            if only.len() != 1 {
                continue;
            }
            let StmtKind::Assign(LValue::Var(v), rhs) = &only[0].kind else {
                continue;
            };
            // rhs == v + positive const?
            let is_incr = matches!(
                rhs,
                FExpr::Bin(fortran::BinOp::Add, a, b)
                    if matches!(&**a, FExpr::Var(x) if x == v)
                        && matches!(&**b, FExpr::Int(c) if *c > 0)
            );
            if !is_incr {
                continue;
            }
            // v assigned exactly once in the body (this statement).
            if count_scalar_assignments(&g, self.hsg, v) != 1 {
                continue;
            }
            let _ = assigned;
            // Condition must be a single Cond atom with an index affine in
            // the loop var with coefficient 1.
            let mut body_env = env.clone();
            body_env.set_int(var, Expr::var(var));
            let ctx = self.ctx(table, &body_env, loop_vars);
            let Some(p) = to_pred(c, &ctx) else { continue };
            let [d] = p.disjs() else { continue };
            let Some(Atom::Cond {
                template,
                index,
                deps,
                positive,
            }) = d.as_unit()
            else {
                continue;
            };
            let Some((1, _)) = index.affine_decompose(var) else {
                continue;
            };
            // The quantified index range is filled in by the caller using
            // the loop bounds; store the index shape via lo/hi = idx(lo),
            // idx(hi) later. Here we record with placeholders substituted
            // by the loop bounds at registration time.
            out.insert(
                v.clone(),
                CounterFact {
                    template: template.clone(),
                    deps: deps.clone(),
                    counted_positive: *positive,
                    // placeholder: index expression at symbolic loop ends —
                    // substituted right below in sum_loop registration
                    lo: index.clone(),
                    hi: index.clone(),
                },
            );
        }
        out
    }

    /// Fixed-point ranges for the scalars a loop body assigns: the
    /// iteration-entry (and exit) values of each such scalar lie in the
    /// returned range, which joins the pre-loop value with every
    /// loop-carried iterate (threshold-widened, once-narrowed).
    #[allow(clippy::too_many_arguments)]
    fn loop_carried_ranges(
        &mut self,
        body_sg: SubgraphId,
        table: &SymbolTable,
        var: &str,
        lo_sym: Option<&Expr>,
        hi_sym: Option<&Expr>,
        step_const: Option<i64>,
        env: &ValueEnv,
        assigned: &BTreeSet<String>,
    ) -> RangeEnv {
        // Seed: proved ranges of the pre-loop values.
        let mut entry = RangeEnv::new();
        {
            let renv = self.ranges.borrow();
            for s in assigned {
                if table.scalar_ty(s) != Some(fortran::Ty::Integer) {
                    continue;
                }
                let r = eval_sym(&env.int_value(s), &renv, &self.range_budget);
                if !r.is_top() {
                    entry.set(s.clone(), r);
                }
            }
        }
        // The index ranges over [lo, hi] for ascending loops; keep it
        // unbound otherwise (descending/unknown step).
        let index_iv = match (lo_sym, hi_sym, step_const) {
            (Some(lo), Some(hi), Some(s)) if s > 0 => {
                let renv = self.ranges.borrow();
                let l = eval_sym(lo, &renv, &self.range_budget).interval;
                let h = eval_sym(hi, &renv, &self.range_budget).interval;
                Some(Interval::new(l.lo, h.hi)).filter(|iv| !iv.is_top() && !iv.is_empty())
            }
            _ => None,
        };
        // Body recurrences, syntactically over program names: the
        // fixed point must see `k = k + 1` as a recurrence on `k`, not
        // the entry-relative substitution the value environment applies.
        let mut assigns: Vec<ScalarAssign> = Vec::new();
        self.collect_loop_assigns(body_sg, table, &mut assigns);
        loop_fixpoint(
            &entry,
            index_iv.map(|iv| (var, iv)),
            &assigns,
            &self.range_budget,
        )
    }

    /// Appends every scalar assignment in a subgraph (flattened, in
    /// topological order; loop bodies and call effects included) as
    /// [`ScalarAssign`] recurrences over raw program names.
    fn collect_loop_assigns(
        &mut self,
        sg: SubgraphId,
        table: &SymbolTable,
        out: &mut Vec<ScalarAssign>,
    ) {
        let g = self.hsg.subgraphs[sg].clone();
        for &nid in &g.topo {
            let node = &g.nodes[nid];
            match node {
                Node::Block(stmts) => {
                    for s in stmts {
                        if let StmtKind::Assign(LValue::Var(v), rhs) = &s.kind {
                            if table.is_array(v) {
                                continue;
                            }
                            let rhs = if table.scalar_ty(v) == Some(fortran::Ty::Integer) {
                                syntactic_sym(rhs, table)
                            } else {
                                None
                            };
                            out.push(ScalarAssign {
                                var: v.clone(),
                                rhs,
                            });
                        }
                    }
                }
                Node::Loop { var, body, .. } => {
                    out.push(ScalarAssign {
                        var: var.clone(),
                        rhs: None,
                    });
                    self.collect_loop_assigns(*body, table, out);
                }
                Node::Call { .. } | Node::Condensed(_) => {
                    let mut assigned = BTreeSet::new();
                    self.node_assigned_scalars(node, table, &mut assigned);
                    for v in assigned {
                        out.push(ScalarAssign { var: v, rhs: None });
                    }
                }
                _ => {}
            }
        }
    }

    /// All scalars assigned anywhere inside a subgraph (recursing through
    /// loop bodies and callee summaries).
    fn scalars_assigned(&mut self, sg: SubgraphId, table: &SymbolTable) -> BTreeSet<String> {
        let g = self.hsg.subgraphs[sg].clone();
        let mut out = BTreeSet::new();
        for node in &g.nodes {
            self.node_assigned_scalars(node, table, &mut out);
        }
        out
    }

    fn node_assigned_scalars(
        &mut self,
        node: &Node,
        table: &SymbolTable,
        out: &mut BTreeSet<String>,
    ) {
        match node {
            Node::Block(stmts) => {
                for s in stmts {
                    if let StmtKind::Assign(LValue::Var(v), _) = &s.kind {
                        out.insert(v.clone());
                    }
                }
            }
            Node::Loop { var, body, .. } => {
                out.insert(var.clone());
                let inner = self.scalars_assigned(*body, table);
                out.extend(inner);
            }
            Node::Call { name, args } => {
                if self.opts.interprocedural {
                    let callee_summary = self.summarize_routine(name);
                    let callee = self.program.routine(name).unwrap();
                    for s in &callee_summary.scalar_may_mod {
                        if let Some(k) = callee.params.iter().position(|p| p == s) {
                            if let Some(FExpr::Var(v)) = args.get(k) {
                                out.insert(v.clone());
                            }
                        } else {
                            out.insert(s.clone());
                        }
                    }
                } else {
                    for a in args {
                        if let FExpr::Var(v) = a {
                            if !table.is_array(v) {
                                out.insert(v.clone());
                            }
                        }
                    }
                }
            }
            Node::Condensed(members) => {
                for m in members {
                    self.node_assigned_scalars(m, table, out);
                }
            }
            _ => {}
        }
    }

    /// Renames callee-internal synthetic names (`x#k`) so each call site
    /// gets independent unknowns.
    fn freshen_synthetics(&mut self, mut s: Summary) -> Summary {
        let mut names = BTreeSet::new();
        for list in s.mods.values().chain(s.ues.values()) {
            list.collect_vars(&mut names);
        }
        let synthetic: Vec<sym::Name> = names
            .into_iter()
            .filter(|n| n.as_str().contains('#'))
            .collect();
        if synthetic.is_empty() {
            return s;
        }
        let pairs: Vec<(String, Expr)> = synthetic
            .iter()
            .map(|n| {
                let base = n.as_str().split('#').next().unwrap_or("v");
                (n.as_str().to_string(), Expr::var(self.fresh.next(base)))
            })
            .collect();
        for list in s.mods.values_mut() {
            *list = substitute_many(list, &pairs, &mut self.fresh);
        }
        for list in s.ues.values_mut() {
            *list = substitute_many(list, &pairs, &mut self.fresh);
        }
        s
    }

    /// Enforces the size caps on one GAR list: guards larger than the
    /// predicate-term cap go to `true` (over-approximate: the region is
    /// assumed always accessed), and a list longer than the GAR-length
    /// cap collapses to a single unknown region. Both directions are
    /// `Approx::Over`, which the GAR algebra already treats as
    /// not-must-usable, so clamped MOD sets can never kill exposed uses.
    fn fuel_clamp(&mut self, list: GarList) -> GarList {
        trace::add("expansions", 1);
        let lim = self.fuel.limits();
        if lim.max_gar_len.is_none() && lim.max_pred_terms.is_none() {
            return list;
        }
        let mut list = list;
        if let Some(cap) = lim.max_pred_terms {
            if list.gars().iter().any(|g| g.guard.size() > cap) {
                self.fuel.note_degraded(DegradeReason::StateCap);
                trace::add("widenings", 1);
                ledger::record(Cause::FuelWiden, || {
                    Site::routine(self.routine_stack.last().cloned().unwrap_or_default())
                        .detail("state_cap: predicate-term cap widened a guard to true")
                });
                list = GarList::from_gars(list.gars().iter().map(|g| {
                    if g.guard.size() > cap {
                        Gar::with_approx(Pred::tru(), g.region.clone(), Approx::Over)
                    } else {
                        g.clone()
                    }
                }));
            }
        }
        if let Some(cap) = lim.max_gar_len {
            if list.gars().len() > cap {
                self.fuel.note_degraded(DegradeReason::StateCap);
                trace::add("widenings", 1);
                ledger::record(Cause::FuelWiden, || {
                    Site::routine(self.routine_stack.last().cloned().unwrap_or_default())
                        .detail("state_cap: GAR-length cap widened a list to unknown")
                });
                let rank = list.gars().first().map(|g| g.rank()).unwrap_or(1);
                list = GarList::single(Gar::unknown(rank));
            }
        }
        list
    }

    /// All array and scalar names mentioned anywhere in a subgraph
    /// (recursing through loop bodies and condensed regions). A whole
    /// array passed to a CALL appears syntactically as a bare variable,
    /// so the split between the two sets is decided by the symbol
    /// table, not by how the name was collected — otherwise arrays
    /// touched only through calls would vanish from widened summaries
    /// and the degraded verdicts would under-report dependences.
    fn subtree_names(
        &self,
        sg: SubgraphId,
        table: &SymbolTable,
    ) -> (BTreeSet<String>, BTreeSet<String>) {
        let mut arrays = BTreeSet::new();
        let mut scalars = BTreeSet::new();
        for node in &self.hsg.subgraphs[sg].nodes {
            collect_node_names(node, self.hsg, &mut arrays, &mut scalars);
        }
        partition_by_table(arrays, scalars, table)
    }

    /// Conservative replacement for a basic block once fuel runs out:
    /// every referenced array becomes unknown MOD/UE/DE, every scalar is
    /// may-modified and upwards exposed, nothing is must-modified, and
    /// assigned scalars are clobbered in the value environment so no
    /// stale binding survives.
    fn widen_bb(
        &mut self,
        stmts: &[Stmt],
        table: &SymbolTable,
        env: &mut ValueEnv,
    ) -> (Summary, BTreeSet<String>) {
        trace::add("widenings", 1);
        ledger::record(Cause::FuelWiden, || {
            let reason = self.fuel.reason().map(|r| r.as_str()).unwrap_or("unknown");
            Site::routine(self.routine_stack.last().cloned().unwrap_or_default())
                .line(stmts.first().map(|s| s.line).unwrap_or(0))
                .detail(format!("{reason}: basic block widened to unknown summary"))
        });
        let mut arrays = BTreeSet::new();
        let mut scalars = BTreeSet::new();
        collect_node_names(
            &Node::Block(stmts.to_vec()),
            self.hsg,
            &mut arrays,
            &mut scalars,
        );
        let (arrays, scalars) = partition_by_table(arrays, scalars, table);
        let mut sum = Summary::new();
        for a in arrays {
            if table.is_array(&a) {
                let rank = table.array(&a).map(|x| x.rank()).unwrap_or(1);
                sum.add_mod(&a, GarList::single(Gar::unknown(rank)));
                sum.add_ue(&a, GarList::single(Gar::unknown(rank)));
                sum.add_de(&a, GarList::single(Gar::unknown(rank)));
            }
        }
        for s in scalars {
            if !table.is_array(&s) {
                sum.scalar_may_mod.insert(s.clone());
                sum.scalar_ue.insert(s);
            }
        }
        for s in stmts {
            if let StmtKind::Assign(LValue::Var(v), _) = &s.kind {
                env.clobber(v, &mut self.fresh);
            }
        }
        (sum, BTreeSet::new())
    }

    /// The whole-segment widening applied when a budget runs out inside
    /// `sum_segment`: the summary goes to unknown MOD/UE/DE over every
    /// name in the subtree, already-recorded direct-child loops get a
    /// conservative `live_after` (their liveness pass will never run),
    /// and every loop never reached gets a fully-widened degraded
    /// placeholder analysis so it still appears in the report — with the
    /// conservative serial verdict — instead of vanishing.
    /// Indices into `self.loops` of every loop nested (at any depth)
    /// inside the loop body `body_sg`: the transitive closure of loop
    /// nodes over body subgraphs. Subgraph ids are HSG-global, so loops
    /// of other routines can never match.
    fn loops_under(&self, body_sg: SubgraphId) -> Vec<usize> {
        let mut sgs = vec![body_sg];
        let mut i = 0;
        while i < sgs.len() {
            for node in &self.hsg.subgraphs[sgs[i]].nodes {
                if let Node::Loop { body, .. } = node {
                    sgs.push(*body);
                }
            }
            i += 1;
        }
        self.loops
            .iter()
            .enumerate()
            .filter(|(_, la)| la.subgraph != body_sg && sgs.contains(&la.subgraph))
            .map(|(i, _)| i)
            .collect()
    }

    fn widen_segment(
        &mut self,
        sg_id: SubgraphId,
        routine: &str,
        table: &SymbolTable,
        depth: usize,
        loop_of_node: &[Option<usize>],
    ) -> Summary {
        trace::add("widenings", 1);
        ledger::record(Cause::FuelWiden, || {
            let reason = self.fuel.reason().map(|r| r.as_str()).unwrap_or("unknown");
            Site::routine(routine).detail(format!("{reason}: segment widened to unknown summary"))
        });
        for li in loop_of_node.iter().flatten() {
            let arrays: BTreeSet<String> = self.loops[*li].arrays.keys().cloned().collect();
            self.loops[*li].live_after = arrays;
            self.loops[*li].degraded = true;
        }
        let recorded: BTreeSet<SubgraphId> = self.loops.iter().map(|l| l.subgraph).collect();
        self.record_widened_loops(sg_id, routine, table, depth, &recorded);

        let (arrays, scalars) = self.subtree_names(sg_id, table);
        let mut sum = Summary::new();
        for a in arrays {
            if table.is_array(&a) {
                let rank = table.array(&a).map(|x| x.rank()).unwrap_or(1);
                sum.add_mod(&a, GarList::single(Gar::unknown(rank)));
                sum.add_ue(&a, GarList::single(Gar::unknown(rank)));
                sum.add_de(&a, GarList::single(Gar::unknown(rank)));
            }
        }
        for s in scalars {
            if !table.is_array(&s) {
                sum.scalar_may_mod.insert(s.clone());
                sum.scalar_ue.insert(s);
            }
        }
        sum
    }

    /// Records a degraded placeholder [`LoopAnalysis`] for every loop in
    /// the subtree that was never summarized (the forward pass bailed
    /// before reaching it). Loops inside condensed goto-cycles are
    /// excluded, matching `sum_condensed`.
    fn record_widened_loops(
        &mut self,
        sg_id: SubgraphId,
        routine: &str,
        table: &SymbolTable,
        depth: usize,
        recorded: &BTreeSet<SubgraphId>,
    ) {
        let nodes = self.hsg.subgraphs[sg_id].nodes.clone();
        for node in &nodes {
            let Node::Loop {
                var, line, body, ..
            } = node
            else {
                continue;
            };
            if !recorded.contains(body) {
                let (named_arrays, named_scalars) = self.subtree_names(*body, table);
                let mut sets = BTreeMap::new();
                let mut live = BTreeSet::new();
                for a in named_arrays {
                    if table.is_array(&a) {
                        let rank = table.array(&a).map(|x| x.rank()).unwrap_or(1);
                        sets.insert(a.clone(), ArraySets::unknown(rank));
                        live.insert(a);
                    }
                }
                let scalars: BTreeSet<String> = named_scalars
                    .into_iter()
                    .filter(|s| !table.is_array(s))
                    .collect();
                let overlaid = sets
                    .keys()
                    .filter(|a| !table.storage_partners(a).is_empty())
                    .cloned()
                    .collect();
                self.stats.loops_analyzed += 1;
                ledger::record(Cause::FuelWiden, || {
                    let reason = self.fuel.reason().map(|r| r.as_str()).unwrap_or("unknown");
                    Site::routine(routine)
                        .var(var.clone())
                        .line(*line)
                        .detail(format!(
                            "{reason}: loop never summarized, recorded fully widened"
                        ))
                });
                self.loops.push(LoopAnalysis {
                    routine: routine.to_string(),
                    subgraph: *body,
                    var: var.clone(),
                    line: *line,
                    depth,
                    lo: None,
                    hi: None,
                    step: 1,
                    arrays: sets,
                    scalar_ue: scalars.iter().filter(|s| *s != var).cloned().collect(),
                    scalar_mod: scalars,
                    premature_exit: self.hsg.subgraphs[*body].premature_exit,
                    reductions: BTreeSet::new(),
                    overlaid,
                    live_after: live,
                    degraded: true,
                    range_notes: Vec::new(),
                    range_bounds: BTreeMap::new(),
                    content_notes: Vec::new(),
                    content_full: BTreeSet::new(),
                });
            }
            self.record_widened_loops(*body, routine, table, depth + 1, recorded);
        }
    }

    fn ctx<'b>(
        &'b self,
        table: &'b SymbolTable,
        env: &'b ValueEnv,
        loop_vars: &'b BTreeSet<String>,
    ) -> ConvertCtx<'b> {
        ConvertCtx {
            table,
            env,
            symbolic: self.opts.symbolic,
            loop_vars,
            facts: &self.facts,
        }
    }

    fn trace_node(&mut self, routine: &str, sg: SubgraphId, nid: NodeId, g: &Subgraph, st: &State) {
        let tag = g.nodes[nid].tag();
        for (arr, list) in &st.ues {
            if !list.is_empty() {
                self.trace.push(format!(
                    "{routine} sg{sg} n{nid}({tag}) ue_in[{arr}] = {list}"
                ));
            }
        }
        for (arr, list) in &st.mods {
            if !list.is_empty() {
                self.trace.push(format!(
                    "{routine} sg{sg} n{nid}({tag}) mod_in[{arr}] = {list}"
                ));
            }
        }
    }
}

/// Cap on persisted range notes per loop: enough for provenance,
/// bounded for cache entries.
const RANGE_NOTE_CAP: usize = 8;

/// Converts a Fortran expression to a symbolic polynomial **over raw
/// program names** — no value-environment substitution — so loop-body
/// recurrences like `k = k + 1` stay recurrences for the range fixed
/// point. PARAMETER constants fold; anything non-affine is `None`.
fn syntactic_sym(e: &FExpr, table: &SymbolTable) -> Option<Expr> {
    match e {
        FExpr::Int(c) => Some(Expr::from(*c)),
        FExpr::Var(n) if !table.is_array(n) => {
            if let Some(c) = table.constant(n) {
                return syntactic_sym(c, table);
            }
            if table.scalar_ty(n) == Some(fortran::Ty::Integer) {
                Some(Expr::var(n.as_str()))
            } else {
                None
            }
        }
        FExpr::Bin(op, a, b) => {
            let a = syntactic_sym(a, table)?;
            let b = syntactic_sym(b, table)?;
            match op {
                BinOp::Add => a.try_add(&b),
                BinOp::Sub => a.try_sub(&b),
                BinOp::Mul => a.try_mul(&b),
                _ => None,
            }
        }
        FExpr::Un(fortran::UnOp::Neg, a) => {
            let a = syntactic_sym(a, table)?;
            Expr::zero().try_sub(&a)
        }
        _ => None,
    }
}

/// `true` iff the `kind` edge out of IF-condition node `p` was proved
/// unreachable by the value-range pass.
fn dead_edge(cond_known: &[Option<bool>], p: NodeId, kind: EdgeKind) -> bool {
    matches!(
        (cond_known[p], kind),
        (Some(true), EdgeKind::False) | (Some(false), EdgeKind::True)
    )
}

/// Drops guard clauses that depend on the *values* of `array` (it was just
/// modified, making such conditions stale).
fn forget_guard_dep(list: &GarList, array: &str) -> GarList {
    if !list.gars().iter().any(|g| g.guard.contains_var(array)) {
        return list.clone();
    }
    GarList::from_gars(list.gars().iter().map(|g| {
        if g.guard.contains_var(array) {
            Gar::with_approx(g.guard.forget_var(array), g.region.clone(), g.approx)
        } else {
            g.clone()
        }
    }))
}

/// A loop's iteration set as an ascending range, with the bounds of the
/// iterations before and after the current one.
struct AscendingBounds {
    lo: Expr,
    hi: Expr,
    step: i64,
    /// `var - step`, the last iteration before the current one.
    before: Expr,
    /// `var + step`, the first iteration after it.
    after: Expr,
}

/// Normalizes `DO var = lo, hi, step` (`step != 0`) to the same iteration
/// set ascending. A symbolic descending loop keeps its bounds swapped,
/// which is conservative. `None` when the arithmetic overflows; the
/// caller then forgets the index.
fn ascending_bounds(lo: &Expr, hi: &Expr, step: i64, var: &str) -> Option<AscendingBounds> {
    let (lo, hi, step) = if step > 0 {
        (lo.clone(), hi.clone(), step)
    } else {
        let s = step.checked_neg()?;
        match (lo.as_const(), hi.as_const()) {
            (Some(l), Some(h)) => {
                let count = if h <= l { l.checked_sub(h)? / s } else { -1 };
                let first = l.checked_sub(count.max(0).checked_mul(s)?)?;
                (Expr::from(first), Expr::from(l), s)
            }
            _ => (hi.clone(), lo.clone(), s),
        }
    };
    let step_e = Expr::from(step);
    let before = Expr::var(var).try_sub(&step_e)?;
    let after = Expr::var(var).try_add(&step_e)?;
    Some(AscendingBounds {
        lo,
        hi,
        step,
        before,
        after,
    })
}

/// Scalar variables read by an expression.
fn scalar_reads(e: &FExpr, table: &SymbolTable) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    e.walk(&mut |x| {
        if let FExpr::Var(n) = x {
            if !table.is_array(n) && table.constant(n).is_none() {
                out.insert(n.clone());
            }
        }
    });
    out
}

/// Must-modified scalars of a whole segment: those must-modified by a node
/// that lies on every entry→exit path. We approximate with the nodes that
/// dominate the exit along the single-successor spine from the entry.
fn must_scalar_mods(g: &Subgraph, node_must: &[BTreeSet<String>]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut cur = g.entry;
    let mut guard_steps = 0;
    loop {
        out.extend(node_must[cur].iter().cloned());
        if g.succs[cur].len() != 1 || cur == g.exit {
            break;
        }
        cur = g.succs[cur][0].0;
        guard_steps += 1;
        if guard_steps > g.nodes.len() {
            break;
        }
    }
    out
}

/// Renames a scalar variable inside every GAR of a list.
/// Locates the body of the DO statement at `line` with index `var` in a
/// routine's AST (the HSG keeps loop lines, so the pair is unambiguous).
fn find_do_body<'a>(stmts: &'a [Stmt], line: u32, var: &str) -> Option<&'a [Stmt]> {
    for s in stmts {
        match &s.kind {
            StmtKind::Do { var: v, body, .. } => {
                if s.line == line && v == var {
                    return Some(body);
                }
                if let Some(b) = find_do_body(body, line, var) {
                    return Some(b);
                }
            }
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                if let Some(b) = find_do_body(then_body, line, var)
                    .or_else(|| find_do_body(else_body, line, var))
                {
                    return Some(b);
                }
            }
            StmtKind::LogicalIf(_, inner) => {
                if let Some(b) = find_do_body(std::slice::from_ref(inner), line, var) {
                    return Some(b);
                }
            }
            _ => {}
        }
    }
    None
}

fn rename_var(list: &GarList, from: &str, to: &str) -> GarList {
    list.subst_var(from, &Expr::var(to))
}

/// Simultaneous substitution via two-phase temp renaming.
fn substitute_many(list: &GarList, pairs: &[(String, Expr)], fresh: &mut FreshNames) -> GarList {
    if pairs.is_empty() {
        return list.clone();
    }
    let temps: Vec<sym::Name> = pairs.iter().map(|(n, _)| fresh.next(n)).collect();
    let mut cur = list.clone();
    for ((from, _), tmp) in pairs.iter().zip(&temps) {
        cur = cur.subst_var(from, &Expr::var(tmp.clone()));
    }
    for ((_, value), tmp) in pairs.iter().zip(&temps) {
        cur = cur.subst_var(tmp.as_str(), value);
    }
    cur
}

fn collect_node_names(
    node: &Node,
    hsg: &Hsg,
    arrays: &mut BTreeSet<String>,
    scalars: &mut BTreeSet<String>,
) {
    fn expr_names(e: &FExpr, arrays: &mut BTreeSet<String>, scalars: &mut BTreeSet<String>) {
        e.walk(&mut |x| match x {
            FExpr::Var(n) => {
                scalars.insert(n.clone());
            }
            FExpr::Index(n, _) => {
                arrays.insert(n.clone());
            }
            _ => {}
        });
    }
    match node {
        Node::Block(stmts) => {
            for s in stmts {
                if let StmtKind::Assign(lhs, rhs) = &s.kind {
                    match lhs {
                        LValue::Var(v) => {
                            scalars.insert(v.clone());
                        }
                        LValue::Element(a, subs) => {
                            arrays.insert(a.clone());
                            for sub in subs {
                                expr_names(sub, arrays, scalars);
                            }
                        }
                    }
                    expr_names(rhs, arrays, scalars);
                }
            }
        }
        Node::IfCond(c) => expr_names(c, arrays, scalars),
        Node::Call { args, .. } => {
            for a in args {
                expr_names(a, arrays, scalars);
            }
        }
        Node::Loop {
            var,
            lo,
            hi,
            step,
            body,
            ..
        } => {
            scalars.insert(var.clone());
            expr_names(lo, arrays, scalars);
            expr_names(hi, arrays, scalars);
            if let Some(s) = step {
                expr_names(s, arrays, scalars);
            }
            for inner in &hsg.subgraphs[*body].nodes {
                collect_node_names(inner, hsg, arrays, scalars);
            }
        }
        Node::Condensed(members) => {
            for m in members {
                collect_node_names(m, hsg, arrays, scalars);
            }
        }
        _ => {}
    }
}

/// Re-files collected names by what the symbol table says they are: a
/// name the collector saw only as a bare variable (e.g. a whole array in
/// a CALL argument list) belongs with the arrays when it is declared as
/// one, and declared scalars never belong with the arrays.
fn partition_by_table(
    arrays: BTreeSet<String>,
    scalars: BTreeSet<String>,
    table: &SymbolTable,
) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut arr = BTreeSet::new();
    let mut scal = BTreeSet::new();
    for n in arrays.into_iter().chain(scalars) {
        if table.is_array(&n) {
            arr.insert(n);
        } else {
            scal.insert(n);
        }
    }
    (arr, scal)
}

fn scalars_insert(sum: &mut Summary, name: &str) {
    sum.scalar_may_mod.insert(name.to_string());
    sum.scalar_ue.insert(name.to_string());
}

/// Is `v` a sum/product reduction scalar in this subgraph? Every
/// assignment must be `v = v ± e` or `v = v * e` (`e` free of `v`), every
/// read of `v` must be the self-reference inside such an assignment, and
/// calls disqualify (they might read or write `v` by reference).
fn is_reduction_scalar(g: &Subgraph, hsg: &Hsg, v: &str) -> bool {
    fn expr_uses(e: &FExpr, v: &str) -> usize {
        let mut n = 0;
        e.walk(&mut |x| {
            if matches!(x, FExpr::Var(name) if name == v) {
                n += 1;
            }
        });
        n
    }
    fn stmt_ok(s: &Stmt, v: &str, found: &mut usize) -> bool {
        match &s.kind {
            StmtKind::Assign(LValue::Var(lhs), rhs) if lhs == v => {
                // v = v op e with e free of v, op in {+, -, *}.
                let ok = match rhs {
                    FExpr::Bin(
                        fortran::BinOp::Add | fortran::BinOp::Sub | fortran::BinOp::Mul,
                        a,
                        b,
                    ) => {
                        (matches!(&**a, FExpr::Var(x) if x == v) && expr_uses(b, v) == 0)
                            || (matches!(&**b, FExpr::Var(x) if x == v)
                                && expr_uses(a, v) == 0
                                && !matches!(rhs, FExpr::Bin(fortran::BinOp::Sub, ..)))
                    }
                    _ => false,
                };
                if ok {
                    *found += 1;
                }
                ok
            }
            StmtKind::Assign(lhs, rhs) => {
                // any other read of v disqualifies
                let mut uses = expr_uses(rhs, v);
                if let LValue::Element(_, subs) = lhs {
                    for sub in subs {
                        uses += expr_uses(sub, v);
                    }
                }
                uses == 0 && lhs.name() != v
            }
            _ => true,
        }
    }
    fn node_ok(node: &Node, hsg: &Hsg, v: &str, found: &mut usize) -> bool {
        match node {
            Node::Block(stmts) => stmts.iter().all(|s| stmt_ok(s, v, found)),
            Node::IfCond(c) => expr_uses(c, v) == 0,
            Node::Call { .. } => false,
            Node::Loop {
                var,
                lo,
                hi,
                step,
                body,
                ..
            } => {
                var != v
                    && expr_uses(lo, v) == 0
                    && expr_uses(hi, v) == 0
                    && step.as_ref().is_none_or(|s| expr_uses(s, v) == 0)
                    && hsg.subgraphs[*body]
                        .nodes
                        .iter()
                        .all(|m| node_ok(m, hsg, v, found))
            }
            Node::Condensed(_) => false,
            Node::Entry | Node::Exit => true,
        }
    }
    let mut found = 0usize;
    g.nodes.iter().all(|n| node_ok(n, hsg, v, &mut found)) && found > 0
}

/// Counts assignments to scalar `v` within a subgraph (recursing through
/// loop bodies). Calls count conservatively as two assignments so counter
/// detection bails out.
fn count_scalar_assignments(g: &Subgraph, hsg: &Hsg, v: &str) -> usize {
    g.nodes
        .iter()
        .map(|n| count_assignments_in_node(n, hsg, v))
        .sum()
}

fn count_assignments_in_node(node: &Node, hsg: &Hsg, v: &str) -> usize {
    match node {
        Node::Block(stmts) => stmts
            .iter()
            .filter(|s| matches!(&s.kind, StmtKind::Assign(LValue::Var(x), _) if x == v))
            .count(),
        Node::Loop { var, body, .. } => {
            usize::from(var == v)
                + hsg.subgraphs[*body]
                    .nodes
                    .iter()
                    .map(|m| count_assignments_in_node(m, hsg, v))
                    .sum::<usize>()
        }
        Node::Call { .. } => 2,
        Node::Condensed(members) => members
            .iter()
            .map(|m| count_assignments_in_node(m, hsg, v))
            .sum(),
        _ => 0,
    }
}
