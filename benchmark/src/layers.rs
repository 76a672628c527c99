//! The traced run: per-layer metrics, measured from outside.
//!
//! Every layer is reached through a public function of its crate, with
//! a harness span around the call; nothing in the analyzer changes. One
//! corpus pass builds this tree for every program (= request):
//!
//! ```text
//! request
//! ├ core.pipeline        the driver's sequence for this workload,
//! │ ├ fortran.parse      re-assembled from the public layer calls and
//! │ ├ fortran.sema       checked to render the driver's exact report
//! │ ├ hsg.build
//! │ ├ deptest.conventional
//! │ ├ dataflow.run       (through the workload's cache configuration)
//! │ ├ privatize.judge
//! │ ├ alias.lint
//! │ ├ codegen.transform  (when the workload emits)
//! │ └ core.json_report
//! ├ core.driver          the real `driver::run_with_cache` + report
//! └ fortran.lex, fortran.print, vrange.routine_facts, content.body,
//!   content.lint, dataflow.routine_keys, codegen.transform (otherwise)
//! ```
//!
//! A `_ms` metric is the span's total over one corpus pass, the fastest
//! of the passes made. `core.driver_self_ms` is the self time of
//! `core.pipeline`: the span minus its children, i.e. what the driver
//! spends outside any layer. Operation micro-timings (`_us`) loop over
//! operands harvested from the workload's own analyses. Counts come
//! from every pass and must repeat exactly.

use crate::corpus::CacheMode;
use crate::harness::{self, Env, Live, Prepared, Tally};
use crate::metrics::PER_LAYER;
use crate::proc::DaemonProc;
use crate::spans::{self, Recorder};
use dataflow::cache::routine_keys;
use dataflow::panostore::wire;
use dataflow::{
    Analyzer, CacheKey, CachedRoutine, DiskCache, FuelLimits, MemoryCache, SummaryCache,
};
use fortran::{Stmt, StmtKind};
use gar::{GarList, LoopCtx};
use interp::Machine;
use panorama::driver;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct LayerResult {
    pub workload: &'static str,
    pub seed: u64,
    pub digest: String,
    /// `(value, samples)` per metric of `PER_LAYER`, in table order.
    pub values: Vec<(f64, usize)>,
    pub passes: usize,
    pub trace_path: PathBuf,
    pub tally: Tally,
}

/// Metric values under construction: fastest sample for times, last
/// sample for counts (checked equal across passes by the caller).
#[derive(Default)]
struct Book {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Book {
    /// Records a time-like sample; the smallest is kept.
    fn time(&mut self, name: &'static str, v: f64) {
        let e = self.values.entry(name).or_insert((f64::INFINITY, 0));
        e.0 = e.0.min(v);
        e.1 += 1;
    }

    /// Stores a finished `(value, samples)` pair.
    fn put(&mut self, name: &'static str, pair: (f64, usize)) {
        self.values.insert(name, pair);
    }

    /// Stores a value computed once (a count, a ratio of two values).
    fn set(&mut self, name: &'static str, v: f64) {
        self.put(name, (v, 1));
    }
}

/// Calls `f` on every DO statement; `nested` also on loops inside loops.
fn visit_loops<'a>(body: &'a [Stmt], nested: bool, f: &mut impl FnMut(&'a Stmt)) {
    for s in body {
        match &s.kind {
            StmtKind::Do { body: inner, .. } => {
                f(s);
                if nested {
                    visit_loops(inner, nested, f);
                }
            }
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                visit_loops(then_body, nested, f);
                visit_loops(else_body, nested, f);
            }
            StmtKind::LogicalIf(_, inner) => visit_loops(std::slice::from_ref(inner), nested, f),
            _ => {}
        }
    }
}

/// The exact counts of one corpus pass.
#[derive(Default, PartialEq, Debug, Clone)]
struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    fn add(&mut self, name: &'static str, n: u64) {
        *self.0.entry(name).or_default() += n;
    }

    fn max(&mut self, name: &'static str, n: u64) {
        let e = self.0.entry(name).or_default();
        *e = (*e).max(n);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One traced corpus pass. Returns the recorder and the pass's counts.
fn traced_pass(p: &Prepared, live: &Live, tally: &mut Tally) -> (Recorder, Counts) {
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let opts = p.w.opts;
    for &index in &p.order {
        let prog = &p.w.programs[index];
        let src = prog.source.as_str();
        let id = index as u32;
        rec.span("request", id, |rec| {
            let replica = rec.span("core.pipeline", id, |rec| {
                let program = rec
                    .span("fortran.parse", id, |_| {
                        fortran::parse_program(black_box(src))
                    })
                    .expect("the corpus parses");
                let sema = rec
                    .span("fortran.sema", id, |_| fortran::analyze(&program))
                    .expect("the corpus checks");
                let graph = rec
                    .span("hsg.build", id, |_| hsg::build_hsg(&program))
                    .expect("the corpus builds");
                let mut conventional_parallel = Vec::new();
                rec.span("deptest.conventional", id, |_| {
                    for r in &program.routines {
                        let table = &sema.tables[&r.name];
                        visit_loops(&r.body, true, &mut |stmt| {
                            if deptest::conventional_loop_test(stmt, table)
                                == deptest::ConvVerdict::Parallel
                            {
                                if let StmtKind::Do { var, .. } = &stmt.kind {
                                    conventional_parallel.push(format!("{}/{}", r.name, var));
                                }
                            }
                        });
                    }
                });
                let mut az = Analyzer::with_limits(
                    &program,
                    &sema,
                    &graph,
                    opts,
                    live.cache.clone(),
                    FuelLimits::unlimited(),
                );
                let routines = rec.span("dataflow.run", id, |_| az.run());
                let verdicts = rec.span("privatize.judge", id, |_| privatize::judge_all(&az.loops));
                let degrade_reason = az.degradation();
                let (loops, stats, trace) = az.finish();
                let lints = rec.span("alias.lint", id, |_| {
                    alias::lint_program(
                        &program,
                        &sema,
                        opts.interprocedural,
                        opts.value_range,
                        opts.content,
                    )
                });
                let transform = p.w.emit.then(|| {
                    rec.span("codegen.transform", id, |_| {
                        codegen::transform(&program, &sema, &loops, &verdicts)
                    })
                });

                counts.add("fortran.routines", program.routines.len() as u64);
                counts.add("hsg.nodes", graph.total_nodes() as u64);
                counts.add("deptest.loops_parallel", conventional_parallel.len() as u64);
                counts.add("dataflow.nodes_processed", stats.nodes_processed as u64);
                counts.add("dataflow.loops_analyzed", stats.loops_analyzed as u64);
                counts.max("dataflow.peak_state_size", stats.peak_state_size as u64);
                counts.add(
                    "dataflow.total_summary_size",
                    stats.total_summary_size as u64,
                );
                let parallel = verdicts
                    .iter()
                    .filter(|v| v.parallel_as_is || v.parallel_after_privatization)
                    .count();
                counts.add("privatize.loops_parallel", parallel as u64);
                counts.add("privatize.loops_serial", (verdicts.len() - parallel) as u64);
                counts.add("alias.lints", lints.len() as u64);

                let out = driver::Outcome {
                    analysis: panorama::Analysis {
                        program,
                        sema,
                        hsg: graph,
                        routines,
                        loops,
                        verdicts,
                        conventional_parallel,
                        stats,
                        times: panorama::PhaseTimes::default(),
                        trace,
                        lints,
                        degrade_reason,
                    },
                    oracle: None,
                    transform,
                    precision: None,
                };
                let report = rec.span("core.json_report", id, |_| harness::render_report(&out));
                counts.add("core.report_bytes", report.len() as u64);
                tally.check(report == p.reports[index], || {
                    format!(
                        "{}: the re-assembled pipeline renders another report",
                        prog.name
                    )
                });
                out
            });
            let a = &replica.analysis;

            let driven = rec.span("core.driver", id, |_| {
                let req = harness::driver_request(&p.w, black_box(src));
                driver::run_with_cache(&req, live.cache.clone()).map(|o| harness::render_report(&o))
            });
            tally.check(
                driven.as_ref().is_ok_and(|r| r == &p.reports[index]),
                || format!("{}: traced driver report differs", prog.name),
            );

            let tokens = rec.span("fortran.lex", id, |_| fortran::lex(black_box(src)));
            counts.add("fortran.tokens", tokens.map_or(0, |t| t.len()) as u64);
            black_box(rec.span("fortran.print", id, |_| fortran::print_program(&a.program)));
            let facts = rec.span("vrange.routine_facts", id, |_| {
                let mut n = 0;
                for r in &a.program.routines {
                    let table = &a.sema.tables[&r.name];
                    let mut dims = vrange::DeclaredDims::new();
                    for (name, _) in &r.arrays {
                        if let Some(b) = table.declared_bounds(name) {
                            dims.insert(name.clone(), b);
                        }
                    }
                    let budget = vrange::Budget::new(vrange::DEFAULT_BUDGET);
                    n += vrange::routine_facts(r, &dims, &budget).len();
                }
                n
            });
            counts.add("vrange.facts", facts as u64);
            rec.span("content.body", id, |_| {
                for r in &a.program.routines {
                    let table = &a.sema.tables[&r.name];
                    visit_loops(&r.body, false, &mut |stmt| {
                        if let StmtKind::Do { var, body, .. } = &stmt.kind {
                            let budget = vrange::Budget::new(vrange::DEFAULT_BUDGET);
                            black_box(content::analyze_loop_body(
                                body,
                                var,
                                &BTreeSet::new(),
                                table,
                                &budget,
                            ));
                        }
                    });
                }
            });
            rec.span("content.lint", id, |_| {
                for r in &a.program.routines {
                    let budget = vrange::Budget::new(vrange::DEFAULT_BUDGET);
                    black_box(content::lint_routine(r, &a.sema.tables[&r.name], &budget));
                }
            });
            black_box(rec.span("dataflow.routine_keys", id, |_| {
                routine_keys(&a.program, &a.sema, &opts)
            }));
            let transform = match &replica.transform {
                Some(_) => None,
                None => Some(rec.span("codegen.transform", id, |_| {
                    codegen::transform(&a.program, &a.sema, &a.loops, &a.verdicts)
                })),
            };
            let t = replica
                .transform
                .as_ref()
                .or(transform.as_ref())
                .expect("one of the two ran");
            counts.add(
                "codegen.loops_planned",
                t.loops.iter().filter(|l| l.planned).count() as u64,
            );
            counts.add("codegen.loops_skipped", t.skipped.len() as u64);
            counts.add("codegen.emitted_bytes", t.source.len() as u64);
        });
    }
    (rec, counts)
}

/// The analyzer's own `trace` counters over one cold corpus pass
/// (collector installed, so this pass is not timed).
fn collector_counts(p: &Prepared) -> BTreeMap<String, u64> {
    fn walk(nodes: &[trace::SpanNode], out: &mut BTreeMap<String, u64>) {
        for n in nodes {
            for (name, v) in &n.counters {
                *out.entry(name.clone()).or_default() += v;
            }
            walk(&n.children, out);
        }
    }
    let mut out = BTreeMap::new();
    for &index in &p.order {
        let scope = trace::CollectorScope::install(trace::Collector::new());
        let req = harness::driver_request(&p.w, &p.w.programs[index].source);
        let _ = black_box(driver::run(&req));
        if let Some(c) = scope.finish() {
            walk(&c.tree(), &mut out);
            for (name, v) in c.top_level_counters() {
                *out.entry(name.clone()).or_default() += v;
            }
        }
    }
    out
}

/// Times `op` over all of `items`, again and again until `deadline`
/// (at least twice), each time on the CPU that is quietest then;
/// returns the best microseconds per item.
fn per_item_us<T>(
    env: &Env,
    items: &[T],
    deadline: Instant,
    mut op: impl FnMut(&T),
) -> (f64, usize) {
    if items.is_empty() {
        return (0.0, 0);
    }
    let mut best = f64::INFINITY;
    let mut reps = 0;
    while reps < 2 || Instant::now() < deadline {
        let _cpu = env.quiet_cpu();
        let start = Instant::now();
        for item in items {
            op(item);
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e6 / items.len() as f64);
        reps += 1;
    }
    (best, reps)
}

/// Operands of the symbolic kernel, from the workload's own analyses.
struct Operands {
    /// `(MOD, UE)` of every array a routine's summary both writes and
    /// reads, and `(UE_i, MOD_<i)`, `(MOD_i, MOD_>i)` of every loop.
    lists: Vec<(GarList, GarList)>,
    /// `MOD_i` of every loop with representable bounds, and its context.
    expansions: Vec<(GarList, LoopCtx)>,
}

fn harvest(p: &Prepared) -> Operands {
    let mut lists = Vec::new();
    let mut expansions = Vec::new();
    for out in &p.outcomes {
        for r in &out.analysis.routines {
            for (array, mods) in &r.summary.mods {
                if let Some(ues) = r.summary.ues.get(array) {
                    lists.push((mods.clone(), ues.clone()));
                }
            }
        }
        for l in &out.analysis.loops {
            for sets in l.arrays.values() {
                // The loop-carried tests of the privatizer (§3.2).
                for (a, b) in [(&sets.ue_i, &sets.mod_lt), (&sets.mod_i, &sets.mod_gt)] {
                    if !a.is_empty() && !b.is_empty() {
                        lists.push((a.clone(), b.clone()));
                    }
                }
                if let (Some(lo), Some(hi)) = (&l.lo, &l.hi) {
                    expansions.push((
                        sets.mod_i.clone(),
                        LoopCtx::new(l.var.clone(), lo.clone(), hi.clone()),
                    ));
                }
            }
        }
    }
    Operands { lists, expansions }
}

fn kernel_ops(env: &Env, p: &Prepared, book: &mut Book, deadline: Instant) {
    let ops = harvest(p);
    let start = Instant::now();
    let share = |k: u32| start + deadline.saturating_duration_since(start) * k / 8;
    let pieces: usize = ops.lists.iter().map(|(a, b)| a.len() + b.len()).sum();
    book.set(
        "gar.operand_pieces_mean",
        if ops.lists.is_empty() {
            0.0
        } else {
            pieces as f64 / (2 * ops.lists.len()) as f64
        },
    );
    book.put(
        "gar.intersect_us",
        per_item_us(env, &ops.lists, share(1), |(m, u)| {
            black_box(m.intersect(u));
        }),
    );
    book.put(
        "gar.subtract_us",
        per_item_us(env, &ops.lists, share(2), |(m, u)| {
            black_box(u.subtract(m));
        }),
    );
    book.put(
        "gar.union_us",
        per_item_us(env, &ops.lists, share(3), |(m, u)| {
            black_box(m.union(u));
        }),
    );
    book.put(
        "gar.expand_us",
        per_item_us(env, &ops.expansions, share(4), |(list, ctx)| {
            black_box(gar::expand_list(list, ctx));
        }),
    );
    // First pieces of each pair: the region, guard and bound operands.
    let firsts: Vec<(&gar::Gar, &gar::Gar)> = ops
        .lists
        .iter()
        .filter_map(|(m, u)| Some((m.gars().first()?, u.gars().first()?)))
        .collect();
    let truth = pred::Pred::tru();
    book.put(
        "region.intersect_us",
        per_item_us(env, &firsts, share(5), |(a, b)| {
            black_box(region::region_intersect(&truth, &a.region, &b.region));
        }),
    );
    book.put(
        "region.subtract_us",
        per_item_us(env, &firsts, share(6), |(a, b)| {
            black_box(region::region_subtract(&truth, &b.region, &a.region));
        }),
    );
    book.put(
        "predicate.implies_us",
        per_item_us(env, &firsts, share(7), |(a, b)| {
            black_box(a.guard.implies(&b.guard));
        }),
    );
    let bounds: Vec<(&sym::Expr, &sym::Expr)> = firsts
        .iter()
        .filter_map(|(a, b)| {
            let ra = a.region.dims().first()?.as_range()?;
            let rb = b.region.dims().first()?.as_range()?;
            Some((&ra.hi, &rb.lo))
        })
        .collect();
    book.put(
        "sym.compare_us",
        per_item_us(env, &bounds, share(8), |(a, b)| {
            black_box(sym::compare(a, b));
        }),
    );
}

/// Cache, wire and disk-store micro-timings over the workload's own
/// cache entries (harvested through an unbounded memory cache).
fn cache_ops(env: &Env, p: &Prepared, book: &mut Book, deadline: Instant) -> Result<(), String> {
    let harvest = Arc::new(MemoryCache::new());
    for prog in &p.w.programs {
        let req = harness::driver_request(&p.w, &prog.source);
        driver::run_with_cache(&req, Some(harvest.clone() as Arc<dyn SummaryCache>))
            .map_err(|e| format!("{}: {e}", prog.name))?;
    }
    let mut entries: Vec<(CacheKey, Arc<CachedRoutine>)> = harvest.entries();
    entries.sort_by_key(|(k, _)| *k);
    let start = Instant::now();
    let share = |k: u32| start + deadline.saturating_duration_since(start) * k / 6;

    book.put(
        "dataflow.cache_get_us",
        per_item_us(env, &entries, share(1), |(k, _)| {
            black_box(harvest.get(k));
        }),
    );
    // Puts go into a cache sized like the workload's, so a bounded one
    // pays its evictions.
    let sink = match p.w.cache {
        CacheMode::Bounded(n) => MemoryCache::with_capacity(n),
        _ => MemoryCache::new(),
    };
    book.put(
        "dataflow.cache_put_us",
        per_item_us(env, &entries, share(2), |(k, e)| {
            sink.put(*k, Arc::clone(e));
        }),
    );

    let encoded: Vec<Vec<u8>> = entries.iter().map(|(_, e)| wire::encode_entry(e)).collect();
    book.put(
        "dataflow.wire_encode_us",
        per_item_us(env, &entries, share(3), |(_, e)| {
            black_box(wire::encode_entry(e));
        }),
    );
    book.put(
        "dataflow.wire_decode_us",
        per_item_us(env, &encoded, share(4), |bytes| {
            black_box(wire::decode_entry(bytes)).ok();
        }),
    );

    // A store of the first entries (each put is an fsynced segment).
    let stored = &entries[..entries.len().min(48)];
    let dir = env
        .out_dir()
        .join(format!("store-{}-{}", p.w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let disk = DiskCache::open(&dir, None);
    let t = Instant::now();
    for (k, e) in stored {
        disk.put_entry(k, e);
    }
    if !stored.is_empty() {
        book.put(
            "dataflow.disk_put_us",
            (t.elapsed().as_secs_f64() * 1e6 / stored.len() as f64, 1),
        );
    }
    drop(disk);
    let mut bytes = 0u64;
    for f in std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let f = f.map_err(|e| format!("{}: {e}", dir.display()))?;
        if f.file_name().to_string_lossy().starts_with("seg-") {
            bytes += f
                .metadata()
                .map_err(|e| format!("{}: {e}", dir.display()))?
                .len();
        }
    }
    book.set("dataflow.disk_bytes", bytes as f64);
    let mut reopened = DiskCache::open(&dir, None);
    let open_deadline = share(5);
    let mut opens = 0;
    while opens < 2 || Instant::now() < open_deadline {
        let t = Instant::now();
        reopened = DiskCache::open(&dir, None);
        book.time("dataflow.disk_open_ms", ms(t.elapsed()));
        opens += 1;
    }
    book.put(
        "dataflow.disk_get_us",
        per_item_us(env, stored, share(6), |(k, _)| {
            black_box(reopened.get_entry(k));
        }),
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(())
}

/// `Daemon::serve` over in-memory buffers at `jobs` workers: requests
/// per second of the best of the serves that fit before `deadline`.
fn serve_in_memory(
    p: &Prepared,
    live: &Live,
    jobs: usize,
    deadline: Instant,
    tally: &mut Tally,
) -> (f64, usize) {
    let store = live.work.join("store");
    let config = panoramad::Config {
        jobs,
        cache: match p.w.cache {
            CacheMode::None => None,
            CacheMode::Bounded(n) => Some(Some(n)),
            CacheMode::DiskWarm => Some(None),
        },
        cache_dir: (p.w.cache == CacheMode::DiskWarm).then_some(store),
        ..panoramad::Config::default()
    };
    let daemon = panoramad::Daemon::new(config);
    let mut input = String::new();
    for &index in &p.order {
        input.push_str(&p.requests[index]);
        input.push('\n');
    }
    let mut best = 0f64;
    let mut serves = 0;
    // The first serve warms the daemon's cache and is not counted.
    while serves < 3 || Instant::now() < deadline {
        let mut output = Vec::new();
        let t = Instant::now();
        let served = daemon.serve(Cursor::new(input.as_bytes()), &mut output);
        let took = t.elapsed();
        let lines_ok = served.is_ok()
            && String::from_utf8_lossy(&output)
                .lines()
                .zip(&p.order)
                .filter(|(line, &index)| *line == p.replies[index])
                .count()
                == p.order.len();
        tally.check(lines_ok, || {
            format!("in-memory serve at {jobs} jobs returned other replies")
        });
        if serves > 0 {
            best = best.max(p.order.len() as f64 / took.as_secs_f64());
        }
        serves += 1;
    }
    (best, serves - 1)
}

/// The server's layers: request parsing, `Daemon::serve` in memory at
/// one and at `nproc` workers, the child daemon's CPU per request and
/// its spawn-to-ready time.
fn server_ops(
    env: &Env,
    p: &Prepared,
    live: &mut Live,
    book: &mut Book,
    tally: &mut Tally,
    [parse_by, serve1_by, serve_n_by, cpu_by]: [Instant; 4],
) -> Result<(), String> {
    book.put(
        "server.parse_request_us",
        per_item_us(env, &p.requests, parse_by, |line| {
            black_box(panoramad::protocol::parse_request(line)).ok();
        }),
    );
    let (rps1, s1) = serve_in_memory(p, live, 1, serve1_by, tally);
    let (rps_n, s_n) = serve_in_memory(p, live, env.nproc, serve_n_by, tally);
    book.put("server.serve_rps_jobs1", (rps1, s1));
    book.put("server.serve_rps_jobsN", (rps_n, s_n));
    book.put("server.jobs_scaling", (rps_n / rps1, s1.min(s_n)));

    let cpu_before = live.daemon.cpu_ms();
    let mut requests = 0usize;
    while requests == 0 || Instant::now() < cpu_by {
        harness::daemon_stream(p, &mut live.daemon, 2 * env.nproc, &p.order, tally, None)?;
        requests += p.order.len();
    }
    match (cpu_before, live.daemon.cpu_ms()) {
        (Some(b), Some(a)) => book.put(
            "server.cpu_ms_per_request",
            ((a - b) / requests as f64, requests),
        ),
        _ => return Err("cannot read /proc/<pid>/stat of panoramad".to_string()),
    }
    book.time("server.spawn_to_ready_ms", ms(live.spawn_to_ready));
    let flags = harness::daemon_flags(&p.w, env.nproc, &live.work.join("store"));
    for _ in 0..3 {
        let t = Instant::now();
        let d = DaemonProc::spawn(&env.bins.panoramad, &flags)
            .map_err(|e| format!("spawn panoramad: {e}"))?;
        book.time("server.spawn_to_ready_ms", ms(t.elapsed()));
        d.shutdown()
            .map_err(|e| format!("wait for panoramad: {e}"))?;
    }
    Ok(())
}

/// The interpreter (serial and parallel sweeps, the deterministic
/// 8-processor simulation) and the set-up oracle pass.
fn interp_ops(env: &Env, p: &Prepared, book: &mut Book, tally: &mut Tally, deadline: Instant) {
    let (mut serial_ms, mut parallel_ms) = (f64::INFINITY, f64::INFINITY);
    let mut sweeps = 0;
    while sweeps < 2 || Instant::now() < deadline {
        let cpu = env.quiet_cpu();
        let serial: f64 = harness::exec_sweep(p, None, tally).iter().sum();
        drop(cpu);
        let parallel: f64 = harness::exec_sweep(p, Some(env.nproc), tally).iter().sum();
        serial_ms = serial_ms.min(serial);
        parallel_ms = parallel_ms.min(parallel);
        sweeps += 1;
    }
    let ops: u64 = p.execs.iter().map(|e| e.serial_ops).sum();
    book.set("interp.serial_ops", ops as f64);
    book.put(
        "interp.serial_ns_per_op",
        (serial_ms * 1e6 / ops as f64, sweeps),
    );
    book.put("interp.parallel_speedup", (serial_ms / parallel_ms, sweeps));
    // The deterministic 8-processor simulation, over the main-program
    // loops the backend planned: total serial over total simulated ops.
    let (mut t1, mut tp) = (0u64, 0u64);
    for exec in &p.execs {
        let a = &p.outcomes[exec.index].analysis;
        let main = a
            .program
            .main()
            .expect("an executable program has a main unit");
        if let Some(l) = exec
            .transform
            .loops
            .iter()
            .find(|l| l.planned && l.routine == main.name)
        {
            let machine = Machine::new(&a.program, &a.sema);
            if let Ok(sim) = interp::simulate_speedup(&machine, &l.routine, &l.var, 8) {
                t1 += sim.t1;
                tp += sim.tp;
            }
        }
    }
    book.set(
        "interp.sim_speedup_p8",
        if tp == 0 { 0.0 } else { t1 as f64 / tp as f64 },
    );
    book.set("raceoracle.validate_ms", ms(p.oracle_time));
}

pub fn run(env: &Env, name: &str, seed: u64, seconds: f64) -> Result<LayerResult, String> {
    let mut tally = Tally::default();
    let p = harness::prepare(env, name, seed, &mut tally)?;
    let (mut live, _) = harness::setup(env, &p, &mut tally)?;
    let mut book = Book::default();
    let start = Instant::now();
    let until = |share: f64| start + Duration::from_secs_f64(seconds * share);
    // Steady-state cache counters of one untraced pass.
    let before = live.cache.as_ref().map(|c| c.counters());
    harness::analyze_pass(&p, &p.order, &live.cache, &mut tally);
    let after = live.cache.as_ref().map(|c| c.counters());
    let (hits, misses, evictions) = match (before, after) {
        (Some(b), Some(a)) => (
            a.hits - b.hits,
            a.misses - b.misses,
            a.evictions - b.evictions,
        ),
        _ => (0, 0, 0),
    };
    book.set("dataflow.cache_hits", hits as f64);
    book.set("dataflow.cache_misses", misses as f64);
    book.set("dataflow.cache_evictions", evictions as f64);
    book.set(
        "dataflow.cache_hit_ratio",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    );

    // Traced passes: span totals, fastest pass per span name.
    let mut kept: Option<(Recorder, f64)> = None;
    let mut first_counts: Option<Counts> = None;
    let mut passes = 0;
    let mut traced_driver_ms = f64::INFINITY;
    let traced_deadline = until(0.40);
    while passes < 2 || Instant::now() < traced_deadline {
        let cpu = env.quiet_cpu();
        let (rec, counts) = traced_pass(&p, &live, &mut tally);
        drop(cpu);
        let totals = spans::totals_by_name(rec.spans());
        for (span, &(total, own)) in &totals {
            // A timed span `x.y` feeds the metric `x.y_ms`.
            let metric = PER_LAYER
                .iter()
                .find(|m| m.name.strip_suffix("_ms") == Some(*span));
            if let Some(m) = metric {
                book.time(m.name, total as f64 / 1e6);
            }
            if *span == "core.pipeline" {
                book.time("core.driver_self_ms", own as f64 / 1e6);
            }
            if *span == "core.driver" {
                traced_driver_ms = traced_driver_ms.min(total as f64 / 1e6);
            }
        }
        let pass_ms = totals
            .get("request")
            .map_or(f64::INFINITY, |t| t.0 as f64 / 1e6);
        if kept.as_ref().is_none_or(|(_, best)| pass_ms < *best) {
            kept = Some((rec, pass_ms));
        }
        match &first_counts {
            None => first_counts = Some(counts),
            Some(first) => tally.check(first == &counts, || {
                "exact counts differ between two traced passes".to_string()
            }),
        }
        passes += 1;
    }
    for (name, n) in &first_counts.expect("at least two passes").0 {
        book.put(name, (*n as f64, passes));
    }
    let trace_path = env.out_dir().join(format!("trace-{}.json", p.w.name));
    let (rec, _) = kept.expect("at least two passes");
    std::fs::write(&trace_path, rec.chrome_trace("panobench"))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    // The analyzer's own counters (exact; two harvests must agree).
    let own = collector_counts(&p);
    tally.check(own == collector_counts(&p), || {
        "trace::Collector counters differ between two passes".to_string()
    });
    for (metric, counter) in [
        ("dataflow.intersections", "intersections"),
        ("dataflow.expansions", "expansions"),
        ("dataflow.widenings", "widenings"),
        ("dataflow.pred_terms", "pred_terms"),
        ("content.ue_refuted", "content:ue_refuted"),
    ] {
        book.set(metric, own.get(counter).copied().unwrap_or(0) as f64);
    }

    // Untraced driver passes: the baseline of the harness overhead.
    let untraced_deadline = until(0.50);
    let mut untraced_ms = f64::INFINITY;
    let mut n = 0;
    while n < 2 || Instant::now() < untraced_deadline {
        let _cpu = env.quiet_cpu();
        untraced_ms = untraced_ms.min(
            harness::analyze_pass(&p, &p.order, &live.cache, &mut tally)
                .iter()
                .sum::<f64>()
                * 1e3,
        );
        n += 1;
    }
    // The same driver calls, inside a recorded span and outside one.
    book.set(
        "trace.harness_overhead_pct",
        100.0 * (traced_driver_ms - untraced_ms) / untraced_ms,
    );
    kernel_ops(env, &p, &mut book, until(0.62));
    cache_ops(env, &p, &mut book, until(0.72))?;

    server_ops(
        env,
        &p,
        &mut live,
        &mut book,
        &mut tally,
        [0.75, 0.80, 0.85, 0.93].map(until),
    )?;
    interp_ops(env, &p, &mut book, &mut tally, until(1.0));

    live.teardown(&mut tally)?;
    let mut values = Vec::with_capacity(PER_LAYER.len());
    for m in PER_LAYER {
        match book.values.get(m.name) {
            Some(&(v, samples)) if v.is_finite() => values.push((v, samples)),
            Some(_) => values.push((0.0, 0)),
            None => return Err(format!("per-layer metric {} was not measured", m.name)),
        }
    }
    Ok(LayerResult {
        workload: p.w.name,
        seed,
        digest: p.digest,
        values,
        passes,
        trace_path,
        tally,
    })
}
