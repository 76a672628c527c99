//! What the end-to-end run and the traced run share: the environment,
//! the once-per-run correctness pass over a workload (`prepare`), and
//! set-up (`setup`: inputs on disk, caches, a ready and warm daemon).

use crate::corpus::{self, CacheMode, Prog, Workload};
use crate::expect::{self, Expected};
use crate::proc::{Binaries, Cpus, DaemonProc, Pinned, Spawner};
use crate::rng::{corpus_digest, Rng};
use dataflow::{DiskCache, MemoryCache, SummaryCache, TieredCache};
use interp::{Machine, Memory};
use panorama::driver::{self, Outcome};
use serde::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Env {
    /// `benchmark/` of the checkout.
    pub bench_dir: PathBuf,
    pub bins: Binaries,
    /// Where `<workload>.json` expectations are read from.
    pub expected_dir: PathBuf,
    /// Threads of the parallel executor and `--jobs` of the daemon: the
    /// host's parallelism. The load generator itself is one thread.
    pub nproc: usize,
    pub cpus: Cpus,
    /// Starts the `panorama` processes; see `proc::Spawner`.
    pub spawner: std::cell::RefCell<Spawner>,
}

/// The probe of `Env::quiet_cpu`: a small fixed analysis (~0.3 ms), the
/// same kind of code as the work it scouts for.
const PROBE: &str = "
      PROGRAM probe
      REAL w(10), a(100)
      INTEGER i, k
      DO i = 1, 100
        DO k = 1, 10
          w(k) = i * 1.0
        ENDDO
        a(i) = w(5)
      ENDDO
      END
";

impl Env {
    pub fn out_dir(&self) -> PathBuf {
        self.bench_dir.join("out")
    }

    /// Holds this thread on the CPU that is quietest right now; see
    /// `proc::Cpus`. For single-threaded units of work only: threads
    /// and children started while the guard lives inherit the pin.
    pub fn quiet_cpu(&self) -> Pinned<'_> {
        self.cpus.pin_quietest(|| {
            let _ = std::hint::black_box(driver::run(&driver::Request::new(std::hint::black_box(
                PROBE,
            ))));
        })
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` is a failure and its reason.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.reasons.len() < 12 {
                self.reasons.push(why);
            }
        }
    }

    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.op(if ok { Ok(()) } else { Err(why()) });
    }
}

/// An executable program, its plan and its reference memory.
pub struct Exec {
    pub index: usize,
    pub transform: codegen::Transform,
    pub serial_memory: Memory,
    pub serial_ops: u64,
    /// Handles of main-program arrays whose post-loop value the plan's
    /// clauses leave unspecified (privatized without copy-out).
    pub unspecified: BTreeSet<usize>,
}

/// A workload after the once-per-run correctness pass.
pub struct Prepared {
    pub w: Workload,
    pub seed: u64,
    pub digest: String,
    /// The first seeded request order (see `Orders` for the later ones).
    pub order: Vec<usize>,
    /// Full analyses, program by program (cold, cache-free).
    pub outcomes: Vec<Outcome>,
    /// What `panorama --json` must print for each program.
    pub reports: Vec<String>,
    /// The daemon's request and expected response line per program.
    pub requests: Vec<String>,
    pub replies: Vec<String>,
    pub execs: Vec<Exec>,
    /// Time the set-up oracle pass took (`raceoracle.validate_ms`).
    pub oracle_time: Duration,
}

/// How many positions must separate two requests for the same program
/// across a pass boundary: the five smallest `synth_cold` programs hold
/// 85 routines, more than its 64-entry cache, so a program is always
/// evicted before it comes round again.
const REPEAT_GAP: usize = 5;

/// The request orders of a run: a fresh seeded permutation of the
/// corpus for every pass. Throughput through a two-worker daemon that
/// answers in order depends on how the heavy requests are spaced, so a
/// single order would make a run's figure a property of its seed; over
/// the many orders of a run that averages out.
pub struct Orders {
    rng: Rng,
    last: Vec<usize>,
}

impl Orders {
    pub fn new(seed: u64, programs: usize) -> Orders {
        let mut orders = Orders {
            rng: Rng::stream(seed, "order"),
            last: (0..programs).collect(),
        };
        orders.rng.shuffle(&mut orders.last);
        orders
    }

    /// The first order of the run; `next_pass` continues from it.
    pub fn first(&self) -> Vec<usize> {
        self.last.clone()
    }

    pub fn next_pass(&mut self) -> Vec<usize> {
        let n = self.last.len();
        let gap = REPEAT_GAP.min(n / 2);
        let mut next = self.last.clone();
        loop {
            self.rng.shuffle(&mut next);
            if next[..gap]
                .iter()
                .all(|i| !self.last[n - gap..].contains(i))
            {
                break;
            }
        }
        self.last = next.clone();
        next
    }

    /// `passes` passes as one sequence.
    pub fn next_passes(&mut self, passes: usize) -> Vec<usize> {
        (0..passes).flat_map(|_| self.next_pass()).collect()
    }
}

pub fn load_expected(env: &Env, workload: &str) -> Result<Expected, String> {
    let path = env.expected_dir.join(format!("{workload}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Expected::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The request every front end of a workload makes for a program.
pub fn driver_request<'a>(w: &Workload, source: &'a str) -> driver::Request<'a> {
    driver::Request {
        opts: w.opts,
        emit: w.emit,
        ..driver::Request::new(source)
    }
}

/// The report exactly as `panorama --json` prints it, minus the newline.
pub fn render_report(out: &Outcome) -> String {
    serde_json::to_string_pretty(&out.json()).expect("a report serializes")
}

fn request_line(w: &Workload, index: usize, p: &Prog) -> String {
    let d = dataflow::Options::default();
    let mut fields = vec![
        ("id".to_string(), Value::UInt(index as u64)),
        ("source".to_string(), Value::Str(p.source.clone())),
    ];
    let opts: Vec<(String, Value)> = [
        ("forall_ext", w.opts.forall_ext, d.forall_ext),
        ("content", w.opts.content, d.content),
    ]
    .iter()
    .filter(|(_, have, default)| have != default)
    .map(|(k, have, _)| (k.to_string(), Value::Bool(*have)))
    .collect();
    if !opts.is_empty() {
        fields.push(("opts".to_string(), Value::Object(opts)));
    }
    if w.emit {
        fields.push(("emit".to_string(), Value::Bool(true)));
    }
    serde_json::to_string(&Value::Object(fields)).expect("a request serializes")
}

/// Main-program arrays a planned loop privatizes without copy-out: the
/// same rule as `tests/codegen_differential.rs`.
fn unspecified_arrays(main: &fortran::Routine, t: &codegen::Transform) -> BTreeSet<usize> {
    main.arrays
        .iter()
        .enumerate()
        .filter(|(_, (n, _))| {
            t.loops.iter().any(|l| {
                l.planned
                    && l.routine == main.name
                    && (l.clauses.private.contains(n) || l.clauses.firstprivate.contains(n))
                    && !l.clauses.lastprivate.contains(n)
            })
        })
        .map(|(h, _)| h)
        .collect()
}

/// Compares a parallel run's final memory with the serial reference on
/// everything the clauses specify.
pub fn memory_matches(
    program: &fortran::Program,
    exec: &Exec,
    parallel: &Memory,
) -> Result<(), String> {
    let main = program.main().ok_or("no PROGRAM unit")?;
    for (h, (name, _)) in main.arrays.iter().enumerate() {
        if exec.unspecified.contains(&h) {
            continue;
        }
        let (s, p) = (exec.serial_memory.arrays.get(h), parallel.arrays.get(h));
        if s.map(|a| &a.data) != p.map(|a| &a.data) {
            return Err(format!("array {name} differs from the serial run"));
        }
    }
    Ok(())
}

/// Generates the workload and runs every check that needs no timing:
/// the verdicts against the expectation file and, for the executable
/// programs, the race oracle and parallel against serial execution. Also renders the
/// bytes every later CLI, daemon and driver output is compared with.
pub fn prepare(env: &Env, name: &str, seed: u64, tally: &mut Tally) -> Result<Prepared, String> {
    let w = corpus::build(name, seed).ok_or(format!("unknown workload {name:?}"))?;
    let expected = load_expected(env, name)?;
    let digest = corpus_digest(
        w.programs
            .iter()
            .map(|p| (p.name.as_str(), p.source.as_str())),
    );
    let order = Orders::new(seed, w.programs.len()).first();

    let mut outcomes = Vec::new();
    let mut reports = Vec::new();
    let mut requests = Vec::new();
    let mut replies = Vec::new();
    let mut execs = Vec::new();
    let mut oracle_time = Duration::ZERO;
    for (index, p) in w.programs.iter().enumerate() {
        let out = driver::run(&driver_request(&w, &p.source))
            .map_err(|e| format!("{}: analysis failed: {e}", p.name))?;
        let misses = expect::check(&expected, &p.name, &out.analysis.verdicts);
        tally.check(misses.is_empty(), || match misses.len() {
            0..=3 => misses.join("; "),
            n => format!("{}; and {} more", misses[..3].join("; "), n - 3),
        });

        if p.executable {
            let a = &out.analysis;
            // The oracle executes the program once per loop verdict, so
            // it runs on the programs that are executed anyway.
            let t = Instant::now();
            let oracle = raceoracle::validate(&a.program, &a.sema, &a.verdicts);
            oracle_time += t.elapsed();
            tally.check(oracle.sound(), || {
                format!("{}: the race oracle refutes a parallel verdict", p.name)
            });
            let transform = codegen::transform(&a.program, &a.sema, &a.loops, &a.verdicts);
            let machine = Machine::new(&a.program, &a.sema);
            let (serial_memory, stats) = machine
                .run()
                .map_err(|e| format!("{}: serial run failed: {e}", p.name))?;
            let main = a
                .program
                .main()
                .ok_or(format!("{}: no PROGRAM unit", p.name))?;
            let exec = Exec {
                index,
                unspecified: unspecified_arrays(main, &transform),
                transform,
                serial_memory,
                serial_ops: stats.ops,
            };
            let verdict = machine
                .run_parallel(&exec.transform.plan, env.nproc)
                .map_err(|e| format!("parallel run failed: {e}"))
                .and_then(|(mem, _)| memory_matches(&a.program, &exec, &mem));
            tally.op(verdict.map_err(|e| format!("{}: {e}", p.name)));
            execs.push(exec);
        }

        reports.push(render_report(&out));
        requests.push(request_line(&w, index, p));
        replies.push(panoramad::protocol::ok_response(
            &Value::UInt(index as u64),
            out.json(),
        ));
        outcomes.push(out);
    }
    Ok(Prepared {
        w,
        seed,
        digest,
        order,
        outcomes,
        reports,
        requests,
        replies,
        execs,
        oracle_time,
    })
}

/// Everything set-up leaves running or on disk.
pub struct Live {
    pub daemon: DaemonProc,
    /// The in-process driver's cache, configured like the daemon's.
    pub cache: Option<Arc<dyn SummaryCache>>,
    pub files: Vec<PathBuf>,
    pub cli_flags: Vec<String>,
    pub work: PathBuf,
    /// Spawn to first health reply, inside set-up.
    pub spawn_to_ready: Duration,
}

fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

pub fn daemon_flags(w: &Workload, jobs: usize, store: &Path) -> Vec<String> {
    let mut flags = vec!["--jobs".to_string(), jobs.to_string()];
    match w.cache {
        CacheMode::None => flags.push("--no-cache".to_string()),
        CacheMode::Bounded(n) => flags.extend(["--cache-capacity".to_string(), n.to_string()]),
        CacheMode::DiskWarm => flags.extend(["--cache-dir".to_string(), path_str(store)]),
    }
    flags
}

pub fn driver_cache(w: &Workload, store: &Path) -> Option<Arc<dyn SummaryCache>> {
    match w.cache {
        CacheMode::None => None,
        CacheMode::Bounded(n) => Some(Arc::new(MemoryCache::with_capacity(n))),
        CacheMode::DiskWarm => Some(Arc::new(TieredCache::new(
            MemoryCache::new(),
            Arc::new(DiskCache::open(store, None)),
        ))),
    }
}

fn cli_flags(w: &Workload, work: &Path) -> Vec<String> {
    let mut flags = vec!["--json".to_string()];
    if w.opts.content {
        flags.push("--content".to_string());
    }
    if w.opts.forall_ext {
        flags.push("--forall".to_string());
    }
    if w.emit {
        flags.extend([
            "--lint".to_string(),
            "--transform-out".to_string(),
            path_str(&work.join("transform.json")),
        ]);
    }
    if w.cache == CacheMode::DiskWarm {
        flags.extend(["--cache-dir".to_string(), path_str(&work.join("store"))]);
    }
    flags
}

/// Sends `sequence` (program indices) through the daemon as one stream
/// with `window` requests in flight (closed loop, one stream, this
/// thread only). Every reply is compared with its expected bytes.
/// Returns the time from the first send to the last reply, and pushes
/// one latency per request when asked to (meaningful at `window` 1).
pub fn daemon_stream(
    p: &Prepared,
    daemon: &mut DaemonProc,
    window: usize,
    sequence: &[usize],
    tally: &mut Tally,
    mut latencies: Option<&mut Vec<f64>>,
) -> Result<Duration, String> {
    let io = |e: std::io::Error| format!("panoramad stream: {e}");
    let start = Instant::now();
    let (mut sent, mut received) = (0, 0);
    let mut sent_at = start;
    while received < sequence.len() {
        while sent < sequence.len() && sent - received < window {
            sent_at = Instant::now();
            daemon.send(&p.requests[sequence[sent]]).map_err(io)?;
            sent += 1;
        }
        let index = sequence[received];
        let reply = daemon.recv().map_err(io)?;
        if let Some(l) = latencies.as_deref_mut() {
            l.push(sent_at.elapsed().as_secs_f64() * 1e3);
        }
        let ok = reply == p.replies[index];
        tally.check(ok, || {
            format!(
                "{}: daemon reply differs from the in-process report",
                p.w.programs[index].name
            )
        });
        received += 1;
    }
    Ok(start.elapsed())
}

/// Set-up, timed as `setup_s`: generate the inputs, write them out,
/// populate the disk store, build the driver's cache, spawn `panoramad`
/// and see its first health reply, then one warm-up pass (one request
/// at a time: with more in flight the pass would take as long as the
/// seed's order happens to stall the second worker).
pub fn setup(env: &Env, p: &Prepared, tally: &mut Tally) -> Result<(Live, Duration), String> {
    let start = Instant::now();
    let io = |what: &str, e: std::io::Error| format!("set-up: {what}: {e}");
    let generated = corpus::build(p.w.name, p.seed).expect("the workload was built before");
    let digest = corpus_digest(
        generated
            .programs
            .iter()
            .map(|g| (g.name.as_str(), g.source.as_str())),
    );
    tally.check(digest == p.digest, || {
        "regenerated inputs differ".to_string()
    });

    let work = env
        .out_dir()
        .join(format!("work-{}-{}", p.w.name, std::process::id()));
    if work.exists() {
        std::fs::remove_dir_all(&work).map_err(|e| io("clear work directory", e))?;
    }
    let (src, store) = (work.join("src"), work.join("store"));
    std::fs::create_dir_all(&src).map_err(|e| io("create work directory", e))?;
    std::fs::create_dir_all(&store).map_err(|e| io("create store directory", e))?;
    let mut files = Vec::new();
    for g in &generated.programs {
        let path = src.join(format!("{}.f", g.name));
        std::fs::write(&path, &g.source).map_err(|e| io("write input", e))?;
        files.push(path);
    }

    // The driver's cache doubles as the writer that populates the disk
    // store: one cold pass puts every routine in both tiers.
    let cache = driver_cache(&p.w, &store);
    if p.w.cache == CacheMode::DiskWarm {
        for g in &generated.programs {
            driver::run_with_cache(&driver_request(&p.w, &g.source), cache.clone())
                .map_err(|e| format!("set-up: populate store: {}: {e}", g.name))?;
        }
    }

    let spawn = Instant::now();
    let mut daemon = DaemonProc::spawn(&env.bins.panoramad, &daemon_flags(&p.w, env.nproc, &store))
        .map_err(|e| io("spawn panoramad", e))?;
    let spawn_to_ready = spawn.elapsed();
    daemon_stream(p, &mut daemon, 1, &p.order, tally, None)?;
    let live = Live {
        daemon,
        cache,
        files,
        cli_flags: cli_flags(&p.w, &work),
        work,
        spawn_to_ready,
    };
    Ok((live, start.elapsed()))
}

impl Live {
    /// Stops the daemon and removes the work directory; returns the
    /// daemon's peak RSS in kB.
    pub fn teardown(self, tally: &mut Tally) -> Result<f64, String> {
        let peak = self.daemon.peak_rss_kb();
        let clean = self
            .daemon
            .shutdown()
            .map_err(|e| format!("teardown: wait for panoramad: {e}"))?;
        tally.check(clean, || {
            "panoramad exited with a failure status".to_string()
        });
        std::fs::remove_dir_all(&self.work)
            .map_err(|e| format!("teardown: remove work directory: {e}"))?;
        peak.map(|kb| kb as f64)
            .ok_or("teardown: cannot read VmHWM of panoramad".to_string())
    }
}

/// One in-process pass: `driver::run_with_cache` plus the rendered JSON
/// report for every program, each timed on its own. Returns the times
/// in seconds, indexed like the corpus (each program once in `order`);
/// the reports are compared with
/// the expected bytes after the clock stops.
pub fn analyze_pass(
    p: &Prepared,
    order: &[usize],
    cache: &Option<Arc<dyn SummaryCache>>,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut times = vec![0.0; p.order.len()];
    let mut rendered = Vec::with_capacity(order.len());
    for &index in order {
        let source = std::hint::black_box(p.w.programs[index].source.as_str());
        let start = Instant::now();
        let text = driver::run_with_cache(&driver_request(&p.w, source), cache.clone())
            .map(|out| render_report(&out));
        let text = std::hint::black_box(text);
        times[index] = start.elapsed().as_secs_f64();
        rendered.push(text);
    }
    for (&index, text) in order.iter().zip(rendered) {
        let name = &p.w.programs[index].name;
        tally.op(match text {
            Ok(t) if t == p.reports[index] => Ok(()),
            Ok(_) => Err(format!("{name}: in-process report differs between passes")),
            Err(e) => Err(format!("{name}: in-process analysis failed: {e}")),
        });
    }
    times
}

/// One sweep of the interpreter over the executable programs, serial
/// (`threads == None`) or with the lowered plan; each program's time in
/// ms. Only the runs are timed; results are compared with the reference
/// between them.
pub fn exec_sweep(p: &Prepared, threads: Option<usize>, tally: &mut Tally) -> Vec<f64> {
    let mut times = Vec::with_capacity(p.execs.len());
    for exec in &p.execs {
        let a = &p.outcomes[exec.index].analysis;
        let name = &p.w.programs[exec.index].name;
        let machine = Machine::new(&a.program, &a.sema);
        let start = Instant::now();
        let run = match threads {
            None => machine.run(),
            Some(n) => machine.run_parallel(std::hint::black_box(&exec.transform.plan), n),
        };
        times.push(start.elapsed().as_secs_f64() * 1e3);
        tally.op(match (run, threads) {
            (Err(e), _) => Err(format!("{name}: execution failed: {e}")),
            (Ok((_, stats)), None) if stats.ops != exec.serial_ops => {
                Err(format!("{name}: serial run took another path"))
            }
            (Ok(_), None) => Ok(()),
            (Ok((mem, _)), Some(_)) => {
                memory_matches(&a.program, exec, &mem).map_err(|e| format!("{name}: {e}"))
            }
        });
    }
    times
}
