//! `panoramad` — the persistent analysis service.
//!
//! The `panorama` CLI pays the full parse→analyze→report pipeline per
//! invocation. This crate keeps the analyzer resident and turns it into
//! a request/response service: newline-delimited JSON requests arrive on
//! stdin (or a Unix socket), responses carry the same report schema the
//! CLI's `--json` flag prints (DESIGN.md §4d). Three things live behind
//! the protocol:
//!
//! * a **content-addressed routine-summary cache** ([`dataflow::cache`])
//!   shared across requests — re-analyzing an unchanged program, or a
//!   program sharing routines with an earlier one, replays summaries
//!   instead of recomputing them, byte-identically;
//! * a **concurrent scheduler** ([`scheduler`]) — independent requests
//!   run in parallel on `--jobs` workers; responses are emitted in
//!   request order regardless of completion order;
//! * a **metrics layer** ([`metrics`]) — phase timings, cache hit/miss
//!   counters, queue gauges and peak GAR state, snapshotted by
//!   `{"cmd": "stats"}` and dumped at shutdown under `--metrics`.

#![warn(missing_docs)]

pub mod flight;
pub mod metrics;
pub mod protocol;
pub mod scheduler;

use dataflow::{
    CacheCounters, DiskCache, DiskTierSnapshot, MemoryCache, SummaryCache, TieredCache,
};
use flight::{FlightRecord, FlightRecorder};
use metrics::Metrics;
use panorama::{driver, FuelLimits};
use protocol::{
    dump_response, error_response, health_response, metrics_response, ok_response, panic_response,
    stats_response, traced_response, Request,
};
use scheduler::{Emitter, Job, Queue};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use trace::ledger::{Ledger, LedgerScope};

/// Largest accepted request line, in bytes. A longer line is consumed
/// (so the stream stays framed) and answered with an in-order error
/// response instead of growing an unbounded buffer.
pub const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Worker threads analyzing requests concurrently.
    pub jobs: usize,
    /// Summary cache: `None` disables caching, `Some(None)` is
    /// unbounded, `Some(Some(n))` keeps at most `n` routine entries.
    pub cache: Option<Option<usize>>,
    /// Persistent cache directory: when set (and `cache` is enabled),
    /// the in-memory cache is backed by a crash-safe disk tier shared
    /// across daemon restarts (see [`dataflow::panostore`]). IO faults
    /// degrade the tier to memory-only; they never fail requests.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Byte budget for the disk tier (`None` = panostore default).
    pub cache_budget_bytes: Option<u64>,
    /// Daemon-wide analysis budgets; per-request `fuel`/`timeout_ms`
    /// fields override them field by field. The default carries a
    /// 60-second wall-clock deadline so one pathological program
    /// degrades to a conservative report instead of wedging a worker.
    pub limits: FuelLimits,
    /// Post-mortem file: when set, the flight-recorder ring is dumped
    /// here whenever a request ends in `internal_panic` or a degraded
    /// outcome, and on `{"cmd": "dump"}`. The file always holds the
    /// most recent dump.
    pub postmortem: Option<std::path::PathBuf>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            jobs: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            cache: Some(None),
            cache_dir: None,
            cache_budget_bytes: None,
            limits: FuelLimits {
                deadline_ms: Some(60_000),
                ..FuelLimits::unlimited()
            },
            postmortem: None,
        }
    }
}

/// The resident service: one summary cache and one metrics ledger,
/// shared by every request (and every connection in socket mode).
pub struct Daemon {
    jobs: usize,
    cache: Option<Arc<dyn SummaryCache>>,
    limits: FuelLimits,
    metrics: Arc<Metrics>,
    trace_registry: Option<Arc<trace::Registry>>,
    flight: FlightRecorder,
    postmortem: Option<std::path::PathBuf>,
    start: Instant,
}

impl Daemon {
    /// Builds a daemon from a configuration.
    pub fn new(config: Config) -> Daemon {
        let cache: Option<Arc<dyn SummaryCache>> = config.cache.map(|cap| {
            let memory = match cap {
                None => MemoryCache::new(),
                Some(n) => MemoryCache::with_capacity(n),
            };
            match &config.cache_dir {
                // `DiskCache::open` is infallible by contract: a
                // poisoned or unwritable directory yields a disabled
                // tier (visible in stats as `disk_disabled`), and the
                // daemon serves memory-only, byte-identically.
                Some(dir) => {
                    let disk = Arc::new(DiskCache::open(dir.clone(), config.cache_budget_bytes));
                    Arc::new(TieredCache::new(memory, disk)) as Arc<dyn SummaryCache>
                }
                None => Arc::new(memory) as Arc<dyn SummaryCache>,
            }
        });
        Daemon {
            jobs: config.jobs.max(1),
            cache,
            limits: config.limits,
            metrics: Arc::new(Metrics::default()),
            trace_registry: None,
            flight: FlightRecorder::default(),
            postmortem: config.postmortem,
            start: Instant::now(),
        }
    }

    /// The flight recorder (the `{"cmd": "dump"}` payload).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Attaches a span-trace registry: every worker records the
    /// requests it serves on its own process track, aligned to the
    /// registry's epoch, for a `--trace-out` Chrome trace dump at
    /// shutdown (DESIGN.md §4f).
    pub fn with_trace_registry(mut self, registry: Arc<trace::Registry>) -> Daemon {
        self.trace_registry = Some(registry);
        self
    }

    /// The daemon's metric counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Cache counter snapshot (`None` when caching is disabled).
    pub fn cache_counters(&self) -> Option<CacheCounters> {
        self.cache.as_ref().map(|c| c.counters())
    }

    /// Disk-tier snapshot (`None` without `--cache-dir`).
    pub fn disk_snapshot(&self) -> Option<DiskTierSnapshot> {
        self.cache.as_ref().and_then(|c| c.disk())
    }

    /// Serves one NDJSON stream: reads request lines from `input` until
    /// EOF or `{"cmd": "shutdown"}`, writes response lines to `output`
    /// in request order. Returns `true` if a shutdown command ended the
    /// stream. Blank lines are skipped; unparsable lines get an
    /// `{"ok": false}` response in their stream position.
    pub fn serve<R: BufRead, W: Write + Send>(
        &self,
        mut input: R,
        output: W,
    ) -> std::io::Result<bool> {
        let queue: Queue<Result<Request, String>> = Queue::default();
        let emitter = Emitter::new(output);
        let mut shutdown = false;
        let scope_result = crossbeam::thread::scope(|scope| {
            let (queue_ref, emitter_ref) = (&queue, &emitter);
            let workers: Vec<_> = (0..self.jobs)
                .map(|w| scope.spawn(move |_| self.worker(w, queue_ref, emitter_ref)))
                .collect();
            let mut read_error = None;
            let mut seq = 0u64;
            loop {
                let payload = match read_line_capped(&mut input, MAX_LINE_BYTES) {
                    Ok(None) => break,
                    Err(e) => {
                        read_error = Some(e);
                        break;
                    }
                    Ok(Some(Err(msg))) => Err(msg),
                    Ok(Some(Ok(line))) => {
                        if line.trim().is_empty() {
                            continue;
                        }
                        let payload = protocol::parse_request(&line);
                        if matches!(payload, Ok(Request::Shutdown)) {
                            shutdown = true;
                            break;
                        }
                        payload
                    }
                };
                self.metrics.enqueued();
                queue.push(Job { seq, payload });
                seq += 1;
            }
            queue.close();
            for w in workers {
                // A worker that somehow died through both panic
                // barriers only costs its in-flight responses, which
                // `finish` below synthesizes.
                let _ = w.join();
            }
            (read_error, seq)
        });
        // The scope errs only if a worker thread died through both
        // panic barriers (`worker` catches its loop, the loop catches
        // each job). Rather than poisoning the daemon with a panic,
        // surface it as a stream error — socket mode drops just this
        // connection, stdin mode exits with a message.
        let (io_err, total) = match scope_result {
            Ok(v) => v,
            Err(_) => {
                return Err(std::io::Error::other(
                    "scheduler scope failed: worker thread died outside the panic barriers",
                ))
            }
        };
        if let Some(e) = io_err {
            return Err(e);
        }
        let (_, dropped) = emitter.finish(total, |_| {
            panic_response(&Value::Null, "response dropped: worker died mid-request")
        })?;
        for _ in &dropped {
            self.metrics.dequeued();
            self.metrics.record_failure();
        }
        Ok(shutdown)
    }

    /// Serves connections on a Unix socket, each as one NDJSON stream,
    /// until a connection sends `{"cmd": "shutdown"}`. Connections are
    /// accepted sequentially; concurrency lives in the per-stream worker
    /// pool. The socket file is removed first if it already exists, and
    /// removed again on return.
    pub fn serve_socket(&self, path: &std::path::Path) -> std::io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        let result = loop {
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) => break Err(e),
            };
            let reader = BufReader::new(stream.try_clone()?);
            match self.serve(reader, stream) {
                Ok(true) => break Ok(()),
                Ok(false) => {}
                // A dropped connection only kills that connection.
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
                Err(e) => break Err(e),
            }
        };
        let _ = std::fs::remove_file(path);
        result
    }

    /// The outer worker shell: a respawn barrier around the job loop.
    /// The loop already isolates each job, so only faults in the
    /// scheduler path itself (notably the `sched` failpoint) land here;
    /// such a panic drops the in-flight job — `serve` synthesizes its
    /// response at `finish` — and the worker re-enters its loop.
    fn worker(
        &self,
        index: usize,
        queue: &Queue<Result<Request, String>>,
        emitter: &Emitter<impl Write>,
    ) {
        // Daemon-wide profiling (`--trace-out`): this worker records
        // every request it serves on its own collector, aligned to the
        // registry epoch so all worker tracks share one timeline.
        let scope = self
            .trace_registry
            .as_ref()
            .map(|reg| trace::CollectorScope::install(trace::Collector::with_epoch(reg.epoch())));
        loop {
            match catch_unwind(AssertUnwindSafe(|| self.worker_loop(queue, emitter))) {
                Ok(()) => break,
                Err(_) => self.metrics.record_panic(),
            }
        }
        if let (Some(reg), Some(scope)) = (self.trace_registry.as_ref(), scope) {
            if let Some(c) = scope.finish() {
                reg.adopt(&format!("worker-{index}"), c);
            }
        }
    }

    fn worker_loop(&self, queue: &Queue<Result<Request, String>>, emitter: &Emitter<impl Write>) {
        while let Some(job) = queue.pop() {
            failpoints::fail_point("sched", &job.seq.to_string());
            let id = request_id(&job.payload);
            let payload = job.payload;
            // Per-job isolation: a panic anywhere in the analysis
            // pipeline becomes a structured `internal_panic` response in
            // the job's stream position; the worker and its peers keep
            // serving.
            let line =
                catch_unwind(AssertUnwindSafe(|| self.handle(payload))).unwrap_or_else(|payload| {
                    self.metrics.record_panic();
                    self.metrics.record_failure();
                    panic_response(&id, &panic_message(payload.as_ref()))
                });
            self.metrics.dequeued();
            emitter.emit(job.seq, line);
        }
    }

    fn handle(&self, payload: Result<Request, String>) -> String {
        match payload {
            Ok(Request::Analyze {
                id,
                source,
                opts,
                oracle,
                limits,
                trace,
                emit,
                precision,
            }) => self.handle_analyze(&id, &source, opts, oracle, limits, trace, emit, precision),
            Ok(Request::Stats { id }) => stats_response(
                &id,
                self.metrics
                    .snapshot(self.cache_counters(), self.disk_snapshot()),
            ),
            Ok(Request::Metrics { id }) => metrics_response(
                &id,
                self.metrics
                    .prometheus(self.cache_counters(), self.disk_snapshot()),
            ),
            Ok(Request::Health { id }) => health_response(&id, self.health()),
            Ok(Request::Dump { id }) => {
                self.write_postmortem("dump command");
                dump_response(&id, self.flight.dump())
            }
            // Shutdown never reaches the queue (the reader stops on it).
            Ok(Request::Shutdown) => unreachable!("shutdown is handled by the reader"),
            Err(msg) => {
                self.metrics.record_failure();
                error_response(&Value::Null, &msg)
            }
        }
    }

    /// The `{"cmd": "health"}` payload: liveness, version, uptime,
    /// worker count and cache-tier state (including a disabled disk
    /// tier's reason — the signal operators page on).
    fn health(&self) -> Value {
        let cache = match self.cache_counters() {
            None => Value::Null,
            Some(c) => {
                let mut fields = vec![
                    ("enabled".to_string(), Value::Bool(true)),
                    ("entries".to_string(), Value::UInt(c.entries as u64)),
                ];
                match self.disk_snapshot() {
                    None => fields.push(("disk".to_string(), Value::Bool(false))),
                    Some(d) => {
                        fields.push(("disk".to_string(), Value::Bool(true)));
                        fields.push((
                            "disk_disabled".to_string(),
                            match &d.disabled {
                                None => Value::Null,
                                Some(reason) => Value::Str(reason.clone()),
                            },
                        ));
                    }
                }
                Value::Object(fields)
            }
        };
        Value::Object(vec![
            ("status".to_string(), Value::Str("ok".to_string())),
            (
                "version".to_string(),
                Value::Str(env!("CARGO_PKG_VERSION").to_string()),
            ),
            (
                "uptime_ms".to_string(),
                Value::UInt(self.start.elapsed().as_millis() as u64),
            ),
            ("jobs".to_string(), Value::UInt(self.jobs as u64)),
            ("cache".to_string(), cache),
            (
                "flight_records".to_string(),
                Value::UInt(self.flight.len() as u64),
            ),
        ])
    }

    /// Writes the flight-recorder ring to the `--postmortem` file, when
    /// one is configured. Dump failures are stderr diagnostics — they
    /// must never fail the request that triggered them.
    fn write_postmortem(&self, why: &str) {
        if let Some(path) = &self.postmortem {
            if let Err(e) = self.flight.dump_to_file(path) {
                eprintln!(
                    "panoramad: cannot write post-mortem ({why}) to {}: {e}",
                    path.display()
                );
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_analyze(
        &self,
        id: &Value,
        source: &str,
        opts: panorama::Options,
        oracle: bool,
        limits: FuelLimits,
        trace_req: bool,
        emit: bool,
        precision: bool,
    ) -> String {
        // Request budgets win field by field; unset fields inherit the
        // daemon defaults.
        let limits = limits.or(self.limits);
        // Traced and precision-accounted requests bypass the cache in
        // the driver to keep their span tree / precision report
        // deterministic.
        if self.cache.is_some() && (trace_req || precision) {
            self.metrics.record_trace_bypass();
        }
        let req = driver::Request {
            source,
            opts,
            oracle,
            limits,
            trace_spans: trace_req,
            emit,
            precision,
        };
        // Flight recording: every request runs under its own collector
        // and its own precision ledger, shadowing the worker's
        // daemon-wide track; the scopes restore it even when the
        // pipeline unwinds. Catching the panic *here* (inside the
        // worker's outer barrier) is what lets the flight record and
        // post-mortem dump carry the spans and ledger of the failed
        // request itself. A `"precision": true` request's events reach
        // this ledger from the driver's nested one.
        let collector_scope = trace::CollectorScope::install(trace::Collector::new());
        let ledger_scope = LedgerScope::install(Ledger::new());
        let result = catch_unwind(AssertUnwindSafe(|| {
            driver::run_with_cache(&req, self.cache.clone())
        }));
        let request_ledger = ledger_scope.finish().unwrap_or_default();
        let collector = collector_scope.finish();
        // Untraced requests still feed the worker's `--trace-out`
        // track. Traced requests embed their tree in the response
        // instead (the long-standing bypass contract).
        if !trace_req {
            if let Some(c) = &collector {
                trace::splice(c);
            }
        }
        self.metrics
            .record_precision(request_ledger.events(), request_ledger.dropped());
        let spans = collector
            .as_ref()
            .map_or(Value::Null, |c| span_tree_value(&c.tree()));
        let mut record = FlightRecord {
            seq: 0,
            id: id.clone(),
            digest: flight::source_digest(source),
            source_bytes: source.len() as u64,
            outcome: String::new(),
            degrade_reason: None,
            error: None,
            events: request_ledger.events().to_vec(),
            events_dropped: request_ledger.dropped(),
            spans,
        };
        match result {
            Ok(Ok(out)) => {
                let degraded = out.analysis.degraded();
                if degraded {
                    self.metrics.record_degraded(out.analysis.degrade_reason);
                }
                self.metrics.record_analysis(
                    &out.analysis.times,
                    out.analysis.stats.peak_state_size,
                    oracle,
                );
                self.metrics.record_lints(&out.analysis.lints);
                record.degrade_reason = out.analysis.degrade_reason.map(|r| r.as_str().to_string());
                record.outcome =
                    if out.analysis.degrade_reason == Some(panorama::DegradeReason::Deadline) {
                        "timeout".to_string()
                    } else if degraded {
                        "degraded".to_string()
                    } else {
                        "ok".to_string()
                    };
                self.flight.record(record);
                if degraded {
                    self.write_postmortem("degraded analysis");
                }
                match (trace_req, collector) {
                    (true, Some(c)) => traced_response(id, out.json(), span_tree_value(&c.tree())),
                    _ => ok_response(id, out.json()),
                }
            }
            Ok(Err(e)) => {
                self.metrics.record_failure();
                record.outcome = "failed".to_string();
                record.error = Some(e.to_string());
                self.flight.record(record);
                error_response(id, &e.to_string())
            }
            Err(payload) => {
                self.metrics.record_panic();
                self.metrics.record_failure();
                let message = panic_message(payload.as_ref());
                record.outcome = "internal_panic".to_string();
                record.error = Some(message.clone());
                self.flight.record(record);
                self.write_postmortem("internal panic");
                panic_response(id, &message)
            }
        }
    }
}

/// The `id` of a parsed request, for labeling a panic response when the
/// handler never got far enough to build one.
fn request_id(payload: &Result<Request, String>) -> Value {
    match payload {
        Ok(Request::Analyze { id, .. })
        | Ok(Request::Stats { id })
        | Ok(Request::Metrics { id })
        | Ok(Request::Health { id })
        | Ok(Request::Dump { id }) => id.clone(),
        _ => Value::Null,
    }
}

/// Renders a span forest as the `"trace"` payload of a traced response:
/// `{"spans": [...]}`, each node carrying `name`, `start_us`, `dur_us`,
/// `counters`, `events` and `children` (DESIGN.md §4f).
fn span_tree_value(nodes: &[trace::SpanNode]) -> Value {
    Value::Object(vec![("spans".to_string(), span_nodes_value(nodes))])
}

fn span_nodes_value(nodes: &[trace::SpanNode]) -> Value {
    Value::Array(
        nodes
            .iter()
            .map(|n| {
                Value::Object(vec![
                    ("name".to_string(), Value::Str(n.name.clone())),
                    ("start_us".to_string(), Value::UInt(n.start_us)),
                    ("dur_us".to_string(), Value::UInt(n.dur_us)),
                    (
                        "counters".to_string(),
                        Value::Object(
                            n.counters
                                .iter()
                                .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                                .collect(),
                        ),
                    ),
                    (
                        "events".to_string(),
                        Value::Array(
                            n.events
                                .iter()
                                .map(|e| {
                                    Value::Object(vec![
                                        ("at_us".to_string(), Value::UInt(e.at_us)),
                                        ("name".to_string(), Value::Str(e.name.clone())),
                                        ("detail".to_string(), Value::Str(e.detail.clone())),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("children".to_string(), span_nodes_value(&n.children)),
                ])
            })
            .collect(),
    )
}

/// Renders a caught panic payload (`&str` and `String` payloads cover
/// everything `panic!` produces; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Reads one newline-terminated line, enforcing `cap`. `Ok(None)` is
/// EOF; `Ok(Some(Err(msg)))` is an oversized or non-UTF-8 line that was
/// fully consumed (the stream stays framed) and should be answered with
/// `msg` in stream position.
fn read_line_capped<R: BufRead>(
    input: &mut R,
    cap: usize,
) -> std::io::Result<Option<Result<String, String>>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut dropped = 0usize;
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            if buf.is_empty() && dropped == 0 {
                return Ok(None);
            }
            break;
        }
        let (take, consumed, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos, pos + 1, true),
            None => (chunk.len(), chunk.len(), false),
        };
        if dropped == 0 && buf.len() + take <= cap {
            buf.extend_from_slice(&chunk[..take]);
        } else {
            dropped += take;
        }
        input.consume(consumed);
        if done {
            break;
        }
    }
    if dropped > 0 {
        return Ok(Some(Err(format!(
            "bad request: line exceeds the {cap} byte limit"
        ))));
    }
    match String::from_utf8(buf) {
        Ok(line) => Ok(Some(Ok(line))),
        Err(_) => Ok(Some(
            Err("bad request: line is not valid UTF-8".to_string()),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"      PROGRAM t\n      REAL a(10)\n      INTEGER i\n      DO i = 1, 10\n        a(i) = 1.0\n      ENDDO\n      END\n"#;

    fn serve_lines(daemon: &Daemon, input: &str) -> Vec<Value> {
        let mut out = Vec::new();
        daemon
            .serve(std::io::Cursor::new(input.to_string()), &mut out)
            .unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect()
    }

    #[test]
    fn analyze_stats_and_errors_in_order() {
        // One worker: the metric assertions below need the error request
        // processed before the stats snapshot, not merely emitted first.
        let daemon = Daemon::new(Config {
            jobs: 1,
            ..Config::default()
        });
        let input = format!(
            "{{\"id\": 1, \"source\": \"{SRC}\"}}\nnot json\n{}\n",
            r#"{"id": "s", "cmd": "stats"}"#
        );
        let responses = serve_lines(&daemon, &input);
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0].get("id").unwrap(), &Value::Int(1));
        assert_eq!(responses[0].get("ok").unwrap(), &Value::Bool(true));
        assert_eq!(
            responses[0]
                .get("report")
                .unwrap()
                .get("schema_version")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(responses[1].get("ok").unwrap(), &Value::Bool(false));
        assert!(responses[1].get("id").unwrap().is_null());
        let stats = responses[2].get("stats").unwrap();
        assert_eq!(
            stats
                .get("requests")
                .unwrap()
                .get("failed")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn repeat_request_hits_cache() {
        // One worker: concurrent identical requests can all miss the
        // cold cache, so hit counting needs serial processing.
        let daemon = Daemon::new(Config {
            jobs: 1,
            ..Config::default()
        });
        let line = format!(r#"{{"id": 1, "source": "{SRC}"}}"#);
        let input = format!("{line}\n{line}\n{line}\n");
        let responses = serve_lines(&daemon, &input);
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0], responses[1]);
        let counters = daemon.cache_counters().unwrap();
        assert!(counters.hits >= 2, "expected cache hits: {counters:?}");
    }

    #[test]
    fn traced_request_embeds_span_tree() {
        let daemon = Daemon::new(Config {
            jobs: 1,
            ..Config::default()
        });
        let input = format!(
            "{{\"id\": 1, \"source\": \"{SRC}\", \"trace\": true}}\n{{\"id\": 2, \"source\": \"{SRC}\"}}\n"
        );
        let responses = serve_lines(&daemon, &input);
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].get("ok").unwrap(), &Value::Bool(true));
        assert!(responses[0].get("report").is_some());
        let spans = responses[0].get("trace").unwrap().get("spans").unwrap();
        let Value::Array(roots) = spans else {
            panic!("spans is not an array: {spans:?}");
        };
        let names: Vec<&str> = roots
            .iter()
            .filter_map(|n| n.get("name").and_then(Value::as_str))
            .collect();
        for want in ["parse", "sema", "hsg", "dataflow", "privatize"] {
            assert!(names.contains(&want), "missing {want} span in {names:?}");
        }
        // An untraced request carries no trace key.
        assert!(responses[1].get("trace").is_none());
    }

    #[test]
    fn metrics_command_returns_prometheus_text() {
        // One worker so the analysis lands in the counters before the
        // metrics snapshot runs.
        let daemon = Daemon::new(Config {
            jobs: 1,
            ..Config::default()
        });
        let input = format!(
            "{{\"id\": 1, \"source\": \"{SRC}\"}}\n{}\n",
            r#"{"id": "m", "cmd": "metrics"}"#
        );
        let responses = serve_lines(&daemon, &input);
        assert_eq!(responses[1].get("ok").unwrap(), &Value::Bool(true));
        let text = responses[1]
            .get("metrics")
            .and_then(Value::as_str)
            .expect("metrics text");
        assert!(text.contains("panorama_requests_total{outcome=\"completed\"} 1\n"));
        assert!(text.contains("panorama_cache_hits_total"));
        assert!(text.contains(
            "panorama_phase_latency_microseconds_bucket{phase=\"dataflow\",le=\"+Inf\"} 1\n"
        ));
    }

    #[test]
    fn trace_registry_collects_worker_tracks() {
        let reg = Arc::new(trace::Registry::new());
        let daemon = Daemon::new(Config {
            jobs: 2,
            ..Config::default()
        })
        .with_trace_registry(Arc::clone(&reg));
        let input =
            format!("{{\"id\": 1, \"source\": \"{SRC}\"}}\n{{\"id\": 2, \"source\": \"{SRC}\"}}\n");
        let responses = serve_lines(&daemon, &input);
        assert_eq!(responses.len(), 2);
        let json = reg.chrome_trace();
        assert!(json.contains("\"process_name\""), "no process track");
        assert!(json.contains("worker-"), "no worker label");
        assert!(json.contains("\"parse\""), "no parse span");
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn health_command_reports_daemon_state() {
        let daemon = Daemon::new(Config {
            jobs: 1,
            ..Config::default()
        });
        let input = format!(
            "{{\"id\": 1, \"source\": \"{SRC}\"}}\n{}\n",
            r#"{"id": "h", "cmd": "health"}"#
        );
        let responses = serve_lines(&daemon, &input);
        assert_eq!(responses[1].get("ok").unwrap(), &Value::Bool(true));
        let health = responses[1].get("health").unwrap();
        assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
        assert!(!health.get("version").unwrap().as_str().unwrap().is_empty());
        assert!(health.get("uptime_ms").unwrap().as_u64().is_some());
        assert_eq!(health.get("jobs").unwrap().as_u64(), Some(1));
        let cache = health.get("cache").unwrap();
        assert_eq!(cache.get("enabled").unwrap(), &Value::Bool(true));
        assert_eq!(cache.get("disk").unwrap(), &Value::Bool(false));
        // The analyze request before the health check left one record.
        assert_eq!(health.get("flight_records").unwrap().as_u64(), Some(1));
        // Without a cache the field is null, with a disk tier it carries
        // the disabled reason slot.
        let no_cache = Daemon::new(Config {
            jobs: 1,
            cache: None,
            ..Config::default()
        });
        let responses = serve_lines(&no_cache, "{\"id\": 1, \"cmd\": \"health\"}\n");
        assert!(responses[0]
            .get("health")
            .unwrap()
            .get("cache")
            .unwrap()
            .is_null());
    }

    #[test]
    fn precision_request_attaches_report_and_counters() {
        let daemon = Daemon::new(Config {
            jobs: 1,
            ..Config::default()
        });
        let input = format!(
            "{{\"id\": 1, \"source\": \"{SRC}\", \"precision\": true, \"fuel\": 1}}\n{}\n",
            r#"{"id": "s", "cmd": "stats"}"#
        );
        let responses = serve_lines(&daemon, &input);
        assert_eq!(responses[0].get("ok").unwrap(), &Value::Bool(true));
        let report = responses[0].get("report").unwrap();
        let precision = report.get("precision").expect("precision key in report");
        assert!(precision.get("precision_ratio").unwrap().as_str().is_some());
        let fuel_widen = precision
            .get("causes")
            .unwrap()
            .get("fuel_widen")
            .unwrap()
            .as_u64()
            .unwrap();
        assert!(fuel_widen > 0, "fuel-starved run must record widenings");
        // The always-on worker ledger feeds the daemon-wide counters.
        let stats_precision = responses[1].get("stats").unwrap().get("precision").unwrap();
        assert!(
            stats_precision
                .get("events")
                .unwrap()
                .get("fuel_widen")
                .unwrap()
                .as_u64()
                .unwrap()
                >= fuel_widen
        );
    }

    #[test]
    fn panic_lands_in_flight_record_and_postmortem_file() {
        if failpoints::env_active() {
            // Whole-binary FAILPOINTS injection owns the registry; the
            // targeted configuration below would fight it.
            return;
        }
        let postmortem =
            std::env::temp_dir().join(format!("panoledger-postmortem-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&postmortem);
        let daemon = Daemon::new(Config {
            jobs: 1,
            postmortem: Some(postmortem.clone()),
            ..Config::default()
        });
        // The analyze failpoint's argument is the routine name, so the
        // selector only fires for the sabotaged routine.
        failpoints::configure("analyze=panic(zzboom)");
        let sabotaged = r#"      PROGRAM zzboom\n      END\n"#;
        let input = format!(
            "{{\"id\": 1, \"source\": \"{SRC}\"}}\n{{\"id\": 2, \"source\": \"{sabotaged}\"}}\n{}\n",
            r#"{"id": "d", "cmd": "dump"}"#
        );
        let responses = serve_lines(&daemon, &input);
        failpoints::clear();
        assert_eq!(responses[0].get("ok").unwrap(), &Value::Bool(true));
        assert_eq!(responses[1].get("ok").unwrap(), &Value::Bool(false));
        assert_eq!(
            responses[1]
                .get("error")
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str(),
            Some("internal_panic")
        );
        // The dump command returns the ring: the healthy request, then
        // the panicked one with its identity preserved.
        let flight = responses[2].get("flight").unwrap();
        let records = flight.get("records").unwrap().as_array().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].get("outcome").unwrap().as_str(), Some("ok"));
        let crashed = &records[1];
        assert_eq!(
            crashed.get("outcome").unwrap().as_str(),
            Some("internal_panic")
        );
        assert_eq!(crashed.get("id").unwrap(), &Value::Int(2));
        // The digest covers the JSON-decoded source (real newlines,
        // not the `\n` escapes in the request line).
        let decoded = sabotaged.replace("\\n", "\n");
        assert_eq!(
            crashed.get("digest").unwrap().as_str(),
            Some(flight::source_digest(&decoded).as_str())
        );
        assert!(crashed.get("error").unwrap().as_str().is_some());
        // The post-mortem file was written when the panic was caught
        // (before the dump command) and re-written by the dump; it
        // round-trips through JSON with the same outcome.
        let text = std::fs::read_to_string(&postmortem).expect("postmortem file");
        let parsed: Value = serde_json::from_str(&text).unwrap();
        let dumped = parsed.get("records").unwrap().as_array().unwrap();
        assert!(dumped
            .iter()
            .any(|r| r.get("outcome").unwrap().as_str() == Some("internal_panic")));
        let _ = std::fs::remove_file(&postmortem);
        // The worker survived: metrics recorded exactly one contained
        // panic and kept serving the dump command.
        assert_eq!(
            daemon
                .metrics()
                .panics
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn every_request_leaves_a_flight_record_with_spans() {
        let daemon = Daemon::new(Config {
            jobs: 1,
            ..Config::default()
        });
        let input = format!(
            "{{\"id\": 1, \"source\": \"{SRC}\"}}\nnot json\n{{\"id\": \"d\", \"cmd\": \"dump\"}}\n"
        );
        let responses = serve_lines(&daemon, &input);
        // Unparsable lines never reach the analyzer, so only the
        // analyze request recorded.
        let records_value = responses[2]
            .get("flight")
            .unwrap()
            .get("records")
            .unwrap()
            .clone();
        let records = records_value.as_array().unwrap();
        assert_eq!(records.len(), 1);
        let rec = &records[0];
        assert_eq!(rec.get("outcome").unwrap().as_str(), Some("ok"));
        assert!(rec.get("source_bytes").unwrap().as_u64().unwrap() > 0);
        // The record carries the span tree even though the request was
        // untraced — that is what makes the post-mortem actionable.
        let spans = rec.get("spans").unwrap().get("spans").unwrap();
        let names: Vec<&str> = spans
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|n| n.get("name").and_then(Value::as_str))
            .collect();
        assert!(names.contains(&"dataflow"), "missing dataflow in {names:?}");
        assert!(rec.get("precision_events").unwrap().as_array().is_some());
    }

    #[test]
    fn shutdown_command_stops_stream() {
        let daemon = Daemon::new(Config::default());
        let mut out = Vec::new();
        let input = format!(
            "{{\"id\": 1, \"source\": \"{SRC}\"}}\n{}\n{}\n",
            r#"{"cmd": "shutdown"}"#, r#"{"id": 2, "cmd": "stats"}"#
        );
        let shutdown = daemon.serve(std::io::Cursor::new(input), &mut out).unwrap();
        assert!(shutdown);
        // The line after shutdown was never processed.
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 1);
    }
}
