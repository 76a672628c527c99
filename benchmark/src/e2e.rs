//! The end-to-end run: interleaved rounds, one short phase per metric
//! in every round, so each metric is sampled across the whole span and
//! meets both modes of a noisy host. Each single-threaded unit (a CLI
//! sweep, an in-process pass, a serial execution sweep) runs on the CPU
//! that is quietest at that moment; see `proc::Cpus`. Tracing is off
//! throughout.

use crate::harness::{self, Env, Live, Orders, Prepared, Tally};
use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::{self, Estimator};
use std::time::{Duration, Instant};

/// Target length of a round; the number of rounds follows from the
/// run's length (30 rounds at the full 55 s, 17 at the driver's 28 s).
const ROUND_SECONDS: f64 = 1.6;
const MAX_ROUNDS: usize = 30;
const MIN_ROUNDS: usize = 3;
/// Fresh re-set-ups per run, evenly spaced over the rounds.
const SETUPS: usize = 5;

pub fn rounds_for(seconds: f64) -> usize {
    ((seconds / ROUND_SECONDS) as usize).clamp(MIN_ROUNDS, MAX_ROUNDS)
}

/// Everything one run measured, in the order of `END_TO_END`.
pub struct E2eResult {
    pub workload: &'static str,
    pub seed: u64,
    pub digest: String,
    pub rounds: usize,
    pub span: Duration,
    /// The reported value of each metric.
    pub values: Vec<f64>,
    /// What each value was estimated from, for the quartile columns:
    /// every sweep or pass of a `fastest` metric, one value per round
    /// of the others, one per daemon instance of its peak RSS.
    pub samples: Vec<Vec<f64>>,
    /// Percentile the latency tail resolved to in a round.
    pub tail_percentile: f64,
    pub latency_samples_per_round: usize,
    pub tally: Tally,
}

impl E2eResult {
    pub fn metrics(&self) -> impl Iterator<Item = (&'static EndToEnd, f64)> + '_ {
        END_TO_END.iter().zip(self.values.iter().copied())
    }
}

/// The fastest time seen for each unit of work of a sweep (a file, a
/// program), across sweeps. Summed, it is the `fastest` estimate of the
/// sweep: every unit at the speed of the quiet host, even if no single
/// sweep ran entirely in a quiet spell.
struct Fastest(Vec<f64>);

impl Fastest {
    fn new(units: usize) -> Fastest {
        Fastest(vec![f64::INFINITY; units])
    }

    fn merge(&mut self, times: &[f64]) {
        for (best, &t) in self.0.iter_mut().zip(times) {
            *best = best.min(t);
        }
    }

    fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// One sweep of the CLI over the corpus: one `panorama` process per
/// file, started by the helper on `cpu`. Returns each file's wall time
/// in ms (indexed like the corpus) and the largest peak RSS among the
/// processes.
fn cli_sweep(
    env: &Env,
    p: &Prepared,
    live: &Live,
    cpu: Option<usize>,
    tally: &mut Tally,
) -> Result<(Vec<f64>, f64), String> {
    let mut times = vec![0.0; p.order.len()];
    let mut rss = 0u64;
    let mut args = live.cli_flags.clone();
    for &index in &p.order {
        args.push(live.files[index].to_string_lossy().into_owned());
        let (usage, out) = env
            .spawner
            .borrow_mut()
            .run(cpu, &env.bins.panorama, &args)
            .map_err(|e| format!("cannot run panorama: {e}"))?;
        args.pop();
        times[index] = usage.wall.as_secs_f64() * 1e3;
        rss = rss.max(usage.max_rss_kb);
        let name = &p.w.programs[index].name;
        let expected = &p.reports[index];
        tally.op(if !usage.exit_ok {
            Err(format!("{name}: panorama exited with a failure status"))
        } else if out.strip_suffix(b"\n") != Some(expected.as_bytes()) {
            Err(format!(
                "{name}: CLI report differs from the in-process report"
            ))
        } else {
            Ok(())
        });
    }
    Ok((times, rss as f64))
}

/// Repeats `unit` until `deadline`, at least `min` times.
fn repeat_until(
    deadline: Instant,
    min: usize,
    mut unit: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let mut done = 0;
    while done < min || Instant::now() < deadline {
        unit()?;
        done += 1;
    }
    Ok(())
}

pub fn run(
    env: &Env,
    name: &str,
    seed: u64,
    seconds: f64,
    rounds: Option<usize>,
) -> Result<E2eResult, String> {
    let mut tally = Tally::default();
    let p = harness::prepare(env, name, seed, &mut tally)?;
    let rounds = rounds.unwrap_or_else(|| rounds_for(seconds));
    let round_len = Duration::from_secs_f64(seconds / rounds as f64);
    let setup_every = (rounds / SETUPS).max(1);
    let window = 2 * env.nproc;
    let burst_requests = (p.w.burst_passes * p.order.len()) as f64;
    let mut orders = Orders::new(seed, p.order.len());

    // Samples, named like the metrics they feed.
    let mut setup_s = Vec::new();
    let mut cli_sweeps_ms = Vec::new();
    let mut cli_fastest = Fastest::new(p.order.len());
    let mut cli_rss_rounds = Vec::new();
    let mut analyze_passes_s = Vec::new();
    let mut analyze_fastest = Fastest::new(p.order.len());
    let mut rps_rounds = Vec::new();
    let mut p50_rounds = Vec::new();
    let mut tail_rounds = Vec::new();
    let mut daemon_rss = Vec::new();
    let mut serial_sweeps_ms = Vec::new();
    let mut serial_fastest = Fastest::new(p.execs.len());
    let mut parallel_rounds = Vec::new();
    let mut tail_percentile = f64::NAN;
    let mut latency_samples = 0;
    let mut live: Option<Live> = None;

    let start = Instant::now();
    for round in 0..rounds {
        let round_end = start + round_len * (round as u32 + 1);
        // The share of what is left of the round for the next of
        // `left` phases; a phase that overran shortens the later ones,
        // which still do their minimum.
        let slice = |left: u32| {
            let now = Instant::now();
            now + round_end.saturating_duration_since(now) / left
        };

        if round % setup_every == 0 && setup_s.len() < SETUPS {
            if let Some(old) = live.take() {
                daemon_rss.push(old.teardown(&mut tally)?);
            }
            let (fresh, took) = harness::setup(env, &p, &mut tally)?;
            setup_s.push(took.as_secs_f64());
            live = Some(fresh);
        }
        let live = live.as_mut().expect("round 0 sets up");

        // CLI: sweeps of one process per file.
        let mut round_rss = 0f64;
        repeat_until(slice(6), 2, || {
            let cpu = env.quiet_cpu();
            let (times, rss) = cli_sweep(env, &p, live, cpu.cpu(), &mut tally)?;
            cli_sweeps_ms.push(times.iter().sum());
            cli_fastest.merge(&times);
            round_rss = round_rss.max(rss);
            Ok(())
        })?;
        cli_rss_rounds.push(round_rss);

        // In-process driver: whole-corpus passes.
        repeat_until(slice(5), 2, || {
            let order = orders.next_pass();
            let _cpu = env.quiet_cpu();
            let times = harness::analyze_pass(&p, &order, &live.cache, &mut tally);
            analyze_passes_s.push(times.iter().sum());
            analyze_fastest.merge(&times);
            Ok(())
        })?;

        // Daemon throughput: saturating closed loop, best burst of the
        // round.
        let mut best_rps = 0f64;
        repeat_until(slice(4), 3, || {
            let burst = orders.next_passes(p.w.burst_passes);
            let took =
                harness::daemon_stream(&p, &mut live.daemon, window, &burst, &mut tally, None)?;
            best_rps = best_rps.max(burst_requests / took.as_secs_f64());
            Ok(())
        })?;
        rps_rounds.push(best_rps);

        // Daemon latency: one request in flight, a fixed number of
        // corpus passes so every round resolves the same percentile.
        let mut latencies = Vec::new();
        let stream = orders.next_passes(p.w.latency_passes);
        harness::daemon_stream(
            &p,
            &mut live.daemon,
            1,
            &stream,
            &mut tally,
            Some(&mut latencies),
        )?;
        p50_rounds.push(stats::median(&latencies));
        let (pct, tail) = stats::tail(&latencies);
        tail_rounds.push(tail);
        tail_percentile = pct;
        latency_samples = latencies.len();

        // Execution of the programs themselves.
        repeat_until(slice(2), 2, || {
            let _cpu = env.quiet_cpu();
            let times = harness::exec_sweep(&p, None, &mut tally);
            serial_sweeps_ms.push(times.iter().sum());
            serial_fastest.merge(&times);
            Ok(())
        })?;
        let mut round_parallel = Fastest::new(p.execs.len());
        repeat_until(slice(1), 3, || {
            round_parallel.merge(&harness::exec_sweep(&p, Some(env.nproc), &mut tally));
            Ok(())
        })?;
        parallel_rounds.push(round_parallel.sum());
    }
    let span = start.elapsed();
    if let Some(last) = live.take() {
        daemon_rss.push(last.teardown(&mut tally)?);
    }

    let lines = p.w.lines() as f64;
    let mut values = Vec::new();
    let mut samples = Vec::new();
    for m in END_TO_END {
        let (value, from): (Option<f64>, Vec<f64>) = match m.name {
            "setup_s" => (None, std::mem::take(&mut setup_s)),
            "cli_wall_ms" => (Some(cli_fastest.sum()), std::mem::take(&mut cli_sweeps_ms)),
            "cli_peak_rss_kb" => (None, std::mem::take(&mut cli_rss_rounds)),
            "analyze_lines_per_s" => (
                Some(lines / analyze_fastest.sum()),
                analyze_passes_s.iter().map(|s| lines / s).collect(),
            ),
            "daemon_rps" => (None, std::mem::take(&mut rps_rounds)),
            "daemon_latency_ms_p50" => (None, std::mem::take(&mut p50_rounds)),
            "daemon_latency_ms_tail" => (None, std::mem::take(&mut tail_rounds)),
            "daemon_peak_rss_kb" => (None, std::mem::take(&mut daemon_rss)),
            "exec_serial_ms" => (
                Some(serial_fastest.sum()),
                std::mem::take(&mut serial_sweeps_ms),
            ),
            "exec_parallel_ms" => (None, std::mem::take(&mut parallel_rounds)),
            other => return Err(format!("end-to-end metric {other} is not measured")),
        };
        debug_assert!(value.is_none() || m.estimator == Estimator::Fastest);
        values.push(value.unwrap_or_else(|| stats::estimate(m.estimator, m.better, &from)));
        samples.push(from);
    }

    Ok(E2eResult {
        workload: p.w.name,
        seed,
        digest: p.digest,
        rounds,
        span,
        values,
        samples,
        tail_percentile,
        latency_samples_per_round: latency_samples,
        tally,
    })
}

/// The informational view of a sample set: quartiles.
pub fn describe(samples: &[f64]) -> (f64, f64, f64) {
    (
        stats::quantile(samples, 0.25),
        stats::median(samples),
        stats::quantile(samples, 0.75),
    )
}
