//! `--noise SECONDS`: the host-noise probe behind the README's choice of
//! estimators. One fixed unit of single-threaded work — an in-process
//! analysis pass over the paper corpus — is timed back to back for the
//! given time, wherever the scheduler puts the thread. Prints every
//! sample with its offset, then per second the median against the
//! fastest pass of the probe: the mode the host was in during that
//! second. Run one under `taskset -c N` per CPU at the same time to see
//! that the CPUs change mode independently of each other.

use crate::harness::{self, Env, Tally};
use crate::stats;
use std::time::{Duration, Instant};

pub fn run(env: &Env, seconds: f64) -> Result<bool, String> {
    let mut tally = Tally::default();
    let p = harness::prepare(env, "paper_default", 1, &mut tally)?;
    let start = Instant::now();
    // (offset in s, pass in ms)
    let mut series: Vec<(f64, f64)> = Vec::new();
    while start.elapsed() < Duration::from_secs_f64(seconds) {
        let at = start.elapsed().as_secs_f64();
        let times = harness::analyze_pass(&p, &p.order, &None, &mut tally);
        series.push((at, times.iter().sum::<f64>() * 1e3));
    }
    println!("# offset_s pass_ms   (paper_default corpus, in-process driver + JSON report)");
    for (at, ms) in &series {
        println!("{at:8.3} {ms:8.3}");
    }
    let all: Vec<f64> = series.iter().map(|s| s.1).collect();
    let best = stats::fastest(&all, stats::Better::Lower);
    println!(
        "# {} passes; fastest {:.3} ms, median {:.3} ms, slowest {:.3} ms",
        all.len(),
        best,
        stats::median(&all),
        stats::quantile(&all, 1.0)
    );
    println!("# second  median_ms  vs_fastest");
    let mut second = 0.0;
    while second < seconds {
        let bucket: Vec<f64> = series
            .iter()
            .filter(|(at, _)| *at >= second && *at < second + 1.0)
            .map(|s| s.1)
            .collect();
        if !bucket.is_empty() {
            let m = stats::median(&bucket);
            println!("# {second:6.0} {m:10.3} {:9.2}x", m / best);
        }
        second += 1.0;
    }
    Ok(tally.failed == 0)
}
