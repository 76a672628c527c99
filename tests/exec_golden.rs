//! Golden execution counts: for every executable evaluation program, four
//! `benchsuite::synthetic_program` shapes and fifty generated programs,
//! the interpreter's exact behaviour is checked in at
//! `tests/golden/exec_counts.txt` —
//!
//! * the serial run's counted operations and an FNV-64 digest of final
//!   memory (every element's bits, array by array);
//! * per lowered plan (default options, and `--forall --content`): the
//!   cut-off's decisions at 2 threads (`forked_instances`,
//!   `declined_instances`, `parallel_iterations`);
//! * the P = 8 simulation (`t1`, `tp`) of the plan's main loop.
//!
//! Any change to how operations are charged, what memory ends up holding or
//! which instances fork shows up here. Regenerate after an intentional
//! change with `UPDATE_GOLDEN=1 cargo test -p panorama --test exec_golden`.

use interp::{simulate_speedup, ArrayData, Machine, Memory};
use panorama::{driver, Options};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

#[path = "generator.rs"]
mod generator;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/exec_counts.txt"
);

/// `(n_routines, inner_size)` of the synthetic shapes: call-heavy, like
/// the `synth_cold` workload.
const SYNTH_SHAPES: [(usize, usize); 4] = [(2, 16), (4, 24), (8, 32), (12, 48)];

/// FNV-1a over every array's type, length and element bits.
fn digest(mem: &Memory) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for a in &mem.arrays {
        match &a.data {
            ArrayData::Int(v) => {
                eat(0);
                eat(v.len() as u64);
                v.iter().for_each(|&x| eat(x as u64));
            }
            ArrayData::Real(v) => {
                eat(1);
                eat(v.len() as u64);
                v.iter().for_each(|x| eat(x.to_bits()));
            }
            ArrayData::Logical(v) => {
                eat(2);
                eat(v.len() as u64);
                v.iter().for_each(|&x| eat(u64::from(x)));
            }
        }
    }
    h
}

/// One program's section: the serial run, then one line per plan.
fn section(name: &str, source: &str) -> String {
    let mut out = String::new();
    let plans = [
        ("default", Options::default()),
        (
            "forall+content",
            Options {
                forall_ext: true,
                content: true,
                ..Options::default()
            },
        ),
    ];
    let _ = writeln!(out, "== {name} ==");
    let mut serial = None;
    // Simulations by (routine, var): both plans usually share the loop.
    let mut sims: Vec<(String, String, interp::SimResult)> = Vec::new();
    for (tag, opts) in plans {
        let req = driver::Request {
            opts,
            emit: true,
            ..driver::Request::new(source)
        };
        let res = driver::run(&req).unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
        let a = &res.analysis;
        let t = res.transform.as_ref().expect("emit was requested");
        let m = Machine::new(&a.program, &a.sema);
        let ops = *serial.get_or_insert_with(|| {
            let (mem, stats) = m
                .run()
                .unwrap_or_else(|e| panic!("{name}: serial run failed: {e}"));
            let _ = writeln!(out, "serial ops {} mem {:016x}", stats.ops, digest(&mem));
            stats.ops
        });
        let (_, par) = m
            .run_parallel(&t.plan, 2)
            .unwrap_or_else(|e| panic!("{name}: parallel run failed: {e}"));
        assert_eq!(par.ops, ops, "{name}: the threaded run counted other work");
        let _ = write!(
            out,
            "{tag}: forked {} declined {} parallel_iterations {}",
            par.forked_instances, par.declined_instances, par.parallel_iterations
        );
        // The main loop: the first planned loop of the PROGRAM unit, else
        // the first planned loop at all.
        let main = a.program.main().map(|r| r.name.as_str());
        let planned = || t.loops.iter().filter(|l| l.planned);
        match planned()
            .find(|l| Some(l.routine.as_str()) == main)
            .or_else(|| planned().next())
        {
            Some(l) => {
                let known = sims.iter().find(|(r, v, _)| *r == l.routine && *v == l.var);
                let sim = match known {
                    Some((_, _, sim)) => *sim,
                    None => {
                        let sim = simulate_speedup(&m, &l.routine, &l.var, 8)
                            .unwrap_or_else(|e| panic!("{name}: simulation failed: {e}"));
                        sims.push((l.routine.clone(), l.var.clone(), sim));
                        sim
                    }
                };
                let _ = writeln!(
                    out,
                    "; sim {}/{} P=8 t1 {} tp {}",
                    l.routine, l.var, sim.t1, sim.tp
                );
            }
            None => out.push_str("; nothing planned\n"),
        }
    }
    out
}

/// The programs, named like the benchmark's corpus.
fn programs() -> Vec<(String, String)> {
    let mut progs = Vec::new();
    for (n, k) in benchsuite::kernels().iter().enumerate() {
        let name = format!("k{n:02}_{}", k.loop_label.replace('/', "_"));
        progs.push((name, k.source.to_string()));
    }
    for (tag, _, _, _, src) in benchsuite::fig1_kernels() {
        progs.push((format!("fig{tag}"), src.to_string()));
    }
    for k in benchsuite::range_kernels() {
        progs.push((format!("range_{}", k.tag), k.source.to_string()));
    }
    for k in benchsuite::content_kernels() {
        progs.push((format!("content_{}", k.tag), k.source.to_string()));
    }
    for (routines, inner) in SYNTH_SHAPES {
        let src = benchsuite::synthetic_program(routines, inner);
        progs.push((format!("synth_{routines}x{inner}"), src));
    }
    for seed in 20_000..20_050u64 {
        progs.push((format!("gen_{seed}"), generator::Gen::new(seed).program()));
    }
    progs
}

/// Every section, in corpus order; the programs are spread over the
/// host's CPUs.
fn render() -> String {
    let progs = programs();
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let mut sections: Vec<(usize, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some((name, src)) = progs.get(k) else {
                            return done;
                        };
                        done.push((k, section(name, src)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a section panicked"))
            .collect()
    });
    sections.sort_unstable_by_key(|(k, _)| *k);
    sections.into_iter().map(|(_, text)| text).collect()
}

#[test]
fn execution_counts_match_the_golden_file() {
    let got = render();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("missing golden file {GOLDEN}: {e}"));
    assert_eq!(
        got, want,
        "execution drifted from tests/golden/exec_counts.txt; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}
