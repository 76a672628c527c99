//! The four workloads: their programs, analysis options and cache
//! configuration. The seed generates the programs of `synth_cold` and
//! `reuse_warm`; the paper workloads are the fixed evaluation kernels
//! and the seed only orders their requests.

use crate::rng::Rng;
use dataflow::Options;
use std::fmt::Write as _;

/// One input program.
#[derive(Clone, Debug)]
pub struct Prog {
    /// File stem and expectation key.
    pub name: String,
    pub source: String,
    /// Source lines (the unit of `analyze_lines_per_s`).
    pub lines: usize,
    /// Whether the execution phases run it (every program is analyzed).
    pub executable: bool,
}

impl Prog {
    fn new(name: String, source: String, executable: bool) -> Prog {
        let lines = source.lines().count();
        Prog {
            name,
            source,
            lines,
            executable,
        }
    }
}

/// How the workload uses the routine-summary cache — the same way in
/// the daemon, the in-process driver and (for the disk store) the CLI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheMode {
    /// No cache anywhere (`panoramad --no-cache`).
    None,
    /// A memory cache of this many routine entries, FIFO: the corpus is
    /// far larger, so every lookup misses and every insert evicts.
    Bounded(usize),
    /// Unbounded memory cache over a disk store populated in set-up:
    /// every lookup hits (daemon and driver memory-warm, CLI disk-warm).
    DiskWarm,
}

pub struct Workload {
    pub name: &'static str,
    pub programs: Vec<Prog>,
    pub opts: Options,
    /// Also run the emission backend (`--transform-out`, `"emit": true`).
    pub emit: bool,
    pub cache: CacheMode,
    /// Corpus passes of the window-1 latency phase in one round.
    pub latency_passes: usize,
    /// Corpus passes of one saturating burst: long enough that the idle
    /// worker at the end of a burst, which depends on the request order,
    /// is a small share of it.
    pub burst_passes: usize,
}

impl Workload {
    pub fn lines(&self) -> usize {
        self.programs.iter().map(|p| p.lines).sum()
    }
}

pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let all_passes = Options {
        content: true,
        forall_ext: true,
        ..Options::default()
    };
    Some(match name {
        "paper_default" => Workload {
            name: "paper_default",
            programs: paper_programs(),
            opts: Options::default(),
            emit: false,
            cache: CacheMode::None,
            latency_passes: 10,
            burst_passes: 4,
        },
        "paper_allpasses" => Workload {
            name: "paper_allpasses",
            programs: paper_programs(),
            opts: all_passes,
            emit: true,
            cache: CacheMode::None,
            latency_passes: 10,
            burst_passes: 4,
        },
        "synth_cold" => Workload {
            name: "synth_cold",
            programs: synth_programs(seed),
            opts: Options::default(),
            emit: false,
            cache: CacheMode::Bounded(64),
            latency_passes: 4,
            burst_passes: 1,
        },
        "reuse_warm" => Workload {
            name: "reuse_warm",
            programs: reuse_programs(seed),
            opts: Options::default(),
            emit: false,
            cache: CacheMode::DiskWarm,
            latency_passes: 4,
            burst_passes: 2,
        },
        _ => return None,
    })
}

/// The evaluation programs of the paper reconstruction: the 12 Table
/// 1/2 kernels, the 3 Fig. 1 kernels, and the range and content kernels
/// with their lint demos. The two demos are analyzed but not executed:
/// they read out of bounds and uninitialized storage on purpose.
pub fn paper_programs() -> Vec<Prog> {
    let mut out = Vec::new();
    for (n, k) in benchsuite::kernels().iter().enumerate() {
        let name = format!("k{n:02}_{}", k.loop_label.replace('/', "_"));
        out.push(Prog::new(name, k.source.to_string(), true));
    }
    for (tag, _, _, _, src) in benchsuite::fig1_kernels() {
        out.push(Prog::new(format!("fig{tag}"), src.to_string(), true));
    }
    for k in benchsuite::range_kernels() {
        out.push(Prog::new(
            format!("range_{}", k.tag),
            k.source.to_string(),
            true,
        ));
    }
    out.push(Prog::new(
        "range_rdemo".to_string(),
        benchsuite::range_lint_demo().to_string(),
        false,
    ));
    for k in benchsuite::content_kernels() {
        out.push(Prog::new(
            format!("content_{}", k.tag),
            k.source.to_string(),
            true,
        ));
    }
    out.push(Prog::new(
        "content_cdemo".to_string(),
        benchsuite::content_lint_demo().to_string(),
        false,
    ));
    out
}

/// Routine-pair counts of the `synth_cold` programs (~6k lines).
const SYNTH_PAIRS: [usize; 12] = [4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64];
/// Programs up to this many pairs are also executed.
const SYNTH_EXEC_MAX_PAIRS: usize = 12;
const INNER_SIZES: [usize; 4] = [16, 24, 32, 48];

/// One work-array unit, in the shape of `benchsuite::synthetic_program`:
/// `fill` writes `w(1:m)`, `take` sums it into `r(i)`; with `scan`, a
/// first-order recurrence over `w` runs in between. By construction the
/// `fill` loop is parallel as is, the `take` loop is parallel with `s`
/// as a sum reduction, the `scan` loop is serial (flow dependence at
/// distance 1), and a caller's loop over `i` is parallel once `w` is
/// privatized. The constants make every routine's text — and so its
/// cache key — unique.
fn write_unit(src: &mut String, k: usize, scan: bool, c: [usize; 3]) {
    let _ = write!(
        src,
        "
      SUBROUTINE fill{k}(w, m, i)
      REAL w(*)
      INTEGER m, i, j
      DO j = 1, m
        w(j) = float(i + j + {})
      ENDDO
      END
",
        c[0]
    );
    if scan {
        let _ = write!(
            src,
            "
      SUBROUTINE scan{k}(w, m)
      REAL w(*)
      INTEGER m, j
      DO j = 2, m
        w(j) = w(j - 1) + float({})
      ENDDO
      END
",
            c[1]
        );
    }
    let _ = write!(
        src,
        "
      SUBROUTINE take{k}(r, w, m, i)
      REAL r(*), w(*)
      REAL s
      INTEGER m, i, j
      s = 0.0
      DO j = 1, m
        s = s + w(j)
      ENDDO
      r(i) = s + float({})
      END
",
        c[2]
    );
}

/// The main unit: a 64-trip loop calling the given units in order.
fn write_main(src: &mut String, name: &str, inner: usize, calls: &[(usize, bool)]) {
    let _ = writeln!(src, "      PROGRAM {name}");
    let _ = writeln!(src, "      REAL w(512), r(64)");
    let _ = writeln!(src, "      INTEGER i, m");
    let _ = writeln!(src, "      m = int(float({inner}))");
    let _ = writeln!(src, "      DO i = 1, 64");
    for &(k, scan) in calls {
        let _ = writeln!(src, "        call fill{k}(w, m, i)");
        if scan {
            let _ = writeln!(src, "        call scan{k}(w, m)");
        }
        let _ = writeln!(src, "        call take{k}(r, w, m, i)");
    }
    let _ = writeln!(src, "      ENDDO");
    let _ = writeln!(src, "      END");
}

fn constants(rng: &mut Rng) -> [usize; 3] {
    [rng.range(1, 9999), rng.range(1, 9999), rng.range(1, 9999)]
}

/// The work a seed may not change: the sizes are a fixed multiset that
/// the seed only permutes, and a program's trip count follows from its
/// size. Across seeds a corpus has the same lines, routines and
/// interpreter operations; the seed picks the constants (so the cache
/// keys), which program comes where, and the order of the calls.
fn inner_size(size: usize) -> usize {
    INNER_SIZES[size % INNER_SIZES.len()]
}

/// `synth_cold`: 12 programs of 4-64 fill/take pairs. No two routines
/// of the corpus share a cache key.
pub fn synth_programs(seed: u64) -> Vec<Prog> {
    let mut rng = Rng::stream(seed, "synth_cold");
    let mut sizes = SYNTH_PAIRS;
    rng.shuffle(&mut sizes);
    sizes
        .iter()
        .enumerate()
        .map(|(p, &pairs)| {
            let mut calls: Vec<(usize, bool)> = (0..pairs).map(|k| (k, false)).collect();
            rng.shuffle(&mut calls);
            let mut src = String::new();
            write_main(&mut src, &format!("synth{p:02}"), inner_size(pairs), &calls);
            for k in 0..pairs {
                write_unit(&mut src, k, false, constants(&mut rng));
            }
            Prog::new(format!("synth{p:02}"), src, pairs <= SYNTH_EXEC_MAX_PAIRS)
        })
        .collect()
}

/// Units in the shared library of `reuse_warm`; every third one has a
/// `scan` routine, which gives 24 + 24 + 8 = 56 routines.
const REUSE_UNITS: usize = 24;
/// How many library units each of the 24 programs includes.
const REUSE_SIZES: [usize; 24] = [
    8, 8, 9, 10, 10, 11, 12, 12, 13, 14, 14, 15, 16, 16, 17, 18, 18, 19, 20, 20, 21, 22, 23, 24,
];
/// Programs of up to this many units are also executed (four of them).
const REUSE_EXEC_MAX_UNITS: usize = 10;

/// `reuse_warm`: 24 programs over one library. A cache key covers the
/// routine's source lines, so a routine is shared only where it sits at
/// the same lines: every program starts with a prefix of the same
/// library text, followed by its own main unit that calls the included
/// units in a seeded order.
pub fn reuse_programs(seed: u64) -> Vec<Prog> {
    let mut rng = Rng::stream(seed, "reuse_warm");
    let mut prefixes: Vec<String> = Vec::with_capacity(REUSE_UNITS + 1);
    let mut library = String::new();
    prefixes.push(library.clone());
    for k in 0..REUSE_UNITS {
        write_unit(&mut library, k, k % 3 == 2, constants(&mut rng));
        prefixes.push(library.clone());
    }
    let mut sizes = REUSE_SIZES;
    rng.shuffle(&mut sizes);
    sizes
        .iter()
        .enumerate()
        .map(|(p, &units)| {
            let mut calls: Vec<(usize, bool)> = (0..units).map(|k| (k, k % 3 == 2)).collect();
            rng.shuffle(&mut calls);
            let mut src = prefixes[units].clone();
            src.push('\n');
            write_main(&mut src, &format!("reuse{p:02}"), inner_size(units), &calls);
            Prog::new(format!("reuse{p:02}"), src, units <= REUSE_EXEC_MAX_UNITS)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::corpus_digest;

    fn digest(w: &Workload) -> String {
        corpus_digest(
            w.programs
                .iter()
                .map(|p| (p.name.as_str(), p.source.as_str())),
        )
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for name in [
            "paper_default",
            "paper_allpasses",
            "synth_cold",
            "reuse_warm",
        ] {
            let a = build(name, 11).unwrap();
            let b = build(name, 11).unwrap();
            assert_eq!(digest(&a), digest(&b), "{name}");
            println!("{name} seed 11 digest {}", digest(&a));
        }
    }

    #[test]
    fn another_seed_gives_other_generated_inputs() {
        for name in ["synth_cold", "reuse_warm"] {
            let a = build(name, 11).unwrap();
            let b = build(name, 12).unwrap();
            assert_ne!(digest(&a), digest(&b), "{name}");
            assert_eq!(a.programs.len(), b.programs.len());
        }
        // The paper corpus is fixed; the seed only orders its requests.
        assert_eq!(
            digest(&build("paper_default", 11).unwrap()),
            digest(&build("paper_default", 12).unwrap())
        );
    }

    /// The seed changes which programs there are, not how much work.
    #[test]
    fn every_seed_gives_the_same_amount_of_work() {
        for name in ["synth_cold", "reuse_warm"] {
            let shape = |seed| {
                let w = build(name, seed).unwrap();
                let mut sizes: Vec<(usize, bool)> =
                    w.programs.iter().map(|p| (p.lines, p.executable)).collect();
                sizes.sort_unstable();
                sizes
            };
            assert_eq!(shape(1), shape(2), "{name}");
            assert_eq!(shape(1), shape(977), "{name}");
        }
    }

    #[test]
    fn corpus_shapes() {
        let paper = build("paper_default", 1).unwrap();
        assert_eq!(paper.programs.len(), 22);
        assert_eq!(paper.programs.iter().filter(|p| p.executable).count(), 20);
        let synth = build("synth_cold", 1).unwrap();
        assert_eq!(synth.programs.len(), 12);
        assert!((5_000..7_000).contains(&synth.lines()), "{}", synth.lines());
        let reuse = build("reuse_warm", 1).unwrap();
        assert_eq!(reuse.programs.len(), 24);
        assert!(build("nope", 1).is_none());
    }

    #[test]
    fn generated_programs_parse_and_check() {
        for name in ["synth_cold", "reuse_warm"] {
            for p in build(name, 5).unwrap().programs {
                let program =
                    fortran::parse_program(&p.source).unwrap_or_else(|e| panic!("{}: {e}", p.name));
                fortran::analyze(&program).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            }
        }
    }

    /// The library routines of `reuse_warm` hash to the same cache key
    /// in every program that includes them; `synth_cold` shares nothing.
    #[test]
    fn reuse_shares_keys_and_synth_does_not() {
        use std::collections::BTreeSet;
        let keys = |w: &Workload| -> (usize, BTreeSet<u128>) {
            let mut total = 0;
            let mut distinct = BTreeSet::new();
            for p in &w.programs {
                let program = fortran::parse_program(&p.source).unwrap();
                let sema = fortran::analyze(&program).unwrap();
                for k in dataflow::cache::routine_keys(&program, &sema, &w.opts).values() {
                    total += 1;
                    distinct.insert(k.0);
                }
            }
            (total, distinct)
        };
        let (total, distinct) = keys(&build("synth_cold", 3).unwrap());
        assert_eq!(total, distinct.len());
        let (total, distinct) = keys(&build("reuse_warm", 3).unwrap());
        assert_eq!(distinct.len(), 56 + REUSE_SIZES.len());
        assert!(
            total > 10 * distinct.len() / 2,
            "{total} lookups, {} keys",
            distinct.len()
        );
    }
}
