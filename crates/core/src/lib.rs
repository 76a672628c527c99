//! Panorama — the end-to-end analyzer.
//!
//! This crate is the reconstruction of the paper's prototyping analyzer:
//! it drives the whole pipeline — parse → semantic analysis → HSG →
//! conventional dependence pre-filter → symbolic array dataflow analysis →
//! privatization/parallelization verdicts — behind one function,
//! [`analyze_source`].
//!
//! ```
//! use panorama::{analyze_source, Options};
//!
//! let src = "
//!       PROGRAM demo
//!       REAL w(10), a(100)
//!       INTEGER i, k
//!       DO i = 1, 100
//!         DO k = 1, 10
//!           w(k) = i * 1.0
//!         ENDDO
//!         a(i) = w(5)
//!       ENDDO
//!       END
//! ";
//! let analysis = analyze_source(src, Options::default()).unwrap();
//! let v = analysis.verdict("demo", "i").unwrap();
//! assert!(v.parallel_after_privatization);
//! assert_eq!(v.privatized, vec!["w".to_string()]);
//! ```
//!
//! The technique toggles of [`Options`] (`symbolic` = T1, `if_conditions`
//! = T2, `interprocedural` = T3) reproduce Table 1's ablation; the
//! `forall_ext` flag enables the §5.2/§5.3 future-work extension that
//! handles Fig. 1(a).

#![warn(missing_docs)]

pub mod driver;
pub mod precision;

pub use precision::PrecisionReport;

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use alias::{Lint, LintCode};
pub use dataflow::{
    AnalysisStats, CacheCounters, CacheKey, CachedRoutine, DegradeReason, DiskCache,
    DiskTierSnapshot, FuelLimits, LoopAnalysis, MemoryCache, Options, RoutineAnalysis, Summary,
    SummaryCache, TieredCache,
};
pub use fortran::{Program, ProgramSema};
pub use privatize::{ArrayVerdict, Blocker, Diagnostic, LoopVerdict, ProvEntry};
pub use raceoracle::{LoopComparison, OracleReport, Outcome};

/// Any front-to-back analysis failure.
#[derive(Debug)]
pub enum PanoramaError {
    /// Lexing/parsing failed.
    Parse(fortran::ParseError),
    /// Semantic analysis failed.
    Sema(fortran::SemaError),
    /// HSG construction failed.
    Hsg(hsg::HsgError),
}

impl fmt::Display for PanoramaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PanoramaError::Parse(e) => write!(f, "parse: {e}"),
            PanoramaError::Sema(e) => write!(f, "semantic: {e}"),
            PanoramaError::Hsg(e) => write!(f, "hsg: {e}"),
        }
    }
}

impl std::error::Error for PanoramaError {}

/// Timing and size statistics of one analysis run — the data behind the
/// paper's Fig. 4 practicality comparison.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimes {
    /// Lexing + parsing.
    pub parse: Duration,
    /// Symbol tables + call graph.
    pub sema: Duration,
    /// HSG construction.
    pub hsg: Duration,
    /// Conventional dependence pre-filter.
    pub conventional: Duration,
    /// Array dataflow analysis + verdicts.
    pub dataflow: Duration,
}

impl PhaseTimes {
    /// Everything.
    pub fn total(&self) -> Duration {
        self.parse + self.sema + self.hsg + self.conventional + self.dataflow
    }
}

/// The complete result of analyzing one source file.
pub struct Analysis {
    /// Parsed program.
    pub program: Program,
    /// Semantic info.
    pub sema: ProgramSema,
    /// The hierarchical supergraph.
    pub hsg: hsg::Hsg,
    /// Per-routine summaries.
    pub routines: Vec<RoutineAnalysis>,
    /// Per-loop dependence sets.
    pub loops: Vec<LoopAnalysis>,
    /// Per-loop verdicts.
    pub verdicts: Vec<LoopVerdict>,
    /// Loops the conventional pre-filter already proved parallel.
    pub conventional_parallel: Vec<String>,
    /// Engine statistics.
    pub stats: AnalysisStats,
    /// Phase timings.
    pub times: PhaseTimes,
    /// Backward-propagation trace (with `Options::trace`).
    pub trace: Vec<String>,
    /// `panolint` diagnostics: every conservative assumption the
    /// analysis made, as stable machine-readable codes (DESIGN.md §4e).
    /// Computed by a standalone static pass — deterministic across job
    /// counts and cache state.
    pub lints: Vec<Lint>,
    /// Why the run degraded, when a resource budget (fuel, state cap or
    /// deadline) forced widening. `None` = full precision.
    pub degrade_reason: Option<DegradeReason>,
}

impl Analysis {
    /// The verdict of the outermost loop with this index variable in the
    /// routine.
    pub fn verdict(&self, routine: &str, var: &str) -> Option<&LoopVerdict> {
        self.verdicts
            .iter()
            .filter(|v| v.routine == routine && v.var == var)
            .min_by_key(|v| v.depth)
    }

    /// The loop analysis matching a verdict.
    pub fn loop_analysis(&self, routine: &str, var: &str) -> Option<&LoopAnalysis> {
        self.loops
            .iter()
            .filter(|l| l.routine == routine && l.var == var)
            .min_by_key(|l| l.depth)
    }

    /// A memory-footprint proxy: total GAR pieces retained across
    /// summaries plus peak transient state (Fig. 4's memory bars).
    pub fn memory_proxy(&self) -> usize {
        self.stats.total_summary_size + self.stats.peak_state_size
    }

    /// Whether any verdict was widened by a resource budget. Degraded
    /// results are sound over-approximations: verdicts can only have
    /// moved in the conservative direction (parallel → serial).
    pub fn degraded(&self) -> bool {
        self.degrade_reason.is_some()
    }

    /// Runs the dynamic race oracle (see the `raceoracle` crate) over
    /// every loop verdict: the program executes sequentially under
    /// shadow-memory tracing, observed loop-carried conflicts are
    /// compared against the static claims, and witness diagnostics are
    /// attached to the negative verdicts the oracle confirmed.
    pub fn run_oracle(&mut self) -> OracleReport {
        let report = raceoracle::validate(&self.program, &self.sema, &self.verdicts);
        raceoracle::attach_diagnostics(&mut self.verdicts, &report);
        report
    }
}

/// Builds the machine-readable analysis report (the CLI's `--json`
/// output). The schema is documented in DESIGN.md ("JSON report schema")
/// and versioned via `schema_version`; pass the oracle report to include
/// the dynamic validation under the `"oracle"` key.
pub fn json_report(analysis: &Analysis, oracle: Option<&OracleReport>) -> serde::Value {
    use serde::{Serialize, Value};
    let stats = &analysis.stats;
    Value::Object(vec![
        ("schema_version".to_string(), Value::UInt(1)),
        ("verdicts".to_string(), analysis.verdicts.to_json_value()),
        (
            "conventional_parallel".to_string(),
            analysis.conventional_parallel.to_json_value(),
        ),
        ("degraded".to_string(), analysis.degraded().to_json_value()),
        (
            "degrade_reason".to_string(),
            analysis
                .degrade_reason
                .map_or(Value::Null, |r| Value::Str(r.as_str().to_string())),
        ),
        (
            "stats".to_string(),
            Value::Object(vec![
                (
                    "nodes_processed".to_string(),
                    stats.nodes_processed.to_json_value(),
                ),
                (
                    "loops_analyzed".to_string(),
                    stats.loops_analyzed.to_json_value(),
                ),
                (
                    "routines_analyzed".to_string(),
                    stats.routines_analyzed.to_json_value(),
                ),
                (
                    "peak_state_size".to_string(),
                    stats.peak_state_size.to_json_value(),
                ),
                (
                    "total_summary_size".to_string(),
                    stats.total_summary_size.to_json_value(),
                ),
            ]),
        ),
        (
            "lints".to_string(),
            Value::Array(
                analysis
                    .lints
                    .iter()
                    .map(|l| {
                        Value::Object(vec![
                            ("code".to_string(), Value::Str(l.code.code().to_string())),
                            ("slug".to_string(), Value::Str(l.code.slug().to_string())),
                            ("routine".to_string(), Value::Str(l.routine.clone())),
                            ("line".to_string(), Value::UInt(u64::from(l.line))),
                            ("message".to_string(), Value::Str(l.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "oracle".to_string(),
            oracle.map_or(Value::Null, |r| r.to_json_value()),
        ),
    ])
}

/// Runs the full pipeline on a source string.
pub fn analyze_source(src: &str, opts: Options) -> Result<Analysis, PanoramaError> {
    analyze_source_with_cache(src, opts, None)
}

/// [`analyze_source`] with an optional cross-run summary cache: routine
/// summaries whose content key (routine text + options + transitive
/// callees, see `dataflow::cache`) hits the cache are replayed instead of
/// recomputed. Reports are byte-identical either way.
pub fn analyze_source_with_cache(
    src: &str,
    opts: Options,
    cache: Option<Arc<dyn SummaryCache>>,
) -> Result<Analysis, PanoramaError> {
    analyze_source_limited(src, opts, cache, FuelLimits::unlimited())
}

/// [`analyze_source_with_cache`] under resource budgets: when a budget
/// runs out mid-analysis the affected summaries are *widened* to sound
/// over-approximations instead of diverging, and the result is marked
/// [`Analysis::degraded`]. Result-constraining limits bypass the summary
/// cache (see `dataflow::Analyzer::with_limits`); degraded results are
/// never cached.
pub fn analyze_source_limited(
    src: &str,
    opts: Options,
    cache: Option<Arc<dyn SummaryCache>>,
    limits: FuelLimits,
) -> Result<Analysis, PanoramaError> {
    let t0 = Instant::now();
    let program = {
        let _span = trace::span("parse");
        fortran::parse_program(src).map_err(PanoramaError::Parse)?
    };
    let t_parse = t0.elapsed();

    let t1 = Instant::now();
    let sema = {
        let _span = trace::span("sema");
        fortran::analyze(&program).map_err(PanoramaError::Sema)?
    };
    let t_sema = t1.elapsed();

    let t2 = Instant::now();
    let graph = {
        let _span = trace::span("hsg");
        hsg::build_hsg(&program).map_err(PanoramaError::Hsg)?
    };
    let t_hsg = t2.elapsed();

    // Conventional pre-filter, as Panorama applies it (§6): loops it
    // proves parallel don't strictly need the dataflow analysis.
    let t3 = Instant::now();
    let mut conventional_parallel = Vec::new();
    {
        let _span = trace::span("conventional");
        for r in &program.routines {
            let table = &sema.tables[&r.name];
            visit_loops(&r.body, &mut |stmt| {
                if deptest::conventional_loop_test(stmt, table) == deptest::ConvVerdict::Parallel {
                    if let fortran::StmtKind::Do { var, .. } = &stmt.kind {
                        conventional_parallel.push(format!("{}/{}", r.name, var));
                    }
                }
            });
        }
    }
    let t_conv = t3.elapsed();

    let t4 = Instant::now();
    let mut az = dataflow::Analyzer::with_limits(&program, &sema, &graph, opts, cache, limits);
    let routines = {
        let _span = trace::span("dataflow");
        az.run()
    };
    let verdicts = {
        let _span = trace::span("privatize");
        privatize::judge_all(&az.loops)
    };
    let t_df = t4.elapsed();

    let degrade_reason = az.degradation();
    let (loops, stats, trace) = az.finish();
    let lints = {
        let _span = trace::span("lint");
        alias::lint_program(
            &program,
            &sema,
            opts.interprocedural,
            opts.value_range,
            opts.content,
        )
    };
    Ok(Analysis {
        program,
        sema,
        hsg: graph,
        routines,
        loops,
        verdicts,
        conventional_parallel,
        stats,
        times: PhaseTimes {
            parse: t_parse,
            sema: t_sema,
            hsg: t_hsg,
            conventional: t_conv,
            dataflow: t_df,
        },
        trace,
        lints,
        degrade_reason,
    })
}

fn visit_loops<'a>(body: &'a [fortran::Stmt], f: &mut impl FnMut(&'a fortran::Stmt)) {
    for s in body {
        match &s.kind {
            fortran::StmtKind::Do { body: inner, .. } => {
                f(s);
                visit_loops(inner, f);
            }
            fortran::StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                visit_loops(then_body, f);
                visit_loops(else_body, f);
            }
            fortran::StmtKind::LogicalIf(_, inner) => visit_loops(std::slice::from_ref(inner), f),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_smoke() {
        let a = analyze_source(
            "
      PROGRAM t
      REAL a(10)
      INTEGER i
      DO i = 1, 10
        a(i) = 1.0
      ENDDO
      END
",
            Options::default(),
        )
        .unwrap();
        assert_eq!(a.verdicts.len(), 1);
        assert!(a.verdict("t", "i").unwrap().parallel_as_is);
        assert!(a.conventional_parallel.contains(&"t/i".to_string()));
        assert!(a.times.total() > Duration::ZERO);
        assert!(a.memory_proxy() > 0);
    }

    #[test]
    fn errors_propagate() {
        assert!(matches!(
            analyze_source("garbage $$$", Options::default()),
            Err(PanoramaError::Parse(_))
        ));
        assert!(matches!(
            analyze_source(
                "      PROGRAM t\n      call nope()\n      END\n",
                Options::default()
            ),
            Err(PanoramaError::Sema(_))
        ));
    }

    #[test]
    fn trace_mode_produces_lines() {
        let a = analyze_source(
            "
      PROGRAM t
      REAL a(10)
      INTEGER i
      DO i = 1, 10
        a(i) = a(i) + 1.0
      ENDDO
      END
",
            Options {
                trace: true,
                ..Options::default()
            },
        )
        .unwrap();
        assert!(!a.trace.is_empty());
    }
}
