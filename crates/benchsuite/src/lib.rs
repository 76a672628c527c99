//! The evaluation workloads: reconstructions of the twelve Perfect-
//! benchmark loops of Tables 1–2 plus the three Fig. 1 kernels.
//!
//! The Perfect Club sources are not redistributable; each kernel here is
//! rebuilt from the paper's own simplified excerpts (Fig. 1) and the
//! published descriptions of the loops, preserving the *access and guard
//! structure* that determines the analysis outcome (see DESIGN.md §3).
//! Every kernel is a complete, runnable program: scalars are initialized
//! to concrete workload sizes so the interpreter can execute it, and each
//! privatization target feeds a shared result array so parallel execution
//! has observable output.

#![warn(missing_docs)]

mod kernels;

pub use kernels::{
    content_kernels, content_lint_demo, fig1_kernels, kernels, range_kernels, range_lint_demo,
    synthetic_program, ContentKernel, Kernel, RangeKernel,
};

/// The 22 evaluation programs as `(name, source)`, in corpus order: the
/// 12 Table 1/2 kernels, the 3 Fig. 1 kernels, the range kernels and
/// their lint demo, the content kernels and their lint demo. The names
/// are the benchmark corpus's.
pub fn paper_programs() -> Vec<(String, &'static str)> {
    let mut progs = Vec::new();
    for (n, k) in kernels().iter().enumerate() {
        progs.push((
            format!("k{n:02}_{}", k.loop_label.replace('/', "_")),
            k.source,
        ));
    }
    for (tag, _, _, _, src) in fig1_kernels() {
        progs.push((format!("fig{tag}"), src));
    }
    for k in range_kernels() {
        progs.push((format!("range_{}", k.tag), k.source));
    }
    progs.push(("range_rdemo".to_string(), range_lint_demo()));
    for k in content_kernels() {
        progs.push((format!("content_{}", k.tag), k.source));
    }
    progs.push(("content_cdemo".to_string(), content_lint_demo()));
    progs
}

/// Which techniques a loop needs, per Table 1 (`T1` symbolic, `T2` IF
/// conditions, `T3` interprocedural).
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct Needs {
    /// T1 — symbolic analysis.
    pub t1: bool,
    /// T2 — IF-condition analysis.
    pub t2: bool,
    /// T3 — interprocedural analysis.
    pub t3: bool,
}

impl Needs {
    /// Shorthand.
    pub const fn new(t1: bool, t2: bool, t3: bool) -> Needs {
        Needs { t1, t2, t3 }
    }
}
