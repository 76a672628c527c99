//! The paper's worked derivations, checked in as goldens.
//!
//! * `tests/golden/fig5_derivation.txt` — Figure 5: the backward
//!   propagation over the Fig. 1(b) kernel's HSG, with the per-node
//!   `ue_in`/`mod_in` sets, the loop-level `UE_i`, `MOD_i` and `MOD_<i`,
//!   their intersection and the privatizability verdict.
//!
//! Regenerate after an intentional change with
//! `UPDATE_GOLDEN=1 cargo test -p panorama --test paper_goldens`.

use panorama::{analyze_source, Options};
use std::fmt::Write as _;

const FIG5_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/fig5_derivation.txt"
);

/// The Figure 5 derivation for the Fig. 1(b) kernel, as text.
fn fig5_derivation() -> String {
    let (_, routine, var, array, src) = benchsuite::fig1_kernels()
        .into_iter()
        .find(|(tag, ..)| *tag == "1b")
        .expect("Fig. 1(b) kernel");
    let a = analyze_source(
        src,
        Options {
            trace: true,
            ..Options::default()
        },
    )
    .expect("analysis");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Figure 5: backward propagation over the Fig. 1(b) HSG ===\n"
    );
    let _ = writeln!(out, "{}", a.hsg.dump_routine(routine));
    let _ = writeln!(out, "--- per-node sets (backward order) ---");
    for line in a.trace.iter().filter(|l| l.starts_with(routine)) {
        let _ = writeln!(out, "  {line}");
    }

    let la = a.loop_analysis(routine, var).expect("outer loop");
    let sets = &la.arrays[array];
    let inter = sets.ue_i.intersect(&sets.mod_lt);
    let v = a.verdict(routine, var).expect("outer loop verdict");
    let av = v
        .arrays
        .iter()
        .find(|x| x.array == array)
        .expect("array verdict");

    let _ = writeln!(
        out,
        "\n--- A. UE_i and MOD_i of the outer loop (iteration i) ---"
    );
    let _ = writeln!(out, "  ue_i({array})   = {}", sets.ue_i);
    let _ = writeln!(out, "  mod_i({array})  = {}", sets.mod_i);
    let _ = writeln!(out, "\n--- B. Is array {array} privatizable? ---");
    let _ = writeln!(out, "  mod_<i({array}) = {}", sets.mod_lt);
    let _ = writeln!(out, "  ue_i ∩ mod_<i  = {inter}");
    let _ = writeln!(
        out,
        "  => {} ({})",
        if inter.definitely_empty() {
            "EMPTY — A is privatizable"
        } else {
            "NOT empty"
        },
        if av.privatizable {
            "verdict: privatizable"
        } else {
            "verdict: not privatizable"
        }
    );
    out
}

#[test]
fn fig5_derivation_matches_golden() {
    let got = fig5_derivation();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(FIG5_GOLDEN, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(FIG5_GOLDEN)
        .unwrap_or_else(|e| panic!("missing golden file {FIG5_GOLDEN}: {e}"));
    assert_eq!(
        got, want,
        "Fig. 5 derivation drifted from tests/golden/fig5_derivation.txt; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}
