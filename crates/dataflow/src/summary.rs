//! Summary data structures and analysis options.

use gar::{Gar, GarList};
use std::collections::{BTreeMap, BTreeSet};

/// Technique toggles, matching Table 1's columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Options {
    /// T1 — symbolic analysis: allow symbolic (non-constant) expressions in
    /// regions and bounds. When off, only integer constants and in-scope
    /// loop indices are representable.
    pub symbolic: bool,
    /// T2 — IF-condition analysis: attach branch conditions as guards.
    /// When off, IF statements merge conservatively (may = union,
    /// must = intersection), as in pre-GAR region analyses.
    pub if_conditions: bool,
    /// T3 — interprocedural analysis: summarize and map callees. When off,
    /// a CALL conservatively clobbers every array it can reach.
    pub interprocedural: bool,
    /// The ∀-extension (§5.2 future work): conditional-counter recognition
    /// and universally quantified condition facts (Fig. 1(a)).
    pub forall_ext: bool,
    /// Value-range analysis (DESIGN.md §4g): propagate scalar
    /// interval/congruence facts and let them refute Δ-unknown guards
    /// through the `sym::bounds` oracle.
    pub value_range: bool,
    /// Array-content analysis (DESIGN.md §4i): per-iteration coverage
    /// facts refute UE₍i₎ entries the backward pass over-approximates
    /// and prove full definition for FIRSTPRIVATE→PRIVATE demotion.
    /// Off by default so verdicts stay byte-identical without the flag.
    pub content: bool,
    /// Record a per-node trace of the backward propagation (Fig. 5).
    pub trace: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            symbolic: true,
            if_conditions: true,
            interprocedural: true,
            forall_ext: false,
            value_range: true,
            content: false,
            trace: false,
        }
    }
}

impl Options {
    /// Everything on (including the ∀-extension).
    pub fn full() -> Options {
        Options {
            forall_ext: true,
            ..Options::default()
        }
    }
}

/// The MOD/UE summary of a program segment, for all arrays at once plus
/// scalar side information.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Array name → MOD set.
    pub mods: BTreeMap<String, GarList>,
    /// Array name → upwards-exposed use set.
    pub ues: BTreeMap<String, GarList>,
    /// Array name → downwards-exposed use set (uses not overwritten later
    /// within the segment; §3.2.2 uses `DE_i` for the refined
    /// anti-dependence test).
    pub des: BTreeMap<String, GarList>,
    /// Scalars possibly written by the segment.
    pub scalar_may_mod: BTreeSet<String>,
    /// Scalars certainly written on every path through the segment.
    pub scalar_must_mod: BTreeSet<String>,
    /// Scalars read before any write on some path (upwards exposed).
    pub scalar_ue: BTreeSet<String>,
    /// Proved `(lo, hi)` bounds on the exit value of may-modified
    /// scalar formals and COMMON scalars — the interprocedural slice of
    /// the value-range pass, cached alongside the rest of `SUM_call`.
    pub scalar_exit_range: BTreeMap<String, (Option<i64>, Option<i64>)>,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Summary {
        Summary::default()
    }

    /// The MOD set of an array (empty if untouched).
    pub fn mod_of(&self, array: &str) -> GarList {
        self.mods.get(array).cloned().unwrap_or_default()
    }

    /// The UE set of an array (empty if untouched).
    pub fn ue_of(&self, array: &str) -> GarList {
        self.ues.get(array).cloned().unwrap_or_default()
    }

    /// The DE set of an array (empty if untouched).
    pub fn de_of(&self, array: &str) -> GarList {
        self.des.get(array).cloned().unwrap_or_default()
    }

    /// All arrays mentioned by any set.
    pub fn arrays(&self) -> BTreeSet<String> {
        self.mods
            .keys()
            .chain(self.ues.keys())
            .chain(self.des.keys())
            .cloned()
            .collect()
    }

    /// Unions another array's GARs into the MOD map.
    pub fn add_mod(&mut self, array: &str, list: GarList) {
        if list.is_empty() {
            return;
        }
        let entry = self.mods.entry(array.to_string()).or_default();
        *entry = entry.union(&list);
    }

    /// Unions into the UE map.
    pub fn add_ue(&mut self, array: &str, list: GarList) {
        if list.is_empty() {
            return;
        }
        let entry = self.ues.entry(array.to_string()).or_default();
        *entry = entry.union(&list);
    }

    /// Unions into the DE map.
    pub fn add_de(&mut self, array: &str, list: GarList) {
        if list.is_empty() {
            return;
        }
        let entry = self.des.entry(array.to_string()).or_default();
        *entry = entry.union(&list);
    }

    /// A size measure (total GAR pieces) used for the paper's memory
    /// statistics (Fig. 4).
    pub fn size(&self) -> usize {
        self.mods.values().map(GarList::size).sum::<usize>()
            + self.ues.values().map(GarList::size).sum::<usize>()
    }
}

/// The per-iteration and cross-iteration sets the privatization and
/// parallelization tests need for one array in one loop (§3.2).
#[derive(Clone, Debug, Default)]
pub struct ArraySets {
    /// `MOD_i` — written in an arbitrary iteration `i`.
    pub mod_i: GarList,
    /// `UE_i` — upwards exposed in iteration `i`.
    pub ue_i: GarList,
    /// `DE_i` — downwards exposed in iteration `i` (for the refined
    /// anti-dependence test of §3.2.2).
    pub de_i: GarList,
    /// `MOD_<i` — written in iterations before `i`.
    pub mod_lt: GarList,
    /// `MOD_>i` — written in iterations after `i`.
    pub mod_gt: GarList,
}

impl ArraySets {
    /// The fully widened sets for a fuel-exhausted loop: every set is a
    /// single unknown over-approximate GAR of the array's rank. All
    /// dependence tests on these sets fail to prove disjointness, so
    /// the verdicts fall out serial / not privatizable.
    pub fn unknown(rank: usize) -> ArraySets {
        let u = || GarList::single(Gar::unknown(rank));
        ArraySets {
            mod_i: u(),
            ue_i: u(),
            de_i: u(),
            mod_lt: u(),
            mod_gt: u(),
        }
    }
}
