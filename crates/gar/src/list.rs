//! Lists of GARs (unions) and the GAR simplifier.

use crate::gars::{Approx, Gar};
use pred::Pred;
use region::{region_covers, region_intersect, region_subtract, region_union_merge};
use serde::{Deserialize, Serialize};
use std::fmt;
use sym::Expr;

/// Cap on list length; beyond it the tail collapses into a single unknown
/// (Over) GAR — the paper's "mark as unknown" escape hatch at list level.
const LIST_CAP: usize = 48;

/// A union of GARs for one array. The paper's `UE`, `MOD`, `MOD_<i`, … sets
/// are values of this type.
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct GarList {
    gars: Vec<Gar>,
}

impl GarList {
    /// The empty set ∅.
    pub fn empty() -> GarList {
        GarList::default()
    }

    /// A single-GAR list.
    pub fn single(gar: Gar) -> GarList {
        GarList { gars: vec![gar] }.simplified()
    }

    /// Builds from pieces, simplifying.
    pub fn from_gars(gars: impl IntoIterator<Item = Gar>) -> GarList {
        GarList {
            gars: gars.into_iter().collect(),
        }
        .simplified()
    }

    /// Rebuilds a list from GARs that already went through
    /// [`GarList::simplified`] (as returned by [`GarList::gars`]),
    /// skipping re-simplification. Used by persistence layers that must
    /// reproduce a previously observed value byte-for-byte — running
    /// the simplifier again is not guaranteed to be a fixed point for
    /// every input, and the cache contract is exact replay.
    pub fn from_simplified(gars: Vec<Gar>) -> GarList {
        GarList { gars }
    }

    /// The pieces.
    pub fn gars(&self) -> &[Gar] {
        &self.gars
    }

    /// Iterates over pieces sound for *may* queries (dependence tests).
    pub fn may_view(&self) -> impl Iterator<Item = &Gar> {
        self.gars.iter().filter(|g| g.usable_as_may())
    }

    /// Iterates over pieces sound for *must* queries (kills).
    pub fn must_view(&self) -> impl Iterator<Item = &Gar> {
        self.gars.iter().filter(|g| g.usable_as_must())
    }

    /// `true` iff the set is provably empty.
    pub fn definitely_empty(&self) -> bool {
        self.gars.is_empty()
    }

    /// `true` iff every piece is exact — the set is known precisely.
    pub fn is_exact(&self) -> bool {
        self.gars.iter().all(Gar::is_exact)
    }

    /// Number of pieces.
    pub fn len(&self) -> usize {
        self.gars.len()
    }

    /// `true` iff no pieces.
    pub fn is_empty(&self) -> bool {
        self.gars.is_empty()
    }

    /// Union with another list.
    pub fn union(&self, other: &GarList) -> GarList {
        GarList {
            gars: self.gars.iter().chain(other.gars.iter()).cloned().collect(),
        }
        .simplified()
    }

    /// Union with a single GAR.
    pub fn union_gar(&self, gar: Gar) -> GarList {
        let mut gars = self.gars.clone();
        gars.push(gar);
        GarList { gars }.simplified()
    }

    /// Intersection (may semantics): `T1 ∩ T2 = [[P1 ∧ P2, R1 ∩ R2]]`
    /// pairwise over may-usable pieces. The primary client is dependence
    /// detection, where an empty result proves independence.
    pub fn intersect(&self, other: &GarList) -> GarList {
        let mut out = Vec::new();
        for g1 in self.may_view() {
            for g2 in other.may_view() {
                let both = g1.guard.and(&g2.guard);
                if both.is_false() {
                    continue;
                }
                if g1.rank() != g2.rank() {
                    // Mismatched views of the same array (e.g. reshaped via
                    // parameter passing): conservatively unknown overlap.
                    out.push(Gar::with_approx(
                        both,
                        region::Region::unknown(g1.rank()),
                        Approx::Over,
                    ));
                    continue;
                }
                let approx = if g1.is_exact() && g2.is_exact() {
                    Approx::Exact
                } else {
                    Approx::Over
                };
                for (p, r) in region_intersect(&both, &g1.region, &g2.region) {
                    out.push(Gar::with_approx(both.and(&p), r, approx));
                }
            }
        }
        GarList { gars: out }.simplified()
    }

    /// Difference: `T1 − T2 = [[P1 ∧ P2, R1 − R2]] ∪ [P1 ∧ ¬P2, R1]` (§3.1),
    /// applied for every piece of `T2` in turn. Only must-usable pieces of
    /// `T2` kill; skipped pieces demote the surviving results to `Over`
    /// (the sound direction for upward-exposed sets).
    pub fn subtract(&self, other: &GarList) -> GarList {
        let mut pieces: Vec<Gar> = self.gars.clone();
        let any_skipped = other.gars.iter().any(|g| !g.usable_as_must());
        for g2 in other.must_view() {
            let mut next = Vec::with_capacity(pieces.len());
            for g1 in &pieces {
                next.extend(subtract_gar(g1, g2));
                if next.len() > 4 * LIST_CAP {
                    // Blow-up: stop killing, keep the rest over-approximate.
                    next.extend(pieces.iter().map(|g| demote(g.clone())));
                    return GarList { gars: next }.simplified();
                }
            }
            pieces = next;
        }
        if any_skipped {
            pieces = pieces.into_iter().map(demote).collect();
        }
        GarList { gars: pieces }.simplified()
    }

    /// Attaches an IF condition to every piece.
    pub fn guarded_by(&self, p: &Pred) -> GarList {
        if p.is_true() {
            return self.clone();
        }
        GarList {
            gars: self.gars.iter().map(|g| g.guarded_by(p)).collect(),
        }
        .simplified()
    }

    /// Substitutes a scalar in every piece (the on-the-fly substitution of
    /// §4.1).
    pub fn subst_var(&self, name: &str, value: &Expr) -> GarList {
        GarList {
            gars: self.gars.iter().map(|g| g.subst_var(name, value)).collect(),
        }
        .simplified()
    }

    /// Forgets a scalar whose defining value is unanalyzable.
    pub fn forget_var(&self, name: &str) -> GarList {
        GarList {
            gars: self.gars.iter().map(|g| g.forget_var(name)).collect(),
        }
        .simplified()
    }

    /// Does any piece mention the scalar?
    pub fn contains_var(&self, name: &str) -> bool {
        self.gars.iter().any(|g| g.contains_var(name))
    }

    /// Collects every scalar name mentioned by any piece.
    pub fn collect_vars(&self, out: &mut std::collections::BTreeSet<sym::Name>) {
        for g in &self.gars {
            g.collect_vars(out);
        }
    }

    /// Demotes every piece to `Over` (used when control flow forces a
    /// conservative merge, e.g. condensed goto-cycles).
    pub fn mark_over(&self) -> GarList {
        GarList {
            gars: self.gars.iter().cloned().map(demote).collect(),
        }
    }

    /// Total size of all pieces (stats / memory proxy).
    pub fn size(&self) -> usize {
        self.gars.iter().map(Gar::size).sum()
    }

    /// The GAR simplifier (§5.2): removes empty and redundant pieces,
    /// merges pieces, caps blow-up.
    pub fn simplified(mut self) -> GarList {
        self.gars.retain(|g| !g.definitely_empty());
        // Bounded pairwise merge rounds.
        for _ in 0..3 {
            let mut changed = false;
            let mut i = 0;
            while i < self.gars.len() {
                let mut j = i + 1;
                while j < self.gars.len() {
                    if let Some(repl) = try_merge(&self.gars[i], &self.gars[j]) {
                        self.gars.remove(j);
                        self.gars.remove(i);
                        let at = i;
                        for (k, g) in repl.into_iter().enumerate() {
                            self.gars.insert(at + k, g);
                        }
                        changed = true;
                        // restart inner scan for the new piece(s) at i
                        j = i + 1;
                    } else {
                        j += 1;
                    }
                }
                i += 1;
            }
            if !changed {
                break;
            }
        }
        if self.gars.len() > LIST_CAP {
            let rank = self.gars[0].rank();
            self.gars.truncate(LIST_CAP - 1);
            self.gars.push(Gar::unknown(rank));
        }
        self
    }
}

fn demote(g: Gar) -> Gar {
    match g.approx {
        Approx::Exact => Gar::with_approx(g.guard, g.region, Approx::Over),
        // An Under piece that may miss kills is still a sound Under piece.
        _ => g,
    }
}

/// `g1 − g2` as pieces. `g2` must be must-usable (checked by the caller).
fn subtract_gar(g1: &Gar, g2: &Gar) -> Vec<Gar> {
    if g2.definitely_empty() {
        return vec![g1.clone()];
    }
    let both = g1.guard.and(&g2.guard);
    if both.is_false() {
        return vec![g1.clone()];
    }
    if g1.rank() != g2.rank() {
        return vec![demote(g1.clone())];
    }
    let mut out = Vec::new();
    match region_subtract(&both, &g1.region, &g2.region) {
        Some(cases) => {
            for (p, r) in cases {
                out.push(Gar::with_approx(both.and(&p), r, g1.approx));
            }
        }
        None => {
            // Unrepresentable difference: keep the overlap piece whole but
            // over-approximate.
            out.push(Gar::with_approx(
                both.clone(),
                g1.region.clone(),
                Approx::Over,
            ));
        }
    }
    // The part of g1 outside g2's guard survives untouched. When
    // P1 ⇒ P2 there is no outside part — important when ¬P2 is not
    // expressible (e.g. a ∀ guard from the counter inference).
    if !g1.guard.implies(&g2.guard) {
        let outside = g1.guard.and(&g2.guard.not());
        if !outside.is_false() {
            out.push(Gar::with_approx(outside, g1.region.clone(), g1.approx));
        }
    }
    out
}

/// Attempts to merge two pieces into fewer/cleaner pieces. Returns the
/// replacement or `None` if no merge applies.
fn try_merge(a: &Gar, b: &Gar) -> Option<Vec<Gar>> {
    if a.approx != b.approx {
        // Subsumption across markers: an Exact piece may absorb an Over
        // piece only for may-semantics; that would lose nothing because
        // Over pieces never kill. Require region/guard subsumption.
        if a.is_exact()
            && b.approx == Approx::Over
            && b.guard.implies(&a.guard)
            && region_covers(&b.guard, &a.region, &b.region)
        {
            return Some(vec![a.clone()]);
        }
        if b.is_exact()
            && a.approx == Approx::Over
            && a.guard.implies(&b.guard)
            && region_covers(&a.guard, &b.region, &a.region)
        {
            return Some(vec![b.clone()]);
        }
        return None;
    }
    // Same approx from here on.
    // Identical regions: or-merge guards when the result stays exact
    // (paper's third union case: [P1 ∨ P2, R]).
    if a.region == b.region {
        let or = a.guard.or(&b.guard);
        if or.is_exact() || a.approx == Approx::Over {
            return Some(vec![Gar::with_approx(or, a.region.clone(), a.approx)]);
        }
        return None;
    }
    // Subsumption: drop the piece implied by the other.
    if a.guard.implies(&b.guard) && region_covers(&a.guard, &b.region, &a.region) {
        return Some(vec![b.clone()]);
    }
    if b.guard.implies(&a.guard) && region_covers(&b.guard, &a.region, &b.region) {
        return Some(vec![a.clone()]);
    }
    // Equal guards: try a geometric merge of the regions.
    if a.guard == b.guard {
        let merged = region_union_merge(&a.guard, &a.region, &b.region)?;
        if merged.len() > 2 {
            return None;
        }
        let pieces: Vec<Gar> = merged
            .into_iter()
            .map(|(p, r)| Gar::with_approx(a.guard.and(&p), r, a.approx))
            .collect();
        // A case split whose case guards overflowed to Δ can hand back
        // the operands themselves; taking that as a merge would repeat
        // it forever.
        let unchanged = pieces.len() == 2 && pieces.contains(a) && pieces.contains(b);
        if !unchanged {
            return Some(pieces);
        }
    }
    None
}

impl fmt::Display for GarList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.gars.is_empty() {
            return f.write_str("{}");
        }
        for (k, g) in self.gars.iter().enumerate() {
            if k > 0 {
                f.write_str(" U ")?;
            }
            write!(f, "{g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use region::{Range, Region};
    use sym::parse_expr;

    fn e(s: &str) -> Expr {
        parse_expr(s).unwrap()
    }

    fn r1d(lo: &str, hi: &str) -> Region {
        Region::from_ranges([Range::contiguous(e(lo), e(hi))])
    }

    #[test]
    fn merge_that_reproduces_its_operands_terminates() {
        // Under `MAX - 1 < i`, the case guards of `(1:i - MAX) ∪ (1:10)`
        // overflow to Δ, so the case split hands back both operands.
        let d = Pred::lt(e("9223372036854775806"), e("i")).and(&Pred::unknown());
        let a = Gar::with_approx(d.clone(), r1d("1", "i - 9223372036854775807"), Approx::Over);
        let b = Gar::with_approx(d, r1d("1", "10"), Approx::Over);
        let u = GarList::from_gars([a, b]);
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn union_merges_adjacent() {
        let a = GarList::single(Gar::new(Pred::tru(), r1d("1", "5")));
        let b = GarList::single(Gar::new(Pred::tru(), r1d("6", "10")));
        let u = a.union(&b);
        assert_eq!(u.len(), 1);
        assert_eq!(u.gars()[0].region, r1d("1", "10"));
    }

    #[test]
    fn union_same_region_or_guards() {
        let p = Pred::le(e("x"), e("0"));
        let a = GarList::single(Gar::new(p.clone(), r1d("1", "10")));
        let b = GarList::single(Gar::new(p.not(), r1d("1", "10")));
        let u = a.union(&b);
        assert_eq!(u.len(), 1);
        assert!(u.gars()[0].guard.is_true());
    }

    #[test]
    fn union_subsumption() {
        let a = GarList::single(Gar::new(Pred::tru(), r1d("1", "100")));
        let b = GarList::single(Gar::new(Pred::le(e("q"), e("5")), r1d("20", "30")));
        let u = a.union(&b);
        assert_eq!(u.len(), 1);
        assert_eq!(u.gars()[0].region, r1d("1", "100"));
    }

    #[test]
    fn paper_union_example() {
        // T1 = [a<=b, A(a:b)], T2 = [b<=c, A(b:c)]: the union must cover
        // (a:c) when both hold — and pieces stay separate or merge, but
        // never lose elements. We check via intersection emptiness against
        // a probe outside.
        let t1 = GarList::single(Gar::new(Pred::tru(), r1d("a", "b")));
        let t2 = GarList::single(Gar::new(Pred::tru(), r1d("b", "c")));
        let u = t1.union(&t2);
        // The guards differ, so the list legitimately keeps both pieces
        // (§3: "Otherwise, the result is a list of two regular array
        // regions"); the guards carry the validity conditions.
        assert_eq!(u.len(), 2, "got {u}");
        assert!(u.gars()[0].guard.implies(&Pred::le(e("a"), e("b"))));
        assert!(u.gars()[1].guard.implies(&Pred::le(e("b"), e("c"))));
        // Under a shared guard, the regions do merge to (a:c):
        let shared = Pred::le(e("a"), e("b")).and(&Pred::le(e("b"), e("c")));
        let m = GarList::single(Gar::new(shared.clone(), r1d("a", "b")))
            .union(&GarList::single(Gar::new(shared, r1d("b", "c"))));
        assert_eq!(m.len(), 1, "got {m}");
        assert_eq!(m.gars()[0].region, r1d("a", "c"));
    }

    #[test]
    fn intersect_disjoint_empty() {
        let a = GarList::single(Gar::new(Pred::tru(), r1d("1", "3")));
        let b = GarList::single(Gar::new(Pred::tru(), r1d("7", "9")));
        assert!(a.intersect(&b).definitely_empty());
    }

    #[test]
    fn intersect_contradictory_guards_empty() {
        let p = Pred::eq(e("kc"), e("0"));
        let a = GarList::single(Gar::new(p.clone(), r1d("1", "10")));
        let b = GarList::single(Gar::new(p.not(), r1d("1", "10")));
        assert!(a.intersect(&b).definitely_empty());
    }

    #[test]
    fn intersect_under_pieces_ignored() {
        let a = GarList::from_gars([Gar::with_approx(Pred::tru(), r1d("1", "10"), Approx::Under)]);
        let b = GarList::single(Gar::new(Pred::tru(), r1d("5", "7")));
        // Under pieces are must-only; may-intersection sees nothing.
        assert!(a.intersect(&b).definitely_empty());
    }

    #[test]
    fn subtract_kills_covered() {
        let use_set = GarList::single(Gar::new(Pred::tru(), r1d("6", "9")));
        let mod_set = GarList::single(Gar::new(Pred::tru(), r1d("1", "10")));
        assert!(use_set.subtract(&mod_set).definitely_empty());
    }

    #[test]
    fn subtract_partial() {
        let use_set = GarList::single(Gar::new(Pred::tru(), r1d("1", "10")));
        let mod_set = GarList::single(Gar::new(Pred::tru(), r1d("4", "6")));
        let ue = use_set.subtract(&mod_set);
        assert_eq!(ue.len(), 2);
    }

    #[test]
    fn subtract_guarded_mod_keeps_complement() {
        // mod guarded by P kills only under P: UE keeps [¬P, R].
        let p = Pred::atom(pred::Atom::Bool(sym::Name::new("p"), true));
        let use_set = GarList::single(Gar::new(Pred::tru(), r1d("1", "10")));
        let mod_set = GarList::single(Gar::new(p.clone(), r1d("1", "10")));
        let ue = use_set.subtract(&mod_set);
        assert_eq!(ue.len(), 1);
        assert_eq!(ue.gars()[0].guard, p.not());
    }

    #[test]
    fn subtract_over_mod_kills_nothing() {
        let use_set = GarList::single(Gar::new(Pred::tru(), r1d("1", "10")));
        let mod_set =
            GarList::from_gars([Gar::with_approx(Pred::tru(), r1d("1", "10"), Approx::Over)]);
        let ue = use_set.subtract(&mod_set);
        assert_eq!(ue.len(), 1);
        assert_eq!(ue.gars()[0].region, r1d("1", "10"));
        // but the result is demoted (it over-approximates the true UE)
        assert_eq!(ue.gars()[0].approx, Approx::Over);
    }

    #[test]
    fn subtract_under_mod_kills() {
        // The ∀-extension case: an Under mod with an exact guard kills.
        let use_set = GarList::single(Gar::new(Pred::tru(), r1d("6", "9")));
        let fa = Pred::atom(pred::Atom::ForallCond {
            deps: vec![],
            template: pred::CondTemplate::new("c"),
            lo: e("2"),
            hi: e("5"),
            positive: false,
        });
        let mod_set =
            GarList::from_gars([Gar::with_approx(fa.clone(), r1d("6", "9"), Approx::Under)]);
        let ue = use_set.subtract(&mod_set);
        // survives only under ¬(∀…) — which is inexpressible, so the
        // surviving piece must NOT be exact-true; it must carry the
        // complement or Δ.
        assert!(!ue.definitely_empty());
        assert!(ue.gars().iter().all(|g| !g.guard.is_true()));
    }

    #[test]
    fn guarded_by_distributes() {
        let l = GarList::from_gars([
            Gar::new(Pred::tru(), r1d("1", "5")),
            Gar::new(Pred::tru(), r1d("8", "9")),
        ]);
        let p = Pred::le(e("x"), e("0"));
        let g = l.guarded_by(&p);
        assert!(g.gars().iter().all(|x| x.guard == p));
    }

    #[test]
    fn cap_collapses() {
        // Build many disjoint, unmergeable pieces.
        let mut gars = Vec::new();
        for k in 0..200 {
            let lo = 10 * k;
            gars.push(Gar::new(
                Pred::tru(),
                r1d(&format!("{}", lo), &format!("{}", lo + 3)),
            ));
        }
        let l = GarList::from_gars(gars);
        assert!(l.len() <= LIST_CAP);
        assert!(!l.is_exact());
    }

    #[test]
    fn empty_behaviour() {
        let l = GarList::empty();
        assert!(l.definitely_empty());
        assert!(l.is_exact());
        let m = GarList::single(Gar::new(Pred::fals(), r1d("1", "5")));
        assert!(m.definitely_empty());
    }
}
