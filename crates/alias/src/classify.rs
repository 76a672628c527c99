//! Call-site alias classification.

use fortran::{Expr, ProgramSema, StorageClass};

/// How confidently two call-site operands are known to share storage.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum AliasClass {
    /// Provably distinct storage.
    No,
    /// Possibly overlapping storage.
    May,
    /// Provably the same storage.
    Must,
}

/// Why a pair of operands was classified as aliased.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AliasReason {
    /// Both formals are bound to the same actual array name.
    SameActual(String),
    /// The two (distinct) actuals' storage locations may overlap,
    /// through COMMON layout or EQUIVALENCE.
    StorageOverlap(String, String),
}

/// Two formal positions of one CALL that alias each other.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FormalPair {
    /// First formal position (0-based, `a < b`).
    pub a: usize,
    /// Second formal position.
    pub b: usize,
    /// Must or may.
    pub class: AliasClass,
    /// Evidence.
    pub reason: AliasReason,
}

/// A formal whose actual is also reachable by the callee through a
/// COMMON block, so the callee sees the same storage under two names.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GlobalOverlap {
    /// Formal position (0-based).
    pub pos: usize,
    /// Caller-side actual name.
    pub actual: String,
    /// The COMMON block the callee (transitively) declares.
    pub block: String,
}

/// The complete alias classification of one CALL statement.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CallAliasing {
    /// Aliased formal/formal pairs (`a < b`; no-alias pairs omitted).
    pub pairs: Vec<FormalPair>,
    /// Formal/global overlaps through COMMON visible to the callee.
    pub globals: Vec<GlobalOverlap>,
    /// Positions passing an element/slice actual `a(k)` — the formal's
    /// placement inside the base array is not tracked, so it stays
    /// may-aliased with everything in `a`: `(position, base array)`.
    pub slices: Vec<(usize, String)>,
    /// Whole-array actuals whose rank differs from the formal's —
    /// reshaped across the call: `(position, actual, formal rank,
    /// actual rank)`.
    pub reshaped: Vec<(usize, String, usize, usize)>,
    /// COMMON blocks declared by both caller and callee with different
    /// member layouts, so callee-side names do not denote the
    /// caller-side bytes one-to-one.
    pub mismatched_commons: Vec<String>,
}

impl CallAliasing {
    /// `true` when the no-alias convention holds and summaries can be
    /// mapped formal→actual without degradation.
    pub fn clean(&self) -> bool {
        self.pairs.is_empty()
            && self.globals.is_empty()
            && self.slices.is_empty()
            && self.reshaped.is_empty()
            && self.mismatched_commons.is_empty()
    }

    /// Actual names that must be degraded to unknown MOD/UE (and empty
    /// DE): every member of a may-pair, every COMMON-visible actual and
    /// every slice base. Must-aliased actuals are *not* included — their
    /// union-mapped MOD/UE stays usable — but their DE must still drop
    /// (see [`CallAliasing::de_unsafe_targets`]).
    pub fn may_targets(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for p in &self.pairs {
            if p.class == AliasClass::May {
                match &p.reason {
                    AliasReason::SameActual(n) => out.push(n.clone()),
                    AliasReason::StorageOverlap(x, y) => {
                        out.push(x.clone());
                        out.push(y.clone());
                    }
                }
            }
        }
        for g in &self.globals {
            out.push(g.actual.clone());
        }
        for (_, base) in &self.slices {
            out.push(base.clone());
        }
        out.sort();
        out.dedup();
        out
    }

    /// Actual names whose mapped DE cannot be trusted: every aliased
    /// actual. Interleaved accesses through the other name may follow a
    /// "downward exposed" use, so the use is not actually exposed at
    /// segment end — keeping it would manufacture anti dependences on
    /// the wrong name; dropping DE is always sound (the unknown MOD
    /// already forces the output test).
    pub fn de_unsafe_targets(&self) -> Vec<String> {
        let mut out = self.may_targets();
        for p in &self.pairs {
            if let AliasReason::SameActual(n) = &p.reason {
                out.push(n.clone());
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

/// The base array of an actual argument, if any.
enum Actual<'a> {
    Whole(&'a str),
    Slice(&'a str),
    Other,
}

/// Classifies one CALL: every formal/formal and formal/global pair.
///
/// `caller`/`callee` name routines analyzed by [`fortran::analyze`];
/// `callee_params` are the callee's dummy names in order, `args` the
/// actual argument expressions. Unknown routines yield the
/// conservative-free default (empty = clean) — sema has already
/// rejected programs with unknown callees.
pub fn classify_call(
    sema: &ProgramSema,
    caller: &str,
    callee: &str,
    callee_params: &[String],
    args: &[Expr],
) -> CallAliasing {
    let _span = trace::span_with(|| format!("alias:{caller}->{callee}"));
    let mut out = CallAliasing::default();
    let Some(caller_t) = sema.tables.get(caller) else {
        return out;
    };
    let callee_t = sema.tables.get(callee);
    let reach = sema.common_reach.get(callee);

    let actuals: Vec<Actual> = args
        .iter()
        .map(|a| match a {
            Expr::Var(n) if caller_t.is_array(n) => Actual::Whole(n),
            Expr::Index(n, _) if caller_t.is_array(n) => Actual::Slice(n),
            _ => Actual::Other,
        })
        .collect();

    // Formal/formal pairs.
    for i in 0..actuals.len() {
        let (Actual::Whole(a) | Actual::Slice(a)) = actuals[i] else {
            continue;
        };
        for j in i + 1..actuals.len() {
            let (Actual::Whole(b) | Actual::Slice(b)) = actuals[j] else {
                continue;
            };
            if a == b {
                let whole = matches!(actuals[i], Actual::Whole(_))
                    && matches!(actuals[j], Actual::Whole(_));
                out.pairs.push(FormalPair {
                    a: i,
                    b: j,
                    class: if whole {
                        AliasClass::Must
                    } else {
                        AliasClass::May
                    },
                    reason: AliasReason::SameActual(a.to_string()),
                });
            } else if caller_t.storage_overlaps(a, b) {
                out.pairs.push(FormalPair {
                    a: i,
                    b: j,
                    class: AliasClass::May,
                    reason: AliasReason::StorageOverlap(a.to_string(), b.to_string()),
                });
            }
        }
    }

    // Formal/global overlaps: the actual (array, slice base, or scalar
    // passed by reference) lives in a COMMON block the callee can reach.
    for (i, actual) in actuals.iter().enumerate() {
        let name = match actual {
            Actual::Whole(n) | Actual::Slice(n) => n,
            Actual::Other => match &args[i] {
                Expr::Var(n) => n.as_str(),
                _ => continue,
            },
        };
        if let Some(loc) = caller_t.storage(name) {
            if let StorageClass::Common(b) = &loc.class {
                if reach.is_some_and(|r| r.contains(b)) {
                    out.globals.push(GlobalOverlap {
                        pos: i,
                        actual: name.to_string(),
                        block: b.clone(),
                    });
                }
            }
        }
    }

    // Slice actuals and reshapes need the callee's view of the formal.
    if let Some(ct) = callee_t {
        for (i, actual) in actuals.iter().enumerate() {
            let Some(formal) = callee_params.get(i) else {
                continue;
            };
            match actual {
                Actual::Slice(n) => out.slices.push((i, n.to_string())),
                Actual::Whole(n) => {
                    if let (Some(fa), Some(aa)) = (ct.array(formal), caller_t.array(n)) {
                        if fa.rank() != aa.rank() {
                            out.reshaped.push((i, n.to_string(), fa.rank(), aa.rank()));
                        }
                    }
                }
                Actual::Other => {}
            }
        }
    }

    // Every COMMON block the callee can (transitively) reach and the
    // caller also declares must have one layout program-wide, otherwise
    // callee-side global names do not denote caller bytes one-to-one.
    if let Some(reach) = reach {
        for b in reach {
            let caller_side = block_layout(caller_t, b);
            if caller_side.is_empty() {
                continue;
            }
            for (rname, t) in &sema.tables {
                if rname == caller {
                    continue;
                }
                let other = block_layout(t, b);
                if !other.is_empty() && other != caller_side {
                    out.mismatched_commons.push(b.clone());
                    break;
                }
            }
        }
        out.mismatched_commons.sort();
        out.mismatched_commons.dedup();
    }

    out
}

/// The `(member, offset, extent)` layout of one COMMON block in one
/// routine, including names EQUIVALENCE'd into it.
fn block_layout(t: &fortran::SymbolTable, block: &str) -> Vec<(String, Option<i64>, Option<i64>)> {
    let mut v: Vec<(String, Option<i64>, Option<i64>)> = t
        .storage_iter()
        .filter(|(_, l)| matches!(&l.class, StorageClass::Common(b) if b == block))
        .map(|(n, l)| (n.to_string(), l.offset, l.extent))
        .collect();
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortran::{analyze, parse_program};

    fn classified(src: &str, caller: &str, callee: &str) -> CallAliasing {
        let p = parse_program(src).unwrap();
        let sema = analyze(&p).unwrap();
        let callee_r = p.routine(callee).unwrap();
        let mut out = None;
        for r in &p.routines {
            if r.name != caller {
                continue;
            }
            fortran::walk_stmts(&r.body, &mut |s| {
                if let fortran::StmtKind::Call(name, args) = &s.kind {
                    if name == callee {
                        out = Some(classify_call(&sema, caller, callee, &callee_r.params, args));
                    }
                }
            });
        }
        out.expect("call site present")
    }

    const CALLEE: &str = "
      SUBROUTINE f(x, y)
      REAL x(10), y(10)
      x(1) = y(1)
      END
";

    #[test]
    fn same_actual_is_must_alias() {
        let c = classified(
            &format!(
                "
      PROGRAM t
      REAL a(10)
      CALL f(a, a)
      END
{CALLEE}"
            ),
            "t",
            "f",
        );
        assert_eq!(c.pairs.len(), 1);
        assert_eq!(c.pairs[0].class, AliasClass::Must);
        assert_eq!(c.pairs[0].reason, AliasReason::SameActual("a".to_string()));
        assert!(!c.clean());
        assert!(c.may_targets().is_empty());
        assert_eq!(c.de_unsafe_targets(), vec!["a".to_string()]);
    }

    #[test]
    fn distinct_private_actuals_are_clean() {
        let c = classified(
            &format!(
                "
      PROGRAM t
      REAL a(10), b(10)
      CALL f(a, b)
      END
{CALLEE}"
            ),
            "t",
            "f",
        );
        assert!(c.clean());
    }

    #[test]
    fn equivalence_overlap_is_may_alias() {
        let c = classified(
            &format!(
                "
      PROGRAM t
      REAL a(10), b(4)
      EQUIVALENCE (a(3), b(1))
      CALL f(a, b)
      END
{CALLEE}"
            ),
            "t",
            "f",
        );
        assert_eq!(c.pairs.len(), 1);
        assert_eq!(c.pairs[0].class, AliasClass::May);
        assert_eq!(c.may_targets(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn common_actual_visible_to_callee_is_global_overlap() {
        let c = classified(
            "
      PROGRAM t
      COMMON /shared/ g
      REAL g(10), b(10)
      CALL f(g, b)
      END
      SUBROUTINE f(x, y)
      COMMON /shared/ g
      REAL x(10), y(10), g(10)
      x(1) = g(1)
      END
",
            "t",
            "f",
        );
        assert_eq!(c.globals.len(), 1);
        assert_eq!(c.globals[0].pos, 0);
        assert_eq!(c.globals[0].block, "shared");
        assert_eq!(c.may_targets(), vec!["g".to_string()]);
    }

    #[test]
    fn common_actual_with_unrelated_callee_is_clean() {
        let c = classified(
            &format!(
                "
      PROGRAM t
      COMMON /mine/ g
      REAL g(10), b(10)
      CALL f(g, b)
      END
{CALLEE}"
            ),
            "t",
            "f",
        );
        assert!(c.clean(), "callee reaches no COMMON: {c:?}");
    }

    #[test]
    fn slice_actuals_and_reshapes_flagged() {
        let c = classified(
            "
      PROGRAM t
      REAL a(10), m(3,4)
      CALL f(a(2), m)
      END
      SUBROUTINE f(x, y)
      REAL x(10), y(12)
      x(1) = y(1)
      END
",
            "t",
            "f",
        );
        assert_eq!(c.slices, vec![(0, "a".to_string())]);
        assert_eq!(c.reshaped.len(), 1);
        assert_eq!(c.reshaped[0], (1, "m".to_string(), 1, 2));
        assert_eq!(c.may_targets(), vec!["a".to_string()]);
    }

    #[test]
    fn transitive_common_layout_mismatch_detected() {
        let c = classified(
            "
      PROGRAM t
      COMMON /c/ a, b
      REAL a(4), b(4)
      CALL mid()
      a(1) = 0.0
      END
      SUBROUTINE mid()
      CALL leaf()
      END
      SUBROUTINE leaf()
      COMMON /c/ w
      REAL w(8)
      w(1) = 1.0
      END
",
            "t",
            "mid",
        );
        assert_eq!(c.mismatched_commons, vec!["c".to_string()]);
    }
}
