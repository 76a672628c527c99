//! Pluggable refutation oracle for [`crate::compare`].
//!
//! The paper's comparison rule decides `a ? b` only when `a - b`
//! normalizes to a constant; everything else is Δ-unknown. The
//! value-range pass upgrades this: when it has proved bounds for the
//! scalars of the difference, it can decide the sign of `a - b` even
//! though the difference is symbolic (e.g. `m - 100` with
//! `m ∈ [150, 200]` is positive).
//!
//! `sym` cannot depend on the range analysis, so the oracle is a
//! thread-local hook the analyzer installs around each routine: given
//! the normalized difference `a - b`, it answers a definite
//! [`SymOrdering`] plus a human-readable justification, or `None`. Only
//! *strict* verdicts are representable — an oracle must never answer
//! `Less` unless `a < b` holds for every admissible valuation.
//!
//! Every successful consultation is logged (deduplicated, bounded) so
//! the analyzer can attach `range_compare` provenance to the decisions
//! the pass contributed. A decision already logged since the most recent
//! [`log_mark`] is not logged again, so the cap counts distinct
//! decisions of the window being attributed, not repeats.

use crate::compare::SymOrdering;
use crate::expr::Expr;
use std::cell::RefCell;

/// One comparison the oracle decided.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RangeDecision {
    /// Left-hand side, as displayed.
    pub lhs: String,
    /// Right-hand side, as displayed.
    pub rhs: String,
    /// The oracle's justification (e.g. `m - 100 in [50, 100]`).
    pub detail: String,
    /// The proved relation: `lt`, `eq` or `gt`.
    pub result: &'static str,
}

/// The hook: maps a normalized difference `a - b` to a definite
/// ordering and a justification string.
pub type BoundsHook = Box<dyn Fn(&Expr) -> Option<(SymOrdering, String)>>;

/// Cap on retained decisions per installation: enough for provenance,
/// bounded for cache entries.
const LOG_CAP: usize = 64;

/// The decision log of one thread.
struct Log {
    entries: Vec<RangeDecision>,
    /// Where the most recent [`log_mark`] was taken: a decision equal to
    /// one of `entries[floor..]` is not logged again.
    floor: usize,
}

impl Log {
    fn clear(&mut self) {
        self.entries.clear();
        self.floor = 0;
    }
}

thread_local! {
    static HOOK: RefCell<Option<BoundsHook>> = const { RefCell::new(None) };
    static LOG: RefCell<Log> = const {
        RefCell::new(Log {
            entries: Vec::new(),
            floor: 0,
        })
    };
}

/// Installs `hook` for the current thread; the returned guard removes
/// it (and clears the decision log) on drop. Installing over an
/// existing hook replaces it.
pub struct OracleGuard(());

impl OracleGuard {
    /// Installs the oracle.
    pub fn install(hook: BoundsHook) -> OracleGuard {
        HOOK.with(|h| *h.borrow_mut() = Some(hook));
        LOG.with(|l| l.borrow_mut().clear());
        OracleGuard(())
    }
}

impl Drop for OracleGuard {
    fn drop(&mut self) {
        HOOK.with(|h| *h.borrow_mut() = None);
        LOG.with(|l| l.borrow_mut().clear());
    }
}

/// `true` iff an oracle is installed on this thread.
pub fn oracle_active() -> bool {
    HOOK.with(|h| h.borrow().is_some())
}

/// Drains the decisions logged since the last drain, in consultation
/// order, deduplicated.
pub fn take_decisions() -> Vec<RangeDecision> {
    LOG.with(|l| {
        let mut log = l.borrow_mut();
        log.floor = 0;
        let mut v = std::mem::take(&mut log.entries);
        let mut seen = Vec::new();
        v.retain(|d| {
            if seen.contains(d) {
                false
            } else {
                seen.push(d.clone());
                true
            }
        });
        v
    })
}

/// The current length of the decision log — a mark to pass to
/// [`decisions_since`] for attributing later decisions to one region of
/// the analysis (e.g. one loop) without draining the log. Decisions
/// repeated after the mark are logged once.
pub fn log_mark() -> usize {
    LOG.with(|l| {
        let mut log = l.borrow_mut();
        log.floor = log.entries.len();
        log.floor
    })
}

/// The decisions logged since `mark` (from [`log_mark`]), deduplicated,
/// without draining the log. A mark taken under a different oracle
/// installation saturates to the full log.
pub fn decisions_since(mark: usize) -> Vec<RangeDecision> {
    LOG.with(|l| {
        let log = &l.borrow().entries;
        let tail = &log[mark.min(log.len())..];
        let mut seen: Vec<RangeDecision> = Vec::new();
        for d in tail {
            if !seen.contains(d) {
                seen.push(d.clone());
            }
        }
        seen
    })
}

/// Consults the oracle about `a ? b` with normalized difference `diff`.
/// Called by [`crate::compare`] on its Δ-unknown path.
pub(crate) fn consult(a: &Expr, b: &Expr, diff: &Expr) -> SymOrdering {
    HOOK.with(|h| {
        let borrow = h.borrow();
        let Some(hook) = borrow.as_ref() else {
            return SymOrdering::Unknown;
        };
        match hook(diff) {
            Some((ord, detail)) if ord != SymOrdering::Unknown => {
                let result = match ord {
                    SymOrdering::Less => "lt",
                    SymOrdering::Equal => "eq",
                    SymOrdering::Greater => "gt",
                    SymOrdering::Unknown => unreachable!(),
                };
                LOG.with(|l| {
                    let mut log = l.borrow_mut();
                    if log.entries.len() < LOG_CAP {
                        let decision = RangeDecision {
                            lhs: a.to_string(),
                            rhs: b.to_string(),
                            detail,
                            result,
                        };
                        if !log.entries[log.floor..].contains(&decision) {
                            log.entries.push(decision);
                        }
                    }
                });
                ord
            }
            _ => SymOrdering::Unknown,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::compare;

    #[test]
    fn no_oracle_stays_unknown() {
        assert!(!oracle_active());
        assert_eq!(
            compare(&Expr::var("a"), &Expr::var("b")),
            SymOrdering::Unknown
        );
        assert!(take_decisions().is_empty());
    }

    #[test]
    fn oracle_decides_and_logs() {
        // An oracle that knows m >= 150: m - 100 is positive.
        let guard = OracleGuard::install(Box::new(|diff: &Expr| {
            if diff.contains_var("m") {
                Some((SymOrdering::Greater, "m - 100 in [50, 100]".to_string()))
            } else {
                None
            }
        }));
        assert!(oracle_active());
        let m = Expr::var("m");
        let hundred = Expr::from(100);
        assert_eq!(compare(&m, &hundred), SymOrdering::Greater);
        // Constants still decide without the oracle.
        assert_eq!(compare(&Expr::from(1), &Expr::from(2)), SymOrdering::Less);
        let decisions = take_decisions();
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].lhs, "m");
        assert_eq!(decisions[0].rhs, "100");
        assert_eq!(decisions[0].result, "gt");
        drop(guard);
        assert!(!oracle_active());
        assert_eq!(compare(&m, &hundred), SymOrdering::Unknown);
    }

    #[test]
    fn duplicate_decisions_dedup() {
        let _guard = OracleGuard::install(Box::new(|_| {
            Some((SymOrdering::Less, "x in [-5, -1]".to_string()))
        }));
        let a = Expr::var("x");
        let b = Expr::zero();
        for _ in 0..10 {
            assert_eq!(compare(&a, &b), SymOrdering::Less);
        }
        assert_eq!(take_decisions().len(), 1);
    }

    #[test]
    fn repeats_do_not_crowd_out_distinct_decisions() {
        let _guard = OracleGuard::install(Box::new(|d: &Expr| {
            Some((SymOrdering::Less, format!("{d} in [-5, -1]")))
        }));
        let mark = log_mark();
        for _ in 0..LOG_CAP {
            assert_eq!(compare(&Expr::var("x"), &Expr::zero()), SymOrdering::Less);
        }
        assert_eq!(compare(&Expr::var("y"), &Expr::zero()), SymOrdering::Less);
        let kept: Vec<String> = decisions_since(mark).into_iter().map(|d| d.lhs).collect();
        assert_eq!(kept, ["x", "y"]);
    }

    #[test]
    fn guard_drop_clears_log() {
        {
            let _g = OracleGuard::install(Box::new(|_| Some((SymOrdering::Less, "d".to_string()))));
            let _ = compare(&Expr::var("x"), &Expr::zero());
        }
        assert!(take_decisions().is_empty());
    }
}
