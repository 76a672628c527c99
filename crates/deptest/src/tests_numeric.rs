//! The numeric dependence tests on affine subscript pairs.

use serde::Serialize;
use std::collections::BTreeMap;

/// An affine subscript `c0 + Σ ck · idx_k` with integer coefficients over
/// named loop indices.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct AffineSub {
    /// Constant term.
    pub c0: i64,
    /// Coefficient per loop-index name.
    pub coeffs: BTreeMap<String, i64>,
}

impl AffineSub {
    /// A constant subscript.
    pub fn constant(c0: i64) -> Self {
        AffineSub {
            c0,
            coeffs: BTreeMap::new(),
        }
    }

    /// Adds a term `c · idx`.
    pub fn with(mut self, idx: &str, c: i64) -> Self {
        if c != 0 {
            *self.coeffs.entry(idx.to_string()).or_insert(0) += c;
        }
        self
    }

    /// Coefficient of an index (0 if absent).
    pub fn coeff(&self, idx: &str) -> i64 {
        self.coeffs.get(idx).copied().unwrap_or(0)
    }
}

/// Outcome of a dependence test.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum DepAnswer {
    /// Dependence disproved.
    Independent,
    /// The test could not disprove dependence.
    MaybeDependent,
}

/// ZIV test: two constant subscripts depend iff equal.
pub fn ziv_test(a: &AffineSub, b: &AffineSub) -> Option<DepAnswer> {
    if a.coeffs.is_empty() && b.coeffs.is_empty() {
        Some(if a.c0 == b.c0 {
            DepAnswer::MaybeDependent
        } else {
            DepAnswer::Independent
        })
    } else {
        None
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// GCD test on the dependence equation `a(i₁,…) = b(i₂,…)`: the linear
/// Diophantine equation `Σ aₖ·iₖ¹ − Σ bₖ·iₖ² = b₀ − a₀` has an integer
/// solution only if `gcd(all coefficients)` divides the right-hand side.
///
/// Returns `Independent` when it does not divide; `MaybeDependent`
/// otherwise.
pub fn gcd_test(a: &AffineSub, b: &AffineSub) -> DepAnswer {
    let mut g = 0u64;
    for &c in a.coeffs.values().chain(b.coeffs.values()) {
        g = gcd(g, c.unsigned_abs());
    }
    // Widened: the difference of two `i64`s always fits.
    let rhs = i128::from(b.c0) - i128::from(a.c0);
    if g == 0 {
        // No index terms at all: equality of constants (ZIV).
        return if rhs == 0 {
            DepAnswer::MaybeDependent
        } else {
            DepAnswer::Independent
        };
    }
    if rhs % i128::from(g) != 0 {
        DepAnswer::Independent
    } else {
        DepAnswer::MaybeDependent
    }
}

/// Banerjee's inequalities for one subscript dimension with constant loop
/// bounds. `bounds` maps each index to its inclusive `(lo, hi)`. `carrier`
/// (if set) is the loop whose *carried* dependence is tested: the test
/// requires `i¹ < i²` (direction `<`) or `i¹ > i²`, covering both carried
/// directions; loop-independent (`=`) solutions are ignored.
///
/// The test computes min/max of `h = a(i¹) − b(i²)` subject to the bounds
/// and the direction constraint; `0 ∉ [min, max]` disproves dependence.
/// The bounds are computed in `i128`; when even that overflows the test
/// does not apply (`None`).
pub fn banerjee_test(
    a: &AffineSub,
    b: &AffineSub,
    bounds: &BTreeMap<String, (i64, i64)>,
    carrier: Option<&str>,
) -> Option<DepAnswer> {
    // Every index with a nonzero coefficient needs bounds.
    for idx in a.coeffs.keys().chain(b.coeffs.keys()) {
        let (lo, hi) = bounds.get(idx)?;
        if lo > hi {
            return Some(DepAnswer::Independent); // empty loop
        }
    }
    let indices: std::collections::BTreeSet<&String> =
        a.coeffs.keys().chain(b.coeffs.keys()).collect();

    // For each direction of the carrier, accumulate the extreme values of
    // h = Σ aₖ iₖ¹ − Σ bₖ iₖ² + (a0 − b0).
    let directions: &[i64] = if carrier.is_some() { &[-1, 1] } else { &[0] };
    for &dir in directions {
        let mut min = i128::from(a.c0) - i128::from(b.c0);
        let mut max = min;
        let mut feasible = true;
        for idx in &indices {
            let (lo, hi) = bounds[idx.as_str()];
            let (lo, hi) = (i128::from(lo), i128::from(hi));
            let ca = i128::from(a.coeff(idx));
            let cb = i128::from(b.coeff(idx));
            let (mn, mx) = if carrier == Some(idx.as_str()) && dir != 0 {
                // Two instances with i¹ − i² = −d·δ, δ >= 1 (dir=−1 means
                // i¹ < i²). Extremize ca·i¹ − cb·i² over lo <= i¹,i² <= hi
                // with the ordering constraint.
                if hi - lo < 1 {
                    feasible = false; // cannot have two distinct iterations
                    break;
                }
                extremize_ordered(ca, cb, lo, hi, dir)?
            } else {
                // Independent instances (or same loop not the carrier —
                // conservatively treat instances as unconstrained).
                let term = |c: i128| -> Option<(i128, i128)> {
                    let (l, h) = (c.checked_mul(lo)?, c.checked_mul(hi)?);
                    Some((l.min(h), l.max(h)))
                };
                let (amn, amx) = term(ca)?;
                let (bmn, bmx) = term(cb)?;
                (amn.checked_sub(bmx)?, amx.checked_sub(bmn)?)
            };
            min = min.checked_add(mn)?;
            max = max.checked_add(mx)?;
        }
        if feasible && min <= 0 && 0 <= max {
            return Some(DepAnswer::MaybeDependent);
        }
    }
    Some(DepAnswer::Independent)
}

/// Extreme values of `ca·x − cb·y` for `lo <= x, y <= hi` with `x < y`
/// (`dir == -1`) or `x > y` (`dir == 1`). Brute interval reasoning via the
/// substitution `y = x + δ, δ >= 1` (or symmetric). `None` on overflow.
fn extremize_ordered(ca: i128, cb: i128, lo: i128, hi: i128, dir: i64) -> Option<(i128, i128)> {
    // Enumerate corner candidates: for affine objectives on a lattice
    // polytope the extrema sit at vertices: (x, y) ∈ {(lo, lo+1), (lo, hi),
    // (hi-1, hi)} for x<y and mirrored for x>y.
    let cands: [(i128, i128); 3] = if dir == -1 {
        [(lo, lo + 1), (lo, hi), (hi - 1, hi)]
    } else {
        [(lo + 1, lo), (hi, lo), (hi, hi - 1)]
    };
    let mut extremes: Option<(i128, i128)> = None;
    for (x, y) in cands {
        if x < lo || x > hi || y < lo || y > hi {
            continue;
        }
        let v = ca.checked_mul(x)?.checked_sub(cb.checked_mul(y)?)?;
        extremes = Some(extremes.map_or((v, v), |(mn, mx)| (mn.min(v), mx.max(v))));
    }
    Some(extremes.unwrap_or((0, 0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds(pairs: &[(&str, i64, i64)]) -> BTreeMap<String, (i64, i64)> {
        pairs
            .iter()
            .map(|(n, l, h)| (n.to_string(), (*l, *h)))
            .collect()
    }

    #[test]
    fn ziv_basics() {
        assert_eq!(
            ziv_test(&AffineSub::constant(3), &AffineSub::constant(4)),
            Some(DepAnswer::Independent)
        );
        assert_eq!(
            ziv_test(&AffineSub::constant(3), &AffineSub::constant(3)),
            Some(DepAnswer::MaybeDependent)
        );
        assert_eq!(
            ziv_test(
                &AffineSub::constant(3).with("i", 1),
                &AffineSub::constant(3)
            ),
            None
        );
    }

    #[test]
    fn gcd_disproves() {
        // a(2i) vs a(2i + 1): parity differs → independent.
        let w = AffineSub::constant(0).with("i", 2);
        let r = AffineSub::constant(1).with("i", 2);
        assert_eq!(gcd_test(&w, &r), DepAnswer::Independent);
        // a(2i) vs a(2i + 2): may depend.
        let r2 = AffineSub::constant(2).with("i", 2);
        assert_eq!(gcd_test(&w, &r2), DepAnswer::MaybeDependent);
    }

    #[test]
    fn gcd_zero_coeffs() {
        assert_eq!(
            gcd_test(&AffineSub::constant(1), &AffineSub::constant(1)),
            DepAnswer::MaybeDependent
        );
        assert_eq!(
            gcd_test(&AffineSub::constant(1), &AffineSub::constant(2)),
            DepAnswer::Independent
        );
    }

    #[test]
    fn banerjee_carried_self_dependence() {
        // a(i) written and read as a(i): no carried dependence (i1 != i2
        // forces h = i1 - i2 != 0).
        let s = AffineSub::constant(0).with("i", 1);
        let b = bounds(&[("i", 1, 100)]);
        assert_eq!(
            banerjee_test(&s, &s, &b, Some("i")),
            Some(DepAnswer::Independent)
        );
    }

    #[test]
    fn banerjee_offset_dependence() {
        // a(i) vs a(i-1): carried dependence exists.
        let w = AffineSub::constant(0).with("i", 1);
        let r = AffineSub::constant(-1).with("i", 1);
        let b = bounds(&[("i", 1, 100)]);
        assert_eq!(
            banerjee_test(&w, &r, &b, Some("i")),
            Some(DepAnswer::MaybeDependent)
        );
    }

    #[test]
    fn banerjee_far_offset_disproved() {
        // a(i) vs a(i + 200) with 1 <= i <= 100: offset exceeds range.
        let w = AffineSub::constant(0).with("i", 1);
        let r = AffineSub::constant(200).with("i", 1);
        let b = bounds(&[("i", 1, 100)]);
        assert_eq!(
            banerjee_test(&w, &r, &b, Some("i")),
            Some(DepAnswer::Independent)
        );
    }

    #[test]
    fn banerjee_needs_bounds() {
        let w = AffineSub::constant(0).with("i", 1);
        let r = AffineSub::constant(-1).with("i", 1);
        assert_eq!(banerjee_test(&w, &r, &BTreeMap::new(), Some("i")), None);
    }

    #[test]
    fn banerjee_single_iteration_loop() {
        // One iteration: no two distinct instances exist.
        let s = AffineSub::constant(0).with("i", 1);
        let b = bounds(&[("i", 5, 5)]);
        assert_eq!(
            banerjee_test(&s, &s, &b, Some("i")),
            Some(DepAnswer::Independent)
        );
    }

    #[test]
    fn banerjee_inner_index_unconstrained() {
        // a(i, j) vs a(i, j): carried by i → independent in dim i; the j
        // dimension alone (carrier i) may collide.
        let s = AffineSub::constant(0).with("j", 1);
        let b = bounds(&[("j", 1, 10)]);
        assert_eq!(
            banerjee_test(&s, &s, &b, Some("i")),
            Some(DepAnswer::MaybeDependent)
        );
    }

    #[test]
    fn brute_force_agreement() {
        // Exhaustively check Banerjee soundness on small ranges: whenever
        // it says Independent there really is no solution with i1 != i2.
        for ca in -2i64..3 {
            for cb in -2i64..3 {
                for off in -4i64..5 {
                    let w = AffineSub::constant(0).with("i", ca);
                    let r = AffineSub::constant(off).with("i", cb);
                    let b = bounds(&[("i", 1, 6)]);
                    let ans = banerjee_test(&w, &r, &b, Some("i")).unwrap();
                    let mut any = false;
                    for i1 in 1..=6 {
                        for i2 in 1..=6 {
                            if i1 != i2 && ca * i1 == cb * i2 + off {
                                any = true;
                            }
                        }
                    }
                    if ans == DepAnswer::Independent {
                        assert!(!any, "ca={ca} cb={cb} off={off}: false independence");
                    }
                }
            }
        }
    }
}
