//! Range environments and interval evaluation of symbolic expressions.

use crate::{Budget, Congruence, Interval};
use std::collections::BTreeMap;
use std::fmt;
use sym::Expr;

/// What the pass knows about one scalar: an interval and a congruence,
/// interpreted conjunctively.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ValueRange {
    /// Interval component.
    pub interval: Interval,
    /// Congruence component.
    pub congruence: Congruence,
}

impl ValueRange {
    /// No information.
    pub const TOP: ValueRange = ValueRange {
        interval: Interval::TOP,
        congruence: Congruence::TOP,
    };

    /// Exactly the constant `c`.
    pub fn constant(c: i64) -> ValueRange {
        ValueRange {
            interval: Interval::constant(c),
            congruence: Congruence::constant(c),
        }
    }

    /// An interval with no congruence information.
    pub fn of_interval(iv: Interval) -> ValueRange {
        ValueRange {
            interval: iv,
            congruence: iv.as_const().map_or(Congruence::TOP, Congruence::constant),
        }
    }

    /// `true` iff nothing is known.
    pub fn is_top(&self) -> bool {
        self.interval.is_top() && self.congruence.is_top()
    }

    /// `true` iff no value satisfies both components.
    pub fn is_empty(&self) -> bool {
        self.interval.is_empty()
    }

    /// `Some(c)` iff the range pins an exact constant.
    pub fn as_const(&self) -> Option<i64> {
        self.interval
            .as_const()
            .or_else(|| self.congruence.as_const())
    }

    /// Least upper bound.
    pub fn join(&self, other: &ValueRange) -> ValueRange {
        ValueRange {
            interval: self.interval.join(&other.interval),
            congruence: self.congruence.join(&other.congruence),
        }
    }

    /// Greatest lower bound.
    pub fn meet(&self, other: &ValueRange) -> ValueRange {
        ValueRange {
            interval: self.interval.meet(&other.interval),
            congruence: if self.congruence.is_top() {
                other.congruence
            } else {
                self.congruence
            },
        }
    }

    /// Sum.
    pub fn add(&self, other: &ValueRange) -> ValueRange {
        ValueRange {
            interval: self.interval.add(&other.interval),
            congruence: self.congruence.add(&other.congruence),
        }
    }

    /// Difference.
    pub fn sub(&self, other: &ValueRange) -> ValueRange {
        self.add(&other.neg())
    }

    /// Negation.
    pub fn neg(&self) -> ValueRange {
        ValueRange {
            interval: self.interval.neg(),
            congruence: self.congruence.neg(),
        }
    }

    /// Product.
    pub fn mul(&self, other: &ValueRange) -> ValueRange {
        ValueRange {
            interval: self.interval.mul(&other.interval),
            congruence: self.congruence.mul(&other.congruence),
        }
    }

    /// Widening (interval component only; congruences join).
    pub fn widen(&self, next: &ValueRange) -> ValueRange {
        ValueRange {
            interval: self.interval.widen(&next.interval),
            congruence: self.congruence.join(&next.congruence),
        }
    }
}

impl fmt::Display for ValueRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.congruence.is_top() || self.congruence.as_const().is_some() {
            write!(f, "{}", self.interval)
        } else {
            write!(f, "{} & {}", self.interval, self.congruence)
        }
    }
}

/// Proved ranges for a set of scalars. Missing names are ⊤.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RangeEnv {
    map: BTreeMap<String, ValueRange>,
}

impl RangeEnv {
    /// The empty (all-⊤) environment.
    pub fn new() -> RangeEnv {
        RangeEnv::default()
    }

    /// The proved range of `name` (⊤ when unknown).
    pub fn get(&self, name: &str) -> ValueRange {
        self.map.get(name).copied().unwrap_or(ValueRange::TOP)
    }

    /// Binds `name`; a ⊤ binding is dropped to keep the map sparse.
    pub fn set(&mut self, name: impl Into<String>, r: ValueRange) {
        let name = name.into();
        if r.is_top() {
            self.map.remove(&name);
        } else {
            self.map.insert(name, r);
        }
    }

    /// Removes any binding for `name`.
    pub fn forget(&mut self, name: &str) {
        self.map.remove(name);
    }

    /// Pointwise join: names bound on only one side become ⊤.
    pub fn join(&self, other: &RangeEnv) -> RangeEnv {
        let mut out = RangeEnv::new();
        for (n, r) in &self.map {
            if let Some(o) = other.map.get(n) {
                out.set(n.clone(), r.join(o));
            }
        }
        out
    }

    /// Pointwise widening of `self` against the next iterate.
    pub fn widen(&self, next: &RangeEnv) -> RangeEnv {
        let mut out = RangeEnv::new();
        for (n, r) in &self.map {
            if let Some(o) = next.map.get(n) {
                out.set(n.clone(), r.widen(o));
            }
        }
        out
    }

    /// The bound names and their ranges.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &ValueRange)> {
        self.map.iter()
    }

    /// Number of non-⊤ bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` iff every name is ⊤.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Evaluates a normalized symbolic expression to a [`ValueRange`] under
/// `env`. Each term and variable factor charges the budget; exhaustion
/// answers ⊤.
pub fn eval_sym(e: &Expr, env: &RangeEnv, budget: &Budget) -> ValueRange {
    let mut sum = ValueRange::constant(0);
    for t in e.terms() {
        if !budget.step() {
            return ValueRange::TOP;
        }
        let mut prod = ValueRange::constant(t.coef);
        for (name, power) in t.mono.factors() {
            if !budget.step() {
                return ValueRange::TOP;
            }
            let v = env.get(name.as_str());
            for _ in 0..*power {
                prod = prod.mul(&v);
            }
        }
        sum = sum.add(&prod);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: i64, hi: i64) -> ValueRange {
        ValueRange::of_interval(Interval::new(Some(lo), Some(hi)))
    }

    #[test]
    fn eval_affine() {
        let mut env = RangeEnv::new();
        env.set("n", iv(1, 10));
        // 2*n + 3 ∈ [5, 23]
        let e = sym::parse_expr("2*n + 3").unwrap();
        let r = eval_sym(&e, &env, &Budget::default());
        assert_eq!(r.interval, Interval::new(Some(5), Some(23)));
    }

    #[test]
    fn eval_unbound_var_is_top() {
        let e = sym::parse_expr("q + 1").unwrap();
        let r = eval_sym(&e, &RangeEnv::new(), &Budget::default());
        assert!(r.interval.is_top());
    }

    #[test]
    fn eval_product_and_power() {
        let mut env = RangeEnv::new();
        env.set("i", iv(2, 3));
        let e = sym::parse_expr("i*i").unwrap();
        let r = eval_sym(&e, &env, &Budget::default());
        assert_eq!(r.interval, Interval::new(Some(4), Some(9)));
    }

    #[test]
    fn exhausted_budget_degrades_to_top() {
        let mut env = RangeEnv::new();
        env.set("n", iv(1, 10));
        let e = sym::parse_expr("2*n + 3").unwrap();
        let b = Budget::new(0);
        assert!(eval_sym(&e, &env, &b).is_top());
        assert!(b.degraded());
    }

    #[test]
    fn env_join_drops_one_sided_names() {
        let mut a = RangeEnv::new();
        a.set("n", iv(1, 5));
        a.set("m", iv(0, 0));
        let mut b = RangeEnv::new();
        b.set("n", iv(3, 9));
        let j = a.join(&b);
        assert_eq!(j.get("n").interval, Interval::new(Some(1), Some(9)));
        assert!(j.get("m").is_top());
    }
}
