//! Symbolic integer expressions for array dataflow analysis.
//!
//! This crate implements the "general expression operation library" of
//! Gu, Li & Lee (SC'95): integer symbolic expressions normalized to an
//! **ordered sum of products**, with addition, subtraction, multiplication,
//! division by an integer constant, substitution, and symbolic comparison.
//!
//! The central type is [`Expr`]. An expression is a canonical sum of
//! [`Term`]s, each a (coefficient, [`Monomial`]) pair, where a monomial is an
//! ordered product of powers of named variables. The empty monomial denotes
//! the constant term, so every integer constant is an `Expr` with at most one
//! term.
//!
//! # Canonical form
//!
//! * terms are sorted by monomial (graded lexicographic order),
//! * no term has a zero coefficient,
//! * monomial variables are sorted by name with positive integer powers.
//!
//! Two expressions are semantically equal iff they are structurally equal,
//! which makes hashing and set operations on regions cheap — the property the
//! paper relies on when simplifying guarded array regions.
//!
//! # Comparison
//!
//! [`compare`], [`diff_const`] and [`sum_const`] answer their questions by
//! walking the two canonical term lists side by side: whether `a - b` (or
//! `a + b`) is a constant needs no new expression. The difference is built
//! only when it stays symbolic and an installed range oracle
//! ([`bounds`]) must see it.
//!
//! # Overflow
//!
//! There is no panicking arithmetic. Every operation that can overflow
//! an `i64` coefficient returns `Option` — [`Expr::try_add`],
//! [`Expr::try_sub`], [`Expr::try_mul`], [`Expr::try_scale`],
//! [`Expr::try_negate`], [`Expr::try_subst_var`],
//! [`Expr::try_from_terms`], [`Expr::div_exact`] — and [`parse_expr`]
//! returns a [`ParseError`]. `Expr` implements no arithmetic operator.
//! Source programs reach the extremes easily — a literal
//! `-9223372036854775807 - 1`, a subscript `i * 9223372036854775807` —
//! so each caller decides how to degrade on `None` (e.g. to the unknown
//! guard Δ).
//!
//! # Example
//!
//! ```
//! # fn main() { example().unwrap() }
//! # fn example() -> Option<()> {
//! use sym::Expr;
//! let i = Expr::var("i");
//! let e = i.try_add(&Expr::one())?.try_scale(2)?.try_sub(&i)?;
//! assert_eq!(e.to_string(), "i + 2");
//! assert_eq!(e.try_subst_var("i", &Expr::from(3))?.as_const(), Some(5));
//! assert_eq!(Expr::from(i64::MIN).try_negate(), None);
//! # Some(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bounds;
mod compare;
mod env;
mod expr;
mod monomial;
mod parse;
mod term;

pub use compare::{compare, diff_const, sum_const, SymOrdering};
pub use env::Env;
pub use expr::Expr;
pub use monomial::{Monomial, Name};
pub use parse::{parse_expr, ParseError};
pub use term::Term;

#[cfg(test)]
mod proptests;
