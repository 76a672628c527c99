//! A small text parser for symbolic expressions.
//!
//! Used pervasively by tests and the example binaries to build expressions
//! concisely: `parse_expr("2*i + n - 1")`. Grammar:
//!
//! ```text
//! expr   := term (('+' | '-') term)*
//! term   := factor (('*' factor) | ('/' integer))*
//! factor := integer | ident ('^' integer)? | '(' expr ')' | '-' factor
//! ```
//!
//! Division must be exact division by an integer literal (mirroring the
//! library's `div_exact`), otherwise parsing fails.

use crate::expr::Expr;
use std::fmt;

/// An error produced by [`parse_expr`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input at which the error occurred.
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            position: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn integer(&mut self) -> Result<i64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected integer"));
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .unwrap()
            .parse::<i64>()
            .map_err(|e| self.err(format!("bad integer: {e}")))
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected identifier"));
        }
        Ok(std::str::from_utf8(&self.src[start..self.pos])
            .unwrap()
            .to_string())
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(b'-') => {
                self.bump();
                self.factor()?
                    .try_negate()
                    .ok_or_else(|| self.err("overflow in negation"))
            }
            Some(b'(') => {
                self.bump();
                let e = self.expr()?;
                if self.peek() != Some(b')') {
                    return Err(self.err("expected ')'"));
                }
                self.bump();
                Ok(e)
            }
            Some(c) if c.is_ascii_digit() => Ok(Expr::from(self.integer()?)),
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                let name = self.ident()?;
                let mut e = Expr::var(name);
                if self.peek() == Some(b'^') {
                    self.bump();
                    let p = self.integer()?;
                    if p < 0 {
                        return Err(self.err("negative power"));
                    }
                    let base = e.clone();
                    e = Expr::one();
                    for _ in 0..p {
                        e = e
                            .try_mul(&base)
                            .ok_or_else(|| self.err("overflow in power"))?;
                    }
                }
                Ok(e)
            }
            _ => Err(self.err("expected factor")),
        }
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.factor()?;
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.bump();
                    let f = self.factor()?;
                    e = e
                        .try_mul(&f)
                        .ok_or_else(|| self.err("overflow in product"))?;
                }
                Some(b'/') => {
                    self.bump();
                    let d = self.integer()?;
                    e = e.div_exact(d).ok_or_else(|| self.err("inexact division"))?;
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.term()?;
        loop {
            match self.peek() {
                Some(b'+') => {
                    self.bump();
                    let t = self.term()?;
                    e = e.try_add(&t).ok_or_else(|| self.err("overflow in sum"))?;
                }
                Some(b'-') => {
                    self.bump();
                    let t = self.term()?;
                    e = e
                        .try_sub(&t)
                        .ok_or_else(|| self.err("overflow in difference"))?;
                }
                _ => break,
            }
        }
        Ok(e)
    }
}

/// Parses a symbolic expression from text. See the module docs for the
/// grammar.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(src);
    let e = p.expr()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing input"));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_and_vars() {
        assert_eq!(parse_expr("42").unwrap().as_const(), Some(42));
        assert_eq!(parse_expr("i").unwrap(), Expr::var("i"));
        assert_eq!(parse_expr(" - 3 ").unwrap().as_const(), Some(-3));
    }

    #[test]
    fn precedence() {
        let e = parse_expr("1 + 2*i - 3").unwrap();
        assert_eq!(e.to_string(), "2*i - 2");
        let f = parse_expr("(1 + i) * 2").unwrap();
        assert_eq!(f.to_string(), "2*i + 2");
    }

    #[test]
    fn powers() {
        assert_eq!(parse_expr("i^2").unwrap().to_string(), "i^2");
        assert_eq!(parse_expr("i^0").unwrap().as_const(), Some(1));
    }

    #[test]
    fn exact_division() {
        assert_eq!(parse_expr("(4*i + 8)/4").unwrap().to_string(), "i + 2");
        assert!(parse_expr("(4*i + 9)/4").is_err());
    }

    #[test]
    fn errors() {
        assert!(parse_expr("").is_err());
        assert!(parse_expr("i +").is_err());
        assert!(parse_expr("(i").is_err());
        assert!(parse_expr("i j").is_err());
        assert!(parse_expr("-(-9223372036854775807 - 1)").is_err());
    }

    #[test]
    fn roundtrip_display() {
        for s in ["i + 2", "2*i*j - k + 1", "n^2 - 1"] {
            let e = parse_expr(s).unwrap();
            assert_eq!(parse_expr(&e.to_string()).unwrap(), e);
        }
    }
}
