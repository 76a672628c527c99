//! Abstract syntax for the Fortran subset.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Base types.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Ty {
    /// `INTEGER`
    Integer,
    /// `REAL` (also used for `DOUBLE PRECISION`)
    Real,
    /// `LOGICAL`
    Logical,
}

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `**`
    Pow,
    /// `.LT.`
    Lt,
    /// `.LE.`
    Le,
    /// `.GT.`
    Gt,
    /// `.GE.`
    Ge,
    /// `.EQ.`
    Eq,
    /// `.NE.`
    Ne,
    /// `.AND.`
    And,
    /// `.OR.`
    Or,
}

impl BinOp {
    /// `true` for the six relational operators.
    pub fn is_relational(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// `true` for `.AND.`/`.OR.`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum UnOp {
    /// Unary minus.
    Neg,
    /// `.NOT.`
    Not,
}

/// Expressions.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// `.TRUE.` / `.FALSE.`
    Logical(bool),
    /// Scalar variable reference.
    Var(String),
    /// `name(sub, …)` — an array element or a function/intrinsic call;
    /// disambiguated by semantic analysis via the symbol table.
    Index(String, Vec<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
}

impl Expr {
    /// Convenience constructor.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Bin(op, Box::new(l), Box::new(r))
    }

    /// Walks all sub-expressions (including self), pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Index(_, subs) => {
                for s in subs {
                    s.walk(f);
                }
            }
            Expr::Bin(_, a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Un(_, a) => a.walk(f),
            _ => {}
        }
    }
}

/// Assignment targets.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum LValue {
    /// Scalar.
    Var(String),
    /// Array element.
    Element(String, Vec<Expr>),
}

impl LValue {
    /// The assigned variable/array name.
    pub fn name(&self) -> &str {
        match self {
            LValue::Var(n) | LValue::Element(n, _) => n,
        }
    }
}

/// One statement, with an optional numeric label.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Stmt {
    /// Statement label (GOTO target / DO terminator).
    pub label: Option<u32>,
    /// 1-based source line of the statement's first token; 0 for
    /// synthetic statements with no source location.
    pub line: u32,
    /// The statement proper.
    pub kind: StmtKind,
}

impl Stmt {
    /// Visits this statement and every statement nested in it, pre-order:
    /// a block IF's THEN arm before its ELSE arm, a DO's body, a logical
    /// IF's statement.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        match &self.kind {
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                walk_stmts(then_body, f);
                walk_stmts(else_body, f);
            }
            StmtKind::LogicalIf(_, inner) => inner.walk(f),
            StmtKind::Do { body, .. } => walk_stmts(body, f),
            _ => {}
        }
    }

    /// Visits the expressions this statement holds itself, in source
    /// order: an element target's subscripts then the right-hand side; a
    /// condition; a DO's `lo`, `hi` and step; CALL arguments. Nested
    /// statements are not entered, and sub-expressions are left to
    /// [`Expr::walk`].
    pub fn exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match &self.kind {
            StmtKind::Assign(lv, rhs) => {
                if let LValue::Element(_, subs) = lv {
                    for s in subs {
                        f(s);
                    }
                }
                f(rhs);
            }
            StmtKind::If { cond, .. } | StmtKind::LogicalIf(cond, _) => f(cond),
            StmtKind::Do { lo, hi, step, .. } => {
                f(lo);
                f(hi);
                if let Some(step) = step {
                    f(step);
                }
            }
            StmtKind::Call(_, args) => {
                for a in args {
                    f(a);
                }
            }
            StmtKind::Goto(_) | StmtKind::Return | StmtKind::Continue | StmtKind::Stop => {}
        }
    }
}

/// [`Stmt::walk`] over each statement of a body, in order.
pub fn walk_stmts<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in stmts {
        s.walk(f);
    }
}

/// Statement kinds.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum StmtKind {
    /// `lhs = rhs`
    Assign(LValue, Expr),
    /// Block `IF (cond) THEN … [ELSE …] ENDIF`. `ELSE IF` chains are
    /// desugared into nested blocks by the parser.
    If {
        /// Condition.
        cond: Expr,
        /// THEN branch.
        then_body: Vec<Stmt>,
        /// ELSE branch (possibly empty).
        else_body: Vec<Stmt>,
    },
    /// Logical `IF (cond) stmt`.
    LogicalIf(Expr, Box<Stmt>),
    /// `DO var = lo, hi[, step]` with its body.
    Do {
        /// Loop index variable.
        var: String,
        /// Lower bound.
        lo: Expr,
        /// Upper bound.
        hi: Expr,
        /// Step (default 1).
        step: Option<Expr>,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `GOTO label`
    Goto(u32),
    /// `CALL name(args…)`
    Call(String, Vec<Expr>),
    /// `RETURN`
    Return,
    /// `CONTINUE`
    Continue,
    /// `STOP`
    Stop,
}

/// Kinds of program units.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RoutineKind {
    /// `PROGRAM`
    Program,
    /// `SUBROUTINE`
    Subroutine,
}

/// Array dimension declarator.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum DimBound {
    /// `(expr)` — upper bound with implicit lower bound 1.
    Upper(Expr),
    /// `(lo:hi)` — explicit bounds.
    Both(Expr, Expr),
    /// `(*)` — assumed size.
    Assumed,
}

/// One program unit.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Routine {
    /// Unit name (lower-cased).
    pub name: String,
    /// PROGRAM or SUBROUTINE.
    pub kind: RoutineKind,
    /// Dummy parameter names, in order.
    pub params: Vec<String>,
    /// Explicit type declarations `name -> type`.
    pub types: Vec<(String, Ty)>,
    /// Array declarations `name -> dims` (from type or DIMENSION stmts).
    pub arrays: Vec<(String, Vec<DimBound>)>,
    /// `PARAMETER` constants.
    pub parameters: Vec<(String, Expr)>,
    /// `COMMON /block/ names`.
    pub commons: Vec<(String, Vec<String>)>,
    /// `EQUIVALENCE (item, item, …), …` — each group lists storage-
    /// associated items as `(name, subscripts)`; a bare name has no
    /// subscripts and anchors at its first element.
    pub equivalences: Vec<Vec<(String, Vec<Expr>)>>,
    /// Executable statements.
    pub body: Vec<Stmt>,
}

/// A whole source file: one or more routines.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct Program {
    /// Routines in source order.
    pub routines: Vec<Routine>,
}

impl Program {
    /// Finds a routine by (lower-cased) name.
    pub fn routine(&self, name: &str) -> Option<&Routine> {
        let lname = name.to_ascii_lowercase();
        self.routines.iter().find(|r| r.name == lname)
    }

    /// The main program unit, if present.
    pub fn main(&self) -> Option<&Routine> {
        self.routines
            .iter()
            .find(|r| r.kind == RoutineKind::Program)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Int(v) => write!(f, "{v}"),
            Expr::Real(v) => write!(f, "{v}"),
            Expr::Logical(true) => f.write_str(".TRUE."),
            Expr::Logical(false) => f.write_str(".FALSE."),
            Expr::Var(n) => f.write_str(n),
            Expr::Index(n, subs) => {
                write!(f, "{n}(")?;
                for (k, s) in subs.iter().enumerate() {
                    if k > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{s}")?;
                }
                f.write_str(")")
            }
            Expr::Bin(op, a, b) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Pow => "**",
                    BinOp::Lt => ".LT.",
                    BinOp::Le => ".LE.",
                    BinOp::Gt => ".GT.",
                    BinOp::Ge => ".GE.",
                    BinOp::Eq => ".EQ.",
                    BinOp::Ne => ".NE.",
                    BinOp::And => ".AND.",
                    BinOp::Or => ".OR.",
                };
                write!(f, "({a}{sym}{b})")
            }
            Expr::Un(UnOp::Neg, a) => write!(f, "(-{a})"),
            Expr::Un(UnOp::Not, a) => write!(f, "(.NOT.{a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_display_roundtrippable_shape() {
        let e = Expr::bin(
            BinOp::Gt,
            Expr::Index("b".into(), vec![Expr::Var("k".into())]),
            Expr::Var("cut2".into()),
        );
        assert_eq!(e.to_string(), "(b(k).GT.cut2)");
    }

    #[test]
    fn walk_visits_all() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::Index("a".into(), vec![Expr::Var("i".into())]),
            Expr::Int(1),
        );
        let mut n = 0;
        e.walk(&mut |_| n += 1);
        assert_eq!(n, 4); // bin, index, var, int
    }

    #[test]
    fn stmt_walk_and_exprs_order() {
        let p = crate::parser::parse_program(
            "      SUBROUTINE s(a, n)
      REAL a(10)
      IF (n .GT. 0) THEN
        a(1) = 1.0
      ELSE
        a(2) = 2.0
      ENDIF
      DO i = 1, n, 2
        DO j = 1, i
          a(j) = a(i) + n
        ENDDO
        IF (i .EQ. n) a(i) = 0.0
      ENDDO
      CALL t(a, n + 1)
      END
",
        )
        .unwrap();
        let mut visited = Vec::new();
        walk_stmts(&p.routines[0].body, &mut |s| visited.push(s));
        let lines: Vec<u32> = visited.iter().map(|s| s.line).collect();
        // THEN arm before ELSE arm, DO bodies in order, and the logical
        // IF (line 12) followed by its statement, visited once.
        assert_eq!(lines, [3, 4, 6, 8, 9, 10, 12, 12, 14]);
        assert!(matches!(visited[6].kind, StmtKind::LogicalIf(..)));
        assert!(matches!(visited[7].kind, StmtKind::Assign(..)));

        let exprs_of = |s: &Stmt| {
            let mut out = Vec::new();
            s.exprs(&mut |e| out.push(e.to_string()));
            out
        };
        assert_eq!(exprs_of(visited[5]), ["j", "(a(i)+n)"]);
        assert_eq!(exprs_of(visited[3]), ["1", "n", "2"]);
        assert_eq!(exprs_of(visited[8]), ["a", "(n+1)"]);
        // A logical IF holds its condition only, not its statement's.
        assert_eq!(exprs_of(visited[6]), ["(i.EQ.n)"]);
    }

    #[test]
    fn program_lookup() {
        let p = Program {
            routines: vec![Routine {
                name: "main".into(),
                kind: RoutineKind::Program,
                params: vec![],
                types: vec![],
                arrays: vec![],
                parameters: vec![],
                commons: vec![],
                equivalences: vec![],
                body: vec![],
            }],
        };
        assert!(p.routine("MAIN").is_some());
        assert!(p.main().is_some());
        assert!(p.routine("nope").is_none());
    }
}
