//! A Fortran-77-subset front end.
//!
//! The paper's analyzer (Panorama) consumes Fortran programs; this crate is
//! the reconstruction of that substrate: a lexer, a recursive-descent
//! parser and a semantic checker for the language subset the evaluation
//! kernels need:
//!
//! * `PROGRAM` / `SUBROUTINE` units with parameters,
//! * `INTEGER` / `REAL` / `LOGICAL` declarations, `DIMENSION`,
//!   `PARAMETER`, `COMMON`, `EQUIVALENCE`,
//! * assignments, arithmetic/relational/logical expressions with the
//!   classic `.GT.`-style operators, intrinsic calls,
//! * `DO` loops (both `DO label …`/`label CONTINUE` and `DO …`/`ENDDO`),
//! * block `IF`/`ELSE IF`/`ELSE`/`ENDIF` and logical `IF`,
//! * `GOTO`, statement labels, `CALL`, `RETURN`, `CONTINUE`, `STOP`.
//!
//! Input is accepted in a liberal free-form style: column rules are not
//! enforced, `c`/`C`/`*` in column 1 and `!` anywhere start comments,
//! keywords are case-insensitive, and statements end at end of line.

#![warn(missing_docs)]

mod ast;
mod lexer;
mod parser;
pub mod printer;
mod sema;

pub use ast::{
    walk_stmts, BinOp, DimBound, Expr, LValue, Program, Routine, RoutineKind, Stmt, StmtKind, Ty,
    UnOp,
};
pub use lexer::{lex, LexError, Token, TokenKind};
pub use parser::{parse_program, ParseError};
pub use printer::{print_program, print_program_annotated, strip_lines, Annotator};
pub use sema::{
    analyze, implicit_ty, ArrayInfo, ProgramSema, SemaError, StorageClass, StorageLoc, SymbolKind,
    SymbolTable, ELEM_BYTES, INTRINSICS,
};
