//! Lowering: each routine, once per [`crate::Machine`], into the resolved
//! form the interpreter executes (crate docs, "Resolve once, then run").
//!
//! Every name is looked up here and never again: scalars become slots of a
//! frame's scalar vector and arrays slots of its array vector, PARAMETERs
//! and constant subexpressions are folded, intrinsics become
//! [`Intrinsic`]s, CALL targets routine indices, GOTO labels per-block
//! label tables and DO statements dense loop ids.
//!
//! Lowering never fails. Whatever can go wrong at run time — an unknown
//! routine or intrinsic, an unbound scalar, a subscript out of bounds, a
//! division by zero in a PARAMETER — is lowered into a node that raises
//! that error when, and only if, execution reaches it.

use crate::exec::{apply_binop, apply_intrinsic, apply_unop};
use crate::memory::Value;
use fortran::{BinOp, DimBound, Expr, LValue, Program, ProgramSema, StmtKind};
use fortran::{SymbolKind, SymbolTable, Ty, UnOp};

/// Index into a frame's scalar or array vector.
pub(crate) type Slot = usize;

/// A program in resolved form.
pub(crate) struct Code<'a> {
    pub routines: Vec<Routine<'a>>,
    /// The PROGRAM unit.
    pub main: Option<usize>,
    /// Every DO statement, by loop id.
    pub loops: Vec<LoopSite<'a>>,
    /// Distinct COMMON array names; a run keeps one storage cell for each.
    pub commons: usize,
}

/// Where a DO statement is: the key a [`crate::ParallelPlan`] or a hook
/// names it by.
pub(crate) struct LoopSite<'a> {
    pub routine: usize,
    pub var: &'a str,
    pub line: u32,
}

pub(crate) struct Routine<'a> {
    pub name: &'a str,
    /// Scalar slot names: every name the routine's code mentions, since a
    /// store or a copy-back can bind any of them.
    pub scalars: Vec<&'a str>,
    /// A frame's scalars at entry: the type's zero where the symbol table
    /// declares a scalar, unbound otherwise.
    pub scalar_init: Vec<Option<Value>>,
    /// Array slot names (declared arrays and dummies), in name order: the
    /// tracer registers a loop routine's arrays in that order.
    pub arrays: Vec<&'a str>,
    pub params: Vec<Param>,
    /// Declared arrays in declaration order, allocated at entry unless a
    /// dummy binding already holds the slot.
    pub locals: Vec<Local<'a>>,
    pub body: Block<'a>,
}

impl Routine<'_> {
    pub fn scalar_slot(&self, name: &str) -> Option<Slot> {
        self.scalars.iter().position(|n| *n == name)
    }

    pub fn array_slot(&self, name: &str) -> Option<Slot> {
        self.arrays.binary_search(&name).ok()
    }
}

/// A dummy argument: bound to a scalar or (by an array actual) an array.
pub(crate) struct Param {
    pub scalar: Slot,
    pub array: Slot,
    /// Declarators of a dummy declared as an array: it views the actual
    /// through them, and a non-array actual is an error.
    pub dims: Option<Vec<Dim>>,
}

pub(crate) struct Local<'a> {
    pub name: &'a str,
    pub array: Slot,
    pub ty: Ty,
    pub dims: Vec<Dim>,
    /// COMMON arrays share storage across routines by name.
    pub common: Option<usize>,
}

/// An array declarator, sized at entry from the frame's integer scalars.
pub(crate) enum Dim {
    Upper(Size),
    Both(Size, Size),
    Assumed,
}

/// A declarator bound: integer literals and scalars under `+ - *` and
/// negation; anything else cannot size an array.
pub(crate) enum Size {
    Int(i64),
    Scalar(Slot),
    Bin(BinOp, Box<Size>, Box<Size>),
    Neg(Box<Size>),
    Unknown,
}

pub(crate) struct Block<'a> {
    pub stmts: Vec<Stmt<'a>>,
    /// `(label, statement index)`, first occurrence of each label.
    pub labels: Vec<(u32, usize)>,
}

impl Block<'_> {
    pub fn label(&self, label: u32) -> Option<usize> {
        self.labels
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, k)| *k)
    }
}

pub(crate) struct Stmt<'a> {
    pub line: u32,
    pub kind: Kind<'a>,
}

/// Statement kinds of the resolved form.
pub(crate) enum Kind<'a> {
    /// `scalar = rhs`, converted to the scalar's type.
    Assign {
        slot: Slot,
        ty: Ty,
        rhs: Ex<'a>,
    },
    /// `name(subs) = rhs`; `array` is `None` when `name` can never be one.
    Store {
        array: Option<Slot>,
        name: &'a str,
        subs: Vec<Ex<'a>>,
        rhs: Ex<'a>,
    },
    If {
        cond: Ex<'a>,
        then_body: Block<'a>,
        else_body: Block<'a>,
    },
    LogicalIf(Ex<'a>, Box<Stmt<'a>>),
    Do(Box<Do<'a>>),
    Goto(u32),
    Call(Box<Call<'a>>),
    Return,
    Continue,
    Stop,
}

pub(crate) struct Do<'a> {
    pub id: usize,
    pub var: Slot,
    pub lo: Ex<'a>,
    pub hi: Ex<'a>,
    pub step: Option<Ex<'a>>,
    pub body: Block<'a>,
}

pub(crate) struct Call<'a> {
    /// The name as written, for errors.
    pub name: &'a str,
    pub callee: Option<usize>,
    pub args: Vec<Arg<'a>>,
}

pub(crate) struct Arg<'a> {
    pub e: Ex<'a>,
    /// For a variable actual, its `(scalar, array)` slots: it is passed as
    /// an array when that slot is bound, otherwise by value with copy-back.
    pub var: Option<(Slot, Option<Slot>)>,
}

/// Expressions of the resolved form.
pub(crate) enum Ex<'a> {
    /// A value and what evaluating it costs: 1 for a literal, 1 plus its
    /// definition's cost for a PARAMETER, every node for a folded subtree.
    Const(Value, u64),
    Scalar(Slot, &'a str),
    /// A PARAMETER whose definition does not fold (it reads a variable or
    /// fails): one operation, then the definition.
    Param(Box<Ex<'a>>),
    /// A PARAMETER defined through itself: its evaluation never ends, so
    /// it exhausts the operation budget.
    Cycle,
    /// `name(args)`: an element of the array in `array` when that slot is
    /// bound, otherwise the intrinsic `f`.
    Index {
        array: Option<Slot>,
        name: &'a str,
        f: Intrinsic,
        args: Vec<Ex<'a>>,
    },
    Un(UnOp, Box<Ex<'a>>),
    Bin(BinOp, Box<Ex<'a>>, Box<Ex<'a>>),
}

/// The intrinsics the interpreter knows, by meaning.
#[derive(Clone, Copy)]
pub(crate) enum Intrinsic {
    /// `max`, `max0`: INTEGER unless an argument is REAL.
    Max,
    Amax1,
    /// `min`, `min0`.
    Min,
    Amin1,
    Mod,
    Abs,
    Iabs,
    /// A REAL function of one argument: `sqrt`, `exp`, `log`, the
    /// trigonometric ones, and the conversions `float`/`real`/`dble`.
    Real(fn(f64) -> f64),
    Int,
    Nint,
    Sign,
    Dim,
    Unknown,
}

impl Intrinsic {
    fn of(name: &str) -> Intrinsic {
        use Intrinsic::*;
        match name {
            "max" | "max0" => Max,
            "amax1" => Amax1,
            "min" | "min0" => Min,
            "amin1" => Amin1,
            "mod" => Mod,
            "abs" => Abs,
            "iabs" => Iabs,
            "sqrt" => Real(f64::sqrt),
            "exp" => Real(f64::exp),
            "log" => Real(f64::ln),
            "sin" => Real(f64::sin),
            "cos" => Real(f64::cos),
            "tan" => Real(f64::tan),
            "atan" => Real(f64::atan),
            "float" | "real" | "dble" => Real(|x| x),
            "int" => Int,
            "nint" => Nint,
            "sign" => Sign,
            "dim" => Dim,
            _ => Unknown,
        }
    }
}

/// Lowers every routine of `program`; `sema` must be its analysis.
pub(crate) fn lower<'a>(program: &'a Program, sema: &'a ProgramSema) -> Code<'a> {
    let (mut loops, mut commons) = (Vec::new(), Vec::new());
    let routines = program
        .routines
        .iter()
        .enumerate()
        .map(|(index, r)| {
            // Declared arrays and dummies, in name order.
            let mut arrays: Vec<&'a str> = r.arrays.iter().map(|(n, _)| n.as_str()).collect();
            arrays.extend(r.params.iter().map(String::as_str));
            arrays.sort_unstable();
            arrays.dedup();
            Lower {
                program,
                table: sema
                    .tables
                    .get(&r.name)
                    .expect("sema analyzed every routine"),
                index,
                loops: &mut loops,
                commons: &mut commons,
                scalars: Vec::new(),
                arrays,
                expanding: Vec::new(),
                folded: Vec::new(),
            }
            .routine(r)
        })
        .collect();
    Code {
        routines,
        main: program
            .routines
            .iter()
            .position(|r| r.kind == fortran::RoutineKind::Program),
        loops,
        commons: commons.len(),
    }
}

/// The lowering of one routine.
struct Lower<'a, 'p> {
    program: &'a Program,
    table: &'a SymbolTable,
    index: usize,
    /// Program-wide: every DO statement, and COMMON array names by storage
    /// cell.
    loops: &'p mut Vec<LoopSite<'a>>,
    commons: &'p mut Vec<&'a str>,
    scalars: Vec<&'a str>,
    arrays: Vec<&'a str>,
    /// PARAMETERs being expanded (cycle detection), and those folded.
    expanding: Vec<&'a str>,
    folded: Vec<(&'a str, Value, u64)>,
}

/// The position of `name` in `names`, appended on first sight.
fn intern<'a>(names: &mut Vec<&'a str>, name: &'a str) -> usize {
    names.iter().position(|n| *n == name).unwrap_or_else(|| {
        names.push(name);
        names.len() - 1
    })
}

impl<'a> Lower<'a, '_> {
    fn routine(mut self, r: &'a fortran::Routine) -> Routine<'a> {
        let table = self.table;
        let params = r
            .params
            .iter()
            .map(|p| Param {
                scalar: self.scalar(p),
                array: self.array(p).expect("dummies have array slots"),
                dims: table.array(p).map(|info| self.dims(&info.dims)),
            })
            .collect();
        let locals = r
            .arrays
            .iter()
            .map(|(name, decl)| {
                let info = table.array(name);
                Local {
                    name,
                    array: self.array(name).expect("declared arrays have slots"),
                    ty: info.map_or(Ty::Real, |i| i.ty),
                    dims: self.dims(decl),
                    common: info
                        .and_then(|i| i.common.as_ref())
                        .map(|_| intern(self.commons, name)),
                }
            })
            .collect();
        let body = self.block(&r.body);
        let scalar_init = self
            .scalars
            .iter()
            .map(|n| match table.get(n) {
                Some(SymbolKind::Scalar(ty)) => Some(Value::zero(*ty)),
                _ => None,
            })
            .collect();
        Routine {
            name: &r.name,
            scalars: self.scalars,
            scalar_init,
            arrays: self.arrays,
            params,
            locals,
            body,
        }
    }

    /// The scalar slot of `name`, made on first mention.
    fn scalar(&mut self, name: &'a str) -> Slot {
        intern(&mut self.scalars, name)
    }

    fn array(&self, name: &str) -> Option<Slot> {
        self.arrays.binary_search(&name).ok()
    }

    fn dims(&mut self, decl: &'a [DimBound]) -> Vec<Dim> {
        decl.iter()
            .map(|d| match d {
                DimBound::Upper(e) => Dim::Upper(self.size(e)),
                DimBound::Both(l, u) => Dim::Both(self.size(l), self.size(u)),
                DimBound::Assumed => Dim::Assumed,
            })
            .collect()
    }

    fn size(&mut self, e: &'a Expr) -> Size {
        match e {
            Expr::Int(v) => Size::Int(*v),
            Expr::Var(n) => Size::Scalar(self.scalar(n)),
            Expr::Bin(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul), a, b) => {
                Size::Bin(*op, Box::new(self.size(a)), Box::new(self.size(b)))
            }
            Expr::Un(UnOp::Neg, a) => Size::Neg(Box::new(self.size(a))),
            _ => Size::Unknown,
        }
    }

    fn block(&mut self, body: &'a [fortran::Stmt]) -> Block<'a> {
        let mut labels: Vec<(u32, usize)> = Vec::new();
        for (k, s) in body.iter().enumerate() {
            if let Some(l) = s.label {
                if !labels.iter().any(|(x, _)| *x == l) {
                    labels.push((l, k));
                }
            }
        }
        Block {
            stmts: body.iter().map(|s| self.stmt(s)).collect(),
            labels,
        }
    }

    fn stmt(&mut self, s: &'a fortran::Stmt) -> Stmt<'a> {
        let kind = match &s.kind {
            StmtKind::Assign(LValue::Var(n), rhs) => Kind::Assign {
                slot: self.scalar(n),
                ty: match self.table.get(n) {
                    Some(SymbolKind::Scalar(ty) | SymbolKind::Constant(_, ty)) => *ty,
                    _ => Ty::Real,
                },
                rhs: self.expr(rhs),
            },
            StmtKind::Assign(LValue::Element(name, subs), rhs) => Kind::Store {
                rhs: self.expr(rhs),
                array: self.array(name),
                name,
                subs: subs.iter().map(|e| self.expr(e)).collect(),
            },
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => Kind::If {
                cond: self.expr(cond),
                then_body: self.block(then_body),
                else_body: self.block(else_body),
            },
            StmtKind::LogicalIf(cond, inner) => {
                Kind::LogicalIf(self.expr(cond), Box::new(self.stmt(inner)))
            }
            StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let id = self.loops.len();
                self.loops.push(LoopSite {
                    routine: self.index,
                    var,
                    line: s.line,
                });
                Kind::Do(Box::new(Do {
                    id,
                    var: self.scalar(var),
                    lo: self.expr(lo),
                    hi: self.expr(hi),
                    step: step.as_ref().map(|e| self.expr(e)),
                    body: self.block(body),
                }))
            }
            StmtKind::Goto(l) => Kind::Goto(*l),
            StmtKind::Call(name, args) => {
                let lname = name.to_ascii_lowercase();
                Kind::Call(Box::new(Call {
                    name,
                    callee: self.program.routines.iter().position(|r| r.name == lname),
                    args: args
                        .iter()
                        .map(|a| Arg {
                            var: match a {
                                Expr::Var(n) => Some((self.scalar(n), self.array(n))),
                                _ => None,
                            },
                            e: self.expr(a),
                        })
                        .collect(),
                }))
            }
            StmtKind::Return => Kind::Return,
            StmtKind::Continue => Kind::Continue,
            StmtKind::Stop => Kind::Stop,
        };
        Stmt { line: s.line, kind }
    }

    /// Lowers an expression, folding every subtree whose operands are
    /// constants into one [`Ex::Const`] that charges all of its nodes —
    /// unless evaluating it fails, which then happens at run time.
    fn expr(&mut self, e: &'a Expr) -> Ex<'a> {
        match e {
            Expr::Int(v) => Ex::Const(Value::Int(*v), 1),
            Expr::Real(v) => Ex::Const(Value::Real(*v), 1),
            Expr::Logical(v) => Ex::Const(Value::Logical(*v), 1),
            Expr::Var(n) => match self.table.constant(n) {
                None => Ex::Scalar(self.scalar(n), n),
                Some(_) if self.expanding.contains(&n.as_str()) => Ex::Cycle,
                Some(def) => {
                    if let Some(&(_, v, cost)) = self.folded.iter().find(|(c, ..)| c == n) {
                        return Ex::Const(v, cost);
                    }
                    self.expanding.push(n);
                    let def = self.expr(def);
                    self.expanding.pop();
                    match def {
                        Ex::Const(v, cost) => {
                            let cost = cost.saturating_add(1);
                            self.folded.push((n, v, cost));
                            Ex::Const(v, cost)
                        }
                        def => Ex::Param(Box::new(def)),
                    }
                }
            },
            Expr::Index(name, subs) => {
                let args: Vec<Ex<'a>> = subs.iter().map(|a| self.expr(a)).collect();
                let f = Intrinsic::of(name);
                let array = self.array(name);
                if array.is_none() {
                    if let Some((vals, cost)) = consts(&args) {
                        if let Ok(v) = apply_intrinsic(f, name, &vals, "") {
                            return Ex::Const(v, cost.saturating_add(1));
                        }
                    }
                }
                Ex::Index {
                    array,
                    name,
                    f,
                    args,
                }
            }
            Expr::Un(op, a) => match self.expr(a) {
                Ex::Const(v, cost) => match apply_unop(*op, v, "") {
                    Ok(v) => Ex::Const(v, cost.saturating_add(1)),
                    Err(_) => Ex::Un(*op, Box::new(Ex::Const(v, cost))),
                },
                a => Ex::Un(*op, Box::new(a)),
            },
            Expr::Bin(op, a, b) => match (self.expr(a), self.expr(b)) {
                (Ex::Const(x, cx), Ex::Const(y, cy)) => match apply_binop(*op, x, y, "") {
                    Ok(v) => Ex::Const(v, cx.saturating_add(cy).saturating_add(1)),
                    Err(_) => Ex::Bin(*op, Box::new(Ex::Const(x, cx)), Box::new(Ex::Const(y, cy))),
                },
                (a, b) => Ex::Bin(*op, Box::new(a), Box::new(b)),
            },
        }
    }
}

/// The values of an all-constant argument list and their summed cost.
fn consts(args: &[Ex]) -> Option<(Vec<Value>, u64)> {
    let mut cost = 0u64;
    let mut vals = Vec::with_capacity(args.len());
    for a in args {
        match a {
            Ex::Const(v, c) => {
                vals.push(*v);
                cost = cost.saturating_add(*c);
            }
            _ => return None,
        }
    }
    Some((vals, cost))
}
