//! Semantic analysis: symbol tables, implicit typing, array shapes, call
//! graph construction and recursion detection.

use crate::ast::*;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Fortran intrinsics recognized in expressions.
pub const INTRINSICS: &[&str] = &[
    "max", "min", "max0", "min0", "amax1", "amin1", "mod", "abs", "iabs", "sqrt", "exp", "log",
    "sin", "cos", "tan", "atan", "float", "real", "int", "nint", "dble", "sign", "dim",
];

/// What a name means inside a routine.
#[derive(Clone, PartialEq, Debug)]
pub enum SymbolKind {
    /// A scalar of the given type.
    Scalar(Ty),
    /// An array.
    Array(ArrayInfo),
    /// A `PARAMETER` constant.
    Constant(Expr, Ty),
}

/// Shape information for an array.
#[derive(Clone, PartialEq, Debug)]
pub struct ArrayInfo {
    /// Element type.
    pub ty: Ty,
    /// Declared dimension bounds.
    pub dims: Vec<DimBound>,
    /// `true` iff the array is a dummy parameter of the routine.
    pub is_param: bool,
    /// The COMMON block the array lives in, if any.
    pub common: Option<String>,
}

impl ArrayInfo {
    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }
}

/// Assumed element size for storage layout: every supported type
/// (INTEGER/REAL/LOGICAL) occupies one 4-byte storage unit, the classic
/// F77 storage-association model.
pub const ELEM_BYTES: i64 = 4;

/// The storage class a name's bytes belong to. Two names can only share
/// memory when they share a class.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum StorageClass {
    /// Bytes of the named COMMON block (offsets relative to block start).
    Common(String),
    /// A local EQUIVALENCE class, keyed by its lexicographically smallest
    /// member (offsets relative to the class's lowest address).
    Equiv(String),
}

impl fmt::Display for StorageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageClass::Common(b) => write!(f, "COMMON /{b}/"),
            StorageClass::Equiv(n) => write!(f, "EQUIVALENCE({n})"),
        }
    }
}

/// Where a name's storage lives: `(class, byte offset, byte extent)`.
/// `None` components mean "not statically known" and must be treated as
/// possibly overlapping anything in the same class. Names that never
/// appear in a COMMON or EQUIVALENCE statement have no [`StorageLoc`] —
/// their storage is private by the Fortran rules.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StorageLoc {
    /// The storage class.
    pub class: StorageClass,
    /// Byte offset of the name's first storage unit within the class.
    pub offset: Option<i64>,
    /// Total bytes the name occupies (arrays: element count × 4).
    pub extent: Option<i64>,
}

impl StorageLoc {
    /// Can the byte intervals of `self` and `other` overlap? Distinct
    /// classes never overlap; unknown offsets or extents within one class
    /// cannot be disproved and count as overlapping.
    pub fn may_overlap(&self, other: &StorageLoc) -> bool {
        if self.class != other.class {
            return false;
        }
        match (self.offset, self.extent, other.offset, other.extent) {
            (Some(ao), Some(ae), Some(bo), Some(be)) => ao < bo + be && bo < ao + ae,
            _ => true,
        }
    }
}

/// Per-routine symbol table.
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    symbols: BTreeMap<String, SymbolKind>,
    /// Scalars in COMMON blocks: name → block.
    scalar_commons: BTreeMap<String, String>,
    /// Storage association: name → location, for every name that appears
    /// in a COMMON block or EQUIVALENCE group.
    storage: BTreeMap<String, StorageLoc>,
}

impl SymbolTable {
    /// Looks up a name.
    pub fn get(&self, name: &str) -> Option<&SymbolKind> {
        self.symbols.get(name)
    }

    /// `true` iff `name` is a declared array.
    pub fn is_array(&self, name: &str) -> bool {
        matches!(self.symbols.get(name), Some(SymbolKind::Array(_)))
    }

    /// Array info for a declared array.
    pub fn array(&self, name: &str) -> Option<&ArrayInfo> {
        match self.symbols.get(name) {
            Some(SymbolKind::Array(a)) => Some(a),
            _ => None,
        }
    }

    /// Constant-evaluated `(lo, hi)` bounds per dimension of a declared
    /// array; `None` components are symbolic or assumed-size. This is
    /// the declared-shape surface the value-range lint rules (P008)
    /// check proved subscript ranges against.
    pub fn declared_bounds(&self, name: &str) -> Option<Vec<(Option<i64>, Option<i64>)>> {
        let info = self.array(name)?;
        // PARAMETER constants may reference one another in any order;
        // iterate to a fixed point (terminates: each pass only adds).
        let mut consts: BTreeMap<String, i64> = BTreeMap::new();
        loop {
            let mut changed = false;
            for (n, k) in &self.symbols {
                if let SymbolKind::Constant(e, _) = k {
                    if !consts.contains_key(n) {
                        if let Some(v) = const_eval(e, &consts) {
                            consts.insert(n.clone(), v);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Some(
            info.dims
                .iter()
                .map(|d| match d {
                    DimBound::Upper(e) => (Some(1), const_eval(e, &consts)),
                    DimBound::Both(l, h) => (const_eval(l, &consts), const_eval(h, &consts)),
                    DimBound::Assumed => (Some(1), None),
                })
                .collect(),
        )
    }

    /// The `PARAMETER` value of a constant.
    pub fn constant(&self, name: &str) -> Option<&Expr> {
        match self.symbols.get(name) {
            Some(SymbolKind::Constant(e, _)) => Some(e),
            _ => None,
        }
    }

    /// The type of a scalar (declared or implicit).
    pub fn scalar_ty(&self, name: &str) -> Option<Ty> {
        match self.symbols.get(name) {
            Some(SymbolKind::Scalar(t)) => Some(*t),
            Some(SymbolKind::Constant(_, t)) => Some(*t),
            _ => None,
        }
    }

    /// The COMMON block a name belongs to (scalar or array).
    pub fn common_block(&self, name: &str) -> Option<&str> {
        if let Some(SymbolKind::Array(a)) = self.symbols.get(name) {
            return a.common.as_deref();
        }
        self.scalar_commons.get(name).map(String::as_str)
    }

    /// Iterates all `(name, kind)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SymbolKind)> {
        self.symbols.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The storage location of a name, when it is storage-associated.
    pub fn storage(&self, name: &str) -> Option<&StorageLoc> {
        self.storage.get(name)
    }

    /// Iterates all storage-associated names.
    pub fn storage_iter(&self) -> impl Iterator<Item = (&str, &StorageLoc)> {
        self.storage.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Can two names share any storage bytes? `false` whenever either has
    /// no storage association (private storage) or the classes differ.
    pub fn storage_overlaps(&self, a: &str, b: &str) -> bool {
        match (self.storage.get(a), self.storage.get(b)) {
            (Some(la), Some(lb)) => la.may_overlap(lb),
            _ => false,
        }
    }

    /// Every *other* name whose storage may overlap `name`'s. Empty for
    /// names with private storage. Deterministically ordered.
    pub fn storage_partners(&self, name: &str) -> Vec<&str> {
        let Some(loc) = self.storage.get(name) else {
            return Vec::new();
        };
        self.storage
            .iter()
            .filter(|(n, l)| n.as_str() != name && loc.may_overlap(l))
            .map(|(n, _)| n.as_str())
            .collect()
    }

    fn insert(&mut self, name: String, kind: SymbolKind) {
        self.symbols.insert(name, kind);
    }
}

/// Fortran implicit typing: names starting i–n are INTEGER, others REAL.
pub fn implicit_ty(name: &str) -> Ty {
    match name.chars().next() {
        Some(c @ 'i'..='n') if c.is_ascii_lowercase() => Ty::Integer,
        _ => Ty::Real,
    }
}

/// A semantic error.
#[derive(Clone, PartialEq, Debug)]
pub struct SemaError {
    /// Description.
    pub message: String,
    /// Routine in which the error was detected.
    pub routine: String,
}

impl fmt::Display for SemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "in {}: {}", self.routine, self.message)
    }
}

impl std::error::Error for SemaError {}

/// The result of semantic analysis.
#[derive(Clone, Debug, Default)]
pub struct ProgramSema {
    /// Symbol table per routine name.
    pub tables: BTreeMap<String, SymbolTable>,
    /// Call graph: routine → distinct callees.
    pub call_graph: BTreeMap<String, BTreeSet<String>>,
    /// Routines in reverse topological (callee-first) order.
    pub bottom_up: Vec<String>,
    /// COMMON blocks reachable from each routine: those it declares plus
    /// those of every transitive callee. This is what a CALL can touch
    /// through global storage, so conservative call translation only
    /// needs to clobber these — not every block the *caller* sees.
    pub common_reach: BTreeMap<String, BTreeSet<String>>,
}

/// Builds symbol tables and the call graph; rejects recursion, unknown
/// callees, and arity mismatches (mirroring the paper's assumptions:
/// acyclic call graphs).
pub fn analyze(program: &Program) -> Result<ProgramSema, SemaError> {
    let _span = trace::span("sema_tables");
    let mut sema = ProgramSema::default();
    for r in &program.routines {
        let table = build_table(r)?;
        sema.tables.insert(r.name.clone(), table);
    }
    // Call graph + checks.
    for r in &program.routines {
        let mut callees = BTreeSet::new();
        let mut first_err = None;
        walk_stmts(&r.body, &mut |s| {
            let StmtKind::Call(name, args) = &s.kind else {
                return;
            };
            callees.insert(name.clone());
            if first_err.is_some() {
                return;
            }
            first_err = match program.routine(name) {
                Some(callee) if callee.params.len() != args.len() => Some(SemaError {
                    message: format!(
                        "call to {name} passes {} args, expected {}",
                        args.len(),
                        callee.params.len()
                    ),
                    routine: r.name.clone(),
                }),
                Some(_) => None,
                None => Some(SemaError {
                    message: format!("call to unknown subroutine {name}"),
                    routine: r.name.clone(),
                }),
            };
        });
        if let Some(e) = first_err {
            return Err(e);
        }
        sema.call_graph.insert(r.name.clone(), callees);
    }
    // Topological order, callee-first; detects recursion.
    let mut order = Vec::new();
    let mut state: BTreeMap<&str, u8> = BTreeMap::new(); // 0 unvisited 1 active 2 done
    fn visit<'a>(
        n: &'a str,
        g: &'a BTreeMap<String, BTreeSet<String>>,
        state: &mut BTreeMap<&'a str, u8>,
        order: &mut Vec<String>,
    ) -> Result<(), SemaError> {
        match state.get(n).copied().unwrap_or(0) {
            1 => {
                return Err(SemaError {
                    message: "recursive call graph (unsupported)".into(),
                    routine: n.to_string(),
                })
            }
            2 => return Ok(()),
            _ => {}
        }
        state.insert(n, 1);
        if let Some(cs) = g.get(n) {
            for c in cs {
                visit(c, g, state, order)?;
            }
        }
        state.insert(n, 2);
        order.push(n.to_string());
        Ok(())
    }
    for r in &program.routines {
        visit(&r.name, &sema.call_graph, &mut state, &mut order)?;
    }
    sema.bottom_up = order;
    // Reachable COMMON blocks, callee-first so callee sets are complete.
    for name in &sema.bottom_up {
        let mut blocks: BTreeSet<String> = program
            .routine(name)
            .map(|r| r.commons.iter().map(|(b, _)| b.clone()).collect())
            .unwrap_or_default();
        if let Some(callees) = sema.call_graph.get(name) {
            for c in callees {
                if let Some(sub) = sema.common_reach.get(c) {
                    blocks.extend(sub.iter().cloned());
                }
            }
        }
        sema.common_reach.insert(name.clone(), blocks);
    }
    Ok(sema)
}

fn build_table(r: &Routine) -> Result<SymbolTable, SemaError> {
    let mut t = SymbolTable::default();
    let declared_ty: BTreeMap<&str, Ty> = r.types.iter().map(|(n, ty)| (n.as_str(), *ty)).collect();
    // COMMON membership.
    let mut common_of: BTreeMap<&str, &str> = BTreeMap::new();
    for (block, names) in &r.commons {
        for n in names {
            common_of.insert(n.as_str(), block.as_str());
        }
    }
    // Arrays.
    for (name, dims) in &r.arrays {
        let ty = declared_ty
            .get(name.as_str())
            .copied()
            .unwrap_or_else(|| implicit_ty(name));
        if t.is_array(name) {
            return Err(SemaError {
                message: format!("array {name} declared twice"),
                routine: r.name.clone(),
            });
        }
        t.insert(
            name.clone(),
            SymbolKind::Array(ArrayInfo {
                ty,
                dims: dims.clone(),
                is_param: r.params.contains(name),
                common: common_of.get(name.as_str()).map(|s| s.to_string()),
            }),
        );
    }
    // Parameters (constants).
    for (name, value) in &r.parameters {
        let ty = declared_ty
            .get(name.as_str())
            .copied()
            .unwrap_or_else(|| implicit_ty(name));
        t.insert(name.clone(), SymbolKind::Constant(value.clone(), ty));
    }
    // Declared scalars.
    for (name, ty) in &r.types {
        if t.get(name).is_none() {
            t.insert(name.clone(), SymbolKind::Scalar(*ty));
        }
    }
    // Dummy params and everything referenced get implicit scalar entries.
    for p in &r.params {
        if t.get(p).is_none() {
            t.insert(p.clone(), SymbolKind::Scalar(implicit_ty(p)));
        }
    }
    // Every identifier the executable statements mention, DO indices
    // included.
    let mut mentioned = BTreeSet::new();
    walk_stmts(&r.body, &mut |s| {
        match &s.kind {
            StmtKind::Assign(lhs, _) => {
                mentioned.insert(lhs.name().to_string());
            }
            StmtKind::Do { var, .. } => {
                mentioned.insert(var.clone());
            }
            _ => {}
        }
        s.exprs(&mut |e| {
            e.walk(&mut |x| {
                if let Expr::Var(n) | Expr::Index(n, _) = x {
                    mentioned.insert(n.clone());
                }
            })
        });
    });
    for name in mentioned {
        if t.get(&name).is_none() && !INTRINSICS.contains(&name.as_str()) {
            t.insert(name.clone(), SymbolKind::Scalar(implicit_ty(&name)));
        }
    }
    // COMMON scalars.
    for (block, names) in &r.commons {
        for n in names {
            if !t.is_array(n) {
                t.scalar_commons.insert(n.clone(), block.clone());
                if t.get(n).is_none() {
                    t.insert(n.clone(), SymbolKind::Scalar(implicit_ty(n)));
                }
            }
        }
    }
    // Names appearing only inside EQUIVALENCE groups still need entries.
    for group in &r.equivalences {
        for (name, _) in group {
            if t.get(name).is_none() {
                t.insert(name.clone(), SymbolKind::Scalar(implicit_ty(name)));
            }
        }
    }
    compute_storage(r, &mut t)?;
    Ok(t)
}

// ---- storage association ------------------------------------------------
//
// Union-find with relative byte offsets: COMMON blocks lay their members
// out at cumulative offsets from the block start, and each EQUIVALENCE
// group pins the indicated elements of its items to one address. A `None`
// offset is sticky — once any constraint in a chain is non-constant the
// placement is unknown and overlap can no longer be disproved.

struct OffsetUf {
    parent: Vec<usize>,
    /// Offset of node start relative to parent start.
    off: Vec<Option<i64>>,
}

impl OffsetUf {
    fn new(n: usize) -> OffsetUf {
        OffsetUf {
            parent: (0..n).collect(),
            off: vec![Some(0); n],
        }
    }

    /// Returns `(root, offset of i's start relative to root's start)`,
    /// with path compression.
    fn find(&mut self, i: usize) -> (usize, Option<i64>) {
        if self.parent[i] == i {
            return (i, Some(0));
        }
        let (root, parent_off) = self.find(self.parent[i]);
        let o = match (self.off[i], parent_off) {
            (Some(a), Some(b)) => Some(a + b),
            _ => None,
        };
        self.parent[i] = root;
        self.off[i] = o;
        (root, o)
    }

    /// Records `start(a) = start(b) + d` (`d = None`: same class, unknown
    /// relative placement).
    fn union(&mut self, a: usize, b: usize, d: Option<i64>) {
        let (ra, oa) = self.find(a);
        let (rb, ob) = self.find(b);
        if ra == rb {
            return; // contradictory EQUIVALENCE chains: first constraint wins
        }
        self.parent[ra] = rb;
        self.off[ra] = match (oa, ob, d) {
            (Some(x), Some(y), Some(z)) => Some(y + z - x),
            _ => None,
        };
    }
}

/// Constant-folds an expression over the routine's PARAMETER constants.
fn const_eval(e: &Expr, consts: &BTreeMap<String, i64>) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(*v),
        Expr::Var(n) => consts.get(n).copied(),
        Expr::Un(UnOp::Neg, a) => const_eval(a, consts)?.checked_neg(),
        Expr::Bin(op, a, b) => {
            let x = const_eval(a, consts)?;
            let y = const_eval(b, consts)?;
            match op {
                BinOp::Add => x.checked_add(y),
                BinOp::Sub => x.checked_sub(y),
                BinOp::Mul => x.checked_mul(y),
                BinOp::Div => x.checked_div(y),
                BinOp::Pow if (0..=31).contains(&y) => x.checked_pow(y as u32),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Per-dimension `(lower bound, length)`; `None` components are unknown.
fn dim_shape(dims: &[DimBound], consts: &BTreeMap<String, i64>) -> Vec<(Option<i64>, Option<i64>)> {
    dims.iter()
        .map(|d| match d {
            DimBound::Upper(e) => (Some(1), const_eval(e, consts)),
            DimBound::Both(l, h) => {
                let lo = const_eval(l, consts);
                let hi = const_eval(h, consts);
                let len = match (lo, hi) {
                    (Some(a), Some(b)) => Some(b - a + 1),
                    _ => None,
                };
                (lo, len)
            }
            DimBound::Assumed => (Some(1), None),
        })
        .collect()
}

/// Bytes a name occupies: scalars one unit, arrays element-count × unit.
fn byte_extent(t: &SymbolTable, name: &str, consts: &BTreeMap<String, i64>) -> Option<i64> {
    match t.get(name) {
        Some(SymbolKind::Array(info)) => {
            let mut total = 1i64;
            for (_, len) in dim_shape(&info.dims, consts) {
                total = total.checked_mul(len?)?;
            }
            total.checked_mul(ELEM_BYTES)
        }
        Some(SymbolKind::Scalar(_)) => Some(ELEM_BYTES),
        _ => None,
    }
}

/// Byte offset of the element an EQUIVALENCE item designates, relative to
/// the name's own first storage unit. A bare name anchors at offset 0; a
/// subscripted item linearizes column-major. A single subscript on a
/// multi-dimensional array is the F77 linearized element index.
fn item_offset(
    t: &SymbolTable,
    name: &str,
    subs: &[Expr],
    consts: &BTreeMap<String, i64>,
) -> Option<i64> {
    if subs.is_empty() {
        return Some(0);
    }
    let Some(SymbolKind::Array(info)) = t.get(name) else {
        return None; // subscripted scalar: malformed, treat as unknown
    };
    let shape = dim_shape(&info.dims, consts);
    let elem = if subs.len() == shape.len() {
        let mut idx = 0i64;
        let mut stride = 1i64;
        for (s, (lo, len)) in subs.iter().zip(&shape) {
            let sv = const_eval(s, consts)?;
            idx = idx.checked_add(sv.checked_sub((*lo)?)?.checked_mul(stride)?)?;
            if let Some(l) = len {
                stride = stride.checked_mul(*l)?;
            } else if subs.len() > 1 {
                return None;
            }
        }
        idx
    } else if subs.len() == 1 {
        const_eval(&subs[0], consts)?.checked_sub(shape.first().and_then(|(lo, _)| *lo)?)?
    } else {
        return None;
    };
    elem.checked_mul(ELEM_BYTES)
}

/// Computes [`StorageLoc`]s: COMMON layouts first (members at cumulative
/// byte offsets), then EQUIVALENCE unions. Only classes with storage
/// association are recorded; everything else keeps private storage.
fn compute_storage(r: &Routine, t: &mut SymbolTable) -> Result<(), SemaError> {
    if r.commons.is_empty() && r.equivalences.is_empty() {
        return Ok(());
    }
    let consts: BTreeMap<String, i64> = {
        let mut m = BTreeMap::new();
        for (name, value) in &r.parameters {
            if let Some(v) = const_eval(value, &m) {
                m.insert(name.clone(), v);
            }
        }
        m
    };
    // Participating nodes: every COMMON member and EQUIVALENCE item, plus
    // one pseudo-node per COMMON block ("/blk" cannot collide with an
    // identifier). BTreeMap keeps node numbering deterministic.
    let mut index: BTreeMap<String, usize> = BTreeMap::new();
    let touch = |index: &mut BTreeMap<String, usize>, n: &str| -> usize {
        let next = index.len();
        *index.entry(n.to_string()).or_insert(next)
    };
    for (block, names) in &r.commons {
        touch(&mut index, &format!("/{block}"));
        for n in names {
            touch(&mut index, n);
        }
    }
    for group in &r.equivalences {
        for (name, _) in group {
            touch(&mut index, name);
        }
    }
    let mut uf = OffsetUf::new(index.len());

    // COMMON layouts.
    for (block, names) in &r.commons {
        let bnode = index[&format!("/{block}")];
        let mut running: Option<i64> = Some(0);
        for n in names {
            uf.union(index[n], bnode, running);
            running = match (running, byte_extent(t, n, &consts)) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            };
        }
    }
    // EQUIVALENCE groups: all items coincide at their designated element.
    for group in &r.equivalences {
        for (name, _) in group {
            if r.params.contains(name) {
                return Err(SemaError {
                    message: format!("EQUIVALENCE of dummy argument {name}"),
                    routine: r.name.clone(),
                });
            }
            if t.constant(name).is_some() {
                return Err(SemaError {
                    message: format!("EQUIVALENCE of PARAMETER constant {name}"),
                    routine: r.name.clone(),
                });
            }
        }
        let (first, first_subs) = &group[0];
        let anchor = item_offset(t, first, first_subs, &consts);
        for (name, subs) in &group[1..] {
            // start(name) + item = start(first) + anchor
            let d = match (anchor, item_offset(t, name, subs, &consts)) {
                (Some(a), Some(i)) => Some(a - i),
                _ => None,
            };
            uf.union(index[name], index[&group[0].0], d);
        }
    }

    // Collect classes.
    let names: Vec<String> = index.keys().cloned().collect();
    let mut classes: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for n in &names {
        let (root, _) = uf.find(index[n]);
        classes.entry(root).or_default().push(n.clone());
    }
    for members in classes.values() {
        let real: Vec<&String> = members.iter().filter(|n| !n.starts_with('/')).collect();
        if real.len() < 2 && members.iter().all(|n| !n.starts_with('/')) {
            continue; // singleton equivalence-free class: private storage
        }
        // Class identity: the (smallest) COMMON block if one participates,
        // else the smallest member name.
        let block = members
            .iter()
            .filter_map(|n| n.strip_prefix('/'))
            .min()
            .map(str::to_string);
        let class = match &block {
            Some(b) => StorageClass::Common(b.clone()),
            None => {
                StorageClass::Equiv(real.iter().min().map(|s| s.to_string()).unwrap_or_default())
            }
        };
        // Offsets relative to the class base: the block start when a block
        // participates, else the lowest known member offset.
        let base = match &block {
            Some(b) => uf.find(index[&format!("/{b}")]).1,
            None => real
                .iter()
                .filter_map(|n| uf.find(index[n.as_str()]).1)
                .min(),
        };
        for n in real {
            let off = match (uf.find(index[n.as_str()]).1, base) {
                (Some(o), Some(b)) => Some(o - b),
                _ => None,
            };
            t.storage.insert(
                n.clone(),
                StorageLoc {
                    class: class.clone(),
                    offset: off,
                    extent: byte_extent(t, n, &consts),
                },
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn sema_of(src: &str) -> ProgramSema {
        analyze(&parse_program(src).unwrap()).unwrap()
    }

    const OCEAN_LIKE: &str = "
      PROGRAM main
      REAL A(1000)
      DO i = 1, n
        x = i
        call in(A, x, m)
        call out(A, x, m)
      ENDDO
      END
      SUBROUTINE in(B, x, mm)
      REAL B(*)
      IF (x .GT. 64.0) RETURN
      DO J = 1, mm
        B(J) = 0.0
      ENDDO
      END
      SUBROUTINE out(B, x, mm)
      REAL B(*)
      IF (x .GT. 64.0) RETURN
      DO J = 1, mm
        y = B(J)
      ENDDO
      END
";

    #[test]
    fn symbol_kinds() {
        let s = sema_of(OCEAN_LIKE);
        let main = &s.tables["main"];
        assert!(main.is_array("a"));
        assert_eq!(main.array("a").unwrap().rank(), 1);
        assert_eq!(main.scalar_ty("i"), Some(Ty::Integer));
        assert_eq!(main.scalar_ty("x"), Some(Ty::Real));
        let sub = &s.tables["in"];
        assert!(sub.is_array("b"));
        assert!(sub.array("b").unwrap().is_param);
    }

    #[test]
    fn call_graph_and_order() {
        let s = sema_of(OCEAN_LIKE);
        assert_eq!(
            s.call_graph["main"],
            BTreeSet::from(["in".to_string(), "out".to_string()])
        );
        // bottom-up: callees before main
        let pos = |n: &str| s.bottom_up.iter().position(|x| x == n).unwrap();
        assert!(pos("in") < pos("main"));
        assert!(pos("out") < pos("main"));
    }

    #[test]
    fn recursion_rejected() {
        let p = parse_program(
            "
      SUBROUTINE a()
      call b()
      END
      SUBROUTINE b()
      call a()
      END
",
        )
        .unwrap();
        let e = analyze(&p).unwrap_err();
        assert!(e.message.contains("recursive"));
    }

    #[test]
    fn unknown_callee_rejected() {
        let p = parse_program("      PROGRAM t\n      call nope(x)\n      END\n").unwrap();
        assert!(analyze(&p).is_err());
    }

    #[test]
    fn arity_checked() {
        let p = parse_program(
            "
      PROGRAM t
      call s(x)
      END
      SUBROUTINE s(a, b)
      RETURN
      END
",
        )
        .unwrap();
        let e = analyze(&p).unwrap_err();
        assert!(e.message.contains("args"));
    }

    #[test]
    fn parameters_and_common() {
        let s = sema_of(
            "
      PROGRAM t
      PARAMETER (size = 64)
      COMMON /blk/ w, q
      REAL w(100)
      x = size
      END
",
        );
        let t = &s.tables["t"];
        assert!(t.constant("size").is_some());
        assert_eq!(t.common_block("w"), Some("blk"));
        assert_eq!(t.common_block("q"), Some("blk"));
        assert!(t.is_array("w"));
        assert!(!t.is_array("q"));
    }

    #[test]
    fn common_layout_offsets() {
        let s = sema_of(
            "
      PROGRAM t
      COMMON /blk/ a, q, b
      REAL a(10), b(5)
      a(1) = q
      b(1) = 0.0
      END
",
        );
        let t = &s.tables["t"];
        let a = t.storage("a").unwrap();
        let q = t.storage("q").unwrap();
        let b = t.storage("b").unwrap();
        assert_eq!(a.class, StorageClass::Common("blk".into()));
        assert_eq!((a.offset, a.extent), (Some(0), Some(40)));
        assert_eq!((q.offset, q.extent), (Some(40), Some(4)));
        assert_eq!((b.offset, b.extent), (Some(44), Some(20)));
        assert!(!t.storage_overlaps("a", "b"));
        assert!(t.storage_partners("q").is_empty());
    }

    #[test]
    fn equivalence_overlay_offsets() {
        let s = sema_of(
            "
      PROGRAM t
      REAL x(10), y(4), z(3)
      EQUIVALENCE (x(3), y(1)), (z(1), x(9))
      x(1) = 0.0
      END
",
        );
        let t = &s.tables["t"];
        let x = t.storage("x").unwrap();
        let y = t.storage("y").unwrap();
        let z = t.storage("z").unwrap();
        assert_eq!(x.class, StorageClass::Equiv("x".into()));
        assert_eq!(x.offset, Some(0));
        assert_eq!(y.offset, Some(8)); // y(1) at x(3)
        assert_eq!(z.offset, Some(32)); // z(1) at x(9)
                                        // y spans x(3..6), z spans x(9..11): no overlap between y and z.
        assert!(t.storage_overlaps("x", "y"));
        assert!(t.storage_overlaps("x", "z"));
        assert!(!t.storage_overlaps("y", "z"));
    }

    #[test]
    fn equivalence_into_common_extends_class() {
        let s = sema_of(
            "
      PROGRAM t
      COMMON /c/ a
      REAL a(8), w(4)
      EQUIVALENCE (w(1), a(5))
      w(1) = 0.0
      END
",
        );
        let t = &s.tables["t"];
        let w = t.storage("w").unwrap();
        assert_eq!(w.class, StorageClass::Common("c".into()));
        assert_eq!(w.offset, Some(16));
        assert!(t.storage_overlaps("a", "w"));
    }

    #[test]
    fn unknown_dims_poison_offsets_not_classes() {
        let s = sema_of(
            "
      PROGRAM t
      COMMON /c/ a, b
      REAL a(n), b(5)
      a(1) = 0.0
      END
",
        );
        let t = &s.tables["t"];
        assert_eq!(t.storage("a").unwrap().offset, Some(0));
        let b = t.storage("b").unwrap();
        assert_eq!(b.offset, None, "offset after a runtime-sized member");
        // Unknown placement in one class cannot disprove overlap.
        assert!(t.storage_overlaps("a", "b"));
    }

    #[test]
    fn equivalence_of_dummy_rejected() {
        let p = parse_program(
            "
      SUBROUTINE s(a)
      REAL a(10), w(10)
      EQUIVALENCE (a(1), w(1))
      END
      PROGRAM t
      REAL v(10)
      CALL s(v)
      END
",
        )
        .unwrap();
        let e = analyze(&p).unwrap_err();
        assert!(e.message.contains("dummy"), "{e}");
    }

    #[test]
    fn common_reach_is_transitive() {
        let s = sema_of(
            "
      PROGRAM t
      COMMON /top/ x
      CALL mid()
      x = 0.0
      END
      SUBROUTINE mid()
      CALL leaf()
      END
      SUBROUTINE leaf()
      COMMON /deep/ y
      y = 1.0
      END
",
        );
        assert!(s.common_reach["leaf"].contains("deep"));
        assert!(s.common_reach["mid"].contains("deep"));
        assert!(!s.common_reach["mid"].contains("top"));
        assert!(s.common_reach["t"].contains("top"));
        assert!(s.common_reach["t"].contains("deep"));
    }

    #[test]
    fn intrinsics_not_scalars() {
        let s = sema_of("      PROGRAM t\n      x = max(a, b)\n      END\n");
        let t = &s.tables["t"];
        assert!(t.get("max").is_none());
        assert!(t.get("a").is_some());
    }

    #[test]
    fn implicit_typing_rule() {
        assert_eq!(implicit_ty("i"), Ty::Integer);
        assert_eq!(implicit_ty("n"), Ty::Integer);
        assert_eq!(implicit_ty("kc"), Ty::Integer);
        assert_eq!(implicit_ty("x"), Ty::Real);
        assert_eq!(implicit_ty("a"), Ty::Real);
    }
}
