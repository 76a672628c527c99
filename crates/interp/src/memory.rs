//! Runtime values and memory.

use fortran::Ty;

/// A scalar runtime value.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Value {
    /// INTEGER
    Int(i64),
    /// REAL
    Real(f64),
    /// LOGICAL
    Logical(bool),
}

impl Value {
    /// Zero of a type.
    pub fn zero(ty: Ty) -> Value {
        match ty {
            Ty::Integer => Value::Int(0),
            Ty::Real => Value::Real(0.0),
            Ty::Logical => Value::Logical(false),
        }
    }

    /// Numeric view as f64 (logicals are 0/1).
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Real(v) => v,
            Value::Logical(b) => b as i64 as f64,
        }
    }

    /// Integer view (reals truncate, Fortran INT).
    pub fn as_i64(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Real(v) => v as i64,
            Value::Logical(b) => b as i64,
        }
    }

    /// Truthiness.
    pub fn as_bool(self) -> bool {
        match self {
            Value::Logical(b) => b,
            Value::Int(v) => v != 0,
            Value::Real(v) => v != 0.0,
        }
    }

    /// Coerces to a target type (Fortran assignment conversion).
    pub fn coerce(self, ty: Ty) -> Value {
        match ty {
            Ty::Integer => Value::Int(self.as_i64()),
            Ty::Real => Value::Real(self.as_f64()),
            Ty::Logical => Value::Logical(self.as_bool()),
        }
    }
}

/// Homogeneous array payload.
#[derive(Clone, PartialEq, Debug)]
pub enum ArrayData {
    /// INTEGER elements.
    Int(Vec<i64>),
    /// REAL elements.
    Real(Vec<f64>),
    /// LOGICAL elements.
    Logical(Vec<bool>),
}

impl ArrayData {
    fn new(ty: Ty, len: usize) -> ArrayData {
        match ty {
            Ty::Integer => ArrayData::Int(vec![0; len]),
            Ty::Real => ArrayData::Real(vec![0.0; len]),
            Ty::Logical => ArrayData::Logical(vec![false; len]),
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            ArrayData::Int(v) => v.len(),
            ArrayData::Real(v) => v.len(),
            ArrayData::Logical(v) => v.len(),
        }
    }

    /// `true` iff empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads element `k`.
    pub fn get(&self, k: usize) -> Value {
        match self {
            ArrayData::Int(v) => Value::Int(v[k]),
            ArrayData::Real(v) => Value::Real(v[k]),
            ArrayData::Logical(v) => Value::Logical(v[k]),
        }
    }

    /// Writes element `k`, coercing.
    pub fn set(&mut self, k: usize, value: Value) {
        match self {
            ArrayData::Int(v) => v[k] = value.as_i64(),
            ArrayData::Real(v) => v[k] = value.as_f64(),
            ArrayData::Logical(v) => v[k] = value.as_bool(),
        }
    }
}

/// One allocated array: column-major like Fortran, with per-dimension
/// inclusive bounds.
#[derive(Clone, PartialEq, Debug)]
pub struct ArrayStore {
    /// Element type.
    pub ty: Ty,
    /// Per-dimension `(lower, upper)` bounds.
    pub dims: Vec<(i64, i64)>,
    /// The elements.
    pub data: ArrayData,
}

impl ArrayStore {
    /// Allocates with zeroed contents.
    pub fn new(ty: Ty, dims: Vec<(i64, i64)>) -> ArrayStore {
        let len = dims
            .iter()
            .map(|&(l, u)| (u - l + 1).max(0) as usize)
            .product();
        ArrayStore {
            ty,
            dims,
            data: ArrayData::new(ty, len),
        }
    }

    /// Flattens subscripts (column-major). `None` if out of bounds or rank
    /// mismatch.
    pub fn flat_index(&self, subs: &[i64]) -> Option<usize> {
        flat_index(&self.dims, subs, self.data.len())
    }
}

/// Column-major flat index of `subs` against `dims`, over `len` elements.
/// A single subscript into a multi-dimensional array is Fortran sequence
/// association (classic F77 linearization).
pub(crate) fn flat_index(dims: &[(i64, i64)], subs: &[i64], len: usize) -> Option<usize> {
    if subs.len() != dims.len() {
        if subs.len() == 1 && !dims.is_empty() {
            let k = subs[0] - dims[0].0;
            if k >= 0 && (k as usize) < len {
                return Some(k as usize);
            }
        }
        return None;
    }
    let mut idx: i64 = 0;
    let mut stride: i64 = 1;
    // An index loop: iterator adaptors are calls in unoptimised builds,
    // and this runs for every element access.
    for k in 0..dims.len() {
        let (s, (l, u)) = (subs[k], dims[k]);
        if s < l || s > u {
            return None;
        }
        idx += (s - l) * stride;
        stride *= u - l + 1;
    }
    usize::try_from(idx).ok().filter(|&k| k < len)
}

/// Program memory: an arena of arrays. Scalars live in the interpreter's
/// frames, one slot per name a routine mentions.
#[derive(Clone, Debug, Default)]
pub struct Memory {
    /// All allocated arrays, addressed by handle.
    pub arrays: Vec<ArrayStore>,
}

impl Memory {
    /// Allocates an array and returns its handle.
    pub fn alloc(&mut self, store: ArrayStore) -> usize {
        self.arrays.push(store);
        self.arrays.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversions() {
        assert_eq!(Value::Int(3).as_f64(), 3.0);
        assert_eq!(Value::Real(2.7).as_i64(), 2);
        assert!(Value::Int(1).as_bool());
        assert_eq!(Value::Real(2.7).coerce(Ty::Integer), Value::Int(2));
        assert_eq!(Value::Int(2).coerce(Ty::Real), Value::Real(2.0));
    }

    #[test]
    fn array_flat_index_1d() {
        let a = ArrayStore::new(Ty::Real, vec![(1, 10)]);
        assert_eq!(a.flat_index(&[1]), Some(0));
        assert_eq!(a.flat_index(&[10]), Some(9));
        assert_eq!(a.flat_index(&[0]), None);
        assert_eq!(a.flat_index(&[11]), None);
    }

    #[test]
    fn array_flat_index_2d_column_major() {
        let a = ArrayStore::new(Ty::Real, vec![(1, 3), (1, 4)]);
        assert_eq!(a.flat_index(&[1, 1]), Some(0));
        assert_eq!(a.flat_index(&[2, 1]), Some(1));
        assert_eq!(a.flat_index(&[1, 2]), Some(3));
        assert_eq!(a.flat_index(&[3, 4]), Some(11));
    }

    #[test]
    fn array_custom_lower_bounds() {
        let a = ArrayStore::new(Ty::Integer, vec![(0, 4)]);
        assert_eq!(a.flat_index(&[0]), Some(0));
        assert_eq!(a.flat_index(&[4]), Some(4));
    }

    #[test]
    fn sequence_association() {
        // 1-D access into a 2-D array (classic F77 linearization).
        let a = ArrayStore::new(Ty::Real, vec![(1, 3), (1, 4)]);
        assert_eq!(a.flat_index(&[5]), Some(4));
    }

    #[test]
    fn data_get_set() {
        let mut a = ArrayStore::new(Ty::Real, vec![(1, 5)]);
        let k = a.flat_index(&[3]).unwrap();
        a.data.set(k, Value::Real(2.5));
        assert_eq!(a.data.get(k), Value::Real(2.5));
        // coercion on set
        a.data.set(k, Value::Int(7));
        assert_eq!(a.data.get(k), Value::Real(7.0));
    }
}
