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
    /// Allocates with zeroed contents. Refuses an array whose extents or
    /// element count overflow, or whose elements would take more than
    /// [`MAX_ARENA_BYTES`].
    pub fn new(ty: Ty, dims: Vec<(i64, i64)>) -> Result<ArrayStore, String> {
        ArrayStore::within(ty, dims, MAX_ARENA_BYTES)
    }

    /// [`ArrayStore::new`] with at most `room` bytes to fill.
    fn within(ty: Ty, dims: Vec<(i64, i64)>, room: usize) -> Result<ArrayStore, String> {
        let len = element_count(&dims).ok_or_else(|| format!("array extents {dims:?} overflow"))?;
        if len.checked_mul(element_bytes(ty)).is_none_or(|b| b > room) {
            return Err(format!(
                "array of {len} elements exceeds the {} MiB memory cap",
                MAX_ARENA_BYTES >> 20
            ));
        }
        Ok(ArrayStore {
            ty,
            dims,
            data: ArrayData::new(ty, len),
        })
    }

    /// Bytes the elements take.
    fn bytes(&self) -> usize {
        self.data.len() * element_bytes(self.ty)
    }

    /// Flattens subscripts (column-major). `None` if out of bounds or rank
    /// mismatch.
    pub fn flat_index(&self, subs: &[i64]) -> Option<usize> {
        flat_index(&self.dims, subs, self.data.len())
    }
}

/// The most bytes of array elements one run's arena holds. Far above
/// every benchmark program's memory; a program that declares more fails
/// to run instead of aborting the process on a failed allocation.
pub const MAX_ARENA_BYTES: usize = 256 << 20;

fn element_bytes(ty: Ty) -> usize {
    match ty {
        Ty::Integer => std::mem::size_of::<i64>(),
        Ty::Real => std::mem::size_of::<f64>(),
        Ty::Logical => std::mem::size_of::<bool>(),
    }
}

/// Element count of `dims`, `None` if an extent or a partial product
/// overflows `i64`. Every stride [`flat_index`] computes is such a
/// partial product, so it cannot overflow on dims this accepts.
pub(crate) fn element_count(dims: &[(i64, i64)]) -> Option<usize> {
    let n = dims.iter().try_fold(1i64, |n, &(l, u)| {
        n.checked_mul(u.checked_sub(l)?.checked_add(1)?.max(0))
    })?;
    usize::try_from(n).ok()
}

/// Column-major flat index of `subs` against `dims`, over `len` elements.
/// A single subscript into a multi-dimensional array is Fortran sequence
/// association (classic F77 linearization).
pub(crate) fn flat_index(dims: &[(i64, i64)], subs: &[i64], len: usize) -> Option<usize> {
    if subs.len() != dims.len() {
        if subs.len() == 1 && !dims.is_empty() {
            let k = subs[0].checked_sub(dims[0].0)?;
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
    /// Bytes of elements allocated so far; the arena never frees.
    bytes: usize,
}

impl Memory {
    /// Allocates a zeroed array and returns its handle. Refuses it, as
    /// [`ArrayStore::new`] does, when the arena would then hold more than
    /// [`MAX_ARENA_BYTES`].
    pub fn alloc(&mut self, ty: Ty, dims: Vec<(i64, i64)>) -> Result<usize, String> {
        let store = ArrayStore::within(ty, dims, MAX_ARENA_BYTES - self.bytes)?;
        self.bytes += store.bytes();
        self.arrays.push(store);
        Ok(self.arrays.len() - 1)
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
        let a = ArrayStore::new(Ty::Real, vec![(1, 10)]).unwrap();
        assert_eq!(a.flat_index(&[1]), Some(0));
        assert_eq!(a.flat_index(&[10]), Some(9));
        assert_eq!(a.flat_index(&[0]), None);
        assert_eq!(a.flat_index(&[11]), None);
    }

    #[test]
    fn array_flat_index_2d_column_major() {
        let a = ArrayStore::new(Ty::Real, vec![(1, 3), (1, 4)]).unwrap();
        assert_eq!(a.flat_index(&[1, 1]), Some(0));
        assert_eq!(a.flat_index(&[2, 1]), Some(1));
        assert_eq!(a.flat_index(&[1, 2]), Some(3));
        assert_eq!(a.flat_index(&[3, 4]), Some(11));
    }

    #[test]
    fn array_custom_lower_bounds() {
        let a = ArrayStore::new(Ty::Integer, vec![(0, 4)]).unwrap();
        assert_eq!(a.flat_index(&[0]), Some(0));
        assert_eq!(a.flat_index(&[4]), Some(4));
    }

    #[test]
    fn sequence_association() {
        // 1-D access into a 2-D array (classic F77 linearization).
        let a = ArrayStore::new(Ty::Real, vec![(1, 3), (1, 4)]).unwrap();
        assert_eq!(a.flat_index(&[5]), Some(4));
    }

    #[test]
    fn data_get_set() {
        let mut a = ArrayStore::new(Ty::Real, vec![(1, 5)]).unwrap();
        let k = a.flat_index(&[3]).unwrap();
        a.data.set(k, Value::Real(2.5));
        assert_eq!(a.data.get(k), Value::Real(2.5));
        // coercion on set
        a.data.set(k, Value::Int(7));
        assert_eq!(a.data.get(k), Value::Real(7.0));
    }

    #[test]
    fn overflowing_or_oversized_arrays_are_refused() {
        let min = i64::MIN;
        assert!(ArrayStore::new(Ty::Real, vec![(1, i64::MAX)]).is_err());
        assert!(ArrayStore::new(Ty::Real, vec![(min, i64::MAX)]).is_err());
        assert!(ArrayStore::new(Ty::Real, vec![(1, 1 << 32), (1, 1 << 32)]).is_err());
        // A zero extent after an overflowing partial product: the strides
        // `flat_index` computes would overflow.
        assert!(ArrayStore::new(Ty::Real, vec![(1, 1 << 62), (1, 3), (1, 0)]).is_err());
        assert!(ArrayStore::new(Ty::Real, vec![(1, 2_000_000_000)]).is_err());
        let empty = ArrayStore::new(Ty::Real, vec![(1, 0), (1, 1 << 40)]).unwrap();
        assert!(empty.data.is_empty());
        assert_eq!(empty.flat_index(&[1, 1]), None);
    }

    #[test]
    fn the_arena_cap_counts_every_allocation() {
        let mut mem = Memory {
            bytes: MAX_ARENA_BYTES - 24,
            ..Memory::default()
        };
        mem.alloc(Ty::Real, vec![(1, 2)]).unwrap();
        mem.alloc(Ty::Logical, vec![(1, 8)]).unwrap();
        assert!(mem.alloc(Ty::Logical, vec![(1, 1)]).is_err());
        assert_eq!(mem.arrays.len(), 2);
        assert_eq!(mem.bytes, MAX_ARENA_BYTES);
    }
}
