//! Tuples: fixed-arity rows of [`Value`]s.

use crate::codec;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A row. Values are stored behind an `Arc` slice so the simulated
/// shuffle can "copy" a tuple to many reduce partitions while host memory
/// holds one payload; the *accounted* bytes (what the cost model sees) are
/// the encoded length, charged once per copy.
///
/// The encoded length is memoised at construction: byte accounting on
/// the map-emit and reduce paths touches every record (often many times
/// per tuple, once per simulated copy), so it must not re-walk the
/// values each time.
#[derive(Debug, Clone)]
pub struct Tuple {
    values: Arc<[Value]>,
    /// Cached [`codec::encoded_len`] of `values`. Values are immutable
    /// behind the `Arc`, so the cache can never go stale.
    enc_len: usize,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        let enc_len = codec::encoded_len(&values);
        Tuple {
            values: values.into(),
            enc_len,
        }
    }

    /// Bytes the encoded values take after the arity header
    /// ([`codec::values_len`]); O(1) off the memoised length. A row
    /// cut into parts encodes to `codec::arity_len` of its arity plus
    /// the parts' `values_len`.
    pub fn values_len(&self) -> usize {
        self.enc_len - codec::arity_len(self.arity())
    }

    /// The values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value at column `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Encoded size in bytes — the unit of all disk/network accounting.
    /// O(1): computed once at construction.
    pub fn encoded_len(&self) -> usize {
        self.enc_len
    }

    /// Concatenate two tuples (join output row).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(self.values());
        v.extend_from_slice(other.values());
        Tuple::new(v)
    }

    /// Concatenate many tuples in order (multi-way join output row).
    pub fn concat_all(parts: &[&Tuple]) -> Tuple {
        let mut v = Vec::with_capacity(parts.iter().map(|t| t.arity()).sum());
        for p in parts {
            v.extend_from_slice(p.values());
        }
        Tuple::new(v)
    }

    /// Total order consistent with [`Value::total_cmp`] column-by-column;
    /// used to canonicalise result sets in tests and merges.
    pub fn total_cmp(&self, other: &Tuple) -> std::cmp::Ordering {
        for (a, b) in self.values().iter().zip(other.values()) {
            let ord = a.total_cmp(b);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        self.arity().cmp(&other.arity())
    }
}

// Equality and hashing are over the values only (`enc_len` is a pure
// function of them), preserving the exact behaviour of the previously
// derived impls on the single `values` field.
impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}

impl Eq for Tuple {}

impl std::hash::Hash for Tuple {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.values.hash(state);
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Collecting builds the tuple in **one** allocation when the source
/// reports its exact length (a `map` over a slice, a `chain` of such,
/// `once`): `Arc<[Value]>` then writes the values straight into its
/// final buffer, where [`Tuple::new`] allocates a `Vec` and then the
/// `Arc`. Hot row builders (join leaves, row-id augmentation, columnar
/// gathers) use this form.
impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(values: I) -> Self {
        let values: Arc<[Value]> = values.into_iter().collect();
        let enc_len = codec::encoded_len(&values);
        Tuple { values, enc_len }
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// Build a tuple from heterogeneous literals: `tuple![1, 2.5, "x"]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_preserves_order() {
        let a = tuple![1, 2];
        let b = tuple!["x"];
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.get(2), &Value::from("x"));
        let d = Tuple::concat_all(&[&a, &b, &a]);
        assert_eq!(d.arity(), 5);
        assert_eq!(d.get(3), &Value::Int(1));
    }

    #[test]
    fn clone_is_shallow() {
        let a = tuple![1, "payload"];
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.values, &b.values));
    }

    #[test]
    fn total_cmp_sorts_lexicographically() {
        let mut v = [tuple![2, 1], tuple![1, 9], tuple![1, 2]];
        v.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(v[0], tuple![1, 2]);
        assert_eq!(v[2], tuple![2, 1]);
    }

    #[test]
    fn display() {
        assert_eq!(tuple![1, "a"].to_string(), "(1, a)");
    }

    #[test]
    fn encoded_len_is_cached_and_exact() {
        let t = tuple![1, 2.5, "hello", -12345678];
        assert_eq!(t.encoded_len(), crate::codec::encoded_len(t.values()));
        // Derived rows keep the invariant too.
        let c = t.concat(&tuple![9]);
        assert_eq!(c.encoded_len(), crate::codec::encoded_len(c.values()));
        // So do collected ones, from a slice map and from a chain.
        let picked: Tuple = [2usize, 0].iter().map(|&i| t.get(i).clone()).collect();
        assert_eq!(picked, tuple!["hello", 1]);
        assert_eq!(
            picked.encoded_len(),
            crate::codec::encoded_len(picked.values())
        );
        let grown: Tuple = t
            .values()
            .iter()
            .cloned()
            .chain(std::iter::once(Value::Int(300)))
            .collect();
        assert_eq!(grown, tuple![1, 2.5, "hello", -12345678, 300]);
        assert_eq!(
            grown.encoded_len(),
            crate::codec::encoded_len(grown.values())
        );
        let empty: Tuple = std::iter::empty().collect();
        assert_eq!(empty.encoded_len(), 1);
        // The header/values split is additive over column slices.
        for row in [&t, &c, &picked, &grown, &empty] {
            let (head, tail) = row.values().split_at(row.arity() / 2);
            assert_eq!(
                row.values_len(),
                crate::codec::values_len(head) + crate::codec::values_len(tail)
            );
            assert_eq!(
                row.encoded_len(),
                crate::codec::arity_len(row.arity()) + row.values_len()
            );
        }
    }
}
