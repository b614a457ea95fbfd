//! Columnar backing store: typed column vectors behind a [`Relation`].
//!
//! The row-major `Arc<Vec<Tuple>>` representation boxes every field as
//! a [`Value`] enum behind a per-row `Arc` — fine for shuffling
//! simulated records, hostile to scanning ten million rows. This
//! module stores a loaded relation as typed column vectors instead:
//! `Vec<i64>` / `Vec<f64>` for the numeric types, dictionary-encoded
//! codes plus a shared [`Dictionary`] for strings, and a null bitmap
//! per column. The layout follows the usual columnar-file shape
//! (Parquet-style: typed pages + dictionary encoding); resident bytes
//! shrink accordingly and sequential scans stop chasing `Arc`s.
//!
//! Rows are *gathered* — materialised back into [`Tuple`]s — only at
//! the boundaries that genuinely need row-major data (the simulated
//! shuffle, join emit). Gathered values are bit-identical to what the
//! row-major path would hold: integers and doubles round-trip exactly
//! (including NaN payloads and -0.0), strings come back as `Arc`
//! clones out of the dictionary, NULLs as [`Value::Null`].

use crate::error::{Error, Result};
use crate::schema::DataType;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::zones::{BlockZones, ColumnZone, ZoneRange};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Exact-integer threshold mirrored from [`crate::zones`]: |i| ≤ 2⁵³
/// round-trips through f64.
const EXACT: u64 = 1u64 << 53;

/// Code stored for NULL slots in a string column (never dereferenced:
/// the null bitmap is consulted first).
const NULL_CODE: u32 = u32::MAX;

/// A per-column string dictionary: code → interned string, in first-
/// occurrence order. Comparisons between dictionary-encoded values
/// always resolve through the stored strings, so they agree with
/// [`Value::Str`] ordering by construction (plain `str` ordering —
/// codes themselves carry no order).
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    strings: Vec<Arc<str>>,
}

impl Dictionary {
    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when no strings are interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The string behind `code`.
    pub fn get(&self, code: u32) -> &Arc<str> {
        &self.strings[code as usize]
    }

    /// Total payload bytes across all interned strings.
    pub fn bytes(&self) -> u64 {
        self.strings.iter().map(|s| s.len() as u64).sum()
    }

    /// Iterate the interned strings in code order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<str>> {
        self.strings.iter()
    }
}

/// Per-column null bitmap (bit set ⇒ NULL), with an O(1) total count.
#[derive(Debug, Clone, Default)]
pub struct NullBitmap {
    words: Vec<u64>,
    len: usize,
    ones: u64,
}

impl NullBitmap {
    fn push(&mut self, is_null: bool) {
        let (w, b) = (self.len / 64, self.len % 64);
        if w == self.words.len() {
            self.words.push(0);
        }
        if is_null {
            self.words[w] |= 1u64 << b;
            self.ones += 1;
        }
        self.len += 1;
    }

    /// Is slot `i` NULL?
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total NULL count.
    pub fn count(&self) -> u64 {
        self.ones
    }

    /// NULL count within `[start, end)`, by masked popcount.
    pub fn count_range(&self, range: Range<usize>) -> u64 {
        debug_assert!(range.end <= self.len);
        if range.start >= range.end {
            return 0;
        }
        let (sw, sb) = (range.start / 64, range.start % 64);
        let (ew, eb) = (range.end / 64, range.end % 64);
        if sw == ew {
            // Same word: start < end forces 0 ≤ sb < eb ≤ 63 here.
            let mask = (u64::MAX << sb) & (u64::MAX >> (64 - eb));
            return (self.words[sw] & mask).count_ones() as u64;
        }
        let mut n = (self.words[sw] & (u64::MAX << sb)).count_ones() as u64;
        for w in &self.words[sw + 1..ew] {
            n += w.count_ones() as u64;
        }
        if eb > 0 {
            n += (self.words[ew] & (u64::MAX >> (64 - eb))).count_ones() as u64;
        }
        n
    }

    fn heap_bytes(&self) -> u64 {
        (self.words.len() * 8) as u64
    }
}

/// Typed storage for one column's non-null values (NULL slots hold an
/// unobservable placeholder; the [`NullBitmap`] is authoritative).
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats (bit patterns preserved, NaN payloads included).
    Double(Vec<f64>),
    /// Dictionary codes plus the shared dictionary.
    Str {
        /// Per-row dictionary code ([`NULL_CODE`] for NULL slots).
        codes: Vec<u32>,
        /// The column's dictionary.
        dict: Arc<Dictionary>,
    },
}

/// One column: typed values plus the null bitmap.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    nulls: NullBitmap,
}

impl Column {
    /// The typed data vector.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The null bitmap.
    pub fn nulls(&self) -> &NullBitmap {
        &self.nulls
    }

    /// Is slot `i` NULL?
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.get(i)
    }

    /// Total NULL count.
    pub fn null_count(&self) -> u64 {
        self.nulls.count()
    }

    /// Gather the value at slot `i` (bit-identical to the row-major
    /// representation; strings are `Arc` clones out of the dictionary).
    pub fn value(&self, i: usize) -> Value {
        if self.nulls.get(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Double(v) => Value::Double(v[i]),
            ColumnData::Str { codes, dict } => Value::Str(Arc::clone(dict.get(codes[i]))),
        }
    }

    /// The raw `i64` slice, when this is a NULL-free integer column —
    /// the form the vectorized join kernels consume directly.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Int(v) if self.nulls.count() == 0 => Some(v),
            _ => None,
        }
    }

    /// The raw `f64` slice, when this is a NULL-free double column.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Double(v) if self.nulls.count() == 0 => Some(v),
            _ => None,
        }
    }

    /// Host-resident bytes of this column (typed vector + dictionary
    /// payload + null bitmap).
    pub fn resident_bytes(&self) -> u64 {
        let data = match &self.data {
            ColumnData::Int(v) => (v.len() * 8) as u64,
            ColumnData::Double(v) => (v.len() * 8) as u64,
            ColumnData::Str { codes, dict } => (codes.len() * 4) as u64 + dict.bytes(),
        };
        data + self.nulls.heap_bytes()
    }

    /// Zone summary of slots `[start, end)` — one typed pass, matching
    /// [`BlockZones::collect`] semantics exactly (big ints, NaNs and
    /// strings collapse to [`ZoneRange::Unbounded`]; all-NULL is
    /// [`ZoneRange::Empty`]; bounds ordered by `total_cmp`).
    fn zone(&self, range: Range<usize>) -> ColumnZone {
        let nulls = self.nulls.count_range(range.clone());
        let non_null = (range.end - range.start) as u64 - nulls;
        if non_null == 0 {
            return ColumnZone {
                range: ZoneRange::Empty,
                nulls,
            };
        }
        let zr = match &self.data {
            ColumnData::Str { .. } => ZoneRange::Unbounded,
            ColumnData::Int(v) => {
                let mut min = i64::MAX;
                let mut max = i64::MIN;
                let mut big = false;
                for i in range.clone() {
                    if self.nulls.get(i) {
                        continue;
                    }
                    let x = v[i];
                    if x.unsigned_abs() > EXACT {
                        big = true;
                    } else {
                        min = min.min(x);
                        max = max.max(x);
                    }
                }
                if big {
                    ZoneRange::Unbounded
                } else {
                    ZoneRange::Range {
                        min: min as f64,
                        max: max as f64,
                    }
                }
            }
            ColumnData::Double(v) => {
                let mut acc: Option<(f64, f64)> = None;
                let mut nan = false;
                for i in range.clone() {
                    if self.nulls.get(i) {
                        continue;
                    }
                    let x = v[i];
                    if x.is_nan() {
                        nan = true;
                        continue;
                    }
                    acc = Some(match acc {
                        None => (x, x),
                        Some((lo, hi)) => (
                            if x.total_cmp(&lo).is_lt() { x } else { lo },
                            if x.total_cmp(&hi).is_gt() { x } else { hi },
                        ),
                    });
                }
                match (nan, acc) {
                    (true, _) => ZoneRange::Unbounded,
                    (false, Some((min, max))) => ZoneRange::Range { min, max },
                    // Non-null values existed but were all NaN-free…
                    // unreachable: non_null > 0 and !nan ⇒ acc is Some.
                    (false, None) => ZoneRange::Unbounded,
                }
            }
        };
        ColumnZone { range: zr, nulls }
    }
}

/// Storage-layout summary of a columnar relation, surfaced through
/// `sys.relations` and the server `stats` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColumnarLayout {
    /// Number of columns.
    pub columns: usize,
    /// Number of rows.
    pub rows: usize,
    /// Total NULL slots across all columns.
    pub null_count: u64,
    /// Number of dictionary-encoded (string) columns.
    pub dict_columns: usize,
    /// Total distinct strings across all dictionaries.
    pub dict_entries: u64,
    /// Total dictionary payload bytes.
    pub dict_bytes: u64,
    /// Host-resident bytes of the columnar form (typed vectors +
    /// dictionaries + null bitmaps).
    pub resident_bytes: u64,
}

/// The columnar backing of a relation: one [`Column`] per schema
/// field. Schema-name agnostic (only the declared types matter), so a
/// renamed relation shares its columns untouched.
#[derive(Debug, Clone)]
pub struct Columns {
    types: Vec<DataType>,
    columns: Vec<Column>,
    rows: usize,
}

impl Columns {
    /// Start building columns for the given declared types.
    pub fn builder(types: Vec<DataType>) -> ColumnsBuilder {
        let cols = types
            .iter()
            .map(|t| BuilderCol {
                data: match t {
                    DataType::Int => BuilderData::Int(Vec::new()),
                    DataType::Double => BuilderData::Double(Vec::new()),
                    DataType::Str => BuilderData::Str {
                        codes: Vec::new(),
                        dict: Dictionary::default(),
                        map: HashMap::new(),
                    },
                },
                nulls: NullBitmap::default(),
            })
            .collect();
        ColumnsBuilder {
            types,
            cols,
            rows: 0,
        }
    }

    /// Build from pre-validated row-major tuples (the load-path
    /// transposition). Fails on a value that does not inhabit its
    /// declared type.
    pub fn from_rows(types: Vec<DataType>, rows: &[Tuple]) -> Result<Self> {
        let mut b = Columns::builder(types);
        for r in rows {
            b.push_row(r.values())?;
        }
        Ok(b.finish())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The declared column types.
    pub fn types(&self) -> &[DataType] {
        &self.types
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Gather row `i` back into a [`Tuple`] (bit-identical to the
    /// row-major representation), in one allocation.
    pub fn gather_row(&self, i: usize) -> Tuple {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Gather every row — the emit-time materialisation.
    pub fn gather_rows(&self) -> Vec<Tuple> {
        (0..self.rows).map(|i| self.gather_row(i)).collect()
    }

    /// Zone maps of rows `[start, end)` in one typed pass per column —
    /// produces exactly what
    /// [`BlockZones::collect`] computes on the gathered rows, without
    /// materialising them.
    pub fn zones_for(&self, range: Range<usize>) -> BlockZones {
        debug_assert!(range.end <= self.rows);
        BlockZones {
            columns: self.columns.iter().map(|c| c.zone(range.clone())).collect(),
            rows: (range.end - range.start) as u64,
        }
    }

    /// Host-resident bytes of the columnar form.
    pub fn resident_bytes(&self) -> u64 {
        self.columns.iter().map(Column::resident_bytes).sum()
    }

    /// The storage-layout summary.
    pub fn layout(&self) -> ColumnarLayout {
        let mut out = ColumnarLayout {
            columns: self.columns.len(),
            rows: self.rows,
            ..Default::default()
        };
        for c in &self.columns {
            out.null_count += c.null_count();
            out.resident_bytes += c.resident_bytes();
            if let ColumnData::Str { dict, .. } = &c.data {
                out.dict_columns += 1;
                out.dict_entries += dict.len() as u64;
                out.dict_bytes += dict.bytes();
            }
        }
        out
    }
}

enum BuilderData {
    Int(Vec<i64>),
    Double(Vec<f64>),
    Str {
        codes: Vec<u32>,
        dict: Dictionary,
        map: HashMap<Arc<str>, u32>,
    },
}

struct BuilderCol {
    data: BuilderData,
    nulls: NullBitmap,
}

/// Streaming column builder: CSV ingest (and the load-path
/// transposition) push one row of values at a time; strings are
/// dictionary-interned on the way in, so repeated values share one
/// allocation from birth.
pub struct ColumnsBuilder {
    types: Vec<DataType>,
    cols: Vec<BuilderCol>,
    rows: usize,
}

impl ColumnsBuilder {
    /// Append one row. Values must inhabit the declared types (NULL
    /// inhabits every type).
    pub fn push_row(&mut self, values: &[Value]) -> Result<()> {
        if values.len() != self.types.len() {
            return Err(Error::SchemaMismatch {
                detail: format!(
                    "columnar builder expects {} columns, row has {}",
                    self.types.len(),
                    values.len()
                ),
            });
        }
        for (ci, v) in values.iter().enumerate() {
            if !self.types[ci].admits(v) {
                return Err(Error::SchemaMismatch {
                    detail: format!("column {} is {} but value is {v:?}", ci, self.types[ci]),
                });
            }
        }
        for (col, v) in self.cols.iter_mut().zip(values) {
            let is_null = v.is_null();
            col.nulls.push(is_null);
            match &mut col.data {
                BuilderData::Int(xs) => xs.push(v.as_int().unwrap_or(0)),
                BuilderData::Double(xs) => xs.push(v.as_double().unwrap_or(0.0)),
                BuilderData::Str { codes, dict, map } => {
                    if let Value::Str(s) = v {
                        let code = *map.entry(Arc::clone(s)).or_insert_with(|| {
                            dict.strings.push(Arc::clone(s));
                            (dict.strings.len() - 1) as u32
                        });
                        codes.push(code);
                    } else {
                        codes.push(NULL_CODE);
                    }
                }
            }
        }
        self.rows += 1;
        Ok(())
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Seal into immutable [`Columns`].
    pub fn finish(self) -> Columns {
        let columns = self
            .cols
            .into_iter()
            .map(|c| Column {
                data: match c.data {
                    BuilderData::Int(xs) => ColumnData::Int(xs),
                    BuilderData::Double(xs) => ColumnData::Double(xs),
                    BuilderData::Str { codes, dict, .. } => ColumnData::Str {
                        codes,
                        dict: Arc::new(dict),
                    },
                },
                nulls: c.nulls,
            })
            .collect();
        Columns {
            types: self.types,
            columns,
            rows: self.rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn types() -> Vec<DataType> {
        vec![DataType::Int, DataType::Double, DataType::Str]
    }

    fn tricky_rows() -> Vec<Tuple> {
        vec![
            tuple![1, 2.5, "alpha"],
            Tuple::new(vec![Value::Null, Value::Double(-0.0), Value::from("beta")]),
            tuple![(1i64 << 53) + 7, f64::NAN, "alpha"],
            Tuple::new(vec![Value::Int(-5), Value::Null, Value::Null]),
            tuple![i64::MIN, f64::NEG_INFINITY, ""],
        ]
    }

    #[test]
    fn gather_round_trips_exactly() {
        let rows = tricky_rows();
        let cols = Columns::from_rows(types(), &rows).unwrap();
        assert_eq!(cols.len(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            let back = cols.gather_row(i);
            // Bit-exact doubles: compare via total order, not PartialEq,
            // to catch NaN and -0.0 too.
            assert_eq!(back.total_cmp(row), std::cmp::Ordering::Equal);
            assert_eq!(back.encoded_len(), row.encoded_len());
        }
        assert_eq!(cols.gather_rows(), rows);
    }

    #[test]
    fn dictionary_interns_and_shares() {
        let rows = vec![
            tuple![1, 1.0, "x"],
            tuple![2, 2.0, "x"],
            tuple![3, 3.0, "y"],
        ];
        let cols = Columns::from_rows(types(), &rows).unwrap();
        let ColumnData::Str { codes, dict } = cols.column(2).data() else {
            panic!("expected string column");
        };
        assert_eq!(dict.len(), 2);
        assert_eq!(codes[0], codes[1]);
        // Gathered values share the dictionary allocation.
        let (Value::Str(a), Value::Str(b)) = (cols.column(2).value(0), cols.column(2).value(1))
        else {
            panic!("expected strings");
        };
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn zones_match_row_major_collect() {
        let cases: Vec<Vec<Tuple>> = vec![
            tricky_rows(),
            vec![
                tuple![3, 1.5, "a"],
                tuple![-2, 9.0, "b"],
                tuple![7, 0.25, "c"],
            ],
            vec![
                Tuple::new(vec![Value::Null, Value::Null, Value::Null]),
                Tuple::new(vec![Value::Null, Value::Null, Value::Null]),
            ],
            vec![tuple![0, 0.0, "z"], tuple![0, -0.0, "z"]],
            vec![],
        ];
        for rows in cases {
            let cols = Columns::from_rows(types(), &rows).unwrap();
            for start in 0..=rows.len() {
                for end in start..=rows.len() {
                    let want = BlockZones::collect(&rows[start..end], 3);
                    let got = cols.zones_for(start..end);
                    assert_eq!(got, want, "rows[{start}..{end}]");
                }
            }
        }
    }

    #[test]
    fn null_bitmap_range_counts() {
        let mut b = NullBitmap::default();
        for i in 0..200 {
            b.push(i % 3 == 0);
        }
        for start in [0, 1, 63, 64, 65, 127, 128, 199, 200] {
            for end in [0, 1, 64, 65, 128, 190, 200] {
                if start > end {
                    continue;
                }
                let want = (start..end).filter(|i| i % 3 == 0).count() as u64;
                assert_eq!(b.count_range(start..end), want, "[{start}..{end})");
            }
        }
        assert_eq!(b.count(), b.count_range(0..200));
    }

    #[test]
    fn layout_and_resident_bytes() {
        let rows = vec![
            tuple![1, 1.0, "aaaa"],
            Tuple::new(vec![Value::Int(2), Value::Null, Value::from("aaaa")]),
        ];
        let cols = Columns::from_rows(types(), &rows).unwrap();
        let l = cols.layout();
        assert_eq!(l.columns, 3);
        assert_eq!(l.rows, 2);
        assert_eq!(l.null_count, 1);
        assert_eq!(l.dict_columns, 1);
        assert_eq!(l.dict_entries, 1);
        assert_eq!(l.dict_bytes, 4);
        assert_eq!(l.resident_bytes, cols.resident_bytes());
        assert!(l.resident_bytes > 0);
    }

    #[test]
    fn typed_slices_when_null_free() {
        let rows = vec![tuple![5, 1.5, "x"], tuple![6, 2.5, "y"]];
        let cols = Columns::from_rows(types(), &rows).unwrap();
        assert_eq!(cols.column(0).as_i64(), Some(&[5i64, 6][..]));
        assert_eq!(cols.column(1).as_f64(), Some(&[1.5f64, 2.5][..]));
        assert_eq!(cols.column(2).as_i64(), None);
        let with_null = vec![Tuple::new(vec![
            Value::Null,
            Value::Double(0.5),
            Value::Null,
        ])];
        let cols = Columns::from_rows(types(), &with_null).unwrap();
        assert_eq!(cols.column(0).as_i64(), None);
    }

    #[test]
    fn builder_validates_rows() {
        let mut b = Columns::builder(vec![DataType::Int]);
        assert!(b.push_row(&[Value::Int(1), Value::Int(2)]).is_err());
        assert!(b.push_row(&[Value::from("nope")]).is_err());
        assert!(b.push_row(&[Value::Null]).is_ok());
        assert!(b.push_row(&[Value::Int(9)]).is_ok());
        let c = b.finish();
        assert_eq!(c.len(), 2);
        assert_eq!(c.column(0).value(0), Value::Null);
        assert_eq!(c.column(0).value(1), Value::Int(9));
    }
}
