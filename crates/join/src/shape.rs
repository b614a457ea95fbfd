//! Intermediate-row layout.
//!
//! Every operator's output row is the concatenation of whole base-table
//! tuples for some subset of the query's relations, ordered by query
//! relation index. [`IntermediateShape`] records which relations those
//! are and where each one's columns start, so downstream jobs (merges,
//! cascade steps) can address `rel.col` in O(1) without schema lookups.
//! `OutRow` is the compiled form a join leaf builds its row with.

use mwtj_query::MultiwayQuery;
use mwtj_storage::{codec, Schema, Tuple};
use std::ops::Range;

/// Layout of an intermediate row covering a set of query relations.
#[derive(Debug, Clone, PartialEq)]
pub struct IntermediateShape {
    /// Query relation indices present, sorted ascending.
    pub rels: Vec<usize>,
    /// Column offset of each relation's slice in the combined row,
    /// parallel to `rels`.
    pub offsets: Vec<usize>,
    /// Column count of each relation, parallel to `rels`.
    pub widths: Vec<usize>,
    /// Qualified schema of the combined row.
    pub schema: Schema,
}

impl IntermediateShape {
    /// Shape covering exactly the given query relations (deduplicated
    /// and sorted).
    pub fn of(query: &MultiwayQuery, rels: &[usize]) -> Self {
        let mut rels: Vec<usize> = rels.to_vec();
        rels.sort_unstable();
        rels.dedup();
        let mut offsets = Vec::with_capacity(rels.len());
        let mut widths = Vec::with_capacity(rels.len());
        let mut off = 0usize;
        for &r in &rels {
            offsets.push(off);
            let w = query.schemas[r].arity();
            widths.push(w);
            off += w;
        }
        let parts: Vec<&Schema> = rels.iter().map(|&r| &query.schemas[r]).collect();
        let name = format!(
            "i_{}",
            rels.iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join("_")
        );
        let schema = Schema::concat(name, &parts);
        IntermediateShape {
            rels,
            offsets,
            widths,
            schema,
        }
    }

    /// Shape of a single base relation.
    pub fn base(query: &MultiwayQuery, rel: usize) -> Self {
        Self::of(query, &[rel])
    }

    /// Shape of the union of two shapes.
    pub fn union(query: &MultiwayQuery, a: &IntermediateShape, b: &IntermediateShape) -> Self {
        let mut rels = a.rels.clone();
        rels.extend_from_slice(&b.rels);
        Self::of(query, &rels)
    }

    /// Query relations present in both shapes (the merge key set).
    pub fn shared(a: &IntermediateShape, b: &IntermediateShape) -> Vec<usize> {
        a.rels
            .iter()
            .copied()
            .filter(|r| b.rels.contains(r))
            .collect()
    }

    /// Does this shape carry relation `rel`?
    pub fn has(&self, rel: usize) -> bool {
        self.rels.binary_search(&rel).is_ok()
    }

    /// Position of `rel` within `rels`.
    fn pos(&self, rel: usize) -> usize {
        self.rels
            .binary_search(&rel)
            .unwrap_or_else(|_| panic!("relation {rel} not in shape {:?}", self.rels))
    }

    /// Flat column range of `rel` within a combined row — the resolved
    /// form kernels compile to so the per-pair path touches no shape
    /// lookups.
    pub fn col_range(&self, rel: usize) -> std::ops::Range<usize> {
        let p = self.pos(rel);
        self.offsets[p]..self.offsets[p] + self.widths[p]
    }

    /// Total column count.
    pub fn arity(&self) -> usize {
        self.widths.iter().sum()
    }

    /// Flat columns of `query`'s projection within rows of this shape,
    /// which must carry every projected relation.
    pub fn projection_cols(&self, query: &MultiwayQuery) -> Vec<usize> {
        query
            .projection
            .iter()
            .map(|&(r, c)| self.col_range(r).start + c)
            .collect()
    }
}

/// How a join leaf builds its output row from the rows it joined — its
/// *parts*: a pair's left and right row, a chain's row per dimension —
/// and what that row is priced at.
///
/// The *full* joined row — every column of every relation the job
/// covers, once — is what Algorithm 1's reducers write, and Eq. 2–4
/// charge its encoded length as output. A job that persists or merges
/// its rows builds exactly that row. A terminal job builds only the
/// query's projected columns ([`OutRow::project`]) and prices the full
/// row from its parts' memoised lengths, without building it. Either
/// way the row is collected in one allocation.
#[derive(Debug, Clone)]
pub(crate) struct OutRow {
    /// `(part, column)` per output column, in output order.
    picks: Vec<(usize, usize)>,
    /// Arity of the full joined row.
    arity: usize,
    /// `(part, columns)` the full row does not repeat: a relation some
    /// earlier part already carries (a merge's shared relations).
    repeated: Vec<(usize, Range<usize>)>,
    /// Whether `picks` project; else they build the full row itself.
    projected: bool,
}

impl OutRow {
    /// The full row of shape `out` from parts shaped `parts`: each
    /// relation's columns from the first part carrying it.
    pub(crate) fn new(out: &IntermediateShape, parts: &[&IntermediateShape]) -> Self {
        let first = |rel: usize| {
            parts
                .iter()
                .position(|s| s.has(rel))
                .unwrap_or_else(|| panic!("no part provides relation {rel}"))
        };
        let picks = out
            .rels
            .iter()
            .flat_map(|&rel| {
                let p = first(rel);
                parts[p].col_range(rel).map(move |c| (p, c))
            })
            .collect();
        let repeated = parts
            .iter()
            .enumerate()
            .flat_map(|(p, s)| {
                s.rels
                    .iter()
                    .filter(move |&&rel| first(rel) != p)
                    .map(move |&rel| (p, s.col_range(rel)))
            })
            .collect();
        OutRow {
            picks,
            arity: out.arity(),
            repeated,
            projected: false,
        }
    }

    /// Build only `cols` (flat columns of the full row), in that order.
    pub(crate) fn project(self, cols: &[usize]) -> Self {
        OutRow {
            picks: cols.iter().map(|&c| self.picks[c]).collect(),
            projected: true,
            ..self
        }
    }

    /// The output row of `parts` and its priced bytes: the encoded
    /// length of the full joined row.
    #[inline]
    pub(crate) fn build(&self, parts: &[&Tuple]) -> (Tuple, u64) {
        let row: Tuple = self
            .picks
            .iter()
            .map(|&(p, c)| parts[p].get(c).clone())
            .collect();
        let priced = if self.projected {
            self.full_len(parts)
        } else {
            row.encoded_len()
        };
        (row, priced as u64)
    }

    /// Encoded length of the full joined row of `parts`, without
    /// building it: the arity header, then every part's values less
    /// the repeated columns.
    fn full_len(&self, parts: &[&Tuple]) -> usize {
        let values: usize = parts.iter().map(|t| t.values_len()).sum();
        let repeated: usize = self
            .repeated
            .iter()
            .map(|(p, cols)| codec::values_len(&parts[*p].values()[cols.clone()]))
            .sum();
        codec::arity_len(self.arity) + values - repeated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwtj_query::{QueryBuilder, ThetaOp};
    use mwtj_storage::{tuple, DataType};

    fn query() -> MultiwayQuery {
        let s = |n: &str| Schema::from_pairs(n, &[("a", DataType::Int), ("b", DataType::Int)]);
        QueryBuilder::new("q")
            .relation(s("r0"))
            .relation(s("r1"))
            .relation(s("r2"))
            .join("r0", "a", ThetaOp::Lt, "r1", "a")
            .join("r1", "b", ThetaOp::Eq, "r2", "b")
            .build()
            .unwrap()
    }

    #[test]
    fn offsets_and_lookup() {
        let q = query();
        let s = IntermediateShape::of(&q, &[2, 0]);
        assert_eq!(s.rels, vec![0, 2]);
        assert_eq!(s.offsets, vec![0, 2]);
        assert_eq!(s.arity(), 4);
        assert_eq!(s.col_range(2), 2..4);
        assert_eq!(s.projection_cols(&q), Vec::<usize>::new());
        let mut projected = q.clone();
        projected.projection = vec![(2, 1), (0, 0)];
        assert_eq!(s.projection_cols(&projected), vec![3, 0]);
        assert!(s.has(0) && !s.has(1));
    }

    #[test]
    fn union_and_shared() {
        let q = query();
        let a = IntermediateShape::of(&q, &[0, 1]);
        let b = IntermediateShape::of(&q, &[1, 2]);
        let u = IntermediateShape::union(&q, &a, &b);
        assert_eq!(u.rels, vec![0, 1, 2]);
        assert_eq!(IntermediateShape::shared(&a, &b), vec![1]);
        assert_eq!(IntermediateShape::shared(&a, &a), vec![0, 1]);
    }

    #[test]
    fn out_row_takes_first_part_and_prices_the_full_row() {
        let q = query();
        let a = IntermediateShape::of(&q, &[0, 1]);
        let b = IntermediateShape::of(&q, &[1, 2]);
        let u = IntermediateShape::union(&q, &a, &b);
        let ra = tuple![1, "two", 3, 4]; // r0=(1,"two") r1=(3,4)
        let rb = tuple![3, 4, 500, 6.5]; // r1=(3,4) r2=(500,6.5)
        let full = OutRow::new(&u, &[&a, &b]);
        let (row, priced) = full.build(&[&ra, &rb]);
        assert_eq!(row, tuple![1, "two", 3, 4, 500, 6.5]);
        assert_eq!(priced, row.encoded_len() as u64);
        // Projected: only the picked columns are built, in pick order,
        // but the price is still the full row's.
        let (picked, priced) = full.project(&[5, 0]).build(&[&ra, &rb]);
        assert_eq!(picked, tuple![6.5, 1]);
        assert_eq!(priced, row.encoded_len() as u64);
    }

    #[test]
    #[should_panic(expected = "not in shape")]
    fn missing_relation_panics() {
        let q = query();
        let s = IntermediateShape::of(&q, &[0]);
        s.col_range(1);
    }

    #[test]
    fn schema_is_qualified() {
        let q = query();
        let s = IntermediateShape::of(&q, &[0, 1]);
        assert_eq!(s.schema.fields()[0].name, "r0.a");
        assert_eq!(s.schema.fields()[2].name, "r1.a");
    }
}
