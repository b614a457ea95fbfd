//! The pair join as a two-depth descent.
//!
//! A [`PairJob`](crate::PairJob) reducer receives a bag of left rows
//! and a bag of right rows and must produce the matching pairs.
//! [`PairKernel`] resolves the predicate set once per job to flat
//! column indices within each side's row and runs the reducer through
//! the shared `descent` core: the left bag is depth 0, walked in order,
//! and the right bag is depth 1, found through a hash index on the
//! equality component (zero-offset `=` predicates plus, for a merge,
//! the shared relations' columns), else a sorted key range on one
//! inequality or offset equality, else a walk — see [`KernelKind`].
//! Pairs come out in left-major nested-loop order, so downstream byte
//! accounting and block layouts do not depend on the index.
//!
//! The simulated cost model is unaffected by the index: reducers still
//! report `|L|·|R|` candidates for pair joins, the work a real Hadoop
//! reducer running the naive algorithm would do.

use crate::descent::{Descent, Leaf};
use crate::shape::{IntermediateShape, OutRow};
use mwtj_query::theta::CompiledPredicate;
use mwtj_storage::Tuple;

pub use crate::descent::KernelKind;

/// A pair-join kernel compiled once per job from the shapes and the
/// predicate set.
pub struct PairKernel {
    descent: Descent,
    /// The predicates with `left_rel`/`right_rel` the side (0 = left,
    /// 1 = right) and columns flat within that side's row.
    preds: Vec<CompiledPredicate>,
    /// The equality component as flat (left col, right col) pairs:
    /// shared-relation columns first (canonical order), then
    /// zero-offset `=` predicate columns in predicate order — the right
    /// side's hash key, and the single source of truth for map-side
    /// `EquiHash` partitioning keys.
    eq_key: Vec<(usize, usize)>,
    /// Output assembly: the leaf's row from a matching pair.
    out: OutRow,
}

impl PairKernel {
    /// Compile a kernel for joining rows shaped `left` and `right` into
    /// rows shaped `out` under `preds` (query-relation indexed; each
    /// predicate must span the two sides).
    pub fn compile(
        left: &IntermediateShape,
        right: &IntermediateShape,
        out: &IntermediateShape,
        preds: &[CompiledPredicate],
    ) -> Self {
        let sides = [left, right];
        // Shared relations: the merge equality component.
        let shared = IntermediateShape::shared(left, right)
            .into_iter()
            .map(|rel| {
                let (l, r) = (left.col_range(rel), right.col_range(rel));
                debug_assert_eq!(l.len(), r.len());
                (l.start, r.start, l.len())
            })
            .collect();
        let preds: Vec<CompiledPredicate> = preds
            .iter()
            .map(|p| {
                let (l, r) = if left.has(p.left_rel) && right.has(p.right_rel) {
                    (0, 1)
                } else {
                    (1, 0)
                };
                CompiledPredicate {
                    left_rel: l,
                    left_col: sides[l].col_range(p.left_rel).start + p.left_col,
                    right_rel: r,
                    right_col: sides[r].col_range(p.right_rel).start + p.right_col,
                    ..*p
                }
            })
            .collect();
        let descent = Descent::new(2, &preds, shared);
        PairKernel {
            eq_key: descent.equality_key(1),
            descent,
            preds,
            // For each output relation, the first side carrying it
            // provides the columns (left preferred).
            out: OutRow::new(out, &sides),
        }
    }

    /// Build only `cols` (flat columns of the out shape) from each
    /// matching pair, still priced at the full joined row.
    pub(crate) fn project(self, cols: &[usize]) -> Self {
        PairKernel {
            out: self.out.project(cols),
            ..self
        }
    }

    /// The index the right side is found through.
    pub fn kind(&self) -> KernelKind {
        self.descent.kind(1)
    }

    /// The equality component as flat (left col, right col) pairs, in
    /// canonical order (shared-relation columns, then zero-offset `=`
    /// predicate columns). Empty when the predicate set has no
    /// equality component. Map-side `EquiHash` partitioning derives its
    /// per-side key columns from this, so the shuffle key and the
    /// reduce-side hash key can never drift apart.
    pub fn equality_key(&self) -> &[(usize, usize)] {
        &self.eq_key
    }

    /// The predicates as the two-slot descent sees them: `left_rel` /
    /// `right_rel` are sides, columns are flat within a side's row.
    pub(crate) fn side_preds(&self) -> &[CompiledPredicate] {
        &self.preds
    }

    /// Join `lefts` × `rights`, appending matching `(left index, right
    /// index)` pairs to `pairs` in left-major input order (the exact
    /// order a nested loop over the inputs would emit).
    pub fn join_into(&self, lefts: &[&Tuple], rights: &[&Tuple], pairs: &mut Vec<(u32, u32)>) {
        self.visit(lefts, rights, &mut |_, at| {
            pairs.push((at[0], at[1]));
            true
        });
    }

    /// Hand `leaf` the pairs [`PairKernel::join_into`] appends — rows
    /// and positions, left then right — in the same order, stopping
    /// when it returns `false`. Returns the candidates examined.
    pub(crate) fn visit(&self, lefts: &[&Tuple], rights: &[&Tuple], leaf: &mut Leaf<'_>) -> u64 {
        // A pair reads no survivor counts, so an empty side ends the call.
        if rights.is_empty() {
            return 0;
        }
        self.descent.run(&[lefts, rights], leaf).examined
    }

    /// The nested-loop reference [`PairKernel::join_into`] is held to:
    /// every right row tried against every left row, same predicate
    /// loop, same pair order. Nothing in the engine reaches it.
    #[doc(hidden)]
    pub fn join_scan_reference(
        &self,
        lefts: &[&Tuple],
        rights: &[&Tuple],
        pairs: &mut Vec<(u32, u32)>,
    ) {
        self.descent.run_scan(&[lefts, rights], &mut |_, at| {
            pairs.push((at[0], at[1]));
            true
        });
    }

    /// Assemble one output row from a matching pair: each output
    /// relation's columns from the first side carrying it.
    pub fn assemble(&self, l: &Tuple, r: &Tuple) -> Tuple {
        self.build(&[l, r]).0
    }

    /// The output row of a matching `[left, right]` pair and its priced
    /// bytes (see [`OutRow::build`]).
    pub(crate) fn build(&self, pair: &[&Tuple]) -> (Tuple, u64) {
        self.out.build(pair)
    }
}

impl std::fmt::Debug for PairKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairKernel")
            .field("kind", &self.kind())
            .field("preds", &self.preds)
            .field("eq_key", &self.eq_key)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwtj_query::{ColExpr, MultiwayQuery, QueryBuilder, ThetaOp};
    use mwtj_storage::{tuple, DataType, Schema, Value};

    fn schema(n: &str) -> Schema {
        Schema::from_pairs(n, &[("a", DataType::Int), ("b", DataType::Int)])
    }

    fn two_rel_query(op: ThetaOp) -> MultiwayQuery {
        QueryBuilder::new("q")
            .relation(schema("l"))
            .relation(schema("r"))
            .join("l", "a", op, "r", "a")
            .build()
            .unwrap()
    }

    fn compile_for(q: &MultiwayQuery) -> PairKernel {
        let left = IntermediateShape::base(q, 0);
        let right = IntermediateShape::base(q, 1);
        let out = IntermediateShape::union(q, &left, &right);
        let preds: Vec<CompiledPredicate> = q
            .compile()
            .unwrap()
            .per_condition
            .iter()
            .flat_map(|c| c.iter().copied())
            .collect();
        PairKernel::compile(&left, &right, &out, &preds)
    }

    /// The kernel's pairs, asserted equal to the scan reference's.
    fn join_pairs(k: &PairKernel, lefts: &[Tuple], rights: &[Tuple]) -> Vec<(u32, u32)> {
        let l: Vec<&Tuple> = lefts.iter().collect();
        let r: Vec<&Tuple> = rights.iter().collect();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        k.join_into(&l, &r, &mut got);
        k.join_scan_reference(&l, &r, &mut want);
        assert_eq!(got, want, "{:?} disagrees with the scan", k.kind());
        got
    }

    #[test]
    fn selection_rules() {
        let kind = |q: &MultiwayQuery| compile_for(q).kind();
        assert_eq!(kind(&two_rel_query(ThetaOp::Eq)), KernelKind::Hash);
        for op in [ThetaOp::Lt, ThetaOp::Le, ThetaOp::Ge, ThetaOp::Gt] {
            assert_eq!(kind(&two_rel_query(op)), KernelKind::Range);
        }
        assert_eq!(kind(&two_rel_query(ThetaOp::Ne)), KernelKind::Scan);
        let two = |a: ThetaOp, b: ThetaOp| {
            QueryBuilder::new("q")
                .relation(schema("l"))
                .relation(schema("r"))
                .join("l", "a", a, "r", "a")
                .join("l", "b", b, "r", "b")
                .build()
                .unwrap()
        };
        // Eq + inequality: hash with residual.
        assert_eq!(kind(&two(ThetaOp::Eq, ThetaOp::Lt)), KernelKind::Hash);
        // Two inequalities: a range on the first.
        assert_eq!(kind(&two(ThetaOp::Lt, ThetaOp::Gt)), KernelKind::Range);
        // Offset equality is not hashable: a range.
        let q = QueryBuilder::new("q")
            .relation(schema("l"))
            .relation(schema("r"))
            .join_expr(
                ColExpr::col_plus("l", "a", 1.0),
                ThetaOp::Eq,
                ColExpr::col("r", "a"),
            )
            .build()
            .unwrap();
        assert_eq!(kind(&q), KernelKind::Range);
    }

    fn rows(vals: &[(i64, i64)]) -> Vec<Tuple> {
        vals.iter().map(|&(a, b)| tuple![a, b]).collect()
    }

    #[test]
    fn every_operator_emits_left_major() {
        let lefts = rows(&[(5, 1), (1, 2), (3, 3), (3, 4)]);
        let rights = rows(&[(3, 1), (2, 2), (5, 3), (1, 4), (3, 5)]);
        for op in ThetaOp::ALL {
            let got = join_pairs(&compile_for(&two_rel_query(op)), &lefts, &rights);
            // Left-major order: strictly increasing lexicographically.
            for w in got.windows(2) {
                assert!(w[0] < w[1], "{op} emitted out of order: {got:?}");
            }
        }
    }

    /// A range must order or set aside every value class exactly as
    /// `eval_theta` does: NULLs, strings, mixed Int/Double, `-0.0` vs
    /// `+0.0`, NaN payloads and integers beyond ±2⁵³ (equal under the
    /// f64 view, distinct under `sql_cmp`), densely enough that some
    /// prefixes walk the group through the pre-filter.
    #[test]
    fn range_handles_every_value_class() {
        let big = 1i64 << 53;
        let vals = [
            Value::Int(1),
            Value::Null,
            Value::from("apple"),
            Value::Double(2.5),
            Value::from("pear"),
            Value::Double(0.0),
            Value::Double(-0.0),
            Value::Double(f64::NAN),
            Value::Double(-f64::NAN),
            Value::Double(f64::INFINITY),
            Value::Int(big),
            Value::Int(big + 1),
            Value::Double(9e15),
            Value::Int(i64::MIN),
        ];
        let side = |shift: usize| -> Vec<Tuple> {
            (0..vals.len())
                .map(|i| Tuple::new(vec![vals[(i + shift) % vals.len()].clone(), Value::Int(0)]))
                .collect()
        };
        for op in [ThetaOp::Lt, ThetaOp::Le, ThetaOp::Ge, ThetaOp::Gt] {
            let k = compile_for(&two_rel_query(op));
            assert_eq!(k.kind(), KernelKind::Range);
            let got = join_pairs(&k, &side(0), &side(5));
            assert!(!got.is_empty(), "{op}: degenerate test");
        }
        // -0.0 < +0.0 under total_cmp: (left -0.0, right +0.0) joins.
        let k = compile_for(&two_rel_query(ThetaOp::Lt));
        let zeros = [tuple![-0.0, 0], tuple![0.0, 0]];
        assert_eq!(join_pairs(&k, &zeros, &zeros), vec![(0, 1)]);
    }

    #[test]
    fn hash_matches_mixed_int_double_keys() {
        let k = compile_for(&two_rel_query(ThetaOp::Eq));
        let lefts = vec![tuple![7, 0], tuple![7.0, 1], tuple![8, 2]];
        // More rows than a walk takes, so the hash index is built.
        let rights = vec![
            tuple![7.0, 0],
            tuple![7, 1],
            tuple![8.5, 2],
            tuple![-0.0, 3],
            tuple![9, 4],
        ];
        // 2 lefts × 2 rights with key 7.
        assert_eq!(
            join_pairs(&k, &lefts, &rights),
            vec![(0, 0), (0, 1), (1, 0), (1, 1)]
        );
    }

    /// A pure merge joins rows that agree on the shared relation's whole
    /// tuple, NULL matching NULL — the hash key and the scan's slice
    /// check alike.
    #[test]
    fn merge_key_matches_null_to_null() {
        let q = QueryBuilder::new("q")
            .relation(schema("r0"))
            .relation(schema("r1"))
            .relation(schema("r2"))
            .join("r0", "a", ThetaOp::Lt, "r1", "a")
            .join("r1", "a", ThetaOp::Lt, "r2", "a")
            .build()
            .unwrap();
        let left = IntermediateShape::of(&q, &[0, 1]);
        let right = IntermediateShape::of(&q, &[1, 2]);
        let out = IntermediateShape::union(&q, &left, &right);
        let k = PairKernel::compile(&left, &right, &out, &[]);
        assert_eq!(k.kind(), KernelKind::Hash);
        assert_eq!(k.equality_key(), &[(2, 0), (3, 1)]);
        let null = Value::Null;
        let lefts = vec![
            Tuple::new(vec![1.into(), 1.into(), null.clone(), 5.into()]),
            tuple![2, 2, 7, 7],
        ];
        let rights = vec![
            Tuple::new(vec![null.clone(), 5.into(), 3.into(), 3.into()]),
            tuple![7, 8, 4, 4],
            tuple![7, 7, 9, 9],
            Tuple::new(vec![null, 6.into(), 3.into(), 3.into()]),
            tuple![5, 7, 9, 9],
        ];
        assert_eq!(join_pairs(&k, &lefts, &rights), vec![(0, 0), (1, 2)]);
    }

    #[test]
    fn assemble_concatenates_the_sides() {
        let q = two_rel_query(ThetaOp::Eq);
        let (l, r) = (tuple![1, 2], tuple![3, 4]);
        assert_eq!(compile_for(&q).assemble(&l, &r), tuple![1, 2, 3, 4]);
    }
}
