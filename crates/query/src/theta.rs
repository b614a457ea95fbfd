//! Theta operators and atomic join predicates.

use mwtj_storage::{Tuple, Value};
use std::cmp::Ordering;
use std::fmt;

/// The six theta comparison operators of the paper
/// (θ ∈ {<, ≤, =, ≥, >, <>}).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ThetaOp {
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `=`
    Eq,
    /// `≥`
    Ge,
    /// `>`
    Gt,
    /// `≠` (the paper writes `<>`)
    Ne,
}

impl ThetaOp {
    /// All six operators.
    pub const ALL: [ThetaOp; 6] = [
        ThetaOp::Lt,
        ThetaOp::Le,
        ThetaOp::Eq,
        ThetaOp::Ge,
        ThetaOp::Gt,
        ThetaOp::Ne,
    ];

    /// Does the operator hold for the given comparison outcome?
    pub fn holds(&self, ord: Ordering) -> bool {
        match self {
            ThetaOp::Lt => ord == Ordering::Less,
            ThetaOp::Le => ord != Ordering::Greater,
            ThetaOp::Eq => ord == Ordering::Equal,
            ThetaOp::Ge => ord != Ordering::Less,
            ThetaOp::Gt => ord == Ordering::Greater,
            ThetaOp::Ne => ord != Ordering::Equal,
        }
    }

    /// The operator with sides swapped: `a op b ⇔ b op.flip() a`.
    pub fn flip(&self) -> ThetaOp {
        match self {
            ThetaOp::Lt => ThetaOp::Gt,
            ThetaOp::Le => ThetaOp::Ge,
            ThetaOp::Eq => ThetaOp::Eq,
            ThetaOp::Ge => ThetaOp::Le,
            ThetaOp::Gt => ThetaOp::Lt,
            ThetaOp::Ne => ThetaOp::Ne,
        }
    }

    /// True for `=` — the only operator the plain hash-partition
    /// equi-join implementation can serve.
    pub fn is_equality(&self) -> bool {
        matches!(self, ThetaOp::Eq)
    }
}

impl fmt::Display for ThetaOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ThetaOp::Lt => "<",
            ThetaOp::Le => "<=",
            ThetaOp::Eq => "=",
            ThetaOp::Ge => ">=",
            ThetaOp::Gt => ">",
            ThetaOp::Ne => "!=",
        };
        write!(f, "{s}")
    }
}

/// A `?` positional-parameter slot standing in for a column
/// expression's constant offset: the expression reads `rel.col + ?i`
/// (or `- ?i`). Slots are filled by
/// [`MultiwayQuery::bind_params`](crate::MultiwayQuery::bind_params);
/// a query with unbound slots refuses to compile, so an unbound
/// parameter can never reach execution silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamRef {
    /// Zero-based positional index (text order in the SQL).
    pub index: u32,
    /// Whether the bound value is subtracted (`- ?`) instead of added.
    pub negated: bool,
}

impl fmt::Display for ParamRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}?{}", if self.negated { '-' } else { '+' }, self.index)
    }
}

/// A column reference plus an optional constant offset:
/// `relation.column + offset`. The offset expresses the paper's affine
/// predicates (`FI.at + L.l1 < FI'.dt`, `t1.d + 3 > t3.d`) without a
/// full expression tree. The offset position may instead hold a `?`
/// positional [`ParamRef`] slot (prepared statements), mutually
/// exclusive with a non-zero literal offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ColExpr {
    /// Relation name (must match a schema name in the query).
    pub relation: String,
    /// Column name within that relation.
    pub column: String,
    /// Constant added to the numeric view of the column (0 for plain
    /// references; must be 0 when comparing strings).
    pub offset: f64,
    /// Unbound positional parameter occupying the offset position
    /// (`None` for ordinary expressions).
    pub param: Option<ParamRef>,
}

impl ColExpr {
    /// Plain `rel.col` reference.
    pub fn col(relation: impl Into<String>, column: impl Into<String>) -> Self {
        ColExpr {
            relation: relation.into(),
            column: column.into(),
            offset: 0.0,
            param: None,
        }
    }

    /// `rel.col + offset`.
    pub fn col_plus(relation: impl Into<String>, column: impl Into<String>, offset: f64) -> Self {
        ColExpr {
            relation: relation.into(),
            column: column.into(),
            offset,
            param: None,
        }
    }

    /// `rel.col + ?i` (or `- ?i`): the offset is a positional
    /// parameter bound at execute time.
    pub fn col_param(
        relation: impl Into<String>,
        column: impl Into<String>,
        param: ParamRef,
    ) -> Self {
        ColExpr {
            relation: relation.into(),
            column: column.into(),
            offset: 0.0,
            param: Some(param),
        }
    }
}

impl fmt::Display for ColExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(p) = self.param {
            write!(f, "{}.{}{}", self.relation, self.column, p)
        } else if self.offset == 0.0 {
            write!(f, "{}.{}", self.relation, self.column)
        } else if self.offset > 0.0 {
            write!(f, "{}.{}+{}", self.relation, self.column, self.offset)
        } else {
            write!(f, "{}.{}{}", self.relation, self.column, self.offset)
        }
    }
}

/// An atomic theta predicate between two relations:
/// `left θ right`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Left side.
    pub left: ColExpr,
    /// Operator.
    pub op: ThetaOp,
    /// Right side.
    pub right: ColExpr,
}

impl Predicate {
    /// Build a predicate.
    pub fn new(left: ColExpr, op: ThetaOp, right: ColExpr) -> Self {
        Predicate { left, op, right }
    }

    /// Evaluate against two values already projected from the two sides.
    /// NULLs and incomparable types yield `false` (SQL semantics).
    pub fn eval_values(&self, lhs: &Value, rhs: &Value) -> bool {
        eval_theta(lhs, self.left.offset, self.op, rhs, self.right.offset)
    }
}

/// Core theta evaluation: `(lhs + l_off) op (rhs + r_off)`, where offsets
/// apply to the numeric view. String comparisons require zero offsets.
pub fn eval_theta(lhs: &Value, l_off: f64, op: ThetaOp, rhs: &Value, r_off: f64) -> bool {
    if l_off == 0.0 && r_off == 0.0 {
        return lhs.sql_cmp(rhs).is_some_and(|o| op.holds(o));
    }
    match (lhs.as_numeric(), rhs.as_numeric()) {
        (Some(a), Some(b)) => op.holds((a + l_off).total_cmp(&(b + r_off))),
        _ => false,
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op, self.right)
    }
}

/// Conservative satisfiability of `(l + l_off) op (r + r_off)` over two
/// value ranges `[lmin, lmax]` × `[rmin, rmax]` (bounds ordered by
/// [`f64::total_cmp`], attained by actual values). Returns `false` only
/// when **no** pair of values in the ranges can satisfy the predicate
/// under [`eval_theta`]'s semantics; `true` means "maybe".
///
/// Zero offsets on both sides use the raw bounds (the `sql_cmp` path:
/// over exactly-representable numerics it coincides with `total_cmp`);
/// finite non-zero offsets shift the bounds (adding a finite constant is
/// monotone under `total_cmp` for non-NaN values). Non-finite offsets
/// disable pruning — `a + inf` collapses ordering in ways a range check
/// cannot track.
fn interval_may_satisfy(
    lmin: f64,
    lmax: f64,
    l_off: f64,
    op: ThetaOp,
    rmin: f64,
    rmax: f64,
    r_off: f64,
) -> bool {
    let (lmin, lmax, rmin, rmax) = if l_off == 0.0 && r_off == 0.0 {
        (lmin, lmax, rmin, rmax)
    } else if l_off.is_finite() && r_off.is_finite() {
        (lmin + l_off, lmax + l_off, rmin + r_off, rmax + r_off)
    } else {
        return true;
    };
    match op {
        ThetaOp::Lt => lmin.total_cmp(&rmax) == Ordering::Less,
        ThetaOp::Le => lmin.total_cmp(&rmax) != Ordering::Greater,
        ThetaOp::Gt => lmax.total_cmp(&rmin) == Ordering::Greater,
        ThetaOp::Ge => lmax.total_cmp(&rmin) != Ordering::Less,
        ThetaOp::Eq => {
            lmin.total_cmp(&rmax) != Ordering::Greater && rmin.total_cmp(&lmax) != Ordering::Greater
        }
        // Unsatisfiable only when both ranges are the same single point.
        ThetaOp::Ne => {
            !(lmin.total_cmp(&lmax) == Ordering::Equal
                && rmin.total_cmp(&rmax) == Ordering::Equal
                && lmin.total_cmp(&rmin) == Ordering::Equal)
        }
    }
}

/// May any (left row, right row) pair drawn from blocks with column
/// zones `l` and `r` satisfy `(left + l_off) op (right + r_off)`?
///
/// `false` is a proof of emptiness (safe to skip the block pair);
/// `true` is merely "cannot rule it out". [`ZoneRange::Empty`] columns
/// hold only NULLs, which never satisfy a theta predicate;
/// [`ZoneRange::Unbounded`] columns never prune.
pub fn zones_may_satisfy(
    l: &mwtj_storage::ColumnZone,
    l_off: f64,
    op: ThetaOp,
    r: &mwtj_storage::ColumnZone,
    r_off: f64,
) -> bool {
    use mwtj_storage::ZoneRange;
    match (&l.range, &r.range) {
        (ZoneRange::Empty, _) | (_, ZoneRange::Empty) => false,
        (ZoneRange::Unbounded, _) | (_, ZoneRange::Unbounded) => true,
        (
            ZoneRange::Range {
                min: lmin,
                max: lmax,
            },
            ZoneRange::Range {
                min: rmin,
                max: rmax,
            },
        ) => interval_may_satisfy(*lmin, *lmax, l_off, op, *rmin, *rmax, r_off),
    }
}

/// May a single left value `v` satisfy `(v + v_off) op (right + z_off)`
/// against any right value from a block with column zone `z`? Used for
/// row-level skipping; for right-side rows call with `op.flip()` and
/// swapped offsets (`a op b ⇔ b flip(op) a`).
pub fn value_may_satisfy(
    v: &Value,
    v_off: f64,
    op: ThetaOp,
    z: &mwtj_storage::ColumnZone,
    z_off: f64,
) -> bool {
    use mwtj_storage::ZoneRange;
    let point = match v {
        // NULL never satisfies a theta predicate.
        Value::Null => return false,
        Value::Int(i) => {
            if i.unsigned_abs() > (1u64 << 53) {
                // Not exactly representable — never prune.
                return !matches!(z.range, ZoneRange::Empty);
            }
            *i as f64
        }
        Value::Double(d) => {
            if d.is_nan() {
                return !matches!(z.range, ZoneRange::Empty);
            }
            *d
        }
        // Strings only ever match Unbounded zones (ranged zones hold
        // exclusively numerics, which sql_cmp never matches to strings,
        // and offsets reject strings outright).
        Value::Str(_) => {
            return matches!(z.range, ZoneRange::Unbounded) && v_off == 0.0 && z_off == 0.0
        }
    };
    match &z.range {
        ZoneRange::Empty => false,
        ZoneRange::Unbounded => true,
        ZoneRange::Range { min, max } => {
            interval_may_satisfy(point, point, v_off, op, *min, *max, z_off)
        }
    }
}

/// A compiled predicate: column names resolved to `(relation index,
/// column index)` so the reducer's innermost loop touches no strings.
#[derive(Debug, Clone, Copy)]
pub struct CompiledPredicate {
    /// Index of the left relation in the query's relation list.
    pub left_rel: usize,
    /// Column index within the left relation.
    pub left_col: usize,
    /// Left constant offset.
    pub left_off: f64,
    /// The operator.
    pub op: ThetaOp,
    /// Index of the right relation.
    pub right_rel: usize,
    /// Column index within the right relation.
    pub right_col: usize,
    /// Right constant offset.
    pub right_off: f64,
}

impl CompiledPredicate {
    /// Evaluate against one tuple per relation (indexed by relation
    /// position in the query).
    #[inline]
    pub fn eval(&self, tuples: &[&Tuple]) -> bool {
        let l = tuples[self.left_rel].get(self.left_col);
        let r = tuples[self.right_rel].get(self.right_col);
        eval_theta(l, self.left_off, self.op, r, self.right_off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwtj_storage::tuple;

    #[test]
    fn operators_hold_correctly() {
        use Ordering::*;
        let table = [
            (ThetaOp::Lt, [true, false, false]),
            (ThetaOp::Le, [true, true, false]),
            (ThetaOp::Eq, [false, true, false]),
            (ThetaOp::Ge, [false, true, true]),
            (ThetaOp::Gt, [false, false, true]),
            (ThetaOp::Ne, [true, false, true]),
        ];
        for (op, expect) in table {
            for (ord, &e) in [Less, Equal, Greater].iter().zip(&expect) {
                assert_eq!(op.holds(*ord), e, "{op} {ord:?}");
            }
        }
    }

    #[test]
    fn flip_is_involutive_and_correct() {
        for op in ThetaOp::ALL {
            assert_eq!(op.flip().flip(), op);
            for ord in [Ordering::Less, Ordering::Equal, Ordering::Greater] {
                assert_eq!(op.holds(ord), op.flip().holds(ord.reverse()));
            }
        }
    }

    #[test]
    fn offsets_apply() {
        // 5 + 3 > 7  -> true ; 5 > 7 -> false
        assert!(eval_theta(
            &Value::Int(5),
            3.0,
            ThetaOp::Gt,
            &Value::Int(7),
            0.0
        ));
        assert!(!eval_theta(
            &Value::Int(5),
            0.0,
            ThetaOp::Gt,
            &Value::Int(7),
            0.0
        ));
    }

    #[test]
    fn nulls_and_strings_fail_closed() {
        assert!(!eval_theta(
            &Value::Null,
            0.0,
            ThetaOp::Eq,
            &Value::Null,
            0.0
        ));
        // String with offset is a type error -> false, not a panic.
        assert!(!eval_theta(
            &Value::from("a"),
            1.0,
            ThetaOp::Lt,
            &Value::from("b"),
            0.0
        ));
        // String without offsets compares fine.
        assert!(eval_theta(
            &Value::from("a"),
            0.0,
            ThetaOp::Lt,
            &Value::from("b"),
            0.0
        ));
    }

    #[test]
    fn compiled_predicate_eval() {
        let p = CompiledPredicate {
            left_rel: 0,
            left_col: 1,
            left_off: 0.0,
            op: ThetaOp::Le,
            right_rel: 1,
            right_col: 0,
            right_off: 0.0,
        };
        let a = tuple![9, 4];
        let b = tuple![5];
        assert!(p.eval(&[&a, &b])); // 4 <= 5
        let b2 = tuple![3];
        assert!(!p.eval(&[&a, &b2]));
    }

    #[test]
    fn interval_satisfiability_matches_exhaustive_eval() {
        use mwtj_storage::{BlockZones, Tuple};
        // Small domains; brute-force: zones_may_satisfy must be true
        // whenever any value pair satisfies the predicate.
        let domain: Vec<i64> = vec![-3, -1, 0, 2, 5];
        let offs = [0.0, 0.0, 1.5, -2.0];
        for (lo, hi) in [(0usize, 2usize), (1, 3), (2, 4), (0, 4), (3, 3)] {
            for (rlo, rhi) in [(0usize, 1usize), (2, 4), (1, 3), (4, 4)] {
                let lrows: Vec<Tuple> = domain[lo..=hi].iter().map(|&v| tuple![v]).collect();
                let rrows: Vec<Tuple> = domain[rlo..=rhi].iter().map(|&v| tuple![v]).collect();
                let lz = BlockZones::collect(&lrows, 1);
                let rz = BlockZones::collect(&rrows, 1);
                for op in ThetaOp::ALL {
                    for w in offs.chunks(2) {
                        let (l_off, r_off) = (w[0], w[1]);
                        let any = lrows.iter().any(|l| {
                            rrows
                                .iter()
                                .any(|r| eval_theta(l.get(0), l_off, op, r.get(0), r_off))
                        });
                        let may = zones_may_satisfy(lz.column(0), l_off, op, rz.column(0), r_off);
                        assert!(
                            may || !any,
                            "unsound prune: {op} offs ({l_off},{r_off}) \
                             L={:?} R={:?}",
                            &domain[lo..=hi],
                            &domain[rlo..=rhi]
                        );
                        // Rows: every satisfied left value must survive
                        // the row-level check, and right rows the
                        // flipped one.
                        for l in &lrows {
                            let row_any = rrows
                                .iter()
                                .any(|r| eval_theta(l.get(0), l_off, op, r.get(0), r_off));
                            let row_may =
                                value_may_satisfy(l.get(0), l_off, op, rz.column(0), r_off);
                            assert!(row_may || !row_any, "unsound left-row prune");
                        }
                        for r in &rrows {
                            let row_any = lrows
                                .iter()
                                .any(|l| eval_theta(l.get(0), l_off, op, r.get(0), r_off));
                            let row_may =
                                value_may_satisfy(r.get(0), r_off, op.flip(), lz.column(0), l_off);
                            assert!(row_may || !row_any, "unsound right-row prune");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn disjoint_ranges_prune_equality_and_bands() {
        use mwtj_storage::{ColumnZone, ZoneRange};
        let z = |min: f64, max: f64| ColumnZone {
            range: ZoneRange::Range { min, max },
            nulls: 0,
        };
        // [0,10] vs [20,30]
        assert!(!zones_may_satisfy(
            &z(0.0, 10.0),
            0.0,
            ThetaOp::Eq,
            &z(20.0, 30.0),
            0.0
        ));
        assert!(!zones_may_satisfy(
            &z(0.0, 10.0),
            0.0,
            ThetaOp::Gt,
            &z(20.0, 30.0),
            0.0
        ));
        assert!(zones_may_satisfy(
            &z(0.0, 10.0),
            0.0,
            ThetaOp::Lt,
            &z(20.0, 30.0),
            0.0
        ));
        // A +15 left offset bridges the gap for equality.
        assert!(zones_may_satisfy(
            &z(0.0, 10.0),
            15.0,
            ThetaOp::Eq,
            &z(20.0, 30.0),
            0.0
        ));
        // Ne prunes only point-vs-same-point.
        assert!(!zones_may_satisfy(
            &z(5.0, 5.0),
            0.0,
            ThetaOp::Ne,
            &z(5.0, 5.0),
            0.0
        ));
        assert!(zones_may_satisfy(
            &z(5.0, 5.0),
            0.0,
            ThetaOp::Ne,
            &z(5.0, 6.0),
            0.0
        ));
    }

    #[test]
    fn empty_and_unbounded_zones() {
        use mwtj_storage::{ColumnZone, ZoneRange};
        let empty = ColumnZone {
            range: ZoneRange::Empty,
            nulls: 3,
        };
        let unb = ColumnZone {
            range: ZoneRange::Unbounded,
            nulls: 0,
        };
        let rng = ColumnZone {
            range: ZoneRange::Range { min: 0.0, max: 1.0 },
            nulls: 0,
        };
        for op in ThetaOp::ALL {
            assert!(!zones_may_satisfy(&empty, 0.0, op, &rng, 0.0));
            assert!(!zones_may_satisfy(&rng, 0.0, op, &empty, 0.0));
            assert!(zones_may_satisfy(&unb, 0.0, op, &rng, 0.0));
            assert!(!value_may_satisfy(&Value::Null, 0.0, op, &unb, 0.0));
            assert!(!value_may_satisfy(&Value::Int(0), 0.0, op, &empty, 0.0));
        }
        // Strings: only unbounded zones can hold matching strings.
        assert!(value_may_satisfy(
            &Value::from("x"),
            0.0,
            ThetaOp::Eq,
            &unb,
            0.0
        ));
        assert!(!value_may_satisfy(
            &Value::from("x"),
            0.0,
            ThetaOp::Eq,
            &rng,
            0.0
        ));
        // Non-finite offsets never prune ranged pairs.
        assert!(zones_may_satisfy(
            &rng,
            f64::INFINITY,
            ThetaOp::Eq,
            &rng,
            0.0
        ));
    }

    #[test]
    fn display_round() {
        let p = Predicate::new(
            ColExpr::col_plus("t1", "d", 3.0),
            ThetaOp::Gt,
            ColExpr::col("t3", "d"),
        );
        assert_eq!(p.to_string(), "t1.d+3 > t3.d");
    }
}
