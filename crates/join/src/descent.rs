//! The reduce-side join core both join jobs run.
//!
//! Every reducer answers one question per bound prefix: which rows of
//! the next group can join it? [`Descent`] answers it for any number of
//! depths. Depth `d` holds one reduce call's rows of one input — a chain
//! dimension, or a pair job's left side then its right side — and the
//! descent binds one row per depth, depth first and each depth in group
//! order, handing every combination that passes all predicates to the
//! caller's leaf. A pair join is the two-depth case (the
//! information-theory tutorial's binary Generic Join).
//!
//! Each depth finds its candidates through one index, chosen once per
//! job ([`KernelKind`]) and built once per reduce call:
//!
//! * **Hash** on the depth's zero-offset equality component: its
//!   zero-offset `=` predicates against earlier depths, plus the
//!   shared-relation columns of a merge. Built in position order, so a
//!   bucket already lists its rows in group order.
//! * **Range**, otherwise: one sorted key range bounded by the prefix
//!   ([`DepthBound`]: an offset equality, then a two-sided band, then a
//!   one-sided bound), its hits re-sorted into group order. A range
//!   holding more than `1 / SCAN_FRACTION` of the group walks the group
//!   instead, skipping positions whose key lies outside the range.
//! * **Scan**, otherwise: a walk over the whole group.
//!
//! Indexes are only superset filters: every candidate still runs
//! through all of the depth's predicates (`CompiledPredicate::eval`)
//! and, at depth 1 of a merge, the shared-relation check. Rows and row
//! order are therefore those of the nested loop over the groups,
//! [`Descent::run_scan`], which tests and benches hold the indexes to.
//!
//! The descent reports per-depth survivor counts and the candidates it
//! examined. What a job *prices* (Eq. 2–4) is its own formula over group
//! sizes and survivors, so the simulated clock never depends on the
//! index. Indexes and buffers are local to one call, so a reduce attempt
//! the engine retries after a panic reruns bit-identically.
//!
//! [`SemiJoin`] is the two-depth case asked only whether a row has a
//! partner: the chain job's map side uses it to find rows it may count
//! instead of shipping.

use mwtj_query::theta::{CompiledPredicate, ThetaOp};
use mwtj_storage::{Tuple, Value};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// A range holding more than `1 / SCAN_FRACTION` of its group walks the
/// group instead: past that, gathering and re-ordering the hits costs
/// more than the pre-filter comparisons it saves. A group of
/// `SCAN_FRACTION` rows or fewer is walked without building an index.
const SCAN_FRACTION: usize = 4;

/// How a depth finds the rows of its group that may join a prefix —
/// what `EXPLAIN` and the `joincore` bench call the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// A hash index on the depth's zero-offset equality component.
    Hash,
    /// A sorted key range bounded by the prefix.
    Range,
    /// A walk over the whole group.
    Scan,
}

/// Pass-through hasher for keys that are already well-mixed 64-bit
/// hashes (the output of [`key_hash`]).
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PreHashed only hashes u64 keys");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// Equality-key hash → positions holding it, ascending.
type HashIndex = HashMap<u64, Vec<u32>, BuildHasherDefault<PreHashed>>;

/// Seed for the key hash (the FNV-1a offset basis).
const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a byte string — the hash contribution of string keys.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = HASH_SEED;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One key column's contribution to a row's equality hash. The only
/// contract is *equal values contribute equal bits* (collisions are
/// filtered by the predicates): numerics contribute their f64-bits view
/// — `sql_cmp` compares Int/Double (and equality under total_cmp)
/// through exactly that view, and equal Int/Int pairs trivially share
/// bits — strings an FNV over their bytes, and NULLs (equal only to
/// each other, for the shared-relation merge key) a fixed tag.
#[inline]
fn key_bits(v: &Value) -> u64 {
    match v {
        Value::Int(x) => (*x as f64).to_bits(),
        Value::Double(d) => d.to_bits(),
        Value::Str(s) => fnv1a(s.as_bytes()),
        Value::Null => 0x6e75_6c6c_6e75_6c6c, // "nullnull"
    }
}

/// Fold key columns into one hash (splitmix-style multiply/xor-shift:
/// cheap, and pushes entropy into the low bits the identity-hashed
/// table buckets on).
fn key_hash<'v>(values: impl Iterator<Item = &'v Value>) -> u64 {
    values.fold(HASH_SEED, |h, v| {
        let x = (h ^ key_bits(v)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^ (x >> 32)
    })
}

/// What bounds one end of a depth's key range: `column + off` of an
/// earlier slot.
#[derive(Debug, Clone, Copy)]
struct BoundSrc {
    slot: usize,
    col: usize,
    off: f64,
}

impl BoundSrc {
    /// The bound a prefix puts on the key — numeric view plus offset,
    /// as `eval_theta` forms it — or `None` when it cannot be ordered
    /// against the sorted keys (NULL, string or NaN).
    fn key(&self, stack: &[&Tuple]) -> Option<f64> {
        let k = stack[self.slot].get(self.col).as_numeric()? + self.off;
        (!k.is_nan()).then_some(k)
    }
}

/// One end of a depth's key range: `own_col + own` of the depth's row
/// against `src` of the prefix.
#[derive(Debug, Clone, Copy)]
struct End {
    own: f64,
    src: BoundSrc,
}

/// A prefix's key range as resolved ends `(own offset, bound)`: a row
/// is in range when `own + lo.0 >= lo.1` and `own + hi.0 <= hi.1`.
type Ends = ((f64, f64), (f64, f64));

/// Is a row whose key column reads `own` inside `ends`? A NaN `own`,
/// which cannot be ordered, is.
#[inline]
fn within((lo, hi): Ends, own: f64) -> bool {
    !(own + lo.0 < lo.1 || own + hi.0 > hi.1)
}

/// The predicates of one depth that bound `own_col` of that depth's
/// rows by values the prefix has already bound: `lo <= own + lo.own`
/// and/or `own + hi.own <= hi` (an equality sets both ends alike; each
/// end keeps its own offset, so `y.a + 2 >= x.a AND y.a <= x.a` is one
/// two-sided band). Keys and bounds are formed as `eval_theta` forms
/// its operands (numeric view plus offset) and compared with `<` over
/// non-NaN values — `total_cmp`'s order except that it takes `-0.0` for
/// `+0.0`, and the f64 view of two integers keeps their order
/// non-strictly. With strict operators widened to their non-strict
/// closure, that makes the range a superset of what the predicates
/// accept, whether they compare through `sql_cmp` (zero offsets) or
/// arithmetically.
#[derive(Debug, Clone)]
struct DepthBound {
    own_col: usize,
    lo: Option<End>,
    hi: Option<End>,
}

impl DepthBound {
    /// Pick the bound for `depth` among `preds` (slot-indexed): an
    /// equality if there is one, else a column bounded on both sides,
    /// else a one-sided bound; the first in predicate order on ties.
    fn choose(depth: usize, preds: &[&CompiledPredicate]) -> Option<DepthBound> {
        let mut eq: Option<DepthBound> = None;
        let mut bands: Vec<DepthBound> = Vec::new();
        for p in preds {
            // Orient as `own op bound`.
            let left = (p.left_rel, p.left_col, p.left_off);
            let right = (p.right_rel, p.right_col, p.right_off);
            let ((_, own_col, own), (slot, col, off), op) = if p.right_rel == depth {
                (right, left, p.op.flip())
            } else {
                (left, right, p.op)
            };
            let end = End {
                own,
                src: BoundSrc { slot, col, off },
            };
            if slot >= depth || op == ThetaOp::Ne || !own.is_finite() || !off.is_finite() {
                continue;
            }
            if op == ThetaOp::Eq {
                eq.get_or_insert(DepthBound {
                    own_col,
                    lo: Some(end),
                    hi: Some(end),
                });
                continue;
            }
            let at = bands
                .iter()
                .position(|b| b.own_col == own_col)
                .unwrap_or_else(|| {
                    bands.push(DepthBound {
                        own_col,
                        lo: None,
                        hi: None,
                    });
                    bands.len() - 1
                });
            let side = match op {
                ThetaOp::Lt | ThetaOp::Le => &mut bands[at].hi,
                _ => &mut bands[at].lo,
            };
            side.get_or_insert(end);
        }
        eq.or_else(|| {
            let two_sided = bands.iter().position(|b| b.lo.is_some() && b.hi.is_some());
            (!bands.is_empty()).then(|| bands.swap_remove(two_sided.unwrap_or(0)))
        })
    }

    /// The prefix's key range and the span of the sorted `order` inside
    /// it, or `None` when an end cannot be ordered (NULL, string or NaN)
    /// — a prefix that may then join any row.
    fn span(&self, order: &[i64], stack: &[&Tuple]) -> Option<(Ends, Range<usize>)> {
        let end = |e: Option<End>, open: f64| match e {
            None => Some((0.0, open)),
            Some(e) => Some((e.own, e.src.key(stack)?)),
        };
        let (lo, hi) = (
            end(self.lo, f64::NEG_INFINITY)?,
            end(self.hi, f64::INFINITY)?,
        );
        // Adding a finite offset keeps `<=`, so `own + off` ascends with
        // `order` and each end cuts it once. Search only where the range
        // cuts into the group's key span, and for the upper end only
        // when the first key past the lower end is in range.
        let key = |k: i64, off: f64| unordered(k) + off;
        let empty = Some(((lo, hi), 0..0));
        let (Some(&min), Some(&max)) = (order.first(), order.last()) else {
            return empty;
        };
        if key(max, lo.0) < lo.1 {
            return empty;
        }
        let from = match key(min, lo.0) < lo.1 {
            true => order.partition_point(|&k| key(k, lo.0) < lo.1),
            false => 0,
        };
        let to = if key(order[from], hi.0) > hi.1 {
            from
        } else if key(max, hi.0) <= hi.1 {
            order.len()
        } else {
            from + order[from..].partition_point(|&k| key(k, hi.0) <= hi.1)
        };
        Some(((lo, hi), from..to))
    }

    /// Index one group: `(key, position)` of every row with a numeric,
    /// non-NaN key column, sorted by [`ordered`] value; NaN values,
    /// which `<` cannot place, go on a tail examined for every prefix.
    /// NULL and string keys are left out: NULL satisfies no predicate,
    /// and a string only one whose other side is a string too — a
    /// prefix [`Descent`] answers with the whole group. `keys` holds
    /// every position's value for the walk's pre-filter, NaN where it
    /// cannot be ordered.
    fn index(&self, group: &[&Tuple]) -> Index {
        let mut sorted = Vec::with_capacity(group.len());
        let mut tail = Vec::new();
        let mut keys = Vec::with_capacity(group.len());
        for (pos, row) in (0u32..).zip(group) {
            let key = row.get(self.own_col).as_numeric();
            match key {
                Some(k) if k.is_nan() => tail.push(pos),
                Some(k) => sorted.push((ordered(k), pos)),
                None => {}
            }
            keys.push(key.unwrap_or(f64::NAN));
        }
        sorted.sort_unstable_by_key(|&(k, _)| k);
        let (order, positions) = sorted.into_iter().unzip();
        Index::Range {
            order,
            positions,
            tail,
            keys,
        }
    }
}

/// A non-NaN key as an integer whose order is `<`'s over the floats,
/// `-0.0` taken for `+0.0` — cheaper to sort and search than `f64`.
fn ordered(key: f64) -> i64 {
    let bits = (key + 0.0).to_bits() as i64; // -0.0 + 0.0 = +0.0
    bits ^ (((bits >> 63) as u64 >> 1) as i64)
}

/// The float an [`ordered`] key stands for (`+0.0` for either zero).
fn unordered(key: i64) -> f64 {
    f64::from_bits((key ^ (((key >> 63) as u64 >> 1) as i64)) as u64)
}

/// One column of a depth's equality key: `own` of the depth's rows
/// must equal `col` of the row bound at `slot`.
#[derive(Debug, Clone, Copy)]
struct KeyCol {
    slot: usize,
    col: usize,
    own: usize,
}

/// How one depth finds its candidates, chosen once per job.
#[derive(Debug, Clone)]
enum Probe {
    Hash(Vec<KeyCol>),
    Range(DepthBound),
    Scan,
}

impl Probe {
    /// Build this depth's index over one reduce call's group.
    fn index(&self, group: &[&Tuple]) -> Index {
        match self {
            Probe::Hash(key) => {
                let mut table =
                    HashIndex::with_capacity_and_hasher(group.len(), Default::default());
                for (pos, row) in (0u32..).zip(group) {
                    let h = key_hash(key.iter().map(|k| row.get(k.own)));
                    table.entry(h).or_default().push(pos);
                }
                Index::Hash(table)
            }
            Probe::Range(bound) => bound.index(group),
            Probe::Scan => Index::Scan,
        }
    }
}

/// One depth's index, built once per reduce call.
enum Index {
    Hash(HashIndex),
    Range {
        /// [`ordered`] keys, ascending; no key is NaN.
        order: Vec<i64>,
        /// The position holding each key of `order`.
        positions: Vec<u32>,
        /// Positions examined whatever the range, ascending.
        tail: Vec<u32>,
        /// Every position's key, NaN where it cannot be ordered.
        keys: Vec<f64>,
    },
    Scan,
}

/// One depth of a reduce call: its index and the candidate buffer its
/// prefixes reuse.
struct Depth {
    index: Index,
    hits: Vec<u32>,
}

/// What one reduce call's descent saw.
pub(crate) struct Visit {
    /// Per depth, the bound rows that passed its predicates, summed over
    /// every prefix.
    pub(crate) survivors: Vec<u64>,
    /// Candidates that reached the predicate loop, plus full
    /// combinations.
    pub(crate) examined: u64,
}

/// The leaf a descent hands each accepted combination to: the bound
/// rows and their group positions, one per depth. Returning `false`
/// stops the descent (the receiver is gone).
pub(crate) type Leaf<'l> = dyn FnMut(&[&Tuple], &[u32]) -> bool + 'l;

/// The mutable state of one reduce call's descent.
struct Cursor<'a, 'l> {
    groups: &'a [&'a [&'a Tuple]],
    /// The bound row and its position, per depth.
    stack: Vec<&'a Tuple>,
    at: Vec<u32>,
    leaf: &'l mut Leaf<'l>,
    stop: bool,
    visit: Visit,
}

/// The descent compiled for one job.
pub(crate) struct Descent {
    /// Per depth, the predicates that become checkable once it is bound.
    preds: Vec<Vec<CompiledPredicate>>,
    probes: Vec<Probe>,
    /// Merge key: `(slot-0 start, depth-1 start, width)` column ranges
    /// the rows at depths 0 and 1 must agree on, NULL matching NULL.
    /// Empty for chain jobs.
    shared: Vec<(usize, usize, usize)>,
}

impl Descent {
    /// Compile a descent over `depths` groups. `preds` carry depths in
    /// `left_rel`/`right_rel` and columns of that depth's rows; each is
    /// checked at the deeper of its two depths.
    pub(crate) fn new(
        depths: usize,
        preds: &[CompiledPredicate],
        shared: Vec<(usize, usize, usize)>,
    ) -> Self {
        let mut at_depth: Vec<Vec<&CompiledPredicate>> = vec![Vec::new(); depths];
        for p in preds {
            at_depth[p.left_rel.max(p.right_rel)].push(p);
        }
        let probes = at_depth
            .iter()
            .enumerate()
            .map(|(depth, preds)| {
                let mut key: Vec<KeyCol> = Vec::new();
                if depth == 1 {
                    for &(col, own, width) in &shared {
                        key.extend((0..width).map(|i| KeyCol {
                            slot: 0,
                            col: col + i,
                            own: own + i,
                        }));
                    }
                }
                for p in preds {
                    let (own, slot, col) = if p.right_rel == depth {
                        (p.right_col, p.left_rel, p.left_col)
                    } else {
                        (p.left_col, p.right_rel, p.right_col)
                    };
                    if p.op == ThetaOp::Eq
                        && p.left_off == 0.0
                        && p.right_off == 0.0
                        && slot < depth
                    {
                        key.push(KeyCol { slot, col, own });
                    }
                }
                if !key.is_empty() {
                    Probe::Hash(key)
                } else {
                    DepthBound::choose(depth, preds).map_or(Probe::Scan, Probe::Range)
                }
            })
            .collect();
        let preds = at_depth
            .iter()
            .map(|ps| ps.iter().map(|&&p| p).collect())
            .collect();
        Descent {
            preds,
            probes,
            shared,
        }
    }

    /// The index `depth` finds its candidates through.
    pub(crate) fn kind(&self, depth: usize) -> KernelKind {
        match self.probes[depth] {
            Probe::Hash(_) => KernelKind::Hash,
            Probe::Range(_) => KernelKind::Range,
            Probe::Scan => KernelKind::Scan,
        }
    }

    /// `depth`'s equality key as `(column of the bound row, own column)`
    /// pairs in canonical order — shared-relation columns, then
    /// zero-offset `=` predicates in predicate order. Empty when the
    /// depth is not hashed.
    pub(crate) fn equality_key(&self, depth: usize) -> Vec<(usize, usize)> {
        match &self.probes[depth] {
            Probe::Hash(key) => key.iter().map(|k| (k.col, k.own)).collect(),
            _ => Vec::new(),
        }
    }

    /// Descend through `groups` (one per depth, rows in arrival order)
    /// by the depths' indexes, handing `leaf` every combination that
    /// passes all predicates, in nested-loop order.
    pub(crate) fn run(&self, groups: &[&[&Tuple]], leaf: &mut Leaf<'_>) -> Visit {
        self.descend_with(groups, true, leaf)
    }

    /// The nested-loop reference: the same predicate loop with every
    /// depth walking its whole group — the rows and row order
    /// [`Descent::run`] must reproduce. Its `examined` count is the
    /// textbook loop's work.
    pub(crate) fn run_scan(&self, groups: &[&[&Tuple]], leaf: &mut Leaf<'_>) -> Visit {
        self.descend_with(groups, false, leaf)
    }

    /// A depth whose group is empty ends every prefix that reaches it,
    /// but the depths above it still report their survivors: a chain
    /// job prices them against the rows it counted instead of shipping.
    fn descend_with(&self, groups: &[&[&Tuple]], indexed: bool, leaf: &mut Leaf<'_>) -> Visit {
        let n = groups.len();
        let visit = Visit {
            survivors: vec![0; n],
            examined: 0,
        };
        // Slots past the bound depth are never read; any row fills them.
        let Some(&filler) = groups.first().and_then(|g| g.first()) else {
            return visit; // nothing survives an empty first depth
        };
        for g in groups {
            u32::try_from(g.len()).expect("a reduce group holds fewer than 2^32 rows");
        }
        let mut depths: Vec<Depth> = self
            .probes
            .iter()
            .zip(groups)
            .map(|(probe, group)| Depth {
                index: match indexed && group.len() > SCAN_FRACTION {
                    true => probe.index(group),
                    false => Index::Scan,
                },
                hits: Vec::new(),
            })
            .collect();
        let mut cx = Cursor {
            groups,
            stack: vec![filler; n],
            at: vec![0; n],
            leaf,
            stop: false,
            visit,
        };
        self.descend(&mut cx, 0, &mut depths);
        cx.visit
    }

    /// Extend the prefix bound at depths `..depth` by every candidate of
    /// `depth`'s group its predicates accept, in group order. `depths`
    /// holds this depth and the ones below it.
    fn descend(&self, cx: &mut Cursor<'_, '_>, depth: usize, depths: &mut [Depth]) {
        let last = depth + 1 == cx.groups.len();
        let group = cx.groups[depth];
        let (this, deeper) = depths.split_first_mut().expect("a state per depth");
        let listed = self.candidates(cx, depth, this);
        let (mut examined, mut survived) = (0u64, 0u64);
        for i in 0..listed.map_or(group.len(), <[u32]>::len) {
            let pos = listed.map_or(i as u32, |l| l[i]);
            examined += 1;
            cx.stack[depth] = group[pos as usize];
            cx.at[depth] = pos;
            if !self.accepts(depth, &cx.stack[..=depth]) {
                continue;
            }
            survived += 1;
            if last {
                examined += 1;
                cx.stop = !(cx.leaf)(&cx.stack, &cx.at);
            } else {
                self.descend(cx, depth + 1, deeper);
            }
            if cx.stop {
                break;
            }
        }
        cx.visit.examined += examined;
        cx.visit.survivors[depth] += survived;
    }

    /// The positions of `depth`'s group the bound prefix may join,
    /// ascending — a hash bucket or the range's hits (gathered into the
    /// depth's buffer) — or `None` to walk the whole group.
    fn candidates<'i>(
        &self,
        cx: &Cursor<'_, '_>,
        depth: usize,
        this: &'i mut Depth,
    ) -> Option<&'i [u32]> {
        let Depth { index, hits } = this;
        match (&self.probes[depth], &*index) {
            (Probe::Hash(key), Index::Hash(table)) => {
                let h = key_hash(key.iter().map(|k| cx.stack[k.slot].get(k.col)));
                Some(table.get(&h).map_or(&[], Vec::as_slice))
            }
            (
                Probe::Range(bound),
                Index::Range {
                    order,
                    positions,
                    tail,
                    keys,
                },
            ) => {
                let (ends, span) = bound.span(order, &cx.stack)?;
                let in_range = &positions[span];
                if in_range.is_empty() {
                    return Some(tail);
                }
                hits.clear();
                if (in_range.len() + tail.len()) * SCAN_FRACTION > keys.len() {
                    // Wide: walk the group, skipping keys outside the
                    // range (NaN keys, which cannot be ordered, pass).
                    let keep = |&(_, &k): &(u32, &f64)| within(ends, k);
                    hits.extend((0..).zip(keys).filter(keep).map(|(pos, _)| pos));
                } else {
                    hits.extend_from_slice(in_range);
                    hits.extend_from_slice(tail);
                    hits.sort_unstable();
                }
                Some(hits)
            }
            _ => None,
        }
    }

    /// Does the row bound at `depth` join the prefix below it?
    #[inline]
    fn accepts(&self, depth: usize, stack: &[&Tuple]) -> bool {
        (depth != 1
            || self
                .shared
                .iter()
                .all(|&(l, r, w)| stack[0].values()[l..l + w] == stack[1].values()[r..r + w]))
            && self.preds[depth].iter().all(|p| p.eval(stack))
    }
}

/// An exact semi-join test against one fixed group: does a row join any
/// of its rows? It is the two-depth descent with the probed row alone at
/// depth 0 and the group, indexed once, at depth 1 — the same index and
/// the same [`Descent::accepts`] a reduce call runs, so "joins nothing"
/// means every descent would reject the row against every row of the
/// group, whatever NULLs, NaNs and strings it holds. Read-only once
/// built, so map tasks share it.
pub(crate) struct SemiJoin<'r> {
    descent: Descent,
    rows: Vec<&'r Tuple>,
    index: Index,
}

impl<'r> SemiJoin<'r> {
    /// Index `rows` (depth 1) for probes by rows of depth 0 under
    /// `preds`, or `None` when the predicates give the group no index:
    /// each probe would then walk the whole group.
    pub(crate) fn new(
        preds: &[CompiledPredicate],
        rows: impl Iterator<Item = &'r Tuple>,
    ) -> Option<Self> {
        let descent = Descent::new(2, preds, Vec::new());
        if descent.kind(1) == KernelKind::Scan {
            return None;
        }
        let rows: Vec<&Tuple> = rows.collect();
        let index = match rows.len() > SCAN_FRACTION {
            true => descent.probes[1].index(&rows),
            false => Index::Scan,
        };
        Some(SemiJoin {
            descent,
            rows,
            index,
        })
    }

    /// Does `row` join at least one row of the group?
    pub(crate) fn joins(&self, row: &Tuple) -> bool {
        let prefix = [row];
        let accepts = |pos: &u32| self.descent.accepts(1, &[row, self.rows[*pos as usize]]);
        match (&self.descent.probes[1], &self.index) {
            (Probe::Hash(key), Index::Hash(table)) => {
                let h = key_hash(key.iter().map(|k| prefix[k.slot].get(k.col)));
                table.get(&h).is_some_and(|hits| hits.iter().any(accepts))
            }
            (
                Probe::Range(bound),
                Index::Range {
                    order,
                    positions,
                    tail,
                    ..
                },
            ) => match bound.span(order, &prefix) {
                Some((_, span)) => positions[span].iter().chain(tail).any(accepts),
                None => (0..self.rows.len() as u32).any(|pos| accepts(&pos)),
            },
            _ => (0..self.rows.len() as u32).any(|pos| accepts(&pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(
        left_rel: usize,
        left_col: usize,
        left_off: f64,
        op: ThetaOp,
        right_rel: usize,
        right_col: usize,
        right_off: f64,
    ) -> CompiledPredicate {
        CompiledPredicate {
            left_rel,
            left_col,
            left_off,
            op,
            right_rel,
            right_col,
            right_off,
        }
    }

    /// Bound selection per depth: an equality beats a band, a column
    /// bounded on both sides — whatever offset each side puts on it —
    /// beats a one-sided bound, and `<>`, non-finite offsets and
    /// predicates between later depths give nothing to search on.
    #[test]
    fn depth_bounds_prefer_equality_then_two_sided_bands() {
        let one_sided = pred(0, 1, 0.0, ThetaOp::Lt, 1, 1, 0.0); // x.b < y.b
        let lower = pred(0, 0, 0.0, ThetaOp::Le, 1, 0, 0.0); // x.a <= y.a
        let upper = pred(1, 0, 0.0, ThetaOp::Le, 0, 0, 2.0); // y.a <= x.a + 2
        let equal = pred(1, 1, 1.0, ThetaOp::Eq, 0, 0, 0.0); // y.b + 1 = x.a
        let own_lower = pred(1, 0, 2.0, ThetaOp::Ge, 0, 0, 0.0); // y.a + 2 >= x.a
        let own_upper = pred(1, 0, 0.0, ThetaOp::Le, 0, 0, 0.0); // y.a <= x.a
        let chosen = |preds: &[&CompiledPredicate]| {
            let b = DepthBound::choose(1, preds).expect("a bound");
            let end = |e: Option<End>| e.map(|e| (e.own, e.src.off));
            (b.own_col, end(b.lo), end(b.hi))
        };
        assert_eq!(chosen(&[&one_sided]), (1, Some((0.0, 0.0)), None));
        assert_eq!(
            chosen(&[&one_sided, &lower, &upper]),
            (0, Some((0.0, 0.0)), Some((0.0, 2.0)))
        );
        assert_eq!(
            chosen(&[&one_sided, &own_lower, &own_upper]),
            (0, Some((2.0, 0.0)), Some((0.0, 0.0)))
        );
        assert_eq!(
            chosen(&[&one_sided, &lower, &upper, &equal]),
            (1, Some((1.0, 0.0)), Some((1.0, 0.0)))
        );
        let unusable = [
            pred(0, 0, 0.0, ThetaOp::Ne, 1, 0, 0.0),
            pred(0, 0, f64::INFINITY, ThetaOp::Le, 1, 0, 0.0),
            pred(0, 0, 0.0, ThetaOp::Le, 1, 0, f64::NAN),
        ];
        assert!(DepthBound::choose(1, &unusable.iter().collect::<Vec<_>>()).is_none());
        // Checkable at depth 2 only: says nothing about depth 1.
        assert!(DepthBound::choose(1, &[&pred(1, 0, 0.0, ThetaOp::Le, 2, 0, 0.0)]).is_none());
    }

    /// Index choice per depth: a zero-offset `=` (or a merge key) hashes
    /// ahead of any band, an offset `=` stays a range, and a depth with
    /// nothing to bound by walks.
    #[test]
    fn index_choice_prefers_hash_then_range() {
        let band = pred(0, 0, 0.0, ThetaOp::Lt, 1, 0, 0.0);
        let kinds = |preds: &[CompiledPredicate], shared: Vec<(usize, usize, usize)>| {
            let d = Descent::new(3, preds, shared);
            [d.kind(0), d.kind(1), d.kind(2)]
        };
        use KernelKind::{Hash, Range, Scan};
        assert_eq!(kinds(&[band], vec![]), [Scan, Range, Scan]);
        let eq = pred(2, 1, 0.0, ThetaOp::Eq, 0, 1, -0.0);
        assert_eq!(kinds(&[band, eq], vec![]), [Scan, Range, Hash]);
        let offset_eq = pred(2, 1, 1.0, ThetaOp::Eq, 1, 1, 0.0);
        assert_eq!(kinds(&[offset_eq], vec![]), [Scan, Scan, Range]);
        assert_eq!(kinds(&[band], vec![(0, 1, 1)]), [Scan, Hash, Scan]);
        let ne = pred(1, 0, 0.0, ThetaOp::Ne, 2, 0, 0.0);
        assert_eq!(kinds(&[ne], vec![]), [Scan, Scan, Scan]);
        let d = Descent::new(3, &[band, eq], vec![]);
        assert_eq!(d.equality_key(2), vec![(1, 1)]);
    }
}
