//! Algorithm 1: a chain multi-way theta-join in one MRJ.
//!
//! Given a no-edge-repeating path of the join graph, the job:
//!
//! 1. builds a [`SpacePartition`] of the hyper-cube spanned by the
//!    path's *distinct* relations into `k_R` components (Hilbert by
//!    default — the paper's perfect partition function; grid available
//!    for the ablation);
//! 2. **map**: draws each tuple a deterministic pseudo-random global id
//!    in `[0, |R_i|)` (mappers have no global view of the relation —
//!    exactly the trick of Algorithm 1), computes the tuple's stripe,
//!    and emits one copy per component whose region intersects that
//!    stripe;
//! 3. **reduce**: each component descends over its per-relation tuple
//!    groups in dimension order and emits a combination iff (a) every
//!    covered θ condition holds and (b) the combination's cell is
//!    *owned* by this component — the ownership test is what makes the
//!    output exact despite tuples being replicated to many components.
//!
//!    The descent does not scan the cross product. For each depth whose
//!    predicates bound one of its columns by an already-bound slot
//!    (`=`, then a two-sided band, then a one-sided bound — see
//!    `DepthBound`), the group's numeric keys are sorted once per
//!    reduce call and every prefix binary-searches the non-strict range
//!    its bounds allow. The range is only a *superset filter*: every
//!    row in it still runs through all of the depth's predicates, and
//!    the hits are visited in group order, so rows and row order are
//!    those of the plain nested loop. Depths without such a bound
//!    (depth 0, `<>`-only, no predicate against an earlier dimension)
//!    and prefixes whose range covers most of the group walk the whole
//!    group through the same loop.
//!
//!    Two counts come out of it. The **priced** count — what
//!    [`MrJob::reduce`] returns and Eq. 2–4 charge — is the work of the
//!    textbook nested loop: `|G_d|` per prefix that reaches depth `d`
//!    plus one per full combination, computed from the survivors, not
//!    from visits, so the simulated clock does not depend on the index.
//!    The **examined** count ([`MrJob::reduce_examined`]) is what the
//!    host really visited.

use crate::kernel::StackPred;
use crate::shape::IntermediateShape;
use crate::skip::ChainSkipFilter;
use mwtj_hilbert::{PartitionStrategy, SpacePartition};
use mwtj_mapreduce::{Emit, MrJob, SkipFilter, TagZones, TaggedRecord};
use mwtj_query::theta::CompiledPredicate;
use mwtj_query::{MultiwayQuery, ThetaOp};
use mwtj_storage::{Schema, Tuple};
use std::sync::atomic::{AtomicU64, Ordering};

/// A prefix whose key range holds more than `1 / SCAN_FRACTION` of the
/// group walks the whole group instead: past that, gathering and
/// re-ordering the hits costs more than the predicate calls it saves.
const SCAN_FRACTION: usize = 4;

/// One end of a depth's key range: `column + off` of an earlier slot.
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

/// The predicates of one depth that bound `own_col + own_off` of that
/// depth's rows by values the prefix has already bound: `lo <= key`
/// and/or `key <= hi` (an equality sets both to the same source).
/// Keys and bounds are formed as `eval_theta` forms its operands
/// (numeric view plus offset) and compared with `<` over non-NaN
/// values — `total_cmp`'s order except that it takes `-0.0` for `+0.0`,
/// and the f64 view of two integers keeps their order non-strictly.
/// With strict operators widened to their non-strict closure, that
/// makes the range a superset of what the predicates accept, whether
/// they compare through `sql_cmp` (zero offsets) or arithmetically.
#[derive(Debug, Clone)]
struct DepthBound {
    own_col: usize,
    own_off: f64,
    lo: Option<BoundSrc>,
    hi: Option<BoundSrc>,
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
            let ((_, own_col, own_off), (slot, col, off), op) = if p.right_rel == depth {
                (right, left, p.op.flip())
            } else {
                (left, right, p.op)
            };
            let src = BoundSrc { slot, col, off };
            if src.slot >= depth
                || op == ThetaOp::Ne
                || !own_off.is_finite()
                || !src.off.is_finite()
            {
                continue;
            }
            if op == ThetaOp::Eq {
                eq.get_or_insert(DepthBound {
                    own_col,
                    own_off,
                    lo: Some(src),
                    hi: Some(src),
                });
                continue;
            }
            let at = bands
                .iter()
                .position(|b| b.own_col == own_col && b.own_off == own_off)
                .unwrap_or_else(|| {
                    bands.push(DepthBound {
                        own_col,
                        own_off,
                        lo: None,
                        hi: None,
                    });
                    bands.len() - 1
                });
            let end = match op {
                ThetaOp::Lt | ThetaOp::Le => &mut bands[at].hi,
                _ => &mut bands[at].lo,
            };
            end.get_or_insert(src);
        }
        eq.or_else(|| {
            let two_sided = bands.iter().position(|b| b.lo.is_some() && b.hi.is_some());
            (!bands.is_empty()).then(|| bands.swap_remove(two_sided.unwrap_or(0)))
        })
    }

    /// Index one group: `(key, position)` of every row with a numeric
    /// key, sorted by key; NaN keys, which `<` cannot place, go on a
    /// tail examined for every prefix. NULL and string keys are left
    /// out: NULL satisfies no predicate, and a string only one whose
    /// other side is a string too — a prefix [`ChainThetaJob::hits`]
    /// answers with the whole group, not with this index.
    fn index(&self, group: &[(u64, &Tuple)]) -> DepthIndex {
        let n = u32::try_from(group.len()).expect("a reduce group holds fewer than 2^32 rows");
        let mut sorted = Vec::with_capacity(group.len());
        let mut tail = Vec::new();
        for pos in 0..n {
            let Some(v) = group[pos as usize].1.get(self.own_col).as_numeric() else {
                continue;
            };
            let key = v + self.own_off;
            if key.is_nan() {
                tail.push(pos);
            } else {
                sorted.push((key, pos));
            }
        }
        sorted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        DepthIndex { sorted, tail }
    }
}

/// One group's sort on its [`DepthBound`] key, built per reduce call.
struct DepthIndex {
    /// `(key, position in the group)`, ascending by key; no key is NaN.
    sorted: Vec<(f64, u32)>,
    /// Positions examined whatever the range, ascending.
    tail: Vec<u32>,
}

/// The mutable state of one reduce call's descent.
struct Descent<'a, 'e> {
    my_component: u32,
    groups: &'a [Vec<(u64, &'a Tuple)>],
    /// Per depth, the group's index where the depth has a bound.
    indexes: Vec<Option<DepthIndex>>,
    /// Per depth, the hit-position buffer its prefixes reuse.
    hits: Vec<Vec<u32>>,
    stack: Vec<&'a Tuple>,
    stripes: Vec<u64>,
    emit: &'e mut dyn FnMut(Tuple) -> bool,
    stop: bool,
    /// Rows and full combinations really visited.
    examined: u64,
}

/// The chain theta-join job.
pub struct ChainThetaJob {
    name: String,
    /// Distinct query relation indices on the path, sorted — the cube's
    /// dimensions. `dims[i]` is dimension `i`.
    dims: Vec<usize>,
    /// `|R|` per dimension, as of partition construction.
    cardinalities: Vec<u64>,
    partition: SpacePartition,
    /// Predicates of all covered conditions, relation indices remapped
    /// to *dimension* positions and compiled to stack evaluators with
    /// pre-selected operator functions ([`StackPred`]).
    preds: Vec<StackPred>,
    /// The same dimension-remapped predicates in compiled (column/
    /// offset/op) form — what the zone-map skip filter evaluates
    /// against block ranges.
    zone_preds: Vec<CompiledPredicate>,
    /// For each dimension depth, the predicates that become checkable
    /// once that dimension is bound.
    preds_by_depth: Vec<Vec<usize>>,
    /// For each dimension depth, the key range its predicates allow a
    /// prefix to narrow the group to, where there is one.
    bounds: Vec<Option<DepthBound>>,
    out_shape: IntermediateShape,
    /// Candidates really visited by every reduce call so far (a
    /// statistic: publishes nothing, hence `Relaxed`).
    examined: AtomicU64,
}

impl ChainThetaJob {
    /// Build the job for the conditions in `edges` (condition indices of
    /// `query`), whose union must form a connected subgraph (a
    /// no-edge-repeating path yields that). `cardinalities` maps query
    /// relation index → `|R|` (from load-time statistics).
    ///
    /// `k_r` is the number of reduce components; `strategy` picks
    /// Hilbert (paper) or grid (ablation baseline).
    pub fn new(
        query: &MultiwayQuery,
        edges: &[usize],
        cardinalities: &[u64],
        k_r: u32,
        strategy: PartitionStrategy,
    ) -> Self {
        assert!(!edges.is_empty(), "a chain job must cover conditions");
        // Distinct relations touched by the covered conditions.
        let mut dims: Vec<usize> = edges
            .iter()
            .flat_map(|&e| {
                let (u, v, _) = query.conditions[e];
                [u, v]
            })
            .collect();
        dims.sort_unstable();
        dims.dedup();
        let dim_cards: Vec<u64> = dims.iter().map(|&r| cardinalities[r].max(1)).collect();
        let bits = SpacePartition::auto_bits(dims.len(), k_r);
        let partition = SpacePartition::new(strategy, &dim_cards, k_r, bits);

        // Compile predicates and remap query-relation indices to
        // dimension positions.
        let compiled = query.compile().expect("query must compile");
        let to_dim = |rel: usize| {
            dims.binary_search(&rel)
                .expect("predicate relation must be a chain dimension")
        };
        let mut preds = Vec::new();
        let mut zone_preds = Vec::new();
        for &e in edges {
            for p in &compiled.per_condition[e] {
                let remapped = CompiledPredicate {
                    left_rel: to_dim(p.left_rel),
                    right_rel: to_dim(p.right_rel),
                    ..*p
                };
                preds.push(StackPred::from_compiled(&remapped));
                zone_preds.push(remapped);
            }
        }
        let mut preds_by_depth = vec![Vec::new(); dims.len()];
        for (pi, p) in preds.iter().enumerate() {
            preds_by_depth[p.depth()].push(pi);
        }
        let bounds = preds_by_depth
            .iter()
            .enumerate()
            .map(|(depth, at_depth)| {
                let at_depth: Vec<&CompiledPredicate> =
                    at_depth.iter().map(|&pi| &zone_preds[pi]).collect();
                DepthBound::choose(depth, &at_depth)
            })
            .collect();
        let out_shape = IntermediateShape::of(query, &dims);
        let name = format!(
            "chain[{}]",
            edges
                .iter()
                .map(|e| format!("θ{e}"))
                .collect::<Vec<_>>()
                .join(",")
        );
        ChainThetaJob {
            name,
            dims,
            cardinalities: dim_cards,
            partition,
            preds,
            zone_preds,
            preds_by_depth,
            bounds,
            out_shape,
            examined: AtomicU64::new(0),
        }
    }

    /// The partition in use (inspection/ablation).
    pub fn partition(&self) -> &SpacePartition {
        &self.partition
    }

    /// Number of reduce components the job requires — callers must run
    /// it with exactly this many reducers.
    pub fn reducers(&self) -> u32 {
        self.partition.num_components()
    }

    /// The distinct query relations joined, in dimension order. Input
    /// files must be registered with `tag = dimension index`.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Output row shape.
    pub fn out_shape(&self) -> &IntermediateShape {
        &self.out_shape
    }

    /// Deterministic pseudo-random global id for the `row_idx`-th row of
    /// a block with seed `block_seed`, uniform over `[0, card)`.
    fn global_id(block_seed: u64, row_idx: usize, card: u64) -> u64 {
        // splitmix64 over (seed, idx) — cheap, well mixed, stable.
        let mut z = block_seed ^ (row_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        z % card.max(1)
    }

    /// Extend the bound prefix `cx.stack` by every row of the next
    /// group that its predicates accept, depth first in group order;
    /// owned, predicate-satisfying combinations go through `cx.emit`
    /// one at a time (the visitor path streamed reducers use — the
    /// buffered [`MrJob::reduce`] path passes a vector-push closure).
    /// When `emit` returns `false` the receiver is gone: `stop` is
    /// raised and the descent unwinds promptly.
    ///
    /// Returns the **priced** work below this prefix: the group's size
    /// (the nested loop would try each of its rows) plus the priced
    /// work under every surviving row, and 1 for a full combination.
    /// Which rows are really visited — `cx.examined` — is up to
    /// [`ChainThetaJob::hits`].
    fn descend(&self, cx: &mut Descent<'_, '_>) -> u64 {
        let depth = cx.stack.len();
        let groups = cx.groups;
        if depth == groups.len() {
            cx.examined += 1;
            // Ownership test: exactly one component owns this cell.
            if self.partition.owner_of_cell(&cx.stripes) == cx.my_component
                && !(cx.emit)(Tuple::concat_all(&cx.stack))
            {
                cx.stop = true;
            }
            return 1;
        }
        let group = &groups[depth];
        let mut work = group.len() as u64;
        let mut hits = std::mem::take(&mut cx.hits[depth]);
        let ranged = self.hits(cx, depth, &mut hits);
        let visits = if ranged { hits.len() } else { group.len() };
        'rows: for i in 0..visits {
            if cx.stop {
                break;
            }
            let (gid, tuple) = group[if ranged { hits[i] as usize } else { i }];
            cx.examined += 1;
            cx.stack.push(tuple);
            for &pi in &self.preds_by_depth[depth] {
                if !self.preds[pi].holds(&cx.stack) {
                    cx.stack.pop();
                    continue 'rows;
                }
            }
            cx.stripes.push(self.partition.stripe_of(depth, gid));
            work = work.saturating_add(self.descend(cx));
            cx.stripes.pop();
            cx.stack.pop();
        }
        cx.hits[depth] = hits;
        work
    }

    /// Fill `hits` with the positions of `groups[depth]` the prefix's
    /// key range allows (plus the always-examined tail), ascending — a
    /// superset of the rows the depth's predicates accept. Returns
    /// `false`, leaving `hits` unspecified, when the whole group must
    /// be walked instead: the depth has no bound, the prefix's bound
    /// cannot be ordered, or the range is too wide to be worth it.
    fn hits(&self, cx: &Descent<'_, '_>, depth: usize, hits: &mut Vec<u32>) -> bool {
        let (Some(bound), Some(index)) = (&self.bounds[depth], &cx.indexes[depth]) else {
            return false;
        };
        let sorted = &index.sorted;
        let from = match bound.lo.map(|src| src.key(&cx.stack)) {
            None => 0,
            Some(Some(lo)) => sorted.partition_point(|&(k, _)| k < lo),
            Some(None) => return false,
        };
        let to = match bound.hi.map(|src| src.key(&cx.stack)) {
            None => sorted.len(),
            Some(Some(hi)) => sorted.partition_point(|&(k, _)| k <= hi),
            Some(None) => return false,
        };
        let in_range = &sorted[from.min(to)..to];
        if (in_range.len() + index.tail.len()) * SCAN_FRACTION > cx.groups[depth].len() {
            return false;
        }
        hits.clear();
        hits.extend(in_range.iter().map(|&(_, pos)| pos));
        hits.extend_from_slice(&index.tail);
        hits.sort_unstable();
        true
    }

    /// Bucket one component's records per dimension, in arrival order.
    /// `None` when some dimension contributed nothing to this cell
    /// region.
    fn groups<'a>(&self, records: &'a [TaggedRecord]) -> Option<Vec<Vec<(u64, &'a Tuple)>>> {
        let mut groups: Vec<Vec<(u64, &Tuple)>> = vec![Vec::new(); self.dims.len()];
        for rec in records {
            groups[rec.tag as usize].push((rec.aux, &rec.tuple));
        }
        groups.iter().all(|g| !g.is_empty()).then_some(groups)
    }

    /// Shared reduce body: bucket records per dimension, index the
    /// bounded depths and descend.
    fn reduce_inner(
        &self,
        key: u64,
        records: &[TaggedRecord],
        emit: &mut dyn FnMut(Tuple) -> bool,
    ) -> u64 {
        let Some(groups) = self.groups(records) else {
            return 0;
        };
        let indexes = self
            .bounds
            .iter()
            .zip(&groups)
            .map(|(bound, group)| bound.as_ref().map(|b| b.index(group)))
            .collect();
        let mut cx = Descent {
            my_component: key as u32,
            groups: &groups,
            indexes,
            hits: vec![Vec::new(); self.dims.len()],
            stack: Vec::with_capacity(self.dims.len()),
            stripes: Vec::with_capacity(self.dims.len()),
            emit,
            stop: false,
            examined: 0,
        };
        let work = self.descend(&mut cx);
        self.examined.fetch_add(cx.examined, Ordering::Relaxed);
        work
    }

    /// The reducer as it was before the key-range descent: every prefix
    /// scans its whole next group, and the returned count is what that
    /// loop visits. Kept as the reference the differential property
    /// test and the `joincore` cross-check hold [`MrJob::reduce`] to —
    /// rows, row order and count; nothing in the engine reaches it.
    #[doc(hidden)]
    pub fn reduce_scan_reference(
        &self,
        key: u64,
        records: &[TaggedRecord],
        out: &mut Vec<Tuple>,
    ) -> u64 {
        let Some(groups) = self.groups(records) else {
            return 0;
        };
        self.scan_descend(key as u32, &groups, &mut Vec::new(), &mut Vec::new(), out)
    }

    fn scan_descend<'a>(
        &self,
        my_component: u32,
        groups: &'a [Vec<(u64, &'a Tuple)>],
        stack: &mut Vec<&'a Tuple>,
        stripes: &mut Vec<u64>,
        out: &mut Vec<Tuple>,
    ) -> u64 {
        let depth = stack.len();
        if depth == groups.len() {
            if self.partition.owner_of_cell(stripes) == my_component {
                out.push(Tuple::concat_all(stack));
            }
            return 1;
        }
        let mut work = 0u64;
        'rows: for &(gid, tuple) in &groups[depth] {
            work += 1;
            stack.push(tuple);
            for &pi in &self.preds_by_depth[depth] {
                if !self.preds[pi].holds(stack) {
                    stack.pop();
                    continue 'rows;
                }
            }
            stripes.push(self.partition.stripe_of(depth, gid));
            work =
                work.saturating_add(self.scan_descend(my_component, groups, stack, stripes, out));
            stripes.pop();
            stack.pop();
        }
        work
    }
}

impl MrJob for ChainThetaJob {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn output_schema(&self) -> Schema {
        self.out_shape.schema.clone()
    }

    fn skip_filter(&self, zones: &TagZones) -> Option<Box<dyn SkipFilter>> {
        ChainSkipFilter::build(&self.zone_preds, self.dims.len(), zones)
    }

    fn map(&self, tag: u8, row: &Tuple, block_seed: u64, row_idx: usize, emit: &mut Emit<'_>) {
        let dim = tag as usize;
        debug_assert!(dim < self.dims.len(), "tag beyond chain dimensions");
        let gid = Self::global_id(block_seed, row_idx, self.cardinalities[dim]);
        let stripe = self.partition.stripe_of(dim, gid);
        for &comp in self.partition.components_for_stripe(dim, stripe) {
            emit(
                comp as u64,
                TaggedRecord {
                    tag,
                    aux: gid, // high bit clear: group = whole component
                    tuple: row.clone(),
                },
            );
        }
    }

    fn reduce(&self, key: u64, records: &[TaggedRecord], out: &mut Vec<Tuple>) -> u64 {
        self.reduce_inner(key, records, &mut |row| {
            out.push(row);
            true
        })
    }

    fn reduce_streamed(
        &self,
        key: u64,
        records: &[TaggedRecord],
        emit: &mut dyn FnMut(Tuple) -> bool,
    ) -> u64 {
        self.reduce_inner(key, records, emit)
    }

    fn reduce_examined(&self) -> Option<u64> {
        Some(self.examined.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{canonicalize, oracle_join};
    use mwtj_mapreduce::{ClusterConfig, Dfs, Engine, InputSpec};
    use mwtj_query::{QueryBuilder, ThetaOp};
    use mwtj_storage::{tuple, DataType, Relation};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rel(name: &str, n: usize, seed: u64, domain: i64) -> Relation {
        let schema = Schema::from_pairs(name, &[("a", DataType::Int), ("b", DataType::Int)]);
        let mut rng = StdRng::seed_from_u64(seed);
        Relation::from_rows_unchecked(
            schema,
            (0..n)
                .map(|_| tuple![rng.gen_range(0..domain), rng.gen_range(0..domain)])
                .collect(),
        )
    }

    fn run_chain(
        query: &MultiwayQuery,
        edges: &[usize],
        rels: &[&Relation],
        k_r: u32,
        strategy: PartitionStrategy,
    ) -> Vec<Tuple> {
        let cfg = ClusterConfig::default();
        let dfs = Dfs::new();
        let cards: Vec<u64> = rels.iter().map(|r| r.len() as u64).collect();
        let job = ChainThetaJob::new(query, edges, &cards, k_r, strategy);
        let mut inputs = Vec::new();
        for (dim, &qrel) in job.dims().iter().enumerate() {
            let fname = format!("rel{qrel}");
            dfs.put_relation(&fname, rels[qrel], &cfg);
            inputs.push(InputSpec::new(fname, dim as u8));
        }
        let engine = Engine::new(cfg, dfs);
        let run = engine.run(&job, &inputs, 16, job.reducers(), None);
        run.output.into_rows()
    }

    #[test]
    fn two_way_matches_oracle() {
        let r = rel("r", 300, 1, 100);
        let s = rel("s", 200, 2, 100);
        let q = QueryBuilder::new("q")
            .relation(r.schema().clone())
            .relation(s.schema().clone())
            .join("r", "a", ThetaOp::Lt, "s", "a")
            .build()
            .unwrap();
        for k_r in [1u32, 4, 9] {
            let got = canonicalize(run_chain(
                &q,
                &[0],
                &[&r, &s],
                k_r,
                PartitionStrategy::Hilbert,
            ));
            let want = canonicalize(oracle_join(&q, &[&r, &s]));
            assert_eq!(got.len(), want.len(), "k_r={k_r}");
            assert_eq!(got, want, "k_r={k_r}");
        }
    }

    #[test]
    fn three_way_chain_matches_oracle() {
        let r = rel("r", 80, 3, 40);
        let s = rel("s", 70, 4, 40);
        let t = rel("t", 60, 5, 40);
        let q = QueryBuilder::new("q")
            .relation(r.schema().clone())
            .relation(s.schema().clone())
            .relation(t.schema().clone())
            .join("r", "a", ThetaOp::Le, "s", "a")
            .join("s", "b", ThetaOp::Gt, "t", "b")
            .build()
            .unwrap();
        let want = canonicalize(oracle_join(&q, &[&r, &s, &t]));
        for strategy in [PartitionStrategy::Hilbert, PartitionStrategy::Grid] {
            for k_r in [1u32, 5, 8] {
                let got = canonicalize(run_chain(&q, &[0, 1], &[&r, &s, &t], k_r, strategy));
                assert_eq!(got, want, "k_r={k_r} strategy={strategy:?}");
            }
        }
    }

    #[test]
    fn equality_edges_work_too() {
        let r = rel("r", 150, 6, 20);
        let s = rel("s", 150, 7, 20);
        let q = QueryBuilder::new("q")
            .relation(r.schema().clone())
            .relation(s.schema().clone())
            .join("r", "a", ThetaOp::Eq, "s", "a")
            .build()
            .unwrap();
        let got = canonicalize(run_chain(
            &q,
            &[0],
            &[&r, &s],
            6,
            PartitionStrategy::Hilbert,
        ));
        let want = canonicalize(oracle_join(&q, &[&r, &s]));
        assert_eq!(got, want);
    }

    #[test]
    fn covers_subset_of_conditions() {
        // Chain job over edge {0} only of a 3-relation query: result
        // must equal oracle of the 2-relation subquery.
        let r = rel("r", 60, 8, 30);
        let s = rel("s", 50, 9, 30);
        let t = rel("t", 40, 10, 30);
        let q = QueryBuilder::new("q")
            .relation(r.schema().clone())
            .relation(s.schema().clone())
            .relation(t.schema().clone())
            .join("r", "a", ThetaOp::Gt, "s", "a")
            .join("s", "b", ThetaOp::Lt, "t", "b")
            .build()
            .unwrap();
        let got = canonicalize(run_chain(
            &q,
            &[0],
            &[&r, &s, &t],
            4,
            PartitionStrategy::Hilbert,
        ));
        let sub = QueryBuilder::new("sub")
            .relation(r.schema().clone())
            .relation(s.schema().clone())
            .join("r", "a", ThetaOp::Gt, "s", "a")
            .build()
            .unwrap();
        let want = canonicalize(oracle_join(&sub, &[&r, &s]));
        assert_eq!(got, want);
    }

    #[test]
    fn ne_join_matches_oracle() {
        let r = rel("r", 40, 11, 5);
        let s = rel("s", 40, 12, 5);
        let q = QueryBuilder::new("q")
            .relation(r.schema().clone())
            .relation(s.schema().clone())
            .join("r", "a", ThetaOp::Ne, "s", "a")
            .build()
            .unwrap();
        let got = canonicalize(run_chain(
            &q,
            &[0],
            &[&r, &s],
            8,
            PartitionStrategy::Hilbert,
        ));
        let want = canonicalize(oracle_join(&q, &[&r, &s]));
        assert_eq!(got, want);
    }

    #[test]
    fn empty_side_yields_empty() {
        let r = rel("r", 0, 13, 5);
        let s = rel("s", 20, 14, 5);
        let q = QueryBuilder::new("q")
            .relation(r.schema().clone())
            .relation(s.schema().clone())
            .join("r", "a", ThetaOp::Lt, "s", "a")
            .build()
            .unwrap();
        let got = run_chain(&q, &[0], &[&r, &s], 4, PartitionStrategy::Hilbert);
        assert!(got.is_empty());
    }

    /// Bound selection per depth: an equality beats a band, a column
    /// bounded on both sides beats a one-sided bound, and `<>`,
    /// non-finite offsets and predicates between later dimensions give
    /// nothing to search on.
    #[test]
    fn depth_bounds_prefer_equality_then_two_sided_bands() {
        let pred =
            |left_rel, left_col, left_off, op, right_rel, right_col, right_off| CompiledPredicate {
                left_rel,
                left_col,
                left_off,
                op,
                right_rel,
                right_col,
                right_off,
            };
        let one_sided = pred(0, 1, 0.0, ThetaOp::Lt, 1, 1, 0.0); // x.b < y.b
        let lower = pred(0, 0, 0.0, ThetaOp::Le, 1, 0, 0.0); // x.a <= y.a
        let upper = pred(1, 0, 0.0, ThetaOp::Le, 0, 0, 2.0); // y.a <= x.a + 2
        let equal = pred(1, 1, 1.0, ThetaOp::Eq, 0, 0, 0.0); // y.b + 1 = x.a
        let chosen = |preds: &[&CompiledPredicate]| {
            let b = DepthBound::choose(1, preds).expect("a bound");
            (
                b.own_col,
                b.own_off,
                b.lo.map(|s| s.off),
                b.hi.map(|s| s.off),
            )
        };
        assert_eq!(chosen(&[&one_sided]), (1, 0.0, Some(0.0), None));
        assert_eq!(
            chosen(&[&one_sided, &lower, &upper]),
            (0, 0.0, Some(0.0), Some(2.0))
        );
        assert_eq!(
            chosen(&[&one_sided, &lower, &upper, &equal]),
            (1, 1.0, Some(0.0), Some(0.0))
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

    #[test]
    fn global_ids_are_deterministic_and_spread() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            let a = ChainThetaJob::global_id(42, i, 1000);
            let b = ChainThetaJob::global_id(42, i, 1000);
            assert_eq!(a, b);
            assert!(a < 1000);
            seen.insert(a);
        }
        // Uniformish: at least half the domain hit by 1000 draws.
        assert!(seen.len() > 500, "only {} distinct ids", seen.len());
    }
}
