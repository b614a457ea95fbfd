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
//!    The descent is the shared reduce-side core (`descent`): each
//!    depth finds the rows a prefix may join through a hash index, a
//!    sorted key range or a walk, and every candidate still runs
//!    through all of the depth's predicates, so rows and row order are
//!    those of the plain nested loop. This job supplies only the leaf
//!    (ownership, then `Tuple::concat_all`) and its priced formula.
//!
//!    Two counts come out of it. The **priced** count — what
//!    [`MrJob::reduce`] returns and Eq. 2–4 charge — is the work of the
//!    textbook nested loop: `|G_d|` per prefix that reaches depth `d`
//!    plus one per full combination, computed from the survivors, not
//!    from visits, so the simulated clock does not depend on the index.
//!    The **examined** count ([`MrJob::reduce_examined`]) is what the
//!    host really visited.
//! 4. **dead rows are counted, not shipped** ([`MrJob::dead_rows`]):
//!    before the map phase, each edge's larger kept side is probed
//!    against an exact semi-join index over the smaller side. A row
//!    that joins nothing there, and whose priced work the closed form
//!    can take from counts alone, is routed like any other but only
//!    its record count and bytes travel (`ChainDeadRows`). Algorithm 1
//!    ships it, so Eq. 2–4 still price it: the reducer adds the counts
//!    into the group sizes and survivors of its formula.

use crate::descent::{Descent, SemiJoin, Visit};
use crate::shape::IntermediateShape;
use crate::skip::ChainSkipFilter;
use mwtj_hilbert::{PartitionStrategy, SpacePartition};
use mwtj_mapreduce::{DeadRows, Emit, KeptRows, MrJob, SkipFilter, TagZones, TaggedRecord};
use mwtj_query::theta::CompiledPredicate;
use mwtj_query::MultiwayQuery;
use mwtj_storage::{Schema, Tuple};
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// to *dimension* positions — what the descent compiles and the
    /// zone-map skip filter evaluates against block ranges.
    preds: Vec<CompiledPredicate>,
    descent: Descent,
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
        let preds: Vec<CompiledPredicate> = edges
            .iter()
            .flat_map(|&e| &compiled.per_condition[e])
            .map(|p| CompiledPredicate {
                left_rel: to_dim(p.left_rel),
                right_rel: to_dim(p.right_rel),
                ..*p
            })
            .collect();
        let descent = Descent::new(dims.len(), &preds, Vec::new());
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
            descent,
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

    /// Algorithm 1's routing of the `row_idx`-th row of a block of `tag`
    /// with seed `block_seed`: its global id and the components its
    /// stripe reaches.
    fn route(&self, tag: u8, block_seed: u64, row_idx: usize) -> (u64, &[u32]) {
        let dim = tag as usize;
        debug_assert!(dim < self.dims.len(), "tag beyond chain dimensions");
        let gid = Self::global_id(block_seed, row_idx, self.cardinalities[dim]);
        let stripe = self.partition.stripe_of(dim, gid);
        (gid, self.partition.components_for_stripe(dim, stripe))
    }

    /// Shared reduce body: bucket the records per dimension, in arrival
    /// order and with each row's stripe, and run the descent — or, for
    /// the reference, its whole-group scan — handing the combinations
    /// whose cell this component owns to `emit`, one at a time. Returns
    /// what the descent saw and the group sizes, both with the
    /// `counted[d]` dead rows of each dimension `d` added in; `None`
    /// when some dimension contributed nothing to this cell region.
    fn descend(
        &self,
        key: u64,
        records: &[TaggedRecord],
        counted: &[u64],
        scan: bool,
        emit: &mut dyn FnMut(Tuple) -> bool,
    ) -> Option<(Visit, Vec<u64>)> {
        let mut rows: Vec<Vec<&Tuple>> = vec![Vec::new(); self.dims.len()];
        let mut stripes: Vec<Vec<u64>> = vec![Vec::new(); self.dims.len()];
        for rec in records {
            let dim = rec.tag as usize;
            rows[dim].push(&rec.tuple);
            stripes[dim].push(self.partition.stripe_of(dim, rec.aux));
        }
        let dead = |d: usize| counted.get(d).copied().unwrap_or(0);
        let sizes: Vec<u64> = (0..rows.len())
            .map(|d| rows[d].len() as u64 + dead(d))
            .collect();
        if sizes.contains(&0) {
            return None;
        }
        let groups: Vec<&[&Tuple]> = rows.iter().map(Vec::as_slice).collect();
        let mut cell = vec![0u64; groups.len()];
        let leaf = &mut |stack: &[&Tuple], at: &[u32]| {
            for ((c, s), &pos) in cell.iter_mut().zip(&stripes).zip(at) {
                *c = s[pos as usize];
            }
            // Ownership test: exactly one component owns this cell.
            self.partition.owner_of_cell(&cell) != key as u32 || emit(Tuple::concat_all(stack))
        };
        let mut visit = if scan {
            self.descent.run_scan(&groups, leaf)
        } else {
            self.descent.run(&groups, leaf)
        };
        // A dead row of a later dimension fails its depth under every
        // prefix: it is only part of its group. One of dimension 0
        // survives depth 0, which checks no predicate, then fails depth
        // 1 against every row (`ChainDeadRows` counts no other kind).
        visit.survivors[0] += dead(0);
        Some((visit, sizes))
    }

    /// The reduce body: descend, count what was examined, and return the
    /// priced work of the textbook nested loop — `|G_0|`, plus
    /// `|G_{d+1}|` for every row that survives depth `d`, plus one per
    /// full combination — over the shipped `records` and the `counted`
    /// dead rows per dimension alike. `reduce` and `reduce_streamed` are
    /// its case with nothing counted.
    fn reduce_inner(
        &self,
        key: u64,
        records: &[TaggedRecord],
        counted: &[u64],
        emit: &mut dyn FnMut(Tuple) -> bool,
    ) -> u64 {
        let Some((visit, sizes)) = self.descend(key, records, counted, false, emit) else {
            return 0;
        };
        self.examined.fetch_add(visit.examined, Ordering::Relaxed);
        let (&last, survivors) = visit
            .survivors
            .split_last()
            .expect("a chain has dimensions");
        survivors
            .iter()
            .zip(&sizes[1..])
            .fold(sizes[0].saturating_add(last), |work, (&s, &g)| {
                work.saturating_add(s.saturating_mul(g))
            })
    }

    /// The reducer as a plain nested loop: every prefix scans its whole
    /// next group, and the returned count is what that loop visits.
    /// Kept as the reference the differential property test and the
    /// `joincore` cross-check hold [`MrJob::reduce`] to — rows, row
    /// order and count; nothing in the engine reaches it.
    #[doc(hidden)]
    pub fn reduce_scan_reference(
        &self,
        key: u64,
        records: &[TaggedRecord],
        out: &mut Vec<Tuple>,
    ) -> u64 {
        let emit = &mut |row| {
            out.push(row);
            true
        };
        self.descend(key, records, &[], true, emit)
            .map_or(0, |(visit, _)| visit.examined)
    }
}

/// The chain job's [`DeadRows`] filter: per dimension, the semi-joins a
/// row of it must pass to be shipped.
///
/// The priced count is `|G_0| + S_{n−1} + Σ_d S_d·|G_{d+1}|`, with `S_d`
/// the rows surviving depth `d`. A row of dimension `d` that joins no
/// kept row of an adjacent dimension `e` may be counted only when its
/// share of that sum is known without its values: for `e < d` it fails
/// depth `d` under every prefix and adds to `|G_d|` alone; for `d = 0,
/// e = 1` it survives depth 0 and fails depth 1, adding to `|G_0|` and
/// `S_0`. Any other such row is shipped. Per edge, the side with more
/// kept rows probes an index over the other, where the rule allows it.
struct ChainDeadRows<'a> {
    job: &'a ChainThetaJob,
    probes: Vec<Vec<SemiJoin<'a>>>,
}

impl<'a> ChainDeadRows<'a> {
    fn build(job: &'a ChainThetaJob, kept: &KeptRows<'a>) -> Option<Self> {
        let mut probes: Vec<Vec<SemiJoin<'a>>> = job.dims.iter().map(|_| Vec::new()).collect();
        let edge =
            |p: &CompiledPredicate| (p.left_rel.min(p.right_rel), p.left_rel.max(p.right_rel));
        let mut edges: Vec<(usize, usize)> = job.preds.iter().map(edge).collect();
        edges.sort_unstable();
        edges.dedup();
        for (a, b) in edges {
            let (probed, indexed) = match kept.count(b as u8) >= kept.count(a as u8) {
                true => (b, a),
                false => (a, b),
            };
            if indexed > probed && (probed, indexed) != (0, 1) {
                continue;
            }
            let depth = |d: usize| usize::from(d == indexed);
            let preds: Vec<CompiledPredicate> = job
                .preds
                .iter()
                .filter(|p| edge(p) == (a, b))
                .map(|p| CompiledPredicate {
                    left_rel: depth(p.left_rel),
                    right_rel: depth(p.right_rel),
                    ..*p
                })
                .collect();
            probes[probed].extend(SemiJoin::new(&preds, kept.rows(indexed as u8)));
        }
        probes
            .iter()
            .any(|p| !p.is_empty())
            .then_some(ChainDeadRows { job, probes })
    }
}

impl DeadRows for ChainDeadRows<'_> {
    fn count(
        &self,
        tag: u8,
        row: &Tuple,
        block_seed: u64,
        row_idx: usize,
        count: &mut dyn FnMut(u64, usize),
    ) -> bool {
        if self.probes[tag as usize].iter().all(|p| p.joins(row)) {
            return false;
        }
        let bytes = TaggedRecord::wire_len(row);
        for &comp in self.job.route(tag, block_seed, row_idx).1 {
            count(comp as u64, bytes);
        }
        true
    }

    fn reduce(
        &self,
        key: u64,
        records: &[TaggedRecord],
        counted: &[u64],
        emit: &mut dyn FnMut(Tuple) -> bool,
    ) -> u64 {
        self.job.reduce_inner(key, records, counted, emit)
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
        ChainSkipFilter::build(&self.preds, self.dims.len(), zones)
    }

    fn dead_rows<'a>(&'a self, kept: &KeptRows<'a>) -> Option<Box<dyn DeadRows + 'a>> {
        ChainDeadRows::build(self, kept).map(|d| Box::new(d) as Box<dyn DeadRows + 'a>)
    }

    fn map(&self, tag: u8, row: &Tuple, block_seed: u64, row_idx: usize, emit: &mut Emit<'_>) {
        let (gid, comps) = self.route(tag, block_seed, row_idx);
        for &comp in comps {
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
        self.reduce_inner(key, records, &[], &mut |row| {
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
        self.reduce_inner(key, records, &[], emit)
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
