//! Pairwise join operators over shaped intermediates.
//!
//! [`PairJob`] joins two inputs (base relations or intermediate results)
//! under any conjunction of theta predicates, with two partitioning
//! strategies:
//!
//! * [`PairStrategy::EquiHash`] — hash partition on the equality key
//!   columns (plus the shared-relation tuples when merging two partial
//!   results, §4.2: "their output can be merged using the common
//!   relation as the key"). The classic repartition join; only valid
//!   when there is at least one equality to hash on.
//! * [`PairStrategy::Broadcast`] — fragment-replicate: the designated
//!   side is copied to every reducer, the other side is split evenly.
//!   What Hive/Pig-era systems fall back to for pure inequality joins.
//!
//! Whatever the partitioning, the reduce-side join is the shared
//! `descent` at two depths — left rows, then the right rows each may
//! join — compiled once at job construction as a [`PairKernel`]. The
//! job keeps only its leaf (output assembly) and its priced formula:
//! the full candidate cross product `|L|·|R|` per key group, whatever
//! the host examined.
//!
//! A reducer is one [`MrJob::reduce_task`] call: the job walks the
//! reducer's key groups itself ([`key_groups`]), reusing one pair of
//! left/right buffers across them. Each emitted row carries its priced
//! bytes, the encoded length of the full joined row. A terminal job
//! ([`PairJob::projecting`]) builds only the query's projected columns
//! in the leaf and still prices the full row, so the simulated clock
//! cannot tell it from a job that builds the whole row.

use crate::kernel::PairKernel;
use crate::shape::IntermediateShape;
use crate::skip::ChainSkipFilter;
use mwtj_mapreduce::engine::GROUP_BY_AUX;
use mwtj_mapreduce::{key_groups, Emit, MrJob, ReduceEmit, SkipFilter, TagZones, TaggedRecord};
use mwtj_query::theta::CompiledPredicate;
use mwtj_query::MultiwayQuery;
use mwtj_storage::{Schema, Tuple};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Partitioning strategy for a [`PairJob`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairStrategy {
    /// Hash repartition on equality keys (requires ≥1 equality
    /// predicate or shared relations).
    EquiHash,
    /// Replicate one side to all reducers; `0` or `1` names the
    /// replicated side.
    Broadcast {
        /// Which input (0 = left, 1 = right) is replicated.
        replicated: u8,
    },
}

/// A pairwise theta-join / merge job.
pub struct PairJob {
    name: String,
    /// The two-depth descent, flat columns and output assembly — built
    /// once at construction.
    kernel: PairKernel,
    /// Map-side `EquiHash` key columns, resolved to flat column indices
    /// per input side (shared-relation columns then equality-predicate
    /// columns, canonical order).
    key_cols: [Vec<usize>; 2],
    strategy: PairStrategy,
    reducers: u32,
    out_shape: IntermediateShape,
    /// Schema of the rows the leaf builds: `out_shape`'s, or the
    /// query's projection for a [`PairJob::projecting`] job.
    schema: Schema,
    /// Candidates really visited by every reduce call so far (a
    /// statistic: publishes nothing, hence `Relaxed`).
    examined: AtomicU64,
}

impl PairJob {
    /// Build a pair job.
    ///
    /// * `preds` — compiled predicates between the two sides
    ///   (query-relation indexed; each must reference one relation from
    ///   each side).
    /// * `reducers` — reduce task count.
    pub fn new(
        name: impl Into<String>,
        query: &MultiwayQuery,
        left: IntermediateShape,
        right: IntermediateShape,
        preds: Vec<CompiledPredicate>,
        strategy: PairStrategy,
        reducers: u32,
    ) -> Self {
        assert!(reducers >= 1);
        for (pi, p) in preds.iter().enumerate() {
            let left_on_left = left.has(p.left_rel) && right.has(p.right_rel);
            let left_on_right = right.has(p.left_rel) && left.has(p.right_rel);
            assert!(
                left_on_left || left_on_right,
                "predicate {pi} does not span the two sides"
            );
        }
        let out_shape = IntermediateShape::union(query, &left, &right);
        let kernel = PairKernel::compile(&left, &right, &out_shape, &preds);
        if matches!(strategy, PairStrategy::EquiHash) {
            // The kernel's equality component (shared relations +
            // zero-offset `=` predicates) is the single definition of
            // hashability — the strategy is valid iff it is non-empty.
            assert!(
                !kernel.equality_key().is_empty(),
                "EquiHash needs an equality key or shared relations"
            );
        }

        // Map-side hash key columns per side, derived from the kernel's
        // equality component so shuffle partitioning and the reduce-side
        // build/probe key share one definition.
        let key_cols: [Vec<usize>; 2] = [
            kernel.equality_key().iter().map(|&(l, _)| l).collect(),
            kernel.equality_key().iter().map(|&(_, r)| r).collect(),
        ];
        PairJob {
            name: name.into(),
            kernel,
            key_cols,
            strategy,
            reducers,
            schema: out_shape.schema.clone(),
            out_shape,
            examined: AtomicU64::new(0),
        }
    }

    /// This job as a query's terminal job: the leaf builds only the
    /// columns of `query`'s projection, in one allocation, and the
    /// output schema is the projection's. Each row is still priced at
    /// the full joined row, so every simulated figure is unchanged. An
    /// empty projection returns the whole row, as before.
    pub fn projecting(self, query: &MultiwayQuery) -> Self {
        if query.projection.is_empty() {
            return self;
        }
        PairJob {
            kernel: self.kernel.project(&self.out_shape.projection_cols(query)),
            schema: query.output_schema(),
            ..self
        }
    }

    /// Reduce task count the job must be run with.
    pub fn reducers(&self) -> u32 {
        self.reducers
    }

    /// Shape of the full joined row (what a non-projecting job
    /// outputs).
    pub fn out_shape(&self) -> &IntermediateShape {
        &self.out_shape
    }

    /// The strategy in use.
    pub fn strategy(&self) -> PairStrategy {
        self.strategy
    }

    /// Hash key of a row for `EquiHash`: shared-relation tuples plus
    /// equality-predicate columns, in canonical order — column indices
    /// pre-resolved at construction.
    fn equi_key(&self, tag: u8, row: &Tuple) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for &c in &self.key_cols[tag as usize] {
            row.get(c).hash(&mut h);
        }
        h.finish() & !GROUP_BY_AUX
    }

    fn splitmix(seed: u64, idx: usize) -> u64 {
        let mut z = seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl MrJob for PairJob {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn output_schema(&self) -> Schema {
        self.schema.clone()
    }

    fn map(&self, tag: u8, row: &Tuple, block_seed: u64, row_idx: usize, emit: &mut Emit<'_>) {
        match self.strategy {
            PairStrategy::EquiHash => {
                let key = self.equi_key(tag, row);
                emit(
                    key,
                    TaggedRecord {
                        tag,
                        aux: GROUP_BY_AUX | key,
                        tuple: row.clone(),
                    },
                );
            }
            PairStrategy::Broadcast { replicated } => {
                if tag == replicated {
                    for r in 0..self.reducers {
                        emit(
                            r as u64,
                            TaggedRecord {
                                tag,
                                aux: 0,
                                tuple: row.clone(),
                            },
                        );
                    }
                } else {
                    let r = Self::splitmix(block_seed, row_idx) % self.reducers as u64;
                    emit(
                        r,
                        TaggedRecord {
                            tag,
                            aux: 0,
                            tuple: row.clone(),
                        },
                    );
                }
            }
        }
    }

    fn skip_filter(&self, zones: &TagZones) -> Option<Box<dyn SkipFilter>> {
        // Pure merges (shared-relation equality only, where NULL
        // matches NULL) compile no theta predicates and return `None`
        // here — zone ranges cannot speak for them.
        ChainSkipFilter::build(self.kernel.side_preds(), 2, zones)
    }

    fn reduce_task(
        &self,
        _r: u64,
        records: &[TaggedRecord],
        _counted: &[u64],
        emit: &mut ReduceEmit<'_>,
    ) -> u64 {
        let mut lefts: Vec<&Tuple> = Vec::new();
        let mut rights: Vec<&Tuple> = Vec::new();
        let (mut priced, mut examined) = (0u64, 0u64);
        let mut open = true;
        for group in key_groups(records) {
            lefts.clear();
            rights.clear();
            for rec in group {
                if rec.tag == 0 {
                    lefts.push(&rec.tuple);
                } else {
                    rights.push(&rec.tuple);
                }
            }
            // Rows materialise one at a time as the descent visits
            // index pairs — the reducer never holds its output set.
            examined += self.kernel.visit(&lefts, &rights, &mut |pair, _| {
                let (row, bytes) = self.kernel.build(pair);
                open = emit(row, bytes);
                open
            });
            // Simulated-cost contract: a reducer running the textbook
            // nested loop examines every (left, right) combination of
            // the group, and the cost model (Eq. 2–4) prices that
            // work, whatever the host examined.
            priced =
                priced.saturating_add((lefts.len() as u64).saturating_mul(rights.len() as u64));
            if !open {
                break;
            }
        }
        self.examined.fetch_add(examined, Ordering::Relaxed);
        priced
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

    /// Like `rel` but with `b` = unique row id (row identity for merge
    /// tests).
    fn rel_keyed(name: &str, n: usize, seed: u64, domain: i64) -> Relation {
        let schema = Schema::from_pairs(name, &[("a", DataType::Int), ("b", DataType::Int)]);
        let mut rng = StdRng::seed_from_u64(seed);
        Relation::from_rows_unchecked(
            schema,
            (0..n)
                .map(|i| tuple![rng.gen_range(0..domain), i as i64])
                .collect(),
        )
    }

    fn run_pair(
        q: &MultiwayQuery,
        l: &Relation,
        r: &Relation,
        strategy: PairStrategy,
        reducers: u32,
    ) -> Vec<Tuple> {
        let cfg = ClusterConfig::default();
        let dfs = Dfs::new();
        dfs.put_relation("L", l, &cfg);
        dfs.put_relation("R", r, &cfg);
        let compiled = q.compile().unwrap();
        let preds: Vec<CompiledPredicate> = compiled
            .per_condition
            .iter()
            .flat_map(|c| c.iter().copied())
            .collect();
        let job = PairJob::new(
            "pair",
            q,
            IntermediateShape::base(q, 0),
            IntermediateShape::base(q, 1),
            preds,
            strategy,
            reducers,
        );
        let engine = Engine::new(cfg, dfs);
        let run = engine.run(
            &job,
            &[InputSpec::new("L", 0), InputSpec::new("R", 1)],
            16,
            job.reducers(),
            None,
        );
        run.output.into_rows()
    }

    fn ineq_query(l: &Relation, r: &Relation) -> MultiwayQuery {
        QueryBuilder::new("q")
            .relation(l.schema().clone())
            .relation(r.schema().clone())
            .join("l", "a", ThetaOp::Lt, "r", "a")
            .build()
            .unwrap()
    }

    #[test]
    fn equi_hash_matches_oracle() {
        let l = rel("l", 400, 21, 50);
        let r = rel("r", 300, 22, 50);
        let q = QueryBuilder::new("q")
            .relation(l.schema().clone())
            .relation(r.schema().clone())
            .join("l", "a", ThetaOp::Eq, "r", "a")
            .build()
            .unwrap();
        let want = canonicalize(oracle_join(&q, &[&l, &r]));
        for reducers in [1u32, 4, 16] {
            let got = canonicalize(run_pair(&q, &l, &r, PairStrategy::EquiHash, reducers));
            assert_eq!(got, want, "reducers={reducers}");
        }
    }

    #[test]
    fn broadcast_matches_oracle_for_inequality() {
        let l = rel("l", 120, 23, 60);
        let r = rel("r", 90, 24, 60);
        let q = ineq_query(&l, &r);
        let want = canonicalize(oracle_join(&q, &[&l, &r]));
        for repl in [0u8, 1] {
            let got = canonicalize(run_pair(
                &q,
                &l,
                &r,
                PairStrategy::Broadcast { replicated: repl },
                6,
            ));
            assert_eq!(got, want, "replicated side {repl}");
        }
    }

    #[test]
    fn mixed_eq_and_ineq_on_equihash() {
        // a equality + b inequality: hash on a, check both at reduce.
        let l = rel("l", 250, 27, 20);
        let r = rel("r", 250, 28, 20);
        let q = QueryBuilder::new("q")
            .relation(l.schema().clone())
            .relation(r.schema().clone())
            .join("l", "a", ThetaOp::Eq, "r", "a")
            .join("l", "b", ThetaOp::Ge, "r", "b")
            .build()
            .unwrap();
        let want = canonicalize(oracle_join(&q, &[&l, &r]));
        let got = canonicalize(run_pair(&q, &l, &r, PairStrategy::EquiHash, 8));
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "EquiHash needs an equality key")]
    fn equihash_requires_equality() {
        let l = rel("l", 10, 29, 5);
        let r = rel("r", 10, 30, 5);
        let q = ineq_query(&l, &r);
        run_pair(&q, &l, &r, PairStrategy::EquiHash, 4);
    }

    /// Merge semantics: joining two intermediates that share a relation
    /// must only combine rows agreeing on the shared tuples. The shared
    /// relation needs row identity (the paper merges on "primary keys
    /// ... or data IDs", §4.2) — here column `b` is a unique row id, as
    /// the system layer guarantees via its implicit rowid augmentation.
    #[test]
    fn merge_on_shared_relation() {
        // Build query r0 < r1 < r2 (on a). Compute I_a = r0⋈r1 and
        // I_b = r1⋈r2 via oracle, then merge I_a with I_b on shared r1
        // and compare against the full oracle.
        let r0 = rel("r0", 40, 31, 25);
        let r1 = rel_keyed("r1", 35, 32, 25);
        let r2 = rel("r2", 30, 33, 25);
        let q = QueryBuilder::new("q")
            .relation(r0.schema().clone())
            .relation(r1.schema().clone())
            .relation(r2.schema().clone())
            .join("r0", "a", ThetaOp::Lt, "r1", "a")
            .join("r1", "a", ThetaOp::Lt, "r2", "a")
            .build()
            .unwrap();
        // Partial results via oracle on subqueries.
        let qa = QueryBuilder::new("qa")
            .relation(r0.schema().clone())
            .relation(r1.schema().clone())
            .join("r0", "a", ThetaOp::Lt, "r1", "a")
            .build()
            .unwrap();
        let qb = QueryBuilder::new("qb")
            .relation(r1.schema().clone())
            .relation(r2.schema().clone())
            .join("r1", "a", ThetaOp::Lt, "r2", "a")
            .build()
            .unwrap();
        let sa = IntermediateShape::of(&q, &[0, 1]);
        let sb = IntermediateShape::of(&q, &[1, 2]);
        let ia = Relation::from_rows_unchecked(sa.schema.clone(), oracle_join(&qa, &[&r0, &r1]));
        let ib = Relation::from_rows_unchecked(sb.schema.clone(), oracle_join(&qb, &[&r1, &r2]));

        let cfg = ClusterConfig::default();
        let dfs = Dfs::new();
        dfs.put_relation("ia", &ia, &cfg);
        dfs.put_relation("ib", &ib, &cfg);
        let job = PairJob::new(
            "merge",
            &q,
            sa,
            sb,
            vec![], // merge: only shared-relation equality
            PairStrategy::EquiHash,
            8,
        );
        let engine = Engine::new(cfg, dfs);
        let run = engine.run(
            &job,
            &[InputSpec::new("ia", 0), InputSpec::new("ib", 1)],
            16,
            job.reducers(),
            None,
        );
        let got = canonicalize(run.output.into_rows());
        let want = canonicalize(oracle_join(&q, &[&r0, &r1, &r2]));
        assert_eq!(got, want);
    }
}
