//! The zone-map skip filter of both join jobs.
//!
//! It answers one conservative question per block (and per row): *could
//! this input possibly contribute an output row, given the min/max
//! ranges of every partner block?* It is compiled once per run from the
//! job's theta predicates over its inputs — a chain job's dimensions, or
//! a pair job's two sides — and shared-relation equality constraints
//! are deliberately ignored (they are an additional
//! conjunct, so pruning on the theta predicates alone stays sound, and
//! their NULL-matches-NULL merge semantics is exactly what zone ranges
//! cannot capture).
//!
//! Soundness rests on one implication: a row's value always lies inside
//! its block's zone range (or the zone is `Unbounded`), so
//! row-level satisfiability implies block-level satisfiability. Dropping
//! a block whose zones cannot satisfy some predicate against *any*
//! partner block therefore never drops an output row.

use mwtj_mapreduce::{SkipFilter, TagZones};
use mwtj_query::theta::{value_may_satisfy, zones_may_satisfy, CompiledPredicate};
use mwtj_storage::{BlockZones, Tuple};
use std::sync::Arc;

/// One edge group of the filter: all predicates between one unordered
/// pair of dimensions, orientation preserved.
struct DimGroup {
    dims: (usize, usize),
    preds: Vec<CompiledPredicate>,
}

/// Skip filter for [`crate::chain::ChainThetaJob`] and
/// [`crate::pair::PairJob`]: tag `d` is dimension (or side) `d`,
/// predicates carry dimension indices in their `left_rel`/`right_rel`
/// fields and columns of that dimension's rows.
pub(crate) struct ChainSkipFilter {
    groups: Vec<DimGroup>,
    blocks: Vec<Vec<Arc<BlockZones>>>,
    keep: Vec<Vec<bool>>,
    pairs: u64,
    pruned: u64,
}

impl ChainSkipFilter {
    /// Compile a filter from dimension-remapped predicates. A dimension
    /// block survives iff *every* predicate group touching the
    /// dimension has at least one satisfiable partner block.
    pub(crate) fn build(
        preds: &[CompiledPredicate],
        n_dims: usize,
        zones: &TagZones,
    ) -> Option<Box<dyn SkipFilter>> {
        if preds.is_empty() {
            return None;
        }
        let mut groups: Vec<DimGroup> = Vec::new();
        for p in preds {
            let dims = (p.left_rel.min(p.right_rel), p.left_rel.max(p.right_rel));
            match groups.iter_mut().find(|g| g.dims == dims) {
                Some(g) => g.preds.push(*p),
                None => groups.push(DimGroup {
                    dims,
                    preds: vec![*p],
                }),
            }
        }
        let blocks: Vec<Vec<Arc<BlockZones>>> = (0..n_dims)
            .map(|d| zones.blocks(d as u8).to_vec())
            .collect();
        let mut keep: Vec<Vec<bool>> = blocks.iter().map(|b| vec![true; b.len()]).collect();
        let mut pairs = 0u64;
        let mut pruned = 0u64;
        for g in &groups {
            let (da, db) = g.dims;
            let mut sat_a = vec![false; blocks[da].len()];
            let mut sat_b = vec![false; blocks[db].len()];
            for (i, za) in blocks[da].iter().enumerate() {
                for (j, zb) in blocks[db].iter().enumerate() {
                    pairs += 1;
                    if g.preds.iter().all(|p| Self::pair_sat(p, da, za, zb)) {
                        sat_a[i] = true;
                        sat_b[j] = true;
                    } else {
                        pruned += 1;
                    }
                }
            }
            for (k, s) in sat_a.iter().enumerate() {
                keep[da][k] &= s;
            }
            for (k, s) in sat_b.iter().enumerate() {
                keep[db][k] &= s;
            }
        }
        Some(Box::new(ChainSkipFilter {
            groups,
            blocks,
            keep,
            pairs,
            pruned,
        }))
    }

    /// Zone satisfiability of one predicate over a block pair, where
    /// `za` is dimension `da`'s block and `zb` the partner's.
    fn pair_sat(p: &CompiledPredicate, da: usize, za: &BlockZones, zb: &BlockZones) -> bool {
        if p.left_rel == da {
            zones_may_satisfy(
                za.column(p.left_col),
                p.left_off,
                p.op,
                zb.column(p.right_col),
                p.right_off,
            )
        } else {
            zones_may_satisfy(
                zb.column(p.left_col),
                p.left_off,
                p.op,
                za.column(p.right_col),
                p.right_off,
            )
        }
    }

    /// Row-vs-zone satisfiability of one predicate, where the row lives
    /// in dimension `d` and `z` is a partner-dimension block.
    fn row_sat(p: &CompiledPredicate, d: usize, row: &Tuple, z: &BlockZones) -> bool {
        if p.left_rel == d {
            value_may_satisfy(
                row.get(p.left_col),
                p.left_off,
                p.op,
                z.column(p.right_col),
                p.right_off,
            )
        } else {
            value_may_satisfy(
                row.get(p.right_col),
                p.right_off,
                p.op.flip(),
                z.column(p.left_col),
                p.left_off,
            )
        }
    }
}

impl SkipFilter for ChainSkipFilter {
    fn keep_block(&self, tag: u8, block: usize) -> bool {
        self.keep
            .get(tag as usize)
            .and_then(|v| v.get(block))
            .copied()
            .unwrap_or(true)
    }

    fn keep_row(&self, tag: u8, row: &Tuple) -> bool {
        let d = tag as usize;
        self.groups
            .iter()
            .filter(|g| g.dims.0 == d || g.dims.1 == d)
            .all(|g| {
                let partner = if g.dims.0 == d { g.dims.1 } else { g.dims.0 };
                self.blocks[partner]
                    .iter()
                    .any(|z| g.preds.iter().all(|p| Self::row_sat(p, d, row, z)))
            })
    }

    fn pair_counts(&self) -> (u64, u64) {
        (self.pairs, self.pruned)
    }
}

#[cfg(test)]
mod tests {
    use crate::chain::ChainThetaJob;
    use crate::pair::{PairJob, PairStrategy};
    use crate::shape::IntermediateShape;
    use mwtj_hilbert::PartitionStrategy;
    use mwtj_mapreduce::{ClusterConfig, Dfs, Engine, InputSpec, JobRun, MrJob};
    use mwtj_query::theta::CompiledPredicate;
    use mwtj_query::{MultiwayQuery, QueryBuilder, ThetaOp};
    use mwtj_storage::{tuple, DataType, Relation, Schema};

    /// `n` rows `(lo + i, i)` — sorted on column `a`, so DFS blocks are
    /// value-clustered and zone ranges are tight.
    fn sorted_rel(name: &str, n: usize, lo: i64) -> Relation {
        let schema = Schema::from_pairs(name, &[("a", DataType::Int), ("b", DataType::Int)]);
        Relation::from_rows_unchecked(
            schema,
            (0..n).map(|i| tuple![lo + i as i64, i as i64]).collect(),
        )
    }

    /// Run `job` twice over the same DFS — skipping on, then off — and
    /// return both runs.
    fn run_both(
        job: &dyn MrJob,
        dfs: &Dfs,
        inputs: &[InputSpec],
        reducers: u32,
    ) -> (JobRun, JobRun) {
        let cfg = ClusterConfig::default();
        let engine = Engine::new(cfg, dfs.clone());
        let on = engine
            .try_run_with(
                job,
                inputs,
                16,
                reducers,
                None,
                engine.fault_plan(),
                true,
                None,
            )
            .unwrap();
        let off = engine
            .try_run_with(
                job,
                inputs,
                16,
                reducers,
                None,
                engine.fault_plan(),
                false,
                None,
            )
            .unwrap();
        (on, off)
    }

    fn lt_query(l: &Relation, r: &Relation) -> MultiwayQuery {
        QueryBuilder::new("q")
            .relation(l.schema().clone())
            .relation(r.schema().clone())
            .join("l", "a", ThetaOp::Lt, "r", "a")
            .build()
            .unwrap()
    }

    fn pair_job(q: &MultiwayQuery, l: &Relation, r: &Relation, strategy: PairStrategy) -> PairJob {
        let compiled = q.compile().unwrap();
        let preds: Vec<CompiledPredicate> = compiled
            .per_condition
            .iter()
            .flat_map(|c| c.iter().copied())
            .collect();
        PairJob::new(
            "pair",
            q,
            IntermediateShape::base(q, 0),
            IntermediateShape::base(q, 1),
            preds,
            strategy,
            (l.len() as u64, r.len() as u64),
            6,
        )
    }

    /// Left spans [0, 12000) over several blocks; right sits in [0, 10).
    /// Under `l.a < r.a` every left block past the first can be proven
    /// empty, and the output must stay bit-identical to skip-off.
    #[test]
    fn pair_prunes_clustered_blocks_with_identical_output() {
        let l = sorted_rel("l", 12_000, 0);
        let r = sorted_rel("r", 10, 0);
        let q = lt_query(&l, &r);
        let dfs = Dfs::new();
        let cfg = ClusterConfig::default();
        dfs.put_relation("L", &l, &cfg);
        dfs.put_relation("R", &r, &cfg);
        let job = pair_job(&q, &l, &r, PairStrategy::Broadcast { replicated: 1 });
        let inputs = [InputSpec::new("L", 0), InputSpec::new("R", 1)];
        let (on, off) = run_both(&job, &dfs, &inputs, job.reducers());

        assert_eq!(on.output.rows(), off.output.rows(), "skipping changed rows");
        assert_eq!(on.output.schema(), off.output.schema());
        assert!(!on.output.rows().is_empty(), "test data should join");
        assert!(on.metrics.zone_blocks > 0);
        assert!(
            on.metrics.zone_blocks_pruned >= 1,
            "clustered far blocks must prune: {:?}",
            on.metrics
        );
        assert!(on.metrics.zone_pairs_pruned >= 1);
        assert!(
            on.metrics.zone_rows_pruned > 0
                && on.metrics.map_output_records < off.metrics.map_output_records,
            "row skipping must shrink the shuffle"
        );
        assert!(on.metrics.map_tasks < off.metrics.map_tasks);
        assert!(on.metrics.input_bytes < off.metrics.input_bytes);
        // Skip-off runs record no zone activity at all.
        assert_eq!(off.metrics.zone_blocks, 0);
        assert_eq!(off.metrics.zone_rows_pruned, 0);
    }

    /// Fully disjoint sides under `>` — every pair proven empty, output
    /// empty on both runs.
    #[test]
    fn pair_disjoint_ranges_prune_everything() {
        let l = sorted_rel("l", 4000, 0);
        let r = sorted_rel("r", 4000, 100_000);
        let q = QueryBuilder::new("q")
            .relation(l.schema().clone())
            .relation(r.schema().clone())
            .join("l", "a", ThetaOp::Gt, "r", "a")
            .build()
            .unwrap();
        let dfs = Dfs::new();
        let cfg = ClusterConfig::default();
        dfs.put_relation("L", &l, &cfg);
        dfs.put_relation("R", &r, &cfg);
        let job = pair_job(&q, &l, &r, PairStrategy::OneBucket);
        let inputs = [InputSpec::new("L", 0), InputSpec::new("R", 1)];
        let (on, off) = run_both(&job, &dfs, &inputs, job.reducers());
        assert!(on.output.rows().is_empty());
        assert!(off.output.rows().is_empty());
        assert_eq!(on.metrics.zone_blocks_pruned, on.metrics.zone_blocks);
        assert_eq!(on.metrics.zone_pairs_pruned, on.metrics.zone_pairs);
        assert_eq!(on.metrics.zone_rows_pruned, on.metrics.zone_rows_total);
        assert_eq!(on.metrics.map_output_records, 0);
    }

    /// Three-way chain with a tight far window: pruning fires on the
    /// Hilbert job and output stays bit-identical.
    #[test]
    fn chain_prunes_with_identical_output() {
        let r0 = sorted_rel("r0", 9000, 0);
        let r1 = sorted_rel("r1", 60, 300);
        let r2 = sorted_rel("r2", 60, 320);
        let q = QueryBuilder::new("q")
            .relation(r0.schema().clone())
            .relation(r1.schema().clone())
            .relation(r2.schema().clone())
            .join("r0", "a", ThetaOp::Lt, "r1", "a")
            .join("r1", "a", ThetaOp::Le, "r2", "a")
            .build()
            .unwrap();
        let cards = [r0.len() as u64, r1.len() as u64, r2.len() as u64];
        for strategy in [PartitionStrategy::Hilbert, PartitionStrategy::Grid] {
            let job = ChainThetaJob::new(&q, &[0, 1], &cards, 6, strategy);
            let dfs = Dfs::new();
            let cfg = ClusterConfig::default();
            let rels = [&r0, &r1, &r2];
            let mut inputs = Vec::new();
            for (dim, &qrel) in job.dims().iter().enumerate() {
                let fname = format!("rel{qrel}");
                dfs.put_relation(&fname, rels[qrel], &cfg);
                inputs.push(InputSpec::new(fname, dim as u8));
            }
            let (on, off) = run_both(&job, &dfs, &inputs, job.reducers());
            assert_eq!(on.output.rows(), off.output.rows(), "{strategy:?}");
            assert!(!on.output.rows().is_empty(), "{strategy:?}: should join");
            assert!(
                on.metrics.zone_rows_pruned > 0,
                "{strategy:?}: {:?}",
                on.metrics
            );
            assert!(
                on.metrics.map_output_records < off.metrics.map_output_records,
                "{strategy:?}"
            );
        }
    }

    /// Row-level pruning is exact at the value boundary: rows that
    /// could still match a partner zone survive.
    #[test]
    fn row_pruning_respects_boundaries() {
        let l = sorted_rel("l", 200, 0);
        let r = sorted_rel("r", 5, 100); // a ∈ [100, 104]
        let q = lt_query(&l, &r);
        let dfs = Dfs::new();
        let cfg = ClusterConfig::default();
        dfs.put_relation("L", &l, &cfg);
        dfs.put_relation("R", &r, &cfg);
        let job = pair_job(&q, &l, &r, PairStrategy::Broadcast { replicated: 1 });
        let inputs = [InputSpec::new("L", 0), InputSpec::new("R", 1)];
        let (on, off) = run_both(&job, &dfs, &inputs, job.reducers());
        assert_eq!(on.output.rows(), off.output.rows());
        // l.a < r.a with r.a ≤ 104: exactly left rows a ∈ [0, 103]
        // survive (104 cannot beat the max), plus all 5 right rows.
        assert_eq!(
            on.metrics.zone_rows_total - on.metrics.zone_rows_pruned,
            104 + 5,
        );
    }
}
