//! Load-balance tests: the Hilbert partition's claim (§5.1) is that
//! reducer workload stays balanced *regardless of the key
//! distribution*, because components partition the cross-product
//! space, not the key domain. Hash partitioning, by contrast, sends
//! every copy of a hot key to one reducer.

use mwtj_datagen::SyntheticGen;
use mwtj_hilbert::PartitionStrategy;
use mwtj_join::{ChainThetaJob, IntermediateShape, PairJob, PairStrategy};
use mwtj_mapreduce::{ClusterConfig, Dfs, Engine, InputSpec, JobMetrics};
use mwtj_query::{QueryBuilder, ThetaOp};
use mwtj_storage::{Relation, Schema};

/// One heavily skewed relation: 40% of rows share key 0.
fn skewed() -> Relation {
    SyntheticGen::default().skewed_keys("s", 1_500, 200, 0.35)
}

fn query(rel: &Relation) -> mwtj_query::MultiwayQuery {
    let l = Schema::new("l", rel.schema().fields().to_vec());
    let r = Schema::new("r", rel.schema().fields().to_vec());
    QueryBuilder::new("skewq")
        .relation(l)
        .relation(r)
        .join("l", "k", ThetaOp::Eq, "r", "k")
        .build()
        .expect("query")
}

fn run_hash(rel: &Relation, reducers: u32) -> JobMetrics {
    let cfg = ClusterConfig::with_units(32);
    let dfs = Dfs::new();
    dfs.put_relation("s", rel, &cfg);
    let q = query(rel);
    let compiled = q.compile().expect("compiles");
    let preds: Vec<_> = compiled
        .per_condition
        .iter()
        .flat_map(|c| c.iter().copied())
        .collect();
    let job = PairJob::new(
        "hash_skew",
        &q,
        IntermediateShape::base(&q, 0),
        IntermediateShape::base(&q, 1),
        preds,
        PairStrategy::EquiHash,
        reducers,
    );
    let engine = Engine::new(cfg, dfs);
    engine
        .run(
            &job,
            &[InputSpec::new("s", 0), InputSpec::new("s", 1)],
            32,
            job.reducers(),
            None,
        )
        .metrics
}

fn run_hilbert(rel: &Relation, reducers: u32) -> JobMetrics {
    let cfg = ClusterConfig::with_units(32);
    let dfs = Dfs::new();
    dfs.put_relation("s", rel, &cfg);
    let q = query(rel);
    let job = ChainThetaJob::new(
        &q,
        &[0],
        &[rel.len() as u64, rel.len() as u64],
        reducers,
        PartitionStrategy::Hilbert,
    );
    let engine = Engine::new(cfg, dfs);
    engine
        .run(
            &job,
            &[InputSpec::new("s", 0), InputSpec::new("s", 1)],
            32,
            job.reducers(),
            None,
        )
        .metrics
}

/// The Hilbert partition's reducer *input* skew must stay near 1 even
/// under a 40%-hot key, while hash partitioning concentrates the hot
/// key on one reducer.
#[test]
fn hilbert_input_skew_is_bounded_under_hot_keys() {
    let rel = skewed();
    let hilbert = run_hilbert(&rel, 16);
    let hash = run_hash(&rel, 16);
    assert!(
        hilbert.skew() < 2.0,
        "hilbert reducer-input skew {:.2} should be near 1",
        hilbert.skew()
    );
    assert!(
        hash.skew() > hilbert.skew(),
        "hash skew {:.2} should exceed hilbert skew {:.2}",
        hash.skew(),
        hilbert.skew()
    );
}

/// Both produce the same (exact) join result despite the skew.
#[test]
fn skewed_results_agree() {
    let rel = skewed();
    let hilbert = run_hilbert(&rel, 12);
    let hash = run_hash(&rel, 12);
    assert_eq!(hilbert.output_records, hash.output_records);
    assert!(hilbert.output_records > 0);
}

/// The price of balance: Hilbert replicates tuples (√k_R per side)
/// where hash sends one copy — the paper's copy-volume/balance
/// trade-off, visible in the metrics.
#[test]
fn hilbert_pays_replication_for_balance() {
    let rel = skewed();
    let hilbert = run_hilbert(&rel, 16);
    let hash = run_hash(&rel, 16);
    assert!(
        hilbert.map_output_records > hash.map_output_records,
        "hilbert {} copies should exceed hash {} copies",
        hilbert.map_output_records,
        hash.map_output_records
    );
    // But bounded by the √k_R closed form (+ slack for segment raggedness).
    let bound = (16.0f64).sqrt() * 1.8 * hash.map_output_records as f64;
    assert!(
        (hilbert.map_output_records as f64) < bound,
        "{} copies exceeds √k_R bound {}",
        hilbert.map_output_records,
        bound
    );
}
