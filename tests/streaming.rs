//! Streaming-pipeline integration: streamed row batches must be
//! bit-identical to the materialised `Relation` for every method ×
//! partition strategy, with unchanged simulated cost metrics (Eq. 2–4);
//! peak resident rows on the streaming path must stay bounded by
//! batch size × channel depth; dropping a stream mid-way must release
//! the admission ticket and leave the DFS and catalog at their
//! baseline; and a live stream keeps the data it bound across a reload.

use mwtj_core::{assert_quiescent, Engine, Method, Outcome, RunOptions, StreamOptions};
use mwtj_hilbert::PartitionStrategy;
use mwtj_query::{MultiwayQuery, QueryBuilder, ThetaOp};
use mwtj_storage::{tuple, DataType, Relation, Schema};
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

/// Engine with a three-way chain query (inequality + equality edges,
/// so plans exercise chain MRJs, merges and cascades).
fn three_way_engine(k_p: u32) -> (Engine, MultiwayQuery) {
    let engine = Engine::with_units(k_p);
    let r = rel("r", 70, 11, 24);
    let s = rel("s", 60, 12, 24);
    let t = rel("t", 50, 13, 24);
    let _ = engine.load_relation(&r);
    let _ = engine.load_relation(&s);
    let _ = engine.load_relation(&t);
    let q = QueryBuilder::new("q3")
        .relation(r.schema().clone())
        .relation(s.schema().clone())
        .relation(t.schema().clone())
        .join("r", "a", ThetaOp::Lt, "s", "a")
        .join("s", "b", ThetaOp::Eq, "t", "b")
        .build()
        .unwrap();
    (engine, q)
}

/// The acceptance bar: for **every** method × partition strategy, the
/// concatenated streamed batches equal `Engine::run`'s output
/// row-for-row (same order, same values) and the simulated cost
/// metrics are bit-identical — streaming changes delivery, never the
/// answer or the priced plan.
#[test]
fn streamed_equals_materialised_for_all_methods_and_strategies() {
    for method in Method::ALL {
        for strategy in [PartitionStrategy::Hilbert, PartitionStrategy::Grid] {
            let opts = RunOptions::new().method(method).partition(strategy);
            let (engine, q) = three_way_engine(16);
            let run = engine.run(&q, &opts).unwrap();
            let stream = engine
                .run_streamed(&q, &opts, &StreamOptions::new().batch_rows(17))
                .unwrap();
            assert_eq!(
                stream.schema(),
                run.output.schema(),
                "{method} {strategy:?}: schema-first frame must match"
            );
            let (rel, end) = stream.collect_rows().unwrap();
            assert_eq!(
                rel.rows(),
                run.output.rows(),
                "{method} {strategy:?}: streamed rows must be bit-identical, in order"
            );
            assert_eq!(
                end.sim_secs, run.sim_secs,
                "{method} {strategy:?}: simulated makespan must be unchanged"
            );
            assert_eq!(
                end.predicted_secs, run.predicted_secs,
                "{method} {strategy:?}: prediction must be unchanged"
            );
            assert_eq!(end.jobs.len(), run.jobs.len());
            for (a, b) in end.jobs.iter().zip(&run.jobs) {
                assert_eq!(a.name, b.name, "{method} {strategy:?}");
                assert_eq!(
                    a.sim_total_secs, b.sim_total_secs,
                    "{method} {strategy:?} job {}: per-job sim clock drifted",
                    a.name
                );
                assert_eq!(a.output_bytes, b.output_bytes, "{method} {strategy:?}");
                assert_eq!(a.reduce_candidates, b.reduce_candidates);
            }
            assert_eq!(end.rows as usize, run.output.len());
        }
    }
}

/// SQL end-to-end: streamed and materialised SQL runs agree row for
/// row (two invocations of one text bind the same files under the same
/// aliases, so their map tasks seed identically), the query's own
/// aliases appear on the schema, and nothing is left behind.
#[test]
fn streamed_sql_matches_run_sql_and_leaves_nothing_behind() {
    let (engine, _) = three_way_engine(8);
    let baseline = engine.quiescence();
    let sql = "SELECT x.a, y.b FROM r x, s y WHERE x.a <= y.a";
    let run = engine.run_sql(sql).unwrap();
    let stream = engine
        .run_sql_streamed(
            "sqlstream",
            sql,
            &RunOptions::default(),
            &StreamOptions::new().batch_rows(9),
        )
        .unwrap();
    assert_eq!(stream.schema().fields()[0].name, "x.a");
    let (rel, end) = stream.collect_rows().unwrap();
    assert_eq!(rel.rows(), run.output.rows());
    assert_eq!(end.sim_secs, run.sim_secs);
    assert_quiescent(&engine, &baseline);
}

/// Nothing per-query is visible while a SQL run is in flight, and the
/// run keeps the snapshot it bound: mid-stream the DFS and the catalog
/// are exactly at their pre-query state; reloading the base under the
/// open stream changes neither the stream's remaining rows nor, of
/// course, what a fresh query sees afterwards.
#[test]
fn open_stream_is_invisible_and_survives_a_reload_of_its_base() {
    use mwtj_join::oracle::canonicalize;
    let big = |n: i64, k: i64| {
        Relation::from_rows_unchecked(
            Schema::from_pairs("big", &[("a", DataType::Int), ("b", DataType::Int)]),
            (0..n).map(|i| tuple![i, i * k]).collect(),
        )
    };
    // `a` is unique, so the self-join pairs every row with itself.
    let oracle = |n: i64, k: i64| canonicalize((0..n).map(|i| tuple![i, i * k, i * k]).collect());
    let engine = Engine::with_units(8);
    let _ = engine.load_relation(&big(20_000, 3));
    let baseline = engine.quiescence();
    let epoch = engine.stats_epoch();
    let sql = "SELECT x.a, x.b, y.b FROM big x, big y WHERE x.a = y.a";
    let mut stream = engine
        .run_sql_streamed(
            "mid",
            sql,
            &RunOptions::default(),
            &StreamOptions::new().batch_rows(64),
        )
        .unwrap();
    let mut rows = stream.next_batch().unwrap().expect("first batch").rows;
    // The worker is blocked on the bounded channel with ~2e4 rows to go.
    assert!(engine.scheduler().stats().in_flight_units > 0);
    assert_eq!(engine.quiescence(), baseline, "a run in flight is visible");

    let _ = engine.load_relation(&big(10_000, 5));
    assert!(engine.stats_epoch() > epoch);
    while let Some(batch) = stream.next_batch().unwrap() {
        rows.extend(batch.rows);
    }
    assert_eq!(canonicalize(rows), oracle(20_000, 3), "pre-reload snapshot");
    let fresh = engine.run_sql(sql).unwrap();
    assert_eq!(canonicalize(fresh.output.into_rows()), oracle(10_000, 5));
    // Only the reload moved the catalog (same file, fewer rows).
    assert_eq!(engine.cluster().dfs().list(), vec!["big".to_string()]);
    assert_eq!(engine.loaded_instances(), vec![("big".to_string(), 10_000)]);
    assert_eq!(engine.scheduler().stats().in_flight_units, 0);
}

/// The bounded-memory acceptance bar: a dense (cross-product-heavy)
/// output streams through a small batch × shallow channel without the
/// resident row count ever exceeding batch × (depth + 2) — one batch
/// queued per channel slot, one blocked in `send`, one with the
/// consumer.
#[test]
fn peak_resident_rows_bounded_by_batch_times_depth() {
    let engine = Engine::with_units(8);
    let l = rel("l", 160, 21, 12);
    let r = rel("r", 150, 22, 12);
    let _ = engine.load_relation(&l);
    let _ = engine.load_relation(&r);
    // Dense: ~50% of the 24k cross product survives `<=`.
    let q = QueryBuilder::new("dense")
        .relation(l.schema().clone())
        .relation(r.schema().clone())
        .join("l", "a", ThetaOp::Le, "r", "a")
        .build()
        .unwrap();
    let (batch_rows, depth) = (16usize, 2usize);
    let mut stream = engine
        .run_streamed(
            &q,
            &RunOptions::default(),
            &StreamOptions::new()
                .batch_rows(batch_rows)
                .channel_depth(depth),
        )
        .unwrap();
    let mut rows = 0u64;
    let mut batches = 0u64;
    while let Some(batch) = stream.next_batch().unwrap() {
        assert!(batch.rows.len() <= batch_rows);
        rows += batch.rows.len() as u64;
        batches += 1;
    }
    let end = stream.end().unwrap();
    assert_eq!(end.rows, rows);
    assert_eq!(end.batches, batches);
    assert!(
        rows > 8_000,
        "dense query should produce a large output, got {rows}"
    );
    assert!(batches > 100, "expected many small batches, got {batches}");
    let bound = batch_rows * (depth + 2);
    assert!(
        stream.peak_resident_rows() <= bound,
        "peak resident rows {} exceeded bound {bound}",
        stream.peak_resident_rows()
    );
}

/// Dropping a stream mid-way must cancel the run: admission units
/// return to the budget, `__run` intermediates disappear, and the DFS
/// and catalog are back at their baseline.
#[test]
fn drop_mid_stream_releases_ticket_and_cleans_up() {
    let engine = Engine::with_units(8);
    let l = rel("l", 200, 31, 10);
    let r = rel("r", 200, 32, 10);
    let _ = engine.load_relation(&l);
    let _ = engine.load_relation(&r);
    let baseline = engine.quiescence();
    let sql = "SELECT x.a, y.b FROM l x, r y WHERE x.a <= y.a";
    let mut stream = engine
        .run_sql_streamed(
            "drops",
            sql,
            &RunOptions::default(),
            &StreamOptions::new().batch_rows(1).channel_depth(1),
        )
        .unwrap();
    assert!(stream.next_batch().unwrap().is_some(), "first batch");
    drop(stream); // joins the worker — cancellation is deterministic
    assert_quiescent(&engine, &baseline);
    // It was a kill, not a run that had already finished: the depth-1
    // channel held the reducer back with ~20 000 rows still to emit,
    // however fast it finds them.
    let flights = engine.flight_recorder().all();
    assert_eq!(flights.last().map(|f| f.outcome), Some(Outcome::Cancelled));
    // The engine still serves queries normally afterwards.
    let again = engine.run_sql(sql).unwrap();
    assert!(!again.output.is_empty());
}

/// Streams queue through admission like any run: a stream holds its
/// units until drained, and a second query admitted meanwhile sees the
/// shared budget shrink.
#[test]
fn stream_holds_admission_units_until_drained() {
    let (engine, q) = three_way_engine(8);
    let mut stream = engine
        .run_streamed(
            &q,
            &RunOptions::default(),
            &StreamOptions::new().batch_rows(1).channel_depth(1),
        )
        .unwrap();
    // The worker is blocked on the full channel mid-run: its
    // reservation is still in flight.
    assert!(stream.next_batch().unwrap().is_some());
    assert!(
        engine.scheduler().stats().in_flight_units > 0,
        "stream must hold its units while batches remain"
    );
    while stream.next_batch().unwrap().is_some() {}
    assert_eq!(engine.scheduler().stats().in_flight_units, 0);
}
