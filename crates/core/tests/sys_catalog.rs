//! End-to-end contract of the `sys.*` introspection catalog.
//!
//! * `sys.queries` / `sys.jobs` answer plain theta-join SQL and carry
//!   the trace ids of real prior runs.
//! * A theta join **between two sys relations** works unchanged.
//! * Introspection answers while the unit budget is fully committed
//!   (admission-exempt zero-unit tickets) and is never plan-cached.
//! * The flight recorder is observation-only: capacity 0 vs default
//!   is **bit-identical** on results, plans and simulated metrics for
//!   all five methods × three partition strategies.
//! * Failed admissions and deadline kills appear with distinct
//!   `outcome` values and charge `mwtj_query_outcomes_total`.

use mwtj_core::scheduler::AdmissionPolicy;
use mwtj_core::{assert_quiescent, Engine, Method, MetricValue, QueryRun, RunOptions};
use mwtj_hilbert::PartitionStrategy;
use mwtj_storage::{tuple, DataType, Relation, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Identically-seeded engine: two builds are bit-identical.
fn seeded_engine(units: u32) -> Engine {
    let engine = Engine::with_units(units);
    let mut rng = StdRng::seed_from_u64(0x515);
    for (name, n, domain) in [("r", 80usize, 25i64), ("s", 60, 25)] {
        let schema = Schema::from_pairs(name, &[("a", DataType::Int), ("b", DataType::Int)]);
        let rows = (0..n)
            .map(|_| tuple![rng.gen_range(0..domain), rng.gen_range(0..domain)])
            .collect();
        let _ = engine.load_relation(&Relation::from_rows_unchecked(schema, rows));
    }
    engine
}

const Q: &str = "SELECT x.a, y.b FROM r x, s y WHERE x.a <= y.a";

/// Column values of `col` across all output rows.
fn column(run: &QueryRun, col: &str) -> Vec<Value> {
    let idx = run.output.schema().index_of(col).unwrap();
    run.output
        .rows()
        .iter()
        .map(|t| t.values()[idx].clone())
        .collect()
}

#[test]
fn sys_queries_records_runs_and_answers_sql() {
    let engine = seeded_engine(8);
    let first = engine.run_sql(Q).unwrap();
    assert_ne!(first.trace_id, 0);

    // Theta join between two sys relations, through the ordinary SQL
    // path: every recorded run's granted slice fits the budget.
    let sys = engine
        .run_sql(
            "SELECT q.trace_id, q.outcome, s.budget FROM sys.queries q, sys.scheduler s \
             WHERE q.granted_units <= s.budget",
        )
        .unwrap();
    let traces = column(&sys, "q.trace_id");
    assert!(
        traces.contains(&Value::Int(first.trace_id as i64)),
        "first run's trace id missing from sys.queries: {traces:?}"
    );
    assert!(column(&sys, "q.outcome").contains(&Value::from("ok")));

    // sys.jobs carries the per-MRJ breakdown, joinable back to
    // sys.queries on trace_id.
    let jobs = engine
        .run_sql(
            "SELECT q.trace_id, j.job FROM sys.queries q, sys.jobs j \
             WHERE q.trace_id = j.trace_id",
        )
        .unwrap();
    assert!(
        column(&jobs, "q.trace_id").contains(&Value::Int(first.trace_id as i64)),
        "first run has no sys.jobs rows"
    );

    // The recorder itself agrees with what SQL sees.
    let recorder = engine.flight_recorder();
    assert!(recorder.all().iter().any(|r| r.trace_id == first.trace_id));
}

#[test]
fn sys_metrics_and_relations_answer_sql() {
    let engine = seeded_engine(8);
    let baseline = engine.quiescence();
    engine.run_sql(Q).unwrap();

    let metrics = engine
        .run_sql(
            "SELECT m.name, m.value FROM sys.metrics m, sys.scheduler s \
             WHERE m.count >= s.queued_now",
        )
        .unwrap();
    let names: Vec<String> = column(&metrics, "m.name")
        .iter()
        .map(|v| format!("{v:?}"))
        .collect();
    assert!(
        names.iter().any(|n| n.contains("mwtj_queries_total")),
        "registry series missing from sys.metrics: {names:?}"
    );

    let rels = engine
        .run_sql(
            "SELECT a.name, b.name FROM sys.relations a, sys.relations b \
             WHERE a.rows < b.rows",
        )
        .unwrap();
    // Exactly the loaded instances are listed — r (80 rows) and s (60
    // rows), so the one pair with fewer rows on the left is (s, r) —
    // and this query's own sys snapshots are not among them.
    assert_eq!(column(&rels, "a.name"), vec![Value::from("s")]);
    assert_eq!(column(&rels, "b.name"), vec![Value::from("r")]);
    assert_quiescent(&engine, &baseline);
}

/// `sys.*` snapshots are bound to their query, never registered as
/// relations: a sys query publishes no per-relation storage gauge, so
/// the metrics registry does not grow with the number of sys queries.
#[test]
fn sys_queries_do_not_leak_metric_series() {
    let engine = seeded_engine(8);
    let sql = "SELECT a.trace_id FROM sys.queries a, sys.queries b \
               WHERE a.trace_id <= b.trace_id";
    let mut series_after = Vec::new();
    for _ in 0..6 {
        engine.run_sql(sql).unwrap();
        series_after.push(engine.metrics().series().len());
    }
    assert_eq!(
        series_after[1], series_after[5],
        "series grew with the number of sys queries: {series_after:?}"
    );
    // Every `relation` label names a loaded instance, never a query's.
    for (name, _) in engine.metrics().series() {
        if let Some((_, label)) = name.split_once("relation=") {
            assert!(
                ["r", "s"].contains(&label.trim_matches(|c| c == '"' || c == '}')),
                "storage gauge for a per-query instance: {name}"
            );
        }
    }
}

#[test]
fn sys_answers_while_budget_is_exhausted() {
    let engine = seeded_engine(4);
    engine.run_sql(Q).unwrap();
    // Hold the entire unit budget.
    let _hog = engine.scheduler().admit(4).unwrap();
    assert_eq!(engine.scheduler().stats().in_flight_units, 4);

    // Introspection still answers — exempt zero-unit ticket.
    let sys = engine
        .run_sql(
            "SELECT q.trace_id, s.in_flight_units FROM sys.queries q, sys.scheduler s \
             WHERE q.granted_units <= s.budget",
        )
        .unwrap();
    assert!(!sys.output.rows().is_empty());
    // The snapshot itself saw the exhausted scheduler.
    assert!(column(&sys, "s.in_flight_units").contains(&Value::Int(4)));
    // And the sys run never consumed admission budget: its exempt
    // ticket held zero units, so in-flight never moved.
    assert_eq!(engine.scheduler().stats().in_flight_units, 4);
    let sys_record = engine
        .flight_recorder()
        .all()
        .into_iter()
        .find(|r| r.trace_id == sys.trace_id)
        .expect("sys run is itself recorded");
    assert_eq!(sys_record.granted_units, 0);
    assert_eq!(sys_record.requested_units, 0);
}

#[test]
fn sys_queries_are_never_plan_cached() {
    let engine = seeded_engine(8);
    engine.run_sql(Q).unwrap();
    let entries_before = engine.stats_snapshot().plan_cache.entries;

    let sys_sql = "SELECT q.trace_id FROM sys.queries q, sys.scheduler s \
                   WHERE q.granted_units <= s.budget";
    engine.run_sql(sys_sql).unwrap();
    engine.run_sql(sys_sql).unwrap();
    let stats = engine.stats_snapshot().plan_cache;
    assert_eq!(
        stats.entries, entries_before,
        "a sys query must not populate the plan cache"
    );

    // EXPLAIN agrees: no cache verdict for sys queries, ever.
    let report = engine
        .explain_sql("e", &format!("EXPLAIN {sys_sql}"), &RunOptions::default())
        .unwrap();
    assert_eq!(report.cache_hit, None);
    assert_eq!(report.requested_units, 0, "sys admission requests nothing");
}

#[test]
fn empty_recorder_still_answers_with_zero_rows() {
    let engine = seeded_engine(8);
    // No prior runs: sys.queries is empty but must not error.
    let sys = engine
        .run_sql(
            "SELECT q.trace_id FROM sys.queries q, sys.scheduler s \
             WHERE q.granted_units <= s.budget",
        )
        .unwrap();
    assert_eq!(sys.output.len(), 0);
}

/// The observation-only differential: a disabled recorder (capacity 0)
/// and the default ring must produce bit-identical rows, plans and
/// simulated metrics for every method × partition strategy.
#[test]
fn recorder_capacity_zero_vs_default_is_bit_identical() {
    let recording = seeded_engine(8);
    let disabled = seeded_engine(8);
    disabled.set_flight_capacity(0);
    assert!(!disabled.flight_recorder().is_enabled());

    let strategies = [
        PartitionStrategy::Hilbert,
        PartitionStrategy::Grid,
        PartitionStrategy::ZOrder,
    ];
    for method in Method::ALL {
        for strategy in strategies {
            let opts = RunOptions::from(method).partition(strategy);
            let a = recording
                .run_sql_with("diff", Q, &opts)
                .unwrap_or_else(|e| panic!("{method:?}/{strategy:?} recording: {e}"));
            let b = disabled
                .run_sql_with("diff", Q, &opts)
                .unwrap_or_else(|e| panic!("{method:?}/{strategy:?} disabled: {e}"));
            let rows = |r: &QueryRun| {
                let mut rows: Vec<String> =
                    r.output.rows().iter().map(|t| format!("{t:?}")).collect();
                rows.sort();
                rows
            };
            assert_eq!(rows(&a), rows(&b), "{method:?}/{strategy:?} rows");
            assert_eq!(a.plan, b.plan, "{method:?}/{strategy:?} plan");
            assert_eq!(
                a.sim_secs.to_bits(),
                b.sim_secs.to_bits(),
                "{method:?}/{strategy:?} sim clock"
            );
            assert_eq!(
                a.predicted_secs.to_bits(),
                b.predicted_secs.to_bits(),
                "{method:?}/{strategy:?} prediction"
            );
            assert_eq!(a.granted_units, b.granted_units);
        }
    }
    // The recording engine kept every run; the disabled one kept none.
    assert_eq!(
        recording.flight_recorder().len(),
        Method::ALL.len() * strategies.len()
    );
    assert_eq!(disabled.flight_recorder().len(), 0);
    assert_eq!(
        disabled.flight_recorder().total_recorded(),
        0,
        "capacity 0 must not even count"
    );
}

#[test]
fn refused_and_killed_runs_get_distinct_outcomes() {
    // Queue bounded at 0: once the budget is held, new arrivals shed.
    let engine = Engine::with_units_and_policy(
        4,
        AdmissionPolicy {
            degrade_floor: 1.0,
            max_queue: Some(0),
        },
    );
    let mut rng = StdRng::seed_from_u64(0x515);
    for name in ["r", "s"] {
        let schema = Schema::from_pairs(name, &[("a", DataType::Int)]);
        let rows = (0..40).map(|_| tuple![rng.gen_range(0..20i64)]).collect();
        let _ = engine.load_relation(&Relation::from_rows_unchecked(schema, rows));
    }
    let q = "SELECT x.a FROM r x, s y WHERE x.a <= y.a";

    // Deadline already expired before admission → `deadline` outcome.
    let err = engine
        .run_sql_with("dl", q, &RunOptions::default().deadline_ms(0))
        .unwrap_err();
    assert!(format!("{err}").contains("deadline"), "{err}");

    // Budget held + zero queue → `shed` outcome.
    let hog = engine.scheduler().admit(4).unwrap();
    let err = engine.run_sql(q).unwrap_err();
    drop(hog);
    assert!(format!("{err}").to_lowercase().contains("queue"), "{err}");

    let outcomes: Vec<String> = engine
        .flight_recorder()
        .all()
        .iter()
        .map(|r| r.outcome.to_string())
        .collect();
    assert!(outcomes.contains(&"deadline".to_string()), "{outcomes:?}");
    assert!(outcomes.contains(&"shed".to_string()), "{outcomes:?}");

    // Both charged the per-outcome counter.
    for outcome in ["deadline", "shed"] {
        let key = format!("mwtj_query_outcomes_total{{outcome={outcome}}}");
        let found = engine
            .metrics()
            .series()
            .into_iter()
            .find(|(name, _)| *name == key);
        match found {
            Some((_, MetricValue::Counter(n))) => assert!(n >= 1, "{key} = {n}"),
            other => panic!("missing counter {key}: {other:?}"),
        }
    }
}
