//! SQL front-end integration: a SQL string round-trips
//! parse → plan → execute and agrees with the oracle, and every error
//! path is a typed error rather than a panic.

use mwtj_core::{assert_quiescent, Engine, EngineError, Method, RunOptions};
use mwtj_datagen::MobileGen;
use mwtj_join::oracle::canonicalize;
use mwtj_storage::Error as StorageError;

fn engine_with_calls(rows: usize) -> Engine {
    let gen = MobileGen {
        users: 150,
        base_stations: 25,
        days: 8,
        ..Default::default()
    };
    let engine = Engine::with_units(16);
    let _ = engine.load_relation(&gen.generate("calls", rows));
    engine
}

/// The paper's Q1 as SQL: parse → auto-alias → plan → execute on every
/// method, all agreeing with the single-threaded oracle.
#[test]
fn sql_round_trips_to_oracle_agreement() {
    let engine = engine_with_calls(150);
    let sql = "SELECT t3.id FROM calls t1, calls t2, calls t3 \
               WHERE t1.bt <= t2.bt AND t1.l >= t2.l \
               AND t2.bsc = t3.bsc AND t2.d = t3.d";
    let parsed = engine.parse_sql("Q1", sql).expect("parses");
    assert_eq!(
        parsed.instances,
        vec![
            ("t1".to_string(), "calls".to_string()),
            ("t2".to_string(), "calls".to_string()),
            ("t3".to_string(), "calls".to_string()),
        ]
    );

    // run_sql binds t1/t2/t3 for the run only; for the oracle we
    // register the instances explicitly.
    let first = engine.run_sql(sql).expect("executes end to end");
    for inst in ["t1", "t2", "t3"] {
        let _ = engine.load_alias_of("calls", inst).expect("alias");
    }
    let want = canonicalize(engine.oracle(&parsed.query).expect("oracle"));
    assert_eq!(canonicalize(first.output.into_rows()), want);
    assert!(!want.is_empty(), "query should produce rows at this scale");

    for m in Method::ALL {
        let run = engine
            .run_sql_with("Q1", sql, &RunOptions::from(m))
            .expect("executes");
        assert_eq!(canonicalize(run.output.into_rows()), want, "{m}");
    }
}

/// SQL aliases are bound per query, never registered: nothing enters
/// the shared catalog or the DFS, and explicitly-registered aliases
/// still share storage.
#[test]
fn sql_aliases_are_transient_and_explicit_aliases_share_rows() {
    let engine = engine_with_calls(80);
    let baseline = engine.quiescence();
    engine
        .run_sql("SELECT t1.id FROM calls t1, calls t2 WHERE t1.d = t2.d AND t1.bt < t2.bt")
        .expect("runs");
    assert_quiescent(&engine, &baseline);
    // The explicit registration path still shares rows with the base.
    let base = engine.relation("calls").expect("loaded");
    let _ = engine.load_alias_of("calls", "t9").expect("alias");
    let alias = engine.relation("t9").expect("registered");
    assert!(std::ptr::eq(base.rows().as_ptr(), alias.rows().as_ptr()));
}

#[test]
fn unknown_base_relation_is_typed_error() {
    let engine = engine_with_calls(30);
    let err = engine
        .run_sql("SELECT t1.id FROM nope t1, calls t2 WHERE t1.d = t2.d")
        .unwrap_err();
    match err {
        EngineError::Sql(StorageError::UnknownRelation { name }) => assert_eq!(name, "nope"),
        other => panic!("expected UnknownRelation, got {other:?}"),
    }
}

#[test]
fn unknown_column_is_typed_error() {
    let engine = engine_with_calls(30);
    let err = engine
        .run_sql("SELECT t1.id FROM calls t1, calls t2 WHERE t1.zz = t2.d")
        .unwrap_err();
    match err {
        EngineError::Sql(StorageError::UnknownColumn { column, .. }) => assert_eq!(column, "zz"),
        other => panic!("expected UnknownColumn, got {other:?}"),
    }
}

#[test]
fn bad_operator_is_typed_error() {
    let engine = engine_with_calls(30);
    for sql in [
        "SELECT t1.id FROM calls t1, calls t2 WHERE t1.d ?? t2.d",
        "SELECT t1.id FROM calls t1, calls t2 WHERE t1.d ! t2.d",
    ] {
        match engine.run_sql(sql) {
            Err(EngineError::Sql(_)) => {}
            other => panic!("`{sql}` should be a SQL error, got {other:?}"),
        }
    }
}

#[test]
fn empty_projection_is_typed_error() {
    let engine = engine_with_calls(30);
    let err = engine
        .run_sql("SELECT FROM calls t1, calls t2 WHERE t1.d = t2.d")
        .unwrap_err();
    assert!(
        matches!(err, EngineError::Sql(_)),
        "empty projection should be a SQL error, got {err:?}"
    );
}

/// Per-query alias bindings: the same alias bound to *different*
/// bases in consecutive (or concurrent) queries is not a
/// conflict — each query reads its own base's data. The engine-global
/// conflict check still guards explicit registrations.
#[test]
fn alias_rebinding_across_queries_reads_each_querys_own_base() {
    let gen = MobileGen {
        users: 100,
        base_stations: 20,
        days: 6,
        ..Default::default()
    };
    let engine = Engine::with_units(8);
    let _ = engine.load_relation(&gen.generate("calls", 60));
    let _ = engine.load_relation(&gen.generate("texts", 40));
    let on_calls = engine
        .run_sql("SELECT a.id FROM calls a, calls b WHERE a.d = b.d AND a.bt < b.bt")
        .expect("first binding runs");
    // The same alias `a` over a different base now simply works …
    let on_texts = engine
        .run_sql("SELECT a.id FROM texts a, texts b WHERE a.d = b.d AND a.bt < b.bt")
        .expect("rebinding in a fresh query runs");
    // … and each run saw its own base (the bases have different sizes,
    // so identical outputs would be a wrong-data smoking gun).
    assert_eq!(on_calls.output.schema().fields()[0].name, "a.id");
    assert_eq!(on_texts.output.schema().fields()[0].name, "a.id");
    // Explicit engine-global registration still refuses to rebind.
    let _ = engine.load_alias_of("calls", "a").expect("first bind");
    match engine.load_alias_of("texts", "a") {
        Err(EngineError::AliasConflict {
            alias,
            bound_to,
            requested,
        }) => {
            assert_eq!(alias, "a");
            assert_eq!(bound_to, "calls");
            assert_eq!(requested, "texts");
        }
        other => panic!("expected AliasConflict, got {other:?}"),
    }
    // The original binding still serves, identically.
    let again = engine
        .run_sql("SELECT a.id FROM calls a, calls b WHERE a.d = b.d AND a.bt < b.bt")
        .expect("original binding still runs");
    assert_eq!(again.output.len(), on_calls.output.len());
}

/// A concurrent SQL batch binds every query's aliases for that query
/// alone (regression: parsed-but-never-run aliases used to 404) and
/// isolates parse failures to their slot.
#[test]
fn run_sql_many_binds_aliases_and_isolates_failures() {
    let engine = engine_with_calls(100);
    let baseline = engine.quiescence();
    let sqls = [
        "SELECT t1.id FROM calls t1, calls t2 WHERE t1.bt < t2.bt AND t1.bsc = t2.bsc",
        "SELECT * FROM calls a, calls b WHERE a.bsc = b.bsc AND a.bt <= b.bt",
        "SELECT x.id FROM nope x, calls y WHERE x.d = y.d",
        "SELECT u.id FROM calls u, calls v WHERE u.d = v.d",
    ];
    let results = engine.run_sql_many(&sqls, &RunOptions::default());
    assert_eq!(results.len(), 4);
    assert!(results[0].is_ok(), "{:?}", results[0]);
    assert!(results[1].is_ok(), "{:?}", results[1]);
    assert!(
        matches!(
            &results[2],
            Err(EngineError::Sql(StorageError::UnknownRelation { name })) if name == "nope"
        ),
        "{:?}",
        results[2]
    );
    assert!(results[3].is_ok(), "{:?}", results[3]);
    // Batch aliases are transient: the shared catalog stays clean.
    assert_quiescent(&engine, &baseline);
}

#[test]
fn malformed_sql_never_panics() {
    let engine = engine_with_calls(20);
    for sql in [
        "",
        "SELECT",
        "SELECT * FROM",
        "SELECT * FROM calls a",
        "SELECT * FROM calls a, calls b",
        "SELECT * FROM calls a, calls b WHERE",
        "SELECT * FROM calls a, calls b WHERE a.d < b.d garbage",
        "WHERE a.d < b.d",
        "SELECT * FROM calls a, calls b WHERE a.d < a.d", // same relation
    ] {
        assert!(engine.run_sql(sql).is_err(), "`{sql}` must error");
    }
}
