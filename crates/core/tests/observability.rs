//! Observability is observation-only — enforced differentially.
//!
//! * Tracing on vs off: rows, schema, plan choice and every simulated
//!   Eq. 2–4 metric are **bit-identical** across all five methods and
//!   all three partition strategies; only the profile tree appears or
//!   disappears.
//! * Fault/retry/shed counters are monotone across [`Engine::run_many`]
//!   batches — never reset, never decremented.
//! * `skip_fraction()` stays in `[0, 1]` under proptest-random band
//!   widths with zone-map skipping on.
//! * The profile tree carries the lifecycle stages with host-clock
//!   widths down to each job's phases, and the engine's metrics
//!   registry fills from real runs.
//! * `examined` says which reducer path ran: below the priced
//!   `candidates` on a tight band chain, equal to it on a `<>`-only
//!   chain, above it on a hash join whose one-key groups emit every pair
//!   they price — in `EXPLAIN ANALYZE`, `sys.jobs` and the metrics
//!   series; `elided` says a chain job counted dead rows instead of
//!   shipping them, and a pair job never does.
//! * Every counter has one home, so the doors agree: `stats_snapshot`
//!   (the `stats`/`status` replies), the `metrics` exposition and
//!   `sys.metrics`/`sys.scheduler` report the same values after any
//!   workload — cancels, deadline kills, sheds, unloads included.

use mwtj_core::scheduler::AdmissionPolicy;
use mwtj_core::{Engine, Method, QueryRun, RunOptions, StreamOptions, Ticket};
use mwtj_hilbert::PartitionStrategy;
use mwtj_mapreduce::FaultPlan;
use mwtj_storage::{tuple, DataType, Relation, Schema};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build an engine with three identically-seeded relations, so two
/// engines built by this function are bit-identical.
fn seeded_engine(units: u32) -> Engine {
    seeded_engine_with(units, AdmissionPolicy::default())
}

fn seeded_engine_with(units: u32, policy: AdmissionPolicy) -> Engine {
    let engine = Engine::with_units_and_policy(units, policy);
    let mut rng = StdRng::seed_from_u64(0x0b5e);
    for (name, n, domain) in [("r", 90usize, 30i64), ("s", 70, 30), ("t", 50, 30)] {
        let schema = Schema::from_pairs(name, &[("a", DataType::Int), ("b", DataType::Int)]);
        let rows = (0..n)
            .map(|_| tuple![rng.gen_range(0..domain), rng.gen_range(0..domain)])
            .collect();
        let _ = engine.load_relation(&Relation::from_rows_unchecked(schema, rows));
    }
    engine
}

const Q3: &str = "SELECT x.a, y.b, z.a FROM r x, s y, t z \
                  WHERE x.a <= y.a AND y.b < z.b";
const Q2: &str = "SELECT x.a, y.b FROM r x, s y WHERE x.a <= y.a";

/// A relation of `n` rows `(i, i)` — value-clustered, so zone maps prune.
fn clustered(name: &str, n: i64) -> Relation {
    let schema = Schema::from_pairs(name, &[("a", DataType::Int), ("b", DataType::Int)]);
    Relation::from_rows_unchecked(schema, (0..n).map(|i| tuple![i, i]).collect())
}

/// One series' value in a text exposition; a series never written reads
/// 0, like the counter it would be.
fn scraped(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .map_or(0.0, |v| v.parse().unwrap())
}

/// The values of every label set of `name` in a text exposition.
fn scraped_all(text: &str, name: &str) -> Vec<f64> {
    text.lines()
        .filter_map(|line| line.strip_prefix(name)?.strip_prefix('{'))
        .map(|rest| rest.split_once("} ").unwrap().1.parse().unwrap())
        .collect()
}

/// Every door reports the same facts. Call with the engine idle.
fn assert_doors_agree(engine: &Engine) {
    let snap = engine.stats_snapshot();
    let names: Vec<String> = engine.metrics().series().into_iter().map(|s| s.0).collect();
    let text = engine.metrics().render_text();
    let (pc, z, f, sc, st) = (
        snap.plan_cache,
        snap.zone,
        snap.faults,
        snap.scheduler,
        snap.storage,
    );
    for (series, stat) in [
        ("mwtj_plan_cache_entries", pc.entries as u64),
        ("mwtj_plan_cache_lookups_total{result=hit}", pc.hits),
        ("mwtj_plan_cache_lookups_total{result=miss}", pc.misses),
        ("mwtj_plan_cache_evictions_total", pc.evictions),
        ("mwtj_plan_cache_replans_total", pc.replans),
        ("mwtj_zone_blocks_total", z.blocks),
        ("mwtj_zone_blocks_pruned_total", z.blocks_pruned),
        ("mwtj_zone_pairs_total", z.pairs),
        ("mwtj_zone_pairs_pruned_total", z.pairs_pruned),
        ("mwtj_zone_rows_total", z.rows),
        ("mwtj_zone_rows_pruned_total", z.rows_pruned),
        ("mwtj_task_attempts_total", f.attempts),
        ("mwtj_task_retries_total", f.real_retries),
        ("mwtj_task_panics_total", f.panics_caught),
        ("mwtj_scheduler_budget_units", u64::from(sc.budget)),
        (
            "mwtj_scheduler_in_flight_units",
            u64::from(sc.in_flight_units),
        ),
        (
            "mwtj_scheduler_peak_in_flight_units",
            u64::from(sc.peak_in_flight_units),
        ),
        ("mwtj_queue_depth", u64::from(sc.queued_now)),
        ("mwtj_scheduler_admitted_total", sc.admitted),
        ("mwtj_scheduler_degraded_total", sc.degraded),
        ("mwtj_scheduler_queued_total", sc.queued),
        ("mwtj_scheduler_shed_total", sc.shed),
        (
            "mwtj_admission_last_request_units",
            u64::from(snap.last_admission_request),
        ),
        ("mwtj_stats_epoch", snap.epoch),
    ] {
        assert_eq!(scraped(&text, series), stat as f64, "{series}\n{text}");
    }
    // Labelled series: `stats` reports their sum over the label.
    for (name, stat) in [
        ("mwtj_deadline_exceeded_total", f.deadline_exceeded),
        ("mwtj_storage_columnar", st.columnar_relations),
        ("mwtj_storage_columns", st.columns),
        ("mwtj_storage_dict_entries", st.dict_entries),
        ("mwtj_storage_dict_bytes", st.dict_bytes),
        ("mwtj_storage_null_values", st.null_values),
        ("mwtj_storage_resident_bytes", st.resident_bytes),
        ("mwtj_storage_encoded_bytes", st.encoded_bytes),
    ] {
        let sum: f64 = scraped_all(&text, name).iter().sum();
        assert_eq!(sum, stat as f64, "{name}\n{text}");
    }
    assert_eq!(
        scraped_all(&text, "mwtj_storage_columnar").len() as u64,
        st.relations
    );
    // `sys.metrics` is the same series set (its snapshot is taken
    // before the query that reads it writes anything).
    let sys = engine
        .run_sql("SELECT m.name FROM sys.metrics m, sys.scheduler s WHERE s.queued_now <= m.count")
        .unwrap();
    let mut sys_names: Vec<String> = sys
        .output
        .rows()
        .iter()
        .map(|t| t.values()[0].as_str().unwrap().to_string())
        .collect();
    sys_names.sort();
    assert_eq!(sys_names, names);
    // `sys.scheduler` is the `status` reply.
    let row = engine
        .run_sql(
            "SELECT s.budget, s.in_flight_units, s.peak_in_flight_units, s.queued_now, \
             s.admitted, s.degraded, s.queued, s.shed \
             FROM sys.scheduler s, sys.scheduler t WHERE s.budget = t.budget",
        )
        .unwrap();
    let row: Vec<i64> = row.output.rows()[0]
        .values()
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    let sc = engine.scheduler().stats();
    assert_eq!(
        row,
        [
            i64::from(sc.budget),
            i64::from(sc.in_flight_units),
            i64::from(sc.peak_in_flight_units),
            i64::from(sc.queued_now),
            sc.admitted as i64,
            sc.degraded as i64,
            sc.queued as i64,
            sc.shed as i64,
        ]
    );
}

/// Hold the whole `units` budget and park one run of `sql` in the
/// admission queue; returns once the scheduler shows it waiting.
fn park(
    engine: &Engine,
    units: u32,
    sql: &'static str,
) -> (Ticket, std::thread::JoinHandle<QueryRun>) {
    let hog = engine.scheduler().admit(units).unwrap();
    let parked = {
        let engine = engine.clone();
        std::thread::spawn(move || engine.run_sql(sql).unwrap())
    };
    while engine.scheduler().stats().queued_now == 0 {
        std::thread::yield_now();
    }
    (hog, parked)
}

/// Take one batch of a streamed run of `sql`, then drop the stream:
/// the client walked away, the run is cancelled.
fn cancel_mid_stream(engine: &Engine, sql: &str) {
    let mut stream = engine
        .run_sql_streamed(
            "cancel",
            sql,
            &RunOptions::default(),
            &StreamOptions::new().batch_rows(1).channel_depth(1),
        )
        .unwrap();
    assert!(stream.next_batch().unwrap().is_some());
    drop(stream); // joins the worker: the cancel has been counted
}

/// Everything a run reports that instrumentation must not perturb,
/// with f64s captured as bits so "close enough" can never pass.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    rows: Vec<String>,
    schema: String,
    plan: String,
    granted_units: u32,
    predicted_secs: u64,
    sim_secs: u64,
    job_sims: Vec<(u64, u64, u64)>,
    fault_attempts: u64,
}

fn fingerprint(run: &QueryRun) -> Fingerprint {
    let mut rows: Vec<String> = run.output.rows().iter().map(|t| format!("{t:?}")).collect();
    rows.sort();
    Fingerprint {
        rows,
        schema: format!("{:?}", run.output.schema()),
        plan: run.plan.clone(),
        granted_units: run.granted_units,
        predicted_secs: run.predicted_secs.to_bits(),
        sim_secs: run.sim_secs.to_bits(),
        job_sims: run
            .jobs
            .iter()
            .map(|j| {
                (
                    j.sim_map_end_secs.to_bits(),
                    j.sim_shuffle_end_secs.to_bits(),
                    j.sim_total_secs.to_bits(),
                )
            })
            .collect(),
        fault_attempts: run.fault_totals().attempts,
    }
}

/// The tentpole contract: instrumentation is observation-only. Two
/// identically-seeded engines run the same query traced and untraced;
/// everything but the profile must match to the bit, for every method
/// × partition strategy.
#[test]
fn tracing_on_vs_off_is_bit_identical_everywhere() {
    let traced_engine = seeded_engine(8);
    let plain_engine = seeded_engine(8);
    let strategies = [
        PartitionStrategy::Hilbert,
        PartitionStrategy::Grid,
        PartitionStrategy::ZOrder,
    ];
    for method in Method::ALL {
        for strategy in strategies {
            let base = RunOptions::from(method).partition(strategy);
            let traced = traced_engine
                .run_sql_with("diff", Q3, &base.clone().tracing(true))
                .unwrap_or_else(|e| panic!("{method:?}/{strategy:?} traced: {e}"));
            let plain = plain_engine
                .run_sql_with("diff", Q3, &base.clone().tracing(false))
                .unwrap_or_else(|e| panic!("{method:?}/{strategy:?} untraced: {e}"));
            assert_eq!(
                fingerprint(&traced),
                fingerprint(&plain),
                "tracing perturbed {method:?}/{strategy:?}"
            );
            assert!(traced.profile().is_some(), "{method:?}/{strategy:?}");
            assert!(plain.profile().is_none(), "{method:?}/{strategy:?}");
            // Trace ids are stamped either way (they are free).
            assert_ne!(traced.trace_id, 0);
            assert_ne!(plain.trace_id, 0);
        }
    }
}

/// The profile tree carries the whole lifecycle: parse → plan (with a
/// cache verdict) → admission → execute → per-job map/shuffle/reduce.
#[test]
fn profile_tree_carries_lifecycle_stages() {
    let engine = seeded_engine(8);
    let run = engine
        .run_sql_with("prof", Q3, &RunOptions::default())
        .unwrap();
    let profile = run.profile().expect("tracing defaults on");
    assert_eq!(profile.trace_id, run.trace_id);
    for stage in [
        "parse",
        "plan",
        "admission",
        "execute",
        "job0/map",
        "job0/shuffle",
        "job0/reduce",
    ] {
        assert!(profile.find(stage).is_some(), "missing stage `{stage}`");
    }
    let plan = profile.find("plan").unwrap();
    assert!(
        plan.meta
            .iter()
            .any(|(k, v)| k == "cache" && (v == "hit" || v == "miss")),
        "{plan:?}"
    );
    let rendered = profile.render();
    assert!(rendered.starts_with(&format!("trace={}\n", run.trace_id)));
    assert!(rendered.contains("execute"), "{rendered}");
    // Per-job trace ids correlate with the run's.
    for job in &run.jobs {
        assert_eq!(job.trace_id, run.trace_id);
    }
}

/// Fault counters are cumulative across `run_many` batches: monotone,
/// never reset — the contract a scraper depends on.
#[test]
fn fault_counters_are_monotone_across_run_many() {
    let engine = seeded_engine(8);
    let parsed = engine.parse_sql("mono", Q3).expect("parse");
    for (alias, base) in &parsed.instances {
        let _ = engine.load_alias_of(base, alias).expect("alias");
    }
    let opts = RunOptions::from(Method::Ours).fault_plan(FaultPlan::with_probability(0.3, 0x5eed));
    let mut last = engine.stats_snapshot();
    for round in 0..3 {
        let results = engine.run_many(&[&parsed.query, &parsed.query], &opts);
        assert!(results.iter().all(Result::is_ok), "round {round}");
        let now = engine.stats_snapshot();
        let (f, g) = (now.faults, last.faults);
        assert!(f.attempts > g.attempts, "attempts stalled in round {round}");
        assert!(f.real_retries >= g.real_retries, "retries reset");
        assert!(f.panics_caught >= g.panics_caught, "panics reset");
        assert!(
            f.deadline_exceeded >= g.deadline_exceeded,
            "deadlines reset"
        );
        assert!(now.scheduler.shed >= last.scheduler.shed, "shed reset");
        assert!(now.scheduler.admitted > last.scheduler.admitted);
        last = now;
    }
    // With p = 0.3 over three 2-query rounds, some retry fired with
    // overwhelming probability — the counter is not constant-zero.
    assert!(last.faults.real_retries > 0, "{:?}", last.faults);
    assert_doors_agree(&engine);
}

/// A run populates the engine's registry: query counters, latency
/// histogram samples, admission units.
#[test]
fn metrics_registry_fills_from_runs() {
    let engine = seeded_engine(8);
    let run = engine
        .run_sql_with("m", Q3, &RunOptions::default())
        .unwrap();
    let metrics = engine.metrics();
    assert_eq!(
        metrics.counter_value("mwtj_queries_total", &[("method", "ours")]),
        1
    );
    assert_eq!(
        metrics.histogram_count("mwtj_query_latency_ms", &[("method", "ours")]),
        1
    );
    assert!(metrics.counter_value("mwtj_units_granted_total", &[]) >= u64::from(run.granted_units));
    let text = metrics.render_text();
    assert!(
        text.contains("mwtj_plan_cache_lookups_total{result=miss} 1"),
        "{text}"
    );
    // A fresh engine's registry is empty — no cross-engine bleed.
    assert_eq!(
        seeded_engine(8)
            .metrics()
            .counter_value("mwtj_queries_total", &[("method", "ours")]),
        0
    );
}

/// A client that drops its stream is a cancel, not a deadline kill
/// (the parent commit charged `deadline_exceeded` for both).
#[test]
fn cancelled_run_is_not_a_deadline_kill() {
    let engine = seeded_engine(8);
    let outcomes = |outcome: &str| {
        engine
            .metrics()
            .counter_value("mwtj_query_outcomes_total", &[("outcome", outcome)])
    };
    cancel_mid_stream(&engine, Q2);
    assert_eq!(engine.stats_snapshot().faults.deadline_exceeded, 0);
    assert_eq!(outcomes("cancelled"), 1);

    // A deadline kill still counts, once. (Planned already, so the 3 ms
    // go to execution; should the host stall before admission instead,
    // the run is refused there, which `mwtj_admission_refused_total`
    // counts.)
    let _ = engine.load_relation(&clustered("big", 20_000));
    let slow = "SELECT x.a FROM big x, big y, big z WHERE x.a = y.a AND y.b = z.b";
    engine.run_sql(slow).unwrap();
    let err = engine
        .run_sql_with("kill", slow, &RunOptions::default().deadline_ms(3))
        .unwrap_err();
    assert!(err.is_deadline_exceeded(), "{err}");
    let refused = engine
        .metrics()
        .counter_value("mwtj_admission_refused_total", &[("reason", "deadline")]);
    assert_eq!(
        engine.stats_snapshot().faults.deadline_exceeded + refused,
        1
    );
    assert_eq!(outcomes("deadline"), 1);
    assert_eq!(outcomes("cancelled"), 1);
    assert_doors_agree(&engine);
}

/// The pull rule, where the push rule failed: a relation's series live
/// exactly as long as the relation, and the queue depth is the
/// scheduler's own, now.
#[test]
fn pulled_series_follow_their_owners() {
    let engine = seeded_engine(4);
    let carries_r = |line: &str| line.contains("relation=r}") || line.contains("relation=r,");
    let scrape_r = || -> Vec<String> {
        let text = engine.metrics().render_text();
        text.lines()
            .filter(|l| carries_r(l))
            .map(String::from)
            .collect()
    };
    let loaded = scrape_r();
    assert_eq!(loaded.len(), 7, "{loaded:?}");
    assert!(loaded.contains(&"mwtj_storage_columnar{relation=r} 1".to_string()));

    assert!(engine.unload("r"));
    assert_eq!(scrape_r(), Vec::<String>::new());
    assert!(!engine.metrics().render_json().contains("relation=r}"));
    let sys = engine
        .run_sql("SELECT m.name FROM sys.metrics m, sys.scheduler s WHERE s.queued_now <= m.count")
        .unwrap();
    for row in sys.output.rows() {
        assert!(!carries_r(row.values()[0].as_str().unwrap()), "{row:?}");
    }

    // Reloaded under the same name with another layout: the new facts,
    // once.
    engine.set_columnar_storage(false);
    let _ = engine.load_relation(&clustered("r", 10));
    let reloaded = scrape_r();
    assert_eq!(reloaded.len(), 7, "{reloaded:?}");
    assert!(reloaded.contains(&"mwtj_storage_columnar{relation=r} 0".to_string()));
    assert!(reloaded.contains(&"mwtj_storage_resident_bytes{relation=r} 0".to_string()));

    // A parked query is visible while it waits, not after the next
    // admission gets through.
    let (hog, parked) = park(&engine, 4, Q2);
    assert_eq!(engine.scheduler().stats().queued_now, 1);
    let text = engine.metrics().render_text();
    assert_eq!(scraped(&text, "mwtj_queue_depth"), 1.0, "{text}");
    assert_eq!(scraped(&text, "mwtj_scheduler_in_flight_units"), 4.0);
    drop(hog);
    parked.join().unwrap();
    assert_eq!(
        scraped(&engine.metrics().render_text(), "mwtj_queue_depth"),
        0.0
    );
    assert_doors_agree(&engine);
}

/// After a workload that exercises every counter — cold and warm runs,
/// a degraded replan, pruning, injected faults, a shed, a deadline
/// kill, a cancel — all doors still agree; then under 8-way
/// concurrency no lookup or admission is lost or double-counted.
#[test]
fn the_doors_agree_after_a_mixed_workload() {
    let policy = AdmissionPolicy {
        max_queue: Some(1),
        ..AdmissionPolicy::default()
    };
    let engine = seeded_engine_with(8, policy);
    let _ = engine.load_relation(&clustered("c", 12_000));
    let _ = engine.load_relation(&clustered("d", 50));

    // Cold, then warm.
    engine.run_sql(Q3).unwrap();
    engine.run_sql(Q3).unwrap();
    // Degraded: one unit short of the ask.
    let ask = engine.last_admission_request();
    assert!(ask >= 2, "a one-unit ask cannot degrade");
    let hold = engine.scheduler().admit(8 - ask + 1).unwrap();
    assert!(engine.run_sql(Q3).unwrap().granted_units < ask);
    drop(hold);
    // Clustered blocks under a narrow band prune.
    let pruning = "SELECT x.a FROM c x, d y WHERE x.a < y.a";
    assert!(engine.run_sql(pruning).unwrap().skip_fraction() > 0.5);
    // Injected faults really retry.
    let faulty = RunOptions::default().fault_plan(FaultPlan::with_probability(0.3, 0x5eed));
    engine.run_sql_with("faulty", Q3, &faulty).unwrap();
    // Budget held, one query parked, queue bound 1: the next is shed.
    let (hog, parked) = park(&engine, 8, Q2);
    let shed = engine.run_sql(Q2).unwrap_err();
    assert!(format!("{shed}").contains("queue full"), "{shed}");
    drop(hog);
    parked.join().unwrap();
    // A deadline that is already over, and a cancel.
    engine
        .run_sql_with("late", Q2, &RunOptions::default().deadline_ms(0))
        .unwrap_err();
    cancel_mid_stream(&engine, Q2);

    let snap = engine.stats_snapshot();
    assert!(snap.plan_cache.hits >= 1 && snap.plan_cache.misses >= 2);
    assert!(snap.plan_cache.replans >= 1 && snap.scheduler.degraded >= 1);
    assert!(snap.zone.rows_pruned > 0 && snap.faults.real_retries > 0);
    assert!(snap.scheduler.shed >= 1);
    assert_doors_agree(&engine);

    // 8 threads × 50 runs of one statement on a default-policy engine.
    let engine = seeded_engine(8);
    let admitted = engine.scheduler().stats().admitted;
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..50 {
                    engine.run_sql(Q2).unwrap();
                }
            });
        }
    });
    let snap = engine.stats_snapshot();
    assert_eq!(snap.scheduler.admitted, admitted + 400);
    let lookups: f64 = scraped_all(
        &engine.metrics().render_text(),
        "mwtj_plan_cache_lookups_total",
    )
    .iter()
    .sum();
    assert_eq!(
        (snap.plan_cache.hits + snap.plan_cache.misses) as f64,
        lookups
    );
    assert!(lookups >= 400.0);
    assert_doors_agree(&engine);
}

/// No dark time under `execute`: a job's map/shuffle/reduce spans
/// carry host-clock widths, so the leaves of the profile account for
/// the root's wall time — and measuring them perturbs nothing.
#[test]
fn profile_leaves_cover_the_wall_time() {
    // Sized for the key-range chain reducer: 20 000 unclustered rows a
    // side keep map, shuffle and reduce busy for tens of milliseconds
    // even in release, while the sparse band keeps the (unspanned)
    // output assembly to ~2 000 rows.
    let build = || {
        let engine = Engine::with_units(8);
        let mut rng = StdRng::seed_from_u64(0xc0e4);
        for name in ["u", "v", "w"] {
            let schema = Schema::from_pairs(name, &[("a", DataType::Int), ("b", DataType::Int)]);
            let rows = (0..20_000)
                .map(|_| tuple![rng.gen_range(0..200_000), rng.gen_range(0..200_000)])
                .collect();
            let _ = engine.load_relation(&Relation::from_rows_unchecked(schema, rows));
        }
        engine
    };
    let chain = "SELECT x.a, z.b FROM u x, v y, w z \
                 WHERE x.a <= y.a AND y.a <= x.a + 2 AND y.b <= z.b AND z.b <= y.b + 2";
    let (traced_engine, plain_engine) = (build(), build());
    let traced = traced_engine
        .run_sql_with("cover", chain, &RunOptions::default())
        .unwrap();
    let plain = plain_engine
        .run_sql_with("cover", chain, &RunOptions::default().tracing(false))
        .unwrap();
    assert_eq!(fingerprint(&traced), fingerprint(&plain));

    fn leaf_wall_ms(span: &mwtj_core::SpanRecord) -> f64 {
        if span.children.is_empty() {
            span.wall_ms
        } else {
            span.children.iter().map(leaf_wall_ms).sum()
        }
    }
    let root = &traced.profile().unwrap().root;
    assert!(root.wall_ms >= 10.0, "too fast to judge: {}", root.wall_ms);
    assert_eq!(traced.jobs.len(), 1, "a single chain job: {}", traced.plan);
    let coverage = leaf_wall_ms(root) / root.wall_ms;
    assert!(
        coverage >= 0.9,
        "leaves cover {coverage:.3} of the wall time\n{}",
        traced.profile().unwrap().render()
    );
    let job = &traced.jobs[0];
    let phases = job.real_map_secs + job.real_shuffle_secs + job.real_reduce_secs;
    assert!((phases - job.real_secs).abs() < 1e-9);
}

/// Priced vs examined: the reduce-side descent visits a fraction of
/// what the simulated clock charges on a tight band chain, exactly what
/// it charges where no predicate bounds a key (`<>`), and on a pair
/// job's hash path the output it emits on top of the pairs it prices.
/// A band against a wide-domain relation, most of whose rows join
/// nothing, elides their shuffle records; the pair path elides none.
/// `EXPLAIN ANALYZE`, `sys.jobs` and the metrics series all say so.
#[test]
fn examined_candidates_say_which_reducer_path_ran() {
    let engine = seeded_engine(8);
    let wide_schema = Schema::from_pairs("w", &[("a", DataType::Int), ("b", DataType::Int)]);
    let wide = (0..10).map(|i| tuple![i * 300, i]).collect();
    let _ = engine.load_relation(&Relation::from_rows_unchecked(wide_schema, wide));
    let explain = |sql: &str| {
        engine
            .explain_sql(
                "examined",
                &format!("EXPLAIN ANALYZE {sql}"),
                &RunOptions::default(),
            )
            .unwrap()
    };
    let band = explain(
        "SELECT x.a, z.b FROM r x, s y, t z \
         WHERE x.a <= y.a AND y.a <= x.a + 1 AND y.b <= z.b AND z.b <= y.b + 1",
    );
    let ne = explain("SELECT x.a, z.b FROM r x, s y, t z WHERE x.a <> y.a AND y.b <> z.b");
    let eq = explain("SELECT x.a, y.b FROM r x, s y WHERE x.a = y.a");
    let wide = explain("SELECT x.a, y.b FROM r x, w y WHERE x.a <= y.a AND y.a <= x.a + 1");
    let counts = |report: &mwtj_core::ExplainReport| {
        let run = report.analyzed.as_ref().unwrap();
        assert_eq!(run.jobs.len(), 1, "a single job: {}", run.plan);
        let job = &run.jobs[0];
        let examined = job.reduce_examined.expect("join jobs count their visits");
        let line = format!(
            "candidates={} examined={examined} elided={}",
            job.reduce_candidates, job.shuffle_elided
        );
        let text = report.render();
        assert!(text.contains(&line), "no `{line}` in\n{text}");
        (job.reduce_candidates, examined, job.shuffle_elided)
    };
    let band_counts @ (band_priced, band_examined, _) = counts(&band);
    assert!(
        band_examined * 2 < band_priced,
        "tight band examined {band_examined} of {band_priced}"
    );
    let ne_counts @ (ne_priced, ne_examined, _) = counts(&ne);
    assert_eq!(ne_examined, ne_priced, "`<>` bounds no key");
    // A hash job's reduce groups hold one key each, so every pair a
    // group prices is an output pair: its hash index tries each once,
    // and the count adds the left rows walked and the pairs emitted.
    assert!(eq.analyzed.as_ref().unwrap().jobs[0]
        .name
        .starts_with("equi["));
    let eq_counts @ (eq_priced, eq_examined, eq_elided) = counts(&eq);
    assert!(
        eq_examined > 2 * eq_priced,
        "hash index examined {eq_examined} of {eq_priced}"
    );
    assert_eq!(eq_elided, 0, "pair jobs ship every row");
    // `w.a` steps by 300 over a domain whose zone covers every `r.a`
    // (< 30), so zone maps keep all of `r`; yet only `r.a = 0` joins.
    // A chain job counts the dead rows' records instead of moving them.
    assert!(wide.analyzed.as_ref().unwrap().jobs[0]
        .name
        .starts_with("chain["));
    let wide_counts @ (_, wide_examined, wide_elided) = counts(&wide);
    assert!(wide_elided > 0, "the wide band shipped every row");

    // The series are the sums; `sys.jobs` carries the columns per job.
    let text = engine.metrics().render_text();
    assert_eq!(
        scraped(&text, "mwtj_reduce_examined_total"),
        (band_examined + ne_examined + eq_examined + wide_examined) as f64
    );
    let elided = [band_counts, ne_counts, eq_counts, wide_counts].map(|c| c.2);
    assert_eq!(
        scraped(&text, "mwtj_shuffle_elided_total"),
        elided.iter().sum::<u64>() as f64
    );
    let sys = engine
        .run_sql(
            "SELECT j.candidates, j.examined, j.elided FROM sys.jobs j, sys.queries q \
             WHERE j.trace_id = q.trace_id",
        )
        .unwrap();
    let mut rows: Vec<(u64, u64, u64)> = sys
        .output
        .rows()
        .iter()
        .map(|t| {
            let v = |i: usize| t.values()[i].as_int().unwrap() as u64;
            (v(0), v(1), v(2))
        })
        .collect();
    rows.sort_unstable();
    let mut want = [band_counts, ne_counts, eq_counts, wide_counts];
    want.sort_unstable();
    assert_eq!(rows, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Zone-map skipping under random band widths (and band direction)
    /// keeps `skip_fraction()` a true fraction: in [0, 1] on every run,
    /// with rows matching the untraced, unskipped baseline.
    #[test]
    fn skip_fraction_stays_in_unit_interval(width in 0i64..40, flip in any::<bool>()) {
        let engine = seeded_engine(8);
        let op = if flip { ">" } else { "<=" };
        let offset = width - 20;
        let sql = format!(
            "SELECT x.a, y.b FROM r x, s y WHERE x.a {op} y.a {} {}",
            if offset < 0 { "-" } else { "+" },
            offset.abs()
        );
        let run = engine
            .run_sql_with("band", &sql, &RunOptions::from(Method::Ours).skipping(true))
            .unwrap();
        let f = run.skip_fraction();
        prop_assert!((0.0..=1.0).contains(&f), "skip_fraction {f} for width {width}");
        for job in &run.jobs {
            let jf = job.skip_fraction();
            prop_assert!((0.0..=1.0).contains(&jf), "job skip_fraction {jf}");
        }
        // Engine-level zone stats agree with the bounded contract too.
        let zs = engine.stats_snapshot().zone;
        prop_assert!((0.0..=1.0).contains(&zs.skip_fraction()));
    }
}
