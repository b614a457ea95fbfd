//! The simulated clock, pinned: per-job `reduce_candidates`, shuffle
//! records and simulated seconds of fixed runs, as literals.
//!
//! The chain literals were recorded at the commit *before* the chain
//! reducer stopped scanning the cross product (PR 21), from that
//! commit's scan loop. The pair-job literals (`multi4` under `ours`,
//! `chain3` under the Hive and YSmart cascades) were recorded before
//! the pair kernels were folded into the chain reducer's descent. The
//! priced candidate count is a closed form of per-depth survivor counts
//! and group sizes for chain jobs and `|L|·|R|` per reducer for pair
//! jobs; if it — or anything else Eq. 2–4 prices — drifts by one unit,
//! these assertions fail. The chain jobs count rows that join nothing
//! instead of shipping them (`band2` asserts it), so these literals are
//! also what the counted path must price. A deliberate change to the cost model
//! regenerates them: a failing run prints the measured table in
//! paste-ready form. First slice of ROADMAP item 1a's golden file.

use mwtj_core::benchqueries::{mobile_query, MobileQuery};
use mwtj_core::{Engine, Method, QueryRun, RunOptions};
use mwtj_datagen::MobileGen;
use mwtj_storage::{DataType, Relation, Schema, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(job name, reduce_candidates, shuffle records, sim seconds)`.
type Pinned = (&'static str, u64, u64, f64);

fn assert_pinned(what: &str, run: &QueryRun, want: &[Pinned]) {
    let got: Vec<(&str, u64, u64, f64)> = run
        .jobs
        .iter()
        .map(|j| {
            (
                j.name.as_str(),
                j.reduce_candidates,
                j.map_output_records,
                j.sim_total_secs,
            )
        })
        .collect();
    assert_eq!(
        got, want,
        "{what}: simulated metrics moved; measured:\n{got:#?}"
    );
}

/// The `theta_heavy` tables of `benchmark/`: uniform unclustered
/// `a, b, c` integer columns over domains `10n, 10m, m`.
fn theta_heavy_engine() -> Engine {
    let (n, m) = (2000usize, 250usize);
    let domains = [10 * n as i64, 10 * m as i64, m as i64];
    let mut rng = StdRng::seed_from_u64(21);
    let engine = Engine::with_units(16);
    for (name, rows) in [("r", n), ("s", n), ("t", m), ("u", m)] {
        let schema = Schema::from_pairs(
            name,
            &[
                ("a", DataType::Int),
                ("b", DataType::Int),
                ("c", DataType::Int),
            ],
        );
        let rows = (0..rows)
            .map(|_| Tuple::new(domains.map(|d| Value::Int(rng.gen_range(0..d))).to_vec()))
            .collect();
        let _ = engine.load_relation(&Relation::from_rows_unchecked(schema, rows));
    }
    engine
}

const BAND_A: &str = "x.a <= y.a AND y.a <= x.a + 2";
const BAND_B: &str = "y.b <= z.b AND z.b <= y.b + 20";

#[test]
fn theta_heavy_band2_and_chain3_are_pinned() {
    let engine = theta_heavy_engine();
    let band2 = engine
        .run_sql(&format!("SELECT * FROM r x, s y WHERE {BAND_A}"))
        .expect("band2 runs");
    assert_pinned("band2", &band2, BAND2);
    // Most `s` rows join no `r` row: they are counted, not shipped, and
    // the literals above still hold.
    assert!(band2.jobs[0].shuffle_elided > 0, "band2 shipped every row");
    let chain3 = engine
        .run_sql(&format!(
            "SELECT * FROM r x, s y, t z WHERE {BAND_A} AND {BAND_B}"
        ))
        .expect("chain3 runs");
    assert_pinned("chain3", &chain3, CHAIN3);

    // `EXPLAIN ANALYZE` shows the pinned priced count next to what the
    // host really visited for it.
    let report = engine
        .explain_sql(
            "chain3",
            &format!("EXPLAIN ANALYZE SELECT * FROM r x, s y, t z WHERE {BAND_A} AND {BAND_B}"),
            &Default::default(),
        )
        .expect("explain analyze runs");
    let examined = report.analyzed.as_ref().expect("analyzed").jobs[0]
        .reduce_examined
        .expect("chain jobs count their visits");
    let text = report.render();
    let line = format!("candidates={} examined={examined}", CHAIN3[0].1);
    assert!(text.contains(&line), "no `{line}` in\n{text}");
    assert!(examined < CHAIN3[0].1 / 100, "examined {examined}");
}

/// The pair path: the `theta_heavy` 4-way query under `ours` (chain
/// MRJs, an `equi[θ2]` hash job and two merges), and the 3-way chain as
/// the Hive and YSmart broadcast cascades.
#[test]
fn theta_heavy_pair_jobs_are_pinned() {
    let engine = theta_heavy_engine();
    let multi4 = engine
        .run_sql(&format!(
            "SELECT * FROM r x, s y, t z, u v WHERE {BAND_A} AND {BAND_B} AND z.c = v.c"
        ))
        .expect("multi4 runs");
    assert_pinned("multi4", &multi4, MULTI4);
    let chain3 = format!("SELECT * FROM r x, s y, t z WHERE {BAND_A} AND {BAND_B}");
    for (method, want) in [(Method::Hive, CHAIN3_HIVE), (Method::YSmart, CHAIN3_YSMART)] {
        let run = engine
            .run_sql_with("chain3", &chain3, &RunOptions::default().method(method))
            .expect("baseline cascade runs");
        assert_pinned(&format!("chain3 {method}"), &run, want);
    }
}

fn mobile_run(which: MobileQuery) -> QueryRun {
    let engine = Engine::with_units(24);
    let gen = MobileGen {
        users: 200,
        base_stations: 30,
        days: 10,
        ..Default::default()
    };
    let _ = engine.load_relation(&gen.generate("calls", 200));
    for inst in which.instances() {
        let _ = engine
            .load_alias_of("calls", inst)
            .expect("base table is loaded");
    }
    engine
        .run(&mobile_query(which), &Default::default())
        .expect("mobile query runs")
}

#[test]
fn mobile_q1_and_q2_are_pinned() {
    assert_pinned("mobile Q1", &mobile_run(MobileQuery::Q1), MOBILE_Q1);
    assert_pinned("mobile Q2", &mobile_run(MobileQuery::Q2), MOBILE_Q2);
}

const BAND2: &[Pinned] = &[("chain[θ0]", 3998583, 15980, 0.015532443511503293)];
const CHAIN3: &[Pinned] = &[("chain[θ0,θ1]", 12123560, 29517, 0.031066320730476264)];
const MOBILE_Q1: &[Pinned] = &[("chain[θ1,θ0,θ2]", 4104279, 6055, 0.006990205337282325)];
const MOBILE_Q2: &[Pinned] = &[("chain[θ1,θ0,θ2]", 3730560, 5944, 0.012299860711692479)];
const MULTI4: &[Pinned] = &[
    ("chain[θ0]", 3998583, 15980, 0.015604962031882356),
    ("chain[θ1]", 511742, 8992, 0.014124574791288013),
    ("equi[θ2]", 252, 497, 0.000649794298087119),
    ("merge_0", 1315, 4853, 0.013821310635981531),
    ("merge_1", 1329, 1567, 0.0074749700085670265),
];
const CHAIN3_HIVE: &[Pinned] = &[
    ("Hive_step1", 3990000, 33920, 0.08130121244313485),
    ("Hive_step2", 149048, 4569, 0.0064668381326364495),
];
const CHAIN3_YSMART: &[Pinned] = &[
    ("YSmart_step1", 3990000, 193520, 1.2212254269229956),
    ("YSmart_step2", 149048, 8537, 0.012637843612999878),
];
