//! A 1e5 × 1e5 tight band chain completes (ROADMAP item 3).
//!
//! The chain reducer prices ~1e10 candidates for this join — about
//! three minutes of scanning at the 56 M candidates/s the cross-product
//! loop managed in release — and examines a few hundred thousand. The
//! result is checked against a two-pointer count over the sorted keys.

use mwtj_core::Engine;
use mwtj_storage::{tuple, DataType, Relation, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn tight_band_over_1e5_by_1e5_unclustered_rows() {
    const N: usize = 100_000;
    const DOMAIN: i64 = 1_000_000;
    const WIDTH: i64 = 2;
    let mut rng = StdRng::seed_from_u64(3);
    let engine = Engine::with_units(16);
    let mut keys = Vec::new();
    for name in ["l", "r"] {
        let col: Vec<i64> = (0..N).map(|_| rng.gen_range(0..DOMAIN)).collect();
        let schema = Schema::from_pairs(name, &[("a", DataType::Int)]);
        let rows = col.iter().map(|&a| tuple![a]).collect();
        let _ = engine.load_relation(&Relation::from_rows_unchecked(schema, rows));
        keys.push(col);
    }

    // |{(x, y) : x <= y <= x + WIDTH}| with two monotone cursors over
    // the sorted right side.
    for col in &mut keys {
        col.sort_unstable();
    }
    let (xs, ys) = (&keys[0], &keys[1]);
    let (mut from, mut to, mut want) = (0usize, 0usize, 0u64);
    for &x in xs {
        while from < ys.len() && ys[from] < x {
            from += 1;
        }
        while to < ys.len() && ys[to] <= x + WIDTH {
            to += 1;
        }
        want += (to - from) as u64;
    }

    let run = engine
        .run_sql(&format!(
            "SELECT x.a, y.a FROM l x, r y WHERE x.a <= y.a AND y.a <= x.a + {WIDTH}"
        ))
        .expect("band join runs");
    assert_eq!(run.output.len() as u64, want);
    let (priced, examined) = run.jobs.iter().fold((0u64, 0u64), |(p, e), j| {
        (
            p + j.reduce_candidates,
            e + j.reduce_examined.expect("chain jobs count their visits"),
        )
    });
    assert!(priced > 1_000_000_000, "priced {priced}");
    assert!(examined < priced / 1_000, "examined {examined} of {priced}");
}
