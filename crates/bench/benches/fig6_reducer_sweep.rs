//! Fig. 6: execution time of the sample join task vs. reducer count,
//! for four input sizes.
//!
//! The paper runs Hadoop's standard-release sample join with map
//! output 1–200 GB and `k_R ∈ [2, 64]`, observing (a) big inputs gain
//! from more reducers with diminishing returns, (b) small inputs show a
//! clear inflection point where more reducers start to *hurt*.

use mwtj_bench::{cols, header, row};
use mwtj_cost::estimate::SideStats;
use mwtj_datagen::SyntheticGen;
use mwtj_join::{IntermediateShape, PairJob, PairStrategy};
use mwtj_mapreduce::{ClusterConfig, Dfs, Engine, InputSpec};
use mwtj_query::{QueryBuilder, ThetaOp};
use mwtj_storage::Schema;

/// One sweep: self-equi-join of `rows` rows over `keys` keys, for each
/// reducer count; returns simulated seconds.
fn sweep(rows: usize, keys: usize, reducers: &[u32]) -> Vec<f64> {
    let cfg = ClusterConfig::with_units(96);
    let gen = SyntheticGen::default();
    let rel = gen.uniform_keys("s", rows, keys);
    let dfs = Dfs::new();
    dfs.put_relation("s", &rel, &cfg);
    let l = Schema::new("l", rel.schema().fields().to_vec());
    let r = Schema::new("r", rel.schema().fields().to_vec());
    let q = QueryBuilder::new("sample_join")
        .relation(l)
        .relation(r)
        .join("l", "k", ThetaOp::Eq, "r", "k")
        .build()
        .expect("sample join query");
    let compiled = q.compile().expect("compiles");
    let preds: Vec<_> = compiled
        .per_condition
        .iter()
        .flat_map(|c| c.iter().copied())
        .collect();
    let engine = Engine::new(cfg, dfs);
    let _ = SideStats {
        rows: rows as f64,
        bytes: rel.encoded_bytes() as f64,
    };
    reducers
        .iter()
        .map(|&n| {
            let job = PairJob::new(
                format!("sample_n{n}"),
                &q,
                IntermediateShape::base(&q, 0),
                IntermediateShape::base(&q, 1),
                preds.clone(),
                PairStrategy::EquiHash,
                n,
            );
            engine
                .run(
                    &job,
                    &[InputSpec::new("s", 0), InputSpec::new("s", 1)],
                    96,
                    job.reducers(),
                    Some("out"),
                )
                .metrics
                .sim_total_secs
        })
        .collect()
}

fn main() {
    header(
        "Fig. 6",
        "sample join execution time vs. number of reduce tasks (4 input sizes)",
    );
    let reducers: Vec<u32> = vec![2, 4, 8, 16, 24, 32, 48, 64];
    // (paper label, rows, keys): rows scale the input; keys fix the
    // self-join output ratio ~rows²/keys.
    let sizes: [(&str, usize, usize); 4] = [
        ("500GB", 60_000, 30_000),
        ("100GB", 24_000, 12_000),
        ("10GB", 8_000, 4_000),
        ("1GB", 2_500, 1_250),
    ];
    let labels: Vec<String> = reducers.iter().map(|r| format!("kR={r}")).collect();
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    cols("input", &label_refs);
    for (label, rows, keys) in sizes {
        let times = sweep(rows, keys, &reducers);
        row(label, &times);
        // Shape checks mirrored from the paper's observations:
        let first = times[0];
        let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
        if best < first {
            let best_k = reducers[times
                .iter()
                .position(|&t| t == best)
                .expect("best position")];
            println!(
                "    ↳ gains from parallelism until kR≈{best_k} ({:.1}% saved vs kR=2)",
                (1.0 - best / first) * 100.0
            );
        }
    }
    println!("\n(paper: big inputs keep gaining with diminishing returns; small inputs show an inflection point)");
}
