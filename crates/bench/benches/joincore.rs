//! Join-core benchmark: the reduce-side descent against its nested-loop
//! scan reference, at 1k and 10k rows per reducer.
//!
//! Measures `PairKernel::join_into` — the pair join as the descent's
//! two-depth case, the per-reducer hot loop — against
//! `PairKernel::join_scan_reference` on three reducer-shaped workloads:
//!
//! * `band_sparse` — the inequality-heavy case the key range exists
//!   for: a single `<` predicate whose matching band covers ~1% of the
//!   value range, as after 1-Bucket/Hilbert partitioning. Range:
//!   O(n log n + output); scan: O(n²).
//! * `band_dense` — uniform `<` (≈50% selectivity): output-bound, so
//!   wide ranges walk the group behind the key pre-filter.
//! * `hash_equi` — equality join, ~1 match per key: hash build/probe vs
//!   O(n²) probing.
//!
//! and `ChainThetaJob::reduce` — the same descent at two and three
//! depths, under Hilbert ownership — against its scan
//! (`reduce_scan_reference`) on the two chain shapes of the end-to-end
//! `theta_heavy` workload:
//!
//! * `chain_band2` — `x.a <= y.a AND y.a <= x.a + 2` over two relations
//!   of `rows` uniform rows on a `10·rows` domain.
//! * `chain3` — the same band followed by `y.b <= z.b AND z.b <= y.b +
//!   20` into a third relation an eighth the size.
//!
//! Every run, quick or full, first cross-checks the descent against its
//! reference: pair indices and order for the pair join; rows, row order
//! and the priced candidate count for the chain reducer.
//!
//! Run modes:
//!
//! * `cargo bench -p mwtj-bench --bench joincore` — full run, prints a
//!   table and (re)writes `BENCH_joincore.json` at the repo root: the
//!   checked-in perf baseline for the join core. Every row is the
//!   median and quartiles of seven timed calls per side.
//! * `cargo bench -p mwtj-bench --bench joincore -- --test` — CI smoke:
//!   tiny sizes, one sample, correctness cross-check only, no file.

use mwtj_hilbert::PartitionStrategy;
use mwtj_join::{ChainThetaJob, IntermediateShape, KernelKind, PairKernel};
use mwtj_mapreduce::{MrJob, TaggedRecord};
use mwtj_query::theta::ColExpr;
use mwtj_query::theta::CompiledPredicate;
use mwtj_query::{MultiwayQuery, QueryBuilder, ThetaOp};
use mwtj_storage::{tuple, DataType, Schema, Tuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

struct Workload {
    name: &'static str,
    query: MultiwayQuery,
    lefts: Vec<Tuple>,
    rights: Vec<Tuple>,
}

fn schema(name: &str) -> Schema {
    Schema::from_pairs(name, &[("a", DataType::Int), ("b", DataType::Int)])
}

fn rows(n: usize, seed: u64, gen: impl Fn(&mut StdRng, usize) -> i64) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|i| tuple![gen(&mut rng, i), i as i64]).collect()
}

fn workloads(n: usize) -> Vec<Workload> {
    let d = n as i64 * 100;
    let join = |op: ThetaOp| {
        QueryBuilder::new("joincore")
            .relation(schema("l"))
            .relation(schema("r"))
            .join("l", "a", op, "r", "a")
            .build()
            .expect("bench query builds")
    };
    vec![
        Workload {
            // lefts high, rights low, ranges overlapping on ~1% of the
            // domain: few pairs satisfy l.a < r.a.
            name: "band_sparse",
            query: join(ThetaOp::Lt),
            lefts: rows(n, 11, |rng, _| d + rng.gen_range(0..d)),
            rights: rows(n, 12, |rng, _| rng.gen_range(0..d + d / 100)),
        },
        Workload {
            name: "band_dense",
            query: join(ThetaOp::Lt),
            lefts: rows(n, 13, |rng, _| rng.gen_range(0..d)),
            rights: rows(n, 14, |rng, _| rng.gen_range(0..d)),
        },
        Workload {
            name: "hash_equi",
            query: join(ThetaOp::Eq),
            lefts: rows(n, 15, |rng, _| rng.gen_range(0..n as i64)),
            rights: rows(n, 16, |rng, _| rng.gen_range(0..n as i64)),
        },
    ]
}

fn compile(w: &Workload) -> PairKernel {
    let left = IntermediateShape::base(&w.query, 0);
    let right = IntermediateShape::base(&w.query, 1);
    let out = IntermediateShape::union(&w.query, &left, &right);
    let preds: Vec<CompiledPredicate> = w
        .query
        .compile()
        .expect("compiles")
        .per_condition
        .iter()
        .flat_map(|c| c.iter().copied())
        .collect();
    PairKernel::compile(&left, &right, &out, &preds)
}

struct Measurement {
    workload: &'static str,
    rows: usize,
    kernel: &'static str,
    kernel_secs: [f64; 3],
    scan_secs: [f64; 3],
    pairs: usize,
}

fn measure(n: usize, quick: bool) -> Vec<Measurement> {
    let samples = if quick { 1 } else { 7 };
    workloads(n)
        .into_iter()
        .map(|w| {
            let kernel = compile(&w);
            let lefts: Vec<&Tuple> = w.lefts.iter().collect();
            let rights: Vec<&Tuple> = w.rights.iter().collect();
            // Correctness cross-check on every run (this is the CI
            // smoke value of the quick mode).
            let mut want = Vec::new();
            kernel.join_scan_reference(&lefts, &rights, &mut want);
            let mut got = Vec::new();
            kernel.join_into(&lefts, &rights, &mut got);
            assert_eq!(got, want, "{}: descent disagrees with the scan", w.name);

            let mut buf = Vec::new();
            let kernel_secs = quartile_secs(samples, || {
                buf.clear();
                kernel.join_into(&lefts, &rights, &mut buf);
            });
            let scan_secs = quartile_secs(samples, || {
                buf.clear();
                kernel.join_scan_reference(&lefts, &rights, &mut buf);
            });
            Measurement {
                workload: w.name,
                rows: n,
                kernel: match kernel.kind() {
                    KernelKind::Hash => "hash",
                    KernelKind::Range => "range",
                    KernelKind::Scan => "scan",
                },
                kernel_secs,
                scan_secs,
                pairs: want.len(),
            }
        })
        .collect()
}

/// `(q1, median, q3)` of per-call seconds over `samples` timed calls.
fn quartile_secs(samples: usize, mut f: impl FnMut()) -> [f64; 3] {
    let mut secs: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    [secs.len() / 4, secs.len() / 2, secs.len() * 3 / 4].map(|i| secs[i])
}

struct ChainMeasurement {
    workload: &'static str,
    rows: usize,
    range_secs: [f64; 3],
    scan_secs: [f64; 3],
    priced: u64,
    examined: u64,
    rows_out: usize,
}

/// The chain reducer over every component of a `k_R = 4` Hilbert
/// partition, one reduce call per component, range descent vs scan.
fn measure_chain(n: usize, quick: bool) -> Vec<ChainMeasurement> {
    let band = |qb: QueryBuilder, l: &str, r: &str, col: &str, width: f64| {
        qb.join_expr(ColExpr::col(l, col), ThetaOp::Le, ColExpr::col(r, col))
            .and_expr(
                ColExpr::col(r, col),
                ThetaOp::Le,
                ColExpr::col_plus(l, col, width),
            )
    };
    let two = QueryBuilder::new("chain_band2")
        .relation(schema("x"))
        .relation(schema("y"));
    let three = QueryBuilder::new("chain3")
        .relation(schema("x"))
        .relation(schema("y"))
        .relation(schema("z"));
    let m = (n / 8).max(1);
    let (da, db) = (10 * n as i64, 10 * m as i64);
    let table = |rows: usize, seed: u64| -> Vec<Tuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..rows)
            .map(|_| tuple![rng.gen_range(0..da), rng.gen_range(0..db)])
            .collect()
    };
    let rels = [table(n, 21), table(n, 22), table(m, 23)];
    let cases = [
        ("chain_band2", band(two, "x", "y", "a", 2.0)),
        (
            "chain3",
            band(band(three, "x", "y", "a", 2.0), "y", "z", "b", 20.0),
        ),
    ];
    let samples = if quick { 1 } else { 7 };
    cases
        .into_iter()
        .map(|(name, qb)| {
            let q = qb.build().expect("bench query builds");
            let edges: Vec<usize> = (0..q.num_conditions()).collect();
            let cards: Vec<u64> = rels[..q.schemas.len()]
                .iter()
                .map(|r| r.len() as u64)
                .collect();
            let job = ChainThetaJob::new(&q, &edges, &cards, 4, PartitionStrategy::Hilbert);
            let mut groups: BTreeMap<u64, Vec<TaggedRecord>> = BTreeMap::new();
            for (dim, &rel) in job.dims().iter().enumerate() {
                for (i, row) in rels[rel].iter().enumerate() {
                    job.map(dim as u8, row, 0x5eed ^ dim as u64, i, &mut |key, rec| {
                        groups.entry(key).or_default().push(rec)
                    });
                }
            }
            let reduce_all = |out: &mut Vec<Tuple>, scan: bool| -> u64 {
                out.clear();
                groups
                    .iter()
                    .map(|(key, recs)| {
                        if scan {
                            job.reduce_scan_reference(*key, recs, out)
                        } else {
                            job.reduce(*key, recs, out)
                        }
                    })
                    .sum()
            };
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let priced = reduce_all(&mut got, false);
            let examined = job.reduce_examined().expect("chain jobs count visits");
            assert_eq!(
                priced,
                reduce_all(&mut want, true),
                "{name}: priced count differs from the scan's"
            );
            assert_eq!(
                got, want,
                "{name}: rows or row order differ from the scan's"
            );
            let range_secs = quartile_secs(samples, || {
                reduce_all(&mut got, false);
            });
            let scan_secs = quartile_secs(samples, || {
                reduce_all(&mut want, true);
            });
            ChainMeasurement {
                workload: name,
                rows: n,
                range_secs,
                scan_secs,
                priced,
                examined,
                rows_out: got.len(),
            }
        })
        .collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test" || a == "--quick");
    let sizes: &[usize] = if quick { &[200] } else { &[1_000, 10_000] };
    let mut all = Vec::new();
    println!("joincore: pair join, indexed descent vs reference scan (medians)");
    println!(
        "{:<14} {:>6} {:>8} {:>14} {:>14} {:>9} {:>10}",
        "workload", "rows", "kernel", "kernel_ms", "scan_ms", "speedup", "pairs"
    );
    for &n in sizes {
        for m in measure(n, quick) {
            println!(
                "{:<14} {:>6} {:>8} {:>14.3} {:>14.3} {:>8.1}x {:>10}",
                m.workload,
                m.rows,
                m.kernel,
                m.kernel_secs[1] * 1e3,
                m.scan_secs[1] * 1e3,
                m.scan_secs[1] / m.kernel_secs[1],
                m.pairs
            );
            all.push(m);
        }
    }
    println!("joincore: chain reducer, key-range descent vs reference scan (k_R = 4)");
    println!(
        "{:<14} {:>6} {:>14} {:>14} {:>9} {:>12} {:>12} {:>8}",
        "workload", "rows", "range_ms", "scan_ms", "speedup", "priced", "examined", "rows_out"
    );
    let mut chains = Vec::new();
    for &n in sizes {
        for m in measure_chain(n, quick) {
            println!(
                "{:<14} {:>6} {:>14.3} {:>14.3} {:>8.1}x {:>12} {:>12} {:>8}",
                m.workload,
                m.rows,
                m.range_secs[1] * 1e3,
                m.scan_secs[1] * 1e3,
                m.scan_secs[1] / m.range_secs[1],
                m.priced,
                m.examined,
                m.rows_out
            );
            chains.push(m);
        }
    }
    if quick {
        println!("quick mode: correctness cross-check done, no baseline written");
        return;
    }
    let json = render_json(&all, &chains);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_joincore.json");
    std::fs::write(path, &json).expect("write BENCH_joincore.json");
    println!("baseline written to {path}");
}

/// `{"median", "q1", "q3"}` of per-call seconds.
fn quartiles([q1, median, q3]: [f64; 3]) -> String {
    format!("{{\"median\": {median:.6e}, \"q1\": {q1:.6e}, \"q3\": {q3:.6e}}}")
}

fn render_json(all: &[Measurement], chains: &[ChainMeasurement]) -> String {
    let mut out = String::from("{\n  \"bench\": \"joincore\",\n  \"unit\": \"seconds_per_reduce_call\",\n  \"results\": [\n");
    for m in all {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"rows\": {}, \"kernel\": \"{}\", \"kernel_secs\": {}, \"scan_secs\": {}, \"speedup\": {:.2}, \"pairs\": {}}},\n",
            m.workload,
            m.rows,
            m.kernel,
            quartiles(m.kernel_secs),
            quartiles(m.scan_secs),
            m.scan_secs[1] / m.kernel_secs[1],
            m.pairs,
        ));
    }
    for (i, m) in chains.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"rows\": {}, \"kernel\": \"chain_range\", \"kernel_secs\": {}, \"scan_secs\": {}, \"speedup\": {:.2}, \"priced\": {}, \"examined\": {}, \"rows_out\": {}}}{}\n",
            m.workload,
            m.rows,
            quartiles(m.range_secs),
            quartiles(m.scan_secs),
            m.scan_secs[1] / m.range_secs[1],
            m.priced,
            m.examined,
            m.rows_out,
            if i + 1 == chains.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
