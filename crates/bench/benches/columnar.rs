//! Columnar ingest benchmark: CSV ingest throughput into the streaming
//! column builders, and the measured string-dictionary compression
//! ratio, on a string-heavy relation.
//!
//! Run modes:
//!
//! * `cargo bench -p mwtj-bench --bench columnar` — full run, prints
//!   the figures and (re)writes `BENCH_columnar.json` at the repo root.
//! * `cargo bench -p mwtj-bench --bench columnar -- --test` — CI
//!   smoke: a tiny relation, row-count check only, no file.

use mwtj_storage::{parse_csv, to_csv, DataType, Relation, Schema, Tuple, Value};
use std::time::Instant;

/// Best-of-`samples` seconds per call, auto-scaling the inner iteration
/// count until one sample takes ≥ `floor_ms`.
fn best_secs(samples: u32, floor_ms: u64, mut f: impl FnMut()) -> f64 {
    let floor = std::time::Duration::from_millis(floor_ms);
    let mut iters = 1u64;
    let mut best = loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t.elapsed();
        if dt >= floor || iters >= 1 << 24 {
            break dt.as_secs_f64() / iters as f64;
        }
        iters *= 4;
    };
    for _ in 1..samples {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

struct IngestResult {
    rows: usize,
    bytes: usize,
    secs: f64,
    encoded_bytes: u64,
    resident_bytes: u64,
    dict_entries: u64,
}

/// CSV ingest through the streaming column builders, on a
/// string-heavy relation (low-cardinality tags, NULLs, doubles) — the
/// dictionary's favourable case, reported as the compression baseline.
fn measure_ingest(n: usize, quick: bool) -> IngestResult {
    let schema = Schema::from_pairs(
        "ingest",
        &[
            ("a", DataType::Int),
            ("d", DataType::Double),
            ("s", DataType::Str),
        ],
    );
    let tags = [
        "checkout/payment-confirmed",
        "browse/category-electronics",
        "search/results-page-impression",
        "cart/item-quantity-updated",
        "payment/gateway-redirect-complete",
    ];
    let rows: Vec<Tuple> = (0..n as i64)
        .map(|i| {
            let d = if i % 9 == 0 {
                Value::Null
            } else {
                Value::Double(i as f64 * 0.125)
            };
            Tuple::new(vec![
                Value::Int(i),
                d,
                Value::str(tags[(i % tags.len() as i64) as usize]),
            ])
        })
        .collect();
    let text = to_csv(&Relation::from_rows_unchecked(schema.clone(), rows));
    let (samples, floor_ms) = if quick { (1, 1) } else { (2, 200) };
    let secs = best_secs(samples, floor_ms, || {
        let rel = parse_csv(&schema, &text).expect("generated CSV parses");
        assert_eq!(rel.len(), n);
    });
    let rel = parse_csv(&schema, &text).expect("generated CSV parses");
    let layout = rel.layout().expect("parse_csv attaches columnar backing");
    IngestResult {
        rows: n,
        bytes: text.len(),
        secs,
        encoded_bytes: rel.encoded_bytes() as u64,
        resident_bytes: layout.resident_bytes,
        dict_entries: layout.dict_entries,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test" || a == "--quick");
    let ingest = measure_ingest(if quick { 500 } else { 1_000_000 }, quick);
    let compression = ingest.encoded_bytes as f64 / ingest.resident_bytes as f64;
    println!(
        "ingest: {} rows ({} MB CSV) in {:.3}s — {:.0} rows/s, {:.1} MB/s",
        ingest.rows,
        ingest.bytes / (1 << 20),
        ingest.secs,
        ingest.rows as f64 / ingest.secs,
        ingest.bytes as f64 / ingest.secs / (1 << 20) as f64
    );
    println!(
        "compression: {} encoded B vs {} resident B = {:.2}x ({} dictionary entries)",
        ingest.encoded_bytes, ingest.resident_bytes, compression, ingest.dict_entries
    );
    if quick {
        println!("quick mode: ingest checked, no baseline written");
        return;
    }
    let json = render_json(&ingest);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_columnar.json");
    std::fs::write(path, &json).expect("write BENCH_columnar.json");
    println!("baseline written to {path}");
}

fn render_json(ingest: &IngestResult) -> String {
    let mut out = String::from("{\n  \"bench\": \"columnar\",\n");
    out.push_str(&format!(
        "  \"ingest\": {{\"rows\": {}, \"csv_bytes\": {}, \"secs\": {:.6e}, \"rows_per_sec\": {:.0}, \"mb_per_sec\": {:.1}}},\n",
        ingest.rows,
        ingest.bytes,
        ingest.secs,
        ingest.rows as f64 / ingest.secs,
        ingest.bytes as f64 / ingest.secs / (1 << 20) as f64
    ));
    out.push_str(&format!(
        "  \"compression\": {{\"encoded_bytes\": {}, \"resident_bytes\": {}, \"ratio\": {:.2}, \"dict_entries\": {}}}\n}}\n",
        ingest.encoded_bytes,
        ingest.resident_bytes,
        ingest.encoded_bytes as f64 / ingest.resident_bytes as f64,
        ingest.dict_entries
    ));
    out
}
