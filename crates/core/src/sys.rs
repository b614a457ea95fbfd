//! The `sys.*` system introspection catalog: engine state exposed as
//! relations, so telemetry is queryable with the same theta-join SQL
//! the engine serves — including band-joining `sys.queries` against
//! itself to find latency-adjacent runs.
//!
//! This module owns the *shape* of the catalog — the static schemas
//! and the row encodings — as pure functions over plain data, so it
//! is unit-testable without an engine. The engine glues them to live
//! state in [`crate::Engine`]: each referenced `sys.` relation is
//! snapshot-materialised **once per query** (a self-join sees one
//! consistent snapshot), registered under the query's private
//! instance aliases, and dropped with them afterwards. Sys queries
//! are never plan-cached (the snapshot changes every query) and never
//! admission-ticketed (introspection must answer while the unit
//! budget is exhausted).
//!
//! | relation        | one row per                              |
//! |-----------------|------------------------------------------|
//! | `sys.queries`   | recorded run in the flight-recorder ring |
//! | `sys.jobs`      | MRJ of a recorded run                    |
//! | `sys.metrics`   | metrics-registry series                  |
//! | `sys.relations` | loaded (non-transient) catalog instance  |
//! | `sys.scheduler` | admission scheduler (single row)         |

use crate::scheduler::SchedulerStats;
use mwtj_obs::{FlightRecord, MetricValue};
use mwtj_storage::{DataType, Relation, Schema, Tuple, Value};

/// The reserved relation-name prefix the query layer resolves through
/// this catalog instead of the user catalog.
pub const SYS_PREFIX: &str = "sys.";

/// Whether `name` addresses the system catalog.
pub fn is_sys(name: &str) -> bool {
    name.starts_with(SYS_PREFIX)
}

/// Names of every sys relation, for listings and docs.
pub const SYS_RELATIONS: [&str; 5] = [
    "sys.queries",
    "sys.jobs",
    "sys.metrics",
    "sys.relations",
    "sys.scheduler",
];

/// The static schema of a sys relation (`None` for names outside the
/// catalog; the caller surfaces its usual unknown-relation error).
pub fn schema_of(base: &str) -> Option<Schema> {
    let fields: &[(&str, DataType)] = match base {
        "sys.queries" => &[
            ("trace_id", DataType::Int),
            ("ticket", DataType::Int),
            ("shape", DataType::Str),
            ("method", DataType::Str),
            ("partition", DataType::Str),
            ("outcome", DataType::Str),
            ("requested_units", DataType::Int),
            ("granted_units", DataType::Int),
            ("queued", DataType::Int),
            ("wall_ms", DataType::Double),
            ("sim_secs", DataType::Double),
            ("rows_out", DataType::Int),
            ("skip_fraction", DataType::Double),
            ("attempts", DataType::Int),
            ("retries", DataType::Int),
            ("panics", DataType::Int),
        ],
        "sys.jobs" => &[
            ("trace_id", DataType::Int),
            ("seq", DataType::Int),
            ("job", DataType::Str),
            ("units", DataType::Int),
            ("map_tasks", DataType::Int),
            ("reduce_tasks", DataType::Int),
            ("input_records", DataType::Int),
            ("output_records", DataType::Int),
            ("shuffle_bytes", DataType::Int),
            // Priced reduce work, and what the host visited for it
            // (NULL for jobs that do not count their visits).
            ("candidates", DataType::Int),
            ("examined", DataType::Int),
            // Shuffle records priced but not moved.
            ("elided", DataType::Int),
            ("sim_secs", DataType::Double),
            ("real_secs", DataType::Double),
            ("skip_fraction", DataType::Double),
            ("attempts", DataType::Int),
            ("retries", DataType::Int),
            ("panics", DataType::Int),
        ],
        "sys.metrics" => &[
            ("name", DataType::Str),
            ("kind", DataType::Str),
            ("value", DataType::Double),
            ("sum", DataType::Double),
            ("count", DataType::Int),
        ],
        "sys.relations" => &[
            ("name", DataType::Str),
            ("base", DataType::Str),
            ("rows", DataType::Int),
            ("bytes", DataType::Int),
            ("blocks", DataType::Int),
            ("zoned_blocks", DataType::Int),
            ("stats_epoch", DataType::Int),
            // Storage layout: columnar backing (1/0), its column and
            // dictionary shape, and resident vs encoded size.
            ("columnar", DataType::Int),
            ("columns", DataType::Int),
            ("dict_entries", DataType::Int),
            ("dict_bytes", DataType::Int),
            ("null_values", DataType::Int),
            ("resident_bytes", DataType::Int),
            ("compression", DataType::Double),
        ],
        "sys.scheduler" => &[
            ("budget", DataType::Int),
            ("in_flight_units", DataType::Int),
            ("peak_in_flight_units", DataType::Int),
            ("queued_now", DataType::Int),
            ("admitted", DataType::Int),
            ("degraded", DataType::Int),
            ("queued", DataType::Int),
            ("shed", DataType::Int),
        ],
        _ => return None,
    };
    Some(Schema::from_pairs(base, fields))
}

/// Clamp a u64 telemetry count into the Int column domain.
fn int(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// `sys.queries`: one row per recorded run, in recorder order
/// (newest first, the order [`mwtj_obs::FlightRecorder::all`] yields).
pub fn queries_relation(records: &[FlightRecord]) -> Relation {
    let schema = schema_of("sys.queries").expect("static schema");
    let rows = records
        .iter()
        .map(|r| {
            Tuple::new(vec![
                int(r.trace_id),
                int(r.ticket),
                Value::from(r.shape.as_str()),
                Value::from(r.method.as_str()),
                Value::from(r.partition.as_str()),
                Value::from(r.outcome.as_str()),
                Value::Int(i64::from(r.requested_units)),
                Value::Int(i64::from(r.granted_units)),
                Value::Int(i64::from(r.queued)),
                Value::Double(r.wall_ms),
                Value::Double(r.sim_secs),
                int(r.rows_out),
                Value::Double(r.skip_fraction),
                int(r.attempts),
                int(r.real_retries),
                int(r.panics_caught),
            ])
        })
        .collect();
    Relation::from_rows_unchecked(schema, rows)
}

/// `sys.jobs`: the per-job records of every recorded run, flattened.
pub fn jobs_relation(records: &[FlightRecord]) -> Relation {
    let schema = schema_of("sys.jobs").expect("static schema");
    let rows = records
        .iter()
        .flat_map(|r| {
            r.jobs.iter().enumerate().map(move |(seq, j)| {
                Tuple::new(vec![
                    int(r.trace_id),
                    Value::Int(seq as i64),
                    Value::from(j.name.as_str()),
                    Value::Int(i64::from(j.units)),
                    Value::Int(i64::from(j.map_tasks)),
                    Value::Int(i64::from(j.reduce_tasks)),
                    int(j.input_records),
                    int(j.output_records),
                    int(j.shuffle_bytes),
                    int(j.candidates),
                    j.examined.map_or(Value::Null, int),
                    int(j.elided),
                    Value::Double(j.sim_secs),
                    Value::Double(j.real_secs),
                    Value::Double(j.skip_fraction),
                    int(j.attempts),
                    int(j.real_retries),
                    int(j.panics_caught),
                ])
            })
        })
        .collect();
    Relation::from_rows_unchecked(schema, rows)
}

/// `sys.metrics`: one row per registry series. Counters and gauges
/// carry their value in `value` (0 `sum`/`count`); histograms carry
/// their observation count in both `value` and `count` plus the `sum`.
pub fn metrics_relation(series: &[(String, MetricValue)]) -> Relation {
    let schema = schema_of("sys.metrics").expect("static schema");
    let rows = series
        .iter()
        .map(|(name, value)| {
            let (kind, v, sum, count) = match value {
                MetricValue::Counter(c) => ("counter", *c as f64, 0.0, 0u64),
                MetricValue::Gauge(g) => ("gauge", *g, 0.0, 0),
                MetricValue::Histogram { sum, count, .. } => {
                    ("histogram", *count as f64, *sum, *count)
                }
            };
            Tuple::new(vec![
                Value::from(name.as_str()),
                Value::from(kind),
                Value::Double(v),
                Value::Double(sum),
                int(count),
            ])
        })
        .collect();
    Relation::from_rows_unchecked(schema, rows)
}

/// One `sys.relations` row, pre-extracted from the engine catalog and
/// DFS by the engine (this module never locks engine state).
#[derive(Debug, Clone)]
pub struct RelationRow {
    /// Catalog instance name.
    pub name: String,
    /// Base table the instance is bound to (itself for direct loads).
    pub base: String,
    /// Row count.
    pub rows: u64,
    /// Encoded byte size.
    pub bytes: u64,
    /// DFS block count.
    pub blocks: u64,
    /// Blocks carrying at least one column zone map.
    pub zoned_blocks: u64,
    /// The statistics epoch at snapshot time.
    pub stats_epoch: u64,
    /// The instance's columnar layout, `None` when stored row-major.
    pub layout: Option<mwtj_storage::ColumnarLayout>,
}

/// `sys.relations`: one row per loaded (non-transient) instance.
pub fn relations_relation(rows: &[RelationRow]) -> Relation {
    let schema = schema_of("sys.relations").expect("static schema");
    let tuples = rows
        .iter()
        .map(|r| {
            let layout = r.layout.unwrap_or_default();
            // Compression = encoded (row codec) bytes over resident
            // columnar bytes; 0.0 for row-major instances.
            let compression = if r.layout.is_some() && layout.resident_bytes > 0 {
                r.bytes as f64 / layout.resident_bytes as f64
            } else {
                0.0
            };
            Tuple::new(vec![
                Value::from(r.name.as_str()),
                Value::from(r.base.as_str()),
                int(r.rows),
                int(r.bytes),
                int(r.blocks),
                int(r.zoned_blocks),
                int(r.stats_epoch),
                Value::Int(i64::from(r.layout.is_some())),
                int(layout.columns as u64),
                int(layout.dict_entries),
                int(layout.dict_bytes),
                int(layout.null_count),
                int(layout.resident_bytes),
                Value::Double(compression),
            ])
        })
        .collect();
    Relation::from_rows_unchecked(schema, tuples)
}

/// `sys.scheduler`: the admission controller as a single row.
pub fn scheduler_relation(stats: &SchedulerStats) -> Relation {
    let schema = schema_of("sys.scheduler").expect("static schema");
    let rows = vec![Tuple::new(vec![
        Value::Int(i64::from(stats.budget)),
        Value::Int(i64::from(stats.in_flight_units)),
        Value::Int(i64::from(stats.peak_in_flight_units)),
        Value::Int(i64::from(stats.queued_now)),
        int(stats.admitted),
        int(stats.degraded),
        int(stats.queued),
        int(stats.shed),
    ])];
    Relation::from_rows_unchecked(schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwtj_obs::{JobRecord, Outcome};

    #[test]
    fn every_sys_relation_has_a_schema() {
        for name in SYS_RELATIONS {
            let schema = schema_of(name).unwrap();
            assert_eq!(schema.name(), name);
            assert!(schema.arity() >= 5, "{name}");
            assert!(is_sys(name));
        }
        assert!(schema_of("sys.nope").is_none());
        assert!(schema_of("queries").is_none());
        assert!(!is_sys("queries"));
    }

    #[test]
    fn queries_and_jobs_rows_match_schemas() {
        let rec = FlightRecord {
            trace_id: 7,
            shape: "SELECT …".into(),
            method: "ours".into(),
            partition: "hilbert".into(),
            requested_units: 8,
            granted_units: 4,
            queued: true,
            wall_ms: 12.5,
            sim_secs: 0.25,
            rows_out: 99,
            skip_fraction: 0.5,
            attempts: 6,
            real_retries: 1,
            panics_caught: 0,
            outcome: Outcome::Ok,
            ticket: 3,
            jobs: vec![JobRecord {
                name: "mrj0".into(),
                units: 4,
                map_tasks: 2,
                reduce_tasks: 2,
                input_records: 100,
                output_records: 99,
                shuffle_bytes: 2048,
                candidates: 5000,
                examined: Some(120),
                elided: 40,
                sim_secs: 0.25,
                real_secs: 0.01,
                skip_fraction: 0.5,
                attempts: 6,
                real_retries: 1,
                panics_caught: 0,
            }],
        };
        let q = queries_relation(std::slice::from_ref(&rec));
        assert_eq!(q.len(), 1);
        assert_eq!(q.schema().arity(), q.rows()[0].arity());
        let idx = q.schema().index_of("outcome").unwrap();
        assert_eq!(q.rows()[0].values()[idx], Value::from("ok"));
        let j = jobs_relation(&[rec]);
        assert_eq!(j.len(), 1);
        assert_eq!(j.schema().arity(), j.rows()[0].arity());
        let idx = j.schema().index_of("trace_id").unwrap();
        assert_eq!(j.rows()[0].values()[idx], Value::Int(7));
    }

    #[test]
    fn metrics_rows_encode_all_kinds() {
        let series = vec![
            ("a_total".to_string(), MetricValue::Counter(3)),
            ("g".to_string(), MetricValue::Gauge(1.5)),
            (
                "h_ms".to_string(),
                MetricValue::Histogram {
                    bounds: vec![1.0],
                    counts: vec![2],
                    sum: 9.0,
                    count: 4,
                },
            ),
        ];
        let rel = metrics_relation(&series);
        assert_eq!(rel.len(), 3);
        let kind = rel.schema().index_of("kind").unwrap();
        let value = rel.schema().index_of("value").unwrap();
        let sum = rel.schema().index_of("sum").unwrap();
        assert_eq!(rel.rows()[0].values()[kind], Value::from("counter"));
        assert_eq!(rel.rows()[0].values()[value], Value::Double(3.0));
        assert_eq!(rel.rows()[2].values()[kind], Value::from("histogram"));
        assert_eq!(rel.rows()[2].values()[sum], Value::Double(9.0));
    }

    #[test]
    fn scheduler_is_a_single_row() {
        let rel = scheduler_relation(&SchedulerStats {
            budget: 16,
            in_flight_units: 4,
            peak_in_flight_units: 12,
            queued_now: 1,
            admitted: 10,
            degraded: 2,
            queued: 3,
            shed: 1,
        });
        assert_eq!(rel.len(), 1);
        let budget = rel.schema().index_of("budget").unwrap();
        assert_eq!(rel.rows()[0].values()[budget], Value::Int(16));
    }

    #[test]
    fn counts_above_i64_saturate() {
        assert_eq!(int(u64::MAX), Value::Int(i64::MAX));
        assert_eq!(int(5), Value::Int(5));
    }
}
