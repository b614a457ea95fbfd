//! # mwtj-obs
//!
//! The observability layer: process-unique trace ids, a lightweight
//! span API producing per-query profile trees, and a sharded metrics
//! registry with a stable text exposition.
//!
//! Everything here is plain `std` (the container is offline) and
//! strictly *observation-only*: spans record wall-clock and
//! simulated-clock durations that already exist, they never feed back
//! into planning, admission or execution. The engine enforces that
//! with a differential test (tracing on vs off must be bit-identical
//! in rows, plan and simulated metrics).
//!
//! ```
//! use mwtj_obs::{Registry, Span};
//!
//! let mut span = Span::enter("plan");
//! span.meta("cache", "miss");
//! let rec = span.finish();
//! assert_eq!(rec.stage, "plan");
//!
//! let reg = Registry::new();
//! reg.counter_add("mwtj_queries_total", &[("method", "ours")], 1);
//! reg.observe("mwtj_query_latency_ms", &[("method", "ours")], 12.5);
//! let text = reg.render_text();
//! assert!(text.contains("mwtj_queries_total{method=ours} 1"));
//! ```

#![warn(missing_docs)]

pub mod flight;
pub mod metrics;
pub mod trace;

pub use flight::{FlightRecord, FlightRecorder, JobRecord, Outcome, DEFAULT_FLIGHT_CAPACITY};
pub use metrics::{Emit, MetricValue, Registry, DEFAULT_LATENCY_BUCKETS_MS};
pub use trace::{next_trace_id, QueryProfile, Span, SpanRecord};
