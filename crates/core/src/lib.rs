//! # mwtj-core
//!
//! The public API of the reproduction, split engine-side and
//! session-side the way serving systems separate data ownership from
//! query execution:
//!
//! * [`Engine`] owns the simulated cluster, the loaded relations (with
//!   the paper's load-time sampling/statistics pass, §6.3) and the
//!   calibrated cost model, all behind `Arc`-shared state — so queries
//!   run from `&self` and [`Engine::run_many`] serves independent
//!   queries concurrently on a scoped thread pool.
//! * [`Session`] is a cheap, cloneable handle with per-caller default
//!   [`RunOptions`].
//! * [`RunOptions`] unifies the evaluation [`Method`], the space
//!   [`PartitionStrategy`](mwtj_hilbert::PartitionStrategy), per-run
//!   fault injection and cost-model calibration in one builder.
//! * Every fallible call returns [`EngineError`] instead of panicking,
//!   and [`Engine::run_sql`] wires the SQL frontend end-to-end
//!   (parse → auto-alias → plan → execute).
//!
//! ```
//! use mwtj_core::{Engine, Method, RunOptions};
//! use mwtj_query::{QueryBuilder, ThetaOp};
//! use mwtj_storage::{tuple, DataType, Relation, Schema};
//!
//! let engine = Engine::with_units(16);
//! let schema = Schema::from_pairs("r", &[("a", DataType::Int)]);
//! let rel = Relation::from_rows_unchecked(schema.clone(), vec![tuple![1], tuple![5]]);
//! let schema2 = Schema::from_pairs("s", &[("a", DataType::Int)]);
//! let rel2 = Relation::from_rows_unchecked(schema2.clone(), vec![tuple![3]]);
//! let _ = engine.load_relation(&rel);
//! let _ = engine.load_relation(&rel2);
//!
//! // Builder API …
//! let q = QueryBuilder::new("demo")
//!     .relation(schema)
//!     .relation(schema2)
//!     .join("r", "a", ThetaOp::Lt, "s", "a")
//!     .build()
//!     .unwrap();
//! let run = engine.run(&q, &RunOptions::from(Method::Ours)).unwrap();
//! assert_eq!(run.output.len(), 1); // only (1, 3)
//!
//! // … or SQL, end to end:
//! let run = engine.run_sql("SELECT * FROM r x, s y WHERE x.a < y.a").unwrap();
//! assert_eq!(run.output.len(), 1);
//!
//! // Unknown relations are typed errors, not panics:
//! assert!(engine.run_sql("SELECT * FROM nope a, r b WHERE a.a = b.a").is_err());
//! ```

#![warn(missing_docs)]

pub mod benchqueries;
pub mod engine;
pub mod error;
pub mod explain;
pub mod options;
pub mod prepare;
pub mod scheduler;
mod series;
pub mod stream;
pub mod sys;

pub use benchqueries::{mobile_query, tpch_query, MobileQuery, TpchQuery};
pub use engine::{
    assert_quiescent, Engine, EngineStats, FaultStats, LoadReport, PlanCacheStats, Quiescence,
    Session, StorageStats, ZoneSkipStats, RID_COLUMN,
};
pub use error::EngineError;
pub use explain::ExplainReport;
pub use options::{Method, RunOptions};
pub use prepare::Prepared;
pub use scheduler::{AdmissionError, AdmissionPolicy, Scheduler, SchedulerStats, Ticket};
pub use stream::{QueryStream, StreamEnd, StreamOptions};

// Re-exported so stream consumers name the batch type without a
// direct mwtj-mapreduce dependency, and so callers can build and hold
// cancellation tokens for in-flight runs.
pub use mwtj_mapreduce::{CancelToken, RowBatch};
// Re-exported so serving layers name run results, plan artifacts and
// per-run fault totals without a direct mwtj-planner dependency.
pub use mwtj_planner::{FaultTotals, QueryPlan, QueryRun};
// Re-exported so serving layers scrape the engine's metrics registry
// and render query profiles without a direct mwtj-obs dependency.
pub use mwtj_obs::{
    FlightRecord, FlightRecorder, MetricValue, Outcome, QueryProfile, Registry, SpanRecord,
};
