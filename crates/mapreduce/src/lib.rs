//! # mwtj-mapreduce
//!
//! A from-scratch MapReduce runtime — the substrate the paper runs on
//! (Hadoop 0.20 on a 13-node cluster) rebuilt as an in-process engine
//! with a **dual clock**:
//!
//! * jobs *really execute*: map functions run over real blocks of real
//!   tuples, the shuffle really routes tagged records to reduce
//!   partitions, reduce functions really produce output — so every
//!   result can be checked against an oracle; and
//! * a **simulated clock** prices the execution the way the paper's
//!   cluster would have: sequential block reads, sort-buffer spills,
//!   copy-phase network transfer with per-connection overhead, reducer
//!   skew, replicated output writes — using the paper's own measured
//!   rates (14.69 MB/s write, 74.26 MB/s read, §6.1) as defaults.
//!
//! The simulated-time model is a discrete realization of the paper's §4
//! cost analysis (Fig. 3's wave/overlap structure; Equations 1–6), fed
//! with *measured* byte counts instead of estimates. The analytic cost
//! model in `mwtj-cost` then plays the paper's role of *predicting* these
//! simulated times from statistics — and Fig. 8's validation compares
//! the two.
//!
//! Modules: [`config`] (cluster + Table 1 knobs), [`dfs`] (block store
//! with replication and locality), [`job`] (the MRJ programming model),
//! [`engine`] (single-job execution), [`cluster`] (multi-job plans with
//! dependencies and bounded processing units), [`sink`] (streamed
//! row-batch delivery for terminal jobs), [`cancel`] (cooperative
//! cancellation tokens with deadlines), [`faults`] (real fault
//! injection with bounded retries), [`metrics`].

#![warn(missing_docs)]

pub mod cancel;
pub mod cluster;
pub mod config;
pub mod dfs;
pub mod engine;
pub mod error;
pub mod faults;
pub mod job;
pub mod metrics;
pub mod sink;

pub use cancel::CancelToken;
pub use cluster::{Cluster, PlanExecution, PlanJob, PlanStage};
pub use config::{ClusterConfig, HadoopParams, HardwareProfile};
pub use dfs::{logical_file_name, Block, BlockId, Dfs, DfsFile};
pub use engine::{Engine, JobRun};
pub use error::ExecError;
pub use faults::{FaultPlan, TaskKind};
pub use job::{DeadRows, Emit, InputSpec, KeptRows, MrJob, SkipFilter, TagZones, TaggedRecord};
pub use metrics::JobMetrics;
pub use sink::{BatchSink, RowBatch, SinkSpec};
