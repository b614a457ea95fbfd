//! # mwtj-planner
//!
//! Query planning — the decision half of the paper:
//!
//! * [`gjp`] — construction of the pruned join-path graph `G'_JP`
//!   (Algorithm 2): enumerate no-edge-repeating paths in increasing
//!   hop count, weight each candidate MRJ with the cost model
//!   (`w(e')`, `s(e')` of Definition 3), and prune with Lemma 1
//!   (substitutable candidates) and Lemma 2 (supersets of pruned
//!   candidates).
//! * [`setcover`] — `T_opt` selection: greedy weighted set cover over
//!   the candidates (Feige's ln n bound, the paper's \[14\]), plus an
//!   exhaustive optimum for small instances used in tests and
//!   ablations.
//! * [`plan`] — executable plan assembly: chain MRJs scheduled on
//!   `k_P` units via malleable shelves, merge jobs combining partial
//!   results on shared relations, final projection; plus the
//!   Hive-, Pig- and YSmart-style pairwise-cascade baseline planners
//!   the paper compares against (§6).

#![warn(missing_docs)]

pub mod error;
pub mod gjp;
pub mod plan;
pub mod setcover;

pub use error::PlanError;
pub use gjp::{build_gjp, CandidateOp, GjpOptions, MrjCandidate};
pub use plan::{
    Baseline, BoundRelation, ExecOptions, ExecutablePlan, FaultTotals, Planner, QueryPlan, QueryRun,
};
pub use setcover::{exhaustive_cover, greedy_cover, CoverResult};
