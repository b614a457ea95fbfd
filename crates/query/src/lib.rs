//! # mwtj-query
//!
//! Query representation for multi-way theta-joins ("N-join queries" in
//! the paper's terminology, §3.1):
//!
//! * [`theta`] — the six theta operators `{<, ≤, =, ≥, >, ≠}`, column
//!   expressions with constant offsets (needed for predicates like
//!   `t1.d + 3 > t3.d` from benchmark query Q3), and atomic predicates.
//! * [`graph`] — the join graph `G_J` (Definition 1): relations as
//!   vertices, conditions as labeled multigraph edges; plus
//!   no-edge-repeating path enumeration (Definition 2), the raw material
//!   of the join-path graph `G_JP`.
//! * [`query`] — [`query::MultiwayQuery`]: relations + conditions +
//!   projection, with compiled predicate evaluation against candidate
//!   tuple combinations.
//! * [`sql`] — a parser for the SQL-like dialect the paper states its
//!   benchmark queries in (§6.3.1).

#![warn(missing_docs)]

pub mod graph;
pub mod query;
pub mod sql;
pub mod theta;

pub use graph::{JoinEdge, JoinGraph, JoinPath};
pub use query::{CompiledConditions, MultiwayQuery, QueryBuilder};
pub use sql::{parse_query, parse_sql, parse_statement, ParsedQuery, ParsedSql, Statement};
pub use theta::{ColExpr, ParamRef, Predicate, ThetaOp};
