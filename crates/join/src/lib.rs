//! # mwtj-join
//!
//! Join operators on the MapReduce runtime:
//!
//! * [`chain`] — **the paper's contribution** (§5.1, Algorithm 1): a
//!   chain multi-way theta-join evaluated in *one* MRJ by partitioning
//!   the cross-product hyper-cube with a Hilbert curve. Map tasks assign
//!   each tuple a random global id (no global view needed), route it to
//!   every reduce component whose region intersects the tuple's stripe,
//!   and reducers emit only the result combinations whose cell they own
//!   — exact output, no duplicates, balanced load.
//! * [`pair`] — pairwise operators: hash-partitioned equi-join,
//!   fragment-replicate ("broadcast") theta-join, and Okcan &
//!   Riedewald's 1-Bucket-Theta. These are the building blocks of the
//!   Hive/Pig/YSmart-style baseline cascades and of the merge steps
//!   that combine partial MRJ outputs (§4.2, Fig. 4).
//! * `descent` — the one reduce-side join core both jobs run: a depth
//!   first descent over per-input row groups that finds each depth's
//!   candidates through a hash index, a sorted key range or a walk, and
//!   checks every candidate with the same compiled predicate loop. Each
//!   job supplies only its leaf and its priced formula.
//! * [`kernel`] — the pair join as the descent's two-depth case
//!   ([`PairKernel`]), with the index kinds ([`KernelKind`]).
//! * [`shape`] — the layout of intermediate rows (which relations'
//!   columns live where), shared by every operator.
//! * [`oracle`] — a single-threaded nested-loop evaluator used as
//!   ground truth in tests.

#![warn(missing_docs)]

pub mod chain;
mod descent;
pub mod kernel;
pub mod oracle;
pub mod pair;
pub mod shape;
mod skip;

pub use chain::ChainThetaJob;
pub use kernel::{KernelKind, PairKernel};
pub use oracle::oracle_join;
pub use pair::{PairJob, PairStrategy};
pub use shape::IntermediateShape;
