//! # mwtj-hilbert
//!
//! d-dimensional Hilbert space-filling curve and the hyper-cube space
//! partitioning built on it — the paper's "perfect partition function"
//! (§5.1, Theorem 2).
//!
//! A chain theta-join over relations `R_1 … R_d` conceptually fills the
//! hyper-cube `R_1 × … × R_d`. The paper partitions this cube into `k_R`
//! contiguous segments of a Hilbert curve; each segment is one reduce
//! task. Because a Hilbert curve of order `b` traverses every dimension
//! "fairly", a segment of length `|H|/k_R` touches the same *proportion*
//! of stripes on every axis, which (Theorem 2) minimizes the partition
//! score — the total number of `(tuple, component)` copies sent over the
//! network — while keeping each reducer's share of the cube equal.
//!
//! Modules:
//! * [`curve`] — index ⇄ coordinates for the d-dimensional curve
//!   (Skilling's transpose algorithm).
//! * [`partition`] — [`partition::SpacePartition`]: curve segments as
//!   reduce components, per-(dimension, stripe) component lists, cell
//!   ownership for reducer-side dedup, and the partition score of Eq. 7.

#![warn(missing_docs)]

pub mod curve;
pub mod partition;

pub use curve::HilbertCurve;
pub use partition::{PartitionStrategy, SpacePartition};
