//! Umbrella crate for the multi-way theta-join reproduction.
//!
//! Re-exports every subsystem crate under one roof so examples, tests and
//! downstream users can depend on a single package. See the README for the
//! architecture overview.

pub use mwtj_core as system;
pub use mwtj_cost as cost;
pub use mwtj_datagen as datagen;
pub use mwtj_hilbert as hilbert;
pub use mwtj_join as join;
pub use mwtj_mapreduce as mapreduce;
pub use mwtj_planner as planner;
pub use mwtj_query as query;
pub use mwtj_storage as storage;
