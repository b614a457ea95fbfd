//! Every `mwtj_*` series the engine owns, named once, so a writer and
//! the typed read in [`crate::Engine::stats_snapshot`] cannot drift. A
//! new counter follows one rule: a monotone total is *pushed* (one
//! `counter_add` where the event is seen); a value live state already
//! owns is *pulled* from its owner at scrape time, never copied.

// Pushed, per query. The two gauges hold an event's value (the last
// run's skip fraction, the last planned admission's unit request).
pub(crate) const QUERIES: &str = "mwtj_queries_total";
pub(crate) const QUERY_LATENCY_MS: &str = "mwtj_query_latency_ms";
pub(crate) const QUERY_OUTCOMES: &str = "mwtj_query_outcomes_total";
pub(crate) const SLOW_QUERIES: &str = "mwtj_slow_queries_total";
pub(crate) const DEADLINE_EXCEEDED: &str = "mwtj_deadline_exceeded_total";
pub(crate) const SKIP_FRACTION: &str = "mwtj_skip_fraction";
pub(crate) const ADMISSION_WAIT_MS: &str = "mwtj_admission_wait_ms";
pub(crate) const ADMISSION_REFUSED: &str = "mwtj_admission_refused_total";
pub(crate) const ADMISSION_LAST_REQUEST: &str = "mwtj_admission_last_request_units";
pub(crate) const UNITS_REQUESTED: &str = "mwtj_units_requested_total";
pub(crate) const UNITS_GRANTED: &str = "mwtj_units_granted_total";
pub(crate) const PLAN_CACHE_LOOKUPS: &str = "mwtj_plan_cache_lookups_total";
pub(crate) const PLAN_CACHE_EVICTIONS: &str = "mwtj_plan_cache_evictions_total";
pub(crate) const PLAN_CACHE_REPLANS: &str = "mwtj_plan_cache_replans_total";
pub(crate) const TASK_ATTEMPTS: &str = "mwtj_task_attempts_total";
pub(crate) const TASK_RETRIES: &str = "mwtj_task_retries_total";
pub(crate) const TASK_PANICS: &str = "mwtj_task_panics_total";
pub(crate) const REDUCE_EXAMINED: &str = "mwtj_reduce_examined_total";
pub(crate) const SHUFFLE_ELIDED: &str = "mwtj_shuffle_elided_total";
pub(crate) const ZONE_BLOCKS: &str = "mwtj_zone_blocks_total";
pub(crate) const ZONE_BLOCKS_PRUNED: &str = "mwtj_zone_blocks_pruned_total";
pub(crate) const ZONE_PAIRS: &str = "mwtj_zone_pairs_total";
pub(crate) const ZONE_PAIRS_PRUNED: &str = "mwtj_zone_pairs_pruned_total";
pub(crate) const ZONE_ROWS: &str = "mwtj_zone_rows_total";
pub(crate) const ZONE_ROWS_PRUNED: &str = "mwtj_zone_rows_pruned_total";

// Pulled: from the scheduler, the plan cache, and the catalog (the
// storage series carry a `relation` label).
pub(crate) const SCHEDULER_BUDGET: &str = "mwtj_scheduler_budget_units";
pub(crate) const SCHEDULER_IN_FLIGHT: &str = "mwtj_scheduler_in_flight_units";
pub(crate) const SCHEDULER_PEAK: &str = "mwtj_scheduler_peak_in_flight_units";
pub(crate) const QUEUE_DEPTH: &str = "mwtj_queue_depth";
pub(crate) const SCHEDULER_ADMITTED: &str = "mwtj_scheduler_admitted_total";
pub(crate) const SCHEDULER_DEGRADED: &str = "mwtj_scheduler_degraded_total";
pub(crate) const SCHEDULER_QUEUED: &str = "mwtj_scheduler_queued_total";
pub(crate) const SCHEDULER_SHED: &str = "mwtj_scheduler_shed_total";
pub(crate) const PLAN_CACHE_ENTRIES: &str = "mwtj_plan_cache_entries";
pub(crate) const STATS_EPOCH: &str = "mwtj_stats_epoch";
pub(crate) const STORAGE_COLUMNAR: &str = "mwtj_storage_columnar";
pub(crate) const STORAGE_COLUMNS: &str = "mwtj_storage_columns";
pub(crate) const STORAGE_DICT_ENTRIES: &str = "mwtj_storage_dict_entries";
pub(crate) const STORAGE_DICT_BYTES: &str = "mwtj_storage_dict_bytes";
pub(crate) const STORAGE_NULL_VALUES: &str = "mwtj_storage_null_values";
pub(crate) const STORAGE_RESIDENT_BYTES: &str = "mwtj_storage_resident_bytes";
pub(crate) const STORAGE_ENCODED_BYTES: &str = "mwtj_storage_encoded_bytes";
