//! The engine/session API: data ownership separated from query
//! execution.
//!
//! [`Engine`] owns the simulated cluster, the loaded (rowid-augmented)
//! relations, their statistics, and the cost-model-equipped planner —
//! all behind `Arc`-shared, lock-protected state, so query execution
//! needs only `&self` and independent queries can be served
//! concurrently ([`Engine::run_many`]). [`Session`] is a cheap,
//! cloneable handle carrying per-caller default [`RunOptions`].
//!
//! Every fallible entry point returns [`EngineError`] instead of
//! panicking: an unknown relation, a malformed SQL string or an
//! unplannable query fails *that query*, never the process.

use crate::error::EngineError;
use crate::options::{Method, RunOptions};
use crate::scheduler::{AdmissionError, AdmissionPolicy, Scheduler, Ticket};
use crate::series;
use crate::sys::RelationRow;
use mwtj_cost::{CalibratedParams, Calibrator, CostModel};
use mwtj_join::oracle::oracle_join;
use mwtj_mapreduce::{CancelToken, Cluster, ClusterConfig, Dfs, DfsFile, ExecError, JobMetrics};
use mwtj_obs::{
    next_trace_id, Emit, FlightRecord, FlightRecorder, JobRecord, MetricValue, Outcome,
    QueryProfile, Registry, Span, SpanRecord,
};
use mwtj_planner::{Baseline, BoundRelation, PlanError, Planner, QueryPlan, QueryRun};
use mwtj_query::{MultiwayQuery, ParsedQuery};
use mwtj_storage::{DataType, Field, Relation, RelationStats, Schema, Tuple, Value};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The implicit row-identity column appended to every loaded relation.
/// Partial-result merging joins on it ("merge using the primary keys
/// ... only output keys or data IDs involved", §4.2); it is stripped
/// from final outputs unless explicitly projected.
pub const RID_COLUMN: &str = "__rid";

/// What loading a relation cost (Fig. 11's comparison).
#[must_use = "loading is priced on the simulated clock; inspect or explicitly drop the report"]
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// Simulated seconds for the raw replicated upload (the "Plain
    /// Hadoop Uploading" line).
    pub upload_secs: f64,
    /// Simulated seconds for the sampling + statistics pass our method
    /// adds (why "our method is a little more time consuming for the
    /// data uploading process", §6.3).
    pub sampling_secs: f64,
}

impl LoadReport {
    /// Total load time for our method.
    pub fn total_secs(&self) -> f64 {
        self.upload_secs + self.sampling_secs
    }
}

/// Everything the engine holds about one loaded instance, published
/// and replaced as a unit so a reader can never pair one load's rows
/// with another load's statistics or blocks.
struct CatalogEntry {
    /// The augmented (rowid-extended) relation.
    relation: Arc<Relation>,
    stats: Arc<RelationStats>,
    /// The base table the instance was loaded from (itself for direct
    /// loads); [`Engine::load_alias_of`] consults it so an alias can
    /// never be silently rebound to a different base.
    base: String,
    /// The instance's sealed DFS file — what a query binds and scans.
    file: Arc<DfsFile>,
}

impl CatalogEntry {
    fn bound(&self) -> BoundRelation {
        BoundRelation {
            stats: Arc::clone(&self.stats),
            file: Arc::clone(&self.file),
        }
    }
}

/// Loaded data, keyed by instance name.
#[derive(Default)]
struct Catalog {
    entries: HashMap<String, CatalogEntry>,
    /// Bumped whenever loaded data *changes* (an entry is replaced,
    /// refreshed or unloaded, or the cost model is recalibrated) —
    /// never for a fresh name. Cached plan artifacts are tagged with
    /// the epoch they were planned under and discarded on mismatch, so
    /// an execution can never run a plan made from superseded
    /// statistics.
    epoch: u64,
}

/// One plan-cache entry: the `Arc`-shared [`QueryPlan`] artifact plus
/// the statistics epoch it was planned under. A mismatched epoch at
/// admission time means the loaded data changed since planning — the
/// entry is discarded and the query replanned against fresh statistics,
/// so an execution can never run against a stale plan. `last_used` is
/// an LRU stamp from the shared cache clock, touched on every hit (an
/// atomic, so hits under the read lock can update it).
struct CachedPlan {
    epoch: u64,
    plan: Arc<QueryPlan>,
    last_used: AtomicU64,
}

/// Keep the plan cache from growing without bound in a long-lived
/// server (distinct SQL texts keep arriving). At the cap the
/// least-recently-used entry is evicted — hot prepared shapes stay
/// warm while one-off ad-hoc texts cycle through.
const PLAN_CACHE_CAP: usize = 1024;

/// Observed zone-map effectiveness for one plan-cache key prefix:
/// the fraction of input rows skipping pruned on the most recent run,
/// tagged with the statistics epoch it was observed under. The
/// admission controller discounts the Eq. 2 unit estimate by this
/// fraction on statistics-warm runs — a query whose input mostly
/// prunes occupies a smaller `k_P` slice, so more queries pack in.
struct SkipStat {
    epoch: u64,
    fraction: f64,
}

/// Engine-wide zone-map pruning totals, accumulated across every
/// completed run (what the server's `stats` command reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZoneSkipStats {
    /// Input blocks considered by skip filters.
    pub blocks: u64,
    /// Blocks skipped unread.
    pub blocks_pruned: u64,
    /// Block pairs examined across predicate graphs.
    pub pairs: u64,
    /// Block pairs proven empty by zone ranges.
    pub pairs_pruned: u64,
    /// Rows in considered blocks.
    pub rows: u64,
    /// Rows whose map work was skipped.
    pub rows_pruned: u64,
}

impl ZoneSkipStats {
    /// Block pairs that survived zone pruning.
    pub fn pairs_kept(&self) -> u64 {
        self.pairs.saturating_sub(self.pairs_pruned)
    }

    /// Fraction of considered rows pruned, in [0, 1].
    pub fn skip_fraction(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.rows_pruned as f64 / self.rows as f64
        }
    }
}

/// Engine-wide real fault-handling totals, accumulated across every
/// run (what the server's `stats` command reports next to the
/// plan-cache and zone-skip counters). All counts are *real* host
/// events — attempts actually executed, attempts that really aborted
/// mid-execution and were rerun, panics contained by `catch_unwind` —
/// not simulated-clock charges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Task attempts really executed (map + reduce, including reruns).
    pub attempts: u64,
    /// Attempts that really aborted mid-execution and were rerun.
    pub real_retries: u64,
    /// Panics caught by the engine's panic isolation.
    pub panics_caught: u64,
    /// Runs killed mid-execution by their real-time deadline.
    pub deadline_exceeded: u64,
}

/// A snapshot of the shared plan cache's counters (all monotonic
/// except `entries`). `hits` counting up while `misses` stays flat is
/// the signature of a warmed cache — the CI smoke asserts exactly that
/// after a repeated `execute`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Plans currently cached (across all shapes and `k` values).
    pub entries: usize,
    /// Executions that reused a cached plan (skipped planning).
    pub hits: u64,
    /// Lookups that found no valid entry and planned from scratch.
    pub misses: u64,
    /// Entries discarded — stale-epoch replacements plus
    /// least-recently-used evictions at the cap (one per entry).
    pub evictions: u64,
    /// Fresh plans that *re*-planned an existing shape: stale-epoch
    /// refreshes and reduced-`k` replans after admission degradation.
    pub replans: u64,
}

/// One coherent snapshot of every engine-wide counter group the
/// server's `stats` command reports, gathered by a single
/// [`Engine::stats_snapshot`] call: a typed view of the metrics
/// registry (the pushed totals) and of the scheduler, plan cache and
/// catalog (the values they own).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Shared plan-cache counters.
    pub plan_cache: PlanCacheStats,
    /// Engine-wide zone-map pruning totals.
    pub zone: ZoneSkipStats,
    /// Engine-wide real fault-handling totals.
    pub faults: FaultStats,
    /// Admission-controller counters.
    pub scheduler: crate::scheduler::SchedulerStats,
    /// Units the most recent `Ours` admission requested.
    pub last_admission_request: u32,
    /// The statistics epoch at snapshot time.
    pub epoch: u64,
    /// Storage-layout totals over loaded instances.
    pub storage: StorageStats,
}

/// Aggregate storage-layout totals over the loaded catalog instances,
/// reported by the server's `stats` verb.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StorageStats {
    /// Loaded instances.
    pub relations: u64,
    /// Instances carrying a columnar backing.
    pub columnar_relations: u64,
    /// Total typed column vectors across columnar instances.
    pub columns: u64,
    /// Total distinct dictionary entries across string columns.
    pub dict_entries: u64,
    /// Total dictionary string bytes (shared per column, counted once).
    pub dict_bytes: u64,
    /// Total NULL values recorded in null bitmaps.
    pub null_values: u64,
    /// Resident bytes of the columnar backings.
    pub resident_bytes: u64,
    /// Encoded (row codec) bytes of all loaded instances — the
    /// numerator of the compression ratio when every instance is
    /// columnar (the default).
    pub encoded_bytes: u64,
}

/// Process-unique engine ids (see [`Engine::engine_id`]); a freed
/// engine's id is never reused, unlike its `Arc` allocation address.
static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(1);

/// State shared by an engine and all its sessions.
struct Shared {
    /// This engine's process-unique identity (prepared-statement
    /// rebinding checks it).
    id: u64,
    cluster: Cluster,
    /// Swapped wholesale on calibration; executions snapshot the `Arc`.
    planner: RwLock<Arc<Planner>>,
    catalog: RwLock<Catalog>,
    /// Guards the run-once calibration sweep.
    calibrated: Mutex<bool>,
    sample_cap: usize,
    /// Admission controller over the cluster's `k_P` unit budget.
    scheduler: Scheduler,
    /// Full plan artifacts keyed by (query shape × base bindings,
    /// planning `k`), invalidated via [`Catalog::epoch`].
    /// Reduced-`k` replans of a degraded admission live beside the
    /// full-`k` plan under their own `k` key.
    plan_cache: RwLock<HashMap<(String, u32), CachedPlan>>,
    /// Monotonic LRU clock for [`CachedPlan::last_used`] stamps.
    cache_clock: AtomicU64,
    /// Cap before LRU eviction kicks in — [`PLAN_CACHE_CAP`] in
    /// production, lowered by tests to exercise eviction cheaply.
    cache_cap: AtomicUsize,
    /// Observed skip fraction per plan-cache key prefix (the Eq. 2
    /// admission discount), epoch-tagged like the plan cache itself.
    skip_stats: RwLock<HashMap<String, SkipStat>>,
    /// The one home of every engine-wide total ([`crate::series`]): the
    /// `metrics` verb renders it, [`Engine::stats_snapshot`] reads it.
    /// Engine-local, so concurrent engines — every test builds its own
    /// — never cross-contaminate scrapes.
    metrics: Registry,
    /// Engine-wide slow-query threshold in milliseconds (0 = off).
    /// A run's [`RunOptions::slow_query_ms`] overrides it per query.
    slow_query_ms: AtomicU64,
    /// Attach a columnar backing (`mwtj_storage::Columns`) to every
    /// relation at load time. On by default; the `--row-major` server
    /// flag and the differential suite turn it off to pin
    /// bit-identical results across storage layouts. Purely a storage
    /// accelerator — never observable in query output, plans or
    /// simulated metrics.
    columnar: AtomicBool,
    /// The always-on flight recorder behind `sys.queries`/`sys.jobs`:
    /// a bounded ring of completed-run records (including refused and
    /// failed runs) plus retained profiles of slow runs. Swapped
    /// wholesale by [`Engine::set_flight_capacity`], hence the lock;
    /// recording paths clone the `Arc` and never hold it.
    recorder: RwLock<Arc<FlightRecorder>>,
}

/// The top-level system: cluster + DFS + statistics + planner behind
/// shared immutable state, serving queries from `&self`.
///
/// See the crate-level docs for a full example.
#[derive(Clone)]
pub struct Engine {
    shared: Arc<Shared>,
}

/// A query's base relations, resolved once at admission under a single
/// catalog read lock. Below this point nothing looks a base relation up
/// by name: the run scans exactly the files bound here — even if a base
/// is reloaded or unloaded mid-run — and the query's schemas keep their
/// own (alias) names end to end.
pub(crate) struct Bindings {
    /// Per relation index: the bound statistics and sealed file.
    pub(crate) inputs: Vec<BoundRelation>,
    /// Per relation index: the catalog name it resolved to — with the
    /// query shape, the plan-cache key.
    pub(crate) bases: Vec<String>,
    /// Statistics epoch at resolution; tags plan-cache entries and the
    /// recorded skip fraction, so a reload invalidates both.
    pub(crate) epoch: u64,
}

impl Bindings {
    /// Whether any relation reads a `sys.*` snapshot.
    pub(crate) fn reads_sys(&self) -> bool {
        self.bases.iter().any(|b| crate::sys::is_sys(b))
    }

    /// The plan-cache key prefix for a query of `shape` over these
    /// bases: shape-identical queries over different bases (whose
    /// statistics differ) never share a plan.
    pub(crate) fn key_prefix(&self, shape: &str) -> String {
        format!("{shape}|{}", self.bases.join(","))
    }
}

/// Everything a run needs after admission: the planner snapshot, the
/// query's bindings, the held RAII ticket and — for the `Ours` methods
/// — the `Arc`-shared plan artifact to execute, already replanned at
/// the granted `k` if the admission degraded. Dropping it releases the
/// ticket.
pub(crate) struct Admitted {
    pub(crate) planner: Arc<Planner>,
    pub(crate) bindings: Bindings,
    pub(crate) ticket: Ticket,
    pub(crate) plan: Option<Arc<QueryPlan>>,
    /// The plan-cache key prefix (`Ours` methods only) — where the
    /// run's observed skip fraction is recorded for the next
    /// admission's Eq. 2 discount.
    pub(crate) key_prefix: Option<String>,
    /// The run's cancellation token, carrying its deadline when
    /// [`RunOptions::deadline_ms`] was set (the deadline clock starts
    /// *before* admission, so time parked in the admission queue counts
    /// against it). `None` when the run has no deadline.
    pub(crate) cancel: Option<CancelToken>,
    /// Process-unique trace id for this run, also stamped on the
    /// ticket; [`Engine::execute_admitted`] stamps it on the finished
    /// run and its per-job metrics.
    pub(crate) trace_id: u64,
    /// Finished pre-execution spans (plan, admission wait — the SQL
    /// paths push a parse span in front) in lifecycle order; empty
    /// when the run's options disabled tracing.
    pub(crate) spans: Vec<SpanRecord>,
    /// When admission started — anchors the end-to-end latency the
    /// `mwtj_query_latency_ms` histogram observes and the profile
    /// root's wall time.
    pub(crate) started: std::time::Instant,
}

/// The shape of a query: its Display form with the caller-chosen query
/// name dropped — the plan-cache key prefix shared by every run of the
/// same query text.
pub(crate) fn query_shape(q: &MultiwayQuery) -> String {
    let display = q.to_string();
    display
        .split_once(": ")
        .map_or(display.as_str(), |(_, rest)| rest)
        .to_string()
}

/// What every run — success, fault, deadline, cancel, shed, disconnect
/// — must leave exactly as it found it: the DFS file list (no `__run`
/// intermediate, nothing extra) and the loaded catalog instances. Take
/// one with [`Engine::quiescence`] before a run and check it afterwards
/// with [`assert_quiescent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quiescence {
    files: Vec<String>,
    instances: Vec<(String, usize)>,
}

/// The run-end invariant: no processing unit is still reserved, and the
/// DFS and the catalog are exactly at `baseline`.
#[track_caller]
pub fn assert_quiescent(engine: &Engine, baseline: &Quiescence) {
    assert_eq!(
        engine.scheduler().stats().in_flight_units,
        0,
        "a finished run still holds processing units"
    );
    assert_eq!(
        &engine.quiescence(),
        baseline,
        "a finished run left DFS files or catalog instances behind"
    );
}

impl Engine {
    /// Build over a cluster configuration with default (uncalibrated)
    /// cost parameters and the default [`AdmissionPolicy`].
    pub fn new(config: ClusterConfig) -> Self {
        Self::with_admission_policy(config, AdmissionPolicy::default())
    }

    /// Build with an explicit admission policy (degradation floor,
    /// queue bound) for the scheduler serving this engine's `k_P`
    /// budget.
    pub fn with_admission_policy(config: ClusterConfig, policy: AdmissionPolicy) -> Self {
        let model = CostModel::new(config.clone(), CalibratedParams::default());
        let scheduler = Scheduler::with_policy(config.processing_units, policy);
        let engine = Engine {
            shared: Arc::new(Shared {
                id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
                cluster: Cluster::new(config),
                planner: RwLock::new(Arc::new(Planner::new(model))),
                catalog: RwLock::new(Catalog::default()),
                calibrated: Mutex::new(false),
                sample_cap: 512,
                scheduler,
                plan_cache: RwLock::new(HashMap::new()),
                cache_clock: AtomicU64::new(0),
                cache_cap: AtomicUsize::new(PLAN_CACHE_CAP),
                skip_stats: RwLock::new(HashMap::new()),
                metrics: Registry::new(),
                slow_query_ms: AtomicU64::new(0),
                columnar: AtomicBool::new(true),
                recorder: RwLock::new(Arc::new(FlightRecorder::new())),
            }),
        };
        // Weak: the registry lives inside the state the collector reads.
        let weak = Arc::downgrade(&engine.shared);
        engine.shared.metrics.set_collector(move |emit| {
            if let Some(shared) = weak.upgrade() {
                Engine { shared }.collect_pulled(emit);
            }
        });
        engine
    }

    /// The pulled series: what the scheduler, the plan cache and the
    /// catalog own, read from them at scrape time — a parked query shows
    /// at once, an unloaded relation's series vanish with it.
    fn collect_pulled(&self, emit: &mut Emit) {
        let st = self.shared.scheduler.stats();
        let (epoch, rows) = self.relation_rows();
        let gauge = |v: u64| MetricValue::Gauge(v as f64);
        for (name, value) in [
            (series::SCHEDULER_BUDGET, st.budget.into()),
            (series::SCHEDULER_IN_FLIGHT, st.in_flight_units.into()),
            (series::SCHEDULER_PEAK, st.peak_in_flight_units.into()),
            (series::QUEUE_DEPTH, st.queued_now.into()),
            (series::PLAN_CACHE_ENTRIES, self.plan_cache_len() as u64),
            (series::STATS_EPOCH, epoch),
        ] {
            emit(name, &[], gauge(value));
        }
        for (name, total) in [
            (series::SCHEDULER_ADMITTED, st.admitted),
            (series::SCHEDULER_DEGRADED, st.degraded),
            (series::SCHEDULER_QUEUED, st.queued),
            (series::SCHEDULER_SHED, st.shed),
        ] {
            emit(name, &[], MetricValue::Counter(total));
        }
        for row in &rows {
            let layout = row.layout.unwrap_or_default();
            for (name, value) in [
                (series::STORAGE_COLUMNAR, row.layout.is_some().into()),
                (series::STORAGE_COLUMNS, layout.columns as u64),
                (series::STORAGE_DICT_ENTRIES, layout.dict_entries),
                (series::STORAGE_DICT_BYTES, layout.dict_bytes),
                (series::STORAGE_NULL_VALUES, layout.null_count),
                (series::STORAGE_RESIDENT_BYTES, layout.resident_bytes),
                (series::STORAGE_ENCODED_BYTES, row.bytes),
            ] {
                emit(name, &[("relation", &row.name)], gauge(value));
            }
        }
    }

    /// The one catalog walk — the statistics epoch and every loaded
    /// instance's facts, sorted by name — that `sys.relations`,
    /// [`StorageStats`] and the pulled storage series are views of.
    fn relation_rows(&self) -> (u64, Vec<RelationRow>) {
        let catalog = self.shared.catalog.read();
        let mut rows: Vec<RelationRow> = catalog
            .entries
            .iter()
            .map(|(name, e)| {
                let blocks = &e.file.blocks;
                let zoned = blocks.iter().filter(|b| !b.zones.columns.is_empty());
                RelationRow {
                    name: name.clone(),
                    base: e.base.clone(),
                    rows: e.relation.len() as u64,
                    bytes: e.relation.encoded_bytes() as u64,
                    blocks: blocks.len() as u64,
                    zoned_blocks: zoned.count() as u64,
                    stats_epoch: catalog.epoch,
                    layout: e.relation.layout(),
                }
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        (catalog.epoch, rows)
    }

    /// Shorthand: default cluster with `k_P` processing units.
    pub fn with_units(k_p: u32) -> Self {
        Self::new(ClusterConfig::with_units(k_p))
    }

    /// Shorthand: default cluster with `k_P` units and an explicit
    /// admission policy (what serving front-ends construct).
    pub fn with_units_and_policy(k_p: u32, policy: AdmissionPolicy) -> Self {
        Self::with_admission_policy(ClusterConfig::with_units(k_p), policy)
    }

    /// The admission controller sharing the cluster's `k_P` budget
    /// across concurrent queries.
    pub fn scheduler(&self) -> &Scheduler {
        &self.shared.scheduler
    }

    /// The current statistics epoch (bumped whenever loaded data
    /// changes; cached plan estimates from older epochs are discarded).
    pub fn stats_epoch(&self) -> u64 {
        self.shared.catalog.read().epoch
    }

    /// Number of cached plan artifacts (inspection).
    pub fn plan_cache_len(&self) -> usize {
        self.shared.plan_cache.read().len()
    }

    /// One coherent snapshot of every engine-wide counter group —
    /// plan cache, zone skipping, faults, admission, storage — as a
    /// typed read of their homes: the metrics registry, the scheduler,
    /// the plan cache and one catalog walk. The server's `stats` and
    /// `status` replies serialise it.
    pub fn stats_snapshot(&self) -> EngineStats {
        let s = &self.shared;
        let total = |name| s.metrics.counter_value(name, &[]);
        let lookups = |result| {
            s.metrics
                .counter_value(series::PLAN_CACHE_LOOKUPS, &[("result", result)])
        };
        // Lookups are counted under the cache lock, so reading them
        // under it too makes `entries`, `hits` and `misses` describe
        // one moment.
        let plan_cache = {
            let cache = s.plan_cache.read();
            PlanCacheStats {
                entries: cache.len(),
                hits: lookups("hit"),
                misses: lookups("miss"),
                evictions: total(series::PLAN_CACHE_EVICTIONS),
                replans: total(series::PLAN_CACHE_REPLANS),
            }
        };
        let (epoch, rows) = self.relation_rows();
        let mut storage = StorageStats::default();
        for row in &rows {
            let layout = row.layout.unwrap_or_default();
            storage.relations += 1;
            storage.columnar_relations += u64::from(row.layout.is_some());
            storage.columns += layout.columns as u64;
            storage.dict_entries += layout.dict_entries;
            storage.dict_bytes += layout.dict_bytes;
            storage.null_values += layout.null_count;
            storage.resident_bytes += layout.resident_bytes;
            storage.encoded_bytes += row.bytes;
        }
        EngineStats {
            plan_cache,
            zone: ZoneSkipStats {
                blocks: total(series::ZONE_BLOCKS),
                blocks_pruned: total(series::ZONE_BLOCKS_PRUNED),
                pairs: total(series::ZONE_PAIRS),
                pairs_pruned: total(series::ZONE_PAIRS_PRUNED),
                rows: total(series::ZONE_ROWS),
                rows_pruned: total(series::ZONE_ROWS_PRUNED),
            },
            faults: FaultStats {
                attempts: total(series::TASK_ATTEMPTS),
                real_retries: total(series::TASK_RETRIES),
                panics_caught: total(series::TASK_PANICS),
                deadline_exceeded: s.metrics.counter_sum(series::DEADLINE_EXCEEDED),
            },
            scheduler: s.scheduler.stats(),
            last_admission_request: self.last_admission_request(),
            epoch,
            storage,
        }
    }

    /// The engine-local metrics registry: counters, gauges and
    /// histograms for every query's lifecycle, exposed by the server's
    /// `metrics` verb (which also writes its wire histograms here).
    /// Observation only: no plan, admission or execution decision reads
    /// it.
    pub fn metrics(&self) -> &Registry {
        &self.shared.metrics
    }

    /// Set the engine-wide slow-query threshold: any run whose
    /// end-to-end wall time reaches `ms` milliseconds logs one
    /// structured line to stderr (0 disables; a run's
    /// [`RunOptions::slow_query_ms`] overrides per query).
    pub fn set_slow_query_ms(&self, ms: u64) {
        self.shared.slow_query_ms.store(ms, Ordering::Relaxed);
    }

    /// The engine-wide slow-query threshold in milliseconds (0 = off).
    pub fn slow_query_threshold_ms(&self) -> u64 {
        self.shared.slow_query_ms.load(Ordering::Relaxed)
    }

    /// Toggle columnar relation storage for *future* loads (already
    /// loaded relations keep their layout). On by default. Off forces
    /// row-major storage — the differential suite and the smoke
    /// script's parity run use this; results are bit-identical either
    /// way, only the storage layout and host wall-clock change.
    pub fn set_columnar_storage(&self, on: bool) {
        self.shared.columnar.store(on, Ordering::Relaxed);
    }

    /// Whether future loads attach a columnar backing.
    pub fn columnar_storage(&self) -> bool {
        self.shared.columnar.load(Ordering::Relaxed)
    }

    /// Apply the engine's storage-layout policy to a freshly augmented
    /// relation: attach typed column vectors when columnar storage is
    /// on (a no-op for relations that already carry a backing, e.g.
    /// straight from CSV ingest), or strip them when it is off.
    fn apply_storage_layout(&self, augmented: Relation) -> Relation {
        if self.columnar_storage() {
            if augmented.columns().is_some() {
                augmented
            } else {
                augmented.with_columnar()
            }
        } else if augmented.columns().is_some() {
            augmented.without_columns()
        } else {
            augmented
        }
    }

    /// The flight recorder behind `sys.queries`/`sys.jobs`: the
    /// bounded, always-on ring of completed-run records (including
    /// refused, failed and cancelled runs) plus retained profiles of
    /// runs slower than the slow-query threshold.
    pub fn flight_recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.shared.recorder.read())
    }

    /// Replace the flight recorder with a fresh one holding at most
    /// `capacity` records (0 disables recording entirely — the
    /// observation-only differential test runs against this).
    /// Existing history is discarded.
    pub fn set_flight_capacity(&self, capacity: usize) {
        *self.shared.recorder.write() = Arc::new(FlightRecorder::with_capacity(capacity));
    }

    /// Units the most recent `Ours` admission requested from the
    /// scheduler — `plan.units` cold, the skip-discounted value on a
    /// statistics-warm run of a shape whose zone maps pruned. Zero
    /// until the first planned admission. Benches compare this across
    /// a cold/warm pair to show the Eq. 2 estimate shrinking.
    pub fn last_admission_request(&self) -> u32 {
        match self.shared.metrics.get(series::ADMISSION_LAST_REQUEST, &[]) {
            Some(MetricValue::Gauge(units)) => units as u32,
            _ => 0,
        }
    }

    /// The epoch-valid skip fraction recorded for a plan-cache key
    /// prefix, if any — what the Eq. 2 admission discount would apply
    /// on the next statistics-warm run of the same shape (inspection).
    pub fn recorded_skip_fraction(&self, key_prefix: &str) -> Option<f64> {
        let epoch = self.stats_epoch();
        self.shared
            .skip_stats
            .read()
            .get(key_prefix)
            .filter(|s| s.epoch == epoch)
            .map(|s| s.fraction)
    }

    /// Lower the plan-cache cap (tests only — exercising LRU eviction
    /// at the production cap would need a thousand distinct shapes).
    #[cfg(test)]
    pub(crate) fn set_plan_cache_cap(&self, cap: usize) {
        self.shared.cache_cap.store(cap.max(1), Ordering::Relaxed);
    }

    /// Fold one finished run's zone counters into the engine totals
    /// and, for plan-cached shapes, remember the observed skip fraction
    /// so the next admission of the same shape can discount its Eq. 2
    /// unit request. Only skipping-enabled runs record a fraction — a
    /// `+noskip` ablation would otherwise wipe a real observation.
    fn note_run_skipping(&self, run: &QueryRun, key_prefix: Option<&str>, epoch: u64) {
        let (blocks, blocks_pruned, pairs, pairs_pruned, rows, rows_pruned) = run.zone_totals();
        for (name, delta) in [
            (series::ZONE_BLOCKS, blocks),
            (series::ZONE_BLOCKS_PRUNED, blocks_pruned),
            (series::ZONE_PAIRS, pairs),
            (series::ZONE_PAIRS_PRUNED, pairs_pruned),
            (series::ZONE_ROWS, rows),
            (series::ZONE_ROWS_PRUNED, rows_pruned),
        ] {
            self.shared.metrics.counter_add(name, &[], delta);
        }
        if let Some(key) = key_prefix {
            if rows > 0 {
                let fraction = rows_pruned as f64 / rows as f64;
                self.shared
                    .skip_stats
                    .write()
                    .insert(key.to_string(), SkipStat { epoch, fraction });
            }
        }
    }

    /// The Eq. 2 unit request after the skip discount: if a previous
    /// run of this shape (same statistics epoch) pruned fraction `f` of
    /// its input rows, the shuffle and reduce work the estimate prices
    /// shrinks roughly with the surviving input, so request
    /// `ceil(units × (1 − f))` (never below one unit, discount capped
    /// at 95% as a safety margin). Admission packs the freed units into
    /// concurrent queries; the executed plan itself is unchanged.
    pub(crate) fn discounted_units(&self, key_prefix: &str, units: u32, epoch: u64) -> u32 {
        let f = self
            .shared
            .skip_stats
            .read()
            .get(key_prefix)
            .filter(|s| s.epoch == epoch)
            .map_or(0.0, |s| s.fraction);
        if f <= 0.0 {
            return units;
        }
        let f = f.min(0.95);
        ((f64::from(units)) * (1.0 - f)).ceil().max(1.0) as u32
    }

    /// A stable, process-unique identity for this engine — used by
    /// [`Prepared`](crate::Prepared) handles to notice they are being
    /// executed on a different engine than they were bound against
    /// (two unrelated engines' statistics epochs coincide trivially,
    /// and an allocation address could be reused by a later engine).
    pub(crate) fn engine_id(&self) -> u64 {
        self.shared.id
    }

    /// A session sharing this engine's state, with default run options.
    pub fn session(&self) -> Session {
        Session {
            shared: Arc::clone(&self.shared),
            defaults: RunOptions::default(),
        }
    }

    /// The underlying cluster (inspection; the DFS holds every loaded
    /// relation under its instance name).
    pub fn cluster(&self) -> &Cluster {
        &self.shared.cluster
    }

    /// A snapshot of the current planner (calibration swaps it).
    pub fn planner(&self) -> Arc<Planner> {
        Arc::clone(&self.shared.planner.read())
    }

    /// Statistics collected for a loaded relation instance.
    pub fn stats_of(&self, name: &str) -> Option<RelationStats> {
        let catalog = self.shared.catalog.read();
        catalog.entries.get(name).map(|e| (*e.stats).clone())
    }

    /// The loaded (rowid-augmented) relation under `name`.
    pub fn relation(&self, name: &str) -> Option<Arc<Relation>> {
        let catalog = self.shared.catalog.read();
        catalog.entries.get(name).map(|e| Arc::clone(&e.relation))
    }

    /// Every loaded instance as `(name, cardinality)`, sorted by name
    /// (catalog inspection for serving front-ends).
    pub fn loaded_instances(&self) -> Vec<(String, usize)> {
        let rows = self.relation_rows().1;
        rows.into_iter()
            .map(|r| (r.name, r.rows as usize))
            .collect()
    }

    /// The DFS file list and loaded instances right now — the baseline
    /// [`assert_quiescent`] compares against.
    pub fn quiescence(&self) -> Quiescence {
        Quiescence {
            files: self.shared.cluster.dfs().list(),
            instances: self.loaded_instances(),
        }
    }

    /// Run the §6.2 calibration sweep and swap in the fitted `p`/`q`.
    pub fn calibrate(&self) {
        let config = self.shared.cluster.config().clone();
        let params = Calibrator::quick(config.clone()).calibrate();
        let planner = Planner::new(CostModel::new(config, params));
        *self.shared.planner.write() = Arc::new(planner);
        *self.shared.calibrated.lock() = true;
        // A new cost model invalidates cached plan estimates.
        self.shared.catalog.write().epoch += 1;
    }

    /// Calibrate at most once per engine (the [`RunOptions::calibrated`]
    /// toggle).
    pub(crate) fn ensure_calibrated(&self) {
        let mut done = self.shared.calibrated.lock();
        if !*done {
            let config = self.shared.cluster.config().clone();
            let params = Calibrator::quick(config.clone()).calibrate();
            *self.shared.planner.write() = Arc::new(Planner::new(CostModel::new(config, params)));
            *done = true;
            self.shared.catalog.write().epoch += 1;
        }
    }

    /// Load a relation: append the implicit rowid column, upload to the
    /// DFS (replicated blocks), and run the sampling/statistics pass.
    ///
    /// This is an *administrative* operation: loading under a name that
    /// already exists replaces that catalog entry (and its binding),
    /// matching the legacy façade's reload semantics. Only
    /// [`Engine::load_alias_of`] refuses to rebind.
    pub fn load_relation(&self, rel: &Relation) -> LoadReport {
        let augmented = self.apply_storage_layout(augment_with_rid(rel));
        let mut rng = StdRng::seed_from_u64(0x57a7 ^ augmented.len() as u64);
        let stats = RelationStats::collect(&augmented, self.shared.sample_cap, &mut rng);
        let base = rel.name().to_string();
        self.register(augmented, stats, base)
    }

    /// Load the same data under another schema name (self-join
    /// instances `t1`, `t2`, … of one base table).
    ///
    /// Augmentation materialises one rowid-extended copy of `rel`'s
    /// rows per call (the rid column cannot be shared with rows that
    /// lack it); everything downstream of that copy shares storage.
    /// When the base is already loaded, prefer [`Engine::load_alias_of`],
    /// which shares the augmented rows and statistics outright.
    ///
    /// Like [`Engine::load_relation`], this is administrative and will
    /// replace an existing entry under `alias`.
    pub fn load_alias(&self, rel: &Relation, alias: &str) -> LoadReport {
        if rel.name() == alias {
            return self.load_relation(rel);
        }
        let augmented = self.apply_storage_layout(augment_with_rid(rel).rename(alias));
        let mut rng = StdRng::seed_from_u64(0x57a7 ^ augmented.len() as u64);
        let stats = RelationStats::collect(&augmented, self.shared.sample_cap, &mut rng);
        let base = rel.name().to_string();
        self.register(augmented, stats, base)
    }

    /// Alias an *already loaded* base relation: row storage and
    /// statistics are shared outright (no copy, no sampling pass);
    /// only the DFS upload of the instance file is priced, as each
    /// instance is a distinct DFS file on a real cluster.
    ///
    /// Idempotent: if `alias` is already bound to `base`, nothing
    /// happens and a zero-cost report is returned. Binding an alias
    /// that currently points at a *different* base is an
    /// [`EngineError::AliasConflict`] — rebinding under a running
    /// engine would hand concurrent queries the wrong data.
    pub fn load_alias_of(&self, base: &str, alias: &str) -> Result<LoadReport, EngineError> {
        // One write lock for check + upload + publish. Keeping the DFS
        // upload inside the critical section means a large alias load
        // briefly blocks catalog readers, but releasing the lock around
        // it would open a window where either the catalog names a DFS
        // file that does not exist yet, or a losing racer clobbers the
        // winner's DFS file after the conflict check. Alias loads are
        // rare administrative events — no query path comes through
        // here — so correctness wins.
        let mut catalog = self.shared.catalog.write();
        match catalog.entries.get(alias) {
            Some(bound) if bound.base == base => {
                return Ok(LoadReport {
                    upload_secs: 0.0,
                    sampling_secs: 0.0,
                })
            }
            Some(bound) => {
                return Err(EngineError::AliasConflict {
                    alias: alias.into(),
                    bound_to: bound.base.clone(),
                    requested: base.into(),
                })
            }
            None => {}
        }
        let entry = catalog
            .entries
            .get(base)
            .ok_or_else(|| EngineError::RelationNotLoaded { name: base.into() })?;
        let (entry, upload_secs) = self.alias_entry(entry, base, alias);
        catalog.entries.insert(alias.to_string(), entry);
        Ok(LoadReport {
            upload_secs,
            // Statistics are shared with the base; no sampling pass.
            sampling_secs: 0.0,
        })
    }

    /// The catalog entry for `alias` as an instance of `base`: rows and
    /// statistics are shared outright; the instance's own DFS file is
    /// sealed, uploaded (and priced) under the alias name.
    fn alias_entry(&self, of: &CatalogEntry, base: &str, alias: &str) -> (CatalogEntry, f64) {
        let config = self.shared.cluster.config();
        let relation = of.relation.rename(alias);
        let file = Arc::new(Dfs::seal(alias, &relation, config));
        let dfs = self.shared.cluster.dfs();
        let upload_secs = dfs.put_file(alias, Arc::clone(&file), config);
        let entry = CatalogEntry {
            relation: Arc::new(relation),
            stats: Arc::clone(&of.stats),
            base: base.to_string(),
            file,
        };
        (entry, upload_secs)
    }

    /// Upload `augmented` to the DFS, price the load, and publish it in
    /// the catalog bound to `base`.
    ///
    /// Reloading a name that already exists refreshes every alias
    /// bound to it (their rows and statistics re-share the new data
    /// and their DFS instance files are re-uploaded), so stale
    /// statistics cannot survive a reload; the statistics epoch is
    /// bumped, invalidating cached plan estimates. A run that already
    /// bound the previous entry keeps scanning the file it holds.
    fn register(&self, augmented: Relation, stats: RelationStats, base: String) -> LoadReport {
        let config = self.shared.cluster.config();
        let name = augmented.name().to_string();
        // The base's blocks are sealed exactly once, here; every query
        // over it shares them.
        let file = Arc::new(Dfs::seal(&name, &augmented, config));
        let dfs = self.shared.cluster.dfs();
        let mut upload_secs = dfs.put_file(&name, Arc::clone(&file), config);
        // Sampling pass: one sequential scan of a sample's worth of
        // blocks + histogram building; priced as reading the sampled
        // fraction plus a fixed index-build overhead per block.
        let hw = &config.hardware;
        let sampled_bytes = (self.shared.sample_cap as f64 * augmented.avg_row_bytes())
            .min(augmented.encoded_bytes() as f64);
        let sampling_secs =
            augmented.encoded_bytes() as f64 * hw.c1() * 0.25 + sampled_bytes / hw.disk_write_bps;
        let entry = CatalogEntry {
            relation: Arc::new(augmented),
            stats: Arc::new(stats),
            base,
            file,
        };
        let mut catalog = self.shared.catalog.write();
        // Refresh dependent aliases: anything bound to this name now
        // shares the new rows and statistics outright. This must also
        // run when the name was previously `unload`ed (the alias
        // bindings survive and would otherwise serve stale data
        // forever) — so the trigger is "dependents exist", not
        // "entry replaced".
        let dependents: Vec<String> = catalog
            .entries
            .iter()
            .filter(|(alias, e)| e.base == name && *alias != &name)
            .map(|(alias, _)| alias.clone())
            .collect();
        for alias in &dependents {
            let (refreshed, secs) = self.alias_entry(&entry, &name, alias);
            upload_secs += secs;
            catalog.entries.insert(alias.clone(), refreshed);
        }
        let replaced = catalog.entries.insert(name, entry).is_some();
        if replaced || !dependents.is_empty() {
            catalog.epoch += 1;
        }
        LoadReport {
            upload_secs,
            sampling_secs,
        }
    }

    /// Drop a loaded instance from the catalog and the DFS. Returns
    /// whether the name existed. Administrative: a query concurrently
    /// using the instance keeps its snapshotted rows, but new queries
    /// will fail to resolve the name.
    pub fn unload(&self, name: &str) -> bool {
        let mut catalog = self.shared.catalog.write();
        let existed = catalog.entries.remove(name).is_some();
        if existed {
            catalog.epoch += 1;
        }
        drop(catalog);
        self.shared.cluster.dfs().remove(name);
        existed
    }

    /// Execute `query` (built against the *base* schemas, without the
    /// rowid column) under `opts`, returning the result or a typed
    /// error — never panicking on unknown relations or plan failures.
    ///
    /// Every run is admission-controlled: the planner's cost estimate
    /// (Eq. 2) sizes the query's `k_P` slice, the [`Scheduler`]
    /// reserves it against the shared budget (queueing or degrading to
    /// a smaller-`k` replan when the cluster is oversubscribed), and
    /// the reservation is released when the run completes. The
    /// returned [`QueryRun`] carries the admission ticket and the
    /// granted units.
    pub fn run(&self, query: &MultiwayQuery, opts: &RunOptions) -> Result<QueryRun, EngineError> {
        if opts.wants_calibration() {
            self.ensure_calibrated();
        }
        let q = augment_query(query);
        let admitted = self.admit_for(&q, None, opts, None)?;
        self.execute_admitted(&admitted, &q, opts, None)
    }

    /// Resolve a query's relations into its [`Bindings`] — the one
    /// place a base relation is looked up by name. `from` is a SQL
    /// query's FROM clause: relation `i` binds the base `from[i].1`
    /// while its schema keeps the alias, so concurrent queries can bind
    /// one alias to different bases with nothing shared to conflict
    /// over. `None` is the identity binding of a hand-built query
    /// (schema name = catalog instance).
    ///
    /// The catalog is only read, and the guard is released before the
    /// caller executes: holding it across a multi-second run would
    /// stall every concurrent load.
    pub(crate) fn bind(
        &self,
        q: &MultiwayQuery,
        from: Option<&[(String, String)]>,
    ) -> Result<Bindings, EngineError> {
        let bases: Vec<String> = match from {
            Some(instances) => instances.iter().map(|(_, base)| base.clone()).collect(),
            None => q.schemas.iter().map(|s| s.name().to_string()).collect(),
        };
        // Each distinct `sys.` base is snapshot-materialised exactly
        // once, so a self-join (e.g. band-joining `sys.queries` with
        // itself) sees one consistent snapshot on both sides. Built
        // before the catalog guard is taken — `sys.relations` reads the
        // catalog itself.
        let mut sys: HashMap<&str, BoundRelation> = HashMap::new();
        for base in bases.iter().filter(|b| crate::sys::is_sys(b)) {
            if !sys.contains_key(base.as_str()) {
                sys.insert(base, self.sys_snapshot(base)?);
            }
        }
        let catalog = self.shared.catalog.read();
        let inputs = bases
            .iter()
            .map(|base| match sys.get(base.as_str()) {
                Some(snapshot) => Ok(snapshot.clone()),
                None => catalog
                    .entries
                    .get(base)
                    .map(CatalogEntry::bound)
                    .ok_or_else(|| EngineError::RelationNotLoaded { name: base.clone() }),
            })
            .collect::<Result<_, _>>()?;
        Ok(Bindings {
            inputs,
            bases,
            epoch: catalog.epoch,
        })
    }

    /// Price an (augmented) query and reserve its `k_P` slice: resolve
    /// its bindings ([`Engine::bind`], given the SQL FROM clause `from`
    /// if there is one), fetch or compute the plan artifact (shared
    /// plan cache, epoch-verified), and admit with its unit estimate and
    /// predicted makespan as the scheduler's SJF key. A degraded grant
    /// replans at the granted `k` before execution starts (cached per
    /// `k`, so repeated degradations of the same shape also skip
    /// planning).
    ///
    /// `shape` overrides the cache-key shape — the prepared-statement
    /// path passes its *template* shape (with `?` slots) so every
    /// execution of one statement shares a single plan entry across
    /// parameter bindings.
    pub(crate) fn admit_for(
        &self,
        q: &MultiwayQuery,
        from: Option<&[(String, String)]>,
        opts: &RunOptions,
        shape: Option<&str>,
    ) -> Result<Admitted, EngineError> {
        let started = std::time::Instant::now();
        let trace_id = next_trace_id();
        let traced = opts.tracing_enabled();
        let mut spans = Vec::new();
        let planner = self.planner();
        let bindings = self.bind(q, from)?;
        let epoch = bindings.epoch;
        let k_full = self.shared.cluster.config().processing_units;
        // The deadline clock starts here, before admission: a query
        // stuck in the admission queue past its deadline is refused
        // without ever running (the scheduler's wait is bounded on it).
        let cancel = opts.get_deadline_ms().map(CancelToken::with_timeout_ms);
        let deadline = cancel.as_ref().and_then(|c| c.deadline());
        // Introspection bypass: a query over any `sys.*` relation plans
        // directly — never through the plan cache, since each run
        // materialises a fresh snapshot the cached plan would outlive —
        // and executes on an admission-exempt zero-unit ticket, so
        // introspection still answers while the unit budget is
        // exhausted, the queue is full, or the scheduler is draining.
        if bindings.reads_sys() {
            return self.admit_sys(q, opts, planner, bindings, cancel, trace_id, started);
        }
        // Size the slice this query needs. The paper's planner packs
        // its jobs into a peak concurrent allotment we can price
        // exactly; the baselines are k_P-unaware and assume the whole
        // cluster (and carry no makespan estimate, so they queue behind
        // every estimated query under SJF). Baselines plan nothing, so
        // they carry no plan artifact either.
        match opts.get_method() {
            Method::Ours | Method::OursGrid => {
                let stats = BoundRelation::stats_of(&bindings.inputs);
                // The cache key is the query's *shape*: its Display
                // form with the caller-chosen query name dropped
                // (run_sql names every query "sql"/"sql<i>"/"server"),
                // so every run of the same text shares one entry — plus
                // the bases it binds.
                let key_prefix = match shape {
                    Some(shape) => bindings.key_prefix(shape),
                    None => bindings.key_prefix(&query_shape(q)),
                };
                let mut plan_span = Span::enter("plan");
                let (plan, cache_hit) =
                    self.plan_for(&planner, q, &stats, &key_prefix, k_full, epoch, false)?;
                // Statistics-warm discount: a shape whose zone maps
                // pruned fraction f of its input last run (same epoch)
                // requests a (1 − f)-scaled slice — the estimate's
                // shuffle/reduce work shrinks with the surviving rows,
                // so admission packs more queries into k_P.
                let requested = if opts.skipping_enabled() {
                    self.discounted_units(&key_prefix, plan.units, epoch)
                } else {
                    plan.units
                };
                plan_span.meta("cache", if cache_hit { "hit" } else { "miss" });
                plan_span.meta("units", requested);
                plan_span.meta("predicted_secs", format!("{:.6}", plan.predicted_secs()));
                let plan_record = plan_span.finish();
                self.shared.metrics.gauge_set(
                    series::ADMISSION_LAST_REQUEST,
                    &[],
                    f64::from(requested),
                );
                let predicted = plan.predicted_secs();
                let ticket =
                    self.admit_units(q, opts, trace_id, started, requested, predicted, deadline)?;
                let plan = if ticket.degraded() {
                    let (replanned, _) = self.plan_for(
                        &planner,
                        q,
                        &stats,
                        &key_prefix,
                        ticket.granted(),
                        epoch,
                        true,
                    )?;
                    replanned
                } else {
                    plan
                };
                let (ticket, wait_record) =
                    self.finish_admission(ticket, trace_id, requested, started, &plan_record);
                if traced {
                    spans.push(plan_record);
                    spans.push(wait_record);
                }
                Ok(Admitted {
                    planner,
                    bindings,
                    ticket,
                    plan: Some(plan),
                    key_prefix: Some(key_prefix),
                    cancel,
                    trace_id,
                    spans,
                    started,
                })
            }
            Method::YSmart | Method::Hive | Method::Pig => {
                let plan_record = SpanRecord::synthetic("plan").with_meta("cache", "none");
                let unpriced = f64::INFINITY;
                let ticket =
                    self.admit_units(q, opts, trace_id, started, k_full, unpriced, deadline)?;
                let (ticket, wait_record) =
                    self.finish_admission(ticket, trace_id, k_full, started, &plan_record);
                if traced {
                    spans.push(plan_record);
                    spans.push(wait_record);
                }
                Ok(Admitted {
                    planner,
                    bindings,
                    ticket,
                    plan: None,
                    key_prefix: None,
                    cancel,
                    trace_id,
                    spans,
                    started,
                })
            }
        }
    }

    /// Admission for a query that reads `sys.*` relations. The plan is
    /// computed directly from this run's snapshot statistics — the plan
    /// cache is bypassed in both directions (no lookup, no insert), so
    /// a plan over one snapshot can never be replayed against the next
    /// — and the ticket is an admission-exempt zero-unit grant from
    /// [`Scheduler::exempt`], so introspection works even when the
    /// cluster budget is fully committed.
    #[allow(clippy::too_many_arguments)]
    fn admit_sys(
        &self,
        q: &MultiwayQuery,
        opts: &RunOptions,
        planner: Arc<Planner>,
        bindings: Bindings,
        cancel: Option<CancelToken>,
        trace_id: u64,
        started: std::time::Instant,
    ) -> Result<Admitted, EngineError> {
        let traced = opts.tracing_enabled();
        let k_full = self.shared.cluster.config().processing_units;
        let mut spans = Vec::new();
        let plan = match opts.get_method() {
            Method::Ours | Method::OursGrid => {
                let mut plan_span = Span::enter("plan");
                let stats = BoundRelation::stats_of(&bindings.inputs);
                let plan = Arc::new(planner.plan_query(q, &stats, k_full)?);
                plan_span.meta("cache", "bypass");
                plan_span.meta("units", plan.units);
                plan_span.meta("predicted_secs", format!("{:.6}", plan.predicted_secs()));
                if traced {
                    spans.push(plan_span.finish());
                }
                Some(plan)
            }
            Method::YSmart | Method::Hive | Method::Pig => {
                if traced {
                    spans.push(SpanRecord::synthetic("plan").with_meta("cache", "bypass"));
                }
                None
            }
        };
        let mut ticket = self.shared.scheduler.exempt();
        ticket.set_trace_id(trace_id);
        if traced {
            spans.push(
                SpanRecord::synthetic("admission")
                    .with_meta("requested", 0u32)
                    .with_meta("granted", 0u32)
                    .with_meta("exempt", true),
            );
        }
        Ok(Admitted {
            planner,
            bindings,
            ticket,
            plan,
            key_prefix: None,
            cancel,
            trace_id,
            spans,
            started,
        })
    }

    /// The end of every run — finished, failed or refused: charge its
    /// outcome and enter it in the flight recorder.
    fn record_flight(&self, outcome: Outcome, record: impl FnOnce() -> FlightRecord) {
        let labels = [("outcome", outcome.as_str())];
        let m = &self.shared.metrics;
        m.counter_add(series::QUERY_OUTCOMES, &labels, 1);
        let recorder = self.flight_recorder();
        if recorder.is_enabled() {
            recorder.record(record());
        }
    }

    /// Reserve `requested` units through the scheduler. A refusal still
    /// leaves a trace before it is surfaced: its reason is counted and
    /// the run enters the flight recorder with a `shed` (queue full,
    /// shutdown) or `deadline` outcome and zero granted units.
    #[allow(clippy::too_many_arguments)]
    fn admit_units(
        &self,
        q: &MultiwayQuery,
        opts: &RunOptions,
        trace_id: u64,
        started: std::time::Instant,
        requested: u32,
        predicted_secs: f64,
        deadline: Option<std::time::Instant>,
    ) -> Result<Ticket, EngineError> {
        let scheduler = &self.shared.scheduler;
        let e = match scheduler.admit_with_cost_until(requested, predicted_secs, deadline) {
            Ok(ticket) => return Ok(ticket),
            Err(e) => e,
        };
        let (reason, outcome) = match &e {
            AdmissionError::QueueFull { .. } => ("queue_full", Outcome::Shed),
            AdmissionError::DeadlineExceeded => ("deadline", Outcome::Deadline),
            AdmissionError::ShuttingDown => ("shutdown", Outcome::Shed),
        };
        let m = &self.shared.metrics;
        m.counter_add(series::ADMISSION_REFUSED, &[("reason", reason)], 1);
        self.record_flight(outcome, || FlightRecord {
            trace_id,
            shape: query_shape(q),
            method: opts.get_method().as_str().to_string(),
            partition: opts.effective_partition().to_string(),
            requested_units: requested,
            granted_units: 0,
            queued: false,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            sim_secs: 0.0,
            rows_out: 0,
            skip_fraction: 0.0,
            attempts: 0,
            real_retries: 0,
            panics_caught: 0,
            outcome,
            ticket: 0,
            jobs: Vec::new(),
        });
        Err(e.into())
    }

    /// Post-admission bookkeeping shared by the planned and baseline
    /// branches: stamp the trace id on the ticket, finish the
    /// admission-wait span (wait = elapsed since `started` minus the
    /// plan span), and record the admission metrics.
    fn finish_admission(
        &self,
        mut ticket: Ticket,
        trace_id: u64,
        requested: u32,
        started: std::time::Instant,
        plan_record: &SpanRecord,
    ) -> (Ticket, SpanRecord) {
        ticket.set_trace_id(trace_id);
        let wait_ms = (started.elapsed().as_secs_f64() * 1e3 - plan_record.wall_ms).max(0.0);
        let record = SpanRecord {
            stage: "admission".to_string(),
            wall_ms: wait_ms,
            sim_secs: None,
            meta: vec![
                ("requested".to_string(), requested.to_string()),
                ("granted".to_string(), ticket.granted().to_string()),
                ("queued".to_string(), ticket.queued().to_string()),
            ],
            children: Vec::new(),
        };
        let m = &self.shared.metrics;
        m.observe(series::ADMISSION_WAIT_MS, &[], wait_ms);
        m.counter_add(series::UNITS_REQUESTED, &[], u64::from(requested));
        m.counter_add(series::UNITS_GRANTED, &[], u64::from(ticket.granted()));
        (ticket, record)
    }

    /// Execute under a held admission: an `Ours` run executes exactly
    /// the admitted plan artifact (no replanning — a degraded grant's
    /// reduced-`k` plan was already fetched at admission); baselines
    /// cascade as before. With a `sink`, the terminal job streams its
    /// output as row batches and the returned run's `output` is empty.
    pub(crate) fn execute_admitted(
        &self,
        admitted: &Admitted,
        q: &MultiwayQuery,
        opts: &RunOptions,
        sink: Option<mwtj_mapreduce::SinkSpec>,
    ) -> Result<QueryRun, EngineError> {
        let cluster = &self.shared.cluster;
        let method = opts.get_method();
        let inputs = &admitted.bindings.inputs;
        let mut exec_opts = opts.exec_options();
        exec_opts.ticket = admitted.ticket.id();
        exec_opts.sink = sink;
        exec_opts.cancel = admitted.cancel.clone();
        if admitted.ticket.degraded() {
            exec_opts.units = Some(admitted.ticket.granted());
        }
        let planner = &admitted.planner;
        let exec_span = Span::enter("execute");
        let run = match method {
            Method::Ours | Method::OursGrid => {
                let plan = admitted
                    .plan
                    .as_ref()
                    .expect("ours admission always carries a plan artifact");
                planner.try_execute_planned(q, plan, inputs, cluster, &exec_opts)
            }
            Method::YSmart => {
                planner.try_execute_baseline(Baseline::YSmart, q, inputs, cluster, &exec_opts)
            }
            Method::Hive => {
                planner.try_execute_baseline(Baseline::Hive, q, inputs, cluster, &exec_opts)
            }
            Method::Pig => {
                planner.try_execute_baseline(Baseline::Pig, q, inputs, cluster, &exec_opts)
            }
        };
        let method_label: [(&str, &str); 1] = [("method", method.as_str())];
        let m = &self.shared.metrics;
        // Every execution path — Engine::run, prepared execute, and the
        // streaming worker — funnels through here, so this is the one
        // place the engine-wide fault counters are charged.
        let mut run = match run {
            Ok(run) => {
                let totals = run.fault_totals();
                m.counter_add(series::TASK_ATTEMPTS, &[], totals.attempts);
                m.counter_add(series::TASK_RETRIES, &[], totals.real_retries);
                m.counter_add(series::TASK_PANICS, &[], totals.panics_caught);
                let examined = run.jobs.iter().filter_map(|j| j.reduce_examined).sum();
                m.counter_add(series::REDUCE_EXAMINED, &[], examined);
                let elided = run.jobs.iter().map(|j| j.shuffle_elided).sum();
                m.counter_add(series::SHUFFLE_ELIDED, &[], elided);
                run
            }
            Err(e) => {
                let outcome = match &e {
                    PlanError::Exec(ExecError::DeadlineExceeded) => Outcome::Deadline,
                    PlanError::Exec(ExecError::Cancelled) => Outcome::Cancelled,
                    _ => Outcome::Error,
                };
                // A cancel (a client dropping its stream) is not a
                // deadline kill; its own outcome counts it.
                if outcome == Outcome::Deadline {
                    m.counter_add(series::DEADLINE_EXCEEDED, &method_label, 1);
                }
                // A failed run is still a flight: it enters the
                // recorder with its outcome and zero output so
                // `sys.queries` shows errors, deadline kills and
                // cancellations next to successes.
                self.record_flight(outcome, || {
                    flight_record_for(admitted, q, opts, outcome, None)
                });
                return Err(e.into());
            }
        };
        if opts.skipping_enabled() {
            self.note_run_skipping(
                &run,
                admitted.key_prefix.as_deref(),
                admitted.bindings.epoch,
            );
        }
        // Observation only, below this line: trace-id stamping, the
        // profile tree, metrics and the slow-query log never feed back
        // into rows, plan choice, or the simulated Eq. 2–4 clocks (the
        // differential test holds runs bit-identical tracing on vs
        // off).
        run.trace_id = admitted.trace_id;
        for job in &mut run.jobs {
            job.trace_id = admitted.trace_id;
        }
        let wall_ms = admitted.started.elapsed().as_secs_f64() * 1e3;
        m.counter_add(series::QUERIES, &method_label, 1);
        m.observe(series::QUERY_LATENCY_MS, &method_label, wall_ms);
        m.gauge_set(series::SKIP_FRACTION, &[], run.skip_fraction());
        if opts.tracing_enabled() {
            let mut exec = exec_span.finish();
            exec.sim_secs = Some(run.sim_secs);
            exec = exec
                .with_meta("rows", run.output.len())
                .with_meta("granted_units", run.granted_units);
            for (i, job) in run.jobs.iter().enumerate() {
                exec.children.push(job_span(i, job));
            }
            let mut root = SpanRecord::synthetic("query")
                .with_meta("method", method)
                .with_sim_secs(run.sim_secs);
            root.wall_ms = wall_ms;
            root.children = admitted.spans.clone();
            root.children.push(exec);
            run.profile = Some(QueryProfile {
                trace_id: admitted.trace_id,
                root,
            });
        }
        self.record_flight(Outcome::Ok, || {
            flight_record_for(admitted, q, opts, Outcome::Ok, Some(&run))
        });
        let threshold = opts
            .get_slow_query_ms()
            .unwrap_or_else(|| self.shared.slow_query_ms.load(Ordering::Relaxed));
        if threshold > 0 && wall_ms >= threshold as f64 {
            m.counter_add(series::SLOW_QUERIES, &method_label, 1);
            // Slow runs keep their full profile tree in the recorder's
            // bounded retention ring, fetchable later by trace id.
            if let Some(profile) = &run.profile {
                self.flight_recorder().record_profile(profile.clone());
            }
            eprintln!(
                "slow-query trace={} method={} wall_ms={:.1} sim_secs={:.3} rows={} ticket={} plan={:?}",
                admitted.trace_id,
                method,
                wall_ms,
                run.sim_secs,
                run.output.len(),
                run.ticket,
                run.plan,
            );
        }
        Ok(run)
    }

    /// The plan artifact for `(key_prefix, k)` — from the shared plan
    /// cache when its epoch still matches (returned with `true`),
    /// otherwise freshly planned against `stats` and cached (returned
    /// with `false`). `replan` marks a reduced-`k` plan after
    /// admission degradation (counted as a replan when it has to be
    /// computed; a cached reduced-`k` entry is an ordinary hit).
    ///
    /// A miss plans *while holding the cache write lock* (single
    /// flight): N sessions cold-executing one statement do one
    /// planning pass, the other N−1 block briefly and then hit.
    /// Planning is sub-millisecond-to-few-millisecond on measured
    /// shapes (`BENCH_prepared.json`), orders of magnitude below the
    /// executions the lock's readers are about to start, so the
    /// serialization is cheap.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn plan_for(
        &self,
        planner: &Planner,
        q: &MultiwayQuery,
        stats: &[&RelationStats],
        key_prefix: &str,
        k: u32,
        epoch: u64,
        replan: bool,
    ) -> Result<(Arc<QueryPlan>, bool), EngineError> {
        let key = (key_prefix.to_string(), k);
        let touch = || self.shared.cache_clock.fetch_add(1, Ordering::Relaxed) + 1;
        let m = &self.shared.metrics;
        let count_lookup =
            |result| m.counter_add(series::PLAN_CACHE_LOOKUPS, &[("result", result)], 1);
        {
            let cache = self.shared.plan_cache.read();
            if let Some(hit) = cache.get(&key) {
                if hit.epoch == epoch {
                    hit.last_used.store(touch(), Ordering::Relaxed);
                    count_lookup("hit");
                    return Ok((Arc::clone(&hit.plan), true));
                }
            }
        }
        let mut cache = self.shared.plan_cache.write();
        // Double-check under the write lock: a concurrent planner may
        // have published this key while we waited.
        let stale = match cache.get(&key) {
            Some(hit) if hit.epoch == epoch => {
                hit.last_used.store(touch(), Ordering::Relaxed);
                count_lookup("hit");
                return Ok((Arc::clone(&hit.plan), true));
            }
            Some(_) => true,
            None => false,
        };
        count_lookup("miss");
        let plan = Arc::new(planner.plan_query(q, stats, k)?);
        // A stale-epoch entry refreshed in place is one eviction; at
        // the cap, so is each least-recently-used entry dropped (never
        // when refreshing an existing key).
        let mut evicted = u64::from(stale);
        let cap = self.shared.cache_cap.load(Ordering::Relaxed).max(1);
        if !cache.contains_key(&key) {
            while cache.len() >= cap {
                let victim = cache
                    .iter()
                    .min_by_key(|(_, v)| v.last_used.load(Ordering::Relaxed))
                    .map(|(k, _)| k.clone());
                match victim {
                    Some(v) => {
                        cache.remove(&v);
                        evicted += 1;
                    }
                    None => break,
                }
            }
        }
        cache.insert(
            key,
            CachedPlan {
                epoch,
                plan: Arc::clone(&plan),
                last_used: AtomicU64::new(touch()),
            },
        );
        m.counter_add(series::PLAN_CACHE_EVICTIONS, &[], evicted);
        // A stale refresh is by definition a replan of a known shape.
        m.counter_add(series::PLAN_CACHE_REPLANS, &[], u64::from(stale || replan));
        Ok((plan, false))
    }

    /// Execute several independent queries concurrently on a scoped
    /// thread pool (one worker per host core, capped at the batch
    /// size), all under the same options. Results are returned in input
    /// order; each query fails independently. Shared engine state is
    /// read-only during execution and every run's intermediate DFS
    /// files are tagged per run, so results are identical to sequential
    /// [`Engine::run`] calls.
    pub fn run_many(
        &self,
        queries: &[&MultiwayQuery],
        opts: &RunOptions,
    ) -> Vec<Result<QueryRun, EngineError>> {
        self.run_batch(queries.len(), opts, |i| self.run(queries[i], opts))
    }

    /// Run `n` independent jobs on a scoped thread pool (one worker per
    /// host core, capped at `n`), returning results in index order.
    fn run_batch(
        &self,
        n: usize,
        opts: &RunOptions,
        run: impl Fn(usize) -> Result<QueryRun, EngineError> + Sync,
    ) -> Vec<Result<QueryRun, EngineError>> {
        if opts.wants_calibration() {
            self.ensure_calibrated();
        }
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(n.max(1));
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<QueryRun, EngineError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    *slots[i].lock() = Some(run(i));
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner().unwrap_or_else(|| {
                    Err(EngineError::Exec(ExecError::BadRequest {
                        detail: "internal: query slot never executed".into(),
                    }))
                })
            })
            .collect()
    }

    /// Parse a SQL query against the loaded base relations. The
    /// returned [`ParsedQuery`] lists each FROM-clause `(alias, base)`
    /// instance. Parsing binds nothing; [`Engine::run_sql`] and
    /// [`Engine::execute`] bind the instances per run. To
    /// [`Engine::run`] `parsed.query` yourself, first load each alias
    /// as a catalog instance ([`Engine::load_alias_of`]).
    pub fn parse_sql(&self, name: &str, sql: &str) -> Result<ParsedQuery, EngineError> {
        let catalog = self.shared.catalog.read();
        let resolver = |base: &str| -> Option<Schema> {
            if crate::sys::is_sys(base) {
                return crate::sys::schema_of(base);
            }
            catalog
                .entries
                .get(base)
                .map(|e| base_schema(e.relation.schema()))
        };
        mwtj_query::parse_sql(name, sql, &resolver).map_err(EngineError::from)
    }

    /// Parse a statement — a query optionally prefixed with `EXPLAIN`
    /// or `EXPLAIN ANALYZE` — against the loaded base relations.
    /// Like [`Engine::parse_sql`], parsing binds nothing.
    pub fn parse_statement(
        &self,
        name: &str,
        sql: &str,
    ) -> Result<mwtj_query::Statement, EngineError> {
        let catalog = self.shared.catalog.read();
        let resolver = |base: &str| -> Option<Schema> {
            if crate::sys::is_sys(base) {
                return crate::sys::schema_of(base);
            }
            catalog
                .entries
                .get(base)
                .map(|e| base_schema(e.relation.schema()))
        };
        mwtj_query::parse_statement(name, sql, &resolver).map_err(EngineError::from)
    }

    /// Parse and execute a SQL query end-to-end with default options:
    /// parse → bind the FROM clause → plan → execute.
    ///
    /// Each run binds its FROM-clause aliases to their bases' sealed
    /// files in a per-query binding table, resolved once at admission
    /// under a catalog read lock: nothing enters the catalog or the
    /// DFS, so concurrent tenants can bind the same alias to
    /// *different* bases without an `AliasConflict` — the engine-global
    /// alias limit applies only to explicit [`Engine::load_alias_of`]
    /// bindings — and a run keeps the data it bound even if a base is
    /// reloaded meanwhile.
    pub fn run_sql(&self, sql: &str) -> Result<QueryRun, EngineError> {
        self.run_sql_with("sql", sql, &RunOptions::default())
    }

    /// [`Engine::run_sql`] with an explicit query name and options.
    ///
    /// Since the prepared-query refactor this is a thin composition of
    /// the lifecycle stages — parse ([`Engine::prepare_sql`]) then
    /// execute ([`Engine::execute`]) with no parameters — so ad-hoc SQL
    /// shares the plan cache with prepared statements of the same text:
    /// the second ad-hoc run of a query skips planning entirely.
    pub fn run_sql_with(
        &self,
        name: &str,
        sql: &str,
        opts: &RunOptions,
    ) -> Result<QueryRun, EngineError> {
        let prepared = self.prepare_sql(name, sql)?;
        self.execute(&prepared, &[], opts)
    }

    /// Parse and execute several SQL queries concurrently (each as
    /// [`Engine::run_sql_with`] would, named `sql<i>`). Results come
    /// back in input order; a query that fails to parse fails alone,
    /// and two queries binding the same alias to different bases do
    /// not conflict.
    pub fn run_sql_many(
        &self,
        sqls: &[&str],
        opts: &RunOptions,
    ) -> Vec<Result<QueryRun, EngineError>> {
        self.run_batch(sqls.len(), opts, |i| {
            self.run_sql_with(&format!("sql{i}"), sqls[i], opts)
        })
    }

    /// One query's snapshot of a `sys.` relation as a bound input: rows
    /// materialised from live engine state, sampled and sealed into
    /// blocks like any load, but never entering the catalog, the DFS or
    /// the metrics registry — it lives exactly as long as the run's
    /// bindings.
    fn sys_snapshot(&self, base: &str) -> Result<BoundRelation, EngineError> {
        let rel = augment_with_rid(&self.sys_relation(base)?);
        let mut rng = StdRng::seed_from_u64(0x5105 ^ rel.len() as u64);
        let stats = RelationStats::collect(&rel, self.shared.sample_cap, &mut rng);
        let file = Dfs::seal(base, &rel, self.shared.cluster.config());
        Ok(BoundRelation {
            stats: Arc::new(stats),
            file: Arc::new(file),
        })
    }

    /// Materialise one `sys.` relation from live engine state — the
    /// snapshot behind one query's view of the system catalog.
    fn sys_relation(&self, base: &str) -> Result<Relation, EngineError> {
        let rel = match base {
            "sys.queries" => crate::sys::queries_relation(&self.flight_recorder().all()),
            "sys.jobs" => crate::sys::jobs_relation(&self.flight_recorder().all()),
            "sys.metrics" => crate::sys::metrics_relation(&self.shared.metrics.series()),
            "sys.scheduler" => crate::sys::scheduler_relation(&self.shared.scheduler.stats()),
            "sys.relations" => crate::sys::relations_relation(&self.relation_rows().1),
            _ => {
                return Err(EngineError::RelationNotLoaded {
                    name: base.to_string(),
                })
            }
        };
        Ok(rel)
    }

    /// Single-threaded ground truth for `query` over the loaded data.
    pub fn oracle(&self, query: &MultiwayQuery) -> Result<Vec<Tuple>, EngineError> {
        let q = augment_query(query);
        // Snapshot the `Arc`s and release the guard before the
        // CPU-heavy nested-loop join, as in [`Engine::run`].
        let arcs: Vec<Arc<Relation>> = {
            let catalog = self.shared.catalog.read();
            q.schemas
                .iter()
                .map(|s| {
                    let entry = catalog.entries.get(s.name());
                    entry.map(|e| Arc::clone(&e.relation)).ok_or_else(|| {
                        EngineError::RelationNotLoaded {
                            name: s.name().to_string(),
                        }
                    })
                })
                .collect::<Result<_, _>>()?
        };
        let rels: Vec<&Relation> = arcs.iter().map(|a| a.as_ref()).collect();
        Ok(oracle_join(&q, &rels))
    }
}

/// A cheap, cloneable query handle over a shared [`Engine`], carrying
/// per-session default [`RunOptions`]. Sessions are `Send`, so every
/// connection of a multi-user server can hold its own.
#[derive(Clone)]
pub struct Session {
    shared: Arc<Shared>,
    defaults: RunOptions,
}

impl Session {
    /// Replace this session's default options.
    pub fn with_options(mut self, defaults: RunOptions) -> Self {
        self.defaults = defaults;
        self
    }

    /// This session's default options.
    pub fn options(&self) -> &RunOptions {
        &self.defaults
    }

    /// The engine this session serves from.
    pub fn engine(&self) -> Engine {
        Engine {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Execute `query` under `opts` (ignoring the session defaults).
    pub fn run(&self, query: &MultiwayQuery, opts: &RunOptions) -> Result<QueryRun, EngineError> {
        self.engine().run(query, opts)
    }

    /// Execute `query` under the session's default options.
    pub fn query(&self, query: &MultiwayQuery) -> Result<QueryRun, EngineError> {
        self.engine().run(query, &self.defaults)
    }

    /// Parse and execute a SQL string under the session's default
    /// options.
    pub fn run_sql(&self, sql: &str) -> Result<QueryRun, EngineError> {
        self.engine().run_sql_with("sql", sql, &self.defaults)
    }

    /// Single-threaded ground truth over the engine's loaded data.
    pub fn oracle(&self, query: &MultiwayQuery) -> Result<Vec<Tuple>, EngineError> {
        self.engine().oracle(query)
    }
}

/// Rebuild the query against the rowid-augmented schemas; if the
/// user projected nothing, project every *base* column so the
/// hidden rowids do not leak into results.
pub(crate) fn augment_query(query: &MultiwayQuery) -> MultiwayQuery {
    let schemas: Vec<Schema> = query
        .schemas
        .iter()
        .map(|s| {
            if s.index_of(RID_COLUMN).is_ok() {
                s.clone()
            } else {
                augment_schema(s)
            }
        })
        .collect();
    let projection = if query.projection.is_empty() {
        let mut all = Vec::new();
        for (r, s) in query.schemas.iter().enumerate() {
            for c in 0..s.arity() {
                if s.fields()[c].name != RID_COLUMN {
                    all.push((r, c));
                }
            }
        }
        all
    } else {
        query.projection.clone()
    };
    MultiwayQuery {
        schemas,
        conditions: query.conditions.clone(),
        projection,
        name: query.name.clone(),
    }
}

/// Append the rowid column to a schema.
fn augment_schema(schema: &Schema) -> Schema {
    let mut fields: Vec<Field> = schema.fields().to_vec();
    fields.push(Field::new(RID_COLUMN, DataType::Int));
    Schema::new(schema.name(), fields)
}

/// The schema without the rowid column (what SQL queries resolve
/// against).
fn base_schema(schema: &Schema) -> Schema {
    let fields: Vec<Field> = schema
        .fields()
        .iter()
        .filter(|f| f.name != RID_COLUMN)
        .cloned()
        .collect();
    Schema::new(schema.name(), fields)
}

/// Append per-row unique ids to a relation.
fn augment_with_rid(rel: &Relation) -> Relation {
    if rel.schema().index_of(RID_COLUMN).is_ok() {
        return rel.clone();
    }
    let schema = augment_schema(rel.schema());
    let rows: Vec<Tuple> = rel
        .rows()
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut v = row.values().to_vec();
            v.push(Value::Int(i as i64));
            Tuple::new(v)
        })
        .collect();
    Relation::from_rows_unchecked(schema, rows)
}

/// The flight-recorder entry for one finished (or failed) execution,
/// assembled read-only from the admission context and the run result.
/// `run` is `None` on the failure path — the record then carries zero
/// output and no jobs, only the outcome and admission facts.
fn flight_record_for(
    admitted: &Admitted,
    q: &MultiwayQuery,
    opts: &RunOptions,
    outcome: Outcome,
    run: Option<&QueryRun>,
) -> FlightRecord {
    let ticket = &admitted.ticket;
    let (sim_secs, rows_out, skip_fraction, totals, jobs) = match run {
        Some(run) => (
            run.sim_secs,
            run.output.len() as u64,
            run.skip_fraction(),
            run.fault_totals(),
            run.jobs.iter().map(job_record).collect(),
        ),
        None => (
            0.0,
            0,
            0.0,
            mwtj_planner::FaultTotals::default(),
            Vec::new(),
        ),
    };
    FlightRecord {
        trace_id: admitted.trace_id,
        shape: query_shape(q),
        method: opts.get_method().as_str().to_string(),
        partition: opts.effective_partition().to_string(),
        requested_units: ticket.desired(),
        granted_units: ticket.granted(),
        queued: ticket.queued(),
        wall_ms: admitted.started.elapsed().as_secs_f64() * 1e3,
        sim_secs,
        rows_out,
        skip_fraction,
        attempts: totals.attempts,
        real_retries: totals.real_retries,
        panics_caught: totals.panics_caught,
        outcome,
        ticket: ticket.id(),
        jobs,
    }
}

/// One job's flight-recorder line, condensed from its [`JobMetrics`].
fn job_record(m: &JobMetrics) -> JobRecord {
    JobRecord {
        name: m.name.clone(),
        units: m.units,
        map_tasks: m.map_tasks,
        reduce_tasks: m.reduce_tasks,
        input_records: m.input_records,
        output_records: m.output_records,
        shuffle_bytes: m.map_output_bytes,
        candidates: m.reduce_candidates,
        examined: m.reduce_examined,
        elided: m.shuffle_elided,
        sim_secs: m.sim_total_secs,
        real_secs: m.real_secs,
        skip_fraction: m.skip_fraction(),
        attempts: u64::from(m.map_attempts) + u64::from(m.reduce_attempts),
        real_retries: u64::from(m.real_map_retries) + u64::from(m.real_reduce_retries),
        panics_caught: u64::from(m.panics_caught),
    }
}

/// A per-job profile node reconstructed from one [`JobMetrics`]: the
/// simulated map/shuffle/reduce phase durations are derived from the
/// recorded phase-end clocks (the shuffle overlaps the map as in the
/// paper's Fig. 3, so each phase is charged its tail past the
/// previous phase's end); the wall widths are the job's recorded
/// host-clock phase split. Nothing is measured here — so building the
/// profile cannot perturb the run.
fn job_span(index: usize, m: &JobMetrics) -> SpanRecord {
    let map_secs = m.sim_map_end_secs;
    let shuffle_secs = (m.sim_shuffle_end_secs - m.sim_map_end_secs).max(0.0);
    let reduce_secs = (m.sim_total_secs - m.sim_shuffle_end_secs.max(m.sim_map_end_secs)).max(0.0);
    let mut job = SpanRecord::synthetic(&format!("job{index}"))
        .with_sim_secs(m.sim_total_secs)
        .with_meta("name", &m.name)
        .with_meta("units", m.units)
        .with_meta("output_rows", m.output_records);
    if m.real_map_retries + m.real_reduce_retries > 0 {
        job = job.with_meta("retries", m.real_map_retries + m.real_reduce_retries);
    }
    if m.panics_caught > 0 {
        job = job.with_meta("panics", m.panics_caught);
    }
    let mut map = SpanRecord::synthetic(&format!("job{index}/map"))
        .with_sim_secs(map_secs)
        .with_meta("tasks", m.map_tasks)
        .with_meta("input_rows", m.input_records);
    if m.zone_blocks > 0 {
        map = map.with_meta("skipped_blocks", m.zone_blocks_pruned);
    }
    job.children.push(map);
    job.children.push(
        SpanRecord::synthetic(&format!("job{index}/shuffle"))
            .with_sim_secs(shuffle_secs)
            .with_meta("bytes", m.map_output_bytes),
    );
    // `candidates` is the priced work (the simulated clock's);
    // `examined`, where the job counts it, what the host visited;
    // `elided`, the shuffle records priced but never moved.
    let mut reduce = SpanRecord::synthetic(&format!("job{index}/reduce"))
        .with_sim_secs(reduce_secs)
        .with_meta("tasks", m.reduce_tasks)
        .with_meta("candidates", m.reduce_candidates);
    if let Some(examined) = m.reduce_examined {
        reduce = reduce.with_meta("examined", examined);
    }
    reduce = reduce.with_meta("elided", m.shuffle_elided);
    job.children.push(reduce);
    job.wall_ms = m.real_secs * 1e3;
    let phases = [m.real_map_secs, m.real_shuffle_secs, m.real_reduce_secs];
    for (phase, secs) in job.children.iter_mut().zip(phases) {
        phase.wall_ms = secs * 1e3;
    }
    job
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwtj_join::oracle::canonicalize;
    use mwtj_query::{QueryBuilder, ThetaOp};
    use mwtj_storage::tuple;
    use rand::Rng;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn engine_and_session_are_shareable() {
        assert_send_sync::<Engine>();
        assert_send_sync::<Session>();
    }

    fn random_rel(name: &str, n: usize, seed: u64, domain: i64) -> Relation {
        let schema = Schema::from_pairs(name, &[("a", DataType::Int), ("b", DataType::Int)]);
        let mut rng = StdRng::seed_from_u64(seed);
        Relation::from_rows_unchecked(
            schema,
            (0..n)
                .map(|_| tuple![rng.gen_range(0..domain), rng.gen_range(0..domain)])
                .collect(),
        )
    }

    fn two_rel_engine() -> (Engine, MultiwayQuery) {
        let engine = Engine::with_units(8);
        let r = random_rel("r", 60, 1, 20);
        let s = random_rel("s", 50, 2, 20);
        let _ = engine.load_relation(&r);
        let _ = engine.load_relation(&s);
        let q = QueryBuilder::new("q")
            .relation(r.schema().clone())
            .relation(s.schema().clone())
            .join("r", "a", ThetaOp::Le, "s", "a")
            .build()
            .unwrap();
        (engine, q)
    }

    #[test]
    fn unknown_relation_is_a_typed_error_not_a_panic() {
        let engine = Engine::with_units(4);
        let r = random_rel("r", 10, 1, 5);
        let q = QueryBuilder::new("q")
            .relation(r.schema().clone())
            .relation(Schema::from_pairs("ghost", &[("a", DataType::Int)]))
            .join("r", "a", ThetaOp::Eq, "ghost", "a")
            .build()
            .unwrap();
        let _ = engine.load_relation(&r);
        match engine.run(&q, &RunOptions::default()) {
            Err(EngineError::RelationNotLoaded { name }) => assert_eq!(name, "ghost"),
            other => panic!("expected RelationNotLoaded, got {other:?}"),
        }
        match engine.oracle(&q) {
            Err(EngineError::RelationNotLoaded { name }) => assert_eq!(name, "ghost"),
            other => panic!("expected RelationNotLoaded, got {other:?}"),
        }
    }

    #[test]
    fn all_methods_agree_with_oracle_via_options() {
        let (engine, q) = two_rel_engine();
        let want = canonicalize(engine.oracle(&q).unwrap());
        for m in Method::ALL {
            let run = engine.run(&q, &RunOptions::from(m)).unwrap();
            assert_eq!(canonicalize(run.output.into_rows()), want, "{m}");
        }
    }

    #[test]
    fn alias_shares_rows_with_base() {
        let engine = Engine::with_units(4);
        let base = random_rel("calls", 40, 3, 10);
        let _ = engine.load_relation(&base);
        let rep = engine.load_alias_of("calls", "t1").unwrap();
        assert!(rep.total_secs() > 0.0);
        let a = engine.relation("calls").unwrap();
        let b = engine.relation("t1").unwrap();
        // Same row storage, different schema names.
        assert!(std::ptr::eq(a.rows().as_ptr(), b.rows().as_ptr()));
        assert_eq!(b.name(), "t1");
        assert!(engine.stats_of("t1").is_some());
        // Aliasing an unloaded base errors.
        assert!(matches!(
            engine.load_alias_of("nope", "t2"),
            Err(EngineError::RelationNotLoaded { .. })
        ));
    }

    #[test]
    fn load_reports_costs_and_registers_stats() {
        let engine = Engine::with_units(8);
        let r = random_rel("r", 5_000, 1, 100);
        let rep = engine.load_relation(&r);
        assert!(rep.upload_secs > 0.0);
        assert!(rep.sampling_secs > 0.0);
        assert!(rep.total_secs() > rep.upload_secs);
        let st = engine.stats_of("r").unwrap();
        assert_eq!(st.cardinality, 5_000);
        // rid column present in stats.
        assert!(st.column(RID_COLUMN).is_some());
    }

    #[test]
    fn rids_do_not_leak_into_default_projection() {
        let engine = Engine::with_units(8);
        let r = random_rel("r", 30, 5, 10);
        let s = random_rel("s", 30, 6, 10);
        let _ = engine.load_relation(&r);
        let _ = engine.load_relation(&s);
        let q = QueryBuilder::new("q")
            .relation(r.schema().clone())
            .relation(s.schema().clone())
            .join("r", "a", ThetaOp::Eq, "s", "a")
            .build()
            .unwrap();
        let run = engine.run(&q, &RunOptions::default()).unwrap();
        // Output arity = 2 + 2 base columns, no rids.
        assert_eq!(run.output.schema().arity(), 4);
        assert!(run
            .output
            .schema()
            .fields()
            .iter()
            .all(|f| !f.name.contains(RID_COLUMN)));
    }

    #[test]
    fn per_run_fault_plans_do_not_change_results() {
        let (engine, q) = two_rel_engine();
        let clean = engine.run(&q, &RunOptions::default()).unwrap();
        let faulty = engine
            .run(
                &q,
                &RunOptions::new().fault_plan(mwtj_mapreduce::FaultPlan::with_probability(0.4, 99)),
            )
            .unwrap();
        assert_eq!(
            canonicalize(clean.output.into_rows()),
            canonicalize(faulty.output.into_rows())
        );
        // The reruns cost simulated time.
        assert!(faulty.sim_secs >= clean.sim_secs);
    }

    #[test]
    fn calibrated_option_swaps_model_once() {
        let (engine, q) = two_rel_engine();
        let before = Arc::as_ptr(&engine.planner());
        let opts = RunOptions::new().calibrated(true);
        engine.run(&q, &opts).unwrap();
        let after = engine.planner();
        assert_ne!(before, Arc::as_ptr(&after), "calibration swaps planner");
        assert!(!after.model().params().observations.is_empty());
        engine.run(&q, &opts).unwrap();
        assert_eq!(
            Arc::as_ptr(&after),
            Arc::as_ptr(&engine.planner()),
            "second calibrated run reuses the fitted model"
        );
    }

    #[test]
    fn run_reports_admission_and_respects_budget() {
        let (engine, q) = two_rel_engine();
        let run = engine.run(&q, &RunOptions::default()).unwrap();
        assert!(run.ticket > 0, "runs are admission-controlled");
        assert!(run.granted_units >= 1 && run.granted_units <= 8);
        assert!(run.jobs.iter().all(|j| j.ticket == run.ticket));
        let st = engine.scheduler().stats();
        assert_eq!(st.in_flight_units, 0, "ticket released after the run");
        assert!(st.peak_in_flight_units <= st.budget);
        assert_eq!(st.admitted, 1);
    }

    /// Eight concurrent queries bind the same aliases `t1`/`t2` to
    /// *different* bases — an engine-global alias registry would refuse
    /// half of them with `AliasConflict`; per-query bindings share
    /// nothing to conflict over.
    #[test]
    fn sql_aliases_bind_per_query() {
        let engine = Engine::with_units(8);
        let r = random_rel("r", 40, 1, 12);
        let s = random_rel("s", 40, 2, 12);
        let _ = engine.load_relation(&r);
        let _ = engine.load_relation(&s);
        let baseline = engine.quiescence();
        let oracle = |left: &Relation, right: &Relation| {
            let q = QueryBuilder::new("q")
                .relation(left.schema().clone())
                .relation(right.schema().clone())
                .join(left.name(), "a", ThetaOp::Eq, right.name(), "a")
                .project(left.name(), "a")
                .build()
                .unwrap();
            canonicalize(engine.oracle(&q).unwrap())
        };
        let cases = [
            (
                "SELECT t1.a FROM r t1, s t2 WHERE t1.a = t2.a",
                oracle(&r, &s),
            ),
            (
                "SELECT t1.a FROM s t1, r t2 WHERE t1.a = t2.a",
                oracle(&s, &r),
            ),
        ];
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for i in 0..8 {
                let (engine, barrier, (sql, want)) = (&engine, &barrier, &cases[i % 2]);
                scope.spawn(move || {
                    barrier.wait();
                    let run = engine.run_sql(sql).unwrap();
                    // The schema carries the query's own alias.
                    assert_eq!(run.output.schema().fields()[0].name, "t1.a");
                    assert_eq!(&canonicalize(run.output.into_rows()), want, "{sql}");
                });
            }
        });
        // Shape-identical queries over *different* bases must not share
        // one plan (the key includes the base bindings).
        assert_eq!(engine.plan_cache_len(), 2);
        // The aliases never became catalog instances.
        assert!(engine.relation("t1").is_none());
        assert_quiescent(&engine, &baseline);
    }

    #[test]
    fn concurrent_sql_tenants_can_reuse_aliases() {
        let engine = Engine::with_units(8);
        let r = random_rel("r", 50, 3, 15);
        let s = random_rel("s", 45, 4, 15);
        let _ = engine.load_relation(&r);
        let _ = engine.load_relation(&s);
        let sql_a = "SELECT t1.a FROM r t1, s t2 WHERE t1.a <= t2.a";
        let sql_b = "SELECT t1.a FROM s t1, r t2 WHERE t1.a < t2.a";
        let results = engine.run_sql_many(&[sql_a, sql_b, sql_a, sql_b], &RunOptions::default());
        for res in &results {
            assert!(res.is_ok(), "{res:?}");
        }
        let a0 = canonicalize(results[0].as_ref().unwrap().output.rows().to_vec());
        let a2 = canonicalize(results[2].as_ref().unwrap().output.rows().to_vec());
        assert_eq!(a0, a2, "same SQL twice gives identical results");
    }

    #[test]
    fn reload_refreshes_alias_stats_and_invalidates_plan_cache() {
        let engine = Engine::with_units(8);
        let r = random_rel("r", 60, 5, 20);
        let s = random_rel("s", 50, 6, 20);
        let _ = engine.load_relation(&r);
        let _ = engine.load_relation(&s);
        let _ = engine.load_alias_of("r", "t1").unwrap();
        assert_eq!(engine.stats_of("t1").unwrap().cardinality, 60);
        // A run populates the admission plan cache.
        let q = QueryBuilder::new("q")
            .relation(r.schema().clone())
            .relation(s.schema().clone())
            .join("r", "a", ThetaOp::Le, "s", "a")
            .build()
            .unwrap();
        engine.run(&q, &RunOptions::default()).unwrap();
        assert_eq!(engine.plan_cache_len(), 1);
        let epoch = engine.stats_epoch();
        // Reload `r` with different data: alias stats must follow and
        // the epoch bump must invalidate the cached estimate.
        let r2 = random_rel("r", 200, 7, 20);
        let _ = engine.load_relation(&r2);
        assert!(engine.stats_epoch() > epoch);
        assert_eq!(engine.stats_of("r").unwrap().cardinality, 200);
        assert_eq!(
            engine.stats_of("t1").unwrap().cardinality,
            200,
            "alias stats must not survive a reload of their base"
        );
        // Alias rows re-share the reloaded base's storage.
        let base = engine.relation("r").unwrap();
        let alias = engine.relation("t1").unwrap();
        assert!(std::ptr::eq(base.rows().as_ptr(), alias.rows().as_ptr()));
        // Re-running replans (epoch mismatch) and still agrees with the
        // oracle over the new data.
        let want = canonicalize(engine.oracle(&q).unwrap());
        let run = engine.run(&q, &RunOptions::default()).unwrap();
        assert_eq!(canonicalize(run.output.into_rows()), want);
    }

    #[test]
    fn reload_after_unload_still_refreshes_dependent_aliases() {
        let engine = Engine::with_units(4);
        let r = random_rel("r", 40, 21, 10);
        let _ = engine.load_relation(&r);
        let _ = engine.load_alias_of("r", "t1").unwrap();
        assert!(engine.unload("r"));
        // The alias binding survives the unload (snapshot semantics)…
        assert_eq!(engine.stats_of("t1").unwrap().cardinality, 40);
        // …but a reload of the base must still reach it.
        let r2 = random_rel("r", 150, 22, 10);
        let _ = engine.load_relation(&r2);
        assert_eq!(
            engine.stats_of("t1").unwrap().cardinality,
            150,
            "alias went stale across unload + reload"
        );
        let base = engine.relation("r").unwrap();
        let alias = engine.relation("t1").unwrap();
        assert!(std::ptr::eq(base.rows().as_ptr(), alias.rows().as_ptr()));
    }

    #[test]
    fn unload_removes_instance_and_bumps_epoch() {
        let engine = Engine::with_units(4);
        let r = random_rel("r", 10, 8, 5);
        let _ = engine.load_relation(&r);
        let epoch = engine.stats_epoch();
        assert!(engine.unload("r"));
        assert!(!engine.unload("r"));
        assert!(engine.stats_epoch() > epoch);
        assert!(engine.relation("r").is_none());
        assert!(engine.cluster().dfs().get("r").is_none());
    }

    #[test]
    fn plan_cache_lru_evicts_cold_shapes_not_hot_ones() {
        let (engine, _) = two_rel_engine();
        engine.set_plan_cache_cap(2);
        let mk = |op| {
            QueryBuilder::new("q")
                .relation(engine.relation("r").unwrap().schema().clone())
                .relation(engine.relation("s").unwrap().schema().clone())
                .join("r", "a", op, "s", "a")
                .build()
                .unwrap()
        };
        let (q1, q2, q3) = (mk(ThetaOp::Le), mk(ThetaOp::Lt), mk(ThetaOp::Ge));
        let opts = RunOptions::default();
        engine.run(&q1, &opts).unwrap();
        engine.run(&q2, &opts).unwrap();
        // Touch q1 so q2 is the least-recently-used entry.
        engine.run(&q1, &opts).unwrap();
        let before = engine.stats_snapshot().plan_cache;
        engine.run(&q3, &opts).unwrap();
        let after = engine.stats_snapshot().plan_cache;
        // Exactly one entry was evicted to admit q3 — not a full clear.
        assert!(after.entries <= 2);
        assert_eq!(after.evictions, before.evictions + 1);
        // One store: the `metrics` door lists the same eviction.
        let line = format!("{} {}\n", series::PLAN_CACHE_EVICTIONS, after.evictions);
        assert!(engine.metrics().render_text().contains(&line));
        // The hot shape survived: re-running q1 hits without planning.
        engine.run(&q1, &opts).unwrap();
        let warm = engine.stats_snapshot().plan_cache;
        assert_eq!(warm.misses, after.misses);
        assert!(warm.hits > after.hits);
        // The evicted cold shape must re-plan.
        engine.run(&q2, &opts).unwrap();
        assert!(engine.stats_snapshot().plan_cache.misses > warm.misses);
    }

    /// Value-clustered blocks + a narrow band: skipping fires, its
    /// fraction is recorded under the plan-cache key, the next
    /// admission's Eq. 2 request shrinks, and a reload (epoch bump)
    /// forgets the observation.
    #[test]
    fn skip_fraction_recorded_and_discounts_admission() {
        let engine = Engine::with_units(8);
        let left = Relation::from_rows_unchecked(
            Schema::from_pairs("left", &[("a", DataType::Int), ("b", DataType::Int)]),
            (0..12_000i64).map(|i| tuple![i, i]).collect(),
        );
        let right = Relation::from_rows_unchecked(
            Schema::from_pairs("right", &[("a", DataType::Int), ("b", DataType::Int)]),
            (0..10i64).map(|i| tuple![i + 40, i]).collect(),
        );
        let _ = engine.load_relation(&left);
        let _ = engine.load_relation(&right);
        let q = QueryBuilder::new("q")
            .relation(left.schema().clone())
            .relation(right.schema().clone())
            .join("left", "a", ThetaOp::Lt, "right", "a")
            .build()
            .unwrap();
        let run = engine.run(&q, &RunOptions::default()).unwrap();
        let f = run.skip_fraction();
        assert!(f > 0.5, "clustered blocks should mostly prune, got {f}");
        let totals = engine.stats_snapshot().zone;
        assert!(totals.rows_pruned > 0 && totals.blocks_pruned > 0);
        assert!(totals.skip_fraction() > 0.0);

        let key = format!("{}|left,right", query_shape(&augment_query(&q)));
        let epoch = engine.stats_epoch();
        assert_eq!(engine.recorded_skip_fraction(&key), Some(f));
        // The warm Eq. 2 request shrinks (never below one unit).
        assert!(engine.discounted_units(&key, 8, epoch) < 8);
        assert_eq!(engine.discounted_units(&key, 1, epoch), 1);
        // An unknown shape and a stale epoch are undiscounted.
        assert_eq!(engine.discounted_units("nope|x", 8, epoch), 8);
        assert_eq!(engine.discounted_units(&key, 8, epoch + 1), 8);

        // The warm run is bit-identical, skips identically, and its
        // admission requested a discounted slice.
        let cold_units = engine.last_admission_request();
        assert!(cold_units >= 1);
        let warm = engine.run(&q, &RunOptions::default()).unwrap();
        assert_eq!(warm.output.rows(), run.output.rows());
        assert_eq!(warm.skip_fraction(), f);
        let warm_units = engine.last_admission_request();
        assert!(warm_units <= cold_units);
        if cold_units > 1 {
            assert!(warm_units < cold_units, "{warm_units} !< {cold_units}");
        }

        // A +noskip run prunes nothing and leaves the stat untouched.
        let off = engine
            .run(&q, &RunOptions::default().skipping(false))
            .unwrap();
        assert_eq!(off.output.rows(), run.output.rows());
        assert_eq!(off.zone_totals(), (0, 0, 0, 0, 0, 0));
        assert_eq!(engine.recorded_skip_fraction(&key), Some(f));

        // Reloading bumps the epoch; the stale observation is dropped.
        let _ = engine.load_relation(&right);
        assert_eq!(engine.recorded_skip_fraction(&key), None);
    }

    #[test]
    fn session_defaults_apply() {
        let (engine, q) = two_rel_engine();
        let session = engine
            .session()
            .with_options(RunOptions::from(Method::Hive));
        let want = canonicalize(session.oracle(&q).unwrap());
        let run = session.query(&q).unwrap();
        assert!(run.plan.starts_with("Hive"));
        assert_eq!(canonicalize(run.output.into_rows()), want);
    }
}
