//! Executable plans: ours (chain MRJs + malleable scheduling + merges)
//! and the Hive/Pig/YSmart-style pairwise-cascade baselines.
//!
//! Execution is incremental: each stage's *actual* output sizes feed
//! the next stage's job construction (reducer counts, rectangle
//! shapes), while the simulated clock accumulates stage makespans —
//! concurrent jobs inside a stage cost the max, sequential stages sum,
//! exactly the accounting of the paper's Fig. 4.

use crate::error::PlanError;
use crate::gjp::{build_gjp, CandidateOp, GjpOptions, MrjCandidate};
use crate::setcover::greedy_cover;
use mwtj_cost::estimate::condition_selectivity;
use mwtj_cost::{schedule_malleable, CostModel, MalleableJob};
use mwtj_hilbert::PartitionStrategy;
use mwtj_join::{ChainThetaJob, IntermediateShape, PairJob, PairStrategy};
use mwtj_mapreduce::{
    BatchSink, CancelToken, Cluster, DfsFile, ExecError, FaultPlan, InputSpec, JobMetrics, PlanJob,
    PlanStage, RowBatch, SinkSpec,
};
use mwtj_obs::QueryProfile;
use mwtj_query::theta::CompiledPredicate;
use mwtj_query::MultiwayQuery;
use mwtj_storage::{Relation, RelationStats, Tuple};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic tag namespacing one run's intermediate DFS files, so
/// concurrent queries over one shared cluster never collide.
static NEXT_RUN_TAG: AtomicU64 = AtomicU64::new(0);

fn fresh_run_tag() -> u64 {
    NEXT_RUN_TAG.fetch_add(1, Ordering::Relaxed)
}

/// One base relation of a query as execution sees it, resolved once by
/// the caller: the statistics the plan is priced from and the sealed
/// DFS file the map tasks scan. Execution never looks a base relation
/// up by name — the query's schema name only labels the input.
#[derive(Debug, Clone)]
pub struct BoundRelation {
    /// Statistics of the bound relation.
    pub stats: Arc<RelationStats>,
    /// The relation's sealed blocks.
    pub file: Arc<DfsFile>,
}

impl BoundRelation {
    /// The statistics of `inputs`, in relation-index order — the form
    /// [`Planner::plan_query`] takes.
    pub fn stats_of(inputs: &[BoundRelation]) -> Vec<&RelationStats> {
        inputs.iter().map(|i| i.stats.as_ref()).collect()
    }
}

/// Relation `rel` of `query` as a job input: its bound file, labelled
/// with the query's own name for it.
fn base_input(query: &MultiwayQuery, inputs: &[BoundRelation], rel: usize, tag: u8) -> InputSpec {
    InputSpec::bound(
        query.schemas[rel].name(),
        Arc::clone(&inputs[rel].file),
        tag,
    )
}

/// Execution knobs threaded from the public API: partition strategy for
/// the chain MRJs and an optional per-run fault-injection profile.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Space-partitioning strategy for chain MRJs (Hilbert is the
    /// paper's method; Grid the ablation).
    pub strategy: PartitionStrategy,
    /// Fault plan for this run only; `None` uses the engine's plan.
    pub faults: Option<FaultPlan>,
    /// Zone-map data skipping for every job of this run (on by
    /// default). Turning it off is an ablation/debugging switch — the
    /// output is bit-identical either way, only the pruning counters
    /// and the Eq. 2–4 byte/record metrics move.
    pub skipping: bool,
    /// Plan and execute against this many processing units instead of
    /// the cluster's full `k_P` — the admission controller's
    /// reduced-`k` replan entry point. `None` (or anything ≥ the
    /// cluster's `k_P`) uses the full cluster; values are clamped to
    /// `[1, k_P]`.
    pub units: Option<u32>,
    /// Admission ticket to stamp onto every [`JobMetrics`] this run
    /// produces (0 = not admission-controlled).
    pub ticket: u64,
    /// Stream the *final* join output through this sink as ordered
    /// [`RowBatch`]es (final-projected rows) instead of materialising
    /// it — only the terminal job streams; intermediate stages still
    /// hit the simulated DFS, so the Eq. 2–4 cost metrics are
    /// bit-identical to a buffered run. The returned
    /// [`QueryRun::output`] is then empty (schema only).
    pub sink: Option<SinkSpec>,
    /// Cooperative cancellation token for this run: checked before
    /// each job dispatch and, inside jobs, at task-attempt and
    /// stream-batch granularity. Carries the query deadline when one
    /// was set; `None` = the run cannot be cancelled.
    pub cancel: Option<CancelToken>,
}

impl Default for ExecOptions {
    /// Hilbert partitioning, engine fault plan, full `k_P`, no ticket,
    /// buffered output, skipping **on**.
    fn default() -> Self {
        ExecOptions {
            strategy: PartitionStrategy::default(),
            faults: None,
            units: None,
            ticket: 0,
            sink: None,
            skipping: true,
            cancel: None,
        }
    }
}

impl ExecOptions {
    /// The processing-unit budget this run may occupy on `cluster`.
    fn effective_units(&self, cluster: &Cluster) -> u32 {
        let k_p = cluster.config().processing_units;
        self.units.map_or(k_p, |u| u.clamp(1, k_p))
    }
}

/// A sink wrapper applying the query's final projection to each batch
/// before forwarding — the terminal job emits shape-wide rows, but the
/// stream contract delivers exactly the rows `project_rows` would have
/// produced.
struct ProjectingSink {
    inner: Arc<dyn BatchSink>,
    /// Flat column picks into shape rows; `None` = empty projection,
    /// rows pass through.
    cols: Option<Vec<usize>>,
}

impl BatchSink for ProjectingSink {
    fn send(&self, batch: RowBatch) -> bool {
        match &self.cols {
            None => self.inner.send(batch),
            Some(cols) => {
                let rows = batch
                    .rows
                    .into_iter()
                    .map(|row| Tuple::new(cols.iter().map(|&c| row.get(c).clone()).collect()))
                    .collect();
                self.inner.send(RowBatch { rows })
            }
        }
    }
}

/// The caller's sink wrapped with the projection for terminal rows of
/// `shape`; `None` when the run is not streamed.
fn terminal_sink(
    opts: &ExecOptions,
    query: &MultiwayQuery,
    shape: &IntermediateShape,
) -> Option<SinkSpec> {
    opts.sink.as_ref().map(|spec| SinkSpec {
        sink: Arc::new(ProjectingSink {
            inner: Arc::clone(&spec.sink),
            cols: projection_cols(query, shape),
        }),
        batch_rows: spec.batch_rows,
    })
}

/// Flat column indices of the query projection into rows of `shape`
/// (the compiled form of [`IntermediateShape::value`] per projected
/// column); `None` for the pass-through empty projection.
fn projection_cols(query: &MultiwayQuery, shape: &IntermediateShape) -> Option<Vec<usize>> {
    if query.projection.is_empty() {
        None
    } else {
        Some(
            query
                .projection
                .iter()
                .map(|&(r, c)| shape.col_range(r).start + c)
                .collect(),
        )
    }
}

/// Remove every intermediate DFS file a failed or cancelled run left
/// behind (all files carry the run's `__run<tag>_` namespace prefix) —
/// a dropped result stream must not leak run-tagged files.
fn cleanup_run_files(cluster: &Cluster, run_tag: u64) {
    let prefix = format!("__run{run_tag}_");
    for file in cluster.dfs().list() {
        if file.starts_with(&prefix) {
            cluster.dfs().remove(&file);
        }
    }
}

/// Which baseline planner to emulate (§6's comparison systems).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// Hive-style: left-deep pairwise cascade, always requesting the
    /// maximum reducer count ("Hive always try to employ as many
    /// Reduce tasks as possible", §6.3.2).
    Hive,
    /// Pig-style: pairwise cascade with the 1-reducer-per-data-chunk
    /// heuristic.
    Pig,
    /// YSmart-style: pairwise cascade with cost-model-chosen reducer
    /// counts, but `k_P`-unaware ("YSmart does not take this factor
    /// into consideration").
    YSmart,
}

/// Result of planning + executing a query.
#[derive(Debug)]
pub struct QueryRun {
    /// Final projected output.
    pub output: Relation,
    /// Human-readable plan description.
    pub plan: String,
    /// Planner's predicted makespan (simulated seconds).
    pub predicted_secs: f64,
    /// Achieved simulated makespan.
    pub sim_secs: f64,
    /// Host wall-clock seconds.
    pub real_secs: f64,
    /// Per-job metrics in execution order.
    pub jobs: Vec<JobMetrics>,
    /// Admission ticket the run executed under (0 when the query was
    /// not admission-controlled).
    pub ticket: u64,
    /// Processing units the run was granted (= the cluster's `k_P`
    /// unless the admission controller degraded the query to a smaller
    /// slice via [`ExecOptions::units`]).
    pub granted_units: u32,
    /// Process-unique trace id of this run (0 when the run executed
    /// outside a traced engine, e.g. direct planner tests). Stamped by
    /// the engine; purely for correlation, never read by execution.
    pub trace_id: u64,
    /// Per-stage profile tree, when the run executed with tracing
    /// enabled. `None` under `+notrace` or outside an engine.
    pub profile: Option<QueryProfile>,
}

/// Real fault-handling totals across every job of one run — attempts
/// actually executed on the host, reruns after real mid-execution
/// aborts, and panics the engine's `catch_unwind` isolation contained.
/// All derived from [`JobMetrics`]; a fault-free run has
/// `real_retries == 0`, `panics_caught == 0` and `attempts` equal to
/// the task count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTotals {
    /// Task attempts really executed (map + reduce, including reruns).
    pub attempts: u64,
    /// Attempts that really aborted mid-execution and were rerun.
    pub real_retries: u64,
    /// Panics caught by the engine's panic isolation.
    pub panics_caught: u64,
}

impl QueryRun {
    /// Real fault-handling totals across every job of the run: host
    /// attempt counts, real retries, and caught panics. Zeros when no
    /// fault plan was active and no job panicked.
    pub fn fault_totals(&self) -> FaultTotals {
        let mut t = FaultTotals::default();
        for j in &self.jobs {
            t.attempts += u64::from(j.map_attempts) + u64::from(j.reduce_attempts);
            t.real_retries += u64::from(j.real_map_retries) + u64::from(j.real_reduce_retries);
            t.panics_caught += u64::from(j.panics_caught);
        }
        t
    }

    /// Zone-map pruning totals across every job of the run:
    /// `(blocks considered, blocks pruned, pairs examined, pairs
    /// pruned, rows considered, rows pruned)`. All zeros when skipping
    /// was off or nothing was prunable.
    pub fn zone_totals(&self) -> (u64, u64, u64, u64, u64, u64) {
        let mut t = (0, 0, 0, 0, 0, 0);
        for j in &self.jobs {
            t.0 += j.zone_blocks;
            t.1 += j.zone_blocks_pruned;
            t.2 += j.zone_pairs;
            t.3 += j.zone_pairs_pruned;
            t.4 += j.zone_rows_total;
            t.5 += j.zone_rows_pruned;
        }
        t
    }

    /// Fraction of considered input rows whose map work zone maps
    /// skipped across the whole run, in [0, 1].
    pub fn skip_fraction(&self) -> f64 {
        let (_, _, _, _, total, pruned) = self.zone_totals();
        if total == 0 {
            0.0
        } else {
            pruned as f64 / total as f64
        }
    }

    /// The run's per-stage profile tree, when it executed with
    /// tracing enabled (the default inside an engine; disabled with
    /// `+notrace`).
    pub fn profile(&self) -> Option<&QueryProfile> {
        self.profile.as_ref()
    }
}

/// A summary of the chosen plan before execution (for inspection).
#[derive(Debug, Clone)]
pub struct ExecutablePlan {
    /// Chosen candidate MRJs (edge sets).
    pub chosen_masks: Vec<u64>,
    /// Unit allotments per chosen MRJ.
    pub allotments: Vec<u32>,
    /// Shelf index per chosen MRJ.
    pub shelves: Vec<usize>,
    /// Predicted makespan of the MRJ phase.
    pub predicted_secs: f64,
}

/// The immutable product of the paper's whole planning pipeline —
/// `G'_JP` construction (Algorithm 2), greedy set cover, malleable
/// shelf scheduling — for one (query shape, statistics, `k_P`) input.
///
/// This is the middle stage of the prepared-query lifecycle: parse →
/// **plan** → execute. The artifact is self-contained and
/// name-free (candidates reference relations and conditions by
/// *index*), so one `Arc<QueryPlan>` can be shared by every execution
/// of the same query shape — across parameter bindings and sessions.
/// Executing a cached plan via
/// [`Planner::try_execute_planned`] skips the planning pipeline
/// entirely and is bit-identical (rows *and* Eq. 2–4 simulated
/// metrics) to planning afresh, because planning is deterministic in
/// its inputs.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// The chosen candidate MRJs (edge masks, relation sets, reducer
    /// demands and malleable profiles).
    pub chosen: Vec<MrjCandidate>,
    /// Their shelf schedule (allotments, shelves, predicted makespan).
    pub schedule: ExecutablePlan,
    /// The `k_P` the plan was made for; execution must run at exactly
    /// this unit budget (a degraded admission replans at the smaller
    /// `k` instead of squeezing this plan).
    pub k_p: u32,
    /// The `k_P` slice the plan actually occupies — the peak concurrent
    /// shelf allotment (the whole `k_P` for multi-candidate plans,
    /// whose merge phase runs on the full allotment). This is the
    /// Eq. 2 admission estimate.
    pub units: u32,
}

impl QueryPlan {
    /// The planner-predicted makespan (simulated seconds) — the
    /// scheduler's shortest-job-first ordering key.
    pub fn predicted_secs(&self) -> f64 {
        self.schedule.predicted_secs
    }
}

/// The planner: owns a cost model; plans and executes against a
/// [`Cluster`] whose DFS already holds every base relation under its
/// schema name.
pub struct Planner {
    model: CostModel,
    /// `G'_JP` bounds.
    pub gjp_opts: GjpOptions,
}

impl Planner {
    /// Build a planner.
    pub fn new(model: CostModel) -> Self {
        Planner {
            model,
            gjp_opts: GjpOptions::default(),
        }
    }

    /// The cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    // ------------------------------------------------------------------
    // Our method (§5)
    // ------------------------------------------------------------------

    /// Plan the query with the paper's method: `G'_JP` → greedy cover →
    /// malleable schedule. Returns the chosen candidates and plan
    /// summary without executing.
    ///
    /// # Panics
    /// Panics on an uncoverable query; prefer [`Planner::try_plan_ours`]
    /// on serving paths.
    pub fn plan_ours(
        &self,
        query: &MultiwayQuery,
        stats: &[&RelationStats],
        k_p: u32,
    ) -> (Vec<MrjCandidate>, ExecutablePlan) {
        self.try_plan_ours(query, stats, k_p)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Planner::plan_ours`], but returns a typed error for
    /// uncoverable queries instead of panicking.
    pub fn try_plan_ours(
        &self,
        query: &MultiwayQuery,
        stats: &[&RelationStats],
        k_p: u32,
    ) -> Result<(Vec<MrjCandidate>, ExecutablePlan), PlanError> {
        let cands = build_gjp(query, stats, &self.model, k_p, &self.gjp_opts);
        let all_mask: u64 = (0..query.num_conditions()).fold(0, |m, e| m | (1 << e));
        let cover = greedy_cover(&cands, all_mask).ok_or_else(|| PlanError::Uncoverable {
            detail: format!(
                "no candidate set covers all {} conditions of `{}` (disconnected join graph?)",
                query.num_conditions(),
                query.name
            ),
        })?;
        let mut chosen: Vec<MrjCandidate> =
            cover.chosen.iter().map(|&i| cands[i].clone()).collect();
        // The greedy objective cannot see merge-join costs (partial
        // results multiply on shared relations before the uncovered-
        // between-parts structure cuts them down). If a single
        // full-cover candidate exists, compare the greedy cover's
        // estimated total (jobs + merge chain) against it and keep the
        // cheaper plan — the paper's "single MRJ vs several" decision
        // made with both sides of the ledger.
        if chosen.len() > 1 {
            let merge_est = self.estimate_merges(&chosen, stats, k_p);
            let greedy_total: f64 = chosen.iter().map(|c| c.w).sum::<f64>() + merge_est;
            if let Some(full) = cands
                .iter()
                .filter(|c| c.mask & all_mask == all_mask)
                .min_by(|a, b| a.w.total_cmp(&b.w))
            {
                if full.w < greedy_total {
                    chosen = vec![full.clone()];
                }
            }
        }
        let jobs: Vec<MalleableJob> = chosen
            .iter()
            .map(|c| MalleableJob::new(format!("{}", c.path), c.profile.clone()))
            .collect();
        let schedule = schedule_malleable(&jobs, k_p);
        let plan = ExecutablePlan {
            chosen_masks: chosen.iter().map(|c| c.mask).collect(),
            allotments: schedule.allotments.clone(),
            shelves: schedule.shelves.clone(),
            predicted_secs: schedule.makespan,
        };
        Ok((chosen, plan))
    }

    /// Run the full planning pipeline once and package the result as a
    /// reusable [`QueryPlan`] artifact: `G'_JP` → greedy cover →
    /// malleable schedule → Eq. 2 unit estimate. This is the single
    /// planning entry point; both admission sizing and execution read
    /// from the artifact, so one query is planned exactly once.
    pub fn plan_query(
        &self,
        query: &MultiwayQuery,
        stats: &[&RelationStats],
        k_p: u32,
    ) -> Result<QueryPlan, PlanError> {
        let (chosen, schedule) = self.try_plan_ours(query, stats, k_p)?;
        // The slice the plan occupies is the peak concurrent unit usage
        // across its shelves — except that a multi-candidate plan is
        // followed by a merge phase on the full allotment, so it
        // reserves all of `k_p`.
        let units = if chosen.len() > 1 {
            k_p.max(1)
        } else {
            let n_shelves = schedule.shelves.iter().copied().max().unwrap_or(0) + 1;
            let mut peak = 1u32;
            for shelf in 0..n_shelves {
                let used: u32 = schedule
                    .shelves
                    .iter()
                    .zip(&schedule.allotments)
                    .filter(|(s, _)| **s == shelf)
                    .map(|(_, a)| (*a).max(1))
                    .sum();
                peak = peak.max(used);
            }
            peak.clamp(1, k_p.max(1))
        };
        Ok(QueryPlan {
            chosen,
            schedule,
            k_p,
            units,
        })
    }

    /// The `k_P` slice a query will actually occupy when planned
    /// against a `k_p`-unit cluster, plus its predicted makespan (the
    /// Eq. 2 estimate the admission controller prices against the
    /// shared budget). Shorthand for [`Planner::plan_query`] when the
    /// caller does not keep the artifact.
    pub fn estimate_units(
        &self,
        query: &MultiwayQuery,
        stats: &[&RelationStats],
        k_p: u32,
    ) -> Result<(u32, f64), PlanError> {
        let plan = self.plan_query(query, stats, k_p)?;
        Ok((plan.units, plan.predicted_secs()))
    }

    /// Rough cost of folding the chosen candidates' outputs together:
    /// walk the same largest-overlap merge order the executor uses,
    /// upper-bounding each join's output by the containment bound
    /// `|A|·|B| / Π|R_shared|` and pricing each merge as an equi-hash
    /// job over the running intermediates.
    fn estimate_merges(&self, chosen: &[MrjCandidate], stats: &[&RelationStats], k_p: u32) -> f64 {
        use mwtj_cost::estimate::{pair_equi_job, SideStats};
        let mut parts: Vec<(Vec<usize>, f64, f64)> = chosen
            .iter()
            .map(|c| (c.rels.clone(), c.out_rows.max(1.0), c.out_bytes.max(1.0)))
            .collect();
        let mut total = 0.0;
        while parts.len() > 1 {
            // Largest shared-relation overlap, as the executor picks.
            let (mut bi, mut bj, mut best) = (0usize, 1usize, 0usize);
            for i in 0..parts.len() {
                for j in i + 1..parts.len() {
                    let shared = parts[i].0.iter().filter(|r| parts[j].0.contains(r)).count();
                    if shared > best {
                        (bi, bj, best) = (i, j, shared);
                    }
                }
            }
            if best == 0 {
                break; // disconnected — executor will panic anyway
            }
            let (rb, rows_b, bytes_b) = parts.swap_remove(bj.max(bi));
            let (ra, rows_a, bytes_a) = parts.swap_remove(bi.min(bj));
            let shared_card: f64 = ra
                .iter()
                .filter(|r| rb.contains(r))
                .map(|&r| (stats[r].cardinality as f64).max(1.0))
                .product();
            let key_distinct = shared_card.max(1.0);
            let est = pair_equi_job(
                self.model.config(),
                SideStats {
                    rows: rows_a,
                    bytes: bytes_a,
                },
                SideStats {
                    rows: rows_b,
                    bytes: bytes_b,
                },
                1.0 / key_distinct,
                key_distinct,
                ((rows_a + rows_b) as u64 / 4_096).max(1) as u32,
                k_p,
            );
            total += self.model.predict_total(&est.shape);
            let mut union = ra;
            for r in rb {
                if !union.contains(&r) {
                    union.push(r);
                }
            }
            union.sort_unstable();
            parts.push((union, est.out_rows.max(1.0), est.out_bytes.max(1.0)));
        }
        total
    }

    /// Plan and execute with the paper's method.
    ///
    /// # Panics
    /// Panics on planning or execution failure; prefer
    /// [`Planner::try_execute_ours`] on serving paths.
    pub fn execute_ours(
        &self,
        query: &MultiwayQuery,
        inputs: &[BoundRelation],
        cluster: &Cluster,
    ) -> QueryRun {
        self.try_execute_ours(query, inputs, cluster, &ExecOptions::default())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Planner::execute_ours`] but with an explicit partition
    /// strategy (the grid variant is the ablation baseline).
    ///
    /// # Panics
    /// Panics on planning or execution failure; prefer
    /// [`Planner::try_execute_ours`] on serving paths.
    pub fn execute_ours_with(
        &self,
        query: &MultiwayQuery,
        inputs: &[BoundRelation],
        cluster: &Cluster,
        strategy: PartitionStrategy,
    ) -> QueryRun {
        self.try_execute_ours(
            query,
            inputs,
            cluster,
            &ExecOptions {
                strategy,
                ..ExecOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Plan and execute with the paper's method, returning a typed
    /// error instead of panicking. `opts` carries the partition
    /// strategy and an optional per-run fault profile; intermediate DFS
    /// files are tagged per run, so independent queries can execute
    /// concurrently over one shared cluster.
    pub fn try_execute_ours(
        &self,
        query: &MultiwayQuery,
        inputs: &[BoundRelation],
        cluster: &Cluster,
        opts: &ExecOptions,
    ) -> Result<QueryRun, PlanError> {
        let plan = self.plan_query(
            query,
            &BoundRelation::stats_of(inputs),
            opts.effective_units(cluster),
        )?;
        self.try_execute_planned(query, &plan, inputs, cluster, opts)
    }

    /// Execute an already-planned query: the third stage of the
    /// prepared lifecycle. The artifact must have been planned at the
    /// unit budget this run executes under ([`QueryPlan::k_p`] ==
    /// effective units) and against the statistics of `inputs` —
    /// the engine's plan cache enforces both (epoch tagging, per-`k`
    /// replan entries). Given that, the run is bit-identical to
    /// [`Planner::try_execute_ours`] while skipping planning entirely.
    pub fn try_execute_planned(
        &self,
        query: &MultiwayQuery,
        plan: &QueryPlan,
        inputs: &[BoundRelation],
        cluster: &Cluster,
        opts: &ExecOptions,
    ) -> Result<QueryRun, PlanError> {
        let k_p = opts.effective_units(cluster);
        if plan.k_p != k_p {
            return Err(PlanError::Exec(ExecError::BadRequest {
                detail: format!(
                    "plan artifact was made for k_P={} but the run executes at k_P={k_p}; \
                     replan at the granted unit budget",
                    plan.k_p
                ),
            }));
        }
        let run_tag = fresh_run_tag();
        let result = self.exec_planned_inner(query, plan, inputs, cluster, opts, run_tag);
        if result.is_err() {
            // A failed (or stream-cancelled) run must not leak its
            // run-tagged intermediates.
            cleanup_run_files(cluster, run_tag);
        }
        result
    }

    fn exec_planned_inner(
        &self,
        query: &MultiwayQuery,
        qplan: &QueryPlan,
        bound: &[BoundRelation],
        cluster: &Cluster,
        opts: &ExecOptions,
        run_tag: u64,
    ) -> Result<QueryRun, PlanError> {
        let strategy = opts.strategy;
        let wall = std::time::Instant::now();
        let k_p = qplan.k_p;
        let (chosen, plan) = (&qplan.chosen, &qplan.schedule);
        let cards: Vec<u64> = bound.iter().map(|i| i.stats.cardinality as u64).collect();

        // --- MRJ phase: shelves of concurrent chain jobs ---
        let n_shelves = plan.shelves.iter().copied().max().unwrap_or(0) + 1;
        let single = chosen.len() == 1;
        let mut stages: Vec<PlanStage> = Vec::with_capacity(n_shelves);
        let mut part_files: Vec<(String, IntermediateShape)> = Vec::new();
        for shelf in 0..n_shelves {
            let mut jobs = Vec::new();
            for (ci, cand) in chosen.iter().enumerate() {
                if plan.shelves[ci] != shelf {
                    continue;
                }
                let units = plan.allotments[ci].max(1);
                let k_r = cand.s.min(units).max(1);
                let (job, inputs, reducers, out_shape): (
                    Box<dyn mwtj_mapreduce::MrJob>,
                    Vec<InputSpec>,
                    u32,
                    IntermediateShape,
                ) = match cand.op {
                    CandidateOp::Chain => {
                        let job =
                            ChainThetaJob::new(query, &cand.path.edges, &cards, k_r, strategy);
                        let inputs: Vec<InputSpec> = job
                            .dims()
                            .iter()
                            .enumerate()
                            .map(|(dim, &r)| base_input(query, bound, r, dim as u8))
                            .collect();
                        let reducers = job.reducers();
                        let shape = job.out_shape().clone();
                        (Box::new(job), inputs, reducers, shape)
                    }
                    CandidateOp::PairEqui => {
                        let compiled = query.compile()?;
                        let e = cand.path.edges[0];
                        let (lrel, rrel) = (cand.rels[0], cand.rels[1]);
                        let job = PairJob::new(
                            format!("equi[θ{e}]"),
                            query,
                            IntermediateShape::base(query, lrel),
                            IntermediateShape::base(query, rrel),
                            compiled.per_condition[e].clone(),
                            PairStrategy::EquiHash,
                            (cards[lrel], cards[rrel]),
                            k_r,
                        );
                        let inputs = vec![
                            base_input(query, bound, lrel, 0),
                            base_input(query, bound, rrel, 1),
                        ];
                        let reducers = job.reducers();
                        let shape = job.out_shape().clone();
                        (Box::new(job), inputs, reducers, shape)
                    }
                };
                // Only the terminal job streams: a single-candidate
                // plan's one job is terminal; multi-candidate plans
                // persist every part and stream from the final merge.
                let sink = if single {
                    terminal_sink(opts, query, &out_shape)
                } else {
                    None
                };
                let out_file = if single {
                    None
                } else {
                    let f = format!("__run{run_tag}_part_{ci}");
                    part_files.push((f.clone(), out_shape));
                    Some(f)
                };
                jobs.push(PlanJob {
                    job,
                    inputs,
                    reducers,
                    units,
                    out_file,
                    sink,
                });
            }
            if !jobs.is_empty() {
                stages.push(PlanStage { jobs });
            }
        }
        let exec = cluster.try_run_plan(
            stages,
            opts.faults.as_ref(),
            opts.skipping,
            opts.cancel.as_ref(),
        )?;
        let mut sim_secs = exec.total_secs;
        let mut jobs_metrics = exec.job_metrics;
        let mut plan_desc = format!(
            "ours: {} chain MRJ(s) {:?}, {} shelf(s)",
            chosen.len(),
            plan.chosen_masks,
            n_shelves
        );

        // --- merge phase: fold intermediates on shared relations ---
        let final_rows;
        let final_shape;
        if single {
            final_shape = IntermediateShape::of(&query.clone(), &chosen[0].rels);
            final_rows = exec.output.into_rows();
        } else {
            let (rows, shape, merge_secs, mut mm) =
                self.merge_parts(query, cluster, part_files, k_p, run_tag, opts)?;
            sim_secs += merge_secs;
            jobs_metrics.append(&mut mm);
            plan_desc.push_str(&format!(", {} merge job(s)", mm_count(&jobs_metrics)));
            final_rows = rows;
            final_shape = shape;
        }

        // --- final projection (in-memory; trivial column selection) ---
        let output = project_rows(query, &final_shape, final_rows);
        for m in &mut jobs_metrics {
            m.ticket = opts.ticket;
        }
        Ok(QueryRun {
            output,
            plan: plan_desc,
            predicted_secs: plan.predicted_secs,
            sim_secs,
            real_secs: wall.elapsed().as_secs_f64(),
            jobs: jobs_metrics,
            ticket: opts.ticket,
            granted_units: k_p,
            trace_id: 0,
            profile: None,
        })
    }

    /// Merge part files pairwise on shared relations until one remains.
    #[allow(clippy::type_complexity)]
    fn merge_parts(
        &self,
        query: &MultiwayQuery,
        cluster: &Cluster,
        mut parts: Vec<(String, IntermediateShape)>,
        k_p: u32,
        run_tag: u64,
        opts: &ExecOptions,
    ) -> Result<(Vec<Tuple>, IntermediateShape, f64, Vec<JobMetrics>), PlanError> {
        let mut sim = 0.0;
        let mut metrics = Vec::new();
        let mut merge_id = 0usize;
        while parts.len() > 1 {
            // Pick the pair with the largest shared-relation overlap
            // (merging unconnected parts would be a cross product).
            let (mut bi, mut bj, mut best_shared) = (0usize, 1usize, usize::MAX);
            let mut found = false;
            for i in 0..parts.len() {
                for j in i + 1..parts.len() {
                    let shared = IntermediateShape::shared(&parts[i].1, &parts[j].1).len();
                    if shared > 0 && (!found || shared > best_shared) {
                        (bi, bj, best_shared) = (i, j, shared);
                        found = true;
                    }
                }
            }
            if !found {
                return Err(PlanError::Disconnected {
                    detail: format!(
                        "{} partial results of `{}` share no relation (T not sufficient?)",
                        parts.len(),
                        query.name
                    ),
                });
            }
            let (rf, rshape) = parts.swap_remove(bj.max(bi));
            let (lf, lshape) = parts.swap_remove(bi.min(bj));
            let lrows = cluster.dfs().get(&lf).map(|f| f.rows as u64).unwrap_or(0);
            let rrows = cluster.dfs().get(&rf).map(|f| f.rows as u64).unwrap_or(0);
            let reducers = merge_reducers(lrows, rrows, k_p);
            let job = PairJob::new(
                format!("merge_{merge_id}"),
                query,
                lshape.clone(),
                rshape.clone(),
                vec![],
                PairStrategy::EquiHash,
                (lrows, rrows),
                reducers,
            );
            let last = parts.is_empty();
            let out_file = format!("__run{run_tag}_merged_{merge_id}");
            let out_shape = job.out_shape().clone();
            let inputs = [InputSpec::new(&lf, 0), InputSpec::new(&rf, 1)];
            let faults = opts
                .faults
                .as_ref()
                .unwrap_or_else(|| cluster.engine().fault_plan());
            // The final merge is the terminal job: with a sink attached
            // it streams final-projected batches instead of
            // materialising.
            let stream = if last {
                terminal_sink(opts, query, &out_shape)
            } else {
                None
            };
            let run = match &stream {
                Some(spec) => cluster.engine().try_run_streamed(
                    &job,
                    &inputs,
                    k_p,
                    job.reducers(),
                    faults,
                    spec,
                    opts.skipping,
                    opts.cancel.as_ref(),
                )?,
                None => cluster.engine().try_run_with(
                    &job,
                    &inputs,
                    k_p,
                    job.reducers(),
                    if last { None } else { Some(&out_file) },
                    faults,
                    opts.skipping,
                    opts.cancel.as_ref(),
                )?,
            };
            sim += run.metrics.sim_total_secs;
            metrics.push(run.metrics);
            cluster.dfs().remove(&lf);
            cluster.dfs().remove(&rf);
            if last {
                return Ok((run.output.into_rows(), out_shape, sim, metrics));
            }
            parts.push((out_file, out_shape));
            merge_id += 1;
        }
        // Single part: read it back.
        let (f, shape) = parts.pop().ok_or_else(|| PlanError::Disconnected {
            detail: format!("no partial results to merge for `{}`", query.name),
        })?;
        let rel = cluster
            .dfs()
            .read_relation(&f)
            .ok_or_else(|| PlanError::Exec(ExecError::MissingFile { name: f.clone() }))?;
        cluster.dfs().remove(&f);
        if let Some(spec) = terminal_sink(opts, query, &shape) {
            // Degenerate streamed plan (one part, no terminal merge):
            // ship the materialised part through the sink in batches so
            // the caller still sees a well-formed stream.
            let mut rows = rel.into_rows();
            while !rows.is_empty() {
                if let Some(token) = opts.cancel.as_ref() {
                    token.check().map_err(PlanError::Exec)?;
                }
                let rest = rows.split_off(rows.len().min(spec.batch_rows));
                if !spec.sink.send(RowBatch { rows }) {
                    return Err(PlanError::Exec(ExecError::Cancelled));
                }
                rows = rest;
            }
            return Ok((Vec::new(), shape, sim, metrics));
        }
        Ok((rel.into_rows(), shape, sim, metrics))
    }

    // ------------------------------------------------------------------
    // Baselines (§6: YSmart / Hive / Pig)
    // ------------------------------------------------------------------

    /// Plan and execute a pairwise left-deep cascade in the style of
    /// `baseline`.
    ///
    /// # Panics
    /// Panics on execution failure; prefer
    /// [`Planner::try_execute_baseline`] on serving paths.
    pub fn execute_baseline(
        &self,
        baseline: Baseline,
        query: &MultiwayQuery,
        inputs: &[BoundRelation],
        cluster: &Cluster,
    ) -> QueryRun {
        self.try_execute_baseline(baseline, query, inputs, cluster, &ExecOptions::default())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Planner::execute_baseline`], but returns a typed error
    /// instead of panicking and honours `opts.faults`. Intermediate
    /// cascade files are tagged per run for concurrent execution.
    pub fn try_execute_baseline(
        &self,
        baseline: Baseline,
        query: &MultiwayQuery,
        inputs: &[BoundRelation],
        cluster: &Cluster,
        opts: &ExecOptions,
    ) -> Result<QueryRun, PlanError> {
        let run_tag = fresh_run_tag();
        let result = self.exec_baseline_inner(baseline, query, inputs, cluster, opts, run_tag);
        if result.is_err() {
            cleanup_run_files(cluster, run_tag);
        }
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_baseline_inner(
        &self,
        baseline: Baseline,
        query: &MultiwayQuery,
        bound: &[BoundRelation],
        cluster: &Cluster,
        opts: &ExecOptions,
        run_tag: u64,
    ) -> Result<QueryRun, PlanError> {
        let wall = std::time::Instant::now();
        let stats = BoundRelation::stats_of(bound);
        let k_p = opts.effective_units(cluster);
        let compiled = query.compile()?;
        let order = cascade_order(query);
        let mut sim = 0.0;
        let mut metrics: Vec<JobMetrics> = Vec::new();
        let mut desc_steps: Vec<String> = Vec::new();

        // Current intermediate: starts as the first base relation.
        let mut cur_shape = IntermediateShape::base(query, order[0]);
        let mut cur_input = base_input(query, bound, order[0], 0);
        let mut cur_rows = stats[order[0]].cardinality as u64;
        let mut applied: Vec<bool> = vec![false; query.num_conditions()];

        for (step, &next) in order.iter().enumerate().skip(1) {
            let right_shape = IntermediateShape::base(query, next);
            // Conditions joining the current set with `next`.
            let mut preds: Vec<CompiledPredicate> = Vec::new();
            let mut sel = 1.0;
            for (e, (u, v, _)) in query.conditions.iter().enumerate() {
                let joins_next =
                    (cur_shape.has(*u) && *v == next) || (cur_shape.has(*v) && *u == next);
                if joins_next && !applied[e] {
                    applied[e] = true;
                    preds.extend(compiled.per_condition[e].iter().copied());
                    sel *= condition_selectivity(query, e, &stats);
                }
            }
            let right_rows = stats[next].cardinality as u64;
            let has_eq = preds
                .iter()
                .any(|p| p.op.is_equality() && p.left_off == 0.0 && p.right_off == 0.0);
            let strategy = if has_eq {
                PairStrategy::EquiHash
            } else {
                // Replicate the smaller side to every reducer.
                PairStrategy::Broadcast {
                    replicated: if cur_rows <= right_rows { 0 } else { 1 },
                }
            };
            let reducers =
                self.baseline_reducers(baseline, cluster, cur_rows, right_rows, sel, k_p);
            let job = PairJob::new(
                format!("{baseline:?}_step{step}"),
                query,
                cur_shape.clone(),
                right_shape,
                preds,
                strategy,
                (cur_rows.max(1), right_rows.max(1)),
                reducers,
            );
            let last = step + 1 == order.len();
            let out_file = format!("__run{run_tag}_casc_{step}");
            let out_shape = job.out_shape().clone();
            desc_steps.push(format!(
                "⋈{}({:?},n={})",
                query.schemas[next].name(),
                strategy_tag(strategy),
                job.reducers()
            ));
            let inputs = [cur_input, base_input(query, bound, next, 1)];
            let faults = opts
                .faults
                .as_ref()
                .unwrap_or_else(|| cluster.engine().fault_plan());
            // The cascade's last step is the terminal job: with a sink
            // attached it streams final-projected batches.
            let stream = if last {
                terminal_sink(opts, query, &out_shape)
            } else {
                None
            };
            let run = match &stream {
                Some(spec) => cluster.engine().try_run_streamed(
                    &job,
                    &inputs,
                    // Cascades get the whole cluster per step, but a
                    // kP-unaware reducer request beyond k_p simply
                    // waves.
                    k_p,
                    job.reducers(),
                    faults,
                    spec,
                    opts.skipping,
                    opts.cancel.as_ref(),
                )?,
                None => cluster.engine().try_run_with(
                    &job,
                    &inputs,
                    k_p,
                    job.reducers(),
                    if last { None } else { Some(&out_file) },
                    faults,
                    opts.skipping,
                    opts.cancel.as_ref(),
                )?,
            };
            sim += run.metrics.sim_total_secs;
            let mut m = run.metrics;
            m.ticket = opts.ticket;
            metrics.push(m);
            // A consumed intermediate (read by name, not a bound base).
            if inputs[0].bound.is_none() {
                cluster.dfs().remove(&inputs[0].file);
            }
            cur_shape = out_shape;
            cur_rows = run.output.len() as u64;
            if last {
                let output = project_rows(query, &cur_shape, run.output.into_rows());
                return Ok(QueryRun {
                    output,
                    plan: format!("{baseline:?}: {}", desc_steps.join(" → ")),
                    predicted_secs: 0.0,
                    sim_secs: sim,
                    real_secs: wall.elapsed().as_secs_f64(),
                    jobs: metrics,
                    ticket: opts.ticket,
                    granted_units: k_p,
                    trace_id: 0,
                    profile: None,
                });
            }
            cur_input = InputSpec::new(out_file, 0);
        }
        // A connected query has ≥ 2 relations, so the loop always takes
        // the `last` branch; a degenerate single-relation query lands
        // here instead of panicking.
        Err(PlanError::Disconnected {
            detail: format!("`{}` has no join steps to cascade", query.name),
        })
    }

    /// Reducer-count policy per baseline.
    fn baseline_reducers(
        &self,
        baseline: Baseline,
        cluster: &Cluster,
        left_rows: u64,
        right_rows: u64,
        sel: f64,
        k_p: u32,
    ) -> u32 {
        match baseline {
            // Hive: as many reduce tasks as there are units.
            Baseline::Hive => k_p,
            // Pig: one reducer per data chunk (scaled analogue of
            // 1 reducer/GB), at least 1 — ignores k_p.
            Baseline::Pig => {
                let bytes = (left_rows + right_rows) * 40; // ~row width
                ((bytes / (16 * cluster.config().params.block_bytes as u64)).max(1) as u32).min(256)
            }
            // YSmart: sweep the cost model for the best n, but ignore
            // k_p (assume unlimited concurrent units).
            Baseline::YSmart => {
                let mut best = (1u32, f64::INFINITY);
                let cfg = self.model.config();
                for n in [1u32, 2, 4, 8, 16, 32, 64, 96, 128] {
                    let est = mwtj_cost::estimate::pair_onebucket_job(
                        cfg,
                        mwtj_cost::estimate::SideStats {
                            rows: left_rows as f64,
                            bytes: left_rows as f64 * 40.0,
                        },
                        mwtj_cost::estimate::SideStats {
                            rows: right_rows as f64,
                            bytes: right_rows as f64 * 40.0,
                        },
                        sel,
                        n,
                        n, // unlimited-units assumption
                    );
                    let t = self.model.predict_total(&est.shape);
                    if t < best.1 {
                        best = (n, t);
                    }
                }
                best.0
            }
        }
    }
}

fn mm_count(all: &[JobMetrics]) -> usize {
    all.iter().filter(|m| m.name.starts_with("merge_")).count()
}

fn strategy_tag(s: PairStrategy) -> &'static str {
    match s {
        PairStrategy::EquiHash => "hash",
        PairStrategy::Broadcast { .. } => "bcast",
        PairStrategy::OneBucket => "1bkt",
    }
}

/// Left-deep cascade order: query order, reordered minimally so each
/// next relation connects to the already-joined set when possible.
fn cascade_order(query: &MultiwayQuery) -> Vec<usize> {
    let n = query.num_relations();
    let mut order = vec![0usize];
    let mut used = vec![false; n];
    used[0] = true;
    while order.len() < n {
        let connected = (0..n).find(|&r| {
            !used[r]
                && query.conditions.iter().any(|(u, v, _)| {
                    (order.contains(u) && *v == r) || (order.contains(v) && *u == r)
                })
        });
        let next = connected
            .unwrap_or_else(|| (0..n).find(|&r| !used[r]).expect("unused relation exists"));
        used[next] = true;
        order.push(next);
    }
    order
}

/// Apply the query projection to rows of `shape` (must cover every
/// relation the projection references; for empty projections the rows
/// pass through).
fn project_rows(query: &MultiwayQuery, shape: &IntermediateShape, rows: Vec<Tuple>) -> Relation {
    if query.projection.is_empty() {
        return Relation::from_rows_unchecked(shape.schema.clone(), rows);
    }
    let out_schema = query.output_schema();
    let projected = rows
        .into_iter()
        .map(|row| {
            Tuple::new(
                query
                    .projection
                    .iter()
                    .map(|&(r, c)| shape.value(&row, r, c).clone())
                    .collect(),
            )
        })
        .collect();
    Relation::from_rows_unchecked(out_schema, projected)
}

/// Reducer count for a merge job: proportional to the data, capped.
fn merge_reducers(l: u64, r: u64, k_p: u32) -> u32 {
    (((l + r) / 4_096).max(1) as u32).min(k_p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwtj_cost::CalibratedParams;
    use mwtj_join::oracle::{canonicalize, oracle_join};
    use mwtj_mapreduce::ClusterConfig;
    use mwtj_query::{QueryBuilder, ThetaOp};
    use mwtj_storage::{tuple, DataType, Schema};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Relations with a unique rowid column (merge identity, as the
    /// system layer guarantees).
    fn rel(name: &str, n: usize, seed: u64, domain: i64) -> Relation {
        let schema = Schema::from_pairs(
            name,
            &[
                ("a", DataType::Int),
                ("b", DataType::Int),
                ("__rid", DataType::Int),
            ],
        );
        let mut rng = StdRng::seed_from_u64(seed);
        Relation::from_rows_unchecked(
            schema,
            (0..n)
                .map(|i| tuple![rng.gen_range(0..domain), rng.gen_range(0..domain), i as i64])
                .collect(),
        )
    }

    fn setup(rels: &[&Relation], k_p: u32) -> (Cluster, Vec<BoundRelation>, Planner) {
        let cfg = ClusterConfig::with_units(k_p);
        let cluster = Cluster::new(cfg.clone());
        let mut inputs = Vec::new();
        let mut rng = StdRng::seed_from_u64(99);
        for r in rels {
            inputs.push(BoundRelation {
                stats: Arc::new(RelationStats::collect(r, 256, &mut rng)),
                file: Arc::new(mwtj_mapreduce::Dfs::seal(r.name(), r, &cfg)),
            });
        }
        let planner = Planner::new(CostModel::new(cfg, CalibratedParams::default()));
        (cluster, inputs, planner)
    }

    fn three_way() -> (MultiwayQuery, Vec<Relation>) {
        let r0 = rel("r0", 120, 1, 40);
        let r1 = rel("r1", 100, 2, 40);
        let r2 = rel("r2", 80, 3, 40);
        let q = QueryBuilder::new("q3")
            .relation(r0.schema().clone())
            .relation(r1.schema().clone())
            .relation(r2.schema().clone())
            .join("r0", "a", ThetaOp::Lt, "r1", "a")
            .join("r1", "b", ThetaOp::Eq, "r2", "b")
            .project("r2", "__rid")
            .build()
            .unwrap();
        (q, vec![r0, r1, r2])
    }

    #[test]
    fn ours_matches_oracle_three_way() {
        let (q, rels) = three_way();
        let refs: Vec<&Relation> = rels.iter().collect();
        let (cluster, inputs, planner) = setup(&refs, 32);
        let run = planner.execute_ours(&q, &inputs, &cluster);
        let want = canonicalize(oracle_join(&q, &refs));
        let got = canonicalize(run.output.into_rows());
        assert_eq!(got, want);
        assert!(run.sim_secs > 0.0);
        assert!(!run.jobs.is_empty());
    }

    #[test]
    fn baselines_match_oracle_three_way() {
        let (q, rels) = three_way();
        let refs: Vec<&Relation> = rels.iter().collect();
        let want = canonicalize(oracle_join(&q, &refs));
        for b in [Baseline::Hive, Baseline::Pig, Baseline::YSmart] {
            let (cluster, inputs, planner) = setup(&refs, 32);
            let run = planner.execute_baseline(b, &q, &inputs, &cluster);
            let got = canonicalize(run.output.into_rows());
            assert_eq!(got, want, "{b:?}");
        }
    }

    #[test]
    fn ours_plan_covers_all_conditions() {
        let (q, rels) = three_way();
        let refs: Vec<&Relation> = rels.iter().collect();
        let (_cluster, inputs, planner) = setup(&refs, 16);
        let (chosen, plan) = planner.plan_ours(&q, &BoundRelation::stats_of(&inputs), 16);
        let covered: u64 = chosen.iter().fold(0, |m, c| m | c.mask);
        assert_eq!(covered & 0b11, 0b11);
        assert!(plan.predicted_secs > 0.0);
        assert_eq!(plan.allotments.len(), chosen.len());
    }

    #[test]
    fn cascade_order_keeps_connectivity() {
        let (q, _) = three_way();
        assert_eq!(cascade_order(&q), vec![0, 1, 2]);
        // Star query: r0-r2 edge only, r0-r1 edge only: order must
        // never insert an unconnected relation between.
        let s = |n: &str| Schema::from_pairs(n, &[("a", DataType::Int)]);
        let q2 = QueryBuilder::new("star")
            .relation(s("x"))
            .relation(s("y"))
            .relation(s("z"))
            .join("x", "a", ThetaOp::Eq, "z", "a")
            .join("x", "a", ThetaOp::Lt, "y", "a")
            .build()
            .unwrap();
        let o = cascade_order(&q2);
        assert_eq!(o[0], 0);
        assert_eq!(o.len(), 3);
    }

    #[test]
    fn four_way_with_merge_matches_oracle() {
        // A path query long enough that the greedy cover may pick two
        // chain MRJs and merge them.
        let r0 = rel("r0", 60, 11, 30);
        let r1 = rel("r1", 50, 12, 30);
        let r2 = rel("r2", 40, 13, 30);
        let r3 = rel("r3", 30, 14, 30);
        let q = QueryBuilder::new("q4")
            .relation(r0.schema().clone())
            .relation(r1.schema().clone())
            .relation(r2.schema().clone())
            .relation(r3.schema().clone())
            .join("r0", "a", ThetaOp::Lt, "r1", "a")
            .join("r1", "b", ThetaOp::Eq, "r2", "b")
            .join("r2", "a", ThetaOp::Ge, "r3", "a")
            .build()
            .unwrap();
        let rels = [&r0, &r1, &r2, &r3];
        let (cluster, inputs, planner) = setup(&rels, 24);
        let run = planner.execute_ours(&q, &inputs, &cluster);
        let want = canonicalize(oracle_join(&q, &rels));
        let got = canonicalize(run.output.into_rows());
        assert_eq!(got.len(), want.len());
        assert_eq!(got, want);
    }

    #[test]
    fn pig_requests_fewer_reducers_than_hive() {
        let (q, rels) = three_way();
        let refs: Vec<&Relation> = rels.iter().collect();
        let (cluster, inputs, planner) = setup(&refs, 64);
        let hive = planner.execute_baseline(Baseline::Hive, &q, &inputs, &cluster);
        let pig = planner.execute_baseline(Baseline::Pig, &q, &inputs, &cluster);
        let hive_n: u32 = hive.jobs.iter().map(|j| j.reduce_tasks).max().unwrap();
        let pig_n: u32 = pig.jobs.iter().map(|j| j.reduce_tasks).max().unwrap();
        assert!(hive_n >= pig_n, "hive {hive_n} vs pig {pig_n}");
        assert_eq!(hive_n, 64);
    }
}
