//! Single-MRJ execution: real map/shuffle/reduce over DFS blocks with a
//! discrete-event simulated clock realising the paper's §4 phase
//! structure (Fig. 3: map waves, overlapped copy phase, straggler-bound
//! reduce phase).

use crate::cancel::CancelToken;
use crate::config::ClusterConfig;
use crate::dfs::{logical_file_name, Dfs};
use crate::error::ExecError;
use crate::faults::{FaultPlan, TaskKind};
use crate::job::{
    group_key, DeadRows, InputSpec, KeptRows, MrJob, SkipFilter, TagZones, TaggedRecord,
};
use crate::metrics::JobMetrics;
use crate::sink::{RowBatch, SinkSpec};
use mwtj_storage::{Relation, Tuple};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::BinaryHeap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Once;
use std::time::Instant;

/// The execution engine: a cluster config plus a DFS.
#[derive(Debug, Clone)]
pub struct Engine {
    config: ClusterConfig,
    dfs: Dfs,
    host_threads: usize,
    faults: FaultPlan,
}

/// Result of running one job.
#[derive(Debug)]
pub struct JobRun {
    /// The output rows (also written to DFS if requested).
    pub output: Relation,
    /// Measurements on both clocks.
    pub metrics: JobMetrics,
}

/// Per-task attempt accounting from the *real* retry loop: total
/// attempts consumed (successful attempt + reruns), reruns alone, and
/// how many of the failed attempts died as caught panics.
#[derive(Debug, Clone, Copy, Default)]
struct TaskStats {
    attempts: u32,
    retries: u32,
    panics: u32,
}

/// Outcome of one executed reduce task: its output rows (empty on the
/// streamed path, where rows went to the sink instead) plus the byte
/// and candidate counts the simulated clock prices — identical numbers
/// whichever path produced them.
struct ReduceTaskOut {
    rows: Vec<Tuple>,
    in_bytes: u64,
    candidates: u64,
    out_bytes: u64,
    out_records: u64,
    stats: TaskStats,
}

/// What every reduce task of one run shares.
#[derive(Clone, Copy)]
struct Reduce<'a> {
    job: &'a dyn MrJob,
    /// Records the job's dead-row filter counted instead of shipping
    /// (empty without a filter).
    counted: &'a Counted,
    faults: &'a FaultPlan,
    cancel: Option<&'a CancelToken>,
}

impl Reduce<'_> {
    /// Reducer `r`'s input, ready for its one [`MrJob::reduce_task`]
    /// call: its input bytes (shipped records and those counted for
    /// it), then the sort phase — a stable sort by grouping key, so
    /// groups run in ascending key order with arrival order kept within
    /// each.
    fn sort(&self, records: &mut [TaggedRecord], r: usize) -> u64 {
        let in_bytes =
            records.iter().map(|x| x.wire_bytes() as u64).sum::<u64>() + self.counted.bytes_of(r);
        records.sort_by_key(group_key);
        in_bytes
    }
}

/// Per-task result slot for the parallel map phase (written once by
/// the worker that claims the task).
type MapTaskSlot = Mutex<Option<Result<(MapTaskOut, TaskStats), ExecError>>>;

/// One map task: a kept input block, its tag and its seed.
struct MapTask {
    tag: u8,
    rows: std::sync::Arc<Vec<Tuple>>,
    bytes: usize,
    seed: u64,
}

/// Outcome of one executed map task, before shuffle pricing.
struct MapTaskOut {
    /// Emitted records with their destination reducer, in emit order.
    /// A single flat buffer per task (instead of one `Vec` per reducer
    /// per task) keeps map-side allocation O(1) per task regardless of
    /// the reduce fan-out.
    records: Vec<(u32, TaggedRecord)>,
    /// Records of dead rows, priced but not moved.
    counted: Counted,
    input_bytes: u64,
    input_records: u64,
    /// Shipped and counted records alike.
    output_bytes: u64,
    output_records: u64,
    /// Rows whose map call the skip filter dropped.
    rows_pruned: u64,
}

/// Records a [`DeadRows`] filter counted instead of shipping: per
/// reducer, how many of each input tag and their wire bytes. Empty when
/// the job offers no filter.
#[derive(Default)]
struct Counted {
    tags: usize,
    /// Reducer-major: `records[r * tags + tag]`.
    records: Vec<u64>,
    bytes: Vec<u64>,
}

impl Counted {
    fn new(reducers: usize, tags: usize) -> Self {
        Counted {
            tags,
            records: vec![0; reducers * tags],
            bytes: vec![0; reducers],
        }
    }

    fn add(&mut self, r: usize, tag: u8, bytes: usize) {
        self.records[r * self.tags + tag as usize] += 1;
        self.bytes[r] += bytes as u64;
    }

    fn merge(&mut self, other: &Counted) {
        for (a, b) in self.records.iter_mut().zip(&other.records) {
            *a += b;
        }
        for (a, b) in self.bytes.iter_mut().zip(&other.bytes) {
            *a += b;
        }
    }

    /// Reducer `r`'s counted records, per tag (empty without a
    /// filter).
    fn of(&self, r: usize) -> &[u64] {
        &self.records[r * self.tags..(r + 1) * self.tags]
    }

    fn bytes_of(&self, r: usize) -> u64 {
        self.bytes.get(r).copied().unwrap_or(0)
    }
}

thread_local! {
    /// Set while this thread is inside a `catch_unwind` that *expects*
    /// a panic (an injected panic-mode fault, or a real task panic the
    /// engine is about to convert into a typed error): the process
    /// panic hook stays quiet for these instead of spamming stderr
    /// with backtraces for failures that are contained by design.
    static EXPECTED_PANIC: Cell<bool> = const { Cell::new(false) };
}

/// Install (once per process) a panic hook that delegates to the
/// previous hook except for panics this module catches deliberately.
fn install_panic_silencer() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !EXPECTED_PANIC.with(|s| s.get()) {
                prev(info);
            }
        }));
    });
}

/// Run one task attempt with panic isolation: a panicking attempt —
/// injected or a real bug in the job — is caught and returned as its
/// payload text instead of unwinding through the engine (or a server
/// worker thread). The closure's own `Err` carries injected
/// error-mode aborts.
fn run_attempt<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    install_panic_silencer();
    EXPECTED_PANIC.with(|s| s.set(true));
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(f));
    EXPECTED_PANIC.with(|s| s.set(false));
    match outcome {
        Ok(result) => result,
        Err(payload) => Err(panic_detail(payload.as_ref())),
    }
}

/// Best-effort text of a caught panic payload.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

impl Engine {
    /// Create an engine over `dfs` with `config`.
    pub fn new(config: ClusterConfig, dfs: Dfs) -> Self {
        let host_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Engine {
            config,
            dfs,
            host_threads,
            faults: FaultPlan::none(),
        }
    }

    /// Replace the fault-injection plan (default: no faults). Injected
    /// failures *really* abort and rerun task attempts on the host
    /// (and charge the reruns plus backoff on the simulated clock);
    /// results are unaffected because tasks are deterministic in their
    /// inputs.
    pub fn set_fault_plan(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// The active fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The DFS.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// Run `job` over `inputs` with `units` processing units, `reducers`
    /// reduce tasks, and optionally persist the output as DFS file
    /// `out_file` (persisting charges a replicated write on the
    /// simulated clock — the intermediate-materialisation overhead that
    /// makes MRJ cascades expensive, §2.1).
    ///
    /// # Panics
    /// Panics on a malformed request or missing input file. Serving
    /// paths should prefer [`Engine::try_run`].
    pub fn run(
        &self,
        job: &dyn MrJob,
        inputs: &[InputSpec],
        units: u32,
        reducers: u32,
        out_file: Option<&str>,
    ) -> JobRun {
        self.try_run(job, inputs, units, reducers, out_file)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Engine::run`], but returns a typed error instead of
    /// panicking, using the engine's configured fault plan.
    pub fn try_run(
        &self,
        job: &dyn MrJob,
        inputs: &[InputSpec],
        units: u32,
        reducers: u32,
        out_file: Option<&str>,
    ) -> Result<JobRun, ExecError> {
        self.try_run_with(
            job,
            inputs,
            units,
            reducers,
            out_file,
            &self.faults,
            true,
            None,
        )
    }

    /// Like [`Engine::try_run`], but with an explicit per-run fault
    /// plan (so concurrent queries over one shared engine can carry
    /// different fault profiles), a `skipping` switch for zone-map
    /// data skipping (`false` disables it for this run only), and an
    /// optional [`CancelToken`] checked cooperatively at task/attempt
    /// granularity (deadlines and explicit cancellation).
    #[allow(clippy::too_many_arguments)]
    pub fn try_run_with(
        &self,
        job: &dyn MrJob,
        inputs: &[InputSpec],
        units: u32,
        reducers: u32,
        out_file: Option<&str>,
        faults: &FaultPlan,
        skipping: bool,
        cancel: Option<&CancelToken>,
    ) -> Result<JobRun, ExecError> {
        self.run_inner(
            job, inputs, units, reducers, out_file, faults, None, skipping, cancel,
        )
    }

    /// Run a *terminal* job whose output streams to `sink` as ordered
    /// [`RowBatch`]es instead of materialising: reduce tasks execute in
    /// reducer-index order and push rows as produced, so the batch
    /// concatenation is bit-identical to the buffered run's output and
    /// all simulated metrics are unchanged (only host wall-clock and
    /// peak memory differ — reducers run sequentially here, trading
    /// host parallelism for a bounded resident-row count). The returned
    /// [`JobRun::output`] is empty (schema only). Streamed output is
    /// never persisted to the DFS.
    ///
    /// Returns [`ExecError::Cancelled`] when the sink reports its
    /// receiver gone.
    #[allow(clippy::too_many_arguments)]
    pub fn try_run_streamed(
        &self,
        job: &dyn MrJob,
        inputs: &[InputSpec],
        units: u32,
        reducers: u32,
        faults: &FaultPlan,
        sink: &SinkSpec,
        skipping: bool,
        cancel: Option<&CancelToken>,
    ) -> Result<JobRun, ExecError> {
        self.run_inner(
            job,
            inputs,
            units,
            reducers,
            None,
            faults,
            Some(sink),
            skipping,
            cancel,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn run_inner(
        &self,
        job: &dyn MrJob,
        inputs: &[InputSpec],
        units: u32,
        reducers: u32,
        out_file: Option<&str>,
        faults: &FaultPlan,
        sink: Option<&SinkSpec>,
        skipping: bool,
        cancel: Option<&CancelToken>,
    ) -> Result<JobRun, ExecError> {
        if let Some(token) = cancel {
            token.check()?;
        }
        if units < 1 {
            return Err(ExecError::BadRequest {
                detail: format!("job `{}` needs at least one processing unit", job.name()),
            });
        }
        if reducers < 1 {
            return Err(ExecError::BadRequest {
                detail: format!("job `{}` needs at least one reduce task", job.name()),
            });
        }
        let wall_start = Instant::now();
        let hw = &self.config.hardware;
        let params = &self.config.params;

        // ---- collect input blocks (map tasks) ----
        let mut files = Vec::with_capacity(inputs.len());
        for spec in inputs {
            let file = match &spec.bound {
                Some(file) => std::sync::Arc::clone(file),
                None => self
                    .dfs
                    .get(&spec.file)
                    .ok_or_else(|| ExecError::MissingFile {
                        name: spec.file.clone(),
                    })?,
            };
            files.push(file);
        }
        // Zone-map routing: let the job compile a skip filter over the
        // input blocks' zone maps. Skipping is drop-only — a skipped
        // block simply contributes no map task and a skipped row no map
        // call; kept blocks keep their original block index (and thus
        // seed) and kept rows their original in-block index, so
        // surviving emissions are bit-identical to a skip-off run.
        let filter: Option<Box<dyn SkipFilter>> = if skipping {
            let mut tz = TagZones::new();
            for (spec, file) in inputs.iter().zip(&files) {
                for block in &file.blocks {
                    tz.push(spec.tag, std::sync::Arc::clone(&block.zones));
                }
            }
            job.skip_filter(&tz)
        } else {
            None
        };
        let skipf: Option<&dyn SkipFilter> = filter.as_deref();
        let mut tasks: Vec<MapTask> = Vec::new();
        let mut tag_ord = [0usize; 256];
        let mut zone_blocks = 0u64;
        let mut zone_blocks_pruned = 0u64;
        let mut zone_rows_total = 0u64;
        let mut zone_rows_pruned = 0u64;
        for (spec, file) in inputs.iter().zip(&files) {
            for (bi, block) in file.blocks.iter().enumerate() {
                let ord = tag_ord[spec.tag as usize];
                tag_ord[spec.tag as usize] += 1;
                if skipf.is_some() {
                    zone_blocks += 1;
                    zone_rows_total += block.rows.len() as u64;
                }
                if let Some(f) = skipf {
                    if !f.keep_block(spec.tag, ord) {
                        zone_blocks_pruned += 1;
                        zone_rows_pruned += block.rows.len() as u64;
                        continue;
                    }
                }
                tasks.push(MapTask {
                    tag: spec.tag,
                    rows: std::sync::Arc::clone(&block.rows),
                    bytes: block.bytes,
                    seed: block_seed(&job.name(), &spec.file, bi as u64),
                });
            }
        }
        let m = tasks.len().max(1) as u32;
        // Dead-row routing: over the rows that reach a map call, the job
        // may prove some unable to join (skipping on or off). Their
        // records are counted per reducer and tag, not built or moved,
        // and every priced figure below includes them.
        let dead_filter = {
            let mut kept = KeptRows::new(skipf);
            for task in &tasks {
                kept.push(task.tag, &task.rows);
            }
            job.dead_rows(&kept)
        };
        let dead: Option<&dyn DeadRows> = dead_filter.as_deref();
        let n_tags = inputs.iter().map(|s| s.tag as usize + 1).max().unwrap_or(0);

        // ---- map phase (real, parallel on host, per-task retries) ----
        // Every task runs a bounded attempt loop: a `FaultPlan`-selected
        // attempt *really* aborts mid-execution — an injected error
        // return or a deliberate panic, both contained by
        // `catch_unwind` — and the task reruns from its materialised
        // DFS block (`rows` is untouched `Arc` data; every attempt
        // starts with fresh output buffers). Because tasks are
        // deterministic in their input split, the surviving attempt's
        // output is bit-identical to a fault-free run. A task that
        // keeps dying past the plan's attempt budget (only possible for
        // *real* job panics — injection spares the final attempt)
        // fails the job with a typed `TaskFailed`.
        let n_red = reducers as usize;
        let results: Vec<MapTaskSlot> = (0..tasks.len()).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let abort_all = AtomicBool::new(false);
        let workers = self.host_threads.min(tasks.len().max(1));
        crossbeam::scope(|s| {
            for _ in 0..workers {
                s.spawn(|_| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= tasks.len() || abort_all.load(Ordering::Relaxed) {
                        break;
                    }
                    let outcome = run_map_task(
                        job,
                        &tasks[i],
                        reducers,
                        skipf,
                        dead.map(|d| (d, n_tags)),
                        faults,
                        i as u32,
                        cancel,
                    );
                    if outcome.is_err() {
                        abort_all.store(true, Ordering::Relaxed);
                    }
                    *results[i].lock() = Some(outcome);
                });
            }
        })
        .expect("map phase coordinator panicked");

        let mut map_outs: Vec<(MapTaskOut, TaskStats)> = Vec::with_capacity(tasks.len());
        let mut first_err: Option<ExecError> = None;
        for slot in results {
            match slot.into_inner() {
                Some(Ok(out)) => map_outs.push(out),
                Some(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                // A worker bailed early because another task failed.
                None => {}
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        let map_done = Instant::now();

        // ---- simulated map + copy phases ----
        // Each map task: sequential block read + per-record CPU + spill.
        // Tasks run in waves over `units` slots (the paper's m/m' rounds,
        // Eq. 2/4); each task's copy starts when the task ends (overlap,
        // Fig. 3) and ends after its network transfer + connection
        // service (Eq. 3). Attempt counts come from the *real* retry
        // loop above (identical to `FaultPlan::attempts_for` absent
        // real task panics, since injection makes the same decisions);
        // wasted attempts are charged in full, plus the deterministic
        // rescheduling backoff between attempts.
        let mut slot_heap: BinaryHeap<std::cmp::Reverse<NotNanF64>> = (0..units)
            .map(|_| std::cmp::Reverse(NotNanF64(0.0)))
            .collect();
        let mut sim_map_end = 0.0f64;
        let mut sim_shuffle_end = 0.0f64;
        let mut map_attempts = 0u32;
        let mut real_map_retries = 0u32;
        let mut panics_caught = 0u32;
        for (mo, stats) in map_outs.iter() {
            let read = mo.input_bytes as f64 * hw.c1();
            let cpu = mo.input_records as f64 * hw.cpu_per_record_secs;
            let spill =
                mo.output_bytes as f64 * hw.p_spill_secs_per_byte(mo.output_bytes as f64, params);
            map_attempts += stats.attempts;
            real_map_retries += stats.retries;
            panics_caught += stats.panics;
            let dur = (read + cpu + spill) * stats.attempts as f64
                + faults.backoff_total_secs(stats.attempts.saturating_sub(1));
            let std::cmp::Reverse(NotNanF64(free_at)) =
                slot_heap.pop().expect("slot heap nonempty");
            let end = free_at + dur;
            slot_heap.push(std::cmp::Reverse(NotNanF64(end)));
            sim_map_end = sim_map_end.max(end);
            let tcp = hw.c2() * mo.output_bytes as f64 / reducers as f64
                + hw.q_conn_secs(reducers, mo.output_bytes as f64) * reducers as f64;
            sim_shuffle_end = sim_shuffle_end.max(end + tcp);
        }

        // ---- shuffle (real) ----
        // Records *move* from map output to reducer input buffers: no
        // tuple clones on this path. Each reducer's buffer receives
        // records in map-task order, then emit order within a task —
        // deterministic regardless of which host thread ran which task.
        let mut reducer_inputs: Vec<Vec<TaggedRecord>> = (0..n_red).map(|_| Vec::new()).collect();
        let mut counted = match dead {
            Some(_) => Counted::new(n_red, n_tags),
            None => Counted::default(),
        };
        let mut input_bytes = 0u64;
        let mut input_records = 0u64;
        let mut map_output_bytes = 0u64;
        let mut map_output_records = 0u64;
        let mut shipped_records = 0u64;
        for (mo, _) in map_outs {
            input_bytes += mo.input_bytes;
            input_records += mo.input_records;
            map_output_bytes += mo.output_bytes;
            map_output_records += mo.output_records;
            zone_rows_pruned += mo.rows_pruned;
            counted.merge(&mo.counted);
            shipped_records += mo.records.len() as u64;
            for (r, rec) in mo.records {
                reducer_inputs[r as usize].push(rec);
            }
        }
        let shuffle_elided = map_output_records - shipped_records;
        let (zone_pairs, zone_pairs_pruned) = skipf.map_or((0, 0), |f| f.pair_counts());
        let shuffle_done = Instant::now();

        // ---- reduce phase (real) ----
        // Hadoop's actual sort-merge semantics: each reduce task sorts
        // its input by grouping key in place (stable, so records keep
        // their arrival order within a group) and hands the job its
        // whole sorted input in one `reduce_task` call — zero record
        // clones, no per-key re-bucketing.
        //
        // Two drive modes with identical results and accounting:
        // buffered (parallel on host, rows collected per reducer) and
        // streamed (reducers in index order on this thread, rows pushed
        // to the sink as produced — the ordered-delivery requirement is
        // what serialises them; the simulated clock never sees host
        // parallelism either way).
        let examined_before = job.reduce_examined();
        let reduce = Reduce {
            job,
            counted: &counted,
            faults,
            cancel,
        };
        let (reduce_outs, mut deliver) = match sink {
            Some(spec) => self.reduce_streamed_phase(&reduce, reducer_inputs, spec)?,
            None => (
                self.reduce_parallel_phase(&reduce, reducer_inputs)?,
                std::time::Duration::ZERO,
            ),
        };

        // ---- simulated reduce phase ----
        // n reduce tasks list-scheduled (longest first) over `units`
        // slots, starting when the copy phase ends; each charges a merge
        // read of its input, CPU per candidate, and the output write
        // (replicated if persisted to DFS, plain local write otherwise).
        let mut per_reduce: Vec<(f64, u32, usize)> = Vec::with_capacity(n_red);
        let mut reduce_input_max = 0u64;
        let mut reduce_input_sum = 0u64;
        let mut reduce_candidates = 0u64;
        let mut output_bytes = 0u64;
        let mut output_records = 0u64;
        let mut real_reduce_retries = 0u32;
        for (r, ro) in reduce_outs.iter().enumerate() {
            reduce_input_max = reduce_input_max.max(ro.in_bytes);
            reduce_input_sum += ro.in_bytes;
            reduce_candidates = reduce_candidates.saturating_add(ro.candidates);
            output_bytes += ro.out_bytes;
            output_records += ro.out_records;
            let write_rate = if out_file.is_some() {
                hw.disk_write_bps // replicated DFS pipeline rate
            } else {
                hw.disk_read_bps // local materialisation only
            };
            let attempts = ro.stats.attempts;
            real_reduce_retries += ro.stats.retries;
            panics_caught += ro.stats.panics;
            let dur = (ro.in_bytes as f64 * hw.c1()
                + ro.candidates as f64 * hw.cpu_per_candidate_secs
                + ro.out_bytes as f64 / write_rate)
                * attempts as f64
                + faults.backoff_total_secs(attempts.saturating_sub(1));
            per_reduce.push((dur, attempts, r));
        }
        per_reduce.sort_by(|a, b| b.0.total_cmp(&a.0)); // longest first
        let reduce_attempts: u32 = per_reduce.iter().map(|x| x.1).sum();
        let mut rslots: BinaryHeap<std::cmp::Reverse<NotNanF64>> = (0..units)
            .map(|_| std::cmp::Reverse(NotNanF64(sim_shuffle_end)))
            .collect();
        let mut sim_total = sim_shuffle_end.max(sim_map_end);
        for (dur, _, _) in &per_reduce {
            let std::cmp::Reverse(NotNanF64(free_at)) =
                rslots.pop().expect("reduce slot heap nonempty");
            let end = free_at + dur;
            rslots.push(std::cmp::Reverse(NotNanF64(end)));
            sim_total = sim_total.max(end);
        }

        // Output assembly: the buffered path's result relation (and its
        // DFS write) — timed once, like the streamed path's sends, since
        // a clock read per row would cost as much as building the row.
        let assembling = Instant::now();
        let mut output_rows: Vec<Tuple> = Vec::with_capacity(output_records as usize);
        for ro in reduce_outs {
            output_rows.extend(ro.rows);
        }
        let output = Relation::from_rows_unchecked(job.output_schema(), output_rows);
        if let Some(name) = out_file {
            self.dfs.put_relation(name, &output, &self.config);
        }
        deliver += assembling.elapsed();

        let done = Instant::now();
        let metrics = JobMetrics {
            name: job.name(),
            ticket: 0,
            trace_id: 0,
            map_tasks: m,
            reduce_tasks: reducers,
            units,
            input_bytes,
            input_records,
            map_output_bytes,
            map_output_records,
            shuffle_elided,
            reduce_input_max_bytes: reduce_input_max,
            reduce_input_mean_bytes: reduce_input_sum as f64 / n_red as f64,
            reduce_candidates,
            reduce_examined: job
                .reduce_examined()
                .zip(examined_before)
                .map(|(after, before)| after - before),
            output_bytes,
            output_records,
            sim_map_end_secs: sim_map_end,
            sim_shuffle_end_secs: sim_shuffle_end,
            sim_total_secs: sim_total,
            real_secs: (done - wall_start).as_secs_f64(),
            real_map_secs: (map_done - wall_start).as_secs_f64(),
            real_shuffle_secs: (shuffle_done - map_done).as_secs_f64(),
            real_reduce_secs: (done - shuffle_done).as_secs_f64(),
            real_deliver_secs: deliver.as_secs_f64(),
            map_attempts,
            reduce_attempts,
            real_map_retries,
            real_reduce_retries,
            panics_caught,
            zone_blocks,
            zone_blocks_pruned,
            zone_pairs,
            zone_pairs_pruned,
            zone_rows_total,
            zone_rows_pruned,
        };
        Ok(JobRun { output, metrics })
    }

    /// Buffered reduce: tasks run in parallel on the host, each
    /// collecting its output rows, under the same bounded attempt loop
    /// as the map phase. A retry is safe because an attempt only
    /// *reads* the task's sorted input (the stable sort is idempotent
    /// and runs once, before the first attempt) and every attempt
    /// starts with a fresh output buffer.
    fn reduce_parallel_phase(
        &self,
        reduce: &Reduce<'_>,
        reducer_inputs: Vec<Vec<TaggedRecord>>,
    ) -> Result<Vec<ReduceTaskOut>, ExecError> {
        let n_red = reducer_inputs.len();
        let reduce_results: Vec<Mutex<Option<Result<ReduceTaskOut, ExecError>>>> =
            (0..n_red).map(|_| Mutex::new(None)).collect();
        let reducer_inputs: Vec<Mutex<Vec<TaggedRecord>>> =
            reducer_inputs.into_iter().map(Mutex::new).collect();
        let next_r = AtomicUsize::new(0);
        let abort_all = AtomicBool::new(false);
        let rworkers = self.host_threads.min(n_red.max(1));
        crossbeam::scope(|s| {
            for _ in 0..rworkers {
                s.spawn(|_| loop {
                    let r = next_r.fetch_add(1, Ordering::Relaxed);
                    if r >= n_red || abort_all.load(Ordering::Relaxed) {
                        break;
                    }
                    let mut records = std::mem::take(&mut *reducer_inputs[r].lock());
                    let in_bytes = reduce.sort(&mut records, r);
                    let outcome = run_reduce_task(reduce, &records, r, in_bytes);
                    if outcome.is_err() {
                        abort_all.store(true, Ordering::Relaxed);
                    }
                    *reduce_results[r].lock() = Some(outcome);
                });
            }
        })
        .expect("reduce phase coordinator panicked");
        let mut outs = Vec::with_capacity(n_red);
        let mut first_err: Option<ExecError> = None;
        for slot in reduce_results {
            match slot.into_inner() {
                Some(Ok(out)) => outs.push(out),
                Some(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                None => {}
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(outs),
        }
    }

    /// Streamed reduce: tasks run sequentially in reducer-index order,
    /// pushing rows into bounded batches delivered through the sink —
    /// the global row order (reducer index, then ascending group key,
    /// then emit order) is exactly the buffered path's concatenation
    /// order. Batches may span reducer boundaries; the last batch may
    /// be short. Aborts with [`ExecError::Cancelled`] as soon as the
    /// sink reports its receiver gone (or the cancel token flips;
    /// [`ExecError::DeadlineExceeded`] when its deadline passes).
    /// Returns the tasks' outcomes and the wall time spent blocked in
    /// [`BatchSink::send`](crate::BatchSink::send), timed per batch.
    ///
    /// Fault semantics on this path: **injected** aborts fire at
    /// attempt start — after the sort, before any row is emitted — so
    /// a retry is always safe and the delivered batch sequence is
    /// bit-identical to a fault-free run (attempt counts still match
    /// the buffered path's, since both consume the same
    /// `FaultPlan::fails` decisions). A **real** job panic is caught
    /// and retried only while the attempt has emitted nothing; once
    /// rows have escaped to the client a rerun would duplicate them,
    /// so the task fails immediately with a typed `TaskFailed`.
    fn reduce_streamed_phase(
        &self,
        reduce: &Reduce<'_>,
        reducer_inputs: Vec<Vec<TaggedRecord>>,
        spec: &SinkSpec,
    ) -> Result<(Vec<ReduceTaskOut>, std::time::Duration), ExecError> {
        let Reduce {
            job,
            faults,
            cancel,
            ..
        } = *reduce;
        let cap = spec.batch_rows.max(1);
        let mut outs = Vec::with_capacity(reducer_inputs.len());
        let mut batch: Vec<Tuple> = Vec::with_capacity(cap);
        let mut deliver = std::time::Duration::ZERO;
        let send = |rows: Vec<Tuple>, deliver: &mut std::time::Duration| {
            let sending = Instant::now();
            let delivered = spec.sink.send(RowBatch { rows });
            *deliver += sending.elapsed();
            delivered
        };
        for (r, mut records) in reducer_inputs.into_iter().enumerate() {
            let in_bytes = reduce.sort(&mut records, r);
            let mut stats = TaskStats::default();
            let max_attempts = faults.max_attempts.max(1);
            let (candidates, out_bytes, out_records) = loop {
                let attempt = stats.attempts;
                stats.attempts += 1;
                if let Some(token) = cancel {
                    token.check()?;
                }
                // Injected abort: before any emission, always safe to
                // rerun.
                if faults.fails(TaskKind::Reduce, r as u32, attempt) {
                    stats.retries += 1;
                    if faults.panics(TaskKind::Reduce, r as u32, attempt) {
                        stats.panics += 1;
                        // Exercise the catch_unwind isolation for real.
                        let detail = run_attempt::<()>(|| {
                            panic!("injected fault: streamed reduce task {r} attempt {attempt}")
                        })
                        .expect_err("injected panic must be caught");
                        debug_assert!(detail.contains("injected"));
                    }
                    continue;
                }
                let cancelled = Cell::new(false);
                let deadline_hit = Cell::new(false);
                let mut out_bytes = 0u64;
                let mut out_records = 0u64;
                let mut candidates = 0u64;
                let attempt_result = run_attempt(|| {
                    let emit = &mut |row: Tuple, priced: u64| {
                        if cancelled.get() || deadline_hit.get() {
                            return false;
                        }
                        out_bytes += priced;
                        out_records += 1;
                        batch.push(row);
                        if batch.len() >= cap {
                            if let Some(token) = cancel {
                                match token.check() {
                                    Ok(()) => {}
                                    Err(ExecError::DeadlineExceeded) => {
                                        deadline_hit.set(true);
                                        return false;
                                    }
                                    Err(_) => {
                                        cancelled.set(true);
                                        return false;
                                    }
                                }
                            }
                            let full = std::mem::replace(&mut batch, Vec::with_capacity(cap));
                            if !send(full, &mut deliver) {
                                cancelled.set(true);
                                return false;
                            }
                        }
                        true
                    };
                    candidates = job.reduce_task(r as u64, &records, reduce.counted.of(r), emit);
                    Ok(())
                });
                if deadline_hit.get() {
                    return Err(ExecError::DeadlineExceeded);
                }
                if cancelled.get() {
                    return Err(ExecError::Cancelled);
                }
                match attempt_result {
                    Ok(()) => break (candidates, out_bytes, out_records),
                    Err(detail) => {
                        // A real panic mid-attempt. Retryable only if
                        // nothing escaped to the client this attempt.
                        stats.retries += 1;
                        stats.panics += 1;
                        if out_records > 0 || stats.attempts >= max_attempts {
                            return Err(ExecError::TaskFailed {
                                stage: "reduce",
                                task: r as u32,
                                attempts: stats.attempts,
                                detail,
                            });
                        }
                        // Rows buffered but not yet sent are discarded
                        // with the attempt (out_records == 0 implies
                        // none were pushed).
                    }
                }
            };
            outs.push(ReduceTaskOut {
                rows: Vec::new(),
                in_bytes,
                candidates,
                out_bytes,
                out_records,
                stats,
            });
        }
        if !batch.is_empty() && !send(batch, &mut deliver) {
            return Err(ExecError::Cancelled);
        }
        Ok((outs, deliver))
    }
}

/// Abort the current attempt at an injected fault point: in panic mode
/// the abort unwinds (and is contained by [`run_attempt`]'s
/// `catch_unwind`); in error mode it returns the failure as an `Err`.
/// Either way the attempt's partial output dies with it.
fn abort_injected(stage: &str, task: u32, attempt: u32, panic_mode: bool) -> Result<(), String> {
    let detail = format!("injected {stage} fault: task {task} attempt {attempt}");
    if panic_mode {
        std::panic::panic_any(detail);
    }
    Err(detail)
}

/// Execute one map task under the bounded retry loop. Returns the
/// surviving attempt's output plus attempt accounting, or
/// [`ExecError::TaskFailed`] once the attempt budget is spent. Under a
/// dead-row filter (`dead`, with the run's tag count) a dead row's
/// records are counted, not emitted.
///
/// A `FaultPlan`-selected attempt really aborts halfway through its
/// input block — an injected `Err` or a deliberate panic, chosen by an
/// independent hash stream — and the retry restarts from the untouched
/// `Arc` block data with fresh output buffers and counts, so the
/// surviving attempt's emissions are bit-identical to a fault-free run.
#[allow(clippy::too_many_arguments)]
fn run_map_task(
    job: &dyn MrJob,
    map_task: &MapTask,
    reducers: u32,
    skipf: Option<&dyn SkipFilter>,
    dead: Option<(&dyn DeadRows, usize)>,
    faults: &FaultPlan,
    task: u32,
    cancel: Option<&CancelToken>,
) -> Result<(MapTaskOut, TaskStats), ExecError> {
    let MapTask {
        tag,
        ref rows,
        bytes,
        seed,
    } = *map_task;
    let max_attempts = faults.max_attempts.max(1);
    let mut stats = TaskStats::default();
    loop {
        let attempt = stats.attempts;
        stats.attempts += 1;
        if let Some(token) = cancel {
            token.check()?;
        }
        let inject = faults.fails(TaskKind::Map, task, attempt);
        let panic_mode = inject && faults.panics(TaskKind::Map, task, attempt);
        let inject_at = rows.len() / 2;
        // Fresh per-attempt output state: a failed attempt's partial
        // emissions are discarded wholesale.
        let mut records: Vec<(u32, TaggedRecord)> = Vec::new();
        let mut out_bytes = 0u64;
        let mut out_records = 0u64;
        let mut rows_pruned = 0u64;
        let mut counted = dead.map_or_else(Counted::default, |(_, tags)| {
            Counted::new(reducers as usize, tags)
        });
        let mut counted_bytes = 0u64;
        let mut counted_records = 0u64;
        let attempt_result = run_attempt(|| {
            let mut emit = |key: u64, rec: TaggedRecord| {
                let r = (key % reducers as u64) as u32;
                out_bytes += rec.wire_bytes() as u64;
                out_records += 1;
                records.push((r, rec));
            };
            let mut count = |key: u64, bytes: usize| {
                counted_bytes += bytes as u64;
                counted_records += 1;
                counted.add((key % reducers as u64) as usize, tag, bytes);
            };
            for (ri, row) in rows.iter().enumerate() {
                if inject && ri == inject_at {
                    abort_injected("map", task, attempt, panic_mode)?;
                }
                if let Some(f) = skipf {
                    if !f.keep_row(tag, row) {
                        rows_pruned += 1;
                        continue;
                    }
                }
                if dead.is_some_and(|(d, _)| d.count(tag, row, seed, ri, &mut count)) {
                    continue;
                }
                job.map(tag, row, seed, ri, &mut emit);
            }
            if inject && rows.is_empty() {
                abort_injected("map", task, attempt, panic_mode)?;
            }
            Ok(())
        });
        match attempt_result {
            Ok(()) => {
                let out = MapTaskOut {
                    records,
                    counted,
                    input_bytes: bytes as u64,
                    input_records: rows.len() as u64,
                    output_bytes: out_bytes + counted_bytes,
                    output_records: out_records + counted_records,
                    rows_pruned,
                };
                return Ok((out, stats));
            }
            Err(detail) => {
                stats.retries += 1;
                if detail.starts_with("panic") {
                    stats.panics += 1;
                }
                if stats.attempts >= max_attempts {
                    return Err(ExecError::TaskFailed {
                        stage: "map",
                        task,
                        attempts: stats.attempts,
                        detail,
                    });
                }
            }
        }
    }
}

/// Execute one buffered reduce task under the bounded retry loop over
/// its already-sorted input (of `in_bytes`): the surviving attempt's
/// rows, priced bytes, candidates and attempt accounting, or
/// [`ExecError::TaskFailed`]. A retry is safe because
/// attempts only *read* `records` (sorted once, before the first
/// attempt) and start with a fresh output buffer; the injected abort
/// fires after the task's one [`MrJob::reduce_task`] call, so real work
/// really is thrown away and redone.
fn run_reduce_task(
    reduce: &Reduce<'_>,
    records: &[TaggedRecord],
    r: usize,
    in_bytes: u64,
) -> Result<ReduceTaskOut, ExecError> {
    let Reduce {
        job,
        faults,
        cancel,
        ..
    } = *reduce;
    let max_attempts = faults.max_attempts.max(1);
    let mut stats = TaskStats::default();
    loop {
        let attempt = stats.attempts;
        stats.attempts += 1;
        if let Some(token) = cancel {
            token.check()?;
        }
        let inject = faults.fails(TaskKind::Reduce, r as u32, attempt);
        let panic_mode = inject && faults.panics(TaskKind::Reduce, r as u32, attempt);
        let mut rows: Vec<Tuple> = Vec::new();
        let mut out_bytes = 0u64;
        let mut candidates = 0u64;
        let attempt_result = run_attempt(|| {
            candidates = job.reduce_task(
                r as u64,
                records,
                reduce.counted.of(r),
                &mut |row, priced| {
                    out_bytes += priced;
                    rows.push(row);
                    true
                },
            );
            if inject {
                abort_injected("reduce", r as u32, attempt, panic_mode)?;
            }
            Ok(())
        });
        match attempt_result {
            Ok(()) => {
                return Ok(ReduceTaskOut {
                    out_records: rows.len() as u64,
                    rows,
                    in_bytes,
                    candidates,
                    out_bytes,
                    stats,
                })
            }
            Err(detail) => {
                stats.retries += 1;
                if detail.starts_with("panic") {
                    stats.panics += 1;
                }
                if stats.attempts >= max_attempts {
                    return Err(ExecError::TaskFailed {
                        stage: "reduce",
                        task: r as u32,
                        attempts: stats.attempts,
                        detail,
                    });
                }
            }
        }
    }
}

/// f64 wrapper ordered by total order, for the slot heaps.
#[derive(PartialEq)]
struct NotNanF64(f64);

impl Eq for NotNanF64 {}

impl PartialOrd for NotNanF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NotNanF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Per-task seed for deterministic pseudo-random draws: hashes the job
/// name, the input's *logical* label (a bound base input is labelled
/// with the query's alias, and the per-run `__run<N>_` prefix of an
/// intermediate is dropped, so re-running a query — ad-hoc, prepared or
/// streamed — stays bit-identical in row order *and* simulated metrics)
/// and the block's original index, which skipping never renumbers.
fn block_seed(job: &str, file: &str, block: u64) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    job.hash(&mut h);
    logical_file_name(file).hash(&mut h);
    block.hash(&mut h);
    h.finish()
}

/// Mask marking [`TaggedRecord::aux`] as the reduce grouping key.
///
/// Two kinds of jobs flow through the engine. *Partition* jobs (Hilbert
/// chain join, broadcast pair join) emit the reduce component id as the
/// partition key and want the whole partition as a single group. *Hash*
/// jobs (equi-join, merges) need one group per distinct key even when
/// several keys share a reducer — they set this bit and stash the full
/// grouping key in [`TaggedRecord::aux`]; [`key_groups`](crate::key_groups)
/// walks those groups.
pub const GROUP_BY_AUX: u64 = 1 << 63;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use mwtj_storage::{tuple, DataType, Schema};

    /// Word-count-ish job: counts rows per residue of column 0.
    struct CountByMod {
        k: u64,
    }

    impl MrJob for CountByMod {
        fn name(&self) -> String {
            "count_by_mod".into()
        }

        fn output_schema(&self) -> Schema {
            Schema::from_pairs("counts", &[("key", DataType::Int), ("n", DataType::Int)])
        }

        fn map(
            &self,
            _tag: u8,
            row: &Tuple,
            _seed: u64,
            _ri: usize,
            emit: &mut crate::job::Emit<'_>,
        ) {
            let k = row.get(0).as_int().unwrap() as u64 % self.k;
            emit(
                k,
                TaggedRecord {
                    tag: 0,
                    aux: GROUP_BY_AUX | k,
                    tuple: row.clone(),
                },
            );
        }

        fn reduce_task(
            &self,
            _r: u64,
            records: &[TaggedRecord],
            _counted: &[u64],
            emit: &mut crate::job::ReduceEmit<'_>,
        ) -> u64 {
            for group in crate::job::key_groups(records) {
                let row = tuple![(group[0].aux & !GROUP_BY_AUX) as i64, group.len() as i64];
                let bytes = row.encoded_len() as u64;
                emit(row, bytes);
            }
            records.len() as u64
        }
    }

    fn setup(rows: usize) -> (Engine, ClusterConfig) {
        let cfg = ClusterConfig::default();
        let dfs = Dfs::new();
        let schema = Schema::from_pairs("t", &[("a", DataType::Int)]);
        let rel =
            Relation::from_rows_unchecked(schema, (0..rows).map(|i| tuple![i as i64]).collect());
        dfs.put_relation("t", &rel, &cfg);
        (Engine::new(cfg.clone(), dfs), cfg)
    }

    #[test]
    fn count_job_is_correct() {
        let (engine, _) = setup(10_000);
        let job = CountByMod { k: 7 };
        let run = engine.run(&job, &[InputSpec::new("t", 0)], 8, 4, None);
        let mut counts: Vec<(i64, i64)> = run
            .output
            .rows()
            .iter()
            .map(|t| (t.get(0).as_int().unwrap(), t.get(1).as_int().unwrap()))
            .collect();
        counts.sort_unstable();
        assert_eq!(counts.len(), 7);
        let total: i64 = counts.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 10_000);
        // keys 0..10000 mod 7: keys 0..3 appear 1429 times, others 1428.
        for (k, n) in counts {
            let expect = if (k as u64) < 10_000 % 7 { 1429 } else { 1428 };
            assert_eq!(n, expect, "key {k}");
        }
    }

    #[test]
    fn metrics_account_bytes_and_records() {
        let (engine, _) = setup(5_000);
        let job = CountByMod { k: 3 };
        let run = engine.run(&job, &[InputSpec::new("t", 0)], 8, 4, None);
        let m = &run.metrics;
        assert_eq!(m.input_records, 5_000);
        assert_eq!(m.map_output_records, 5_000);
        assert_eq!(m.output_records, 3);
        assert!(m.input_bytes > 0);
        assert!(m.map_output_bytes > m.input_bytes, "wire overhead");
        assert!(m.map_tasks >= 1);
        assert!(m.sim_total_secs > 0.0);
        assert!(m.sim_map_end_secs <= m.sim_shuffle_end_secs);
        assert!(m.sim_shuffle_end_secs <= m.sim_total_secs);
        assert!(m.real_secs > 0.0);
    }

    #[test]
    fn fewer_units_means_longer_simulated_time() {
        let (engine, _) = setup(50_000);
        let job = CountByMod { k: 16 };
        let fast = engine.run(&job, &[InputSpec::new("t", 0)], 32, 16, None);
        let slow = engine.run(&job, &[InputSpec::new("t", 0)], 2, 16, None);
        assert!(
            slow.metrics.sim_total_secs > fast.metrics.sim_total_secs,
            "{} vs {}",
            slow.metrics.sim_total_secs,
            fast.metrics.sim_total_secs
        );
        // Same real answer either way.
        assert_eq!(fast.output.sorted_rows(), slow.output.sorted_rows());
    }

    #[test]
    fn persisting_output_charges_more_and_writes_file() {
        let (engine, _) = setup(20_000);
        let job = CountByMod { k: 1000 };
        let local = engine.run(&job, &[InputSpec::new("t", 0)], 8, 8, None);
        let dfs = engine.run(&job, &[InputSpec::new("t", 0)], 8, 8, Some("out"));
        assert!(dfs.metrics.sim_total_secs >= local.metrics.sim_total_secs);
        let f = engine.dfs().read_relation("out").unwrap();
        assert_eq!(f.len(), 1000);
    }

    /// The sort-merge grouping contract: within one reducer, groups
    /// arrive in ascending key order and records within a group keep
    /// their arrival (map-task, then emit) order.
    #[test]
    fn groups_are_key_sorted_and_arrival_ordered() {
        use parking_lot::Mutex;

        struct Recorder {
            seen: Mutex<Vec<(u64, Vec<i64>)>>,
        }

        impl MrJob for Recorder {
            fn name(&self) -> String {
                "recorder".into()
            }

            fn output_schema(&self) -> Schema {
                Schema::from_pairs("o", &[("v", DataType::Int)])
            }

            fn map(
                &self,
                _tag: u8,
                row: &Tuple,
                _seed: u64,
                _ri: usize,
                emit: &mut crate::job::Emit<'_>,
            ) {
                let v = row.get(0).as_int().unwrap();
                let k = (v as u64) % 5;
                emit(
                    0, // everything lands in reducer 0
                    TaggedRecord {
                        tag: 0,
                        aux: GROUP_BY_AUX | k,
                        tuple: row.clone(),
                    },
                );
            }

            fn reduce_task(
                &self,
                _r: u64,
                records: &[TaggedRecord],
                _counted: &[u64],
                _emit: &mut crate::job::ReduceEmit<'_>,
            ) -> u64 {
                for group in crate::job::key_groups(records) {
                    let vals: Vec<i64> = group
                        .iter()
                        .map(|r| r.tuple.get(0).as_int().unwrap())
                        .collect();
                    self.seen.lock().push((group[0].aux & !GROUP_BY_AUX, vals));
                }
                records.len() as u64
            }
        }

        let cfg = ClusterConfig::default();
        let dfs = Dfs::new();
        let schema = Schema::from_pairs("t", &[("a", DataType::Int)]);
        let rel =
            Relation::from_rows_unchecked(schema, (0..200).map(|i| tuple![i as i64]).collect());
        dfs.put_relation("t", &rel, &cfg);
        let engine = Engine::new(cfg, dfs);
        let job = Recorder {
            seen: Mutex::new(Vec::new()),
        };
        let _ = engine.run(&job, &[InputSpec::new("t", 0)], 4, 1, None);
        let seen = job.seen.into_inner();
        let keys: Vec<u64> = seen.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted, "groups must arrive in ascending key order");
        for (k, vals) in &seen {
            // Values within a group keep block order (blocks are read
            // in file order, so values ascend within each group).
            let mut s = vals.clone();
            s.sort_unstable();
            assert_eq!(vals, &s, "group {k} lost arrival order");
            assert!(vals.iter().all(|v| (*v as u64) % 5 == *k));
        }
        assert_eq!(seen.iter().map(|(_, v)| v.len()).sum::<usize>(), 200);
    }

    #[test]
    fn deterministic_across_runs() {
        let (engine, _) = setup(3_000);
        let job = CountByMod { k: 13 };
        let a = engine.run(&job, &[InputSpec::new("t", 0)], 8, 5, None);
        let b = engine.run(&job, &[InputSpec::new("t", 0)], 8, 5, None);
        assert_eq!(a.output.sorted_rows(), b.output.sorted_rows());
        assert_eq!(a.metrics.map_output_bytes, b.metrics.map_output_bytes);
        assert!((a.metrics.sim_total_secs - b.metrics.sim_total_secs).abs() < 1e-12);
    }
}
