//! Streamed query results: bounded row-batch delivery from the final
//! join to the caller.
//!
//! [`Engine::run_streamed`] (and [`Session::stream`]) executes a query
//! exactly like [`Engine::run`] — same admission control, same plan,
//! bit-identical simulated cost metrics — but delivers the final output
//! as an ordered sequence of bounded [`RowBatch`]es through a
//! [`QueryStream`] instead of one materialised `Relation`:
//!
//! * **schema first** — the output schema is known before the first
//!   row; a serving layer can emit its header frame immediately;
//! * **bounded memory** — batches flow through a bounded channel with
//!   backpressure, so the peak number of resident output rows is
//!   `batch_rows × (channel depth + 2)` regardless of result size
//!   (one batch being built, one blocked in `send`, `depth` queued);
//! * **terminal [`StreamEnd`]** — after the last batch the stream
//!   yields the run's full metrics (plan, simulated seconds, per-job
//!   accounting, admission ticket);
//! * **RAII cancellation** — the admission ticket is held until the
//!   stream is drained or dropped; dropping a [`QueryStream`] mid-way
//!   cancels the worker (its next batch send fails), releases the
//!   ticket, and cleans up the run's `__run` intermediates. The
//!   worker owns the run's bindings — the bases' sealed files — so
//!   the stream keeps reading the data it bound however long it
//!   lives, and leaves nothing else behind to clean up.
//!
//! Only the *terminal* job streams. Intermediate stages still
//! materialise to the simulated DFS — the paper's Eq. 2–4 phase
//! costs are computed from the same byte counts either way.

use crate::engine::{augment_query, Admitted, Engine, Session};
use crate::error::EngineError;
use crate::options::RunOptions;
use crate::prepare::Prepared;
use mwtj_mapreduce::{BatchSink, ExecError, JobMetrics, RowBatch, SinkSpec};
use mwtj_query::MultiwayQuery;
use mwtj_storage::{Relation, Schema};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

/// Knobs for one streamed run.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Rows per [`RowBatch`] (≥ 1). Smaller batches lower
    /// time-to-first-row and peak memory; larger batches lower
    /// per-batch overhead.
    pub batch_rows: usize,
    /// Bounded-channel depth in batches (≥ 1) — the backpressure
    /// window between the executing worker and the consumer.
    pub channel_depth: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            batch_rows: 1024,
            channel_depth: 4,
        }
    }
}

impl StreamOptions {
    /// Defaults: 1024-row batches, depth-4 channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the rows-per-batch bound.
    pub fn batch_rows(mut self, rows: usize) -> Self {
        self.batch_rows = rows.max(1);
        self
    }

    /// Set the bounded-channel depth.
    pub fn channel_depth(mut self, depth: usize) -> Self {
        self.channel_depth = depth.max(1);
        self
    }
}

/// Terminal frame of a [`QueryStream`]: everything a [`QueryRun`]
/// reports except the (already delivered) rows.
///
/// [`QueryRun`]: mwtj_planner::QueryRun
#[derive(Debug, Clone)]
pub struct StreamEnd {
    /// Total rows delivered across all batches.
    pub rows: u64,
    /// Number of batches delivered.
    pub batches: u64,
    /// Human-readable plan description.
    pub plan: String,
    /// Planner's predicted makespan (simulated seconds).
    pub predicted_secs: f64,
    /// Achieved simulated makespan — bit-identical to the buffered
    /// [`Engine::run`] of the same query.
    pub sim_secs: f64,
    /// Host wall-clock seconds for the run.
    pub real_secs: f64,
    /// Per-job metrics in execution order.
    pub jobs: Vec<JobMetrics>,
    /// Admission ticket the run executed under.
    pub ticket: u64,
    /// Processing units the run was granted.
    pub granted_units: u32,
    /// Trace id of the run (correlates stream frames with metrics
    /// scrapes and slow-query log lines).
    pub trace_id: u64,
}

enum StreamMsg {
    Batch(RowBatch),
    End(Box<Result<StreamEnd, EngineError>>),
}

/// Worker-side sink: pushes batches into the bounded channel (blocking
/// for backpressure) and keeps the resident-row accounting the
/// bounded-memory guarantee is asserted on.
struct ChannelSink {
    tx: SyncSender<StreamMsg>,
    /// Rows currently in the channel or blocked in `send` (decremented
    /// by the consumer on receive).
    resident: Arc<AtomicUsize>,
    /// High-water mark of `resident`.
    peak: Arc<AtomicUsize>,
    rows: AtomicU64,
    batches: AtomicU64,
}

impl BatchSink for ChannelSink {
    fn send(&self, batch: RowBatch) -> bool {
        let n = batch.rows.len();
        let now = self.resident.fetch_add(n, Ordering::SeqCst) + n;
        self.peak.fetch_max(now, Ordering::SeqCst);
        match self.tx.send(StreamMsg::Batch(batch)) {
            Ok(()) => {
                self.rows.fetch_add(n as u64, Ordering::Relaxed);
                self.batches.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => {
                // Receiver gone: roll back the accounting and tell the
                // producer to cancel.
                self.resident.fetch_sub(n, Ordering::SeqCst);
                false
            }
        }
    }
}

/// A live streamed query: schema first, then ordered [`RowBatch`]es,
/// then a [`StreamEnd`] with the run's metrics.
///
/// Iterate with [`QueryStream::next_batch`] (or the [`Iterator`] impl);
/// after it returns `Ok(None)`, [`QueryStream::end`] holds the terminal
/// metrics. Dropping the stream mid-way cancels the run: the worker's
/// next batch send fails, the run aborts with a `Cancelled` error, its
/// `__run` DFS intermediates are removed, and the admission ticket
/// is released (the drop blocks until the worker has fully unwound, so
/// cancellation is deterministic).
pub struct QueryStream {
    schema: Schema,
    rx: Option<Receiver<StreamMsg>>,
    worker: Option<std::thread::JoinHandle<()>>,
    resident: Arc<AtomicUsize>,
    peak: Arc<AtomicUsize>,
    end: Option<StreamEnd>,
    failed: bool,
}

impl QueryStream {
    /// The output schema (known before any row is produced — the
    /// "schema frame" of a serving protocol).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The next batch: `Ok(Some(batch))` while rows flow, `Ok(None)`
    /// once the stream ended cleanly (then [`QueryStream::end`] is
    /// populated), or the run's error.
    pub fn next_batch(&mut self) -> Result<Option<RowBatch>, EngineError> {
        if self.end.is_some() || self.failed {
            return Ok(None);
        }
        let Some(rx) = self.rx.as_ref() else {
            return Ok(None);
        };
        match rx.recv() {
            Ok(StreamMsg::Batch(batch)) => {
                self.resident.fetch_sub(batch.rows.len(), Ordering::SeqCst);
                Ok(Some(batch))
            }
            Ok(StreamMsg::End(result)) => {
                self.join_worker();
                match *result {
                    Ok(end) => {
                        self.end = Some(end);
                        Ok(None)
                    }
                    Err(e) => {
                        self.failed = true;
                        Err(e)
                    }
                }
            }
            Err(_) => {
                self.failed = true;
                self.join_worker();
                Err(EngineError::Exec(ExecError::BadRequest {
                    detail: "internal: stream worker vanished without an end frame".into(),
                }))
            }
        }
    }

    /// Terminal metrics, available once [`QueryStream::next_batch`]
    /// has returned `Ok(None)`.
    pub fn end(&self) -> Option<&StreamEnd> {
        self.end.as_ref()
    }

    /// High-water mark of rows resident in the delivery channel
    /// (excludes the single in-construction batch on the worker and
    /// the single batch handed to the consumer — each bounded by
    /// `batch_rows` on its own).
    pub fn peak_resident_rows(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }

    /// Drain any remaining batches (discarding rows) and return the
    /// terminal metrics.
    pub fn finish(mut self) -> Result<StreamEnd, EngineError> {
        while self.next_batch()?.is_some() {}
        self.end.take().ok_or_else(|| {
            EngineError::Exec(ExecError::BadRequest {
                detail: "internal: stream ended without terminal metrics".into(),
            })
        })
    }

    /// Drain the stream into one `Relation` (tests and small results;
    /// defeats the memory bound by construction) plus the terminal
    /// metrics.
    pub fn collect_rows(mut self) -> Result<(Relation, StreamEnd), EngineError> {
        let mut rows = Vec::new();
        while let Some(batch) = self.next_batch()? {
            rows.extend(batch.rows);
        }
        let end = self.end.take().ok_or_else(|| {
            EngineError::Exec(ExecError::BadRequest {
                detail: "internal: stream ended without terminal metrics".into(),
            })
        })?;
        Ok((
            Relation::from_rows_unchecked(self.schema.clone(), rows),
            end,
        ))
    }

    fn join_worker(&mut self) {
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
    }
}

impl Iterator for QueryStream {
    type Item = Result<RowBatch, EngineError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_batch().transpose()
    }
}

impl Drop for QueryStream {
    fn drop(&mut self) {
        // Receiver first: an executing worker blocked in `send` must
        // see the channel closed, or the join would deadlock.
        drop(self.rx.take());
        self.join_worker();
    }
}

impl std::fmt::Debug for QueryStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryStream")
            .field("schema", &self.schema.name())
            .field("ended", &self.end.is_some())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Execute `query` under `opts`, streaming the result as bounded
    /// row batches — admission, planning and the simulated cost
    /// metrics are identical to [`Engine::run`]; only delivery (and
    /// host-side peak memory) changes. Admission errors surface
    /// synchronously; execution errors arrive through the stream.
    pub fn run_streamed(
        &self,
        query: &MultiwayQuery,
        opts: &RunOptions,
        stream_opts: &StreamOptions,
    ) -> Result<QueryStream, EngineError> {
        if opts.wants_calibration() {
            self.ensure_calibrated();
        }
        let q = augment_query(query);
        let admitted = self.admit_for(&q, None, opts, None)?;
        Ok(self.stream_admitted(admitted, q, opts, stream_opts))
    }

    /// Parse and execute a SQL query end-to-end as a stream (the
    /// streaming analogue of [`Engine::run_sql_with`]). Like
    /// [`Engine::run_sql_with`], the plan comes from the shared plan
    /// cache, so a repeated streamed query skips planning too.
    pub fn run_sql_streamed(
        &self,
        name: &str,
        sql: &str,
        opts: &RunOptions,
        stream_opts: &StreamOptions,
    ) -> Result<QueryStream, EngineError> {
        let parsed = self.parse_sql(name, sql)?;
        let (admitted, q) = self.admit_sql(&parsed, &[], opts, None)?;
        Ok(self.stream_admitted(admitted, q, opts, stream_opts))
    }

    /// Execute a prepared statement as a stream — the streaming
    /// analogue of [`Engine::execute`], off the same prepared handle
    /// and shared plan-cache entry (schema frame first, bounded
    /// batches, terminal metrics, RAII cancellation).
    pub fn execute_streamed(
        &self,
        prepared: &Prepared,
        params: &[f64],
        opts: &RunOptions,
        stream_opts: &StreamOptions,
    ) -> Result<QueryStream, EngineError> {
        let (parsed, shape) = self.current_parse(prepared)?;
        let (admitted, q) = self.admit_sql(&parsed, params, opts, Some(&shape))?;
        Ok(self.stream_admitted(admitted, q, opts, stream_opts))
    }

    /// Spawn the execution worker for an admitted run of the augmented
    /// query `q`, wired to a fresh bounded channel. The worker owns the
    /// admission — ticket and bindings — until the run ends.
    fn stream_admitted(
        &self,
        admitted: Admitted,
        q: MultiwayQuery,
        opts: &RunOptions,
        stream_opts: &StreamOptions,
    ) -> QueryStream {
        // `augment_query` always materialises a projection, so the
        // output schema is known before execution — schema-first.
        let schema = q.output_schema();
        let resident = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = sync_channel(stream_opts.channel_depth.max(1));
        let sink = Arc::new(ChannelSink {
            tx: tx.clone(),
            resident: Arc::clone(&resident),
            peak: Arc::clone(&peak),
            rows: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        });
        let spec = SinkSpec::new(
            Arc::clone(&sink) as Arc<dyn BatchSink>,
            stream_opts.batch_rows,
        );
        let engine = self.clone();
        let opts = opts.clone();
        let worker = std::thread::Builder::new()
            .name("mwtj-stream".into())
            .spawn(move || {
                let result = engine.execute_admitted(&admitted, &q, &opts, Some(spec));
                // Release the reservation before announcing the end: a
                // consumer that has seen StreamEnd must observe the
                // units returned.
                drop(admitted);
                let end = result.map(|run| StreamEnd {
                    rows: sink.rows.load(Ordering::Relaxed),
                    batches: sink.batches.load(Ordering::Relaxed),
                    plan: run.plan,
                    predicted_secs: run.predicted_secs,
                    sim_secs: run.sim_secs,
                    real_secs: run.real_secs,
                    jobs: run.jobs,
                    ticket: run.ticket,
                    granted_units: run.granted_units,
                    trace_id: run.trace_id,
                });
                let _ = tx.send(StreamMsg::End(Box::new(end)));
            })
            .expect("spawn stream worker");
        QueryStream {
            schema,
            rx: Some(rx),
            worker: Some(worker),
            resident,
            peak,
            end: None,
            failed: false,
        }
    }
}

impl Session {
    /// Stream `query` under the session's default options and default
    /// [`StreamOptions`].
    pub fn stream(&self, query: &MultiwayQuery) -> Result<QueryStream, EngineError> {
        self.engine()
            .run_streamed(query, self.options(), &StreamOptions::default())
    }

    /// Stream a SQL query under the session's default options.
    pub fn stream_sql(&self, sql: &str) -> Result<QueryStream, EngineError> {
        self.engine()
            .run_sql_streamed("sql", sql, self.options(), &StreamOptions::default())
    }

    /// Stream a prepared statement under the session's default options
    /// and default [`StreamOptions`].
    pub fn stream_execute(
        &self,
        prepared: &Prepared,
        params: &[f64],
    ) -> Result<QueryStream, EngineError> {
        self.engine()
            .execute_streamed(prepared, params, self.options(), &StreamOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use mwtj_query::{QueryBuilder, ThetaOp};
    use mwtj_storage::{tuple, DataType, Relation, Schema};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    fn engine_and_query() -> (Engine, MultiwayQuery) {
        let engine = Engine::with_units(8);
        let r = random_rel("r", 80, 1, 25);
        let s = random_rel("s", 70, 2, 25);
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
    fn streamed_batches_concatenate_to_run_output() {
        let (engine, q) = engine_and_query();
        let run = engine.run(&q, &RunOptions::default()).unwrap();
        let stream = engine
            .run_streamed(
                &q,
                &RunOptions::default(),
                &StreamOptions::new().batch_rows(13).channel_depth(2),
            )
            .unwrap();
        assert_eq!(stream.schema(), run.output.schema());
        let (rel, end) = stream.collect_rows().unwrap();
        assert_eq!(rel.rows(), run.output.rows(), "row-for-row identical");
        assert_eq!(end.rows as usize, run.output.len());
        assert!(end.batches >= 1);
        assert_eq!(end.sim_secs, run.sim_secs, "simulated clock unchanged");
        assert_eq!(end.granted_units, run.granted_units);
        assert!(end.ticket > 0 && end.ticket != run.ticket);
        // Ticket released after the stream ended.
        assert_eq!(engine.scheduler().stats().in_flight_units, 0);
    }

    #[test]
    fn batches_respect_the_size_bound() {
        let (engine, q) = engine_and_query();
        let mut stream = engine
            .run_streamed(
                &q,
                &RunOptions::default(),
                &StreamOptions::new().batch_rows(7),
            )
            .unwrap();
        let mut total = 0u64;
        while let Some(batch) = stream.next_batch().unwrap() {
            assert!(batch.rows.len() <= 7, "batch of {}", batch.rows.len());
            assert!(!batch.is_empty());
            total += batch.rows.len() as u64;
        }
        assert_eq!(stream.end().unwrap().rows, total);
    }

    #[test]
    fn dropping_mid_stream_releases_ticket_and_dfs() {
        let (engine, q) = engine_and_query();
        let mut stream = engine
            .run_streamed(
                &q,
                &RunOptions::default(),
                &StreamOptions::new().batch_rows(1).channel_depth(1),
            )
            .unwrap();
        // Take one batch, then walk away.
        let first = stream.next_batch().unwrap();
        assert!(first.is_some());
        drop(stream); // joins the worker: cancellation is deterministic
        assert_eq!(engine.scheduler().stats().in_flight_units, 0);
        assert!(
            engine
                .cluster()
                .dfs()
                .list()
                .iter()
                .all(|f| !f.starts_with("__run")),
            "cancelled run leaked intermediates: {:?}",
            engine.cluster().dfs().list()
        );
    }

    #[test]
    fn streamed_admission_errors_are_synchronous() {
        let (engine, q) = engine_and_query();
        engine.scheduler().shutdown();
        match engine.run_streamed(&q, &RunOptions::default(), &StreamOptions::default()) {
            Err(EngineError::Admission(_)) => {}
            other => panic!("expected Admission error, got {other:?}"),
        }
    }
}
