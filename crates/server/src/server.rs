//! The long-lived query server: a TCP accept loop (thread per
//! connection) and a line-oriented stdin mode, both dispatching the
//! same [`Request`]s against a shared [`Engine`].
//!
//! Every `run` request flows through the engine's admission-controlled
//! scheduler, so concurrent clients share the cluster's `k_P` unit
//! budget (queueing or degrading under oversubscription) instead of
//! each assuming the whole cluster.
//!
//! Shutdown is graceful: a `shutdown` request (or flipping the handle
//! from [`Server::shutdown_handle`]) stops the accept loop, refuses
//! new admissions, unblocks idle connections, and joins every worker
//! before [`Server::serve`] returns.

use crate::protocol::{
    end_frame, err_response, ok_response, read_frame, schema_frame, write_frame, FrameBuf, Request,
    DEFAULT_STREAM_BATCH, MAX_FRAME_BYTES, MAX_STREAM_BATCH,
};
use mwtj_core::{
    Engine, EngineError, Prepared, QueryRun, QueryStream, Registry, RunOptions, StreamOptions,
};
use mwtj_storage::{csv, tuple, DataType, Relation, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What a handled request asks the connection/server to do next.
enum Action {
    /// Keep serving this connection.
    Continue,
    /// Close this connection.
    Quit,
    /// Drain and stop the whole server.
    Shutdown,
}

/// Most open statements one connection may hold: a client that
/// `prepare`s in a loop without `close` must not grow server memory
/// without bound (the engine-wide plan cache is capped for the same
/// reason).
const MAX_STMTS_PER_CONN: usize = 256;

/// Per-connection prepared-statement table: `prepare` allocates ids,
/// `execute`/`close` resolve them, and the whole table drops with the
/// connection. Ids are connection-local — one client's statement is
/// invisible to every other (the *plans* behind the statements still
/// share the engine-wide cache).
#[derive(Default)]
struct StmtTable {
    next: u64,
    stmts: HashMap<u64, Prepared>,
}

impl StmtTable {
    fn insert(&mut self, prepared: Prepared) -> Result<u64, String> {
        if self.stmts.len() >= MAX_STMTS_PER_CONN {
            return Err(format!(
                "statement table full ({MAX_STMTS_PER_CONN} open statements); close some first"
            ));
        }
        self.next += 1;
        self.stmts.insert(self.next, prepared);
        Ok(self.next)
    }

    fn get(&self, id: u64) -> Result<&Prepared, String> {
        self.stmts.get(&id).ok_or_else(|| Self::unknown(id))
    }

    fn remove(&mut self, id: u64) -> Result<Prepared, String> {
        self.stmts.remove(&id).ok_or_else(|| Self::unknown(id))
    }

    fn unknown(id: u64) -> String {
        format!("unknown statement id {id} (ids are per-connection; prepare first)")
    }
}

/// Read-buffer size of a protocol socket, either end: a small request
/// or an `ok` reply is one `read`, and so are several of a stream's
/// ~15-KB batch frames.
const READ_BUF_BYTES: usize = 64 * 1024;

/// One clone per *live* connection, so drain can unblock parked reads.
type ConnRegistry = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// A bound, not-yet-serving query server.
pub struct Server {
    engine: Engine,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
    conns: ConnRegistry,
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral test port).
    pub fn bind(engine: Engine, addr: &str) -> io::Result<Server> {
        Ok(Server {
            engine,
            listener: TcpListener::bind(addr)?,
            shutdown: Arc::new(AtomicBool::new(false)),
            requests: Arc::new(AtomicU64::new(0)),
            conns: Arc::default(),
        })
    }

    /// The bound address (the actual port when bound to port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops the server when set to `true` (tests,
    /// signal handlers).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Accept and serve connections until a `shutdown` request (or the
    /// shutdown handle) fires, then drain: refuse new admissions,
    /// unblock idle connections and join every worker. Returns the
    /// total number of requests served.
    pub fn serve(self) -> io::Result<u64> {
        self.listener.set_nonblocking(true)?;
        let mut next_conn: u64 = 0;
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // Blocking reads, no Nagle (see the protocol's
                    // Latency note), and a clone in the registry —
                    // without one the drain path could never unblock
                    // this connection's parked read, and shutdown would
                    // hang on the join. A socket that refuses any of
                    // the three is dropped (fd pressure is the likely
                    // cause anyway); the server keeps accepting.
                    let Ok(clone) = stream
                        .set_nonblocking(false)
                        .and_then(|()| stream.set_nodelay(true))
                        .and_then(|()| stream.try_clone())
                    else {
                        continue;
                    };
                    let conn_id = next_conn;
                    next_conn += 1;
                    lock(&self.conns).insert(conn_id, clone);
                    let engine = self.engine.clone();
                    let shutdown = Arc::clone(&self.shutdown);
                    let requests = Arc::clone(&self.requests);
                    let conns = Arc::clone(&self.conns);
                    workers.push(std::thread::spawn(move || {
                        handle_connection(&engine, stream, &shutdown, &requests);
                        // A closed connection must not pin its fd for
                        // the server's lifetime.
                        lock(&conns).remove(&conn_id);
                    }));
                    workers.retain(|w| !w.is_finished());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
        // Drain: no new admissions (in-flight queries finish), then
        // unblock connections parked in read_frame and join workers.
        // Shutting down only the *read* half keeps the write half open,
        // so a worker still executing a query can deliver its response
        // before closing.
        self.engine.scheduler().shutdown();
        for (_, conn) in lock(&self.conns).drain() {
            let _ = conn.shutdown(std::net::Shutdown::Read);
        }
        for w in workers {
            let _ = w.join();
        }
        Ok(self.requests.load(Ordering::SeqCst))
    }
}

/// The registry only ever gains or loses whole entries, so it is valid
/// even if a holder of the lock panicked.
fn lock(conns: &ConnRegistry) -> std::sync::MutexGuard<'_, HashMap<u64, TcpStream>> {
    conns.lock().unwrap_or_else(|e| e.into_inner())
}

/// One connection's reply path: the frame buffer every reply is
/// encoded into, and where its frames go.
struct Wire<'a> {
    out: &'a mut dyn Write,
    /// Length-prefixed frames (TCP), or one newline-terminated payload
    /// per frame (`--stdin`).
    framed: bool,
    frame: FrameBuf,
    metrics: &'a Registry,
}

impl<'a> Wire<'a> {
    fn framed(out: &'a mut dyn Write, metrics: &'a Registry) -> Wire<'a> {
        Wire {
            out,
            framed: true,
            frame: FrameBuf::new(),
            metrics,
        }
    }

    fn lines(out: &'a mut dyn Write, metrics: &'a Registry) -> Wire<'a> {
        Wire {
            out,
            framed: false,
            frame: FrameBuf::unbounded(),
            metrics,
        }
    }

    /// Encode one frame with `fill` and write it out, observing both
    /// halves (`kind` = `unary` or `stream`). `InvalidInput` means the
    /// frame passed the size limit and nothing of it was written.
    fn send(&mut self, kind: &str, fill: impl FnOnce(&mut FrameBuf)) -> io::Result<()> {
        let started = Instant::now();
        fill(&mut self.frame);
        let encoded = Instant::now();
        let written = if self.framed {
            self.frame.write_to(&mut self.out)
        } else {
            self.out
                .write_all(self.frame.payload())
                .and_then(|()| self.out.write_all(b"\n"))
                .and_then(|()| self.out.flush())
        };
        let labels = [("kind", kind)];
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        self.metrics
            .observe("mwtj_wire_encode_ms", &labels, ms(encoded - started));
        self.metrics
            .observe("mwtj_wire_write_ms", &labels, ms(encoded.elapsed()));
        if written.is_ok() {
            let bytes = self.frame.payload().len() as u64;
            self.metrics
                .counter_add("mwtj_wire_bytes_total", &labels, bytes);
        }
        // An idle connection holds no more than a small buffer.
        self.frame.reset();
        written
    }

    fn send_text(&mut self, kind: &str, payload: &str) -> io::Result<()> {
        self.send(kind, |frame| frame.text(payload))
    }
}

/// Serve one connection until it quits, disconnects, breaks framing,
/// or the server shuts down.
fn handle_connection(
    engine: &Engine,
    stream: TcpStream,
    shutdown: &AtomicBool,
    requests: &AtomicU64,
) {
    // Prepared statements live exactly as long as their connection.
    let mut stmts = StmtTable::default();
    // Reads are buffered; writes go to the same socket underneath.
    let mut reader = BufReader::with_capacity(READ_BUF_BYTES, &stream);
    let mut socket = &stream;
    let mut wire = Wire::framed(&mut socket, engine.metrics());
    while !shutdown.load(Ordering::SeqCst) {
        match read_frame(&mut reader) {
            Ok(Some(payload)) => {
                requests.fetch_add(1, Ordering::Relaxed);
                match serve_request(engine, &mut stmts, &payload, &mut wire) {
                    Ok(Action::Continue) => {}
                    // An I/O error means the client went away (dropping
                    // a QueryStream inside the router cancels its run).
                    Ok(Action::Quit) | Err(_) => break,
                    Ok(Action::Shutdown) => shutdown.store(true, Ordering::SeqCst),
                }
            }
            // Clean disconnect between frames (includes the drain path,
            // where the server side closed the socket).
            Ok(None) => break,
            // Malformed frame (bad length, truncation, invalid UTF-8):
            // the stream cannot be trusted past this point, so answer
            // best-effort and close.
            Err(e) => {
                let _ = wire.send_text("unary", &err_response(format!("bad frame: {e}")));
                break;
            }
        }
    }
    // The drain registry holds a clone of this stream, so dropping our
    // handle alone would leave the connection half-open; shut the
    // socket down explicitly so the peer sees EOF.
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Answer one request payload through `wire` — a frame sequence for a
/// streaming request, one frame for everything else — for the TCP and
/// stdin serving loops alike. `Err` means the transport died.
fn serve_request(
    engine: &Engine,
    stmts: &mut StmtTable,
    payload: &str,
    wire: &mut Wire,
) -> io::Result<Action> {
    let request = match Request::parse(payload) {
        Ok(request) => request,
        Err(e) => {
            wire.send_text("unary", &err_response(e))?;
            return Ok(Action::Continue);
        }
    };
    if let Some(streamed) = serve_streaming(engine, stmts, &request, wire) {
        streamed?;
        return Ok(Action::Continue);
    }
    let (reply, action) = handle_request(engine, stmts, request);
    match wire.send("unary", |frame| reply.encode(frame)) {
        // A reply over the frame limit is refused before any byte hits
        // the wire (and its rows stop being encoded at the limit), so
        // the stream is still in sync — tell the client instead of
        // silently hanging up on it.
        Err(e) if e.kind() == io::ErrorKind::InvalidInput => wire.send_text(
            "unary",
            &err_response(format_args!(
                "response too large (> {MAX_FRAME_BYTES} bytes); use stream"
            )),
        )?,
        sent => sent?,
    }
    Ok(action)
}

/// Clamp a client's `batch=N` ask into [`StreamOptions`]: one batch
/// bounds the server's resident row set and (approximately) its frame
/// size.
fn stream_opts_for(batch_rows: Option<usize>) -> StreamOptions {
    StreamOptions::new().batch_rows(
        batch_rows
            .unwrap_or(DEFAULT_STREAM_BATCH)
            .clamp(1, MAX_STREAM_BATCH),
    )
}

/// Serve one `stream` request as a schema → batches → end frame
/// sequence through `wire` (framed TCP or stdin-mode lines).
/// Engine-side failures become `err` frames; only transport failures
/// surface as `Err` (the connection is gone — dropping the stream
/// cancels the run and releases its admission ticket).
fn serve_stream(
    engine: &Engine,
    opts: &RunOptions,
    batch_rows: Option<usize>,
    sql: &str,
    wire: &mut Wire,
) -> io::Result<()> {
    let stream_opts = stream_opts_for(batch_rows);
    pump_stream(
        engine.run_sql_streamed("server", sql, opts, &stream_opts),
        wire,
    )
}

/// Serve one streamed `execute` request off a prepared statement —
/// the same frame sequence as `stream`, from the same cached plan the
/// unary `execute` uses.
fn serve_prepared_stream(
    engine: &Engine,
    prepared: &Prepared,
    params: &[f64],
    opts: &RunOptions,
    batch_rows: Option<usize>,
    wire: &mut Wire,
) -> io::Result<()> {
    let stream_opts = stream_opts_for(batch_rows);
    pump_stream(
        engine.execute_streamed(prepared, params, opts, &stream_opts),
        wire,
    )
}

/// Route a streaming request — `stream <sql>`, or `execute … stream`
/// off a prepared statement — to its frame-sequence writer, shared by
/// the TCP and stdin serving loops. Returns `None` for non-streaming
/// requests (the caller dispatches those unary); `Some(Err(_))` means
/// the transport died mid-stream (dropping the `QueryStream` cancels
/// the run). An unknown statement id answers one typed `err` frame.
fn serve_streaming(
    engine: &Engine,
    stmts: &StmtTable,
    request: &Request,
    wire: &mut Wire,
) -> Option<io::Result<()>> {
    match request {
        Request::Stream {
            opts,
            batch_rows,
            sql,
        } => Some(serve_stream(engine, opts, *batch_rows, sql, wire)),
        Request::Execute {
            id,
            opts,
            params,
            stream: Some(batch),
        } => Some(match stmts.get(*id) {
            Ok(prepared) => serve_prepared_stream(engine, prepared, params, opts, *batch, wire),
            Err(e) => wire.send_text("stream", &err_response(e)),
        }),
        _ => None,
    }
}

/// How long an `err overloaded` frame tells the client to back off
/// before retrying. One round of the scheduler's shortest jobs drains
/// well within this on the demo corpus; clients may of course apply
/// their own jittered backoff on top.
const OVERLOAD_RETRY_AFTER_MS: u64 = 100;

/// Render an engine failure as its wire frame. Flow-control failures
/// get machine-readable frames the client can act on: admission
/// shedding at queue capacity answers `err overloaded
/// retry_after=<ms>`, and a blown per-query deadline answers
/// `err deadline exceeded` whether it expired in the admission queue
/// or mid-execution. Everything else is the error's display text.
fn engine_err_response(e: &EngineError) -> String {
    if e.is_overloaded() {
        err_response(format_args!(
            "overloaded retry_after={OVERLOAD_RETRY_AFTER_MS}"
        ))
    } else if e.is_deadline_exceeded() {
        err_response("deadline exceeded")
    } else {
        err_response(e)
    }
}

/// Drive an admitted (or refused) stream to completion through
/// `wire`: schema frame, batch frames, end frame; engine errors
/// become `err` frames.
fn pump_stream(stream: Result<QueryStream, EngineError>, wire: &mut Wire) -> io::Result<()> {
    let mut stream = match stream {
        Ok(s) => s,
        Err(e) => return wire.send_text("stream", &engine_err_response(&e)),
    };
    wire.send_text("stream", &schema_frame(stream.schema()))?;
    loop {
        match stream.next_batch() {
            Ok(Some(batch)) => match wire.send("stream", |frame| frame.batch(&batch.rows)) {
                // An over-limit frame (very wide rows) is refused
                // before any bytes hit the wire, so the stream is
                // still in sync: terminate it with a typed err frame
                // instead of a dropped connection.
                Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
                    return wire.send_text(
                        "stream",
                        &err_response(format_args!(
                            "batch frame too large ({e}); retry with a smaller batch=N"
                        )),
                    );
                }
                sent => sent?,
            },
            Ok(None) => {
                let end = stream
                    .end()
                    .expect("next_batch returned None without an end");
                return wire.send_text("stream", &end_frame(end));
            }
            Err(e) => return wire.send_text("stream", &engine_err_response(&e)),
        }
    }
}

/// What a non-streaming request answers with.
enum Reply {
    /// A finished payload.
    Text(String),
    /// A finished run, rendered as the standard `ok` response of `run`
    /// and the unary `execute` — straight into the frame buffer.
    Rows(Box<QueryRun>),
}

impl Reply {
    fn encode(&self, frame: &mut FrameBuf) {
        match self {
            Reply::Text(text) => frame.text(text),
            Reply::Rows(run) => {
                let fields = [
                    ("rows", run.output.len().to_string()),
                    ("cols", run.output.schema().arity().to_string()),
                    ("units", run.granted_units.to_string()),
                    ("ticket", run.ticket.to_string()),
                    ("sim_secs", format!("{:.6}", run.sim_secs)),
                    ("predicted_secs", format!("{:.6}", run.predicted_secs)),
                ];
                frame.ok_rows(&fields, &run.output);
            }
        }
    }
}

/// Dispatch one non-streaming request against the engine and this
/// connection's statement table. Infallible: every failure becomes an
/// `err` response.
fn handle_request(engine: &Engine, stmts: &mut StmtTable, request: Request) -> (Reply, Action) {
    let (text, action) = match request {
        Request::Ping => ("ok pong".into(), Action::Continue),
        Request::Quit => ("ok bye".into(), Action::Quit),
        Request::Shutdown => ("ok draining".into(), Action::Shutdown),
        Request::Stats => {
            // One snapshot call, one set of fields: every value in this
            // reply was read together, so a concurrent run can never
            // make e.g. `hits` and `misses` disagree about how many
            // lookups happened.
            let snap = engine.stats_snapshot();
            let (st, zs, fs, sto) = (snap.plan_cache, snap.zone, snap.faults, snap.storage);
            let compression = if sto.resident_bytes > 0 {
                sto.encoded_bytes as f64 / sto.resident_bytes as f64
            } else {
                0.0
            };
            let fields = [
                ("entries", st.entries.to_string()),
                ("hits", st.hits.to_string()),
                ("misses", st.misses.to_string()),
                ("evictions", st.evictions.to_string()),
                ("replans", st.replans.to_string()),
                ("zone_blocks_pruned", zs.blocks_pruned.to_string()),
                ("zone_pairs_kept", zs.pairs_kept().to_string()),
                ("zone_pairs_pruned", zs.pairs_pruned.to_string()),
                ("zone_rows_pruned", zs.rows_pruned.to_string()),
                ("skip_fraction", format!("{:.6}", zs.skip_fraction())),
                ("task_attempts", fs.attempts.to_string()),
                ("real_retries", fs.real_retries.to_string()),
                ("panics_caught", fs.panics_caught.to_string()),
                ("deadline_exceeded", fs.deadline_exceeded.to_string()),
                ("shed", snap.scheduler.shed.to_string()),
                ("epoch", snap.epoch.to_string()),
                ("storage_relations", sto.relations.to_string()),
                ("storage_columnar", sto.columnar_relations.to_string()),
                ("storage_columns", sto.columns.to_string()),
                ("storage_dict_entries", sto.dict_entries.to_string()),
                ("storage_dict_bytes", sto.dict_bytes.to_string()),
                ("storage_null_values", sto.null_values.to_string()),
                ("storage_resident_bytes", sto.resident_bytes.to_string()),
                ("storage_encoded_bytes", sto.encoded_bytes.to_string()),
                ("storage_compression", format!("{compression:.6}")),
            ];
            (ok_response(&fields, None), Action::Continue)
        }
        Request::Metrics { json } => {
            let body = if json {
                engine.metrics().render_json()
            } else {
                engine.metrics().render_text()
            };
            let format = if json { "json" } else { "text" };
            (
                ok_response(&[("format", format.into())], Some(body.trim_end())),
                Action::Continue,
            )
        }
        Request::Explain { opts, sql } => explain_response(engine, &opts, &sql),
        Request::Prepare { sql } => match engine.prepare_sql("server", &sql) {
            Ok(prepared) => {
                let params = prepared.param_count();
                match stmts.insert(prepared) {
                    Ok(id) => (
                        ok_response(
                            &[("stmt", id.to_string()), ("params", params.to_string())],
                            None,
                        ),
                        Action::Continue,
                    ),
                    Err(e) => (err_response(e), Action::Continue),
                }
            }
            Err(e) => (err_response(e), Action::Continue),
        },
        Request::Execute {
            id,
            opts,
            params,
            stream: None,
        } => match stmts.get(id) {
            Ok(prepared) => match engine.execute(prepared, &params, &opts) {
                Ok(run) => return (Reply::Rows(Box::new(run)), Action::Continue),
                Err(e) => (engine_err_response(&e), Action::Continue),
            },
            Err(e) => (err_response(e), Action::Continue),
        },
        // Streaming executions never reach this dispatcher (both
        // serving loops route them to `serve_prepared_stream` first).
        Request::Execute {
            stream: Some(_), ..
        } => (
            err_response("internal: streamed execute routed to the unary dispatcher"),
            Action::Continue,
        ),
        Request::Close { id } => match stmts.remove(id) {
            Ok(_) => (
                ok_response(&[("closed", id.to_string())], None),
                Action::Continue,
            ),
            Err(e) => (err_response(e), Action::Continue),
        },
        Request::Status => {
            let snap = engine.stats_snapshot();
            let st = snap.scheduler;
            let fields = [
                ("budget", st.budget.to_string()),
                ("in_flight", st.in_flight_units.to_string()),
                ("peak", st.peak_in_flight_units.to_string()),
                ("queued_now", st.queued_now.to_string()),
                ("admitted", st.admitted.to_string()),
                ("degraded", st.degraded.to_string()),
                ("queued", st.queued.to_string()),
                ("relations", snap.storage.relations.to_string()),
                ("epoch", snap.epoch.to_string()),
            ];
            (ok_response(&fields, None), Action::Continue)
        }
        Request::Tables => {
            let instances = engine.loaded_instances();
            let body: String = instances
                .iter()
                .map(|(name, rows)| format!("{name},{rows}"))
                .collect::<Vec<_>>()
                .join("\n");
            (
                ok_response(&[("relations", instances.len().to_string())], Some(&body)),
                Action::Continue,
            )
        }
        Request::Load { name, schema, csv } => match csv::parse_csv(&schema, &csv) {
            Ok(rel) => {
                let report = engine.load_relation(&rel);
                let fields = [
                    ("relation", name),
                    ("rows", rel.len().to_string()),
                    ("upload_secs", format!("{:.6}", report.upload_secs)),
                    ("sampling_secs", format!("{:.6}", report.sampling_secs)),
                ];
                (ok_response(&fields, None), Action::Continue)
            }
            Err(e) => (err_response(e), Action::Continue),
        },
        Request::Unload { name } => {
            let existed = engine.unload(&name);
            (
                ok_response(&[("unloaded", existed.to_string())], None),
                Action::Continue,
            )
        }
        Request::History { n } => {
            let recorder = engine.flight_recorder();
            let entries = recorder.recent(n.unwrap_or(DEFAULT_HISTORY_ENTRIES));
            let body: String = entries
                .iter()
                .map(history_line)
                .collect::<Vec<_>>()
                .join("\n");
            let fields = [
                ("entries", entries.len().to_string()),
                ("total", recorder.total_recorded().to_string()),
                ("capacity", recorder.capacity().to_string()),
            ];
            (ok_response(&fields, Some(&body)), Action::Continue)
        }
        Request::Profile { trace_id } => match engine.flight_recorder().profile(trace_id) {
            Some(profile) => (
                ok_response(
                    &[("trace", trace_id.to_string())],
                    Some(profile.render().trim_end()),
                ),
                Action::Continue,
            ),
            None => (
                err_response(format!(
                    "no retained profile for trace {trace_id} (only traced runs at or over the \
                     slow-query threshold are retained)"
                )),
                Action::Continue,
            ),
        },
        // Streaming requests never reach this dispatcher (both serving
        // loops route them to `serve_stream` first).
        Request::Stream { .. } => (
            err_response("internal: stream request routed to the unary dispatcher"),
            Action::Continue,
        ),
        Request::Run { opts, sql } => {
            // `run EXPLAIN [ANALYZE] <sql>` routes to the explain
            // handler: EXPLAIN is a statement prefix, not a table.
            if first_word_is(&sql, "explain") {
                explain_response(engine, &opts, &sql)
            } else {
                match engine.run_sql_with("server", &sql, &opts) {
                    Err(e) => (engine_err_response(&e), Action::Continue),
                    Ok(run) => return (Reply::Rows(Box::new(run)), Action::Continue),
                }
            }
        }
    };
    (Reply::Text(text), action)
}

/// How many flight-recorder entries `history` reports when the client
/// doesn't ask for a count.
const DEFAULT_HISTORY_ENTRIES: usize = 20;

/// One `history` body line: stable `key=value` tokens (greppable by
/// scripts), the free-text query shape last so the other fields always
/// split on whitespace.
fn history_line(r: &mwtj_core::FlightRecord) -> String {
    format!(
        "trace={} outcome={} method={} partition={} units={}/{} queued={} wall_ms={:.1} \
         sim_secs={:.6} rows={} jobs={} retries={} panics={} ticket={} shape={}",
        r.trace_id,
        r.outcome,
        r.method,
        r.partition,
        r.granted_units,
        r.requested_units,
        r.queued,
        r.wall_ms,
        r.sim_secs,
        r.rows_out,
        r.jobs.len(),
        r.real_retries,
        r.panics_caught,
        r.ticket,
        r.shape,
    )
}

/// Case-insensitive test of `sql`'s first word.
fn first_word_is(sql: &str, word: &str) -> bool {
    sql.split_whitespace()
        .next()
        .is_some_and(|w| w.eq_ignore_ascii_case(word))
}

/// Serve an `explain` request (or a `run` whose SQL starts with
/// `EXPLAIN`). The verb form accepts the SQL bare (plain explain) or
/// prefixed `analyze` / `EXPLAIN [ANALYZE]`; it is normalized to the
/// statement grammar the engine parses.
fn explain_response(engine: &Engine, opts: &RunOptions, sql: &str) -> (String, Action) {
    let stmt = if first_word_is(sql, "explain") {
        sql.to_string()
    } else {
        // Covers both `explain SELECT …` (bare) and
        // `explain analyze SELECT …`.
        format!("EXPLAIN {sql}")
    };
    match engine.explain_sql("server", &stmt, opts) {
        Ok(report) => {
            let fields = [
                ("trace", report.trace_id.to_string()),
                ("analyze", report.analyze.to_string()),
            ];
            (
                ok_response(&fields, Some(report.render().trim_end())),
                Action::Continue,
            )
        }
        Err(e) => (engine_err_response(&e), Action::Continue),
    }
}

/// Serve newline-delimited single-line requests from `input`, writing
/// one response line-block per request to `out` — the `--stdin` mode
/// CI and scripts drive. Stops at EOF, `quit` or `shutdown`.
pub fn serve_lines(engine: &Engine, input: impl BufRead, out: &mut impl Write) -> io::Result<()> {
    // The whole stdin session is one "connection": prepared statements
    // persist across lines until `close`, `quit` or EOF. Frames print
    // as they arrive — incremental delivery on stdout, one frame block
    // per line group.
    let mut stmts = StmtTable::default();
    let mut wire = Wire::lines(out, engine.metrics());
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match serve_request(engine, &mut stmts, &line, &mut wire)? {
            Action::Continue => {}
            Action::Quit | Action::Shutdown => break,
        }
    }
    engine.scheduler().shutdown();
    Ok(())
}

/// Load the three-relation demo catalog (`r`, `s`, `t`; integer
/// columns `a`, `b`) used by the quick-start and the CI smoke test.
pub fn load_demo(engine: &Engine) {
    let mut rng = StdRng::seed_from_u64(0xd47a);
    for (name, n, domain) in [("r", 240usize, 40i64), ("s", 180, 40), ("t", 120, 40)] {
        let schema = Schema::from_pairs(name, &[("a", DataType::Int), ("b", DataType::Int)]);
        let rows = (0..n)
            .map(|_| tuple![rng.gen_range(0..domain), rng.gen_range(0..domain)])
            .collect();
        let _ = engine.load_relation(&Relation::from_rows_unchecked(schema, rows));
    }
}

/// A blocking client for the framed TCP protocol.
pub struct Client {
    /// Reads are buffered; writes go to the socket underneath.
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Every request is a complete frame the server is waiting for
        // (see the protocol's Latency note).
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::with_capacity(READ_BUF_BYTES, stream),
        })
    }

    /// Send one request payload and wait for its response payload.
    pub fn request(&mut self, payload: &str) -> io::Result<String> {
        write_frame(self.reader.get_mut(), payload)?;
        read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            )
        })
    }

    /// Convenience: `run <opts>` with the SQL in the body.
    pub fn run_sql(&mut self, opts: &mwtj_core::RunOptions, sql: &str) -> io::Result<String> {
        self.request(&format!("run {opts}\n{sql}"))
    }

    /// Convenience: `prepare` with the SQL in the body. On success the
    /// server answers `ok stmt=<id> params=<n>`; parse the id with
    /// [`Client::parse_stmt_id`].
    pub fn prepare(&mut self, sql: &str) -> io::Result<String> {
        self.request(&format!("prepare\n{sql}"))
    }

    /// The `stmt=<id>` field of a `prepare` response, if present.
    pub fn parse_stmt_id(response: &str) -> Option<u64> {
        response
            .lines()
            .next()?
            .split_whitespace()
            .find_map(|w| w.strip_prefix("stmt="))
            .and_then(|v| v.parse().ok())
    }

    /// Convenience: unary `execute <id> <opts> [params…]`.
    pub fn execute(
        &mut self,
        id: u64,
        opts: &mwtj_core::RunOptions,
        params: &[f64],
    ) -> io::Result<String> {
        let ps: String = params.iter().map(|p| format!(" {p}")).collect();
        self.request(&format!("execute {id} {opts}{ps}"))
    }

    /// Convenience: `close <id>`.
    pub fn close_stmt(&mut self, id: u64) -> io::Result<String> {
        self.request(&format!("close {id}"))
    }

    /// Send a request and read a streamed frame sequence, invoking
    /// `on_frame` per frame as it arrives (incremental consumption).
    /// Stops after an `ok stream=end` frame (returns `Ok(true)`), an
    /// `err` frame (`Ok(false)`), or — for robustness against servers
    /// answering non-stream responses — any single non-stream frame
    /// (`Ok(true)`).
    pub fn stream(&mut self, payload: &str, mut on_frame: impl FnMut(&str)) -> io::Result<bool> {
        write_frame(self.reader.get_mut(), payload)?;
        loop {
            let frame = read_frame(&mut self.reader)?.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-stream",
                )
            })?;
            let head = frame.lines().next().unwrap_or_default().to_string();
            on_frame(&frame);
            if head.starts_with("err") {
                return Ok(false);
            }
            if head.starts_with("ok stream=end") || !head.starts_with("ok stream=") {
                return Ok(true);
            }
        }
    }

    /// Convenience: `stream <opts> [batch=N]` with the SQL in the
    /// body, collecting every frame.
    pub fn stream_sql(
        &mut self,
        opts: &mwtj_core::RunOptions,
        batch_rows: Option<usize>,
        sql: &str,
    ) -> io::Result<Vec<String>> {
        let batch = batch_rows.map_or(String::new(), |n| format!(" batch={n}"));
        let mut frames = Vec::new();
        self.stream(&format!("stream {opts}{batch}\n{sql}"), |f| {
            frames.push(f.to_string())
        })?;
        Ok(frames)
    }

    /// The raw socket (tests use it to simulate rude disconnects and
    /// malformed frames). Reading from it bypasses whatever reply bytes
    /// are already buffered.
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        self.reader.get_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodelay_is_set_on_both_ends_of_a_connection() {
        let server = Server::bind(Engine::with_units(2), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let conns = Arc::clone(&server.conns);
        let serving = std::thread::spawn(move || server.serve().unwrap());
        let mut client = Client::connect(addr).unwrap();
        assert!(client.stream_mut().nodelay().unwrap(), "client socket");
        // Answered means accepted, configured and registered.
        assert_eq!(client.request("ping").unwrap(), "ok pong");
        let accepted: Vec<bool> = lock(&conns)
            .values()
            .map(|conn| conn.nodelay().unwrap())
            .collect();
        assert_eq!(accepted, [true], "the server side of the connection");
        assert_eq!(client.request("shutdown").unwrap(), "ok draining");
        serving.join().unwrap();
    }
}
