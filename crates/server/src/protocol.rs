//! The wire protocol: length-prefixed UTF-8 frames carrying one-line
//! commands with optional multi-line bodies.
//!
//! Framing: every message is a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 text. The payload's first line
//! is the command; the remaining lines are its body (SQL for `run`,
//! CSV rows for `load`). Responses use the same framing: the first
//! line starts with `ok` or `err`, followed by `key=value` tokens, and
//! the body carries row data.
//!
//! Commands also parse from a *single* line (the `--stdin` CLI mode
//! and the one-shot `client` subcommand), with the body inlined after
//! the command words — `;` separating what would be body lines:
//!
//! ```text
//! ping
//! status
//! stats [json]                     -- one coherent engine snapshot;
//!                                     `json` = metrics registry as JSON
//! metrics                          -- metrics registry, text exposition
//! tables
//! run [options] <sql>              -- options = RunOptions FromStr form
//! explain [options] <sql>          -- plan without executing; prefix the
//!                                     SQL with `analyze` to execute and
//!                                     return the per-stage profile
//! prepare <sql>                    -- SQL may hold `?` parameters
//! execute <id> [options] [stream [batch=N]] [p1 p2 ...]
//! close <id>
//! load <name> <col:type,...> [rows;rows;...]
//! history [n]                      -- the n most recent flight-recorder
//!                                     entries (default 20), newest first
//! profile <trace_id>               -- retained slow-run profile tree for
//!                                     one recorded trace id
//! shutdown
//! quit
//! ```
//!
//! `prepare` answers `ok stmt=<id> params=<n>`; the id lives in a
//! *per-connection* statement table, `execute`/`close` with an unknown
//! id answer a typed `err unknown statement id …` frame. Parameters
//! are bare numbers binding the SQL's `?` slots in order; adding
//! `stream` (optionally with `batch=N`) answers with the same
//! schema → batches → end frame sequence as `stream`.
//!
//! The option syntax is exactly [`RunOptions`]'s `Display`/`FromStr`
//! round-trip (`ours`, `ours:grid`, `hive+calibrated`,
//! `pig+faults=0.25@99/4`, `ours+deadline=500`), so the wire format
//! needs no parsing machinery of its own — `+deadline=<ms>` bounds the
//! query's real wall-clock time including queueing.
//!
//! ## Latency
//!
//! A frame is encoded into one buffer — length prefix and payload
//! together — and leaves in one `write`, on sockets that both ends set
//! `TCP_NODELAY` on. The protocol is strict request → reply with
//! explicit frame ends, and at every frame end the peer is blocked
//! waiting for it, so Nagle's coalescing can only add delay: a second
//! small segment would sit out the peer's 40-ms delayed ACK, in each
//! direction, on every request. No workload is better off with Nagle
//! on, so there is no option for it.
//!
//! ## Flow-control frames
//!
//! Three failure frames are machine-readable rather than free text:
//!
//! ```text
//! err overloaded retry_after=<ms>   -- admission queue at capacity;
//!                                      back off and resend
//! err deadline exceeded             -- the request's +deadline=<ms>
//!                                      passed (queued or mid-run)
//! err response too large (> 8388608 bytes); use stream
//!                                   -- a unary reply passed
//!                                      MAX_FRAME_BYTES while it was
//!                                      being encoded; nothing of it
//!                                      was sent, the connection stays
//!                                      usable, and `stream` delivers
//!                                      the same rows in batch frames
//! ```
//!
//! `stats` reports the engine-wide fault counters alongside the
//! plan-cache and zone-map fields: `task_attempts`, `real_retries`,
//! `panics_caught`, `deadline_exceeded` and `shed` — all taken from one
//! coherent [`Engine::stats_snapshot`](mwtj_core::Engine::stats_snapshot),
//! so the fields of one reply never mix epochs.
//!
//! `metrics` answers the engine's metrics registry in the conventional
//! text exposition — one `name{label="value",…} number` line per
//! sample, histograms as cumulative `_bucket{le="…"}` lines plus
//! `_sum`/`_count` — and `stats json` answers the same registry as one
//! JSON object.
//!
//! `explain <sql>` answers `ok trace=<id> analyze=false` with the
//! chosen plan, Eq. 2 unit request and predicted makespan in the body,
//! without executing (or even admitting) the query. `explain analyze
//! <sql>` executes it with tracing forced on and appends the per-stage
//! profile tree. The SQL itself may carry the `EXPLAIN [ANALYZE]`
//! prefix instead — `run EXPLAIN ANALYZE SELECT …` routes identically.
//!
//! ## Streaming frames
//!
//! A `stream [options] [batch=N] <sql>` request answers with a frame
//! *sequence* instead of one response:
//!
//! ```text
//! ok stream=schema cols=<n> name=<rel>     + body: col:type,...
//! ok stream=batch rows=<n>                 + body: n CSV rows
//! …(zero or more batch frames)…
//! ok stream=end rows=<total> batches=<b> units=<u> ticket=<t>
//!    sim_secs=<s> predicted_secs=<p>
//! ```
//!
//! An `err …` frame at any point terminates the stream. The typed
//! forms round-trip through [`schema_frame`]/[`batch_frame`]/
//! [`end_frame`] and [`parse_stream_frame`].

use mwtj_core::{RunOptions, StreamEnd};
use mwtj_storage::{csv, DataType, Relation, Schema, Tuple};
use std::io::{self, Read, Write};

/// Upper bound on a frame payload (defends the server against a
/// hostile or corrupt length prefix).
pub const MAX_FRAME_BYTES: u32 = 8 * 1024 * 1024;

/// Bytes of length prefix in front of every payload.
const LEN_SLOT: usize = 4;

/// Capacity a [`FrameBuf`] keeps between frames; a reply that grew it
/// past this gives the memory back once it is written.
const RETAINED_FRAME_BYTES: usize = 256 * 1024;

/// A reusable frame buffer: a four-byte length slot followed by the
/// payload, which the reply encoders build in place, so a frame is
/// encoded once and written with one `write_all`. Every `fill` method
/// starts a new frame.
#[derive(Debug)]
pub struct FrameBuf {
    /// Length slot + payload.
    bytes: Vec<u8>,
    /// Buffer length (slot included) the fills stop at.
    limit: usize,
    /// A fill stopped at `limit`: the payload is incomplete and must
    /// never be sent.
    truncated: bool,
}

impl Default for FrameBuf {
    fn default() -> FrameBuf {
        FrameBuf::new()
    }
}

impl FrameBuf {
    /// A buffer for wire frames: payloads stop at [`MAX_FRAME_BYTES`].
    pub fn new() -> FrameBuf {
        FrameBuf::with_limit(LEN_SLOT + MAX_FRAME_BYTES as usize)
    }

    /// A buffer for payloads that never meet the framing (the
    /// line-oriented `--stdin` mode, the `String` builders below): no
    /// size limit.
    pub fn unbounded() -> FrameBuf {
        FrameBuf::with_limit(usize::MAX)
    }

    fn with_limit(limit: usize) -> FrameBuf {
        FrameBuf {
            bytes: vec![0; LEN_SLOT],
            limit,
            truncated: false,
        }
    }

    /// Start a new, empty frame.
    pub fn reset(&mut self) {
        self.bytes.clear();
        self.bytes.shrink_to(RETAINED_FRAME_BYTES);
        self.bytes.resize(LEN_SLOT, 0);
        self.truncated = false;
    }

    /// The payload built so far.
    pub fn payload(&self) -> &[u8] {
        &self.bytes[LEN_SLOT..]
    }

    /// Fill with a ready-made payload.
    pub fn text(&mut self, payload: &str) {
        self.reset();
        if payload.len() > self.limit - LEN_SLOT {
            self.truncated = true;
        } else {
            self.bytes.extend_from_slice(payload.as_bytes());
        }
    }

    /// Fill with an `ok` response whose body is `rel` as CSV (header
    /// line, then the rows) — the unary `run`/`execute` reply. Trailing
    /// whitespace is trimmed, as it always was, so a trailing all-NULL
    /// row leaves no line and `rows=` in `fields` stays the authority.
    pub fn ok_rows(&mut self, fields: &[(&str, String)], rel: &Relation) {
        self.reset();
        self.push_ok_head(fields);
        self.bytes.push(b'\n');
        let body = self.bytes.len();
        csv::encode_header(&mut self.bytes, rel.schema());
        self.push_rows(rel.rows());
        let trimmed = trimmed_len(&self.bytes, body);
        self.bytes.truncate(trimmed);
    }

    /// Fill with a batch frame: `ok stream=batch rows=<n>` and the rows
    /// as header-less CSV — verbatim, every record (including a
    /// trailing all-NULL one, which renders as an empty line)
    /// newline-terminated, so the record count always agrees with
    /// `rows=`.
    pub fn batch(&mut self, rows: &[Tuple]) {
        self.reset();
        let _ = writeln!(self.bytes, "ok stream=batch rows={}", rows.len());
        self.push_rows(rows);
    }

    fn push_ok_head(&mut self, fields: &[(&str, String)]) {
        self.bytes.extend_from_slice(b"ok");
        for (k, v) in fields {
            self.bytes.push(b' ');
            self.bytes.extend_from_slice(k.as_bytes());
            self.bytes.push(b'=');
            self.bytes.extend_from_slice(v.as_bytes());
        }
    }

    fn push_rows(&mut self, rows: &[Tuple]) {
        self.truncated |= !csv::encode_rows(&mut self.bytes, rows, self.limit);
    }

    /// Write the frame — the length patched into its slot, then one
    /// `write_all` of slot and payload together. A payload over
    /// [`MAX_FRAME_BYTES`] (or one a fill stopped at the limit) is
    /// refused with `InvalidInput` before a byte is written, so the
    /// stream stays in sync. The only function that puts frame bytes
    /// on a socket.
    pub fn write_to(&mut self, w: &mut impl Write) -> io::Result<()> {
        let len = self.payload().len();
        if self.truncated || len > MAX_FRAME_BYTES as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES} bytes)"),
            ));
        }
        self.bytes[..LEN_SLOT].copy_from_slice(&(len as u32).to_be_bytes());
        w.write_all(&self.bytes)?;
        w.flush()
    }

    /// The payload as the `String` the builder functions return.
    fn into_payload(mut self) -> String {
        self.bytes.drain(..LEN_SLOT);
        String::from_utf8(self.bytes).expect("frame encoders emit UTF-8")
    }
}

/// Length of `bytes` without the trailing whitespace (`str::trim_end`'s
/// definition of it) after `floor`, which must be a character boundary
/// of valid UTF-8.
fn trimmed_len(bytes: &[u8], floor: usize) -> usize {
    let mut end = bytes.len();
    while end > floor {
        let mut start = end - 1;
        while start > floor && bytes[start] & 0xC0 == 0x80 {
            start -= 1;
        }
        match std::str::from_utf8(&bytes[start..end]) {
            Ok(last) if last.chars().all(char::is_whitespace) => end = start,
            _ => break,
        }
    }
    end
}

/// Write one frame: a 4-byte big-endian payload length and the
/// payload, in one `write`.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let mut frame = FrameBuf::new();
    frame.text(payload);
    frame.write_to(w)
}

/// Read one frame. `Ok(None)` is a clean end-of-stream (the peer
/// closed between frames); an EOF *inside* a frame, an oversized
/// length prefix, or invalid UTF-8 are errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf[..1])? {
        0 => return Ok(None),
        _ => r.read_exact(&mut len_buf[1..])?,
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds {MAX_FRAME_BYTES}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("invalid UTF-8: {e}")))
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Scheduler + catalog counters.
    Status,
    /// List loaded relations.
    Tables,
    /// Execute SQL under the given run options.
    Run {
        /// Parsed run options (default when omitted).
        opts: RunOptions,
        /// The SQL text.
        sql: String,
    },
    /// Execute SQL, answering with a streamed frame sequence
    /// (schema → batches → end) instead of one response.
    Stream {
        /// Parsed run options (default when omitted).
        opts: RunOptions,
        /// Rows per batch frame (`batch=N`; server default when
        /// omitted).
        batch_rows: Option<usize>,
        /// The SQL text.
        sql: String,
    },
    /// Parse SQL (which may hold `?` positional parameters) into a
    /// prepared statement in this connection's statement table.
    Prepare {
        /// The SQL text.
        sql: String,
    },
    /// Execute a prepared statement by id.
    Execute {
        /// Statement id from a prior `prepare` on this connection.
        id: u64,
        /// Parsed run options (default when omitted).
        opts: RunOptions,
        /// Values binding the statement's `?` slots, in order.
        params: Vec<f64>,
        /// `Some(batch_rows)` = answer with a streamed frame sequence
        /// (inner `None` = server default batch size); `None` = unary
        /// response.
        stream: Option<Option<usize>>,
    },
    /// Drop a prepared statement from this connection's table.
    Close {
        /// Statement id to drop.
        id: u64,
    },
    /// One coherent engine-statistics snapshot (plan cache, zone maps,
    /// faults, scheduler).
    Stats,
    /// The metrics registry: text exposition (`metrics`) or JSON
    /// (`stats json`).
    Metrics {
        /// `true` = JSON object, `false` = text exposition.
        json: bool,
    },
    /// Report a query's plan (and, with `analyze`, its executed
    /// profile) instead of its rows.
    Explain {
        /// Parsed run options (default when omitted).
        opts: RunOptions,
        /// The SQL text, optionally prefixed `ANALYZE` / `EXPLAIN
        /// [ANALYZE]`.
        sql: String,
    },
    /// Load a relation from CSV rows.
    Load {
        /// Relation name.
        name: String,
        /// Parsed schema from the `col:type,...` spec.
        schema: Schema,
        /// CSV rows (newline-separated).
        csv: String,
    },
    /// Drop a loaded relation.
    Unload {
        /// Relation name.
        name: String,
    },
    /// The most recent flight-recorder entries, newest first.
    History {
        /// How many entries to report (`None` = server default).
        n: Option<usize>,
    },
    /// The retained slow-run profile tree for one trace id.
    Profile {
        /// Trace id of a recorded run.
        trace_id: u64,
    },
    /// Stop the server after in-flight queries finish.
    Shutdown,
    /// Close this connection only.
    Quit,
}

impl Request {
    /// Parse a request payload: first line = command words, remaining
    /// lines = body. A single-line form inlines the body after the
    /// command words (with `;` for body line breaks).
    pub fn parse(payload: &str) -> Result<Request, String> {
        let mut lines = payload.splitn(2, '\n');
        let head = lines.next().unwrap_or_default().trim();
        let body = lines.next().unwrap_or_default();
        let mut words = head.split_whitespace();
        let cmd = words.next().ok_or("empty request")?;
        match cmd.to_ascii_lowercase().as_str() {
            "ping" => Ok(Request::Ping),
            "status" => Ok(Request::Status),
            "stats" => match words.next() {
                Some(w) if w.eq_ignore_ascii_case("json") => Ok(Request::Metrics { json: true }),
                Some(w) => Err(format!("stats: unknown argument `{w}` (expected `json`)")),
                None => Ok(Request::Stats),
            },
            "metrics" => Ok(Request::Metrics { json: false }),
            "tables" => Ok(Request::Tables),
            "shutdown" => Ok(Request::Shutdown),
            "quit" | "exit" => Ok(Request::Quit),
            "prepare" => {
                let rest = head["prepare".len()..].trim_start();
                let sql = gather_sql(rest, body);
                if sql.is_empty() {
                    return Err("prepare: missing SQL text".into());
                }
                Ok(Request::Prepare { sql })
            }
            "execute" => {
                let id_word = words.next().ok_or("execute: missing statement id")?;
                let id: u64 = id_word
                    .parse()
                    .map_err(|_| format!("execute: bad statement id `{id_word}`"))?;
                let rest: Vec<&str> = words.collect();
                let mut i = 0;
                // Optional leading run options (`ours`, `hive+calibrated`,
                // …); a numeric parameter or the `stream` keyword never
                // parses as RunOptions, so the grammar is unambiguous.
                let mut opts = RunOptions::default();
                if let Some(o) = rest.first().and_then(|w| w.parse::<RunOptions>().ok()) {
                    opts = o;
                    i = 1;
                }
                let mut stream = None;
                if rest
                    .get(i)
                    .is_some_and(|w| w.eq_ignore_ascii_case("stream"))
                {
                    i += 1;
                    let mut batch = None;
                    if let Some(b) = rest.get(i).and_then(|w| w.strip_prefix("batch=")) {
                        let rows: usize = b
                            .parse()
                            .map_err(|_| format!("execute: bad batch size `{b}`"))?;
                        if rows == 0 {
                            return Err("execute: batch size must be ≥ 1".into());
                        }
                        batch = Some(rows);
                        i += 1;
                    }
                    stream = Some(batch);
                }
                let mut params = Vec::with_capacity(rest.len() - i);
                for w in &rest[i..] {
                    let v: f64 = w
                        .parse()
                        .map_err(|_| format!("execute: bad parameter `{w}` (expected a number)"))?;
                    // NaN/inf would bind as predicate offsets where
                    // every comparison is false — a silent empty
                    // result; refuse them as the typo they are.
                    if !v.is_finite() {
                        return Err(format!("execute: bad parameter `{w}` (must be finite)"));
                    }
                    params.push(v);
                }
                Ok(Request::Execute {
                    id,
                    opts,
                    params,
                    stream,
                })
            }
            "close" => {
                let id_word = words.next().ok_or("close: missing statement id")?;
                let id: u64 = id_word
                    .parse()
                    .map_err(|_| format!("close: bad statement id `{id_word}`"))?;
                Ok(Request::Close { id })
            }
            "run" => {
                let rest = head["run".len()..].trim_start();
                let (opts, inline) = split_leading_opts(rest);
                let sql = gather_sql(inline, body);
                if sql.is_empty() {
                    return Err("run: missing SQL text".into());
                }
                Ok(Request::Run { opts, sql })
            }
            "explain" => {
                let rest = head["explain".len()..].trim_start();
                let (opts, inline) = split_leading_opts(rest);
                let sql = gather_sql(inline, body);
                if sql.is_empty() {
                    return Err("explain: missing SQL text".into());
                }
                Ok(Request::Explain { opts, sql })
            }
            "stream" => {
                let rest = head["stream".len()..].trim_start();
                // `stream [options] [batch=N] <sql…>`.
                let (opts, mut inline) = split_leading_opts(rest);
                let mut batch_rows = None;
                if let Some(first) = inline.split_whitespace().next() {
                    if let Some(n) = first.strip_prefix("batch=") {
                        let rows: usize = n
                            .parse()
                            .map_err(|_| format!("stream: bad batch size `{n}`"))?;
                        if rows == 0 {
                            return Err("stream: batch size must be ≥ 1".into());
                        }
                        batch_rows = Some(rows);
                        inline = inline[first.len()..].trim_start();
                    }
                }
                let sql = gather_sql(inline, body);
                if sql.is_empty() {
                    return Err("stream: missing SQL text".into());
                }
                Ok(Request::Stream {
                    opts,
                    batch_rows,
                    sql,
                })
            }
            "load" => {
                let name = words.next().ok_or("load: missing relation name")?;
                let spec = words.next().ok_or("load: missing column spec")?;
                let schema = parse_colspec(name, spec)?;
                // Inline rows (if any) use `;` as the row separator.
                let inline: String = words.collect::<Vec<_>>().join(" ").replace(';', "\n");
                let mut csv = String::new();
                if !inline.trim().is_empty() {
                    csv.push_str(inline.trim());
                    csv.push('\n');
                }
                csv.push_str(body);
                Ok(Request::Load {
                    name: name.to_string(),
                    schema,
                    csv,
                })
            }
            "unload" => {
                let name = words.next().ok_or("unload: missing relation name")?;
                Ok(Request::Unload {
                    name: name.to_string(),
                })
            }
            "history" => match words.next() {
                Some(w) => {
                    let n: usize = w
                        .parse()
                        .map_err(|_| format!("history: bad entry count `{w}`"))?;
                    if n == 0 {
                        return Err("history: entry count must be ≥ 1".into());
                    }
                    Ok(Request::History { n: Some(n) })
                }
                None => Ok(Request::History { n: None }),
            },
            "profile" => {
                let id_word = words.next().ok_or("profile: missing trace id")?;
                let trace_id: u64 = id_word
                    .parse()
                    .map_err(|_| format!("profile: bad trace id `{id_word}`"))?;
                Ok(Request::Profile { trace_id })
            }
            other => Err(format!(
                "unknown command `{other}` (expected ping, status, stats, metrics, tables, run, \
                 explain, stream, prepare, execute, close, load, unload, history, profile, \
                 shutdown or quit)"
            )),
        }
    }
}

/// `[options] <rest…>`: the first word is options iff it parses as
/// [`RunOptions`]; otherwise the payload starts immediately (default
/// options).
fn split_leading_opts(rest: &str) -> (RunOptions, &str) {
    match rest.split_whitespace().next() {
        Some(first) => match first.parse::<RunOptions>() {
            Ok(opts) => (opts, rest[first.len()..].trim_start()),
            Err(_) => (RunOptions::default(), rest),
        },
        None => (RunOptions::default(), rest),
    }
}

/// Join the inline tail of the command line with the framed body into
/// one trimmed SQL text.
fn gather_sql(inline: &str, body: &str) -> String {
    let mut sql = String::new();
    if !inline.is_empty() {
        sql.push_str(inline);
        sql.push('\n');
    }
    sql.push_str(body);
    sql.trim().to_string()
}

/// Parse a `col:type,...` schema spec (`int`, `double`/`float`, `str`).
fn parse_colspec(name: &str, spec: &str) -> Result<Schema, String> {
    let mut pairs = Vec::new();
    for part in spec.split(',') {
        let (col, ty) = part
            .split_once(':')
            .ok_or_else(|| format!("column spec `{part}` missing `:type`"))?;
        let dt = match ty.to_ascii_lowercase().as_str() {
            "int" | "i64" => DataType::Int,
            "double" | "float" | "f64" => DataType::Double,
            "str" | "string" | "text" => DataType::Str,
            other => return Err(format!("unknown column type `{other}`")),
        };
        if col.is_empty() {
            return Err(format!("empty column name in `{part}`"));
        }
        pairs.push((col.to_string(), dt));
    }
    if pairs.is_empty() {
        return Err("empty column spec".into());
    }
    let refs: Vec<(&str, DataType)> = pairs.iter().map(|(c, t)| (c.as_str(), *t)).collect();
    Ok(Schema::from_pairs(name, &refs))
}

/// Build an `ok` response: a header of `key=value` tokens plus an
/// optional body.
pub fn ok_response(fields: &[(&str, String)], body: Option<&str>) -> String {
    let mut frame = FrameBuf::unbounded();
    frame.push_ok_head(fields);
    if let Some(b) = body {
        frame.bytes.push(b'\n');
        frame.bytes.extend_from_slice(b.as_bytes());
    }
    frame.into_payload()
}

/// Build an `err` response.
pub fn err_response(detail: impl std::fmt::Display) -> String {
    format!("err {detail}")
}

// ------------------------------------------------------------------
// Streaming frames
// ------------------------------------------------------------------

/// Default rows per batch frame for `stream` requests that omit
/// `batch=N`.
pub const DEFAULT_STREAM_BATCH: usize = 512;

/// Upper clamp on client-supplied `batch=N`: keeps one batch's rows
/// (the server's peak resident set) and its rendered frame bounded —
/// 16 Ki rows of ~40-byte demo rows is well under [`MAX_FRAME_BYTES`].
/// Wide rows can still overflow a frame; the server answers that with
/// an `err` frame rather than a dropped connection.
pub const MAX_STREAM_BATCH: usize = 16 * 1024;

/// A parsed frame of a streamed response.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamFrame {
    /// The schema frame opening every stream.
    Schema {
        /// The output schema (name + typed columns).
        schema: Schema,
    },
    /// One batch of rows.
    Batch {
        /// Row count (the header's `rows=` field; always equals the
        /// body's record count under RFC-4180 quoting).
        rows: usize,
        /// The rows as header-less CSV (parse with
        /// [`mwtj_storage::csv::parse_csv`] under the schema frame's
        /// schema). Caveat shared with the unary `run` body: a row
        /// whose every column is NULL renders as a *blank* record,
        /// which `parse_csv` skips — `rows` stays authoritative for
        /// counting, but such rows are not reconstructable from CSV.
        csv: String,
    },
    /// The terminal metrics frame.
    End {
        /// Total rows delivered.
        rows: u64,
        /// Batch frames delivered.
        batches: u64,
        /// Processing units granted to the run.
        units: u32,
        /// Admission ticket id.
        ticket: u64,
        /// Achieved simulated makespan.
        sim_secs: f64,
        /// Planner-predicted makespan.
        predicted_secs: f64,
    },
}

/// Number of CSV records in `body` — delegated to the storage codec's
/// quote-aware record splitter (a quoted string value may span lines;
/// an all-NULL row is an *empty* record, closed by its newline), so
/// the wire count can never drift from how [`csv::parse_csv`] splits.
fn csv_record_count(body: &str) -> usize {
    csv::split_records(body).len()
}

/// Data-type tag used in schema frames (the `load` colspec syntax).
fn dt_tag(dt: DataType) -> &'static str {
    match dt {
        DataType::Int => "int",
        DataType::Double => "double",
        DataType::Str => "str",
    }
}

/// The schema frame: `ok stream=schema cols=<n> name=<rel>` with a
/// `col:type,...` body (the same colspec syntax `load` accepts).
pub fn schema_frame(schema: &Schema) -> String {
    let spec: Vec<String> = schema
        .fields()
        .iter()
        .map(|f| format!("{}:{}", f.name, dt_tag(f.data_type)))
        .collect();
    format!(
        "ok stream=schema cols={} name={}\n{}",
        schema.arity(),
        schema.name(),
        spec.join(",")
    )
}

/// A batch frame as a `String` — [`FrameBuf::batch`], which the server
/// encodes straight into its frame buffer. The schema frame already
/// carried the columns, so a batch has no header line.
pub fn batch_frame(_schema: &Schema, rows: Vec<Tuple>) -> String {
    let mut frame = FrameBuf::unbounded();
    frame.batch(&rows);
    frame.into_payload()
}

/// The end frame carrying the run's metrics. Floats print in full
/// `Display` precision so the frame round-trips exactly.
pub fn end_frame(end: &StreamEnd) -> String {
    format!(
        "ok stream=end rows={} batches={} units={} ticket={} sim_secs={} predicted_secs={}",
        end.rows, end.batches, end.granted_units, end.ticket, end.sim_secs, end.predicted_secs
    )
}

/// Parse one streamed-response frame (the inverse of
/// [`schema_frame`]/[`batch_frame`]/[`end_frame`]). Malformed frames —
/// wrong leading tokens, missing or unparseable fields, a batch whose
/// body line count disagrees with `rows=`, a schema whose colspec
/// disagrees with `cols=` — are errors.
pub fn parse_stream_frame(payload: &str) -> Result<StreamFrame, String> {
    let (head, body) = match payload.split_once('\n') {
        Some((h, b)) => (h, b),
        None => (payload, ""),
    };
    let mut words = head.split_whitespace();
    if words.next() != Some("ok") {
        return Err(format!("not a stream frame: `{head}`"));
    }
    let kind = words
        .next()
        .and_then(|w| w.strip_prefix("stream="))
        .ok_or_else(|| format!("missing stream= tag in `{head}`"))?
        .to_string();
    let mut fields = std::collections::HashMap::new();
    for w in words {
        let (k, v) = w
            .split_once('=')
            .ok_or_else(|| format!("bad field `{w}` in `{head}`"))?;
        fields.insert(k, v);
    }
    let field = |k: &str| -> Result<&str, String> {
        fields
            .get(k)
            .copied()
            .ok_or_else(|| format!("missing `{k}=` in `{head}`"))
    };
    fn num<T: std::str::FromStr>(k: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("bad `{k}={v}`"))
    }
    match kind.as_str() {
        "schema" => {
            let cols: usize = num("cols", field("cols")?)?;
            let name = field("name")?;
            let schema = parse_colspec(name, body.trim())?;
            if schema.arity() != cols {
                return Err(format!(
                    "schema frame says cols={cols} but the colspec has {}",
                    schema.arity()
                ));
            }
            Ok(StreamFrame::Schema { schema })
        }
        "batch" => {
            let rows: usize = num("rows", field("rows")?)?;
            let got = csv_record_count(body);
            if got != rows {
                return Err(format!("batch frame says rows={rows} but carries {got}"));
            }
            Ok(StreamFrame::Batch {
                rows,
                csv: body.to_string(),
            })
        }
        "end" => Ok(StreamFrame::End {
            rows: num("rows", field("rows")?)?,
            batches: num("batches", field("batches")?)?,
            units: num("units", field("units")?)?,
            ticket: num("ticket", field("ticket")?)?,
            sim_secs: num("sim_secs", field("sim_secs")?)?,
            predicted_secs: num("predicted_secs", field("predicted_secs")?)?,
        }),
        other => Err(format!("unknown stream frame kind `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwtj_core::Method;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello\nworld").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello\nworld"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    /// Accepts everything, remembers the size of every `write` call.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<usize>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_exactly_one_write() {
        let max = MAX_FRAME_BYTES as usize;
        for len in [0, 1, 64 * 1024, max] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, &"x".repeat(len)).unwrap();
            assert_eq!(w.writes, [4 + len], "prefix and payload in one write");
        }
        let mut w = CountingWriter::default();
        let refused = write_frame(&mut w, &"x".repeat(max + 1)).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidInput);
        assert!(w.writes.is_empty(), "an over-limit frame writes nothing");
    }

    #[test]
    fn row_fills_stop_at_the_frame_limit_and_are_never_sent() {
        let schema = Schema::from_pairs("t", &[("c0", DataType::Str)]);
        let wide = "w".repeat(1024 * 1024);
        let rows: Vec<Tuple> = (0..12)
            .map(|_| mwtj_storage::tuple![wide.as_str()])
            .collect();
        let mut frame = FrameBuf::new();
        frame.batch(&rows);
        // Nine 1-MiB rows cross 8 MiB; the other three are never encoded.
        assert!(frame.payload().len() < 10 * 1024 * 1024);
        let mut w = CountingWriter::default();
        let refused = frame.write_to(&mut w).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidInput);
        assert!(w.writes.is_empty());
        // A reply cut short must stay refused even when trimming its
        // trailing blank records brings it back under the limit.
        let nulls = Relation::from_rows_unchecked(
            schema.clone(),
            vec![Tuple::new(vec![mwtj_storage::Value::Null]); 9 * 1024 * 1024],
        );
        frame.ok_rows(&[("rows", nulls.len().to_string())], &nulls);
        assert!(frame.payload().len() < 64);
        assert!(frame.write_to(&mut w).is_err());
        // The buffer is reusable, and gives the memory back.
        frame.batch(&rows[..1]);
        frame.write_to(&mut w).unwrap();
        assert_eq!(w.writes.len(), 1);
        // The String builder has no limit of its own (write_frame checks).
        assert!(batch_frame(&schema, rows).len() > 12 * 1024 * 1024);
    }

    #[test]
    fn truncated_and_oversized_frames_are_errors() {
        // EOF inside the length prefix.
        let mut r = io::Cursor::new(vec![0u8, 0]);
        assert!(read_frame(&mut r).is_err());
        // EOF inside the payload.
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        assert!(read_frame(&mut io::Cursor::new(buf)).is_err());
        // Hostile length prefix: refused before allocating.
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(read_frame(&mut io::Cursor::new(buf)).is_err());
        // Invalid UTF-8.
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(read_frame(&mut io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn parses_run_with_and_without_options() {
        let r =
            Request::parse("run hive+calibrated SELECT * FROM r a, s b WHERE a.x < b.x").unwrap();
        match r {
            Request::Run { opts, sql } => {
                assert_eq!(opts.get_method(), Method::Hive);
                assert!(opts.wants_calibration());
                assert!(sql.starts_with("SELECT"));
            }
            other => panic!("{other:?}"),
        }
        // No options: SQL starts right after `run`.
        let r = Request::parse("run SELECT * FROM r a, s b WHERE a.x = b.x").unwrap();
        match r {
            Request::Run { opts, sql } => {
                assert_eq!(opts, RunOptions::default());
                assert!(sql.starts_with("SELECT"));
            }
            other => panic!("{other:?}"),
        }
        // Framed form: SQL in the body.
        let r = Request::parse("run ours:grid\nSELECT *\nFROM r a, s b\nWHERE a.x = b.x").unwrap();
        match r {
            Request::Run { sql, .. } => assert!(sql.contains('\n')),
            other => panic!("{other:?}"),
        }
        assert!(Request::parse("run").is_err());
        assert!(Request::parse("run ours").is_err(), "options but no SQL");
    }

    #[test]
    fn parses_load_inline_and_body() {
        let r = Request::parse("load r a:int,b:double 1,2.5;3,4.5").unwrap();
        match r {
            Request::Load { name, schema, csv } => {
                assert_eq!(name, "r");
                assert_eq!(schema.arity(), 2);
                assert_eq!(csv.trim().lines().count(), 2);
            }
            other => panic!("{other:?}"),
        }
        let r = Request::parse("load s k:int\n7\n8\n9").unwrap();
        match r {
            Request::Load { csv, .. } => assert_eq!(csv.lines().count(), 3),
            other => panic!("{other:?}"),
        }
        assert!(Request::parse("load").is_err());
        assert!(Request::parse("load r").is_err());
        assert!(Request::parse("load r a:blob 1").is_err());
        assert!(Request::parse("load r a 1").is_err());
    }

    #[test]
    fn parses_stream_with_options_and_batch_size() {
        let r =
            Request::parse("stream hive batch=32 SELECT * FROM r a, s b WHERE a.x < b.x").unwrap();
        match r {
            Request::Stream {
                opts,
                batch_rows,
                sql,
            } => {
                assert_eq!(opts.get_method(), Method::Hive);
                assert_eq!(batch_rows, Some(32));
                assert!(sql.starts_with("SELECT"));
            }
            other => panic!("{other:?}"),
        }
        // Options and batch size both optional; SQL may live in the
        // body.
        let r = Request::parse("stream\nSELECT * FROM r a, s b WHERE a.x = b.x").unwrap();
        match r {
            Request::Stream {
                opts, batch_rows, ..
            } => {
                assert_eq!(opts, RunOptions::default());
                assert_eq!(batch_rows, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(Request::parse("stream").is_err());
        assert!(Request::parse("stream batch=0 SELECT 1").is_err());
        assert!(Request::parse("stream batch=xyz SELECT 1").is_err());
    }

    #[test]
    fn stream_frames_build_and_parse() {
        let schema = Schema::from_pairs("out", &[("x.a", DataType::Int), ("y.b", DataType::Str)]);
        let sf = schema_frame(&schema);
        assert!(sf.starts_with("ok stream=schema cols=2 name=out\n"), "{sf}");
        assert_eq!(
            parse_stream_frame(&sf).unwrap(),
            StreamFrame::Schema {
                schema: schema.clone()
            }
        );
        let bf = batch_frame(
            &schema,
            vec![
                mwtj_storage::tuple![1, "hi"],
                mwtj_storage::tuple![2, "a,b"],
            ],
        );
        match parse_stream_frame(&bf).unwrap() {
            StreamFrame::Batch { rows, csv } => {
                assert_eq!(rows, 2);
                assert!(csv.contains("\"a,b\""), "{csv}");
            }
            other => panic!("{other:?}"),
        }
        // Empty batch frames are legal (and carry no body lines).
        match parse_stream_frame(&batch_frame(&schema, Vec::new())).unwrap() {
            StreamFrame::Batch { rows, .. } => assert_eq!(rows, 0),
            other => panic!("{other:?}"),
        }
        assert!(parse_stream_frame("ok stream=batch rows=2\nonly,one").is_err());
        assert!(parse_stream_frame("err boom").is_err());
    }

    #[test]
    fn parses_prepare_execute_close_and_stats() {
        // prepare: inline or body SQL.
        match Request::parse("prepare SELECT * FROM r a, s b WHERE a.x < b.x").unwrap() {
            Request::Prepare { sql } => assert!(sql.starts_with("SELECT")),
            other => panic!("{other:?}"),
        }
        match Request::parse("prepare\nSELECT *\nFROM r a, s b\nWHERE a.x = b.x").unwrap() {
            Request::Prepare { sql } => assert!(sql.contains('\n')),
            other => panic!("{other:?}"),
        }
        assert!(Request::parse("prepare").is_err());

        // execute: id, optional options, optional stream/batch, params.
        match Request::parse("execute 3 hive+calibrated stream batch=16 1.5 -2 0").unwrap() {
            Request::Execute {
                id,
                opts,
                params,
                stream,
            } => {
                assert_eq!(id, 3);
                assert_eq!(opts.get_method(), Method::Hive);
                assert!(opts.wants_calibration());
                assert_eq!(stream, Some(Some(16)));
                assert_eq!(params, vec![1.5, -2.0, 0.0]);
            }
            other => panic!("{other:?}"),
        }
        match Request::parse("execute 1").unwrap() {
            Request::Execute {
                id,
                opts,
                params,
                stream,
            } => {
                assert_eq!(id, 1);
                assert_eq!(opts, RunOptions::default());
                assert!(params.is_empty());
                assert_eq!(stream, None);
            }
            other => panic!("{other:?}"),
        }
        match Request::parse("execute 2 stream 7").unwrap() {
            Request::Execute { stream, params, .. } => {
                assert_eq!(stream, Some(None), "stream without batch=N");
                assert_eq!(params, vec![7.0]);
            }
            other => panic!("{other:?}"),
        }
        assert!(Request::parse("execute").is_err());
        assert!(Request::parse("execute x").is_err());
        assert!(Request::parse("execute 1 stream batch=0").is_err());
        assert!(Request::parse("execute 1 notanumber").is_err());
        // Non-finite parameters would bind as always-false predicate
        // offsets (silent empty results) — typed errors instead.
        assert!(Request::parse("execute 1 nan").is_err());
        assert!(Request::parse("execute 1 inf").is_err());
        assert!(Request::parse("execute 1 -inf").is_err());

        // close + stats.
        assert_eq!(Request::parse("close 9").unwrap(), Request::Close { id: 9 });
        assert!(Request::parse("close").is_err());
        assert!(Request::parse("close q").is_err());
        assert_eq!(Request::parse("stats").unwrap(), Request::Stats);
    }

    #[test]
    fn parses_metrics_and_explain() {
        assert_eq!(
            Request::parse("metrics").unwrap(),
            Request::Metrics { json: false }
        );
        assert_eq!(
            Request::parse("stats JSON").unwrap(),
            Request::Metrics { json: true }
        );
        assert!(Request::parse("stats bogus").is_err());

        match Request::parse("explain hive SELECT * FROM r a, s b WHERE a.x < b.x").unwrap() {
            Request::Explain { opts, sql } => {
                assert_eq!(opts.get_method(), Method::Hive);
                assert!(sql.starts_with("SELECT"));
            }
            other => panic!("{other:?}"),
        }
        // `analyze` never parses as RunOptions, so it stays in the SQL
        // for the engine to interpret.
        match Request::parse("explain analyze SELECT * FROM r a, s b WHERE a.x < b.x").unwrap() {
            Request::Explain { opts, sql } => {
                assert_eq!(opts, RunOptions::default());
                assert!(sql.starts_with("analyze"), "{sql}");
            }
            other => panic!("{other:?}"),
        }
        // Framed form: SQL in the body.
        match Request::parse("explain\nEXPLAIN ANALYZE SELECT *\nFROM r a, s b\nWHERE a.x = b.x")
            .unwrap()
        {
            Request::Explain { sql, .. } => assert!(sql.contains('\n')),
            other => panic!("{other:?}"),
        }
        assert!(Request::parse("explain").is_err());
    }

    /// The `stats` reply carries plan-cache and zone-map skip counters
    /// in one `ok` frame whose `key=value` tokens all parse — the shape
    /// clients (and the CI smoke) extract fields from.
    #[test]
    fn stats_reply_fields_parse_from_one_frame() {
        let reply = ok_response(
            &[
                ("entries", "3".into()),
                ("hits", "7".into()),
                ("misses", "4".into()),
                ("evictions", "1".into()),
                ("replans", "2".into()),
                ("zone_blocks_pruned", "5".into()),
                ("zone_pairs_kept", "9".into()),
                ("zone_pairs_pruned", "6".into()),
                ("zone_rows_pruned", "1200".into()),
                ("skip_fraction", "0.750000".into()),
                ("task_attempts", "42".into()),
                ("real_retries", "5".into()),
                ("panics_caught", "3".into()),
                ("deadline_exceeded", "1".into()),
                ("shed", "2".into()),
                ("epoch", "4".into()),
            ],
            None,
        );
        assert!(!reply.contains('\n'), "single frame, no body: {reply}");
        let mut words = reply.split_whitespace();
        assert_eq!(words.next(), Some("ok"));
        let mut fields = std::collections::HashMap::new();
        for w in words {
            let (k, v) = w.split_once('=').expect("key=value token");
            fields.insert(k, v);
        }
        for k in [
            "entries",
            "hits",
            "misses",
            "evictions",
            "replans",
            "zone_blocks_pruned",
            "zone_pairs_kept",
            "zone_pairs_pruned",
            "zone_rows_pruned",
            "task_attempts",
            "real_retries",
            "panics_caught",
            "deadline_exceeded",
            "shed",
            "epoch",
        ] {
            let v = fields.get(k).unwrap_or_else(|| panic!("missing {k}"));
            assert!(v.parse::<u64>().is_ok(), "{k}={v}");
        }
        let f: f64 = fields["skip_fraction"].parse().expect("skip_fraction");
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn parses_history_and_profile() {
        assert_eq!(
            Request::parse("history").unwrap(),
            Request::History { n: None }
        );
        assert_eq!(
            Request::parse("history 5").unwrap(),
            Request::History { n: Some(5) }
        );
        assert!(Request::parse("history 0").is_err());
        assert!(Request::parse("history many").is_err());
        assert_eq!(
            Request::parse("profile 42").unwrap(),
            Request::Profile { trace_id: 42 }
        );
        assert!(Request::parse("profile").is_err());
        assert!(Request::parse("profile x").is_err());
    }

    #[test]
    fn parses_simple_commands_and_rejects_garbage() {
        assert_eq!(Request::parse("ping").unwrap(), Request::Ping);
        assert_eq!(Request::parse("  STATUS  ").unwrap(), Request::Status);
        assert_eq!(Request::parse("tables").unwrap(), Request::Tables);
        assert_eq!(Request::parse("shutdown").unwrap(), Request::Shutdown);
        assert_eq!(Request::parse("quit").unwrap(), Request::Quit);
        assert_eq!(
            Request::parse("unload r").unwrap(),
            Request::Unload { name: "r".into() }
        );
        assert!(Request::parse("").is_err());
        assert!(Request::parse("explode").is_err());
    }

    #[test]
    fn response_builders() {
        let ok = ok_response(&[("rows", "3".into())], Some("a,b\n1,2"));
        assert!(ok.starts_with("ok rows=3\n"));
        assert_eq!(err_response("boom"), "err boom");
    }
}
