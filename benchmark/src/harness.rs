//! Set-up, the correctness gate and the measured window: an in-process
//! `mwtj_server::Server` on an ephemeral loopback port, driven over
//! real TCP by the stock `mwtj_server::Client` in a closed loop.

use crate::reference::{Expected, Table};
use crate::stats::{median, percentile, slice_median_rate};
use crate::workloads::{adhoc_literal, Class, Request, Workload, STREAM_BATCH};
use mwtj_core::{AdmissionPolicy, Engine, EngineStats, RunOptions};
use mwtj_server::{Client, Server};
use mwtj_storage::{DataType, Relation, Schema, Tuple, Value};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set-ups per run: at least `MIN_SETUPS`, then more while they have
/// together used less than `SETUP_BUDGET_SECS`, at most `MAX_SETUPS`.
/// `setup_s` is their median and the last one serves the window. A
/// set-up of the small workloads is a handful of sub-second queries,
/// any of which the host can stall for longer than it runs.
pub const MIN_SETUPS: usize = 3;
pub const MAX_SETUPS: usize = 7;
pub const SETUP_BUDGET_SECS: f64 = 3.0;
/// Serial `load` round trips probed after the window on workloads
/// whose window has no ingest client.
const LOAD_PROBES: usize = 10;
/// Slices per window (4 s each at the frozen 20 s): throughput and
/// `query_p90_ms` are medians over them.
const SLICES: f64 = 5.0;
/// Below these the percentiles mean nothing and the run fails.
pub const MIN_QUERY_SAMPLES: usize = 50;
pub const MIN_CLASS_SAMPLES: usize = 10;

/// The engine exactly as a flag-less `mwtj-server` builds it:
/// `--units 16 --max-queue 64`, columnar storage on, slow-query log
/// off, tracing and the flight recorder at their defaults.
pub fn stock_engine() -> Engine {
    let policy = AdmissionPolicy {
        max_queue: Some(64),
        ..AdmissionPolicy::default()
    };
    let engine = Engine::with_units_and_policy(16, policy);
    engine.set_slow_query_ms(0);
    engine.set_columnar_storage(true);
    engine
}

pub fn schema_of(name: &str) -> Schema {
    Schema::from_pairs(
        name,
        &[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Int),
        ],
    )
}

pub fn to_relation(t: &Table) -> Relation {
    let rows = (0..t.len())
        .map(|i| Tuple::new(t.cols.iter().map(|c| Value::Int(c[i])).collect()))
        .collect();
    Relation::from_rows_unchecked(schema_of(&t.name), rows)
}

/// One client connection and the ids of the statements prepared on it.
pub struct Conn {
    pub client: Client,
    stmts: Vec<u64>,
}

/// What came back for one op.
#[derive(Debug, Default)]
pub struct Reply {
    /// Send → last response byte.
    pub latency_ms: f64,
    /// Send → first response frame read (the whole reply when unary).
    pub first_frame_ms: f64,
    pub frames: u64,
    pub bytes: u64,
    /// First line of the final frame (`ok …` / `err …`).
    pub head: String,
    /// Rows actually received and their checksum (only when asked for).
    pub received: Option<Expected>,
    pub transport_error: Option<String>,
}

impl Reply {
    pub fn field(&self, key: &str) -> Option<&str> {
        self.head
            .split_whitespace()
            .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
    }

    pub fn field_f64(&self, key: &str) -> f64 {
        self.field(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
    }

    /// `None` when the op did what `expect` says; otherwise why not.
    pub fn failure(&self, expect: &Expected) -> Option<String> {
        if let Some(e) = &self.transport_error {
            return Some(format!("transport: {e}"));
        }
        if !self.head.starts_with("ok") {
            return Some(self.head.clone());
        }
        let rows: Option<u64> = self.field("rows").and_then(|v| v.parse().ok());
        if rows != Some(expect.rows) {
            return Some(format!("rows={rows:?}, reference says {}", expect.rows));
        }
        match self.received {
            Some(got) if got != *expect => {
                Some(format!("received {got:?}, reference says {expect:?}"))
            }
            _ => None,
        }
    }
}

impl Conn {
    fn open(addr: SocketAddr, prepared: &[String]) -> Result<Conn, String> {
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut stmts = Vec::new();
        for sql in prepared {
            let reply = client.prepare(sql).map_err(|e| format!("prepare: {e}"))?;
            stmts.push(
                Client::parse_stmt_id(&reply).ok_or_else(|| format!("prepare answered {reply}"))?,
            );
        }
        Ok(Conn { client, stmts })
    }

    /// Send one op and read its whole response. With `checksum` the
    /// received rows are summarised for the reference comparison.
    pub fn send(&mut self, request: &Request, checksum: bool) -> Reply {
        let opts = RunOptions::default();
        let mut reply = Reply::default();
        let started = Instant::now();
        let outcome = match request {
            Request::Stream { sql } => {
                let payload = format!("stream {opts} batch={STREAM_BATCH}\n{sql}");
                let mut received = Expected::default();
                self.client
                    .stream(&payload, |frame| {
                        if reply.frames == 0 {
                            reply.first_frame_ms = started.elapsed().as_secs_f64() * 1e3;
                        }
                        reply.frames += 1;
                        reply.bytes += frame.len() as u64;
                        let (head, body) = frame.split_once('\n').unwrap_or((frame, ""));
                        if checksum && head.starts_with("ok stream=batch") {
                            for line in body.lines() {
                                received.add_row(line.as_bytes());
                            }
                        }
                        reply.head = head.to_string();
                    })
                    .map(|_| received)
            }
            unary => {
                let result = match unary {
                    Request::Run { sql } => self.client.run_sql(&opts, sql),
                    Request::RunAdhoc { head, width } => self
                        .client
                        .run_sql(&opts, &format!("{head}{}", adhoc_literal(*width))),
                    Request::Execute { stmt, param } => {
                        self.client.execute(self.stmts[*stmt], &opts, &[*param])
                    }
                    Request::Load { payload } => self.client.request(payload),
                    Request::Stream { .. } => unreachable!("handled above"),
                };
                result.map(|text| {
                    reply.frames = 1;
                    reply.bytes = text.len() as u64;
                    reply.head = text.lines().next().unwrap_or_default().to_string();
                    if checksum {
                        // Status line, then the CSV with its header.
                        Expected::of_csv_with_header(text.split_once('\n').map_or("", |t| t.1))
                    } else {
                        Expected::default()
                    }
                })
            }
        };
        reply.latency_ms = started.elapsed().as_secs_f64() * 1e3;
        if reply.frames <= 1 {
            reply.first_frame_ms = reply.latency_ms;
        }
        match outcome {
            Ok(received) => reply.received = checksum.then_some(received),
            Err(e) => reply.transport_error = Some(e.to_string()),
        }
        reply
    }
}

/// A served engine with one warm connection per client.
pub struct Live {
    pub engine: Engine,
    pub conns: Vec<Conn>,
    shutdown: Arc<AtomicBool>,
    server: Option<JoinHandle<()>>,
}

impl Live {
    /// Close the connections, stop the server and wait for it.
    pub fn stop(mut self) {
        self.conns.clear();
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }
}

/// Host seconds of one set-up, and the part spent in `load_relation`.
#[derive(Debug, Clone, Copy)]
pub struct SetupSecs {
    pub total: f64,
    pub load: f64,
}

/// One timed set-up: engine construction, every `load_relation`,
/// server bind, and — per connection, in parallel — `prepare` plus one
/// discarded execution of every distinct statement that connection
/// will send. Returns the live system and how long it took.
pub fn set_up(w: &Workload, relations: &[Relation]) -> Result<(Live, SetupSecs), String> {
    let started = Instant::now();
    let engine = stock_engine();
    for rel in relations {
        let _ = engine.load_relation(rel);
    }
    let load = started.elapsed().as_secs_f64();
    let server = Server::bind(engine.clone(), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || {
        if let Err(e) = server.serve() {
            eprintln!("mwtj-e2e: server stopped with {e}");
        }
    });
    let warmed: Vec<Result<Conn, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = w
            .clients
            .iter()
            .map(|cycle| {
                s.spawn(move || {
                    let mut conn = Conn::open(addr, &w.prepared)?;
                    for &c in cycle {
                        let class = &w.classes[c];
                        for v in &class.variants {
                            let reply = conn.send(&v.request, false);
                            if let Some(why) = reply.failure(&v.expect) {
                                return Err(format!("warm-up of {}: {why}", class.name));
                            }
                        }
                    }
                    Ok(conn)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("warm-up thread panicked".into()))
            })
            .collect()
    });
    let secs = SetupSecs {
        total: started.elapsed().as_secs_f64(),
        load,
    };
    let mut live = Live {
        engine,
        conns: Vec::new(),
        shutdown,
        server: Some(handle),
    };
    for conn in warmed {
        match conn {
            Ok(c) => live.conns.push(c),
            Err(e) => {
                live.stop();
                return Err(e);
            }
        }
    }
    Ok((live, secs))
}

/// Ops attempted and failed so far, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(format!("{what}: {why}"));
            }
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
        self.reasons.truncate(8);
    }
}

/// What the gate's serial pass yields beside the verdicts.
#[derive(Debug, Default)]
pub struct GateFacts {
    /// Σ `sim_secs` over the distinct query statements (Eq. 4 clock).
    pub sim_makespan_s: f64,
    /// `predicted_secs / sim_secs` per query statement.
    pub predicted_over_sim: Vec<f64>,
}

/// The correctness gate: every distinct statement once over the wire
/// on connection 0, full row count + checksum against the reference.
pub fn gate(w: &Workload, live: &mut Live, tally: &mut Tally) -> GateFacts {
    let mut facts = GateFacts::default();
    let conn = &mut live.conns[0];
    for class in &w.classes {
        for v in &class.variants {
            // A load's reply carries no rows to checksum.
            let reply = conn.send(&v.request, !class.is_load());
            tally.record(&format!("gate {}", class.name), reply.failure(&v.expect));
            if !class.is_load() {
                let sim = reply.field_f64("sim_secs");
                facts.sim_makespan_s += sim;
                if sim > 0.0 {
                    facts
                        .predicted_over_sim
                        .push(reply.field_f64("predicted_secs") / sim);
                }
            }
        }
    }
    facts
}

/// `--quick` only: the reference itself, checked against the engine's
/// single-threaded nested-loop `Engine::oracle` on a scratch engine
/// (quadratic, so not at full size).
pub fn oracle_cross_check(w: &Workload, relations: &[Relation], tally: &mut Tally) {
    let engine = stock_engine();
    for rel in relations {
        let _ = engine.load_relation(rel);
    }
    for class in w.classes.iter().filter(|c| !c.is_load()) {
        for v in &class.variants {
            let check = || -> Result<(), String> {
                let (sql, params) = v.sql(&w.prepared).expect("query classes carry SQL");
                let parsed = engine
                    .parse_sql("oracle", &sql)
                    .map_err(|e| e.to_string())?;
                let bound = parsed.bind(&params).map_err(|e| e.to_string())?;
                for (alias, base) in &bound.instances {
                    let rel = relations
                        .iter()
                        .find(|r| r.name() == base)
                        .ok_or_else(|| format!("no relation {base}"))?;
                    let _ = engine.load_alias(rel, alias);
                }
                let mut got = Expected::default();
                for row in engine.oracle(&bound.query).map_err(|e| e.to_string())? {
                    let cells: Vec<String> = row.values().iter().map(Value::to_string).collect();
                    got.add_row(cells.join(",").as_bytes());
                }
                if got == v.expect {
                    Ok(())
                } else {
                    Err(format!(
                        "oracle says {got:?}, reference says {:?}",
                        v.expect
                    ))
                }
            };
            tally.record(&format!("oracle cross-check {}", class.name), check().err());
        }
    }
}

/// One completed op of the window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: usize,
    /// Completion time, seconds since the window opened.
    pub done_at: f64,
    pub latency_ms: f64,
    pub first_frame_ms: f64,
    pub frames: u64,
    pub bytes: u64,
}

/// The closed-loop window: each client sends its next op only after
/// the previous reply, cycling its classes (and each class's
/// variants) round-robin, until `seconds` have passed. An op in flight
/// at the deadline completes and counts.
pub fn window(w: &Workload, live: &mut Live, seconds: f64, tally: &mut Tally) -> Vec<Sample> {
    let barrier = Barrier::new(live.conns.len());
    let per_client: Vec<(Vec<Sample>, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = live
            .conns
            .iter_mut()
            .zip(&w.clients)
            .map(|(conn, cycle)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut samples = Vec::new();
                    let mut tally = Tally::default();
                    let mut next_variant = vec![0usize; w.classes.len()];
                    barrier.wait();
                    let opened = Instant::now();
                    let deadline = Duration::from_secs_f64(seconds);
                    for &c in cycle.iter().cycle() {
                        if opened.elapsed() >= deadline {
                            break;
                        }
                        let class = &w.classes[c];
                        let v = &class.variants[next_variant[c] % class.variants.len()];
                        next_variant[c] += 1;
                        let reply = conn.send(&v.request, false);
                        let failure = reply.failure(&v.expect);
                        if failure.is_none() {
                            samples.push(Sample {
                                class: c,
                                done_at: opened.elapsed().as_secs_f64(),
                                latency_ms: reply.latency_ms,
                                first_frame_ms: reply.first_frame_ms,
                                frames: reply.frames,
                                bytes: reply.bytes,
                            });
                        }
                        tally.record(class.name, failure);
                    }
                    (samples, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for (samples, t) in per_client {
        all.extend(samples);
        tally.absorb(t);
    }
    all
}

/// Serial `load` round trips on connection 0, for workloads whose
/// window has no ingest client.
pub fn probe_load(w: &Workload, live: &mut Live, tally: &mut Tally) -> Vec<f64> {
    let class = &w.classes[w.load_class()];
    let mut ms = Vec::new();
    for i in 0..LOAD_PROBES {
        let v = &class.variants[i % class.variants.len()];
        let reply = live.conns[0].send(&v.request, false);
        let failure = reply.failure(&v.expect);
        if failure.is_none() {
            ms.push(reply.latency_ms);
        }
        tally.record("load probe", failure);
    }
    ms
}

/// The end-to-end figures of one run (everything but `setup_s`,
/// which `main` owns).
#[derive(Debug, Default)]
pub struct WindowStats {
    pub query_p50_ms: f64,
    pub query_p90_ms: f64,
    pub first_frame_p50_ms: f64,
    pub throughput_qps: f64,
    pub load_p50_ms: f64,
    pub query_samples: usize,
    /// Per class of the workload: (name, samples, p50 ms).
    pub classes: Vec<(&'static str, usize, f64)>,
    pub frames_per_query: f64,
    pub bytes_per_query: f64,
}

/// `query_p50_ms` and `first_frame_p50_ms` are the mean over the query
/// classes of each class's median: the classes of one workload differ
/// several-fold in latency, so the median of the pooled samples sits
/// on the edge between two classes and hops from one to the other
/// between runs. `query_p90_ms` is the median over the window's slices
/// of each slice's 90th percentile of the pooled samples (which falls
/// inside the slowest class): the host stalls for seconds at a time,
/// and a stall that covers a tenth of the window would otherwise *be*
/// the p90.
pub fn summarise(
    classes: &[Class],
    samples: &[Sample],
    probed_load_ms: &[f64],
    seconds: f64,
) -> WindowStats {
    let load = classes.len() - 1;
    let of = |c: usize, f: fn(&Sample) -> f64| -> Vec<f64> {
        samples.iter().filter(|s| s.class == c).map(f).collect()
    };
    let mut load_ms = of(load, |s| s.latency_ms);
    load_ms.extend_from_slice(probed_load_ms);
    let mut per_class = Vec::new();
    let (mut p50s, mut first_p50s) = (Vec::new(), Vec::new());
    for (c, class) in classes.iter().enumerate() {
        if c == load {
            per_class.push((class.name, load_ms.len(), median(&load_ms)));
        } else {
            let ms = of(c, |s| s.latency_ms);
            per_class.push((class.name, ms.len(), median(&ms)));
            p50s.push(median(&ms));
            first_p50s.push(median(&of(c, |s| s.first_frame_ms)));
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let queries: Vec<&Sample> = samples.iter().filter(|s| s.class != load).collect();
    let pooled = |f: fn(&Sample) -> f64| -> Vec<f64> { queries.iter().map(|s| f(s)).collect() };
    let n = queries.len().max(1) as f64;
    WindowStats {
        query_p50_ms: mean(&p50s),
        query_p90_ms: median(&slice_p90s(&queries, seconds)),
        first_frame_p50_ms: mean(&first_p50s),
        throughput_qps: slice_median_rate(&pooled(|s| s.done_at), seconds, seconds / SLICES),
        load_p50_ms: median(&load_ms),
        query_samples: queries.len(),
        classes: per_class,
        frames_per_query: queries.iter().map(|s| s.frames).sum::<u64>() as f64 / n,
        bytes_per_query: queries.iter().map(|s| s.bytes).sum::<u64>() as f64 / n,
    }
}

/// The 90th-percentile latency of the ops completing in each slice of
/// the window (slices without ops are left out).
fn slice_p90s(queries: &[&Sample], seconds: f64) -> Vec<f64> {
    let slice_secs = seconds / SLICES;
    (0..SLICES as usize)
        .map(|k| {
            let (from, to) = (k as f64 * slice_secs, (k + 1) as f64 * slice_secs);
            queries
                .iter()
                .filter(|s| s.done_at >= from && s.done_at < to)
                .map(|s| s.latency_ms)
                .collect::<Vec<f64>>()
        })
        .filter(|ms| !ms.is_empty())
        .map(|ms| percentile(&ms, 90.0))
        .collect()
}

/// Scheduler and plan-cache counters that moved between two snapshots.
pub struct EngineDelta {
    pub cache_hit_ratio: f64,
    pub queued_fraction: f64,
    pub degraded_fraction: f64,
    pub shed: f64,
}

pub fn engine_delta(before: &EngineStats, after: &EngineStats) -> EngineDelta {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let hits = d(after.plan_cache.hits, before.plan_cache.hits);
    let misses = d(after.plan_cache.misses, before.plan_cache.misses);
    let admitted = d(after.scheduler.admitted, before.scheduler.admitted).max(1.0);
    EngineDelta {
        cache_hit_ratio: hits / (hits + misses).max(1.0),
        queued_fraction: d(after.scheduler.queued, before.scheduler.queued) / admitted,
        degraded_fraction: d(after.scheduler.degraded, before.scheduler.degraded) / admitted,
        shed: d(after.scheduler.shed, before.scheduler.shed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_verdicts() {
        let expect = Expected {
            rows: 3,
            checksum: 9,
        };
        let ok = |head: &str, received| Reply {
            head: head.into(),
            received,
            ..Reply::default()
        };
        assert_eq!(ok("ok rows=3 cols=2", None).failure(&expect), None);
        assert_eq!(ok("ok rows=3", Some(expect)).failure(&expect), None);
        assert!(ok("ok rows=4", None).failure(&expect).is_some());
        assert!(ok("ok cols=2", None).failure(&expect).is_some());
        assert!(ok("err overloaded retry_after=100", None)
            .failure(&expect)
            .is_some());
        let wrong = Expected {
            rows: 3,
            checksum: 8,
        };
        assert!(ok("ok rows=3", Some(wrong)).failure(&expect).is_some());
        assert_eq!(ok("ok relation=l rows=3", None).failure(&expect), None);
        let dead = Reply {
            transport_error: Some("reset".into()),
            ..Reply::default()
        };
        assert!(dead.failure(&expect).unwrap().starts_with("transport"));
        assert_eq!(
            ok("ok stream=end rows=3 sim_secs=0.25", None).field_f64("sim_secs"),
            0.25
        );
    }

    #[test]
    fn summary_pools_queries_and_keeps_loads_apart() {
        let class = |name| Class {
            name,
            variants: vec![],
        };
        let classes = [class("band2"), class("chain3"), class("load")];
        let s = |class, done_at, latency_ms| Sample {
            class,
            done_at,
            latency_ms,
            first_frame_ms: latency_ms / 2.0,
            frames: 2,
            bytes: 100,
        };
        let samples = [
            s(0, 0.5, 10.0),
            s(1, 1.5, 30.0),
            s(0, 2.5, 20.0),
            s(2, 2.6, 500.0),
        ];
        let st = summarise(&classes, &samples, &[700.0], 5.0);
        assert_eq!(st.query_samples, 3);
        // Class medians 15 and 30, averaged; the pooled median is 20.
        assert_eq!(st.query_p50_ms, 22.5);
        assert_eq!(st.first_frame_p50_ms, 11.25);
        // Slices hold {10}, {30}, {20}, {}, {}: p90s 10, 30, 20.
        assert_eq!(st.query_p90_ms, 20.0);
        assert_eq!(st.load_p50_ms, 600.0);
        assert_eq!(st.classes[0], ("band2", 2, 15.0));
        assert_eq!(st.classes[2], ("load", 2, 600.0));
        assert_eq!((st.frames_per_query, st.bytes_per_query), (2.0, 100.0));
        // Five 1-s slices: one query each by 0.5, 1.5 and 2.5 s, then
        // nothing → rates 2, 1, 1, 0, 0.
        assert_eq!(st.throughput_qps, 1.0);
    }
}
