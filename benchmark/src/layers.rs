//! The traced pass: after the window, single-threaded, each op class
//! is replayed with every call into a layer wrapped in a span. All
//! numbers are taken from outside the crates — by timing their public
//! functions or reading their public return values.
//!
//! Unless a metric says otherwise it is *per query*: the mean over the
//! workload's query classes of each class's median over its replays
//! (counts: of the class's first replay, so they repeat exactly).

use crate::harness::{schema_of, EngineDelta, GateFacts, Live, SetupSecs, Tally, WindowStats};
use crate::metrics::Metrics;
use crate::reference::Table;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Class, Request, Variant, Workload, STREAM_BATCH};
use mwtj_core::{Engine, QueryRun, RunOptions, SpanRecord, RID_COLUMN};
use mwtj_hilbert::{PartitionStrategy, SpacePartition};
use mwtj_join::{ChainThetaJob, IntermediateShape, PairKernel};
use mwtj_mapreduce::{Dfs, DfsFile, MrJob, TagZones, TaggedRecord};
use mwtj_query::theta::CompiledPredicate;
use mwtj_query::MultiwayQuery;
use mwtj_server::{batch_frame, ok_response, read_frame, schema_frame, write_frame};
use mwtj_storage::{csv, Columns, DataType, Field, RelationStats, Schema, Tuple};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replays per class and loop: at most this many …
const MAX_REPLAYS: usize = 20;
/// … at least this many, and no new one once the loop has used …
const MIN_REPLAYS: usize = 3;
/// … this much time (the driver's time cap leaves no room for 20
/// replays of a 300 ms query in every traced run).
const REPLAY_BUDGET: Duration = Duration::from_millis(500);
/// Rounds of the ablations (default / `+noskip` / recorder off): at
/// most this many, and no new one after [`REPLAY_BUDGET`].
const ABLATION_ROUNDS: usize = 3;
/// Rows of the largest relation the storage micro-spans run on.
const INGEST_SAMPLE_ROWS: usize = 100_000;
const PINGS: usize = 10;

fn replay(mut once: impl FnMut()) -> usize {
    let started = Instant::now();
    let mut n = 0;
    while n < MAX_REPLAYS && (n < MIN_REPLAYS || started.elapsed() < REPLAY_BUDGET) {
        once();
        n += 1;
    }
    n
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// What the client puts on the wire for `request` (the stock
/// `Client` helpers build exactly these strings).
fn wire_payload(request: &Request, sql: &str, params: &[f64]) -> String {
    let opts = RunOptions::default();
    match request {
        Request::Stream { .. } => format!("stream {opts} batch={STREAM_BATCH}\n{sql}"),
        Request::Execute { .. } => {
            let ps: String = params.iter().map(|p| format!(" {p}")).collect();
            format!("execute 1 {opts}{ps}")
        }
        Request::Load { payload } => payload.clone(),
        Request::Run { .. } | Request::RunAdhoc { .. } => format!("run {opts}\n{sql}"),
    }
}

/// The response the server would frame for `run`: one `ok` frame for
/// a unary request, schema + batch frames for a streamed one. Returns
/// the encoded bytes (so the work cannot be optimised away).
fn encode_response(run: &QueryRun, streamed: bool) -> usize {
    if streamed {
        let schema = run.output.schema();
        let mut bytes = schema_frame(schema).len();
        for chunk in run.output.rows().chunks(STREAM_BATCH) {
            bytes += batch_frame(schema, chunk.to_vec()).len();
        }
        bytes
    } else {
        let body = csv::to_csv(&run.output);
        let fields = [
            ("rows", run.output.len().to_string()),
            ("cols", run.output.schema().arity().to_string()),
            ("units", run.granted_units.to_string()),
            ("ticket", run.ticket.to_string()),
            ("sim_secs", format!("{:.6}", run.sim_secs)),
            ("predicted_secs", format!("{:.6}", run.predicted_secs)),
        ];
        ok_response(&fields, Some(body.trim_end())).len()
    }
}

/// Per-job counters of one run, summed.
#[derive(Debug, Default, Clone, Copy)]
struct JobCounts {
    jobs: f64,
    real_ms: f64,
    input_records: f64,
    shuffle_records: f64,
    shuffle_bytes: f64,
    candidates: f64,
    output_rows: f64,
    skew: f64,
    zone_blocks: f64,
    zone_blocks_pruned: f64,
    zone_rows: f64,
    zone_rows_pruned: f64,
    retries: f64,
}

fn job_counts(run: &QueryRun) -> JobCounts {
    let mut c = JobCounts {
        jobs: run.jobs.len() as f64,
        output_rows: run.output.len() as f64,
        ..JobCounts::default()
    };
    for j in &run.jobs {
        c.real_ms += j.real_secs * 1e3;
        c.input_records += j.input_records as f64;
        c.shuffle_records += j.map_output_records as f64;
        c.shuffle_bytes += j.map_output_bytes as f64;
        c.candidates += j.reduce_candidates as f64;
        c.skew = c.skew.max(j.skew());
        c.zone_blocks += j.zone_blocks as f64;
        c.zone_blocks_pruned += j.zone_blocks_pruned as f64;
        c.zone_rows += j.zone_rows_total as f64;
        c.zone_rows_pruned += j.zone_rows_pruned as f64;
        c.retries += (j.real_map_retries + j.real_reduce_retries) as f64;
    }
    c
}

/// The harness driving a `ChainThetaJob` itself, single-threaded, over
/// the engine's own DFS blocks (zone-map skipping honoured).
struct ChainDrive {
    map_ms: f64,
    reduce_ms: f64,
    candidates: f64,
    output_rows: u64,
    partition_build_us: f64,
    replication: f64,
}

/// `q` with the engine's row-id column appended to every schema, as
/// the rows in its DFS carry it.
fn with_rid(q: &MultiwayQuery) -> MultiwayQuery {
    let mut q = q.clone();
    for s in &mut q.schemas {
        if s.index_of(RID_COLUMN).is_err() {
            let mut fields = s.fields().to_vec();
            fields.push(Field::new(RID_COLUMN, DataType::Int));
            *s = Schema::new(s.name(), fields);
        }
    }
    q
}

fn drive_chain(q: &MultiwayQuery, files: &[Arc<DfsFile>], k_r: u32) -> ChainDrive {
    let edges: Vec<usize> = (0..q.num_conditions()).collect();
    let cards: Vec<u64> = files.iter().map(|f| f.rows as u64).collect();
    let job = ChainThetaJob::new(q, &edges, &cards, k_r, PartitionStrategy::Hilbert);
    let dim_cards: Vec<u64> = job.dims().iter().map(|&r| cards[r].max(1)).collect();
    let built = Instant::now();
    let partition = SpacePartition::new(
        PartitionStrategy::Hilbert,
        &dim_cards,
        k_r,
        SpacePartition::auto_bits(dim_cards.len(), k_r),
    );
    let partition_build_us = built.elapsed().as_secs_f64() * 1e6;

    let mut zones = TagZones::new();
    for (dim, &rel) in job.dims().iter().enumerate() {
        for block in &files[rel].blocks {
            zones.push(dim as u8, Arc::clone(&block.zones));
        }
    }
    let filter = job.skip_filter(&zones);
    let mut groups: BTreeMap<u64, Vec<TaggedRecord>> = BTreeMap::new();
    let mapped = Instant::now();
    for (dim, &rel) in job.dims().iter().enumerate() {
        let tag = dim as u8;
        for (ord, block) in files[rel].blocks.iter().enumerate() {
            if filter.as_ref().is_some_and(|f| !f.keep_block(tag, ord)) {
                continue;
            }
            let seed = (dim as u64) << 32 | ord as u64;
            for (i, row) in block.rows.iter().enumerate() {
                if filter.as_ref().is_some_and(|f| !f.keep_row(tag, row)) {
                    continue;
                }
                job.map(tag, row, seed, i, &mut |key, rec| {
                    groups.entry(key).or_default().push(rec)
                });
            }
        }
    }
    let map_ms = ms(mapped.elapsed());
    let mut out = Vec::new();
    let mut candidates = 0u64;
    let reduced = Instant::now();
    for (key, records) in &groups {
        candidates += job.reduce(*key, records, &mut out);
    }
    ChainDrive {
        map_ms,
        reduce_ms: ms(reduced.elapsed()),
        candidates: candidates as f64,
        output_rows: out.len() as u64,
        partition_build_us,
        replication: partition.replication_factor(),
    }
}

/// `PairKernel::compile` + `join_into` over the two relations of the
/// query's first condition, whole relations in, as `benches/joincore.rs`
/// does. Returns (milliseconds, pairs).
fn drive_pair_kernel(q: &MultiwayQuery, files: &[Arc<DfsFile>]) -> (f64, usize) {
    let (u, v, _) = q.conditions[0];
    let preds: Vec<CompiledPredicate> =
        q.compile().expect("parsed query compiles").per_condition[0].clone();
    let lefts: Vec<&Tuple> = files[u].all_rows().collect();
    let rights: Vec<&Tuple> = files[v].all_rows().collect();
    let started = Instant::now();
    let left = IntermediateShape::base(q, u);
    let right = IntermediateShape::base(q, v);
    let out = IntermediateShape::union(q, &left, &right);
    let kernel = PairKernel::compile(&left, &right, &out, &preds);
    let mut pairs = Vec::new();
    kernel.join_into(&lefts, &rights, &mut pairs);
    (ms(started.elapsed()), std::hint::black_box(pairs).len())
}

/// Wall time the leaves under `span` account for: what a reader of the
/// profile tree can attribute to a stage that is not split further.
fn leaf_wall_ms(span: &SpanRecord) -> f64 {
    if span.children.is_empty() {
        span.wall_ms
    } else {
        span.children.iter().map(leaf_wall_ms).sum()
    }
}

/// Everything measured for one query class.
#[derive(Default)]
struct ClassLayers {
    replays: usize,
    tcp_ms: f64,
    request_ms: f64,
    request_parse_us: f64,
    parse_us: f64,
    plan_cold_us: f64,
    execute_ms: f64,
    setup_ms: f64,
    admission_ms: f64,
    encode_us_per_krow: f64,
    coverage: f64,
    counts: JobCounts,
    skip_speedup: f64,
    recorder_overhead: f64,
    chain: Option<ChainDrive>,
    parallel_efficiency: Option<f64>,
    pair_kernel_ms: f64,
}

fn trace_class(
    t: &mut Tracer,
    w: &Workload,
    class: &Class,
    live: &mut Live,
    tally: &mut Tally,
) -> Result<ClassLayers, String> {
    let engine = live.engine.clone();
    let opts = RunOptions::default();
    let streamed = matches!(class.variants[0].request, Request::Stream { .. });
    let prepared_class = matches!(class.variants[0].request, Request::Execute { .. });
    let mut out = ClassLayers::default();
    let err = |e: &dyn std::fmt::Display| format!("traced pass, class {}: {e}", class.name);

    // The same op over TCP, one span per request.
    let mut next = 0usize;
    let mut tcp = Vec::new();
    replay(|| {
        let v = &class.variants[next % class.variants.len()];
        next += 1;
        t.next_request();
        let (reply, took) = t.span("tcp.request", |_| live.conns[0].send(&v.request, false));
        tally.record("traced tcp", reply.failure(&v.expect));
        tcp.push(took);
    });
    out.tcp_ms = median(&tcp);

    // The server's path for that op, in process: parse the frame,
    // prepare + execute, encode the response.
    let (mut request_ms, mut request_parse, mut execute, mut setup) =
        (vec![], vec![], vec![], vec![]);
    let (mut admission, mut encode, mut coverage) = (vec![], vec![], vec![]);
    let mut first_run: Option<(QueryRun, &Variant)> = None;
    let mut failure = None;
    next = 0;
    out.replays = replay(|| {
        let v = &class.variants[next % class.variants.len()];
        next += 1;
        let (sql, params) = v.sql(&w.prepared).expect("query classes carry SQL");
        let payload = wire_payload(&v.request, &sql, &params);
        let held = if prepared_class {
            engine.prepare_sql("server", &sql).ok()
        } else {
            None
        };
        t.next_request();
        let (result, total) = t.span("server.request", |t| {
            let (_, parse_ms) = t.span("server.request_parse", |_| {
                mwtj_server::Request::parse(&payload)
            });
            let (run, run_ms) = t.span("core.execute", |t| {
                let prepared = match held {
                    Some(p) => p,
                    None => {
                        t.span("core.prepare_sql", |_| engine.prepare_sql("server", &sql))
                            .0?
                    }
                };
                let (run, run_ms) = t.span("core.engine_execute", |_| {
                    engine.execute(&prepared, &params, &opts)
                });
                run.map(|r| (r, run_ms))
            });
            let ((run, engine_ms), execute_ms) = (run?, run_ms);
            let (bytes, encode_ms) = t.span("server.response_encode", |_| {
                encode_response(&run, streamed)
            });
            std::hint::black_box(bytes);
            Ok::<_, mwtj_core::EngineError>((run, parse_ms, execute_ms, engine_ms, encode_ms))
        });
        match result {
            Err(e) => failure = Some(e.to_string()),
            Ok((run, parse_ms, execute_ms, engine_ms, encode_ms)) => {
                request_ms.push(total);
                request_parse.push(parse_ms * 1e3);
                execute.push(execute_ms);
                encode.push(encode_ms * 1e3 / (run.output.len().max(1) as f64 / 1e3));
                if let Some(profile) = run.profile() {
                    let wall = |stage| profile.find(stage).map_or(0.0, |s| s.wall_ms);
                    setup.push(
                        (engine_ms - run.real_secs * 1e3 - wall("plan") - wall("admission"))
                            .max(0.0),
                    );
                    admission.push(wall("admission"));
                    coverage.push(
                        leaf_wall_ms(&profile.root) / profile.root.wall_ms.max(f64::MIN_POSITIVE),
                    );
                }
                if run.output.len() as u64 != v.expect.rows {
                    failure = Some(format!(
                        "in-process run returned {} rows, reference says {}",
                        run.output.len(),
                        v.expect.rows
                    ));
                }
                if first_run.is_none() {
                    first_run = Some((run, v));
                }
            }
        }
    });
    tally.record("traced in-process", failure.clone());
    if let Some(e) = failure {
        return Err(err(&e));
    }
    let (first_run, first_variant) = first_run.expect("MIN_REPLAYS >= 1");
    out.request_ms = median(&request_ms);
    out.request_parse_us = median(&request_parse);
    out.execute_ms = median(&execute);
    out.setup_ms = median(&setup);
    out.admission_ms = median(&admission);
    out.encode_us_per_krow = median(&encode);
    out.coverage = median(&coverage);
    out.counts = job_counts(&first_run);

    // Parser and cold planner on the first variant's text.
    let (sql, params) = first_variant
        .sql(&w.prepared)
        .expect("query classes carry SQL");
    let parsed = engine.parse_sql("server", &sql).map_err(|e| err(&e))?;
    let bases: Vec<String> = parsed
        .instances
        .iter()
        .map(|(_, base)| base.clone())
        .collect();
    let stats: Vec<RelationStats> = bases
        .iter()
        .map(|b| {
            engine
                .stats_of(b)
                .ok_or_else(|| err(&format!("no statistics for {b}")))
        })
        .collect::<Result<_, _>>()?;
    let stat_refs: Vec<&RelationStats> = stats.iter().collect();
    let planner = engine.planner();
    let k_p = engine.cluster().config().processing_units;
    let (mut parse_us, mut plan_us) = (vec![], vec![]);
    for _ in 0..MIN_REPLAYS {
        t.next_request();
        parse_us.push(
            t.span("query.parse", |_| engine.parse_sql("server", &sql).is_ok())
                .1
                * 1e3,
        );
        plan_us.push(
            t.span("planner.plan_query", |_| {
                planner.plan_query(&parsed.query, &stat_refs, k_p).is_ok()
            })
            .1 * 1e3,
        );
    }
    out.parse_us = median(&parse_us);
    out.plan_cold_us = median(&plan_us);

    // Ablations, in process: zone-map skipping off; tracing and
    // the flight recorder off.
    // the flight recorder off. Interleaved with default runs so that
    // drift in the host hits all three alike.
    let prepared = engine.prepare_sql("server", &sql).map_err(|e| err(&e))?;
    let (noskip, dark) = (opts.clone().skipping(false), opts.clone().tracing(false));
    let (mut default_ms, mut noskip_ms, mut dark_ms) = (vec![], vec![], vec![]);
    let ablations = Instant::now();
    for round in 0..ABLATION_ROUNDS {
        if round > 0 && ablations.elapsed() > REPLAY_BUDGET {
            break;
        }
        for (name, opts, took) in [
            ("core.engine_execute", &opts, &mut default_ms),
            ("core.engine_execute+noskip", &noskip, &mut noskip_ms),
            ("core.engine_execute+notrace", &dark, &mut dark_ms),
        ] {
            let recorder_off = !opts.tracing_enabled();
            if recorder_off {
                engine.set_flight_capacity(0);
            }
            t.next_request();
            let (run, ms) = t.span(name, |_| engine.execute(&prepared, &params, opts));
            if recorder_off {
                engine.set_flight_capacity(mwtj_obs::DEFAULT_FLIGHT_CAPACITY);
            }
            run.map_err(|e| err(&e))?;
            took.push(ms);
        }
    }
    let default_ms = median(&default_ms).max(f64::MIN_POSITIVE);
    out.skip_speedup = median(&noskip_ms) / default_ms;
    out.recorder_overhead = default_ms / median(&dark_ms).max(f64::MIN_POSITIVE) - 1.0;

    // The join operators on this class's inputs, driven directly.
    let bound = parsed.bind(&params).map_err(|e| err(&e))?;
    let q = with_rid(&bound.query);
    let dfs = engine.cluster().dfs();
    let files: Vec<Arc<DfsFile>> = bases
        .iter()
        .map(|b| {
            dfs.get(b)
                .ok_or_else(|| err(&format!("no DFS file for {b}")))
        })
        .collect::<Result<_, _>>()?;
    t.next_request();
    let ((pair_ms, pairs), _) = t.span("join.pair_kernel", |_| drive_pair_kernel(&q, &files));
    out.pair_kernel_ms = pair_ms;
    if q.num_conditions() == 1 {
        let wrong = (pairs as u64 != first_variant.expect.rows).then(|| {
            format!(
                "pair kernel found {pairs} pairs, reference says {}",
                first_variant.expect.rows
            )
        });
        tally.record("traced pair kernel", wrong);
    }
    // Only where the engine itself ran the query as one chain MRJ, so
    // that the two are the same job (an equi-join planned as a hash
    // pair job would be quadratic as a chain job).
    if let [job] = &first_run.jobs[..] {
        if job.name.starts_with("chain[") {
            t.next_request();
            let (drive, _) = t.span("join.chain_job", |_| {
                drive_chain(&q, &files, job.reduce_tasks)
            });
            let wrong = (drive.output_rows != first_variant.expect.rows).then(|| {
                format!(
                    "direct chain job produced {} rows, reference says {}",
                    drive.output_rows, first_variant.expect.rows
                )
            });
            tally.record("traced chain job", wrong);
            let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
            out.parallel_efficiency = Some(
                (drive.map_ms + drive.reduce_ms)
                    / (job.real_secs * 1e3 * threads).max(f64::MIN_POSITIVE),
            );
            out.chain = Some(drive);
        }
    }
    Ok(out)
}

/// The first `INGEST_SAMPLE_ROWS` rows of `t` as CSV with a header.
fn sample_csv(t: &Table) -> String {
    let mut out = String::from("a,b,c\n");
    for i in 0..t.len().min(INGEST_SAMPLE_ROWS) {
        let _ = writeln!(out, "{},{},{}", t.cols[0][i], t.cols[1][i], t.cols[2][i]);
    }
    out
}

/// Write `frames` copies of `payload` through `write_frame` into a
/// loopback socket whose other end drains them with `read_frame`;
/// MB/s of payload.
fn frame_write_mb_per_s(payload: &str, frames: usize) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("loopback pair: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let mut tx = TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
    let (mut rx, _) = listener.accept().map_err(io)?;
    let reader = std::thread::spawn(move || {
        let mut n = 0usize;
        while let Ok(Some(frame)) = read_frame(&mut rx) {
            n += frame.len();
        }
        n
    });
    let started = Instant::now();
    for _ in 0..frames {
        write_frame(&mut tx, payload).map_err(io)?;
    }
    drop(tx);
    let received = reader
        .join()
        .map_err(|_| "loopback reader panicked".to_string())?;
    let secs = started.elapsed().as_secs_f64();
    if received != payload.len() * frames {
        return Err(format!(
            "loopback pair delivered {received} of {} bytes",
            payload.len() * frames
        ));
    }
    Ok(received as f64 / 1e6 / secs)
}

/// Storage- and wire-level micro-spans on a sample of the workload's
/// largest relation: the steps of a `load`, one at a time.
fn trace_ingest(
    t: &mut Tracer,
    w: &Workload,
    engine: &Engine,
    m: &mut Metrics,
) -> Result<(), String> {
    let largest = w
        .tables
        .iter()
        .max_by_key(|t| t.len())
        .expect("workloads have tables");
    let text = sample_csv(largest);
    let schema = schema_of("ingest_sample");
    let types: Vec<DataType> = schema.fields().iter().map(|f| f.data_type).collect();
    let rel = csv::parse_csv(&schema, &text).map_err(|e| format!("ingest sample: {e}"))?;
    let mrows = rel.len() as f64 / 1e6;
    let mb = text.len() as f64 / 1e6;
    let config = engine.cluster().config();
    let (mut parse, mut columns, mut stats, mut put, mut encode) =
        (vec![], vec![], vec![], vec![], vec![]);
    for _ in 0..MIN_REPLAYS {
        t.next_request();
        parse.push(
            t.span("storage.parse_csv", |_| {
                csv::parse_csv(&schema, &text).is_ok()
            })
            .1,
        );
        columns.push(
            t.span("storage.columns_from_rows", |_| {
                Columns::from_rows(types.clone(), rel.rows()).is_ok()
            })
            .1,
        );
        stats.push(
            t.span("storage.stats_collect", |_| {
                RelationStats::collect(&rel, 512, &mut StdRng::seed_from_u64(0x57a7)).cardinality
            })
            .1,
        );
        put.push(
            t.span("mapreduce.put_relation", |_| {
                Dfs::new().put_relation("ingest_sample", &rel, config)
            })
            .1,
        );
        encode.push(t.span("storage.to_csv", |_| csv::to_csv(&rel).len()).1);
    }
    m.layer("storage.csv_parse_mb_per_s", mb / (median(&parse) / 1e3));
    m.layer(
        "storage.columns_build_ms_per_mrow",
        median(&columns) / mrows,
    );
    m.layer("storage.stats_collect_ms_per_mrow", median(&stats) / mrows);
    m.layer("mapreduce.put_relation_ms_per_mrow", median(&put) / mrows);
    m.layer("storage.csv_encode_mb_per_s", mb / (median(&encode) / 1e3));
    // 64 frames of (up to) 256 KiB of that CSV.
    let cut = (0..=text.len().min(256 * 1024))
        .rev()
        .find(|&i| text.is_char_boundary(i))
        .unwrap_or(0);
    t.next_request();
    let (rate, _) = t.span("server.frame_write_read", |_| {
        frame_write_mb_per_s(&text[..cut], 64)
    });
    m.layer("server.frame_write_mb_per_s", rate?);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
pub fn traced_pass(
    w: &Workload,
    live: &mut Live,
    stats: &WindowStats,
    facts: &GateFacts,
    delta: &EngineDelta,
    setup: SetupSecs,
    loaded_rss_mb: f64,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut t = Tracer::new();
    let engine = live.engine.clone();

    let mut pings = Vec::new();
    for _ in 0..PINGS {
        t.next_request();
        let (pong, took) = t.span("server.ping", |_| live.conns[0].client.request("ping"));
        let wrong = match pong {
            Ok(p) if p == "ok pong" => None,
            Ok(p) => Some(format!("ping answered {p}")),
            Err(e) => Some(format!("transport: {e}")),
        };
        tally.record("traced ping", wrong);
        pings.push(took);
    }
    let wire_rtt_ms = median(&pings);

    let queries: Vec<&Class> = w.classes.iter().filter(|c| !c.is_load()).collect();
    let mut layers = Vec::new();
    for class in &queries {
        layers.push(trace_class(&mut t, w, class, live, tally)?);
    }
    let per_query = |f: fn(&ClassLayers) -> f64| mean(layers.iter().map(f));
    let total = |f: fn(&JobCounts) -> f64| layers.iter().map(|l| f(&l.counts)).sum::<f64>();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    m.layer("server.wire_rtt_ms", wire_rtt_ms);
    m.layer("server.request_parse_us", per_query(|l| l.request_parse_us));
    m.layer(
        "server.frame_encode_us_per_krow",
        per_query(|l| l.encode_us_per_krow),
    );
    m.layer("server.frames_per_query", stats.frames_per_query);
    m.layer("server.bytes_per_query", stats.bytes_per_query);
    m.layer("query.parse_us", per_query(|l| l.parse_us));
    m.layer("planner.plan_cold_us", per_query(|l| l.plan_cold_us));
    m.layer("planner.cache_hit_ratio", delta.cache_hit_ratio);
    m.layer("planner.jobs_per_query", per_query(|l| l.counts.jobs));
    m.layer("cost.predicted_over_sim", median(&facts.predicted_over_sim));
    m.layer("core.execute_ms", per_query(|l| l.execute_ms));
    m.layer("core.setup_ms", per_query(|l| l.setup_ms));
    m.layer("core.admission_wait_ms", per_query(|l| l.admission_ms));
    m.layer("core.queued_fraction", delta.queued_fraction);
    m.layer("core.degraded_fraction", delta.degraded_fraction);
    m.layer("core.shed", delta.shed);
    let loaded_rows: usize = w.tables.iter().map(Table::len).sum();
    m.layer(
        "core.load_rows_per_s",
        loaded_rows as f64 / setup.load.max(f64::MIN_POSITIVE),
    );
    m.layer("mapreduce.jobs_real_ms", per_query(|l| l.counts.real_ms));
    m.layer(
        "mapreduce.shuffle_records",
        per_query(|l| l.counts.shuffle_records),
    );
    m.layer(
        "mapreduce.shuffle_bytes",
        per_query(|l| l.counts.shuffle_bytes),
    );
    m.layer(
        "mapreduce.shuffle_records_per_input",
        ratio(total(|c| c.shuffle_records), total(|c| c.input_records)),
    );
    m.layer("mapreduce.reduce_skew", per_query(|l| l.counts.skew));
    m.layer(
        "mapreduce.blocks_pruned_fraction",
        ratio(total(|c| c.zone_blocks_pruned), total(|c| c.zone_blocks)),
    );
    m.layer(
        "mapreduce.rows_pruned_fraction",
        ratio(total(|c| c.zone_rows_pruned), total(|c| c.zone_rows)),
    );
    m.layer("mapreduce.task_retries", total(|c| c.retries));
    m.layer("join.reduce_candidates", per_query(|l| l.counts.candidates));
    m.layer(
        "join.candidates_per_output_row",
        ratio(total(|c| c.candidates), total(|c| c.output_rows)),
    );
    m.layer("join.pair_kernel_ms", per_query(|l| l.pair_kernel_ms));
    // Chain-job figures: over the classes the engine ran as one chain
    // MRJ (none on stream_ingest, whose equi-join is a hash pair job).
    let chains: Vec<&ChainDrive> = layers.iter().filter_map(|l| l.chain.as_ref()).collect();
    if !chains.is_empty() {
        let over = |f: fn(&ChainDrive) -> f64| mean(chains.iter().map(|c| f(c)));
        m.layer("join.chain_map_ms", over(|c| c.map_ms));
        m.layer("join.chain_reduce_ms", over(|c| c.reduce_ms));
        m.layer(
            "join.candidates_per_s",
            ratio(
                chains.iter().map(|c| c.candidates).sum(),
                chains.iter().map(|c| c.reduce_ms / 1e3).sum(),
            ),
        );
        m.layer("hilbert.partition_build_us", over(|c| c.partition_build_us));
        m.layer("hilbert.replication_factor", over(|c| c.replication));
        m.layer(
            "mapreduce.parallel_efficiency",
            mean(layers.iter().filter_map(|l| l.parallel_efficiency)),
        );
    }
    m.layer(
        "storage.rss_bytes_per_row",
        loaded_rss_mb * 1024.0 * 1024.0 / loaded_rows as f64,
    );
    m.layer(
        "storage.reported_resident_bytes_per_row",
        engine.stats_snapshot().storage.resident_bytes as f64 / loaded_rows as f64,
    );
    m.layer("storage.skip_speedup", per_query(|l| l.skip_speedup));
    m.layer(
        "obs.recorder_overhead_frac",
        per_query(|l| l.recorder_overhead),
    );
    m.layer("obs.profile_coverage", per_query(|l| l.coverage));
    let mut render = Vec::new();
    for _ in 0..MIN_REPLAYS {
        t.next_request();
        render.push(
            t.span("obs.metrics_render", |_| {
                engine.metrics().render_text().len()
            })
            .1,
        );
    }
    m.layer("obs.metrics_render_ms", median(&render));

    trace_ingest(&mut t, w, &engine, m)?;

    // Per class: the window's median, and the part of a TCP request
    // that neither the wire round trip nor any in-process span of the
    // server's path explains.
    let mut unattributed = Vec::new();
    let mut overhead = Vec::new();
    for (class, l) in queries.iter().zip(&layers) {
        let dark = l.tcp_ms - wire_rtt_ms - l.request_ms;
        m.layer(&format!("class.{}.unattributed_ms", class.name), dark);
        unattributed.push(dark);
        if let Some((_, _, p50)) = stats.classes.iter().find(|(n, _, _)| *n == class.name) {
            overhead.push(l.tcp_ms / p50.max(f64::MIN_POSITIVE) - 1.0);
        }
    }
    for (name, _, p50) in &stats.classes {
        m.layer(&format!("class.{name}.p50_ms"), *p50);
    }
    m.layer("harness.unattributed_ms", mean(unattributed.into_iter()));
    m.layer("harness.trace_overhead_frac", mean(overhead.into_iter()));
    m.layer("harness.query_samples", stats.query_samples as f64);
    m.layer(
        "harness.traced_replays",
        mean(layers.iter().map(|l| l.replays as f64)),
    );
    m.layer(
        "harness.host_threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}.json", w.name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, t.to_json()))
        .map_err(|e| format!("{path}: {e}"))?;
    eprintln!("mwtj-e2e: {} spans written to {path}", t.spans().len());
    Ok(())
}
