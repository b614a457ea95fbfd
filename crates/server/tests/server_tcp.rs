//! Server integration: protocol round-trips over real TCP, malformed
//! frames, rude disconnects, concurrent clients vs the oracle, and
//! graceful shutdown.

use mwtj_core::{assert_quiescent, Engine, RunOptions};
use mwtj_join::oracle::canonicalize;
use mwtj_server::{load_demo, serve_lines, Client, Server};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Start a demo-loaded server on an ephemeral port; returns the shared
/// engine, the address, and the serve-thread handle.
fn start_server(units: u32) -> (Engine, SocketAddr, std::thread::JoinHandle<u64>) {
    let engine = Engine::with_units(units);
    load_demo(&engine);
    let server = Server::bind(engine.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    (engine, addr, handle)
}

fn shutdown(addr: SocketAddr) {
    let mut c = Client::connect(addr).expect("connect for shutdown");
    let reply = c.request("shutdown").expect("shutdown reply");
    assert!(reply.starts_with("ok"), "{reply}");
}

/// Sorted data rows of a `run` response (skips the `ok` header and the
/// CSV column header).
fn response_rows(reply: &str) -> Vec<String> {
    assert!(reply.starts_with("ok "), "{reply}");
    let mut rows: Vec<String> = reply.lines().skip(2).map(str::to_string).collect();
    rows.sort();
    rows
}

/// Oracle rows for `sql`, rendered to sorted CSV lines with the same
/// codec the server uses.
fn oracle_rows(engine: &Engine, sql: &str) -> Vec<String> {
    let parsed = engine.parse_sql("oracle", sql).expect("parse");
    for (alias, base) in &parsed.instances {
        let _ = engine.load_alias_of(base, alias).expect("alias");
    }
    let rows = canonicalize(engine.oracle(&parsed.query).expect("oracle"));
    let rel = mwtj_storage::Relation::from_rows_unchecked(parsed.query.output_schema(), rows);
    let csv = mwtj_storage::csv::to_csv(&rel);
    let mut lines: Vec<String> = csv.trim_end().lines().skip(1).map(str::to_string).collect();
    lines.sort();
    lines
}

const Q_RS: &str = "SELECT x.a, y.b FROM r x, s y WHERE x.a = y.a";
const Q_ST: &str = "SELECT u.a, v.b FROM s u, t v WHERE u.a <= v.a";

#[test]
fn protocol_round_trip_ping_status_load_run_tables() {
    let (_engine, addr, handle) = start_server(8);
    let mut c = Client::connect(addr).expect("connect");

    assert_eq!(c.request("ping").unwrap(), "ok pong");

    let status = c.request("status").unwrap();
    assert!(status.starts_with("ok budget=8 "), "{status}");

    // Load a tiny relation with inline rows, join it, drop it.
    let loaded = c.request("load tiny a:int,b:int 1,10;2,20;3,30").unwrap();
    assert!(loaded.contains("rows=3"), "{loaded}");
    let reply = c
        .request("run ours SELECT x.a, y.b FROM tiny x, tiny y WHERE x.a < y.a")
        .unwrap();
    assert!(reply.starts_with("ok rows=3 "), "{reply}");
    let rows = response_rows(&reply);
    assert_eq!(rows, vec!["1,20", "1,30", "2,30"]);

    let tables = c.request("tables").unwrap();
    assert!(tables.lines().any(|l| l == "tiny,3"), "{tables}");
    assert!(c.request("unload tiny").unwrap().contains("unloaded=true"));

    // Errors are responses, not disconnects.
    let err = c
        .request("run SELECT * FROM nope x, r y WHERE x.a = y.a")
        .unwrap();
    assert!(err.starts_with("err "), "{err}");
    let err = c.request("frobnicate").unwrap();
    assert!(err.starts_with("err unknown command"), "{err}");
    assert_eq!(c.request("ping").unwrap(), "ok pong", "connection survives");

    assert_eq!(c.request("quit").unwrap(), "ok bye");
    shutdown(addr);
    handle.join().unwrap();
}

#[test]
fn run_results_match_oracle_and_rewrite_aliases() {
    let (engine, addr, handle) = start_server(8);
    let mut c = Client::connect(addr).expect("connect");
    let reply = c.run_sql(&RunOptions::default(), Q_RS).unwrap();
    // Header row carries the *public* aliases.
    let header = reply.lines().nth(1).unwrap();
    assert_eq!(header, "x.a,y.b");
    assert_eq!(response_rows(&reply), oracle_rows(&engine, Q_RS));
    shutdown(addr);
    handle.join().unwrap();
}

/// Streamed queries over real TCP: schema frame first, batch frames
/// respecting `batch=N`, end frame with consistent totals — and the
/// concatenated batch rows equal the unary `run` response.
#[test]
fn streamed_query_frames_match_run_response() {
    use mwtj_server::{parse_stream_frame, StreamFrame};
    let (_engine, addr, handle) = start_server(8);
    let mut c = Client::connect(addr).expect("connect");
    let run_reply = c.run_sql(&RunOptions::default(), Q_ST).unwrap();
    let want = response_rows(&run_reply);

    let frames = c
        .stream_sql(&RunOptions::default(), Some(7), Q_ST)
        .expect("stream");
    assert!(frames.len() >= 3, "schema + ≥1 batch + end: {frames:?}");
    let parsed: Vec<StreamFrame> = frames
        .iter()
        .map(|f| parse_stream_frame(f).expect("well-formed frame"))
        .collect();
    let StreamFrame::Schema { schema } = &parsed[0] else {
        panic!("first frame must be the schema: {:?}", parsed[0]);
    };
    assert_eq!(schema.fields()[0].name, "u.a", "public aliases on wire");
    let mut rows: Vec<String> = Vec::new();
    let mut batch_total = 0u64;
    for frame in &parsed[1..parsed.len() - 1] {
        let StreamFrame::Batch { rows: n, csv } = frame else {
            panic!("middle frames must be batches: {frame:?}");
        };
        assert!(*n >= 1 && *n <= 7, "batch size bound violated: {n}");
        batch_total += *n as u64;
        rows.extend(csv.lines().map(str::to_string));
    }
    let StreamFrame::End {
        rows: total,
        batches,
        units,
        ticket,
        ..
    } = parsed[parsed.len() - 1]
    else {
        panic!("last frame must be the end: {:?}", parsed.last());
    };
    assert_eq!(total, batch_total);
    assert_eq!(batches as usize, parsed.len() - 2);
    assert!(units >= 1 && ticket > 0);
    rows.sort();
    assert_eq!(rows, want, "streamed rows must equal the unary response");

    // The connection stays usable after a stream, and engine-side
    // failures arrive as a single err frame.
    assert_eq!(c.request("ping").unwrap(), "ok pong");
    let err_frames = c
        .stream_sql(
            &RunOptions::default(),
            None,
            "SELECT * FROM ghost g, r y WHERE g.a = y.a",
        )
        .unwrap();
    assert_eq!(err_frames.len(), 1);
    assert!(err_frames[0].starts_with("err "), "{:?}", err_frames[0]);
    assert_eq!(c.request("ping").unwrap(), "ok pong");

    shutdown(addr);
    handle.join().unwrap();
}

/// A client that hangs up mid-stream cancels the run server-side: no
/// leaked admission units, the DFS and catalog back at their baseline,
/// and the server keeps serving.
#[test]
fn client_disconnect_mid_stream_cancels_the_run() {
    let (engine, addr, handle) = start_server(8);
    let baseline = engine.quiescence();
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        // Tiny batches keep the worker streaming long enough that the
        // disconnect lands mid-run.
        let payload = format!("stream batch=1 {Q_ST}");
        mwtj_server::write_frame(&mut raw, &payload).unwrap();
        // Read just the schema frame, then hang up rudely.
        let first = mwtj_server::read_frame(&mut raw).unwrap().unwrap();
        assert!(first.starts_with("ok stream=schema"), "{first}");
        drop(raw);
    }
    // Give the server time to notice the broken pipe and unwind.
    for _ in 0..100 {
        if engine.scheduler().stats().in_flight_units == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_quiescent(&engine, &baseline);
    let mut c = Client::connect(addr).expect("connect after abuse");
    assert_eq!(c.request("ping").unwrap(), "ok pong");
    shutdown(addr);
    handle.join().unwrap();
}

#[test]
fn malformed_frames_get_an_error_and_do_not_kill_the_server() {
    let (_engine, addr, handle) = start_server(8);

    // Hostile length prefix.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
        raw.flush().unwrap();
        let reply = mwtj_server::read_frame(&mut raw).unwrap();
        assert!(reply.unwrap().starts_with("err bad frame"), "oversized");
        // Server closes the broken connection afterwards.
        assert_eq!(mwtj_server::read_frame(&mut raw).unwrap(), None);
    }

    // Invalid UTF-8 payload.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&2u32.to_be_bytes()).unwrap();
        raw.write_all(&[0xff, 0xfe]).unwrap();
        raw.flush().unwrap();
        let reply = mwtj_server::read_frame(&mut raw).unwrap();
        assert!(reply.unwrap().starts_with("err bad frame"), "bad utf8");
    }

    // Truncated frame, then rude disconnect.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&100u32.to_be_bytes()).unwrap();
        raw.write_all(b"only a few bytes").unwrap();
        raw.flush().unwrap();
        drop(raw);
    }
    std::thread::sleep(Duration::from_millis(50));

    // The server still serves fresh clients.
    let mut c = Client::connect(addr).expect("connect after abuse");
    assert_eq!(c.request("ping").unwrap(), "ok pong");
    shutdown(addr);
    handle.join().unwrap();
}

#[test]
fn client_disconnect_mid_query_leaves_server_healthy() {
    let (engine, addr, handle) = start_server(8);
    // Fire a query and hang up without reading the response.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let payload = format!("run {Q_RS}");
        mwtj_server::write_frame(&mut raw, &payload).unwrap();
        drop(raw);
    }
    std::thread::sleep(Duration::from_millis(100));
    // Server is alive, scheduler leaked nothing, and queries still run.
    let mut c = Client::connect(addr).expect("connect after disconnect");
    let reply = c.run_sql(&RunOptions::default(), Q_RS).unwrap();
    assert_eq!(response_rows(&reply), oracle_rows(&engine, Q_RS));
    let stats = engine.scheduler().stats();
    assert_eq!(stats.in_flight_units, 0, "ticket leaked: {stats:?}");
    shutdown(addr);
    handle.join().unwrap();
}

/// ≥8 concurrent clients, small unit budget: everyone completes, every
/// result matches the oracle, and the aggregate in-flight reservations
/// never exceed the budget.
#[test]
fn eight_concurrent_clients_match_oracle_within_budget() {
    let (engine, addr, handle) = start_server(6);
    let want_rs = oracle_rows(&engine, Q_RS);
    let want_st = oracle_rows(&engine, Q_ST);
    let mut clients = Vec::new();
    for i in 0..10 {
        let want = if i % 2 == 0 {
            want_rs.clone()
        } else {
            want_st.clone()
        };
        let sql = if i % 2 == 0 { Q_RS } else { Q_ST };
        clients.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            let reply = c.run_sql(&RunOptions::default(), sql).expect("run");
            assert_eq!(response_rows(&reply), want, "client {i}");
        }));
    }
    for c in clients {
        c.join().unwrap();
    }
    let stats = engine.scheduler().stats();
    assert!(stats.admitted >= 10, "{stats:?}");
    assert!(
        stats.peak_in_flight_units <= stats.budget,
        "budget exceeded: {stats:?}"
    );
    assert_eq!(stats.in_flight_units, 0);
    shutdown(addr);
    handle.join().unwrap();
}

#[test]
fn graceful_shutdown_drains_and_counts_requests() {
    let (engine, addr, handle) = start_server(8);
    let mut c = Client::connect(addr).expect("connect");
    assert_eq!(c.request("ping").unwrap(), "ok pong");
    assert!(c.request("shutdown").unwrap().starts_with("ok"));
    let served = handle.join().unwrap();
    assert!(served >= 2, "served {served}");
    // The scheduler refuses new work after the drain.
    assert!(engine.scheduler().is_shutting_down());
    assert!(engine.run_sql(Q_RS).is_err());
    // And the listener is gone (connect may succeed briefly on some
    // stacks, but a request will never be answered).
    if let Ok(mut late) = Client::connect(addr) {
        assert!(late.request("ping").is_err());
    }
}

#[test]
fn stdin_mode_serves_one_line_requests() {
    let engine = Engine::with_units(8);
    load_demo(&engine);
    let input = format!("ping\n\nload tiny a:int 1;2;3\nrun {Q_RS}\nstatus\nquit\n");
    let mut out = Vec::new();
    serve_lines(&engine, input.as_bytes(), &mut out).expect("serve_lines");
    let text = String::from_utf8(out).unwrap();
    assert!(text.starts_with("ok pong\n"), "{text}");
    assert!(text.contains("ok relation=tiny rows=3"), "{text}");
    assert!(text.contains("ok rows="), "{text}");
    assert!(text.contains("budget=8"), "{text}");
    assert!(text.trim_end().ends_with("ok bye"), "{text}");
}

/// The `hits=` field of a `stats` response.
fn stats_hits(reply: &str) -> u64 {
    assert!(reply.starts_with("ok "), "{reply}");
    reply
        .split_whitespace()
        .find_map(|w| w.strip_prefix("hits="))
        .and_then(|v| v.parse().ok())
        .expect("stats reply carries hits=")
}

/// A value-clustered relation joined under a tight band prunes; the
/// `stats` frame must report the zone-map counters moving alongside
/// the plan-cache counters, all in one frame.
#[test]
fn stats_frame_reports_zone_skip_counters() {
    use mwtj_storage::{tuple, DataType, Relation, Schema};
    let (engine, addr, handle) = start_server(8);
    let big = Relation::from_rows_unchecked(
        Schema::from_pairs("big", &[("a", DataType::Int), ("b", DataType::Int)]),
        (0..12_000i64).map(|i| tuple![i, i]).collect(),
    );
    let small = Relation::from_rows_unchecked(
        Schema::from_pairs("small", &[("a", DataType::Int), ("b", DataType::Int)]),
        (0..8i64).map(|i| tuple![i + 30, i]).collect(),
    );
    let _ = engine.load_relation(&big);
    let _ = engine.load_relation(&small);
    let run = engine
        .run_sql("SELECT * FROM big x, small y WHERE x.a < y.a")
        .expect("pruning run");
    assert!(run.skip_fraction() > 0.0, "band must prune");

    let mut c = Client::connect(addr).expect("connect");
    let reply = c.request("stats").unwrap();
    assert!(reply.starts_with("ok "), "{reply}");
    let field = |k: &str| -> f64 {
        reply
            .split_whitespace()
            .find_map(|w| w.strip_prefix(&format!("{k}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("stats reply missing {k}=: {reply}"))
    };
    assert!(field("zone_rows_pruned") > 0.0);
    assert!(field("zone_blocks_pruned") > 0.0);
    assert!(field("zone_pairs_kept") >= 1.0);
    let f = field("skip_fraction");
    assert!(f > 0.0 && f <= 1.0, "skip_fraction={f}");
    // Plan-cache counters ride in the same frame.
    let _ = field("entries");
    let _ = field("misses");
    let _ = field("evictions");
    shutdown(addr);
    handle.join().unwrap();
}

#[test]
fn prepared_lifecycle_over_tcp() {
    let (_engine, addr, handle) = start_server(8);
    let mut c = Client::connect(addr).expect("connect");

    // Prepare a parameterised statement.
    let prep = c
        .prepare("SELECT x.a, y.b FROM r x, s y WHERE x.a + ? <= y.a")
        .unwrap();
    assert!(prep.starts_with("ok stmt="), "{prep}");
    assert!(prep.contains("params=1"), "{prep}");
    let id = Client::parse_stmt_id(&prep).expect("stmt id");

    // Execute twice with different parameters; the second execution
    // must be a plan-cache hit (same template plan).
    let opts = RunOptions::default();
    let first = c.execute(id, &opts, &[0.0]).unwrap();
    assert!(first.starts_with("ok rows="), "{first}");
    let hits_after_first = stats_hits(&c.request("stats").unwrap());
    let second = c.execute(id, &opts, &[5.0]).unwrap();
    assert!(second.starts_with("ok rows="), "{second}");
    let hits_after_second = stats_hits(&c.request("stats").unwrap());
    assert!(
        hits_after_second > hits_after_first,
        "second execute must hit the plan cache ({hits_after_first} -> {hits_after_second})"
    );

    // The parameterless binding equals the ad-hoc literal run.
    let adhoc = c
        .request("run SELECT x.a, y.b FROM r x, s y WHERE x.a + 0 <= y.a")
        .unwrap();
    assert_eq!(response_rows(&first), response_rows(&adhoc));

    // Wrong arity is a typed err frame, not a disconnect.
    let bad = c.execute(id, &opts, &[]).unwrap();
    assert!(bad.starts_with("err"), "{bad}");

    // Close, then every further use is a typed unknown-id error.
    assert!(c.close_stmt(id).unwrap().starts_with("ok closed="));
    assert!(c
        .execute(id, &opts, &[0.0])
        .unwrap()
        .starts_with("err unknown statement id"));
    assert!(c
        .close_stmt(id)
        .unwrap()
        .starts_with("err unknown statement id"));
    assert!(c
        .request("execute 999 1.0")
        .unwrap()
        .starts_with("err unknown statement id"));

    shutdown(addr);
    handle.join().unwrap();
}

#[test]
fn statement_ids_are_per_connection() {
    let (_engine, addr, handle) = start_server(8);
    let mut c1 = Client::connect(addr).expect("connect c1");
    let mut c2 = Client::connect(addr).expect("connect c2");
    let prep = c1.prepare(Q_RS).unwrap();
    let id = Client::parse_stmt_id(&prep).expect("stmt id");
    // The other connection cannot see (or close) the statement.
    assert!(c2
        .execute(id, &RunOptions::default(), &[])
        .unwrap()
        .starts_with("err unknown statement id"));
    assert!(c2
        .close_stmt(id)
        .unwrap()
        .starts_with("err unknown statement id"));
    // The owner still can.
    assert!(c1
        .execute(id, &RunOptions::default(), &[])
        .unwrap()
        .starts_with("ok rows="));
    shutdown(addr);
    handle.join().unwrap();
}

#[test]
fn streamed_execute_off_a_prepared_statement() {
    let (_engine, addr, handle) = start_server(8);
    let mut c = Client::connect(addr).expect("connect");
    let prep = c.prepare(Q_ST).unwrap();
    let id = Client::parse_stmt_id(&prep).expect("stmt id");

    // Unary execution for the row-count reference.
    let unary = c.execute(id, &RunOptions::default(), &[]).unwrap();
    let unary_rows: u64 = unary
        .split_whitespace()
        .find_map(|w| w.strip_prefix("rows="))
        .and_then(|v| v.parse().ok())
        .expect("rows=");

    // Streamed execution off the same handle: schema frame, ≥2 batch
    // frames, end frame with the same row total.
    let mut frames = Vec::new();
    let ok = c
        .stream(&format!("execute {id} stream batch=64"), |f| {
            frames.push(f.to_string())
        })
        .unwrap();
    assert!(ok, "stream must end cleanly: {frames:?}");
    assert!(frames[0].starts_with("ok stream=schema"), "{:?}", frames[0]);
    let batches = frames
        .iter()
        .filter(|f| f.starts_with("ok stream=batch"))
        .count();
    assert!(batches >= 2, "expected incremental batches, got {batches}");
    let end = frames.last().unwrap();
    assert!(end.starts_with("ok stream=end"), "{end}");
    let streamed_rows: u64 = end
        .split_whitespace()
        .find_map(|w| w.strip_prefix("rows="))
        .and_then(|v| v.parse().ok())
        .expect("end rows=");
    assert_eq!(streamed_rows, unary_rows);

    // Streaming an unknown id is one err frame, not a broken stream.
    let mut err_frames = Vec::new();
    let ok = c
        .stream("execute 42 stream", |f| err_frames.push(f.to_string()))
        .unwrap();
    assert!(!ok);
    assert!(
        err_frames[0].starts_with("err unknown statement id"),
        "{err_frames:?}"
    );

    shutdown(addr);
    handle.join().unwrap();
}

#[test]
fn stdin_mode_serves_the_prepared_lifecycle() {
    let engine = Engine::with_units(8);
    load_demo(&engine);
    let input = "prepare SELECT x.a FROM r x, s y WHERE x.a + ? < y.a\n\
                 execute 1 2\n\
                 execute 1 stream batch=32 2\n\
                 stats\n\
                 close 1\n\
                 execute 1 2\n\
                 quit\n";
    let mut out = Vec::new();
    serve_lines(&engine, input.as_bytes(), &mut out).expect("serve_lines");
    let text = String::from_utf8(out).unwrap();
    assert!(text.starts_with("ok stmt=1 params=1\n"), "{text}");
    assert!(text.contains("ok rows="), "{text}");
    assert!(text.contains("ok stream=schema"), "{text}");
    assert!(text.contains("ok stream=end"), "{text}");
    assert!(text.contains("hits="), "{text}");
    assert!(text.contains("ok closed=1"), "{text}");
    assert!(text.contains("err unknown statement id 1"), "{text}");
    let hits = stats_hits(text.lines().find(|l| l.starts_with("ok entries=")).unwrap());
    assert!(
        hits >= 1,
        "streamed re-execution must hit the plan cache: {text}"
    );
}

#[test]
fn statement_table_is_bounded_per_connection() {
    let engine = Engine::with_units(4);
    load_demo(&engine);
    // 256 statements fit; the 257th prepare is refused with a typed
    // error, and closing one frees a slot.
    let mut input = String::new();
    for _ in 0..257 {
        input.push_str("prepare SELECT x.a FROM r x, s y WHERE x.a < y.a\n");
    }
    input.push_str("close 1\nprepare SELECT x.a FROM r x, s y WHERE x.a < y.a\nquit\n");
    let mut out = Vec::new();
    serve_lines(&engine, input.as_bytes(), &mut out).expect("serve_lines");
    let text = String::from_utf8(out).unwrap();
    let oks = text.lines().filter(|l| l.starts_with("ok stmt=")).count();
    assert_eq!(oks, 257, "256 initial + 1 after a close");
    let fulls = text
        .lines()
        .filter(|l| l.starts_with("err statement table full"))
        .count();
    assert_eq!(fulls, 1, "{text}");
    assert!(text.contains("ok closed=1"), "{text}");
}

/// The observability verbs over real TCP: `metrics` answers the text
/// exposition (with a populated latency histogram after a run),
/// `stats json` answers the same registry as JSON, and
/// `explain`/`EXPLAIN ANALYZE` answer plan and profile frames.
#[test]
fn metrics_and_explain_verbs_over_tcp() {
    let (_engine, addr, handle) = start_server(8);
    let mut c = Client::connect(addr).expect("connect");

    // Plain explain: a plan frame, no execution.
    let explained = c.request(&format!("explain {Q_RS}")).unwrap();
    assert!(explained.starts_with("ok trace="), "{explained}");
    assert!(explained.contains("analyze=false"), "{explained}");
    assert!(explained.contains("plan: ours:"), "{explained}");
    assert!(explained.contains("units: requested="), "{explained}");
    // Nothing ran, so no query latency samples yet.
    let metrics = c.request("metrics").unwrap();
    assert!(
        !metrics.contains("mwtj_query_latency_ms_count"),
        "{metrics}"
    );

    // A real run populates the registry.
    let reply = c.run_sql(&RunOptions::default(), Q_RS).unwrap();
    assert!(reply.starts_with("ok rows="), "{reply}");
    let metrics = c.request("metrics").unwrap();
    assert!(metrics.starts_with("ok format=text\n"), "{metrics}");
    let count_line = metrics
        .lines()
        .find(|l| l.starts_with("mwtj_query_latency_ms_count"))
        .unwrap_or_else(|| panic!("no latency count in {metrics}"));
    let count: u64 = count_line
        .split_whitespace()
        .last()
        .unwrap()
        .parse()
        .unwrap();
    assert!(count >= 1, "{count_line}");
    assert!(
        metrics
            .lines()
            .any(|l| l.starts_with("mwtj_queries_total{method=ours}")),
        "{metrics}"
    );
    assert!(
        metrics
            .lines()
            .any(|l| l.starts_with("mwtj_query_latency_ms_bucket{le=+Inf,method=ours}")),
        "{metrics}"
    );
    // Encode and write are observed per frame; so far every frame on
    // this server was a unary reply.
    let unary_frames = |metrics: &str, name: &str| -> u64 {
        let line = format!("{name}{{kind=unary}} ");
        let value = metrics.lines().find_map(|l| l.strip_prefix(&line));
        value
            .unwrap_or_else(|| panic!("no {line}in {metrics}"))
            .parse()
            .unwrap()
    };
    // (The reply to this `metrics` request itself is not counted yet.)
    assert_eq!(unary_frames(&metrics, "mwtj_wire_encode_ms_count"), 3);
    assert_eq!(unary_frames(&metrics, "mwtj_wire_write_ms_count"), 3);
    assert!(unary_frames(&metrics, "mwtj_wire_bytes_total") > reply.len() as u64);
    assert!(!metrics.contains("kind=stream"), "{metrics}");
    // A stream's frames are counted one by one, under their own label.
    let frames = c
        .stream_sql(&RunOptions::default(), Some(50), Q_RS)
        .expect("stream");
    assert!(frames.len() > 3, "schema + batches + end: {}", frames.len());
    let streamed_bytes: usize = frames.iter().map(String::len).sum();
    let metrics = c.request("metrics").unwrap();
    for (name, want) in [
        ("mwtj_wire_encode_ms_count", frames.len()),
        ("mwtj_wire_write_ms_count", frames.len()),
        ("mwtj_wire_bytes_total", streamed_bytes),
    ] {
        let line = format!("{name}{{kind=stream}} {want}");
        assert!(
            metrics.lines().any(|l| l == line),
            "no `{line}` in {metrics}"
        );
    }

    // The JSON variant parses far enough to carry the same counter.
    let json = c.request("stats json").unwrap();
    assert!(json.starts_with("ok format=json\n"), "{json}");
    assert!(json.contains("mwtj_queries_total"), "{json}");

    // EXPLAIN ANALYZE through the `run` verb: executes and renders the
    // profile tree with per-job stages.
    let analyzed = c.request(&format!("run EXPLAIN ANALYZE {Q_RS}")).unwrap();
    assert!(analyzed.starts_with("ok trace="), "{analyzed}");
    assert!(analyzed.contains("analyze=true"), "{analyzed}");
    assert!(analyzed.contains("rows: "), "{analyzed}");
    for stage in ["plan", "admission", "execute", "job0/map"] {
        assert!(
            analyzed.lines().any(|l| l.trim_start().starts_with(stage)),
            "missing stage {stage} in {analyzed}"
        );
    }
    // …and the `explain analyze` verb form routes identically.
    let verb = c.request(&format!("explain analyze {Q_RS}")).unwrap();
    assert!(verb.contains("analyze=true"), "{verb}");

    shutdown(addr);
    handle.join().unwrap();
}

/// The introspection tentpole over real TCP: run a query, then SELECT
/// it back from `sys.queries` (theta-joined against `sys.scheduler`),
/// page the flight recorder with `history`, and fetch a retained
/// slow-run profile by trace id with `profile`.
#[test]
fn sys_catalog_history_and_profile_over_tcp() {
    let (engine, addr, handle) = start_server(8);
    // Any traced run at or over 1 ms wall time retains its profile.
    engine.set_slow_query_ms(1);
    let mut c = Client::connect(addr).expect("connect");

    let reply = c
        .run_sql(
            &RunOptions::default(),
            "SELECT x.a, y.b, z.a FROM r x, s y, t z WHERE x.a = y.a AND y.b = z.b",
        )
        .unwrap();
    assert!(reply.starts_with("ok rows="), "{reply}");

    // `history` reports the run, newest first, with its trace id.
    let history = c.request("history 5").unwrap();
    assert!(history.starts_with("ok entries="), "{history}");
    let line = history.lines().nth(1).expect("one history entry");
    let trace: u64 = line
        .split_whitespace()
        .find_map(|w| w.strip_prefix("trace="))
        .expect("trace= field")
        .parse()
        .expect("numeric trace id");
    assert!(line.contains("outcome=ok"), "{line}");

    // The same trace id answers from sys.queries through plain SQL —
    // a theta join between two sys relations.
    let sys = c
        .run_sql(
            &RunOptions::default(),
            "SELECT q.trace_id, q.outcome FROM sys.queries q, sys.scheduler s \
             WHERE q.granted_units <= s.budget",
        )
        .unwrap();
    assert!(sys.starts_with("ok rows="), "{sys}");
    assert!(
        response_rows(&sys)
            .iter()
            .any(|r| r == &format!("{trace},ok")),
        "trace {trace} missing from sys.queries: {sys}"
    );

    // sys.metrics sees the registry through SQL, end to end.
    let metrics = c
        .run_sql(
            &RunOptions::default(),
            "SELECT m.name, m.value FROM sys.metrics m, sys.scheduler s \
             WHERE m.count >= s.queued_now",
        )
        .unwrap();
    assert!(metrics.contains("mwtj_queries_total"), "{metrics}");

    // The slow run's profile tree is retained and fetchable.
    let profile = c.request(&format!("profile {trace}")).unwrap();
    assert!(
        profile.starts_with(&format!("ok trace={trace}")),
        "{profile}"
    );
    assert!(profile.contains("query"), "{profile}");
    // Unknown trace ids answer a typed error, not a hang-up.
    let missing = c.request("profile 999999999").unwrap();
    assert!(missing.starts_with("err no retained profile"), "{missing}");

    shutdown(addr);
    handle.join().unwrap();
}

/// A unary reply is bounded while it is built: past 8 MiB of CSV the
/// server stops encoding, answers a typed frame instead, and the
/// connection stays in sync — `stream` then delivers every row.
#[test]
fn over_limit_unary_reply_is_a_typed_frame_and_stream_delivers_the_rows() {
    use mwtj_server::{parse_stream_frame, StreamFrame, MAX_FRAME_BYTES};
    use mwtj_storage::{tuple, DataType, Relation, Schema};
    let (engine, addr, handle) = start_server(8);
    // 420 × 420 pairs all inside the band, ~56 bytes of CSV each.
    const N: i64 = 420;
    const BIG: i64 = 1_000_000_000_000;
    let wide = Relation::from_rows_unchecked(
        Schema::from_pairs("wide", &[("a", DataType::Int), ("b", DataType::Int)]),
        (0..N).map(|i| tuple![BIG + i, 2 * BIG + i]).collect(),
    );
    let _ = engine.load_relation(&wide);
    let sql = "SELECT x.a, x.b, y.a, y.b FROM wide x, wide y WHERE x.a < y.b";
    assert!((N * N) as u64 * 56 > MAX_FRAME_BYTES as u64);

    let mut c = Client::connect(addr).expect("connect");
    let reply = c.run_sql(&RunOptions::default(), sql).unwrap();
    assert_eq!(
        reply,
        "err response too large (> 8388608 bytes); use stream"
    );
    assert_eq!(
        c.request("ping").unwrap(),
        "ok pong",
        "stream still in sync"
    );

    let mut batch_rows = 0u64;
    let mut end_rows = None;
    let ok = c
        .stream(
            &format!("stream batch=16384\n{sql}"),
            |f| match parse_stream_frame(f).expect("well-formed frame") {
                StreamFrame::Batch { rows, .. } => batch_rows += rows as u64,
                StreamFrame::End { rows, .. } => end_rows = Some(rows),
                StreamFrame::Schema { .. } => {}
            },
        )
        .unwrap();
    assert!(ok);
    assert_eq!(batch_rows, (N * N) as u64);
    assert_eq!(end_rows, Some((N * N) as u64));
    shutdown(addr);
    handle.join().unwrap();
}

/// Reads are buffered on the server side: requests that arrive
/// together are each answered, in order, and a request that arrives in
/// pieces is still one request.
#[test]
fn pipelined_and_fragmented_requests_are_answered_in_order() {
    let (_engine, addr, handle) = start_server(8);
    let mut raw = TcpStream::connect(addr).unwrap();

    // Three frames in one write.
    let mut wire = Vec::new();
    mwtj_server::write_frame(&mut wire, "ping").unwrap();
    mwtj_server::write_frame(&mut wire, "status").unwrap();
    mwtj_server::write_frame(&mut wire, "frobnicate").unwrap();
    raw.write_all(&wire).unwrap();
    let replies: Vec<String> = (0..3)
        .map(|_| mwtj_server::read_frame(&mut raw).unwrap().unwrap())
        .collect();
    assert_eq!(replies[0], "ok pong");
    assert!(replies[1].starts_with("ok budget=8 "), "{}", replies[1]);
    assert!(
        replies[2].starts_with("err unknown command"),
        "{}",
        replies[2]
    );

    // One frame, a byte per write.
    let mut wire = Vec::new();
    mwtj_server::write_frame(&mut wire, &format!("run {Q_RS}")).unwrap();
    for byte in wire {
        raw.write_all(&[byte]).unwrap();
    }
    let reply = mwtj_server::read_frame(&mut raw).unwrap().unwrap();
    assert!(reply.starts_with("ok rows="), "{reply}");

    shutdown(addr);
    handle.join().unwrap();
}

/// Drain unblocks a connection parked in a *buffered* read: `serve`
/// returns although an idle client never hangs up.
#[test]
fn shutdown_returns_with_an_idle_buffered_connection() {
    let engine = Engine::with_units(8);
    let server = Server::bind(engine, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("addr");
    let stop = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    let mut idle = Client::connect(addr).expect("connect");
    // Answered once, so its worker is now parked in the next read.
    assert_eq!(idle.request("ping").unwrap(), "ok pong");
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    assert_eq!(handle.join().unwrap(), 1);
    // The idle client sees the server's side close.
    assert!(idle.request("ping").is_err());
}
