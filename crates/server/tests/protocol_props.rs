//! Property tests for the streaming protocol frames: schema/batch/end
//! round-trip through the frame codec and the length-prefixed framing,
//! and malformed frames are rejected.

use mwtj_core::StreamEnd;
use mwtj_server::protocol::{
    batch_frame, end_frame, ok_response, parse_stream_frame, read_frame, schema_frame, write_frame,
    FrameBuf, StreamFrame,
};
use mwtj_storage::{csv, DataType, Relation, Schema, Tuple, Value};
use proptest::prelude::*;
use std::fmt::Write as _;

/// A random schema whose column names carry a digit (so no random cell
/// value can collide with a column name and trip CSV header
/// detection).
fn arb_schema() -> impl Strategy<Value = Schema> {
    (
        "[a-z]{1,6}",
        prop::collection::vec(
            prop_oneof![
                Just(DataType::Int),
                Just(DataType::Double),
                Just(DataType::Str)
            ],
            1..5,
        ),
    )
        .prop_map(|(name, types)| {
            let pairs: Vec<(String, DataType)> = types
                .into_iter()
                .enumerate()
                .map(|(i, t)| (format!("c{i}"), t))
                .collect();
            let refs: Vec<(&str, DataType)> = pairs.iter().map(|(c, t)| (c.as_str(), *t)).collect();
            Schema::from_pairs(&name, &refs)
        })
}

/// A random cell for one column type. Strings are non-empty (an empty
/// CSV field reads back as NULL by design) and may contain commas and
/// spaces (exercising RFC-4180 quoting); doubles are eighths (exact in
/// binary, so Display round-trips them).
fn cell(t: DataType, int: i64, s: &str) -> Value {
    match t {
        DataType::Int => Value::Int(int),
        DataType::Double => Value::Double((int % 10_000) as f64 / 8.0),
        DataType::Str => Value::from(s),
    }
}

/// Rows for `schema` out of raw entropy: a quarter of the rows all-NULL
/// (wherever they fall, the tail included), a fifth of the other cells
/// NULL, and every type's awkward values.
fn awkward_rows(schema: &Schema, entropy: &[u64], strs: &[String]) -> Vec<Tuple> {
    let arity = schema.arity();
    (0..entropy.len())
        .map(|i| {
            let all_null = entropy[i].is_multiple_of(4);
            Tuple::new(
                schema
                    .fields()
                    .iter()
                    .enumerate()
                    .map(|(j, f)| {
                        let e = entropy[(i * arity + j + 1) % entropy.len()].rotate_left(j as u32);
                        if all_null || e.is_multiple_of(5) {
                            return Value::Null;
                        }
                        match f.data_type {
                            DataType::Int => Value::Int(match e % 7 {
                                0 => i64::MIN,
                                1 => i64::MAX,
                                2 => 0,
                                3 => -1,
                                _ => e as i64,
                            }),
                            DataType::Double => Value::Double(match e % 7 {
                                0 => f64::NAN,
                                1 => -0.0,
                                2 => f64::NEG_INFINITY,
                                3 => (e % 10_000) as f64 / 8.0,
                                _ => f64::from_bits(e),
                            }),
                            DataType::Str if strs.is_empty() => Value::from(""),
                            DataType::Str => Value::from(strs[e as usize % strs.len()].as_str()),
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

/// The CSV renderer as it was before the in-place encoder — `fmt` for
/// every number, `String` pushes for every field — kept as the
/// reference the new frames must equal byte for byte.
fn reference_to_csv(rel: &Relation) -> String {
    fn write_field(out: &mut String, s: &str) {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            out.push('"');
            for c in s.chars() {
                if c == '"' {
                    out.push('"');
                }
                out.push(c);
            }
            out.push('"');
        } else {
            out.push_str(s);
        }
    }
    let mut out = String::new();
    for (i, f) in rel.schema().fields().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_field(&mut out, &f.name);
    }
    out.push('\n');
    for row in rel.rows() {
        for (i, v) in row.values().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match v {
                Value::Null => {}
                Value::Int(x) => write!(out, "{x}").unwrap(),
                Value::Double(x) => write!(out, "{x}").unwrap(),
                Value::Str(s) => write_field(&mut out, s),
            }
        }
        out.push('\n');
    }
    out
}

/// `ok_response` as it was: the body copied behind a `String` head.
fn reference_ok_response(fields: &[(&str, String)], body: Option<&str>) -> String {
    let mut out = String::from("ok");
    for (k, v) in fields {
        out.push(' ');
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    if let Some(b) = body {
        out.push('\n');
        out.push_str(b);
    }
    out
}

/// `batch_frame` as it was: render with a header line, throw it away.
fn reference_batch_frame(schema: &Schema, rows: Vec<Tuple>) -> String {
    let n = rows.len();
    let csv = reference_to_csv(&Relation::from_rows_unchecked(schema.clone(), rows));
    let body = csv.split_once('\n').map(|(_, rest)| rest).unwrap_or("");
    format!("ok stream=batch rows={n}\n{body}")
}

fn payload_of(frame: &FrameBuf) -> &str {
    std::str::from_utf8(frame.payload()).expect("frames are UTF-8")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The in-place unary and batch encoders — and the `String`
    /// builders over them — emit exactly the bytes the old
    /// render-copy-copy composition did.
    #[test]
    fn in_place_frames_equal_the_old_composition(
        schema in arb_schema(),
        entropy in prop::collection::vec(any::<u64>(), 0..40),
        strs in prop::collection::vec("[ab,\" \n\u{a0}é]{0,6}", 0..8),
        ticket in any::<u64>(),
    ) {
        let rows = awkward_rows(&schema, &entropy, &strs);
        let rel = Relation::from_rows_unchecked(schema.clone(), rows.clone());
        let want_csv = reference_to_csv(&rel);
        prop_assert_eq!(&csv::to_csv(&rel), &want_csv);

        let fields = [("rows", rows.len().to_string()), ("ticket", ticket.to_string())];
        let want = reference_ok_response(&fields, Some(want_csv.trim_end()));
        // One buffer, reused across both kinds of frame.
        let mut frame = FrameBuf::new();
        frame.ok_rows(&fields, &rel);
        prop_assert_eq!(payload_of(&frame), &want);
        prop_assert_eq!(&ok_response(&fields, Some(want_csv.trim_end())), &want);

        let want = reference_batch_frame(&schema, rows.clone());
        frame.batch(&rows);
        prop_assert_eq!(payload_of(&frame), &want);
        prop_assert_eq!(&batch_frame(&schema, rows), &want);
        // …and what goes on the wire is that payload behind its length.
        let mut wire = Vec::new();
        frame.write_to(&mut wire).unwrap();
        prop_assert_eq!(&wire[..4], &(want.len() as u32).to_be_bytes()[..]);
        prop_assert_eq!(&wire[4..], want.as_bytes());
    }

    #[test]
    fn schema_frames_roundtrip(schema in arb_schema()) {
        let frame = schema_frame(&schema);
        // Through the length-prefixed framing…
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let wire = read_frame(&mut std::io::Cursor::new(buf)).unwrap().unwrap();
        prop_assert_eq!(&wire, &frame);
        // …and through the typed codec.
        match parse_stream_frame(&wire) {
            Ok(StreamFrame::Schema { schema: got }) => prop_assert_eq!(got, schema),
            other => prop_assert!(false, "expected schema frame, got {:?}", other),
        }
    }

    #[test]
    fn batch_frames_roundtrip(
        schema in arb_schema(),
        ints in prop::collection::vec(any::<i64>(), 0..40),
        strs in prop::collection::vec("[a-z, ]{1,8}", 0..40),
    ) {
        let n = ints.len().min(strs.len());
        let rows: Vec<Tuple> = (0..n)
            .map(|i| {
                Tuple::new(
                    schema
                        .fields()
                        .iter()
                        .map(|f| cell(f.data_type, ints[i].wrapping_add(i as i64), &strs[i]))
                        .collect(),
                )
            })
            .collect();
        let frame = batch_frame(&schema, rows.clone());
        match parse_stream_frame(&frame) {
            Ok(StreamFrame::Batch { rows: got_n, csv: body }) => {
                prop_assert_eq!(got_n, n);
                let rel = csv::parse_csv(&schema, &body).unwrap();
                prop_assert_eq!(rel.rows(), &rows[..]);
            }
            other => prop_assert!(false, "expected batch frame, got {:?}", other),
        }
    }

    #[test]
    fn end_frames_roundtrip(
        rows in any::<u64>(),
        batches in any::<u64>(),
        units in 1u32..1024,
        ticket in any::<u64>(),
        sim_n in 0i64..1_000_000,
        pred_n in 0i64..1_000_000,
    ) {
        let end = StreamEnd {
            rows,
            batches,
            plan: String::new(),
            predicted_secs: pred_n as f64 / 64.0,
            sim_secs: sim_n as f64 / 64.0,
            real_secs: 0.0,
            jobs: Vec::new(),
            ticket,
            granted_units: units,
            trace_id: 0,
        };
        let frame = end_frame(&end);
        match parse_stream_frame(&frame) {
            Ok(StreamFrame::End {
                rows: r,
                batches: b,
                units: u,
                ticket: t,
                sim_secs,
                predicted_secs,
            }) => {
                prop_assert_eq!(r, rows);
                prop_assert_eq!(b, batches);
                prop_assert_eq!(u, units);
                prop_assert_eq!(t, ticket);
                prop_assert_eq!(sim_secs, end.sim_secs);
                prop_assert_eq!(predicted_secs, end.predicted_secs);
            }
            other => prop_assert!(false, "expected end frame, got {:?}", other),
        }
    }

    /// Corrupting any single header token of a valid frame makes the
    /// parser reject it (or, for the `ok` marker itself, classify it
    /// as a non-frame).
    #[test]
    fn mangled_frames_are_rejected(schema in arb_schema(), which in 0u32..6) {
        let frame = match which {
            0 => "err boom".to_string(),
            1 => "ok".to_string(),
            2 => "ok stream=warp".to_string(),
            3 => format!(
                "ok stream=schema cols={} name=x\n{}",
                schema.arity() + 1,
                schema_frame(&schema).split_once('\n').unwrap().1
            ),
            4 => "ok stream=batch rows=3\na,b".to_string(),
            5 => "ok stream=end rows=1 batches=1 units=1 ticket=1 sim_secs=0".to_string(),
            _ => unreachable!(),
        };
        prop_assert!(parse_stream_frame(&frame).is_err(), "accepted `{}`", frame);
    }
}

#[test]
fn batch_frames_with_trailing_all_null_rows_stay_self_consistent() {
    // An all-NULL row renders as an empty CSV line; as the *last*
    // record of a batch it must still be counted (the body keeps every
    // record newline-terminated), or the server would emit frames its
    // own parser rejects.
    let schema = Schema::from_pairs("t", &[("c0", DataType::Str)]);
    let rows = vec![
        Tuple::new(vec![Value::from("x")]),
        Tuple::new(vec![Value::Null]),
    ];
    let frame = batch_frame(&schema, rows);
    match parse_stream_frame(&frame).expect("self-emitted frame must parse") {
        StreamFrame::Batch { rows: n, .. } => assert_eq!(n, 2),
        other => panic!("{other:?}"),
    }
    // Degenerate single all-NULL row.
    let frame = batch_frame(&schema, vec![Tuple::new(vec![Value::Null])]);
    match parse_stream_frame(&frame).expect("all-NULL batch must parse") {
        StreamFrame::Batch { rows: n, .. } => assert_eq!(n, 1),
        other => panic!("{other:?}"),
    }
}

#[test]
fn batch_record_count_respects_quoted_newlines() {
    let schema = Schema::from_pairs("t", &[("c0", DataType::Str)]);
    let rows = vec![
        Tuple::new(vec![Value::from("two\nlines")]),
        Tuple::new(vec![Value::from("plain")]),
    ];
    let frame = batch_frame(&schema, rows.clone());
    match parse_stream_frame(&frame).unwrap() {
        StreamFrame::Batch { rows: n, csv: body } => {
            assert_eq!(n, 2, "quoted newline must not count as a record break");
            let rel = csv::parse_csv(&schema, &body).unwrap();
            assert_eq!(rel.rows(), &rows[..]);
        }
        other => panic!("{other:?}"),
    }
}
