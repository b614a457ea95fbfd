//! CSV import/export for relations.
//!
//! The practical on-ramp for a release: the paper's mobile data set
//! arrives as "61 daily data files" of delimited records; this module
//! reads such files into [`Relation`]s (schema-directed parsing, with
//! NULLs as empty fields) and writes results back out. RFC-4180-style
//! quoting is supported on both paths.

use crate::columns::Columns;
use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::schema::{DataType, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use std::io::Write as _;

/// Parse CSV `text` into a relation under `schema`. The first record
/// may be a header (matched case-insensitively against the schema's
/// column names and skipped); empty fields become NULL. Records are
/// split on newlines *outside* RFC-4180 quotes, so quoted string
/// values spanning lines (which [`to_csv`] emits) round-trip.
///
/// Ingest streams straight into columnar builders: each parsed record
/// is appended to typed column vectors (strings dictionary-interned on
/// the way in, so repeated values share one allocation), and the
/// returned relation carries the columnar backing with the row-major
/// tuples gathered from it — bit-identical to what per-row parsing
/// produced before.
pub fn parse_csv(schema: &Schema, text: &str) -> Result<Relation> {
    let types: Vec<DataType> = schema.fields().iter().map(|f| f.data_type).collect();
    let mut builder = Columns::builder(types);
    let mut lines = split_records(text).into_iter().enumerate().peekable();
    // Header detection: every field equals a column name.
    if let Some(&(_, first)) = lines.peek() {
        let fields = split_line(first, 0)?;
        let is_header = fields.len() == schema.arity()
            && fields
                .iter()
                .zip(schema.fields())
                .all(|(f, c)| f.eq_ignore_ascii_case(&c.name));
        if is_header {
            lines.next();
        }
    }
    for (lineno, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let fields = split_line(line, lineno)?;
        if fields.len() != schema.arity() {
            return Err(Error::SchemaMismatch {
                detail: format!(
                    "line {}: {} fields, schema `{}` has {} columns",
                    lineno + 1,
                    fields.len(),
                    schema.name(),
                    schema.arity()
                ),
            });
        }
        let mut values = Vec::with_capacity(fields.len());
        for (field, col) in fields.iter().zip(schema.fields()) {
            values.push(parse_field(field, col.data_type, lineno)?);
        }
        builder.push_row(&values)?;
    }
    Ok(Relation::from_columns(schema.clone(), builder.finish()))
}

/// Render a relation as CSV with a header line.
pub fn to_csv(rel: &Relation) -> String {
    let mut out = Vec::new();
    encode_header(&mut out, rel.schema());
    encode_rows(&mut out, rel.rows(), usize::MAX);
    String::from_utf8(out).expect("the CSV encoder emits UTF-8")
}

/// Append the header record of `schema` (its column names) to `out`.
pub fn encode_header(out: &mut Vec<u8>, schema: &Schema) {
    for (i, f) in schema.fields().iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_field(out, &f.name);
    }
    out.push(b'\n');
}

/// Append `rows` to `out` as header-less CSV, one newline-terminated
/// record per row (NULL is an empty field, so an all-NULL row is an
/// empty record) — the one row encoder behind [`to_csv`] and the
/// server's reply frames, which encode straight into their frame
/// buffer. Encoding stops after the first row that takes `out` past
/// `limit` bytes; returns whether every row was encoded.
pub fn encode_rows(out: &mut Vec<u8>, rows: &[Tuple], limit: usize) -> bool {
    for row in rows {
        for (i, v) in row.values().iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            match v {
                Value::Null => {}
                Value::Int(x) => push_int(out, *x),
                Value::Double(x) => {
                    let _ = write!(out, "{x}");
                }
                Value::Str(s) => push_field(out, s),
            }
        }
        out.push(b'\n');
        if out.len() > limit {
            return false;
        }
    }
    true
}

/// Decimal text of `x`, without the `fmt` machinery: `i64::MIN` is a
/// sign and 19 digits.
fn push_int(out: &mut Vec<u8>, x: i64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut n = x.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if x < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.extend_from_slice(&buf[at..]);
}

/// One string field, RFC-4180-quoted when it holds a delimiter. The
/// three delimiters are ASCII, so scanning bytes never splits a UTF-8
/// sequence.
fn push_field(out: &mut Vec<u8>, s: &str) {
    if s.bytes().any(|b| matches!(b, b',' | b'"' | b'\n')) {
        out.push(b'"');
        for b in s.bytes() {
            if b == b'"' {
                out.push(b'"');
            }
            out.push(b);
        }
        out.push(b'"');
    } else {
        out.extend_from_slice(s.as_bytes());
    }
}

fn parse_field(field: &str, ty: DataType, lineno: usize) -> Result<Value> {
    if field.is_empty() {
        return Ok(Value::Null);
    }
    match ty {
        DataType::Int => field
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|e| Error::TypeError {
                detail: format!("line {}: `{field}` is not an INT: {e}", lineno + 1),
            }),
        DataType::Double => field
            .parse::<f64>()
            .map(Value::Double)
            .map_err(|e| Error::TypeError {
                detail: format!("line {}: `{field}` is not a DOUBLE: {e}", lineno + 1),
            }),
        DataType::Str => Ok(Value::from(field)),
    }
}

/// Split `text` into records on newlines outside RFC-4180 quotes
/// (escaped quotes `""` toggle twice, netting out). A trailing newline
/// closes the last record instead of opening an empty one.
///
/// Public so wire formats carrying header-less CSV bodies (the
/// server's batch frames) can count records with exactly the rules
/// [`parse_csv`] splits by, instead of re-implementing the quoting
/// logic.
pub fn split_records(text: &str) -> Vec<&str> {
    let mut records = Vec::new();
    let mut in_quotes = false;
    let mut start = 0usize;
    for (i, c) in text.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '\n' if !in_quotes => {
                records.push(text[start..i].trim_end_matches('\r'));
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < text.len() {
        records.push(&text[start..]);
    }
    records
}

/// Split one CSV line with RFC-4180 quoting.
fn split_line(line: &str, lineno: usize) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match (c, in_quotes) {
            ('"', false) => {
                if cur.is_empty() {
                    in_quotes = true;
                } else {
                    return Err(Error::Corrupt {
                        offset: lineno,
                        detail: format!("line {}: quote inside unquoted field", lineno + 1),
                    });
                }
            }
            ('"', true) => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            (',', false) => {
                fields.push(std::mem::take(&mut cur));
            }
            (c, _) => cur.push(c),
        }
    }
    if in_quotes {
        return Err(Error::Corrupt {
            offset: lineno,
            detail: format!("line {}: unterminated quote", lineno + 1),
        });
    }
    fields.push(cur);
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn schema() -> Schema {
        Schema::from_pairs(
            "calls",
            &[
                ("id", DataType::Int),
                ("who", DataType::Str),
                ("len", DataType::Double),
            ],
        )
    }

    #[test]
    fn roundtrip_with_header() {
        let rel = Relation::from_rows(
            schema(),
            vec![tuple![1, "alice", 2.5], tuple![2, "bob,jr", 0.125]],
        )
        .unwrap();
        let csv = to_csv(&rel);
        assert!(csv.starts_with("id,who,len\n"));
        let back = parse_csv(&schema(), &csv).unwrap();
        assert_eq!(back.sorted_rows(), rel.sorted_rows());
    }

    #[test]
    fn parses_without_header() {
        let rel = parse_csv(&schema(), "1,x,2.0\n2,y,3.0\n").unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.rows()[0], tuple![1, "x", 2.0]);
    }

    #[test]
    fn empty_fields_are_null() {
        let rel = parse_csv(&schema(), "1,,\n").unwrap();
        assert!(rel.rows()[0].get(1).is_null());
        assert!(rel.rows()[0].get(2).is_null());
    }

    #[test]
    fn quoting_handles_commas_and_quotes() {
        let rel = Relation::from_rows(schema(), vec![tuple![1, "say \"hi\", ok", 1.0]]).unwrap();
        let csv = to_csv(&rel);
        let back = parse_csv(&schema(), &csv).unwrap();
        assert_eq!(back.rows()[0].get(1).as_str().unwrap(), "say \"hi\", ok");
    }

    #[test]
    fn quoted_newlines_roundtrip() {
        let rel =
            Relation::from_rows(schema(), vec![tuple![1, "two\nline \"value\"", 0.5]]).unwrap();
        let csv = to_csv(&rel);
        let back = parse_csv(&schema(), &csv).unwrap();
        assert_eq!(back.rows(), rel.rows());
        assert_eq!(
            back.rows()[0].get(1).as_str().unwrap(),
            "two\nline \"value\""
        );
    }

    #[test]
    fn ints_render_as_display_does() {
        for x in [0, 7, -7, 10, -10, 99, 100, i64::MAX, i64::MIN, i64::MIN + 1] {
            let mut out = Vec::new();
            push_int(&mut out, x);
            assert_eq!(String::from_utf8(out).unwrap(), x.to_string());
        }
    }

    #[test]
    fn row_encoding_stops_once_past_the_limit() {
        let rows = vec![tuple![1, "ab", 0.5]; 10]; // 9 bytes a record
        let mut out = Vec::new();
        assert!(encode_rows(&mut out, &rows, 90));
        assert_eq!(out.len(), 90);
        out.clear();
        assert!(!encode_rows(&mut out, &rows, 20));
        assert_eq!(out.len(), 27, "stops after the row that crosses");
        // Appends: what the caller already put in `out` counts.
        assert!(!encode_rows(&mut out, &rows, 20));
        assert_eq!(out.len(), 36);
    }

    #[test]
    fn blank_lines_skipped() {
        let rel = parse_csv(&schema(), "1,a,1.0\n\n2,b,2.0\n\n").unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn errors_are_informative() {
        // Wrong arity.
        let e = parse_csv(&schema(), "1,a\n").unwrap_err();
        assert!(e.to_string().contains("2 fields"), "{e}");
        // Bad int.
        let e = parse_csv(&schema(), "xx,a,1.0\n").unwrap_err();
        assert!(e.to_string().contains("not an INT"), "{e}");
        // Unterminated quote.
        assert!(parse_csv(&schema(), "1,\"oops,1.0\n").is_err());
        // Stray quote.
        assert!(parse_csv(&schema(), "1,a\"b,1.0\n").is_err());
    }

    #[test]
    fn ingest_builds_columnar_backing() {
        let rel = parse_csv(&schema(), "1,x,2.0\n2,x,3.0\n3,,\n").unwrap();
        let cols = rel.columns().expect("csv ingest is columnar");
        assert_eq!(cols.len(), 3);
        assert_eq!(cols.gather_rows(), rel.rows());
        let l = rel.layout().unwrap();
        assert_eq!(l.dict_entries, 1); // "x" interned once
        assert_eq!(l.null_count, 2);
    }

    #[test]
    fn header_detection_is_exact_arity_match() {
        // A data line that happens to have string fields is not a
        // header unless every field equals a column name.
        let s = Schema::from_pairs("t", &[("a", DataType::Str), ("b", DataType::Str)]);
        let rel = parse_csv(&s, "a,b\nx,y\n").unwrap(); // header + 1 row
        assert_eq!(rel.len(), 1);
        let rel2 = parse_csv(&s, "x,y\na,b\n").unwrap(); // no header
        assert_eq!(rel2.len(), 2);
    }
}
