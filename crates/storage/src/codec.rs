//! Compact binary tuple codec.
//!
//! Every byte that the simulated DFS writes, the shuffle copies, or a
//! reducer spills is measured through this codec, so the cost model prices
//! I/O on realistic record sizes rather than `size_of` guesses. Layout per
//! tuple:
//!
//! ```text
//! varint(arity) , then per value: tag u8 + payload
//!   tag 0 = Null
//!   tag 1 = Int     -> zigzag varint
//!   tag 2 = Double  -> 8 bytes LE
//!   tag 3 = Str     -> varint(len) + bytes
//! ```

use crate::error::{Error, Result};
use crate::value::Value;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::sync::Arc;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_STR: u8 = 3;

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

fn get_varint(buf: &mut &[u8], offset: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if buf.is_empty() {
            return Err(Error::Corrupt {
                offset: *offset,
                detail: "truncated varint".into(),
            });
        }
        let b = buf.get_u8();
        *offset += 1;
        if shift >= 64 {
            return Err(Error::Corrupt {
                offset: *offset,
                detail: "varint overflow".into(),
            });
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Number of bytes [`encode_tuple`] would produce for `values`, without
/// allocating. This is the hot path for cost accounting.
pub fn encoded_len(values: &[Value]) -> usize {
    arity_len(values.len()) + values_len(values)
}

/// Bytes of the arity header an encoded tuple of `arity` values starts
/// with: `encoded_len(v) == arity_len(v.len()) + values_len(v)`.
pub fn arity_len(arity: usize) -> usize {
    varint_len(arity as u64)
}

/// Bytes the encoded `values` take after the arity header — additive
/// over any split of a row into column slices.
pub fn values_len(values: &[Value]) -> usize {
    values
        .iter()
        .map(|v| {
            1 + match v {
                Value::Null => 0,
                Value::Int(i) => varint_len(zigzag(*i)),
                Value::Double(_) => 8,
                Value::Str(s) => varint_len(s.len() as u64) + s.len(),
            }
        })
        .sum()
}

/// Encode one tuple's values into a fresh buffer.
pub fn encode_tuple(values: &[Value]) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(values));
    put_varint(&mut buf, values.len() as u64);
    for v in values {
        match v {
            Value::Null => buf.put_u8(TAG_NULL),
            Value::Int(i) => {
                buf.put_u8(TAG_INT);
                put_varint(&mut buf, zigzag(*i));
            }
            Value::Double(d) => {
                buf.put_u8(TAG_DOUBLE);
                buf.put_f64_le(*d);
            }
            Value::Str(s) => {
                buf.put_u8(TAG_STR);
                put_varint(&mut buf, s.len() as u64);
                buf.put_slice(s.as_bytes());
            }
        }
    }
    buf.freeze()
}

/// Decode one tuple's values from `bytes`.
pub fn decode_tuple(mut bytes: &[u8]) -> Result<Vec<Value>> {
    let mut offset = 0usize;
    let arity = get_varint(&mut bytes, &mut offset)? as usize;
    // Arity guard: refuse absurd arities rather than OOM on corrupt input.
    if arity > 1 << 20 {
        return Err(Error::Corrupt {
            offset,
            detail: format!("implausible arity {arity}"),
        });
    }
    let mut out = Vec::with_capacity(arity);
    for _ in 0..arity {
        if bytes.is_empty() {
            return Err(Error::Corrupt {
                offset,
                detail: "truncated tuple".into(),
            });
        }
        let tag = bytes.get_u8();
        offset += 1;
        let v = match tag {
            TAG_NULL => Value::Null,
            TAG_INT => Value::Int(unzigzag(get_varint(&mut bytes, &mut offset)?)),
            TAG_DOUBLE => {
                if bytes.len() < 8 {
                    return Err(Error::Corrupt {
                        offset,
                        detail: "truncated double".into(),
                    });
                }
                let d = bytes.get_f64_le();
                offset += 8;
                Value::Double(d)
            }
            TAG_STR => {
                let len = get_varint(&mut bytes, &mut offset)? as usize;
                if bytes.len() < len {
                    return Err(Error::Corrupt {
                        offset,
                        detail: "truncated string".into(),
                    });
                }
                let s = std::str::from_utf8(&bytes[..len]).map_err(|e| Error::Corrupt {
                    offset,
                    detail: format!("invalid utf8: {e}"),
                })?;
                let v = Value::Str(Arc::from(s));
                bytes.advance(len);
                offset += len;
                v
            }
            other => {
                return Err(Error::Corrupt {
                    offset,
                    detail: format!("unknown tag {other}"),
                })
            }
        };
        out.push(v);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(vals: Vec<Value>) {
        let enc = encode_tuple(&vals);
        assert_eq!(enc.len(), encoded_len(&vals), "encoded_len must be exact");
        let dec = decode_tuple(&enc).unwrap();
        // Compare by total order (Int/Double equality is numeric but tags
        // roundtrip exactly, so plain structural compare works too).
        assert_eq!(vals.len(), dec.len());
        for (a, b) in vals.iter().zip(&dec) {
            match (a, b) {
                (Value::Double(x), Value::Double(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                _ => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn roundtrip_basics() {
        roundtrip(vec![]);
        roundtrip(vec![Value::Null]);
        roundtrip(vec![Value::Int(0), Value::Int(-1), Value::Int(i64::MAX)]);
        roundtrip(vec![Value::Int(i64::MIN)]);
        roundtrip(vec![Value::Double(0.0), Value::Double(-0.0)]);
        roundtrip(vec![Value::Double(f64::NAN)]);
        roundtrip(vec![Value::from(""), Value::from("héllo wörld")]);
    }

    #[test]
    fn zigzag_roundtrip_extremes() {
        for v in [0, 1, -1, i64::MAX, i64::MIN, 123456789, -987654321] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn small_ints_are_small() {
        // A five-int-column mobile-calls row should be compact.
        let row: Vec<Value> = (0..5).map(|i| Value::Int(i * 100)).collect();
        assert!(encoded_len(&row) <= 5 * 3 + 1);
    }

    #[test]
    fn corrupt_inputs_error_not_panic() {
        assert!(decode_tuple(&[]).is_err());
        assert!(decode_tuple(&[0x80]).is_err()); // truncated varint
        assert!(decode_tuple(&[1, 9]).is_err()); // unknown tag
        assert!(decode_tuple(&[1, TAG_DOUBLE, 1, 2]).is_err()); // short double
        assert!(decode_tuple(&[1, TAG_STR, 5, b'a']).is_err()); // short string
                                                                // invalid utf8
        assert!(decode_tuple(&[1, TAG_STR, 2, 0xff, 0xfe]).is_err());
        // implausible arity
        let mut big = BytesMut::new();
        put_varint(&mut big, 1 << 30);
        assert!(decode_tuple(&big).is_err());
    }

    #[test]
    fn varint_len_matches_encoding() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut b = BytesMut::new();
            put_varint(&mut b, v);
            assert_eq!(b.len(), varint_len(v));
        }
    }
}
