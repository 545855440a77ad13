//! Number access on the vendored serde `Content` tree, which tells
//! integers from floats by how the text was written.

use serde::Content;

pub fn as_f64(c: &Content) -> Option<f64> {
    match *c {
        Content::F64(v) => Some(v),
        Content::U64(v) => Some(v as f64),
        Content::I64(v) => Some(v as f64),
        _ => None,
    }
}

pub fn as_u64(c: &Content) -> Option<u64> {
    match *c {
        Content::U64(v) => Some(v),
        Content::I64(v) => u64::try_from(v).ok(),
        _ => None,
    }
}

/// The non-negative integers of a JSON array; empty for anything else.
pub fn u64s(c: Option<&Content>) -> Vec<u64> {
    c.and_then(Content::as_seq)
        .map(|items| items.iter().filter_map(as_u64).collect())
        .unwrap_or_default()
}
