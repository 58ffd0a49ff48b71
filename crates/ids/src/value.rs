//! The engine's value and type system, including opaque values.

use crate::{IdsError, Result};
use grt_temporal::Day;

/// Column data types. `Opaque` types are declared by DataBlades
/// (Section 4, step 1) and interpreted only through their registered
/// support functions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit integer (`mi_integer`-ish).
    Integer,
    /// Variable-length text.
    Text,
    /// Day-granularity date (the built-in `DATE`).
    Date,
    /// Boolean (`mi_boolean`).
    Boolean,
    /// A DataBlade-defined opaque type, by name.
    Opaque(String),
}

impl DataType {
    /// Parses a type name as written in SQL.
    pub fn parse(name: &str) -> DataType {
        match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" => DataType::Integer,
            "TEXT" | "VARCHAR" | "CHAR" | "LVARCHAR" => DataType::Text,
            "DATE" => DataType::Date,
            "BOOLEAN" | "BOOL" => DataType::Boolean,
            _ => DataType::Opaque(name.to_string()),
        }
    }
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataType::Integer => write!(f, "INTEGER"),
            DataType::Text => write!(f, "TEXT"),
            DataType::Date => write!(f, "DATE"),
            DataType::Boolean => write!(f, "BOOLEAN"),
            DataType::Opaque(n) => write!(f, "{n}"),
        }
    }
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer value.
    Int(i64),
    /// Text value.
    Text(String),
    /// Date value.
    Date(Day),
    /// Boolean value.
    Bool(bool),
    /// An opaque value: the type name plus its internal representation
    /// (the bytes only the DataBlade's support functions understand).
    Opaque {
        /// The opaque type's name.
        type_name: String,
        /// The internal binary representation.
        bytes: Vec<u8>,
    },
}

impl Value {
    /// The value's type, when determinable (`Null` has none).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Integer),
            Value::Text(_) => Some(DataType::Text),
            Value::Date(_) => Some(DataType::Date),
            Value::Bool(_) => Some(DataType::Boolean),
            Value::Opaque { type_name, .. } => Some(DataType::Opaque(type_name.clone())),
        }
    }

    /// True for SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extracts a boolean (for WHERE evaluation).
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Null => Ok(false),
            other => Err(IdsError::Type(format!("expected boolean, got {other}"))),
        }
    }

    /// The same value, borrowed.
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Int(v) => ValueRef::Int(*v),
            Value::Text(s) => ValueRef::Text(s),
            Value::Date(d) => ValueRef::Date(*d),
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Opaque { type_name, bytes } => ValueRef::Opaque { type_name, bytes },
        }
    }

    /// Serialises into `out` (the heap row codec).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Int(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::Text(s) => {
                out.push(2);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Date(d) => {
                out.push(3);
                out.extend_from_slice(&d.0.to_le_bytes());
            }
            Value::Bool(b) => {
                out.push(4);
                out.push(*b as u8);
            }
            Value::Opaque { type_name, bytes } => {
                out.push(5);
                out.push(type_name.len() as u8);
                out.extend_from_slice(type_name.as_bytes());
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
        }
    }

    /// Deserialises one value, advancing `pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Value> {
        ValueRef::decode(buf, pos).map(ValueRef::to_value)
    }

    /// Serialises a whole row.
    pub fn encode_row(row: &[Value]) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 * row.len() + 2);
        out.extend_from_slice(&(row.len() as u16).to_le_bytes());
        for v in row {
            v.encode(&mut out);
        }
        out
    }

    /// Deserialises a whole row.
    pub fn decode_row(buf: &[u8]) -> Result<Vec<Value>> {
        let n = row_len(buf)?;
        let mut pos = 2;
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(Value::decode(buf, &mut pos)?);
        }
        Ok(row)
    }

    /// Deserialises the columns at `positions` of an encoded row, in
    /// that order — what [`Value::decode_row`] followed by picking
    /// `positions` gives, without building the values in between: a
    /// column nobody asked for is stepped over in the buffer. Ascending
    /// positions cost one pass; a position at or before the previous one
    /// (`SELECT id, id`, `SELECT Time_Extent, id`) starts over from the
    /// row's first column. A position past the stored row is an error.
    pub fn decode_columns(buf: &[u8], positions: &[usize]) -> Result<Vec<Value>> {
        let mut out = Vec::with_capacity(positions.len());
        walk_columns(buf, positions, |_, v| out.push(v.to_value()))?;
        Ok(out)
    }

    /// Appends the image of one result row to `out`: a `u32` column
    /// count, then each value in the codec above. This is a row as a
    /// result carries it — in the server's parked result and in every
    /// batch on the wire (DESIGN.md §11) — and this function and
    /// [`Value::copy_row_image`] are the only writers of it.
    pub fn encode_row_image(row: &[Value], out: &mut Vec<u8>) {
        out.extend_from_slice(&(row.len() as u32).to_le_bytes());
        for v in row {
            v.encode(out);
        }
    }

    /// Appends the image [`Value::encode_row_image`] makes of the
    /// columns at `positions` of an encoded row (what
    /// [`Value::decode_columns`] decodes), copied off `buf` without
    /// building a value: each column is read with [`ValueRef::decode`],
    /// so a row `decode_columns` refuses is refused here too, and `out`
    /// is left as it was.
    pub fn copy_row_image(buf: &[u8], positions: &[usize], out: &mut Vec<u8>) -> Result<()> {
        let start = out.len();
        out.extend_from_slice(&(positions.len() as u32).to_le_bytes());
        let copied = walk_columns(buf, positions, |bytes, _| out.extend_from_slice(bytes));
        if copied.is_err() {
            out.truncate(start);
        }
        copied
    }
}

/// Reads the columns at `positions` of an encoded row, in that order,
/// handing each to `each` with the bytes it occupies — the walk
/// [`Value::decode_columns`] describes.
fn walk_columns<'a>(
    buf: &'a [u8],
    positions: &[usize],
    mut each: impl FnMut(&'a [u8], ValueRef<'a>),
) -> Result<()> {
    let n = row_len(buf)?;
    // The walk stands before column `col`, at byte `pos`.
    let (mut col, mut pos) = (0, 2);
    for &want in positions {
        if want >= n {
            return Err(IdsError::Type(format!("column {want} of a {n}-column row")));
        }
        if want < col {
            (col, pos) = (0, 2);
        }
        while col < want {
            ValueRef::decode(buf, &mut pos)?;
            col += 1;
        }
        let start = pos;
        let v = ValueRef::decode(buf, &mut pos)?;
        each(&buf[start..pos], v);
        col += 1;
    }
    Ok(())
}

/// The column count an encoded row leads with.
fn row_len(buf: &[u8]) -> Result<usize> {
    match buf.get(0..2) {
        Some(n) => Ok(u16::from_le_bytes(n.try_into().unwrap()) as usize),
        None => Err(IdsError::Type("truncated row header".into())),
    }
}

/// A value read in place: what [`Value`] owns, this borrows from the
/// encoded row — a pinned heap page, say. Decoding one allocates
/// nothing, which is also how a reader steps over a column it does not
/// want.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// Integer value.
    Int(i64),
    /// Text value.
    Text(&'a str),
    /// Date value.
    Date(Day),
    /// Boolean value.
    Bool(bool),
    /// An opaque value.
    Opaque {
        /// The opaque type's name.
        type_name: &'a str,
        /// The internal binary representation.
        bytes: &'a [u8],
    },
}

impl<'a> ValueRef<'a> {
    /// Reads one value of the heap row codec, advancing `pos` — the
    /// codec's one decoder; [`Value::decode`] is this plus a copy.
    pub fn decode(buf: &'a [u8], pos: &mut usize) -> Result<ValueRef<'a>> {
        let bad = || IdsError::Type("truncated row".into());
        let tag = *buf.get(*pos).ok_or_else(bad)?;
        *pos += 1;
        let take = |pos: &mut usize, n: usize| -> Result<&'a [u8]> {
            let end = pos.checked_add(n).ok_or_else(bad)?;
            let s = buf.get(*pos..end).ok_or_else(bad)?;
            *pos = end;
            Ok(s)
        };
        let len = |pos: &mut usize| -> Result<usize> {
            Ok(u32::from_le_bytes(take(pos, 4)?.try_into().unwrap()) as usize)
        };
        let text = |bytes: &'a [u8], what: &str| {
            std::str::from_utf8(bytes).map_err(|_| IdsError::Type(format!("bad utf8 in {what}")))
        };
        match tag {
            0 => Ok(ValueRef::Null),
            1 => Ok(ValueRef::Int(i64::from_le_bytes(
                take(pos, 8)?.try_into().unwrap(),
            ))),
            2 => {
                let n = len(pos)?;
                Ok(ValueRef::Text(text(take(pos, n)?, "row")?))
            }
            3 => Ok(ValueRef::Date(Day(i32::from_le_bytes(
                take(pos, 4)?.try_into().unwrap(),
            )))),
            4 => Ok(ValueRef::Bool(take(pos, 1)?[0] != 0)),
            5 => {
                let nlen = take(pos, 1)?[0] as usize;
                let type_name = text(take(pos, nlen)?, "type name")?;
                let n = len(pos)?;
                let bytes = take(pos, n)?;
                Ok(ValueRef::Opaque { type_name, bytes })
            }
            other => Err(IdsError::Type(format!("unknown value tag {other}"))),
        }
    }

    /// Column `col` of an encoded row, read in place.
    pub fn column(buf: &'a [u8], col: usize) -> Result<ValueRef<'a>> {
        let n = row_len(buf)?;
        if col >= n {
            return Err(IdsError::Type(format!("column {col} of a {n}-column row")));
        }
        let mut pos = 2;
        for _ in 0..col {
            ValueRef::decode(buf, &mut pos)?;
        }
        ValueRef::decode(buf, &mut pos)
    }

    /// The owned value.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(v) => Value::Int(v),
            ValueRef::Text(s) => Value::Text(s.to_string()),
            ValueRef::Date(d) => Value::Date(d),
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Opaque { type_name, bytes } => Value::Opaque {
                type_name: type_name.to_string(),
                bytes: bytes.to_vec(),
            },
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_ref().fmt(f)
    }
}

impl std::fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValueRef::Null => write!(f, "NULL"),
            ValueRef::Int(v) => write!(f, "{v}"),
            ValueRef::Text(s) => write!(f, "{s}"),
            ValueRef::Date(d) => write!(f, "{d}"),
            ValueRef::Bool(b) => write!(f, "{}", if *b { "t" } else { "f" }),
            ValueRef::Opaque { type_name, bytes } => {
                write!(f, "<{type_name}:{} bytes>", bytes.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_codec_roundtrip() {
        let row = vec![
            Value::Null,
            Value::Int(-42),
            Value::Text("Bliujūtė".into()),
            Value::Date(Day(9999)),
            Value::Bool(true),
            Value::Opaque {
                type_name: "GRT_TimeExtent_t".into(),
                bytes: vec![1, 2, 3, 4],
            },
        ];
        let bytes = Value::encode_row(&row);
        assert_eq!(Value::decode_row(&bytes).unwrap(), row);
    }

    #[test]
    fn truncated_rows_error() {
        let row = vec![Value::Text("hello".into())];
        let bytes = Value::encode_row(&row);
        for cut in 0..bytes.len() {
            assert!(Value::decode_row(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn type_parse() {
        assert_eq!(DataType::parse("integer"), DataType::Integer);
        assert_eq!(DataType::parse("LVARCHAR"), DataType::Text);
        assert_eq!(DataType::parse("date"), DataType::Date);
        assert_eq!(
            DataType::parse("GRT_TimeExtent_t"),
            DataType::Opaque("GRT_TimeExtent_t".into())
        );
    }

    #[test]
    fn as_bool_semantics() {
        assert!(Value::Bool(true).as_bool().unwrap());
        assert!(!Value::Null.as_bool().unwrap());
        assert!(Value::Int(1).as_bool().is_err());
    }
}
