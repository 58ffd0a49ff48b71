//! Where a `SELECT`'s output rows go: the one seam between the
//! executor and whoever receives its result.
//!
//! The executor hands each output row to a [`RowSink`] as soon as it
//! has it. An index scan with no residual hands over the stored row and
//! the positions of the output columns — the bytes still on the pinned
//! heap page; every other plan shape hands over the values it built.
//! Two sinks ship with the engine:
//!
//! * [`QueryResult`] decodes every row into `rows`: what
//!   [`Connection::exec`](crate::Connection::exec) returns.
//! * [`EncodedRows`] keeps each row as its image
//!   ([`Value::encode_row_image`]), the bytes a result batch carries on
//!   the wire, so a served `SELECT` builds no value and no row vector:
//!   the stored row's column bytes are copied off the page.

use crate::engine::QueryResult;
use crate::value::Value;
use crate::Result;
use std::ops::Range;

/// The receiver of a statement's output rows. A statement attempt
/// starts by calling [`RowSink::clear`], so a retried attempt never
/// sees what a failed one delivered.
pub trait RowSink {
    /// Forgets every row delivered so far.
    fn clear(&mut self);

    /// One output row, built as values.
    fn values(&mut self, row: Vec<Value>) -> Result<()>;

    /// One output row that is the columns at `positions` of the encoded
    /// stored row `stored` (what [`Value::decode_columns`] decodes).
    fn stored(&mut self, stored: &[u8], positions: &[usize]) -> Result<()>;

    /// The text of the row just delivered, made by the server's type
    /// support functions: given for every row of a result with an
    /// opaque output column, and for no row of any other result (see
    /// [`QueryResult::rendered`]).
    fn text(&mut self, row: Vec<String>);
}

impl RowSink for QueryResult {
    fn clear(&mut self) {
        self.rows.clear();
        self.rendered.clear();
    }

    fn values(&mut self, row: Vec<Value>) -> Result<()> {
        self.rows.push(row);
        Ok(())
    }

    fn stored(&mut self, stored: &[u8], positions: &[usize]) -> Result<()> {
        self.rows.push(Value::decode_columns(stored, positions)?);
        Ok(())
    }

    fn text(&mut self, row: Vec<String>) {
        self.rendered.push(row);
    }
}

/// Images laid end to end, with where each one ends.
#[derive(Debug, Default)]
struct Images {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Images {
    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    /// Marks the bytes appended since the last image as one image.
    fn seal(&mut self) {
        self.ends.push(self.bytes.len());
    }

    /// The images of rows `range`, back to back.
    fn slice(&self, range: Range<usize>) -> &[u8] {
        let end_of = |i: usize| i.checked_sub(1).map_or(0, |last| self.ends[last]);
        &self.bytes[end_of(range.start)..end_of(range.end)]
    }
}

/// A result kept as the bytes that carry it: each row's image
/// ([`Value::encode_row_image`]) and, when the result has an opaque
/// output column, each row's text image ([`encode_text_image`]). A
/// server parks one of these per open cursor and cuts batches from it
/// at row boundaries; cleared and refilled, it serves statement after
/// statement without allocating again.
#[derive(Debug, Default)]
pub struct EncodedRows {
    rows: Images,
    text: Images,
}

impl EncodedRows {
    /// Rows held.
    pub fn len(&self) -> usize {
        self.rows.ends.len()
    }

    /// True when no row is held.
    pub fn is_empty(&self) -> bool {
        self.rows.ends.is_empty()
    }

    /// Bytes allocated to hold rows, used or not.
    pub fn capacity(&self) -> usize {
        [&self.rows, &self.text]
            .iter()
            .map(|i| i.bytes.capacity() + i.ends.capacity() * std::mem::size_of::<usize>())
            .sum()
    }

    /// The images of rows `range`, back to back.
    pub fn row_images(&self, range: Range<usize>) -> &[u8] {
        self.rows.slice(range)
    }

    /// The text images of rows `range`, back to back; `None` when the
    /// result carries no text.
    pub fn text_images(&self, range: Range<usize>) -> Option<&[u8]> {
        (!self.text.ends.is_empty()).then(|| self.text.slice(range))
    }
}

impl RowSink for EncodedRows {
    fn clear(&mut self) {
        self.rows.clear();
        self.text.clear();
    }

    fn values(&mut self, row: Vec<Value>) -> Result<()> {
        Value::encode_row_image(&row, &mut self.rows.bytes);
        self.rows.seal();
        Ok(())
    }

    fn stored(&mut self, stored: &[u8], positions: &[usize]) -> Result<()> {
        Value::copy_row_image(stored, positions, &mut self.rows.bytes)?;
        self.rows.seal();
        Ok(())
    }

    fn text(&mut self, row: Vec<String>) {
        encode_text_image(&row, &mut self.text.bytes);
        self.text.seal();
    }
}

/// Appends the image of one text row to `out`: a `u32` cell count, then
/// each cell as a `u32` byte length and its UTF-8 — a text row as a
/// result batch carries it.
pub fn encode_text_image(row: &[String], out: &mut Vec<u8>) {
    out.extend_from_slice(&(row.len() as u32).to_le_bytes());
    for cell in row {
        out.extend_from_slice(&(cell.len() as u32).to_le_bytes());
        out.extend_from_slice(cell.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_temporal::Day;

    fn stored() -> Vec<u8> {
        Value::encode_row(&[
            Value::Int(-42),
            Value::Text("Bliujūtė".into()),
            Value::Null,
            Value::Date(Day(9999)),
            Value::Opaque {
                type_name: "pair".into(),
                bytes: vec![3, 4],
            },
        ])
    }

    #[test]
    fn a_stored_row_leaves_as_the_image_of_its_decoded_columns() {
        let stored = stored();
        for positions in [&[0][..], &[1, 0], &[4, 4, 2], &[3, 1, 0, 4], &[]] {
            let mut encoded = EncodedRows::default();
            encoded.stored(&stored, positions).unwrap();
            let mut want = Vec::new();
            Value::encode_row_image(
                &Value::decode_columns(&stored, positions).unwrap(),
                &mut want,
            );
            assert_eq!(encoded.row_images(0..1), &want[..], "{positions:?}");
        }
    }

    #[test]
    fn a_refused_row_leaves_nothing_behind() {
        let stored = stored();
        let mut encoded = EncodedRows::default();
        encoded.values(vec![Value::Int(1)]).unwrap();
        let before = encoded.row_images(0..1).to_vec();
        for cut in 0..stored.len() {
            assert!(encoded.stored(&stored[..cut], &[0, 4]).is_err(), "{cut}");
        }
        assert!(encoded.stored(&stored, &[5]).is_err());
        assert_eq!(encoded.len(), 1);
        assert_eq!(encoded.row_images(0..1), &before[..]);
    }

    #[test]
    fn rows_slice_at_row_boundaries() {
        let mut encoded = EncodedRows::default();
        for i in 0..5 {
            encoded.values(vec![Value::Int(i)]).unwrap();
        }
        assert!(encoded.text_images(0..5).is_none());
        let image = |i: i64| {
            let mut out = Vec::new();
            Value::encode_row_image(&[Value::Int(i)], &mut out);
            out
        };
        assert_eq!(encoded.row_images(2..4), [image(2), image(3)].concat());
        assert!(encoded.row_images(3..3).is_empty());
        encoded.text(vec!["0".into()]);
        assert_eq!(encoded.text_images(0..1).map(<[u8]>::len), Some(4 + 4 + 1));
        RowSink::clear(&mut encoded);
        assert!(encoded.is_empty() && encoded.text_images(0..0).is_none());
    }
}
