//! The `GRT_TimeExtent_t` opaque type.
//!
//! Section 5.1 concludes that "a time extent of a record ... cannot be
//! represented using four or two columns, so we represent it as one
//! column, and the values in this column are of our newly created
//! opaque data type, GRT_TimeExtent_t." The type support functions
//! below are the ones Section 6.3 lists: text input/output (with `UC`
//! and `NOW` handling and the Section 2 constraint checks), binary
//! send/receive over the fixed 16-byte layout, and text-file
//! import/export (shared with text input/output).

use grt_ids::opaque::OpaqueType;
use grt_ids::{IdsError, Value, ValueRef};
use grt_temporal::TimeExtent;
use std::sync::Arc;

/// The SQL-visible name of the opaque type.
pub const TYPE_NAME: &str = "GRT_TimeExtent_t";

/// Builds the registered opaque type.
pub fn grt_time_extent_type() -> OpaqueType {
    OpaqueType::new(
        TYPE_NAME,
        Arc::new(|text: &str| {
            let extent = TimeExtent::parse(text).map_err(|e| IdsError::Type(e.to_string()))?;
            Ok(extent.encode_array().to_vec())
        }),
        Arc::new(|bytes: &[u8]| {
            let extent = TimeExtent::decode(bytes).map_err(|e| IdsError::Type(e.to_string()))?;
            Ok(extent.to_string())
        }),
    )
}

/// Decodes a `GRT_TimeExtent_t` value into a [`TimeExtent`].
pub fn extent_from_value(v: &Value) -> Result<TimeExtent, IdsError> {
    extent_from_ref(v.as_ref())
}

/// Decodes a `GRT_TimeExtent_t` value read in place — off a pinned heap
/// page, say — into a [`TimeExtent`].
pub fn extent_from_ref(v: ValueRef<'_>) -> Result<TimeExtent, IdsError> {
    match v {
        ValueRef::Opaque { type_name, bytes } if type_name.eq_ignore_ascii_case(TYPE_NAME) => {
            TimeExtent::decode(bytes).map_err(|e| IdsError::Type(e.to_string()))
        }
        other => Err(IdsError::Type(format!("expected {TYPE_NAME}, got {other}"))),
    }
}

/// The extent an indexed row carries in its (first) key column.
pub(crate) fn extent_of_row(row: &[Value]) -> Result<TimeExtent, IdsError> {
    extent_from_value(
        row.first()
            .ok_or_else(|| IdsError::AccessMethod("indexed row has no key column".into()))?,
    )
}

/// Encodes a [`TimeExtent`] as a `GRT_TimeExtent_t` value.
pub fn extent_to_value(e: &TimeExtent) -> Value {
    Value::Opaque {
        type_name: TYPE_NAME.to_string(),
        bytes: e.encode_array().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_support_functions_roundtrip() {
        let ty = grt_time_extent_type();
        let v = ty.value_from_text("12/10/95, UC, 12/10/95, NOW").unwrap();
        let text = ty.value_to_text(&v).unwrap();
        assert!(text.contains("UC") && text.contains("NOW"));
        let v2 = ty.value_from_text(&text).unwrap();
        assert_eq!(v, v2);
    }

    #[test]
    fn constraints_enforced_at_input() {
        let ty = grt_time_extent_type();
        // VTbegin after TTbegin with NOW: rejected (Section 2).
        assert!(ty.value_from_text("3/97, UC, 6/97, NOW").is_err());
        // Backwards intervals: rejected.
        assert!(ty.value_from_text("7/97, 3/97, 1/97, 2/97").is_err());
        assert!(ty.value_from_text("not an extent").is_err());
    }

    #[test]
    fn value_conversions() {
        let ty = grt_time_extent_type();
        let v = ty.value_from_text("3/97, 7/97, 6/97, 8/97").unwrap();
        let e = extent_from_value(&v).unwrap();
        assert_eq!(extent_to_value(&e), v);
        assert!(extent_from_value(&Value::Int(1)).is_err());
    }

    #[test]
    fn receive_validates_foreign_bytes() {
        let ty = grt_time_extent_type();
        // A legal wire image passes.
        let v = ty.value_from_text("3/97, UC, 3/97, NOW").unwrap();
        let Value::Opaque { bytes, .. } = &v else {
            panic!()
        };
        assert!((ty.receive)(bytes).is_ok());
        // A wire image violating TTbegin <= TTend is rejected.
        let mut bad = [0u8; 16];
        bad[0..4].copy_from_slice(&5i32.to_le_bytes());
        bad[4..8].copy_from_slice(&1i32.to_le_bytes());
        assert!((ty.receive)(&bad).is_err());
        assert!((ty.receive)(&[0u8; 3]).is_err());
    }
}
