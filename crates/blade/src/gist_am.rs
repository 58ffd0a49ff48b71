//! `gist_am`: the generic tree as a DataBlade over an `IntRange_t`
//! opaque type — closing the loop on Section 7's "it is also possible
//! to implement such a generic access method as a DataBlade".
//!
//! The access method is the kernel under the four-primitive
//! [`IntRangeExt`] extension, driven by the same purpose-function
//! bodies as `grtree_am` and `rstar_am` (`tree_am`, `purpose`); the
//! operator class carries the range strategy function, exactly the
//! extension pattern the paper envisions.

use crate::purpose::purpose_functions;
use crate::tree_am::TreeAm;
use grt_gist::{GistKey, GistTreeOptions, IntRange, IntRangeExt};
use grt_ids::opaque::OpaqueType;
use grt_ids::vii::QualNode;
use grt_ids::{AmContext, Database, IdsError, IndexDescriptor, QualDescriptor, Value};
use grt_temporal::Day;
use grt_treekit::Meta;
use std::sync::Arc;

/// The opaque type name.
pub const RANGE_TYPE: &str = "IntRange_t";

/// Builds the `IntRange_t` opaque type (`"lo..hi"` text form).
pub fn int_range_type() -> OpaqueType {
    OpaqueType::new(
        RANGE_TYPE,
        Arc::new(|text: &str| {
            let (lo, hi) = text
                .split_once("..")
                .ok_or_else(|| IdsError::Type(format!("expected lo..hi, got {text:?}")))?;
            let lo: i64 = lo.trim().parse().map_err(|_| IdsError::Type("lo".into()))?;
            let hi: i64 = hi.trim().parse().map_err(|_| IdsError::Type("hi".into()))?;
            if lo > hi {
                return Err(IdsError::Type(format!("inverted range {lo}..{hi}")));
            }
            let mut out = lo.to_le_bytes().to_vec();
            out.extend_from_slice(&hi.to_le_bytes());
            Ok(out)
        }),
        Arc::new(|bytes: &[u8]| {
            let r = range_from_bytes(bytes)?;
            Ok(format!("{}..{}", r.lo, r.hi))
        }),
    )
}

fn range_from_bytes(bytes: &[u8]) -> Result<IntRange, IdsError> {
    if bytes.len() != 16 {
        return Err(IdsError::Type("IntRange_t needs 16 bytes".into()));
    }
    Ok(IntRange {
        lo: i64::from_le_bytes(bytes[0..8].try_into().unwrap()),
        hi: i64::from_le_bytes(bytes[8..16].try_into().unwrap()),
    })
}

fn range_of_value(v: &Value) -> Result<IntRange, IdsError> {
    match v {
        Value::Opaque { type_name, bytes } if type_name.eq_ignore_ascii_case(RANGE_TYPE) => {
            range_from_bytes(bytes)
        }
        other => Err(IdsError::Type(format!(
            "expected {RANGE_TYPE}, got {other}"
        ))),
    }
}

/// Length of the part of `a` inside `b` (0 when disjoint).
fn shared_len(a: &IntRange, b: &IntRange) -> i128 {
    (a.hi.min(b.hi) as i128 - a.lo.max(b.lo) as i128 + 1).max(0)
}

/// The generic access method instantiated for integer ranges.
#[derive(Default)]
pub struct GistRangeAm;

impl TreeAm for GistRangeAm {
    type Key = GistKey<IntRangeExt>;
    /// The one range the qualification names.
    type Qual = IntRange;
    type Probe = IntRange;
    type Scan = ();
    type Seen = (u64, i64, i64);

    const NAME: &'static str = "gist_am";
    const COLUMN_TYPE: &'static str = RANGE_TYPE;
    const PREFIX: &'static str = "gist";

    fn header(&self) -> Meta<Self::Key> {
        GistKey(IntRangeExt).header(GistTreeOptions::default())
    }

    fn ctx(_: Day) {}

    fn key_of(&self, row: &[Value], _ct: Day) -> Result<IntRange, IdsError> {
        range_of_value(
            row.first()
                .ok_or_else(|| IdsError::AccessMethod("no key column".into()))?,
        )
    }

    /// The `RangeOverlaps` constant, or everything.
    fn compile(&self, qual: &QualDescriptor) -> Result<IntRange, IdsError> {
        match &qual.root {
            Some(QualNode::Simple(q)) if q.func.eq_ignore_ascii_case("RangeOverlaps") => {
                range_of_value(q.constant.as_ref().ok_or_else(|| {
                    IdsError::AccessMethod("RangeOverlaps needs a constant".into())
                })?)
            }
            None => Ok(IntRange::new(i64::MIN / 2, i64::MAX / 2)),
            other => Err(IdsError::AccessMethod(format!(
                "unsupported qualification {other:?}"
            ))),
        }
    }

    /// One probe: the range itself.
    fn probes(&self, qual: &IntRange) -> Result<Vec<IntRange>, IdsError> {
        Ok(vec![*qual])
    }

    fn query(&self, probe: &IntRange, _ct: Day) -> IntRange {
        *probe
    }

    fn begin(&self, _idx: &IndexDescriptor, _ctx: &AmContext) -> Result<(), IdsError> {
        Ok(())
    }

    fn seen(key: &IntRange, rowid: u64) -> Self::Seen {
        (rowid, key.lo, key.hi)
    }

    /// The index test is exact for ranges: every hit is a row.
    fn recheck(
        &self,
        _scan: &mut (),
        _qual: &IntRange,
        _key: &IntRange,
        _rowid: u64,
        _ct: Day,
    ) -> Result<bool, IdsError> {
        Ok(true)
    }

    fn area(&self, bound: &IntRange, _ct: Day) -> i128 {
        shared_len(bound, bound)
    }

    fn overlap(&self, bound: &IntRange, probe: &IntRange, _ct: Day) -> i128 {
        shared_len(bound, probe)
    }
}

purpose_functions!(GistRangeAm);

/// Installs the GiST range DataBlade: the opaque type, the strategy
/// function, the access method, and its operator class.
pub fn install_gist_blade(db: &Database) -> Result<(), IdsError> {
    db.install_opaque_type(int_range_type());
    db.install_library("gist.bld", Arc::new(GistRangeAm));
    for sym in ["gst_create", "gst_drop", "gst_getnext"] {
        db.install_symbol(
            &format!("usr/gist.bld({sym})"),
            Arc::new(|_args: &[Value], _ctx: &AmContext| {
                Err(IdsError::Routine("purpose function".into()))
            }),
        );
    }
    db.install_symbol(
        "usr/gist.bld(range_overlaps)",
        Arc::new(|args: &[Value], _ctx: &AmContext| {
            let [a, b] = args else {
                return Err(IdsError::Type("RangeOverlaps(range, range)".into()));
            };
            Ok(Value::Bool(
                range_of_value(a)?.overlaps(&range_of_value(b)?),
            ))
        }),
    );
    let conn = db.connect();
    conn.exec_script(
        "CREATE FUNCTION gst_create(pointer) RETURNING int \
           EXTERNAL NAME 'usr/gist.bld(gst_create)' LANGUAGE c;\
         CREATE FUNCTION gst_drop(pointer) RETURNING int \
           EXTERNAL NAME 'usr/gist.bld(gst_drop)' LANGUAGE c;\
         CREATE FUNCTION gst_getnext(pointer) RETURNING int \
           EXTERNAL NAME 'usr/gist.bld(gst_getnext)' LANGUAGE c;\
         CREATE FUNCTION RangeOverlaps(IntRange_t, IntRange_t) RETURNING boolean \
           EXTERNAL NAME 'usr/gist.bld(range_overlaps)' LANGUAGE c;\
         CREATE SECONDARY ACCESS_METHOD gist_am ( \
           am_create = gst_create, am_drop = gst_drop, am_getnext = gst_getnext, \
           am_sptype = 'S' );\
         CREATE OPCLASS gist_range_ops FOR gist_am STRATEGIES(RangeOverlaps);",
    )?;
    Ok(())
}
