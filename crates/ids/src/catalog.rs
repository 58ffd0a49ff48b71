//! System catalogs.
//!
//! `CREATE SECONDARY ACCESS_METHOD` "enters access method information
//! into the system catalog table SYSAMS. The CREATE INDEX statement
//! adds index information to the system catalog tables SYSINDICES and
//! SYSFRAGMENTS" (Section 4). These catalogs — plus `SYSTABLES`,
//! `SYSOPCLASSES`, and `SYSPROCEDURES` (held by the UDR registry) — are
//! modelled as engine-resident structures with row-dumps so the
//! reproduction binary can print them.

use crate::value::{DataType, Value};
use crate::vii::AccessMethod;
use crate::{IdsError, Result};
use grt_sbspace::LoId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A table's schema and storage location (SYSTABLES).
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Table name.
    pub name: String,
    /// Column names and types, in order.
    pub columns: Vec<(String, DataType)>,
    /// The large object holding the heap.
    pub lo: LoId,
}

impl TableMeta {
    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|(c, _)| c.eq_ignore_ascii_case(name))
            .ok_or_else(|| IdsError::NotFound(format!("column {name} of table {}", self.name)))
    }

    /// Type of a column by name.
    pub fn column_type(&self, name: &str) -> Result<&DataType> {
        Ok(&self.columns[self.column_index(name)?].1)
    }
}

/// A registered secondary access method (SYSAMS).
pub struct AmEntry {
    /// Access-method name (e.g. `grtree_am`).
    pub name: String,
    /// Purpose-function bindings: slot (`am_open`) → registered UDR
    /// name (`grt_open`), exactly as listed in the CREATE statement.
    pub purpose: Vec<(String, String)>,
    /// The `am_sptype` parameter (`"S"` = sbspace).
    pub sptype: String,
    /// The bound implementation (the loaded shared library).
    pub handler: Arc<dyn AccessMethod>,
}

impl AmEntry {
    /// The registered name of a purpose function slot, falling back to
    /// the slot name itself (for tracing).
    pub fn purpose_name(&self, slot: &str) -> String {
        self.purpose
            .iter()
            .find(|(s, _)| s.eq_ignore_ascii_case(slot))
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| slot.to_string())
    }
}

impl std::fmt::Debug for AmEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AmEntry")
            .field("name", &self.name)
            .field("purpose", &self.purpose)
            .finish()
    }
}

/// A virtual index (SYSINDICES).
#[derive(Debug, Clone)]
pub struct IndexMeta {
    /// Index name.
    pub name: String,
    /// Base table.
    pub table: String,
    /// Indexed columns.
    pub columns: Vec<String>,
    /// Access-method name.
    pub access_method: String,
    /// Operator class per the CREATE INDEX statement.
    pub opclass: String,
    /// The storage space named in `IN <space>`.
    pub space: String,
}

/// The system catalogs a `SELECT` may name (and a `CREATE TABLE` may
/// not), each with its comma-separated column headers.
pub const SYSTEM_CATALOGS: [(&str, &str); 7] = [
    ("sysams", "am_name,purpose_functions,am_sptype"),
    (
        "sysindices",
        "index_name,table,columns,access_method,opclass",
    ),
    ("sysfragments", "index_name,blob_handle"),
    ("systables", "table_name,columns,heap_lo"),
    ("sysmetrics", "name,value"),
    ("sysprocedures", "name,args,returns,external"),
    ("sysopclasses", "opclass,am,strategies,support"),
];

/// The column headers of a system catalog, by exact (case-insensitive)
/// name; `None` for anything else, user tables named `sys…` included.
pub fn system_catalog(name: &str) -> Option<Vec<String>> {
    SYSTEM_CATALOGS
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, headers)| headers.split(',').map(String::from).collect())
}

/// The engine catalogs.
#[derive(Default)]
pub struct Catalog {
    /// SYSTABLES.
    pub tables: HashMap<String, TableMeta>,
    /// SYSAMS. Shared, so a statement binds an access method by
    /// reference count instead of copying its purpose bindings.
    pub ams: HashMap<String, Arc<AmEntry>>,
    /// SYSINDICES.
    pub indices: HashMap<String, IndexMeta>,
    /// SYSFRAGMENTS: index name → large-object page id. Shared with
    /// access methods through the [`crate::vii::AmContext`].
    pub fragments: Arc<Mutex<HashMap<String, u32>>>,
}

impl Catalog {
    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<&TableMeta> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| IdsError::NotFound(format!("table {name}")))
    }

    /// Looks up an access method.
    pub fn am(&self, name: &str) -> Result<&Arc<AmEntry>> {
        self.ams
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| IdsError::NotFound(format!("access method {name}")))
    }

    /// Looks up an index.
    pub fn index(&self, name: &str) -> Result<&IndexMeta> {
        self.indices
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| IdsError::NotFound(format!("index {name}")))
    }

    /// All indices on a table.
    pub fn indices_of(&self, table: &str) -> Vec<&IndexMeta> {
        let mut v: Vec<&IndexMeta> = self
            .indices
            .values()
            .filter(|i| i.table.eq_ignore_ascii_case(table))
            .collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Dumps a system catalog as (header, rows) for display. Supported:
    /// `sysams`, `sysindices`, `sysfragments`, `systables`.
    pub fn dump(&self, catalog: &str) -> Result<(Vec<String>, Vec<Vec<Value>>)> {
        let text = |s: &str| Value::Text(s.to_string());
        let mut rows: Vec<Vec<Value>> = match catalog.to_ascii_lowercase().as_str() {
            "sysams" => self
                .ams
                .values()
                .map(|a| {
                    let purpose = a
                        .purpose
                        .iter()
                        .map(|(s, n)| format!("{s}={n}"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    vec![text(&a.name), text(&purpose), text(&a.sptype)]
                })
                .collect(),
            "sysindices" => self
                .indices
                .values()
                .map(|i| {
                    vec![
                        text(&i.name),
                        text(&i.table),
                        text(&i.columns.join(", ")),
                        text(&i.access_method),
                        text(&i.opclass),
                    ]
                })
                .collect(),
            "sysfragments" => self
                .fragments
                .lock()
                .iter()
                .map(|(ix, lo)| vec![text(ix), Value::Int(*lo as i64)])
                .collect(),
            "systables" => self
                .tables
                .values()
                .map(|t| {
                    let cols = t
                        .columns
                        .iter()
                        .map(|(c, ty)| format!("{c} {ty}"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    vec![text(&t.name), text(&cols), Value::Int(t.lo.0 as i64)]
                })
                .collect(),
            other => return Err(IdsError::NotFound(format!("system catalog {other}"))),
        };
        rows.sort_by_key(|r| r[0].to_string());
        let headers = system_catalog(catalog).expect("the four names matched above are listed");
        Ok((headers, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_meta_lookup() {
        let t = TableMeta {
            name: "employees".into(),
            columns: vec![
                ("name".into(), DataType::Text),
                (
                    "time_extent".into(),
                    DataType::Opaque("GRT_TimeExtent_t".into()),
                ),
            ],
            lo: LoId(5),
        };
        assert_eq!(t.column_index("Time_Extent").unwrap(), 1);
        assert!(t.column_index("missing").is_err());
        assert_eq!(t.column_type("NAME").unwrap(), &DataType::Text);
    }

    #[test]
    fn catalog_dumps() {
        let mut c = Catalog::default();
        c.tables.insert(
            "t".into(),
            TableMeta {
                name: "t".into(),
                columns: vec![("a".into(), DataType::Integer)],
                lo: LoId(3),
            },
        );
        c.fragments.lock().insert("ix".into(), 9);
        let (hdr, rows) = c.dump("systables").unwrap();
        assert_eq!(hdr.len(), 3);
        assert_eq!(rows.len(), 1);
        let (_, frows) = c.dump("SYSFRAGMENTS").unwrap();
        assert_eq!(frows[0][1], Value::Int(9));
        assert!(c.dump("sysnothing").is_err());
    }
}
