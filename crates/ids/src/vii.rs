//! The Virtual-Index Interface: access-method purpose functions and
//! descriptors.
//!
//! This is the contract of the paper's Table 2. A DataBlade provides an
//! implementation of [`AccessMethod`]; the engine drives it through the
//! call sequences of Figure 6 (tracing each call in class `"AM"`). The
//! descriptors mirror the paper's: the *index descriptor* carries the
//! index identity plus a DataBlade-private slot (where the GR-tree
//! blade keeps its `Tree` object), the *scan descriptor* carries the
//! qualification and the blade's `Cursor`, and the *qualification
//! descriptor* is restricted to **single-column** predicates
//! (`f(column, constant)`, `f(constant, column)`, `f(column)`) — the
//! restriction of Section 5.1.

use crate::session::Session;
use crate::trace::TraceSink;
use crate::value::{DataType, Value};
use crate::{IdsError, Result};
use grt_sbspace::{Sbspace, Txn};
use grt_temporal::{Clock, MockClock};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// A row identifier in a heap table (page and slot packed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u64);

impl std::fmt::Display for RowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rid{}", self.0)
    }
}

/// A single-column predicate: the only shape a qualification descriptor
/// can carry.
#[derive(Debug, Clone, PartialEq)]
pub struct SimpleQual {
    /// Strategy-function name.
    pub func: String,
    /// The indexed column's name.
    pub column: String,
    /// The constant argument, if any (`f(column)` has none).
    pub constant: Option<Value>,
    /// True for the `f(constant, column)` argument order.
    pub commuted: bool,
}

/// A boolean combination of simple predicates (the paper's "complex
/// qualification containing several strategy functions separated by
/// ANDs or ORs").
#[derive(Debug, Clone, PartialEq)]
pub enum QualNode {
    /// A single strategy-function predicate.
    Simple(SimpleQual),
    /// All children must hold.
    And(Vec<QualNode>),
    /// At least one child must hold.
    Or(Vec<QualNode>),
}

impl QualNode {
    /// Every simple predicate in the tree, left to right.
    pub fn leaves(&self) -> Vec<&SimpleQual> {
        match self {
            QualNode::Simple(s) => vec![s],
            QualNode::And(cs) | QualNode::Or(cs) => cs.iter().flat_map(QualNode::leaves).collect(),
        }
    }

    /// Evaluates the tree given a per-leaf oracle.
    pub fn eval(&self, leaf: &mut impl FnMut(&SimpleQual) -> Result<bool>) -> Result<bool> {
        match self {
            QualNode::Simple(s) => leaf(s),
            QualNode::And(cs) => {
                for c in cs {
                    if !c.eval(leaf)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            QualNode::Or(cs) => {
                for c in cs {
                    if c.eval(leaf)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }
}

/// The qualification descriptor passed to `am_beginscan`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QualDescriptor {
    /// The pushed-down predicate tree; `None` scans everything.
    pub root: Option<QualNode>,
}

/// The index descriptor ("td" in the paper's Table 5): identity,
/// schema, parameters, and the DataBlade's private state.
pub struct IndexDescriptor {
    /// Index name.
    pub index_name: String,
    /// Base table name.
    pub table: String,
    /// Indexed column names.
    pub columns: Vec<String>,
    /// Indexed column types.
    pub column_types: Vec<DataType>,
    /// Operator class in force.
    pub opclass: String,
    /// Access-method parameters (e.g. `am_sptype`).
    pub params: HashMap<String, String>,
    /// DataBlade-private state (the paper's "pointer to object Tree").
    pub user_data: Mutex<Option<Box<dyn Any + Send>>>,
}

impl IndexDescriptor {
    /// Creates a descriptor (engine-internal and tests).
    pub fn new(
        index_name: &str,
        table: &str,
        columns: Vec<String>,
        column_types: Vec<DataType>,
        opclass: &str,
    ) -> IndexDescriptor {
        IndexDescriptor {
            index_name: index_name.to_string(),
            table: table.to_string(),
            columns,
            column_types,
            opclass: opclass.to_string(),
            params: HashMap::new(),
            user_data: Mutex::new(None),
        }
    }
}

/// The scan descriptor ("sd"): qualification plus the blade's cursor.
pub struct ScanDescriptor {
    /// The pushed qualification.
    pub qual: QualDescriptor,
    /// DataBlade-private scan state (the paper's `Cursor` object).
    pub user_data: Option<Box<dyn Any + Send>>,
}

impl ScanDescriptor {
    /// A scan over the given qualification.
    pub fn new(qual: QualDescriptor) -> ScanDescriptor {
        ScanDescriptor {
            qual,
            user_data: None,
        }
    }
}

/// The server facilities a purpose function may use: storage, the
/// current transaction, the clock, session named memory, the fragment
/// catalog, and tracing.
pub struct AmContext<'a> {
    /// The sbspace the virtual indices live in.
    pub space: Sbspace,
    /// The transaction this statement runs under.
    pub txn: &'a Txn,
    /// When set, the statement is a snapshot read: purpose functions
    /// should traverse this frozen committed view instead of opening
    /// LOs (and taking LO-level locks) through `space`. Only access
    /// methods reporting [`AccessMethod::am_supports_snapshot`] ever
    /// see it.
    pub snapshot: Option<Arc<grt_sbspace::SpaceSnapshot>>,
    /// The server clock (never read directly by well-behaved blades —
    /// they cache per statement/transaction, Section 5.4).
    pub clock: Arc<dyn Clock>,
    /// The session (named memory lives here).
    pub session: Arc<Session>,
    /// SYSFRAGMENTS: index name → large-object page id ("the table
    /// associated with the access method" of the paper's Table 5).
    pub fragments: Arc<Mutex<HashMap<String, u32>>>,
    /// The trace sink.
    pub trace: TraceSink,
}

impl<'a> AmContext<'a> {
    /// A throwaway context over a fresh in-memory space (tests).
    pub fn for_tests() -> AmContext<'static> {
        let space = Sbspace::mem(Default::default());
        let txn = Box::leak(Box::new(space.begin(Default::default())));
        AmContext {
            space,
            txn,
            snapshot: None,
            clock: Arc::new(MockClock::default()),
            session: Arc::new(Session::new(0)),
            fragments: Arc::new(Mutex::new(HashMap::new())),
            trace: TraceSink::new(),
        }
    }
}

/// The secondary-access-method purpose functions (the paper's Table 2).
/// Only `am_getnext` is mandatory; the engine skips optional functions
/// a method does not implement.
#[allow(unused_variables)]
pub trait AccessMethod: Send + Sync {
    /// Creating an index (`CREATE INDEX`).
    fn am_create(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<()> {
        Ok(())
    }

    /// Dropping an index (`DROP INDEX`).
    fn am_drop(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<()> {
        Ok(())
    }

    /// Opening an index for a statement.
    fn am_open(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<()> {
        Ok(())
    }

    /// Closing an index at statement end.
    fn am_close(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<()> {
        Ok(())
    }

    /// Starting a scan with a qualification.
    fn am_beginscan(
        &self,
        idx: &IndexDescriptor,
        scan: &mut ScanDescriptor,
        ctx: &AmContext,
    ) -> Result<()> {
        Ok(())
    }

    /// Restarting a scan from the beginning.
    fn am_rescan(
        &self,
        idx: &IndexDescriptor,
        scan: &mut ScanDescriptor,
        ctx: &AmContext,
    ) -> Result<()> {
        Ok(())
    }

    /// Fetching the next qualifying row. The paper's Table 5 has
    /// `grt_getnext` return two things per hit: *retrowid*, the row's
    /// id, and *retrow*, the indexed fields rebuilt from the index
    /// entry. Informix's VII lets the server say which of a row's
    /// columns it will read (`mi_scan_nprojs` / `mi_scan_projs`), and an
    /// access method need not produce the others. This executor fetches
    /// the base row by rowid and reads no column off the index, so the
    /// value vector is never read: an access method may leave it empty
    /// (an empty `Vec` does not allocate), and the tree blades do.
    /// Mandatory.
    fn am_getnext(
        &self,
        idx: &IndexDescriptor,
        scan: &mut ScanDescriptor,
        ctx: &AmContext,
    ) -> Result<Option<(RowId, Vec<Value>)>>;

    /// Fetching up to `max_rows` qualifying rows in one call, cutting
    /// the dynamic-dispatch round trips of a scan by the batch factor.
    /// Optional: the default delegates to repeated [`am_getnext`]
    /// calls, so third-party access methods are untouched.
    ///
    /// Contract: a batch shorter than `max_rows` means the scan is
    /// exhausted (the executor stops calling). Rows already handed out
    /// must not be re-emitted by later batches, even if the underlying
    /// structure reorganized between calls (e.g. an R-tree condense
    /// forced a cursor restart mid-DELETE) — same rules as repeated
    /// `am_getnext`.
    ///
    /// [`am_getnext`]: AccessMethod::am_getnext
    fn am_getnext_batch(
        &self,
        idx: &IndexDescriptor,
        scan: &mut ScanDescriptor,
        max_rows: usize,
        ctx: &AmContext,
    ) -> Result<Vec<(RowId, Vec<Value>)>> {
        let mut out = Vec::with_capacity(max_rows.min(64));
        while out.len() < max_rows {
            match self.am_getnext(idx, scan, ctx)? {
                Some(hit) => out.push(hit),
                None => break,
            }
        }
        Ok(out)
    }

    /// Ending a scan.
    fn am_endscan(
        &self,
        idx: &IndexDescriptor,
        scan: &mut ScanDescriptor,
        ctx: &AmContext,
    ) -> Result<()> {
        Ok(())
    }

    /// Inserting a row's indexed fields.
    fn am_insert(
        &self,
        idx: &IndexDescriptor,
        row: &[Value],
        rowid: RowId,
        ctx: &AmContext,
    ) -> Result<()> {
        Err(IdsError::AccessMethod("am_insert not provided".into()))
    }

    /// Bulk-building the index over an already-populated table.
    /// `CREATE INDEX` offers the full row set once; an access method
    /// that can pack a tree directly (sort-tile-recursive loading, say)
    /// returns `Ok(true)`. The default declines, and the engine falls
    /// back to one `am_insert` call per row.
    fn am_build(
        &self,
        idx: &IndexDescriptor,
        rows: &[(RowId, Vec<Value>)],
        ctx: &AmContext,
    ) -> Result<bool> {
        Ok(false)
    }

    /// Deleting a row's indexed fields.
    fn am_delete(
        &self,
        idx: &IndexDescriptor,
        row: &[Value],
        rowid: RowId,
        ctx: &AmContext,
    ) -> Result<()> {
        Err(IdsError::AccessMethod("am_delete not provided".into()))
    }

    /// Updating a row (default: delete old, insert new — the paper's
    /// `grt_update` does exactly this).
    fn am_update(
        &self,
        idx: &IndexDescriptor,
        old_row: &[Value],
        old_rowid: RowId,
        new_row: &[Value],
        new_rowid: RowId,
        ctx: &AmContext,
    ) -> Result<()> {
        self.am_delete(idx, old_row, old_rowid, ctx)?;
        self.am_insert(idx, new_row, new_rowid, ctx)
    }

    /// Estimated cost of a scan with this qualification, in page reads
    /// (the planner compares this against a sequential scan).
    fn am_scancost(
        &self,
        idx: &IndexDescriptor,
        qual: &QualDescriptor,
        ctx: &AmContext,
    ) -> Result<f64> {
        Ok(f64::MAX)
    }

    /// Refreshes optimizer statistics; returns a human-readable summary.
    fn am_stats(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<String> {
        Ok(String::new())
    }

    /// Verifies index consistency.
    fn am_check(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<()> {
        Ok(())
    }

    /// True when the method's read-side purpose functions honour
    /// [`AmContext::snapshot`] (traversing the frozen view without
    /// LO-level locks). The engine only routes a statement through the
    /// snapshot path when every index on the table opts in; the default
    /// keeps third-party blades on the locked path.
    fn am_supports_snapshot(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qual_tree_eval_and_leaves() {
        let leaf = |f: &str| {
            QualNode::Simple(SimpleQual {
                func: f.into(),
                column: "c".into(),
                constant: Some(Value::Int(1)),
                commuted: false,
            })
        };
        let tree = QualNode::Or(vec![QualNode::And(vec![leaf("a"), leaf("b")]), leaf("c")]);
        assert_eq!(
            tree.leaves()
                .iter()
                .map(|s| s.func.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
        // a=true, b=false, c=false -> false; then c=true -> true.
        let mut oracle = |s: &SimpleQual| Ok(s.func == "a");
        assert!(!tree.eval(&mut oracle).unwrap());
        let mut oracle2 = |s: &SimpleQual| Ok(s.func == "a" || s.func == "c");
        assert!(tree.eval(&mut oracle2).unwrap());
    }

    #[test]
    fn default_purpose_functions() {
        struct Dummy;
        impl AccessMethod for Dummy {
            fn am_getnext(
                &self,
                _idx: &IndexDescriptor,
                _scan: &mut ScanDescriptor,
                _ctx: &AmContext,
            ) -> Result<Option<(RowId, Vec<Value>)>> {
                Ok(None)
            }
        }
        let ctx = AmContext::for_tests();
        let idx = IndexDescriptor::new("i", "t", vec!["c".into()], vec![DataType::Integer], "oc");
        let am = Dummy;
        am.am_create(&idx, &ctx).unwrap();
        let mut scan = ScanDescriptor::new(QualDescriptor::default());
        am.am_beginscan(&idx, &mut scan, &ctx).unwrap();
        assert!(am.am_getnext(&idx, &mut scan, &ctx).unwrap().is_none());
        assert!(am.am_insert(&idx, &[], RowId(0), &ctx).is_err());
        assert!(am.am_scancost(&idx, &scan.qual, &ctx).unwrap() > 1e300);
    }
}
