//! A miniature extensible relational engine — the stand-in for the
//! "Informix Dynamic Server with Universal Data Option" that hosts the
//! GR-tree DataBlade.
//!
//! The paper's subject is not Informix's internals but its *extension
//! surface*, and that surface is reproduced here faithfully:
//!
//! * **opaque data types** with type support functions (text input/
//!   output, binary send/receive, file import/export) — Section 6.3;
//! * **user-defined routines** (UDRs) registered with
//!   `CREATE FUNCTION`, with negator/commutator metadata — Section 5.2;
//! * **operator classes** binding strategy and support functions to an
//!   access method — Section 4, step 4;
//! * **secondary access methods**: the full purpose-function interface
//!   of Table 2 (`am_create` … `am_check`) with index, scan, and
//!   qualification descriptors, where the qualification descriptor is
//!   restricted to *single-column* predicates — the restriction that
//!   forced the one-column `GRT_TimeExtent_t` design (Section 5.1);
//! * **system catalogs** (`SYSAMS`, `SYSINDICES`, `SYSFRAGMENTS`,
//!   `SYSOPCLASSES`, `SYSPROCEDURES`, `SYSTABLES`);
//! * a **query planner** that matches WHERE-clause functions against
//!   strategy functions and uses `am_scancost` to pick an access path;
//! * disk-resident **heap tables** over sbspace large objects, so
//!   transactions, recovery, and I/O accounting cover base tables too;
//! * **sessions** with named memory and durations, **transactions**
//!   with end-of-transaction callbacks (Section 5.4), and the **trace**
//!   facility of Section 6.4 (trace classes and levels);
//! * a small **SQL dialect** covering every statement the paper quotes.
//!
//! ```
//! use grt_ids::{Database, DatabaseOptions, Value};
//!
//! let db = Database::new(DatabaseOptions::default());
//! let conn = db.connect();
//! conn.exec("CREATE TABLE t (n integer, s text)").unwrap();
//! conn.exec("INSERT INTO t VALUES (1, 'one')").unwrap();
//! conn.exec("INSERT INTO t VALUES (2, 'two')").unwrap();
//! let r = conn.exec("SELECT s FROM t WHERE n = 2").unwrap();
//! assert_eq!(r.rows, vec![vec![Value::Text("two".into())]]);
//! ```

pub mod catalog;
pub mod engine;
pub mod heap;
pub mod opaque;
pub mod opclass;
pub mod planner;
pub(crate) mod prepare;
pub mod session;
pub mod sink;
pub mod sql;
pub mod trace;
pub mod udr;
pub mod value;
pub mod vii;

pub use engine::{Connection, Database, DatabaseOptions, QueryResult};
pub use session::{MemDuration, Session};
pub use sink::{EncodedRows, RowSink};
pub use trace::{TraceEvent, TraceSink};
pub use value::{DataType, Value, ValueRef};
pub use vii::{
    AccessMethod, AmContext, IndexDescriptor, QualDescriptor, RowId, ScanDescriptor, SimpleQual,
};

/// Errors from the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdsError {
    /// Storage-layer failure.
    Storage(grt_sbspace::SbError),
    /// SQL syntax error.
    Parse(String),
    /// Unknown table/column/function/type/index/access method.
    NotFound(String),
    /// Name already registered.
    Duplicate(String),
    /// Type mismatch or bad value.
    Type(String),
    /// Constraint or semantic violation.
    Semantic(String),
    /// A user-defined routine failed.
    Routine(String),
    /// Access-method failure.
    AccessMethod(String),
}

impl From<grt_sbspace::SbError> for IdsError {
    fn from(e: grt_sbspace::SbError) -> Self {
        IdsError::Storage(e)
    }
}

impl std::fmt::Display for IdsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IdsError::Storage(e) => write!(f, "storage: {e}"),
            IdsError::Parse(m) => write!(f, "syntax error: {m}"),
            IdsError::NotFound(m) => write!(f, "not found: {m}"),
            IdsError::Duplicate(m) => write!(f, "already exists: {m}"),
            IdsError::Type(m) => write!(f, "type error: {m}"),
            IdsError::Semantic(m) => write!(f, "semantic error: {m}"),
            IdsError::Routine(m) => write!(f, "routine error: {m}"),
            IdsError::AccessMethod(m) => write!(f, "access method error: {m}"),
        }
    }
}

impl std::error::Error for IdsError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, IdsError>;
