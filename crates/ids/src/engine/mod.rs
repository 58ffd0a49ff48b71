//! The database engine: sessions, statement execution, and the
//! purpose-function call sequences of Figure 6.
//!
//! A statement crosses the modules in one direction — `exec` (doors,
//! retry, transactions), `resolve` (compile; bind table and indexes),
//! `plan`, then `dml` or `ddl`, with `expr` under all of them — and
//! what is passed down is one `Stmt`: nothing about the statement in
//! flight lives on the [`Connection`]. DESIGN.md §2 has the seams.

mod ddl;
mod dml;
mod exec;
mod expr;
mod plan;
mod resolve;

use crate::catalog::Catalog;
use crate::opaque::OpaqueType;
use crate::opclass::OpClassRegistry;
use crate::prepare::{CompiledStatement, PlanCache};
use crate::session::Session;
use crate::sql::Statement;
use crate::trace::TraceSink;
use crate::udr::{RoutineFn, UdrRegistry};
use crate::value::{DataType, Value};
use crate::vii::{AccessMethod, AmContext, RowId};
use crate::{IdsError, Result};
use grt_metrics::{Counter, Histogram, Metrics, MetricsSnapshot};
use grt_sbspace::{IsolationLevel, Sbspace, SbspaceOptions, SpaceSnapshot, Txn};
use grt_temporal::{Clock, MockClock};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Engine construction options.
pub struct DatabaseOptions {
    /// Storage options for the shared sbspace.
    pub space: SbspaceOptions,
    /// The server clock (a deterministic [`MockClock`] by default).
    pub clock: Arc<dyn Clock>,
    /// How many times [`Connection::exec`] automatically retries an
    /// auto-commit statement whose transaction was aborted as a
    /// deadlock (or lock-timeout) victim. Zero surfaces the error on
    /// the first occurrence. Statements inside an explicit
    /// `BEGIN WORK` block are never retried — the whole transaction is
    /// rolled back and the error surfaced to the client.
    pub deadlock_retries: u32,
    /// Backoff slept before the first retry; it doubles on every
    /// further attempt (bounded exponential backoff).
    pub retry_backoff: Duration,
    /// Retired in PR 18 (ISSUE 21) with the parallel index scan: not
    /// read, deleted when the benchmark harness stops naming it.
    pub scan_workers: usize,
    /// Capacity (in compiled statements) of the transparent plan cache
    /// keyed on normalized statement text. Least-recently-used entries
    /// are evicted beyond it; `PREPARE`d handles are not counted (they
    /// are owned by their connections). `0` disables transparent
    /// caching — every ad-hoc statement recompiles from scratch (the
    /// baseline the `sessions` bench measures prepared statements
    /// against).
    pub plan_cache_size: usize,
    /// Rows fetched per `am_getnext_batch` call on index scans — the
    /// dynamic-dispatch round trips per scan shrink by this factor.
    /// `1` degenerates to the row-at-a-time protocol.
    pub scan_batch_rows: usize,
    /// How often the storage engine's background fuzzy checkpointer
    /// runs. `None` (the default) disables it; recovery then replays
    /// the whole WAL and the log grows without bound. This mirrors
    /// into [`SbspaceOptions::checkpoint_interval`] and always wins
    /// over whatever `space` carries.
    pub checkpoint_interval: Option<Duration>,
    /// Size of each WAL segment file; checkpoints recycle whole
    /// segments below the transaction low-water mark. Mirrors into
    /// [`SbspaceOptions::wal_segment_bytes`] and always wins over
    /// whatever `space` carries.
    pub wal_segment_bytes: usize,
}

impl Default for DatabaseOptions {
    fn default() -> Self {
        DatabaseOptions {
            space: SbspaceOptions::default(),
            clock: Arc::new(MockClock::default()),
            deadlock_retries: 4,
            retry_backoff: Duration::from_millis(2),
            scan_workers: 1,
            plan_cache_size: 128,
            scan_batch_rows: 64,
            checkpoint_interval: None,
            wal_segment_bytes: grt_sbspace::DEFAULT_SEGMENT_BYTES,
        }
    }
}

/// Pre-registered engine counters, so the statement hot path bumps
/// atomics without touching the registry map.
struct EngineCounters {
    statements: Counter,
    statement_errors: Counter,
    stmt_retries: Counter,
    plans_index: Counter,
    plans_seq: Counter,
    udr_calls: Counter,
    /// Routine resolutions that missed the session memo and searched
    /// the registry (`ids.udr_resolutions`).
    udr_resolutions: Counter,
    /// Base rows fetched for index scans, and the distinct heap pages
    /// pinned to fetch them (`scan.heap_rows` / `scan.heap_pages`,
    /// bumped once per statement).
    heap_rows: Counter,
    heap_pages: Counter,
    /// `PREPARE`d statement handles opened / closed (DEALLOCATE,
    /// re-PREPARE, or connection drop) — equal when nothing leaks.
    prepared_opened: Counter,
    prepared_closed: Counter,
    /// Sessions opened by [`Database::connect`] / closed by
    /// [`Connection::close`] (or drop) — equal when no session leaks,
    /// which is the reconciliation a network server checks at shutdown.
    sessions_opened: Counter,
    sessions_closed: Counter,
    /// Purpose-function invocations by slot (`am.am_insert`, ...).
    am_calls: HashMap<&'static str, Counter>,
}

/// Every purpose-function slot the engine can invoke (Figure 5).
const AM_SLOTS: [&str; 15] = [
    "am_create",
    "am_drop",
    "am_open",
    "am_close",
    "am_build",
    "am_insert",
    "am_delete",
    "am_update",
    "am_beginscan",
    "am_getnext",
    "am_getnext_batch",
    "am_endscan",
    "am_scancost",
    "am_check",
    "am_stats",
];

impl EngineCounters {
    fn registered(metrics: &Metrics) -> EngineCounters {
        EngineCounters {
            statements: metrics.counter("ids.statements"),
            statement_errors: metrics.counter("ids.statement_errors"),
            stmt_retries: metrics.counter("stmt.retries"),
            plans_index: metrics.counter("ids.plans_index"),
            plans_seq: metrics.counter("ids.plans_seq"),
            udr_calls: metrics.counter("ids.udr_calls"),
            udr_resolutions: metrics.counter("ids.udr_resolutions"),
            heap_rows: metrics.counter("scan.heap_rows"),
            heap_pages: metrics.counter("scan.heap_pages"),
            prepared_opened: metrics.counter("ids.prepared_opened"),
            prepared_closed: metrics.counter("ids.prepared_closed"),
            sessions_opened: metrics.counter("ids.sessions_opened"),
            sessions_closed: metrics.counter("ids.sessions_closed"),
            am_calls: AM_SLOTS
                .iter()
                .map(|&slot| (slot, metrics.counter(&format!("am.{slot}"))))
                .collect(),
        }
    }
}

struct DbInner {
    space: Sbspace,
    catalog: Arc<Mutex<Catalog>>,
    /// SYSFRAGMENTS, the map inside `catalog`: handed to every
    /// statement's [`AmContext`] without taking the catalog lock.
    fragments: Arc<Mutex<HashMap<String, u32>>>,
    udrs: Mutex<UdrRegistry>,
    /// Bumped on every routine-registry mutation (CREATE / DROP / ALTER
    /// FUNCTION); sessions discard their memoized routine resolutions
    /// when it moves (see [`Connection::resolve_udr`]).
    udr_generation: AtomicU64,
    opaques: Mutex<HashMap<String, OpaqueType>>,
    opclasses: Mutex<OpClassRegistry>,
    /// Loaded "shared libraries" providing access-method handlers,
    /// keyed by library file name (e.g. `grtree.bld`).
    libraries: Mutex<HashMap<String, Arc<dyn AccessMethod>>>,
    /// The options the database booted with (`scan_batch_rows` raised
    /// to at least 1; `space` already consumed).
    opts: DatabaseOptions,
    trace: TraceSink,
    /// The unified registry, shared with the sbspace underneath.
    metrics: Arc<Metrics>,
    counters: EngineCounters,
    /// Wall-clock statement latency.
    exec_ns: Histogram,
    /// Rows returned per `am_getnext_batch` call (`scan.batch_rows`;
    /// the histogram's mean is the average batch fill).
    batch_rows: Histogram,
    /// The per-database plan cache (tentpole of the compile-once,
    /// execute-many path).
    plan_cache: Arc<PlanCache>,
    /// Catalog compensation records per open transaction, applied in
    /// reverse on abort (see [`ddl::CatalogUndo`]).
    txn_undo: ddl::UndoLog,
    next_session: AtomicU64,
    /// Statement span ids, unique across sessions.
    next_span: AtomicU64,
    /// Transaction → session mapping for the end-of-transaction
    /// callback that clears per-transaction named memory (Section 5.4).
    txn_sessions: Arc<Mutex<HashMap<u64, Arc<Session>>>>,
}

/// The database server. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Database {
    inner: Arc<DbInner>,
}

/// A client connection: a session plus transaction state. Everything
/// about the statement in flight travels in a `Stmt`, not here.
pub struct Connection {
    db: Database,
    session: Arc<Session>,
    /// The explicit transaction, if `BEGIN WORK` opened one.
    txn: Mutex<Option<OpenTxn>>,
    iso: Mutex<IsolationLevel>,
    /// Set when a statement failed inside an explicit transaction: the
    /// transaction was rolled back (victim abort — all locks released)
    /// and every further statement is refused until the client
    /// acknowledges with `ROLLBACK WORK` (or `COMMIT WORK`, which
    /// reports the rollback). Without this flag, statements after the
    /// error would silently run outside the transaction the client
    /// believes is still open.
    aborted: AtomicBool,
    /// `PREPARE`d statements by (lower-cased) name.
    prepared: Mutex<HashMap<String, Arc<CompiledStatement>>>,
    /// Memoized routine resolutions (see [`Connection::resolve_udr`]).
    udr_cache: Mutex<expr::UdrCache>,
    /// The rowids an index scan drains before its heap pass, kept for
    /// the next statement's scan so that it allocates none.
    rids: Mutex<Vec<RowId>>,
    /// Set once by [`Connection::close`] so an explicit close followed
    /// by the drop does not double-count the session teardown.
    closed: AtomicBool,
}

/// An explicit transaction and what its statements have done so far.
/// The read state ends with the transaction it describes.
struct OpenTxn {
    txn: Txn,
    reads: ReadState,
}

#[derive(Default)]
struct ReadState {
    /// Set once the transaction runs any non-SELECT statement: later
    /// reads must see its own uncommitted writes, so they leave the
    /// snapshot path until the transaction ends (the
    /// first-write-switches-to-locked rule).
    wrote: bool,
    /// The snapshot pinned by a REPEATABLE READ transaction at its first
    /// snapshot-eligible read: every later read reuses it, so the whole
    /// transaction sees one consistent view without holding shared
    /// locks. Dropping it lets the space reclaim the pages it kept.
    pinned: Option<Arc<SpaceSnapshot>>,
}

/// One attempt at one statement (the paper's per-statement memory,
/// Section 5.4): made by `with_txn`, passed down, gone with the attempt.
struct Stmt<'a> {
    /// The enclosing explicit transaction's read state; `None` for an
    /// auto-commit statement.
    explicit: Option<&'a mut ReadState>,
    /// The one context every purpose function and routine of this
    /// statement receives: transaction, session, the trace sink scoped
    /// to the statement's span, and — once `select` has routed it onto
    /// the snapshot path — the frozen view it reads.
    am: AmContext<'a>,
}

impl Stmt<'_> {
    /// One line on the session's `SET EXPLAIN` channel.
    fn explain(&self, line: impl FnOnce() -> String) {
        self.am.trace.emit_with("EXPLAIN", 1, line);
    }
}

/// What one call of [`Connection::execute_with_retry`] runs.
enum Work<'a> {
    /// INSERT / SELECT / DELETE / UPDATE: the compiled statement and
    /// its bound form (the compiled statement itself when it has no
    /// parameters).
    Dml(&'a CompiledStatement, &'a Statement),
    /// Everything else: transaction control, SET, PREPARE, DDL.
    Other(&'a Statement),
    /// DML that did not resolve. The error is raised from inside the
    /// statement machinery, so it is counted and aborts an explicit
    /// transaction exactly like a statement that failed later.
    Failed(&'a IdsError),
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.close();
    }
}

/// The result of one statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// Column headers (SELECT only).
    pub columns: Vec<String>,
    /// Raw result rows (SELECT only).
    pub rows: Vec<Vec<Value>>,
    /// The text only the server's type support functions can make:
    /// every row rendered when an output column is an opaque type (each
    /// of its cells through the type's text-output function), empty
    /// otherwise. Read a result's text through [`QueryResult::text`].
    pub rendered: Vec<Vec<String>>,
    /// Status message for non-queries.
    pub message: String,
}

fn msg(text: &str) -> QueryResult {
    QueryResult {
        message: text.to_string(),
        ..Default::default()
    }
}

impl Database {
    /// Boots a database over an in-memory sbspace.
    pub fn new(mut opts: DatabaseOptions) -> Database {
        let mut space = std::mem::take(&mut opts.space);
        space.checkpoint_interval = opts.checkpoint_interval;
        space.wal_segment_bytes = opts.wal_segment_bytes;
        Self::boot(Sbspace::mem(space), opts)
    }

    /// Boots a database over an existing sbspace (e.g. file-backed),
    /// with the default retry policy.
    pub fn with_space(space: Sbspace, clock: Arc<dyn Clock>) -> Database {
        Self::boot(
            space,
            DatabaseOptions {
                clock,
                ..Default::default()
            },
        )
    }

    fn boot(space: Sbspace, mut opts: DatabaseOptions) -> Database {
        opts.scan_batch_rows = opts.scan_batch_rows.max(1);
        // The sbspace already registered its I/O counters; the engine
        // joins the same registry so one snapshot covers every layer.
        let metrics = space.metrics();
        let txn_sessions: Arc<Mutex<HashMap<u64, Arc<Session>>>> = Arc::default();
        let catalog: Arc<Mutex<Catalog>> = Arc::default();
        let fragments = Arc::clone(&catalog.lock().fragments);
        let plan_cache = Arc::new(PlanCache::new(opts.plan_cache_size, &metrics));
        let txn_undo = ddl::UndoLog::default();
        ddl::undo_on_abort(
            &space,
            Arc::clone(&txn_sessions),
            Arc::clone(&txn_undo),
            Arc::clone(&catalog),
            Arc::clone(&plan_cache),
        );
        let trace = TraceSink::new();
        metrics.adopt_counter("trace.dropped", trace.dropped_counter());
        // Alias the storage lock counters under the engine-facing
        // `lock.*` names (same cells — no double counting).
        let io = space.stats();
        metrics.adopt_counter("lock.waits", io.lock_waits.clone());
        metrics.adopt_counter("lock.deadlocks", io.deadlocks.clone());
        Database {
            inner: Arc::new(DbInner {
                counters: EngineCounters::registered(&metrics),
                exec_ns: metrics.histogram("ids.exec_ns"),
                batch_rows: metrics.histogram("scan.batch_rows"),
                space,
                catalog,
                fragments,
                udrs: Mutex::default(),
                udr_generation: AtomicU64::new(0),
                opaques: Mutex::default(),
                opclasses: Mutex::default(),
                libraries: Mutex::default(),
                trace,
                metrics,
                plan_cache,
                txn_undo,
                opts,
                next_session: AtomicU64::new(1),
                next_span: AtomicU64::new(1),
                txn_sessions,
            }),
        }
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Connection {
        let id = self.inner.next_session.fetch_add(1, Ordering::SeqCst);
        self.inner.counters.sessions_opened.inc();
        Connection {
            db: self.clone(),
            session: Arc::new(Session::new(id)),
            txn: Mutex::new(None),
            iso: Mutex::new(IsolationLevel::ReadCommitted),
            aborted: AtomicBool::new(false),
            prepared: Mutex::default(),
            udr_cache: Mutex::default(),
            rids: Mutex::default(),
            closed: AtomicBool::new(false),
        }
    }

    /// Installs a native symbol for `CREATE FUNCTION ... EXTERNAL NAME`
    /// binding (what loading a DataBlade's shared library does).
    pub fn install_symbol(&self, external_name: &str, imp: RoutineFn) {
        self.inner.udrs.lock().install_symbol(external_name, imp);
    }

    /// Installs an access-method handler under a library file name; the
    /// `CREATE SECONDARY ACCESS_METHOD` statement binds to it through
    /// its purpose functions' `EXTERNAL NAME`s.
    pub fn install_library(&self, library: &str, handler: Arc<dyn AccessMethod>) {
        self.inner
            .libraries
            .lock()
            .insert(library.to_string(), handler);
    }

    /// Registers an opaque type (Section 4, step 1).
    pub fn install_opaque_type(&self, ty: OpaqueType) {
        self.inner
            .opaques
            .lock()
            .insert(ty.name.to_ascii_lowercase(), ty);
    }

    /// True when a UDR of this name is registered.
    pub fn function_exists(&self, name: &str) -> bool {
        self.inner.udrs.lock().exists(name)
    }

    /// Resolves a registered routine by name and argument types — the
    /// dynamic-dispatch path an extensible operator class pays for.
    pub fn resolve_routine(
        &self,
        name: &str,
        arg_types: &[Option<DataType>],
    ) -> Result<crate::udr::Routine> {
        Ok(self.inner.udrs.lock().resolve(name, arg_types)?.clone())
    }

    /// The server trace sink.
    pub fn trace(&self) -> TraceSink {
        self.inner.trace.clone()
    }

    /// The server clock.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.inner.opts.clock)
    }

    /// The shared I/O statistics of the underlying sbspace.
    pub fn io_stats(&self) -> Arc<grt_sbspace::IoStats> {
        self.inner.space.stats()
    }

    /// The unified metrics registry: engine, access-method, and sbspace
    /// counters all live here. Also queryable as `SELECT * FROM
    /// sysmetrics`.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// A point-in-time snapshot of every registered counter and
    /// histogram, for `MetricsSnapshot::since` diffing.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// The underlying sbspace (test and benchmark hook).
    pub fn space(&self) -> Sbspace {
        self.inner.space.clone()
    }

    /// Live `PREPARE`d statement handles across every connection — the
    /// stress harness's leak check (zero once all sessions are gone).
    pub fn prepared_live(&self) -> usize {
        self.inner.plan_cache.live_prepared()
    }

    /// Compiled statements in the transparent plan cache (test hook).
    pub fn plan_cache_len(&self) -> usize {
        self.inner.plan_cache.len()
    }

    /// Dumps a system catalog.
    pub fn catalog_dump(&self, name: &str) -> Result<(Vec<String>, Vec<Vec<Value>>)> {
        let text = |s: &str| Value::Text(s.to_string());
        let rows: Vec<Vec<Value>> = match name.to_ascii_lowercase().as_str() {
            "sysmetrics" => {
                let snap = self.inner.metrics.snapshot();
                // Gauges report their current level next to the counters.
                let mut rows: Vec<Vec<Value>> = snap
                    .counters
                    .iter()
                    .chain(&snap.gauges)
                    .map(|(k, &v)| vec![text(k), Value::Int(v as i64)])
                    .collect();
                // Histograms surface as count/mean/p50/p99 pseudo-counters
                // so the whole registry fits one two-column relation. The
                // percentiles are bucket upper bounds, in the histogram's
                // own unit (its name says which: `_ns`, `_bytes`, rows).
                for (k, h) in &snap.histograms {
                    let mut put = |suffix: &str, v: u64| {
                        // The overflow bucket's bound is `u64::MAX`.
                        let v = Value::Int(v.min(i64::MAX as u64) as i64);
                        rows.push(vec![Value::Text(format!("{k}.{suffix}")), v]);
                    };
                    put("count", h.count);
                    put("mean_ns", h.mean_ns());
                    put("p50", h.quantile_bound_ns(0.5));
                    put("p99", h.quantile_bound_ns(0.99));
                }
                rows
            }
            "sysprocedures" => {
                let types = |ts: &[DataType]| {
                    let names: Vec<String> = ts.iter().map(|t| t.to_string()).collect();
                    Value::Text(names.join(", "))
                };
                let udrs = self.inner.udrs.lock();
                udrs.all()
                    .iter()
                    .map(|r| {
                        vec![
                            text(&r.name),
                            types(&r.arg_types),
                            text(&r.ret_type.to_string()),
                            text(&r.external_name),
                        ]
                    })
                    .collect()
            }
            "sysopclasses" => {
                let ocs = self.inner.opclasses.lock();
                ocs.all()
                    .iter()
                    .map(|c| {
                        vec![
                            text(&c.name),
                            text(&c.access_method),
                            text(&c.strategies.join(", ")),
                            text(&c.supports.join(", ")),
                        ]
                    })
                    .collect()
            }
            _ => return self.inner.catalog.lock().dump(name),
        };
        let headers = crate::catalog::system_catalog(name).expect("matched a listed catalog");
        Ok((headers, rows))
    }
}

impl QueryResult {
    /// The rows as text: [`QueryResult::rendered`] when the server made
    /// it, else each cell through its value's `Display` — the function
    /// that renders every non-opaque cell of a rendered result too.
    pub fn text(&self) -> Cow<'_, [Vec<String>]> {
        if !self.rendered.is_empty() {
            return Cow::Borrowed(&self.rendered);
        }
        let row = |row: &Vec<Value>| row.iter().map(Value::to_string).collect();
        Cow::Owned(self.rows.iter().map(row).collect())
    }

    /// Formats a SELECT result as an aligned text table.
    pub fn to_table(&self) -> String {
        if self.columns.is_empty() {
            return self.message.clone();
        }
        let text = self.text();
        // Widths in chars, the unit `format!` pads in.
        let width = |s: &String| s.chars().count();
        let mut widths: Vec<usize> = self.columns.iter().map(width).collect();
        for row in text.iter() {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(width(cell));
            }
        }
        let line = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            padded.join(" | ") + "\n"
        };
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let body: String = text.iter().map(|row| line(row)).collect();
        line(&self.columns) + &rule.join("-+-") + "\n" + &body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_temporal::Day;

    /// `v (id, d, b, t, p)`, `p` of an opaque type whose output function
    /// writes `(a; b)` — text no `Display` of the value could make.
    fn result_of(sql: &str) -> QueryResult {
        let db = Database::new(DatabaseOptions::default());
        db.install_opaque_type(OpaqueType::new(
            "pair",
            Arc::new(|text: &str| {
                let (a, b) = text.split_once(',').expect("a,b");
                Ok([a, b]
                    .iter()
                    .map(|n| n.trim().parse::<u8>().unwrap())
                    .collect())
            }),
            Arc::new(|bytes: &[u8]| Ok(format!("({}; {})", bytes[0], bytes[1]))),
        ));
        let conn = db.connect();
        conn.exec("CREATE TABLE v (id integer, d date, b boolean, t text, p pair)")
            .unwrap();
        conn.prepare("ins", "INSERT INTO v VALUES (?, ?, ?, ?, ?)")
            .unwrap();
        for row in [
            [
                Value::Int(-7),
                Value::Date(Day(10_000)),
                Value::Bool(true),
                Value::Text("Bliujūtė".into()),
                Value::Text("3,4".into()),
            ],
            [
                Value::Null,
                Value::Null,
                Value::Bool(false),
                Value::Text("日本語 ✓".into()),
                Value::Null,
            ],
        ] {
            conn.execute_values("ins", &row).unwrap();
        }
        conn.exec(sql).unwrap()
    }

    #[test]
    fn every_attempt_starts_from_an_empty_sink() {
        // What a sink holds is not part of the next statement's result:
        // a retried attempt delivers its rows once.
        let db = Database::new(DatabaseOptions::default());
        let conn = db.connect();
        conn.exec("CREATE TABLE n (id integer)").unwrap();
        conn.exec("INSERT INTO n VALUES (-7)").unwrap();
        let mut out = QueryResult {
            rows: vec![vec![Value::Int(99)]],
            rendered: vec![vec!["99".into()]],
            ..Default::default()
        };
        let head = conn.exec_to("SELECT id FROM n", &mut out).unwrap();
        assert_eq!(head.columns, ["id"]);
        assert!(head.rows.is_empty());
        assert_eq!(out.rows, [[Value::Int(-7)]]);
        assert!(out.rendered.is_empty());
    }

    #[test]
    fn text_is_the_servers_or_each_values_display() {
        // An opaque column: the output function's text, made at execution.
        let r = result_of("SELECT * FROM v");
        assert_eq!(r.rendered.len(), 2);
        let want = [
            ["-7", "05/19/1997", "t", "Bliujūtė", "(3; 4)"],
            ["NULL", "NULL", "f", "日本語 ✓", "NULL"],
        ];
        assert!(matches!(r.text(), Cow::Borrowed(_)));
        assert_eq!(r.text()[..], want);
        assert_eq!(
            r.to_table(),
            "id   | d          | b | t        | p     \n\
             -----+------------+---+----------+-------\n\
             -7   | 05/19/1997 | t | Bliujūtė | (3; 4)\n\
             NULL | NULL       | f | 日本語 ✓    | NULL  \n"
        );
        // No opaque column: nothing is rendered until someone asks, and
        // then each value's `Display`.
        let r = result_of("SELECT t, id, b, d FROM v");
        assert!(r.rendered.is_empty());
        assert!(matches!(r.text(), Cow::Owned(_)));
        assert_eq!(
            r.text()[..],
            [
                ["Bliujūtė", "-7", "t", "05/19/1997"],
                ["日本語 ✓", "NULL", "f", "NULL"],
            ]
        );
    }
}
