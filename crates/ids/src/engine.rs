//! The database engine: sessions, statement execution, and the
//! purpose-function call sequences of Figure 6.

use crate::catalog::{AmEntry, Catalog, IndexMeta, TableMeta};
use crate::heap;
use crate::opaque::OpaqueType;
use crate::opclass::{OpClass, OpClassRegistry};
use crate::planner::{self, Candidate, Plan};
use crate::prepare::{self, CompiledStatement, PlanCache, PlanChoice};
use crate::session::{MemDuration, Session};
use crate::sql::{self, Expr, Lit, SelectCols, Statement};
use crate::trace::TraceSink;
use crate::udr::{Routine, RoutineFn, UdrRegistry};
use crate::value::{DataType, Value};
use crate::vii::{AccessMethod, AmContext, IndexDescriptor, RowId, ScanDescriptor};
use crate::{IdsError, Result};
use grt_metrics::{Counter, Histogram, Metrics, MetricsSnapshot};
use grt_sbspace::{
    IsolationLevel, LoHandle, LoId, LockMode, PageSource, SbError, Sbspace, SbspaceOptions,
    SpaceSnapshot, Txn, TxnEnd,
};
use grt_temporal::{Clock, MockClock};
use parking_lot::Mutex;
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
    /// Default parallel-scan degree offered to access methods for index
    /// scans (and used by the planner when costing them). `1` keeps
    /// every scan serial; sessions override it with `SET PARALLEL n`.
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
pub(crate) struct EngineCounters {
    pub statements: Counter,
    pub statement_errors: Counter,
    pub stmt_retries: Counter,
    pub plans_index: Counter,
    pub plans_seq: Counter,
    pub udr_calls: Counter,
    /// Base rows fetched for index scans, and the distinct heap pages
    /// pinned to fetch them (`scan.heap_rows` / `scan.heap_pages`,
    /// bumped once per statement).
    pub heap_rows: Counter,
    pub heap_pages: Counter,
    /// `PREPARE`d statement handles opened / closed (DEALLOCATE,
    /// re-PREPARE, or connection drop) — equal when nothing leaks.
    pub prepared_opened: Counter,
    pub prepared_closed: Counter,
    /// Sessions opened by [`Database::connect`] / closed by
    /// [`Connection::close`] (or drop) — equal when no session leaks,
    /// which is the reconciliation a network server checks at shutdown.
    pub sessions_opened: Counter,
    pub sessions_closed: Counter,
    /// Purpose-function invocations by slot (`am.am_insert`, ...).
    pub am_calls: HashMap<&'static str, Counter>,
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

/// Compensation applied to the (non-transactional, in-memory) catalog
/// when the transaction that performed a piece of DDL aborts: the
/// storage side rolls back through the sbspace log, the catalog side
/// through these records, applied in reverse order.
enum CatalogUndo {
    /// Undo of `DROP TABLE`.
    ReinsertTable(TableMeta),
    /// Undo of `CREATE TABLE` (catalog key).
    RemoveTable(String),
    /// Undo of `DROP INDEX`, with the index's root-fragment registry
    /// entry captured before `am_drop` tore it down.
    ReinsertIndex(IndexMeta, Option<u32>),
    /// Undo of `CREATE INDEX` (catalog key).
    RemoveIndex(String),
}

pub(crate) struct DbInner {
    pub space: Sbspace,
    pub catalog: Arc<Mutex<Catalog>>,
    pub udrs: Mutex<UdrRegistry>,
    /// Bumped on every routine-registry mutation (CREATE / DROP / ALTER
    /// FUNCTION); sessions discard their memoized routine resolutions
    /// when it moves (see [`Connection::resolve_udr`]).
    pub udr_generation: AtomicU64,
    pub opaques: Mutex<HashMap<String, OpaqueType>>,
    pub opclasses: Mutex<OpClassRegistry>,
    /// Loaded "shared libraries" providing access-method handlers,
    /// keyed by library file name (e.g. `grtree.bld`).
    pub libraries: Mutex<HashMap<String, Arc<dyn AccessMethod>>>,
    pub clock: Arc<dyn Clock>,
    pub trace: TraceSink,
    /// The unified registry, shared with the sbspace underneath.
    pub metrics: Arc<Metrics>,
    pub counters: EngineCounters,
    /// Wall-clock statement latency.
    pub exec_ns: Histogram,
    /// Rows returned per `am_getnext_batch` call (`scan.batch_rows`;
    /// the histogram's mean is the average batch fill).
    pub batch_rows: Histogram,
    /// The per-database plan cache (tentpole of the compile-once,
    /// execute-many path).
    pub plan_cache: Arc<PlanCache>,
    /// Catalog compensation records per open transaction, applied in
    /// reverse on abort (see [`CatalogUndo`]).
    txn_undo: Arc<Mutex<HashMap<u64, Vec<CatalogUndo>>>>,
    /// Rows pulled per batched index-scan fetch
    /// ([`DatabaseOptions::scan_batch_rows`]).
    scan_batch_rows: usize,
    /// Automatic retry budget for deadlock-victim auto-commit
    /// statements ([`DatabaseOptions::deadlock_retries`]).
    deadlock_retries: u32,
    /// Initial retry backoff, doubled per attempt.
    retry_backoff: Duration,
    /// Default parallel-scan degree ([`DatabaseOptions::scan_workers`]).
    scan_workers: usize,
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
    pub(crate) inner: Arc<DbInner>,
}

/// A client connection: a session plus transaction state.
pub struct Connection {
    db: Database,
    session: Arc<Session>,
    txn: Mutex<Option<Txn>>,
    iso: Mutex<IsolationLevel>,
    /// Span id of the statement currently executing (0 between
    /// statements); stamped on trace events emitted on its behalf.
    span: AtomicU64,
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
    /// The compiled statement behind the statement currently executing,
    /// consulted by the planner for its memoized plan choice. Set for
    /// the duration of `execute_with_retry` only.
    current_compiled: Mutex<Option<Arc<CompiledStatement>>>,
    /// Memoized routine resolutions (see [`Connection::resolve_udr`]).
    udr_cache: Mutex<UdrCache>,
    /// Set once by [`Connection::close`] so an explicit close followed
    /// by the drop does not double-count the session teardown.
    closed: AtomicBool,
    /// True while the statement currently executing runs inside an
    /// explicit transaction (stamped by [`Connection::with_txn`]).
    in_explicit: AtomicBool,
    /// Set once an explicit transaction runs any non-SELECT statement:
    /// later reads in that transaction must see its own uncommitted
    /// writes, so they leave the snapshot path until the transaction
    /// ends (the first-write-switches-to-locked rule).
    wrote: AtomicBool,
    /// The snapshot pinned by a REPEATABLE READ explicit transaction at
    /// its first snapshot-eligible read: every later read reuses it, so
    /// the whole transaction sees one consistent view without holding
    /// shared locks. Cleared at COMMIT/ROLLBACK (and on victim abort).
    pinned_snapshot: Mutex<Option<Arc<SpaceSnapshot>>>,
    /// The snapshot the statement currently executing reads from, if it
    /// took the snapshot path; [`Connection::ctx`] hands it to the
    /// access methods. Cleared when the statement finishes.
    active_snapshot: Mutex<Option<Arc<SpaceSnapshot>>>,
}

/// One memoized routine lookup: the argument types it resolved for (as
/// produced by [`Value::data_type`]) and the winning overload.
struct ResolvedUdr {
    types: Vec<Option<DataType>>,
    routine: Arc<Routine>,
}

/// Session-local memo of routine resolutions, keyed by the name as
/// written in the expression. Expression evaluation calls a routine
/// once per *row*; without the memo every row of a sequential scan
/// locks the shared registry and re-runs overload resolution. Entries
/// are dropped wholesale whenever [`DbInner::udr_generation`] moves
/// (any function DDL).
#[derive(Default)]
struct UdrCache {
    generation: u64,
    entries: HashMap<String, Vec<ResolvedUdr>>,
}

/// True when a cached argument-type slot matches the value — exactly
/// `*slot == value.data_type()`, without materializing the type (which
/// clones the type name for opaque values).
fn udr_type_matches(slot: &Option<DataType>, value: &Value) -> bool {
    match (slot, value) {
        (None, Value::Null) => true,
        (Some(DataType::Integer), Value::Int(_)) => true,
        (Some(DataType::Text), Value::Text(_)) => true,
        (Some(DataType::Date), Value::Date(_)) => true,
        (Some(DataType::Boolean), Value::Bool(_)) => true,
        (Some(DataType::Opaque(n)), Value::Opaque { type_name, .. }) => n == type_name,
        _ => false,
    }
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
    /// Rows rendered through the type support functions.
    pub rendered: Vec<Vec<String>>,
    /// Status message for non-queries.
    pub message: String,
}

impl Database {
    /// Boots a database over an in-memory sbspace.
    pub fn new(opts: DatabaseOptions) -> Database {
        let DatabaseOptions {
            mut space,
            clock,
            deadlock_retries,
            retry_backoff,
            scan_workers,
            plan_cache_size,
            scan_batch_rows,
            checkpoint_interval,
            wal_segment_bytes,
        } = opts;
        space.checkpoint_interval = checkpoint_interval;
        space.wal_segment_bytes = wal_segment_bytes;
        let space = Sbspace::mem(space);
        Self::boot(
            space,
            clock,
            deadlock_retries,
            retry_backoff,
            scan_workers,
            plan_cache_size,
            scan_batch_rows,
        )
    }

    /// Boots a database over an existing sbspace (e.g. file-backed),
    /// with the default retry policy.
    pub fn with_space(space: Sbspace, clock: Arc<dyn Clock>) -> Database {
        let defaults = DatabaseOptions::default();
        Self::boot(
            space,
            clock,
            defaults.deadlock_retries,
            defaults.retry_backoff,
            defaults.scan_workers,
            defaults.plan_cache_size,
            defaults.scan_batch_rows,
        )
    }

    fn boot(
        space: Sbspace,
        clock: Arc<dyn Clock>,
        deadlock_retries: u32,
        retry_backoff: Duration,
        scan_workers: usize,
        plan_cache_size: usize,
        scan_batch_rows: usize,
    ) -> Database {
        // The sbspace already registered its I/O counters; the engine
        // joins the same registry so one snapshot covers every layer.
        let metrics = space.metrics();
        let txn_sessions: Arc<Mutex<HashMap<u64, Arc<Session>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let catalog: Arc<Mutex<Catalog>> = Arc::new(Mutex::new(Catalog::default()));
        let plan_cache = Arc::new(PlanCache::new(plan_cache_size, &metrics));
        let txn_undo: Arc<Mutex<HashMap<u64, Vec<CatalogUndo>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let cb_map = Arc::clone(&txn_sessions);
        let cb_undo = Arc::clone(&txn_undo);
        let cb_catalog = Arc::clone(&catalog);
        let cb_cache = Arc::clone(&plan_cache);
        space.on_txn_end(move |txn, end: TxnEnd| {
            if let Some(session) = cb_map.lock().remove(&txn.0) {
                session.clear_duration(MemDuration::PerTransaction);
            }
            // DDL undo: a rolled-back transaction takes its catalog
            // changes with it. The compensation records are applied in
            // reverse, then the plan cache drops every compiled
            // statement touching the affected tables.
            let ops = cb_undo.lock().remove(&txn.0);
            if end == TxnEnd::Abort {
                if let Some(ops) = ops {
                    let mut affected: Vec<String> = Vec::new();
                    {
                        let mut cat = cb_catalog.lock();
                        for op in ops.into_iter().rev() {
                            match op {
                                CatalogUndo::ReinsertTable(meta) => {
                                    let key = meta.name.to_ascii_lowercase();
                                    affected.push(key.clone());
                                    cat.tables.insert(key, meta);
                                }
                                CatalogUndo::RemoveTable(key) => {
                                    affected.push(key.clone());
                                    cat.tables.remove(&key);
                                }
                                CatalogUndo::ReinsertIndex(meta, frag) => {
                                    affected.push(meta.table.to_ascii_lowercase());
                                    if let Some(page) = frag {
                                        cat.fragments.lock().insert(meta.name.clone(), page);
                                    }
                                    cat.indices.insert(meta.name.to_ascii_lowercase(), meta);
                                }
                                CatalogUndo::RemoveIndex(key) => {
                                    if let Some(meta) = cat.indices.remove(&key) {
                                        affected.push(meta.table.to_ascii_lowercase());
                                        cat.fragments.lock().remove(&meta.name);
                                    }
                                }
                            }
                        }
                    }
                    for table in affected {
                        cb_cache.invalidate_table(&table);
                    }
                }
            }
        });
        let trace = TraceSink::new();
        metrics.adopt_counter("trace.dropped", trace.dropped_counter());
        // Alias the storage lock counters under the engine-facing
        // `lock.*` names (same cells — no double counting).
        let io = space.stats();
        metrics.adopt_counter("lock.waits", io.lock_waits.clone());
        metrics.adopt_counter("lock.deadlocks", io.deadlocks.clone());
        let counters = EngineCounters::registered(&metrics);
        let exec_ns = metrics.histogram("ids.exec_ns");
        let batch_rows = metrics.histogram("scan.batch_rows");
        Database {
            inner: Arc::new(DbInner {
                space,
                catalog,
                udrs: Mutex::new(UdrRegistry::default()),
                udr_generation: AtomicU64::new(0),
                opaques: Mutex::new(HashMap::new()),
                opclasses: Mutex::new(OpClassRegistry::default()),
                libraries: Mutex::new(HashMap::new()),
                clock,
                trace,
                metrics,
                counters,
                exec_ns,
                batch_rows,
                plan_cache,
                txn_undo,
                scan_batch_rows: scan_batch_rows.max(1),
                deadlock_retries,
                retry_backoff,
                scan_workers: scan_workers.max(1),
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
            span: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
            prepared: Mutex::new(HashMap::new()),
            current_compiled: Mutex::new(None),
            udr_cache: Mutex::new(UdrCache::default()),
            closed: AtomicBool::new(false),
            in_explicit: AtomicBool::new(false),
            wrote: AtomicBool::new(false),
            pinned_snapshot: Mutex::new(None),
            active_snapshot: Mutex::new(None),
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
        Arc::clone(&self.inner.clock)
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
        if name.eq_ignore_ascii_case("sysmetrics") {
            let snap = self.inner.metrics.snapshot();
            let mut rows: Vec<Vec<Value>> = snap
                .counters
                .iter()
                .map(|(k, &v)| vec![Value::Text(k.clone()), Value::Int(v as i64)])
                .collect();
            // Gauges report their current level next to the counters.
            for (k, &v) in &snap.gauges {
                rows.push(vec![Value::Text(k.clone()), Value::Int(v as i64)]);
            }
            // Histograms surface as count/mean/p50/p99 pseudo-counters
            // so the whole registry fits one two-column relation. The
            // percentiles are bucket upper bounds, in the histogram's
            // own unit (its name says which: `_ns`, `_bytes`, rows).
            for (k, h) in &snap.histograms {
                rows.push(vec![
                    Value::Text(format!("{k}.count")),
                    Value::Int(h.count as i64),
                ]);
                rows.push(vec![
                    Value::Text(format!("{k}.mean_ns")),
                    Value::Int(h.mean_ns() as i64),
                ]);
                for (suffix, q) in [("p50", 0.5), ("p99", 0.99)] {
                    // The overflow bucket's bound is `u64::MAX`.
                    let bound = h.quantile_bound_ns(q).min(i64::MAX as u64);
                    rows.push(vec![
                        Value::Text(format!("{k}.{suffix}")),
                        Value::Int(bound as i64),
                    ]);
                }
            }
            return Ok((vec!["name".into(), "value".into()], rows));
        }
        if name.eq_ignore_ascii_case("sysprocedures") {
            let udrs = self.inner.udrs.lock();
            let rows = udrs
                .all()
                .iter()
                .map(|r| {
                    vec![
                        Value::Text(r.name.clone()),
                        Value::Text(
                            r.arg_types
                                .iter()
                                .map(|t| t.to_string())
                                .collect::<Vec<_>>()
                                .join(", "),
                        ),
                        Value::Text(r.ret_type.to_string()),
                        Value::Text(r.external_name.clone()),
                    ]
                })
                .collect();
            return Ok((
                vec![
                    "name".into(),
                    "args".into(),
                    "returns".into(),
                    "external".into(),
                ],
                rows,
            ));
        }
        if name.eq_ignore_ascii_case("sysopclasses") {
            let ocs = self.inner.opclasses.lock();
            let rows = ocs
                .all()
                .iter()
                .map(|c| {
                    vec![
                        Value::Text(c.name.clone()),
                        Value::Text(c.access_method.clone()),
                        Value::Text(c.strategies.join(", ")),
                        Value::Text(c.supports.join(", ")),
                    ]
                })
                .collect();
            return Ok((
                vec![
                    "opclass".into(),
                    "am".into(),
                    "strategies".into(),
                    "support".into(),
                ],
                rows,
            ));
        }
        self.inner.catalog.lock().dump(name)
    }
}

impl Connection {
    /// The session behind this connection.
    pub fn session(&self) -> Arc<Session> {
        Arc::clone(&self.session)
    }

    /// The database handle.
    pub fn database(&self) -> Database {
        self.db.clone()
    }

    /// Executes one SQL statement.
    ///
    /// An auto-commit statement whose transaction is aborted as a
    /// deadlock (or lock-timeout) victim is retried here automatically,
    /// up to [`DatabaseOptions::deadlock_retries`] times with bounded
    /// exponential backoff. Each attempt runs in a fresh transaction;
    /// per-statement named memory is cleared between attempts (the
    /// Section 5.4 `PerStatement` current time re-resolves) while
    /// preserved `PerTransaction` memory carries over the victim abort.
    pub fn exec(&self, sql_text: &str) -> Result<QueryResult> {
        // The EXECUTE hot path: the named statement was compiled at
        // PREPARE, so the transparent-cache normalization below would
        // only re-lex text whose compiled form we already hold. Parse
        // the short EXECUTE statement directly instead.
        let head = sql_text.trim_start().as_bytes();
        if head.len() > 7
            && head[..7].eq_ignore_ascii_case(b"EXECUTE")
            && head[7].is_ascii_whitespace()
        {
            return self.dispatch(sql::parse(sql_text)?, None);
        }
        // Phase 1+2 (parse, verify/resolve) are served from the
        // transparent plan cache when the normalized statement text has
        // been seen before; a cache hit never parses at all.
        if let Some(normalized) = sql::normalize_dml(sql_text)? {
            let args: Vec<Value> = normalized.args.iter().map(Self::literal_value).collect();
            let compiled = match self.db.inner.plan_cache.get(&normalized.key) {
                Some(compiled) => compiled,
                None => {
                    let key = normalized.key.clone();
                    let Ok(stmt) = normalized.parse() else {
                        // Surface the parse error with the original
                        // (unlifted) statement text.
                        return self.dispatch(sql::parse(sql_text)?, None);
                    };
                    match self.resolve(stmt, Some(key)) {
                        Ok(compiled) => {
                            let compiled = Arc::new(compiled);
                            self.db.inner.plan_cache.insert(Arc::clone(&compiled));
                            compiled
                        }
                        // Unresolvable (e.g. unknown table): run the
                        // statement uncached so the error surfaces
                        // exactly as it always has.
                        Err(_) => return self.dispatch(sql::parse(sql_text)?, None),
                    }
                }
            };
            let stmt = prepare::bind(&compiled.stmt, &args)?;
            return self.dispatch(stmt, Some(compiled));
        }
        self.dispatch(sql::parse(sql_text)?, None)
    }

    /// Executes a semicolon-separated script, returning the last result.
    pub fn exec_script(&self, script: &str) -> Result<QueryResult> {
        let mut last = QueryResult::default();
        for stmt in sql::parse_script(script)? {
            last = self.dispatch(stmt, None)?;
        }
        Ok(last)
    }

    /// Compiles `sql_text` under `name` — the programmatic form of
    /// `PREPARE name FROM '<sql>'`, for drivers (network or embedded)
    /// that carry the statement text out of band and must not worry
    /// about re-quoting it into SQL.
    pub fn prepare(&self, name: &str, sql_text: &str) -> Result<QueryResult> {
        self.execute_with_retry(
            Statement::Prepare {
                name: name.to_string(),
                sql: sql_text.to_string(),
            },
            None,
        )
    }

    /// Runs the prepared statement `name` with already-materialized
    /// parameter values — the programmatic form of `EXECUTE name USING
    /// …` used by drivers whose bindings arrive as [`Value`]s (e.g.
    /// decoded off a wire protocol) rather than SQL literals. The same
    /// bind-time arity and type checks apply: a bad binding never
    /// starts a transaction.
    pub fn execute_values(&self, name: &str, args: &[Value]) -> Result<QueryResult> {
        let compiled = self
            .prepared
            .lock()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| IdsError::NotFound(format!("prepared statement {name}")))?;
        if args.len() != compiled.n_params {
            return Err(IdsError::Type(format!(
                "prepared statement {name} takes {} parameters, {} given",
                compiled.n_params,
                args.len()
            )));
        }
        let mut bound = Vec::with_capacity(args.len());
        for (v, expected) in args.iter().zip(&compiled.param_types) {
            bound.push(match expected {
                Some(ty) => self
                    .coerce(v.clone(), ty)
                    .map_err(|e| IdsError::Type(format!("binding parameters of {name}: {e}")))?,
                None => v.clone(),
            });
        }
        let stmt = prepare::bind(&compiled.stmt, &bound)?;
        self.execute_with_retry(stmt, Some(compiled))
    }

    /// Drops the prepared statement `name` — the programmatic form of
    /// `DEALLOCATE PREPARE name`.
    pub fn deallocate(&self, name: &str) -> Result<QueryResult> {
        self.execute_with_retry(
            Statement::Deallocate {
                name: name.to_string(),
            },
            None,
        )
    }

    /// Disconnects the session: any open explicit transaction is
    /// aborted (its locks released), surviving `PREPARE`d handles are
    /// deallocated so `ids.prepared_opened == ids.prepared_closed`
    /// reconciles, and per-session named memory is freed. Idempotent —
    /// a server reaping a dead network connection calls it explicitly,
    /// and the eventual drop becomes a no-op. Called automatically on
    /// drop.
    pub fn close(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        // Abort-on-disconnect: a client that vanishes mid-transaction
        // must not leave its locks held. `Txn::drop` aborts the
        // storage side; taking it out of the slot makes that happen
        // now rather than at connection drop.
        if let Some(txn) = self.txn.lock().take() {
            let _ = txn.abort();
        }
        self.reset_snapshot_state();
        *self.active_snapshot.lock() = None;
        self.aborted.store(false, Ordering::SeqCst);
        let leaked = {
            let mut prepared = self.prepared.lock();
            let n = prepared.len() as u64;
            prepared.clear();
            n
        };
        let counters = &self.db.inner.counters;
        counters.prepared_closed.add(leaked);
        counters.sessions_closed.inc();
        self.session.clear_duration(MemDuration::PerStatement);
        self.session.clear_duration(MemDuration::PerTransaction);
        self.session.clear_duration(MemDuration::PerSession);
    }

    /// True once [`Connection::close`] has run (explicitly or via
    /// drop); a closed connection refuses further statements.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Routes a parsed statement: top-level `EXECUTE` runs its bound
    /// prepared statement (counting as one statement); everything else
    /// goes straight to the retry loop.
    fn dispatch(
        &self,
        stmt: Statement,
        compiled: Option<Arc<CompiledStatement>>,
    ) -> Result<QueryResult> {
        if let Statement::Execute { name, using } = stmt {
            return self.execute_prepared(&name, &using);
        }
        self.execute_with_retry(stmt, compiled)
    }

    /// `EXECUTE name [USING v1, …]`: bind-time checks (the statement
    /// never starts executing on an arity or type error), then the
    /// normal execution path with the compiled handle attached.
    fn execute_prepared(&self, name: &str, using: &[Expr]) -> Result<QueryResult> {
        let mut args = Vec::with_capacity(using.len());
        for expr in using {
            let Expr::Literal(lit) = expr else {
                return Err(IdsError::Semantic(
                    "EXECUTE ... USING accepts literal values".into(),
                ));
            };
            args.push(Self::literal_value(lit));
        }
        self.execute_values(name, &args)
    }

    /// True for errors produced by a transaction aborted as a
    /// concurrency victim — the only errors worth retrying.
    fn is_retryable(e: &IdsError) -> bool {
        matches!(
            e,
            IdsError::Storage(SbError::Deadlock(_)) | IdsError::Storage(SbError::LockTimeout(_))
        )
    }

    fn execute_with_retry(
        &self,
        stmt: Statement,
        compiled: Option<Arc<CompiledStatement>>,
    ) -> Result<QueryResult> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(IdsError::Semantic("connection is closed".into()));
        }
        *self.current_compiled.lock() = compiled;
        let out = self.retry_loop(stmt);
        *self.current_compiled.lock() = None;
        out
    }

    fn retry_loop(&self, stmt: Statement) -> Result<QueryResult> {
        let inner = &self.db.inner;
        let mut attempt = 0u32;
        loop {
            // Retry is only sound for auto-commit statements: inside an
            // explicit transaction the failed statement is not the whole
            // unit of work, so the error must surface to the client.
            let auto_commit = !self.aborted.load(Ordering::SeqCst) && self.txn.lock().is_none();
            let out = self.execute(stmt.clone());
            self.session.clear_duration(MemDuration::PerStatement);
            match out {
                Err(ref e)
                    if auto_commit && Self::is_retryable(e) && attempt < inner.deadlock_retries =>
                {
                    let backoff = inner.retry_backoff.saturating_mul(1 << attempt.min(16));
                    attempt += 1;
                    inner.counters.stmt_retries.inc();
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
                out => {
                    if out.is_err() && auto_commit {
                        // Retries exhausted (or the error was never
                        // retryable): drop any per-transaction memory
                        // preserved for a retry that will not happen.
                        self.session.clear_duration(MemDuration::PerTransaction);
                    }
                    return out;
                }
            }
        }
    }

    fn execute(&self, stmt: Statement) -> Result<QueryResult> {
        let inner = &self.db.inner;
        inner.counters.statements.inc();
        self.span.store(
            inner.next_span.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
        let started = std::time::Instant::now();
        let out = self.execute_stmt(stmt);
        inner.exec_ns.observe(started.elapsed());
        if out.is_err() {
            inner.counters.statement_errors.inc();
        }
        self.span.store(0, Ordering::Relaxed);
        out
    }

    fn execute_stmt(&self, stmt: Statement) -> Result<QueryResult> {
        // A failed statement aborted the explicit transaction; refuse
        // everything except the closing COMMIT/ROLLBACK so the client
        // cannot mistake later statements for part of the transaction.
        if self.aborted.load(Ordering::SeqCst)
            && !matches!(stmt, Statement::Commit | Statement::Rollback)
        {
            return Err(IdsError::Semantic(
                "current transaction is aborted; statements ignored until ROLLBACK WORK".into(),
            ));
        }
        match stmt {
            Statement::Begin => {
                let mut guard = self.txn.lock();
                if guard.is_some() {
                    return Err(IdsError::Semantic("transaction already open".into()));
                }
                let txn = self.begin_txn();
                *guard = Some(txn);
                self.reset_snapshot_state();
                Ok(msg("transaction started"))
            }
            Statement::Commit => {
                self.reset_snapshot_state();
                if self.aborted.swap(false, Ordering::SeqCst) {
                    // The transaction was already rolled back on error;
                    // COMMIT closes the block but reports the truth.
                    return Ok(msg("rolled back (transaction aborted by an earlier error)"));
                }
                let txn = self
                    .txn
                    .lock()
                    .take()
                    .ok_or_else(|| IdsError::Semantic("no open transaction".into()))?;
                txn.commit()?;
                Ok(msg("committed"))
            }
            Statement::Rollback => {
                self.reset_snapshot_state();
                if self.aborted.swap(false, Ordering::SeqCst) {
                    return Ok(msg("rolled back"));
                }
                let txn = self
                    .txn
                    .lock()
                    .take()
                    .ok_or_else(|| IdsError::Semantic("no open transaction".into()))?;
                txn.abort()?;
                Ok(msg("rolled back"))
            }
            Statement::SetIsolation { level } => {
                let iso = match level.to_ascii_uppercase().as_str() {
                    "REPEATABLE READ" => IsolationLevel::RepeatableRead,
                    "COMMITTED READ" | "READ COMMITTED" => IsolationLevel::ReadCommitted,
                    other => return Err(IdsError::Semantic(format!("unknown isolation {other}"))),
                };
                *self.iso.lock() = iso;
                Ok(msg("isolation set"))
            }
            Statement::SetTrace {
                class,
                level,
                session,
            } => {
                let trace = &self.db.inner.trace;
                match (class, level, session) {
                    (Some(c), Some(l), false) => trace.on(&c, l),
                    (Some(c), None, false) => trace.off(&c),
                    (Some(c), Some(l), true) => trace.on_session(self.session.id(), &c, l),
                    (Some(c), None, true) => trace.off_session(self.session.id(), Some(&c)),
                    (None, _, true) => trace.off_session(self.session.id(), None),
                    (None, _, false) => {
                        return Err(IdsError::Semantic(
                            "SET TRACE without a class is session-scoped only".into(),
                        ))
                    }
                }
                Ok(msg("trace updated"))
            }
            Statement::SetExplain { on } => {
                // EXPLAIN rides the trace facility: the planner emits
                // class "EXPLAIN" events, enabled here per session.
                if on {
                    self.db
                        .inner
                        .trace
                        .on_session(self.session.id(), "EXPLAIN", 1);
                } else {
                    self.db
                        .inner
                        .trace
                        .off_session(self.session.id(), Some("EXPLAIN"));
                }
                Ok(msg("explain updated"))
            }
            Statement::SetParallel { workers } => {
                // Session-scoped override of the engine's default scan
                // degree; access methods read it back through the named
                // memory they share with the engine.
                self.session.put_named(
                    "parallel_workers",
                    MemDuration::PerSession,
                    (workers as usize).max(1),
                );
                Ok(msg("parallel degree set"))
            }
            Statement::Prepare { name, sql } => self.prepare_statement(&name, &sql),
            Statement::Deallocate { name } => {
                if self
                    .prepared
                    .lock()
                    .remove(&name.to_ascii_lowercase())
                    .is_none()
                {
                    return Err(IdsError::NotFound(format!("prepared statement {name}")));
                }
                self.db.inner.counters.prepared_closed.inc();
                Ok(msg(&format!("statement {name} deallocated")))
            }
            Statement::Execute { .. } => Err(IdsError::Semantic(
                "EXECUTE must be a top-level statement".into(),
            )),
            other => self.with_txn(|txn| self.run(other.clone(), txn)),
        }
    }

    /// `PREPARE name FROM '<sql>'`: parse and resolve now (errors are
    /// prepare-time), plan lazily on first EXECUTE.
    fn prepare_statement(&self, name: &str, sql_text: &str) -> Result<QueryResult> {
        let stmt = sql::parse(sql_text)?;
        if matches!(
            stmt,
            Statement::Prepare { .. }
                | Statement::Execute { .. }
                | Statement::Deallocate { .. }
                | Statement::Begin
                | Statement::Commit
                | Statement::Rollback
        ) {
            return Err(IdsError::Semantic(format!(
                "statement cannot be prepared: {sql_text}"
            )));
        }
        let compiled = Arc::new(self.resolve(stmt, None)?);
        self.db.inner.plan_cache.register(&compiled);
        let replaced = self
            .prepared
            .lock()
            .insert(name.to_ascii_lowercase(), compiled);
        let counters = &self.db.inner.counters;
        if replaced.is_some() {
            // Re-PREPARE under the same name closes the old handle.
            counters.prepared_closed.inc();
        }
        counters.prepared_opened.inc();
        Ok(msg(&format!("statement {name} prepared")))
    }

    /// Phase 2 of statement execution — verify/resolve: check the
    /// statement against the catalog and infer the types of its
    /// parameter slots, so `EXECUTE … USING` can reject mismatched
    /// values at bind time.
    fn resolve(&self, stmt: Statement, key: Option<String>) -> Result<CompiledStatement> {
        let n_params = sql::param_count(&stmt);
        let mut param_types: Vec<Option<DataType>> = vec![None; n_params];
        let mut tables = Vec::new();
        let table_name = match &stmt {
            Statement::Insert { table, .. }
            | Statement::Select { table, .. }
            | Statement::Delete { table, .. }
            | Statement::Update { table, .. } => Some(table.clone()),
            _ => None,
        };
        if let Some(tname) = &table_name {
            let table = self.db.inner.catalog.lock().table(tname)?.clone();
            tables.push(tname.to_ascii_lowercase());
            match &stmt {
                Statement::Insert { values, .. } => {
                    if values.len() != table.columns.len() {
                        return Err(IdsError::Semantic(format!(
                            "table {tname} has {} columns, {} values given",
                            table.columns.len(),
                            values.len()
                        )));
                    }
                    for (expr, (_, ty)) in values.iter().zip(&table.columns) {
                        self.infer_param_types(expr, Some(ty), &table, &mut param_types)?;
                    }
                }
                Statement::Select { where_clause, .. } | Statement::Delete { where_clause, .. } => {
                    if let Some(w) = where_clause {
                        self.validate_expr(w, &table)?;
                        self.infer_param_types(w, None, &table, &mut param_types)?;
                    }
                }
                Statement::Update {
                    sets, where_clause, ..
                } => {
                    for (col, expr) in sets {
                        let i = table.column_index(col)?;
                        let ty = table.columns[i].1.clone();
                        self.validate_expr(expr, &table)?;
                        self.infer_param_types(expr, Some(&ty), &table, &mut param_types)?;
                    }
                    if let Some(w) = where_clause {
                        self.validate_expr(w, &table)?;
                        self.infer_param_types(w, None, &table, &mut param_types)?;
                    }
                }
                _ => {}
            }
        }
        Ok(CompiledStatement {
            key,
            stmt,
            n_params,
            param_types,
            tables,
            plan: Mutex::new(None),
        })
    }

    /// Walks an expression assigning a type to every `?` slot that sits
    /// in a position whose type is known: INSERT values and UPDATE SET
    /// take their column's type, comparison operands the type of the
    /// other side, routine arguments the declared type when the routine
    /// resolves unambiguously by name and arity. Slots in opaque
    /// positions stay untyped and are checked at execution.
    fn infer_param_types(
        &self,
        expr: &Expr,
        expected: Option<&DataType>,
        table: &TableMeta,
        out: &mut Vec<Option<DataType>>,
    ) -> Result<()> {
        match expr {
            Expr::Param(i) => {
                if let (Some(ty), Some(slot)) = (expected, out.get_mut(*i)) {
                    if slot.is_none() {
                        *slot = Some(ty.clone());
                    }
                }
                Ok(())
            }
            Expr::Call { name, args } => {
                let declared: Option<Vec<DataType>> = {
                    let udrs = self.db.inner.udrs.lock();
                    let mut matching = udrs
                        .all()
                        .into_iter()
                        .filter(|r| {
                            r.name.eq_ignore_ascii_case(name) && r.arg_types.len() == args.len()
                        })
                        .map(|r| r.arg_types.clone());
                    match (matching.next(), matching.next()) {
                        (Some(sig), None) => Some(sig),
                        _ => None,
                    }
                };
                for (i, a) in args.iter().enumerate() {
                    self.infer_param_types(a, declared.as_ref().map(|s| &s[i]), table, out)?;
                }
                Ok(())
            }
            Expr::Cmp { left, right, .. } => {
                let side_type = |e: &Expr| -> Option<DataType> {
                    match e {
                        Expr::Column(c) => table.column_type(c).ok().cloned(),
                        Expr::Literal(lit) => Self::literal_value(lit).data_type(),
                        _ => None,
                    }
                };
                let lt = side_type(left);
                let rt = side_type(right);
                self.infer_param_types(left, rt.as_ref(), table, out)?;
                self.infer_param_types(right, lt.as_ref(), table, out)
            }
            Expr::And(parts) | Expr::Or(parts) => parts
                .iter()
                .try_for_each(|p| self.infer_param_types(p, None, table, out)),
            Expr::Not(inner) => self.infer_param_types(inner, None, table, out),
            Expr::Literal(_) | Expr::Column(_) | Expr::Bound(_) => Ok(()),
        }
    }

    /// Records a catalog compensation to run if `txn` aborts.
    fn register_undo(&self, txn: &Txn, op: CatalogUndo) {
        self.db
            .inner
            .txn_undo
            .lock()
            .entry(txn.id().0)
            .or_default()
            .push(op);
    }

    fn begin_txn(&self) -> Txn {
        let txn = self.db.inner.space.begin(*self.iso.lock());
        self.db
            .inner
            .txn_sessions
            .lock()
            .insert(txn.id().0, Arc::clone(&self.session));
        txn
    }

    fn with_txn<F: FnOnce(&Txn) -> Result<QueryResult>>(&self, f: F) -> Result<QueryResult> {
        let mut guard = self.txn.lock();
        if guard.is_some() {
            self.in_explicit.store(true, Ordering::SeqCst);
            let out = f(guard.as_ref().expect("checked"));
            if out.is_err() {
                // Abort-on-error: the explicit transaction cannot
                // continue past a failed statement. Roll it back right
                // here — the victim's locks must not outlive the error
                // — and poison the connection until ROLLBACK WORK.
                let txn = guard.take().expect("checked");
                drop(guard);
                let _ = txn.abort();
                self.reset_snapshot_state();
                self.aborted.store(true, Ordering::SeqCst);
            }
            return out;
        }
        drop(guard);
        self.in_explicit.store(false, Ordering::SeqCst);
        let txn = self.begin_txn();
        match f(&txn) {
            Ok(v) => {
                txn.commit()?;
                Ok(v)
            }
            Err(e) => {
                // Victim abort. When the statement will be retried, the
                // Section 5.4 per-transaction memory (the cached
                // current time) must survive into the retry even though
                // the abort callback clears it — snapshot and restore
                // around the rollback.
                let preserved = Self::is_retryable(&e)
                    .then(|| self.session.snapshot_duration(MemDuration::PerTransaction));
                let _ = txn.abort();
                if let Some(snapshot) = preserved {
                    self.session.restore(snapshot);
                }
                Err(e)
            }
        }
    }

    fn ctx<'a>(&'a self, txn: &'a Txn) -> AmContext<'a> {
        AmContext {
            space: self.db.inner.space.clone(),
            txn,
            clock: Arc::clone(&self.db.inner.clock),
            session: Arc::clone(&self.session),
            fragments: Arc::clone(&self.db.inner.catalog.lock().fragments),
            trace: self.scoped_trace(),
            snapshot: self.active_snapshot.lock().clone(),
        }
    }

    /// Forgets the per-transaction snapshot state: the write marker and
    /// the REPEATABLE READ pinned snapshot (dropping the latter lets
    /// the space reclaim the pages it kept alive).
    fn reset_snapshot_state(&self) {
        self.wrote.store(false, Ordering::SeqCst);
        *self.pinned_snapshot.lock() = None;
    }

    /// The shared trace sink, tagged with this connection's session and
    /// the span of the statement currently executing.
    fn scoped_trace(&self) -> TraceSink {
        self.db
            .inner
            .trace
            .scoped(self.session.id(), self.span.load(Ordering::Relaxed))
    }

    fn run(&self, stmt: Statement, txn: &Txn) -> Result<QueryResult> {
        // Any non-SELECT inside an explicit transaction takes it off the
        // snapshot read path for the rest of its life: its own writes
        // must be visible, which only the locked path guarantees.
        if self.in_explicit.load(Ordering::SeqCst) && !matches!(stmt, Statement::Select { .. }) {
            self.wrote.store(true, Ordering::SeqCst);
        }
        match stmt {
            Statement::CreateTable { name, columns } => self.create_table(txn, name, columns),
            Statement::DropTable { name } => self.drop_table(txn, name),
            Statement::CreateFunction {
                name,
                args,
                returns,
                external,
            } => {
                let arg_types = args.iter().map(|a| DataType::parse(a)).collect();
                self.db.inner.udrs.lock().create_function(
                    &name,
                    arg_types,
                    DataType::parse(&returns),
                    &external,
                )?;
                self.db.inner.udr_generation.fetch_add(1, Ordering::Release);
                Ok(msg(&format!("function {name} created")))
            }
            Statement::DropFunction { name } => {
                self.db.inner.udrs.lock().drop_function(&name)?;
                self.db.inner.udr_generation.fetch_add(1, Ordering::Release);
                self.db.inner.plan_cache.invalidate_all();
                Ok(msg(&format!("function {name} dropped")))
            }
            Statement::CreateAccessMethod { name, bindings } => {
                self.create_access_method(name, bindings)
            }
            Statement::CreateOpClass {
                name,
                access_method,
                strategies,
                supports,
            } => {
                self.db.inner.catalog.lock().am(&access_method)?;
                {
                    let udrs = self.db.inner.udrs.lock();
                    for f in strategies.iter().chain(&supports) {
                        if !udrs.exists(f) {
                            return Err(IdsError::NotFound(format!(
                                "function {f} (declare it before the opclass)"
                            )));
                        }
                    }
                }
                self.db.inner.opclasses.lock().create(OpClass {
                    name: name.clone(),
                    access_method,
                    strategies,
                    supports,
                })?;
                Ok(msg(&format!("opclass {name} created")))
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
                using,
                space,
            } => self.create_index(txn, name, table, columns, using, space),
            Statement::DropIndex { name } => self.drop_index(txn, name),
            Statement::DropAccessMethod { name } => {
                let mut catalog = self.db.inner.catalog.lock();
                if catalog
                    .indices
                    .values()
                    .any(|i| i.access_method.eq_ignore_ascii_case(&name))
                {
                    return Err(IdsError::Semantic(format!(
                        "access method {name} still has indices; drop them first"
                    )));
                }
                catalog
                    .ams
                    .remove(&name.to_ascii_lowercase())
                    .ok_or_else(|| IdsError::NotFound(format!("access method {name}")))?;
                drop(catalog);
                self.db.inner.plan_cache.invalidate_all();
                Ok(msg(&format!("access method {name} dropped")))
            }
            Statement::DropOpClass { name } => {
                let catalog = self.db.inner.catalog.lock();
                if catalog
                    .indices
                    .values()
                    .any(|i| i.opclass.eq_ignore_ascii_case(&name))
                {
                    return Err(IdsError::Semantic(format!(
                        "opclass {name} is in use by an index"
                    )));
                }
                drop(catalog);
                self.db.inner.opclasses.lock().drop_class(&name)?;
                self.db.inner.plan_cache.invalidate_all();
                Ok(msg(&format!("opclass {name} dropped")))
            }
            Statement::Insert { table, values } => self.insert(txn, table, values),
            Statement::Select {
                columns,
                table,
                where_clause,
            } => self.select(txn, columns, table, where_clause),
            Statement::Delete {
                table,
                where_clause,
            } => self.delete(txn, table, where_clause),
            Statement::Update {
                table,
                sets,
                where_clause,
            } => self.update(txn, table, sets, where_clause),
            Statement::CheckIndex { name } => {
                let (am, desc) = self.index_am(&name)?;
                let ctx = self.ctx(txn);
                self.trace_purpose(&am, "am_check");
                am.handler.am_check(&desc, &ctx)?;
                Ok(msg(&format!("index {name} is consistent")))
            }
            Statement::Load { path, table } => self.load(txn, path, table),
            Statement::AlterFunction {
                name,
                negator,
                commutator,
            } => {
                let mut udrs = self.db.inner.udrs.lock();
                if let Some(n) = negator {
                    udrs.set_negator(&name, &n)?;
                }
                if let Some(c) = commutator {
                    udrs.set_commutator(&name, &c)?;
                }
                drop(udrs);
                self.db.inner.udr_generation.fetch_add(1, Ordering::Release);
                self.db.inner.plan_cache.invalidate_all();
                Ok(msg(&format!("function {name} altered")))
            }
            Statement::UpdateStatistics { index } => {
                let (am, desc) = self.index_am(&index)?;
                let ctx = self.ctx(txn);
                self.trace_purpose(&am, "am_stats");
                let report = am.handler.am_stats(&desc, &ctx)?;
                Ok(msg(&report))
            }
            other => Err(IdsError::Semantic(format!("unhandled statement {other:?}"))),
        }
    }

    // ---- DDL -----------------------------------------------------------

    fn create_table(
        &self,
        txn: &Txn,
        name: String,
        columns: Vec<(String, String)>,
    ) -> Result<QueryResult> {
        let key = name.to_ascii_lowercase();
        {
            let catalog = self.db.inner.catalog.lock();
            if catalog.tables.contains_key(&key) {
                return Err(IdsError::Duplicate(format!("table {name}")));
            }
        }
        let mut cols = Vec::with_capacity(columns.len());
        for (cname, tname) in columns {
            let ty = DataType::parse(&tname);
            if let DataType::Opaque(t) = &ty {
                if !t.eq_ignore_ascii_case("pointer")
                    && !self
                        .db
                        .inner
                        .opaques
                        .lock()
                        .contains_key(&t.to_ascii_lowercase())
                {
                    return Err(IdsError::NotFound(format!("type {t}")));
                }
            }
            cols.push((cname, ty));
        }
        let lo = self.db.inner.space.create_lo(txn)?;
        let mut h = self.db.inner.space.open_lo(txn, lo, LockMode::Exclusive)?;
        heap::init(&mut h)?;
        h.close()?;
        self.db.inner.catalog.lock().tables.insert(
            key.clone(),
            TableMeta {
                name: name.clone(),
                columns: cols,
                lo,
            },
        );
        self.register_undo(txn, CatalogUndo::RemoveTable(key.clone()));
        self.db.inner.plan_cache.invalidate_table(&key);
        Ok(msg(&format!("table {name} created")))
    }

    fn drop_table(&self, txn: &Txn, name: String) -> Result<QueryResult> {
        let (meta, indexes) = {
            let catalog = self.db.inner.catalog.lock();
            let meta = catalog.table(&name)?.clone();
            let indexes: Vec<IndexMeta> = catalog.indices_of(&name).into_iter().cloned().collect();
            (meta, indexes)
        };
        for ix in indexes {
            self.drop_index(txn, ix.name)?;
        }
        self.db.inner.space.drop_lo(txn, meta.lo)?;
        self.db
            .inner
            .catalog
            .lock()
            .tables
            .remove(&name.to_ascii_lowercase());
        self.register_undo(txn, CatalogUndo::ReinsertTable(meta));
        self.db
            .inner
            .plan_cache
            .invalidate_table(&name.to_ascii_lowercase());
        Ok(msg(&format!("table {name} dropped")))
    }

    fn create_access_method(
        &self,
        name: String,
        bindings: Vec<(String, String)>,
    ) -> Result<QueryResult> {
        const PURPOSE_SLOTS: &[&str] = &[
            "am_create",
            "am_drop",
            "am_open",
            "am_close",
            "am_build",
            "am_beginscan",
            "am_rescan",
            "am_getnext",
            "am_getnext_batch",
            "am_endscan",
            "am_insert",
            "am_delete",
            "am_update",
            "am_scancost",
            "am_stats",
            "am_check",
        ];
        let mut purpose = Vec::new();
        let mut sptype = "S".to_string();
        let mut library: Option<String> = None;
        {
            let udrs = self.db.inner.udrs.lock();
            for (slot, value) in &bindings {
                let slot_l = slot.to_ascii_lowercase();
                if slot_l == "am_sptype" {
                    sptype = value.clone();
                    continue;
                }
                if !PURPOSE_SLOTS.contains(&slot_l.as_str()) {
                    return Err(IdsError::Semantic(format!("unknown parameter {slot}")));
                }
                // Purpose functions may be registered with any arity;
                // resolve by name alone.
                let routine = udrs
                    .all()
                    .into_iter()
                    .find(|r| r.name.eq_ignore_ascii_case(value))
                    .ok_or_else(|| IdsError::NotFound(format!("function {value}")))?;
                // The library is the file part of the EXTERNAL NAME:
                // "usr/functions/grtree.bld(grt_open)" -> "grtree.bld".
                let lib = routine
                    .external_name
                    .split('(')
                    .next()
                    .unwrap_or("")
                    .rsplit('/')
                    .next()
                    .unwrap_or("")
                    .to_string();
                match &library {
                    None => library = Some(lib),
                    Some(prev) if *prev == lib => {}
                    Some(prev) => {
                        return Err(IdsError::Semantic(format!(
                            "purpose functions span libraries {prev} and {lib}"
                        )))
                    }
                }
                purpose.push((slot_l, value.clone()));
            }
        }
        if !purpose.iter().any(|(s, _)| s == "am_getnext") {
            return Err(IdsError::Semantic(
                "am_getnext is mandatory for a secondary access method".into(),
            ));
        }
        let library =
            library.ok_or_else(|| IdsError::Semantic("no purpose functions given".into()))?;
        let handler = self
            .db
            .inner
            .libraries
            .lock()
            .get(&library)
            .cloned()
            .ok_or_else(|| IdsError::NotFound(format!("shared library {library}")))?;
        let mut catalog = self.db.inner.catalog.lock();
        let key = name.to_ascii_lowercase();
        if catalog.ams.contains_key(&key) {
            return Err(IdsError::Duplicate(format!("access method {name}")));
        }
        catalog.ams.insert(
            key,
            AmEntry {
                name: name.clone(),
                purpose,
                sptype,
                handler,
            },
        );
        Ok(msg(&format!("secondary access method {name} created")))
    }

    fn create_index(
        &self,
        txn: &Txn,
        name: String,
        table: String,
        columns: Vec<(String, Option<String>)>,
        using: String,
        space: Option<String>,
    ) -> Result<QueryResult> {
        let (table_meta, am, opclass_name) = {
            let catalog = self.db.inner.catalog.lock();
            if catalog.indices.contains_key(&name.to_ascii_lowercase()) {
                return Err(IdsError::Duplicate(format!("index {name}")));
            }
            let table_meta = catalog.table(&table)?.clone();
            let am = catalog.am(&using)?.clone();
            let opclasses = self.db.inner.opclasses.lock();
            let opclass_name = match columns.first().and_then(|(_, oc)| oc.clone()) {
                Some(oc) => {
                    let class = opclasses.get(&oc)?;
                    if !class.access_method.eq_ignore_ascii_case(&using) {
                        return Err(IdsError::Semantic(format!(
                            "opclass {oc} belongs to {}, not {using}",
                            class.access_method
                        )));
                    }
                    oc
                }
                None => opclasses
                    .default_for(&using)
                    .ok_or_else(|| {
                        IdsError::Semantic(format!("access method {using} has no default opclass"))
                    })?
                    .name
                    .clone(),
            };
            (table_meta, am, opclass_name)
        };
        let mut col_names = Vec::new();
        let mut col_types = Vec::new();
        for (c, _) in &columns {
            let idx = table_meta.column_index(c)?;
            col_names.push(table_meta.columns[idx].0.clone());
            col_types.push(table_meta.columns[idx].1.clone());
        }
        let mut params: HashMap<String, String> = space
            .iter()
            .map(|s| ("space".to_string(), s.clone()))
            .collect();
        params.insert("table_lo".into(), table_meta.lo.0.to_string());
        params.insert(
            "column_pos".into(),
            table_meta.column_index(&columns[0].0)?.to_string(),
        );
        params.insert(
            "scan_workers".into(),
            self.db.inner.scan_workers.to_string(),
        );
        let desc = IndexDescriptor {
            index_name: name.clone(),
            table: table_meta.name.clone(),
            columns: col_names.clone(),
            column_types: col_types,
            opclass: opclass_name.clone(),
            params,
            user_data: Mutex::new(None),
        };
        let ctx = self.ctx(txn);
        self.trace_purpose(&am, "am_create");
        am.handler.am_create(&desc, &ctx)?;
        // Existing rows are indexed on creation.
        let col_indexes: Vec<usize> = col_names
            .iter()
            .map(|c| table_meta.column_index(c).expect("validated"))
            .collect();
        {
            let h = self.open_heap(txn, &table_meta, false)?;
            let mut scan = heap::HeapScan::new();
            let mut rows: Vec<(RowId, Vec<Value>)> = Vec::new();
            while let Some((rid, row)) = scan.next(&h)? {
                let keys: Vec<Value> = col_indexes.iter().map(|&i| row[i].clone()).collect();
                rows.push((rid, keys));
            }
            self.trace_purpose(&am, "am_open");
            am.handler.am_open(&desc, &ctx)?;
            // An access method that knows how to pack a tree builds the
            // index in one pass; otherwise fall back to row-at-a-time
            // insertion, the original Figure 6(a) loop.
            let built = if rows.is_empty() {
                false
            } else {
                self.trace_purpose(&am, "am_build");
                am.handler.am_build(&desc, &rows, &ctx)?
            };
            if !built {
                for (rid, keys) in &rows {
                    self.trace_purpose(&am, "am_insert");
                    am.handler.am_insert(&desc, keys, *rid, &ctx)?;
                }
            }
            self.trace_purpose(&am, "am_close");
            am.handler.am_close(&desc, &ctx)?;
        }
        self.db.inner.catalog.lock().indices.insert(
            name.to_ascii_lowercase(),
            IndexMeta {
                name: name.clone(),
                table: table_meta.name.clone(),
                columns: col_names,
                access_method: am.name.clone(),
                opclass: opclass_name,
                space: space.unwrap_or_else(|| "sbspace".into()),
            },
        );
        self.register_undo(txn, CatalogUndo::RemoveIndex(name.to_ascii_lowercase()));
        self.db
            .inner
            .plan_cache
            .invalidate_table(&table_meta.name.to_ascii_lowercase());
        Ok(msg(&format!("index {name} created")))
    }

    fn drop_index(&self, txn: &Txn, name: String) -> Result<QueryResult> {
        let (am, desc) = self.index_am(&name)?;
        // Capture the root-fragment registry entry before am_drop tears
        // it down, so an aborting transaction can reinstate it.
        let (meta, frag) = {
            let catalog = self.db.inner.catalog.lock();
            let meta = catalog.index(&name)?.clone();
            let frag = catalog.fragments.lock().get(&meta.name).copied();
            (meta, frag)
        };
        let ctx = self.ctx(txn);
        self.trace_purpose(&am, "am_drop");
        am.handler.am_drop(&desc, &ctx)?;
        self.db
            .inner
            .catalog
            .lock()
            .indices
            .remove(&name.to_ascii_lowercase());
        let table_key = meta.table.to_ascii_lowercase();
        self.register_undo(txn, CatalogUndo::ReinsertIndex(meta, frag));
        self.db.inner.plan_cache.invalidate_table(&table_key);
        Ok(msg(&format!("index {name} dropped")))
    }

    /// Builds the (handler, descriptor) pair for a named index.
    fn index_am(&self, index: &str) -> Result<(AmEntry, IndexDescriptor)> {
        let catalog = self.db.inner.catalog.lock();
        let ix = catalog.index(index)?.clone();
        let table = catalog.table(&ix.table)?.clone();
        let am = catalog.am(&ix.access_method)?.clone();
        drop(catalog);
        let col_types = ix
            .columns
            .iter()
            .map(|c| table.column_type(c).cloned())
            .collect::<Result<Vec<_>>>()?;
        let mut params = HashMap::new();
        params.insert("table_lo".to_string(), table.lo.0.to_string());
        params.insert(
            "column_pos".to_string(),
            table.column_index(&ix.columns[0])?.to_string(),
        );
        params.insert(
            "scan_workers".to_string(),
            self.db.inner.scan_workers.to_string(),
        );
        Ok((
            am,
            IndexDescriptor {
                index_name: ix.name.clone(),
                table: ix.table.clone(),
                columns: ix.columns.clone(),
                column_types: col_types,
                opclass: ix.opclass.clone(),
                params,
                user_data: Mutex::new(None),
            },
        ))
    }

    fn trace_purpose(&self, am: &AmEntry, slot: &str) {
        if let Some(c) = self.db.inner.counters.am_calls.get(slot) {
            c.inc();
        }
        self.scoped_trace()
            .emit_with("AM", 1, || am.purpose_name(slot));
    }

    /// The `LOAD` command: reads a pipe-separated text file and inserts
    /// each line through the type-support *import* functions — the
    /// paper's Section 6.3 third support-function family.
    fn load(&self, txn: &Txn, path: String, table: String) -> Result<QueryResult> {
        let table_meta = self.db.inner.catalog.lock().table(&table)?.clone();
        let content = std::fs::read_to_string(&path)
            .map_err(|e| IdsError::Semantic(format!("cannot read {path}: {e}")))?;
        let ctx = self.ctx(txn);
        let mut count = 0usize;
        for (lineno, line) in content.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split('|').collect();
            if fields.len() != table_meta.columns.len() {
                return Err(IdsError::Semantic(format!(
                    "{path}:{}: {} fields for {} columns",
                    lineno + 1,
                    fields.len(),
                    table_meta.columns.len()
                )));
            }
            let mut row = Vec::with_capacity(fields.len());
            for (field, (_, ty)) in fields.iter().zip(&table_meta.columns) {
                let v =
                    match ty {
                        DataType::Integer => Value::Int(field.trim().parse().map_err(|_| {
                            IdsError::Type(format!("bad integer {field:?} in {path}"))
                        })?),
                        DataType::Opaque(t) => {
                            let opaques = self.db.inner.opaques.lock();
                            let ot = opaques
                                .get(&t.to_ascii_lowercase())
                                .ok_or_else(|| IdsError::NotFound(format!("type {t}")))?;
                            // The dedicated *import* function, which may
                            // differ from plain text input.
                            Value::Opaque {
                                type_name: ot.name.clone(),
                                bytes: (ot.import)(field.trim())?,
                            }
                        }
                        _ => self.coerce(Value::Text(field.trim().to_string()), ty)?,
                    };
                row.push(v);
            }
            let rid = {
                let mut h = self.open_heap(txn, &table_meta, true)?;
                heap::insert(&mut h, &row)?
            };
            self.for_each_index(&table_meta, |am, desc, keys_of| {
                let keys = keys_of(&row);
                self.trace_purpose(am, "am_open");
                am.handler.am_open(desc, &ctx)?;
                self.trace_purpose(am, "am_insert");
                am.handler.am_insert(desc, &keys, rid, &ctx)?;
                self.trace_purpose(am, "am_close");
                am.handler.am_close(desc, &ctx)
            })?;
            count += 1;
        }
        Ok(msg(&format!("{count} rows loaded")))
    }

    // ---- values and expressions ---------------------------------------

    fn coerce(&self, v: Value, ty: &DataType) -> Result<Value> {
        match (v, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (Value::Text(s), DataType::Date) => Ok(Value::Date(
                grt_temporal::Day::parse(&s).map_err(|e| IdsError::Type(e.to_string()))?,
            )),
            (Value::Text(s), DataType::Opaque(t)) => {
                let opaques = self.db.inner.opaques.lock();
                let ot = opaques
                    .get(&t.to_ascii_lowercase())
                    .ok_or_else(|| IdsError::NotFound(format!("type {t}")))?;
                ot.value_from_text(&s)
            }
            (v, ty) => {
                if v.data_type().as_ref() == Some(ty) {
                    Ok(v)
                } else {
                    Err(IdsError::Type(format!("cannot coerce {v} to {ty}")))
                }
            }
        }
    }

    fn literal_value(lit: &Lit) -> Value {
        match lit {
            Lit::Int(i) => Value::Int(*i),
            Lit::Str(s) => Value::Text(s.clone()),
            Lit::Bool(b) => Value::Bool(*b),
            Lit::Null => Value::Null,
        }
    }

    /// Evaluates a constant expression (no column references), coercing
    /// to the expected type when given.
    fn fold_expr(
        &self,
        expr: &Expr,
        expected: Option<&DataType>,
        ctx: &AmContext,
    ) -> Result<Value> {
        let v = match expr {
            Expr::Literal(lit) => Self::literal_value(lit),
            Expr::Bound(v) => v.clone(),
            Expr::Param(i) => {
                return Err(IdsError::Semantic(format!("unbound parameter {}", i + 1)))
            }
            Expr::Call { name, args } => {
                let vals: Result<Vec<Value>> =
                    args.iter().map(|a| self.fold_expr(a, None, ctx)).collect();
                self.call_udr(name, vals?, ctx)?
            }
            other => {
                return Err(IdsError::Semantic(format!(
                    "expected a constant expression, got {other:?}"
                )))
            }
        };
        match expected {
            Some(ty) => self.coerce(v, ty),
            None => Ok(v),
        }
    }

    /// Invokes a UDR, coercing text literals to the declared argument
    /// types when the overload is unambiguous.
    /// Resolves a routine call's overload, memoized per session. The
    /// resolution is a pure function of the name, the argument types,
    /// and the registry contents, so the memo holds until function DDL
    /// bumps the registry generation.
    fn resolve_udr(&self, name: &str, args: &[Value]) -> Result<Arc<Routine>> {
        let generation = self.db.inner.udr_generation.load(Ordering::Acquire);
        let mut cache = self.udr_cache.lock();
        if cache.generation != generation {
            cache.entries.clear();
            cache.generation = generation;
        }
        if let Some(resolved) = cache.entries.get(name) {
            for e in resolved {
                if e.types.len() == args.len()
                    && e.types
                        .iter()
                        .zip(args)
                        .all(|(t, v)| udr_type_matches(t, v))
                {
                    return Ok(Arc::clone(&e.routine));
                }
            }
        }
        let types: Vec<Option<DataType>> = args.iter().map(|v| v.data_type()).collect();
        let routine = {
            let udrs = self.db.inner.udrs.lock();
            match udrs.resolve(name, &types) {
                Ok(r) => r.clone(),
                Err(first_err) => {
                    // Retry with text arguments treated as wildcards
                    // (they may coerce to opaque/date parameters).
                    let relaxed: Vec<Option<DataType>> = types
                        .iter()
                        .map(|t| match t {
                            Some(DataType::Text) => None,
                            other => other.clone(),
                        })
                        .collect();
                    udrs.resolve(name, &relaxed).map_err(|_| first_err)?.clone()
                }
            }
        };
        let routine = Arc::new(routine);
        cache
            .entries
            .entry(name.to_string())
            .or_default()
            .push(ResolvedUdr {
                types,
                routine: Arc::clone(&routine),
            });
        Ok(routine)
    }

    fn call_udr(&self, name: &str, args: Vec<Value>, ctx: &AmContext) -> Result<Value> {
        let routine = self.resolve_udr(name, &args)?;
        if routine.arg_types.len() != args.len() {
            return Err(IdsError::Type(format!(
                "{name} expects {} arguments",
                routine.arg_types.len()
            )));
        }
        let mut coerced = Vec::with_capacity(args.len());
        for (v, ty) in args.into_iter().zip(&routine.arg_types) {
            coerced.push(self.coerce(v, ty)?);
        }
        self.db.inner.counters.udr_calls.inc();
        (routine.imp)(&coerced, ctx)
    }

    /// Evaluates an expression against a row.
    fn eval_expr(
        &self,
        expr: &Expr,
        row: &[Value],
        table: &TableMeta,
        ctx: &AmContext,
    ) -> Result<Value> {
        match expr {
            Expr::Literal(lit) => Ok(Self::literal_value(lit)),
            Expr::Bound(v) => Ok(v.clone()),
            Expr::Param(i) => Err(IdsError::Semantic(format!("unbound parameter {}", i + 1))),
            Expr::Column(c) => Ok(row[table.column_index(c)?].clone()),
            Expr::Call { name, args } => {
                let vals: Result<Vec<Value>> = args
                    .iter()
                    .map(|a| self.eval_expr(a, row, table, ctx))
                    .collect();
                self.call_udr(name, vals?, ctx)
            }
            Expr::Cmp { op, left, right } => {
                let l = self.eval_expr(left, row, table, ctx)?;
                let r = self.eval_expr(right, row, table, ctx)?;
                compare(op, &l, &r, self)
            }
            Expr::And(parts) => {
                for p in parts {
                    if !self.eval_expr(p, row, table, ctx)?.as_bool()? {
                        return Ok(Value::Bool(false));
                    }
                }
                Ok(Value::Bool(true))
            }
            Expr::Or(parts) => {
                for p in parts {
                    if self.eval_expr(p, row, table, ctx)?.as_bool()? {
                        return Ok(Value::Bool(true));
                    }
                }
                Ok(Value::Bool(false))
            }
            Expr::Not(inner) => Ok(Value::Bool(
                !self.eval_expr(inner, row, table, ctx)?.as_bool()?,
            )),
        }
    }

    /// Decides whether the statement about to read `table` can run on a
    /// frozen space snapshot instead of the LO-locked path, and takes
    /// (or reuses) that snapshot. `None` means the locked path:
    /// the explicit transaction has written (its own writes must be
    /// visible), an index on the table does not support snapshot
    /// traversal, a REPEATABLE READ pinned snapshot does not cover this
    /// table, or the snapshot could not be taken (e.g. an LO created in
    /// a still-open transaction has no published state to freeze).
    fn statement_snapshot(&self, table: &TableMeta) -> Option<Arc<SpaceSnapshot>> {
        let explicit = self.in_explicit.load(Ordering::SeqCst);
        if explicit && self.wrote.load(Ordering::SeqCst) {
            return None;
        }
        // The statement's view: the heap plus every index fragment. All
        // indexes must opt in — one locked index would deadlock the
        // statement against itself on a mixed plan.
        let mut los = vec![table.lo];
        let index_names: Vec<String> = self
            .db
            .inner
            .catalog
            .lock()
            .indices_of(&table.name)
            .into_iter()
            .map(|ix| ix.name.clone())
            .collect();
        if !index_names.is_empty() {
            let fragments = Arc::clone(&self.db.inner.catalog.lock().fragments);
            let fragments = fragments.lock();
            for name in &index_names {
                let Ok((am, _)) = self.index_am(name) else {
                    return None;
                };
                if !am.handler.am_supports_snapshot() {
                    return None;
                }
                los.push(LoId(*fragments.get(name)?));
            }
        }
        if explicit && *self.iso.lock() == IsolationLevel::RepeatableRead {
            // One consistent view for the whole transaction: reuse the
            // pinned snapshot when it covers this statement's objects,
            // and never mix epochs — a table outside the pinned view
            // reads through the locked path instead.
            let mut pinned = self.pinned_snapshot.lock();
            if let Some(s) = pinned.as_ref() {
                return los.iter().all(|&lo| s.contains(lo)).then(|| Arc::clone(s));
            }
            let snap = Arc::new(self.db.inner.space.snapshot_for(&los).ok()?);
            *pinned = Some(Arc::clone(&snap));
            return Some(snap);
        }
        self.db.inner.space.snapshot_for(&los).ok().map(Arc::new)
    }

    fn open_heap(&self, txn: &Txn, table: &TableMeta, write: bool) -> Result<LoHandle> {
        let mode = if write {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        Ok(self.db.inner.space.open_lo(txn, table.lo, mode)?)
    }

    /// Renders a value through its type support functions.
    pub fn render_value(&self, v: &Value) -> String {
        if let Value::Opaque { type_name, .. } = v {
            let opaques = self.db.inner.opaques.lock();
            if let Some(ot) = opaques.get(&type_name.to_ascii_lowercase()) {
                if let Ok(text) = ot.value_to_text(v) {
                    return text;
                }
            }
        }
        v.to_string()
    }

    // ---- DML -----------------------------------------------------------

    fn insert(&self, txn: &Txn, table: String, values: Vec<Expr>) -> Result<QueryResult> {
        let table_meta = self.db.inner.catalog.lock().table(&table)?.clone();
        if values.len() != table_meta.columns.len() {
            return Err(IdsError::Semantic(format!(
                "table {table} has {} columns, {} values given",
                table_meta.columns.len(),
                values.len()
            )));
        }
        let ctx = self.ctx(txn);
        let mut row = Vec::with_capacity(values.len());
        for (expr, (_, ty)) in values.iter().zip(&table_meta.columns) {
            row.push(self.fold_expr(expr, Some(ty), &ctx)?);
        }
        let rid = {
            let mut h = self.open_heap(txn, &table_meta, true)?;
            heap::insert(&mut h, &row)?
        };
        // Maintain every index: the Figure 6(a) call sequence per index.
        self.for_each_index(&table_meta, |am, desc, keys_of| {
            let keys = keys_of(&row);
            self.trace_purpose(am, "am_open");
            am.handler.am_open(desc, &ctx)?;
            self.trace_purpose(am, "am_insert");
            am.handler.am_insert(desc, &keys, rid, &ctx)?;
            self.trace_purpose(am, "am_close");
            am.handler.am_close(desc, &ctx)
        })?;
        Ok(msg("1 row inserted"))
    }

    /// Runs `f` for every index of `table`, passing a key extractor.
    fn for_each_index(
        &self,
        table: &TableMeta,
        mut f: impl FnMut(&AmEntry, &IndexDescriptor, &dyn Fn(&[Value]) -> Vec<Value>) -> Result<()>,
    ) -> Result<()> {
        let indexes: Vec<IndexMeta> = self
            .db
            .inner
            .catalog
            .lock()
            .indices_of(&table.name)
            .into_iter()
            .cloned()
            .collect();
        for ix in indexes {
            let (am, desc) = self.index_am(&ix.name)?;
            let cols: Vec<usize> = ix
                .columns
                .iter()
                .map(|c| table.column_index(c))
                .collect::<Result<Vec<_>>>()?;
            let extract = move |row: &[Value]| -> Vec<Value> {
                cols.iter().map(|&i| row[i].clone()).collect()
            };
            f(&am, &desc, &extract)?;
        }
        Ok(())
    }

    /// Bind-time validation: every function named in the expression
    /// must resolve to a registered UDR, and every column must exist.
    fn validate_expr(&self, expr: &Expr, table: &TableMeta) -> Result<()> {
        match expr {
            Expr::Literal(_) | Expr::Param(_) | Expr::Bound(_) => Ok(()),
            Expr::Column(c) => table.column_index(c).map(|_| ()),
            Expr::Call { name, args } => {
                if !self.db.inner.udrs.lock().exists(name) {
                    return Err(IdsError::NotFound(format!("function {name}")));
                }
                args.iter().try_for_each(|a| self.validate_expr(a, table))
            }
            Expr::Cmp { left, right, .. } => {
                self.validate_expr(left, table)?;
                self.validate_expr(right, table)
            }
            Expr::And(parts) | Expr::Or(parts) => {
                parts.iter().try_for_each(|p| self.validate_expr(p, table))
            }
            Expr::Not(inner) => self.validate_expr(inner, table),
        }
    }

    /// Phase 3 of statement execution — plan. A statement that came
    /// through the plan cache memoizes its access-path *choice*; a hit
    /// rebuilds the concrete plan for that choice against the current
    /// catalog and bindings, skipping validation, candidate search, and
    /// the `am_scancost` round trips. DDL invalidation clears the memo,
    /// and a memo that no longer matches the catalog (the index vanished
    /// between invalidation and replanning) falls back to fresh planning.
    fn plan(&self, txn: &Txn, table: &TableMeta, where_clause: Option<&Expr>) -> Result<Plan> {
        let compiled = self.current_compiled.lock().clone();
        let Some(compiled) = compiled else {
            return self.plan_fresh(txn, table, where_clause);
        };
        let cache = &self.db.inner.plan_cache;
        let memo = compiled.plan.lock().clone();
        if let Some(memo) = memo {
            // Index-vs-seq is a function of the bound values (a narrow
            // probe favors the index, a full-range one the heap sweep):
            // reuse the memo only for the bindings it was costed for,
            // until enough re-costs agree that the choice is generic.
            if memo.serves(where_clause) {
                if let Some(plan) = self.rebuild_plan(txn, &memo.choice, table, where_clause)? {
                    cache.hits.inc();
                    let counters = &self.db.inner.counters;
                    match &plan {
                        Plan::IndexScan { .. } => counters.plans_index.inc(),
                        Plan::SeqScan { .. } => counters.plans_seq.inc(),
                    }
                    self.scoped_trace()
                        .emit_with("EXPLAIN", 1, || format!("{}: plan: cached", table.name));
                    return Ok(plan);
                }
            }
        }
        cache.misses.inc();
        let plan = self.plan_fresh(txn, table, where_clause)?;
        self.scoped_trace()
            .emit_with("EXPLAIN", 1, || format!("{}: plan: fresh", table.name));
        let choice = match &plan {
            Plan::SeqScan { .. } => PlanChoice::Seq,
            Plan::IndexScan { index, .. } => PlanChoice::Index(index.clone()),
        };
        let mut slot = compiled.plan.lock();
        let streak = match &*slot {
            Some(prev) if prev.choice == choice => prev.streak + 1,
            _ => 0,
        };
        *slot = Some(prepare::PlanMemo {
            binding: where_clause.cloned(),
            choice,
            streak,
        });
        Ok(plan)
    }

    /// Rebuilds a concrete plan from a memoized choice. `None` when the
    /// choice no longer applies to the current catalog.
    fn rebuild_plan(
        &self,
        txn: &Txn,
        choice: &PlanChoice,
        table: &TableMeta,
        where_clause: Option<&Expr>,
    ) -> Result<Option<Plan>> {
        match choice {
            PlanChoice::Seq => Ok(Some(Plan::SeqScan {
                filter: where_clause.cloned(),
            })),
            PlanChoice::Index(name) => {
                let Some(expr) = where_clause else {
                    return Ok(None);
                };
                let ctx = self.ctx(txn);
                let fold = |e: &Expr, ty: Option<&DataType>| self.fold_expr(e, ty, &ctx).ok();
                let catalog = self.db.inner.catalog.lock();
                let opclasses = self.db.inner.opclasses.lock();
                let Ok(ix) = catalog.index(name) else {
                    return Ok(None);
                };
                if !ix.table.eq_ignore_ascii_case(&table.name) {
                    return Ok(None);
                }
                Ok(
                    planner::candidate_for(&opclasses, table, ix, expr, &fold).map(|c| {
                        Plan::IndexScan {
                            index: c.index,
                            qual: c.qual,
                            residual: c.residual,
                        }
                    }),
                )
            }
        }
    }

    /// Plans a WHERE clause for a table: validate, enumerate index
    /// candidates, cost them through `am_scancost`, choose.
    fn plan_fresh(
        &self,
        txn: &Txn,
        table: &TableMeta,
        where_clause: Option<&Expr>,
    ) -> Result<Plan> {
        if let Some(w) = where_clause {
            self.validate_expr(w, table)?;
        }
        let ctx = self.ctx(txn);
        let fold = |e: &Expr, ty: Option<&DataType>| self.fold_expr(e, ty, &ctx).ok();
        let cands: Vec<Candidate> = {
            let catalog = self.db.inner.catalog.lock();
            let opclasses = self.db.inner.opclasses.lock();
            planner::candidates(&catalog, &opclasses, table, where_clause, &fold)
        };
        let trace = self.scoped_trace();
        if cands.is_empty() {
            self.db.inner.counters.plans_seq.inc();
            trace.emit_with("EXPLAIN", 1, || {
                format!("{}: sequential scan (no index candidates)", table.name)
            });
            return Ok(Plan::SeqScan {
                filter: where_clause.cloned(),
            });
        }
        // The sequential baseline costs one pass over the heap. A
        // snapshot statement must size the heap from its frozen view —
        // opening the heap here would take the very S lock the snapshot
        // path exists to avoid.
        let seq_cost = match ctx.snapshot.as_deref() {
            Some(s) => heap::page_count(&s.reader(table.lo)?) as f64 + 1.0,
            None => {
                let h = self.open_heap(txn, table, false)?;
                heap::page_count(&h) as f64 + 1.0
            }
        };
        let mut costs = HashMap::new();
        for c in &cands {
            let (am, desc) = self.index_am(&c.index)?;
            self.trace_purpose(&am, "am_scancost");
            let cost = am
                .handler
                .am_scancost(&desc, &c.qual, &ctx)
                .unwrap_or(f64::MAX);
            trace.emit_with("EXPLAIN", 1, || {
                format!("{}: index {} cost {cost:.1}", table.name, c.index)
            });
            costs.insert(c.index.clone(), cost);
        }
        let plan = planner::choose(cands, |c| costs[&c.index], seq_cost, where_clause);
        match &plan {
            Plan::IndexScan { index, .. } => {
                self.db.inner.counters.plans_index.inc();
                trace.emit_with("EXPLAIN", 1, || {
                    format!(
                        "{}: chose index scan via {index} (seq cost {seq_cost:.1})",
                        table.name
                    )
                });
            }
            Plan::SeqScan { .. } => {
                self.db.inner.counters.plans_seq.inc();
                trace.emit_with("EXPLAIN", 1, || {
                    format!("{}: chose sequential scan (cost {seq_cost:.1})", table.name)
                });
            }
        }
        Ok(plan)
    }

    /// Runs a scan, invoking `sink` for each qualifying `(rowid, row)`.
    /// Returns the number of rows visited.
    fn scan(
        &self,
        txn: &Txn,
        table: &TableMeta,
        plan: &Plan,
        mut sink: impl FnMut(RowId, Vec<Value>) -> Result<bool>,
    ) -> Result<()> {
        let ctx = self.ctx(txn);
        // Snapshot statements read the heap through the frozen view —
        // no LO-level S lock; locked statements open the heap as before.
        let heap_src = |frozen: &mut Option<grt_sbspace::LoReader>,
                        locked: &mut Option<LoHandle>|
         -> Result<()> {
            match ctx.snapshot.as_deref() {
                Some(s) => *frozen = Some(s.reader(table.lo)?),
                None => *locked = Some(self.open_heap(txn, table, false)?),
            }
            Ok(())
        };
        match plan {
            Plan::SeqScan { filter } => {
                let (mut frozen, mut locked) = (None, None);
                heap_src(&mut frozen, &mut locked)?;
                let h: &dyn PageSource = match &frozen {
                    Some(r) => r,
                    None => locked.as_ref().expect("opened"),
                };
                let mut scan = heap::HeapScan::new();
                while let Some((rid, row)) = scan.next(&h)? {
                    let keep = match filter {
                        Some(f) => self.eval_expr(f, &row, table, &ctx)?.as_bool()?,
                        None => true,
                    };
                    if keep && !sink(rid, row)? {
                        break;
                    }
                }
                Ok(())
            }
            Plan::IndexScan {
                index,
                qual,
                residual,
            } => {
                let (am, desc) = self.index_am(index)?;
                let (mut frozen, mut locked) = (None, None);
                heap_src(&mut frozen, &mut locked)?;
                let h: &dyn PageSource = match &frozen {
                    Some(r) => r,
                    None => locked.as_ref().expect("opened"),
                };
                // The Figure 6(b) call sequence.
                self.trace_purpose(&am, "am_open");
                am.handler.am_open(&desc, &ctx)?;
                let mut scan = ScanDescriptor::new(qual.clone());
                self.trace_purpose(&am, "am_beginscan");
                am.handler.am_beginscan(&desc, &mut scan, &ctx)?;
                // The index is drained first, a batch at a time — one
                // dynamic dispatch per `scan_batch_rows` rows instead of
                // one per row; a short batch means the scan is
                // exhausted. Only the rowids are kept.
                let batch = self.db.inner.scan_batch_rows;
                let mut rids: Vec<RowId> = Vec::new();
                loop {
                    self.trace_purpose(&am, "am_getnext_batch");
                    let hits = am.handler.am_getnext_batch(&desc, &mut scan, batch, &ctx)?;
                    self.db.inner.batch_rows.observe_ns(hits.len() as u64);
                    let exhausted = hits.len() < batch;
                    rids.extend(hits.into_iter().map(|(rid, _keys)| rid));
                    if exhausted {
                        break;
                    }
                }
                self.trace_purpose(&am, "am_endscan");
                am.handler.am_endscan(&desc, &mut scan, &ctx)?;
                self.trace_purpose(&am, "am_close");
                am.handler.am_close(&desc, &ctx)?;
                // Then one ordered pass over the heap: each page that
                // holds a hit is pinned once, so the base-row fetches
                // cost at most one sequential pass whatever order the
                // index returned them in. A row may be gone under weaker
                // isolation; the pass skips it.
                let fetched = heap::fetch_ordered(&h, &mut rids, |rid, row| {
                    let keep = match residual {
                        Some(f) => self.eval_expr(f, &row, table, &ctx)?.as_bool()?,
                        None => true,
                    };
                    Ok(!keep || sink(rid, row)?)
                })?;
                let counters = &self.db.inner.counters;
                counters.heap_rows.add(fetched.rows);
                counters.heap_pages.add(fetched.pages);
                ctx.trace.emit_with("EXPLAIN", 1, || {
                    format!(
                        "{}: heap fetch: {} rows from {} pages",
                        table.name, fetched.rows, fetched.pages
                    )
                });
                Ok(())
            }
        }
    }

    fn select(
        &self,
        txn: &Txn,
        columns: SelectCols,
        table: String,
        where_clause: Option<Expr>,
    ) -> Result<QueryResult> {
        // System catalogs are queryable like tables (projection only).
        if table.to_ascii_lowercase().starts_with("sys") {
            if where_clause.is_some() {
                return Err(IdsError::Semantic(
                    "system catalogs support projection only".into(),
                ));
            }
            let (headers, rows) = self.db.catalog_dump(&table)?;
            let proj: Vec<usize> = match &columns {
                SelectCols::Star => (0..headers.len()).collect(),
                SelectCols::Named(cols) => cols
                    .iter()
                    .map(|c| {
                        headers
                            .iter()
                            .position(|h| h.eq_ignore_ascii_case(c))
                            .ok_or_else(|| IdsError::NotFound(format!("column {c} of {table}")))
                    })
                    .collect::<Result<Vec<_>>>()?,
            };
            let rows: Vec<Vec<Value>> = rows
                .into_iter()
                .map(|r| proj.iter().map(|&i| r[i].clone()).collect())
                .collect();
            let rendered = rows
                .iter()
                .map(|r| r.iter().map(|v| self.render_value(v)).collect())
                .collect();
            return Ok(QueryResult {
                columns: proj.iter().map(|&i| headers[i].clone()).collect(),
                rows,
                rendered,
                message: String::new(),
            });
        }
        let table_meta = self.db.inner.catalog.lock().table(&table)?.clone();
        let (headers, proj): (Vec<String>, Vec<usize>) = match &columns {
            SelectCols::Star => (
                table_meta.columns.iter().map(|(c, _)| c.clone()).collect(),
                (0..table_meta.columns.len()).collect(),
            ),
            SelectCols::Named(cols) => {
                let mut idx = Vec::new();
                for c in cols {
                    idx.push(table_meta.column_index(c)?);
                }
                (cols.clone(), idx)
            }
        };
        // Route the read: a snapshot statement plans and scans against a
        // frozen view (no LO-level locks at all); everything else keeps
        // the 2PL locked path. The choice is surfaced on the EXPLAIN
        // trace channel so plans are auditable.
        let snapshot = self.statement_snapshot(&table_meta);
        self.scoped_trace()
            .emit_with("EXPLAIN", 1, || match &snapshot {
                Some(s) => format!("{}: plan: snapshot (epoch {})", table_meta.name, s.epoch()),
                None => format!("{}: plan: locked", table_meta.name),
            });
        self.scoped_trace().emit_with("EXPLAIN", 1, || {
            let (workers, depth) = self.db.inner.space.prefetch_params();
            if workers > 0 {
                format!("{}: scan prefetch: on(depth={depth})", table_meta.name)
            } else {
                format!("{}: scan prefetch: off", table_meta.name)
            }
        });
        *self.active_snapshot.lock() = snapshot;
        let mut rows = Vec::new();
        let scanned = (|| {
            let plan = self.plan(txn, &table_meta, where_clause.as_ref())?;
            self.scan(txn, &table_meta, &plan, |_rid, row| {
                rows.push(proj.iter().map(|&i| row[i].clone()).collect::<Vec<_>>());
                Ok(true)
            })
        })();
        // The statement is over: stop handing the snapshot to access
        // methods whatever the outcome (the RR pin, if any, keeps its
        // own reference).
        *self.active_snapshot.lock() = None;
        scanned?;
        let rendered = rows
            .iter()
            .map(|r| r.iter().map(|v| self.render_value(v)).collect())
            .collect();
        Ok(QueryResult {
            columns: headers,
            rows,
            rendered,
            message: String::new(),
        })
    }

    fn delete(&self, txn: &Txn, table: String, where_clause: Option<Expr>) -> Result<QueryResult> {
        let table_meta = self.db.inner.catalog.lock().table(&table)?.clone();
        let plan = self.plan(txn, &table_meta, where_clause.as_ref())?;
        let ctx = self.ctx(txn);
        let count = match &plan {
            // The paper's Section 5.5 flow: qualifying entries are
            // retrieved with am_getnext and deleted one by one through
            // the SAME index descriptor, so the DataBlade's open cursor
            // and its restart-on-condense logic are exercised.
            Plan::IndexScan {
                index,
                qual,
                residual,
            } => {
                let (am, desc) = self.index_am(index)?;
                let scanned_cols: Vec<usize> = desc
                    .columns
                    .iter()
                    .map(|c| table_meta.column_index(c))
                    .collect::<Result<Vec<_>>>()?;
                let mut h = self.open_heap(txn, &table_meta, true)?;
                self.trace_purpose(&am, "am_open");
                am.handler.am_open(&desc, &ctx)?;
                let mut scan = ScanDescriptor::new(qual.clone());
                self.trace_purpose(&am, "am_beginscan");
                am.handler.am_beginscan(&desc, &mut scan, &ctx)?;
                let mut count = 0usize;
                // Victims are fetched a batch at a time through the open
                // cursor, then deleted through the SAME descriptor — the
                // deletes may condense the tree and restart the cursor,
                // which the next am_getnext_batch call must survive
                // without re-emitting rows.
                let batch = self.db.inner.scan_batch_rows;
                loop {
                    self.trace_purpose(&am, "am_getnext_batch");
                    let hits = am.handler.am_getnext_batch(&desc, &mut scan, batch, &ctx)?;
                    self.db.inner.batch_rows.observe_ns(hits.len() as u64);
                    let exhausted = hits.len() < batch;
                    for (rid, _keys) in hits {
                        let Some(row) = heap::fetch(&h, rid)? else {
                            continue;
                        };
                        let keep = match residual {
                            Some(f) => self.eval_expr(f, &row, &table_meta, &ctx)?.as_bool()?,
                            None => true,
                        };
                        if !keep {
                            continue;
                        }
                        heap::delete(&mut h, rid)?;
                        // The scanned index is maintained through the
                        // open descriptor (grt_delete resets the cursor
                        // if the tree condensed)...
                        let keys: Vec<Value> =
                            scanned_cols.iter().map(|&i| row[i].clone()).collect();
                        self.trace_purpose(&am, "am_delete");
                        am.handler.am_delete(&desc, &keys, rid, &ctx)?;
                        // ...other indexes of the table through their own.
                        self.for_each_index(&table_meta, |other_am, other_desc, keys_of| {
                            if other_desc.index_name == desc.index_name {
                                return Ok(());
                            }
                            let keys = keys_of(&row);
                            self.trace_purpose(other_am, "am_open");
                            other_am.handler.am_open(other_desc, &ctx)?;
                            self.trace_purpose(other_am, "am_delete");
                            other_am.handler.am_delete(other_desc, &keys, rid, &ctx)?;
                            self.trace_purpose(other_am, "am_close");
                            other_am.handler.am_close(other_desc, &ctx)
                        })?;
                        count += 1;
                    }
                    if exhausted {
                        break;
                    }
                }
                self.trace_purpose(&am, "am_endscan");
                am.handler.am_endscan(&desc, &mut scan, &ctx)?;
                self.trace_purpose(&am, "am_close");
                am.handler.am_close(&desc, &ctx)?;
                count
            }
            Plan::SeqScan { .. } => {
                let mut victims: Vec<(RowId, Vec<Value>)> = Vec::new();
                self.scan(txn, &table_meta, &plan, |rid, row| {
                    victims.push((rid, row));
                    Ok(true)
                })?;
                {
                    let mut h = self.open_heap(txn, &table_meta, true)?;
                    for (rid, _) in &victims {
                        heap::delete(&mut h, *rid)?;
                    }
                }
                for (rid, row) in &victims {
                    self.for_each_index(&table_meta, |am, desc, keys_of| {
                        let keys = keys_of(row);
                        self.trace_purpose(am, "am_open");
                        am.handler.am_open(desc, &ctx)?;
                        self.trace_purpose(am, "am_delete");
                        am.handler.am_delete(desc, &keys, *rid, &ctx)?;
                        self.trace_purpose(am, "am_close");
                        am.handler.am_close(desc, &ctx)
                    })?;
                }
                victims.len()
            }
        };
        Ok(msg(&format!("{count} rows deleted")))
    }

    fn update(
        &self,
        txn: &Txn,
        table: String,
        sets: Vec<(String, Expr)>,
        where_clause: Option<Expr>,
    ) -> Result<QueryResult> {
        let table_meta = self.db.inner.catalog.lock().table(&table)?.clone();
        let plan = self.plan(txn, &table_meta, where_clause.as_ref())?;
        let ctx = self.ctx(txn);
        let mut victims: Vec<(RowId, Vec<Value>)> = Vec::new();
        self.scan(txn, &table_meta, &plan, |rid, row| {
            victims.push((rid, row));
            Ok(true)
        })?;
        let mut set_idx = Vec::with_capacity(sets.len());
        for (col, expr) in &sets {
            let i = table_meta.column_index(col)?;
            set_idx.push((i, expr.clone()));
        }
        let count = victims.len();
        for (rid, old_row) in victims {
            let mut new_row = old_row.clone();
            for (i, expr) in &set_idx {
                let ty = &table_meta.columns[*i].1;
                // SET accepts any expression over the old row.
                let v = self
                    .eval_expr(expr, &old_row, &table_meta, &ctx)
                    .and_then(|v| self.coerce(v, ty))?;
                new_row[*i] = v;
            }
            let new_rid = {
                let mut h = self.open_heap(txn, &table_meta, true)?;
                heap::update(&mut h, rid, &new_row)?
            };
            self.for_each_index(&table_meta, |am, desc, keys_of| {
                let old_keys = keys_of(&old_row);
                let new_keys = keys_of(&new_row);
                self.trace_purpose(am, "am_open");
                am.handler.am_open(desc, &ctx)?;
                self.trace_purpose(am, "am_update");
                am.handler
                    .am_update(desc, &old_keys, rid, &new_keys, new_rid, &ctx)?;
                self.trace_purpose(am, "am_close");
                am.handler.am_close(desc, &ctx)
            })?;
        }
        Ok(msg(&format!("{count} rows updated")))
    }
}

fn compare(op: &str, l: &Value, r: &Value, conn: &Connection) -> Result<Value> {
    use std::cmp::Ordering as O;
    // Text compared against a date coerces to a date, mirroring the
    // insert-side coercions.
    let (l, r) = match (l, r) {
        (Value::Date(_), Value::Text(_)) => (l.clone(), conn.coerce(r.clone(), &DataType::Date)?),
        (Value::Text(_), Value::Date(_)) => (conn.coerce(l.clone(), &DataType::Date)?, r.clone()),
        _ => (l.clone(), r.clone()),
    };
    if l.is_null() || r.is_null() {
        return Ok(Value::Bool(false));
    }
    let ord: Option<O> = match (&l, &r) {
        (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
        (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
        (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
        (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
        (
            Value::Opaque {
                bytes: a,
                type_name: ta,
            },
            Value::Opaque {
                bytes: b,
                type_name: tb,
            },
        ) if ta == tb && (op == "=" || op == "!=") => Some(a.cmp(b)),
        _ => None,
    };
    let Some(ord) = ord else {
        return Err(IdsError::Type(format!("cannot compare {l} {op} {r}")));
    };
    let b = match op {
        "=" => ord == O::Equal,
        "!=" => ord != O::Equal,
        "<" => ord == O::Less,
        "<=" => ord != O::Greater,
        ">" => ord == O::Greater,
        ">=" => ord != O::Less,
        other => return Err(IdsError::Semantic(format!("unknown operator {other}"))),
    };
    Ok(Value::Bool(b))
}

fn msg(text: &str) -> QueryResult {
    QueryResult {
        message: text.to_string(),
        ..Default::default()
    }
}

impl QueryResult {
    /// Formats a SELECT result as an aligned text table.
    pub fn to_table(&self) -> String {
        if self.columns.is_empty() {
            return self.message.clone();
        }
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        out.push_str(&fmt_row(&self.columns, &widths));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-"),
        );
        out.push('\n');
        for row in &self.rendered {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}
