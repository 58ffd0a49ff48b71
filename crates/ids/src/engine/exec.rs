//! The front door: the public entry points, the attempt/retry loop,
//! and transaction control. Every INSERT / SELECT / DELETE / UPDATE —
//! ad-hoc, plan-cached, `PREPARE`d or scripted — leaves here as a
//! [`CompiledStatement`] with its arguments bound, inside the [`Stmt`]
//! that [`Connection::with_txn`] makes for the attempt.

use super::{msg, Connection, Database, OpenTxn, QueryResult, Stmt, Work};
use crate::prepare::{self, CompiledStatement};
use crate::session::{MemDuration, Session};
use crate::sink::RowSink;
use crate::sql::{self, Expr, Statement};
use crate::value::Value;
use crate::vii::AmContext;
use crate::{IdsError, Result};
use grt_sbspace::{IsolationLevel, SbError, Txn};
use std::sync::atomic::Ordering;
use std::sync::Arc;

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
    /// up to [`super::DatabaseOptions::deadlock_retries`] times with
    /// bounded exponential backoff. Each attempt runs in a fresh
    /// transaction; per-statement named memory is cleared between
    /// attempts (the Section 5.4 `PerStatement` current time
    /// re-resolves) while preserved `PerTransaction` memory carries over
    /// the victim abort.
    pub fn exec(&self, sql_text: &str) -> Result<QueryResult> {
        collected(|rows| self.exec_to(sql_text, rows))
    }

    /// [`Connection::exec`] with the rows of a SELECT handed to `out`
    /// as the executor meets them (see [`crate::sink`]); the result
    /// returned carries the headers and the message, and no rows. Every
    /// attempt starts by clearing `out`, so a retried statement delivers
    /// its rows once.
    pub fn exec_to(&self, sql_text: &str, out: &mut dyn RowSink) -> Result<QueryResult> {
        // The EXECUTE hot path: the named statement was compiled at
        // PREPARE, so the transparent-cache normalization below would
        // only re-lex text whose compiled form we already hold. Parse
        // the short EXECUTE statement directly instead.
        let head = sql_text.trim_start().as_bytes();
        if head.len() > 7
            && head[..7].eq_ignore_ascii_case(b"EXECUTE")
            && head[7].is_ascii_whitespace()
        {
            return self.dispatch(sql::parse(sql_text)?, out);
        }
        // Phase 1+2 (parse, verify/resolve) are served from the
        // transparent plan cache when the normalized statement text has
        // been seen before; a cache hit never parses at all.
        let Some(normalized) = sql::normalize_dml(sql_text)? else {
            return self.dispatch(sql::parse(sql_text)?, out);
        };
        let args: Vec<Value> = normalized.args.iter().map(Self::literal_value).collect();
        let cache = &self.db.inner.plan_cache;
        let compiled = match cache.get(&normalized.key) {
            Some(compiled) => compiled,
            None => {
                let key = normalized.key.clone();
                match self.resolve(normalized.parse()?, Some(key)) {
                    Ok(compiled) => {
                        let compiled = Arc::new(compiled);
                        cache.insert(Arc::clone(&compiled));
                        compiled
                    }
                    Err(e) => return self.execute_with_retry(Work::Failed(&e), out),
                }
            }
        };
        self.run_compiled(&compiled, &args, out)
    }

    /// Executes a semicolon-separated script, returning the last result.
    pub fn exec_script(&self, script: &str) -> Result<QueryResult> {
        let mut last = QueryResult::default();
        for stmt in sql::parse_script(script)? {
            last = collected(|rows| self.dispatch(stmt, rows))?;
        }
        Ok(last)
    }

    /// Compiles `sql_text` under `name` — the programmatic form of
    /// `PREPARE name FROM '<sql>'`, for drivers (network or embedded)
    /// that carry the statement text out of band and must not worry
    /// about re-quoting it into SQL.
    pub fn prepare(&self, name: &str, sql_text: &str) -> Result<QueryResult> {
        let stmt = Statement::Prepare {
            name: name.to_string(),
            sql: sql_text.to_string(),
        };
        self.execute_with_retry(Work::Other(&stmt), &mut QueryResult::default())
    }

    /// Runs the prepared statement `name` with already-materialized
    /// parameter values — the programmatic form of `EXECUTE name USING
    /// …` used by drivers whose bindings arrive as [`Value`]s (e.g.
    /// decoded off a wire protocol) rather than SQL literals. The same
    /// bind-time arity and type checks apply: a bad binding never
    /// starts a transaction.
    pub fn execute_values(&self, name: &str, args: &[Value]) -> Result<QueryResult> {
        collected(|rows| self.execute_values_to(name, args, rows))
    }

    /// [`Connection::execute_values`] with the rows handed to `out`, as
    /// [`Connection::exec_to`] hands them.
    pub fn execute_values_to(
        &self,
        name: &str,
        args: &[Value],
        out: &mut dyn RowSink,
    ) -> Result<QueryResult> {
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
        self.run_compiled(&compiled, &bound, out)
    }

    /// Drops the prepared statement `name` — the programmatic form of
    /// `DEALLOCATE PREPARE name`.
    pub fn deallocate(&self, name: &str) -> Result<QueryResult> {
        let stmt = Statement::Deallocate {
            name: name.to_string(),
        };
        self.execute_with_retry(Work::Other(&stmt), &mut QueryResult::default())
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
        if let Some(open) = self.txn.lock().take() {
            let _ = open.txn.abort();
        }
        self.aborted.store(false, Ordering::SeqCst);
        let leaked = std::mem::take(&mut *self.prepared.lock()).len() as u64;
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

    /// Routes a statement that came with no compiled form (script,
    /// non-DML, or text with explicit `?`): `EXECUTE` runs its prepared
    /// statement, DML is compiled here, uncached, and joins the one path.
    fn dispatch(&self, stmt: Statement, out: &mut dyn RowSink) -> Result<QueryResult> {
        match stmt {
            Statement::Execute { name, using } => self.execute_prepared(&name, &using, out),
            dml if dml.is_dml() => match self.resolve(dml, None) {
                Ok(compiled) => self.run_compiled(&compiled, &[], out),
                Err(e) => self.execute_with_retry(Work::Failed(&e), out),
            },
            other => self.execute_with_retry(Work::Other(&other), out),
        }
    }

    /// Phase 3 — bind: substitutes `args` into the compiled statement
    /// (the one deep copy of the statement an execution makes; none
    /// when there is nothing to substitute) and runs it.
    fn run_compiled(
        &self,
        compiled: &CompiledStatement,
        args: &[Value],
        out: &mut dyn RowSink,
    ) -> Result<QueryResult> {
        let bound;
        let stmt = if args.is_empty() {
            &compiled.stmt
        } else {
            bound = prepare::bind(&compiled.stmt, args)?;
            &bound
        };
        let work = if stmt.is_dml() {
            Work::Dml(compiled, stmt)
        } else {
            Work::Other(stmt)
        };
        self.execute_with_retry(work, out)
    }

    /// `EXECUTE name [USING v1, …]`: bind-time checks (the statement
    /// never starts executing on an arity or type error), then the
    /// normal execution path with the compiled handle attached.
    fn execute_prepared(
        &self,
        name: &str,
        using: &[Expr],
        out: &mut dyn RowSink,
    ) -> Result<QueryResult> {
        let mut args = Vec::with_capacity(using.len());
        for expr in using {
            let Expr::Literal(lit) = expr else {
                return Err(IdsError::Semantic(
                    "EXECUTE ... USING accepts literal values".into(),
                ));
            };
            args.push(Self::literal_value(lit));
        }
        self.execute_values_to(name, &args, out)
    }

    /// True for errors produced by a transaction aborted as a
    /// concurrency victim — the only errors worth retrying.
    fn is_retryable(e: &IdsError) -> bool {
        matches!(
            e,
            IdsError::Storage(SbError::Deadlock(_)) | IdsError::Storage(SbError::LockTimeout(_))
        )
    }

    pub(super) fn execute_with_retry(
        &self,
        work: Work,
        out: &mut dyn RowSink,
    ) -> Result<QueryResult> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(IdsError::Semantic("connection is closed".into()));
        }
        let inner = &self.db.inner;
        let opts = &inner.opts;
        let mut attempt = 0u32;
        loop {
            // Retry is only sound for auto-commit statements: inside an
            // explicit transaction the failed statement is not the whole
            // unit of work, so the error must surface to the client.
            let auto_commit = !self.aborted.load(Ordering::SeqCst) && self.txn.lock().is_none();
            inner.counters.statements.inc();
            let started = std::time::Instant::now();
            out.clear();
            let result = self.execute_stmt(&work, out);
            inner.exec_ns.observe(started.elapsed());
            if result.is_err() {
                inner.counters.statement_errors.inc();
            }
            self.session.clear_duration(MemDuration::PerStatement);
            match result {
                Err(ref e)
                    if auto_commit && Self::is_retryable(e) && attempt < opts.deadlock_retries =>
                {
                    let backoff = opts.retry_backoff.saturating_mul(1 << attempt.min(16));
                    attempt += 1;
                    inner.counters.stmt_retries.inc();
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
                result => {
                    if result.is_err() && auto_commit {
                        // Retries exhausted (or the error was never
                        // retryable): drop any per-transaction memory
                        // preserved for a retry that will not happen.
                        self.session.clear_duration(MemDuration::PerTransaction);
                    }
                    return result;
                }
            }
        }
    }

    fn execute_stmt(&self, work: &Work, out: &mut dyn RowSink) -> Result<QueryResult> {
        // A failed statement aborted the explicit transaction; refuse
        // everything except the closing COMMIT/ROLLBACK so the client
        // cannot mistake later statements for part of the transaction.
        if self.aborted.load(Ordering::SeqCst)
            && !matches!(work, Work::Other(Statement::Commit | Statement::Rollback))
        {
            return Err(IdsError::Semantic(
                "current transaction is aborted; statements ignored until ROLLBACK WORK".into(),
            ));
        }
        let Work::Other(stmt) = work else {
            return self.with_txn(|st| self.run(st, work, out));
        };
        match stmt {
            Statement::Begin => {
                let mut guard = self.txn.lock();
                if guard.is_some() {
                    return Err(IdsError::Semantic("transaction already open".into()));
                }
                *guard = Some(OpenTxn {
                    txn: self.begin_txn(),
                    reads: Default::default(),
                });
                Ok(msg("transaction started"))
            }
            Statement::Commit | Statement::Rollback => {
                let commit = matches!(stmt, Statement::Commit);
                if self.aborted.swap(false, Ordering::SeqCst) {
                    // The transaction was already rolled back on error;
                    // COMMIT closes the block but reports the truth.
                    return Ok(msg(if commit {
                        "rolled back (transaction aborted by an earlier error)"
                    } else {
                        "rolled back"
                    }));
                }
                let open = self
                    .txn
                    .lock()
                    .take()
                    .ok_or_else(|| IdsError::Semantic("no open transaction".into()))?;
                if commit {
                    open.txn.commit()?;
                    Ok(msg("committed"))
                } else {
                    open.txn.abort()?;
                    Ok(msg("rolled back"))
                }
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
                let id = self.session.id();
                match (class, level, session) {
                    (Some(c), Some(l), false) => trace.on(c, *l),
                    (Some(c), None, false) => trace.off(c),
                    (Some(c), Some(l), true) => trace.on_session(id, c, *l),
                    (Some(c), None, true) => trace.off_session(id, Some(c)),
                    (None, _, true) => trace.off_session(id, None),
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
                let trace = &self.db.inner.trace;
                if *on {
                    trace.on_session(self.session.id(), "EXPLAIN", 1);
                } else {
                    trace.off_session(self.session.id(), Some("EXPLAIN"));
                }
                Ok(msg("explain updated"))
            }
            Statement::Prepare { name, sql } => self.prepare_statement(name, sql),
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
            _ => self.with_txn(|st| self.run(st, work, out)),
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

    fn begin_txn(&self) -> Txn {
        let txn = self.db.inner.space.begin(*self.iso.lock());
        self.db
            .inner
            .txn_sessions
            .lock()
            .insert(txn.id().0, Arc::clone(&self.session));
        txn
    }

    /// The context of one attempt at one statement; its trace sink is
    /// scoped to a fresh statement span.
    fn context<'a>(&'a self, txn: &'a Txn) -> AmContext<'a> {
        let inner = &self.db.inner;
        let span = inner.next_span.fetch_add(1, Ordering::Relaxed);
        AmContext {
            space: inner.space.clone(),
            txn,
            clock: Arc::clone(&inner.opts.clock),
            session: Arc::clone(&self.session),
            fragments: Arc::clone(&inner.fragments),
            trace: inner.trace.scoped(self.session.id(), span),
            snapshot: None,
        }
    }

    /// Runs `f` as one attempt at one statement: inside the explicit
    /// transaction when one is open, else in a transaction of its own.
    /// The [`Stmt`] made here is everything the attempt shares, and it
    /// ends with the attempt.
    fn with_txn(&self, f: impl FnOnce(&mut Stmt) -> Result<QueryResult>) -> Result<QueryResult> {
        let mut guard = self.txn.lock();
        if let Some(open) = guard.as_mut() {
            let out = f(&mut Stmt {
                explicit: Some(&mut open.reads),
                am: self.context(&open.txn),
            });
            if out.is_err() {
                // Abort-on-error: the explicit transaction cannot
                // continue past a failed statement. Roll it back right
                // here — the victim's locks must not outlive the error
                // — and poison the connection until ROLLBACK WORK.
                let open = guard.take().expect("checked");
                drop(guard);
                let _ = open.txn.abort();
                self.aborted.store(true, Ordering::SeqCst);
            }
            return out;
        }
        drop(guard);
        let txn = self.begin_txn();
        let out = f(&mut Stmt {
            explicit: None,
            am: self.context(&txn),
        });
        match out {
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
}

/// Runs a door's sink-taking form with a [`QueryResult`] as the sink:
/// that result, with the headers and message the statement reported.
fn collected(run: impl FnOnce(&mut QueryResult) -> Result<QueryResult>) -> Result<QueryResult> {
    let mut rows = QueryResult::default();
    let head = run(&mut rows)?;
    Ok(QueryResult {
        columns: head.columns,
        message: head.message,
        ..rows
    })
}
