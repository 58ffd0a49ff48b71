//! Phase 4 of statement execution — execute: scans, heap changes, and
//! the purpose-function call sequences of Figure 6, all driven through
//! the statement's [`TableBinding`] and its one [`Stmt`] context.

use super::resolve::{IndexBinding, TableBinding};
use super::{msg, Connection, QueryResult, Stmt, Work};
use crate::catalog::TableMeta;
use crate::heap;
use crate::planner::Plan;
use crate::prepare::{CompiledStatement, Projection};
use crate::sink::RowSink;
use crate::sql::{Expr, Statement};
use crate::value::{DataType, Value};
use crate::vii::{AccessMethod, AmContext, IndexDescriptor, QualDescriptor, RowId, ScanDescriptor};
use crate::{IdsError, Result};
use grt_sbspace::{LoHandle, LockMode, PageSource};

impl Connection {
    /// Runs one attempt's work inside its transaction; a SELECT's rows
    /// go to `out`.
    pub(super) fn run(
        &self,
        st: &mut Stmt,
        work: &Work,
        out: &mut dyn RowSink,
    ) -> Result<QueryResult> {
        // Any non-SELECT inside an explicit transaction takes it off the
        // snapshot read path for the rest of its life: its own writes
        // must be visible, which only the locked path guarantees.
        if let Some(reads) = &mut st.explicit {
            reads.wrote |= !matches!(work, Work::Dml(_, Statement::Select { .. }));
        }
        match *work {
            Work::Failed(e) => Err(e.clone()),
            Work::Other(stmt) => self.run_ddl(st, stmt),
            Work::Dml(compiled, stmt) => match stmt {
                Statement::Insert { table, values } => self.insert(st, compiled, table, values),
                Statement::Select {
                    table,
                    where_clause,
                    ..
                } => self.select(st, compiled, table, where_clause.as_ref(), out),
                Statement::Delete {
                    table,
                    where_clause,
                } => self.delete(st, compiled, table, where_clause.as_ref()),
                Statement::Update {
                    table,
                    sets,
                    where_clause,
                } => self.update(st, compiled, table, sets, where_clause.as_ref()),
                _ => unreachable!("Work::Dml carries DML only"),
            },
        }
    }

    /// The table binding of a compiled DML statement's execution.
    /// Tables are never altered, so the heap `resolve` saw still being
    /// the table's heap means everything it resolved still holds.
    fn bound(&self, compiled: &CompiledStatement, table: &str) -> Result<TableBinding> {
        let binding = self.bind_table(table)?;
        if Some(binding.table.lo) != compiled.heap {
            return Err(IdsError::Semantic(format!(
                "table {table} has been dropped and re-created since this statement \
                 was compiled; prepare it again"
            )));
        }
        Ok(binding)
    }

    /// One purpose-function call: count it, trace it under the name it
    /// was registered with, make it — on the statement's descriptor for
    /// the index, with the statement's context.
    pub(super) fn am_call<T>(
        &self,
        st: &Stmt,
        ix: &IndexBinding,
        slot: &str,
        call: impl FnOnce(&dyn AccessMethod, &IndexDescriptor, &AmContext) -> Result<T>,
    ) -> Result<T> {
        if let Some(c) = self.db.inner.counters.am_calls.get(slot) {
            c.inc();
        }
        st.am.trace.emit_with("AM", 1, || ix.am.purpose_name(slot));
        call(&*ix.am.handler, &ix.desc, &st.am)
    }

    /// The `am_open` … `am_close` bracket around `body`. A failing body
    /// leaves without `am_close`: the statement is over and its
    /// transaction is about to be rolled back.
    pub(super) fn am_opened<T>(
        &self,
        st: &Stmt,
        ix: &IndexBinding,
        body: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        self.am_call(st, ix, "am_open", |am, td, ctx| am.am_open(td, ctx))?;
        let out = body()?;
        self.am_call(st, ix, "am_close", |am, td, ctx| am.am_close(td, ctx))?;
        Ok(out)
    }

    /// Index maintenance for one row, the Figure 6(a) call sequence per
    /// index: `am_open`, the one maintenance call, `am_close` — on every
    /// index of the table but `skip`.
    fn maintain(
        &self,
        st: &Stmt,
        binding: &TableBinding,
        skip: Option<&IndexBinding>,
        slot: &str,
        call: impl Fn(&IndexBinding, &dyn AccessMethod, &IndexDescriptor, &AmContext) -> Result<()>,
    ) -> Result<()> {
        for ix in &binding.indexes {
            if skip.is_some_and(|s| std::ptr::eq(s, ix)) {
                continue;
            }
            self.am_opened(st, ix, || {
                self.am_call(st, ix, slot, |am, td, ctx| call(ix, am, td, ctx))
            })?;
        }
        Ok(())
    }

    pub(super) fn open_heap(
        &self,
        st: &Stmt,
        table: &TableMeta,
        mode: LockMode,
    ) -> Result<LoHandle> {
        Ok(self.db.inner.space.open_lo(st.am.txn, table.lo, mode)?)
    }

    /// Stores `row` in the heap and in every index.
    fn insert_row(&self, st: &Stmt, binding: &TableBinding, row: &[Value]) -> Result<()> {
        let rid = {
            let mut h = self.open_heap(st, &binding.table, LockMode::Exclusive)?;
            heap::insert(&mut h, row)?
        };
        self.maintain(st, binding, None, "am_insert", |ix, am, td, ctx| {
            am.am_insert(td, &ix.keys(row), rid, ctx)
        })
    }

    fn insert(
        &self,
        st: &Stmt,
        compiled: &CompiledStatement,
        table: &str,
        values: &[Expr],
    ) -> Result<QueryResult> {
        let binding = &self.bound(compiled, table)?;
        let mut row = Vec::with_capacity(values.len());
        for (expr, (_, ty)) in values.iter().zip(&binding.table.columns) {
            row.push(self.fold_expr(expr, Some(ty), &st.am)?);
        }
        self.insert_row(st, binding, &row)?;
        Ok(msg("1 row inserted"))
    }

    /// The `LOAD` command: reads a pipe-separated text file and inserts
    /// each line through the type-support *import* functions — the
    /// paper's Section 6.3 third support-function family.
    pub(super) fn load(&self, st: &Stmt, path: &str, table: &str) -> Result<QueryResult> {
        let binding = self.bind_table(table)?;
        let columns = &binding.table.columns;
        let content = std::fs::read_to_string(path)
            .map_err(|e| IdsError::Semantic(format!("cannot read {path}: {e}")))?;
        let mut count = 0usize;
        for (lineno, line) in content.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split('|').collect();
            if fields.len() != columns.len() {
                return Err(IdsError::Semantic(format!(
                    "{path}:{}: {} fields for {} columns",
                    lineno + 1,
                    fields.len(),
                    columns.len()
                )));
            }
            let mut row = Vec::with_capacity(fields.len());
            for (field, (_, ty)) in fields.iter().zip(columns) {
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
            self.insert_row(st, &binding, &row)?;
            count += 1;
        }
        Ok(msg(&format!("{count} rows loaded")))
    }

    /// The Figure 6(b) call sequence: `am_open`, `am_beginscan`, one
    /// `am_getnext_batch` per `scan_batch_rows` hits (each handed to
    /// `batch`; a short one ends the scan), `am_endscan`, `am_close`.
    fn index_scan(
        &self,
        st: &Stmt,
        ix: &IndexBinding,
        qual: &QualDescriptor,
        mut batch: impl FnMut(Vec<(RowId, Vec<Value>)>) -> Result<()>,
    ) -> Result<()> {
        let max = self.db.inner.opts.scan_batch_rows;
        self.am_opened(st, ix, || {
            let mut scan = ScanDescriptor::new(qual.clone());
            self.am_call(st, ix, "am_beginscan", |am, td, ctx| {
                am.am_beginscan(td, &mut scan, ctx)
            })?;
            loop {
                let hits = self.am_call(st, ix, "am_getnext_batch", |am, td, ctx| {
                    am.am_getnext_batch(td, &mut scan, max, ctx)
                })?;
                self.db.inner.batch_rows.observe_ns(hits.len() as u64);
                let exhausted = hits.len() < max;
                batch(hits)?;
                if exhausted {
                    break;
                }
            }
            self.am_call(st, ix, "am_endscan", |am, td, ctx| {
                am.am_endscan(td, &mut scan, ctx)
            })
        })
    }

    /// Runs a scan, invoking `sink` for each qualifying row and its
    /// rowid; `sink` returns whether to go on. With a `projection` the
    /// rows are the SELECT's output rows; without one they are whole
    /// table rows (UPDATE and DELETE write back and re-index what they
    /// read).
    fn scan(
        &self,
        st: &Stmt,
        binding: &TableBinding,
        plan: &Plan,
        projection: Option<&Projection>,
        mut sink: impl FnMut(RowId, Met) -> Result<bool>,
    ) -> Result<()> {
        let table = &binding.table;
        // `row` is a row of `shape`: the table, or the columns of it an
        // index scan decoded.
        let keep = |filter: &Option<Expr>, row: &[Value], shape: &TableMeta| -> Result<bool> {
            match filter {
                Some(f) => self.eval_expr(f, Some((row, shape)), &st.am)?.as_bool(),
                None => Ok(true),
            }
        };
        // Snapshot statements read the heap through the frozen view —
        // no LO-level S lock; locked statements open the heap as before.
        let (frozen, locked);
        let h: &dyn PageSource = match st.am.snapshot.as_deref() {
            Some(s) => {
                frozen = s.reader(table.lo)?;
                &frozen
            }
            None => {
                locked = self.open_heap(st, table, LockMode::Shared)?;
                &locked
            }
        };
        match plan {
            Plan::SeqScan { filter } => {
                let mut scan = heap::HeapScan::new();
                while let Some((rid, row)) = scan.next(&h)? {
                    if !keep(filter, &row, table)? {
                        continue;
                    }
                    let row = match projection {
                        Some(p) => p.apply(&row),
                        None => row,
                    };
                    if !sink(rid, Met::Row(row))? {
                        break;
                    }
                }
            }
            Plan::IndexScan {
                index,
                qual,
                residual,
            } => {
                let ix = binding.index(index).expect("the plan names a bound index");
                // The index is drained first, for rowids alone.
                let mut rids = std::mem::take(&mut *self.rids.lock());
                rids.clear();
                self.index_scan(st, ix, qual, |hits| {
                    rids.extend(hits.into_iter().map(|(rid, _)| rid));
                    Ok(())
                })?;
                // What the heap pass builds of each row it meets. A
                // SELECT with no residual builds nothing: the stored row
                // goes to `sink` as it lies on the page, with the output
                // columns' positions. With a residual it decodes the
                // projected columns in output order, so the decoded row
                // *is* the output row, followed by any column only the
                // residual reads (cut off again once the residual has
                // been evaluated); UPDATE and DELETE decode the whole
                // row. A column the statement never names is stepped
                // over on the page and never becomes a value.
                let widened = projection
                    .zip(residual.as_ref())
                    .map(|(p, f)| p.widened_for(f, table))
                    .transpose()?;
                let (columns, shape) = match &widened {
                    Some((columns, shape)) => (Some(&columns[..]), shape),
                    None => (projection.map(|p| &p.positions[..]), table),
                };
                // Then one ordered pass over the heap: each page that
                // holds a hit is pinned once, so the base-row fetches
                // cost at most one sequential pass whatever order the
                // index returned them in. A row may be gone under weaker
                // isolation; the pass skips it.
                let fetched = heap::fetch_ordered(&h, &mut rids, |rid, stored| {
                    let mut row = match (columns, residual) {
                        (Some(columns), None) => return sink(rid, Met::Stored(stored, columns)),
                        (Some(columns), Some(_)) => Value::decode_columns(stored, columns)?,
                        (None, _) => Value::decode_row(stored)?,
                    };
                    if !keep(residual, &row, shape)? {
                        return Ok(true);
                    }
                    if let Some(p) = projection {
                        row.truncate(p.positions.len());
                    }
                    sink(rid, Met::Row(row))
                })?;
                *self.rids.lock() = rids;
                let counters = &self.db.inner.counters;
                counters.heap_rows.add(fetched.rows);
                counters.heap_pages.add(fetched.pages);
                st.explain(|| {
                    format!(
                        "{}: heap fetch: {} rows from {} pages",
                        table.name, fetched.rows, fetched.pages
                    )
                });
            }
        }
        Ok(())
    }

    /// Everything a plan selects, materialized (DELETE and UPDATE change
    /// the heap they scan, so they collect first).
    fn collect(
        &self,
        st: &Stmt,
        binding: &TableBinding,
        plan: &Plan,
    ) -> Result<Vec<(RowId, Vec<Value>)>> {
        let mut rows = Vec::new();
        self.scan(st, binding, plan, None, |rid, row| {
            rows.push((rid, row.into_row()?));
            Ok(true)
        })?;
        Ok(rows)
    }

    /// Hands every output row to `out`; the result returned carries
    /// the headers.
    fn select(
        &self,
        st: &mut Stmt,
        compiled: &CompiledStatement,
        table: &str,
        where_clause: Option<&Expr>,
        out: &mut dyn RowSink,
    ) -> Result<QueryResult> {
        let projection = compiled
            .projection
            .as_ref()
            .expect("resolve projects every SELECT");
        if compiled.heap.is_none() {
            // A system catalog, queryable like a table (projection only);
            // it has no opaque column, so no text only the server can make.
            let (_, all) = self.db.catalog_dump(table)?;
            for row in &all {
                out.values(projection.apply(row))?;
            }
        } else {
            let binding = &self.bound(compiled, table)?;
            let table = &binding.table.name;
            // Route the read: a snapshot statement plans and scans
            // against a frozen view (no LO-level locks at all);
            // everything else keeps the 2PL locked path. The choice is
            // surfaced on the EXPLAIN trace channel so plans are
            // auditable.
            st.am.snapshot = self.statement_snapshot(st, binding);
            let st = &*st;
            st.explain(|| match &st.am.snapshot {
                Some(s) => format!("{table}: plan: snapshot (epoch {})", s.epoch()),
                None => format!("{table}: plan: locked"),
            });
            let plan = self.plan(st, compiled, binding, where_clause)?;
            let columns = &binding.table.columns;
            let types: Vec<&DataType> = projection
                .positions
                .iter()
                .map(|&i| &columns[i].1)
                .collect();
            let renderer = self.renderer(&types);
            self.scan(st, binding, &plan, Some(projection), |_rid, row| {
                match (row, &renderer) {
                    (Met::Stored(stored, positions), None) => out.stored(stored, positions)?,
                    (row, renderer) => {
                        let row = row.into_row()?;
                        let text = renderer.as_ref().map(|r| r.row(&row));
                        out.values(row)?;
                        if let Some(text) = text {
                            out.text(text);
                        }
                    }
                }
                Ok(true)
            })?;
        }
        Ok(QueryResult {
            columns: projection.headers.clone(),
            ..QueryResult::default()
        })
    }

    fn delete(
        &self,
        st: &Stmt,
        compiled: &CompiledStatement,
        table: &str,
        where_clause: Option<&Expr>,
    ) -> Result<QueryResult> {
        let binding = &self.bound(compiled, table)?;
        let table = &binding.table;
        let plan = self.plan(st, compiled, binding, where_clause)?;
        let mut count = 0usize;
        match &plan {
            // The paper's Section 5.5 flow: qualifying entries are
            // retrieved through the open cursor a batch at a time and
            // deleted one by one through the SAME index descriptor, so
            // the DataBlade's restart-on-condense logic is exercised:
            // the deletes may condense the tree and restart the cursor,
            // which the next am_getnext_batch call must survive without
            // re-emitting rows.
            Plan::IndexScan {
                index,
                qual,
                residual,
            } => {
                let ix = binding.index(index).expect("the plan names a bound index");
                let mut h = self.open_heap(st, table, LockMode::Exclusive)?;
                self.index_scan(st, ix, qual, |hits| {
                    for (rid, _keys) in hits {
                        let Some(row) = heap::fetch(&h, rid)? else {
                            continue;
                        };
                        if let Some(f) = residual {
                            if !self.eval_expr(f, Some((&row, table)), &st.am)?.as_bool()? {
                                continue;
                            }
                        }
                        heap::delete(&mut h, rid)?;
                        // The scanned index is maintained through the
                        // open descriptor (grt_delete resets the cursor
                        // if the tree condensed)...
                        self.am_call(st, ix, "am_delete", |am, td, ctx| {
                            am.am_delete(td, &ix.keys(&row), rid, ctx)
                        })?;
                        // ...other indexes of the table through their own.
                        self.maintain(st, binding, Some(ix), "am_delete", |other, am, td, ctx| {
                            am.am_delete(td, &other.keys(&row), rid, ctx)
                        })?;
                        count += 1;
                    }
                    Ok(())
                })?;
            }
            Plan::SeqScan { .. } => {
                let victims = self.collect(st, binding, &plan)?;
                {
                    let mut h = self.open_heap(st, table, LockMode::Exclusive)?;
                    for (rid, _) in &victims {
                        heap::delete(&mut h, *rid)?;
                    }
                }
                for (rid, row) in &victims {
                    self.maintain(st, binding, None, "am_delete", |ix, am, td, ctx| {
                        am.am_delete(td, &ix.keys(row), *rid, ctx)
                    })?;
                }
                count = victims.len();
            }
        }
        Ok(msg(&format!("{count} rows deleted")))
    }

    fn update(
        &self,
        st: &Stmt,
        compiled: &CompiledStatement,
        table: &str,
        sets: &[(String, Expr)],
        where_clause: Option<&Expr>,
    ) -> Result<QueryResult> {
        let binding = &self.bound(compiled, table)?;
        let table = &binding.table;
        let plan = self.plan(st, compiled, binding, where_clause)?;
        let victims = self.collect(st, binding, &plan)?;
        let mut targets = Vec::with_capacity(sets.len());
        for (col, expr) in sets {
            targets.push((table.column_index(col)?, expr));
        }
        let count = victims.len();
        for (rid, old_row) in victims {
            let mut new_row = old_row.clone();
            for &(i, expr) in &targets {
                // SET accepts any expression over the old row.
                new_row[i] = self
                    .eval_expr(expr, Some((&old_row, table)), &st.am)
                    .and_then(|v| self.coerce(v, &table.columns[i].1))?;
            }
            let new_rid = {
                let mut h = self.open_heap(st, table, LockMode::Exclusive)?;
                heap::update(&mut h, rid, &new_row)?
            };
            self.maintain(st, binding, None, "am_update", |ix, am, td, ctx| {
                am.am_update(
                    td,
                    &ix.keys(&old_row),
                    rid,
                    &ix.keys(&new_row),
                    new_rid,
                    ctx,
                )
            })?;
        }
        Ok(msg(&format!("{count} rows updated")))
    }
}

/// One row a scan meets, as its sink receives it.
enum Met<'a> {
    /// A row built as values.
    Row(Vec<Value>),
    /// A stored row as it lies on the heap page, of which the output row
    /// is the columns at these positions (an index scan for a SELECT
    /// with no residual).
    Stored(&'a [u8], &'a [usize]),
}

impl Met<'_> {
    /// The row as values.
    fn into_row(self) -> Result<Vec<Value>> {
        match self {
            Met::Row(row) => Ok(row),
            Met::Stored(stored, positions) => Value::decode_columns(stored, positions),
        }
    }
}
