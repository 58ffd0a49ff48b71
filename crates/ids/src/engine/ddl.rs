//! The statements that change the catalog — tables, functions, access
//! methods, operator classes, indexes — plus the ones that address an
//! index by name (CHECK INDEX, UPDATE STATISTICS). The catalog itself is
//! in-memory and not transactional, so each change made under a
//! transaction leaves a [`CatalogUndo`] behind; the end-of-transaction
//! callback installed by [`undo_on_abort`] applies them if it aborts.

use super::resolve::IndexBinding;
use super::{msg, Connection, QueryResult, Stmt, AM_SLOTS};
use crate::catalog::{self, AmEntry, Catalog, IndexMeta, TableMeta};
use crate::heap;
use crate::opclass::OpClass;
use crate::prepare::PlanCache;
use crate::session::{MemDuration, Session};
use crate::sql::Statement;
use crate::value::{DataType, Value};
use crate::vii::RowId;
use crate::{IdsError, Result};
use grt_sbspace::{LockMode, Sbspace, TxnEnd};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Compensation applied to the (non-transactional, in-memory) catalog
/// when the transaction that performed a piece of DDL aborts: the
/// storage side rolls back through the sbspace log, the catalog side
/// through these records, applied in reverse order.
pub(super) enum CatalogUndo {
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

/// Compensation records per open transaction, in the order made.
pub(super) type UndoLog = Arc<Mutex<HashMap<u64, Vec<CatalogUndo>>>>;

/// Installs the end-of-transaction callback: per-transaction named
/// memory is cleared (Section 5.4), and a rolled-back transaction takes
/// its catalog changes with it.
pub(super) fn undo_on_abort(
    space: &Sbspace,
    sessions: Arc<Mutex<HashMap<u64, Arc<Session>>>>,
    undo: UndoLog,
    catalog: Arc<Mutex<Catalog>>,
    plan_cache: Arc<PlanCache>,
) {
    space.on_txn_end(move |txn, end: TxnEnd| {
        if let Some(session) = sessions.lock().remove(&txn.0) {
            session.clear_duration(MemDuration::PerTransaction);
        }
        // DDL undo: a rolled-back transaction takes its catalog
        // changes with it. The compensation records are applied in
        // reverse, then the plan cache drops every compiled
        // statement touching the affected tables.
        let (TxnEnd::Abort, Some(ops)) = (end, undo.lock().remove(&txn.0)) else {
            return;
        };
        let mut affected: Vec<String> = Vec::new();
        {
            let mut cat = catalog.lock();
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
            plan_cache.invalidate_table(&table);
        }
    });
}

impl Connection {
    /// Runs a statement that is not INSERT / SELECT / DELETE / UPDATE.
    pub(super) fn run_ddl(&self, st: &Stmt, stmt: &Statement) -> Result<QueryResult> {
        let inner = &self.db.inner;
        match stmt {
            Statement::CreateTable { name, columns } => self.create_table(st, name, columns),
            Statement::DropTable { name } => self.drop_table(st, name),
            Statement::CreateFunction {
                name,
                args,
                returns,
                external,
            } => {
                let arg_types = args.iter().map(|a| DataType::parse(a)).collect();
                inner.udrs.lock().create_function(
                    name,
                    arg_types,
                    DataType::parse(returns),
                    external,
                )?;
                inner.udr_generation.fetch_add(1, Ordering::Release);
                Ok(msg(&format!("function {name} created")))
            }
            Statement::DropFunction { name } => {
                inner.udrs.lock().drop_function(name)?;
                inner.udr_generation.fetch_add(1, Ordering::Release);
                inner.plan_cache.invalidate_all();
                Ok(msg(&format!("function {name} dropped")))
            }
            Statement::AlterFunction {
                name,
                negator,
                commutator,
            } => {
                let mut udrs = inner.udrs.lock();
                if let Some(n) = negator {
                    udrs.set_negator(name, n)?;
                }
                if let Some(c) = commutator {
                    udrs.set_commutator(name, c)?;
                }
                drop(udrs);
                inner.udr_generation.fetch_add(1, Ordering::Release);
                inner.plan_cache.invalidate_all();
                Ok(msg(&format!("function {name} altered")))
            }
            Statement::CreateAccessMethod { name, bindings } => {
                self.create_access_method(name, bindings)
            }
            Statement::DropAccessMethod { name } => {
                let mut catalog = inner.catalog.lock();
                if catalog
                    .indices
                    .values()
                    .any(|i| i.access_method.eq_ignore_ascii_case(name))
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
                inner.plan_cache.invalidate_all();
                Ok(msg(&format!("access method {name} dropped")))
            }
            Statement::CreateOpClass {
                name,
                access_method,
                strategies,
                supports,
            } => {
                inner.catalog.lock().am(access_method)?;
                {
                    let udrs = inner.udrs.lock();
                    for f in strategies.iter().chain(supports) {
                        if !udrs.exists(f) {
                            return Err(IdsError::NotFound(format!(
                                "function {f} (declare it before the opclass)"
                            )));
                        }
                    }
                }
                inner.opclasses.lock().create(OpClass {
                    name: name.clone(),
                    access_method: access_method.clone(),
                    strategies: strategies.clone(),
                    supports: supports.clone(),
                })?;
                Ok(msg(&format!("opclass {name} created")))
            }
            Statement::DropOpClass { name } => {
                let catalog = inner.catalog.lock();
                if catalog
                    .indices
                    .values()
                    .any(|i| i.opclass.eq_ignore_ascii_case(name))
                {
                    return Err(IdsError::Semantic(format!(
                        "opclass {name} is in use by an index"
                    )));
                }
                drop(catalog);
                inner.opclasses.lock().drop_class(name)?;
                inner.plan_cache.invalidate_all();
                Ok(msg(&format!("opclass {name} dropped")))
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
                using,
                space,
            } => self.create_index(st, name, table, columns, using, space.as_deref()),
            Statement::DropIndex { name } => self.drop_index(st, name),
            Statement::CheckIndex { name } => {
                let ix = self.bind_index(name)?;
                self.am_call(st, &ix, "am_check", |am, td, ctx| am.am_check(td, ctx))?;
                Ok(msg(&format!("index {name} is consistent")))
            }
            Statement::UpdateStatistics { index } => {
                let ix = self.bind_index(index)?;
                let report =
                    self.am_call(st, &ix, "am_stats", |am, td, ctx| am.am_stats(td, ctx))?;
                Ok(msg(&report))
            }
            Statement::Load { path, table } => self.load(st, path, table),
            other => Err(IdsError::Semantic(format!("unhandled statement {other:?}"))),
        }
    }

    /// Records a catalog compensation to run if the statement's
    /// transaction aborts.
    fn register_undo(&self, st: &Stmt, op: CatalogUndo) {
        self.db
            .inner
            .txn_undo
            .lock()
            .entry(st.am.txn.id().0)
            .or_default()
            .push(op);
    }

    fn create_table(
        &self,
        st: &Stmt,
        name: &str,
        columns: &[(String, String)],
    ) -> Result<QueryResult> {
        let inner = &self.db.inner;
        let key = name.to_ascii_lowercase();
        if catalog::system_catalog(name).is_some() {
            return Err(IdsError::Duplicate(format!("system catalog {name}")));
        }
        if inner.catalog.lock().tables.contains_key(&key) {
            return Err(IdsError::Duplicate(format!("table {name}")));
        }
        let mut cols = Vec::with_capacity(columns.len());
        for (cname, tname) in columns {
            let ty = DataType::parse(tname);
            if let DataType::Opaque(t) = &ty {
                if !t.eq_ignore_ascii_case("pointer")
                    && !inner.opaques.lock().contains_key(&t.to_ascii_lowercase())
                {
                    return Err(IdsError::NotFound(format!("type {t}")));
                }
            }
            cols.push((cname.clone(), ty));
        }
        let lo = inner.space.create_lo(st.am.txn)?;
        let mut h = inner.space.open_lo(st.am.txn, lo, LockMode::Exclusive)?;
        heap::init(&mut h)?;
        h.close()?;
        inner.catalog.lock().tables.insert(
            key.clone(),
            TableMeta {
                name: name.to_string(),
                columns: cols,
                lo,
            },
        );
        inner.plan_cache.invalidate_table(&key);
        self.register_undo(st, CatalogUndo::RemoveTable(key));
        Ok(msg(&format!("table {name} created")))
    }

    fn drop_table(&self, st: &Stmt, name: &str) -> Result<QueryResult> {
        let inner = &self.db.inner;
        let (meta, indexes) = {
            let catalog = inner.catalog.lock();
            let meta = catalog.table(name)?.clone();
            let indexes: Vec<String> = catalog
                .indices_of(name)
                .into_iter()
                .map(|ix| ix.name.clone())
                .collect();
            (meta, indexes)
        };
        for ix in indexes {
            self.drop_index(st, &ix)?;
        }
        inner.space.drop_lo(st.am.txn, meta.lo)?;
        let key = name.to_ascii_lowercase();
        inner.catalog.lock().tables.remove(&key);
        self.register_undo(st, CatalogUndo::ReinsertTable(meta));
        inner.plan_cache.invalidate_table(&key);
        Ok(msg(&format!("table {name} dropped")))
    }

    fn create_access_method(
        &self,
        name: &str,
        bindings: &[(String, String)],
    ) -> Result<QueryResult> {
        let mut purpose = Vec::new();
        let mut sptype = "S".to_string();
        let mut library: Option<String> = None;
        {
            let udrs = self.db.inner.udrs.lock();
            for (slot, value) in bindings {
                let slot_l = slot.to_ascii_lowercase();
                if slot_l == "am_sptype" {
                    sptype = value.clone();
                    continue;
                }
                // Every slot the engine calls, plus the one it never does.
                if !AM_SLOTS.contains(&slot_l.as_str()) && slot_l != "am_rescan" {
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
            Arc::new(AmEntry {
                name: name.to_string(),
                purpose,
                sptype,
                handler,
            }),
        );
        Ok(msg(&format!("secondary access method {name} created")))
    }

    fn create_index(
        &self,
        st: &Stmt,
        name: &str,
        table: &str,
        columns: &[(String, Option<String>)],
        using: &str,
        space: Option<&str>,
    ) -> Result<QueryResult> {
        let inner = &self.db.inner;
        let (table_meta, am, opclass) = {
            let catalog = inner.catalog.lock();
            if catalog.indices.contains_key(&name.to_ascii_lowercase()) {
                return Err(IdsError::Duplicate(format!("index {name}")));
            }
            let table_meta = catalog.table(table)?.clone();
            let am = Arc::clone(catalog.am(using)?);
            let opclasses = inner.opclasses.lock();
            let opclass = match columns.first().and_then(|(_, oc)| oc.clone()) {
                Some(oc) => {
                    let class = opclasses.get(&oc)?;
                    if !class.access_method.eq_ignore_ascii_case(using) {
                        return Err(IdsError::Semantic(format!(
                            "opclass {oc} belongs to {}, not {using}",
                            class.access_method
                        )));
                    }
                    oc
                }
                None => opclasses
                    .default_for(using)
                    .ok_or_else(|| {
                        IdsError::Semantic(format!("access method {using} has no default opclass"))
                    })?
                    .name
                    .clone(),
            };
            (table_meta, am, opclass)
        };
        // The catalog row first (column names as the table spells
        // them), then the same binding every later statement will make
        // from it.
        let meta = IndexMeta {
            name: name.to_string(),
            table: table_meta.name.clone(),
            columns: columns
                .iter()
                .map(|(c, _)| Ok(table_meta.columns[table_meta.column_index(c)?].0.clone()))
                .collect::<Result<_>>()?,
            access_method: am.name.clone(),
            opclass,
            space: space.unwrap_or("sbspace").to_string(),
        };
        let mut ix = IndexBinding::new(meta, &table_meta, am, None)?;
        if let Some(space) = space {
            ix.desc.params.insert("space".into(), space.to_string());
        }
        self.am_call(st, &ix, "am_create", |am, td, ctx| am.am_create(td, ctx))?;
        // Existing rows are indexed on creation; the heap stays open
        // (and share-locked) until the index has them all.
        let h = self.open_heap(st, &table_meta, LockMode::Shared)?;
        let mut rows: Vec<(RowId, Vec<Value>)> = Vec::new();
        let mut scan = heap::HeapScan::new();
        while let Some((rid, row)) = scan.next(&h)? {
            rows.push((rid, ix.keys(&row)));
        }
        self.am_opened(st, &ix, || {
            // An access method that knows how to pack a tree builds the
            // index in one pass; otherwise fall back to row-at-a-time
            // insertion, the original Figure 6(a) loop.
            let built = !rows.is_empty()
                && self.am_call(st, &ix, "am_build", |am, td, ctx| {
                    am.am_build(td, &rows, ctx)
                })?;
            if !built {
                for (rid, keys) in &rows {
                    self.am_call(st, &ix, "am_insert", |am, td, ctx| {
                        am.am_insert(td, keys, *rid, ctx)
                    })?;
                }
            }
            Ok(())
        })?;
        drop(h);
        let key = name.to_ascii_lowercase();
        inner.catalog.lock().indices.insert(key.clone(), ix.meta);
        self.register_undo(st, CatalogUndo::RemoveIndex(key));
        inner
            .plan_cache
            .invalidate_table(&table_meta.name.to_ascii_lowercase());
        Ok(msg(&format!("index {name} created")))
    }

    fn drop_index(&self, st: &Stmt, name: &str) -> Result<QueryResult> {
        // The binding captures the root-fragment registry entry before
        // am_drop tears it down, so an aborting transaction can
        // reinstate it.
        let ix = self.bind_index(name)?;
        self.am_call(st, &ix, "am_drop", |am, td, ctx| am.am_drop(td, ctx))?;
        let inner = &self.db.inner;
        inner
            .catalog
            .lock()
            .indices
            .remove(&name.to_ascii_lowercase());
        let table_key = ix.meta.table.to_ascii_lowercase();
        let frag = ix.fragment.map(|lo| lo.0);
        self.register_undo(st, CatalogUndo::ReinsertIndex(ix.meta, frag));
        inner.plan_cache.invalidate_table(&table_key);
        Ok(msg(&format!("index {name} dropped")))
    }
}
