//! The thirteen purpose-function bodies (plus `am_build`, `am_stats`
//! and `am_check`), generic over the [`TreeAm`] they run for, and the
//! macro that forwards an access method's `AccessMethod` entry points
//! to them. Each body narrates its Table 5 steps through
//! [`TreeAm::trace`]; only `grtree_am` prints them.

use crate::curtime::resolve_current_time;
use crate::tree_am::{
    am_err, cost_estimate, ensure_tree, metrics, release, scan_step, snapshot_reader, with_td,
    DeletePolicy, Event, Row, ScanState, TdState, TreeAm,
};
use grt_ids::{
    AmContext, DataType, IdsError, IndexDescriptor, QualDescriptor, RowId, ScanDescriptor, Value,
};
use grt_sbspace::{LoId, LockMode};
use grt_treekit::{Emitted, Entry, Tree};

pub(crate) fn create<A: TreeAm>(
    am: &A,
    idx: &IndexDescriptor,
    ctx: &AmContext,
) -> Result<(), IdsError> {
    let say = |text: &str| am.trace(ctx, Event::Step("create", text));
    say("(1) Create object Tree and save its pointer in td");
    // (2) The access method handles only its own opaque type.
    match idx.column_types.first() {
        Some(DataType::Opaque(t)) if t.eq_ignore_ascii_case(A::COLUMN_TYPE) => {}
        other => {
            say("(2) column type check failed");
            return Err(IdsError::AccessMethod(format!(
                "{} indexes {} columns, got {other:?}",
                A::NAME,
                A::COLUMN_TYPE
            )));
        }
    }
    say("(2) column types accepted");
    say("(3) operator class accepted");
    // (4) Duplicate indices on the same column are rejected by the
    // engine's catalog; (5) create the BLOB.
    let lo = ctx.space.create_lo(ctx.txn)?;
    say("(5) Create a BLOB where the index will be stored");
    // (6) Record the BLOB handle in the table associated with the
    // access method (SYSFRAGMENTS).
    ctx.fragments.lock().insert(idx.index_name.clone(), lo.0);
    say("(6) Insert index id and BLOB handle into the access-method table");
    // (7) Open the BLOB and initialise the tree.
    let handle = ctx.space.open_lo(ctx.txn, lo, LockMode::Exclusive)?;
    let mut tree = Tree::create(handle, am.header()).map_err(am_err)?;
    tree.set_metrics(metrics::<A>(ctx));
    say("(7) Open the BLOB");
    *idx.user_data.lock() = Some(Box::new(TdState::<A> {
        lo,
        mode: LockMode::Exclusive,
        tree: Some(tree),
        ct: resolve_current_time(am.curtime(), ctx),
        scan: None,
    }));
    Ok(())
}

pub(crate) fn drop_index<A: TreeAm>(
    am: &A,
    idx: &IndexDescriptor,
    ctx: &AmContext,
) -> Result<(), IdsError> {
    let say = |text: &str| am.trace(ctx, Event::Step("drop", text));
    say("(1) Get a pointer to Tree object from td");
    // Close any open tree first.
    release::<A>(idx)?;
    let lo = ctx.fragments.lock().remove(&idx.index_name);
    if let Some(lo) = lo {
        ctx.space.drop_lo(ctx.txn, LoId(lo))?;
        say("(2) Drop the BLOB");
    }
    say("(3) Delete Tree object");
    say("(4) Delete the record from the access-method table");
    Ok(())
}

pub(crate) fn open<A: TreeAm>(
    am: &A,
    idx: &IndexDescriptor,
    ctx: &AmContext,
) -> Result<(), IdsError> {
    let say = |text: &str| am.trace(ctx, Event::Step("open", text));
    let ct = resolve_current_time(am.curtime(), ctx);
    with_td::<A, _>(idx, ctx, |td| {
        td.ct = ct;
        if td.tree.is_some() {
            say("(1) invoked right after grt_create: exit");
            return Ok(());
        }
        if ctx.snapshot.is_some() {
            // The statement runs on a frozen space snapshot: no BLOB is
            // opened and no LO-level lock is taken — the scan mounts
            // the view at am_beginscan.
            say("(2) snapshot scan: defer to frozen view");
            return Ok(());
        }
        say("(2) Create object Tree and save its pointer in td");
        say("(3) Get the BLOB handle from the access-method table");
        ensure_tree(am, td, ctx, false)?;
        say("(4) Open the BLOB");
        Ok(())
    })
}

pub(crate) fn close<A: TreeAm>(
    am: &A,
    idx: &IndexDescriptor,
    ctx: &AmContext,
) -> Result<(), IdsError> {
    let say = |text: &str| am.trace(ctx, Event::Step("close", text));
    say("(1) Get a pointer to Tree object from td");
    if release::<A>(idx)? {
        say("(2) Close the BLOB");
    }
    say("(3) Delete Tree object");
    Ok(())
}

pub(crate) fn beginscan<A: TreeAm>(
    am: &A,
    idx: &IndexDescriptor,
    scan: &mut ScanDescriptor,
    ctx: &AmContext,
) -> Result<(), IdsError> {
    let say = |text: &str| am.trace(ctx, Event::Step("beginscan", text));
    say("(1) Get qualification descriptor qd from sd");
    say("(2) Get index descriptor td from sd");
    let qual = am.compile(&scan.qual)?;
    let probes = am.probes(&qual)?;
    let extra = am.begin(idx, ctx)?;
    with_td::<A, _>(idx, ctx, |td| {
        let reader = snapshot_reader(am, td, ctx)?;
        if reader.is_some() {
            say("(2a) snapshot scan: mount frozen view, no BLOB lock");
        } else {
            ensure_tree(am, td, ctx, false)?;
        }
        td.scan = Some(ScanState {
            probes,
            current: 0,
            cursor: None,
            qual,
            seen: Emitted::new(),
            reader,
            extra,
        });
        say("(3) Create Cursor object by calling Tree's search() method");
        say("(4) Save a pointer to Cursor in td");
        Ok(())
    })
}

pub(crate) fn rescan<A: TreeAm>(
    am: &A,
    idx: &IndexDescriptor,
    ctx: &AmContext,
) -> Result<(), IdsError> {
    let say = |text: &str| am.trace(ctx, Event::Step("rescan", text));
    say("(1-2) Get Cursor from td");
    with_td::<A, _>(idx, ctx, |td| {
        if let Some(scan) = td.scan.as_mut() {
            scan.replay();
        }
        say("(3) Reset Cursor");
        Ok(())
    })
}

pub(crate) fn getnext<A: TreeAm>(
    am: &A,
    idx: &IndexDescriptor,
    ctx: &AmContext,
) -> Result<Option<Row>, IdsError> {
    with_td::<A, _>(idx, ctx, |td| scan_step(am, td, ctx))
}

pub(crate) fn getnext_batch<A: TreeAm>(
    am: &A,
    idx: &IndexDescriptor,
    max_rows: usize,
    ctx: &AmContext,
) -> Result<Vec<Row>, IdsError> {
    // One descriptor-lock acquisition for the whole batch; a short
    // batch tells the executor the scan is exhausted.
    with_td::<A, _>(idx, ctx, |td| {
        let mut out = Vec::with_capacity(max_rows.min(64));
        while out.len() < max_rows {
            match scan_step(am, td, ctx)? {
                Some(hit) => out.push(hit),
                None => break,
            }
        }
        let (asked, got) = (max_rows, out.len());
        am.trace(ctx, Event::Batch { asked, got });
        Ok(out)
    })
}

pub(crate) fn endscan<A: TreeAm>(
    am: &A,
    idx: &IndexDescriptor,
    ctx: &AmContext,
) -> Result<(), IdsError> {
    let say = |text: &str| am.trace(ctx, Event::Step("endscan", text));
    say("(1-2) Get Cursor from td");
    with_td::<A, _>(idx, ctx, |td| {
        if let Some(scan) = td.scan.take() {
            am.end(scan.extra, ctx);
        }
        say("(3) Delete Cursor");
        Ok(())
    })
}

pub(crate) fn insert<A: TreeAm>(
    am: &A,
    idx: &IndexDescriptor,
    row: &[Value],
    rowid: RowId,
    ctx: &AmContext,
) -> Result<(), IdsError> {
    let say = |text: &str| am.trace(ctx, Event::Step("insert", text));
    with_td::<A, _>(idx, ctx, |td| {
        let key = am.key_of(row, td.ct)?;
        ensure_tree(am, td, ctx, true)?;
        say("(1) Get a pointer to Tree object from td");
        say("(2) Form the entry from the newrow and the newrowid");
        let tree = td.tree.as_mut().expect("ensured");
        tree.insert(key, rowid.0, A::ctx(td.ct)).map_err(am_err)?;
        say("(3) Insert the entry via Tree's insert()");
        if let Some(scan) = td.scan.as_mut() {
            // A split or forced reinsert may have moved an entry the
            // open scan already returned into a leaf it has yet to
            // visit.
            scan.seen.arm();
        }
        Ok(())
    })
}

pub(crate) fn build<A: TreeAm>(
    am: &A,
    idx: &IndexDescriptor,
    rows: &[Row],
    ctx: &AmContext,
) -> Result<bool, IdsError> {
    let say = |text: &str| am.trace(ctx, Event::Step("build", text));
    with_td::<A, _>(idx, ctx, |td| {
        let ct = td.ct;
        let mut entries = Vec::with_capacity(rows.len());
        for (rid, keys) in rows {
            let key = am.key_of(keys, ct)?;
            entries.push(Entry { key, ptr: rid.0 });
        }
        ensure_tree(am, td, ctx, true)?;
        say("(1) Get a pointer to Tree object from td");
        let mut handle = td.tree.take().expect("ensured").into_lo().map_err(am_err)?;
        // am_create already initialised an empty tree in the BLOB; the
        // packed build replaces it wholesale.
        handle.truncate_pages(0)?;
        let mut tree = Tree::bulk_load(handle, am.header(), entries, A::ctx(ct)).map_err(am_err)?;
        tree.set_metrics(metrics::<A>(ctx));
        td.tree = Some(tree);
        td.mode = LockMode::Exclusive;
        am.trace(ctx, Event::Built(rows.len()));
        Ok(true)
    })
}

pub(crate) fn delete<A: TreeAm>(
    am: &A,
    idx: &IndexDescriptor,
    row: &[Value],
    rowid: RowId,
    ctx: &AmContext,
) -> Result<(), IdsError> {
    let say = |text: &str| am.trace(ctx, Event::Step("delete", text));
    with_td::<A, _>(idx, ctx, |td| {
        let key = am.key_of(row, td.ct)?;
        ensure_tree(am, td, ctx, true)?;
        say("(1) Get a pointer to Tree object from td");
        say("(2-3) Locate the entry for oldrowid");
        let tree = td.tree.as_mut().expect("ensured");
        let outcome = tree.delete(&key, rowid.0, A::ctx(td.ct)).map_err(am_err)?;
        if !outcome.found {
            return Err(IdsError::AccessMethod(format!(
                "entry for {rowid} not found in {}",
                idx.index_name
            )));
        }
        say("(4) Delete the entry via Tree's delete()");
        let restart = match am.delete_policy() {
            DeletePolicy::RestartAlways => true,
            DeletePolicy::RestartOnCondense => outcome.condensed,
        };
        if restart {
            if let Some(scan) = td.scan.as_mut() {
                scan.rewind();
            }
            say("(5) Tree condensed: reset Cursor");
        }
        Ok(())
    })
}

pub(crate) fn scancost<A: TreeAm>(
    am: &A,
    idx: &IndexDescriptor,
    qual: &QualDescriptor,
    ctx: &AmContext,
) -> Result<f64, IdsError> {
    with_td::<A, _>(idx, ctx, |td| {
        // Snapshot statements cost the plan from a transient frozen
        // reader — the planner must not take the LO-level S lock the
        // snapshot path exists to avoid.
        if let Some(reader) = snapshot_reader(am, td, ctx)? {
            return cost_estimate(am, &reader, qual, td.ct);
        }
        ensure_tree(am, td, ctx, false)?;
        cost_estimate(am, td.tree.as_ref().expect("ensured"), qual, td.ct)
    })
}

pub(crate) fn stats<A: TreeAm>(
    am: &A,
    idx: &IndexDescriptor,
    ctx: &AmContext,
) -> Result<String, IdsError> {
    with_td::<A, _>(idx, ctx, |td| {
        ensure_tree(am, td, ctx, false)?;
        let tree = td.tree.as_ref().expect("ensured");
        Ok(format!(
            "{} {}: {} entries, height {}, {} pages{}",
            A::PREFIX,
            idx.index_name,
            tree.len(),
            tree.height(),
            tree.pages(),
            am.quality(tree, td.ct).map_err(am_err)?,
        ))
    })
}

pub(crate) fn check<A: TreeAm>(
    am: &A,
    idx: &IndexDescriptor,
    ctx: &AmContext,
) -> Result<(), IdsError> {
    with_td::<A, _>(idx, ctx, |td| {
        ensure_tree(am, td, ctx, false)?;
        let tree = td.tree.as_ref().expect("ensured");
        tree.check(A::ctx(td.ct)).map_err(am_err)
    })
}

/// Implements the engine's `AccessMethod` for a [`TreeAm`] by
/// forwarding every purpose function to the shared bodies
/// (`AccessMethod` is foreign to this crate, so no blanket impl).
macro_rules! purpose_functions {
    ($am:ty) => {
        impl grt_ids::AccessMethod for $am {
            fn am_create(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<(), IdsError> {
                $crate::purpose::create(self, idx, ctx)
            }
            fn am_drop(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<(), IdsError> {
                $crate::purpose::drop_index(self, idx, ctx)
            }
            fn am_open(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<(), IdsError> {
                $crate::purpose::open(self, idx, ctx)
            }
            fn am_close(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<(), IdsError> {
                $crate::purpose::close(self, idx, ctx)
            }
            fn am_beginscan(
                &self,
                idx: &IndexDescriptor,
                scan: &mut grt_ids::ScanDescriptor,
                ctx: &AmContext,
            ) -> Result<(), IdsError> {
                $crate::purpose::beginscan(self, idx, scan, ctx)
            }
            fn am_rescan(
                &self,
                idx: &IndexDescriptor,
                _scan: &mut grt_ids::ScanDescriptor,
                ctx: &AmContext,
            ) -> Result<(), IdsError> {
                $crate::purpose::rescan(self, idx, ctx)
            }
            fn am_getnext(
                &self,
                idx: &IndexDescriptor,
                _scan: &mut grt_ids::ScanDescriptor,
                ctx: &AmContext,
            ) -> Result<Option<(grt_ids::RowId, Vec<Value>)>, IdsError> {
                $crate::purpose::getnext(self, idx, ctx)
            }
            fn am_getnext_batch(
                &self,
                idx: &IndexDescriptor,
                _scan: &mut grt_ids::ScanDescriptor,
                max_rows: usize,
                ctx: &AmContext,
            ) -> Result<Vec<(grt_ids::RowId, Vec<Value>)>, IdsError> {
                $crate::purpose::getnext_batch(self, idx, max_rows, ctx)
            }
            fn am_endscan(
                &self,
                idx: &IndexDescriptor,
                _scan: &mut grt_ids::ScanDescriptor,
                ctx: &AmContext,
            ) -> Result<(), IdsError> {
                $crate::purpose::endscan(self, idx, ctx)
            }
            fn am_insert(
                &self,
                idx: &IndexDescriptor,
                row: &[Value],
                rowid: grt_ids::RowId,
                ctx: &AmContext,
            ) -> Result<(), IdsError> {
                $crate::purpose::insert(self, idx, row, rowid, ctx)
            }
            fn am_build(
                &self,
                idx: &IndexDescriptor,
                rows: &[(grt_ids::RowId, Vec<Value>)],
                ctx: &AmContext,
            ) -> Result<bool, IdsError> {
                $crate::purpose::build(self, idx, rows, ctx)
            }
            fn am_delete(
                &self,
                idx: &IndexDescriptor,
                row: &[Value],
                rowid: grt_ids::RowId,
                ctx: &AmContext,
            ) -> Result<(), IdsError> {
                $crate::purpose::delete(self, idx, row, rowid, ctx)
            }
            fn am_scancost(
                &self,
                idx: &IndexDescriptor,
                qual: &grt_ids::QualDescriptor,
                ctx: &AmContext,
            ) -> Result<f64, IdsError> {
                $crate::purpose::scancost(self, idx, qual, ctx)
            }
            fn am_supports_snapshot(&self) -> bool {
                true
            }
            fn am_stats(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<String, IdsError> {
                $crate::purpose::stats(self, idx, ctx)
            }
            fn am_check(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<(), IdsError> {
                $crate::purpose::check(self, idx, ctx)
            }
        }
    };
}
pub(crate) use purpose_functions;
