//! The peel: one statement prefix replayed one layer deeper each time.
//!
//! | pass     | what runs                                   | spans taken around calls into |
//! |----------|---------------------------------------------|-------------------------------|
//! | wire     | `RemoteDriver`                              | `grt_client`                  |
//! | embedded | `EmbeddedDriver`                            | `grt_ids`                     |
//! | blade    | purpose functions over our own `AmContext`  | `grt_blade`, `grt_ids::heap`, `grt_sbspace` (txn) |
//! | tree     | tree cursors / `insert` / `delete`          | `grt_grtree`, `grt_rstar`, `grt_sbspace` (pages, LO open/close) |
//! | pages    | `LoReader` reads of exactly the pages the tree pass touched | `grt_sbspace` |
//!
//! A layer's self time is what its pass spent in it minus what the next
//! pass spent doing the same work below it, so the selfs sum to the
//! wire time by construction. On a read-only workload every pass walks
//! the same statements in the same order from a dropped page cache, so
//! on a cold workload each sees the same hits and misses. `dml_durable`
//! cannot replay a prefix that changed the table; see [`dml`].

use crate::data::{DmlOp, Expect, Fact};
use crate::rig::{index_scan, qual, Rig, ScanHooks};
use crate::setup::{Kind, RSTAR_STRATEGY};
use crate::spans::Recorder;
use crate::timed_backend::BackendSnapshot;
use crate::window::{drive, Limit, Work};
use crate::Stage;

use grt_blade::{extent_from_value, extent_to_value};
use grt_client::{Driver, EmbeddedDriver};
use grt_grtree::meta::GrMeta;
use grt_grtree::{bulk, GrNode, GrTree, GrTreeOptions, GrTreeReader, LeafEntry};
use grt_ids::{heap, IdsError, RowId, Value};
use grt_metrics::{MetricsSnapshot, TreeMetrics};
use grt_rstar::{RStarTreeReader, SpatialPredicate};
use grt_sbspace::{IsolationLevel, LoId, LoReader, LockMode, Sbspace};
use grt_temporal::{Day, Predicate, TimeExtent};
use std::sync::Arc;
use std::time::Instant;

/// What the peel measured, in nanoseconds over the whole prefix.
#[derive(Default)]
pub struct Peel {
    pub stmts: u64,
    pub rows: u64,
    pub failed: u64,
    /// The wire pass again, without spans.
    pub untraced_ns: u64,
    pub wire_ns: u64,
    pub embedded_ns: u64,
    /// Blade pass: purpose-function calls.
    pub am_ns: u64,
    /// Blade pass: `begin` / `commit` around a DML statement.
    pub txn_ns: u64,
    /// Tree pass: cursor, `insert`, `delete`.
    pub tree_ns: u64,
    /// Tree pass: opening and closing the index LO for a DML statement.
    pub lo_ns: u64,
    /// Pages pass: the tree nodes a scan visits.
    pub tree_pages_ns: u64,
    /// Pages pass: the heap pages the R*-tree blade refines against.
    pub refine_pages_ns: u64,
    /// Pages pass: the heap pages the executor fetches rows from.
    pub heap_pages_ns: u64,
    /// Pages pass: time inside the backend (traced file-backed only).
    pub backend_ns: u64,
    /// Registry counters over the traced wire pass: one connection, a
    /// fixed prefix, so they repeat exactly on a read-only workload.
    pub counts: MetricsSnapshot,
    /// Backend calls over the traced wire pass.
    pub backend: BackendSnapshot,
    /// Pages of the served GR-tree index.
    pub grtree_pages: u32,
}

/// Self time per layer; sums to `wire_ns`.
pub struct Selfs {
    pub client: f64,
    pub server: f64,
    pub ids: f64,
    pub blade: f64,
    pub tree: f64,
    pub sbspace: f64,
}

impl Peel {
    /// `codec_ns` is the client's own work over the prefix, measured
    /// directly; the rest of wire minus embedded is the server's.
    pub fn selfs(&self, codec_ns: f64) -> Selfs {
        let f = |ns: u64| ns as f64;
        let pages = f(self.tree_pages_ns) + f(self.refine_pages_ns) + f(self.heap_pages_ns);
        Selfs {
            client: codec_ns,
            server: f(self.wire_ns) - f(self.embedded_ns) - codec_ns,
            ids: f(self.embedded_ns) - f(self.am_ns) - f(self.txn_ns) - f(self.heap_pages_ns),
            blade: f(self.am_ns) - f(self.tree_ns) - f(self.lo_ns) - f(self.refine_pages_ns),
            tree: f(self.tree_ns) - f(self.tree_pages_ns),
            sbspace: pages + f(self.txn_ns) + f(self.lo_ns),
        }
    }
}

impl Selfs {
    pub fn rows(&self) -> [(&'static str, f64); 6] {
        [
            ("client", self.client),
            ("server", self.server),
            ("ids", self.ids),
            ("blade", self.blade),
            ("tree", self.tree),
            ("sbspace", self.sbspace),
        ]
    }
}

/// What statement `k` of connection 0 is, to the passes below SQL.
enum Stmt<'a> {
    /// An `Overlaps` scan of table `table` and the ids it must return
    /// (on `dml_durable`: among connection 0's own rows).
    Read {
        query: &'a TimeExtent,
        table: usize,
        expect: Expect,
    },
    Dml(&'a DmlOp),
}

fn stmt_at<'a>(work: &'a Work, k: usize) -> Stmt<'a> {
    if work.kind == Kind::DmlDurable {
        return match work.dml_op(0, k) {
            DmlOp::Probe { query, expect } => Stmt::Read {
                query,
                table: 0,
                expect: *expect,
            },
            op => Stmt::Dml(op),
        };
    }
    let (q, table) = work.read_stmt(0, k);
    Stmt::Read {
        query: &q.extent,
        table,
        expect: q.expect,
    }
}

/// A tree's error as the engine would report it.
fn am_err(e: impl std::fmt::Display) -> IdsError {
    IdsError::AccessMethod(e.to_string())
}

/// Up to `n` row ids off a cursor: one `am_getnext_batch`'s worth.
fn take_batch<E: std::fmt::Display>(
    n: usize,
    mut next: impl FnMut() -> Result<Option<u64>, E>,
) -> Result<Vec<u64>, IdsError> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        match next().map_err(am_err)? {
            Some(rowid) => out.push(rowid),
            None => break,
        }
    }
    Ok(out)
}

fn row_id(row: &[Value]) -> Option<u64> {
    match row.first() {
        Some(Value::Int(id)) => Some(*id as u64),
        _ => None,
    }
}

fn heap_page(rowid: u64) -> u32 {
    (rowid >> 16) as u32
}

/// Everything a pass needs besides the statements.
struct Env<'a> {
    work: &'a Work<'a>,
    /// `[g, r]`: the rig of each table's index.
    rigs: [Option<&'a Rig>; 2],
    ct: Day,
}

impl Env<'_> {
    fn rig(&self, table: usize) -> &Rig {
        self.rigs[table].expect("the workload has this table")
    }

    fn judge(&self, ids: &[u64], expect: Expect, own: bool) -> bool {
        let conns = self.work.conns;
        let mut got = Expect::default();
        for &id in ids {
            if !own || (id as usize).is_multiple_of(conns) {
                got.add(id);
            }
        }
        got == expect
    }
}

// ---- blade pass -------------------------------------------------------

/// The executor's side of an index scan, timed: purpose functions as
/// `blade.am`, row fetches as `ids.heap`.
struct BladeScan<'a> {
    rec: &'a mut Recorder,
    root: u32,
    k: u32,
    heap: &'a LoReader,
    ids: Vec<u64>,
}

impl ScanHooks for BladeScan<'_> {
    fn am(&mut self, call: &mut dyn FnMut() -> Result<(), IdsError>) -> Result<(), IdsError> {
        self.rec.time("blade.am", self.root, self.k, call)
    }

    fn batch(&mut self, hits: &[(RowId, Vec<Value>)]) -> Result<(), IdsError> {
        let (heap, ids) = (self.heap, &mut self.ids);
        self.rec.time("ids.heap", self.root, self.k, || {
            for (rid, _) in hits {
                if let Some(id) = heap::fetch(heap, *rid)?.as_deref().and_then(row_id) {
                    ids.push(id);
                }
            }
            Ok(())
        })
    }
}

fn blade_read(
    rig: &Rig,
    query: &TimeExtent,
    rec: &mut Recorder,
    k: u32,
) -> Result<Vec<u64>, IdsError> {
    let root = rec.open("blade.stmt", 0, k);
    let txn = rig.space.begin(IsolationLevel::ReadCommitted);
    let snap = rig.snapshot()?;
    let heap = snap.reader(rig.los.heap)?;
    let ctx = rig.ctx(&txn, Some(Arc::clone(&snap)));
    let mut hooks = BladeScan {
        rec,
        root,
        k,
        heap: &heap,
        ids: Vec::new(),
    };
    index_scan(rig, &ctx, qual("Overlaps", Some(query)), &mut hooks)?;
    let ids = hooks.ids;
    drop(ctx);
    txn.commit()?;
    rec.close(root);
    Ok(ids)
}

/// The rows an `Equal(Time_Extent, extent) AND id = id` scan selects,
/// through the locked path a writing statement takes.
struct Victims<'a> {
    rec: &'a mut Recorder,
    root: u32,
    k: u32,
    heap: &'a grt_sbspace::LoHandle,
    id: u64,
    found: Vec<(RowId, Vec<Value>)>,
}

impl ScanHooks for Victims<'_> {
    fn am(&mut self, call: &mut dyn FnMut() -> Result<(), IdsError>) -> Result<(), IdsError> {
        self.rec.time("blade.am", self.root, self.k, call)
    }

    fn batch(&mut self, hits: &[(RowId, Vec<Value>)]) -> Result<(), IdsError> {
        let (heap, id, found) = (self.heap, self.id, &mut self.found);
        self.rec.time("ids.heap", self.root, self.k, || {
            for (rid, _) in hits {
                if let Some(row) = heap::fetch(heap, *rid)? {
                    if row_id(&row) == Some(id) {
                        found.push((*rid, row));
                    }
                }
            }
            Ok(())
        })
    }
}

/// One DML statement as the executor runs it, minus SQL: heap change,
/// purpose functions, commit. Returns whether exactly one row changed.
fn blade_dml(rig: &Rig, op: &DmlOp, rec: &mut Recorder, k: u32) -> Result<bool, IdsError> {
    let root = rec.open("blade.stmt", 0, k);
    let space = &rig.space;
    let (am, desc, heap_lo) = (&rig.am, &rig.desc, rig.los.heap);
    let txn = rec.time("sbspace.txn", root, k, || {
        space.begin(IsolationLevel::ReadCommitted)
    });
    let ctx = rig.ctx(&txn, None);
    let make_row = |id: u64, e: &TimeExtent| vec![Value::Int(id as i64), extent_to_value(e)];
    let find = |rec: &mut Recorder, id: u64, extent: &TimeExtent| {
        let heap = space.open_lo(&txn, heap_lo, LockMode::Shared)?;
        let mut hooks = Victims {
            rec,
            root,
            k,
            heap: &heap,
            id,
            found: Vec::new(),
        };
        index_scan(rig, &ctx, qual("Equal", Some(extent)), &mut hooks)?;
        Ok::<_, IdsError>(hooks.found)
    };
    let changed = match op {
        DmlOp::Insert { id, extent } => {
            let row = make_row(*id, extent);
            let rid = rec.time("ids.heap", root, k, || {
                let mut h = space.open_lo(&txn, heap_lo, LockMode::Exclusive)?;
                heap::insert(&mut h, &row)
            })?;
            rec.time("blade.am", root, k, || {
                am.am_open(desc, &ctx)?;
                am.am_insert(desc, &row[1..], rid, &ctx)?;
                am.am_close(desc, &ctx)
            })?;
            1
        }
        DmlOp::Update { id, old, new } => {
            let victims = find(rec, *id, old)?;
            for (rid, old_row) in &victims {
                let new_row = make_row(*id, new);
                let new_rid = rec.time("ids.heap", root, k, || {
                    let mut h = space.open_lo(&txn, heap_lo, LockMode::Exclusive)?;
                    heap::update(&mut h, *rid, &new_row)
                })?;
                rec.time("blade.am", root, k, || {
                    am.am_open(desc, &ctx)?;
                    am.am_update(desc, &old_row[1..], *rid, &new_row[1..], new_rid, &ctx)?;
                    am.am_close(desc, &ctx)
                })?;
            }
            victims.len()
        }
        DmlOp::Delete { id, extent } => {
            let victims = find(rec, *id, extent)?;
            for (rid, old_row) in &victims {
                rec.time("ids.heap", root, k, || {
                    let mut h = space.open_lo(&txn, heap_lo, LockMode::Exclusive)?;
                    heap::delete(&mut h, *rid)
                })?;
                rec.time("blade.am", root, k, || {
                    am.am_open(desc, &ctx)?;
                    am.am_delete(desc, &old_row[1..], *rid, &ctx)?;
                    am.am_close(desc, &ctx)
                })?;
            }
            victims.len()
        }
        DmlOp::Probe { .. } => unreachable!("probes take the read path"),
    };
    drop(ctx);
    rec.time("sbspace.txn", root, k, || txn.commit())?;
    rec.close(root);
    Ok(changed == 1)
}

// ---- tree pass --------------------------------------------------------

/// Fetches like the executor: after every batch of hits, the heap page
/// of each.
fn read_heap_pages(
    rec: &mut Recorder,
    name: &'static str,
    root: u32,
    k: u32,
    heap: &LoReader,
    rowids: &[u64],
) -> Result<(), IdsError> {
    rec.time(name, root, k, || {
        for &rowid in rowids {
            std::hint::black_box(heap.read_page(heap_page(rowid))?);
        }
        Ok(())
    })
}

/// The scan below the blade: the tree's own cursor, and the heap pages
/// the layers above would read for its results.
fn tree_read(
    env: &Env,
    rig: &Rig,
    rstar: bool,
    query: &TimeExtent,
    rec: &mut Recorder,
    k: u32,
) -> Result<Vec<u64>, IdsError> {
    let root = rec.open("tree.stmt", 0, k);
    let snap = rig.snapshot()?;
    let heap = snap.reader(rig.los.heap)?;
    let batch = crate::rig::batch_rows();
    let mut ids = Vec::new();
    let ct = env.ct;
    // The ids a batch of row ids stands for (untimed: the passes above
    // did this work; here it only feeds the answer check).
    let mut resolve = |rowids: &[u64], refine: bool| -> Result<Vec<u64>, IdsError> {
        let mut kept = Vec::with_capacity(rowids.len());
        for &rowid in rowids {
            let Some(row) = heap::fetch(&heap, RowId(rowid))? else {
                continue;
            };
            if refine && !Predicate::Overlaps.eval(&extent_from_value(&row[1])?, query, ct) {
                continue;
            }
            ids.extend(row_id(&row));
            kept.push(rowid);
        }
        Ok(kept)
    };
    if rstar {
        let rect = RSTAR_STRATEGY.query_rect(query, ct);
        let (reader, mut cursor) = rec.time("tree.cursor", root, k, || {
            let reader = RStarTreeReader::open(snap.reader(rig.los.index)?, TreeMetrics::default())
                .map_err(am_err)?;
            let cursor = reader.cursor(SpatialPredicate::Overlap, rect);
            Ok::<_, IdsError>((reader, cursor))
        })?;
        loop {
            let candidates = rec.time("tree.cursor", root, k, || {
                take_batch(batch, || {
                    reader
                        .cursor_next(&mut cursor)
                        .map(|hit| hit.map(|(_, rowid)| rowid))
                })
            })?;
            // The R*-tree blade fetches every candidate's row to refine
            // it; the executor then fetches the survivors again.
            read_heap_pages(rec, "sbspace.refine_pages", root, k, &heap, &candidates)?;
            let matches = resolve(&candidates, true)?;
            read_heap_pages(rec, "sbspace.heap_pages", root, k, &heap, &matches)?;
            if candidates.len() < batch {
                break;
            }
        }
    } else {
        let (reader, mut cursor) = rec.time("tree.cursor", root, k, || {
            let reader = GrTreeReader::open(snap.reader(rig.los.index)?, TreeMetrics::default())
                .map_err(am_err)?;
            let cursor = reader.cursor(Predicate::Overlaps, *query, ct);
            Ok::<_, IdsError>((reader, cursor))
        })?;
        loop {
            let hits = rec.time("tree.cursor", root, k, || {
                take_batch(batch, || {
                    reader
                        .cursor_next(&mut cursor)
                        .map(|hit| hit.map(|(_, rowid)| rowid))
                })
            })?;
            read_heap_pages(rec, "sbspace.heap_pages", root, k, &heap, &hits)?;
            resolve(&hits, false)?;
            if hits.len() < batch {
                break;
            }
        }
    }
    rec.close(root);
    Ok(ids)
}

/// A GR-tree of `rows` (row id = id) in a scratch object of the same
/// space, so the tree pass can change a tree without the table falling
/// out of step.
fn scratch_tree(space: &Sbspace, rows: &[Fact], ct: Day) -> Result<LoId, IdsError> {
    let txn = space.begin(IsolationLevel::ReadCommitted);
    let lo = space.create_lo(&txn)?;
    let handle = space.open_lo(&txn, lo, LockMode::Exclusive)?;
    let entries = rows
        .iter()
        .map(|&(id, extent)| LeafEntry { extent, rowid: id })
        .collect();
    let tree = bulk::bulk_load(handle, entries, ct, GrTreeOptions::default()).map_err(am_err)?;
    tree.into_lo().map_err(am_err)?.close()?;
    txn.commit()?;
    Ok(lo)
}

/// A probe of the scratch index, whose row ids are the ids: the read
/// path of `dml_durable`'s tree pass (no heap stands behind a scratch
/// tree, so no heap pages are read).
fn scratch_probe(
    space: &Sbspace,
    scratch: LoId,
    ct: Day,
    query: &TimeExtent,
    rec: &mut Recorder,
    k: u32,
) -> Result<Vec<u64>, IdsError> {
    let root = rec.open("tree.stmt", 0, k);
    let snap = space.snapshot_for(&[scratch])?;
    let ids = rec.time("tree.cursor", root, k, || {
        let reader =
            GrTreeReader::open(snap.reader(scratch)?, TreeMetrics::default()).map_err(am_err)?;
        let mut cursor = reader.cursor(Predicate::Overlaps, *query, ct);
        let mut ids = Vec::new();
        while let Some((_, id)) = reader.cursor_next(&mut cursor).map_err(am_err)? {
            ids.push(id);
        }
        Ok::<_, IdsError>(ids)
    })?;
    rec.close(root);
    Ok(ids)
}

/// One DML statement's tree work on the scratch index: what the blade's
/// `am_open … am_close` comes down to, then the commit.
fn tree_dml(
    space: &Sbspace,
    scratch: LoId,
    ct: Day,
    op: &DmlOp,
    rec: &mut Recorder,
    k: u32,
) -> Result<bool, IdsError> {
    let root = rec.open("tree.stmt", 0, k);
    let txn = space.begin(IsolationLevel::ReadCommitted);
    let handle = rec.time("sbspace.lo", root, k, || {
        space.open_lo(&txn, scratch, LockMode::Exclusive)
    })?;
    let (tree, found) = rec.time("tree.op", root, k, || {
        let mut tree = GrTree::open(handle).map_err(am_err)?;
        let mut found = true;
        let delete = |tree: &mut GrTree, e: &TimeExtent, id: u64| {
            tree.delete(e, id, ct).map(|o| o.found).map_err(am_err)
        };
        match op {
            DmlOp::Insert { id, extent } => tree.insert(*extent, *id, ct).map_err(am_err)?,
            DmlOp::Update { id, old, new } => {
                found = delete(&mut tree, old, *id)?;
                tree.insert(*new, *id, ct).map_err(am_err)?;
            }
            DmlOp::Delete { id, extent } => found = delete(&mut tree, extent, *id)?,
            DmlOp::Probe { .. } => unreachable!("probes take the read path"),
        }
        Ok::<_, IdsError>((tree, found))
    })?;
    rec.time("sbspace.lo", root, k, || {
        tree.into_lo().map_err(am_err)?.close()?;
        Ok::<_, IdsError>(())
    })?;
    txn.commit()?;
    rec.close(root);
    Ok(found)
}

// ---- pages pass -------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum PageKind {
    Tree,
    Refine,
    Heap,
}

/// The pages a read statement touches below the tree, in the order the
/// passes above touch them.
fn access_list(
    env: &Env,
    rig: &Rig,
    rstar: bool,
    query: &TimeExtent,
) -> Result<Vec<(PageKind, u32)>, IdsError> {
    let snap = rig.snapshot()?;
    let index = snap.reader(rig.los.index)?;
    let heap = snap.reader(rig.los.heap)?;
    let ct = env.ct;
    let batch = crate::rig::batch_rows();
    let mut out = vec![(PageKind::Tree, 0)];
    let mut pending: Vec<u64> = Vec::new();
    // A full batch of candidates goes up: refinement reads (R*-tree),
    // then the executor's fetches of the rows that survive.
    let flush = |out: &mut Vec<(PageKind, u32)>, pending: &mut Vec<u64>| {
        for &rowid in pending.iter() {
            if rstar {
                out.push((PageKind::Refine, heap_page(rowid)));
            }
        }
        for &rowid in pending.iter() {
            let keep = !rstar
                || heap::fetch(&heap, RowId(rowid))?
                    .map(|row| extent_from_value(&row[1]))
                    .transpose()?
                    .is_some_and(|e| Predicate::Overlaps.eval(&e, query, ct));
            if keep {
                out.push((PageKind::Heap, heap_page(rowid)));
            }
        }
        pending.clear();
        Ok::<_, IdsError>(())
    };
    // Depth-first, children in entry order: the cursors' order.
    if rstar {
        let rect = RSTAR_STRATEGY.query_rect(query, ct);
        let meta = grt_rstar::meta::Meta::decode(&*index.read_page_pinned(0)?).map_err(am_err)?;
        let mut stack = vec![meta.root];
        while let Some(page) = stack.pop() {
            out.push((PageKind::Tree, page));
            let node =
                grt_rstar::node::Node::decode(&*index.read_page_pinned(page)?).map_err(am_err)?;
            if node.is_leaf() {
                for e in &node.entries {
                    if e.rect.eval(SpatialPredicate::Overlap, &rect) {
                        pending.push(e.payload);
                        if pending.len() == batch {
                            flush(&mut out, &mut pending)?;
                        }
                    }
                }
            } else {
                let kids = node
                    .entries
                    .iter()
                    .filter(|e| e.rect.consistent(SpatialPredicate::Overlap, &rect));
                stack.extend(kids.map(|e| e.payload as u32).rev());
            }
        }
    } else {
        let region = query.region(ct);
        let meta = GrMeta::decode(&*index.read_page_pinned(0)?).map_err(am_err)?;
        let mut stack = vec![meta.root];
        while let Some(page) = stack.pop() {
            out.push((PageKind::Tree, page));
            match GrNode::decode(&*index.read_page_pinned(page)?).map_err(am_err)? {
                GrNode::Leaf(entries) => {
                    for e in entries {
                        if Predicate::Overlaps.eval_regions(&e.extent.region(ct), &region) {
                            pending.push(e.rowid);
                            if pending.len() == batch {
                                flush(&mut out, &mut pending)?;
                            }
                        }
                    }
                }
                GrNode::Internal { entries, .. } => {
                    let kids = entries
                        .iter()
                        .filter(|e| Predicate::Overlaps.consistent(&e.spec.resolve(ct), &region));
                    stack.extend(kids.map(|e| e.child).rev());
                }
            }
        }
    }
    flush(&mut out, &mut pending)?;
    Ok(out)
}

/// Reads a statement's pages and nothing else: nodes pinned as the
/// cursors read them, heap pages copied as `heap::fetch` reads them.
fn pages_read(
    rig: &Rig,
    pages: &[(PageKind, u32)],
    rec: &mut Recorder,
    k: u32,
) -> Result<(), IdsError> {
    let root = rec.open("pages.stmt", 0, k);
    let snap = rig.snapshot()?;
    let index = snap.reader(rig.los.index)?;
    let heap = snap.reader(rig.los.heap)?;
    let mut i = 0;
    while i < pages.len() {
        let kind = pages[i].0;
        let run = pages[i..].iter().take_while(|(k, _)| *k == kind).count();
        let name = match kind {
            PageKind::Tree => "sbspace.tree_pages",
            PageKind::Refine => "sbspace.refine_pages",
            PageKind::Heap => "sbspace.heap_pages",
        };
        rec.time(name, root, k, || {
            for &(_, page) in &pages[i..i + run] {
                if kind == PageKind::Tree {
                    std::hint::black_box(&*index.read_page_pinned(page)?);
                } else {
                    std::hint::black_box(heap.read_page(page)?);
                }
            }
            Ok::<_, IdsError>(())
        })?;
        i += run;
    }
    rec.close(root);
    Ok(())
}

// ---- the peel ---------------------------------------------------------

/// What every peel needs from the traced run.
pub struct Setting<'a> {
    pub stage: &'a Stage,
    pub work: &'a Work<'a>,
    /// `[g, r]`: the rig of each table's index.
    pub rigs: [Option<&'a Rig>; 2],
    pub ct: Day,
    /// Statements per pass.
    pub n: usize,
    /// Shared by all recorders of the run.
    pub epoch: Instant,
}

fn text(e: IdsError) -> String {
    e.to_string()
}

impl Setting<'_> {
    fn env(&self) -> Env<'_> {
        Env {
            work: self.work,
            rigs: self.rigs,
            ct: self.ct,
        }
    }

    /// A recorder with room for a pass that returns `rows` rows: a few
    /// spans per statement and two per batch of rows.
    fn recorder(&self, label: &str, rows: u64) -> Recorder {
        let batches = rows as usize / crate::rig::batch_rows() + self.n;
        Recorder::new(label, self.epoch, 8 * self.n + 4 * batches)
    }

    fn backend(&self) -> BackendSnapshot {
        let times = self.stage.served.backend.as_ref();
        times.map(|b| b.snapshot()).unwrap_or_default()
    }

    fn start(&self) -> Result<Peel, String> {
        let rig = self.rigs[0].expect("every workload has table g");
        let snap = rig.snapshot().map_err(text)?;
        let index = snap.reader(rig.los.index).map_err(|e| e.to_string())?;
        Ok(Peel {
            stmts: self.n as u64,
            grtree_pages: index.page_count(),
            ..Default::default()
        })
    }
}

/// Reads the span totals of the passes (the recorders labelled
/// `peel.*`; the window's are in the list too) into the peel.
fn collect(peel: &mut Peel, recorders: &[Recorder]) {
    let total = |name: &str| {
        let passes = recorders.iter().filter(|r| r.label.starts_with("peel."));
        passes.map(|r| r.total_ns(name)).sum::<u64>()
    };
    peel.wire_ns = total("wire.stmt");
    peel.embedded_ns = total("embedded.stmt");
    peel.am_ns = total("blade.am");
    peel.txn_ns = total("sbspace.txn");
    peel.tree_ns = total("tree.cursor") + total("tree.op");
    peel.lo_ns = total("sbspace.lo");
    // The page reads of the pages pass only: the tree pass reads the
    // same pages under the same names, for its cache behaviour.
    let pages = |name: &str| {
        let pass = recorders.iter().filter(|r| r.label == "peel.pages");
        pass.map(|r| r.total_ns(name)).sum::<u64>()
    };
    peel.tree_pages_ns = pages("sbspace.tree_pages");
    peel.refine_pages_ns = pages("sbspace.refine_pages");
    peel.heap_pages_ns = pages("sbspace.heap_pages");
}

/// The peel of a read-only workload: every pass replays statements
/// `0..n` of connection 0, each from a dropped page cache.
pub fn reads(s: &Setting, recorders: &mut Vec<Recorder>) -> Result<Peel, String> {
    let (served, work, n) = (&s.stage.served, s.work, s.n);
    let space = served.db.space();
    let env = s.env();
    let cold = || {
        if served.dir.is_some() {
            space.drop_page_cache();
        }
    };
    let mut peel = s.start()?;
    let driver = s.stage.drivers[0].as_ref();
    let limit = Limit::Count(n);
    // Every pass runs on this thread: keep it beside connection 0's
    // server thread, as the window kept that connection's client.
    let cpus = crate::pin::allowed_cpus();
    crate::pin::pin(0, &cpus[..cpus.len().min(1)]);

    cold();
    let log = drive(work, driver, 0, 0, limit, None);
    peel.untraced_ns = log.elapsed_ns;
    peel.failed += log.failed;

    let mut rec = s.recorder("peel.wire", 0);
    cold();
    let (counts, calls) = (served.db.metrics_snapshot(), s.backend());
    let log = drive(work, driver, 0, 0, limit, Some((&mut rec, "wire.stmt")));
    peel.counts = served.db.metrics_snapshot().since(&counts);
    peel.backend = s.backend().since(&calls);
    peel.rows = log.rows;
    peel.failed += log.failed;
    recorders.push(rec);

    let mut rec = s.recorder("peel.embedded", 0);
    let embedded = EmbeddedDriver::connect(&served.db);
    work.prepare(&embedded)?;
    cold();
    let embedded_stmt = Some((&mut rec, "embedded.stmt"));
    let log = drive(work, &embedded as &dyn Driver, 0, 0, limit, embedded_stmt);
    drop(embedded);
    peel.failed += log.failed;
    recorders.push(rec);

    let read = |k: usize| match stmt_at(work, k) {
        Stmt::Read {
            query,
            table,
            expect,
            ..
        } => (query, table, expect),
        Stmt::Dml(_) => unreachable!("a read-only workload"),
    };
    let mut rec = s.recorder("peel.blade", peel.rows);
    cold();
    for k in 0..n {
        let (query, table, expect) = read(k);
        let ids = blade_read(env.rig(table), query, &mut rec, k as u32).map_err(text)?;
        peel.failed += u64::from(!env.judge(&ids, expect, false));
    }
    recorders.push(rec);

    let mut rec = s.recorder("peel.tree", peel.rows);
    cold();
    for k in 0..n {
        let (query, table, expect) = read(k);
        let ids =
            tree_read(&env, env.rig(table), table == 1, query, &mut rec, k as u32).map_err(text)?;
        peel.failed += u64::from(!env.judge(&ids, expect, false));
    }
    recorders.push(rec);

    // The page lists are made first and untimed: making one reads the
    // pages it lists.
    let mut lists = Vec::with_capacity(n);
    for k in 0..n {
        let (query, table, _) = read(k);
        let rig = env.rig(table);
        lists.push((
            rig,
            access_list(&env, rig, table == 1, query).map_err(text)?,
        ));
    }
    let mut rec = s.recorder("peel.pages", peel.rows);
    cold();
    let before = s.backend();
    for (k, (rig, pages)) in lists.iter().enumerate() {
        pages_read(rig, pages, &mut rec, k as u32).map_err(text)?;
    }
    peel.backend_ns = s.backend().since(&before).read_ns;
    recorders.push(rec);

    crate::pin::pin(0, &cpus);
    collect(&mut peel, recorders);
    Ok(peel)
}

/// Adds the deltas `d` into `sum`.
fn add_counts(sum: &mut MetricsSnapshot, d: &MetricsSnapshot) {
    for (name, v) in &d.counters {
        *sum.counters.entry(name.clone()).or_default() += v;
    }
    for (name, h) in &d.histograms {
        let into = sum.histograms.entry(name.clone()).or_default();
        into.count += h.count;
        into.sum_ns += h.sum_ns;
        for (a, b) in into.buckets.iter_mut().zip(&h.buckets) {
            *a += b;
        }
    }
}

/// Statements per turn of a `dml_durable` pass: one cycle of the mix.
const CYCLE: usize = 10;

/// Applies statements to the scratch index without timing them, in one
/// transaction: what keeps it in step with the table while another
/// pass has the turn.
fn follow(space: &Sbspace, scratch: LoId, ct: Day, ops: &[DmlOp]) -> Result<(), IdsError> {
    let txn = space.begin(IsolationLevel::ReadCommitted);
    let handle = space.open_lo(&txn, scratch, LockMode::Exclusive)?;
    let mut tree = GrTree::open(handle).map_err(am_err)?;
    for op in ops {
        match op {
            DmlOp::Insert { id, extent } => {
                tree.insert(*extent, *id, ct).map_err(am_err)?;
            }
            DmlOp::Update { id, old, new } => {
                tree.delete(old, *id, ct).map_err(am_err)?;
                tree.insert(*new, *id, ct).map_err(am_err)?;
            }
            DmlOp::Delete { id, extent } => {
                tree.delete(extent, *id, ct).map_err(am_err)?;
            }
            DmlOp::Probe { .. } => {}
        }
    }
    tree.into_lo().map_err(am_err)?.close()?;
    txn.commit().map_err(am_err)
}

/// The peel of `dml_durable`. A statement that changed the table cannot
/// be replayed, so the passes take turns through connection 0's stream
/// instead, one cycle of the mix at a time, `n / 10` rounds: every pass
/// sees the same mix on the same, slowly growing table under the same
/// drift of the sandbox's sync latency. The tree pass works on a
/// scratch copy of the index, made the way the index was: bulk-loaded
/// from the seeded rows `facts`, then taken through every statement the
/// connections have sent, so it is as loosened by use as the real one.
/// The copy follows the other passes' statements and the table follows
/// the tree pass's, both untimed. There is no pages pass: a scratch tree
/// has no heap behind it, so page reads stay inside the tree's and
/// `ids`'s selfs here. Returns where connection 0's stream stands.
pub fn dml(
    s: &Setting,
    facts: &[Fact],
    recorders: &mut Vec<Recorder>,
) -> Result<(Peel, usize), String> {
    let (served, work) = (&s.stage.served, s.work);
    let space = served.db.space();
    let env = s.env();
    let rig = env.rig(0);
    let mut peel = s.start()?;
    let remote = s.stage.drivers[0].as_ref();
    let embedded = EmbeddedDriver::connect(&served.db);
    work.prepare(&embedded)?;
    let embedded = &embedded as &dyn Driver;
    let scratch = scratch_tree(&space, facts, s.ct).map_err(text)?;
    for (ops, &sent) in work.dml.iter().zip(&s.stage.next) {
        follow(&space, scratch, s.ct, &ops[..sent]).map_err(text)?;
    }
    let cpus = crate::pin::allowed_cpus();
    crate::pin::pin(0, &cpus[..cpus.len().min(1)]);

    let mut wire = s.recorder("peel.wire", 0);
    let mut inproc = s.recorder("peel.embedded", 0);
    let mut blade = s.recorder("peel.blade", 0);
    let mut tree = s.recorder("peel.tree", 0);
    let turn = Limit::Count(CYCLE);
    let mut next = s.stage.next[0];
    let (mut counts, mut calls) = (MetricsSnapshot::default(), BackendSnapshot::default());
    for _ in 0..s.n / CYCLE {
        let turn_ops = |next: &mut usize| {
            let first = *next;
            *next += CYCLE;
            (first, &work.dml[0][first..first + CYCLE])
        };
        let (first, ops) = turn_ops(&mut next);
        let log = drive(work, remote, 0, first, turn, None);
        peel.untraced_ns += log.elapsed_ns;
        peel.failed += log.failed;
        follow(&space, scratch, s.ct, ops).map_err(text)?;

        let (first, ops) = turn_ops(&mut next);
        let before = (served.db.metrics_snapshot(), s.backend());
        let log = drive(work, remote, 0, first, turn, Some((&mut wire, "wire.stmt")));
        add_counts(&mut counts, &served.db.metrics_snapshot().since(&before.0));
        calls = calls.plus(&s.backend().since(&before.1));
        peel.rows += log.rows;
        peel.failed += log.failed;
        follow(&space, scratch, s.ct, ops).map_err(text)?;

        let (first, ops) = turn_ops(&mut next);
        let embedded_stmt = Some((&mut inproc, "embedded.stmt"));
        let log = drive(work, embedded, 0, first, turn, embedded_stmt);
        peel.failed += log.failed;
        follow(&space, scratch, s.ct, ops).map_err(text)?;

        let (first, ops) = turn_ops(&mut next);
        for k in first..first + CYCLE {
            let ok = match stmt_at(work, k) {
                Stmt::Read { query, expect, .. } => {
                    let ids = blade_read(rig, query, &mut blade, k as u32).map_err(text)?;
                    env.judge(&ids, expect, true)
                }
                Stmt::Dml(op) => blade_dml(rig, op, &mut blade, k as u32).map_err(text)?,
            };
            peel.failed += u64::from(!ok);
        }
        follow(&space, scratch, s.ct, ops).map_err(text)?;

        let (first, _) = turn_ops(&mut next);
        for k in first..first + CYCLE {
            let ok = match stmt_at(work, k) {
                Stmt::Read { query, expect, .. } => {
                    let ids = scratch_probe(&space, scratch, s.ct, query, &mut tree, k as u32)
                        .map_err(text)?;
                    env.judge(&ids, expect, true)
                }
                Stmt::Dml(op) => {
                    tree_dml(&space, scratch, s.ct, op, &mut tree, k as u32).map_err(text)?
                }
            };
            peel.failed += u64::from(!ok);
        }
        let log = drive(work, embedded, 0, first, turn, None);
        peel.failed += log.failed;
    }
    peel.stmts = (s.n / CYCLE * CYCLE) as u64;
    peel.counts = counts;
    peel.backend = calls;
    recorders.extend([wire, inproc, blade, tree]);

    let txn = space.begin(IsolationLevel::ReadCommitted);
    space.drop_lo(&txn, scratch).map_err(|e| e.to_string())?;
    txn.commit().map_err(|e| e.to_string())?;
    crate::pin::pin(0, &cpus);
    collect(&mut peel, recorders);
    Ok((peel, next))
}
