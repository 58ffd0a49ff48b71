//! The access-method purpose functions (the paper's Table 5), written
//! once for every tree on the paged-tree kernel.
//!
//! The DataBlade keeps its private state in the index descriptor, as
//! the paper does: the `Tree` object (a kernel [`Tree`] owning the open
//! BLOB handle) and the scan `Cursor` both live in "td", which is what
//! lets `am_delete` reset an open cursor when a deletion condenses the
//! tree — the Section 5.5 compromise: "we decided to restart scanning
//! of the index only when the tree is actually condensed". The rule is
//! applied here, for every access method: a condense frees pages, and
//! a cursor of *any* tree kind left standing on them would walk into
//! the free chain.
//!
//! An access method is a [`TreeAm`]: the key policy it instantiates
//! the kernel with, how a row's value becomes a key and a qualification
//! becomes probes, how a hit is rechecked, and how it traces. This
//! module holds that contract, the "td" state and the scan machinery;
//! [`crate::purpose`] holds the purpose-function bodies built on them.

use crate::curtime::CurrentTimePolicy;
use grt_ids::{AmContext, IdsError, IndexDescriptor, QualDescriptor, RowId, Value};
use grt_metrics::TreeMetrics;
use grt_sbspace::{LoId, LockMode};
use grt_temporal::Day;
use grt_treekit::{Cursor, Emitted, Meta, NodeSource, Reader, Tree, TreeError, TreeKey};

/// Scan-restart policy after deletions (the Section 5.5 design space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeletePolicy {
    /// Restart open scans after **every** deletion (the conservative
    /// baseline the paper rejects as time-consuming).
    RestartAlways,
    /// Restart open scans only when the deletion actually condensed the
    /// tree (the paper's compromise).
    #[default]
    RestartOnCondense,
}

/// What the shared bodies report to an access method's tracing.
pub(crate) enum Event<'a> {
    /// One step of a purpose function's Table 5 list: `(function, step)`.
    Step(&'a str, &'a str),
    /// `am_getnext_batch` advanced the cursor.
    Batch { asked: usize, got: usize },
    /// `am_build` packed this many entries.
    Built(usize),
}

pub(crate) type KeyOf<A> = <<A as TreeAm>::Key as TreeKey>::Key;
pub(crate) type Row = (RowId, Vec<Value>);

/// What one access method contributes on top of the shared bodies.
pub(crate) trait TreeAm: Send + Sync + Sized + 'static {
    /// The key policy the kernel is instantiated with.
    type Key: TreeKey;
    /// The qualification as parsed for one scan (see
    /// [`TreeAm::compile`]).
    type Qual: Send;
    /// One index probe derived from the qualification.
    type Probe: Send;
    /// Per-scan state beyond the cursor (a refinement heap, say).
    type Scan: Send;
    /// Identity of a returned row in the scan's dedup memory, which
    /// spans OR branches and restarts.
    type Seen: Eq + std::hash::Hash + Send;

    /// The access method's SQL name.
    const NAME: &'static str;
    /// The opaque column type it indexes.
    const COLUMN_TYPE: &'static str;
    /// Prefix of its counters in the engine-wide registry.
    const PREFIX: &'static str;

    /// Current-time caching policy (Section 5.4).
    fn curtime(&self) -> CurrentTimePolicy {
        CurrentTimePolicy::PerStatement
    }
    /// Scan-restart policy (Section 5.5).
    fn delete_policy(&self) -> DeletePolicy {
        DeletePolicy::RestartOnCondense
    }
    /// The header of a fresh tree (its `key` also opens existing ones).
    fn header(&self) -> Meta<Self::Key>;
    /// The kernel context for a statement running at `ct`.
    fn ctx(ct: Day) -> <Self::Key as TreeKey>::Ctx;
    /// The key a row's indexed value is stored under at `ct`.
    fn key_of(&self, row: &[Value], ct: Day) -> Result<KeyOf<Self>, IdsError>;
    /// Parses a qualification descriptor — strategy-function names
    /// matched, constants decoded. Called once per scan (and once per
    /// cost estimate); every per-candidate recheck reads the result.
    fn compile(&self, qual: &QualDescriptor) -> Result<Self::Qual, IdsError>;
    /// Breaks a qualification into index probes.
    fn probes(&self, qual: &Self::Qual) -> Result<Vec<Self::Probe>, IdsError>;
    /// The kernel query a probe scans with at `ct`.
    fn query(&self, probe: &Self::Probe, ct: Day) -> <Self::Key as TreeKey>::Query;
    /// Sets up the per-scan state at `am_beginscan`.
    fn begin(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<Self::Scan, IdsError>;
    /// Tears it down at `am_endscan`.
    fn end(&self, _scan: Self::Scan, _ctx: &AmContext) {}
    /// The dedup identity of a hit.
    fn seen(key: &KeyOf<Self>, rowid: u64) -> Self::Seen;
    /// Rechecks an index hit against the full qualification.
    fn recheck(
        &self,
        scan: &mut Self::Scan,
        qual: &Self::Qual,
        key: &KeyOf<Self>,
        rowid: u64,
        ct: Day,
    ) -> Result<bool, IdsError>;
    /// Area of the root bound at `ct`, the cost formula's denominator.
    fn area(&self, bound: &KeyOf<Self>, ct: Day) -> i128;
    /// Area of the root bound a probe covers at `ct`.
    fn overlap(&self, bound: &KeyOf<Self>, probe: &Self::Probe, ct: Day) -> i128;
    /// Quality figures appended to the `am_stats` line.
    fn quality(&self, _tree: &Tree<Self::Key>, _ct: Day) -> Result<String, TreeError> {
        Ok(String::new())
    }
    /// Emits what the method traces of `event` (nothing by default).
    fn trace(&self, _ctx: &AmContext, _event: Event<'_>) {}
}

/// Scan state: everything `am_beginscan` works out from the scan
/// descriptor — the parsed qualification, the probes derived from it —
/// plus the live cursor and the dedup memory across OR branches /
/// restarts.
pub(crate) struct ScanState<A: TreeAm> {
    pub(crate) probes: Vec<A::Probe>,
    pub(crate) current: usize,
    pub(crate) cursor: Option<Cursor<A::Key>>,
    pub(crate) qual: A::Qual,
    /// What the scan has returned. The kernel cursor's own memory stays
    /// empty on this path (the scan steps with [`Cursor::advance`]):
    /// this one outlives the cursor, which is replaced per probe and
    /// per restart. A log until a repeat becomes possible — a restart
    /// ([`ScanState::rewind`]) or a second probe.
    pub(crate) seen: Emitted<A::Seen>,
    /// Frozen-view reader when the statement runs on a space snapshot
    /// (no BLOB lock, no condense restarts). Lives in the scan — not in
    /// "td" — so it is released with the statement, never pinning
    /// retired pages past `am_endscan`.
    pub(crate) reader: Option<Reader<A::Key>>,
    pub(crate) extra: A::Scan,
}

impl<A: TreeAm> ScanState<A> {
    /// Drops the live cursor and goes back to the first probe.
    fn reset(&mut self) {
        self.cursor = None;
        self.current = 0;
    }

    /// Restarts the traversal (Section 5.5); the dedup memory, armed
    /// from here on, keeps already-returned entries from reappearing.
    pub(crate) fn rewind(&mut self) {
        self.reset();
        self.seen.arm();
    }

    /// Starts the scan over with nothing remembered (`am_rescan`).
    pub(crate) fn replay(&mut self) {
        self.reset();
        self.seen.clear();
    }
}

/// The DataBlade's private index state ("td").
pub(crate) struct TdState<A: TreeAm> {
    pub(crate) lo: LoId,
    pub(crate) mode: LockMode,
    pub(crate) tree: Option<Tree<A::Key>>,
    pub(crate) ct: Day,
    pub(crate) scan: Option<ScanState<A>>,
}

pub(crate) fn am_err(e: TreeError) -> IdsError {
    IdsError::AccessMethod(e.to_string())
}

pub(crate) fn metrics<A: TreeAm>(ctx: &AmContext) -> TreeMetrics {
    TreeMetrics::registered(&ctx.space.metrics(), A::PREFIX)
}

/// Runs `f` with the descriptor's `TdState`, creating it on demand from
/// the fragment catalog.
pub(crate) fn with_td<A: TreeAm, R>(
    idx: &IndexDescriptor,
    ctx: &AmContext,
    f: impl FnOnce(&mut TdState<A>) -> Result<R, IdsError>,
) -> Result<R, IdsError> {
    let mut guard = idx.user_data.lock();
    if guard.is_none() {
        let lo = {
            let frags = ctx.fragments.lock();
            LoId(*frags.get(&idx.index_name).ok_or_else(|| {
                IdsError::AccessMethod(format!(
                    "index {} has no fragment (was am_create run?)",
                    idx.index_name
                ))
            })?)
        };
        *guard = Some(Box::new(TdState::<A> {
            lo,
            mode: LockMode::Shared,
            tree: None,
            ct: ctx.clock.today(),
            scan: None,
        }));
    }
    let td = guard
        .as_mut()
        .and_then(|b| b.downcast_mut::<TdState<A>>())
        .ok_or_else(|| IdsError::AccessMethod("foreign index state".into()))?;
    f(td)
}

/// Ensures the tree is open with at least the needed lock mode.
pub(crate) fn ensure_tree<A: TreeAm>(
    am: &A,
    td: &mut TdState<A>,
    ctx: &AmContext,
    write: bool,
) -> Result<(), IdsError> {
    let need = if write {
        LockMode::Exclusive
    } else {
        LockMode::Shared
    };
    if td.tree.is_some() && (td.mode == LockMode::Exclusive || need == LockMode::Shared) {
        return Ok(());
    }
    // (Re)open the BLOB in the required mode; the automatic LO-level
    // locking of the sbspace applies (Section 5.3).
    if let Some(tree) = td.tree.take() {
        tree.into_lo().map_err(am_err)?.close()?;
    }
    let handle = ctx.space.open_lo(ctx.txn, td.lo, need)?;
    let mut tree = Tree::open(am.header().key, handle).map_err(am_err)?;
    tree.set_metrics(metrics::<A>(ctx));
    td.tree = Some(tree);
    td.mode = need;
    Ok(())
}

/// Closes whatever tree the descriptor still holds and forgets "td".
pub(crate) fn release<A: TreeAm>(idx: &IndexDescriptor) -> Result<bool, IdsError> {
    let Some(boxed) = idx.user_data.lock().take() else {
        return Ok(false);
    };
    let Some(tree) = boxed.downcast::<TdState<A>>().ok().and_then(|td| td.tree) else {
        return Ok(false);
    };
    tree.into_lo().map_err(am_err)?.close()?;
    Ok(true)
}

/// Mounts the statement's frozen view of this index, if the engine
/// routed the statement onto a space snapshot.
pub(crate) fn snapshot_reader<A: TreeAm>(
    am: &A,
    td: &TdState<A>,
    ctx: &AmContext,
) -> Result<Option<Reader<A::Key>>, IdsError> {
    let Some(snap) = ctx.snapshot.as_deref() else {
        return Ok(None);
    };
    let reader = Reader::open(am.header().key, snap.reader(td.lo)?, metrics::<A>(ctx));
    Ok(Some(reader.map_err(am_err)?))
}

/// The Section 6 cost formula: tree height plus the page count scaled
/// by the fraction of the root bound (at `ct`) the qualification's
/// probes cover, floored so the estimate stays monotone in size.
pub(crate) fn cost_estimate<A: TreeAm, S: NodeSource<A::Key>>(
    am: &A,
    src: &S,
    qual: &QualDescriptor,
    ct: Day,
) -> Result<f64, IdsError> {
    let fraction = match src.root_bound(A::ctx(ct)).map_err(am_err)? {
        None => 0.0,
        Some(bound) => {
            let total = am.area(&bound, ct);
            let probes = am
                .compile(qual)
                .and_then(|q| am.probes(&q))
                .unwrap_or_default();
            if probes.is_empty() || total <= 0 {
                1.0
            } else {
                let overlap: i128 = probes.iter().map(|p| am.overlap(&bound, p, ct)).sum();
                (overlap as f64 / total as f64).clamp(0.02, 1.0)
            }
        }
    };
    Ok(src.meta().height as f64 + src.pages() as f64 * fraction)
}

/// One qualifying row off the scan, shared by `am_getnext` and
/// `am_getnext_batch`; the caller already holds the descriptor lock
/// via [`with_td`].
pub(crate) fn scan_step<A: TreeAm>(
    am: &A,
    td: &mut TdState<A>,
    ctx: &AmContext,
) -> Result<Option<Row>, IdsError> {
    // A snapshot scan never touches the locked tree; everything it
    // needs lives in the scan state's frozen reader.
    let on_snapshot = td.scan.as_ref().is_some_and(|s| s.reader.is_some());
    if !on_snapshot {
        ensure_tree(am, td, ctx, false)?;
    }
    let ct = td.ct;
    let tree = td.tree.as_ref();
    let scan = td
        .scan
        .as_mut()
        .ok_or_else(|| IdsError::AccessMethod("getnext without beginscan".into()))?;
    loop {
        let cursor = match &mut scan.cursor {
            Some(cursor) => cursor,
            None => {
                let Some(probe) = scan.probes.get(scan.current) else {
                    return Ok(None);
                };
                let query = am.query(probe, ct);
                scan.cursor.insert(match &scan.reader {
                    Some(r) => r.cursor(query, A::ctx(ct)),
                    None => tree.expect("ensured").cursor(query, A::ctx(ct)),
                })
            }
        };
        let next = match &scan.reader {
            Some(r) => cursor.advance(r),
            None => cursor.advance(tree.expect("ensured")),
        }
        .map_err(am_err)?;
        let Some((key, rowid)) = next else {
            scan.cursor = None;
            scan.current += 1;
            if scan.current < scan.probes.len() {
                // The next OR branch may cover rows this one returned.
                scan.seen.arm();
            }
            continue;
        };
        if !scan.seen.insert(A::seen(&key, rowid)) {
            continue;
        }
        if am.recheck(&mut scan.extra, &scan.qual, &key, rowid, ct)? {
            // *retrow* stays empty: the executor refetches by rowid.
            return Ok(Some((RowId(rowid), Vec::new())));
        }
    }
}
