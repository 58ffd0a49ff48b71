//! The sbspace facade: transactions, large-object lifecycle, and
//! recovery.
//!
//! This is the surface the DataBlade's BLOB-manipulation layer talks to
//! (the paper's `Create()`, `Drop()`, `Open()`, `Close()`, `Read()`,
//! `Write()` functions): create/open/drop large objects under automatic
//! LO-level two-phase locking, read/write them by page or by byte
//! range, and commit or abort atomically.
//!
//! The allocator — which pages are free, how far the file extends —
//! is `MetaState`: it lives in memory and in the log (`AllocNote`,
//! `FreeNote`, and the state a `Checkpoint` record carries), never in a
//! page of the data file. Opening a space replays the write-ahead log:
//! data images of committed transactions, the allocator's notes behind
//! the last checkpoint record, and compensation (freeing) of pages
//! allocated by transactions that never finished — and ends, as a
//! checkpoint does, by logging the state it arrived at.

use crate::backend::{Backend, FileBackend, MemBackend};
use crate::buffer::{BufferPool, PageGuard};
use crate::group::LogWriter;
use crate::lo::{self, Inode, LoId};
use crate::lock::{IsolationLevel, LockManager, LockMode};
use crate::page::{PageBuf, PageId, PAGE_SIZE};
use crate::stats::IoStats;
use crate::txn::{TxnEnd, TxnId, TxnState};
use crate::wal::{FileWal, MemWal, WalRecord, WalStore};
use crate::{Result, SbError};
use grt_metrics::{Counter, Gauge, Metrics};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for an sbspace.
#[derive(Debug, Clone)]
pub struct SbspaceOptions {
    /// Buffer-pool capacity in pages.
    pub pool_pages: usize,
    /// Number of lock-striped buffer-pool shards (`page_id % shards`).
    /// More shards reduce contention between threads touching different
    /// pages; a power of two near the expected thread count works well.
    pub pool_shards: usize,
    /// Lock-wait timeout.
    pub lock_timeout: Duration,
    /// Retired in PR 19 (ISSUE 22) with the force-data commit mode: not
    /// read, deleted when the benchmark harness stops naming it.
    pub group_commit: bool,
    /// Retired in PR 19 (ISSUE 22) with the force-data commit mode: not
    /// read, deleted when the benchmark harness stops naming it.
    pub commit_batch_size: usize,
    /// Size at which a WAL segment rolls. Together with the checkpoint
    /// cadence this bounds both the log's footprint and how much of it
    /// recovery replays.
    pub wal_segment_bytes: usize,
    /// When set, a background thread fuzzy-checkpoints the space at
    /// this cadence: it incrementally flushes committed-dirty frames,
    /// writes a checkpoint record, recycles every WAL segment below the
    /// active-transaction low-water mark, and sweeps retired page
    /// batches whose snapshots have drained. `None` (the default) runs
    /// no thread; [`Sbspace::checkpoint`] still checkpoints on demand.
    /// A commit forces the log and never writes the data file, so this
    /// cadence — not commit — is what bounds the log and the replay.
    pub checkpoint_interval: Option<Duration>,
    /// Retired in PR 18 (ISSUE 21) with the scan prefetcher: not read,
    /// deleted when the benchmark harness stops naming it.
    pub prefetch_workers: usize,
    /// Retired in PR 18 (ISSUE 21) with the scan prefetcher: not read,
    /// deleted when the benchmark harness stops naming it.
    pub prefetch_depth: usize,
}

impl Default for SbspaceOptions {
    fn default() -> Self {
        SbspaceOptions {
            pool_pages: 256,
            pool_shards: 8,
            lock_timeout: Duration::from_secs(2),
            group_commit: false,
            commit_batch_size: 32,
            wal_segment_bytes: crate::wal::DEFAULT_SEGMENT_BYTES,
            checkpoint_interval: None,
            prefetch_workers: 0,
            prefetch_depth: 64,
        }
    }
}

/// A snapshot of space occupancy (see [`Sbspace::space_info`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceInfo {
    /// Allocation watermark (pages ever handed out, header included).
    pub total_pages: u32,
    /// Pages currently free.
    pub free_pages: u32,
}

type EndCallback = Box<dyn Fn(TxnId, TxnEnd) + Send + Sync>;

/// A committed page table of one large object, as last published.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LoTable {
    pub pages: Vec<u32>,
    pub size: u64,
}

/// The versioned registry of committed page tables. `tables` is swapped
/// wholesale at each publishing commit, so cloning the `Arc` yields a
/// transactionally consistent cut across every large object; `epoch`
/// counts publishes that retired pages, and `open`/`retired` gate the
/// reclamation of superseded pages on the oldest live snapshot.
struct PublishedState {
    epoch: u64,
    tables: Arc<HashMap<u32, Arc<LoTable>>>,
    /// Live snapshots per epoch (count of [`SpaceSnapshot`]s opened
    /// while `epoch` had that value).
    open: BTreeMap<u64, usize>,
    /// Retired page batches, each tagged with the epoch whose snapshots
    /// may still reference them. A batch is freed once every open
    /// snapshot's epoch is strictly newer.
    retired: VecDeque<(u64, Vec<u32>)>,
}

/// The allocator's state, guarded by [`SpaceInner::meta`]: the only
/// copy while the space is open. The log holds its history
/// (`AllocNote`, `FreeNote`) and, in each `Checkpoint` record, a copy as
/// of that record's place in the log; the data file holds none of it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MetaState {
    /// Allocation watermark: pages `1..total_pages` have been handed
    /// out at some point (page 0 is the header).
    total_pages: u32,
    /// Free pages, last freed on top: allocation pops, so a page just
    /// freed is the next one reused.
    free: Vec<u32>,
    /// Membership in `free`.
    is_free: HashSet<u32>,
}

impl MetaState {
    /// The allocator of a space with nothing in it.
    fn fresh() -> MetaState {
        MetaState::restore(1, Vec::new())
    }

    /// The allocator a `Checkpoint` record describes.
    fn restore(total_pages: u32, free: Vec<u32>) -> MetaState {
        MetaState {
            total_pages,
            is_free: free.iter().copied().collect(),
            free,
        }
    }

    /// The pages the next [`MetaState::take`] of `n` will hand out, top
    /// of the free stack first, then fresh ones past the watermark.
    fn peek(&self, n: usize) -> Vec<u32> {
        let reused = self.free.iter().rev().take(n).copied();
        reused.chain(self.total_pages..).take(n).collect()
    }

    /// Hands out `n` pages: exactly those [`MetaState::peek`] named.
    fn take(&mut self, n: usize) -> Vec<u32> {
        let got = self.peek(n);
        let reused = n.min(self.free.len());
        self.free.truncate(self.free.len() - reused);
        for pid in &got[..reused] {
            self.is_free.remove(pid);
        }
        self.total_pages += (n - reused) as u32;
        got
    }

    /// Puts `pid` on top of the free stack. Idempotent, and refuses the
    /// header page and anything past the watermark: recovery gives back
    /// every page some record says is owed, whether or not an earlier
    /// record already did. Returns whether the page was pushed.
    fn give(&mut self, pid: u32) -> bool {
        let ok = pid != 0 && pid < self.total_pages && self.is_free.insert(pid);
        if ok {
            self.free.push(pid);
        }
        ok
    }

    /// Replays an `AllocNote` for `pid`: off the free stack, wherever
    /// in it the page sits, or past the watermark, which moves.
    fn claim(&mut self, pid: u32) {
        if self.is_free.remove(&pid) {
            let at = self.free.iter().rposition(|&p| p == pid);
            self.free.remove(at.expect("member of the free set"));
        }
        self.total_pages = self.total_pages.max(pid.saturating_add(1));
    }
}

pub(crate) struct SpaceInner {
    /// Sharded and internally synchronised — no outer lock.
    pool: BufferPool,
    /// The one path into the WAL (owns the store).
    log: LogWriter,
    pub(crate) lm: LockManager,
    stats: Arc<IoStats>,
    /// Engine-wide metrics registry; holds the [`IoStats`] cells under
    /// `sbspace.*` names and is shared upward so higher layers (ids,
    /// the tree access methods) register their counters alongside.
    metrics: Arc<Metrics>,
    /// The allocator. A record that changes it, or copies it, is
    /// appended to the log under this lock, so log order is allocation
    /// order. Lock order: `meta` before the log writer's queue.
    meta: Mutex<MetaState>,
    txns: Mutex<HashMap<u64, TxnState>>,
    next_txn: AtomicU64,
    callbacks: Mutex<Vec<EndCallback>>,
    /// Committed page tables and snapshot/reclamation bookkeeping.
    published: Mutex<PublishedState>,
    /// Excludes retired-batch reclamation from a checkpoint's
    /// capture-to-durable window. A checkpoint copies `retired` into its
    /// record and only *later* gets that record on disk; if a snapshot
    /// drop or a commit popped one of those batches in between, its
    /// pages could be freed, reallocated, and the reallocation's
    /// `AllocNote` logged *before* the checkpoint record — replay would
    /// then honour the record's stale claim and free a live page. Held
    /// by the checkpoint from capture until the record is durable (and
    /// through its own sweep, so concurrent checkpoints serialise), and
    /// by every site that pops batches via `reclaimable` and frees them.
    /// Lock order: `retire_guard` before `published`.
    retire_guard: Mutex<()>,
    /// Transactions past their durable commit point whose frames are
    /// not yet relabelled committed-dirty in the pool, keyed by txn id
    /// with the segment active at their begin. A checkpoint's low-water
    /// mark covers these as well as `txns`: recycling the segment
    /// holding such a transaction's redo images before the pool knows
    /// about them would lose a committed transaction on crash.
    committing: Mutex<HashMap<u64, u64>>,
    /// Snapshot reads taken (`sbspace.snapshot_reads`).
    snapshot_reads: Counter,
    /// Snapshots currently open (`sbspace.snapshots_open`).
    snapshots_open: Gauge,
    /// Published page-table entries superseded (`sbspace.page_tables_retired`).
    page_tables_retired: Counter,
    /// Fuzzy checkpoints completed (`sbspace.checkpoints`).
    checkpoints: Counter,
    /// Checkpoint attempts that failed (`sbspace.checkpoint_failures`).
    /// The previous checkpoint stays authoritative: nothing was
    /// recycled or truncated.
    checkpoint_failures: Counter,
    /// WAL segments deleted by checkpoints (`wal.segments_recycled`).
    segments_recycled: Counter,
    /// Bytes across live WAL segments as of the last checkpoint
    /// (`wal.live_bytes`).
    wal_live_bytes: Gauge,
    /// Background checkpointer shutdown flag + wakeup.
    ckpt_stop: Arc<(Mutex<bool>, Condvar)>,
    /// The background checkpointer, when `checkpoint_interval` is set.
    ckpt_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// A store of smart large objects. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Sbspace {
    inner: Arc<SpaceInner>,
}

/// A transaction handle. Dropping an unfinished transaction aborts it.
pub struct Txn {
    inner: Arc<SpaceInner>,
    id: TxnId,
    done: AtomicBool,
}

/// An open large object, holding the lock its open acquired.
pub struct LoHandle {
    inner: Arc<SpaceInner>,
    txn: TxnId,
    lo: LoId,
    mode: LockMode,
    inode: Inode,
    inode_dirty: bool,
    closed: bool,
}

impl Sbspace {
    /// Opens a space over arbitrary backend and log: writes the header
    /// page when the store is blank, then runs recovery.
    pub fn open_with(
        backend: impl Backend + 'static,
        wal: impl WalStore + 'static,
        opts: SbspaceOptions,
    ) -> Result<Sbspace> {
        let stats = IoStats::new_shared();
        let metrics = Metrics::shared();
        stats.register_in(&metrics);
        let pool = BufferPool::new(
            Box::new(backend),
            opts.pool_pages,
            opts.pool_shards,
            Arc::clone(&stats),
        );
        // Page 0 is written here, when the space is created, and by
        // nothing else.
        let mut page0 = crate::page::zeroed_page();
        pool.recovery_read(PageId(0), &mut page0)?;
        if lo::is_blank(&page0) {
            pool.recovery_write(PageId(0), &lo::header_page())?;
            pool.sync_backend()?;
        } else {
            lo::check_header(&page0)?;
        }
        let snapshot_reads = metrics.counter("sbspace.snapshot_reads");
        let snapshots_open = metrics.gauge("sbspace.snapshots_open");
        let page_tables_retired = metrics.counter("sbspace.page_tables_retired");
        let checkpoints = metrics.counter("sbspace.checkpoints");
        let checkpoint_failures = metrics.counter("sbspace.checkpoint_failures");
        let segments_recycled = metrics.counter("wal.segments_recycled");
        let wal_live_bytes = metrics.gauge("wal.live_bytes");
        let space = Sbspace {
            inner: Arc::new(SpaceInner {
                pool,
                log: LogWriter::new(Box::new(wal), Arc::clone(&stats), &metrics),
                lm: LockManager::new(opts.lock_timeout, Arc::clone(&stats)),
                stats,
                metrics,
                meta: Mutex::new(MetaState::fresh()),
                txns: Mutex::new(HashMap::new()),
                next_txn: AtomicU64::new(1),
                callbacks: Mutex::new(Vec::new()),
                published: Mutex::new(PublishedState {
                    epoch: 0,
                    tables: Arc::new(HashMap::new()),
                    open: BTreeMap::new(),
                    retired: VecDeque::new(),
                }),
                retire_guard: Mutex::new(()),
                committing: Mutex::new(HashMap::new()),
                snapshot_reads,
                snapshots_open,
                page_tables_retired,
                checkpoints,
                checkpoint_failures,
                segments_recycled,
                wal_live_bytes,
                ckpt_stop: Arc::new((Mutex::new(false), Condvar::new())),
                ckpt_thread: Mutex::new(None),
            }),
        };
        space.inner.recover()?;
        if let Some(interval) = opts.checkpoint_interval {
            space.spawn_checkpointer(interval);
        }
        Ok(space)
    }

    /// An in-memory space (tests, benchmarks).
    pub fn mem(opts: SbspaceOptions) -> Sbspace {
        let wal = MemWal::with_segment_bytes(opts.wal_segment_bytes);
        Sbspace::open_with(MemBackend::new(), wal, opts).expect("mem space")
    }

    /// A file-backed space in `dir` (`pages.db` + a `wal/` segment
    /// directory).
    pub fn file(dir: &Path, opts: SbspaceOptions) -> Result<Sbspace> {
        std::fs::create_dir_all(dir).map_err(|e| SbError::Io(e.to_string()))?;
        let backend = FileBackend::open(&dir.join("pages.db"))?;
        let wal = FileWal::open_with(&dir.join("wal"), opts.wal_segment_bytes)?;
        Sbspace::open_with(backend, wal, opts)
    }

    /// Spawns the background fuzzy checkpointer. The thread holds only
    /// a weak handle, so it never keeps a closed space alive; it skips
    /// ticks where nothing new was logged and no retired batch waits.
    fn spawn_checkpointer(&self, interval: Duration) {
        let weak = Arc::downgrade(&self.inner);
        let stop = Arc::clone(&self.inner.ckpt_stop);
        let handle = std::thread::Builder::new()
            .name("sbspace-checkpoint".into())
            .spawn(move || {
                let mut last_appended = u64::MAX; // first tick always runs
                loop {
                    {
                        let (flag, cond) = &*stop;
                        let mut stopped = flag.lock();
                        if !*stopped {
                            cond.wait_for(&mut stopped, interval);
                        }
                        if *stopped {
                            return;
                        }
                    }
                    let Some(inner) = weak.upgrade() else { return };
                    let appended = inner.log.store().appended_total();
                    let retire_pending = !inner.published.lock().retired.is_empty();
                    if appended != last_appended || retire_pending {
                        last_appended = appended;
                        // Failure leaves the previous checkpoint
                        // authoritative; the failure counter is bumped
                        // inside and the next tick retries.
                        let _ = inner.run_checkpoint();
                    }
                }
            })
            .expect("spawn checkpointer");
        *self.inner.ckpt_thread.lock() = Some(handle);
    }

    /// Starts a transaction.
    pub fn begin(&self, iso: IsolationLevel) -> Txn {
        let id = TxnId(self.inner.next_txn.fetch_add(1, Ordering::SeqCst));
        // Read the active segment *before* publishing the transaction:
        // segment ids only grow, so this is a valid lower bound on
        // where any of the transaction's records can land.
        let start_seg = self.inner.log.store().active_segment();
        self.inner
            .txns
            .lock()
            .insert(id.0, TxnState::new(iso, start_seg));
        // Deliberately not logged: recovery infers unfinished
        // transactions from the absence of a Commit/Abort record, and a
        // fire-and-forget Begin append could tear and strand every
        // later record beyond the garbage.
        Txn {
            inner: Arc::clone(&self.inner),
            id,
            done: AtomicBool::new(false),
        }
    }

    /// Registers an end-of-transaction callback (the paper's Section 5.4
    /// mechanism for clearing per-transaction named memory).
    pub fn on_txn_end(&self, f: impl Fn(TxnId, TxnEnd) + Send + Sync + 'static) {
        self.inner.callbacks.lock().push(Box::new(f));
    }

    /// The shared I/O counters.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.inner.stats)
    }

    /// The engine-wide metrics registry. The `sbspace.*` counters are
    /// pre-registered; callers add their own counters and histograms
    /// next to them and diff [`Metrics::snapshot`]s for per-phase costs.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// Number of large objects currently locked (diagnostic).
    pub fn locked_objects(&self) -> usize {
        self.inner.lm.lock_count()
    }

    /// Empties the page cache of everything the backend also holds, so
    /// the next reads hit the backend cold (benchmark hook — lets a
    /// cold-scan harness measure physical I/O without reopening the
    /// space). Committed-dirty frames (commits the checkpointer has not
    /// reached) are written out first and then dropped; if that
    /// write fails they stay cached for the checkpointer to retry. An
    /// open transaction's uncommitted frames stay: the pool holds their
    /// only copy.
    pub fn drop_page_cache(&self) {
        // Not an error here: frames that failed to flush stay
        // committed-dirty, and `drop_clean` keeps those.
        let _ = self.inner.pool.flush_committed();
        self.inner.pool.drop_clean();
    }

    /// The lock mode `txn` currently holds on `lo`, if any (diagnostic).
    pub fn lock_held(&self, txn: &Txn, lo: LoId) -> Option<LockMode> {
        self.inner.lm.held(txn.id(), lo.0)
    }

    /// Number of transactions currently blocked on a lock (diagnostic).
    pub fn lock_waiters(&self) -> usize {
        self.inner.lm.waiter_count()
    }

    /// True when the lock table and the wait-for graph are both empty.
    /// A correctly quiesced workload — every session's transactions
    /// committed or aborted — must leave the lock manager in this
    /// state; the stress harness asserts it.
    pub fn locks_quiescent(&self) -> bool {
        self.inner.lm.is_quiescent()
    }

    /// Creates a new large object, exclusively locked by `txn`.
    pub fn create_lo(&self, txn: &Txn) -> Result<LoId> {
        txn.check_live()?;
        let pid = self.inner.alloc_pages(txn.id, 1)?.pop().expect("one page");
        let id = LoId(pid);
        self.inner.lock_for(txn.id, id, LockMode::Exclusive)?;
        // The inode itself is transactional data: invisible until commit.
        let images = Inode::empty().encode(id);
        for (p, data) in images {
            self.inner.pool.write_txn(txn.id, PageId(p), &data)?;
        }
        Ok(id)
    }

    /// Opens a large object, acquiring a shared (read) or exclusive
    /// (write) lock per the paper's sbspace semantics.
    pub fn open_lo(&self, txn: &Txn, lo: LoId, mode: LockMode) -> Result<LoHandle> {
        txn.check_live()?;
        self.inner.lock_for(txn.id, lo, mode)?;
        IoStats::bump(&self.inner.stats.lo_opens);
        let inode = self.inner.load_inode(lo)?;
        Ok(LoHandle {
            inner: Arc::clone(&self.inner),
            txn: txn.id,
            lo,
            mode,
            inode,
            inode_dirty: false,
            closed: false,
        })
    }

    /// Schedules a large object for destruction at commit (it stays
    /// exclusively locked until then).
    pub fn drop_lo(&self, txn: &Txn, lo: LoId) -> Result<()> {
        txn.check_live()?;
        self.inner.lock_for(txn.id, lo, LockMode::Exclusive)?;
        // Validate it exists now rather than failing at commit.
        self.inner.load_inode(lo)?;
        let mut txns = self.inner.txns.lock();
        let st = txns.get_mut(&txn.id.0).ok_or(SbError::TxnEnded)?;
        st.pending_drops.push(lo.0);
        Ok(())
    }

    /// Verifies a large object's page table (the `am_check` primitive):
    /// in-range page ids and no duplicates.
    pub fn verify_lo(&self, txn: &Txn, lo: LoId) -> Result<()> {
        txn.check_live()?;
        self.inner.lock_for(txn.id, lo, LockMode::Shared)?;
        let inode = self.inner.load_inode(lo)?;
        let total_pages = self.inner.meta.lock().total_pages;
        let mut seen = HashSet::new();
        for pid in inode.all_pages(lo) {
            if pid >= total_pages {
                return Err(SbError::Corrupt(format!("{lo}: page {pid} out of range")));
            }
            if !seen.insert(pid) {
                return Err(SbError::Corrupt(format!("{lo}: duplicate page {pid}")));
            }
        }
        Ok(())
    }

    /// Space occupancy: allocation watermark and free pages.
    pub fn space_info(&self) -> Result<SpaceInfo> {
        let meta = self.inner.meta.lock();
        Ok(SpaceInfo {
            total_pages: meta.total_pages,
            free_pages: meta.free.len() as u32,
        })
    }

    /// Runs one fuzzy checkpoint now (the same routine the background
    /// thread runs): flushes committed-dirty frames shard by shard —
    /// writers proceed meanwhile — syncs the backend, writes a
    /// checkpoint record carrying the allocator's state and the
    /// snapshot-pinned retire backlog, recycles every WAL segment wholly
    /// below the active-transaction
    /// low-water mark, and sweeps retired page batches whose snapshots
    /// have drained. Active transactions are fine: their segments are
    /// simply kept.
    pub fn checkpoint(&self) -> Result<()> {
        self.inner.run_checkpoint()
    }

    /// Bytes across all live WAL segments.
    pub fn wal_live_bytes(&self) -> Result<u64> {
        self.inner.log.store().live_bytes()
    }

    /// Number of live WAL segments.
    pub fn wal_segment_count(&self) -> Result<usize> {
        Ok(self.inner.log.store().segments()?.len())
    }

    /// Retired page batches still gated behind open snapshots
    /// (diagnostic; the checkpointer sweeps drained batches).
    pub fn retired_batches(&self) -> usize {
        self.inner.published.lock().retired.len()
    }

    /// Takes a consistent snapshot covering the given large objects:
    /// their last **committed** page tables, pinned against reclamation
    /// until the snapshot drops. No LO-level lock is held by the
    /// snapshot — concurrent writers proceed under 2PL and shadow
    /// paging, and this snapshot keeps seeing the pre-commit pages.
    ///
    /// Objects never published since the space opened are seeded from
    /// their inodes under a momentary shared lock (so an in-flight
    /// writer's uncommitted table is never captured). Errors if an
    /// object does not exist — callers fall back to the locked read
    /// path.
    pub fn snapshot_for(&self, los: &[LoId]) -> Result<SpaceSnapshot> {
        for &lo in los {
            self.inner.publish_if_absent(lo)?;
        }
        let mut published = self.inner.published.lock();
        for &lo in los {
            if !published.tables.contains_key(&lo.0) {
                return Err(SbError::NotFound(format!("{lo}: not published")));
            }
        }
        let epoch = published.epoch;
        *published.open.entry(epoch).or_insert(0) += 1;
        let tables = Arc::clone(&published.tables);
        drop(published);
        self.inner.snapshot_reads.inc();
        self.inner.snapshots_open.inc();
        Ok(SpaceSnapshot {
            inner: Arc::clone(&self.inner),
            epoch,
            tables,
        })
    }

    /// Number of snapshots currently open (diagnostic; also exported as
    /// the `sbspace.snapshots_open` gauge).
    pub fn snapshots_open(&self) -> u64 {
        self.inner.snapshots_open.get()
    }
}

/// A consistent read view over the committed page tables of a set of
/// large objects, taken by [`Sbspace::snapshot_for`]. Holding the
/// snapshot pins every page it references: pages a concurrent writer
/// retires stay readable and are only returned to the free list after
/// the last snapshot of their epoch drops.
///
/// Cheap to clone at the `Arc` level by the caller; internally it is
/// one epoch registration, deregistered on drop.
pub struct SpaceSnapshot {
    inner: Arc<SpaceInner>,
    epoch: u64,
    tables: Arc<HashMap<u32, Arc<LoTable>>>,
}

impl SpaceSnapshot {
    /// The publish epoch this snapshot pinned.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True when the snapshot covers `lo`.
    pub fn contains(&self, lo: LoId) -> bool {
        self.tables.contains_key(&lo.0)
    }

    /// Opens a lock-free reader over `lo`'s snapshotted page table.
    /// The returned [`LoReader`] must not outlive this snapshot — the
    /// snapshot's registration is what keeps the pages unreclaimed.
    pub fn reader(&self, lo: LoId) -> Result<LoReader> {
        let table = self
            .tables
            .get(&lo.0)
            .ok_or_else(|| SbError::NotFound(format!("{lo}: not in snapshot")))?;
        Ok(LoReader {
            inner: Arc::clone(&self.inner),
            lo,
            pages: table.pages.clone(),
        })
    }

    /// Byte size of `lo` in the snapshot.
    pub fn len_of(&self, lo: LoId) -> Result<u64> {
        self.tables
            .get(&lo.0)
            .map(|t| t.size)
            .ok_or_else(|| SbError::NotFound(format!("{lo}: not in snapshot")))
    }
}

impl Drop for SpaceSnapshot {
    fn drop(&mut self) {
        // Pop and free under the retire guard: a checkpoint that has
        // already captured these batches for its record must get that
        // record durable before the pages can re-enter circulation.
        let retire = self.inner.retire_guard.lock();
        let to_reclaim = {
            let mut published = self.inner.published.lock();
            match published.open.get_mut(&self.epoch) {
                Some(n) if *n > 1 => *n -= 1,
                _ => {
                    published.open.remove(&self.epoch);
                }
            }
            SpaceInner::reclaimable(&mut published)
        };
        self.inner.snapshots_open.dec();
        // Reclamation failure in a destructor is unreportable; on a
        // store whose log has failed the pages stay unreachable until
        // the next recovery replays their retire notes.
        let _ = self.inner.free_pages(&to_reclaim);
        drop(retire);
    }
}

impl SpaceInner {
    fn lock_for(&self, txn: TxnId, lo: LoId, mode: LockMode) -> Result<()> {
        self.lm.acquire(txn, lo.0, mode)?;
        if let Some(st) = self.txns.lock().get_mut(&txn.0) {
            st.locks.insert(lo.0);
        }
        Ok(())
    }

    fn load_inode(&self, lo: LoId) -> Result<Inode> {
        // A dropped object's inode page is a free page, and a free page
        // keeps its last owner's bytes: the pool may still show the old
        // inode. The allocator knows better.
        if self.meta.lock().is_free.contains(&lo.0) {
            return Err(SbError::Corrupt(format!("{lo}: bad inode magic")));
        }
        // Pinned reads: the inode and indirect pages are decoded in
        // place, no page copies.
        Inode::decode(lo, |pid| self.pool.read_pinned(PageId(pid)))
    }

    /// Seeds the published registry with `lo`'s committed page table
    /// when it has never been published since the space opened (e.g. a
    /// file-backed space freshly reopened). A momentary shared lock —
    /// under a throwaway transaction id that holds nothing else, so it
    /// cannot deadlock — excludes in-flight writers while the inode is
    /// read; no epoch bump, since nothing is superseded.
    fn publish_if_absent(&self, lo: LoId) -> Result<()> {
        if self.published.lock().tables.contains_key(&lo.0) {
            return Ok(());
        }
        let tid = TxnId(self.next_txn.fetch_add(1, Ordering::SeqCst));
        self.lm.acquire(tid, lo.0, LockMode::Shared)?;
        let seeded = (|| -> Result<()> {
            let inode = self.load_inode(lo)?;
            let mut published = self.published.lock();
            if !published.tables.contains_key(&lo.0) {
                let mut tables = (*published.tables).clone();
                tables.insert(
                    lo.0,
                    Arc::new(LoTable {
                        pages: inode.data_pages.clone(),
                        size: inode.size,
                    }),
                );
                published.tables = Arc::new(tables);
            }
            Ok(())
        })();
        self.lm.release(tid, lo.0);
        seeded
    }

    /// Pops every retired batch no open snapshot can still reference.
    /// Call with the published-state lock held; free the returned pages
    /// *after* releasing it.
    fn reclaimable(published: &mut PublishedState) -> Vec<u32> {
        let min_open = published.open.keys().next().copied().unwrap_or(u64::MAX);
        let mut out = Vec::new();
        while let Some((tag, _)) = published.retired.front() {
            if *tag < min_open {
                out.extend(published.retired.pop_front().expect("front exists").1);
            } else {
                break;
            }
        }
        out
    }

    /// Allocates `n` pages for `txn`, noting them for crash/abort
    /// compensation. The note is queued, not forced: the pages hold
    /// nothing durable until `txn` commits, and that commit's force
    /// carries the note ahead of its own records. The pages are taken
    /// only once the note has its place in the log, so a failed log
    /// allocates nothing.
    pub(crate) fn alloc_pages(&self, txn: TxnId, n: usize) -> Result<Vec<u32>> {
        let mut meta = self.meta.lock();
        let pages = meta.peek(n);
        self.log
            .append(WalRecord::AllocNote { txn, pages }.encode())?;
        let got = meta.take(n);
        drop(meta);
        if let Some(st) = self.txns.lock().get_mut(&txn.0) {
            st.alloc_pages.extend_from_slice(&got);
            st.owned.extend(got.iter().copied());
        }
        Ok(got)
    }

    /// Returns pages to the allocator (system transaction). The note is
    /// queued, not forced: until it is durable a crash finds the pages
    /// owed by whatever made them free-able — an unfinished
    /// transaction's `AllocNote`, a committed `RetireNote`, a checkpoint
    /// record's retire backlog — and frees them again.
    fn free_pages(&self, pages: &[u32]) -> Result<()> {
        if pages.is_empty() {
            return Ok(());
        }
        let mut meta = self.meta.lock();
        self.log.append(
            WalRecord::FreeNote {
                pages: pages.to_vec(),
            }
            .encode(),
        )?;
        for &pid in pages {
            // A freed page's bytes are dead: nothing left to flush.
            self.pool.forget_committed(PageId(pid));
            let pushed = meta.give(pid);
            debug_assert!(pushed, "page {pid} freed twice, or never allocated");
        }
        Ok(())
    }

    /// Appends `records` and then a checkpoint record to the log, and
    /// forces them. The record is appended under the allocator's lock,
    /// so its place in the log is exactly the state it carries: every
    /// note before it is in that state, every note behind it is not.
    fn log_checkpoint(&self, mut records: Vec<u8>, pending_retire: Vec<u32>) -> Result<()> {
        {
            let meta = self.meta.lock();
            records.extend_from_slice(
                &WalRecord::Checkpoint {
                    pending_retire,
                    total_pages: meta.total_pages,
                    next_txn: self.next_txn.load(Ordering::SeqCst),
                    free: meta.free.clone(),
                }
                .encode(),
            );
            self.log.append(records)?;
        }
        self.log.force(Vec::new())
    }

    /// Log replay, streamed one segment at a time so recovery memory is
    /// O(segment), not O(log). Data images of committed transactions go
    /// to the backend. The allocator starts from the state the *last*
    /// checkpoint record carries (a fresh one when the log is complete
    /// from creation) and takes the `AllocNote`s and `FreeNote`s behind
    /// that record; then it is given every page still owed, from
    /// anywhere in the log: allocations of transactions that never
    /// finished, retire notes of committed ones, retire backlogs of
    /// checkpoint records. A later `AllocNote` for an owed page proves
    /// the page was freed and handed out again — the debt was paid —
    /// and cancels it, in log order.
    ///
    /// Recovery then ends the way a checkpoint does: with the backend
    /// synced, it logs what the online abort path would have — a
    /// `FreeNote` of the pages it gave back, an `Abort` per loser — and
    /// a checkpoint record, so a tail of this append torn anywhere
    /// replays to the same state. The log is never emptied: there is no
    /// instant at which the allocator's state is on neither disk. For
    /// the same reason transaction ids continue across restarts.
    ///
    /// A torn tail — an undecodable suffix — is a legal crash artefact
    /// only in the youngest segment; older segments were sealed by a
    /// roll and must decode cleanly, so an unclean tail there is real
    /// corruption and recovery refuses to guess past it.
    fn recover(&self) -> Result<()> {
        let wal = self.log.store();
        let segs = wal.segments()?;
        // Pass 1: transaction statuses, the last checkpoint record, the
        // largest transaction id, and the sealed-segment cleanliness
        // check. Page images are decoded again in pass 2 and dropped
        // segment by segment.
        let mut finished: HashSet<TxnId> = HashSet::new();
        let mut committed: HashSet<TxnId> = HashSet::new();
        let mut last_checkpoint = None;
        let mut next_txn = 1u64;
        let mut torn_at = None;
        let mut blank = true;
        for (i, &seg) in segs.iter().enumerate() {
            let bytes = wal.read_segment(seg)?;
            blank &= bytes.is_empty();
            let (records, clean) = WalRecord::decode_segment(&bytes);
            if clean < bytes.len() {
                if i + 1 != segs.len() {
                    return Err(SbError::Corrupt(format!(
                        "wal segment {seg} is sealed but does not decode cleanly"
                    )));
                }
                torn_at = Some(clean as u64);
            }
            for (j, r) in records.iter().enumerate() {
                match r {
                    WalRecord::Commit { txn } => {
                        committed.insert(*txn);
                        finished.insert(*txn);
                    }
                    WalRecord::Abort { txn } => {
                        finished.insert(*txn);
                    }
                    WalRecord::Checkpoint { .. } => last_checkpoint = Some((i, j)),
                    _ => {}
                }
                if let Some(txn) = r.txn() {
                    next_txn = next_txn.max(txn.0 + 1);
                }
            }
        }
        if blank {
            return Ok(()); // a new space: nothing logged yet
        }
        // Pass 2.
        let mut state = MetaState::fresh();
        let mut behind = last_checkpoint.is_none();
        let mut owed: BTreeSet<u32> = BTreeSet::new();
        let mut losers: BTreeSet<TxnId> = BTreeSet::new();
        for (i, &seg) in segs.iter().enumerate() {
            let bytes = wal.read_segment(seg)?;
            let (records, _) = WalRecord::decode_segment(&bytes);
            for (j, r) in records.into_iter().enumerate() {
                match r {
                    WalRecord::PageImage { txn, pid, data } if committed.contains(&txn) => {
                        self.pool.recovery_write(PageId(pid), &data)?;
                    }
                    WalRecord::AllocNote { txn, pages } => {
                        for p in &pages {
                            owed.remove(p);
                            if behind {
                                state.claim(*p);
                            }
                        }
                        if !finished.contains(&txn) {
                            owed.extend(pages);
                            losers.insert(txn);
                        }
                    }
                    WalRecord::FreeNote { pages } if behind => {
                        for p in pages {
                            state.give(p);
                        }
                    }
                    WalRecord::RetireNote { txn, pages } if committed.contains(&txn) => {
                        owed.extend(pages);
                    }
                    WalRecord::Checkpoint {
                        pending_retire,
                        total_pages,
                        next_txn: next,
                        free,
                    } => {
                        // Retired pages still pinned by snapshots when
                        // the checkpoint ran: a crash ended those
                        // snapshots.
                        owed.extend(pending_retire);
                        if last_checkpoint == Some((i, j)) {
                            state = MetaState::restore(total_pages, free);
                            next_txn = next_txn.max(next);
                            behind = true;
                        }
                    }
                    _ => {}
                }
            }
        }
        let given: Vec<u32> = owed.into_iter().filter(|&p| state.give(p)).collect();
        self.pool.sync_backend()?;
        if let Some(len) = torn_at {
            wal.trim(len)?;
        }
        let mut tail = Vec::new();
        if !given.is_empty() {
            tail.extend_from_slice(&WalRecord::FreeNote { pages: given }.encode());
        }
        for txn in losers {
            tail.extend_from_slice(&WalRecord::Abort { txn }.encode());
        }
        *self.meta.lock() = state;
        self.next_txn.store(next_txn, Ordering::SeqCst);
        self.log_checkpoint(tail, Vec::new())?;
        // Everything older is in the backend or in that record.
        wal.recycle_below(wal.active_segment())?;
        self.pool.invalidate();
        Ok(())
    }

    fn run_callbacks(&self, txn: TxnId, end: TxnEnd) {
        // Clone nothing: callbacks are invoked under no internal locks.
        let cbs = self.callbacks.lock();
        for cb in cbs.iter() {
            cb(txn, end);
        }
    }

    /// Removes `txn` from the active map while anchoring the checkpoint
    /// low-water mark: between leaving `txns` and finishing its end
    /// protocol the transaction is invisible to the checkpointer's
    /// active scan, yet its log records (redo images and commit record,
    /// or allocation notes awaiting compensation) must not be recycled.
    /// Callers MUST remove the `committing` entry on every exit path.
    fn take_txn_anchored(&self, txn: TxnId) -> Result<TxnState> {
        let mut txns = self.txns.lock();
        let start_seg = txns
            .get(&txn.0)
            .map(|st| st.start_seg)
            .ok_or(SbError::TxnEnded)?;
        self.committing.lock().insert(txn.0, start_seg);
        Ok(txns.remove(&txn.0).expect("present under lock"))
    }

    pub(crate) fn commit_txn(&self, txn: TxnId) -> Result<()> {
        let mut state = self.take_txn_anchored(txn)?;
        // 0. Resolve deferred LO drops into their page sets now, under
        //    the exclusive locks this transaction still holds. The
        //    whole set — inode, indirect chain, data pages — is retired
        //    rather than freed: an open snapshot may still be reading
        //    the data pages. A failure here aborts cleanly.
        let mut all_retired = std::mem::take(&mut state.retired);
        let mut drop_failed = None;
        for lo in &state.pending_drops {
            match self.load_inode(LoId(*lo)) {
                Ok(inode) => all_retired.extend(inode.all_pages(LoId(*lo))),
                Err(e) => {
                    drop_failed = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = drop_failed {
            self.pool.discard_txn(txn);
            self.committing.lock().remove(&txn.0);
            self.lm.release_all(txn);
            IoStats::bump(&self.stats.txn_aborts);
            self.run_callbacks(txn, TxnEnd::Abort);
            return Err(e);
        }
        // 1. Log redo images of every page this transaction dirtied,
        //    a retire note for the pages it superseded, then the commit
        //    record, as one batch, and force the log — the only force
        //    of the transaction: its allocation
        //    notes were queued as they happened and ride this one. A
        //    read-only transaction (no dirty pages, no logged
        //    allocations, nothing retired) has nothing to redo or
        //    compensate and skips the WAL entirely. Held 2PL locks
        //    serialise conflicting transactions, so queue order is a
        //    valid history.
        let dirty = self.pool.dirty_of(txn);
        let read_only = dirty.is_empty() && state.alloc_pages.is_empty() && all_retired.is_empty();
        let logged = if read_only {
            Ok(())
        } else {
            let mut batch = Vec::new();
            for (pid, data) in &dirty {
                batch.extend_from_slice(
                    &WalRecord::PageImage {
                        txn,
                        pid: pid.0,
                        data: crate::page::page_from_slice(&data[..]),
                    }
                    .encode(),
                );
            }
            if !all_retired.is_empty() {
                batch.extend_from_slice(
                    &WalRecord::RetireNote {
                        txn,
                        pages: all_retired.clone(),
                    }
                    .encode(),
                );
            }
            batch.extend_from_slice(&WalRecord::Commit { txn }.encode());
            self.log.force(batch)
        };
        if let Err(e) = logged {
            // The commit record never became durable, so this is an
            // abort: shed the dirty frames and the locks rather than
            // leaking them (the allocated pages are reclaimed by the
            // next recovery, as for any unfinished transaction).
            self.pool.discard_txn(txn);
            self.committing.lock().remove(&txn.0);
            self.lm.release_all(txn);
            IoStats::bump(&self.stats.txn_aborts);
            self.run_callbacks(txn, TxnEnd::Abort);
            return Err(e);
        }
        // The commit record is durable — past the commit point. From
        // here every path must still publish, release locks, and fire
        // callbacks: a failure below is reported but cannot un-commit
        // the transaction, and leaked locks would wedge every later
        // transaction touching the same objects.
        IoStats::bump(&self.stats.txn_commits);
        // 2. The data pages are not written: the frames are relabelled
        //    committed-dirty and the checkpointer (or eviction pressure)
        //    writes them later — the durable redo images above repair
        //    any crash from here. No backend I/O, nothing to fail.
        if !read_only {
            self.pool.mark_committed(txn);
        }
        // 3. Publish the new page tables atomically (one map swap =
        //    one consistent cut for future snapshots) and queue the
        //    retired pages behind the epoch gate. Pages shared between
        //    the old and new table versions are never in the retired
        //    set, so superseding a published entry frees nothing by
        //    itself.
        // Excluded from any in-flight checkpoint's capture window: once
        // a checkpoint has copied the retired queue into its record, no
        // batch from that copy may reach the free list (and be handed
        // out again) before the record is durable.
        let _retire = self.retire_guard.lock();
        let to_reclaim = {
            let mut published = self.published.lock();
            if !state.pending_publish.is_empty() || !state.pending_drops.is_empty() {
                let mut tables = (*published.tables).clone();
                for (lo, table) in state.pending_publish.drain() {
                    match table {
                        Some(t) => {
                            if tables.get(&lo).is_some_and(|prev| **prev == t) {
                                continue; // unchanged (e.g. an idle exclusive open)
                            }
                            if tables.insert(lo, Arc::new(t)).is_some() {
                                self.page_tables_retired.inc();
                            }
                        }
                        None => {
                            if tables.remove(&lo).is_some() {
                                self.page_tables_retired.inc();
                            }
                        }
                    }
                }
                for lo in &state.pending_drops {
                    if tables.remove(lo).is_some() {
                        self.page_tables_retired.inc();
                    }
                }
                published.tables = Arc::new(tables);
            }
            if !all_retired.is_empty() {
                let tag = published.epoch;
                published.epoch += 1;
                published.retired.push_back((tag, all_retired));
            }
            Self::reclaimable(&mut published)
        };
        // Frames are marked and the retired batch is queued (a
        // checkpoint from here carries it in its record), so the
        // low-water anchor can drop.
        self.committing.lock().remove(&txn.0);
        let reclaim_result = self.free_pages(&to_reclaim);
        // Released before callbacks run: a callback may drop a snapshot,
        // whose destructor takes the guard itself.
        drop(_retire);
        // 4. Release locks and notify.
        self.lm.release_all(txn);
        self.run_callbacks(txn, TxnEnd::Commit);
        reclaim_result
    }

    pub(crate) fn abort_txn(&self, txn: TxnId) -> Result<()> {
        // Anchored like a commit: until the abort record (or at least
        // the compensating free note) is logged, recycling the segment
        // holding this transaction's allocation notes would leak its
        // pages if we then crash.
        let state = self.take_txn_anchored(txn)?;
        // Counted up front: a failure while compensating below still
        // ends the transaction as an abort.
        IoStats::bump(&self.stats.txn_aborts);
        // 1. Drop uncommitted frames (no-steal: the backend is clean).
        self.pool.discard_txn(txn);
        // 2./3. Compensate allocations (the pages go back to the
        //    allocator) and record the abort so recovery does not
        //    re-compensate. Shadow paging allocates a fresh page for
        //    every copy-on-write redirect, so any aborted writer has
        //    pages to give back — and logging that can fail on a
        //    faulty log. The locks are released either way:
        //    a compensation failure leaks at most free pages (repaired
        //    by the next recovery), while a leaked lock wedges every
        //    later transaction on the same objects.
        let compensated = self
            .free_pages(&state.alloc_pages)
            .and_then(|()| self.log.force(WalRecord::Abort { txn }.encode()));
        self.committing.lock().remove(&txn.0);
        // 4. Release locks and notify.
        self.lm.release_all(txn);
        self.run_callbacks(txn, TxnEnd::Abort);
        compensated
    }

    /// One fuzzy checkpoint. The ordering is the crash-safety argument:
    ///
    /// 1. capture the low-water mark — the oldest segment any live
    ///    (active or mid-end) transaction may still need. Transactions
    ///    that begin or commit during the walk either anchored the mark
    ///    or append into segments at or above it, which survive;
    /// 2. flush committed-dirty frames shard by shard (writers on other
    ///    shards proceed — the fuzzy part) and sync the backend. Every
    ///    redo image below the mark is now redundant;
    /// 3. append a checkpoint record carrying the allocator's state and
    ///    the retire backlog still pinned by open snapshots, and make it
    ///    durable. Only *after* that record is on disk
    /// 4. recycle the segments below the mark, then sweep retired
    ///    batches whose snapshots have drained.
    ///
    /// A failure at any step returns before the later steps run, so a
    /// failed checkpoint never truncates or recycles anything: the
    /// previous checkpoint stays authoritative and the next attempt
    /// retries the whole sequence.
    fn checkpoint_once(&self) -> Result<()> {
        let lwm = {
            let txns = self.txns.lock();
            let committing = self.committing.lock();
            txns.values()
                .map(|st| st.start_seg)
                .chain(committing.values().copied())
                .min()
                .unwrap_or_else(|| self.log.store().active_segment())
        };
        self.pool.flush_committed()?;
        self.pool.sync_backend()?;
        // From here to the end of the sweep: no snapshot drop or commit
        // may pop-and-free a retired batch. The record below claims the
        // batches captured here, and a claim is only crash-safe if any
        // later reallocation of those pages logs its `AllocNote` *after*
        // the record (see `retire_guard`).
        let _capture = self.retire_guard.lock();
        // The segments holding the original retire notes may be
        // recycled below; a crash ends every snapshot, so recovery
        // frees these exactly like committed retire notes.
        let pending_retire: Vec<u32> = {
            let published = self.published.lock();
            published
                .retired
                .iter()
                .flat_map(|(_, pages)| pages.iter().copied())
                .collect()
        };
        self.log_checkpoint(Vec::new(), pending_retire)?;
        let recycled = self.log.store().recycle_below(lwm)?;
        self.segments_recycled.add(recycled as u64);
        // Sweep drained retire batches online — previously they were
        // only freed when a snapshot dropped or a commit ran, so a
        // batch whose last snapshot died without reclaiming (e.g. a
        // failed destructor-side free) stayed stranded until reboot.
        let to_reclaim = {
            let mut published = self.published.lock();
            Self::reclaimable(&mut published)
        };
        self.free_pages(&to_reclaim)?;
        self.wal_live_bytes.set(self.log.store().live_bytes()?);
        Ok(())
    }

    /// Runs one checkpoint, keeping score: success bumps
    /// `sbspace.checkpoints`, failure bumps `sbspace.checkpoint_failures`
    /// and — by the ordering inside [`SpaceInner::checkpoint_once`] —
    /// leaves the previous checkpoint authoritative.
    pub(crate) fn run_checkpoint(&self) -> Result<()> {
        let result = self.checkpoint_once();
        match &result {
            Ok(()) => self.checkpoints.inc(),
            Err(_) => self.checkpoint_failures.inc(),
        }
        result
    }
}

impl Drop for SpaceInner {
    fn drop(&mut self) {
        *self.ckpt_stop.0.lock() = true;
        self.ckpt_stop.1.notify_all();
        if let Some(handle) = self.ckpt_thread.get_mut().take() {
            // The checkpointer's own weak upgrade can briefly make it
            // the last owner, in which case this drop runs *on* that
            // thread — and a thread cannot join itself. It exits on its
            // next loop iteration instead.
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

impl Txn {
    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The transaction's isolation level.
    pub fn isolation(&self) -> IsolationLevel {
        self.inner
            .txns
            .lock()
            .get(&self.id.0)
            .map(|s| s.iso)
            .unwrap_or_default()
    }

    fn check_live(&self) -> Result<()> {
        if self.done.load(Ordering::SeqCst) {
            return Err(SbError::TxnEnded);
        }
        Ok(())
    }

    /// Commits: redo images to the log, force, apply deferred drops,
    /// release locks, fire callbacks.
    pub fn commit(self) -> Result<()> {
        self.check_live()?;
        self.done.store(true, Ordering::SeqCst);
        self.inner.commit_txn(self.id)
    }

    /// Aborts: uncommitted writes vanish, allocations are compensated.
    pub fn abort(self) -> Result<()> {
        self.check_live()?;
        self.done.store(true, Ordering::SeqCst);
        self.inner.abort_txn(self.id)
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.done.swap(true, Ordering::SeqCst) {
            let _ = self.inner.abort_txn(self.id);
        }
    }
}

impl LoHandle {
    /// The object's id.
    pub fn id(&self) -> LoId {
        self.lo
    }

    /// Number of data pages.
    pub fn page_count(&self) -> u32 {
        self.inode.data_pages.len() as u32
    }

    /// Byte size of the object.
    pub fn len(&self) -> u64 {
        self.inode.size
    }

    /// True when the object holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.inode.size == 0
    }

    /// True when the handle was opened for writing.
    pub fn is_writable(&self) -> bool {
        self.mode == LockMode::Exclusive
    }

    fn check_writable(&self) -> Result<()> {
        if self.mode != LockMode::Exclusive {
            return Err(SbError::Usage(format!("{} opened read-only", self.lo)));
        }
        Ok(())
    }

    fn phys(&self, logical: u32) -> Result<u32> {
        self.inode
            .data_pages
            .get(logical as usize)
            .copied()
            .ok_or_else(|| SbError::NotFound(format!("{}: page {logical}", self.lo)))
    }

    /// Shadow paging: returns a physical page this transaction may
    /// overwrite. A page the transaction allocated itself is written in
    /// place; a committed page is superseded instead — a fresh page
    /// takes its page-table slot and the old one is retired, freed at
    /// commit once no snapshot can still be reading it. Callers always
    /// supply the full page image, so the old contents are never copied
    /// forward here.
    fn redirect(&mut self, logical: u32) -> Result<u32> {
        let pid = self.phys(logical)?;
        if self
            .inner
            .txns
            .lock()
            .get(&self.txn.0)
            .is_some_and(|st| st.owned.contains(&pid))
        {
            return Ok(pid);
        }
        let fresh = self.inner.alloc_pages(self.txn, 1)?[0];
        self.inode.data_pages[logical as usize] = fresh;
        self.inode_dirty = true;
        self.retire(vec![pid]);
        Ok(fresh)
    }

    /// Queues committed pages this transaction superseded for the
    /// epoch-gated free at commit (forgotten on abort — the committed
    /// versions remain live).
    fn retire(&self, pages: Vec<u32>) {
        if pages.is_empty() {
            return;
        }
        if let Some(st) = self.inner.txns.lock().get_mut(&self.txn.0) {
            st.retired.extend(pages);
        }
    }

    /// Reads logical page `logical` of the object into a fresh buffer.
    /// Prefer [`LoHandle::read_page_pinned`] on hot paths — it avoids
    /// the page copy.
    pub fn read_page(&self, logical: u32) -> Result<PageBuf> {
        let pid = self.phys(logical)?;
        let mut buf = crate::page::zeroed_page();
        self.inner.pool.read(PageId(pid), &mut buf)?;
        Ok(buf)
    }

    /// Pins logical page `logical` and returns a zero-copy view of its
    /// bytes. The underlying frame stays resident until the guard drops;
    /// concurrent writers see a private copy (copy-on-write), so the
    /// guard is a stable snapshot.
    pub fn read_page_pinned(&self, logical: u32) -> Result<PageGuard> {
        let pid = self.phys(logical)?;
        self.inner.pool.read_pinned(PageId(pid))
    }

    /// Writes logical page `logical` (buffered until commit).
    ///
    /// The page-level API does not touch the byte size — an index that
    /// manages whole pages reports its extent via [`LoHandle::page_count`].
    pub fn write_page(&mut self, logical: u32, data: &[u8; PAGE_SIZE]) -> Result<()> {
        self.check_writable()?;
        let pid = self.redirect(logical)?;
        self.inner.pool.write_txn(self.txn, PageId(pid), data)?;
        Ok(())
    }

    /// Appends a page, returning its logical number.
    pub fn append_page(&mut self, data: &[u8; PAGE_SIZE]) -> Result<u32> {
        self.check_writable()?;
        let pid = self.inner.alloc_pages(self.txn, 1)?[0];
        self.inode.data_pages.push(pid);
        let logical = self.inode.data_pages.len() as u32 - 1;
        self.inode_dirty = true;
        self.inner.pool.write_txn(self.txn, PageId(pid), data)?;
        Ok(logical)
    }

    /// Drops pages from the tail. Their storage is retired, not freed:
    /// reclamation happens after commit, once no snapshot can still
    /// reference them (which also keeps an abort from clobbering the
    /// committed page table — nothing durable moves before the commit
    /// record).
    pub fn truncate_pages(&mut self, keep: u32) -> Result<()> {
        self.check_writable()?;
        if (keep as usize) >= self.inode.data_pages.len() {
            return Ok(());
        }
        let dropped: Vec<u32> = self.inode.data_pages.split_off(keep as usize);
        self.inode.size = self.inode.size.min(keep as u64 * PAGE_SIZE as u64);
        self.inode_dirty = true;
        self.retire(dropped);
        Ok(())
    }

    /// Reads `out.len()` bytes at byte `offset`; short reads past the
    /// end are zero-filled and the valid prefix length is returned.
    pub fn read_at(&self, offset: u64, out: &mut [u8]) -> Result<usize> {
        out.fill(0);
        if offset >= self.inode.size {
            return Ok(0);
        }
        let valid = ((self.inode.size - offset) as usize).min(out.len());
        let mut done = 0usize;
        while done < valid {
            let pos = offset + done as u64;
            let page = (pos / PAGE_SIZE as u64) as u32;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(valid - done);
            let buf = self.read_page(page)?;
            out[done..done + n].copy_from_slice(&buf[in_page..in_page + n]);
            done += n;
        }
        Ok(valid)
    }

    /// Writes `data` at byte `offset`, extending the object as needed.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        self.check_writable()?;
        let end = offset + data.len() as u64;
        let pages_needed = end.div_ceil(PAGE_SIZE as u64) as usize;
        if pages_needed > self.inode.data_pages.len() {
            // One allocation (one note in the log) for the whole extension.
            let grow = pages_needed - self.inode.data_pages.len();
            let zero = crate::page::zeroed_page();
            for pid in self.inner.alloc_pages(self.txn, grow)? {
                self.inode.data_pages.push(pid);
                self.inner.pool.write_txn(self.txn, PageId(pid), &zero)?;
            }
            self.inode_dirty = true;
        }
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let page = (pos / PAGE_SIZE as u64) as u32;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(data.len() - done);
            let mut buf = self.read_page(page)?;
            buf[in_page..in_page + n].copy_from_slice(&data[done..done + n]);
            self.write_page(page, &buf)?;
            done += n;
        }
        if end > self.inode.size {
            self.inode.size = end;
            self.inode_dirty = true;
        }
        Ok(())
    }

    /// Flushes the cached inode (page-table and size changes) into the
    /// transaction's buffered writes.
    pub fn flush(&mut self) -> Result<()> {
        if !self.inode_dirty {
            return Ok(());
        }
        // Size the indirect chain to the page table.
        let needed = Inode::indirect_needed(self.inode.data_pages.len());
        if self.inode.indirect_pids.len() < needed {
            let grow = needed - self.inode.indirect_pids.len();
            let fresh = self.inner.alloc_pages(self.txn, grow)?;
            self.inode.indirect_pids.extend(fresh);
        }
        if self.inode.indirect_pids.len() > needed {
            let extra = self.inode.indirect_pids.split_off(needed);
            self.retire(extra);
        }
        let images = self.inode.encode(self.lo);
        for (pid, data) in images {
            self.inner.pool.write_txn(self.txn, PageId(pid), &data)?;
        }
        self.inode_dirty = false;
        Ok(())
    }

    /// Closes the handle: flushes the inode and, for a shared lock under
    /// `ReadCommitted`, releases the lock early (the paper's LO-close
    /// semantics).
    pub fn close(mut self) -> Result<()> {
        self.do_close()
    }

    fn do_close(&mut self) -> Result<()> {
        if self.closed {
            return Ok(());
        }
        self.closed = true;
        self.flush()?;
        if self.mode == LockMode::Exclusive {
            // Stage the (possibly rewritten) page table for the atomic
            // publish at commit; the latest close of an LO wins. Staged
            // state dies with the transaction on abort.
            if let Some(st) = self.inner.txns.lock().get_mut(&self.txn.0) {
                st.pending_publish.insert(
                    self.lo.0,
                    Some(LoTable {
                        pages: self.inode.data_pages.clone(),
                        size: self.inode.size,
                    }),
                );
            }
        }
        let iso = self
            .inner
            .txns
            .lock()
            .get(&self.txn.0)
            .map(|s| s.iso)
            .unwrap_or_default();
        if self.mode == LockMode::Shared && iso == IsolationLevel::ReadCommitted {
            self.inner.lm.release(self.txn, self.lo.0);
            if let Some(st) = self.inner.txns.lock().get_mut(&self.txn.0) {
                st.locks.remove(&self.lo.0);
            }
        }
        Ok(())
    }
}

impl Drop for LoHandle {
    fn drop(&mut self) {
        let _ = self.do_close();
    }
}

/// A `Send + Sync` read-only view of a large object: the page table is
/// snapshotted at creation and every read goes through the shared
/// buffer pool's pinned path, so any number of threads can traverse the
/// same object concurrently without a lock-manager interaction per
/// read.
///
/// A reader comes from [`SpaceSnapshot::reader`] and is protected by
/// that snapshot's epoch registration — shadow paging means committed
/// pages are never overwritten in place, and the epoch gate keeps them
/// off the free list (keep the snapshot alive while the reader lives).
/// Readers hand out [`PageGuard`]s, which must all be dropped before
/// the owning space shuts down.
pub struct LoReader {
    inner: Arc<SpaceInner>,
    lo: LoId,
    pages: Vec<u32>,
}

impl LoReader {
    /// The object's id.
    pub fn id(&self) -> LoId {
        self.lo
    }

    /// Number of data pages in the snapshot.
    pub fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }

    fn phys(&self, logical: u32) -> Result<u32> {
        self.pages
            .get(logical as usize)
            .copied()
            .ok_or_else(|| SbError::NotFound(format!("{}: page {logical}", self.lo)))
    }

    /// Reads logical page `logical` into a fresh buffer, exactly like
    /// [`LoHandle::read_page`].
    pub fn read_page(&self, logical: u32) -> Result<PageBuf> {
        let pid = self.phys(logical)?;
        let mut buf = crate::page::zeroed_page();
        self.inner.pool.read(PageId(pid), &mut buf)?;
        Ok(buf)
    }

    /// Pins logical page `logical` and returns a zero-copy view of its
    /// bytes, exactly like [`LoHandle::read_page_pinned`].
    pub fn read_page_pinned(&self, logical: u32) -> Result<PageGuard> {
        let pid = self.phys(logical)?;
        self.inner.pool.read_pinned(PageId(pid))
    }
}

/// Page-granular read access shared by the locked and the snapshot
/// paths: code generic over `PageSource` (the heap scanner, the tree
/// cursors) runs identically over a [`LoHandle`] — 2PL, sees the
/// transaction's own writes — and over a [`LoReader`] — lock-free, a
/// frozen committed view.
pub trait PageSource {
    /// Number of data pages visible through this source.
    fn page_count(&self) -> u32;
    /// Reads logical page `logical` into a fresh buffer.
    fn read_page(&self, logical: u32) -> Result<PageBuf>;
    /// Pins logical page `logical` for zero-copy access.
    fn read_page_pinned(&self, logical: u32) -> Result<PageGuard>;
}

impl PageSource for LoHandle {
    fn page_count(&self) -> u32 {
        LoHandle::page_count(self)
    }
    fn read_page(&self, logical: u32) -> Result<PageBuf> {
        LoHandle::read_page(self, logical)
    }
    fn read_page_pinned(&self, logical: u32) -> Result<PageGuard> {
        LoHandle::read_page_pinned(self, logical)
    }
}

impl PageSource for LoReader {
    fn page_count(&self) -> u32 {
        LoReader::page_count(self)
    }
    fn read_page(&self, logical: u32) -> Result<PageBuf> {
        LoReader::read_page(self, logical)
    }
    fn read_page_pinned(&self, logical: u32) -> Result<PageGuard> {
        LoReader::read_page_pinned(self, logical)
    }
}

impl<P: PageSource + ?Sized> PageSource for &P {
    fn page_count(&self) -> u32 {
        (**self).page_count()
    }
    fn read_page(&self, logical: u32) -> Result<PageBuf> {
        (**self).read_page(logical)
    }
    fn read_page_pinned(&self, logical: u32) -> Result<PageGuard> {
        (**self).read_page_pinned(logical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Sbspace {
        Sbspace::mem(SbspaceOptions {
            pool_pages: 64,
            lock_timeout: Duration::from_millis(200),
            ..Default::default()
        })
    }

    #[test]
    fn allocator_hands_out_the_last_freed_page_first() {
        let mut m = MetaState::fresh();
        assert_eq!(m.take(3), vec![1, 2, 3], "fresh pages past the watermark");
        assert!(m.give(1) && m.give(3));
        assert_eq!(m.peek(3), vec![3, 1, 4], "stack top first, then fresh");
        assert_eq!(m.take(3), vec![3, 1, 4]);
        assert_eq!(m, MetaState::restore(5, vec![]));
    }

    #[test]
    fn give_is_idempotent_and_stays_inside_the_watermark() {
        let mut m = MetaState::restore(4, vec![2]);
        assert!(!m.give(2), "already free");
        assert!(!m.give(0), "the header page");
        assert!(!m.give(4), "past the watermark");
        assert!(m.give(3));
        assert_eq!(m, MetaState::restore(4, vec![2, 3]));
    }

    #[test]
    fn replayed_alloc_note_takes_a_page_from_anywhere() {
        let mut m = MetaState::restore(6, vec![5, 2, 4]);
        m.claim(2); // the middle of the stack
        assert_eq!(m, MetaState::restore(6, vec![5, 4]));
        m.claim(6); // the watermark
        m.claim(3); // neither free nor new: nothing to do
        assert_eq!(m, MetaState::restore(7, vec![5, 4]));
        assert_eq!(m.take(3), vec![4, 5, 7]);
    }

    #[test]
    fn create_write_read_roundtrip() {
        let sb = space();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        h.write_at(0, b"hello large object").unwrap();
        h.write_at(10_000, b"far away").unwrap();
        let mut buf = [0u8; 18];
        h.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello large object");
        let mut far = [0u8; 8];
        h.read_at(10_000, &mut far).unwrap();
        assert_eq!(&far, b"far away");
        h.close().unwrap();
        txn.commit().unwrap();

        // Visible to a later transaction.
        let txn2 = sb.begin(IsolationLevel::ReadCommitted);
        let h2 = sb.open_lo(&txn2, lo, LockMode::Shared).unwrap();
        let mut buf2 = [0u8; 18];
        h2.read_at(0, &mut buf2).unwrap();
        assert_eq!(&buf2, b"hello large object");
        assert_eq!(h2.len(), 10_008);
    }

    #[test]
    fn abort_undoes_everything() {
        let sb = space();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        {
            let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
            h.write_at(0, b"doomed").unwrap();
        }
        txn.abort().unwrap();
        // The object does not exist for later transactions.
        let txn2 = sb.begin(IsolationLevel::ReadCommitted);
        assert!(sb.open_lo(&txn2, lo, LockMode::Shared).is_err());
    }

    #[test]
    fn aborted_pages_are_reused() {
        let sb = space();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        txn.abort().unwrap();
        let txn2 = sb.begin(IsolationLevel::ReadCommitted);
        let lo2 = sb.create_lo(&txn2).unwrap();
        // The freed inode page comes straight back off the free list.
        assert_eq!(lo2, lo);
        txn2.commit().unwrap();
    }

    #[test]
    fn drop_lo_deferred_to_commit() {
        let sb = space();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        h.write_at(0, b"bytes").unwrap();
        h.close().unwrap();
        txn.commit().unwrap();

        let t2 = sb.begin(IsolationLevel::ReadCommitted);
        sb.drop_lo(&t2, lo).unwrap();
        t2.abort().unwrap();
        // Abort cancelled the drop.
        let t3 = sb.begin(IsolationLevel::ReadCommitted);
        assert!(sb.open_lo(&t3, lo, LockMode::Shared).is_ok());
        sb.drop_lo(&t3, lo).unwrap();
        t3.commit().unwrap();
        let t4 = sb.begin(IsolationLevel::ReadCommitted);
        assert!(sb.open_lo(&t4, lo, LockMode::Shared).is_err());
    }

    #[test]
    fn page_level_api() {
        let sb = space();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        let p0 = crate::page::page_from_slice(b"node zero");
        let p1 = crate::page::page_from_slice(b"node one");
        assert_eq!(h.append_page(&p0).unwrap(), 0);
        assert_eq!(h.append_page(&p1).unwrap(), 1);
        assert_eq!(&h.read_page(1).unwrap()[..8], b"node one");
        let p1b = crate::page::page_from_slice(b"NODE ONE");
        h.write_page(1, &p1b).unwrap();
        assert_eq!(&h.read_page(1).unwrap()[..8], b"NODE ONE");
        assert!(h.read_page(2).is_err());
        h.truncate_pages(1).unwrap();
        assert_eq!(h.page_count(), 1);
        assert!(h.read_page(1).is_err());
        h.close().unwrap();
        txn.commit().unwrap();
        sb.checkpoint().unwrap();
    }

    #[test]
    fn writes_need_exclusive_handle() {
        let sb = space();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        {
            let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
            h.write_at(0, b"x").unwrap();
        }
        txn.commit().unwrap();
        let t2 = sb.begin(IsolationLevel::ReadCommitted);
        let mut h = sb.open_lo(&t2, lo, LockMode::Shared).unwrap();
        assert!(matches!(h.write_at(0, b"y"), Err(SbError::Usage(_))));
    }

    #[test]
    fn lo_level_locking_blocks_writers() {
        let sb = space();
        let setup = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&setup).unwrap();
        setup.commit().unwrap();

        let reader = sb.begin(IsolationLevel::RepeatableRead);
        let _h = sb.open_lo(&reader, lo, LockMode::Shared).unwrap();
        let writer = sb.begin(IsolationLevel::ReadCommitted);
        // Under repeatable read the shared lock is held even though we
        // could close the handle — so the writer times out.
        let err = match sb.open_lo(&writer, lo, LockMode::Exclusive) {
            Err(e) => e,
            Ok(_) => panic!("writer should have blocked"),
        };
        assert!(matches!(err, SbError::LockTimeout(_)), "{err}");
    }

    #[test]
    fn read_committed_releases_shared_lock_on_close() {
        let sb = space();
        let setup = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&setup).unwrap();
        setup.commit().unwrap();

        let reader = sb.begin(IsolationLevel::ReadCommitted);
        let h = sb.open_lo(&reader, lo, LockMode::Shared).unwrap();
        h.close().unwrap();
        let writer = sb.begin(IsolationLevel::ReadCommitted);
        assert!(sb.open_lo(&writer, lo, LockMode::Exclusive).is_ok());
    }

    #[test]
    fn txn_end_callbacks_fire() {
        let sb = space();
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        sb.on_txn_end(move |id, end| log2.lock().push((id, end)));
        let t1 = sb.begin(IsolationLevel::ReadCommitted);
        let id1 = t1.id();
        t1.commit().unwrap();
        let t2 = sb.begin(IsolationLevel::ReadCommitted);
        let id2 = t2.id();
        drop(t2); // implicit abort
        let got = log.lock().clone();
        assert_eq!(got, vec![(id1, TxnEnd::Commit), (id2, TxnEnd::Abort)]);
    }

    #[test]
    fn large_object_spanning_indirect_pages() {
        let sb = Sbspace::mem(SbspaceOptions {
            pool_pages: 4096,
            lock_timeout: Duration::from_millis(200),
            ..Default::default()
        });
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        let n = (crate::lo::DIRECT_CAP + 40) as u32;
        for i in 0..n {
            let page = crate::page::page_from_slice(&i.to_le_bytes());
            h.append_page(&page).unwrap();
        }
        h.close().unwrap();
        txn.commit().unwrap();

        let t2 = sb.begin(IsolationLevel::ReadCommitted);
        let h2 = sb.open_lo(&t2, lo, LockMode::Shared).unwrap();
        assert_eq!(h2.page_count(), n);
        for i in (0..n).step_by(97) {
            let page = h2.read_page(i).unwrap();
            assert_eq!(&page[..4], &i.to_le_bytes());
        }
        sb.verify_lo(&t2, lo).unwrap();
    }

    #[test]
    fn snapshot_sees_pre_write_state_and_reclaims_on_drop() {
        let sb = space();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        h.write_at(0, b"version one").unwrap();
        h.close().unwrap();
        txn.commit().unwrap();

        let snap = sb.snapshot_for(&[lo]).unwrap();
        assert_eq!(sb.snapshots_open(), 1);
        let reader = snap.reader(lo).unwrap();
        assert_eq!(&reader.read_page(0).unwrap()[..11], b"version one");

        // A writer overwrites and commits; the snapshot never blocks it.
        let w = sb.begin(IsolationLevel::ReadCommitted);
        let mut hw = sb.open_lo(&w, lo, LockMode::Exclusive).unwrap();
        hw.write_at(0, b"version two").unwrap();
        hw.close().unwrap();
        w.commit().unwrap();

        // The snapshot still reads the superseded page...
        assert_eq!(&reader.read_page(0).unwrap()[..11], b"version one");
        // ...while a fresh snapshot sees the committed overwrite.
        let snap2 = sb.snapshot_for(&[lo]).unwrap();
        let r2 = snap2.reader(lo).unwrap();
        assert_eq!(&r2.read_page(0).unwrap()[..11], b"version two");
        drop(r2);
        drop(snap2);

        let free_before = sb.space_info().unwrap().free_pages;
        drop(reader);
        drop(snap);
        assert_eq!(sb.snapshots_open(), 0);
        // Dropping the last snapshot of the old epoch frees the retired
        // page.
        assert!(sb.space_info().unwrap().free_pages > free_before);
    }

    #[test]
    fn snapshot_taken_while_writer_holds_exclusive_lock() {
        let sb = space();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        h.write_at(0, b"committed").unwrap();
        h.close().unwrap();
        txn.commit().unwrap();

        let w = sb.begin(IsolationLevel::ReadCommitted);
        let mut hw = sb.open_lo(&w, lo, LockMode::Exclusive).unwrap();
        hw.write_at(0, b"uncommitt").unwrap();
        // With the writer's exclusive lock still held, the snapshot
        // completes immediately (no LO-level lock on this path — a
        // blocked acquire would trip the 200ms lock timeout) and sees
        // only committed state.
        let snap = sb.snapshot_for(&[lo]).unwrap();
        let r = snap.reader(lo).unwrap();
        assert_eq!(&r.read_page(0).unwrap()[..9], b"committed");
        drop(r);
        drop(snap);
        hw.close().unwrap();
        w.abort().unwrap();
        // The abort freed only the copied-out pages; committed data is
        // intact.
        let t = sb.begin(IsolationLevel::ReadCommitted);
        let hr = sb.open_lo(&t, lo, LockMode::Shared).unwrap();
        let mut buf = [0u8; 9];
        hr.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"committed");
    }

    #[test]
    fn truncated_pages_stay_readable_under_snapshot() {
        let sb = space();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        for i in 0..3u8 {
            h.append_page(&crate::page::page_from_slice(&[b'a' + i; 8]))
                .unwrap();
        }
        h.close().unwrap();
        txn.commit().unwrap();

        let snap = sb.snapshot_for(&[lo]).unwrap();
        let w = sb.begin(IsolationLevel::ReadCommitted);
        let mut hw = sb.open_lo(&w, lo, LockMode::Exclusive).unwrap();
        hw.truncate_pages(1).unwrap();
        hw.close().unwrap();
        w.commit().unwrap();

        // The snapshot still spans all three pages; the current view is
        // truncated.
        let reader = snap.reader(lo).unwrap();
        assert_eq!(reader.page_count(), 3);
        assert_eq!(&reader.read_page(2).unwrap()[..8], &[b'c'; 8]);
        let t = sb.begin(IsolationLevel::ReadCommitted);
        let hr = sb.open_lo(&t, lo, LockMode::Shared).unwrap();
        assert_eq!(hr.page_count(), 1);
    }
}
