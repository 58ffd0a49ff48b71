//! The buffer pool: sharded page caching with clock eviction, pinned
//! zero-copy reads, and no-steal transactional dirtying.
//!
//! The pool is split into `N` lock-striped shards, keyed by
//! `page_id % N`, so readers and writers touching different pages
//! contend only when their pages hash to the same shard. Each shard
//! runs a clock (second-chance) eviction policy: frames carry a
//! reference bit that a sweep clears before a frame becomes a victim,
//! replacing the previous O(n) LRU scan with an amortised O(1) hand
//! advance.
//!
//! Physical reads never happen under a shard lock. A miss registers the
//! page in the shard's in-flight table, drops the lock, reads from the
//! backend, and re-locks to install the frame — so a slow cold read of
//! page A cannot delay a hit on page B in the same shard, and
//! concurrent faulters of the *same* page wait on the first faulter's
//! read instead of duplicating it ([`IoStats::inflight_waits`]). A
//! failed read clears the in-flight entry and surfaces the error to its
//! caller only; waiters retry and fault for themselves, so each caller
//! sees its own error exactly once and the pool is never poisoned.
//!
//! Frames dirtied by a transaction stay in the pool until that
//! transaction commits (they are relabelled committed-dirty: the log
//! carries durability, the data write is deferred) or aborts (frames
//! discarded) — the no-steal policy that makes the redo-only WAL sound.
//! Dirty and pinned frames are never evicted; when a full clock sweep
//! finds no victim the shard temporarily exceeds its capacity (counted
//! in [`IoStats::dirty_overflows`]) rather than stealing.
//!
//! Three things write a page to the backend while the space is open:
//! the checkpoint flush ([`BufferPool::flush_committed`], one pid-sorted
//! [`Backend::write_pages`] batch so contiguous runs coalesce —
//! [`IoStats::write_runs`], [`IoStats::coalesced_writes`]),
//! write-on-evict, and [`BufferPool::write_txn`]'s write of committed
//! bytes it is about to overwrite in place. The last two run under the
//! page's shard lock; the flush runs under none, so it marks the frames
//! it collected `flushing`. **The flush invariant:** no write of a
//! page's bytes lands on the backend after a write of newer committed
//! bytes of the same page — a `flushing` frame is not evicted and not
//! handed to a transaction until the flusher's write has landed, so
//! while the mark is set the flusher is the page's only writer, and
//! whatever newer committed bytes the frame received meanwhile are
//! still committed-dirty afterwards and written later.
//!
//! Page data lives behind `Arc<[u8; PAGE_SIZE]>`. [`BufferPool::read_pinned`]
//! clones that `Arc` into a [`PageGuard`] — no page copy — and pins the
//! frame against eviction until the guard drops. Writes go through
//! `Arc::make_mut`, so a write to a pinned page leaves the guard's
//! snapshot intact (copy-on-write) instead of mutating under a reader.

use crate::backend::Backend;
use crate::page::{PageId, PAGE_SIZE};
use crate::stats::IoStats;
use crate::txn::TxnId;
use crate::Result;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, immutable-unless-sole-owner page bytes.
type PageArc = Arc<[u8; PAGE_SIZE]>;

struct Frame {
    data: PageArc,
    /// `Some(txn)` when the frame holds uncommitted writes of `txn`.
    dirty_owner: Option<TxnId>,
    /// The frame holds committed bytes newer than the backend's copy:
    /// their redo image is durable in the WAL and the data write is
    /// deferred to the checkpointer — or to eviction, which may
    /// write-then-drop such a frame without a sync. Mutually exclusive
    /// with `dirty_owner`.
    committed_dirty: bool,
    /// A [`BufferPool::flush_committed`] collected this frame and its
    /// backend write may not have landed. Eviction skips the frame like
    /// a pin and [`BufferPool::write_txn`] waits the flush out, so a
    /// marked frame is never removed and never transaction-dirty.
    flushing: bool,
    /// Clock reference bit: set on access, cleared by the sweep.
    referenced: bool,
    /// Outstanding [`PageGuard`]s on this frame (shared with them so a
    /// guard can unpin without re-locking the shard).
    pins: Arc<AtomicU64>,
}

impl Frame {
    /// A clean, unreferenced frame holding `data`.
    fn clean(data: PageArc) -> Frame {
        Frame {
            data,
            dirty_owner: None,
            committed_dirty: false,
            flushing: false,
            // Clear on insertion: the bit means "hit since faulted in",
            // so one-touch pages lose to re-referenced ones.
            referenced: false,
            pins: Arc::new(AtomicU64::new(0)),
        }
    }
}

/// One in-progress physical read, shared between the faulter and any
/// thread that missed on the same page while the read was in flight.
struct Inflight {
    state: Mutex<InflightSlot>,
    cv: Condvar,
}

enum InflightSlot {
    Pending,
    /// `Some(bytes)` — read succeeded; copying waiters may use the
    /// bytes directly even if the frame was already evicted.
    /// `None` — read failed or was invalidated; waiters re-fault so
    /// each caller surfaces its own error exactly once.
    Done(Option<PageArc>),
}

impl Inflight {
    fn new() -> Inflight {
        Inflight {
            state: Mutex::new(InflightSlot::Pending),
            cv: Condvar::new(),
        }
    }

    /// Publishes the outcome and wakes every waiter.
    fn finish(&self, data: Option<PageArc>) {
        *self.state.lock() = InflightSlot::Done(data);
        self.cv.notify_all();
    }

    /// Blocks until the faulter publishes, then returns its outcome.
    fn wait(&self) -> Option<PageArc> {
        let mut st = self.state.lock();
        while matches!(*st, InflightSlot::Pending) {
            self.cv.wait(&mut st);
        }
        match &*st {
            InflightSlot::Done(d) => d.clone(),
            InflightSlot::Pending => unreachable!("loop exits only on Done"),
        }
    }
}

struct Shard {
    frames: HashMap<u32, Frame>,
    /// Clock ring of resident page ids; `hand` is the sweep position.
    clock: Vec<u32>,
    hand: usize,
    /// Pages whose physical read is in progress with the lock dropped.
    inflight: HashMap<u32, Arc<Inflight>>,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            frames: HashMap::new(),
            clock: Vec::new(),
            hand: 0,
            inflight: HashMap::new(),
        }
    }

    /// Drops every frame `keep` rejects and rebuilds the clock ring
    /// around the survivors.
    fn retain(&mut self, keep: impl Fn(&Frame) -> bool) {
        self.frames.retain(|_, f| keep(f));
        let frames = &self.frames;
        self.clock.retain(|pid| frames.contains_key(pid));
        self.hand = 0;
    }
}

/// A pinned, zero-copy view of one page.
///
/// Holding a guard keeps its frame in the pool (eviction skips pinned
/// frames) and keeps this snapshot of the bytes alive even if a writer
/// later replaces the frame's contents (copy-on-write). The pool
/// asserts on drop that no guard outlives it.
pub struct PageGuard {
    data: PageArc,
    frame_pins: Arc<AtomicU64>,
    /// The owning shard's pin total — striped so guards on different
    /// shards never contend on one pool-wide counter.
    shard_pins: Arc<AtomicU64>,
}

impl Deref for PageGuard {
    type Target = [u8; PAGE_SIZE];
    fn deref(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.frame_pins.fetch_sub(1, Ordering::Release);
        self.shard_pins.fetch_sub(1, Ordering::Release);
    }
}

/// What [`BufferPool::acquire`] produced for the caller.
enum Acquired {
    Copy(PageArc),
    Pinned(PageGuard),
}

/// Counts maximal contiguous ascending runs in a sorted id list — the
/// number of backend calls a coalescing backend needs for the batch.
fn run_count(pids: &[u32]) -> usize {
    let mut runs = 0;
    let mut i = 0;
    while i < pids.len() {
        runs += 1;
        let mut j = i + 1;
        while j < pids.len() && pids[j] == pids[j - 1].wrapping_add(1) {
            j += 1;
        }
        i = j;
    }
    runs
}

/// The sharded buffer pool. Internally synchronised: all methods take
/// `&self` and lock only the shard(s) they touch.
pub struct BufferPool {
    backend: Box<dyn Backend>,
    shards: Vec<Mutex<Shard>>,
    /// Per-shard frame budget.
    shard_capacity: usize,
    stats: Arc<IoStats>,
    /// Per-shard counts of live [`PageGuard`]s (striped to keep guard
    /// pin/unpin off a shared cache line).
    shard_pins: Vec<Arc<AtomicU64>>,
    /// Bumped by [`BufferPool::invalidate`]. An unlocked fault snapshots
    /// this before reading and discards its bytes if the epoch moved —
    /// otherwise a read racing recovery replay could install pages that
    /// predate the out-of-band backend change.
    invalidations: AtomicU64,
    /// Held across [`BufferPool::flush_committed`]: one flusher at a
    /// time owns the `flushing` marks, and taking it is how a writer
    /// waits a flush out. Lock order: before any shard lock.
    flush_lock: Mutex<()>,
}

impl BufferPool {
    fn shard_idx(&self, pid: PageId) -> usize {
        pid.0 as usize % self.shards.len()
    }

    /// Pool-wide count of outstanding page pins (test hook).
    pub fn outstanding_pins(&self) -> u64 {
        self.shard_pins
            .iter()
            .map(|p| p.load(Ordering::Acquire))
            .sum()
    }

    /// Pins `f` and builds its guard (caller holds shard `idx`'s lock).
    fn pin_frame(&self, idx: usize, f: &Frame) -> PageGuard {
        f.pins.fetch_add(1, Ordering::AcqRel);
        self.shard_pins[idx].fetch_add(1, Ordering::AcqRel);
        PageGuard {
            data: Arc::clone(&f.data),
            frame_pins: Arc::clone(&f.pins),
            shard_pins: Arc::clone(&self.shard_pins[idx]),
        }
    }

    /// The one physical read of the fault path: a single allocation,
    /// read straight into the frame's refcounted buffer.
    fn fault_read(&self, pid: PageId) -> Result<PageArc> {
        IoStats::bump(&self.stats.physical_reads);
        let mut data: PageArc = Arc::new([0u8; PAGE_SIZE]);
        let buf = Arc::get_mut(&mut data).expect("freshly allocated, uniquely owned");
        self.backend.read_page(pid, buf)?;
        Ok(data)
    }

    /// The demand-read protocol: hit under the lock, or wait on another
    /// thread's in-flight fault, or fault with the lock dropped and
    /// re-lock to install. Never performs backend I/O under a shard
    /// lock.
    fn acquire(&self, pid: PageId, pin: bool) -> Result<Acquired> {
        let idx = self.shard_idx(pid);
        loop {
            let mut shard = self.shards[idx].lock();
            if let Some(f) = shard.frames.get_mut(&pid.0) {
                f.referenced = true;
                return Ok(if pin {
                    Acquired::Pinned(self.pin_frame(idx, f))
                } else {
                    Acquired::Copy(Arc::clone(&f.data))
                });
            }
            if let Some(inflight) = shard.inflight.get(&pid.0).map(Arc::clone) {
                drop(shard);
                IoStats::bump(&self.stats.inflight_waits);
                match inflight.wait() {
                    // A copying read can use the faulter's bytes even if
                    // the frame was already evicted again.
                    Some(data) if !pin => return Ok(Acquired::Copy(data)),
                    // Pinned reads re-loop to pin the resident frame;
                    // a failed fault re-loops to fault for itself.
                    _ => continue,
                }
            }
            // We are the faulter: claim the page, then read unlocked.
            let inflight = Arc::new(Inflight::new());
            shard.inflight.insert(pid.0, Arc::clone(&inflight));
            let epoch = self.invalidations.load(Ordering::Acquire);
            drop(shard);
            let read = self.fault_read(pid);
            let mut shard = self.shards[idx].lock();
            shard.inflight.remove(&pid.0);
            let data = match read {
                Ok(data) => data,
                Err(e) => {
                    drop(shard);
                    inflight.finish(None);
                    return Err(e);
                }
            };
            if let Some(f) = shard.frames.get_mut(&pid.0) {
                // A writer installed this page while we read; its frame
                // is newer than our bytes, so serve (and publish) it.
                f.referenced = true;
                let published = Arc::clone(&f.data);
                let out = if pin {
                    Acquired::Pinned(self.pin_frame(idx, f))
                } else {
                    Acquired::Copy(Arc::clone(&f.data))
                };
                drop(shard);
                inflight.finish(Some(published));
                return Ok(out);
            }
            if self.invalidations.load(Ordering::Acquire) != epoch {
                // The cache was invalidated while we read: our bytes may
                // predate the backend change. Discard and retry.
                drop(shard);
                inflight.finish(None);
                continue;
            }
            shard.frames.insert(pid.0, Frame::clean(Arc::clone(&data)));
            shard.clock.push(pid.0);
            let out = if pin {
                let f = shard.frames.get(&pid.0).expect("just inserted");
                Acquired::Pinned(self.pin_frame(idx, f))
            } else {
                Acquired::Copy(Arc::clone(&data))
            };
            self.evict_to_capacity(&mut shard);
            drop(shard);
            inflight.finish(Some(data));
            return Ok(out);
        }
    }

    /// Clock sweep: evict unreferenced, unpinned frames until the shard
    /// fits its budget. A frame whose reference bit is set gets a
    /// second chance (the bit is cleared and the hand moves on).
    /// Uncommitted-dirty frames are never evicted (no-steal), nor is a
    /// frame a flush is writing; any other committed-dirty frame is
    /// written to the backend first — no sync needed, its redo image is
    /// already durable in the WAL — so a churn workload bigger than the
    /// pool stays bounded even between checkpoints. If a bounded sweep
    /// finds no victim the shard overflows its capacity rather than
    /// stealing.
    fn evict_to_capacity(&self, shard: &mut Shard) {
        while shard.frames.len() > self.shard_capacity {
            let mut evicted = false;
            let budget = shard.clock.len() * 2;
            let mut scanned = 0;
            while scanned < budget && !shard.clock.is_empty() {
                if shard.hand >= shard.clock.len() {
                    shard.hand = 0;
                }
                let pid = shard.clock[shard.hand];
                let f = shard.frames.get_mut(&pid).expect("clock entry resident");
                if f.dirty_owner.is_some() || f.flushing || f.pins.load(Ordering::Acquire) > 0 {
                    shard.hand += 1;
                } else if f.referenced {
                    f.referenced = false;
                    shard.hand += 1;
                } else {
                    if f.committed_dirty {
                        // Write-on-evict; on failure keep the frame (the
                        // checkpointer will retry) and move on.
                        if self.backend.write_page(PageId(pid), &f.data).is_err() {
                            shard.hand += 1;
                            scanned += 1;
                            continue;
                        }
                        IoStats::bump(&self.stats.physical_writes);
                    }
                    shard.frames.remove(&pid);
                    shard.clock.remove(shard.hand);
                    IoStats::bump(&self.stats.evictions);
                    evicted = true;
                    break;
                }
                scanned += 1;
            }
            if !evicted {
                IoStats::bump(&self.stats.dirty_overflows);
                return;
            }
        }
    }

    /// Writes a pid-sorted batch of frames through the vectored backend
    /// call, counting runs. Stats update only on success so a failed
    /// flush retries idempotently.
    fn write_batch(&self, pages: &[(u32, PageArc)]) -> Result<()> {
        if pages.is_empty() {
            return Ok(());
        }
        let pairs: Vec<(PageId, &[u8; PAGE_SIZE])> =
            pages.iter().map(|(pid, d)| (PageId(*pid), &**d)).collect();
        self.backend.write_pages(&pairs)?;
        let ids: Vec<u32> = pages.iter().map(|(pid, _)| *pid).collect();
        let runs = run_count(&ids);
        self.stats.physical_writes.add(pages.len() as u64);
        self.stats.write_runs.add(runs as u64);
        self.stats.coalesced_writes.add((pages.len() - runs) as u64);
        Ok(())
    }

    /// Drops the entire cache (used after out-of-band backend changes,
    /// e.g. recovery replay). Outstanding guards keep their snapshots
    /// but no longer pin anything resident. In-flight faults that raced
    /// this call discard their bytes and re-read.
    pub fn invalidate(&self) {
        // Bump first: a fault that re-locks after its shard was cleared
        // must see the moved epoch and discard its (possibly stale)
        // bytes.
        self.invalidations.fetch_add(1, Ordering::AcqRel);
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.frames.clear();
            shard.clock.clear();
            shard.hand = 0;
        }
    }

    /// Creates a pool of `capacity` frames over `backend`, striped into
    /// `shards` partitions (`page_id % shards`).
    pub fn new(
        backend: Box<dyn Backend>,
        capacity: usize,
        shards: usize,
        stats: Arc<IoStats>,
    ) -> BufferPool {
        let shards = shards.max(1);
        BufferPool {
            backend,
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_capacity: capacity.max(1).div_ceil(shards),
            stats,
            shard_pins: (0..shards).map(|_| Arc::new(AtomicU64::new(0))).collect(),
            invalidations: AtomicU64::new(0),
            flush_lock: Mutex::new(()),
        }
    }

    /// Number of shards the pool is striped into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Reads page `pid` into `out` (logical read; miss = physical read).
    pub fn read(&self, pid: PageId, out: &mut [u8; PAGE_SIZE]) -> Result<()> {
        IoStats::bump(&self.stats.logical_reads);
        match self.acquire(pid, false)? {
            Acquired::Copy(data) => {
                out.copy_from_slice(&data[..]);
                Ok(())
            }
            Acquired::Pinned(_) => unreachable!("acquire(pin=false) never pins"),
        }
    }

    /// Pins page `pid` and returns a zero-copy guard over its bytes.
    /// The frame cannot be evicted while the guard lives; a concurrent
    /// writer gets a private copy (copy-on-write), so the guard always
    /// sees the bytes as of the pin.
    pub fn read_pinned(&self, pid: PageId) -> Result<PageGuard> {
        IoStats::bump(&self.stats.logical_reads);
        IoStats::bump(&self.stats.pinned_reads);
        match self.acquire(pid, true)? {
            Acquired::Pinned(guard) => Ok(guard),
            Acquired::Copy(_) => unreachable!("acquire(pin=true) always pins"),
        }
    }

    /// Buffers a transactional write of page `pid` by `txn` (no-steal:
    /// nothing of `txn`'s reaches the backend before its commit record
    /// is durable).
    pub fn write_txn(&self, txn: TxnId, pid: PageId, data: &[u8; PAGE_SIZE]) -> Result<()> {
        IoStats::bump(&self.stats.logical_writes);
        let idx = self.shard_idx(pid);
        let mut shard = self.shards[idx].lock();
        while shard.frames.get(&pid.0).is_some_and(|f| f.flushing) {
            // A checkpoint is writing this page. Writing it here too
            // could land newer bytes under the flusher's, and an abort
            // would discard a frame the flusher still counts on — so
            // wait for that one write (flush invariant, module docs).
            drop(shard);
            drop(self.flush_lock.lock());
            shard = self.shards[idx].lock();
        }
        let inserted = !shard.frames.contains_key(&pid.0);
        let frame = shard
            .frames
            .entry(pid.0)
            .or_insert_with(|| Frame::clean(Arc::new([0u8; PAGE_SIZE])));
        if frame.committed_dirty {
            // An in-place rewrite of a live page (an inode or indirect
            // page: data pages are shadow-paged, and a freed page's flag
            // is dropped by `forget_committed`). The frame holds the
            // only copy of committed bytes the backend has not seen,
            // and an abort discards the frame — so they go
            // to the backend first, which is allowed at any time since
            // their redo image is durable. A discard-and-refetch, or a
            // checkpoint's sync before it recycles that image, then
            // finds them there.
            self.backend.write_page(pid, &frame.data)?;
            IoStats::bump(&self.stats.physical_writes);
            frame.committed_dirty = false;
        }
        // Copy-on-write: pinned guards keep their snapshot.
        Arc::make_mut(&mut frame.data).copy_from_slice(data);
        frame.dirty_owner = Some(txn);
        frame.referenced = true;
        if inserted {
            shard.clock.push(pid.0);
            self.evict_to_capacity(&mut shard);
        }
        Ok(())
    }

    /// Declares page `pid`'s committed bytes dead (the page was freed):
    /// if its frame is committed-dirty there is nothing left worth
    /// flushing, and the next owner's [`BufferPool::write_txn`] need not
    /// preserve them.
    pub fn forget_committed(&self, pid: PageId) {
        let mut shard = self.shards[self.shard_idx(pid)].lock();
        if let Some(frame) = shard.frames.get_mut(&pid.0) {
            frame.committed_dirty = false;
        }
    }

    /// Returns all dirty frames owned by `txn` as shared references
    /// (`Arc` clones, no page copies), sorted by page id for the WAL.
    pub fn dirty_of(&self, txn: TxnId) -> Vec<(PageId, Arc<[u8; PAGE_SIZE]>)> {
        let mut out: Vec<(PageId, PageArc)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            out.extend(
                shard
                    .frames
                    .iter()
                    .filter(|(_, f)| f.dirty_owner == Some(txn))
                    .map(|(&pid, f)| (PageId(pid), Arc::clone(&f.data))),
            );
        }
        out.sort_by_key(|(pid, _)| pid.0);
        out
    }

    /// Relabels `txn`'s dirty frames as committed-dirty without writing
    /// them (the data step of commit: the redo images just became
    /// durable in the WAL, so the data writes are deferred to the
    /// checkpointer — or to write-on-evict under pool pressure). The
    /// frames were unevictable until now, so each shard is brought back
    /// to capacity here rather than by the next statement's first fault.
    pub fn mark_committed(&self, txn: TxnId) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            for f in shard.frames.values_mut() {
                if f.dirty_owner == Some(txn) {
                    f.dirty_owner = None;
                    f.committed_dirty = true;
                }
            }
            self.evict_to_capacity(&mut shard);
        }
    }

    /// Writes every committed-dirty frame to the backend and marks it
    /// clean — the fuzzy-checkpoint walk. The dirty set is collected
    /// across all shards (each lock held only long enough to mark the
    /// frames `flushing` and clone their Arcs) and written as one
    /// globally pid-sorted vectored batch: shards stripe pages
    /// `pid % shards`, so only a cross-shard batch lets contiguous pids
    /// coalesce into runs. No shard lock is held during the backend
    /// write; the marks keep every other writer off the collected pages
    /// until it has landed (flush invariant, module docs). A frame that
    /// received newer committed bytes behind the walk swapped in a fresh
    /// Arc under copy-on-write; the `ptr_eq` guard leaves its flag set,
    /// and the next checkpoint catches it. Returns how many frames were
    /// written. The caller syncs the backend afterwards.
    pub fn flush_committed(&self) -> Result<usize> {
        let _one_flusher = self.flush_lock.lock();
        let mut pages: Vec<(u32, PageArc)> = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock();
            for (&pid, f) in shard.frames.iter_mut().filter(|(_, f)| f.committed_dirty) {
                f.flushing = true;
                pages.push((pid, Arc::clone(&f.data)));
            }
        }
        pages.sort_by_key(|(pid, _)| *pid);
        let written = self.write_batch(&pages);
        for (pid, data) in &pages {
            let mut shard = self.shards[self.shard_idx(PageId(*pid))].lock();
            let f = shard.frames.get_mut(pid).expect("flushing frame resident");
            f.flushing = false;
            if written.is_ok() && Arc::ptr_eq(&f.data, data) {
                f.committed_dirty = false;
            }
        }
        written?;
        Ok(pages.len())
    }

    /// Number of committed-dirty frames across all shards (test hook).
    pub fn committed_dirty_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .frames
                    .values()
                    .filter(|f| f.committed_dirty)
                    .count()
            })
            .sum()
    }

    /// Discards `txn`'s dirty frames (abort: the backend still holds the
    /// pre-transaction images).
    pub fn discard_txn(&self, txn: TxnId) {
        for shard in &self.shards {
            shard.lock().retain(|f| f.dirty_owner != Some(txn));
        }
    }

    /// True if any frame is dirty (used by checkpoint assertions).
    pub fn any_dirty(&self) -> bool {
        self.shards
            .iter()
            .any(|s| s.lock().frames.values().any(|f| f.dirty_owner.is_some()))
    }

    /// Drops every clean frame, so the next read of such a page goes to
    /// the backend. A frame holding the only copy of its bytes stays: a
    /// transaction's uncommitted writes, and committed-dirty frames
    /// ([`BufferPool::flush_committed`] first makes those clean) — as
    /// does a frame another thread's flush is still writing.
    pub fn drop_clean(&self) {
        for shard in &self.shards {
            shard
                .lock()
                .retain(|f| f.dirty_owner.is_some() || f.committed_dirty || f.flushing);
        }
    }

    /// Durably syncs the backend.
    pub fn sync_backend(&self) -> Result<()> {
        IoStats::bump(&self.stats.data_syncs);
        self.backend.sync()
    }

    /// Direct backend write used by recovery (bypasses cache and stats).
    pub fn recovery_write(&self, pid: PageId, data: &[u8; PAGE_SIZE]) -> Result<()> {
        self.backend.write_page(pid, data)
    }

    /// Direct backend read used by recovery.
    pub fn recovery_read(&self, pid: PageId, out: &mut [u8; PAGE_SIZE]) -> Result<()> {
        self.backend.read_page(pid, out)
    }

    /// Number of cached frames across all shards (test hook).
    pub fn cached_frames(&self) -> usize {
        self.shards.iter().map(|s| s.lock().frames.len()).sum()
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        // A PageGuard outliving the pool means a pin was leaked past the
        // storage layer's lifetime — catch it loudly in tests rather
        // than silently in production traces.
        if !std::thread::panicking() {
            let pins = self.outstanding_pins();
            assert_eq!(pins, 0, "{pins} PageGuard(s) outlive their BufferPool");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FaultInjector, MemBackend};
    use crate::page::{page_from_slice, zeroed_page};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    fn pool(cap: usize, shards: usize) -> BufferPool {
        BufferPool::new(
            Box::new(MemBackend::new()),
            cap,
            shards,
            IoStats::new_shared(),
        )
    }

    /// Makes `data` the committed, not yet written bytes of page `pid`.
    fn commit_page(p: &BufferPool, pid: u32, data: &[u8]) {
        p.write_txn(TxnId(u64::MAX), PageId(pid), &page_from_slice(data))
            .unwrap();
        p.mark_committed(TxnId(u64::MAX));
    }

    #[test]
    fn txn_writes_invisible_to_backend_until_flush() {
        let p = pool(8, 2);
        let data = page_from_slice(b"uncommitted");
        p.write_txn(TxnId(1), PageId(3), &data).unwrap();
        // The cache serves the new data...
        let mut out = zeroed_page();
        p.read(PageId(3), &mut out).unwrap();
        assert_eq!(&out[..11], b"uncommitted");
        // ...but after discarding, the backend's (zero) image returns.
        p.discard_txn(TxnId(1));
        p.read(PageId(3), &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn commit_relabels_and_flush_persists_and_cleans() {
        let stats = IoStats::new_shared();
        let p = BufferPool::new(Box::new(MemBackend::new()), 8, 2, Arc::clone(&stats));
        let data = page_from_slice(b"committed");
        p.write_txn(TxnId(1), PageId(3), &data).unwrap();
        assert_eq!(p.dirty_of(TxnId(1)).len(), 1);
        p.mark_committed(TxnId(1));
        assert!(p.dirty_of(TxnId(1)).is_empty());
        assert!(!p.any_dirty());
        assert_eq!(stats.snapshot().physical_writes, 0, "commit wrote a page");
        assert_eq!(p.flush_committed().unwrap(), 1);
        assert_eq!(p.committed_dirty_count(), 0);
        assert_eq!(stats.snapshot().physical_writes, 1);
        p.invalidate();
        let mut out = zeroed_page();
        p.read(PageId(3), &mut out).unwrap();
        assert_eq!(&out[..9], b"committed");
    }

    #[test]
    fn clock_evicts_clean_not_dirty() {
        // One shard so all four pages compete for two frames.
        let p = pool(2, 1);
        let d = page_from_slice(b"d");
        p.write_txn(TxnId(1), PageId(0), &d).unwrap();
        let mut out = zeroed_page();
        p.read(PageId(1), &mut out).unwrap();
        p.read(PageId(2), &mut out).unwrap();
        p.read(PageId(3), &mut out).unwrap();
        // Capacity 2: the dirty frame survives every eviction.
        assert!(p.dirty_of(TxnId(1)).iter().any(|(pid, _)| pid.0 == 0));
        assert!(p.cached_frames() <= 2);
    }

    #[test]
    fn hit_miss_accounting() {
        let stats = IoStats::new_shared();
        let p = BufferPool::new(Box::new(MemBackend::new()), 8, 2, Arc::clone(&stats));
        let mut out = zeroed_page();
        p.read(PageId(5), &mut out).unwrap(); // miss
        p.read(PageId(5), &mut out).unwrap(); // hit
        let s = stats.snapshot();
        assert_eq!(s.logical_reads, 2);
        assert_eq!(s.physical_reads, 1);
    }

    #[test]
    fn pinned_read_is_zero_copy_and_snapshot_isolated() {
        let p = pool(8, 2);
        commit_page(&p, 4, b"before");
        let g = p.read_pinned(PageId(4)).unwrap();
        assert_eq!(&g[..6], b"before");
        assert_eq!(p.outstanding_pins(), 1);
        // A writer replaces the frame's bytes; the guard's snapshot
        // survives (copy-on-write).
        p.write_txn(TxnId(1), PageId(4), &page_from_slice(b"after!"))
            .unwrap();
        assert_eq!(&g[..6], b"before");
        let g2 = p.read_pinned(PageId(4)).unwrap();
        assert_eq!(&g2[..6], b"after!");
        drop(g);
        drop(g2);
        assert_eq!(p.outstanding_pins(), 0);
        p.discard_txn(TxnId(1));
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let stats = IoStats::new_shared();
        let p = BufferPool::new(Box::new(MemBackend::new()), 2, 1, Arc::clone(&stats));
        commit_page(&p, 0, b"pinned");
        let guard = p.read_pinned(PageId(0)).unwrap();
        let mut out = zeroed_page();
        for pid in 1..20 {
            p.read(PageId(pid), &mut out).unwrap();
        }
        // The pinned frame is still resident: reading it again is a hit.
        let before = stats.snapshot().physical_reads;
        p.read(PageId(0), &mut out).unwrap();
        assert_eq!(stats.snapshot().physical_reads, before);
        assert_eq!(&out[..6], b"pinned");
        assert!(stats.snapshot().evictions > 0, "pressure did evict others");
        drop(guard);
    }

    #[test]
    fn clock_gives_second_chance() {
        let stats = IoStats::new_shared();
        let p = BufferPool::new(Box::new(MemBackend::new()), 2, 1, Arc::clone(&stats));
        let mut out = zeroed_page();
        p.read(PageId(0), &mut out).unwrap();
        p.read(PageId(1), &mut out).unwrap();
        // Re-reference page 0, then fault page 2: the sweep clears 0's
        // bit, passes it over once, and evicts page 1 instead.
        p.read(PageId(0), &mut out).unwrap();
        p.read(PageId(2), &mut out).unwrap();
        let before = stats.snapshot().physical_reads;
        p.read(PageId(0), &mut out).unwrap(); // still resident: hit
        assert_eq!(stats.snapshot().physical_reads, before);
        p.read(PageId(1), &mut out).unwrap(); // evicted: miss
        assert_eq!(stats.snapshot().physical_reads, before + 1);
    }

    #[test]
    fn all_dirty_overflows_capacity() {
        let stats = IoStats::new_shared();
        let p = BufferPool::new(Box::new(MemBackend::new()), 2, 1, Arc::clone(&stats));
        for pid in 0..5 {
            p.write_txn(TxnId(1), PageId(pid), &page_from_slice(b"dirty"))
                .unwrap();
        }
        // No-steal: every frame is dirty, so the pool grows past its
        // two-frame budget instead of evicting.
        assert_eq!(p.cached_frames(), 5);
        assert!(stats.snapshot().dirty_overflows > 0);
        assert_eq!(stats.snapshot().evictions, 0);
        p.discard_txn(TxnId(1));
    }

    #[test]
    fn committed_dirty_frames_flush_and_write_on_evict() {
        let stats = IoStats::new_shared();
        let p = BufferPool::new(Box::new(MemBackend::new()), 2, 1, Arc::clone(&stats));
        for pid in 0..5u32 {
            p.write_txn(TxnId(1), PageId(pid), &page_from_slice(&[b'a' + pid as u8]))
                .unwrap();
        }
        // The commit itself brings the shard back to capacity: with
        // more committed frames than capacity, some are written out on
        // evict instead of overflowing the pool.
        p.mark_committed(TxnId(1));
        assert!(!p.any_dirty());
        assert!(p.cached_frames() <= 2, "pool stayed bounded");
        assert!(
            stats.snapshot().physical_writes >= 3,
            "write-on-evict fired"
        );
        let mut out = zeroed_page();
        // flush_committed writes whatever is still resident.
        let resident = p.committed_dirty_count();
        assert_eq!(p.flush_committed().unwrap(), resident);
        assert_eq!(p.committed_dirty_count(), 0);
        // Every committed write reached the backend, one way or the other.
        p.invalidate();
        for pid in 0..5u32 {
            p.read(PageId(pid), &mut out).unwrap();
            assert_eq!(out[0], b'a' + pid as u8, "page {pid} durable");
        }
    }

    #[test]
    fn batched_flush_counts_runs_and_coalesced_pages() {
        let stats = IoStats::new_shared();
        let p = BufferPool::new(Box::new(MemBackend::new()), 64, 1, Arc::clone(&stats));
        // Two contiguous runs: [0,1,2] and [10,11].
        for pid in [0u32, 1, 2, 10, 11] {
            p.write_txn(TxnId(1), PageId(pid), &page_from_slice(&[pid as u8]))
                .unwrap();
        }
        p.mark_committed(TxnId(1));
        p.flush_committed().unwrap();
        let s = stats.snapshot();
        assert_eq!(s.physical_writes, 5);
        assert_eq!(s.write_runs, 2);
        assert_eq!(s.coalesced_writes, 3);
    }

    #[test]
    fn bulk_commit_leaves_the_pool_within_budget() {
        // A transaction that dirtied 5x the pool (a bulk LOAD): no-steal
        // held every frame until commit, and commit must not leave the
        // overflow for the next statement's first fault to pay for.
        let p = pool(8, 2);
        for pid in 0..40u32 {
            p.write_txn(TxnId(1), PageId(pid), &page_from_slice(&[pid as u8 + 1]))
                .unwrap();
        }
        assert_eq!(p.cached_frames(), 40);
        p.mark_committed(TxnId(1));
        assert!(p.cached_frames() <= 8, "{} frames", p.cached_frames());
        let mut out = zeroed_page();
        for pid in 0..40u32 {
            p.read(PageId(pid), &mut out).unwrap();
            assert_eq!(out[0], pid as u8 + 1, "page {pid}");
        }
    }

    #[test]
    fn failed_flush_keeps_frames_dirty_and_unmarked() {
        let inj = Arc::new(FaultInjector::new(MemBackend::new()));
        let p = BufferPool::new(Box::new(Arc::clone(&inj)), 8, 2, IoStats::new_shared());
        commit_page(&p, 1, b"v1");
        inj.fail_after(0);
        assert!(p.flush_committed().is_err());
        inj.heal();
        assert_eq!(p.committed_dirty_count(), 1, "the retry still owes it");
        // No mark left behind: an in-place rewrite neither waits nor
        // loses the committed bytes it overwrites.
        p.write_txn(TxnId(1), PageId(1), &page_from_slice(b"v2"))
            .unwrap();
        p.discard_txn(TxnId(1));
        let mut out = zeroed_page();
        p.read(PageId(1), &mut out).unwrap();
        assert_eq!(&out[..2], b"v1");
    }

    #[test]
    fn guard_outliving_pool_trips_assertion() {
        let p = pool(4, 2);
        commit_page(&p, 1, b"x");
        let guard = p.read_pinned(PageId(1)).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(p)));
        assert!(
            err.is_err(),
            "dropping the pool under a live pin must panic"
        );
        drop(guard);
    }

    #[test]
    fn concurrent_readers_on_distinct_shards() {
        let p = Arc::new(pool(64, 8));
        for pid in 0..8 {
            commit_page(&p, pid, &[b'a' + pid as u8]);
        }
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8u32)
            .map(|pid| {
                let p = Arc::clone(&p);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..500 {
                        let g = p.read_pinned(PageId(pid)).unwrap();
                        assert_eq!(g[0], b'a' + pid as u8);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.outstanding_pins(), 0);
    }

    /// A backend whose read of one designated page blocks until released
    /// (or a generous timeout), signalling when the read starts.
    struct GatedBackend {
        inner: MemBackend,
        gate_pid: u32,
        started: mpsc::Sender<()>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl Backend for GatedBackend {
        fn read_page(&self, pid: PageId, out: &mut [u8; PAGE_SIZE]) -> Result<()> {
            if pid.0 == self.gate_pid {
                self.started.send(()).ok();
                let _ = self.release.lock().recv_timeout(Duration::from_secs(10));
            }
            self.inner.read_page(pid, out)
        }
        fn write_page(&self, pid: PageId, data: &[u8; PAGE_SIZE]) -> Result<()> {
            self.inner.write_page(pid, data)
        }
        fn page_count(&self) -> u32 {
            self.inner.page_count()
        }
        fn sync(&self) -> Result<()> {
            self.inner.sync()
        }
    }

    #[test]
    fn cold_read_does_not_block_hot_hit_in_same_shard() {
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let backend = GatedBackend {
            inner: MemBackend::new(),
            gate_pid: 0,
            started: started_tx,
            release: Mutex::new(release_rx),
        };
        backend
            .write_page(PageId(1), &page_from_slice(b"hot"))
            .unwrap();
        // One shard: pages 0 and 1 share a lock.
        let p = Arc::new(BufferPool::new(
            Box::new(backend),
            8,
            1,
            IoStats::new_shared(),
        ));
        // Warm page 1 so the next access is a pure hit.
        let mut out = zeroed_page();
        p.read(PageId(1), &mut out).unwrap();
        let cold = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                let mut out = zeroed_page();
                p.read(PageId(0), &mut out).unwrap();
            })
        };
        // Wait until the cold fault is inside the backend read...
        started_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("cold read reached the backend");
        // ...then the hot hit must complete while that read is still
        // blocked. If the fault held the shard lock, this would stall
        // until the gate times out.
        let t = Instant::now();
        p.read(PageId(1), &mut out).unwrap();
        assert_eq!(&out[..3], b"hot");
        assert!(
            t.elapsed() < Duration::from_secs(2),
            "hit stalled behind an in-flight cold read"
        );
        release_tx.send(()).ok();
        cold.join().unwrap();
    }

    /// A backend whose first vectored write blocks, after signalling
    /// that it started, until released (or a generous timeout). Only
    /// `flush_committed` issues vectored writes, so this holds a
    /// checkpoint flush open between collecting its pages and landing
    /// them — the window the flush invariant is about.
    struct FlushGate {
        inner: Arc<MemBackend>,
        armed: std::sync::atomic::AtomicBool,
        started: mpsc::Sender<()>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl Backend for FlushGate {
        fn read_page(&self, pid: PageId, out: &mut [u8; PAGE_SIZE]) -> Result<()> {
            self.inner.read_page(pid, out)
        }
        fn write_page(&self, pid: PageId, data: &[u8; PAGE_SIZE]) -> Result<()> {
            self.inner.write_page(pid, data)
        }
        fn page_count(&self) -> u32 {
            self.inner.page_count()
        }
        fn sync(&self) -> Result<()> {
            self.inner.sync()
        }
        fn write_pages(&self, pages: &[(PageId, &[u8; PAGE_SIZE])]) -> Result<()> {
            if self.armed.swap(false, Ordering::SeqCst) {
                self.started.send(()).ok();
                let _ = self.release.lock().recv_timeout(Duration::from_secs(10));
            }
            self.inner.write_pages(pages)
        }
    }

    /// A two-frame, one-shard pool whose page 0 holds committed bytes
    /// `v1` that a flush has collected and is blocked writing.
    struct BlockedFlush {
        pool: Arc<BufferPool>,
        backend: Arc<MemBackend>,
        release: mpsc::Sender<()>,
        flusher: std::thread::JoinHandle<usize>,
    }

    impl BlockedFlush {
        fn start() -> BlockedFlush {
            let (started_tx, started_rx) = mpsc::channel();
            let (release, release_rx) = mpsc::channel();
            let backend = Arc::new(MemBackend::new());
            let pool = Arc::new(BufferPool::new(
                Box::new(FlushGate {
                    inner: Arc::clone(&backend),
                    armed: true.into(),
                    started: started_tx,
                    release: Mutex::new(release_rx),
                }),
                2,
                1,
                IoStats::new_shared(),
            ));
            pool.write_txn(TxnId(1), PageId(0), &page_from_slice(b"v1"))
                .unwrap();
            pool.mark_committed(TxnId(1));
            let flusher = {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || pool.flush_committed().unwrap())
            };
            started_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("flush reached the backend");
            BlockedFlush {
                pool,
                backend,
                release,
                flusher,
            }
        }

        /// Starts an in-place rewrite of page 0 by transaction 2 and
        /// checks that it waits for the blocked flush instead of writing
        /// beside it.
        fn rewrite_waits(&self) -> std::thread::JoinHandle<()> {
            let (done_tx, done_rx) = mpsc::channel();
            let pool = Arc::clone(&self.pool);
            let writer = std::thread::spawn(move || {
                pool.write_txn(TxnId(2), PageId(0), &page_from_slice(b"v2"))
                    .unwrap();
                done_tx.send(()).ok();
            });
            assert!(
                done_rx.recv_timeout(Duration::from_millis(200)).is_err(),
                "an in-place rewrite went ahead beside a flush of the same page"
            );
            writer
        }

        /// Lets the flush land.
        fn land(self) -> (Arc<BufferPool>, Arc<MemBackend>) {
            self.release.send(()).unwrap();
            assert_eq!(self.flusher.join().unwrap(), 1);
            (self.pool, self.backend)
        }
    }

    /// Pins as many other pages as the pool holds, so the clock hand
    /// has to come round to page 0: its frame goes if it is evictable.
    fn pressure(pool: &BufferPool) {
        let _pins = [1, 2].map(|pid| pool.read_pinned(PageId(pid)).unwrap());
    }

    /// Page 0 reads `want` through the pool, and from the backend after
    /// the next flush.
    fn expect_page0(pool: &BufferPool, backend: &MemBackend, want: &[u8]) {
        let mut out = zeroed_page();
        pool.read(PageId(0), &mut out).unwrap();
        assert_eq!(&out[..want.len()], want, "through the pool");
        pool.flush_committed().unwrap();
        backend.read_page(PageId(0), &mut out).unwrap();
        assert_eq!(&out[..want.len()], want, "on the backend");
    }

    #[test]
    fn flush_in_flight_holds_back_a_rewrite_that_commits_and_is_evicted() {
        // (b) The collected page gets newer committed bytes, which
        // eviction writes out: that write must follow the flusher's.
        let f = BlockedFlush::start();
        let writer = f.rewrite_waits();
        let (pool, backend) = f.land();
        writer.join().unwrap();
        pool.mark_committed(TxnId(2));
        pressure(&pool);
        expect_page0(&pool, &backend, b"v2");
    }

    #[test]
    fn flush_in_flight_holds_back_a_rewrite_that_aborts() {
        // (c) The collected page is rewritten in place by a transaction
        // that aborts: its frame is discarded, and what remains must be
        // the committed bytes the flusher was writing.
        let f = BlockedFlush::start();
        let writer = f.rewrite_waits();
        let (pool, backend) = f.land();
        writer.join().unwrap();
        pool.discard_txn(TxnId(2));
        expect_page0(&pool, &backend, b"v1");
    }

    /// A backend that stamps each page with its id and sleeps briefly,
    /// widening race windows.
    struct SlowStampBackend {
        delay: Duration,
        reads: AtomicU64,
    }

    impl Backend for SlowStampBackend {
        fn read_page(&self, pid: PageId, out: &mut [u8; PAGE_SIZE]) -> Result<()> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.delay);
            out.fill(0);
            out[..4].copy_from_slice(&pid.0.to_le_bytes());
            Ok(())
        }
        fn write_page(&self, _pid: PageId, _data: &[u8; PAGE_SIZE]) -> Result<()> {
            Ok(())
        }
        fn page_count(&self) -> u32 {
            u32::MAX
        }
        fn sync(&self) -> Result<()> {
            Ok(())
        }
    }

    #[test]
    fn concurrent_faulters_of_one_page_share_one_read() {
        let stats = IoStats::new_shared();
        let p = Arc::new(BufferPool::new(
            Box::new(SlowStampBackend {
                delay: Duration::from_millis(50),
                reads: AtomicU64::new(0),
            }),
            8,
            1,
            Arc::clone(&stats),
        ));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let p = Arc::clone(&p);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    if i % 2 == 0 {
                        let mut out = zeroed_page();
                        p.read(PageId(7), &mut out).unwrap();
                        assert_eq!(&out[..4], &7u32.to_le_bytes());
                    } else {
                        let g = p.read_pinned(PageId(7)).unwrap();
                        assert_eq!(&g[..4], &7u32.to_le_bytes());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = stats.snapshot();
        assert_eq!(s.physical_reads, 1, "one physical read for 8 faulters");
        assert!(
            s.inflight_waits >= 1,
            "someone waited on the in-flight read"
        );
    }

    #[test]
    fn eviction_races_inflight_faults_without_corruption() {
        // Capacity 2, one shard, slow backend: installs constantly race
        // evictions and waiter re-loops. Contents must stay exact.
        let p = Arc::new(BufferPool::new(
            Box::new(SlowStampBackend {
                delay: Duration::from_millis(1),
                reads: AtomicU64::new(0),
            }),
            2,
            1,
            IoStats::new_shared(),
        ));
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    for i in 0..50u32 {
                        let pid = (t * 13 + i) % 16;
                        if i % 2 == 0 {
                            let mut out = zeroed_page();
                            p.read(PageId(pid), &mut out).unwrap();
                            assert_eq!(&out[..4], &pid.to_le_bytes());
                        } else {
                            let g = p.read_pinned(PageId(pid)).unwrap();
                            assert_eq!(&g[..4], &pid.to_le_bytes());
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.outstanding_pins(), 0);
    }

    #[test]
    fn failed_fault_clears_inflight_and_pool_stays_usable() {
        let inj = Arc::new(FaultInjector::new(MemBackend::new()));
        inj.write_page(PageId(3), &page_from_slice(b"ok")).unwrap();
        let stats = IoStats::new_shared();
        let p = BufferPool::new(Box::new(Arc::clone(&inj)), 8, 2, Arc::clone(&stats));
        inj.fail_after(0);
        let mut out = zeroed_page();
        // Each caller surfaces its own error...
        assert!(p.read(PageId(3), &mut out).is_err());
        assert!(p.read_pinned(PageId(3)).is_err());
        inj.heal();
        // ...and the in-flight entry was cleared: the retry faults fresh.
        p.read(PageId(3), &mut out).unwrap();
        assert_eq!(&out[..2], b"ok");
        assert_eq!(stats.snapshot().physical_reads, 3);
    }
}
