//! Fuzzy-checkpoint tests: WAL boundedness under churn, segment
//! recycling around the transaction low-water mark, crash-recovery
//! equivalence with and without checkpoints, and sweeping of retired
//! page batches stranded behind snapshots.
//!
//! As in `recovery.rs`, a "crash" abandons an `Sbspace` and reopens a
//! new one over the same backend and log; segment sizes are kept tiny
//! so a handful of commits rolls the log many times.

use grt_sbspace::wal::{MemWal, WalStore};
use grt_sbspace::{
    IsolationLevel, LockMode, MemBackend, Result, SbError, Sbspace, SbspaceOptions, PAGE_SIZE,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SEG_BYTES: usize = 8 * 1024;

fn opts() -> SbspaceOptions {
    SbspaceOptions {
        pool_pages: 64,
        lock_timeout: Duration::from_millis(200),
        ..Default::default()
    }
}

fn shared() -> (Arc<MemBackend>, Arc<MemWal>) {
    (
        Arc::new(MemBackend::new()),
        Arc::new(MemWal::with_segment_bytes(SEG_BYTES)),
    )
}

fn reopen(backend: &Arc<MemBackend>, wal: &Arc<MemWal>) -> Sbspace {
    Sbspace::open_with(Arc::clone(backend), Arc::clone(wal), opts()).expect("reopen")
}

/// One churn transaction: overwrite `pages` pages of `lo` with `fill`.
fn churn(sb: &Sbspace, lo: grt_sbspace::LoId, pages: u32, fill: u8) {
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
    for p in 0..pages {
        h.write_page(p, &[fill; PAGE_SIZE]).unwrap();
    }
    h.close().unwrap();
    txn.commit().unwrap();
}

/// Seeds an object with `pages` pages and returns its id.
fn seed(sb: &Sbspace, pages: u32) -> grt_sbspace::LoId {
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let lo = sb.create_lo(&txn).unwrap();
    let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
    for _ in 0..pages {
        h.append_page(&[0u8; PAGE_SIZE]).unwrap();
    }
    h.close().unwrap();
    txn.commit().unwrap();
    lo
}

#[test]
fn churn_with_checkpoints_bounds_the_wal() {
    let (backend, wal) = shared();
    let sb = reopen(&backend, &wal);
    let lo = seed(&sb, 4);
    for round in 0..40u32 {
        churn(&sb, lo, 4, (round % 251) as u8);
        if round % 5 == 4 {
            sb.checkpoint().unwrap();
        }
    }
    // Forty rounds of four page images each rolled the log dozens
    // of times, but recycling kept the live tail to a handful of
    // segments and a bounded byte count.
    let segs = sb.wal_segment_count().unwrap();
    assert!(segs <= 8, "live segments unbounded: {segs}");
    let live = sb.wal_live_bytes().unwrap();
    assert!(
        live <= (8 * SEG_BYTES) as u64,
        "live bytes unbounded: {live}"
    );
    let snap = sb.metrics().snapshot();
    assert!(
        snap.get("wal.segments_recycled") > 10,
        "checkpoints recycled almost nothing"
    );
    assert_eq!(snap.get("sbspace.checkpoints"), 8);
    assert_eq!(snap.gauge("wal.live_bytes"), live);

    // The bounded tail still recovers the last committed contents.
    drop(sb);
    let sb2 = reopen(&backend, &wal);
    let t = sb2.begin(IsolationLevel::ReadCommitted);
    let h = sb2.open_lo(&t, lo, LockMode::Shared).unwrap();
    let page = h.read_page(0).unwrap();
    assert_eq!(page[0], 39);
}

#[test]
fn active_transaction_anchors_the_low_water_mark() {
    let (backend, wal) = shared();
    let sb = reopen(&backend, &wal);
    let lo = seed(&sb, 2);
    let other = seed(&sb, 2);

    // `held` starts now: every segment from here on must survive
    // until it finishes, no matter how much churn follows.
    let held = sb.begin(IsolationLevel::ReadCommitted);
    let mut hh = sb.open_lo(&held, lo, LockMode::Exclusive).unwrap();
    hh.write_page(0, &[0xAA; PAGE_SIZE]).unwrap();
    hh.close().unwrap();

    for round in 0..20u32 {
        churn(&sb, other, 2, round as u8);
    }
    sb.checkpoint().unwrap();
    let anchored = sb.wal_segment_count().unwrap();
    assert!(
        anchored > 1,
        "churned segments should be pinned by the live txn"
    );

    held.commit().unwrap();
    sb.checkpoint().unwrap();
    let released = sb.wal_segment_count().unwrap();
    assert!(
        released < anchored,
        "lwm did not advance after the anchor committed: \
         {anchored} -> {released}"
    );

    // The anchored transaction's write is durable across a crash.
    drop(sb);
    let sb2 = reopen(&backend, &wal);
    let t = sb2.begin(IsolationLevel::ReadCommitted);
    let h = sb2.open_lo(&t, lo, LockMode::Shared).unwrap();
    assert_eq!(h.read_page(0).unwrap()[0], 0xAA);
}

#[test]
fn crash_right_after_checkpoint_recovers_identically() {
    let (backend, wal) = shared();
    let sb = reopen(&backend, &wal);
    let lo = seed(&sb, 3);
    churn(&sb, lo, 3, 0x11);
    sb.checkpoint().unwrap();
    // More work lands after the checkpoint; recovery must replay
    // exactly this tail on top of the checkpointed pages.
    churn(&sb, lo, 2, 0x22);
    drop(sb); // crash

    let sb2 = reopen(&backend, &wal);
    let t = sb2.begin(IsolationLevel::ReadCommitted);
    let h = sb2.open_lo(&t, lo, LockMode::Shared).unwrap();
    assert_eq!(h.read_page(0).unwrap()[0], 0x22);
    assert_eq!(h.read_page(2).unwrap()[0], 0x11);
}

#[test]
fn repeated_checkpoint_crash_cycles_are_idempotent() {
    let (backend, wal) = shared();
    let mut sb = reopen(&backend, &wal);
    let lo = seed(&sb, 2);
    for round in 0..6u32 {
        churn(&sb, lo, 2, round as u8);
        sb.checkpoint().unwrap();
        if round % 2 == 1 {
            sb.checkpoint().unwrap(); // back-to-back checkpoints
        }
        drop(sb); // crash after every round
        sb = reopen(&backend, &wal);
    }
    let t = sb.begin(IsolationLevel::ReadCommitted);
    let h = sb.open_lo(&t, lo, LockMode::Shared).unwrap();
    assert_eq!(h.read_page(0).unwrap()[0], 5);
    // Idempotent replay neither leaked a page nor freed a live one:
    // the inode, two live data pages, and everything else free.
    let info = sb.space_info().unwrap();
    assert_eq!(info.total_pages, 1 + 3 + info.free_pages, "{info:?}");
}

/// A WAL whose appends can be made to fail on demand — the "before the
/// checkpoint record is durable" crash window.
struct FlakyWal {
    inner: MemWal,
    fail_appends: AtomicBool,
}

impl WalStore for FlakyWal {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        if self.fail_appends.load(Ordering::SeqCst) {
            return Err(SbError::Io("injected append failure".into()));
        }
        self.inner.append(bytes)
    }
    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
    fn trim(&self, len: u64) -> Result<()> {
        self.inner.trim(len)
    }
    fn read_segment(&self, seg: u64) -> Result<Vec<u8>> {
        self.inner.read_segment(seg)
    }
    fn segments(&self) -> Result<Vec<u64>> {
        self.inner.segments()
    }
    fn active_segment(&self) -> u64 {
        self.inner.active_segment()
    }
    fn roll(&self) -> Result<u64> {
        self.inner.roll()
    }
    fn recycle_below(&self, seg: u64) -> Result<usize> {
        self.inner.recycle_below(seg)
    }
    fn live_bytes(&self) -> Result<u64> {
        self.inner.live_bytes()
    }
    fn appended_total(&self) -> u64 {
        self.inner.appended_total()
    }
}

#[test]
fn failed_checkpoint_record_leaves_previous_checkpoint_authoritative() {
    // The record goes through the one log writer, so the failed append
    // poisons the log: this space can log nothing more, and the only
    // way on is a reopen.
    let backend = Arc::new(MemBackend::new());
    let wal = Arc::new(FlakyWal {
        inner: MemWal::with_segment_bytes(SEG_BYTES),
        fail_appends: AtomicBool::new(false),
    });
    let sb = Sbspace::open_with(Arc::clone(&backend), Arc::clone(&wal), opts()).unwrap();
    let lo = seed(&sb, 3);
    for round in 0..10u32 {
        churn(&sb, lo, 3, round as u8);
    }
    let segs_before = sb.wal_segment_count().unwrap();

    wal.fail_appends.store(true, Ordering::SeqCst);
    let err = sb.checkpoint();
    assert!(matches!(err, Err(SbError::Io(_))), "got {err:?}");
    let snap = sb.metrics().snapshot();
    assert_eq!(snap.get("sbspace.checkpoint_failures"), 1);
    assert_eq!(
        snap.get("wal.segments_recycled"),
        0,
        "a failed checkpoint must never recycle"
    );
    assert_eq!(sb.wal_segment_count().unwrap(), segs_before);

    // Crash with the failed checkpoint in place: the full log is
    // still there, so recovery reproduces every committed write.
    drop(sb);
    wal.fail_appends.store(false, Ordering::SeqCst);
    let sb2 = Sbspace::open_with(Arc::clone(&backend), Arc::clone(&wal), opts()).unwrap();
    let t = sb2.begin(IsolationLevel::ReadCommitted);
    let h = sb2.open_lo(&t, lo, LockMode::Shared).unwrap();
    assert_eq!(h.read_page(0).unwrap()[0], 9);
    drop(h);
    drop(t);

    // Over the healed store the next checkpoint succeeds and
    // recycling resumes.
    sb2.checkpoint().unwrap();
    assert!(sb2.wal_segment_count().unwrap() < segs_before);
}

#[test]
fn snapshot_stranded_retired_batches_recover_as_free_pages() {
    let (backend, wal) = shared();
    let sb = reopen(&backend, &wal);
    let lo = seed(&sb, 4);

    // A snapshot pins the current epoch, then churn retires the
    // object's pages out from under it.
    let snap = sb.snapshot_for(&[lo]).unwrap();
    churn(&sb, lo, 4, 0x33);
    assert!(sb.retired_batches() > 0);

    // A checkpoint while the snapshot is open must keep the batch
    // (the snapshot still reads those pages) but carries the claim
    // into its record so recycling older segments loses nothing.
    sb.checkpoint().unwrap();
    assert!(sb.retired_batches() > 0);
    let r = snap.reader(lo).unwrap();
    assert_eq!(r.read_page(0).unwrap()[0], 0, "snapshot unperturbed");

    // Crash with the snapshot still open: nobody ever reclaimed the
    // batch in this lifetime, yet recovery frees the pages.
    let info_before = sb.space_info().unwrap();
    std::mem::forget(snap); // keep it "open" across the crash
    drop(sb);
    let sb2 = reopen(&backend, &wal);
    let info_after = sb2.space_info().unwrap();
    assert!(
        info_after.free_pages >= info_before.free_pages + 4,
        "retired pages not freed by recovery: {info_before:?} -> {info_after:?} \
        "
    );
    // And the committed churn contents survived.
    let t = sb2.begin(IsolationLevel::ReadCommitted);
    let h = sb2.open_lo(&t, lo, LockMode::Shared).unwrap();
    assert_eq!(h.read_page(3).unwrap()[0], 0x33);
}

#[test]
fn checkpoint_sweeps_batches_once_snapshots_drain() {
    let (backend, wal) = shared();
    let sb = reopen(&backend, &wal);
    let lo = seed(&sb, 4);
    let snap = sb.snapshot_for(&[lo]).unwrap();
    churn(&sb, lo, 4, 0x44);
    assert!(sb.retired_batches() > 0);
    // Dropping the snapshot normally reclaims inline; simulate the
    // "drop-side free never ran" path by forgetting it and closing
    // its registration through another snapshot of a later epoch.
    drop(snap);
    sb.checkpoint().unwrap();
    assert_eq!(sb.retired_batches(), 0, "drained batch not swept");
}

#[test]
fn background_checkpointer_runs_and_shuts_down() {
    let (backend, wal) = shared();
    let sb = Sbspace::open_with(
        Arc::clone(&backend),
        Arc::clone(&wal),
        SbspaceOptions {
            checkpoint_interval: Some(Duration::from_millis(10)),
            ..opts()
        },
    )
    .unwrap();
    let lo = seed(&sb, 3);
    for round in 0..10u32 {
        churn(&sb, lo, 3, round as u8);
        std::thread::sleep(Duration::from_millis(5));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let snap = sb.metrics().snapshot();
        if snap.get("sbspace.checkpoints") > 0 && snap.get("wal.segments_recycled") > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "background checkpointer never ran"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Drop joins the checkpointer; recovery then sees a recycled log.
    drop(sb);
    let sb2 = reopen(&backend, &wal);
    let t = sb2.begin(IsolationLevel::ReadCommitted);
    let h = sb2.open_lo(&t, lo, LockMode::Shared).unwrap();
    assert_eq!(h.read_page(0).unwrap()[0], 9);
}

/// Found by the crash-point sweep (`prop_crash.rs`) on its first
/// uncut run. An inode page is rewritten in place, so a writer can take
/// over a frame holding committed bytes the backend has never seen. Aborting used to discard that frame — and
/// the committed inode with it.
#[test]
fn abort_after_in_place_inode_rewrite_keeps_the_committed_inode() {
    let (backend, wal) = shared();
    let sb = reopen(&backend, &wal);
    let lo = seed(&sb, 1);
    let t = sb.begin(IsolationLevel::ReadCommitted);
    let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
    h.append_page(&[2u8; PAGE_SIZE]).unwrap();
    h.close().unwrap(); // rewrites the inode page in the pool
    t.abort().unwrap();
    let t = sb.begin(IsolationLevel::ReadCommitted);
    let h = sb.open_lo(&t, lo, LockMode::Shared).unwrap();
    assert_eq!(h.page_count(), 1);
}

/// The same takeover, seen by a checkpoint: while the writer owns the
/// frame the checkpoint cannot flush it, yet it may recycle the segment
/// holding the committed inode's redo image. The committed bytes must
/// be on the backend by then, or a crash loses them.
#[test]
fn committed_inode_survives_a_checkpoint_taken_while_a_writer_owns_its_frame() {
    let (backend, wal) = shared();
    let sb = reopen(&backend, &wal);
    let lo = seed(&sb, 1);
    wal.roll().unwrap(); // the writer begins in a later segment
    let t = sb.begin(IsolationLevel::ReadCommitted);
    let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
    h.append_page(&[2u8; PAGE_SIZE]).unwrap();
    h.close().unwrap();
    sb.checkpoint().unwrap();
    assert!(
        !wal.segments().unwrap().contains(&0),
        "the seed's segment should have been recycled"
    );
    std::mem::forget(t); // crash mid-transaction
    drop(sb);
    let sb2 = reopen(&backend, &wal);
    let t = sb2.begin(IsolationLevel::ReadCommitted);
    let h = sb2.open_lo(&t, lo, LockMode::Shared).unwrap();
    assert_eq!(h.page_count(), 1);
}

/// After a failed flush the log tail is suspect: no later record may be
/// written past it, forced or not. An allocation
/// therefore fails up front — before it takes a page from the
/// allocator — instead of stranding an `AllocNote` beyond a torn region.
#[test]
fn allocation_after_a_failed_flush_is_refused_and_writes_nothing() {
    let backend = Arc::new(grt_sbspace::FaultInjector::new(MemBackend::new()));
    let wal = Arc::new(FlakyWal {
        inner: MemWal::with_segment_bytes(SEG_BYTES),
        fail_appends: AtomicBool::new(false),
    });
    let sb = Sbspace::open_with(Arc::clone(&backend), Arc::clone(&wal), opts()).unwrap();
    let lo = seed(&sb, 2);

    wal.fail_appends.store(true, Ordering::SeqCst);
    let t = sb.begin(IsolationLevel::ReadCommitted);
    let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
    h.write_page(0, &[7u8; PAGE_SIZE]).unwrap();
    h.close().unwrap();
    assert!(matches!(t.commit(), Err(SbError::Io(_))));
    wal.fail_appends.store(false, Ordering::SeqCst);

    // The store is healthy again, the log is not: from here every
    // backend write would be a write the log cannot vouch for.
    backend.fail_after(0);
    let log_before = wal.read_all().unwrap();
    let t = sb.begin(IsolationLevel::ReadCommitted);
    let err = sb.create_lo(&t).unwrap_err();
    assert!(
        matches!(&err, SbError::Io(m) if m.contains("wal unavailable")),
        "{err}"
    );
    drop(t);
    assert_eq!(backend.injected(), 0, "a page was written");
    assert_eq!(wal.read_all().unwrap(), log_before);
    assert!(sb.locks_quiescent());
    backend.heal();

    // A reopen replays the sound prefix and trims the rest.
    drop(sb);
    let sb2 = Sbspace::open_with(Arc::clone(&backend), Arc::clone(&wal), opts()).unwrap();
    let t = sb2.begin(IsolationLevel::ReadCommitted);
    let h = sb2.open_lo(&t, lo, LockMode::Shared).unwrap();
    assert_eq!(h.read_page(0).unwrap()[0], 0);
    drop(h);
    drop(t);
    seed(&sb2, 1);
    sb2.space_info().unwrap();
}
