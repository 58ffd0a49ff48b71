//! Crash-recovery tests: a "crash" abandons an `Sbspace` without
//! committing and reopens a new one over the same backend and log.
//!
//! A commit forces the log and writes no data page, so at every crash
//! below the committed data is in the log and, at most, in part on the
//! backend.

use grt_sbspace::wal::{MemWal, WalStore};
use grt_sbspace::{
    FaultInjector, IsolationLevel, LockMode, MemBackend, Result, SbError, Sbspace, SbspaceOptions,
    PAGE_SIZE,
};
use std::sync::Arc;
use std::time::Duration;

fn opts() -> SbspaceOptions {
    SbspaceOptions {
        pool_pages: 64,
        lock_timeout: Duration::from_millis(200),
        ..Default::default()
    }
}

fn shared() -> (Arc<MemBackend>, Arc<MemWal>) {
    (Arc::new(MemBackend::new()), Arc::new(MemWal::new()))
}

fn reopen(backend: &Arc<MemBackend>, wal: &Arc<MemWal>) -> Sbspace {
    Sbspace::open_with(Arc::clone(backend), Arc::clone(wal), opts()).expect("reopen")
}

#[test]
fn committed_data_survives_crash() {
    let (backend, wal) = shared();
    let sb = reopen(&backend, &wal);
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let lo = sb.create_lo(&txn).unwrap();
    let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
    h.write_at(0, b"durable bytes").unwrap();
    h.close().unwrap();
    txn.commit().unwrap();
    drop(sb); // crash (no checkpoint)

    let sb2 = reopen(&backend, &wal);
    let t = sb2.begin(IsolationLevel::ReadCommitted);
    let h = sb2.open_lo(&t, lo, LockMode::Shared).unwrap();
    let mut buf = [0u8; 13];
    h.read_at(0, &mut buf).unwrap();
    assert_eq!(&buf, b"durable bytes");
}

#[test]
fn uncommitted_data_vanishes_after_crash() {
    let (backend, wal) = shared();
    let sb = reopen(&backend, &wal);
    // One committed object as a baseline.
    let t0 = sb.begin(IsolationLevel::ReadCommitted);
    let base = sb.create_lo(&t0).unwrap();
    let mut h = sb.open_lo(&t0, base, LockMode::Exclusive).unwrap();
    h.write_at(0, b"base").unwrap();
    h.close().unwrap();
    t0.commit().unwrap();

    // A transaction that crashes mid-flight.
    let t1 = sb.begin(IsolationLevel::ReadCommitted);
    let doomed = sb.create_lo(&t1).unwrap();
    let mut h = sb.open_lo(&t1, doomed, LockMode::Exclusive).unwrap();
    h.write_at(0, &vec![7u8; 5 * PAGE_SIZE]).unwrap();
    h.close().unwrap();
    std::mem::forget(t1); // crash without abort
    drop(sb);

    let sb2 = reopen(&backend, &wal);
    let t = sb2.begin(IsolationLevel::ReadCommitted);
    // The committed object is intact.
    let hb = sb2.open_lo(&t, base, LockMode::Shared).unwrap();
    let mut buf = [0u8; 4];
    hb.read_at(0, &mut buf).unwrap();
    assert_eq!(&buf, b"base");
    // The uncommitted object never came to exist.
    assert!(sb2.open_lo(&t, doomed, LockMode::Shared).is_err());
}

#[test]
fn crashed_allocations_are_reclaimed() {
    let (backend, wal) = shared();
    let sb = reopen(&backend, &wal);
    let t1 = sb.begin(IsolationLevel::ReadCommitted);
    let doomed = sb.create_lo(&t1).unwrap();
    let mut h = sb.open_lo(&t1, doomed, LockMode::Exclusive).unwrap();
    for _ in 0..10 {
        h.append_page(&[1u8; PAGE_SIZE]).unwrap();
    }
    h.close().unwrap();
    // Allocation notes are queued, not forced: without a later force
    // they would die with the process and the watermark would simply
    // fall back. A bystander's commit makes them — and a header that
    // counts their pages — durable, so recovery has to compensate.
    let t0 = sb.begin(IsolationLevel::ReadCommitted);
    sb.create_lo(&t0).unwrap();
    t0.commit().unwrap();
    std::mem::forget(t1);
    drop(sb);

    // Recovery frees the leaked pages; a new object reuses them
    // instead of extending the space.
    let sb2 = reopen(&backend, &wal);
    let recovered = sb2.space_info().unwrap();
    assert!(
        recovered.free_pages >= 11,
        "leaked pages not back on the free list: {recovered:?}"
    );
    let t2 = sb2.begin(IsolationLevel::ReadCommitted);
    let lo = sb2.create_lo(&t2).unwrap();
    let mut h = sb2.open_lo(&t2, lo, LockMode::Exclusive).unwrap();
    for _ in 0..10 {
        h.append_page(&[2u8; PAGE_SIZE]).unwrap();
    }
    h.close().unwrap();
    t2.commit().unwrap();
    let after = sb2.space_info().unwrap();
    assert_eq!(
        after.total_pages, recovered.total_pages,
        "allocation watermark grew instead of reusing freed pages"
    );
}

#[test]
fn repeated_crashes_are_idempotent() {
    let (backend, wal) = shared();
    for round in 0..5 {
        let sb = reopen(&backend, &wal);
        let t = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&t).unwrap();
        let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
        h.write_at(0, format!("round {round}").as_bytes()).unwrap();
        h.close().unwrap();
        if round % 2 == 0 {
            t.commit().unwrap();
        } else {
            std::mem::forget(t);
        }
        drop(sb); // crash every round
    }
    // The space still opens and works.
    let sb = reopen(&backend, &wal);
    let t = sb.begin(IsolationLevel::ReadCommitted);
    let lo = sb.create_lo(&t).unwrap();
    sb.verify_lo(&t, lo).unwrap();
    t.commit().unwrap();
}

#[test]
fn torn_log_tail_is_survivable() {
    let (backend, wal) = shared();
    let sb = reopen(&backend, &wal);
    let t = sb.begin(IsolationLevel::ReadCommitted);
    let lo = sb.create_lo(&t).unwrap();
    let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
    h.write_at(0, b"ok").unwrap();
    h.close().unwrap();
    t.commit().unwrap();
    drop(sb);
    // Corrupt the log by appending garbage (a torn record).
    wal.append(&[0xde, 0xad, 0xbe]).unwrap();
    let sb2 = reopen(&backend, &wal);
    let t2 = sb2.begin(IsolationLevel::ReadCommitted);
    let h2 = sb2.open_lo(&t2, lo, LockMode::Shared).unwrap();
    let mut buf = [0u8; 2];
    h2.read_at(0, &mut buf).unwrap();
    assert_eq!(&buf, b"ok");
}

#[test]
fn io_fault_surfaces_as_error_not_corruption() {
    let backend = Arc::new(FaultInjector::new(MemBackend::new()));
    let wal = Arc::new(MemWal::new());
    let sb = Sbspace::open_with(Arc::clone(&backend), Arc::clone(&wal), opts()).unwrap();
    let t = sb.begin(IsolationLevel::ReadCommitted);
    let lo = sb.create_lo(&t).unwrap();
    let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
    h.write_at(0, b"before fault").unwrap();
    backend.fail_after(0);
    // Reads now fail loudly...
    let mut sink = [0u8; 4096 * 4];
    let got: Result<usize> = h.read_at(1 << 20, &mut sink);
    let _ = got; // reads within cache may still succeed; force a miss below
    let err = sb.open_lo(&t, lo, LockMode::Exclusive).err();
    backend.heal();
    // ...and after healing everything still works.
    let mut buf = [0u8; 12];
    h.read_at(0, &mut buf).unwrap();
    assert_eq!(&buf, b"before fault");
    drop(err);
}

#[test]
fn file_backed_space_recovers_across_process_style_reopen() {
    let dir = std::env::temp_dir().join(format!("sbspace-recovery-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let lo;
    {
        let sb = Sbspace::file(&dir, opts()).unwrap();
        let t = sb.begin(IsolationLevel::ReadCommitted);
        lo = sb.create_lo(&t).unwrap();
        let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
        h.write_at(0, b"on disk").unwrap();
        h.close().unwrap();
        t.commit().unwrap();
        // No checkpoint: the log still holds the images.
    }
    {
        let sb = Sbspace::file(&dir, opts()).unwrap();
        let t = sb.begin(IsolationLevel::ReadCommitted);
        let h = sb.open_lo(&t, lo, LockMode::Shared).unwrap();
        let mut buf = [0u8; 7];
        h.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"on disk");
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Recovery keeps the log: a second crash replays both epochs
// ---------------------------------------------------------------------

/// Commits an object of `pages` data pages; returns its id.
fn commit_object(sb: &Sbspace, pages: usize, fill: u8) -> grt_sbspace::LoId {
    let t = sb.begin(IsolationLevel::ReadCommitted);
    let lo = sb.create_lo(&t).unwrap();
    let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
    for _ in 0..pages {
        h.append_page(&[fill; PAGE_SIZE]).unwrap();
    }
    h.close().unwrap();
    t.commit().unwrap();
    lo
}

/// Leaves a transaction that allocated `1 + pages` pages unfinished,
/// its `AllocNote`s made durable by a neighbour's commit (which itself
/// keeps one page).
fn leave_a_loser(sb: &Sbspace, pages: usize) {
    let loser = sb.begin(IsolationLevel::ReadCommitted);
    let doomed = sb.create_lo(&loser).unwrap();
    let mut h = sb.open_lo(&loser, doomed, LockMode::Exclusive).unwrap();
    for _ in 0..pages {
        h.append_page(&[0xdd; PAGE_SIZE]).unwrap();
    }
    h.close().unwrap();
    commit_object(sb, 0, 0);
    std::mem::forget(loser);
}

/// Recovery no longer empties the log, so a second recovery reads the
/// first epoch's records beside the second's. It must tell them apart:
/// the first epoch's loser was compensated once (recovery logged its
/// `Abort`) and its pages were reused since; the second epoch's loser
/// is compensated now. With transaction ids restarting at 1 after a
/// reopen, the second loser takes the id of the first — an aborted
/// transaction, as far as the log can tell — and its pages leak.
#[test]
fn second_crash_replays_both_epochs_apart() {
    let (backend, wal) = shared();
    let sb = reopen(&backend, &wal);
    let first = commit_object(&sb, 3, 0x11);
    leave_a_loser(&sb, 2);
    drop(sb); // crash

    let sb = reopen(&backend, &wal);
    let recovered = sb.space_info().unwrap();
    assert_eq!(recovered.free_pages, 3, "the first loser's pages are free");
    // The same pages, reused by a transaction that commits.
    let second = commit_object(&sb, 2, 0x22);
    assert_eq!(
        sb.space_info().unwrap(),
        grt_sbspace::SpaceInfo {
            free_pages: 0,
            ..recovered
        }
    );
    leave_a_loser(&sb, 1);
    drop(sb); // crash

    let sb = reopen(&backend, &wal);
    let t = sb.begin(IsolationLevel::ReadCommitted);
    let mut live = 2; // the two neighbours' inodes
    for (lo, pages, fill) in [(first, 3, 0x11), (second, 2, 0x22)] {
        sb.verify_lo(&t, lo).unwrap();
        let h = sb.open_lo(&t, lo, LockMode::Shared).unwrap();
        assert_eq!(h.page_count(), pages);
        for p in 0..pages {
            assert_eq!(h.read_page(p).unwrap()[0], fill, "{lo} page {p}");
        }
        live += 1 + pages;
    }
    let info = sb.space_info().unwrap();
    assert_eq!(info.free_pages, 2, "the second loser's pages are free");
    assert_eq!(
        info.total_pages,
        1 + live + info.free_pages,
        "a page is neither live nor free: {info:?}"
    );
}

/// An abort gives its pages back before its `Abort` record is forced,
/// and in between another transaction can take one and commit. A crash
/// there leaves a loser one of whose pages has a new, live owner — the
/// later `AllocNote` is the proof that the compensation already
/// happened, and recovery must not free the page a second time.
#[test]
fn loser_whose_page_was_reused_is_not_compensated_again() {
    use grt_sbspace::lo::Inode;
    use grt_sbspace::wal::WalRecord;
    use grt_sbspace::{LoId, TxnId};
    let (backend, wal) = shared();
    drop(reopen(&backend, &wal)); // a created, empty space
    let (loser, owner) = (TxnId(1), TxnId(2));
    let (pid, inode) = Inode::empty().encode(LoId(1)).remove(0);
    let log = [
        WalRecord::AllocNote {
            txn: loser,
            pages: vec![1],
        },
        WalRecord::FreeNote { pages: vec![1] },
        WalRecord::AllocNote {
            txn: owner,
            pages: vec![1],
        },
        WalRecord::PageImage {
            txn: owner,
            pid,
            data: inode,
        },
        WalRecord::Commit { txn: owner },
    ];
    for r in &log {
        wal.append(&r.encode()).unwrap();
    }

    let sb = reopen(&backend, &wal);
    let info = sb.space_info().unwrap();
    assert_eq!((info.total_pages, info.free_pages), (2, 0), "{info:?}");
    let t = sb.begin(IsolationLevel::ReadCommitted);
    assert!(t.id() > owner, "transaction ids continue past the log's");
    sb.open_lo(&t, LoId(1), LockMode::Shared).unwrap();
}

/// A torn tail is cut off before recovery appends its own records:
/// left in place, the garbage would hide them — and every commit of the
/// next epoch — from the next recovery.
#[test]
fn commits_after_a_torn_tail_survive_the_next_crash() {
    use std::io::Write;
    let dir = std::env::temp_dir().join(format!("sbspace-torn-tail-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let first = commit_object(&Sbspace::file(&dir, opts()).unwrap(), 1, 0x11);
    // Tear the tail of the youngest segment.
    let youngest = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .max()
        .unwrap();
    let mut seg = std::fs::OpenOptions::new()
        .append(true)
        .open(youngest)
        .unwrap();
    seg.write_all(&[0xde, 0xad, 0xbe, 0xef, 0x00]).unwrap();
    drop(seg);

    let second = commit_object(&Sbspace::file(&dir, opts()).unwrap(), 1, 0x22);
    // Crash again: the second epoch's commit is only in the log.
    let sb = Sbspace::file(&dir, opts()).unwrap();
    let t = sb.begin(IsolationLevel::ReadCommitted);
    for (lo, fill) in [(first, 0x11), (second, 0x22)] {
        let h = sb.open_lo(&t, lo, LockMode::Shared).unwrap();
        assert_eq!(h.read_page(0).unwrap()[0], fill, "{lo}");
    }
    drop(t);
    drop(sb);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Group-commit crash safety
// ---------------------------------------------------------------------

/// A WAL that, once armed, tears the next append — only the first half
/// of the bytes lands before the append reports failure. Models a
/// partial log write during a group flush.
struct TearingWal {
    inner: MemWal,
    armed: std::sync::atomic::AtomicBool,
}

impl TearingWal {
    fn new() -> TearingWal {
        TearingWal {
            inner: MemWal::new(),
            armed: std::sync::atomic::AtomicBool::new(false),
        }
    }
    fn arm(&self) {
        self.armed.store(true, std::sync::atomic::Ordering::SeqCst);
    }
}

impl WalStore for TearingWal {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        if self.armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
            self.inner.append(&bytes[..bytes.len() / 2]).unwrap();
            return Err(SbError::Io("torn log write".into()));
        }
        self.inner.append(bytes)
    }
    fn sync(&self) -> Result<()> {
        self.inner.sync()
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
    fn trim(&self, len: u64) -> Result<()> {
        self.inner.trim(len)
    }
}

/// A burst of committed transactions sharing log forces fully replays
/// after a crash: the data pages may never have reached the backend, so
/// every byte must come back from the shared log.
#[test]
fn commit_burst_fully_replays_after_crash() {
    let (backend, wal) = shared();
    let sb = reopen(&backend, &wal);
    let setup = sb.begin(IsolationLevel::ReadCommitted);
    let los: Vec<_> = (0..8).map(|_| sb.create_lo(&setup).unwrap()).collect();
    for &lo in &los {
        let h = sb.open_lo(&setup, lo, LockMode::Exclusive).unwrap();
        h.close().unwrap();
    }
    setup.commit().unwrap();

    let barrier = Arc::new(std::sync::Barrier::new(los.len()));
    std::thread::scope(|s| {
        for (i, &lo) in los.iter().enumerate() {
            let (sb, barrier) = (&sb, Arc::clone(&barrier));
            s.spawn(move || {
                let t = sb.begin(IsolationLevel::ReadCommitted);
                let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
                h.write_at(0, format!("txn {i} payload").as_bytes())
                    .unwrap();
                h.close().unwrap();
                barrier.wait(); // commit as one burst, sharing groups
                t.commit().unwrap();
            });
        }
    });
    drop(sb); // crash: no checkpoint, data pages possibly never synced

    let sb2 = reopen(&backend, &wal);
    let t = sb2.begin(IsolationLevel::ReadCommitted);
    for (i, &lo) in los.iter().enumerate() {
        let h = sb2.open_lo(&t, lo, LockMode::Shared).unwrap();
        let want = format!("txn {i} payload");
        let mut buf = vec![0u8; want.len()];
        h.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, want.into_bytes(), "txn {i} lost from the group");
    }
}

/// A reopened space starts with an empty published-page-table
/// registry; the first snapshot over an object seeds it from the
/// on-disk inode and then reads exactly the recovered bytes.
#[test]
fn snapshot_after_reopen_seeds_from_inode() {
    let (backend, wal) = shared();
    let sb = reopen(&backend, &wal);
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let lo = sb.create_lo(&txn).unwrap();
    let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
    h.write_at(0, b"seeded bytes").unwrap();
    h.close().unwrap();
    txn.commit().unwrap();
    drop(sb); // crash (no checkpoint)

    let sb2 = reopen(&backend, &wal);
    let snap = sb2.snapshot_for(&[lo]).unwrap();
    let reader = snap.reader(lo).unwrap();
    assert_eq!(&reader.read_page(0).unwrap()[..12], b"seeded bytes");
    drop(reader);
    drop(snap);
    assert_eq!(sb2.snapshots_open(), 0);
    // A snapshot over a missing object errors (the engine's cue to
    // fall back to the locked path).
    assert!(sb2.snapshot_for(&[grt_sbspace::LoId(9999)]).is_err());
}

/// If the group leader's log write tears mid-batch, every transaction
/// in the batch reports failure and none of their effects survive the
/// crash — the batch is all-or-nothing.
#[test]
fn torn_group_batch_is_fully_absent_after_crash() {
    let backend = Arc::new(MemBackend::new());
    let wal = Arc::new(TearingWal::new());
    let sb = Sbspace::open_with(Arc::clone(&backend), Arc::clone(&wal), opts()).expect("open");

    // A committed baseline object that must survive everything below.
    let t0 = sb.begin(IsolationLevel::ReadCommitted);
    let base = sb.create_lo(&t0).unwrap();
    let mut h = sb.open_lo(&t0, base, LockMode::Exclusive).unwrap();
    h.write_at(0, b"base").unwrap();
    h.close().unwrap();
    t0.commit().unwrap();

    // Objects for the doomed burst, created and pre-sized up front.
    // The burst transactions still allocate at write time (shadow
    // paging copies committed pages out), so the tear is armed only
    // after every write has logged its allocations — it must hit the
    // group batch itself (page images + retire note + commit).
    let setup = sb.begin(IsolationLevel::ReadCommitted);
    let los: Vec<_> = (0..4).map(|_| sb.create_lo(&setup).unwrap()).collect();
    for &lo in &los {
        let mut h = sb.open_lo(&setup, lo, LockMode::Exclusive).unwrap();
        h.append_page(&[0u8; PAGE_SIZE]).unwrap();
        h.close().unwrap();
    }
    setup.commit().unwrap();

    let barrier = Arc::new(std::sync::Barrier::new(los.len() + 1));
    let outcomes: Vec<(usize, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = los
            .iter()
            .enumerate()
            .map(|(i, &lo)| {
                let (sb, barrier) = (&sb, Arc::clone(&barrier));
                s.spawn(move || {
                    let t = sb.begin(IsolationLevel::ReadCommitted);
                    let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
                    h.write_at(0, format!("doomed {i}").as_bytes()).unwrap();
                    h.close().unwrap();
                    barrier.wait(); // writes logged; main thread arms the tear
                    barrier.wait(); // tear armed; commit as one burst
                    (i, t.commit().is_ok())
                })
            })
            .collect();
        barrier.wait(); // every write's allocations are durably logged
        wal.arm(); // the next group flush tears
        barrier.wait();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    drop(sb); // crash

    // Atomicity: a transaction's payload survives recovery if and only
    // if its commit reported success.
    let sb2 = Sbspace::open_with(Arc::clone(&backend), Arc::clone(&wal), opts()).unwrap();
    let t = sb2.begin(IsolationLevel::ReadCommitted);
    let hb = sb2.open_lo(&t, base, LockMode::Shared).unwrap();
    let mut buf = [0u8; 4];
    hb.read_at(0, &mut buf).unwrap();
    assert_eq!(&buf, b"base", "baseline object lost");
    let mut failures = 0;
    for (i, ok) in outcomes {
        let h = sb2.open_lo(&t, los[i], LockMode::Shared).unwrap();
        let want = format!("doomed {i}").into_bytes();
        let mut got = vec![0u8; want.len()];
        let read = h.read_at(0, &mut got).unwrap_or(0);
        let survived = read == want.len() && got == want;
        assert_eq!(
            survived, ok,
            "txn {i}: commit said {ok} but recovery says survived={survived}"
        );
        if !ok {
            failures += 1;
        }
    }
    assert!(failures > 0, "the torn append failed no transaction");
}

/// A page image is logged up to its last non-zero byte. Replay must
/// still write the whole page: the data file may hold a previous
/// owner's bytes where the image's zero tail belongs.
#[test]
fn replay_restores_the_zero_tail_a_page_image_left_out() {
    let (backend, wal) = shared();
    let sb = reopen(&backend, &wal);
    // Eight pages of 0xff reach the data file, then go back to the
    // allocator: the next object is built on top of them.
    let old = commit_object(&sb, 8, 0xff);
    sb.checkpoint().unwrap();
    let t = sb.begin(IsolationLevel::ReadCommitted);
    sb.drop_lo(&t, old).unwrap();
    t.commit().unwrap();

    let mut page = [0u8; PAGE_SIZE];
    page[..3].copy_from_slice(b"abc");
    let before = wal.live_bytes().unwrap();
    let t = sb.begin(IsolationLevel::ReadCommitted);
    let lo = sb.create_lo(&t).unwrap();
    let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
    for _ in 0..4 {
        h.append_page(&page).unwrap();
    }
    h.close().unwrap();
    t.commit().unwrap();
    let logged = wal.live_bytes().unwrap() - before;
    assert!(
        logged < PAGE_SIZE as u64,
        "four part-filled pages and an inode cost the log {logged} bytes"
    );
    drop(sb); // crash: the four pages are in the log only

    let sb2 = reopen(&backend, &wal);
    let t = sb2.begin(IsolationLevel::ReadCommitted);
    let h = sb2.open_lo(&t, lo, LockMode::Shared).unwrap();
    for i in 0..4 {
        let got = h.read_page(i).unwrap();
        let stale = got.iter().filter(|&&b| b == 0xff).count();
        assert!(
            got[..] == page[..],
            "page {i}: {stale} bytes of its last owner"
        );
    }
    sb2.verify_lo(&t, lo).unwrap();
}
