//! Crash recovery under truncate/regrow churn: the workload that
//! exercises the retire → reclaim → reallocate cycle hardest. Every
//! truncation retires tail pages through the epoch queue, every regrow
//! reallocates (possibly the same) pages, and checkpoints interleave
//! their pending-retire capture with both.
//!
//! Regression context: a [`LoId`] is the physical page number of the
//! object's inode, so these tests verify recovery against the ids the
//! seed actually got, never an assumed numbering.

use grt_sbspace::wal::MemWal;
use grt_sbspace::{IsolationLevel, LoId, LockMode, MemBackend, Sbspace, SbspaceOptions, PAGE_SIZE};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic xorshift64* so failures replay exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const LOS: usize = 4;
const PAGES_PER_LO: u32 = 24;

fn opts(pool_pages: usize) -> SbspaceOptions {
    SbspaceOptions {
        pool_pages,
        lock_timeout: Duration::from_secs(10),
        wal_segment_bytes: 16 * 1024,
        ..Default::default()
    }
}

fn seed(sb: &Sbspace) -> Vec<LoId> {
    let mut los = Vec::new();
    for _ in 0..LOS {
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        for p in 0..PAGES_PER_LO {
            h.append_page(&[(p % 251) as u8; PAGE_SIZE]).unwrap();
        }
        h.close().unwrap();
        txn.commit().unwrap();
        los.push(lo);
    }
    los
}

/// One churn transaction: overwrite a few pages, or — every eighth
/// round — truncate the tail and regrow it, retiring pages through the
/// epoch queue and reallocating on the spot.
fn churn_round(sb: &Sbspace, los: &[LoId], rng: &mut Rng, round: u64) {
    let lo = los[rng.below(los.len() as u64) as usize];
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
    if round % 8 == 7 {
        let keep = PAGES_PER_LO - 8;
        h.truncate_pages(keep).unwrap();
        for p in keep..PAGES_PER_LO {
            h.append_page(&[(p ^ round as u32) as u8; PAGE_SIZE])
                .unwrap();
        }
    } else {
        for _ in 0..4 {
            let p = rng.below(PAGES_PER_LO as u64) as u32;
            h.write_page(p, &[(round % 251) as u8; PAGE_SIZE]).unwrap();
        }
    }
    h.close().unwrap();
    txn.commit().unwrap();
}

/// Crash (drop without shutdown) and verify every object recovered
/// whole: full page table, readable pages, and every page of the space
/// either live or free.
fn crash_and_verify(
    backend: Arc<MemBackend>,
    wal: Arc<MemWal>,
    opts: SbspaceOptions,
    los: &[LoId],
) {
    let sb = Sbspace::open_with(backend, wal, opts).unwrap();
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    for &id in los {
        let h = sb.open_lo(&txn, id, LockMode::Shared).unwrap();
        assert_eq!(
            h.page_count(),
            PAGES_PER_LO,
            "{id} page table after recovery"
        );
        h.read_page(0).unwrap();
        h.read_page(PAGES_PER_LO - 1).unwrap();
    }
    drop(txn);
    // A stale checkpoint claim replayed over a reallocated page makes
    // that page free *and* live; a lost compensation makes one neither.
    let info = sb.space_info().unwrap();
    let live = LOS as u32 * (1 + PAGES_PER_LO);
    assert_eq!(info.total_pages, 1 + live + info.free_pages, "{info:?}");
}

#[test]
fn truncate_churn_crash_recovers_with_and_without_pool_pressure() {
    for pool in [32usize, 256] {
        let backend = Arc::new(MemBackend::new());
        let wal = Arc::new(MemWal::with_segment_bytes(16 * 1024));
        let sb = Sbspace::open_with(Arc::clone(&backend), Arc::clone(&wal), opts(pool)).unwrap();
        let los = seed(&sb);
        let mut rng = Rng(0xdead_beef);
        for round in 0..64 {
            churn_round(&sb, &los, &mut rng, round);
        }
        drop(sb);
        crash_and_verify(backend, wal, opts(pool), &los);
    }
}

#[test]
fn truncate_churn_with_checkpoints_crash_recovers() {
    let backend = Arc::new(MemBackend::new());
    let wal = Arc::new(MemWal::with_segment_bytes(16 * 1024));
    let sb = Sbspace::open_with(Arc::clone(&backend), Arc::clone(&wal), opts(32)).unwrap();
    let los = seed(&sb);
    let mut rng = Rng(0xfeed_face);
    for round in 0..200 {
        churn_round(&sb, &los, &mut rng, round);
        if round % 5 == 4 {
            sb.checkpoint().unwrap();
        }
    }
    assert!(
        sb.metrics().snapshot().get("wal.segments_recycled") > 0,
        "churn this size must have recycled segments"
    );
    drop(sb);
    crash_and_verify(backend, wal, opts(32), &los);
}

/// Checkpoints racing snapshot drops racing truncate/regrow churn: the
/// capture-to-durable window of every checkpoint record must exclude
/// batch reclamation (the retire guard), or a claim for pages already
/// reallocated could land after their `AllocNote` and replay as a
/// double free. Crash at the end and verify.
#[test]
fn concurrent_checkpoints_snapshots_and_churn_then_crash() {
    let backend = Arc::new(MemBackend::new());
    let wal = Arc::new(MemWal::with_segment_bytes(16 * 1024));
    let sb = Sbspace::open_with(Arc::clone(&backend), Arc::clone(&wal), opts(64)).unwrap();
    let los = seed(&sb);
    let stop = Arc::new(AtomicBool::new(false));

    let ckpt = {
        let sb = sb.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                sb.checkpoint().unwrap();
            }
        })
    };
    let snaps = {
        let sb = sb.clone();
        let stop = Arc::clone(&stop);
        let ids = los.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                // Open over the whole set, read a page, drop — each drop
                // runs batch reclamation against in-flight checkpoints.
                let snap = sb.snapshot_for(&ids).unwrap();
                let _ = snap.reader(ids[0]).and_then(|r| r.read_page(0));
            }
        })
    };
    let mut rng = Rng(0x0bad_cafe);
    for round in 0..400 {
        churn_round(&sb, &los, &mut rng, round);
    }
    stop.store(true, Ordering::Relaxed);
    ckpt.join().unwrap();
    snaps.join().unwrap();
    drop(sb);
    crash_and_verify(backend, wal, opts(64), &los);
}
