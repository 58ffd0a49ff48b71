//! Kill -9 soak: a churn workload over a file-backed dataset much
//! larger than the buffer pool, with the background fuzzy checkpointer
//! recycling segments underneath it.
//!
//! ```text
//! cargo run --release -p grt-bench --bin soak -- --churn-dir DIR
//! cargo run --release -p grt-bench --bin soak -- --recover-dir DIR
//! ```
//!
//! `--churn-dir` churns a space in `DIR` until killed — CI's
//! `soak-smoke` job SIGKILLs it mid-churn — and `--recover-dir` then
//! reopens `DIR`, timing recovery and verifying every seeded object is
//! readable. Repeated kill/recover cycles must keep succeeding: replay
//! is idempotent. A separate process killed by the kernel is the one
//! crash the `spine` benchmark (which drops its database in-process)
//! does not stage; WAL boundedness under churn is measured there
//! (`dml_durable`: `sbspace.wal_live_mb_max`,
//! `sbspace.segments_recycled`, `recovery_s`).

use grt_sbspace::{IsolationLevel, LoId, LockMode, Sbspace, SbspaceOptions, PAGE_SIZE};
use std::time::{Duration, Instant};

/// Objects in the working set. A [`LoId`] is the physical page number
/// of the object's inode, so ids depend on allocation order — the seed
/// phase records them (in a `los.txt` manifest) rather than assuming a
/// numbering.
const LOS: u32 = 8;
/// Pages per object — 8 × 96 = 768 data pages against a 128-page pool,
/// so the working set never fits and eviction churns continuously.
const PAGES_PER_LO: u32 = 96;
const POOL_PAGES: usize = 128;
const SEG_BYTES: usize = 64 * 1024;

/// Deterministic xorshift64* — identical churn on every run.
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

fn opts(checkpoint: bool) -> SbspaceOptions {
    SbspaceOptions {
        pool_pages: POOL_PAGES,
        lock_timeout: Duration::from_secs(10),
        wal_segment_bytes: SEG_BYTES,
        checkpoint_interval: checkpoint.then(|| Duration::from_millis(20)),
        ..Default::default()
    }
}

/// Seeds the working set: LOS objects of PAGES_PER_LO pages each.
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

/// One churn transaction: rewrite a few pages of one object (UPDATE),
/// and every eighth round shrink-and-regrow it (DELETE + INSERT), the
/// truncation retiring its tail pages through the epoch queue.
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

/// A [`LoId`] is a physical page number, so the ids the seed phase got
/// must survive the process: they live in a `los.txt` manifest next to
/// the space, one id per line, written after the seed commits.
fn read_manifest(path: &std::path::Path) -> Vec<LoId> {
    std::fs::read_to_string(path.join("los.txt"))
        .expect("missing los.txt manifest — was this directory seeded by soak --churn-dir?")
        .lines()
        .map(|l| LoId(l.trim().parse().expect("bad id in los.txt")))
        .collect()
}

/// File-backed churn until killed (CI sends SIGKILL mid-flight). The
/// seed phase is skipped when the directory already holds a space, so
/// repeated kill/recover/churn cycles keep growing the same dataset.
fn churn_dir(dir: &str) {
    let path = std::path::Path::new(dir);
    let fresh = !path.join("pages.db").exists();
    let sb = Sbspace::file(path, opts(true)).unwrap();
    let los: Vec<LoId> = if fresh {
        let los = seed(&sb);
        let manifest: String = los.iter().map(|lo| format!("{}\n", lo.0)).collect();
        std::fs::write(path.join("los.txt"), manifest).unwrap();
        los
    } else {
        read_manifest(path)
    };
    println!("soak: churning in {dir} (fresh={fresh}); kill -9 at will");
    let mut rng = Rng(0xfeed_face);
    for round in 0..u64::MAX {
        churn_round(&sb, &los, &mut rng, round);
        if round % 50 == 49 {
            println!(
                "soak: round {} live_bytes {} segments {}",
                round + 1,
                sb.wal_live_bytes().unwrap(),
                sb.wal_segment_count().unwrap()
            );
        }
    }
}

/// Reopens a killed churn directory: times recovery, verifies every
/// seeded object, and bounds the surviving log.
fn recover_dir(dir: &str) {
    let path = std::path::Path::new(dir);
    let los = read_manifest(path);
    let t0 = Instant::now();
    let sb = Sbspace::file(path, opts(false)).unwrap();
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let mut live = 0;
    for &id in &los {
        let h = sb.open_lo(&txn, id, LockMode::Shared).unwrap();
        assert!(
            h.page_count() >= PAGES_PER_LO - 8,
            "{id} lost pages in recovery"
        );
        for p in 0..h.page_count().min(4) {
            h.read_page(p).unwrap();
        }
        live += 1 + h.page_count(); // the inode and its direct pages
    }
    drop(txn);
    let info = sb.space_info().unwrap();
    assert_eq!(
        info.total_pages,
        1 + live + info.free_pages,
        "a page is neither live nor free, or both: {info:?}"
    );
    let live = sb.wal_live_bytes().unwrap();
    println!(
        "{{\"recover\": {{\"recovery_ms\": {recovery_ms:.2}, \"wal_live_bytes\": {live}, \
         \"verified_los\": {LOS}}}}}"
    );
    assert!(
        recovery_ms < 30_000.0,
        "recovery took {recovery_ms:.0} ms — replaying far too much log"
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    match (args.next().as_deref(), args.next(), args.next()) {
        (Some("--churn-dir"), Some(dir), None) => churn_dir(&dir),
        (Some("--recover-dir"), Some(dir), None) => recover_dir(&dir),
        _ => {
            eprintln!("usage: soak --churn-dir DIR | --recover-dir DIR");
            std::process::exit(2);
        }
    }
}
