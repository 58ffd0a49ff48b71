//! `Sbspace::drop_page_cache` empties the cache of what the backend
//! also holds, and of nothing else: a frame that is the only copy of
//! its bytes is never thrown away.

use grt_sbspace::{IsolationLevel, LockMode, Sbspace, SbspaceOptions, PAGE_SIZE};

#[test]
fn drop_page_cache_keeps_commits_the_backend_has_not_seen() {
    // A commit leaves its pages committed-dirty in the pool; until a
    // checkpoint the backend has never seen them.
    let sb = Sbspace::mem(SbspaceOptions::default());
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let lo = sb.create_lo(&txn).unwrap();
    let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
    h.append_page(&[7u8; PAGE_SIZE]).unwrap();
    h.close().unwrap();
    txn.commit().unwrap();

    sb.drop_page_cache();

    let before = sb.stats().snapshot();
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let h = sb.open_lo(&txn, lo, LockMode::Shared).unwrap();
    assert_eq!(&h.read_page_pinned(0).unwrap()[..], &[7u8; PAGE_SIZE][..]);
    let read = sb.stats().snapshot().since(&before);
    assert!(
        read.physical_reads >= 2,
        "inode and data page came from the backend, not a surviving frame: {read}"
    );
}

#[test]
fn drop_page_cache_keeps_an_open_transactions_writes() {
    let sb = Sbspace::mem(SbspaceOptions::default());
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let lo = sb.create_lo(&txn).unwrap();
    let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
    h.append_page(&[9u8; PAGE_SIZE]).unwrap();

    sb.drop_page_cache();

    assert_eq!(&h.read_page_pinned(0).unwrap()[..], &[9u8; PAGE_SIZE][..]);
    h.close().unwrap();
    txn.commit().unwrap();
}
