//! Failure injection through the whole stack: backend I/O faults during
//! DML must fail the statement, roll the transaction back, and leave
//! both heap and GR-tree consistent.

use grt_sbspace::wal::MemWal;
use grt_sbspace::{
    FaultInjector, IsolationLevel, LockMode, MemBackend, Sbspace, SbspaceOptions, PAGE_SIZE,
};
use grtree_datablade::blade::{install_grtree_blade, GrTreeAmOptions};
use grtree_datablade::grtree::GrTreeOptions;
use grtree_datablade::ids::Database;
use grtree_datablade::temporal::{Day, MockClock};
use std::sync::Arc;

fn faulty_db() -> (Database, Arc<FaultInjector<MemBackend>>, MockClock) {
    faulty_db_opts(SbspaceOptions::default())
}

fn faulty_db_opts(opts: SbspaceOptions) -> (Database, Arc<FaultInjector<MemBackend>>, MockClock) {
    let backend = Arc::new(FaultInjector::new(MemBackend::new()));
    let wal = Arc::new(MemWal::with_segment_bytes(opts.wal_segment_bytes));
    let space = Sbspace::open_with(Arc::clone(&backend), wal, opts).unwrap();
    let clock = MockClock::new(Day(10_000));
    let db = Database::with_space(space, Arc::new(clock.clone()));
    install_grtree_blade(
        &db,
        GrTreeAmOptions {
            tree: GrTreeOptions {
                max_entries: 6,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    (db, backend, clock)
}

#[test]
fn io_fault_mid_statement_rolls_back_cleanly() {
    let (db, backend, clock) = faulty_db();
    let conn = db.connect();
    conn.exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    for i in 0..60i32 {
        clock.set(Day(10_000 + i));
        let (y, m, d) = Day(10_000 + i).to_ymd();
        conn.exec(&format!(
            "INSERT INTO t VALUES ({i}, '{m:02}/{d:02}/{y}, UC, {m:02}/{d:02}/{y}, NOW')"
        ))
        .unwrap();
    }
    let before = conn.exec("SELECT id FROM t").unwrap().rows.len();

    // Break the disk mid-flight: some statement soon fails.
    backend.fail_after(10);
    let mut failures = 0;
    for i in 100..120i32 {
        let (y, m, d) = Day(10_150).to_ymd();
        if conn
            .exec(&format!(
                "INSERT INTO t VALUES ({i}, '{m:02}/{d:02}/{y}, UC, {m:02}/{d:02}/{y}, NOW')"
            ))
            .is_err()
        {
            failures += 1;
        }
    }
    assert!(failures > 0, "the injected fault must surface");
    backend.heal();

    // Every failed statement rolled back atomically: the table and the
    // index agree, and the index passes its consistency check.
    let rows = conn.exec("SELECT id FROM t").unwrap().rows.len();
    let via_index = conn
        .exec(
            "SELECT id FROM t WHERE Overlaps(Time_Extent, \
             '01/01/1997, UC, 01/01/1997, NOW')",
        )
        .unwrap()
        .rows
        .len();
    assert_eq!(rows, via_index, "heap and index diverged after faults");
    assert!(rows >= before, "committed rows must survive");
    conn.exec("CHECK INDEX tix").unwrap();

    // And the system keeps working after healing.
    clock.set(Day(10_200));
    conn.exec("INSERT INTO t VALUES (999, '10/01/1997, UC, 10/01/1997, NOW')")
        .unwrap();
    let after = conn.exec("SELECT id FROM t").unwrap().rows.len();
    assert_eq!(after, rows + 1);
}

/// Every counter in the unified registry must reconcile across a fault
/// window: each auto-commit statement ends exactly one transaction (as
/// a commit or an abort), statement errors are counted, and every
/// failed statement traces back to at least one injected fault.
#[test]
fn metrics_reconcile_across_aborted_transactions() {
    let (db, backend, clock) = faulty_db();
    let conn = db.connect();
    conn.exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    for i in 0..30i32 {
        clock.set(Day(10_000 + i));
        let (y, m, d) = Day(10_000 + i).to_ymd();
        conn.exec(&format!(
            "INSERT INTO t VALUES ({i}, '{m:02}/{d:02}/{y}, UC, {m:02}/{d:02}/{y}, NOW')"
        ))
        .unwrap();
    }

    let base = db.metrics_snapshot();
    let injected_base = backend.injected();
    backend.fail_after(10);
    let statements = 20u64;
    let mut failures = 0u64;
    for i in 100..120i32 {
        let (y, m, d) = Day(10_150).to_ymd();
        if conn
            .exec(&format!(
                "INSERT INTO t VALUES ({i}, '{m:02}/{d:02}/{y}, UC, {m:02}/{d:02}/{y}, NOW')"
            ))
            .is_err()
        {
            failures += 1;
        }
    }
    backend.heal();
    let d = db.metrics_snapshot().since(&base);

    assert!(failures > 0, "the injected fault must surface");
    assert_eq!(d.get("ids.statements"), statements);
    assert_eq!(d.get("ids.statement_errors"), failures);
    // Exactly one transaction outcome per auto-commit statement. A
    // statement failing after its commit record became durable counts
    // as a commit plus a statement error, so aborts can undercount
    // failures but commits + aborts never drift from the statements.
    assert_eq!(
        d.get("sbspace.txn_commits") + d.get("sbspace.txn_aborts"),
        statements,
        "transaction outcomes drifted from statements: {d}"
    );
    assert!(d.get("sbspace.txn_aborts") <= failures);
    assert!(d.get("sbspace.txn_commits") >= statements - failures);
    // The failures trace back to the injector (one injected fault can
    // cascade into several statement failures, so no exact equality).
    let injected = backend.injected() - injected_base;
    assert!(injected > 0, "statements failed without an injected fault");
}

/// A rolled-back write is counted once. An abort does pay a fixed
/// compensation cost (freed pages go back to the allocator), but it
/// must be exactly that: identical aborted transactions yield identical
/// counter deltas, and a commit costs the same whether or not aborts
/// ran in between — nothing leaks or double-counts across rollback.
#[test]
fn rollback_does_not_double_count_writes() {
    let (db, _backend, _clock) = faulty_db();
    let sb = db.space();

    let measure = |commit: bool| -> (u64, u64) {
        let before = db.metrics_snapshot();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        h.append_page(&[7u8; PAGE_SIZE]).unwrap();
        h.close().unwrap();
        if commit {
            txn.commit().unwrap();
        } else {
            txn.abort().unwrap();
        }
        let d = db.metrics_snapshot().since(&before);
        (d.get("sbspace.logical_writes"), d.get("sbspace.txn_aborts"))
    };

    let (commit_before, ca) = measure(true);
    let (abort_first, aa1) = measure(false);
    let (abort_second, aa2) = measure(false);
    let (commit_after, cb) = measure(true);
    assert_eq!((ca, cb), (0, 0));
    assert_eq!((aa1, aa2), (1, 1), "each rollback is counted exactly once");
    assert_eq!(
        abort_first, abort_second,
        "identical aborted transactions logged different write counts"
    );
    assert_eq!(
        commit_before, commit_after,
        "a commit after rollbacks costs more than one before — aborted \
         work leaked into the write counters"
    );
    assert!(
        abort_first < 2 * commit_before,
        "abort compensation rewrote the transaction's own writes: \
         {abort_first} vs {commit_before} committed"
    );
}

/// An I/O fault during the checkpoint's data flush must fail that
/// checkpoint and nothing else: no WAL segment is recycled (the
/// previous checkpoint stays authoritative, so recovery can still
/// replay everything), committed data stays readable, and the next
/// checkpoint after healing succeeds and resumes recycling.
#[test]
fn checkpoint_flush_fault_keeps_previous_checkpoint_authoritative() {
    let (db, backend, clock) = faulty_db_opts(SbspaceOptions {
        wal_segment_bytes: 8 * 1024,
        ..Default::default()
    });
    let conn = db.connect();
    conn.exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    for i in 0..40i32 {
        clock.set(Day(10_000 + i));
        let (y, m, d) = Day(10_000 + i).to_ymd();
        conn.exec(&format!(
            "INSERT INTO t VALUES ({i}, '{m:02}/{d:02}/{y}, UC, {m:02}/{d:02}/{y}, NOW')"
        ))
        .unwrap();
    }
    let sb = db.space();
    let segs_before = sb.wal_segment_count().unwrap();
    assert!(segs_before > 1, "churn should have rolled segments");

    let base = db.metrics_snapshot();
    backend.fail_after(1);
    assert!(sb.checkpoint().is_err(), "flush fault must surface");
    backend.heal();
    let d = db.metrics_snapshot().since(&base);
    assert_eq!(d.get("sbspace.checkpoint_failures"), 1);
    assert_eq!(d.get("sbspace.checkpoints"), 0);
    assert_eq!(
        d.get("wal.segments_recycled"),
        0,
        "a failed checkpoint must never recycle segments"
    );
    assert_eq!(
        sb.wal_segment_count().unwrap(),
        segs_before,
        "WAL must be intact after a failed checkpoint"
    );

    // Committed data is still all there, and the engine keeps working.
    assert_eq!(conn.exec("SELECT id FROM t").unwrap().rows.len(), 40);
    conn.exec("CHECK INDEX tix").unwrap();

    // Healed, the retry succeeds and recycling resumes.
    sb.checkpoint().unwrap();
    let d = db.metrics_snapshot().since(&base);
    assert_eq!(d.get("sbspace.checkpoints"), 1);
    assert!(
        sb.wal_segment_count().unwrap() < segs_before,
        "the healed checkpoint should recycle the replayed prefix"
    );
    assert_eq!(conn.exec("SELECT id FROM t").unwrap().rows.len(), 40);
}

/// A commit is one log force and no backend I/O: with every backend
/// call set to fail, a commit on a pool that fits still succeeds and the
/// injector is never reached. The checkpoint is what writes the data
/// file, so the same fault fails the checkpoint — and only that: no lock
/// is left behind, the healed retry succeeds, and a reopen reads the
/// last committed write.
#[test]
fn commit_never_touches_the_backend() {
    let backend = Arc::new(FaultInjector::new(MemBackend::new()));
    let wal = Arc::new(MemWal::new());
    let opts = SbspaceOptions::default();
    let sb = Sbspace::open_with(Arc::clone(&backend), Arc::clone(&wal), opts.clone()).unwrap();
    let t = sb.begin(IsolationLevel::ReadCommitted);
    let lo = sb.create_lo(&t).unwrap();
    let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
    h.append_page(&[1u8; PAGE_SIZE]).unwrap();
    h.close().unwrap();
    t.commit().unwrap();

    for fill in [2u8, 3] {
        let t = sb.begin(IsolationLevel::ReadCommitted);
        let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
        h.write_page(0, &[fill; PAGE_SIZE]).unwrap();
        h.close().unwrap();
        backend.fail_after(0);
        t.commit().expect("a commit does no backend I/O to fail");
        assert_eq!(backend.injected(), 0, "the commit reached the backend");
        backend.heal();
    }
    let info = sb.space_info().unwrap();

    let base = sb.metrics().snapshot();
    backend.fail_after(0);
    let err = sb.checkpoint();
    assert!(
        matches!(err, Err(grt_sbspace::SbError::Io(_))),
        "the flush fault must surface: {err:?}"
    );
    assert!(backend.injected() > 0);
    backend.heal();
    let d = sb.metrics().snapshot().since(&base);
    assert_eq!(d.get("sbspace.checkpoint_failures"), 1);
    assert!(sb.locks_quiescent(), "a failed checkpoint leaked a lock");
    sb.checkpoint().unwrap();

    drop(sb);
    let sb2 = Sbspace::open_with(Arc::clone(&backend), Arc::clone(&wal), opts).unwrap();
    let t = sb2.begin(IsolationLevel::ReadCommitted);
    let h = sb2.open_lo(&t, lo, LockMode::Shared).unwrap();
    assert_eq!(h.read_page(0).unwrap()[0], 3);
    assert_eq!(sb2.space_info().unwrap().total_pages, info.total_pages);
}
