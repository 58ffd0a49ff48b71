//! Multi-session tests: the concurrency regime observed through the
//! engine — read-only statements run on lock-free published snapshots
//! (Section 5.3's LO locks remain for writers only), writers serialize
//! on the whole index, isolation levels pick the snapshot lifetime, and
//! deadlocks are detected rather than hung.

use grtree_datablade::blade::{install_grtree_blade, GrTreeAmOptions};
use grtree_datablade::ids::{Database, DatabaseOptions, IdsError};
use grtree_datablade::sbspace::{IsolationLevel, LockMode, SbError, Sbspace, SbspaceOptions};
use grtree_datablade::temporal::{Day, MockClock};
use std::sync::Arc;
use std::time::Duration;

fn quick_db() -> (Database, MockClock) {
    // deadlock_retries: 0 — these tests assert the *surfaced* error
    // semantics; automatic retry is exercised separately below and in
    // tests/stress_concurrency.rs.
    quick_db_with_retries(0)
}

fn quick_db_with_retries(deadlock_retries: u32) -> (Database, MockClock) {
    let clock = MockClock::new(Day(10_000));
    let db = Database::new(DatabaseOptions {
        space: SbspaceOptions {
            pool_pages: 512,
            lock_timeout: Duration::from_millis(300),
            ..Default::default()
        },
        clock: Arc::new(clock.clone()),
        deadlock_retries,
        retry_backoff: Duration::from_millis(1),
        ..Default::default()
    });
    install_grtree_blade(&db, GrTreeAmOptions::default()).unwrap();
    let conn = db.connect();
    conn.exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    for i in 0..20 {
        conn.exec(&format!(
            "INSERT INTO t VALUES ({i}, '05/18/1997, UC, 05/18/1997, NOW')"
        ))
        .unwrap();
    }
    (db, clock)
}

#[test]
fn concurrent_readers_coexist() {
    let (db, _clock) = quick_db();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let db = db.clone();
            s.spawn(move || {
                let conn = db.connect();
                for _ in 0..10 {
                    let r = conn
                        .exec(
                            "SELECT id FROM t WHERE \
                             Overlaps(Time_Extent, '05/18/1997, UC, 05/18/1997, NOW')",
                        )
                        .unwrap();
                    assert_eq!(r.rows.len(), 20);
                }
            });
        }
    });
}

#[test]
fn open_writer_does_not_block_snapshot_reader() {
    let (db, _clock) = quick_db();
    let writer = db.connect();
    writer.exec("BEGIN WORK").unwrap();
    // The writer's insert takes the X lock on the heap and index LOs
    // and holds it to transaction end (two-phase locking).
    writer
        .exec("INSERT INTO t VALUES (99, '05/18/1997, UC, 05/18/1997, NOW')")
        .unwrap();

    // A read-only statement takes no LO-level lock: it mounts the last
    // published snapshot, so it neither waits on the writer nor sees
    // its uncommitted insert.
    let reader = db.connect();
    let r = reader
        .exec("SELECT id FROM t WHERE Overlaps(Time_Extent, '05/18/1997, UC, 05/18/1997, NOW')")
        .unwrap();
    assert_eq!(r.rows.len(), 20, "uncommitted insert must stay invisible");

    // After commit a fresh statement snapshot sees the new row.
    writer.exec("COMMIT WORK").unwrap();
    let r = reader
        .exec("SELECT id FROM t WHERE Overlaps(Time_Extent, '05/18/1997, UC, 05/18/1997, NOW')")
        .unwrap();
    assert_eq!(r.rows.len(), 21);
    assert_eq!(db.space().snapshots_open(), 0, "statement snapshot leaked");
}

#[test]
fn open_writer_still_blocks_another_writer() {
    let (db, _clock) = quick_db();
    let w1 = db.connect();
    w1.exec("BEGIN WORK").unwrap();
    w1.exec("INSERT INTO t VALUES (99, '05/18/1997, UC, 05/18/1997, NOW')")
        .unwrap();

    // Snapshots are a read-path affair only: writers keep strict 2PL
    // on the LOs, so a second writer times out on the first.
    let w2 = db.connect();
    let err = w2
        .exec("INSERT INTO t VALUES (100, '05/18/1997, UC, 05/18/1997, NOW')")
        .unwrap_err();
    match err {
        IdsError::Storage(SbError::LockTimeout(_)) | IdsError::AccessMethod(_) => {}
        other => panic!("expected a lock timeout, got {other:?}"),
    }

    w1.exec("COMMIT WORK").unwrap();
    w2.exec("INSERT INTO t VALUES (100, '05/18/1997, UC, 05/18/1997, NOW')")
        .unwrap();
    let r = w2.exec("SELECT id FROM t").unwrap();
    assert_eq!(r.rows.len(), 22);
}

#[test]
fn repeatable_read_pins_one_snapshot_and_blocks_no_writers() {
    let (db, _clock) = quick_db();
    let reader = db.connect();
    reader.exec("SET ISOLATION TO REPEATABLE READ").unwrap();
    reader.exec("BEGIN WORK").unwrap();
    let r = reader
        .exec("SELECT id FROM t WHERE Overlaps(Time_Extent, '05/18/1997, UC, 05/18/1997, NOW')")
        .unwrap();
    assert_eq!(r.rows.len(), 20);

    // The read held no shared lock past the statement — or at all: a
    // writer in another session commits immediately instead of timing
    // out on the reader's transaction.
    let writer = db.connect();
    writer
        .exec("INSERT INTO t VALUES (99, '05/18/1997, UC, 05/18/1997, NOW')")
        .unwrap();

    // Repeatable read means exactly that: every statement in the block
    // answers from the snapshot pinned by the first read, so the
    // concurrent commit stays invisible until this transaction ends.
    let r = reader
        .exec("SELECT id FROM t WHERE Overlaps(Time_Extent, '05/18/1997, UC, 05/18/1997, NOW')")
        .unwrap();
    assert_eq!(r.rows.len(), 20, "pinned snapshot saw a later commit");

    reader.exec("COMMIT WORK").unwrap();
    let r = reader
        .exec("SELECT id FROM t WHERE Overlaps(Time_Extent, '05/18/1997, UC, 05/18/1997, NOW')")
        .unwrap();
    assert_eq!(r.rows.len(), 21, "fresh statement must see the commit");
    assert_eq!(db.space().snapshots_open(), 0, "pinned snapshot leaked");
}

#[test]
fn explicit_transaction_reads_its_own_uncommitted_writes() {
    let (db, _clock) = quick_db();
    let conn = db.connect();
    conn.exec("BEGIN WORK").unwrap();
    conn.exec("INSERT INTO t VALUES (99, '05/18/1997, UC, 05/18/1997, NOW')")
        .unwrap();
    // The first write switches the rest of the block to the locked
    // path: later reads run under the transaction's own locks and see
    // its uncommitted rows, not a stale snapshot.
    let r = conn
        .exec("SELECT id FROM t WHERE Overlaps(Time_Extent, '05/18/1997, UC, 05/18/1997, NOW')")
        .unwrap();
    assert_eq!(r.rows.len(), 21, "own write invisible inside the block");
    conn.exec("ROLLBACK WORK").unwrap();
    let r = conn.exec("SELECT id FROM t").unwrap();
    assert_eq!(r.rows.len(), 20);
}

#[test]
fn read_committed_releases_shared_locks_at_statement_end() {
    let (db, _clock) = quick_db();
    let reader = db.connect();
    reader.exec("BEGIN WORK").unwrap();
    reader
        .exec("SELECT id FROM t WHERE Overlaps(Time_Extent, '05/18/1997, UC, 05/18/1997, NOW')")
        .unwrap();
    // Under the default committed-read isolation, the S locks were
    // released when the LOs were closed at statement end — a writer in
    // another session proceeds even though the reader's transaction is
    // still open.
    let writer = db.connect();
    writer
        .exec("INSERT INTO t VALUES (99, '05/18/1997, UC, 05/18/1997, NOW')")
        .unwrap();
    reader.exec("COMMIT WORK").unwrap();
}

#[test]
fn deadlock_is_detected_not_hung() {
    // Raw sbspace sessions arranged into a classic two-object cycle.
    let sb = Sbspace::mem(SbspaceOptions {
        pool_pages: 128,
        lock_timeout: Duration::from_secs(5),
        ..Default::default()
    });
    let setup = sb.begin(IsolationLevel::ReadCommitted);
    let a = sb.create_lo(&setup).unwrap();
    let b = sb.create_lo(&setup).unwrap();
    setup.commit().unwrap();

    let t1 = sb.begin(IsolationLevel::ReadCommitted);
    let t2 = sb.begin(IsolationLevel::ReadCommitted);
    let _h1 = sb.open_lo(&t1, a, LockMode::Exclusive).unwrap();
    let _h2 = sb.open_lo(&t2, b, LockMode::Exclusive).unwrap();
    let sb2 = sb.clone();
    let waiter = std::thread::spawn(move || sb2.open_lo(&t1, b, LockMode::Exclusive).map(|_| t1));
    std::thread::sleep(Duration::from_millis(100));
    let err = sb.open_lo(&t2, a, LockMode::Exclusive).err().unwrap();
    assert!(matches!(err, SbError::Deadlock(_)), "{err}");
    // The victim aborts; the waiter is granted and finishes.
    t2.abort().unwrap();
    let t1 = waiter
        .join()
        .unwrap()
        .expect("waiter granted after victim aborts");
    t1.commit().unwrap();
}

#[test]
fn simultaneous_upgraders_deadlock_and_victim_keeps_shared_lock() {
    // Two transactions hold shared locks on the same LO and race to
    // upgrade: that is an unresolvable cycle of length two, and it must
    // be reported as a deadlock *immediately* — not ridden out to the
    // lock timeout — with the victim's pre-existing shared lock intact
    // until the victim itself decides to abort.
    let sb = Sbspace::mem(SbspaceOptions {
        pool_pages: 128,
        lock_timeout: Duration::from_secs(30),
        ..Default::default()
    });
    let setup = sb.begin(IsolationLevel::ReadCommitted);
    let lo = sb.create_lo(&setup).unwrap();
    setup.commit().unwrap();

    let barrier = std::sync::Barrier::new(2);
    let outcomes: Vec<&str> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let sb = sb.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    let txn = sb.begin(IsolationLevel::RepeatableRead);
                    let _shared = sb.open_lo(&txn, lo, LockMode::Shared).unwrap();
                    barrier.wait();
                    match sb.open_lo(&txn, lo, LockMode::Exclusive) {
                        Ok(_handle) => {
                            assert_eq!(sb.lock_held(&txn, lo), Some(LockMode::Exclusive));
                            txn.commit().unwrap();
                            "granted"
                        }
                        Err(SbError::Deadlock(_)) => {
                            // The failed upgrade did not drop the
                            // shared lock the victim already held.
                            assert_eq!(
                                sb.lock_held(&txn, lo),
                                Some(LockMode::Shared),
                                "victim's shared lock silently dropped"
                            );
                            // Victim abort releases it and unblocks the
                            // surviving upgrader.
                            txn.abort().unwrap();
                            "deadlock"
                        }
                        Err(other) => panic!("expected deadlock, got {other}"),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        outcomes.contains(&"deadlock") && outcomes.contains(&"granted"),
        "expected one victim and one survivor, got {outcomes:?}"
    );
    assert!(sb.locks_quiescent(), "locks leaked after quiesce");
}

#[test]
fn statement_error_aborts_open_transaction_and_poisons_connection() {
    let (db, _clock) = quick_db();
    let conn = db.connect();
    conn.exec("BEGIN WORK").unwrap();
    conn.exec("INSERT INTO t VALUES (50, '05/18/1997, UC, 05/18/1997, NOW')")
        .unwrap();
    // A failing statement aborts the whole transaction...
    assert!(conn.exec("SELECT id FROM missing").is_err());
    // ...releasing its exclusive locks: another session's writer
    // proceeds instead of timing out on the dead transaction's locks.
    let other = db.connect();
    other
        .exec("INSERT INTO t VALUES (51, '05/18/1997, UC, 05/18/1997, NOW')")
        .unwrap();
    // Until the client acknowledges, every statement is refused — it
    // would otherwise silently run outside the transaction the client
    // believes is open.
    let err = conn.exec("SELECT id FROM t").unwrap_err();
    assert!(
        matches!(&err, IdsError::Semantic(m) if m.contains("aborted")),
        "{err:?}"
    );
    assert!(conn.exec("BEGIN WORK").is_err());
    conn.exec("ROLLBACK WORK").unwrap();
    // Usable again; the pre-error insert was rolled back with the rest.
    let r = conn.exec("SELECT id FROM t").unwrap();
    assert_eq!(r.rows.len(), 21, "20 seeded rows + the other session's");
    assert!(db.space().locks_quiescent());
}

#[test]
fn commit_of_poisoned_transaction_reports_the_rollback() {
    let (db, _clock) = quick_db();
    let conn = db.connect();
    conn.exec("BEGIN WORK").unwrap();
    conn.exec("INSERT INTO t VALUES (50, '05/18/1997, UC, 05/18/1997, NOW')")
        .unwrap();
    assert!(conn.exec("SELECT id FROM missing").is_err());
    // COMMIT closes the aborted block but must not pretend it
    // committed.
    let r = conn.exec("COMMIT WORK").unwrap();
    assert!(r.message.contains("rolled back"), "{}", r.message);
    let r = conn.exec("SELECT id FROM t").unwrap();
    assert_eq!(r.rows.len(), 20, "aborted transaction left no rows");
}

#[test]
fn deadlock_victim_statement_succeeds_on_automatic_retry() {
    // Two repeatable-read sessions race UPDATEs over the same table:
    // each takes S on the heap during its scan and upgrades to X for
    // the rewrite, so a simultaneous pair deadlocks. The victim's
    // statement must succeed transparently via the engine's automatic
    // retry — neither client ever sees the deadlock.
    let (db, _clock) = quick_db_with_retries(5);
    let before = db.metrics_snapshot();
    let mut observed_deadlock = false;
    for round in 0..500 {
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for i in 0..2 {
                let db = db.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    let conn = db.connect();
                    conn.exec("SET ISOLATION TO REPEATABLE READ").unwrap();
                    barrier.wait();
                    conn.exec(&format!("UPDATE t SET id = id WHERE id = {i}"))
                        .unwrap_or_else(|e| panic!("round {round} writer {i}: {e}"));
                });
            }
        });
        if db.metrics_snapshot().since(&before).get("lock.deadlocks") > 0 {
            observed_deadlock = true;
            break;
        }
    }
    assert!(observed_deadlock, "no deadlock provoked in 500 rounds");
    let d = db.metrics_snapshot().since(&before);
    assert!(d.get("stmt.retries") >= 1, "victim was not retried: {d}");
    assert!(db.space().locks_quiescent(), "locks leaked after quiesce");
}
