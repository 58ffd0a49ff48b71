//! Multi-session contention stress harness.
//!
//! N sessions run a mixed bitemporal insert / update / delete / scan
//! workload against one GR-tree-indexed table, deliberately provoking
//! lock waits, shared→exclusive upgrade deadlocks (half the sessions
//! run REPEATABLE READ), automatic victim retries, and mid-scan
//! condenses. The harness then checks the engine-level invariants:
//!
//! * no scan ever returns a duplicate row (the Section 5.5
//!   restart-after-condense rule, plus cursor emitted-row memory);
//! * the lock manager is empty at quiesce — no transaction leaked a
//!   lock past its commit or victim abort;
//! * the counters reconcile exactly: statements = issued + retries,
//!   every attempt ran in exactly one transaction that either
//!   committed or aborted, and every abort maps to a failed attempt.
//!
//! A third of the sessions run over the wire: their statements go
//! through a `RemoteDriver` against a loopback `grt-server` sharing
//! the same database, so the TCP/session-pool layer faces the same
//! contention (and the same exact counter reconciliation) as the
//! embedded paths.
//!
//! On top of the mixed workers, a pool of read-only REPEATABLE READ
//! sessions (half of them over the wire) runs explicit transaction
//! blocks on the snapshot path: each block must see one frozen view
//! across all its scans while writers commit and condense underneath,
//! and at quiesce every snapshot must have been released
//! (`snapshots_open` back to zero).
//!
//! Quick by default (CI's `stress-smoke` job); scale with
//! `STRESS_SESSIONS` / `STRESS_OPS`.

use grtree_datablade::blade::{install_grtree_blade, GrTreeAmOptions};
use grtree_datablade::client::{ClientError, Driver, EmbeddedDriver, RemoteDriver};
use grtree_datablade::ids::{Database, DatabaseOptions};
use grtree_datablade::sbspace::SbspaceOptions;
use grtree_datablade::server::{Server, ServerOptions};
use grtree_datablade::temporal::{Day, MockClock};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Deterministic xorshift64* — no external RNG, reproducible per seed.
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

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A handful of valid extents; variety drives splits and condenses.
const EXTENTS: [&str; 4] = [
    "05/18/1997, UC, 05/18/1997, NOW",
    "03/01/1997, UC, 03/01/1997, 09/30/1997",
    "06/10/1997, UC, 06/10/1997, NOW",
    "01/05/1997, UC, 01/05/1997, 12/20/1997",
];

const QUERY: &str = "Overlaps(Time_Extent, '01/01/1997, UC, 01/01/1997, NOW')";

#[derive(Default)]
struct WorkerTally {
    ok: u64,
    failed: u64,
}

#[test]
fn stress_mixed_workload_reconciles() {
    let sessions = env_usize("STRESS_SESSIONS", 8);
    let ops = env_usize("STRESS_OPS", 40);

    // Day 10,100 ≈ late August 1997: safely after every transaction-
    // time begin in `EXTENTS`, so logical updates can close them.
    let clock = MockClock::new(Day(10_100));
    let db = Database::new(DatabaseOptions {
        space: SbspaceOptions {
            pool_pages: 2048,
            lock_timeout: Duration::from_millis(1_000),
            ..Default::default()
        },
        clock: Arc::new(clock),
        deadlock_retries: 10,
        retry_backoff: Duration::from_millis(1),
        ..Default::default()
    });
    install_grtree_blade(&db, GrTreeAmOptions::default()).unwrap();
    let setup = db.connect();
    setup
        .exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    setup
        .exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();

    // A loopback server over the *same* database: remote sessions'
    // statements land in the same counter registry, so the exact
    // reconciliation below covers both paths.
    let mut server = Server::new(db.clone(), ServerOptions::default())
        .start()
        .expect("loopback server");
    let server_addr = server.local_addr().to_string();

    // Connections (and their isolation levels, and any PREPAREs) are
    // set up *before* the metric snapshot: from here on, every
    // statement is auto-commit DML/SELECT and must map 1:1 onto a
    // transaction. Every third session is a wire client.
    let conns: Vec<Box<dyn Driver>> = (0..sessions)
        .map(|i| {
            let conn: Box<dyn Driver> = if i % 3 == 2 {
                Box::new(RemoteDriver::connect(&*server_addr).expect("wire connect"))
            } else {
                Box::new(EmbeddedDriver::connect(&db))
            };
            if i % 2 == 1 {
                conn.exec("SET ISOLATION TO REPEATABLE READ").unwrap();
            }
            // A third of the sessions compile once and execute many:
            // the whole workload goes through PREPARE/EXECUTE handles,
            // racing cached plans against everyone else's ad-hoc
            // statements.
            if i % 3 == 1 {
                conn.exec("PREPARE ins FROM 'INSERT INTO t VALUES (?, ?)'")
                    .unwrap();
                conn.exec("PREPARE upd FROM 'UPDATE t SET Time_Extent = ? WHERE id = ?'")
                    .unwrap();
                conn.exec("PREPARE del FROM 'DELETE FROM t WHERE id = ?'")
                    .unwrap();
                conn.exec(
                    "PREPARE sel FROM 'SELECT id FROM t \
                     WHERE Overlaps(Time_Extent, ?)'",
                )
                .unwrap();
            }
            conn
        })
        .collect();

    // Read-only sessions: explicit REPEATABLE READ blocks that must
    // ride the snapshot path end to end. Half run over the wire. The
    // warmup scan (before the metric snapshot) publishes the heap and
    // index page tables so no later snapshot ever needs a seeding lock.
    setup
        .exec(&format!("SELECT id FROM t WHERE {QUERY}"))
        .unwrap();
    let ro_sessions = (sessions / 2).max(1);
    let ro_blocks = (ops / 8).max(3);
    let ro_conns: Vec<Box<dyn Driver>> = (0..ro_sessions)
        .map(|i| {
            let conn: Box<dyn Driver> = if i % 2 == 1 {
                Box::new(RemoteDriver::connect(&*server_addr).expect("wire connect"))
            } else {
                Box::new(EmbeddedDriver::connect(&db))
            };
            conn.exec("SET ISOLATION TO REPEATABLE READ").unwrap();
            conn
        })
        .collect();
    let before = db.metrics_snapshot();

    let (tallies, ro_tallies): (Vec<WorkerTally>, Vec<(u64, u64)>) = std::thread::scope(|s| {
        // Read-only sessions: `ro_blocks` explicit transaction blocks of
        // three scans each. No statement here may fail — the snapshot
        // path takes no LO-level lock, so there is nothing to contend
        // on — and within one block every scan must return the same
        // rows (repeatable read = the block's pinned frozen view),
        // regardless of what the writers commit in between.
        let ro_handles: Vec<_> = ro_conns
            .iter()
            .enumerate()
            .map(|(w, conn)| {
                s.spawn(move || {
                    let mut stmts = 0u64;
                    for block in 0..ro_blocks {
                        conn.exec("BEGIN WORK").unwrap();
                        stmts += 1;
                        let mut first = None;
                        for _ in 0..3 {
                            let out = conn
                                .exec(&format!("SELECT id FROM t WHERE {QUERY}"))
                                .unwrap();
                            stmts += 1;
                            let ids: Vec<_> = out.rows.iter().map(|row| row[0].clone()).collect();
                            let unique: HashSet<_> = ids.iter().collect();
                            assert_eq!(
                                unique.len(),
                                ids.len(),
                                "ro worker {w} scan returned duplicate rows"
                            );
                            match &first {
                                None => first = Some(ids),
                                Some(f) => assert_eq!(
                                    f, &ids,
                                    "ro worker {w} block {block}: repeatable read drifted"
                                ),
                            }
                        }
                        conn.exec("COMMIT WORK").unwrap();
                        stmts += 1;
                    }
                    (stmts, ro_blocks as u64)
                })
            })
            .collect();
        let handles: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(w, conn)| {
                s.spawn(move || {
                    let mut rng = Rng(0x9e37_79b9 + w as u64);
                    let mut tally = WorkerTally::default();
                    let mut my_ids: Vec<u64> = Vec::new();
                    let prepared = w % 3 == 1;
                    let record = |r: Result<_, ClientError>, tally: &mut WorkerTally| match r {
                        Ok(_) => {
                            tally.ok += 1;
                            true
                        }
                        // Contention losses are allowed (and keep
                        // their exact engine shape across the wire);
                        // anything else is a real bug.
                        Err(e) if e.is_contention() => {
                            tally.failed += 1;
                            false
                        }
                        Err(other) => panic!("worker {w}: unexpected error {other}"),
                    };
                    for op in 0..ops {
                        match rng.below(10) {
                            // 40% inserts
                            0..=3 => {
                                let id = w as u64 * 1_000_000 + op as u64;
                                let e = EXTENTS[rng.below(4) as usize];
                                let sql = if prepared {
                                    format!("EXECUTE ins USING {id}, '{e}'")
                                } else {
                                    format!("INSERT INTO t VALUES ({id}, '{e}')")
                                };
                                if record(conn.exec(&sql), &mut tally) {
                                    my_ids.push(id);
                                }
                            }
                            // 20% updates of an own row
                            4..=5 if !my_ids.is_empty() => {
                                let id = my_ids[rng.below(my_ids.len() as u64) as usize];
                                let e = EXTENTS[rng.below(4) as usize];
                                let sql = if prepared {
                                    format!("EXECUTE upd USING '{e}', {id}")
                                } else {
                                    format!("UPDATE t SET Time_Extent = '{e}' WHERE id = {id}")
                                };
                                record(conn.exec(&sql), &mut tally);
                            }
                            // 20% deletes of an own row (drives condense)
                            6..=7 if !my_ids.is_empty() => {
                                let i = rng.below(my_ids.len() as u64) as usize;
                                let id = my_ids[i];
                                let sql = if prepared {
                                    format!("EXECUTE del USING {id}")
                                } else {
                                    format!("DELETE FROM t WHERE id = {id}")
                                };
                                if record(conn.exec(&sql), &mut tally) {
                                    my_ids.swap_remove(i);
                                }
                            }
                            // the rest: index scans with a duplicate check
                            _ => {
                                let r = if prepared {
                                    conn.exec(
                                        "EXECUTE sel USING \
                                         '01/01/1997, UC, 01/01/1997, NOW'",
                                    )
                                } else {
                                    conn.exec(&format!("SELECT id FROM t WHERE {QUERY}"))
                                };
                                if let Ok(ref out) = r {
                                    let ids: Vec<&_> = out.rows.iter().map(|row| &row[0]).collect();
                                    let unique: HashSet<_> = ids.iter().collect();
                                    assert_eq!(
                                        unique.len(),
                                        ids.len(),
                                        "worker {w} scan returned duplicate rows"
                                    );
                                }
                                record(r, &mut tally);
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        (
            handles.into_iter().map(|h| h.join().unwrap()).collect(),
            ro_handles.into_iter().map(|h| h.join().unwrap()).collect(),
        )
    });

    let issued: u64 = tallies.iter().map(|t| t.ok + t.failed).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    let d = db.metrics_snapshot().since(&before);

    // Zero leaked locks: every transaction released everything.
    assert!(
        db.space().locks_quiescent(),
        "lock manager not empty at quiesce: {} objects locked, {} waiters",
        db.space().locked_objects(),
        db.space().lock_waiters()
    );

    // Counter reconciliation. Each mixed-worker statement ran 1 + (its
    // retries) attempts, each attempt one `ids.statements` tick and
    // exactly one transaction. The read-only sessions add their BEGIN /
    // SELECT / COMMIT statements to the statement count but only one
    // transaction per block — and none of them may ever fail or retry.
    let ro_statements: u64 = ro_tallies.iter().map(|(stmts, _)| *stmts).sum();
    let ro_txns: u64 = ro_tallies.iter().map(|(_, blocks)| *blocks).sum();
    let statements = d.get("ids.statements");
    let retries = d.get("stmt.retries");
    let errors = d.get("ids.statement_errors");
    assert_eq!(
        statements,
        issued + retries + ro_statements,
        "attempt accounting drifted: {d}"
    );
    assert_eq!(
        errors,
        retries + failed,
        "every retry and every surfaced failure is one failed attempt: {d}"
    );
    assert_eq!(
        d.get("sbspace.txn_commits") + d.get("sbspace.txn_aborts"),
        issued + retries + ro_txns,
        "transactions drifted from statement attempts: {d}"
    );
    assert_eq!(
        d.get("sbspace.txn_aborts"),
        errors,
        "victim aborts must match failed attempts: {d}"
    );

    // Snapshot hygiene: the read-only blocks (and every auto-commit
    // scan that rode a statement snapshot) pinned and released their
    // frozen views — none may outlive its statement or block.
    assert!(
        d.get("sbspace.snapshot_reads") >= ro_txns,
        "read-only blocks never reached the snapshot path: {d}"
    );
    assert_eq!(
        db.space().snapshots_open(),
        0,
        "space snapshots leaked past quiesce"
    );

    // Retirement hygiene: the churn superseded published page tables
    // (every committed DML republishes its object's table), and with
    // every snapshot closed a single checkpoint must sweep the whole
    // deferred-reclamation queue — nothing stays stranded behind an
    // epoch that already drained — while the wal.live_bytes gauge
    // tracks the log exactly.
    assert!(
        d.get("sbspace.page_tables_retired") > 0,
        "churn never superseded a published page table: {d}"
    );
    db.space().checkpoint().unwrap();
    assert_eq!(
        db.space().retired_batches(),
        0,
        "retired batches stranded with no snapshot open"
    );
    assert_eq!(
        db.metrics_snapshot().gauge("wal.live_bytes"),
        db.space().wal_live_bytes().unwrap(),
        "wal.live_bytes gauge drifted from the log"
    );

    // The workload must have actually contended — otherwise the
    // harness proves nothing. Waits are guaranteed at 2+ sessions;
    // deadlocks/retries are probabilistic, so only assert that the
    // counters agree with each other (above), not that they are
    // non-zero.
    if sessions > 1 {
        assert!(d.get("lock.waits") > 0, "no lock contention provoked: {d}");
    }

    // Plan-cache reconciliation: every planner decision in this
    // workload runs through a statement handle (named or transparent),
    // so cache hits + misses must account for exactly the planned
    // attempts — and with every worker repeating a handful of
    // statement shapes, the cache must actually be hitting.
    assert_eq!(
        d.get("ids.plan_cache_hits") + d.get("ids.plan_cache_misses"),
        d.get("ids.plans_index") + d.get("ids.plans_seq"),
        "plan-cache accounting drifted from planner decisions: {d}"
    );
    assert!(
        d.get("ids.plan_cache_hits") > 0,
        "repeated statement shapes never hit the plan cache: {d}"
    );

    // Final consistency: a quiesced scan sees each live row once.
    let r = setup
        .exec(&format!("SELECT id FROM t WHERE {QUERY}"))
        .unwrap();
    let ids: Vec<&_> = r.rows.iter().map(|row| &row[0]).collect();
    let unique: HashSet<_> = ids.iter().collect();
    assert_eq!(unique.len(), ids.len(), "final scan returned duplicates");
    setup.exec("CHECK INDEX tix").unwrap();

    // Zero leaked prepared handles: dropping the sessions (and, for
    // the wire third, joining the server workers that reap them)
    // closes every PREPAREd statement they still held.
    drop(conns);
    drop(ro_conns);
    server.shutdown();
    assert_eq!(
        db.prepared_live(),
        0,
        "prepared handles leaked past session drop"
    );
    let m = db.metrics_snapshot();
    assert_eq!(
        m.get("ids.prepared_opened"),
        m.get("ids.prepared_closed"),
        "prepared open/close accounting drifted"
    );
}
