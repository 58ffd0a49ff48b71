//! Cross-crate integration tests: big SQL workloads through the blade,
//! equivalence across access paths, and index-level crash recovery.

use grtree_datablade::blade::{install_grtree_blade, install_rstar_blade, GrTreeAmOptions};
use grtree_datablade::grtree::{GrTree, GrTreeOptions};
use grtree_datablade::ids::{Database, DatabaseOptions, Value};
use grtree_datablade::rstar::bitemporal::NowStrategy;
use grtree_datablade::rstar::RStarOptions;
use grtree_datablade::sbspace::{IsolationLevel, LockMode, Sbspace, SbspaceOptions};
use grtree_datablade::temporal::{Day, MockClock, Predicate, TimeExtent};
use grtree_datablade::workload::{History, HistoryEvent, HistoryParams};
use std::sync::Arc;

fn date(day: Day) -> String {
    let (y, m, d) = day.to_ymd();
    format!("{m:02}/{d:02}/{y:04}")
}

fn extent_sql(e: &TimeExtent) -> String {
    e.to_string()
}

#[test]
fn workload_through_sql_matches_oracle() {
    let clock = MockClock::new(Day(10_000));
    let db = Database::new(DatabaseOptions {
        clock: Arc::new(clock.clone()),
        ..Default::default()
    });
    install_grtree_blade(
        &db,
        GrTreeAmOptions {
            tree: GrTreeOptions {
                max_entries: 8,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    install_rstar_blade(
        &db,
        NowStrategy::MaxTimestamp,
        RStarOptions {
            max_entries: 8,
            ..Default::default()
        },
    )
    .unwrap();
    let conn = db.connect();
    for t in ["w_grt", "w_rst"] {
        conn.exec(&format!(
            "CREATE TABLE {t} (id integer, Time_Extent GRT_TimeExtent_t)"
        ))
        .unwrap();
    }
    conn.exec("CREATE INDEX wg ON w_grt(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    conn.exec("CREATE INDEX wr ON w_rst(Time_Extent rstar_opclass) USING rstar_am")
        .unwrap();

    // Replay a generated history through SQL against both blades while
    // keeping an in-memory oracle.
    let h = History::generate(HistoryParams {
        inserts: 250,
        delete_rate: 0.3,
        seed: 21,
        ..Default::default()
    });
    let mut oracle: std::collections::HashMap<u64, TimeExtent> = Default::default();
    for (day, ev) in &h.events {
        clock.set(*day);
        match ev {
            HistoryEvent::Insert { id, extent } => {
                for t in ["w_grt", "w_rst"] {
                    conn.exec(&format!(
                        "INSERT INTO {t} VALUES ({id}, '{}')",
                        extent_sql(extent)
                    ))
                    .unwrap();
                }
                oracle.insert(*id, *extent);
            }
            HistoryEvent::LogicalDelete { id, new, .. } => {
                for t in ["w_grt", "w_rst"] {
                    conn.exec(&format!(
                        "UPDATE {t} SET Time_Extent = '{}' WHERE id = {id}",
                        extent_sql(new)
                    ))
                    .unwrap();
                }
                oracle.insert(*id, *new);
            }
        }
    }

    for probe_day in [h.end, h.end.plus(500)] {
        clock.set(probe_day);
        let windows = [
            (h.params.start.plus(100), 40, h.params.start.plus(80), 60),
            (h.end.plus(-50), 100, h.end.plus(-200), 300),
        ];
        for (tb, tspan, vb, vspan) in windows {
            let q = format!(
                "Overlaps(Time_Extent, '{}, {}, {}, {}')",
                date(tb),
                date(tb.plus(tspan)),
                date(vb),
                date(vb.plus(vspan))
            );
            let query_extent = TimeExtent::parse(&format!(
                "{}, {}, {}, {}",
                date(tb),
                date(tb.plus(tspan)),
                date(vb),
                date(vb.plus(vspan))
            ))
            .unwrap();
            let mut expected: Vec<i64> = oracle
                .iter()
                .filter(|(_, e)| Predicate::Overlaps.eval(e, &query_extent, probe_day))
                .map(|(id, _)| *id as i64)
                .collect();
            expected.sort_unstable();
            for t in ["w_grt", "w_rst"] {
                let r = conn.exec(&format!("SELECT id FROM {t} WHERE {q}")).unwrap();
                let mut got: Vec<i64> = r
                    .rows
                    .iter()
                    .map(|row| match &row[0] {
                        Value::Int(i) => *i,
                        other => panic!("{other}"),
                    })
                    .collect();
                got.sort_unstable();
                assert_eq!(got, expected, "{t} at {probe_day:?}: {q}");
            }
        }
    }
    conn.exec("CHECK INDEX wg").unwrap();
    conn.exec("CHECK INDEX wr").unwrap();
}

#[test]
fn grtree_survives_crash_recovery_in_file_space() {
    let dir = std::env::temp_dir().join(format!("grt-recovery-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ct = Day(12_000);
    let opts = SbspaceOptions::default();
    let lo_id;
    {
        let sb = Sbspace::file(&dir, opts.clone()).unwrap();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        lo_id = lo;
        let handle = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        let mut tree = GrTree::create(
            handle,
            GrTreeOptions {
                max_entries: 8,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..200i32 {
            let e = TimeExtent::insert(
                ct,
                Day(12_000 - i % 50),
                grtree_datablade::temporal::VtEnd::Now,
            )
            .unwrap();
            tree.insert(e, i as u64, ct).unwrap();
        }
        tree.into_lo().unwrap().close().unwrap();
        txn.commit().unwrap();

        // An uncommitted transaction is in flight when we "crash".
        let doomed = sb.begin(IsolationLevel::ReadCommitted);
        let handle = sb.open_lo(&doomed, lo, LockMode::Exclusive).unwrap();
        let mut tree = GrTree::open(handle).unwrap();
        for i in 200..260i32 {
            let e = TimeExtent::insert(
                ct.plus(10),
                Day(12_000),
                grtree_datablade::temporal::VtEnd::Now,
            )
            .unwrap();
            tree.insert(e, i as u64, ct.plus(10)).unwrap();
        }
        std::mem::forget(tree);
        std::mem::forget(doomed);
        // Space dropped without commit: crash.
    }
    {
        let sb = Sbspace::file(&dir, opts).unwrap();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let handle = sb.open_lo(&txn, lo_id, LockMode::Shared).unwrap();
        let tree = GrTree::open(handle).unwrap();
        assert_eq!(
            tree.len(),
            200,
            "committed entries survive, doomed ones do not"
        );
        tree.check(ct.plus(100)).unwrap();
        let q = TimeExtent::insert(
            ct.plus(100),
            Day(11_990),
            grtree_datablade::temporal::VtEnd::Now,
        )
        .unwrap();
        let hits = tree.search(Predicate::Overlaps, &q, ct.plus(100)).unwrap();
        assert!(!hits.is_empty());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn catalogs_reflect_the_full_installation() {
    let db = Database::new(DatabaseOptions::default());
    install_grtree_blade(&db, GrTreeAmOptions::default()).unwrap();
    install_rstar_blade(&db, NowStrategy::MaxTimestamp, RStarOptions::default()).unwrap();
    let (_, ams) = db.catalog_dump("sysams").unwrap();
    assert_eq!(ams.len(), 2, "grtree_am and rstar_am");
    let (_, ocs) = db.catalog_dump("sysopclasses").unwrap();
    assert_eq!(ocs.len(), 2);
    let (_, procs) = db.catalog_dump("sysprocedures").unwrap();
    // 14 purpose functions + 4 strategies + 3 support + 3 rstar stubs.
    assert!(procs.len() >= 24, "got {}", procs.len());
}

#[test]
fn load_command_imports_time_extents() {
    // Section 6.3, support-function family 3: "making it possible to
    // use the command LOAD for loading values of a new type from a text
    // file to a table" — with the GR-tree index maintained during the
    // load.
    let clock = MockClock::new(Day::from_ymd(1997, 9, 1).unwrap());
    let db = Database::new(DatabaseOptions {
        clock: Arc::new(clock.clone()),
        ..Default::default()
    });
    install_grtree_blade(&db, GrTreeAmOptions::default()).unwrap();
    let conn = db.connect();
    conn.exec("CREATE TABLE Employees (Name text, Department text, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec("CREATE INDEX grt_index ON Employees(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    let path = std::env::temp_dir().join(format!("empdep-{}.unl", std::process::id()));
    std::fs::write(
        &path,
        "John|Advertising|4/97, UC, 3/97, 5/97\n\
         Tom|Management|3/97, 7/97, 6/97, 8/97\n\
         Jane|Sales|5/97, UC, 5/97, NOW\n\
         Michelle|Management|5/97, UC, 3/97, NOW\n",
    )
    .unwrap();
    let r = conn
        .exec(&format!(
            "LOAD FROM '{}' INSERT INTO Employees",
            path.display()
        ))
        .unwrap();
    assert_eq!(r.message, "4 rows loaded");
    // The loaded rows are index-visible.
    let r = conn
        .exec("SELECT Name FROM Employees WHERE Overlaps(Time_Extent, '5/97, UC, 5/97, NOW')")
        .unwrap();
    assert!(r.rows.len() >= 2, "{r:?}");
    conn.exec("CHECK INDEX grt_index").unwrap();
    // A malformed line fails the whole load atomically.
    std::fs::write(&path, "Bad|Row|not an extent\n").unwrap();
    assert!(conn
        .exec(&format!(
            "LOAD FROM '{}' INSERT INTO Employees",
            path.display()
        ))
        .is_err());
    let after = conn.exec("SELECT Name FROM Employees").unwrap();
    assert_eq!(after.rows.len(), 4, "failed load must not leave rows");
    std::fs::remove_file(&path).ok();
}

/// The durability contract's price, asserted: an auto-commit DML
/// statement on a file-backed space forces the log exactly once — the
/// allocation and free notes it generates ride that force — and
/// never syncs the data file. Over a checkpointed pool that fits the
/// table it does not write the data file either; otherwise its only
/// page writes are the heap's and the index's inode, rewritten in place
/// over committed bytes the backend had not seen. A read-only statement
/// costs nothing.
#[test]
fn auto_commit_dml_forces_the_log_exactly_once() {
    let dir = std::env::temp_dir().join(format!("grt-one-force-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let space = Sbspace::file(&dir, SbspaceOptions::default()).unwrap();
    let clock = MockClock::new(Day(10_000));
    let db = Database::with_space(space.clone(), Arc::new(clock.clone()));
    install_grtree_blade(&db, GrTreeAmOptions::default()).unwrap();
    let conn = db.connect();
    conn.exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    let row = |i: i32| {
        format!(
            "{}, UC, {}, NOW",
            date(Day(10_000 + i)),
            date(Day(10_000 + i))
        )
    };
    // Enough rows that a statement touches heap, tree and inodes.
    for i in 0..200 {
        clock.set(Day(10_000 + i));
        conn.exec(&format!("INSERT INTO t VALUES ({i}, '{}')", row(i)))
            .unwrap();
    }
    let stats = space.stats();
    let cost = |sql: String| {
        let before = stats.snapshot();
        conn.exec(&sql).unwrap();
        let d = stats.snapshot().since(&before);
        (d.wal_syncs, d.data_syncs, d.physical_writes)
    };
    let dml = [
        format!("INSERT INTO t VALUES (1000, '{}')", row(199)),
        format!("UPDATE t SET Time_Extent = '{}' WHERE id = 1000", row(198)),
        "DELETE FROM t WHERE id = 1000".to_string(),
    ];
    for sql in &dml {
        space.checkpoint().unwrap();
        assert_eq!(cost(sql.clone()), (1, 0, 0), "{sql}");
    }
    for sql in &dml {
        let (wal, data, writes) = cost(sql.clone());
        assert_eq!((wal, data), (1, 0), "{sql}");
        assert!(writes <= 2, "{writes} page writes for {sql}");
    }
    let read = cost("SELECT id FROM t WHERE id = 5".to_string());
    assert_eq!(read, (0, 0, 0), "read-only");
    drop(conn);
    drop(db);
    drop(space);
    std::fs::remove_dir_all(&dir).ok();
}
