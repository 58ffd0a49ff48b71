//! End-to-end observability: the `sysmetrics` virtual catalog, the
//! `MetricsSnapshot` diff API, session-scoped tracing, and
//! `SET EXPLAIN` — one registry covering engine, access method, and
//! storage counters.

use grtree_datablade::blade::{install_grtree_blade, GrTreeAmOptions};
use grtree_datablade::ids::{Connection, Database, DatabaseOptions, Value};
use grtree_datablade::temporal::{Day, MockClock};
use std::collections::HashMap;
use std::sync::Arc;

fn blade_db() -> (Database, MockClock) {
    let clock = MockClock::new(Day(10_000));
    let db = Database::new(DatabaseOptions {
        clock: Arc::new(clock.clone()),
        ..Default::default()
    });
    // Default fanout: the tree stays a handful of pages, so the
    // planner's cost estimate still picks the index for the probe, and
    // one page worth of entries (~170) is enough to split the root.
    install_grtree_blade(&db, GrTreeAmOptions::default()).unwrap();
    (db, clock)
}

fn insert(conn: &Connection, clock: &MockClock, i: i32) {
    clock.set(Day(10_000 + i));
    let (y, m, d) = Day(10_000 + i).to_ymd();
    conn.exec(&format!(
        "INSERT INTO t VALUES ({i}, '{m:02}/{d:02}/{y}, UC, {m:02}/{d:02}/{y}, NOW')"
    ))
    .unwrap();
}

/// `SELECT * FROM sysmetrics` as a name → value map.
fn sysmetrics(conn: &Connection) -> HashMap<String, i64> {
    conn.exec("SELECT * FROM sysmetrics")
        .unwrap()
        .rows
        .into_iter()
        .map(|row| match (&row[0], &row[1]) {
            (Value::Text(name), &Value::Int(v)) => (name.clone(), v),
            other => panic!("unexpected sysmetrics row {other:?}"),
        })
        .collect()
}

#[test]
fn sysmetrics_reports_live_counters_from_every_layer() {
    let (db, clock) = blade_db();
    let conn = db.connect();
    conn.exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    for i in 0..180 {
        insert(&conn, &clock, i);
    }
    // A narrow ground-extent probe: wide enough to hit some entries,
    // narrow enough that the qual-aware cost estimate picks the index.
    let (y1, m1, d1) = Day(10_005).to_ymd();
    let (y2, m2, d2) = Day(10_020).to_ymd();
    conn.exec(&format!(
        "SELECT id FROM t WHERE Overlaps(Time_Extent, \
         '{m1:02}/{d1:02}/{y1}, {m2:02}/{d2:02}/{y2}, \
          {m1:02}/{d1:02}/{y1}, {m2:02}/{d2:02}/{y2}')"
    ))
    .unwrap();
    // A probe against an unindexed table evaluates the strategy
    // function as a plain UDR over a sequential scan.
    conn.exec("CREATE TABLE u (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec("INSERT INTO u VALUES (1, '01/01/1997, UC, 01/01/1997, NOW')")
        .unwrap();
    conn.exec(
        "SELECT id FROM u WHERE Overlaps(Time_Extent, \
         '01/01/1997, UC, 01/01/1997, NOW')",
    )
    .unwrap();

    let m = sysmetrics(&conn);
    // Engine layer.
    assert!(m["ids.statements"] > 180);
    assert!(m["am.am_insert"] >= 180, "per-purpose UDR counters missing");
    assert!(m["ids.udr_calls"] > 0, "strategy functions went uncounted");
    // The session memo resolves each routine once; only the misses
    // search the registry.
    assert!(
        (1..=m["ids.udr_calls"]).contains(&m["ids.udr_resolutions"]),
        "routine resolutions: {} for {} calls",
        m["ids.udr_resolutions"],
        m["ids.udr_calls"]
    );
    assert!(
        m["ids.plans_index"] + m["ids.plans_seq"] >= 1,
        "planner decisions counted"
    );
    assert!(m["ids.exec_ns.count"] > 180, "statement latency histogram");
    // Access-method layer.
    assert!(m["grtree.searches"] > 0);
    assert!(m["grtree.nodes_visited"] > 0);
    assert!(m["grtree.splits"] > 0, "180 entries overflow one leaf page");
    // Storage layer.
    assert!(m["sbspace.logical_writes"] > 0);
    assert!(m["sbspace.txn_commits"] > 180);
    // The log writer: one sync per force, sized and timed, with the
    // percentiles next to the count; every allocation note and free
    // note rode some commit's force instead of its own.
    assert!(m["wal.sync_ns.count"] > 180);
    assert_eq!(m["wal.sync_ns.count"], m["sbspace.wal_syncs"]);
    assert_eq!(m["wal.force_bytes.count"], m["wal.sync_ns.count"]);
    assert!(m["wal.sync_ns.p50"] > 0 && m["wal.sync_ns.p50"] <= m["wal.sync_ns.p99"]);
    assert!(
        m["wal.force_bytes.p50"] > 4096,
        "a force carries at least one page image"
    );
    assert!(m["sbspace.meta_deferred"] > 180);
    // Trace ring adoption.
    assert_eq!(m["trace.dropped"], db.trace().dropped() as i64);

    // Projection works like any catalog; WHERE is rejected.
    let names = conn.exec("SELECT name FROM sysmetrics").unwrap();
    assert_eq!(names.columns, vec!["name".to_string()]);
    assert!(conn
        .exec("SELECT name FROM sysmetrics WHERE name = 'x'")
        .is_err());
}

#[test]
fn sysmetrics_exposes_plan_cache_and_batched_fetch_counters() {
    let (db, clock) = blade_db();
    let conn = db.connect();
    conn.exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    for i in 0..40 {
        insert(&conn, &clock, i);
    }

    // An index probe, repeated: the first execution plans fresh, the
    // repeat hits the transparent plan cache and pulls its rows through
    // am_getnext_batch.
    let (y1, m1, d1) = Day(10_005).to_ymd();
    let (y2, m2, d2) = Day(10_020).to_ymd();
    let probe = format!(
        "SELECT id FROM t WHERE Overlaps(Time_Extent, \
         '{m1:02}/{d1:02}/{y1}, {m2:02}/{d2:02}/{y2}, \
          {m1:02}/{d1:02}/{y1}, {m2:02}/{d2:02}/{y2}')"
    );
    conn.exec(&probe).unwrap();
    conn.exec(&probe).unwrap();

    // An explicit prepared handle, and a DDL statement that must knock
    // the cached plans over t out of the cache.
    conn.exec("PREPARE q FROM 'SELECT id FROM t WHERE id < ?'")
        .unwrap();
    conn.exec("EXECUTE q USING 5").unwrap();
    conn.exec("DEALLOCATE q").unwrap();
    conn.exec("DROP INDEX tix").unwrap();

    let m = sysmetrics(&conn);
    assert!(m["ids.plan_cache_misses"] > 0, "first plan is a miss");
    assert!(m["ids.plan_cache_hits"] > 0, "repeat never hit the cache");
    assert!(
        m["ids.plan_cache_invalidations"] >= 1,
        "DROP INDEX left cached plans standing"
    );
    assert!(
        m.contains_key("ids.plan_cache_evictions"),
        "eviction counter unregistered"
    );
    assert_eq!(m["ids.prepared_opened"], 1);
    assert_eq!(m["ids.prepared_closed"], 1);
    assert!(
        m["am.am_getnext_batch"] > 0,
        "index probe bypassed the batched fetch"
    );
    assert!(
        m["scan.batch_rows.count"] > 0,
        "batch-fill histogram missing from sysmetrics"
    );
    // Rows per page pin of the index scans' heap pass, as two counters.
    assert!(
        m["scan.heap_pages"] > 0 && m["scan.heap_rows"] >= m["scan.heap_pages"],
        "heap-fetch counters missing from sysmetrics"
    );
}

#[test]
fn snapshot_diff_isolates_one_statement() {
    let (db, clock) = blade_db();
    let conn = db.connect();
    conn.exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    insert(&conn, &clock, 0);

    let before = db.metrics_snapshot();
    insert(&conn, &clock, 1);
    let d = db.metrics_snapshot().since(&before);
    assert_eq!(d.get("ids.statements"), 1);
    assert_eq!(d.get("am.am_insert"), 1, "exactly one index maintained");
    assert_eq!(d.get("sbspace.txn_commits"), 1);
    assert!(d.get("sbspace.logical_writes") > 0);
    assert_eq!(d.get("ids.statement_errors"), 0);
    assert_eq!(d.histogram("ids.exec_ns").count, 1);
    // One statement, one log force; its metadata records rode it.
    assert_eq!(d.get("sbspace.wal_syncs"), 1);
    assert_eq!(d.histogram("wal.sync_ns").count, 1);
    assert_eq!(d.histogram("wal.force_bytes").count, 1);
    assert!(d.get("sbspace.meta_deferred") > 0);
    // The diff keeps untouched counters at zero rather than dropping
    // them, so trailers can always subtract.
    assert_eq!(d.get("grtree.condenses"), 0);
}

#[test]
fn trace_is_session_scoped_and_explain_rides_it() {
    let (db, clock) = blade_db();
    let c1 = db.connect();
    let c2 = db.connect();
    c1.exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    c1.exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();

    // Only session 1 turns AM tracing on; both sessions insert.
    c1.exec("SET TRACE ON 'AM'").unwrap();
    insert(&c1, &clock, 1);
    insert(&c2, &clock, 2);
    let am_events: Vec<u64> = db
        .trace()
        .events()
        .into_iter()
        .filter(|e| e.class == "AM")
        .map(|e| e.session)
        .collect();
    assert!(!am_events.is_empty());
    assert!(
        am_events.iter().all(|&s| s == c1.session().id()),
        "another session's events leaked into a session-scoped trace"
    );

    // SET TRACE OFF clears the session's filters.
    c1.exec("SET TRACE OFF").unwrap();
    let before = db.trace().events().len();
    insert(&c1, &clock, 3);
    assert_eq!(db.trace().events().len(), before);

    // The global form records everyone.
    c2.exec("SET TRACE 'AM' TO 1").unwrap();
    insert(&c1, &clock, 4);
    insert(&c2, &clock, 5);
    let sessions: std::collections::HashSet<u64> = db
        .trace()
        .events()
        .into_iter()
        .filter(|e| e.class == "AM")
        .map(|e| e.session)
        .collect();
    assert!(sessions.contains(&c1.session().id()));
    assert!(sessions.contains(&c2.session().id()));
    c2.exec("SET TRACE 'AM' OFF").unwrap();

    // SET EXPLAIN: planner decisions as EXPLAIN-class events, scoped to
    // the enabling session.
    c1.exec("SET EXPLAIN ON").unwrap();
    let probe = "SELECT id FROM t WHERE Overlaps(Time_Extent, \
                 '01/01/1997, UC, 01/01/1997, NOW')";
    c1.exec(probe).unwrap();
    c2.exec(probe).unwrap();
    let explains: Vec<_> = db
        .trace()
        .events()
        .into_iter()
        .filter(|e| e.class == "EXPLAIN")
        .collect();
    assert!(!explains.is_empty(), "SET EXPLAIN produced no trace");
    assert!(explains.iter().all(|e| e.session == c1.session().id()));
    assert!(
        explains.iter().any(|e| e.message.contains("chose")),
        "no chosen-plan line: {explains:?}"
    );
    c1.exec("SET EXPLAIN OFF").unwrap();
    c1.exec(probe).unwrap();
    let after: usize = db
        .trace()
        .events()
        .iter()
        .filter(|e| e.class == "EXPLAIN")
        .count();
    assert_eq!(after, explains.len(), "EXPLAIN kept tracing after OFF");
}
