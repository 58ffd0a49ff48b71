//! Prepared statements, the transparent plan cache, and DDL
//! invalidation — the compile-once / execute-many contract:
//!
//! * `PREPARE` / `EXECUTE ... USING` / `DEALLOCATE` lifecycle, with
//!   bind-time arity and type checks (a bad binding never starts
//!   executing);
//! * repeated `EXECUTE` serves the plan from the compiled handle
//!   (`ids.plan_cache_hits` ticks, `SET EXPLAIN` says `plan: cached`);
//! * ad-hoc DML that differs only in its literals shares one
//!   transparent cache entry;
//! * DDL touching the statement's table forces a replan — including
//!   `DROP INDEX` + `CREATE INDEX` with a *different* access method,
//!   and DDL that is rolled back inside `BEGIN WORK … ROLLBACK WORK`.

use grtree_datablade::blade::{install_grtree_blade, install_rstar_blade, GrTreeAmOptions};
use grtree_datablade::ids::{Connection, Database, DatabaseOptions, IdsError};
use grtree_datablade::rstar::bitemporal::NowStrategy;
use grtree_datablade::rstar::RStarOptions;
use grtree_datablade::temporal::{Day, MockClock};
use std::sync::Arc;

fn render(day: i32) -> String {
    let (y, m, d) = Day(day).to_ymd();
    format!("{m:02}/{d:02}/{y:04}")
}

/// A GR-tree-indexed table with 200 rows: big enough that a narrow
/// probe prices the index below the heap sweep.
fn seeded_db() -> (Database, MockClock, Connection) {
    let clock = MockClock::new(Day(10_000));
    let db = Database::new(DatabaseOptions {
        clock: Arc::new(clock.clone()),
        ..Default::default()
    });
    install_grtree_blade(&db, GrTreeAmOptions::default()).unwrap();
    let conn = db.connect();
    conn.exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    for i in 0..200 {
        clock.set(Day(10_000 + i));
        let s = render(10_000 + i);
        conn.exec(&format!("INSERT INTO t VALUES ({i}, '{s}, UC, {s}, NOW')"))
            .unwrap();
    }
    clock.set(Day(10_300));
    (db, clock, conn)
}

/// The narrow-probe extent literal the seeded table answers with a
/// handful of rows through the index.
fn narrow() -> String {
    format!(
        "{}, {}, {}, {}",
        render(10_005),
        render(10_012),
        render(10_004),
        render(10_013)
    )
}

#[test]
fn prepare_execute_deallocate_lifecycle() {
    let (db, _clock, conn) = seeded_db();
    let r = conn
        .exec("PREPARE q FROM 'SELECT id FROM t WHERE Overlaps(Time_Extent, ?)'")
        .unwrap();
    assert!(r.message.contains("prepared"), "{}", r.message);

    let before = db.metrics_snapshot();
    let first = conn
        .exec(&format!("EXECUTE q USING '{}'", narrow()))
        .unwrap();
    assert!(!first.rows.is_empty());
    let second = conn
        .exec(&format!("EXECUTE q USING '{}'", narrow()))
        .unwrap();
    assert_eq!(first.rows, second.rows, "same binding, same answer");
    let d = db.metrics_snapshot().since(&before);
    // First EXECUTE plans fresh and memoizes; the second serves the
    // memo. Both went through the index.
    assert_eq!(d.get("ids.plan_cache_misses"), 1, "{d}");
    assert!(d.get("ids.plan_cache_hits") >= 1, "{d}");
    assert_eq!(d.get("ids.plans_index"), 2, "{d}");
    // EXECUTE counts as one client statement per call.
    assert_eq!(d.get("ids.statements"), 2, "{d}");

    // DEALLOCATE drops the handle; both spellings work, and a second
    // deallocation is an error.
    let r = conn.exec("DEALLOCATE q").unwrap();
    assert!(r.message.contains("deallocated"), "{}", r.message);
    match conn.exec(&format!("EXECUTE q USING '{}'", narrow())) {
        Err(IdsError::NotFound(m)) => assert!(m.contains('q'), "{m}"),
        other => panic!("EXECUTE after DEALLOCATE: {other:?}"),
    }
    assert!(matches!(
        conn.exec("DEALLOCATE PREPARE q"),
        Err(IdsError::NotFound(_))
    ));

    // Re-preparing the same name replaces the old handle.
    conn.exec("PREPARE q FROM 'SELECT id FROM t WHERE id = ?'")
        .unwrap();
    conn.exec("PREPARE q FROM 'SELECT id FROM t WHERE id < ?'")
        .unwrap();
    let r = conn.exec("EXECUTE q USING 3").unwrap();
    assert_eq!(r.rows.len(), 3, "the replacement handle runs");
}

#[test]
fn explain_distinguishes_cached_from_fresh_plans() {
    let (db, _clock, conn) = seeded_db();
    conn.exec("PREPARE q FROM 'SELECT id FROM t WHERE Overlaps(Time_Extent, ?)'")
        .unwrap();
    conn.exec("SET EXPLAIN ON").unwrap();
    db.trace().take();
    conn.exec(&format!("EXECUTE q USING '{}'", narrow()))
        .unwrap();
    let first: Vec<String> = db
        .trace()
        .take()
        .into_iter()
        .filter(|e| e.class == "EXPLAIN")
        .map(|e| e.message)
        .collect();
    assert!(
        first.iter().any(|m| m.contains("plan: fresh")),
        "first execution must plan fresh: {first:?}"
    );
    conn.exec(&format!("EXECUTE q USING '{}'", narrow()))
        .unwrap();
    let second: Vec<String> = db
        .trace()
        .take()
        .into_iter()
        .filter(|e| e.class == "EXPLAIN")
        .map(|e| e.message)
        .collect();
    assert!(
        second.iter().any(|m| m.contains("plan: cached")),
        "repeat execution must serve the memo: {second:?}"
    );
}

#[test]
fn transparent_cache_shares_statements_differing_in_literals() {
    let (db, _clock, conn) = seeded_db();
    let len_before = db.plan_cache_len();
    let before = db.metrics_snapshot();
    // Same statement shape, different literal bindings: one compiled
    // entry serves them all.
    for id in [5, 5, 7, 9, 11, 13] {
        conn.exec(&format!("SELECT id FROM t WHERE id = {id}"))
            .unwrap();
    }
    assert_eq!(
        db.plan_cache_len(),
        len_before + 1,
        "literals lifted: one entry for all six statements"
    );
    let d = db.metrics_snapshot().since(&before);
    // The repeated id=5 matches the memoized binding outright; 7, 9
    // and 11 re-cost under new bindings (custom plans) and all agree
    // on the choice, so by id=13 the memo is generic and serves any
    // binding without re-costing.
    assert_eq!(d.get("ids.plan_cache_misses"), 4, "{d}");
    assert_eq!(d.get("ids.plan_cache_hits"), 2, "{d}");
}

#[test]
fn cached_plan_stays_value_sensitive() {
    let (db, _clock, conn) = seeded_db();
    // Narrow probe → index; full-range probe of the *same normalized
    // statement* → heap sweep. The shared cache entry must not let the
    // first choice leak into the second.
    let before = db.metrics_snapshot();
    conn.exec(&format!(
        "SELECT id FROM t WHERE Overlaps(Time_Extent, '{}')",
        narrow()
    ))
    .unwrap();
    let d = db.metrics_snapshot().since(&before);
    assert_eq!(d.get("ids.plans_index"), 1, "narrow probe: {d}");

    let before = db.metrics_snapshot();
    let wide = conn
        .exec(
            "SELECT id FROM t WHERE Overlaps(Time_Extent, \
             '01/01/1997, UC, 01/01/1997, NOW')",
        )
        .unwrap();
    assert_eq!(wide.rows.len(), 200);
    let d = db.metrics_snapshot().since(&before);
    assert_eq!(d.get("ids.plans_seq"), 1, "full-range probe: {d}");
    assert_eq!(d.get("ids.plans_index"), 0, "{d}");
}

#[test]
fn bind_errors_are_reported_before_execution() {
    let (db, _clock, conn) = seeded_db();
    conn.exec("PREPARE ins FROM 'INSERT INTO t VALUES (?, ?)'")
        .unwrap();
    conn.exec("PREPARE sel FROM 'SELECT id FROM t WHERE id = ?'")
        .unwrap();

    // Arity mismatch.
    match conn.exec("EXECUTE sel USING 1, 2") {
        Err(IdsError::Type(m)) => assert!(m.contains("takes 1 parameters"), "{m}"),
        other => panic!("arity mismatch: {other:?}"),
    }
    match conn.exec("EXECUTE sel") {
        Err(IdsError::Type(m)) => assert!(m.contains("0 given"), "{m}"),
        other => panic!("missing parameters: {other:?}"),
    }

    // Type mismatch on a typed slot: a bind-time error naming the
    // statement, and nothing was inserted.
    let before = db.metrics_snapshot();
    match conn.exec("EXECUTE ins USING 'not-a-number', 'also-wrong'") {
        Err(IdsError::Type(m)) => assert!(m.contains("binding parameters of ins"), "{m}"),
        other => panic!("type mismatch: {other:?}"),
    }
    let d = db.metrics_snapshot().since(&before);
    assert_eq!(
        d.get("sbspace.txn_commits"),
        0,
        "bind error ran no txn: {d}"
    );
    assert_eq!(conn.exec("SELECT id FROM t").unwrap().rows.len(), 200);

    // Non-literal USING values are rejected.
    assert!(matches!(
        conn.exec("EXECUTE sel USING id"),
        Err(IdsError::Semantic(_))
    ));

    // EXECUTE of an unknown name.
    assert!(matches!(
        conn.exec("EXECUTE nope USING 1"),
        Err(IdsError::NotFound(_))
    ));

    // NULL binds cleanly and behaves exactly like the ad-hoc literal.
    let via_param = conn.exec("EXECUTE sel USING NULL").unwrap();
    let ad_hoc = conn.exec("SELECT id FROM t WHERE id = NULL").unwrap();
    assert_eq!(via_param.rows, ad_hoc.rows);
    assert!(via_param.rows.is_empty(), "NULL matches no row");
}

#[test]
fn prepare_rejects_unpreparable_statements() {
    let (_db, _clock, conn) = seeded_db();
    // Unknown table fails at PREPARE time, not first EXECUTE.
    assert!(conn
        .exec("PREPARE bad FROM 'SELECT id FROM missing WHERE id = ?'")
        .is_err());
    // Transaction control and nested prepared-statement control cannot
    // be prepared.
    for sql in [
        "PREPARE p FROM 'BEGIN WORK'",
        "PREPARE p FROM 'EXECUTE p'",
        "PREPARE p FROM 'PREPARE q FROM ''SELECT id FROM t'''",
    ] {
        assert!(
            matches!(conn.exec(sql), Err(IdsError::Semantic(_))),
            "{sql} must be rejected"
        );
    }
}

#[test]
fn ddl_invalidation_replans_onto_a_new_access_method() {
    let (db, _clock, conn) = seeded_db();
    install_rstar_blade(&db, NowStrategy::MaxTimestamp, RStarOptions::default()).unwrap();
    conn.exec("PREPARE q FROM 'SELECT id FROM t WHERE Overlaps(Time_Extent, ?)'")
        .unwrap();
    let baseline = conn
        .exec(&format!("EXECUTE q USING '{}'", narrow()))
        .unwrap();
    assert!(!baseline.rows.is_empty());

    // Swap the index out from under the prepared statement.
    let before = db.metrics_snapshot();
    conn.exec("DROP INDEX tix").unwrap();
    let d = db.metrics_snapshot().since(&before);
    assert!(
        d.get("ids.plan_cache_invalidations") >= 1,
        "DROP INDEX must invalidate the handle's memo: {d}"
    );

    // Without any index the replanned EXECUTE sweeps the heap.
    let before = db.metrics_snapshot();
    let swept = conn
        .exec(&format!("EXECUTE q USING '{}'", narrow()))
        .unwrap();
    assert_eq!(swept.rows, baseline.rows);
    let d = db.metrics_snapshot().since(&before);
    assert_eq!(d.get("ids.plans_seq"), 1, "replanned to seq: {d}");

    // A replacement index under a *different* access method: the next
    // EXECUTE replans again and probes the R*-tree.
    conn.exec("CREATE INDEX rix ON t(Time_Extent rstar_opclass) USING rstar_am")
        .unwrap();
    let before = db.metrics_snapshot();
    let probed = conn
        .exec(&format!("EXECUTE q USING '{}'", narrow()))
        .unwrap();
    assert_eq!(probed.rows, baseline.rows, "same answer through rstar");
    let d = db.metrics_snapshot().since(&before);
    assert_eq!(d.get("ids.plans_index"), 1, "replanned to the index: {d}");
    assert!(d.get("rstar.searches") > 0, "the new AM ran the probe: {d}");
}

#[test]
fn rolled_back_ddl_restores_the_plan() {
    let (db, _clock, conn) = seeded_db();
    conn.exec("PREPARE q FROM 'SELECT id FROM t WHERE Overlaps(Time_Extent, ?)'")
        .unwrap();
    let baseline = conn
        .exec(&format!("EXECUTE q USING '{}'", narrow()))
        .unwrap();

    // DROP INDEX inside an explicit transaction, observed mid-flight…
    conn.exec("BEGIN WORK").unwrap();
    conn.exec("DROP INDEX tix").unwrap();
    let before = db.metrics_snapshot();
    let mid = conn
        .exec(&format!("EXECUTE q USING '{}'", narrow()))
        .unwrap();
    assert_eq!(mid.rows, baseline.rows);
    let d = db.metrics_snapshot().since(&before);
    assert_eq!(d.get("ids.plans_seq"), 1, "index gone inside the txn: {d}");
    // …then rolled back: the catalog entry and the index pages return.
    conn.exec("ROLLBACK WORK").unwrap();

    let before = db.metrics_snapshot();
    let after = conn
        .exec(&format!("EXECUTE q USING '{}'", narrow()))
        .unwrap();
    assert_eq!(after.rows, baseline.rows);
    let d = db.metrics_snapshot().since(&before);
    assert_eq!(
        d.get("ids.plans_index"),
        1,
        "rolled-back DROP INDEX must restore the index plan: {d}"
    );
    conn.exec("CHECK INDEX tix").unwrap();
}

#[test]
fn zero_capacity_disables_the_transparent_cache_but_not_prepare() {
    // `plan_cache_size: 0` is the compile-every-time ablation (`spine
    // --set plan_cache_size=0`): ad-hoc statements never share a
    // compiled plan, while a PREPAREd handle still memoizes on its own.
    let clock = MockClock::new(Day(10_000));
    let db = Database::new(DatabaseOptions {
        clock: Arc::new(clock.clone()),
        plan_cache_size: 0,
        ..Default::default()
    });
    install_grtree_blade(&db, GrTreeAmOptions::default()).unwrap();
    let conn = db.connect();
    conn.exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec("INSERT INTO t VALUES (1, '05/18/1997, UC, 05/18/1997, NOW')")
        .unwrap();

    let before = db.metrics_snapshot();
    for _ in 0..4 {
        conn.exec("SELECT id FROM t WHERE id = 1").unwrap();
    }
    assert_eq!(db.plan_cache_len(), 0, "nothing is ever admitted");
    let d = db.metrics_snapshot().since(&before);
    assert_eq!(d.get("ids.plan_cache_misses"), 4, "{d}");
    assert_eq!(d.get("ids.plan_cache_hits"), 0, "{d}");

    // The prepared handle's memo lives on the handle, not in the
    // shared cache, so EXECUTE still compiles once.
    conn.exec("PREPARE q FROM 'SELECT id FROM t WHERE id = ?'")
        .unwrap();
    let before = db.metrics_snapshot();
    for _ in 0..4 {
        conn.exec("EXECUTE q USING 1").unwrap();
    }
    let d = db.metrics_snapshot().since(&before);
    assert_eq!(d.get("ids.plan_cache_misses"), 1, "{d}");
    assert_eq!(d.get("ids.plan_cache_hits"), 3, "{d}");
}

#[test]
fn prepared_handles_do_not_leak() {
    let (db, _clock, _conn) = seeded_db();
    let before = db.metrics_snapshot();
    {
        let c = db.connect();
        c.exec("PREPARE a FROM 'SELECT id FROM t WHERE id = ?'")
            .unwrap();
        c.exec("PREPARE b FROM 'SELECT id FROM t WHERE id < ?'")
            .unwrap();
        // Replacing a handle closes the old one.
        c.exec("PREPARE a FROM 'SELECT id FROM t WHERE id > ?'")
            .unwrap();
        c.exec("DEALLOCATE b").unwrap();
        assert_eq!(db.prepared_live(), 1, "only the replacement for a is live");
        // `a` is still open when the connection drops.
    }
    assert_eq!(db.prepared_live(), 0, "disconnect reaps prepared handles");
    let d = db.metrics_snapshot().since(&before);
    assert_eq!(
        d.get("ids.prepared_opened"),
        d.get("ids.prepared_closed"),
        "every prepared handle was closed: {d}"
    );
    assert_eq!(d.get("ids.prepared_opened"), 3, "{d}");
}
