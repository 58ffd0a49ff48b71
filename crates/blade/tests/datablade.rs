//! Full-stack DataBlade tests: the paper's EmpDep scenario, the Julie
//! query, index/scan equivalence, DML maintenance, and the Figure 6
//! call sequences — all through SQL.

use grt_blade::gist_am::install_gist_blade;
use grt_blade::{install_grtree_blade, install_rstar_blade, GrTreeAmOptions};
use grt_grtree::GrTreeOptions;
use grt_ids::{Database, DatabaseOptions, Value};
use grt_rstar::bitemporal::NowStrategy;
use grt_rstar::RStarOptions;
use grt_temporal::{Day, MockClock};
use std::sync::Arc;

fn db_with_clock() -> (Database, MockClock) {
    let clock = MockClock::new(Day::from_ymd(1997, 1, 1).unwrap());
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
    (db, clock)
}

fn month(m: u32, y: i32) -> Day {
    Day::from_ymd(y, m, 1).unwrap()
}

/// Plays the paper's Table 1 history against a GR-tree-indexed table.
/// Returns the connection.
fn play_empdep(db: &Database, clock: &MockClock) -> grt_ids::engine::Connection {
    let conn = db.connect();
    conn.exec("CREATE TABLE Employees (Name text, Department text, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec(
        "CREATE INDEX grt_index ON Employees(Time_Extent grt_opclass) USING grtree_am IN spc",
    )
    .unwrap();
    let ins = |name: &str, dept: &str, extent: &str| {
        conn.exec(&format!(
            "INSERT INTO Employees VALUES ('{name}', '{dept}', '{extent}')"
        ))
        .unwrap();
    };
    // 3/97: Tom's future validity is recorded; Julie joins Sales.
    clock.set(month(3, 1997));
    ins("Tom", "Management", "3/97, UC, 6/97, 8/97");
    ins("Julie", "Sales", "3/97, UC, 3/97, NOW");
    // 4/97: John's (already ended) stint is recorded.
    clock.set(month(4, 1997));
    ins("John", "Advertising", "4/97, UC, 3/97, 5/97");
    // 5/97: Jane joins Sales; Michelle's Management job (true since
    // 3/97) is recorded late.
    clock.set(month(5, 1997));
    ins("Jane", "Sales", "5/97, UC, 5/97, NOW");
    ins("Michelle", "Management", "5/97, UC, 3/97, NOW");
    // 8/97: Tom's tuple is logically deleted, and Julie's is updated
    // (modelled, as in the paper, as a deletion plus an insertion).
    clock.set(month(8, 1997));
    conn.exec(
        "UPDATE Employees SET Time_Extent = '3/97, 07/31/1997, 6/97, 8/97' WHERE Name = 'Tom'",
    )
    .unwrap();
    conn.exec(
        "UPDATE Employees SET Time_Extent = '3/97, 07/31/1997, 3/97, NOW' WHERE Name = 'Julie'",
    )
    .unwrap();
    ins("Julie", "Sales", "8/97, UC, 3/97, 7/97");
    // The paper's reference time.
    clock.set(month(9, 1997));
    conn
}

#[test]
fn empdep_relation_matches_table_1() {
    let (db, clock) = db_with_clock();
    let conn = play_empdep(&db, &clock);
    let r = conn
        .exec("SELECT Name, Time_Extent FROM Employees")
        .unwrap();
    assert_eq!(r.rows.len(), 6, "six tuples as in Table 1");
    let mut rendered: Vec<(String, String)> = r
        .text()
        .iter()
        .map(|row| (row[0].clone(), row[1].clone()))
        .collect();
    rendered.sort();
    // Spot-check the now-relative tuples.
    let julie_open = rendered
        .iter()
        .find(|(n, e)| n == "Julie" && e.contains("UC"))
        .expect("Julie's current tuple");
    assert!(julie_open.1.contains("08/01/1997"), "{julie_open:?}");
    let jane = rendered.iter().find(|(n, _)| n == "Jane").unwrap();
    assert!(jane.1.contains("UC") && jane.1.contains("NOW"), "{jane:?}");
}

#[test]
fn julie_query_returns_empty_with_and_without_index() {
    let (db, clock) = db_with_clock();
    let conn = play_empdep(&db, &clock);
    // "Who worked in Sales during 7/97 according to the knowledge we
    // had during 5/97?" — the bitemporal point (tt = 5/97, vt = 7/97).
    let q = "Overlaps(Time_Extent, '5/97, 5/97, 7/97, 7/97')";
    let with_index = conn
        .exec(&format!(
            "SELECT Name FROM Employees WHERE {q} AND Department = 'Sales'"
        ))
        .unwrap();
    assert!(
        with_index.rows.is_empty(),
        "the stair shape excludes Julie: {with_index:?}"
    );
    // Force a sequential scan by dropping the index: same (correct)
    // answer, because the strategy function is also a plain UDR.
    conn.exec("DROP INDEX grt_index").unwrap();
    let seq = conn
        .exec(&format!(
            "SELECT Name FROM Employees WHERE {q} AND Department = 'Sales'"
        ))
        .unwrap();
    assert!(seq.rows.is_empty());
}

#[test]
fn index_answers_match_sequential_scan_over_time() {
    let (db, clock) = db_with_clock();
    let conn = play_empdep(&db, &clock);
    // A plain (unindexed) copy of the relation is the oracle.
    conn.exec("CREATE TABLE Plain (Name text, Department text, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    let all = conn
        .exec("SELECT Name, Department, Time_Extent FROM Employees")
        .unwrap();
    for row in all.text().iter() {
        conn.exec(&format!(
            "INSERT INTO Plain VALUES ('{}', '{}', '{}')",
            row[0], row[1], row[2]
        ))
        .unwrap();
    }
    let queries = [
        "Overlaps(Time_Extent, '3/97, UC, 3/97, NOW')",
        "Overlaps(Time_Extent, '12/10/95, UC, 12/10/95, NOW')",
        "ContainedIn(Time_Extent, '1/97, 12/99, 1/97, 12/99')",
        "Contains(Time_Extent, '6/97, 6/97, 4/97, 4/97')",
        "Equal(Time_Extent, '5/97, UC, 5/97, NOW')",
        "Overlaps(Time_Extent, '4/97, 5/97, 1/97, 4/97') OR \
         Equal(Time_Extent, '5/97, UC, 5/97, NOW')",
        "Overlaps(Time_Extent, '1/97, UC, 1/97, NOW') AND \
         ContainedIn(Time_Extent, '1/97, 12/99, 1/97, 12/99')",
    ];
    for when in [month(9, 1997), month(1, 1998), month(6, 2001)] {
        clock.set(when);
        for q in &queries {
            let indexed = conn
                .exec(&format!("SELECT Name FROM Employees WHERE {q}"))
                .unwrap();
            let plain = conn
                .exec(&format!("SELECT Name FROM Plain WHERE {q}"))
                .unwrap();
            let mut a: Vec<String> = indexed.text().iter().map(|r| r[0].clone()).collect();
            let mut b: Vec<String> = plain.text().iter().map(|r| r[0].clone()).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{q} at {when:?}");
        }
    }
}

#[test]
fn copies_agree_indexed_vs_unindexed_vs_rstar() {
    let (db, clock) = db_with_clock();
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
    for table in ["t_grt", "t_plain", "t_rstar"] {
        conn.exec(&format!(
            "CREATE TABLE {table} (id integer, Time_Extent GRT_TimeExtent_t)"
        ))
        .unwrap();
    }
    conn.exec("CREATE INDEX g_ix ON t_grt(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    conn.exec("CREATE INDEX r_ix ON t_rstar(Time_Extent rstar_opclass) USING rstar_am")
        .unwrap();
    // A mixed synthetic history.
    clock.set(Day(10_000));
    for i in 0..120i32 {
        let base = 10_000 + (i * 7) % 300;
        clock.set(Day(10_000 + (i * 7) % 300));
        let extent = match i % 4 {
            0 => format!("{}, UC, {}, NOW", render(base), render(base)),
            1 => format!(
                "{}, UC, {}, {}",
                render(base),
                render(base - 5),
                render(base + 40)
            ),
            2 => format!("{}, UC, {}, NOW", render(base), render(base - 3)),
            _ => format!(
                "{}, {}, {}, {}",
                render(base - 7),
                render(base),
                render(base - 9),
                render(base + 2)
            ),
        };
        for table in ["t_grt", "t_plain", "t_rstar"] {
            conn.exec(&format!("INSERT INTO {table} VALUES ({i}, '{extent}')"))
                .unwrap();
        }
    }
    // Delete a third of the rows everywhere (exercises grt_delete and
    // the R*-tree delete path).
    clock.set(Day(10_400));
    for table in ["t_grt", "t_plain", "t_rstar"] {
        conn.exec(&format!(
            "DELETE FROM {table} WHERE ContainedIn(Time_Extent, '{}, {}, {}, {}')",
            render(9_980),
            render(10_100),
            render(9_980),
            render(10_100)
        ))
        .unwrap();
    }
    let queries = [
        format!(
            "Overlaps(Time_Extent, '{}, UC, {}, NOW')",
            render(10_150),
            render(10_150)
        ),
        format!(
            "Overlaps(Time_Extent, '{}, {}, {}, {}')",
            render(10_050),
            render(10_120),
            render(10_040),
            render(10_200)
        ),
        format!(
            "Contains(Time_Extent, '{}, {}, {}, {}')",
            render(10_100),
            render(10_100),
            render(10_050),
            render(10_050)
        ),
    ];
    for when in [Day(10_400), Day(10_900), Day(20_000)] {
        clock.set(when);
        for q in &queries {
            let mut results: Vec<Vec<i64>> = Vec::new();
            for table in ["t_grt", "t_plain", "t_rstar"] {
                let r = conn
                    .exec(&format!("SELECT id FROM {table} WHERE {q}"))
                    .unwrap();
                let mut ids: Vec<i64> = r
                    .rows
                    .iter()
                    .map(|row| match &row[0] {
                        Value::Int(i) => *i,
                        other => panic!("{other}"),
                    })
                    .collect();
                ids.sort_unstable();
                results.push(ids);
            }
            assert_eq!(results[0], results[1], "grt vs plain: {q} at {when:?}");
            assert_eq!(results[2], results[1], "rstar vs plain: {q} at {when:?}");
        }
    }
    // Both indices pass their consistency checks.
    conn.exec("CHECK INDEX g_ix").unwrap();
    conn.exec("CHECK INDEX r_ix").unwrap();
    let stats = conn.exec("UPDATE STATISTICS FOR INDEX g_ix").unwrap();
    assert!(stats.message.contains("grtree"), "{}", stats.message);
}

fn render(day: i32) -> String {
    let d = Day(day);
    let (y, m, dd) = d.to_ymd();
    format!("{m:02}/{dd:02}/{y:04}")
}

#[test]
fn figure_6_call_sequences() {
    let (db, clock) = db_with_clock();
    let conn = play_empdep(&db, &clock);
    let trace = db.trace();
    trace.on("AM", 1);
    trace.take();
    // Figure 6(a): INSERT.
    conn.exec("INSERT INTO Employees VALUES ('Kai', 'Sales', '9/97, UC, 9/97, NOW')")
        .unwrap();
    let insert_calls: Vec<String> = trace.take().into_iter().map(|e| e.message).collect();
    assert_eq!(
        insert_calls,
        vec![
            "grt_open".to_string(),
            "grt_insert".into(),
            "grt_close".into()
        ],
        "Figure 6(a)"
    );
    // Figure 6(b): SELECT through the index. The executor pulls rows
    // in batches, so the per-row grt_getnext of the paper's figure
    // appears as grt_getnext_batch calls here.
    conn.exec("SELECT Name FROM Employees WHERE Overlaps(Time_Extent, '9/97, UC, 9/97, NOW')")
        .unwrap();
    let select_calls: Vec<String> = trace.take().into_iter().map(|e| e.message).collect();
    assert_eq!(select_calls[0], "grt_scancost", "optimizer first");
    assert_eq!(
        select_calls[1..4],
        [
            "grt_open".to_string(),
            "grt_beginscan".into(),
            "grt_getnext_batch".into()
        ]
    );
    assert!(
        select_calls
            .iter()
            .filter(|c| *c == "grt_getnext_batch")
            .count()
            >= 1
    );
    assert_eq!(
        select_calls[select_calls.len() - 2..],
        ["grt_endscan".to_string(), "grt_close".into()]
    );
}

/// The Section 5.5 flow for one access method: a `DELETE` routed
/// through the index interleaves `am_getnext_batch` with `am_delete`
/// on the same descriptor, the deletes condense the tree under the
/// open cursor, and the restart rule must keep the scan off the freed
/// pages without losing or replaying a row. 1 000 ground rows `[d, d+3]`
/// on every axis, fan-out 8 where the method has one, then a window
/// covering a quarter of them; `t` is indexed, `u` is its unindexed
/// copy given the same statement.
fn delete_through_index_restarts(
    am: &str,
    column: &str,
    value: impl Fn(i32) -> String,
    victims: &str,
    prefix: &str,
) {
    let (db, clock) = db_with_clock();
    install_rstar_blade(
        &db,
        NowStrategy::MaxTimestamp,
        RStarOptions {
            max_entries: 8,
            ..Default::default()
        },
    )
    .unwrap();
    install_gist_blade(&db).unwrap();
    let conn = db.connect();
    for table in ["t", "u"] {
        conn.exec(&format!(
            "CREATE TABLE {table} (id integer, pad text, k {column})"
        ))
        .unwrap();
    }
    conn.exec(&format!("CREATE INDEX tix ON t(k) USING {am}"))
        .unwrap();
    let pad = "x".repeat(500);
    for i in 0..1000i32 {
        let d = 11_000 + i;
        clock.set(Day(d));
        for table in ["t", "u"] {
            conn.exec(&format!(
                "INSERT INTO {table} VALUES ({i}, '{pad}', '{}')",
                value(d)
            ))
            .unwrap();
        }
    }
    clock.set(Day(13_000));
    let ids = |table: &str| {
        let mut ids: Vec<String> = conn
            .exec(&format!("SELECT id FROM {table}"))
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].to_string())
            .collect();
        ids.sort();
        ids
    };
    conn.exec(&format!("DELETE FROM u WHERE {victims}"))
        .unwrap();
    let before = db.metrics_snapshot();
    db.trace().on("AM", 1);
    db.trace().take();
    conn.exec(&format!("DELETE FROM t WHERE {victims}"))
        .unwrap_or_else(|e| panic!("{am}: DELETE through the index failed: {e}"));
    let calls: Vec<String> = db.trace().take().into_iter().map(|e| e.message).collect();
    let first_delete = calls.iter().position(|c| c.ends_with("_delete"));
    let last_batch = calls.iter().rposition(|c| c.ends_with("_getnext_batch"));
    assert!(
        first_delete.is_some() && first_delete < last_batch,
        "{am}: the DELETE must interleave getnext_batch and delete: {calls:?}"
    );
    assert!(
        db.metrics_snapshot()
            .since(&before)
            .get(&format!("{prefix}.condenses"))
            > 0,
        "{am}: the deletes never condensed the tree"
    );
    let left = ids("t");
    assert!(left.len() < 800, "{am}: {} rows left", left.len());
    assert_eq!(left, ids("u"), "{am}: indexed and unindexed copies differ");
    conn.exec("CHECK INDEX tix").unwrap();
}

fn ground_square(d: i32) -> String {
    let (a, b) = (render(d), render(d + 3));
    format!("{a}, {b}, {a}, {b}")
}

fn window() -> String {
    let (a, b) = (render(11_333), render(11_583));
    format!("Overlaps(k, '{a}, {b}, {a}, {b}')")
}

#[test]
fn delete_through_grtree_am_restarts_the_cursor() {
    let column = "GRT_TimeExtent_t";
    delete_through_index_restarts("grtree_am", column, ground_square, &window(), "grtree");
}

#[test]
fn delete_through_rstar_am_restarts_the_cursor() {
    let column = "GRT_TimeExtent_t";
    delete_through_index_restarts("rstar_am", column, ground_square, &window(), "rstar");
}

#[test]
fn delete_through_gist_am_restarts_the_cursor() {
    let range = |d: i32| format!("{d}..{}", d + 3);
    let victims = "RangeOverlaps(k, '11333..11583')";
    delete_through_index_restarts("gist_am", "IntRange_t", range, victims, "gist");
}

#[test]
fn transactions_roll_back_the_blade() {
    let (db, clock) = db_with_clock();
    let conn = play_empdep(&db, &clock);
    conn.exec("BEGIN WORK").unwrap();
    conn.exec("INSERT INTO Employees VALUES ('Temp', 'Sales', '9/97, UC, 9/97, NOW')")
        .unwrap();
    let r = conn
        .exec("SELECT Name FROM Employees WHERE Equal(Time_Extent, '9/97, UC, 9/97, NOW')")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    conn.exec("ROLLBACK WORK").unwrap();
    let r = conn
        .exec("SELECT Name FROM Employees WHERE Equal(Time_Extent, '9/97, UC, 9/97, NOW')")
        .unwrap();
    assert!(r.rows.is_empty(), "rollback undid heap and GR-tree: {r:?}");
    conn.exec("CHECK INDEX grt_index").unwrap();
}

#[test]
fn registration_script_is_reexecutable_artifact() {
    let script = grt_blade::registration_script();
    assert!(script.contains("CREATE SECONDARY ACCESS_METHOD grtree_am"));
    assert!(script.contains("CREATE OPCLASS grt_opclass FOR grtree_am"));
    assert!(script.contains("grt_getnext"));
    // Installing twice fails cleanly on duplicates (the paper's
    // BladeManager un-registers first).
    let (db, _clock) = db_with_clock();
    let err = install_grtree_blade(&db, GrTreeAmOptions::default());
    assert!(err.is_err(), "duplicate registration must be rejected");
}

#[test]
fn per_transaction_current_time_is_stable_across_statements() {
    use grt_blade::CurrentTimePolicy;
    let clock = MockClock::new(Day(10_000));
    let db = Database::new(DatabaseOptions {
        clock: Arc::new(clock.clone()),
        ..Default::default()
    });
    install_grtree_blade(
        &db,
        GrTreeAmOptions {
            curtime: CurrentTimePolicy::PerTransaction,
            ..Default::default()
        },
    )
    .unwrap();
    let conn = db.connect();
    conn.exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    // A tuple whose growing stair reaches the probe region only from
    // day 10_050 onwards.
    conn.exec(&format!(
        "INSERT INTO t VALUES (1, '{}, UC, {}, NOW')",
        render(10_000),
        render(10_000)
    ))
    .unwrap();
    let probe = format!(
        "Overlaps(Time_Extent, '{}, {}, {}, {}')",
        render(10_045),
        render(10_050),
        render(10_040),
        render(10_050)
    );
    conn.exec("BEGIN WORK").unwrap();
    // First use inside the transaction pins the current time at 10_020:
    // the stair has not reached the probe yet.
    clock.set(Day(10_020));
    let r1 = conn
        .exec(&format!("SELECT id FROM t WHERE {probe}"))
        .unwrap();
    assert!(r1.rows.is_empty());
    // The wall clock races ahead, but the transaction's time stands
    // still (Section 5.4's design): the answer must not change.
    clock.set(Day(10_100));
    let r2 = conn
        .exec(&format!("SELECT id FROM t WHERE {probe}"))
        .unwrap();
    assert!(
        r2.rows.is_empty(),
        "per-transaction current time must be stable: {r2:?}"
    );
    conn.exec("COMMIT WORK").unwrap();
    // A new transaction samples afresh: now the region has grown in.
    let r3 = conn
        .exec(&format!("SELECT id FROM t WHERE {probe}"))
        .unwrap();
    assert_eq!(r3.rows.len(), 1);
}

#[test]
fn support_functions_are_usable_from_sql() {
    // The operator class *declares* grt_union/grt_size/grt_intersection
    // (Section 4's example); the blade hard-codes the internal-region
    // versions, but the declared UDRs remain callable from SQL.
    let (db, clock) = db_with_clock();
    let conn = play_empdep(&db, &clock);
    // Area of Jane's growing stair at CT = 9/97 (via a non-strategy
    // function in the WHERE clause: evaluated by sequential scan).
    let r = conn
        .exec("SELECT Name FROM Employees WHERE grt_size(Time_Extent) > 5000")
        .unwrap();
    assert!(!r.rows.is_empty());
    // grt_intersection of a column with a constant.
    let r = conn
        .exec(
            "SELECT Name FROM Employees \
             WHERE grt_intersection(Time_Extent, '5/97, UC, 5/97, NOW') > 0",
        )
        .unwrap();
    let text = r.text();
    let names: Vec<&str> = text.iter().map(|row| row[0].as_str()).collect();
    assert!(names.contains(&"Jane"), "{names:?}");
    // A non-strategy call cannot use the index: trace shows no getnext.
    db.trace().on("AM", 1);
    db.trace().take();
    conn.exec("SELECT Name FROM Employees WHERE grt_size(Time_Extent) > 0")
        .unwrap();
    let calls: Vec<String> = db.trace().take().into_iter().map(|e| e.message).collect();
    assert!(
        !calls.iter().any(|c| c == "grt_getnext"),
        "support functions must not drive the index: {calls:?}"
    );
}
