//! Trace-driven regression tests for the Figure 6 call sequences: with
//! the `"AM"` trace class enabled, `CREATE INDEX` over a populated
//! table followed by one index probe — and, on a table carrying two
//! indexes under two access methods, INSERT, indexed DELETE and indexed
//! UPDATE — must emit exactly the golden purpose-function sequences.
//! Any drift in how the engine drives the virtual-index interface shows
//! up as a diff against the golden file (regenerate deliberately with
//! `UPDATE_GOLDEN=1`).

use grtree_datablade::blade::{install_grtree_blade, install_rstar_blade, GrTreeAmOptions};
use grtree_datablade::ids::{Database, DatabaseOptions};
use grtree_datablade::rstar::bitemporal::NowStrategy;
use grtree_datablade::temporal::{Day, MockClock};
use std::sync::Arc;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/figure6_am.txt");
const GOLDEN_DML: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/figure6_dml.txt");

/// An `Overlaps` predicate over the ground rectangle `[from, to]²`.
fn overlaps(from: i32, to: i32) -> String {
    let (y1, m1, d1) = Day(from).to_ymd();
    let (y2, m2, d2) = Day(to).to_ymd();
    format!(
        "Overlaps(Time_Extent, '{m1:02}/{d1:02}/{y1}, {m2:02}/{d2:02}/{y2}, \
         {m1:02}/{d1:02}/{y1}, {m2:02}/{d2:02}/{y2}')"
    )
}

#[test]
fn create_index_and_probe_match_golden_am_sequence() {
    let clock = MockClock::new(Day(10_000));
    let db = Database::new(DatabaseOptions {
        clock: Arc::new(clock.clone()),
        ..Default::default()
    });
    // Default tree fanout: the whole index stays a few pages, and the
    // probe below is narrow, so the planner's qual-aware estimate beats
    // the sequential scan and exercises the Figure 6(b) sequence.
    install_grtree_blade(&db, GrTreeAmOptions::default()).unwrap();
    let conn = db.connect();
    conn.exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    // Preloaded rows, so CREATE INDEX walks the heap and bulk-builds
    // the index through `am_build` (with `am_insert` as the engine's
    // fallback), and so the planner later picks the index over a
    // sequential scan.
    for i in 0..40i32 {
        clock.set(Day(10_000 + i));
        let (y, m, d) = Day(10_000 + i).to_ymd();
        conn.exec(&format!(
            "INSERT INTO t VALUES ({i}, '{m:02}/{d:02}/{y}, UC, {m:02}/{d:02}/{y}, NOW')"
        ))
        .unwrap();
    }

    conn.exec("SET TRACE ON 'AM'").unwrap();
    conn.exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    // A narrow ground-extent probe: it covers a sliver of the indexed
    // region, so the qual-aware `am_scancost` beats the sequential scan.
    let (y1, m1, d1) = Day(10_005).to_ymd();
    let (y2, m2, d2) = Day(10_010).to_ymd();
    conn.exec(&format!(
        "SELECT id FROM t WHERE Overlaps(Time_Extent, \
         '{m1:02}/{d1:02}/{y1}, {m2:02}/{d2:02}/{y2}, \
          {m1:02}/{d1:02}/{y1}, {m2:02}/{d2:02}/{y2}')"
    ))
    .unwrap();
    conn.exec("SET TRACE OFF").unwrap();

    let events: Vec<_> = db
        .trace()
        .events_for(conn.session().id())
        .into_iter()
        .filter(|e| e.class == "AM")
        .collect();

    // The two statements are distinct spans: every event carries one of
    // exactly two non-zero span ids, in two contiguous runs.
    let spans: Vec<u64> = events.iter().map(|e| e.span).collect();
    let mut distinct = spans.clone();
    distinct.dedup();
    assert_eq!(distinct.len(), 2, "expected two statement spans: {spans:?}");
    assert!(distinct.iter().all(|&s| s != 0));

    let got: String = events
        .iter()
        .map(|e| e.message.as_str())
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).unwrap();
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing — regenerate with UPDATE_GOLDEN=1");
    // The probe must actually have used the index, or the golden
    // sequence is not the Figure 6(b) one.
    assert!(
        want.contains("grt_beginscan"),
        "golden trace does not contain an index scan"
    );
    assert_eq!(
        got, want,
        "AM call sequence drifted from the golden Figure 6 trace \
         (UPDATE_GOLDEN=1 regenerates after a deliberate change)"
    );
}

/// INSERT, DELETE through the scanned index (the Section 5.5 flow: the
/// victims come from `am_getnext_batch` and are deleted through the
/// same open descriptor, the table's other index through its own) and
/// UPDATE through an index scan, on a table indexed by both `grtree_am`
/// and `rstar_am`. One statement, one span; the sequence is pinned.
#[test]
fn dml_on_a_two_index_table_matches_golden_am_sequence() {
    let clock = MockClock::new(Day(10_000));
    let db = Database::new(DatabaseOptions {
        clock: Arc::new(clock.clone()),
        ..Default::default()
    });
    install_grtree_blade(&db, GrTreeAmOptions::default()).unwrap();
    install_rstar_blade(&db, NowStrategy::MaxTimestamp, Default::default()).unwrap();
    let conn = db.connect();
    conn.exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    let insert = |i: i32| {
        clock.set(Day(10_000 + i));
        let (y, m, d) = Day(10_000 + i).to_ymd();
        conn.exec(&format!(
            "INSERT INTO t VALUES ({i}, '{m:02}/{d:02}/{y}, UC, {m:02}/{d:02}/{y}, NOW')"
        ))
        .unwrap();
    };
    (0..40).for_each(insert);
    conn.exec("CREATE INDEX gix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    conn.exec("CREATE INDEX rix ON t(Time_Extent rstar_opclass) USING rstar_am")
        .unwrap();

    conn.exec("SET TRACE ON 'AM'").unwrap();
    insert(40);
    let deleted = conn
        .exec(&format!("DELETE FROM t WHERE {}", overlaps(10_003, 10_006)))
        .unwrap();
    let updated = conn
        .exec(&format!(
            "UPDATE t SET id = 1000 WHERE {}",
            overlaps(10_020, 10_023)
        ))
        .unwrap();
    conn.exec("SET TRACE OFF").unwrap();
    // More than one victim each, so the per-row maintenance brackets
    // repeat inside one statement.
    assert_ne!(deleted.message, "0 rows deleted");
    assert_ne!(deleted.message, "1 rows deleted");
    assert_ne!(updated.message, "0 rows updated");
    assert_ne!(updated.message, "1 rows updated");

    let events: Vec<_> = db
        .trace()
        .events_for(conn.session().id())
        .into_iter()
        .filter(|e| e.class == "AM")
        .collect();
    let mut spans: Vec<u64> = events.iter().map(|e| e.span).collect();
    spans.dedup();
    assert_eq!(spans.len(), 3, "expected three statement spans: {spans:?}");

    let got: String = events.iter().map(|e| e.message.clone() + "\n").collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_DML, &got).unwrap();
    }
    let want = std::fs::read_to_string(GOLDEN_DML)
        .expect("golden file missing — regenerate with UPDATE_GOLDEN=1");
    // Both DML statements must have gone through an index, and both
    // access methods must have been maintained (`rstar_am` registers no
    // maintenance functions of its own, so its slots trace by slot name).
    for name in [
        "_beginscan",
        "grt_delete",
        "am_delete",
        "grt_update",
        "am_update",
    ] {
        assert!(want.contains(name), "golden trace lacks {name}:\n{want}");
    }
    assert_eq!(
        got, want,
        "AM call sequence drifted from the golden DML trace \
         (UPDATE_GOLDEN=1 regenerates after a deliberate change)"
    );
}
