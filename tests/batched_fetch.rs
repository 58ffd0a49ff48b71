//! The batched-fetch contract: `scan_batch_rows` changes how many rows
//! each `am_getnext_batch` call hands back, never which rows a
//! statement returns or deletes — including through the cursor restart
//! a condense forces in the middle of a `DELETE`.

use grtree_datablade::blade::{install_grtree_blade, GrTreeAmOptions};
use grtree_datablade::grtree::GrTreeOptions;
use grtree_datablade::ids::{Connection, Database, DatabaseOptions, Value};
use grtree_datablade::temporal::{Day, MockClock};
use std::sync::Arc;

fn render(day: i32) -> String {
    let (y, m, d) = Day(day).to_ymd();
    format!("{m:02}/{d:02}/{y:04}")
}

/// Populates `t` with `n` rows: even ids now-relative (`UC`/`NOW`),
/// odd ids with closed extents — the mix the GR-tree's stair encoding
/// exists for.
fn populate(conn: &Connection, clock: &MockClock, n: i32) {
    conn.exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    for i in 0..n {
        clock.set(Day(10_000 + i));
        let start = render(10_000 + i);
        let extent = if i % 2 == 0 {
            format!("{start}, UC, {start}, NOW")
        } else {
            format!("{start}, UC, {start}, {}", render(10_000 + i + 30))
        };
        conn.exec(&format!("INSERT INTO t VALUES ({i}, '{extent}')"))
            .unwrap();
    }
}

fn ids_of(conn: &Connection, query: &str) -> Vec<i64> {
    let mut out: Vec<i64> = conn
        .exec(query)
        .unwrap()
        .rows
        .into_iter()
        .map(|row| match row[0] {
            Value::Int(v) => v,
            ref other => panic!("unexpected id value {other:?}"),
        })
        .collect();
    out.sort_unstable();
    out
}

/// A database whose GR-tree uses a small fan-out, so a few hundred
/// rows make a tree several levels deep, with an explicit executor
/// batch size for `am_getnext_batch`.
fn db_with_batch(batch: usize) -> (Database, MockClock) {
    let clock = MockClock::new(Day(10_000));
    let db = Database::new(DatabaseOptions {
        clock: Arc::new(clock.clone()),
        scan_batch_rows: batch,
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

#[test]
fn batch_size_changes_execution_not_answers() {
    // The batched-fetch contract: `scan_batch_rows` ∈ {1, 16, 256}
    // must change only how many rows each am_getnext_batch call hands
    // back, never the rows themselves — on a plain scan and through a
    // condense-mid-DELETE cursor restart.
    let mut reference: Option<(Vec<i64>, Vec<i64>)> = None;
    for batch in [1usize, 16, 256] {
        let (db, clock) = db_with_batch(batch);
        let conn = db.connect();
        populate(&conn, &clock, 300);
        clock.set(Day(10_400));

        let probe = format!(
            "SELECT id FROM t WHERE Overlaps(Time_Extent, '{}, {}, {}, {}')",
            render(10_050),
            render(10_080),
            render(10_040),
            render(10_090)
        );
        let before = db.metrics_snapshot();
        let hits = ids_of(&conn, &probe);
        let d = db.metrics_snapshot().since(&before);
        assert_eq!(d.get("ids.plans_index"), 1, "probe through the index: {d}");
        let h = d.histogram("scan.batch_rows");
        assert!(h.count > 0, "batch fills unobserved: {d}");
        assert!(
            h.mean_ns() <= batch as u64,
            "a batch cannot exceed scan_batch_rows={batch}: {d}"
        );

        // The condense-mid-DELETE restart: deletions interleave with
        // batched fetches through the same descriptor.
        let before = db.metrics_snapshot();
        conn.exec(&format!(
            "DELETE FROM t WHERE Overlaps(Time_Extent, '{}, {}, {}, {}')",
            render(10_000),
            render(10_250),
            render(9_990),
            render(10_251)
        ))
        .unwrap();
        let d = db.metrics_snapshot().since(&before);
        assert!(
            d.get("grtree.condenses") > 0,
            "mass delete at batch {batch} never condensed: {d}"
        );
        let left = ids_of(&conn, "SELECT id FROM t");
        conn.exec("CHECK INDEX tix").unwrap();

        match &reference {
            None => reference = Some((hits, left)),
            Some((ref_hits, ref_left)) => {
                assert_eq!(&hits, ref_hits, "scan drifted at batch {batch}");
                assert_eq!(&left, ref_left, "delete drifted at batch {batch}");
            }
        }
    }
}
