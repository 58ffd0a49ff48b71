//! Page-ordered row fetch: an index scan drains the index, sorts the
//! rowids and makes one ordered pass over the heap, pinning each page
//! once. Two checkable consequences:
//!
//! * **counts** — the heap I/O of an index scan is bounded by the
//!   distinct pages holding its rows, not by the number of rows;
//! * **order** — an unordered indexed `SELECT` answers in rowid order,
//!   which is exactly the order of a sequential scan, for every access
//!   method, on the locked and the snapshot path.

use grtree_datablade::blade::gist_am::install_gist_blade;
use grtree_datablade::blade::{install_grtree_blade, install_rstar_blade, GrTreeAmOptions};
use grtree_datablade::grtree::GrTreeOptions;
use grtree_datablade::ids::{Connection, Database, DatabaseOptions};
use grtree_datablade::rstar::bitemporal::NowStrategy;
use grtree_datablade::rstar::RStarOptions;
use grtree_datablade::sbspace::SbspaceOptions;
use grtree_datablade::temporal::{Day, MockClock};
use std::sync::Arc;

const DAY0: i32 = 10_000;

fn render(day: i32) -> String {
    let (y, m, d) = Day(day).to_ymd();
    format!("{m:02}/{d:02}/{y:04}")
}

/// Row `i` of `n` lives on day `(i * 7919) mod n`: a bijection (7919 is
/// prime and does not divide `n`), so load order is unrelated to time
/// and a time window's rows lie scattered over the whole heap.
fn shuffled_day(i: usize, n: usize) -> i32 {
    assert!(!n.is_multiple_of(7919));
    DAY0 + ((i * 7919) % n) as i32
}

/// Writes `lines` to a scratch file and `LOAD`s it into every table.
/// `tag` keeps the files of tests running side by side apart.
fn load(conn: &Connection, tag: &str, lines: &[String], tables: &[&str]) {
    let path = std::env::temp_dir().join(format!("pof-{tag}-{}.unl", std::process::id()));
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    for table in tables {
        let r = conn
            .exec(&format!(
                "LOAD FROM '{}' INSERT INTO {table}",
                path.display()
            ))
            .unwrap();
        assert_eq!(r.message, format!("{} rows loaded", lines.len()));
    }
    std::fs::remove_file(&path).ok();
}

fn extent_lines(n: usize, pad: usize) -> Vec<String> {
    let pad = "x".repeat(pad);
    (0..n)
        .map(|i| {
            let d = shuffled_day(i, n);
            let (a, b) = (render(d), render(d + 3));
            format!("{i}|{pad}|{a}, {b}, {a}, {b}")
        })
        .collect()
}

fn overlaps(from: i32, to: i32) -> String {
    let (a, b) = (render(from), render(to));
    format!("Overlaps(Time_Extent, '{a}, {b}, {a}, {b}')")
}

#[test]
fn index_scan_heap_io_is_bounded_by_distinct_pages_not_rows() {
    const ROWS: usize = 6_000;
    const POOL: usize = 64;
    let clock = MockClock::new(Day(DAY0 + ROWS as i32 + 10));
    let db = Database::new(DatabaseOptions {
        clock: Arc::new(clock),
        space: SbspaceOptions {
            pool_pages: POOL,
            ..Default::default()
        },
        ..Default::default()
    });
    install_grtree_blade(&db, GrTreeAmOptions::default()).unwrap();
    let conn = db.connect();
    conn.exec("CREATE TABLE t (id integer, pad text, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    load(&conn, "bound", &extent_lines(ROWS, 400), &["t"]);
    conn.exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();

    // A tenth of the days, so about a tenth of the rows.
    let query = format!(
        "SELECT id FROM t WHERE {}",
        overlaps(DAY0 + 3_000, DAY0 + 3_000 + ROWS as i32 / 10)
    );
    let before = db.metrics_snapshot();
    let rows = conn.exec(&query).unwrap().rows.len() as u64;
    let d = db.metrics_snapshot().since(&before);

    assert_eq!(d.get("ids.plans_index"), 1, "the probe must use the index");
    assert!((500..=700).contains(&rows), "about 10 % of {ROWS}: {rows}");
    let (heap_rows, heap_pages) = (d.get("scan.heap_rows"), d.get("scan.heap_pages"));
    assert_eq!(heap_rows, rows, "every index hit is a live row here");
    assert!(
        heap_pages >= 8 * POOL as u64 / 2 && heap_pages < rows,
        "the hits must lie several to a page over far more pages than the \
         pool holds, or the bounds below prove nothing: {heap_pages} pages"
    );
    let nodes = d.get("grtree.nodes_visited");
    assert!(nodes > 0 && nodes < 100, "{nodes} tree nodes");
    let (logical, physical) = (
        d.get("sbspace.logical_reads"),
        d.get("sbspace.physical_reads"),
    );
    // Besides the heap pass and the descent, the purpose functions read
    // the tree's meta page a few times (always a pool hit).
    assert!(
        logical <= heap_pages + nodes + 4,
        "{logical} logical reads for {heap_pages} heap pages + {nodes} nodes"
    );
    assert!(
        physical <= heap_pages + nodes,
        "{physical} physical reads for {heap_pages} heap pages + {nodes} nodes"
    );
    assert!(
        logical < rows,
        "{logical} logical reads must be fewer than the {rows} rows returned"
    );
}

/// Which read path a statement took and what its heap pass cost, from
/// the `EXPLAIN` trace of the last statement.
fn explain_of(db: &Database) -> (String, String) {
    let lines: Vec<String> = db
        .trace()
        .take()
        .into_iter()
        .filter(|e| e.class == "EXPLAIN")
        .map(|e| e.message)
        .collect();
    let find = |needle: &str| {
        lines
            .iter()
            .find(|m| m.contains(needle))
            .unwrap_or_else(|| panic!("no {needle:?} line in {lines:?}"))
            .clone()
    };
    (find(": plan: "), find(": heap fetch: "))
}

/// SELECT lists and what is ANDed to the probe. An index scan builds
/// only the columns a statement names, in the order it names them, so
/// the shapes are: the plain case, a residual on a column the list
/// leaves out, every column, and a reordered list with a repeat plus a
/// residual on a column it does have.
const SELECT_SHAPES: [(&str, &str); 4] = [
    ("id, tag", ""),
    ("tag", " AND id > 600"),
    ("*", ""),
    ("tag, id, id", " AND tag != 'late'"),
];

/// For a table `ix` with an index and its unindexed twin `plain`,
/// loaded and churned identically: every indexed `SELECT` answers row
/// for row in the order of the sequential scan over the twin.
fn assert_indexed_equals_sequential(db: &Database, conn: &Connection, am: &str, probes: &[String]) {
    conn.exec("SET EXPLAIN ON").unwrap();
    for locked in [false, true] {
        if locked {
            // A transaction that has written reads through the locked
            // path from then on.
            conn.exec("BEGIN WORK").unwrap();
            conn.exec("INSERT INTO scratch VALUES (1)").unwrap();
        }
        for (probe, (list, residual)) in probes
            .iter()
            .flat_map(|p| SELECT_SHAPES.iter().map(move |s| (p, s)))
        {
            let probe = &format!("{probe}{residual}");
            let what = format!("{am}, locked={locked}, {list}, {probe}");
            let before = db.metrics_snapshot();
            let want = conn
                .exec(&format!("SELECT {list} FROM plain WHERE {probe}"))
                .unwrap();
            let d = db.metrics_snapshot().since(&before);
            assert_eq!(d.get("ids.plans_seq"), 1, "twin must scan: {what}");
            assert!(want.rows.len() >= 20, "probe matches too little: {what}");

            db.trace().take();
            let before = db.metrics_snapshot();
            let got = conn
                .exec(&format!("SELECT {list} FROM ix WHERE {probe}"))
                .unwrap();
            let d = db.metrics_snapshot().since(&before);
            assert_eq!(d.get("ids.plans_index"), 1, "must use the index: {what}");
            assert_eq!(got.rows, want.rows, "row for row, in order: {what}");
            assert_eq!(got.text(), want.text(), "as text: {what}");
            assert_eq!(got.columns, want.columns, "{what}");

            let (plan, heap_fetch) = explain_of(db);
            let path = if locked { "locked" } else { "snapshot" };
            assert!(plan.contains(path), "{plan:?} for {what}");
            assert!(d.get("scan.heap_pages") > 0, "{what}");
            assert_eq!(
                heap_fetch,
                format!(
                    "ix: heap fetch: {} rows from {} pages",
                    d.get("scan.heap_rows"),
                    d.get("scan.heap_pages")
                ),
                "{what}"
            );
        }
        if locked {
            conn.exec("ROLLBACK WORK").unwrap();
        }
    }
    conn.exec("SET EXPLAIN OFF").unwrap();

    // An indexed UPDATE runs through the same scan: it moves the same
    // rows in the same order as the sequential one, so the two tables
    // stay identical down to their physical layout.
    let before = db.metrics_snapshot();
    let moved = conn
        .exec(&format!("UPDATE ix SET tag = 'moved' WHERE {}", probes[0]))
        .unwrap();
    let d = db.metrics_snapshot().since(&before);
    assert_eq!(d.get("ids.plans_index"), 1, "{am}: indexed UPDATE");
    assert_eq!(
        conn.exec(&format!(
            "UPDATE plain SET tag = 'moved' WHERE {}",
            probes[0]
        ))
        .unwrap()
        .message,
        moved.message
    );
    let (ix, plain) = (
        conn.exec("SELECT id, tag FROM ix").unwrap(),
        conn.exec("SELECT id, tag FROM plain").unwrap(),
    );
    assert!(ix.rows.iter().any(|r| r[1].to_string().contains("moved")));
    assert_eq!(ix.rows, plain.rows, "{am}: tables differ after UPDATE");
    // ... and the moved rows are still found through the index.
    assert_eq!(
        conn.exec(&format!("SELECT id, tag FROM ix WHERE {}", probes[0]))
            .unwrap()
            .rows,
        conn.exec(&format!("SELECT id, tag FROM plain WHERE {}", probes[0]))
            .unwrap()
            .rows,
        "{am}: after UPDATE"
    );
}

/// Holes and relocated rows, made the same way in both tables (`id` is
/// not indexed, so both statements scan sequentially).
fn churn(conn: &Connection) {
    for table in ["ix", "plain"] {
        conn.exec(&format!("DELETE FROM {table} WHERE id < 40"))
            .unwrap();
        conn.exec(&format!("UPDATE {table} SET tag = 'late' WHERE id > 1150"))
            .unwrap();
    }
}

const TWIN_ROWS: usize = 1_200;

fn twin_extent_tables(db: &Database, am: &str, index_ddl: &str) -> Connection {
    let conn = db.connect();
    for table in ["ix", "plain"] {
        conn.exec(&format!(
            "CREATE TABLE {table} (id integer, tag text, Time_Extent GRT_TimeExtent_t)"
        ))
        .unwrap();
    }
    conn.exec("CREATE TABLE scratch (x integer)").unwrap();
    load(&conn, am, &extent_lines(TWIN_ROWS, 40), &["ix", "plain"]);
    conn.exec(index_ddl).unwrap();
    churn(&conn);
    conn
}

fn extent_probes() -> Vec<String> {
    vec![
        overlaps(DAY0 + 300, DAY0 + 360),
        overlaps(DAY0 + 900, DAY0 + 1_000),
    ]
}

fn extent_db() -> Database {
    Database::new(DatabaseOptions {
        clock: Arc::new(MockClock::new(Day(DAY0 + TWIN_ROWS as i32 + 10))),
        ..Default::default()
    })
}

#[test]
fn grtree_indexed_select_and_update_equal_sequential_in_order() {
    let db = extent_db();
    // A small fan-out makes the tree several levels deep.
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
    let conn = twin_extent_tables(
        &db,
        "grtree",
        "CREATE INDEX tix ON ix(Time_Extent grt_opclass) USING grtree_am",
    );
    assert_indexed_equals_sequential(&db, &conn, "grtree_am", &extent_probes());
}

#[test]
fn rstar_indexed_select_and_update_equal_sequential_in_order() {
    let db = extent_db();
    install_rstar_blade(&db, NowStrategy::MaxTimestamp, RStarOptions::default()).unwrap();
    let conn = twin_extent_tables(
        &db,
        "rstar",
        "CREATE INDEX rix ON ix(Time_Extent rstar_opclass) USING rstar_am",
    );
    assert_indexed_equals_sequential(&db, &conn, "rstar_am", &extent_probes());
}

#[test]
fn gist_indexed_select_and_update_equal_sequential_in_order() {
    let db = Database::new(DatabaseOptions::default());
    install_gist_blade(&db).unwrap();
    let conn = db.connect();
    for table in ["ix", "plain"] {
        conn.exec(&format!(
            "CREATE TABLE {table} (id integer, tag text, span IntRange_t)"
        ))
        .unwrap();
    }
    conn.exec("CREATE TABLE scratch (x integer)").unwrap();
    let lines: Vec<String> = (0..TWIN_ROWS)
        .map(|i| {
            let lo = shuffled_day(i, TWIN_ROWS);
            format!("{i}|fresh|{lo}..{}", lo + 3)
        })
        .collect();
    load(&conn, "gist", &lines, &["ix", "plain"]);
    conn.exec("CREATE INDEX gix ON ix(span gist_range_ops) USING gist_am")
        .unwrap();
    churn(&conn);
    let probes = [(300, 360), (900, 1_000)]
        .map(|(a, b)| format!("RangeOverlaps(span, '{}..{}')", DAY0 + a, DAY0 + b));
    assert_indexed_equals_sequential(&db, &conn, "gist_am", &probes);
}
