//! Heap allocations per returned row of an embedded indexed `SELECT`,
//! counted exactly. A test binary of its own: the counting allocator is
//! this process's global allocator.
//!
//! The budget is what is left once per-scan work is done per scan: a
//! returned row of `SELECT id` is one `Vec<Value>` (decoded straight
//! into the output row), one `Vec<String>` and one `String` (the
//! rendered copy `QueryResult` carries), plus the amortised growth of
//! the result vectors. A hash-set insert per hit, a key value nobody
//! reads, a decoded column nobody asked for or a projected clone each
//! show up here as a whole number of allocations a row — at the commit
//! before this test the count was 9.06.
//!
//! The server's entry (`exec_served`) renders no text for a result
//! without an opaque column — the client rebuilds it from the values —
//! so the same scan served costs the output row alone: 1.05 a row,
//! against 3.05 through the embedded entry, which renders every row.

use grtree_datablade::blade::{install_grtree_blade, GrTreeAmOptions};
use grtree_datablade::ids::{Connection, Database, DatabaseOptions, QueryResult};
use grtree_datablade::temporal::{Day, MockClock};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// `Some(n)` while this thread is being counted.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the count is a thread-local `Cell` with a
// const initialiser and no destructor, so touching it neither allocates
// nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNT.with(|c| c.set(c.get().map(|n| n + 1)));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNT.with(|c| c.set(c.get().map(|n| n + 1)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Rows returned by `sql` and the allocations this thread made running
/// it (the statement runs on the calling thread end to end).
fn counted(conn: &Connection, sql: &str) -> (usize, u64) {
    counted_by(|| conn.exec(sql))
}

/// [`counted`] through any statement entry.
fn counted_by(run: impl FnOnce() -> grtree_datablade::ids::Result<QueryResult>) -> (usize, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let result = run();
    let allocations = COUNT.with(|c| c.take()).expect("counting was on");
    (result.unwrap().rows.len(), allocations)
}

const ROWS: usize = 20_000;
const DAY0: i32 = 10_000;

fn render(day: i32) -> String {
    let (y, m, d) = Day(day).to_ymd();
    format!("{m:02}/{d:02}/{y:04}")
}

fn square(from: i32, to: i32) -> String {
    let (a, b) = (render(from), render(to));
    format!("{a}, {b}, {a}, {b}")
}

/// `g (id, Time_Extent)`: row `i` is the ground square `[d, d + 3]` on
/// both axes, `d = DAY0 + i`, under a bulk-built GR-tree.
fn loaded() -> (Database, Connection) {
    let db = Database::new(DatabaseOptions {
        clock: Arc::new(MockClock::new(Day(DAY0 + ROWS as i32 + 10))),
        ..Default::default()
    });
    install_grtree_blade(&db, GrTreeAmOptions::default()).unwrap();
    let conn = db.connect();
    conn.exec("CREATE TABLE g (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    let lines: Vec<String> = (0..ROWS as i32)
        .map(|i| format!("{i}|{}", square(DAY0 + i, DAY0 + i + 3)))
        .collect();
    let path = std::env::temp_dir().join(format!("alloc-budget-{}.unl", std::process::id()));
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    conn.exec(&format!("LOAD FROM '{}' INSERT INTO g", path.display()))
        .unwrap();
    std::fs::remove_file(&path).ok();
    conn.exec("CREATE INDEX gix ON g(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    (db, conn)
}

/// Allocations of the one-row probe at the commit before this test
/// (5e3b9b0), counted by this same function.
const PROBE_ALLOCATIONS_BEFORE: u64 = 144;

#[test]
fn an_indexed_select_allocates_for_what_it_returns() {
    let (db, conn) = loaded();
    let window = square(DAY0 + 6_000, DAY0 + 11_000);
    let scan = format!("SELECT id FROM g WHERE Overlaps(Time_Extent, '{window}')");
    let probe_at = square(DAY0 + 777, DAY0 + 780);
    let probe = format!("SELECT id FROM g WHERE Equal(Time_Extent, '{probe_at}')");
    // Once unmeasured: the first execution compiles and plans.
    for sql in [&scan, &probe] {
        let before = db.metrics_snapshot();
        conn.exec(sql).unwrap();
        let d = db.metrics_snapshot().since(&before);
        assert_eq!(d.get("ids.plans_index"), 1, "not an index scan: {sql}");
    }

    let (rows, allocations) = counted(&conn, &scan);
    assert!((4_900..=5_100).contains(&rows), "{rows} rows");
    let per_row = allocations as f64 / rows as f64;
    println!("scan: {allocations} allocations for {rows} rows = {per_row:.2} a row");
    assert!(per_row <= 3.5, "{per_row:.2} allocations a returned row");
    assert_eq!(
        counted(&conn, &scan),
        (rows, allocations),
        "the count repeats"
    );

    // The server's entry: values only, no text.
    let (served_rows, served) = counted_by(|| conn.exec_served(&scan));
    assert_eq!(served_rows, rows);
    let served_per_row = served as f64 / rows as f64;
    println!("served scan: {served} allocations for {rows} rows = {served_per_row:.2} a row");
    assert!(
        served_per_row <= 1.5,
        "{served_per_row:.2} allocations a row served"
    );

    let (rows, allocations) = counted(&conn, &probe);
    println!("probe: {allocations} allocations for {rows} row");
    assert_eq!(rows, 1);
    assert!(
        allocations <= PROBE_ALLOCATIONS_BEFORE,
        "a one-row probe allocates {allocations} times, {PROBE_ALLOCATIONS_BEFORE} before"
    );
}
