//! Heap allocations per returned row of an indexed `SELECT`, counted
//! exactly, embedded and over the wire. A test binary of its own: the
//! counting allocator is this process's global allocator. It counts the
//! thread under test, and every thread of the process beside it.
//!
//! The budget is what is left once per-scan work is done per scan and
//! text is made only by whoever prints it: a returned row of `SELECT id`
//! is one `Vec<Value>` (decoded straight into the output row) plus the
//! amortised growth of the result vectors — 1.05 a row. `rendered` holds
//! only text the server alone can make (an opaque column's), so this
//! result carries none; a `Vec<String>` and a `String` a row for a copy
//! nobody reads was 3.05. A hash-set insert per hit, a key value nobody
//! reads, a decoded column nobody asked for, a projected clone or a text
//! copy each show up here as a whole number of allocations a row — at
//! the commit before this test the count was 9.06.
//!
//! The wire client (`RemoteDriver` against an in-process `Server`,
//! counted on the client thread alone) pays the same: one `Vec<Value>`
//! a row decoded off the frame, 1.01 a row; rendering each cell as it
//! arrived was 3.01.
//!
//! The server (the whole process less the client thread) pays for none
//! of the rows: the engine copies each row's column bytes off the heap
//! page into the connection's buffer of row images, and each batch is a
//! slice of it, so what is left is per statement, per index batch and
//! per frame — 0.047 a row. While the server decoded each row into a
//! `Vec<Value>`, parked the rows and encoded them again it paid what the
//! embedded door pays, 1.05 a row.

use grtree_datablade::blade::{install_grtree_blade, GrTreeAmOptions};
use grtree_datablade::client::{Driver, RemoteDriver};
use grtree_datablade::ids::{Connection, Database, DatabaseOptions};
use grtree_datablade::server::{Server, ServerOptions};
use grtree_datablade::temporal::{Day, MockClock};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    /// `Some(n)` while this thread is being counted.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Every allocation of the process, on any thread.
static PROCESS: AtomicU64 = AtomicU64::new(0);

fn count_one() {
    PROCESS.fetch_add(1, Ordering::Relaxed);
    COUNT.with(|c| c.set(c.get().map(|n| n + 1)));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the count is a thread-local `Cell` with a
// const initialiser and no destructor, so touching it neither allocates
// nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Rows returned by `sql` and the allocations this thread made running
/// it (the statement runs on the calling thread end to end).
fn counted(conn: &Connection, sql: &str) -> (usize, u64) {
    counted_by(|| conn.exec(sql).unwrap().rows.len())
}

/// Rows `run` returns and the allocations this thread made for them.
fn counted_by(run: impl FnOnce() -> usize) -> (usize, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let rows = run();
    let allocations = COUNT.with(|c| c.take()).expect("counting was on");
    (rows, allocations)
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
    assert!(per_row <= 1.5, "{per_row:.2} allocations a returned row");
    assert_eq!(
        counted(&conn, &scan),
        (rows, allocations),
        "the count repeats"
    );

    // The same scan over the wire, counted on the client's thread and
    // in the whole process: the server's share is the difference (the
    // process runs nothing else while the statement is in flight). Once
    // unmeasured, as above: the connection's buffers grow to the result
    // once and serve every statement after it.
    let mut server = Server::new(db.clone(), ServerOptions::default())
        .start()
        .unwrap();
    let remote = RemoteDriver::connect(server.local_addr()).unwrap();
    remote.exec(&scan).unwrap();
    let before = PROCESS.load(Ordering::SeqCst);
    let (wire_rows, wire) = counted_by(|| remote.exec(&scan).unwrap().rows.len());
    let served = PROCESS.load(Ordering::SeqCst) - before - wire;
    assert_eq!(wire_rows, rows);
    let wire_per_row = wire as f64 / rows as f64;
    println!("wire scan: {wire} allocations for {rows} rows = {wire_per_row:.2} a row");
    assert!(
        wire_per_row <= 1.5,
        "{wire_per_row:.2} allocations a row on the wire client"
    );
    let served_per_row = served as f64 / rows as f64;
    println!("served scan: {served} allocations for {rows} rows = {served_per_row:.3} a row");
    assert!(
        served_per_row <= 0.05,
        "{served_per_row:.3} allocations a row on the server"
    );
    remote.goodbye().unwrap();
    server.shutdown();

    let (rows, allocations) = counted(&conn, &probe);
    println!("probe: {allocations} allocations for {rows} row");
    assert_eq!(rows, 1);
    assert!(
        allocations <= PROBE_ALLOCATIONS_BEFORE,
        "a one-row probe allocates {allocations} times, {PROBE_ALLOCATIONS_BEFORE} before"
    );
}
