//! Parallel index-scan equivalence: for any degree, `SET PARALLEL n`
//! must change only the execution strategy, never the answer. The
//! suite drives the SQL surface end to end — session degree override,
//! the planner picking the index, the work-stealing traversal over the
//! pinned read path, and the merged-batch cursor contract (no
//! duplicate rows, restart-after-condense) — and cross-checks the
//! `scan.parallel_*` counters.

use grtree_datablade::blade::{install_grtree_blade, GrTreeAmOptions};
use grtree_datablade::grtree::GrTreeOptions;
use grtree_datablade::ids::{Connection, Database, DatabaseOptions, Value};
use grtree_datablade::sbspace::{
    self, Backend, MemBackend, MemWal, PageBuf, PageId, Sbspace, SbspaceOptions, PAGE_SIZE,
};
use grtree_datablade::temporal::{Day, MockClock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

fn render(day: i32) -> String {
    let (y, m, d) = Day(day).to_ymd();
    format!("{m:02}/{d:02}/{y:04}")
}

/// A database whose GR-tree uses a small fan-out, so a few hundred
/// rows spread the index over enough pages to clear the parallel-scan
/// threshold.
fn db_small_fanout() -> (Database, MockClock) {
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
    (db, clock)
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

#[test]
fn parallel_scan_matches_serial_across_degrees() {
    let (db, clock) = db_small_fanout();
    let conn = db.connect();
    populate(&conn, &clock, 300);
    clock.set(Day(10_400));

    // Two selective slices of the history — one early, one late enough
    // to cut across the still-growing `UC`/`NOW` stairs. Either way the
    // qual-aware estimate keeps the index cheaper than the heap sweep.
    let probes = [
        format!(
            "Overlaps(Time_Extent, '{}, {}, {}, {}')",
            render(10_050),
            render(10_080),
            render(10_040),
            render(10_090)
        ),
        format!(
            "Overlaps(Time_Extent, '{}, {}, {}, {}')",
            render(10_150),
            render(10_190),
            render(10_140),
            render(10_200)
        ),
    ];

    for probe in &probes {
        let query = format!("SELECT id FROM t WHERE {probe}");
        let serial = ids_of(&conn, &query);
        assert!(
            !serial.is_empty(),
            "probe must match rows or the test proves nothing: {probe}"
        );
        for degree in [1usize, 2, 4, 8] {
            conn.exec(&format!("SET PARALLEL {degree}")).unwrap();
            let before = db.metrics_snapshot();
            let got = ids_of(&conn, &query);
            assert_eq!(
                got, serial,
                "degree {degree} changed the answer for {probe}"
            );
            let d = db.metrics_snapshot().since(&before);
            assert_eq!(
                d.get("ids.plans_index"),
                1,
                "probe must go through the index: {probe}"
            );
            if degree > 1 {
                assert!(
                    d.get("scan.parallel_scans") >= 1,
                    "degree {degree} never took the parallel path: {d}"
                );
                assert!(
                    d.histogram("scan.parallel_worker_ns").count > 0,
                    "worker latency histogram unobserved: {d}"
                );
            } else {
                assert_eq!(
                    d.get("scan.parallel_scans"),
                    0,
                    "degree 1 must stay on the serial cursor: {d}"
                );
            }
        }
        conn.exec("SET PARALLEL 1").unwrap();
    }
}

#[test]
fn small_trees_fall_back_to_serial() {
    // A handful of rows: the index stays under the page threshold, so
    // even a high requested degree runs the serial cursor and ticks
    // the fallback counter instead.
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
    for i in 0..10 {
        clock.set(Day(10_000 + i));
        let s = render(10_000 + i);
        conn.exec(&format!("INSERT INTO t VALUES ({i}, '{s}, UC, {s}, NOW')"))
            .unwrap();
    }
    conn.exec("SET PARALLEL 8").unwrap();
    let probe = format!(
        "Overlaps(Time_Extent, '{}, {}, {}, {}')",
        render(10_002),
        render(10_006),
        render(10_001),
        render(10_007)
    );
    let before = db.metrics_snapshot();
    let got = ids_of(&conn, &format!("SELECT id FROM t WHERE {probe}"));
    assert!(!got.is_empty());
    let d = db.metrics_snapshot().since(&before);
    assert_eq!(d.get("scan.parallel_scans"), 0, "tiny tree went parallel");
    if d.get("ids.plans_index") == 1 {
        assert!(
            d.get("scan.parallel_fallbacks") >= 1,
            "fallback went uncounted: {d}"
        );
    }
}

#[test]
fn parallel_delete_mid_scan_condenses_and_restarts() {
    // The Section 5.5 contract under the parallel executor: a DELETE
    // through the index interleaves getnext with deletions, deletions
    // condense the tree, and every condense must throw away the
    // buffered parallel batch and re-derive it from the new root —
    // without ever deleting a row twice or leaving one behind.
    let (db, clock) = db_small_fanout();
    let conn = db.connect();
    populate(&conn, &clock, 300);
    clock.set(Day(10_400));
    conn.exec("SET PARALLEL 4").unwrap();

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
        "the mass delete never condensed the tree: {d}"
    );

    // Rows 251..299 began after the probe's transaction-time window
    // closed; everything else is gone.
    let left = ids_of(&conn, "SELECT id FROM t");
    assert_eq!(left.len(), 49, "rows 251..299 remain: {left:?}");
    assert!(left.iter().all(|&id| id >= 251), "{left:?}");
    conn.exec("CHECK INDEX tix").unwrap();

    // And a parallel scan over the condensed tree still agrees with
    // the serial one.
    let probe = format!(
        "SELECT id FROM t WHERE Overlaps(Time_Extent, '{}, {}, {}, {}')",
        render(10_251),
        render(10_299),
        render(10_240),
        render(10_330)
    );
    conn.exec("SET PARALLEL 1").unwrap();
    let serial = ids_of(&conn, &probe);
    conn.exec("SET PARALLEL 4").unwrap();
    assert_eq!(ids_of(&conn, &probe), serial);
}

/// A memory backend on which, once armed, a demand read first gives
/// the prefetch workers their turn: it waits, for a bounded time, until
/// a vectored read has landed. The test's tree is so small that an
/// unhindered scan can finish before a parked worker wakes, and a
/// correct engine would then show no hit.
struct PrefetchFirst {
    inner: MemBackend,
    armed: AtomicBool,
    landed_tx: mpsc::Sender<()>,
    landed_rx: Mutex<mpsc::Receiver<()>>,
}

impl Backend for PrefetchFirst {
    fn read_page(&self, pid: PageId, out: &mut [u8; PAGE_SIZE]) -> sbspace::Result<()> {
        if self.armed.load(Ordering::SeqCst) {
            let _ = self
                .landed_rx
                .lock()
                .unwrap()
                .recv_timeout(Duration::from_millis(100));
        }
        self.inner.read_page(pid, out)
    }
    fn read_pages(&self, pids: &[PageId], out: &mut [PageBuf]) -> sbspace::Result<()> {
        self.inner.read_pages(pids, out)?;
        if self.armed.load(Ordering::SeqCst) {
            self.landed_tx.send(()).ok();
        }
        Ok(())
    }
    fn write_page(&self, pid: PageId, data: &[u8; PAGE_SIZE]) -> sbspace::Result<()> {
        self.inner.write_page(pid, data)
    }
    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }
    fn sync(&self) -> sbspace::Result<()> {
        self.inner.sync()
    }
}

#[test]
fn prefetched_scans_match_serial_and_parallel() {
    // Prefetch must change only I/O timing, never answers: the same
    // probes over a prefetching database (workers announce internal
    // nodes' children ahead of the descent) return exactly the row-set
    // of the serial and parallel scans on a non-prefetching one.
    let (db, clock) = db_small_fanout();
    let conn = db.connect();
    populate(&conn, &clock, 300);
    clock.set(Day(10_400));

    let clock_pf = MockClock::new(Day(10_000));
    let (landed_tx, landed_rx) = mpsc::channel();
    let backend = Arc::new(PrefetchFirst {
        inner: MemBackend::new(),
        armed: AtomicBool::new(false),
        landed_tx,
        landed_rx: Mutex::new(landed_rx),
    });
    let space = Sbspace::open_with(
        Arc::clone(&backend),
        MemWal::new(),
        SbspaceOptions {
            prefetch_workers: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let db_pf = Database::with_space(space.clone(), Arc::new(clock_pf.clone()));
    install_grtree_blade(
        &db_pf,
        GrTreeAmOptions {
            tree: GrTreeOptions {
                max_entries: 8,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    let conn_pf = db_pf.connect();
    populate(&conn_pf, &clock_pf, 300);
    clock_pf.set(Day(10_400));

    let probe = format!(
        "SELECT id FROM t WHERE Overlaps(Time_Extent, '{}, {}, {}, {}')",
        render(10_050),
        render(10_080),
        render(10_040),
        render(10_090)
    );
    let serial = ids_of(&conn, &probe);
    assert!(!serial.is_empty(), "probe must match rows");
    for degree in [1usize, 2, 4, 8] {
        conn.exec(&format!("SET PARALLEL {degree}")).unwrap();
        conn_pf.exec(&format!("SET PARALLEL {degree}")).unwrap();
        assert_eq!(
            ids_of(&conn, &probe),
            serial,
            "degree {degree} without prefetch drifted"
        );
        assert_eq!(
            ids_of(&conn_pf, &probe),
            serial,
            "degree {degree} with prefetch drifted"
        );
    }

    // Equal answers cannot tell a working prefetcher from an idle one.
    // From a dropped cache the probe must be served pages a worker
    // installed, and the pass must read more pages than the workers
    // issued runs.
    backend.armed.store(true, Ordering::SeqCst);
    space.drop_page_cache();
    let before = space.stats().snapshot();
    assert_eq!(ids_of(&conn_pf, &probe), serial);
    space.prefetch_quiesce();
    let io = space.stats().snapshot().since(&before);
    assert!(io.prefetch_hits > 0, "no prefetched page was hit: {io:?}");
    assert!(
        io.read_runs > 0 && io.physical_reads > io.read_runs,
        "prefetch reads never coalesced: {io:?}"
    );
}

/// A database like [`db_small_fanout`] but with an explicit executor
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
    // back, never the rows themselves — serially, in parallel, and
    // through a condense-mid-DELETE cursor restart.
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
        let serial = ids_of(&conn, &probe);
        let d = db.metrics_snapshot().since(&before);
        assert_eq!(d.get("ids.plans_index"), 1, "probe through the index: {d}");
        let h = d.histogram("scan.batch_rows");
        assert!(h.count > 0, "batch fills unobserved: {d}");
        assert!(
            h.mean_ns() <= batch as u64,
            "a batch cannot exceed scan_batch_rows={batch}: {d}"
        );
        conn.exec("SET PARALLEL 4").unwrap();
        let parallel = ids_of(&conn, &probe);
        assert_eq!(parallel, serial, "parallel ≠ serial at batch {batch}");
        conn.exec("SET PARALLEL 1").unwrap();

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
            None => reference = Some((serial, left)),
            Some((ref_serial, ref_left)) => {
                assert_eq!(&serial, ref_serial, "scan drifted at batch {batch}");
                assert_eq!(&left, ref_left, "delete drifted at batch {batch}");
            }
        }
    }
}
