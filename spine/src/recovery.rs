//! `recovery_s`: from restart to the first verified answer.
//!
//! A file-backed workload drops its database without a final
//! checkpoint and reopens the directory: WAL replay, then one index
//! scan through the blade and a scan of the heap, both checked. The
//! catalog is engine-resident and does not survive a reopen, so the
//! check reads the two large objects directly instead of through SQL.
//! An in-memory workload has no directory; what it can restart is the
//! server, so it times a fresh server's first verified statements.
//! Both read a [`Stopwatch`]: seconds of the reference machine.

use crate::data::{Expect, Fact};
use crate::reference::{Kernel, Reference, Stopwatch};
use crate::rig::{index_scan, qual, Rig, ScanHooks};
use crate::setup::{Served, TableLos};
use crate::window::Work;
use grt_blade::extent_from_value;
use grt_client::{Driver, RemoteDriver};
use grt_ids::heap::HeapScan;
use grt_ids::{Database, IdsError, RowId, Value};
use grt_sbspace::{IsolationLevel, LockMode, Sbspace, SbspaceOptions};
use grt_server::{Server, ServerOptions};
use grt_temporal::{Clock, MockClock, TimeExtent};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub struct Recovery {
    /// Median over the repetitions, scaled to the reference machine.
    pub seconds: f64,
    /// The same median as the wall clock read it.
    pub wall_seconds: f64,
    pub ok: bool,
}

/// Restarts the server over the live database, up to `max_reps` times
/// or for two seconds; each time measures listener up → connected →
/// handles prepared → the stream's first `stmts` statements answered
/// and checked. (One statement alone takes a few hundred microseconds,
/// most of it thread and socket creation whose cost wanders from run
/// to run; the warm-up's worth of statements is what a restarted
/// service owes its clients anyway.)
pub fn restart_server(
    served: &Served,
    work: &Work,
    stmts: usize,
    max_reps: usize,
    kernel: Kernel,
    scratch: &Path,
) -> Result<Recovery, String> {
    let mut times = Vec::with_capacity(max_reps);
    let mut walls = Vec::with_capacity(max_reps);
    let mut ok = true;
    // The threads a server starts inherit this thread's placement: keep
    // the whole restart on one core, so that no repetition depends on
    // where the scheduler would have put them (see `pin`).
    let cpus = crate::pin::allowed_cpus();
    crate::pin::pin(0, &cpus[..cpus.len().min(1)]);
    let mut reference = Reference::new(kernel, scratch, 0)?;
    let begun = Instant::now();
    while times.len() < max_reps && (times.len() < 5 || begun.elapsed().as_secs() < 2) {
        let watch = Stopwatch::start(&mut reference);
        let start = Instant::now();
        let mut server = Server::new(served.db.clone(), ServerOptions::default())
            .start()
            .map_err(|e| format!("server: {e}"))?;
        let driver =
            RemoteDriver::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        work.prepare(&driver)?;
        for k in 0..stmts {
            ok &= work.issue(&driver as &dyn Driver, 0, k, true).ok;
        }
        walls.push(start.elapsed().as_secs_f64());
        times.push(watch.stop());
        driver.goodbye().map_err(|e| format!("goodbye: {e}"))?;
        server.shutdown();
    }
    drop(reference);
    crate::pin::pin(0, &cpus);
    Ok(Recovery {
        seconds: crate::report::median(&mut times),
        wall_seconds: crate::report::median(&mut walls),
        ok,
    })
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// What the reopened space must hold.
pub struct Expected<'a> {
    /// Every acknowledged row, sorted by id.
    pub rows: &'a [Fact],
    /// A query and its answer for the first index scan; `None` scans
    /// the whole index and expects one entry per row.
    pub first: Option<(&'a TimeExtent, Expect)>,
}

/// Reopens `dir` and checks it: index scan ≡ oracle, heap rows ≡
/// `expected.rows`, index entries ≡ heap rows.
fn reopen_and_check(
    dir: &Path,
    opts: &SbspaceOptions,
    g: TableLos,
    clock: &Arc<MockClock>,
    expected: &Expected,
    watch: &mut Stopwatch,
) -> Result<bool, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let space = Sbspace::file(dir, opts.clone()).map_err(|e| err(&e))?;
    watch.lap();
    let db = Database::with_space(space.clone(), Arc::clone(clock) as Arc<dyn Clock>);
    let rig = Rig::new(&db, g, false);
    let txn = space.begin(IsolationLevel::ReadCommitted);
    let ctx = rig.ctx(&txn, None);

    // The index alone knows row ids, not ids: count its entries.
    struct CountHits(usize);
    impl ScanHooks for CountHits {
        fn batch(&mut self, hits: &[(RowId, Vec<Value>)]) -> Result<(), IdsError> {
            self.0 += hits.len();
            Ok(())
        }
    }
    let mut first = CountHits(0);
    index_scan(
        &rig,
        &ctx,
        qual("Overlaps", expected.first.map(|(q, _)| q)),
        &mut first,
    )
    .map_err(|e| err(&e))?;
    watch.lap();
    let index_ok = match expected.first {
        Some((_, want)) => first.0 == want.count as usize,
        None => first.0 == expected.rows.len(),
    };

    let heap = space
        .open_lo(&txn, g.heap, LockMode::Shared)
        .map_err(|e| err(&e))?;
    let mut rows: Vec<Fact> = Vec::with_capacity(expected.rows.len());
    let mut scan = HeapScan::new();
    while let Some((_, row)) = scan.next(&heap).map_err(|e| err(&e))? {
        let (Some(Value::Int(id)), Some(extent)) = (row.first(), row.get(1)) else {
            return Ok(false);
        };
        rows.push((*id as u64, extent_from_value(extent).map_err(|e| err(&e))?));
    }
    rows.sort_unstable_by_key(|(id, _)| *id);
    drop(heap);
    drop(ctx);
    txn.commit().map_err(|e| err(&e))?;
    Ok(index_ok && rows == expected.rows)
}

/// Waits until no thread called `name` is left. A checkpoint that was
/// running when the last handle on its space was dropped finishes on
/// its own thread, still recycling log segments; the directory is only
/// at rest once that thread is gone.
fn wait_for_threads(name: &str) -> Result<(), String> {
    // The kernel keeps fifteen bytes of a thread's name.
    let name = &name[..name.len().min(15)];
    let begun = Instant::now();
    while !crate::pin::threads_named(name).is_empty() {
        if begun.elapsed().as_secs() >= 10 {
            return Err(format!("a {name} thread outlived its space by 10 s"));
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    Ok(())
}

/// Drops the served database without a final checkpoint, then recovers
/// copies of its directory, timing each reopen-and-check: `min_reps` of
/// them, and more, up to `max_reps`, while two seconds are not over.
pub fn reopen_directory(
    served: Served,
    expected: &Expected,
    scratch: &Path,
    (min_reps, max_reps): (usize, usize),
    kernel: Kernel,
) -> Result<Recovery, String> {
    let Served {
        db,
        mut server,
        dir,
        mut space_opts,
        clock,
        g,
        ..
    } = served;
    let dir = dir.expect("file-backed workload");
    server.shutdown();
    drop(server);
    drop(db);
    wait_for_threads("sbspace-checkpoint")?;
    // The reopened space is only read: no background checkpointer.
    space_opts.checkpoint_interval = None;
    let mut reference = Reference::new(kernel, scratch, 0)?;
    let mut times = Vec::with_capacity(max_reps);
    let mut walls = Vec::with_capacity(max_reps);
    let mut ok = true;
    let begun = Instant::now();
    while times.len() < max_reps && (times.len() < min_reps || begun.elapsed().as_secs() < 2) {
        let copy = scratch.join(format!("crash{}", times.len()));
        copy_dir(&dir, &copy).map_err(|e| format!("copy {}: {e}", dir.display()))?;
        let mut watch = Stopwatch::start(&mut reference);
        let start = Instant::now();
        ok &= reopen_and_check(&copy, &space_opts, g, &clock, expected, &mut watch)?;
        walls.push(start.elapsed().as_secs_f64());
        times.push(watch.stop());
        let _ = std::fs::remove_dir_all(&copy);
    }
    Ok(Recovery {
        seconds: crate::report::median(&mut times),
        wall_seconds: crate::report::median(&mut walls),
        ok,
    })
}
