//! The traced run: the same served window with a span around every
//! statement and every answer checked, then the peel, then the direct
//! measurements; from these, every per-layer metric.

use crate::args::Args;
use crate::data::{self, DmlOp};
use crate::direct::Lab;
use crate::peel::{self, Peel};
use crate::report::Metrics;
use crate::rig::Rig;
use crate::setup::{self, Inputs, Kind, Spec};
use crate::spans::Recorder;
use crate::window::{drive_all, ConnLog, Limit, Work};
use crate::{connect, Outcome};
use grt_client::EmbeddedDriver;
use grt_metrics::MetricsSnapshot;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den as f64
}

/// Sum of the `am.*` purpose-function counters.
fn am_calls(counts: &MetricsSnapshot) -> u64 {
    counts
        .nonzero()
        .filter(|(name, _)| name.starts_with("am."))
        .map(|(_, v)| v)
        .sum()
}

/// The count metrics of the traced wire pass of the peel: one
/// connection over a fixed prefix.
fn prefix_counts(peel: &Peel, m: &mut Metrics) {
    let c = &peel.counts;
    let n = peel.stmts;
    let (hits, misses) = (c.get("ids.plan_cache_hits"), c.get("ids.plan_cache_misses"));
    // A prepared EXECUTE never looks a plan up; no miss is a full hit.
    m.put(
        "ids.plan_cache_hit_ratio",
        "ratio",
        if misses == 0 {
            1.0
        } else {
            ratio(hits, hits + misses)
        },
    );
    let (index, seq) = (c.get("ids.plans_index"), c.get("ids.plans_seq"));
    m.put("ids.plans_index_share", "ratio", ratio(index, index + seq));
    m.put("ids.rows_per_stmt", "count", ratio(peel.rows, n));
    m.put("blade.am_calls_per_stmt", "count", ratio(am_calls(c), n));
    m.put(
        "blade.getnext_batch_fill",
        "count",
        c.histogram("scan.batch_rows").mean_ns() as f64,
    );
    let (logical, physical) = (
        c.get("sbspace.logical_reads"),
        c.get("sbspace.physical_reads"),
    );
    m.put("sbspace.hit_ratio", "ratio", 1.0 - ratio(physical, logical));
    m.put("sbspace.logical_reads_per_stmt", "count", ratio(logical, n));
    m.put(
        "sbspace.physical_reads_per_stmt",
        "count",
        ratio(physical, n),
    );
    m.put(
        "sbspace.evictions_per_stmt",
        "count",
        ratio(c.get("sbspace.evictions"), n),
    );
    // The timing backend sees every read call; without it, only
    // prefetch batches are counted as runs and demand reads are single.
    let per_run = if peel.backend.read_calls > 0 {
        ratio(peel.backend.read_pages, peel.backend.read_calls)
    } else {
        f64::from(u8::from(physical > 0))
    };
    m.put("sbspace.pages_per_read_run", "count", per_run);
    m.put("grtree.pages", "count", peel.grtree_pages as f64);
}

/// The count metrics that need the whole window: concurrency, the
/// checkpointer, the log.
fn window_counts(
    diff: &MetricsSnapshot,
    logs: &[ConnLog],
    user_bytes: u64,
    wal_appended: u64,
    m: &mut Metrics,
) {
    let stmts: u64 = logs.iter().map(ConnLog::attempted).sum();
    let commits = diff.get("sbspace.txn_commits");
    m.put(
        "ids.retries_per_kstmt",
        "count",
        ratio(diff.get("stmt.retries") + diff.get("lock.deadlocks"), stmts) * 1e3,
    );
    m.put(
        "sbspace.wal_syncs_per_commit",
        "count",
        ratio(diff.get("sbspace.wal_syncs"), commits),
    );
    m.put(
        "sbspace.data_syncs_per_commit",
        "count",
        ratio(diff.get("sbspace.data_syncs"), commits),
    );
    m.put(
        "sbspace.lock_waits_per_kstmt",
        "count",
        ratio(diff.get("lock.waits"), stmts) * 1e3,
    );
    m.put(
        "sbspace.write_amp",
        "ratio",
        ratio(
            diff.get("sbspace.physical_writes") * grt_sbspace::PAGE_SIZE as u64 + wal_appended,
            user_bytes,
        ),
    );
    m.put(
        "sbspace.checkpoints",
        "count",
        diff.get("sbspace.checkpoints") as f64,
    );
    m.put(
        "sbspace.segments_recycled",
        "count",
        diff.get("wal.segments_recycled") as f64,
    );
    let (elapsed, busy): (u64, u64) = logs
        .iter()
        .fold((0, 0), |(e, b), l| (e + l.elapsed_ns, b + l.busy_ns()));
    m.put(
        "workload.client_self_share",
        "ratio",
        ratio(elapsed - busy.min(elapsed), elapsed),
    );
}

pub fn run(
    spec: &'static Spec,
    args: &Args,
    scratch: &Path,
    nproc: usize,
) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let conns = spec.clients(nproc);
    let is_dml = spec.kind == Kind::DmlDurable;
    let mut inputs = Inputs::generate(spec, args.scale, args.seed, args.seconds);
    inputs.fill_expectations(nproc);
    let dml: Vec<Vec<DmlOp>> = if is_dml {
        inputs.dml_streams(spec, conns, args.seconds, args.seed)
    } else {
        Vec::new()
    };
    let served = setup::build(
        spec,
        &inputs,
        &args.sets,
        true,
        &scratch.join("db"),
        &mut || {},
    )?;
    let work = Work {
        kind: spec.kind,
        queries: &inputs.queries,
        dml: &dml,
        conns,
        oracle: true,
    };
    let mut stage = connect(served, &work, conns)?;
    let db = stage.served.db.clone();
    let space = db.space();
    let mut m = Metrics::default();

    // The window, traced. A sampler watches the live log meanwhile.
    let window = Duration::from_secs_f64(args.seconds);
    let mut recorders: Vec<Recorder> = (0..conns)
        .map(|c| {
            let spans = (args.seconds * 100_000.0) as usize + 1024;
            Recorder::new(format!("wire.c{c}"), epoch, spans)
        })
        .collect();
    let wal_before = space.wal_live_bytes().map_err(|e| e.to_string())?;
    let before = db.metrics_snapshot();
    let (stop, wal_max) = (AtomicBool::new(false), AtomicU64::new(wal_before));
    let logs = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                if let Ok(live) = space.wal_live_bytes() {
                    wal_max.fetch_max(live, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let logs = drive_all(
            &work,
            &stage.drivers,
            &stage.next,
            Limit::For(window),
            Some(&mut recorders),
            None,
        );
        stop.store(true, Ordering::SeqCst);
        logs
    })?;
    let diff = db.metrics_snapshot().since(&before);
    let wal_after = space.wal_live_bytes().map_err(|e| e.to_string())?;
    let first: Vec<usize> = stage.next.clone();
    for (next, log) in stage.next.iter_mut().zip(&logs) {
        *next += log.lat_ns.len();
    }
    let written: usize = dml
        .iter()
        .zip(first.iter().zip(&stage.next))
        .map(|(ops, (&a, &b))| {
            ops[a..b]
                .iter()
                .filter(|op| matches!(op, DmlOp::Insert { .. } | DmlOp::Update { .. }))
                .count()
        })
        .sum();
    // Bytes appended = growth of the live log + what recycling removed.
    let wal_appended = (wal_after
        + diff.get("wal.segments_recycled") * stage.served.space_opts.wal_segment_bytes as u64)
        .saturating_sub(wal_before);
    window_counts(
        &diff,
        &logs,
        written as u64 * data::ROW_BYTES,
        wal_appended,
        &mut m,
    );
    m.put(
        "sbspace.wal_live_mb_max",
        "MB",
        wal_max.load(Ordering::Relaxed) as f64 / (1 << 20) as f64,
    );
    let start = Instant::now();
    space.checkpoint().map_err(|e| e.to_string())?;
    m.put(
        "sbspace.checkpoint_ms",
        "ms",
        start.elapsed().as_secs_f64() * 1e3,
    );

    // The peel.
    let n = ((spec.peel_stmts as f64 * args.scale.min(1.0)) as usize).max(20);
    let rig_g = Rig::new(&db, stage.served.g, false);
    let rig_r = stage.served.r.map(|los| Rig::new(&db, los, true));
    let setting = peel::Setting {
        stage: &stage,
        work: &work,
        rigs: [Some(&rig_g), rig_r.as_ref()],
        ct: inputs.ct,
        n,
        epoch,
    };
    let peel = if is_dml {
        let (peel, next) = peel::dml(&setting, &inputs.facts, &mut recorders)?;
        stage.next[0] = next;
        peel
    } else {
        peel::reads(&setting, &mut recorders)?
    };
    drop((rig_g, rig_r));
    prefix_counts(&peel, &mut m);

    // The direct measurements.
    let start0 = if is_dml { stage.next[0] } else { 0 };
    let queries: Vec<_> = if is_dml {
        dml[0]
            .iter()
            .filter_map(|op| match op {
                DmlOp::Probe { query, .. } => Some(*query),
                _ => None,
            })
            .take(n)
            .collect()
    } else {
        (0..n).map(|k| work.read_stmt(0, k).0.extent).collect()
    };
    let fresh_n = ((2000.0 * args.scale.min(1.0)) as usize).max(50);
    let (fresh, fresh_ct) = if is_dml {
        let own = dml[0].iter().filter_map(|op| match op {
            DmlOp::Insert { extent, .. } => Some(*extent),
            _ => None,
        });
        (own.take(fresh_n).collect(), inputs.ct)
    } else {
        (
            data::fresh_extents(&inputs.history, fresh_n, args.seed ^ 0x77),
            inputs.history.end.plus(fresh_n as i32 + 2),
        )
    };
    let lab_dir = scratch.join("lab");
    std::fs::create_dir_all(&lab_dir).map_err(|e| e.to_string())?;
    let backend_window = stage.served.backend.as_ref().map(|b| b.snapshot());
    let run_len = |pages: u64, calls: u64| (ratio(pages, calls).round() as usize).clamp(1, 64);
    let lab = Lab {
        work: &work,
        facts: &inputs.facts,
        ct: inputs.ct,
        queries,
        fresh,
        fresh_ct,
        dir: &lab_dir,
        scale: args.scale,
        read_run: backend_window.map_or(1, |b| run_len(b.read_pages, b.read_calls.max(1))),
        write_run: backend_window.map_or(1, |b| run_len(b.write_pages, b.write_calls.max(1))),
    };
    lab.trees(&mut m)?;
    lab.predicate(&mut m);
    lab.file_space(&mut m)?;
    lab.backend(&mut m)?;
    lab.connect(&stage.served.addr, &mut m)?;
    lab.compile(&mut m)?;
    let sample = n.min(2_000);
    let reader = EmbeddedDriver::connect(&db);
    work.prepare(&reader)?;
    let codec_ns = lab.codec(&reader, start0, sample, &mut m)? * (n as f64 / sample as f64);
    drop(reader);

    // The per-layer table.
    let selfs = peel.selfs(codec_ns);
    let per_stmt = |ns: f64| ns / peel.stmts as f64;
    let per_row = |ns: f64| ns / peel.rows.max(1) as f64;
    let wire = peel.wire_ns as f64;
    m.put("server.self_ns_per_stmt", "ns", per_stmt(selfs.server));
    m.put("ids.self_ns_per_stmt", "ns", per_stmt(selfs.ids));
    m.put("ids.self_ns_per_row", "ns", per_row(selfs.ids));
    m.put("blade.self_ns_per_row", "ns", per_row(selfs.blade));
    let sum: f64 = selfs.rows().iter().map(|(_, ns)| ns).sum();
    eprintln!(
        "-- {}: self time per statement over {} peeled statements ({} rows)",
        spec.name, peel.stmts, peel.rows
    );
    for (layer, ns) in selfs.rows() {
        eprintln!(
            "  {layer:<10} {:>14.1} ns {:>7.2} %",
            per_stmt(ns),
            100.0 * ns / wire
        );
        m.put(&format!("{layer}.self_share"), "ratio", ns / wire);
    }
    eprintln!(
        "  {:<10} {:>14.1} ns   (wire total {:.1} ns; backend inside sbspace {:.1} ns)",
        "sum",
        per_stmt(sum),
        per_stmt(wire),
        per_stmt(peel.backend_ns as f64)
    );
    m.put("peel.wire_ns_per_stmt", "ns", per_stmt(wire));
    m.put("peel.selfs_sum_ns_per_stmt", "ns", per_stmt(sum));
    m.put(
        "sbspace.backend_share",
        "ratio",
        peel.backend_ns as f64 / wire,
    );
    m.put(
        "bench.trace_overhead_ratio",
        "ratio",
        peel.untraced_ns as f64 / wire,
    );

    if let Some(path) = &args.trace_out {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        for rec in &recorders {
            rec.write_jsonl(spec.name, &mut out)
                .map_err(|e| e.to_string())?;
        }
        use std::io::Write as _;
        out.flush().map_err(|e| e.to_string())?;
    }

    let attempted: u64 = logs.iter().map(ConnLog::attempted).sum::<u64>() + 5 * peel.stmts;
    let failed: u64 = logs.iter().map(|l| l.failed).sum::<u64>() + peel.failed;
    crate::teardown(stage);
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        samples: logs.iter().map(ConnLog::attempted).sum(),
        metrics: m,
        notes: Metrics::default(),
    })
}
