//! `spine`: the repository's one benchmark. For each workload it builds
//! a database from a seed, serves it from an in-process `grt_server` on
//! loopback, drives it closed-loop through `grt_client::RemoteDriver`,
//! checks the answers against a linear-scan oracle, and prints every
//! metric by name with its unit. See `README.md` beside `Cargo.toml`.

mod args;
mod data;
mod direct;
mod peel;
mod pin;
mod recovery;
mod reference;
mod report;
mod rig;
mod setup;
mod spans;
mod timed_backend;
mod traced;
mod window;

use args::Args;
use data::{DmlOp, Fact, ROW_BYTES};
use grt_client::{Driver, RemoteDriver};
use reference::{Kernel, Reference, Scale, Stopwatch};
use report::{Metrics, RunInfo};
use setup::{Inputs, Kind, Served, Spec};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use window::{drive, drive_all, ConnLog, Limit, Work};

/// Repetitions behind `recovery_s`, which is their median.
const SERVER_RESTARTS: usize = 101;
const DIRECTORY_REOPENS: (usize, usize) = (7, 21);
/// Acknowledged statements between the last checkpoint and the crash of
/// `dml_durable`: what its recovery has to replay.
const CRASH_TAIL: usize = 32;

/// The name `grt_server` gives its per-connection threads.
const SERVER_THREAD: &str = "grt-conn";

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent too, if no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The result of one run of one workload.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub samples: u64,
    pub metrics: Metrics,
    /// Shown in the table only: the timings as the wall clock read them.
    pub notes: Metrics,
}

/// A served database with its clients connected, prepared and warm.
pub struct Stage {
    pub served: Served,
    pub drivers: Vec<Box<dyn Driver>>,
    /// Each connection's next statement.
    pub next: Vec<usize>,
}

/// Statements each connection sends before anything is measured: 5 %
/// of the pool (of a nominal window for `dml_durable`).
fn warmup_stmts(work: &Work) -> usize {
    match work.kind {
        Kind::DmlDurable => 64,
        _ => (work.queries.len() / 20).max(4),
    }
}

pub fn connect(served: Served, work: &Work, conns: usize) -> Result<Stage, String> {
    let mut drivers: Vec<Box<dyn Driver>> = Vec::with_capacity(conns);
    let cpus = pin::allowed_cpus();
    for conn in 0..conns {
        let before = pin::threads_named(SERVER_THREAD);
        let driver = RemoteDriver::connect(&*served.addr).map_err(|e| format!("connect: {e}"))?;
        // The server thread this connection got shares the core of the
        // client thread that will drive it (see `pin`).
        if let Some(cpu) = cpus.get(conn) {
            for tid in pin::threads_named(SERVER_THREAD) {
                if !before.contains(&tid) {
                    pin::pin(tid, std::slice::from_ref(cpu));
                }
            }
        }
        work.prepare(&driver)?;
        drivers.push(Box::new(driver));
    }
    let warm = warmup_stmts(work);
    let logs = drive_all(
        work,
        &drivers,
        &vec![0; conns],
        Limit::Count(warm),
        None,
        None,
    )?;
    if let Some(bad) = logs.iter().find(|l| l.failed > 0) {
        return Err(format!("{} warm-up statements failed", bad.failed));
    }
    Ok(Stage {
        next: logs.iter().map(|l| l.lat_ns.len()).collect(),
        drivers,
        served,
    })
}

fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The window's three timings.
struct Timings {
    stmt_per_s: f64,
    p50_us: f64,
    p99_us: f64,
}

/// Statements per second as the median over one-second slices of the
/// window, so one stall moves one slice, not the result; and the `p`-th
/// percentiles of statement latency as the median over equal slices of
/// each slice's percentile, so a burst of interference moves one slice.
/// A latency slice is a second, or longer where a second would hold
/// under a thousand statements (one slice, the plain percentile, below
/// two thousand in all). Every latency and every second is multiplied
/// by the connection's scale factor at that time (see [`reference`]);
/// with `scaled` false the factors are 1 and the wall clock is read.
fn timings(logs: &[ConnLog], seconds: f64, scaled: bool) -> Timings {
    let scales: Vec<Scale> = logs
        .iter()
        .map(|l| match scaled {
            true => l.scale(),
            false => Scale::new(None, &[], l.elapsed_ns),
        })
        .collect();
    let total: usize = logs.iter().map(|l| l.lat_ns.len()).sum();

    let whole = seconds.floor() as usize;
    let rate = if whole < 3 {
        let window_ns = (seconds * 1e9) as u64;
        logs.iter()
            .enumerate()
            .map(|(c, l)| l.lat_ns.len() as f64 / scales[c].seconds(0, window_ns).max(1e-9))
            .sum()
    } else {
        let mut rates = vec![0f64; whole];
        for (c, log) in logs.iter().enumerate() {
            let mut counts = vec![0f64; whole];
            for &t in &log.done_ns {
                if let Some(n) = counts.get_mut((t / 1_000_000_000) as usize) {
                    *n += 1.0;
                }
            }
            for (i, n) in counts.iter().enumerate() {
                let (from, to) = (i as u64 * 1_000_000_000, (i as u64 + 1) * 1_000_000_000);
                rates[i] += n / scales[c].seconds(from, to).max(1e-9);
            }
        }
        report::median(&mut rates)
    };

    let slices = (total / 1000).clamp(1, whole.max(1));
    let width = seconds * 1e9 / slices as f64;
    let mut by_slice = vec![Vec::new(); slices];
    for (c, log) in logs.iter().enumerate() {
        for (&lat, &t) in log.lat_ns.iter().zip(&log.done_ns) {
            let slice = ((t as f64 / width) as usize).min(slices - 1);
            by_slice[slice].push((lat as f64 * scales[c].at(t)) as u64);
        }
    }
    let mut percentile_us = |p: f64| {
        let mut per_slice: Vec<f64> = by_slice
            .iter_mut()
            .map(|lat| {
                lat.sort_unstable();
                report::percentile(lat, p) as f64 / 1e3
            })
            .collect();
        report::median(&mut per_slice)
    };
    Timings {
        stmt_per_s: rate,
        p50_us: percentile_us(50.0),
        p99_us: percentile_us(99.0),
    }
}

/// Every row `dml_durable` must hold once each connection's first
/// `done[c]` statements are acknowledged, sorted by id.
fn dml_expected(facts: &[Fact], dml: &[Vec<DmlOp>], done: &[usize]) -> Vec<Fact> {
    let conns = dml.len();
    let mut rows: Vec<Fact> = (0..conns)
        .flat_map(|c| data::dml_model(facts, c, conns, &dml[c][..done[c]]))
        .collect();
    rows.sort_unstable_by_key(|(id, _)| *id);
    rows
}

/// Brings `dml_durable` to a repeatable crash point: exactly
/// [`CRASH_TAIL`] acknowledged statements after a checkpoint. Returns
/// the tail's log.
fn crash_tail(stage: &mut Stage, work: &Work) -> ConnLog {
    let db = stage.served.db.clone();
    let checkpoints = || db.metrics_snapshot().get("sbspace.checkpoints");
    let mut log = ConnLog::default();
    let run = |stage: &mut Stage, n: usize, log: &mut ConnLog| {
        let part = drive(
            work,
            stage.drivers[0].as_ref(),
            0,
            stage.next[0],
            Limit::Count(n),
            None,
        );
        stage.next[0] += part.lat_ns.len();
        log.lat_ns.extend(part.lat_ns);
        log.failed += part.failed;
    };
    if stage.served.space_opts.checkpoint_interval.is_none() {
        run(stage, CRASH_TAIL, &mut log);
        return log;
    }
    for _ in 0..8 {
        // The checkpointer skips ticks with nothing new in the log, so
        // log something, then wait for the tick that picks it up.
        run(stage, 1, &mut log);
        let before = checkpoints();
        let waited = Instant::now();
        while checkpoints() == before && waited.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let settled = checkpoints();
        run(stage, CRASH_TAIL, &mut log);
        if checkpoints() == settled {
            break;
        }
    }
    log
}

fn run_untraced(
    spec: &'static Spec,
    args: &Args,
    scratch: &Path,
    nproc: usize,
) -> Result<Outcome, String> {
    let conns = spec.clients(nproc);
    // The DML streams carry their own oracle answers; making them is
    // the checker's work, so it is done once, outside set-up time.
    let dml: Vec<Vec<DmlOp>> = if spec.kind == Kind::DmlDurable {
        Inputs::generate(spec, args.scale, args.seed, args.seconds).dml_streams(
            spec,
            conns,
            args.seconds,
            args.seed,
        )
    } else {
        Vec::new()
    };

    let mut setup_s = Vec::with_capacity(spec.setups);
    let mut setup_wall_s = Vec::with_capacity(spec.setups);
    let mut built: Option<(Inputs, Stage)> = None;
    // Loading and building is processor work on every workload.
    let mut reference = Reference::new(Kernel::Sort, scratch, conns)?;
    for i in 0..spec.setups {
        if let Some((_, stage)) = built.take() {
            teardown(stage);
        }
        let dir = scratch.join(format!("db{i}"));
        let mut watch = Stopwatch::start(&mut reference);
        let start = Instant::now();
        let inputs = Inputs::generate(spec, args.scale, args.seed, args.seconds);
        watch.lap();
        let served = setup::build(spec, &inputs, &args.sets, false, &dir, &mut || watch.lap())?;
        let work = Work {
            kind: spec.kind,
            queries: &inputs.queries,
            dml: &dml,
            conns,
            oracle: false,
        };
        let stage = connect(served, &work, conns)?;
        setup_wall_s.push(start.elapsed().as_secs_f64());
        setup_s.push(watch.stop());
        built = Some((inputs, stage));
    }
    drop(reference);
    let (mut inputs, mut stage) = built.expect("at least one set-up");
    inputs.fill_expectations(nproc);
    let work = Work {
        kind: spec.kind,
        queries: &inputs.queries,
        dml: &dml,
        conns,
        oracle: true,
    };

    let window = Limit::For(Duration::from_secs_f64(args.seconds));
    let mut logs = drive_all(
        &work,
        &stage.drivers,
        &stage.next,
        window,
        None,
        Some((spec.reference, scratch)),
    )?;
    for (next, log) in stage.next.iter_mut().zip(&logs) {
        *next += log.lat_ns.len();
    }
    let peak_rss_mb = vm_hwm_mb();
    let samples: u64 = logs.iter().map(ConnLog::attempted).sum();
    let scaled = timings(&logs, args.seconds, true);
    let wall = timings(&logs, args.seconds, false);
    if spec.kind == Kind::DmlDurable {
        logs.push(crash_tail(&mut stage, &work));
    }
    let attempted: u64 = logs.iter().map(ConnLog::attempted).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();

    let space = stage.served.db.space();
    let info = space.space_info().map_err(|e| e.to_string())?;
    let wal = space.wal_live_bytes().map_err(|e| e.to_string())?;
    drop(space);
    let tables = if stage.served.r.is_some() { 2 } else { 1 };
    let inserted: usize = dml
        .iter()
        .zip(&stage.next)
        .map(|(ops, &done)| {
            ops[..done]
                .iter()
                .filter(|op| matches!(op, DmlOp::Insert { .. }))
                .count()
        })
        .sum();
    let user_bytes = (inputs.facts.len() * tables + inserted) as u64 * ROW_BYTES;
    let space_amp =
        (info.total_pages as u64 * grt_sbspace::PAGE_SIZE as u64 + wal) as f64 / user_bytes as f64;

    let Stage {
        served,
        drivers,
        next,
    } = stage;
    drop(drivers);
    let recovery = if spec.file_backed {
        let rows = match spec.kind {
            Kind::DmlDurable => dml_expected(&inputs.facts, &dml, &next),
            _ => inputs.facts.clone(),
        };
        let expected = recovery::Expected {
            rows: &rows,
            first: inputs.queries.first().map(|q| (&q.extent, q.expect)),
        };
        recovery::reopen_directory(
            served,
            &expected,
            scratch,
            DIRECTORY_REOPENS,
            spec.recovery_reference(),
        )?
    } else {
        let r = recovery::restart_server(
            &served,
            &work,
            warmup_stmts(&work),
            SERVER_RESTARTS,
            spec.recovery_reference(),
            scratch,
        )?;
        drop(served);
        r
    };

    let mut m = Metrics::default();
    m.put("setup_s", "s", report::median(&mut setup_s));
    m.put("stmt_per_s", "1/s", scaled.stmt_per_s);
    m.put("stmt_p50_us", "us", scaled.p50_us);
    m.put("stmt_p99_us", "us", scaled.p99_us);
    m.put(
        "ok_ratio",
        "ratio",
        1.0 - failed as f64 / attempted.max(1) as f64,
    );
    m.put("peak_rss_mb", "MB", peak_rss_mb);
    m.put("space_amp", "ratio", space_amp);
    m.put("recovery_s", "s", recovery.seconds);
    let mut notes = Metrics::default();
    notes.put("wall.setup_s", "s", report::median(&mut setup_wall_s));
    notes.put("wall.stmt_per_s", "1/s", wall.stmt_per_s);
    notes.put("wall.stmt_p50_us", "us", wall.p50_us);
    notes.put("wall.stmt_p99_us", "us", wall.p99_us);
    notes.put("wall.recovery_s", "s", recovery.wall_seconds);
    let mut units: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.reference_ns.iter().map(|&(_, took)| took as f64 / 1e3))
        .collect();
    notes.put("reference.samples", "count", units.len() as f64);
    notes.put("reference.unit_us", "us", report::median(&mut units));
    notes.put(
        "reference.nominal_us",
        "us",
        spec.reference.nominal_ns() / 1e3,
    );
    Ok(Outcome {
        correct: failed == 0 && recovery.ok,
        attempted,
        failed,
        samples,
        metrics: m,
        notes,
    })
}

/// Says goodbye on every connection and stops the server, so the next
/// set-up starts from nothing.
pub fn teardown(stage: Stage) {
    let Stage {
        served, drivers, ..
    } = stage;
    drop(drivers);
    let Served { mut server, .. } = served;
    server.shutdown();
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = git_commit();
    let specs: Vec<&'static Spec> = if args.workloads.is_empty() {
        setup::SPECS.iter().collect()
    } else {
        args.workloads
            .iter()
            .map(|w| Spec::by_name(w).ok_or_else(|| format!("unknown workload {w}")))
            .collect::<Result<_, _>>()?
    };
    // Scratch space stays inside the working directory.
    let scratch = Scratch(PathBuf::from(format!(".spine_tmp/{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    if let Some(path) = &args.trace_out {
        std::fs::write(path, "").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut all_correct = true;
    for spec in specs {
        for (key, _) in &args.sets {
            if spec.file_backed && args::ENGINE_ONLY_KEYS.contains(&key.as_str()) {
                eprintln!(
                    "spine: --set {key} has no effect on {}: Database::with_space \
                     takes the engine options at their defaults",
                    spec.name
                );
            }
        }
        let dir = scratch.0.join(spec.name);
        let outcome = if args.trace {
            traced::run(spec, args, &dir, nproc)?
        } else {
            run_untraced(spec, args, &dir, nproc)?
        };
        let info = RunInfo {
            workload: spec.name,
            seed: args.seed,
            scale: args.scale,
            seconds: args.seconds,
            traced: args.trace,
            nproc,
            commit: &commit,
            samples: outcome.samples,
        };
        report::print_table(&info, &outcome.metrics, &outcome.notes);
        if let Some(path) = &args.out {
            use std::io::Write as _;
            let row = report::out_row(
                &info,
                outcome.correct,
                outcome.attempted,
                outcome.failed,
                &outcome.metrics,
            );
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{row}"))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        println!(
            "{}",
            report::result_line(
                outcome.correct,
                outcome.attempted,
                outcome.failed,
                &outcome.metrics
            )
        );
        all_correct &= outcome.correct;
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(all_correct)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spine: {e}\n{}", args::USAGE);
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("spine: a statement failed or an answer was wrong");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("spine: {e}");
            std::process::exit(1);
        }
    }
}
