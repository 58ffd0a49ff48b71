//! The closed loop: each client thread sends its next statement only
//! after the previous answer is complete, through a [`Driver`].

use crate::data::{DmlOp, Expect, Query};
use crate::reference::{Kernel, Reference, Scale};
use crate::setup::Kind;
use crate::spans::Recorder;
use grt_blade::extent_to_value;
use grt_client::Driver;
use grt_ids::Value;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A workload's statement streams: what connection `conn` sends as its
/// `k`-th statement, and what the answer must be.
pub struct Work<'a> {
    pub kind: Kind,
    /// The read pool; connections walk it cyclically from staggered
    /// starting points.
    pub queries: &'a [Query],
    /// One pre-generated stream per connection (`dml_durable`).
    pub dml: &'a [Vec<DmlOp>],
    pub conns: usize,
    /// False while the pool's expected answers are not computed yet
    /// (set-up and warm-up): read answers are then not compared.
    pub oracle: bool,
}

/// Every this-many-th timed statement is checked against the oracle
/// (every statement of a traced pass is).
pub const CHECK_EVERY: usize = 64;

pub struct Answer {
    pub rows: usize,
    pub ok: bool,
}

/// What makes an answer right.
enum Want {
    /// Exactly the oracle's rows (verified when the statement is one
    /// of those checked).
    Rows(Expect),
    /// A DML statement that touched exactly one row.
    OneRow,
    /// The oracle's rows among those the issuing connection owns.
    OwnRows(Expect),
}

impl Work<'_> {
    /// The read statement connection `conn` sends `k`-th, and the table
    /// it goes to: on `scan_warm` one in four goes to the R*-tree copy.
    pub fn read_stmt(&self, conn: usize, k: usize) -> (&Query, usize) {
        let n = self.queries.len();
        let q = &self.queries[(conn * n / self.conns + k) % n];
        let table = usize::from(self.kind == Kind::ScanWarm && k % 4 == 3);
        (q, table)
    }

    pub fn dml_op(&self, conn: usize, k: usize) -> &DmlOp {
        &self.dml[conn][k]
    }

    /// Sends statement `k` of connection `conn` and judges the answer.
    /// An error, a refusal and a wrong answer all count as not ok.
    pub fn issue(&self, driver: &dyn Driver, conn: usize, k: usize, check: bool) -> Answer {
        let conns = self.conns;
        let (result, want) = match self.kind {
            Kind::ProbeWire => {
                let (q, _) = self.read_stmt(conn, k);
                (
                    driver.execute("probe", std::slice::from_ref(&q.arg)),
                    Want::Rows(q.expect),
                )
            }
            Kind::ScanWarm | Kind::ScanCold => {
                let (q, table) = self.read_stmt(conn, k);
                (driver.exec(&q.sql[table]), Want::Rows(q.expect))
            }
            Kind::DmlDurable => match self.dml_op(conn, k) {
                DmlOp::Insert { id, extent } => (
                    driver.execute("ins", &[Value::Int(*id as i64), extent_to_value(extent)]),
                    Want::OneRow,
                ),
                DmlOp::Update { id, old, new } => (
                    driver.execute(
                        "upd",
                        &[
                            extent_to_value(new),
                            extent_to_value(old),
                            Value::Int(*id as i64),
                        ],
                    ),
                    Want::OneRow,
                ),
                DmlOp::Delete { id, extent } => (
                    driver.execute("del", &[extent_to_value(extent), Value::Int(*id as i64)]),
                    Want::OneRow,
                ),
                DmlOp::Probe { query, expect } => (
                    driver.execute("probe", &[extent_to_value(query)]),
                    Want::OwnRows(*expect),
                ),
            },
        };
        match result {
            Err(_) => Answer { rows: 0, ok: false },
            Ok(r) => Answer {
                rows: r.rows.len(),
                ok: match want {
                    Want::Rows(e) => {
                        !(check && self.oracle) || Expect::of_rows(&r.rows, |_| true) == e
                    }
                    Want::OneRow => r.message.starts_with("1 "),
                    Want::OwnRows(e) => {
                        Expect::of_rows(&r.rows, |id| id as usize % conns == conn) == e
                    }
                },
            },
        }
    }

    /// Prepares the handles the workload's statements go through.
    pub fn prepare(&self, driver: &dyn Driver) -> Result<(), String> {
        let handles: &[(&str, &str)] = match self.kind {
            Kind::ProbeWire => &[("probe", crate::data::PROBE_SQL)],
            Kind::ScanWarm | Kind::ScanCold => &[],
            Kind::DmlDurable => &crate::data::DML_SQL,
        };
        for (name, sql) in handles {
            driver
                .prepare(name, sql)
                .map_err(|e| format!("PREPARE {name}: {e}"))?;
        }
        Ok(())
    }
}

/// How long a pass runs.
#[derive(Clone, Copy)]
pub enum Limit {
    Count(usize),
    For(Duration),
}

/// What one connection did in one pass.
#[derive(Default)]
pub struct ConnLog {
    /// Latency of each statement, send to last row received.
    pub lat_ns: Vec<u64>,
    /// When each statement completed, from the start of the pass.
    pub done_ns: Vec<u64>,
    pub failed: u64,
    pub rows: u64,
    /// Length of the pass on this connection.
    pub elapsed_ns: u64,
    /// The kernel the pass sampled the machine's speed with, and each
    /// sample: when it began, from the start of the pass, and how long
    /// one unit took.
    pub kernel: Option<Kernel>,
    pub reference_ns: Vec<(u64, u64)>,
}

impl ConnLog {
    pub fn attempted(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    /// Time inside driver calls.
    pub fn busy_ns(&self) -> u64 {
        self.lat_ns.iter().sum()
    }

    /// The pass's scale factors (all 1 for a pass that took no samples).
    pub fn scale(&self) -> Scale {
        Scale::new(self.kernel, &self.reference_ns, self.elapsed_ns)
    }
}

/// Drives one connection from its statement `first` until `limit`.
/// With a recorder the pass is traced: one `span` per statement, and
/// every answer checked.
pub fn drive(
    work: &Work,
    driver: &dyn Driver,
    conn: usize,
    first: usize,
    limit: Limit,
    rec: Option<(&mut Recorder, &'static str)>,
) -> ConnLog {
    drive_beside(work, driver, conn, first, limit, rec, None)
}

/// [`drive`], stopping between statements for a unit of `reference`
/// work whenever one is due (see [`crate::reference`]).
pub fn drive_beside(
    work: &Work,
    driver: &dyn Driver,
    conn: usize,
    first: usize,
    limit: Limit,
    mut rec: Option<(&mut Recorder, &'static str)>,
    mut reference: Option<&mut Reference>,
) -> ConnLog {
    let reserve = match limit {
        Limit::Count(n) => n,
        // Reserved, not touched: only what is used becomes resident.
        Limit::For(d) => (d.as_secs_f64() * 100_000.0) as usize + 1024,
    };
    let mut log = ConnLog {
        lat_ns: Vec::with_capacity(reserve),
        done_ns: Vec::with_capacity(reserve),
        kernel: reference.as_ref().map(|r| r.kernel()),
        ..Default::default()
    };
    let every = log.kernel.map_or(Duration::MAX, Kernel::every);
    if let Limit::For(d) = limit {
        if let Some(kernel) = log.kernel {
            let samples = d.as_nanos() / kernel.every().as_nanos() + 16;
            log.reference_ns.reserve(samples as usize);
        }
    }
    let start = Instant::now();
    let mut sampled = start;
    if let Some(r) = reference.as_mut() {
        log.reference_ns.push((0, r.unit()));
        sampled = Instant::now();
    }
    let mut k = first;
    loop {
        let sent = Instant::now();
        let done = match limit {
            Limit::Count(n) => k - first >= n,
            Limit::For(d) => sent.duration_since(start) >= d,
        };
        if done || (work.kind == Kind::DmlDurable && k >= work.dml[conn].len()) {
            break;
        }
        let check = rec.is_some() || k.is_multiple_of(CHECK_EVERY);
        let span = rec.as_mut().map(|(r, name)| r.open(name, 0, k as u32));
        let answer = work.issue(driver, conn, k, check);
        let received = Instant::now();
        if let (Some((r, _)), Some(id)) = (rec.as_mut(), span) {
            r.close(id);
        }
        log.lat_ns
            .push(received.duration_since(sent).as_nanos() as u64);
        log.done_ns
            .push(received.duration_since(start).as_nanos() as u64);
        log.rows += answer.rows as u64;
        log.failed += u64::from(!answer.ok);
        k += 1;
        if received.duration_since(sampled) >= every {
            if let Some(r) = reference.as_mut() {
                let at = received.duration_since(start).as_nanos() as u64;
                log.reference_ns.push((at, r.unit()));
                sampled = Instant::now();
            }
        }
    }
    log.elapsed_ns = start.elapsed().as_nanos() as u64;
    log
}

/// Runs one pass on every connection at once, each on its own thread
/// on its own core (see [`crate::pin`]), released together. `firsts[c]`
/// is connection `c`'s next statement. With a `beside` kernel (and the
/// directory its files go to) each thread samples the machine's speed
/// as it goes.
pub fn drive_all(
    work: &Work,
    drivers: &[Box<dyn Driver>],
    firsts: &[usize],
    limit: Limit,
    mut recs: Option<&mut Vec<Recorder>>,
    beside: Option<(Kernel, &Path)>,
) -> Result<Vec<ConnLog>, String> {
    let barrier = Barrier::new(drivers.len());
    let cpus = crate::pin::allowed_cpus();
    let mut slots: Vec<Option<&mut Recorder>> = match recs.as_mut() {
        Some(v) => v.iter_mut().map(Some).collect(),
        None => drivers.iter().map(|_| None).collect(),
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = drivers
            .iter()
            .zip(firsts)
            .zip(slots.drain(..))
            .enumerate()
            .map(|(conn, ((driver, &first), rec))| {
                let barrier = &barrier;
                let cpu = cpus.get(conn).copied();
                s.spawn(move || {
                    if let Some(cpu) = cpu {
                        crate::pin::pin(0, &[cpu]);
                    }
                    // Made here, so that an echo thread lands on this core.
                    let reference = beside.map(|(k, dir)| Reference::new(k, dir, conn));
                    barrier.wait();
                    let mut reference = reference.transpose()?;
                    Ok(drive_beside(
                        work,
                        driver.as_ref(),
                        conn,
                        first,
                        limit,
                        rec.map(|r| (r, "wire.stmt")),
                        reference.as_mut(),
                    ))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}
