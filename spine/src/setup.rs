//! The four workloads and how each one's database is built and served.

use crate::args::apply_set;
use crate::data::{self, DmlOp, Fact, Query};
use crate::reference::Kernel;
use crate::timed_backend::{BackendTimes, TimedBackend};
use grt_blade::{install_grtree_blade, install_rstar_blade, GrTreeAmOptions};
use grt_ids::{Database, DatabaseOptions, Value};
use grt_rstar::bitemporal::NowStrategy;
use grt_rstar::RStarOptions;
use grt_sbspace::{FileBackend, FileWal, LoId, Sbspace, SbspaceOptions};
use grt_server::{Server, ServerHandle, ServerOptions};
use grt_temporal::{Day, MockClock};
use grt_workload::History;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ProbeWire,
    ScanWarm,
    ScanCold,
    DmlDurable,
}

/// A workload's stated sizes (at `--scale 1`).
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    pub rows: usize,
    pub connections: usize,
    pub file_backed: bool,
    /// Buffer-pool pages; `None` keeps `SbspaceOptions::default()`.
    pub pool_pages: Option<usize>,
    /// Distinct read statements pre-generated (per selectivity class
    /// for the scans).
    pub pool: usize,
    /// Statements in the prefix the traced run replays layer by layer.
    pub peel_stmts: usize,
    /// Times an untraced run does the whole set-up; `setup_s` is the
    /// median. More where a set-up is quick.
    pub setups: usize,
    /// The reference work whose speed on this machine moves like the
    /// workload's statements do (see [`crate::reference`]).
    pub reference: Kernel,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        kind: Kind::ProbeWire,
        name: "probe_wire",
        rows: 50_000,
        connections: 2,
        file_backed: false,
        pool_pages: Some(4_096),
        pool: 1_024,
        peel_stmts: 10_000,
        setups: 7,
        reference: Kernel::Echo,
    },
    Spec {
        kind: Kind::ScanWarm,
        name: "scan_warm",
        rows: 150_000,
        connections: 2,
        file_backed: false,
        pool_pages: Some(16_384),
        pool: 128,
        peel_stmts: 150,
        setups: 3,
        reference: Kernel::Sort,
    },
    // The scan_warm table under the default 256-page pool: heap plus
    // tree are 11.6 times the pool.
    Spec {
        kind: Kind::ScanCold,
        name: "scan_cold",
        rows: 150_000,
        connections: 1,
        file_backed: true,
        pool_pages: None,
        pool: 128,
        peel_stmts: 90,
        setups: 3,
        reference: Kernel::Sort,
    },
    Spec {
        kind: Kind::DmlDurable,
        name: "dml_durable",
        rows: 20_000,
        connections: 2,
        file_backed: true,
        pool_pages: None,
        pool: 0,
        peel_stmts: 300,
        setups: 5,
        reference: Kernel::Sync,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    pub fn scaled_rows(&self, scale: f64) -> usize {
        ((self.rows as f64 * scale) as usize).max(400)
    }

    /// Connections the load is driven through: never more than cores.
    pub fn clients(&self, nproc: usize) -> usize {
        self.connections.min(nproc.max(1))
    }

    /// What scales `recovery_s`: reopening a directory replays and reads
    /// (processor work); a restarted server owes its clients statements.
    pub fn recovery_reference(&self) -> Kernel {
        if self.file_backed {
            Kernel::Sort
        } else {
            self.reference
        }
    }

    /// `DatabaseOptions::default()` plus this workload's stated sizes,
    /// then the `--set` overrides.
    pub fn options(
        &self,
        sets: &[(String, String)],
        clock: Arc<MockClock>,
    ) -> Result<DatabaseOptions, String> {
        let mut opts = DatabaseOptions {
            clock,
            ..Default::default()
        };
        if let Some(pages) = self.pool_pages {
            opts.space.pool_pages = pages;
        }
        if self.kind == Kind::DmlDurable {
            opts.checkpoint_interval = Some(Duration::from_millis(250));
            opts.wal_segment_bytes = 256 << 10;
        }
        for (key, value) in sets {
            apply_set(&mut opts, key, value)?;
        }
        Ok(opts)
    }
}

/// Everything made from the seed before a database exists.
pub struct Inputs {
    pub history: History,
    pub facts: Vec<Fact>,
    /// The fixed day the `MockClock` shows.
    pub ct: Day,
    /// The read-statement pool (empty for `dml_durable`).
    pub queries: Vec<Query>,
    /// `LOAD` file contents: one `id|extent` line per row.
    pub load_text: String,
}

/// Statements one `dml_durable` connection may need: the window at a
/// generous rate, the warm-up, and the traced run's replays.
pub fn dml_ops_per_conn(seconds: f64, spec: &Spec) -> usize {
    (seconds * 600.0) as usize + 6 * spec.peel_stmts + 200
}

impl Inputs {
    pub fn generate(spec: &Spec, scale: f64, seed: u64, seconds: f64) -> Inputs {
        let rows = spec.scaled_rows(scale);
        let history = data::history(rows, seed);
        let facts = history.final_state();
        let pool = ((spec.pool as f64 * scale.min(1.0)) as usize).max(8);
        let (ct, queries) = match spec.kind {
            Kind::ProbeWire => (
                history.end,
                data::probe_pool(&history, &facts, pool, seed ^ 0x51),
            ),
            Kind::ScanWarm | Kind::ScanCold => (
                history.end,
                data::window_pool(&history, rows, pool, seed ^ 0x52),
            ),
            // Fresh facts arrive one per day after the history ends;
            // the clock stands still on a day after the last of them.
            Kind::DmlDurable => (
                history.end.plus(dml_ops_per_conn(seconds, spec) as i32 + 2),
                Vec::new(),
            ),
        };
        // scan_cold stores its rows in a seeded shuffle: the heap is then
        // unclustered with respect to the index (the usual lot of a
        // secondary index), so the rows of one window lie on as many
        // heap pages as there are rows and the small pool must fault
        // for nearly each — in load order they would share a few pages.
        let mut order: Vec<usize> = (0..facts.len()).collect();
        if spec.kind == Kind::ScanCold {
            let mut rng = data::SplitMix64(seed ^ 0x53);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
        }
        let mut load_text = String::with_capacity(facts.len() * 48);
        for &i in &order {
            use std::fmt::Write as _;
            let (id, extent) = &facts[i];
            let _ = writeln!(load_text, "{id}|{extent}");
        }
        Inputs {
            history,
            facts,
            ct,
            queries,
            load_text,
        }
    }

    /// The oracle pass for the read pool (not part of set-up time: it
    /// is the checker's work, not the system's).
    pub fn fill_expectations(&mut self, threads: usize) {
        data::fill_expectations(&self.facts, &mut self.queries, self.ct, threads);
    }

    pub fn dml_streams(
        &self,
        spec: &Spec,
        conns: usize,
        seconds: f64,
        seed: u64,
    ) -> Vec<Vec<DmlOp>> {
        let ops = dml_ops_per_conn(seconds, spec);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..conns)
                .map(|c| {
                    s.spawn(move || {
                        data::dml_stream(&self.history, &self.facts, c, conns, ops, self.ct, seed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stream generator panicked"))
                .collect()
        })
    }
}

/// The large objects behind one table and its index.
#[derive(Debug, Clone, Copy)]
pub struct TableLos {
    pub heap: LoId,
    pub index: LoId,
}

/// A built database being served on loopback.
pub struct Served {
    pub db: Database,
    pub server: ServerHandle,
    pub addr: String,
    pub clock: Arc<MockClock>,
    /// The directory of a file-backed space.
    pub dir: Option<PathBuf>,
    /// The options the space was opened with (to reopen it).
    pub space_opts: SbspaceOptions,
    /// Backend timings, when the traced run mounted [`TimedBackend`].
    pub backend: Option<Arc<BackendTimes>>,
    /// `g`: the GR-tree-indexed table every workload has.
    pub g: TableLos,
    /// `r`: `scan_warm`'s copy of the rows under `rstar_am`.
    pub r: Option<TableLos>,
}

pub const RSTAR_STRATEGY: NowStrategy = NowStrategy::MaxTimestamp;

fn int(v: &Value) -> u32 {
    match v {
        Value::Int(i) => *i as u32,
        other => panic!("catalog column is not an integer: {other}"),
    }
}

fn table_los(db: &Database, table: &str, index: &str) -> TableLos {
    let find = |catalog: &str, name: &str, col: usize| {
        let (_, rows) = db.catalog_dump(catalog).expect("catalog exists");
        let row = rows
            .iter()
            .find(|r| matches!(&r[0], Value::Text(n) if n.eq_ignore_ascii_case(name)))
            .unwrap_or_else(|| panic!("{name} not in {catalog}"));
        LoId(int(&row[col]))
    };
    TableLos {
        heap: find("systables", table, 2),
        index: find("sysfragments", index, 1),
    }
}

/// Builds the workload's database in `dir` (used for the load file, and
/// for the space itself when file-backed), loads the rows, builds the
/// indices with `CREATE INDEX` (one STR `am_build` each) and starts the
/// server. `traced` mounts the timing backend under a file-backed space.
/// `lap` is called between the steps (a set-up stopwatch's lap).
pub fn build(
    spec: &Spec,
    inputs: &Inputs,
    sets: &[(String, String)],
    traced: bool,
    dir: &Path,
    lap: &mut dyn FnMut(),
) -> Result<Served, String> {
    let clock = Arc::new(MockClock::new(inputs.ct));
    let opts = spec.options(sets, Arc::clone(&clock))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut space_opts = opts.space.clone();
    space_opts.checkpoint_interval = opts.checkpoint_interval;
    space_opts.wal_segment_bytes = opts.wal_segment_bytes;
    let mut backend = None;
    let db = if spec.file_backed {
        let store = dir.join("space");
        let space = if traced {
            std::fs::create_dir_all(&store).map_err(|e| e.to_string())?;
            let file = FileBackend::open(&store.join("pages.db")).map_err(|e| e.to_string())?;
            let wal = FileWal::open_with(&store.join("wal"), space_opts.wal_segment_bytes)
                .map_err(|e| e.to_string())?;
            let (timed, times) = TimedBackend::new(file);
            backend = Some(times);
            Sbspace::open_with(timed, wal, space_opts.clone())
        } else {
            Sbspace::file(&store, space_opts.clone())
        }
        .map_err(|e| e.to_string())?;
        Database::with_space(space, Arc::clone(&clock) as Arc<_>)
    } else {
        Database::new(opts)
    };
    install_grtree_blade(&db, GrTreeAmOptions::default()).map_err(|e| e.to_string())?;
    let load = dir.join("load.txt");
    std::fs::write(&load, &inputs.load_text).map_err(|e| e.to_string())?;
    let conn = db.connect();
    let exec = |sql: String| {
        conn.exec(&sql)
            .map(|_| ())
            .map_err(|e| format!("{sql}: {e}"))
    };
    let mut table = |name: &str, am: &str, opclass: &str| -> Result<(), String> {
        exec(format!(
            "CREATE TABLE {name} (id integer, Time_Extent GRT_TimeExtent_t)"
        ))?;
        lap();
        exec(format!("LOAD FROM '{}' INSERT INTO {name}", load.display()))?;
        lap();
        exec(format!(
            "CREATE INDEX {name}ix ON {name}(Time_Extent {opclass}) USING {am}"
        ))?;
        lap();
        Ok(())
    };
    table("g", "grtree_am", "grt_opclass")?;
    let g = table_los(&db, "g", "gix");
    let r = if spec.kind == Kind::ScanWarm {
        install_rstar_blade(&db, RSTAR_STRATEGY, RStarOptions::default())
            .map_err(|e| e.to_string())?;
        table("r", "rstar_am", "rstar_opclass")?;
        Some(table_los(&db, "r", "rix"))
    } else {
        None
    };
    drop(conn);
    let server = Server::new(db.clone(), ServerOptions::default())
        .start()
        .map_err(|e| format!("server: {e}"))?;
    let addr = server.local_addr().to_string();
    Ok(Served {
        db,
        server,
        addr,
        clock,
        dir: spec.file_backed.then(|| dir.join("space")),
        space_opts,
        backend,
        g,
        r,
    })
}
