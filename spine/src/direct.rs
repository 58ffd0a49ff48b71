//! Direct measurements: the benchmark times calls into one crate's
//! public functions, on the workload's own data, outside any statement.
//! Iteration counts are fixed by `--scale`, never by a clock, so the
//! counts these report (nodes per search, splits per insert) repeat
//! exactly for one seed.

use crate::data::{DmlOp, Fact, PROBE_SQL};
use crate::report::{median, Metrics};
use crate::setup::{Kind, RSTAR_STRATEGY};
use crate::window::Work;
use grt_blade::{extent_to_value, install_grtree_blade, GrTreeAmOptions};
use grt_client::proto::{Batch, Request, Response};
use grt_client::{Driver, EmbeddedDriver, RemoteDriver};
use grt_grtree::{bulk, GrTreeOptions, LeafEntry};
use grt_ids::{sql, Database, DatabaseOptions, QueryResult, Value};
use grt_rstar::node::Entry;
use grt_rstar::{RStarOptions, SpatialPredicate};
use grt_sbspace::page::zeroed_page;
use grt_sbspace::{
    Backend, FileBackend, IsolationLevel, LockMode, PageId, Sbspace, SbspaceOptions, PAGE_SIZE,
};
use grt_temporal::{Day, MockClock, Predicate, TimeExtent};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What the direct measurements work on.
pub struct Lab<'a> {
    pub work: &'a Work<'a>,
    pub facts: &'a [Fact],
    pub ct: Day,
    /// The query extents of the peeled prefix.
    pub queries: Vec<TimeExtent>,
    /// Extents of facts not in the table, to insert and delete: the
    /// DML stream's own on `dml_durable`.
    pub fresh: Vec<TimeExtent>,
    /// The day all of `fresh` lies before.
    pub fresh_ct: Day,
    /// An empty directory to put files in.
    pub dir: &'a Path,
    pub scale: f64,
    /// Pages per backend read and write call seen on the workload.
    pub read_run: usize,
    pub write_run: usize,
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn elapsed_ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

impl Lab<'_> {
    /// Iterations for a measurement that would do `n` at scale 1.
    fn iters(&self, n: usize) -> usize {
        ((n as f64 * self.scale.min(1.0)) as usize).max(16)
    }

    fn err(e: impl std::fmt::Display) -> String {
        e.to_string()
    }

    /// `grtree.*`, `rstar.*` and `sbspace.pinned_read_ns`: both trees
    /// bulk-loaded from the table's rows in a roomy in-memory space,
    /// searched with the prefix's queries, then grown and shrunk with
    /// the fresh extents.
    pub fn trees(&self, m: &mut Metrics) -> Result<(), String> {
        let ct = self.ct.max(self.fresh_ct);
        let space = Sbspace::mem(SbspaceOptions {
            pool_pages: 1 << 16,
            ..Default::default()
        });
        let txn = space.begin(IsolationLevel::ReadCommitted);
        let rows = self.facts.len() as f64;

        // GR-tree.
        let lo = space.create_lo(&txn).map_err(Self::err)?;
        let handle = space
            .open_lo(&txn, lo, LockMode::Exclusive)
            .map_err(Self::err)?;
        let entries: Vec<LeafEntry> = self
            .facts
            .iter()
            .map(|&(id, extent)| LeafEntry { extent, rowid: id })
            .collect();
        let start = Instant::now();
        let mut tree =
            bulk::bulk_load(handle, entries, ct, GrTreeOptions::default()).map_err(Self::err)?;
        m.put("grtree.bulk_ns_per_row", "ns", elapsed_ns(start) / rows);
        let before = (
            tree.metrics().searches.get(),
            tree.metrics().nodes_visited.get(),
        );
        let start = Instant::now();
        let mut found = 0u64;
        for q in &self.queries {
            let mut cursor = tree.cursor(Predicate::Overlaps, *q, ct);
            while let Some(hit) = tree.cursor_next(&mut cursor).map_err(Self::err)? {
                black_box(hit);
                found += 1;
            }
        }
        m.put(
            "grtree.search_ns_per_row",
            "ns",
            elapsed_ns(start) / found.max(1) as f64,
        );
        m.put(
            "grtree.nodes_per_search",
            "count",
            (tree.metrics().nodes_visited.get() - before.1) as f64
                / (tree.metrics().searches.get() - before.0).max(1) as f64,
        );
        let grown = (tree.metrics().splits.get(), tree.metrics().reinserts.get());
        let mut times = Vec::with_capacity(self.fresh.len());
        for (i, e) in self.fresh.iter().enumerate() {
            let start = Instant::now();
            tree.insert(*e, u64::MAX - i as u64, ct)
                .map_err(Self::err)?;
            times.push(elapsed_ns(start));
        }
        m.put("grtree.insert_us", "us", us(median(&mut times)));
        let kinserts = self.fresh.len().max(1) as f64 / 1e3;
        m.put(
            "grtree.splits_per_kinsert",
            "count",
            (tree.metrics().splits.get() - grown.0) as f64 / kinserts,
        );
        m.put(
            "grtree.reinserts_per_kinsert",
            "count",
            (tree.metrics().reinserts.get() - grown.1) as f64 / kinserts,
        );
        times.clear();
        for (i, e) in self.fresh.iter().enumerate() {
            let start = Instant::now();
            let out = tree.delete(e, u64::MAX - i as u64, ct).map_err(Self::err)?;
            times.push(elapsed_ns(start));
            if !out.found {
                return Err("grtree lab: an inserted entry was not found".into());
            }
        }
        m.put("grtree.delete_us", "us", us(median(&mut times)));
        let handle = tree.into_lo().map_err(Self::err)?;
        let pages = handle.page_count();
        let reads = self.iters(200_000);
        let start = Instant::now();
        for i in 0..reads {
            black_box(
                &*handle
                    .read_page_pinned(i as u32 % pages)
                    .map_err(Self::err)?,
            );
        }
        m.put(
            "sbspace.pinned_read_ns",
            "ns",
            elapsed_ns(start) / reads as f64,
        );
        drop(handle);

        // R*-tree.
        let lo = space.create_lo(&txn).map_err(Self::err)?;
        let handle = space
            .open_lo(&txn, lo, LockMode::Exclusive)
            .map_err(Self::err)?;
        let entries: Vec<Entry> = self
            .facts
            .iter()
            .map(|(id, extent)| Entry {
                rect: RSTAR_STRATEGY.to_rect(extent, ct),
                payload: *id,
            })
            .collect();
        let start = Instant::now();
        let mut tree =
            grt_rstar::bulk_load(handle, entries, RStarOptions::default()).map_err(Self::err)?;
        m.put("rstar.bulk_ns_per_row", "ns", elapsed_ns(start) / rows);
        let before = (
            tree.metrics().searches.get(),
            tree.metrics().nodes_visited.get(),
        );
        let start = Instant::now();
        let mut found = 0u64;
        for q in &self.queries {
            let mut cursor =
                tree.cursor(SpatialPredicate::Overlap, RSTAR_STRATEGY.query_rect(q, ct));
            while let Some(hit) = tree.cursor_next(&mut cursor).map_err(Self::err)? {
                black_box(hit);
                found += 1;
            }
        }
        m.put(
            "rstar.search_ns_per_row",
            "ns",
            elapsed_ns(start) / found.max(1) as f64,
        );
        m.put(
            "rstar.nodes_per_search",
            "count",
            (tree.metrics().nodes_visited.get() - before.1) as f64
                / (tree.metrics().searches.get() - before.0).max(1) as f64,
        );
        times.clear();
        for (i, e) in self.fresh.iter().enumerate() {
            let rect = RSTAR_STRATEGY.to_rect(e, ct);
            let start = Instant::now();
            tree.insert(rect, u64::MAX - i as u64).map_err(Self::err)?;
            times.push(elapsed_ns(start));
        }
        m.put("rstar.insert_us", "us", us(median(&mut times)));
        drop(tree);
        drop(txn);
        Ok(())
    }

    /// `temporal.overlaps_ns`: the exact predicate on (stored extent,
    /// query) pairs drawn from the table and the prefix.
    pub fn predicate(&self, m: &mut Metrics) {
        let evals = self.iters(2_000_000);
        let (facts, queries, ct) = (self.facts, &self.queries, self.ct);
        let start = Instant::now();
        let mut hits = 0u64;
        for i in 0..evals {
            let (_, stored) = &facts[(i * 7919) % facts.len()];
            let q = &queries[i % queries.len()];
            hits += u64::from(Predicate::Overlaps.eval(black_box(stored), black_box(q), ct));
        }
        black_box(hits);
        m.put(
            "temporal.overlaps_ns",
            "ns",
            elapsed_ns(start) / evals as f64,
        );
    }

    /// `sbspace.fault_us` and `sbspace.commit_us` on a file-backed space
    /// of its own, opened at `SbspaceOptions::default()`.
    pub fn file_space(&self, m: &mut Metrics) -> Result<(), String> {
        let pages = self.iters(1024) as u32;
        let space =
            Sbspace::file(&self.dir.join("space"), SbspaceOptions::default()).map_err(Self::err)?;
        let txn = space.begin(IsolationLevel::ReadCommitted);
        let lo = space.create_lo(&txn).map_err(Self::err)?;
        let mut handle = space
            .open_lo(&txn, lo, LockMode::Exclusive)
            .map_err(Self::err)?;
        let mut page = zeroed_page();
        for i in 0..pages {
            page[..4].copy_from_slice(&i.to_le_bytes());
            handle.append_page(&page).map_err(Self::err)?;
        }
        handle.close().map_err(Self::err)?;
        txn.commit().map_err(Self::err)?;
        space.checkpoint().map_err(Self::err)?;

        let txn = space.begin(IsolationLevel::ReadCommitted);
        let handle = space
            .open_lo(&txn, lo, LockMode::Shared)
            .map_err(Self::err)?;
        space.drop_page_cache();
        let start = Instant::now();
        for i in 0..pages {
            black_box(&*handle.read_page_pinned(i).map_err(Self::err)?);
        }
        m.put(
            "sbspace.fault_us",
            "us",
            us(elapsed_ns(start) / pages as f64),
        );
        handle.close().map_err(Self::err)?;
        txn.commit().map_err(Self::err)?;

        let commits = self.iters(200);
        let mut times = Vec::with_capacity(commits);
        for i in 0..commits {
            let start = Instant::now();
            let txn = space.begin(IsolationLevel::ReadCommitted);
            let mut handle = space
                .open_lo(&txn, lo, LockMode::Exclusive)
                .map_err(Self::err)?;
            handle
                .write_page(i as u32 % pages, &page)
                .map_err(Self::err)?;
            handle.close().map_err(Self::err)?;
            txn.commit().map_err(Self::err)?;
            times.push(elapsed_ns(start));
        }
        m.put("sbspace.commit_us", "us", us(median(&mut times)));
        Ok(())
    }

    /// `sbspace.backend_{read,write,sync}_us`: `FileBackend` calls of
    /// the run lengths the workload showed.
    pub fn backend(&self, m: &mut Metrics) -> Result<(), String> {
        let file = FileBackend::open(&self.dir.join("backend.db")).map_err(Self::err)?;
        let calls = self.iters(256);
        let page = zeroed_page();
        let (mut writes, mut syncs, mut reads) = (Vec::new(), Vec::new(), Vec::new());
        for call in 0..calls {
            let first = (call * self.write_run) as u32;
            let run: Vec<(PageId, &[u8; PAGE_SIZE])> = (0..self.write_run as u32)
                .map(|i| (PageId(first + i), &*page))
                .collect();
            let start = Instant::now();
            file.write_pages(&run).map_err(Self::err)?;
            writes.push(elapsed_ns(start));
            if call % 8 == 7 {
                let start = Instant::now();
                file.sync().map_err(Self::err)?;
                syncs.push(elapsed_ns(start));
            }
        }
        let written = (calls * self.write_run) as u32;
        let mut bufs: Vec<_> = (0..self.read_run).map(|_| zeroed_page()).collect();
        for call in 0..calls {
            // Strided, so successive calls are not contiguous.
            let first = (call as u32 * 37 * self.read_run as u32) % written;
            let pids: Vec<PageId> = (0..self.read_run as u32)
                .map(|i| PageId((first + i) % written))
                .collect();
            let start = Instant::now();
            file.read_pages(&pids, &mut bufs).map_err(Self::err)?;
            reads.push(elapsed_ns(start));
        }
        m.put("sbspace.backend_read_us", "us", us(median(&mut reads)));
        m.put("sbspace.backend_write_us", "us", us(median(&mut writes)));
        m.put("sbspace.backend_sync_us", "us", us(median(&mut syncs)));
        Ok(())
    }

    /// `server.connect_us`: connect, handshake, goodbye.
    pub fn connect(&self, addr: &str, m: &mut Metrics) -> Result<(), String> {
        let mut times = Vec::new();
        for _ in 0..self.iters(40) {
            let start = Instant::now();
            RemoteDriver::connect(addr)
                .and_then(RemoteDriver::goodbye)
                .map_err(Self::err)?;
            times.push(elapsed_ns(start));
        }
        m.put("server.connect_us", "us", us(median(&mut times)));
        Ok(())
    }

    /// The request connection 0 sends as statement `k`, and the SQL it
    /// would be as ad-hoc text.
    fn request(&self, k: usize) -> (Request, String) {
        let execute = |name: &str, args: Vec<Value>| Request::Execute {
            name: name.to_string(),
            args,
        };
        let int = |id: &u64| Value::Int(*id as i64);
        match self.work.kind {
            Kind::ProbeWire => {
                let (q, _) = self.work.read_stmt(0, k);
                (execute("probe", vec![q.arg.clone()]), q.sql[0].clone())
            }
            Kind::ScanWarm | Kind::ScanCold => {
                let (q, table) = self.work.read_stmt(0, k);
                let sql = q.sql[table].clone();
                (Request::Query { sql: sql.clone() }, sql)
            }
            Kind::DmlDurable => match self.work.dml_op(0, k) {
                DmlOp::Insert { id, extent } => (
                    execute("ins", vec![int(id), extent_to_value(extent)]),
                    format!("INSERT INTO g VALUES ({id}, '{extent}')"),
                ),
                DmlOp::Update { id, old, new } => (
                    execute(
                        "upd",
                        vec![extent_to_value(new), extent_to_value(old), int(id)],
                    ),
                    format!(
                        "UPDATE g SET Time_Extent = '{new}' \
                         WHERE Equal(Time_Extent, '{old}') AND id = {id}"
                    ),
                ),
                DmlOp::Delete { id, extent } => (
                    execute("del", vec![extent_to_value(extent), int(id)]),
                    format!("DELETE FROM g WHERE Equal(Time_Extent, '{extent}') AND id = {id}"),
                ),
                DmlOp::Probe { query, .. } => (
                    execute("probe", vec![extent_to_value(query)]),
                    format!("SELECT id FROM g WHERE Overlaps(Time_Extent, '{query}')"),
                ),
            },
        }
    }

    /// `client.*` and `ids.parse_ns_per_stmt`, over the first `n`
    /// statements of connection 0 starting at `first`. The frames are
    /// rebuilt from each statement's result (read through `reader`, so
    /// nothing is changed: a DML statement's answer is its one-line
    /// message) the way `grt_server` cuts them — `ServerOptions`'s head
    /// batch, then `Fetch`es of the driver's batch size.
    pub fn codec(
        &self,
        reader: &dyn Driver,
        first: usize,
        n: usize,
        m: &mut Metrics,
    ) -> Result<f64, String> {
        let head_rows = grt_server::ServerOptions::default().fetch_rows;
        const FETCH_ROWS: usize = 1024; // grt_client::remote::FETCH_ROWS
        let mut requests = Vec::with_capacity(n);
        let mut frames: Vec<Vec<u8>> = Vec::with_capacity(n);
        let mut texts = Vec::with_capacity(n);
        let (mut bytes, mut trips) = (0usize, 0usize);
        for k in first..first + n {
            let (request, text) = self.request(k);
            let result = match (&request, self.work.kind) {
                (Request::Execute { name, .. }, Kind::DmlDurable) if name != "probe" => {
                    QueryResult {
                        message: "1 rows updated".to_string(),
                        ..Default::default()
                    }
                }
                (Request::Execute { name, args }, _) => {
                    reader.execute(name, args).map_err(Self::err)?
                }
                (Request::Query { sql }, _) => reader.exec(sql).map_err(Self::err)?,
                _ => unreachable!("statements are queries or executes"),
            };
            let QueryResult {
                columns,
                rows,
                rendered,
                message,
            } = result;
            if columns.is_empty() {
                frames.push(Response::Ok { message }.encode());
            } else {
                let total_rows = rows.len();
                let (mut rows, mut rendered) = (rows.into_iter(), rendered.into_iter());
                let mut batch = |take: usize| -> (Vec<_>, Vec<_>) {
                    (
                        rows.by_ref().take(take).collect(),
                        rendered.by_ref().take(take).collect(),
                    )
                };
                let (head, head_text) = batch(head_rows);
                let mut sent = head.len();
                frames.push(
                    Response::ResultHead {
                        columns,
                        message,
                        cursor: u64::from(sent < total_rows),
                        total_rows: total_rows as u64,
                        batch: Batch {
                            rows: head,
                            rendered: head_text,
                            done: sent == total_rows,
                        },
                    }
                    .encode(),
                );
                while sent < total_rows {
                    let fetch = Request::Fetch {
                        cursor: 1,
                        max_rows: FETCH_ROWS as u32,
                    };
                    bytes += 4 + fetch.encode().len();
                    trips += 1;
                    requests.push(fetch);
                    let (more, more_text) = batch(FETCH_ROWS);
                    sent += more.len();
                    frames.push(
                        Response::Rows(Batch {
                            rows: more,
                            rendered: more_text,
                            done: sent == total_rows,
                        })
                        .encode(),
                    );
                }
            }
            bytes += 4 + request.encode().len();
            trips += 1;
            requests.push(request);
            texts.push(text);
        }
        bytes += frames.iter().map(|f| 4 + f.len()).sum::<usize>();

        let start = Instant::now();
        for request in &requests {
            black_box(request.encode());
        }
        for frame in &frames {
            black_box(Response::decode(frame).map_err(Self::err)?);
        }
        let codec_ns = elapsed_ns(start);
        m.put("client.codec_ns_per_stmt", "ns", codec_ns / n as f64);
        m.put("client.bytes_per_stmt", "bytes", bytes as f64 / n as f64);
        m.put(
            "client.round_trips_per_stmt",
            "count",
            trips as f64 / n as f64,
        );

        let start = Instant::now();
        for text in &texts {
            black_box(sql::normalize_dml(text).map_err(Self::err)?);
        }
        m.put("ids.parse_ns_per_stmt", "ns", elapsed_ns(start) / n as f64);
        Ok(codec_ns)
    }

    /// `ids.compile_ns_per_stmt`: what an ad-hoc statement costs over a
    /// prepared `EXECUTE` when nothing caches its plan — a small
    /// database with `plan_cache_size: 0`, the prefix's queries sent
    /// both ways.
    pub fn compile(&self, m: &mut Metrics) -> Result<(), String> {
        let db = Database::new(DatabaseOptions {
            plan_cache_size: 0,
            clock: Arc::new(MockClock::new(self.ct)),
            space: SbspaceOptions {
                pool_pages: 4096,
                ..Default::default()
            },
            ..Default::default()
        });
        install_grtree_blade(&db, GrTreeAmOptions::default()).map_err(Self::err)?;
        let driver = EmbeddedDriver::connect(&db);
        driver
            .exec("CREATE TABLE g (id integer, Time_Extent GRT_TimeExtent_t)")
            .map_err(Self::err)?;
        let load = self.dir.join("compile.txt");
        let sample: String = self
            .facts
            .iter()
            .take(4000)
            .map(|(id, e)| format!("{id}|{e}\n"))
            .collect();
        std::fs::write(&load, sample).map_err(Self::err)?;
        driver
            .exec(&format!("LOAD FROM '{}' INSERT INTO g", load.display()))
            .map_err(Self::err)?;
        driver
            .exec("CREATE INDEX gix ON g(Time_Extent grt_opclass) USING grtree_am")
            .map_err(Self::err)?;
        driver.prepare("probe", PROBE_SQL).map_err(Self::err)?;
        let queries: Vec<(String, Value)> = self
            .queries
            .iter()
            .take(64)
            .map(|q| {
                (
                    format!("SELECT id FROM g WHERE Overlaps(Time_Extent, '{q}')"),
                    extent_to_value(q),
                )
            })
            .collect();
        let rounds = self.iters(8);
        let (mut adhoc, mut prepared) = (0f64, 0f64);
        // Alternate, so drift hits both sides alike.
        for _ in 0..rounds {
            let start = Instant::now();
            for (sql, _) in &queries {
                black_box(driver.exec(sql).map_err(Self::err)?);
            }
            adhoc += elapsed_ns(start);
            let start = Instant::now();
            for (_, arg) in &queries {
                black_box(
                    driver
                        .execute("probe", std::slice::from_ref(arg))
                        .map_err(Self::err)?,
                );
            }
            prepared += elapsed_ns(start);
        }
        m.put(
            "ids.compile_ns_per_stmt",
            "ns",
            (adhoc - prepared) / (rounds * queries.len()) as f64,
        );
        Ok(())
    }
}
