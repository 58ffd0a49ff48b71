//! Index fixtures built from synthetic histories, with I/O accounting.

use grt_grtree::{GrTree, GrTreeOptions};
use grt_rstar::bitemporal::{horizon_refresh_plan, NowStrategy};
use grt_rstar::{RStarOptions, RStarTree, SpatialPredicate};
use grt_sbspace::{IoSnapshot, IsolationLevel, LoHandle, LockMode, Sbspace, SbspaceOptions};
use grt_temporal::{Day, Predicate, TimeExtent};
use grt_workload::{History, HistoryEvent};
use std::collections::HashMap;

/// Creates an in-memory space (with the given buffer-pool size) and an
/// exclusively opened empty large object inside it. The transaction is
/// leaked: benchmark fixtures live for the process.
fn fresh_lo(pool_pages: usize) -> (Sbspace, LoHandle) {
    let sb = Sbspace::mem(SbspaceOptions {
        pool_pages,
        ..Default::default()
    });
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let lo = sb.create_lo(&txn).unwrap();
    let h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
    std::mem::forget(txn);
    (sb, h)
}

/// A GR-tree plus the space it lives in.
pub struct GrFixture {
    /// The backing space (for I/O statistics).
    pub space: Sbspace,
    /// The tree.
    pub tree: GrTree,
    /// Total logical writes spent building it.
    pub build_writes: u64,
}

/// An R\*-tree baseline plus its bookkeeping.
pub struct RStarFixture {
    /// The backing space.
    pub space: Sbspace,
    /// The tree.
    pub tree: RStarTree,
    /// The grounding strategy in force.
    pub strategy: NowStrategy,
    /// Final extents by rowid (the refinement "base table").
    pub extents: HashMap<u64, TimeExtent>,
    /// Total logical writes spent building (including refreshes).
    pub build_writes: u64,
    /// Entries reinserted by Horizon refreshes.
    pub refreshed_entries: u64,
}

/// An empty GR-tree in a fresh space.
pub fn fresh_gr_tree(pool_pages: usize, max_entries: usize) -> (Sbspace, GrTree) {
    let (sb, lo) = fresh_lo(pool_pages);
    let tree = GrTree::create(
        lo,
        GrTreeOptions {
            max_entries,
            ..Default::default()
        },
    )
    .unwrap();
    (sb, tree)
}

/// An empty R\*-tree in a fresh space.
pub fn fresh_rstar_tree(pool_pages: usize, max_entries: usize) -> (Sbspace, RStarTree) {
    let (sb, lo) = fresh_lo(pool_pages);
    let tree = RStarTree::create(
        lo,
        RStarOptions {
            max_entries,
            ..Default::default()
        },
    )
    .unwrap();
    (sb, tree)
}

/// Replays a history into a GR-tree: inserts at their day; a logical
/// deletion is delete(old) + insert(new).
pub fn apply_history_gr(h: &History, pool_pages: usize, max_entries: usize) -> GrFixture {
    apply_history_gr_opts(
        h,
        pool_pages,
        GrTreeOptions {
            max_entries,
            ..Default::default()
        },
    )
}

/// Like [`apply_history_gr`] with full control over the tree options
/// (ablations).
pub fn apply_history_gr_opts(h: &History, pool_pages: usize, opts: GrTreeOptions) -> GrFixture {
    let sb = Sbspace::mem(SbspaceOptions {
        pool_pages,
        ..Default::default()
    });
    let build_txn = sb.begin(IsolationLevel::ReadCommitted);
    let lo_id = sb.create_lo(&build_txn).unwrap();
    let handle = sb.open_lo(&build_txn, lo_id, LockMode::Exclusive).unwrap();
    let mut tree = GrTree::create(handle, opts).unwrap();
    let before = sb.stats().snapshot();
    for (day, ev) in &h.events {
        match ev {
            HistoryEvent::Insert { id, extent } => {
                tree.insert(*extent, *id, *day).unwrap();
            }
            HistoryEvent::LogicalDelete { id, old, new } => {
                assert!(tree.delete(old, *id, *day).unwrap().found);
                tree.insert(*new, *id, *day).unwrap();
            }
        }
    }
    let delta = sb.stats().snapshot().since(&before);
    // Commit the build so pages become clean (and evictable under pool
    // pressure), then reopen read-only for the query phase.
    tree.into_lo().unwrap().close().unwrap();
    build_txn.commit().unwrap();
    let read_txn = sb.begin(IsolationLevel::ReadCommitted);
    let handle = sb.open_lo(&read_txn, lo_id, LockMode::Shared).unwrap();
    std::mem::forget(read_txn);
    let tree = GrTree::open(handle).unwrap();
    GrFixture {
        space: sb,
        tree,
        build_writes: delta.logical_writes,
    }
}

/// Replays a history into an R\*-tree baseline, applying Horizon
/// refreshes at quantum boundaries.
pub fn apply_history_rstar(
    h: &History,
    strategy: NowStrategy,
    pool_pages: usize,
    max_entries: usize,
) -> RStarFixture {
    let sb = Sbspace::mem(SbspaceOptions {
        pool_pages,
        ..Default::default()
    });
    let build_txn = sb.begin(IsolationLevel::ReadCommitted);
    let lo_id = sb.create_lo(&build_txn).unwrap();
    let handle = sb.open_lo(&build_txn, lo_id, LockMode::Exclusive).unwrap();
    let mut tree = RStarTree::create(
        handle,
        RStarOptions {
            max_entries,
            ..Default::default()
        },
    )
    .unwrap();
    let space = sb;
    let before = space.stats().snapshot();
    let mut extents: HashMap<u64, TimeExtent> = HashMap::new();
    let mut open: Vec<(u64, TimeExtent)> = Vec::new();
    let mut last_day = h.params.start;
    let mut refreshed = 0u64;
    let refresh = |tree: &mut RStarTree,
                   open: &[(u64, TimeExtent)],
                   from: Day,
                   to: Day,
                   refreshed: &mut u64| {
        for (id, old_rect, new_rect) in horizon_refresh_plan(strategy, open, from, to) {
            assert!(tree.delete(old_rect, id).unwrap().found);
            tree.insert(new_rect, id).unwrap();
            *refreshed += 1;
        }
    };
    for (day, ev) in &h.events {
        if *day != last_day {
            refresh(&mut tree, &open, last_day, *day, &mut refreshed);
            last_day = *day;
        }
        match ev {
            HistoryEvent::Insert { id, extent } => {
                tree.insert(strategy.to_rect(extent, *day), *id).unwrap();
                extents.insert(*id, *extent);
                open.push((*id, *extent));
            }
            HistoryEvent::LogicalDelete { id, old, new } => {
                assert!(
                    tree.delete(strategy.to_rect(old, *day), *id).unwrap().found,
                    "baseline lost entry {id}"
                );
                tree.insert(strategy.to_rect(new, *day), *id).unwrap();
                extents.insert(*id, *new);
                open.retain(|(oid, _)| oid != id);
                open.push((*id, *new));
            }
        }
    }
    let delta = space.stats().snapshot().since(&before);
    tree.into_lo().unwrap().close().unwrap();
    build_txn.commit().unwrap();
    let read_txn = space.begin(IsolationLevel::ReadCommitted);
    let handle = space.open_lo(&read_txn, lo_id, LockMode::Shared).unwrap();
    std::mem::forget(read_txn);
    let tree = RStarTree::open(handle).unwrap();
    RStarFixture {
        space,
        tree,
        strategy,
        extents,
        build_writes: delta.logical_writes,
        refreshed_entries: refreshed,
    }
}

/// Aggregated measurements of a query batch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryStats {
    /// Queries executed.
    pub queries: u64,
    /// Exact result tuples across all queries.
    pub results: u64,
    /// Index candidates examined (equals `results` for the GR-tree; the
    /// baselines pay refinement for the difference).
    pub candidates: u64,
    /// Logical page reads.
    pub logical_reads: u64,
    /// Physical page reads (pool misses).
    pub physical_reads: u64,
}

impl QueryStats {
    fn from_delta(queries: u64, results: u64, candidates: u64, d: IoSnapshot) -> QueryStats {
        QueryStats {
            queries,
            results,
            candidates,
            logical_reads: d.logical_reads,
            physical_reads: d.physical_reads,
        }
    }

    /// Logical reads per query.
    pub fn reads_per_query(&self) -> f64 {
        self.logical_reads as f64 / self.queries.max(1) as f64
    }

    /// Candidates per true result (1.0 = no false positives).
    pub fn candidate_ratio(&self) -> f64 {
        self.candidates as f64 / self.results.max(1) as f64
    }
}

/// Runs an `Overlaps` query batch against a GR-tree at `ct`.
pub fn run_queries_gr(fx: &GrFixture, queries: &[TimeExtent], ct: Day) -> QueryStats {
    let before = fx.space.stats().snapshot();
    let mut results = 0u64;
    for q in queries {
        results += fx.tree.search(Predicate::Overlaps, q, ct).unwrap().len() as u64;
    }
    let d = fx.space.stats().snapshot().since(&before);
    QueryStats::from_delta(queries.len() as u64, results, results, d)
}

/// Runs an `Overlaps` query batch against an R\*-tree baseline at `ct`,
/// refining candidates against the stored extents. Each refinement
/// lookup is charged one logical read (the base-table fetch).
pub fn run_queries_rstar(fx: &RStarFixture, queries: &[TimeExtent], ct: Day) -> QueryStats {
    let before = fx.space.stats().snapshot();
    let mut results = 0u64;
    let mut candidates = 0u64;
    for q in queries {
        let qrect = fx.strategy.query_rect(q, ct);
        let cands = fx.tree.search(SpatialPredicate::Overlap, &qrect).unwrap();
        candidates += cands.len() as u64;
        for rowid in cands {
            let stored = fx.extents[&rowid];
            if Predicate::Overlaps.eval(&stored, q, ct) {
                results += 1;
            }
        }
    }
    let mut d = fx.space.stats().snapshot().since(&before);
    // Charge the refinement fetches as base-table reads.
    d.logical_reads += candidates;
    QueryStats::from_delta(queries.len() as u64, results, candidates, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_workload::HistoryParams;

    fn small_history() -> History {
        History::generate(HistoryParams {
            inserts: 300,
            ..Default::default()
        })
    }

    #[test]
    fn gr_and_baselines_agree_on_results() {
        let h = small_history();
        let gr = apply_history_gr(&h, 4096, 16);
        gr.tree.check(h.end).unwrap();
        let maxts = apply_history_rstar(&h, NowStrategy::MaxTimestamp, 4096, 16);
        let horizon = apply_history_rstar(&h, NowStrategy::Horizon { slack: 100 }, 4096, 16);
        maxts.tree.check().unwrap();
        horizon.tree.check().unwrap();

        let queries: Vec<TimeExtent> = grt_workload::QuerySet::generate(
            grt_workload::QueryParams {
                count: 40,
                kind: grt_workload::QueryKind::Window,
                tt_range: (h.params.start, h.end),
                window: 25,
                seed: 3,
            },
            h.end,
        )
        .queries;
        let ct = h.end;
        let a = run_queries_gr(&gr, &queries, ct);
        let b = run_queries_rstar(&maxts, &queries, ct);
        let c = run_queries_rstar(&horizon, &queries, ct);
        assert_eq!(a.results, b.results, "gr vs max-timestamp");
        assert_eq!(a.results, c.results, "gr vs horizon");
        assert!(b.candidates >= b.results);
        assert_eq!(a.candidates, a.results, "gr-tree needs no refinement");
    }

    #[test]
    fn horizon_refreshes_cost_writes() {
        let h = History::generate(HistoryParams {
            inserts: 400,
            days_per_insert: 2,
            ..Default::default()
        });
        let tight = apply_history_rstar(&h, NowStrategy::Horizon { slack: 50 }, 4096, 16);
        let loose = apply_history_rstar(&h, NowStrategy::Horizon { slack: 5000 }, 4096, 16);
        assert!(tight.refreshed_entries > 0);
        assert!(
            tight.refreshed_entries > loose.refreshed_entries,
            "tighter quanta refresh more: {} vs {}",
            tight.refreshed_entries,
            loose.refreshed_entries
        );
        assert!(tight.build_writes > loose.build_writes);
    }
}

#[cfg(test)]
mod shape_tests {
    use super::*;
    use grt_workload::{HistoryParams, QueryKind, QueryParams, QuerySet};

    /// A miniature version of perf-search asserting the paper's
    /// headline shape in the regular test suite.
    #[test]
    fn grtree_beats_maxts_on_now_relative_data() {
        let h = History::generate(HistoryParams {
            inserts: 800,
            now_relative_fraction: 1.0,
            delete_rate: 0.3,
            seed: 11,
            ..Default::default()
        });
        let queries = QuerySet::generate(
            QueryParams {
                count: 50,
                kind: QueryKind::Window,
                tt_range: (h.params.start, h.end),
                window: 20,
                seed: 5,
            },
            h.end,
        )
        .queries;
        let gr = apply_history_gr(&h, 1 << 14, 42);
        let maxts = apply_history_rstar(&h, NowStrategy::MaxTimestamp, 1 << 14, 42);
        let a = run_queries_gr(&gr, &queries, h.end);
        let b = run_queries_rstar(&maxts, &queries, h.end);
        assert_eq!(a.results, b.results, "answers must agree");
        assert!(
            a.reads_per_query() * 3.0 < b.reads_per_query(),
            "the GR-tree must clearly win on fully now-relative data: \
             {:.1} vs {:.1} reads/query",
            a.reads_per_query(),
            b.reads_per_query()
        );
        assert!(b.candidate_ratio() > 1.2, "the baseline pays refinement");
        assert!(
            (a.candidate_ratio() - 1.0).abs() < 1e-9,
            "the GR-tree does not"
        );
    }
}
