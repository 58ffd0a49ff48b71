//! The disk-resident GR-tree: the paged-tree kernel under a
//! [`GrKey`], with the time-extent API the DataBlade and the
//! experiments use.

use crate::entry::{extent_of, GrNode, MAX_FANOUT};
use crate::key::{GrKey, GrQuery};
use crate::stats::GrQuality;
use crate::Result;
use grt_metrics::TreeMetrics;
use grt_sbspace::{LoHandle, LoReader};
use grt_temporal::{Day, Predicate, Region, RegionSpec, TimeExtent};
use grt_treekit::{Cursor, Meta, NodeSource, Reader, Tree};
use std::ops::{Deref, DerefMut};

/// Construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct GrTreeOptions {
    /// Maximum entries per node (M); capped by the page size.
    pub max_entries: usize,
    /// Minimum fill of non-root nodes as a percentage of M.
    pub min_fill_pct: u32,
    /// Share of entries evicted by forced reinsertion (0 disables).
    pub reinsert_pct: u32,
    /// Days into the future at which insertion penalties are evaluated
    /// (the GR-tree's time parameter).
    pub time_param: u32,
    /// Ablation: replace stair-shaped bounds with growing rectangles
    /// everywhere (what a NOW-aware index *without* the stair encoding
    /// would do). Off in the real GR-tree.
    pub rectangle_only: bool,
}

impl Default for GrTreeOptions {
    fn default() -> Self {
        GrTreeOptions {
            max_entries: MAX_FANOUT,
            min_fill_pct: 40,
            reinsert_pct: 30,
            time_param: 30,
            rectangle_only: false,
        }
    }
}

impl GrTreeOptions {
    /// The header of a fresh tree built with these options.
    pub fn header(self) -> Meta<GrKey> {
        let key = GrKey {
            time_param: self.time_param,
            rectangle_only: self.rectangle_only,
        };
        Meta::rstar_sized(
            key,
            self.max_entries,
            MAX_FANOUT,
            self.min_fill_pct,
            self.reinsert_pct,
        )
    }
}

/// Outcome of a deletion.
pub type GrDeleteOutcome = grt_treekit::DeleteOutcome;

/// A depth-first scan over qualifying leaf entries. The current time is
/// fixed at cursor creation — the paper's per-statement current time
/// (Section 5.4).
pub type GrCursor = Cursor<GrKey>;

/// A kernel hit as the extent-level API reports it.
fn hit((leaf, rowid): (RegionSpec, u64)) -> (TimeExtent, u64) {
    (extent_of(&leaf), rowid)
}

/// A disk-resident GR-tree owning its large-object handle. Derefs to
/// the kernel [`Tree`] for everything that is not extent-specific
/// (`len`, `height`, `pages`, `metrics`, `check`, `cursor_restart`, …).
pub struct GrTree(pub(crate) Tree<GrKey>);

impl Deref for GrTree {
    type Target = Tree<GrKey>;
    fn deref(&self) -> &Tree<GrKey> {
        &self.0
    }
}

impl DerefMut for GrTree {
    fn deref_mut(&mut self) -> &mut Tree<GrKey> {
        &mut self.0
    }
}

impl GrTree {
    /// Initialises a fresh tree inside an (empty) large object.
    pub fn create(lo: LoHandle, opts: GrTreeOptions) -> Result<GrTree> {
        Tree::create(lo, opts.header()).map(GrTree)
    }

    /// Opens an existing tree.
    pub fn open(lo: LoHandle) -> Result<GrTree> {
        Tree::open(GrKey::default(), lo).map(GrTree)
    }

    /// Releases the large-object handle, flushing the header when the
    /// handle is writable (read-only opens never changed it).
    pub fn into_lo(self) -> Result<LoHandle> {
        self.0.into_lo()
    }

    /// Reads the node at `page` (for dumps and stats).
    pub fn read_node(&self, page: u32) -> Result<GrNode> {
        Ok(self.0.read_node(page)?.into())
    }

    /// Reconstructs the construction options (for rebuilds).
    pub fn options(&self) -> GrTreeOptions {
        let meta = self.0.meta();
        GrTreeOptions {
            max_entries: meta.max_entries as usize,
            min_fill_pct: (meta.min_fill * 100 / meta.max_entries).max(10),
            reinsert_pct: meta.reinsert_pct,
            time_param: meta.key.time_param,
            rectangle_only: meta.key.rectangle_only,
        }
    }

    /// The root node's bounding region resolved at `ct`, or `None` for
    /// an empty tree. The planner's selectivity estimate compares a
    /// query region against this bound.
    pub fn root_bound(&self, ct: Day) -> Result<Option<Region>> {
        Ok(self.0.root_bound(ct)?.map(|b| b.resolve(ct)))
    }

    /// Inserts a tuple's time extent at current time `ct`.
    pub fn insert(&mut self, extent: TimeExtent, rowid: u64, ct: Day) -> Result<()> {
        self.0.insert(extent.spec(), rowid, ct)
    }

    /// Deletes the entry `(extent, rowid)` at current time `ct`.
    pub fn delete(&mut self, extent: &TimeExtent, rowid: u64, ct: Day) -> Result<GrDeleteOutcome> {
        self.0.delete(&extent.spec(), rowid, ct)
    }

    /// Collects all `(extent, rowid)` pairs satisfying `pred` against
    /// `query` at current time `ct`.
    pub fn search(
        &self,
        pred: Predicate,
        query: &TimeExtent,
        ct: Day,
    ) -> Result<Vec<(TimeExtent, u64)>> {
        let hits = self.0.search(GrQuery::new(pred, query, ct), ct)?;
        Ok(hits.into_iter().map(hit).collect())
    }

    /// Opens a scan cursor at current time `ct`.
    pub fn cursor(&self, pred: Predicate, query: TimeExtent, ct: Day) -> GrCursor {
        self.0.cursor(GrQuery::new(pred, &query, ct), ct)
    }

    /// Advances a cursor to the next qualifying `(extent, rowid)`.
    pub fn cursor_next(&self, cursor: &mut GrCursor) -> Result<Option<(TimeExtent, u64)>> {
        Ok(self.0.cursor_next(cursor)?.map(hit))
    }

    /// Computes quality statistics at current time `ct`.
    pub fn quality(&self, ct: Day) -> Result<GrQuality> {
        GrQuality::compute(&self.0, ct)
    }
}

/// A `Send + Sync` read-only handle on a disk-resident GR-tree (see the
/// kernel [`Reader`], to which it derefs).
pub struct GrTreeReader(Reader<GrKey>);

impl Deref for GrTreeReader {
    type Target = Reader<GrKey>;
    fn deref(&self) -> &Reader<GrKey> {
        &self.0
    }
}

impl GrTreeReader {
    /// Opens a reader directly over a large-object view — how a
    /// snapshot read mounts an index, no LO-level lock involved.
    pub fn open(reader: LoReader, metrics: TreeMetrics) -> Result<GrTreeReader> {
        Reader::open(GrKey::default(), reader, metrics).map(GrTreeReader)
    }

    /// Opens a scan cursor — the same cursor, predicate semantics, and
    /// per-statement current time as [`GrTree::cursor`].
    pub fn cursor(&self, pred: Predicate, query: TimeExtent, ct: Day) -> GrCursor {
        self.0.cursor(GrQuery::new(pred, &query, ct), ct)
    }

    /// Advances a cursor to the next qualifying `(extent, rowid)`.
    pub fn cursor_next(&self, cursor: &mut GrCursor) -> Result<Option<(TimeExtent, u64)>> {
        Ok(self.0.cursor_next(cursor)?.map(hit))
    }

    /// The root node's bounding region resolved at `ct`, or `None` for
    /// an empty tree — the planner's selectivity input.
    pub fn root_bound(&self, ct: Day) -> Result<Option<Region>> {
        Ok(self.0.root_bound(ct)?.map(|b| b.resolve(ct)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_sbspace::{IsolationLevel, LockMode, Sbspace, SbspaceOptions};
    use grt_temporal::{TtEnd, VtEnd};

    pub(crate) fn fresh_lo() -> LoHandle {
        let sb = Sbspace::mem(SbspaceOptions {
            pool_pages: 8192,
            ..Default::default()
        });
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        std::mem::forget(txn);
        std::mem::forget(sb);
        h
    }

    fn tree(max_entries: usize) -> GrTree {
        GrTree::create(
            fresh_lo(),
            GrTreeOptions {
                max_entries,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn extent(ttb: i32, tte: Option<i32>, vtb: i32, vte: Option<i32>) -> TimeExtent {
        TimeExtent::from_parts(
            Day(ttb),
            tte.map_or(TtEnd::Uc, |x| TtEnd::Ground(Day(x))),
            Day(vtb),
            vte.map_or(VtEnd::Now, |x| VtEnd::Ground(Day(x))),
        )
        .unwrap()
    }

    /// A deterministic mixed history of the six region cases.
    pub(crate) fn history(n: i32) -> Vec<(u64, TimeExtent)> {
        (0..n)
            .map(|i| {
                let base = (i * 13) % 500;
                let e = match i % 6 {
                    0 => extent(base, None, base - (i % 9), Some(base + 40)), // case 1
                    1 => extent(base, Some(base + 25), base - 7, Some(base + 30)), // case 2
                    2 => extent(base, None, base, None),                      // case 3
                    3 => extent(base, Some(base + 15), base, None),           // case 4
                    4 => extent(base, None, base - (1 + i % 5), None),        // case 5
                    _ => extent(base, Some(base + 12), base - (1 + i % 5), None), // case 6
                };
                (i as u64, e)
            })
            .collect()
    }

    #[test]
    fn growing_entries_are_found_later_without_reindexing() {
        // The GR-tree's raison d'être: a growing stair inserted once is
        // found by queries far in the future with no refresh.
        let mut t = tree(8);
        let ct = Day(100);
        let stair = extent(100, None, 100, None);
        t.insert(stair, 1, ct).unwrap();
        // Fill with static noise.
        for i in 0..100 {
            t.insert(extent(i, Some(i + 5), i, Some(i + 5)), 100 + i as u64, ct)
                .unwrap();
        }
        // A query window years later, on the diagonal.
        let q = extent(3000, Some(3010), 2990, Some(3005));
        let hits = t.search(Predicate::Overlaps, &q, Day(4000)).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, 1);
        // Before the stair reaches the window: no hit.
        assert!(t
            .search(Predicate::Overlaps, &q, Day(2000))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn delete_and_condense_preserve_answers() {
        let mut t = tree(8);
        let ct = Day(600);
        let data = history(240);
        for (id, e) in &data {
            t.insert(*e, *id, ct).unwrap();
        }
        let mut condensed_any = false;
        for (id, e) in data.iter().filter(|(id, _)| id % 3 == 0) {
            let out = t.delete(e, *id, ct).unwrap();
            assert!(out.found, "entry {id} missing");
            condensed_any |= out.condensed;
        }
        assert!(condensed_any);
        t.check(ct).unwrap();
        let q = extent(0, None, 0, None);
        let got: HashSet<u64> = t
            .search(Predicate::Overlaps, &q, ct)
            .unwrap()
            .into_iter()
            .map(|(_, id)| id)
            .collect();
        for (id, e) in &data {
            let expect = id % 3 != 0 && Predicate::Overlaps.eval(e, &q, ct);
            assert_eq!(got.contains(id), expect, "entry {id}");
        }
    }

    #[test]
    fn logical_delete_is_update_of_extent() {
        // A bitemporal deletion rewrites TTend from UC to ct-1: at the
        // index level, delete(old) + insert(new).
        let mut t = tree(8);
        let ct = Day(200);
        let open = extent(100, None, 100, None);
        t.insert(open, 7, ct).unwrap();
        let later = Day(300);
        let closed = open.logical_delete(later).unwrap();
        assert!(t.delete(&open, 7, later).unwrap().found);
        t.insert(closed, 7, later).unwrap();
        // The region is frozen: a far-future query around the diagonal
        // no longer matches.
        let q = extent(5000, Some(5010), 4990, Some(5005));
        assert!(t
            .search(Predicate::Overlaps, &q, Day(6000))
            .unwrap()
            .is_empty());
        // But the historical part still does.
        let hist = extent(250, Some(260), 200, Some(240));
        let hits = t.search(Predicate::Overlaps, &hist, Day(6000)).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn cursor_restart_after_condense() {
        let mut t = tree(8);
        let ct = Day(600);
        let data = history(150);
        for (id, e) in &data {
            t.insert(*e, *id, ct).unwrap();
        }
        let q = extent(0, None, 0, None);
        let mut cursor = t.cursor(Predicate::Overlaps, q, ct);
        // Pull a few results, then delete until the tree condenses.
        for _ in 0..3 {
            t.cursor_next(&mut cursor).unwrap();
        }
        let mut condensed = false;
        for (id, e) in &data {
            if t.delete(e, *id, ct).unwrap().condensed {
                condensed = true;
                break;
            }
        }
        assert!(condensed);
        // The paper's rule: restart the scan only when the tree was
        // actually condensed.
        t.cursor_restart(&mut cursor);
        while t.cursor_next(&mut cursor).unwrap().is_some() {}
        t.check(ct).unwrap();
    }

    #[test]
    fn rejects_invalid_extent() {
        let mut t = tree(8);
        // VTbegin in the future with NOW violates the constraint at
        // insertion time.
        let bad = TimeExtent::from_parts(Day(10), TtEnd::Uc, Day(5), VtEnd::Now).unwrap();
        assert!(t.insert(bad, 1, Day(100)).is_ok());
        let also_bad =
            TimeExtent::from_parts(Day(10), TtEnd::Uc, Day(0), VtEnd::Ground(Day(90))).unwrap();
        assert!(t.insert(also_bad, 2, Day(100)).is_ok());
    }

    #[test]
    fn quality_and_flags_materialise() {
        let mut t = tree(8);
        let ct = Day(600);
        for (id, e) in history(200) {
            t.insert(e, id, ct).unwrap();
        }
        let q = t.quality(ct).unwrap();
        assert_eq!(q.levels.len() as u32, t.height());
        assert_eq!(q.levels[0].entries, 200);
        // With a mixed workload some internal entries should use the
        // GR-tree's special encodings.
        assert!(
            q.stair_bounds + q.hidden_bounds + q.growing_rect_bounds > 0,
            "no GR-specific bounds materialised: {q:?}"
        );
    }

    use std::collections::HashSet;
}
