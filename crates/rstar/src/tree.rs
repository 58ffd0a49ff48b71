//! The disk-resident R\*-tree: the paged-tree kernel under a [`Rect2`]
//! key.
//!
//! The kernel runs the drivers; this module supplies the geometry of
//! Beckmann et al. (SIGMOD 1990): subtree choice by overlap enlargement
//! above the leaf level, margin-driven split-axis selection, and
//! centre-distance ordering for forced reinsertion.
//!
//! The tree lives in one sbspace large object, one node per page, with
//! the header on logical page 0 — the same storage layout the GR-tree
//! DataBlade uses, so I/O comparisons between the two are apples to
//! apples.

use crate::geom::{Rect2, SpatialPredicate};
use crate::node::{self, MAX_FANOUT};
use crate::Result;
use grt_metrics::TreeMetrics;
use grt_sbspace::page::{PageBuf, PAGE_SIZE};
use grt_sbspace::{LoHandle, LoReader};
use grt_treekit::{
    Cursor, DeleteOutcome, Entry, Meta, NodeSource, Reader, Tree, TreeKey, TreeQuality,
};
use std::ops::{Deref, DerefMut};

/// Construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct RStarOptions {
    /// Maximum entries per node (M); capped by the page size.
    pub max_entries: usize,
    /// Minimum fill of non-root nodes, as a percentage of M (the
    /// R\*-tree paper recommends 40%).
    pub min_fill_pct: u32,
    /// Share of entries evicted by forced reinsertion (30% in the
    /// R\*-tree paper; 0 disables reinsertion).
    pub reinsert_pct: u32,
}

impl Default for RStarOptions {
    fn default() -> Self {
        RStarOptions {
            max_entries: MAX_FANOUT,
            min_fill_pct: 40,
            reinsert_pct: 30,
        }
    }
}

impl RStarOptions {
    /// The header of a fresh tree built with these options.
    pub fn header(self) -> Meta<RectKey> {
        Meta::rstar_sized(
            RectKey,
            self.max_entries,
            MAX_FANOUT,
            self.min_fill_pct,
            self.reinsert_pct,
        )
    }
}

/// The R\*-tree key policy: plain rectangles at every level, no
/// per-operation context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RectKey;

fn mbr(entries: &[Entry<Rect2>]) -> Rect2 {
    entries
        .iter()
        .fold(Rect2::empty(), |acc, e| acc.union(&e.key))
}

impl TreeKey for RectKey {
    type Key = Rect2;
    type Query = (SpatialPredicate, Rect2);
    type Ctx = ();
    type Dedup = [i32; 4];

    const NAME: &'static str = "r*-tree";
    const META_MAGIC: &'static [u8; 4] = b"RSTH";
    const FREE_MAGIC: &'static [u8; 4] = b"RSTF";

    fn encode_node(&self, node: &grt_treekit::Node<Rect2>) -> Result<PageBuf> {
        Ok(node::encode(node))
    }

    fn decode_node(&self, buf: &[u8; PAGE_SIZE]) -> Result<grt_treekit::Node<Rect2>> {
        node::decode(buf)
    }

    fn bound(&self, entries: &[Entry<Rect2>], _: ()) -> Rect2 {
        mbr(entries)
    }

    fn covers(&self, bound: &Rect2, key: &Rect2, _: ()) -> bool {
        bound.contains(key)
    }

    /// Entry rectangles are exact child MBRs, not merely covers.
    fn bounds_child(&self, entry: &Rect2, child: &Rect2, _: ()) -> bool {
        entry == child
    }

    fn consistent(&self, bound: &Rect2, (pred, query): &Self::Query, _: ()) -> bool {
        bound.consistent(*pred, query)
    }

    fn matches(&self, key: &Rect2, (pred, query): &Self::Query, _: ()) -> bool {
        key.eval(*pred, query)
    }

    /// R\*-tree ChooseSubtree: overlap enlargement when the children are
    /// leaves, area enlargement otherwise.
    fn choose_subtree(&self, level: u16, entries: &[Entry<Rect2>], rect: &Rect2, _: ()) -> usize {
        let area_key = |e: &Entry<Rect2>| {
            let enlarged = e.key.union(rect);
            (enlarged.area() - e.key.area(), e.key.area())
        };
        if level == 1 {
            // Children are leaves: minimise overlap enlargement, ties by
            // area enlargement, then area.
            let mut best = 0usize;
            let mut best_key = (i128::MAX, i128::MAX, i128::MAX);
            for (i, e) in entries.iter().enumerate() {
                let enlarged = e.key.union(rect);
                let mut overlap_delta: i128 = 0;
                for (j, other) in entries.iter().enumerate() {
                    if i != j {
                        overlap_delta +=
                            enlarged.overlap_area(&other.key) - e.key.overlap_area(&other.key);
                    }
                }
                let (area_delta, area) = area_key(e);
                let key = (overlap_delta, area_delta, area);
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            best
        } else {
            (0..entries.len())
                .min_by_key(|&i| area_key(&entries[i]))
                .unwrap_or(0)
        }
    }

    /// R\*-tree split: margin-driven axis selection, overlap-driven
    /// distribution selection.
    fn split(
        &self,
        entries: Vec<Entry<Rect2>>,
        m: usize,
        _: (),
    ) -> Result<(Vec<Entry<Rect2>>, Vec<Entry<Rect2>>)> {
        let total = entries.len();
        #[allow(clippy::type_complexity)]
        let sort_keys: [fn(&Entry<Rect2>) -> (i32, i32); 4] = [
            |e| (e.key.x1, e.key.x2),
            |e| (e.key.x2, e.key.x1),
            |e| (e.key.y1, e.key.y2),
            |e| (e.key.y2, e.key.y1),
        ];
        // Margin sum per axis (keys 0,1 = x; keys 2,3 = y).
        let mut axis_margin = [0i64; 2];
        let mut sorted: Vec<Vec<Entry<Rect2>>> = Vec::with_capacity(4);
        for (k, key) in sort_keys.iter().enumerate() {
            let mut entries = entries.clone();
            entries.sort_by_key(key);
            for split_at in m..=(total - m) {
                axis_margin[k / 2] +=
                    mbr(&entries[..split_at]).margin() + mbr(&entries[split_at..]).margin();
            }
            sorted.push(entries);
        }
        let axis = if axis_margin[0] <= axis_margin[1] {
            0
        } else {
            1
        };
        // Among the chosen axis's two sort orders, pick the distribution
        // with minimum overlap (ties: minimum total area).
        let mut best: Option<(i128, i128, usize, usize)> = None; // (overlap, area, key, split_at)
        for key in [axis * 2, axis * 2 + 1] {
            let entries = &sorted[key];
            for split_at in m..=(total - m) {
                let (g1, g2) = (mbr(&entries[..split_at]), mbr(&entries[split_at..]));
                let cand = (g1.overlap_area(&g2), g1.area() + g2.area(), key, split_at);
                if best.is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                    best = Some(cand);
                }
            }
        }
        let (_, _, key, split_at) = best.expect("at least one distribution");
        let mut a = sorted.swap_remove(key);
        let b = a.split_off(split_at);
        Ok((a, b))
    }

    /// Farthest from the node's centre first.
    fn sort_for_reinsert(&self, entries: &mut [Entry<Rect2>], _: ()) {
        let mbr = mbr(entries);
        entries.sort_by_key(|e| std::cmp::Reverse(e.key.center_dist2(&mbr)));
    }

    fn dedup_key(&self, r: &Rect2) -> [i32; 4] {
        [r.x1, r.x2, r.y1, r.y2]
    }

    fn center(&self, r: &Rect2, _: ()) -> (i64, i64) {
        (r.x1 as i64 + r.x2 as i64, r.y1 as i64 + r.y2 as i64)
    }

    fn area(&self, r: &Rect2, _: ()) -> i128 {
        r.area()
    }

    fn overlap(&self, a: &Rect2, b: &Rect2, _: ()) -> i128 {
        a.overlap_area(b)
    }
}

/// A depth-first scan over qualifying entries.
pub type RStarCursor = Cursor<RectKey>;

/// A disk-resident R\*-tree owning its large-object handle. Derefs to
/// the kernel [`Tree`] for everything that is not rectangle-specific
/// (`len`, `height`, `pages`, `metrics`, `cursor_restart`, …).
pub struct RStarTree(Tree<RectKey>);

impl Deref for RStarTree {
    type Target = Tree<RectKey>;
    fn deref(&self) -> &Tree<RectKey> {
        &self.0
    }
}

impl DerefMut for RStarTree {
    fn deref_mut(&mut self) -> &mut Tree<RectKey> {
        &mut self.0
    }
}

impl RStarTree {
    /// Initialises a fresh tree inside an (empty) large object.
    pub fn create(lo: LoHandle, opts: RStarOptions) -> Result<RStarTree> {
        Tree::create(lo, opts.header()).map(RStarTree)
    }

    /// Opens an existing tree.
    pub fn open(lo: LoHandle) -> Result<RStarTree> {
        Tree::open(RectKey, lo).map(RStarTree)
    }

    /// Releases the large-object handle, flushing the header when the
    /// handle is writable (read-only opens never changed it).
    pub fn into_lo(self) -> Result<LoHandle> {
        self.0.into_lo()
    }

    /// Reads the node at `page` (for dumps and stats).
    pub fn read_node(&self, page: u32) -> Result<node::Node> {
        Ok(self.0.read_node(page)?.into())
    }

    /// The root node's minimum bounding rectangle, or `None` for an
    /// empty tree.
    pub fn root_mbr(&self) -> Result<Option<Rect2>> {
        self.0.root_bound(())
    }

    /// Inserts `rect` with payload `rowid`.
    pub fn insert(&mut self, rect: Rect2, rowid: u64) -> Result<()> {
        self.0.insert(rect, rowid, ())
    }

    /// Deletes the entry `(rect, rowid)`. Underfull nodes are dissolved
    /// and their entries reinserted (CondenseTree).
    pub fn delete(&mut self, rect: Rect2, rowid: u64) -> Result<DeleteOutcome> {
        self.0.delete(&rect, rowid, ())
    }

    /// Collects all rowids whose stored rectangle satisfies `pred`
    /// against `query`.
    pub fn search(&self, pred: SpatialPredicate, query: &Rect2) -> Result<Vec<u64>> {
        let hits = self.0.search((pred, *query), ())?;
        Ok(hits.into_iter().map(|(_, rowid)| rowid).collect())
    }

    /// Opens a scan cursor.
    pub fn cursor(&self, pred: SpatialPredicate, query: Rect2) -> RStarCursor {
        self.0.cursor((pred, query), ())
    }

    /// Advances a cursor to the next qualifying `(rect, rowid)`.
    pub fn cursor_next(&self, cursor: &mut RStarCursor) -> Result<Option<(Rect2, u64)>> {
        self.0.cursor_next(cursor)
    }

    /// Computes quality statistics (nodes, fill, area, overlap) per
    /// level.
    pub fn quality(&self) -> Result<TreeQuality> {
        self.0.quality((), |_| ())
    }

    /// Verifies structural invariants: entry rectangles equal child
    /// MBRs, levels decrease by one, non-root nodes respect minimum
    /// fill, and the leaf count matches the header.
    pub fn check(&self) -> Result<()> {
        self.0.check(())
    }
}

/// A `Send + Sync` read-only handle on a disk-resident R\*-tree (see
/// the kernel [`Reader`], to which it derefs).
pub struct RStarTreeReader(Reader<RectKey>);

impl Deref for RStarTreeReader {
    type Target = Reader<RectKey>;
    fn deref(&self) -> &Reader<RectKey> {
        &self.0
    }
}

impl RStarTreeReader {
    /// Opens a reader directly over a large-object view — how a
    /// snapshot read mounts an index, no LO-level lock involved.
    pub fn open(reader: LoReader, metrics: TreeMetrics) -> Result<RStarTreeReader> {
        Reader::open(RectKey, reader, metrics).map(RStarTreeReader)
    }

    /// Opens a scan cursor — same contract as [`RStarTree::cursor`].
    pub fn cursor(&self, pred: SpatialPredicate, query: Rect2) -> RStarCursor {
        self.0.cursor((pred, query), ())
    }

    /// Advances a cursor to the next qualifying `(rect, rowid)`.
    pub fn cursor_next(&self, cursor: &mut RStarCursor) -> Result<Option<(Rect2, u64)>> {
        self.0.cursor_next(cursor)
    }

    /// The root node's minimum bounding rectangle, or `None` for an
    /// empty tree — the planner's selectivity input.
    pub fn root_mbr(&self) -> Result<Option<Rect2>> {
        self.0.root_bound(())
    }
}

/// Bulk-loads an R\*-tree from `(rect, rowid)` entries into an empty
/// large object using sort-tile-recursive packing over rectangle
/// centres.
pub fn bulk_load(lo: LoHandle, entries: Vec<node::Entry>, opts: RStarOptions) -> Result<RStarTree> {
    let entries = entries.into_iter().map(Entry::from).collect();
    Tree::bulk_load(lo, opts.header(), entries, ()).map(RStarTree)
}

/// Convenience: bulk-load from bare `(rect, rowid)` pairs.
pub fn bulk_load_pairs(
    lo: LoHandle,
    pairs: &[(Rect2, u64)],
    opts: RStarOptions,
) -> Result<RStarTree> {
    let entries = pairs.iter().map(|&(key, ptr)| Entry { key, ptr }).collect();
    Tree::bulk_load(lo, opts.header(), entries, ()).map(RStarTree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_sbspace::{IsolationLevel, LockMode, Sbspace, SbspaceOptions};

    fn fresh_lo() -> LoHandle {
        let sb = Sbspace::mem(SbspaceOptions {
            pool_pages: 4096,
            ..Default::default()
        });
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        // Keep space and txn alive for the whole test.
        std::mem::forget(txn);
        std::mem::forget(sb);
        h
    }

    fn tree(max_entries: usize) -> RStarTree {
        RStarTree::create(
            fresh_lo(),
            RStarOptions {
                max_entries,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn rect_for(i: i32) -> Rect2 {
        // A deterministic scatter of smallish rectangles.
        let x = (i * 37) % 1000;
        let y = (i * 59) % 1000;
        Rect2::new(x, x + 5 + i % 7, y, y + 3 + i % 11)
    }

    #[test]
    fn insert_and_exact_search() {
        let mut t = tree(8);
        for i in 0..300 {
            t.insert(rect_for(i), i as u64).unwrap();
        }
        assert_eq!(t.len(), 300);
        assert!(t.height() > 1);
        t.check().unwrap();
        // Every inserted rectangle is found by an overlap query on
        // itself.
        for i in 0..300 {
            let hits = t.search(SpatialPredicate::Overlap, &rect_for(i)).unwrap();
            assert!(hits.contains(&(i as u64)), "lost entry {i}");
        }
    }

    #[test]
    fn delete_removes_and_condenses() {
        let mut t = tree(8);
        let n = 250;
        for i in 0..n {
            t.insert(rect_for(i), i as u64).unwrap();
        }
        let mut condensed_any = false;
        for i in (0..n).step_by(2) {
            let out = t.delete(rect_for(i), i as u64).unwrap();
            assert!(out.found, "entry {i} missing");
            condensed_any |= out.condensed;
            // Deleting again reports not-found.
            assert!(!t.delete(rect_for(i), i as u64).unwrap().found);
        }
        assert!(condensed_any, "expected at least one condensation");
        assert_eq!(t.len(), (n / 2) as u64);
        t.check().unwrap();
        for i in 0..n {
            let hits = t.search(SpatialPredicate::Overlap, &rect_for(i)).unwrap();
            assert_eq!(hits.contains(&(i as u64)), i % 2 == 1, "entry {i}");
        }
    }

    #[test]
    fn duplicate_rects_with_distinct_rowids() {
        let mut t = tree(8);
        let r = Rect2::new(5, 10, 5, 10);
        for id in 0..20u64 {
            t.insert(r, id).unwrap();
        }
        let mut hits = t.search(SpatialPredicate::Equal, &r).unwrap();
        hits.sort_unstable();
        assert_eq!(hits, (0..20).collect::<Vec<_>>());
        assert!(t.delete(r, 13).unwrap().found);
        let hits = t.search(SpatialPredicate::Equal, &r).unwrap();
        assert_eq!(hits.len(), 19);
        assert!(!hits.contains(&13));
    }

    #[test]
    fn reinsert_disabled_still_correct() {
        let sb = Sbspace::mem(SbspaceOptions {
            pool_pages: 4096,
            ..Default::default()
        });
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        let mut t = RStarTree::create(
            h,
            RStarOptions {
                max_entries: 8,
                reinsert_pct: 0,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..200 {
            t.insert(rect_for(i), i as u64).unwrap();
        }
        t.check().unwrap();
        for i in 0..200 {
            assert!(t
                .search(SpatialPredicate::Overlap, &rect_for(i))
                .unwrap()
                .contains(&(i as u64)));
        }
        drop(t);
        txn.commit().unwrap();
    }

    #[test]
    fn quality_reports_levels() {
        let mut t = tree(8);
        for i in 0..300 {
            t.insert(rect_for(i), i as u64).unwrap();
        }
        let q = t.quality().unwrap();
        assert_eq!(q.levels.len() as u32, t.height());
        assert!(q.levels[0].nodes > 1, "multiple leaves expected");
        assert!(q.levels[0].entries >= 300);
    }

    #[test]
    fn empty_and_tiny_loads() {
        let t = bulk_load_pairs(fresh_lo(), &[], RStarOptions::default()).unwrap();
        assert_eq!(t.len(), 0);
        let t = bulk_load_pairs(
            fresh_lo(),
            &[(Rect2::new(1, 2, 1, 2), 7)],
            RStarOptions::default(),
        )
        .unwrap();
        assert_eq!(t.len(), 1);
        t.check().unwrap();
        assert_eq!(
            t.search(SpatialPredicate::Overlap, &Rect2::new(0, 3, 0, 3))
                .unwrap(),
            vec![7]
        );
    }
}
