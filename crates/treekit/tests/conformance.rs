//! One conformance suite, three inputs: everything the kernel promises,
//! checked for the GR-tree, the R\*-tree and the GiST interval key
//! against a `Vec` and a linear scan.

use grt_gist::{GistKey, GistTreeOptions, IntRange, IntRangeExt};
use grt_grtree::entry::extent_of;
use grt_grtree::{GrKey, GrQuery, GrTreeOptions};
use grt_metrics::TreeMetrics;
use grt_rstar::{RStarOptions, Rect2, RectKey, SpatialPredicate};
use grt_sbspace::{IsolationLevel, LoHandle, LockMode, Sbspace, SbspaceOptions};
use grt_temporal::{Day, Predicate, RegionSpec, TimeExtent, TtEnd, VtEnd};
use grt_treekit::{Entry, Meta, NodeSource, Reader, Tree, TreeKey};
use std::collections::BTreeSet;

fn space() -> Sbspace {
    Sbspace::mem(SbspaceOptions {
        pool_pages: 8192,
        ..Default::default()
    })
}

fn fresh_lo() -> LoHandle {
    let sb = space();
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let lo = sb.create_lo(&txn).unwrap();
    let h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
    std::mem::forget(txn);
    std::mem::forget(sb);
    h
}

/// A query plus the linear-scan oracle for it, written against the
/// key's own domain predicates rather than the tree's leaf test.
type Probe<K> = (
    <K as TreeKey>::Query,
    Box<dyn Fn(&<K as TreeKey>::Key) -> bool>,
);

/// What one key type feeds the suite.
struct Input<K: TreeKey> {
    /// A small-fan-out header (fresh per tree built).
    header: fn() -> Meta<K>,
    ctx: K::Ctx,
    /// The rows; a row's id is its index.
    rows: Vec<K::Key>,
    /// Queries of mixed selectivity; the first matches every row.
    probes: Vec<Probe<K>>,
}

type Rows = BTreeSet<u64>;

fn ids<T>(hits: impl IntoIterator<Item = (T, u64)>) -> Rows {
    hits.into_iter().map(|(_, id)| id).collect()
}

/// Every probe answers like a linear scan over `live`.
fn assert_matches_scan<K: TreeKey>(tree: &Tree<K>, input: &Input<K>, live: &Rows, phase: &str)
where
    K::Query: Clone,
{
    tree.check(input.ctx)
        .unwrap_or_else(|e| panic!("{phase}: {e}"));
    assert_eq!(tree.len(), live.len() as u64, "{phase}: len");
    for (n, (query, oracle)) in input.probes.iter().enumerate() {
        let want: Rows = live
            .iter()
            .copied()
            .filter(|&id| oracle(&input.rows[id as usize]))
            .collect();
        let got = ids(tree.search(query.clone(), input.ctx).unwrap());
        assert_eq!(got, want, "{phase}: probe {n}");
    }
}

fn conformance<K: TreeKey>(input: Input<K>)
where
    K::Query: Clone,
{
    let ctx = input.ctx;
    let everything = || input.probes[0].0.clone();
    let mut next = {
        let mut state = 0x5eed_u64;
        move |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % bound as u64) as usize
        }
    };

    // Phase 1: incremental build.
    let sb = space();
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let lo = sb.create_lo(&txn).unwrap();
    let handle = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
    let mut tree = Tree::create(handle, (input.header)()).unwrap();
    let mut live = Rows::new();
    for (id, key) in input.rows.iter().enumerate() {
        tree.insert(key.clone(), id as u64, ctx).unwrap();
        live.insert(id as u64);
    }
    assert!(
        tree.height() > 2,
        "fan-out too large to exercise the drivers"
    );
    assert_matches_scan(&tree, &input, &live, "after inserts");

    // Phase 2: the serial cursor and the cursor of a frozen reader —
    // mounted the way a snapshot statement mounts one, on a space
    // snapshot of the committed tree — return the same rows.
    tree.into_lo().unwrap().close().unwrap();
    txn.commit().unwrap();
    let key = || (input.header)().key;
    let snap = sb.snapshot_for(&[lo]).unwrap();
    let reader = Reader::open(key(), snap.reader(lo).unwrap(), TreeMetrics::default()).unwrap();
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let handle = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
    let mut tree = Tree::open(key(), handle).unwrap();
    for (n, (query, _)) in input.probes.iter().enumerate() {
        let mut cursor = tree.cursor(query.clone(), ctx);
        let mut serial = Vec::new();
        while let Some((_, id)) = tree.cursor_next(&mut cursor).unwrap() {
            serial.push(id);
        }
        let serial_set: Rows = serial.iter().copied().collect();
        assert_eq!(serial.len(), serial_set.len(), "probe {n}: cursor replayed");
        assert_eq!(
            ids(reader.search(query.clone(), ctx).unwrap()),
            serial_set,
            "probe {n}: frozen reader"
        );
    }
    drop((reader, snap));

    // Phase 2b: the cursor's memory is a log until its first restart.
    // Wherever that restart falls — before the first hit, after one, in
    // the middle, one short of the end — the re-walk from the root
    // returns what was still owed and nothing already returned, each
    // `(rowid, key)` exactly once; a second restart changes nothing.
    let total = input.rows.len();
    for k in [0, 1, total / 2, total - 1] {
        let mut cursor = tree.cursor(everything(), ctx);
        let mut got = Vec::new();
        for _ in 0..k {
            got.push(tree.cursor_next(&mut cursor).unwrap().expect("rows left"));
        }
        tree.cursor_restart(&mut cursor);
        if k == total / 2 {
            got.push(tree.cursor_next(&mut cursor).unwrap().expect("rows left"));
            tree.cursor_restart(&mut cursor);
        }
        while let Some(hit) = tree.cursor_next(&mut cursor).unwrap() {
            got.push(hit);
        }
        assert_eq!(got.len(), total, "restart after {k}: replayed or lost");
        for (key, id) in &got {
            assert_eq!(key, &input.rows[*id as usize], "restart after {k}: key");
        }
        assert_eq!(ids(got), live, "restart after {k}: rows");
    }

    // Phase 3: delete a random third.
    let mut condensed = false;
    for _ in 0..input.rows.len() / 3 {
        let id = *live.iter().nth(next(live.len())).unwrap();
        let out = tree.delete(&input.rows[id as usize], id, ctx).unwrap();
        assert!(out.found, "row {id} missing");
        condensed |= out.condensed;
        live.remove(&id);
        assert!(
            !tree
                .delete(&input.rows[id as usize], id, ctx)
                .unwrap()
                .found,
            "row {id} deleted twice"
        );
    }
    assert!(condensed, "a third of the rows went without one condense");
    assert_matches_scan(&tree, &input, &live, "after deletes");

    // Phase 4: a restart after a forced condense never replays an
    // emitted row and never loses a surviving one.
    let mut cursor = tree.cursor(everything(), ctx);
    let mut got = Vec::new();
    for _ in 0..3 {
        got.push(tree.cursor_next(&mut cursor).unwrap().expect("rows left").1);
    }
    let victims: Vec<u64> = live
        .iter()
        .copied()
        .filter(|id| !got.contains(id))
        .collect();
    let mut condensed = false;
    for id in victims {
        live.remove(&id);
        if tree
            .delete(&input.rows[id as usize], id, ctx)
            .unwrap()
            .condensed
        {
            condensed = true;
            break;
        }
    }
    assert!(condensed, "no condense to restart after");
    tree.cursor_restart(&mut cursor);
    while let Some((_, id)) = tree.cursor_next(&mut cursor).unwrap() {
        got.push(id);
    }
    let unique: Rows = got.iter().copied().collect();
    assert_eq!(unique.len(), got.len(), "restart replayed emitted rows");
    assert_eq!(unique, live, "rows lost across the restart");
    tree.cursor_restart(&mut cursor);
    assert!(
        tree.cursor_next(&mut cursor).unwrap().is_none(),
        "a drained cursor stays drained across restarts"
    );
    assert_matches_scan(&tree, &input, &live, "after restart");

    // Phase 5: a packed build of the survivors answers like the
    // incrementally built tree, in no more pages.
    let entries = live
        .iter()
        .map(|&id| Entry {
            key: input.rows[id as usize].clone(),
            ptr: id,
        })
        .collect();
    let packed = Tree::bulk_load(fresh_lo(), (input.header)(), entries, ctx).unwrap();
    assert_matches_scan(&packed, &input, &live, "bulk load");
    assert!(packed.pages() <= tree.pages(), "packing wasted space");
    let empty = Tree::bulk_load(fresh_lo(), (input.header)(), Vec::new(), ctx).unwrap();
    assert_matches_scan(&empty, &input, &Rows::new(), "empty bulk load");

    // Phase 6: deleting everything shrinks to an empty leaf root.
    for id in std::mem::take(&mut live) {
        assert!(
            tree.delete(&input.rows[id as usize], id, ctx)
                .unwrap()
                .found
        );
    }
    assert_eq!(tree.height(), 1);
    let root = tree.read_node(tree.root_page()).unwrap();
    assert!(root.is_leaf() && root.entries.is_empty());
    assert_matches_scan(&tree, &input, &live, "after deleting everything");
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

#[test]
fn gr_tree_conforms() {
    let ct = Day(600);
    // A deterministic mix of the six region cases.
    let rows: Vec<RegionSpec> = (0..300)
        .map(|i| {
            let base = (i * 13) % 500;
            match i % 6 {
                0 => extent(base, None, base - (i % 9), Some(base + 40)),
                1 => extent(base, Some(base + 25), base - 7, Some(base + 30)),
                2 => extent(base, None, base, None),
                3 => extent(base, Some(base + 15), base, None),
                4 => extent(base, None, base - (1 + i % 5), None),
                _ => extent(base, Some(base + 12), base - (1 + i % 5), None),
            }
            .spec()
        })
        .collect();
    let queries = [
        extent(0, None, 0, None),
        extent(100, Some(150), 50, Some(160)),
        extent(450, Some(460), 455, Some(600)),
        extent(250, Some(250), 250, Some(250)),
    ];
    let mut probes: Vec<Probe<GrKey>> = Vec::new();
    for (n, q) in queries.into_iter().enumerate() {
        let preds = if n == 0 {
            &[Predicate::Overlaps][..]
        } else {
            &Predicate::ALL[..]
        };
        for &pred in preds {
            probes.push((
                GrQuery::new(pred, &q, ct),
                Box::new(move |leaf| pred.eval(&extent_of(leaf), &q, ct)),
            ));
        }
    }
    conformance(Input {
        header: || {
            GrTreeOptions {
                max_entries: 8,
                ..Default::default()
            }
            .header()
        },
        ctx: ct,
        rows,
        probes,
    });
}

#[test]
fn rstar_tree_conforms() {
    // A deterministic scatter of smallish rectangles.
    let rows: Vec<Rect2> = (0..400)
        .map(|i| {
            let (x, y) = ((i * 37) % 1000, (i * 59) % 1000);
            Rect2::new(x, x + 5 + i % 7, y, y + 3 + i % 11)
        })
        .collect();
    let queries = [
        Rect2::new(-10_000, 10_000, -10_000, 10_000),
        Rect2::new(0, 100, 0, 100),
        Rect2::new(500, 600, 200, 900),
        Rect2::new(-10, -1, -10, -1),
    ];
    let mut probes: Vec<Probe<RectKey>> = Vec::new();
    for (n, q) in queries.into_iter().enumerate() {
        let preds = [
            SpatialPredicate::Overlap,
            SpatialPredicate::Within,
            SpatialPredicate::Contains,
            SpatialPredicate::Equal,
        ];
        for &pred in &preds[..if n == 0 { 1 } else { 4 }] {
            probes.push(((pred, q), Box::new(move |r| r.eval(pred, &q))));
        }
    }
    conformance(Input {
        header: || {
            RStarOptions {
                max_entries: 8,
                ..Default::default()
            }
            .header()
        },
        ctx: (),
        rows,
        probes,
    });
}

/// The interval extension at a fan-out small enough for a tall tree.
#[derive(Debug, Clone, Copy, Default)]
struct NarrowRanges;

impl grt_gist::GistExtension for NarrowRanges {
    type Key = IntRange;
    type Query = IntRange;
    fn encode_key(&self, key: &IntRange, out: &mut Vec<u8>) {
        IntRangeExt.encode_key(key, out)
    }
    fn decode_key(&self, bytes: &[u8]) -> grt_gist::Result<IntRange> {
        IntRangeExt.decode_key(bytes)
    }
    fn consistent(&self, key: &IntRange, query: &IntRange, is_leaf: bool) -> bool {
        IntRangeExt.consistent(key, query, is_leaf)
    }
    fn union(&self, keys: &[IntRange]) -> IntRange {
        IntRangeExt.union(keys)
    }
    fn penalty(&self, existing: &IntRange, new: &IntRange) -> i128 {
        IntRangeExt.penalty(existing, new)
    }
    fn pick_split(&self, keys: &[IntRange]) -> (Vec<usize>, Vec<usize>) {
        IntRangeExt.pick_split(keys)
    }
    fn center(&self, key: &IntRange) -> (i64, i64) {
        IntRangeExt.center(key)
    }
    /// Declaring keys half a page long caps a node at seven entries.
    fn max_key_len(&self) -> usize {
        500
    }
}

#[test]
fn gist_interval_tree_conforms() {
    let rows: Vec<IntRange> = (0..400i64)
        .map(|i| IntRange::new((i * 37) % 1000, (i * 37) % 1000 + i % 23))
        .collect();
    let queries = [
        IntRange::new(i64::MIN / 2, i64::MAX / 2),
        IntRange::new(0, 50),
        IntRange::new(500, 510),
        IntRange::point(777),
        IntRange::new(-100, -1),
    ];
    let probes: Vec<Probe<GistKey<NarrowRanges>>> = queries
        .into_iter()
        .map(|q| (q, Box::new(move |r: &IntRange| r.overlaps(&q)) as Box<_>))
        .collect();
    conformance(Input {
        header: || GistKey(NarrowRanges).header(GistTreeOptions { min_fill: 2 }),
        ctx: (),
        rows,
        probes,
    });
}
