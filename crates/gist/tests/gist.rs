//! GiST tests: both instantiations against linear-scan oracles,
//! structural invariants under churn, and the full DataBlade wiring.

use grt_blade::gist_am::install_gist_blade;
use grt_gist::{GistExtension, GistTree, GistTreeOptions, IntRange, IntRangeExt, RectExt, RectKey};
use grt_ids::{Database, DatabaseOptions, Value};
use grt_sbspace::{IsolationLevel, LoHandle, LockMode, Sbspace, SbspaceOptions};
use grt_treekit::NodeSource;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn fresh_lo() -> LoHandle {
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

#[test]
fn interval_tree_matches_linear_scan() {
    let mut tree = GistTree::create(IntRangeExt, fresh_lo(), GistTreeOptions::default()).unwrap();
    let data: Vec<IntRange> = (0..500)
        .map(|i| IntRange::new((i * 37) % 1000, (i * 37) % 1000 + i % 23))
        .collect();
    for (i, r) in data.iter().enumerate() {
        tree.insert(r, i as u64).unwrap();
    }
    assert_eq!(tree.len(), 500);
    assert!(tree.height() > 1);
    tree.check().unwrap();
    for q in [
        IntRange::new(0, 50),
        IntRange::new(500, 510),
        IntRange::point(777),
        IntRange::new(-100, -1),
    ] {
        let mut got: Vec<u64> = tree
            .search(&q)
            .unwrap()
            .into_iter()
            .map(|(_, id)| id)
            .collect();
        let mut expected: Vec<u64> = data
            .iter()
            .enumerate()
            .filter(|(_, r)| r.overlaps(&q))
            .map(|(i, _)| i as u64)
            .collect();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected, "query {q:?}");
    }
}

/// The interval extension, counting the internal-level `consistent`
/// calls a search makes.
struct CountingRanges(Arc<AtomicUsize>);

impl GistExtension for CountingRanges {
    type Key = IntRange;
    type Query = IntRange;
    fn encode_key(&self, key: &IntRange, out: &mut Vec<u8>) {
        IntRangeExt.encode_key(key, out)
    }
    fn decode_key(&self, bytes: &[u8]) -> grt_gist::Result<IntRange> {
        IntRangeExt.decode_key(bytes)
    }
    fn consistent(&self, key: &IntRange, query: &IntRange, is_leaf: bool) -> bool {
        if !is_leaf {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
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
}

#[test]
fn a_search_tests_each_internal_entry_once() {
    let calls = Arc::new(AtomicUsize::new(0));
    let ext = CountingRanges(Arc::clone(&calls));
    let mut tree = GistTree::create(ext, fresh_lo(), GistTreeOptions::default()).unwrap();
    for i in 0..2_000 {
        tree.insert(&IntRange::new(i, i + 4), i as u64).unwrap();
    }
    assert!(tree.height() >= 2, "the root must be internal");
    // Every internal entry of the tree, by walking it.
    let mut internal_entries = 0;
    let mut pages = vec![tree.root_page()];
    while let Some(page) = pages.pop() {
        let node = tree.read_node(page).unwrap();
        if !node.is_leaf() {
            internal_entries += node.entries.len();
            pages.extend(node.entries.iter().map(|e| e.child()));
        }
    }
    // A full-range search descends into every one of them, and asks
    // the extension about each exactly once on the way.
    calls.store(0, Ordering::Relaxed);
    let hits = tree
        .search(&IntRange::new(i64::MIN / 2, i64::MAX / 2))
        .unwrap();
    assert_eq!(hits.len(), 2_000);
    assert_eq!(calls.load(Ordering::Relaxed), internal_entries);
}

#[test]
fn interval_tree_delete_and_condense() {
    let mut tree =
        GistTree::create(IntRangeExt, fresh_lo(), GistTreeOptions { min_fill: 3 }).unwrap();
    let data: Vec<IntRange> = (0..300).map(|i| IntRange::new(i, i + 4)).collect();
    for (i, r) in data.iter().enumerate() {
        tree.insert(r, i as u64).unwrap();
    }
    // Delete a contiguous prefix: the leaves covering it drain below
    // min_fill and dissolve.
    let mut condensed = false;
    for (i, r) in data.iter().enumerate().take(250) {
        let out = tree.delete(r, i as u64).unwrap();
        assert!(out.found, "{i}");
        condensed |= out.condensed;
        assert!(!tree.delete(r, i as u64).unwrap().found);
    }
    assert!(condensed, "contiguous deletion must condense the tree");
    assert_eq!(tree.len(), 50);
    tree.check().unwrap();
    let got = tree.search(&IntRange::new(0, 400)).unwrap();
    assert_eq!(got.len(), 50);
    assert!(got.iter().all(|(_, id)| *id >= 250));
}

#[test]
fn rect_tree_matches_linear_scan() {
    let mut tree = GistTree::create(RectExt, fresh_lo(), GistTreeOptions { min_fill: 2 }).unwrap();
    let data: Vec<RectKey> = (0..400)
        .map(|i| {
            let x = (i * 37) % 900;
            let y = (i * 59) % 900;
            RectKey::new(x, x + 6 + i % 9, y, y + 4 + i % 7)
        })
        .collect();
    for (i, r) in data.iter().enumerate() {
        tree.insert(r, i as u64).unwrap();
    }
    tree.check().unwrap();
    for q in [
        RectKey::new(0, 120, 0, 120),
        RectKey::new(500, 600, 300, 800),
        RectKey::new(-5, -1, -5, -1),
    ] {
        let mut got: Vec<u64> = tree
            .search(&q)
            .unwrap()
            .into_iter()
            .map(|(_, id)| id)
            .collect();
        let mut expected: Vec<u64> = data
            .iter()
            .enumerate()
            .filter(|(_, r)| r.overlaps(&q))
            .map(|(i, _)| i as u64)
            .collect();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected, "query {q:?}");
    }
}

#[test]
fn gist_blade_serves_sql() {
    let db = Database::new(DatabaseOptions::default());
    install_gist_blade(&db).unwrap();
    let conn = db.connect();
    conn.exec("CREATE TABLE spans (id integer, r IntRange_t)")
        .unwrap();
    conn.exec("CREATE INDEX span_ix ON spans(r gist_range_ops) USING gist_am")
        .unwrap();
    for i in 0..200i64 {
        conn.exec(&format!(
            "INSERT INTO spans VALUES ({i}, '{}..{}')",
            i * 5,
            i * 5 + 8
        ))
        .unwrap();
    }
    let r = conn
        .exec("SELECT id FROM spans WHERE RangeOverlaps(r, '100..120')")
        .unwrap();
    let mut ids: Vec<i64> = r
        .rows
        .iter()
        .map(|row| match &row[0] {
            Value::Int(i) => *i,
            other => panic!("{other}"),
        })
        .collect();
    ids.sort_unstable();
    // Spans i*5..i*5+8 overlapping [100, 120]: i in 19..=24.
    assert_eq!(ids, vec![19, 20, 21, 22, 23, 24]);
    // DML maintenance + consistency.
    conn.exec("DELETE FROM spans WHERE RangeOverlaps(r, '0..200')")
        .unwrap();
    conn.exec("CHECK INDEX span_ix").unwrap();
    let r = conn
        .exec("SELECT id FROM spans WHERE RangeOverlaps(r, '100..120')")
        .unwrap();
    assert!(r.rows.iter().all(|row| row[0] != Value::Int(19)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random insert/delete churn keeps the generic tree equivalent to
    /// a linear scan and structurally sound.
    #[test]
    fn random_churn_matches_oracle(
        ops in proptest::collection::vec((0i64..500, 0i64..40, proptest::bool::ANY), 1..150),
        q_lo in 0i64..500,
        q_len in 0i64..100,
    ) {
        let mut tree =
            GistTree::create(IntRangeExt, fresh_lo(), GistTreeOptions { min_fill: 2 }).unwrap();
        let mut live: Vec<(u64, IntRange)> = Vec::new();
        let mut next = 0u64;
        for (lo, len, delete) in ops {
            if delete && !live.is_empty() {
                let (id, r) = live.swap_remove((lo as usize) % live.len());
                prop_assert!(tree.delete(&r, id).unwrap().found);
            } else {
                let r = IntRange::new(lo, lo + len);
                tree.insert(&r, next).unwrap();
                live.push((next, r));
                next += 1;
            }
        }
        tree.check().unwrap();
        let q = IntRange::new(q_lo, q_lo + q_len);
        let mut got: Vec<u64> = tree.search(&q).unwrap().into_iter().map(|(_, id)| id).collect();
        let mut expected: Vec<u64> = live
            .iter()
            .filter(|(_, r)| r.overlaps(&q))
            .map(|(id, _)| *id)
            .collect();
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }
}
