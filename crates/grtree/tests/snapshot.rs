//! Snapshot reads over a GR-tree: a frozen space snapshot must keep
//! answering with the exact rows that were committed when it was taken,
//! even while a writer condenses the tree underneath it.

use std::collections::BTreeSet;

use grt_grtree::{GrTree, GrTreeOptions, GrTreeReader};
use grt_metrics::TreeMetrics;
use grt_sbspace::{IsolationLevel, LockMode, Sbspace, SbspaceOptions};
use grt_temporal::{Day, Predicate, TimeExtent, TtEnd, VtEnd};

fn extent(ttb: i32, tte: Option<i32>, vtb: i32, vte: Option<i32>) -> TimeExtent {
    TimeExtent::from_parts(
        Day(ttb),
        tte.map_or(TtEnd::Uc, |x| TtEnd::Ground(Day(x))),
        Day(vtb),
        vte.map_or(VtEnd::Now, |x| VtEnd::Ground(Day(x))),
    )
    .unwrap()
}

fn history(n: i32) -> Vec<(u64, TimeExtent)> {
    (0..n)
        .map(|i| {
            let base = (i * 17) % 700;
            let e = match i % 6 {
                0 => extent(base, None, base - (i % 9), Some(base + 40)),
                1 => extent(base, Some(base + 25), base - 7, Some(base + 30)),
                2 => extent(base, None, base, None),
                3 => extent(base, Some(base + 15), base, None),
                4 => extent(base, None, base - (1 + i % 5), None),
                _ => extent(base, Some(base + 12), base - (1 + i % 5), None),
            };
            (i as u64, e)
        })
        .collect()
}

/// A query extent whose region at `ct` covers every inserted extent.
fn everything() -> TimeExtent {
    extent(0, None, -60, None)
}

/// Builds a tree over `data` in a fresh committed large object and
/// returns the space plus the object's id.
fn committed_tree(sb: &Sbspace, data: &[(u64, TimeExtent)], ct: Day) -> grt_sbspace::LoId {
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let lo = sb.create_lo(&txn).unwrap();
    let handle = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
    let mut tree = GrTree::create(
        handle,
        GrTreeOptions {
            max_entries: 8,
            ..Default::default()
        },
    )
    .unwrap();
    for (rowid, e) in data {
        tree.insert(*e, *rowid, ct).unwrap();
    }
    drop(tree.into_lo().unwrap());
    txn.commit().unwrap();
    lo
}

fn drain_reader(reader: &GrTreeReader, ct: Day) -> BTreeSet<u64> {
    let mut cursor = reader.cursor(Predicate::Overlaps, everything(), ct);
    let mut got = BTreeSet::new();
    while let Some((_, rowid)) = reader.cursor_next(&mut cursor).unwrap() {
        got.insert(rowid);
    }
    got
}

#[test]
fn snapshot_sees_exact_pre_condense_rows() {
    let sb = Sbspace::mem(SbspaceOptions {
        pool_pages: 8192,
        ..Default::default()
    });
    let ct = Day(800);
    let data = history(300);
    let lo = committed_tree(&sb, &data, ct);

    let snap = sb.snapshot_for(&[lo]).unwrap();
    let before: BTreeSet<u64> = data.iter().map(|(rowid, _)| *rowid).collect();

    // A writer now deletes rows until the tree condenses, and commits.
    // Copy-on-write shadow paging means none of the snapshot's pages
    // move or change.
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let handle = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
    let mut tree = GrTree::open(handle).unwrap();
    let mut condensed = false;
    let mut deleted = BTreeSet::new();
    for (rowid, e) in data.iter().take(180) {
        let out = tree.delete(e, *rowid, ct).unwrap();
        assert!(out.found, "row {rowid} should be deletable");
        condensed |= out.condensed;
        deleted.insert(*rowid);
    }
    assert!(condensed, "deletions never condensed the tree");
    drop(tree.into_lo().unwrap());
    txn.commit().unwrap();

    // The snapshot still answers with every pre-condense row...
    let reader = GrTreeReader::open(snap.reader(lo).unwrap(), TreeMetrics::default()).unwrap();
    assert_eq!(reader.len(), data.len() as u64);
    assert_eq!(drain_reader(&reader, ct), before);

    // ...while the live committed state answers without the deleted ones.
    let after: BTreeSet<u64> = before.difference(&deleted).copied().collect();
    let live = sb.snapshot_for(&[lo]).unwrap();
    let live_reader = GrTreeReader::open(live.reader(lo).unwrap(), TreeMetrics::default()).unwrap();
    assert_eq!(drain_reader(&live_reader, ct), after);

    drop((reader, live_reader, snap, live));
    assert_eq!(sb.snapshots_open(), 0);
}
