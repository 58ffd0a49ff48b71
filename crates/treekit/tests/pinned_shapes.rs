//! Same algorithms, same trees: a seeded 2 000-insert / 600-delete
//! history through the GR-tree and the R\*-tree, at fan-out 8 and at
//! the default fan-out (`usize::MAX` clamps to it), must reproduce the
//! shape counters and the very bytes recorded at commit eb963c5, the
//! last one where each tree carried its own drivers. A change to an
//! algorithm that is *meant* to change the trees re-records these.

use grt_grtree::{GrTree, GrTreeOptions};
use grt_rstar::{RStarOptions, RStarTree, Rect2};
use grt_sbspace::{IsolationLevel, LoHandle, LockMode, Sbspace, SbspaceOptions};
use grt_temporal::{Day, TimeExtent, TtEnd, VtEnd};

/// `(height, pages, len, splits, reinserts, condenses, fold)`.
type Shape = (u32, u32, u64, u64, u64, u64, u64);

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

/// A self-contained generator so the history depends on nothing but
/// this file.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u32) -> i32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % bound as u64) as i32
    }
}

/// Order- and position-sensitive fold of every page of the object.
fn fold(lo: &LoHandle) -> u64 {
    let mut acc = 0u64;
    for page in 0..lo.page_count() {
        for word in lo.read_page_pinned(page).unwrap().chunks_exact(8) {
            acc = acc.rotate_left(5) ^ u64::from_le_bytes(word.try_into().unwrap());
        }
    }
    acc
}

/// The history: 2 000 inserts; from the 500th on, every fifth insert
/// is followed by two deletes of random live entries (600 in all).
fn history<T>(
    mut insert: impl FnMut(&mut T, u64, &mut Lcg, Day),
    mut delete: impl FnMut(&mut T, u64, Day),
    tree: &mut T,
) {
    let mut rng = Lcg(0x5eed_1999);
    let mut live: Vec<u64> = Vec::new();
    for i in 0..2000u64 {
        let ct = Day(1000 + (i / 4) as i32);
        insert(tree, i, &mut rng, ct);
        live.push(i);
        if i >= 500 && i % 5 == 0 {
            for _ in 0..2 {
                let victim = live.swap_remove(rng.next(live.len() as u32) as usize);
                delete(tree, victim, ct);
            }
        }
    }
}

fn gr_shape(max_entries: usize) -> Shape {
    let opts = GrTreeOptions {
        max_entries,
        ..Default::default()
    };
    let mut tree = GrTree::create(fresh_lo(), opts).unwrap();
    let extents: std::cell::RefCell<Vec<TimeExtent>> = Default::default();
    history(
        |t: &mut GrTree, id, rng, ct| {
            let back = rng.next(400);
            let tt = Day(ct.0 - back);
            let vt = Day(tt.0 - rng.next(30));
            let e = match rng.next(6) {
                0 => (tt, TtEnd::Uc, vt, VtEnd::Ground(Day(tt.0 + rng.next(60)))),
                1 => (
                    tt,
                    TtEnd::Ground(Day(tt.0 + rng.next(back as u32 + 1))),
                    vt,
                    VtEnd::Ground(Day(vt.0 + rng.next(90))),
                ),
                2 => (tt, TtEnd::Uc, tt, VtEnd::Now),
                3 => (
                    tt,
                    TtEnd::Ground(Day(tt.0 + rng.next(back as u32 + 1))),
                    tt,
                    VtEnd::Now,
                ),
                4 => (tt, TtEnd::Uc, vt, VtEnd::Now),
                _ => (
                    tt,
                    TtEnd::Ground(Day(tt.0 + rng.next(back as u32 + 1))),
                    vt,
                    VtEnd::Now,
                ),
            };
            let e = TimeExtent::from_parts(e.0, e.1, e.2, e.3).unwrap();
            t.insert(e, id, ct).unwrap();
            extents.borrow_mut().push(e);
        },
        |t: &mut GrTree, id, ct| {
            let e = extents.borrow()[id as usize];
            assert!(t.delete(&e, id, ct).unwrap().found);
        },
        &mut tree,
    );
    tree.check(Day(1500)).unwrap();
    let m = tree.metrics().clone();
    let (height, pages, len) = (tree.height(), tree.pages(), tree.len());
    let lo = tree.into_lo().unwrap();
    (
        height,
        pages,
        len,
        m.splits.get(),
        m.reinserts.get(),
        m.condenses.get(),
        fold(&lo),
    )
}

fn rstar_shape(max_entries: usize) -> Shape {
    let opts = RStarOptions {
        max_entries,
        ..Default::default()
    };
    let mut tree = RStarTree::create(fresh_lo(), opts).unwrap();
    let rects: std::cell::RefCell<Vec<Rect2>> = Default::default();
    history(
        |t: &mut RStarTree, id, rng, _ct| {
            let (x, y) = (rng.next(5000), rng.next(5000));
            // One in eight reaches "the end of time", like a
            // max-timestamp now-relative tuple.
            let r = if rng.next(8) == 0 {
                Rect2::new(x, i32::MAX, y, i32::MAX)
            } else {
                Rect2::new(x, x + rng.next(80), y, y + rng.next(80))
            };
            t.insert(r, id).unwrap();
            rects.borrow_mut().push(r);
        },
        |t: &mut RStarTree, id, _ct| {
            let r = rects.borrow()[id as usize];
            assert!(t.delete(r, id).unwrap().found);
        },
        &mut tree,
    );
    tree.check().unwrap();
    let m = tree.metrics().clone();
    let (height, pages, len) = (tree.height(), tree.pages(), tree.len());
    let lo = tree.into_lo().unwrap();
    (
        height,
        pages,
        len,
        m.splits.get(),
        m.reinserts.get(),
        m.condenses.get(),
        fold(&lo),
    )
}

#[test]
fn gr_tree_shapes_and_bytes_are_pinned() {
    assert_eq!(
        gr_shape(8),
        (5, 347, 1400, 425, 1078, 75, 11662962190483104659)
    );
    assert_eq!(
        gr_shape(usize::MAX),
        (2, 17, 1400, 18, 1326, 4, 16727409298411011465)
    );
}

#[test]
fn rstar_tree_shapes_and_bytes_are_pinned() {
    assert_eq!(
        rstar_shape(8),
        (5, 315, 1400, 370, 1002, 56, 12442799183391731478)
    );
    assert_eq!(
        rstar_shape(usize::MAX),
        (2, 13, 1400, 11, 1071, 1, 13349919092204897088)
    );
}
