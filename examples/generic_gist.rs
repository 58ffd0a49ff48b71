//! The paper's closing vision, running: a *generalized* search tree
//! registered as a DataBlade, extended through an operator class.
//!
//! Section 7: "a generic extendible tree-based access method ... would
//! support the broad class of tree-based access methods by providing a
//! simple, high-level extension interface ... It is also possible to
//! implement such a generic access method as a DataBlade."
//!
//! ```text
//! cargo run --example generic_gist
//! ```

use grtree_datablade::blade::gist_am::install_gist_blade;
use grtree_datablade::gist::{GistTree, GistTreeOptions, IntRange, IntRangeExt, RectExt, RectKey};
use grtree_datablade::ids::{Database, DatabaseOptions};
use grtree_datablade::sbspace::{IsolationLevel, LockMode, Sbspace, SbspaceOptions};

fn main() {
    // ---- the extension interface, used directly -----------------------
    println!("== one skeleton, two access methods ==\n");
    let sb = Sbspace::mem(SbspaceOptions::default());
    let txn = sb.begin(IsolationLevel::ReadCommitted);

    // Instantiation 1: an interval tree (B-tree flavour).
    let lo = sb.create_lo(&txn).unwrap();
    let h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
    let mut intervals = GistTree::create(IntRangeExt, h, GistTreeOptions::default()).unwrap();
    for i in 0..1_000i64 {
        intervals
            .insert(&IntRange::new(i * 3, i * 3 + 10), i as u64)
            .unwrap();
    }
    let hits = intervals.search(&IntRange::new(500, 520)).unwrap();
    println!(
        "interval tree: {} entries, height {}, query [500, 520] -> {} hits",
        intervals.len(),
        intervals.height(),
        hits.len()
    );
    intervals.check().unwrap();

    // Instantiation 2: a rectangle tree (R-tree flavour) — same
    // skeleton, different four primitives.
    let lo = sb.create_lo(&txn).unwrap();
    let h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
    let mut rects = GistTree::create(RectExt, h, GistTreeOptions::default()).unwrap();
    for i in 0..1_000i32 {
        let x = (i * 37) % 900;
        let y = (i * 59) % 900;
        rects
            .insert(&RectKey::new(x, x + 8, y, y + 8), i as u64)
            .unwrap();
    }
    let hits = rects.search(&RectKey::new(100, 200, 100, 200)).unwrap();
    println!(
        "rectangle tree: {} entries, height {}, window query -> {} hits",
        rects.len(),
        rects.height(),
        hits.len()
    );
    rects.check().unwrap();

    // ---- and as a DataBlade -------------------------------------------
    println!("\n== the same skeleton as a registered access method ==\n");
    let db = Database::new(DatabaseOptions::default());
    install_gist_blade(&db).unwrap();
    let conn = db.connect();
    conn.exec("CREATE TABLE reservations (room integer, span IntRange_t)")
        .unwrap();
    conn.exec("CREATE INDEX res_ix ON reservations(span gist_range_ops) USING gist_am")
        .unwrap();
    for room in 0..50i64 {
        for slot in 0..8i64 {
            let start = room * 100 + slot * 12;
            conn.exec(&format!(
                "INSERT INTO reservations VALUES ({room}, '{start}..{}')",
                start + 10
            ))
            .unwrap();
        }
    }
    let r = conn
        .exec("SELECT room, span FROM reservations WHERE RangeOverlaps(span, '1205..1215')")
        .unwrap();
    println!(
        "who holds slots overlapping [1205, 1215]?\n{}",
        r.to_table()
    );
    conn.exec("CHECK INDEX res_ix").unwrap();
    println!("gist_am index consistent.");
    let (_, ams) = db.catalog_dump("sysams").unwrap();
    println!("\nsysams now lists: {}", ams[0][0]);
}
