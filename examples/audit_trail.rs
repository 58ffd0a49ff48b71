//! An accountability workload: transaction time as an audit trail.
//!
//! The paper motivates transaction time for "applications where
//! traceability or accountability are important". This example keeps a
//! price list whose corrections never destroy history: every change is
//! a logical deletion plus a re-insertion, and "as-of" queries replay
//! what the database believed at any past moment. It finishes with the
//! Section 5.5 vacuuming step: dropping ancient closed tuples by
//! rebuilding the index with the bulk loader.
//!
//! ```text
//! cargo run --example audit_trail
//! ```

use grtree_datablade::blade::{install_grtree_blade, GrTreeAmOptions};
use grtree_datablade::grtree::bulk::{bulk_load_pairs, not_older_than};
use grtree_datablade::grtree::GrTreeOptions;
use grtree_datablade::ids::{Database, DatabaseOptions};
use grtree_datablade::sbspace::{IsolationLevel, LockMode, Sbspace, SbspaceOptions};
use grtree_datablade::temporal::{Day, MockClock, Predicate, TimeExtent, TtEnd, VtEnd};
use std::sync::Arc;

fn d(text: &str) -> Day {
    Day::parse(text).unwrap()
}

fn main() {
    let clock = MockClock::new(d("01/02/2020"));
    let db = Database::new(DatabaseOptions {
        clock: Arc::new(clock.clone()),
        ..Default::default()
    });
    install_grtree_blade(&db, GrTreeAmOptions::default()).unwrap();
    let conn = db.connect();
    conn.exec("CREATE TABLE Prices (item text, cents integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec("CREATE INDEX price_ix ON Prices(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();

    // 2020-01-02: widgets cost 100, valid since new year, until changed.
    conn.exec("INSERT INTO Prices VALUES ('widget', 100, '01/02/2020, UC, 01/01/2020, NOW')")
        .unwrap();

    // 2020-03-15: a correction — the price had actually risen to 120 on
    // March 1st. History is preserved: close the old belief, assert the
    // corrected ones.
    clock.set(d("03/15/2020"));
    conn.exec(
        "UPDATE Prices SET Time_Extent = '01/02/2020, 03/14/2020, 01/01/2020, NOW' \
         WHERE item = 'widget' AND cents = 100",
    )
    .unwrap();
    conn.exec(
        "INSERT INTO Prices VALUES ('widget', 100, '03/15/2020, UC, 01/01/2020, 02/29/2020')",
    )
    .unwrap();
    conn.exec("INSERT INTO Prices VALUES ('widget', 120, '03/15/2020, UC, 03/01/2020, NOW')")
        .unwrap();

    clock.set(d("06/01/2020"));
    println!("== audit questions, all answered by one Overlaps() probe ==\n");
    // What did we believe on Feb 1st about Feb 1st?
    let asof = |tt: &str, vt: &str| {
        let r = conn
            .exec(&format!(
                "SELECT item, cents FROM Prices \
                 WHERE Overlaps(Time_Extent, '{tt}, {tt}, {vt}, {vt}')"
            ))
            .unwrap();
        r.text()
            .iter()
            .map(|row| format!("{} = {}", row[0], row[1]))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "believed on 02/01 about 02/01 (pre-correction): {}",
        asof("02/01/2020", "02/01/2020")
    );
    println!(
        "believed on 04/01 about 02/01 (post-correction): {}",
        asof("04/01/2020", "02/01/2020")
    );
    println!(
        "believed on 04/01 about 04/01 (current price):   {}",
        asof("04/01/2020", "04/01/2020")
    );

    // The audit trail itself: every version of the widget price.
    let trail = conn
        .exec("SELECT cents, Time_Extent FROM Prices WHERE item = 'widget'")
        .unwrap();
    println!("\n== full audit trail ==\n{}", trail.to_table());

    // ---- vacuuming (Section 5.5) ------------------------------------
    // Years later, tuples closed before 2021 are vacuumed by rebuilding
    // the index from scratch with the bulk loader — "drop the index and
    // then create it from scratch using a bulk loading algorithm".
    println!("== vacuuming via bulk reload (direct index API) ==");
    let sb = Sbspace::mem(SbspaceOptions::default());
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let mk_lo = |txn: &grtree_datablade::sbspace::Txn| {
        let lo = sb.create_lo(txn).unwrap();
        sb.open_lo(txn, lo, LockMode::Exclusive).unwrap()
    };
    let ct = d("01/01/2030");
    let data: Vec<(u64, TimeExtent)> = (0..2000)
        .map(|i| {
            let start = Day(18_000 + i);
            let extent = if i % 3 == 0 {
                TimeExtent::from_parts(start, TtEnd::Uc, start, VtEnd::Now).unwrap()
            } else {
                TimeExtent::from_parts(
                    start,
                    TtEnd::Ground(start.plus(30)),
                    start,
                    VtEnd::Ground(start.plus(45)),
                )
                .unwrap()
            };
            (i as u64, extent)
        })
        .collect();
    let tree = bulk_load_pairs(mk_lo(&txn), &data, ct, GrTreeOptions::default()).unwrap();
    println!(
        "before vacuum: {} entries, {} pages",
        tree.len(),
        tree.pages()
    );
    let cutoff = Day(18_000 + 1500);
    let (vacuumed, removed) = grtree_datablade::grtree::bulk::vacuum_rebuild(
        tree,
        mk_lo(&txn),
        ct,
        not_older_than(cutoff),
    )
    .unwrap();
    println!(
        "after vacuum (cutoff day {}): {} entries, {} pages ({} removed)",
        cutoff.0,
        vacuumed.len(),
        vacuumed.pages(),
        removed
    );
    vacuumed.check(ct).unwrap();
    let probe = TimeExtent::from_parts(
        Day(19_990),
        TtEnd::Ground(Day(19_999)),
        Day(17_000),
        VtEnd::Ground(Day(20_100)),
    )
    .unwrap();
    let hits = vacuumed.search(Predicate::Overlaps, &probe, ct).unwrap();
    println!("post-vacuum probe still answers: {} hits", hits.len());
}
