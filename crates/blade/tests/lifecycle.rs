//! Blade lifecycle tests: register/un-register cycles (the BladeManager
//! workflow of Section 6.1) and direct purpose-function driving,
//! including `am_rescan` and `am_update`.

use grt_blade::{
    extent_to_value, install_grtree_blade, uninstall_grtree_blade, DeletePolicy, GrTreeAm,
    GrTreeAmOptions, TYPE_NAME,
};
use grt_grtree::GrTreeOptions;
use grt_ids::vii::{QualDescriptor, QualNode, SimpleQual};
use grt_ids::{
    AccessMethod, AmContext, DataType, Database, DatabaseOptions, IndexDescriptor, RowId,
    ScanDescriptor,
};
use grt_temporal::{Day, MockClock, Predicate, TimeExtent, TtEnd, VtEnd};
use std::sync::Arc;

#[test]
fn register_unregister_register_cycle() {
    // "During testing it has to be registered and un-registered multiple
    // times" — the full cycle must be clean.
    let db = Database::new(DatabaseOptions::default());
    install_grtree_blade(&db, GrTreeAmOptions::default()).unwrap();
    let conn = db.connect();
    conn.exec("CREATE TABLE t (Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    conn.exec("INSERT INTO t VALUES ('3/97, UC, 3/97, NOW')")
        .unwrap();
    // Indexes must be dropped before un-registration.
    conn.exec("DROP INDEX tix").unwrap();
    uninstall_grtree_blade(&db).unwrap();
    assert!(!db.function_exists("Overlaps"));
    // Strategy functions are gone: the query now fails at bind time.
    assert!(conn
        .exec("SELECT * FROM t WHERE Overlaps(Time_Extent, '3/97, UC, 3/97, NOW')")
        .is_err());
    // Re-registration brings everything back. (Install only re-runs the
    // script; the opaque type and the library stay loaded.)
    let conn2 = db.connect();
    conn2
        .exec_script(&grt_blade::registration_script())
        .unwrap();
    let r = conn2
        .exec("SELECT * FROM t WHERE Overlaps(Time_Extent, '3/97, UC, 3/97, NOW')")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
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

fn driven_blade_with(opts: GrTreeAmOptions) -> (GrTreeAm, IndexDescriptor, AmContext<'static>) {
    let am = GrTreeAm::new(opts);
    let idx = IndexDescriptor::new(
        "direct_ix",
        "t",
        vec!["Time_Extent".into()],
        vec![DataType::Opaque(TYPE_NAME.into())],
        "grt_opclass",
    );
    let mut ctx = AmContext::for_tests();
    ctx.clock = Arc::new(MockClock::new(Day(500)));
    (am, idx, ctx)
}

fn driven_blade() -> (GrTreeAm, IndexDescriptor, AmContext<'static>) {
    driven_blade_with(GrTreeAmOptions::default())
}

fn overlaps(q: TimeExtent) -> QualNode {
    QualNode::Simple(SimpleQual {
        func: "Overlaps".into(),
        column: "Time_Extent".into(),
        constant: Some(extent_to_value(&q)),
        commuted: false,
    })
}

/// The rowid of the scan's next hit. The blades leave *retrow* empty:
/// the executor fetches the base row by rowid.
fn next_rowid(
    am: &GrTreeAm,
    idx: &IndexDescriptor,
    scan: &mut ScanDescriptor,
    ctx: &AmContext,
) -> Option<u64> {
    let (rowid, keys) = am.am_getnext(idx, scan, ctx).unwrap()?;
    assert!(keys.is_empty());
    Some(rowid.0)
}

/// Every hit left in the scan.
fn drain(
    am: &GrTreeAm,
    idx: &IndexDescriptor,
    scan: &mut ScanDescriptor,
    ctx: &AmContext,
) -> Vec<u64> {
    std::iter::from_fn(|| next_rowid(am, idx, scan, ctx)).collect()
}

#[test]
fn rescan_replays_the_scan_from_the_start() {
    let (am, idx, ctx) = driven_blade();
    am.am_create(&idx, &ctx).unwrap();
    am.am_open(&idx, &ctx).unwrap();
    for i in 0..30 {
        let e = extent(100 + i, None, 100 + i, None);
        am.am_insert(&idx, &[extent_to_value(&e)], RowId(i as u64), &ctx)
            .unwrap();
    }
    let qual = QualDescriptor {
        root: Some(overlaps(extent(0, None, 0, None))),
    };
    let mut scan = ScanDescriptor::new(qual);
    am.am_beginscan(&idx, &mut scan, &ctx).unwrap();
    // A rescan in mid-scan: everything comes back, the ten rows already
    // returned included (the dedup memory is cleared too).
    for _ in 0..10 {
        am.am_getnext(&idx, &mut scan, &ctx).unwrap().unwrap();
    }
    am.am_rescan(&idx, &mut scan, &ctx).unwrap();
    assert_eq!(drain(&am, &idx, &mut scan, &ctx).len(), 30);
    // And again after a complete pass.
    am.am_rescan(&idx, &mut scan, &ctx).unwrap();
    assert_eq!(drain(&am, &idx, &mut scan, &ctx).len(), 30);
    am.am_endscan(&idx, &mut scan, &ctx).unwrap();
    am.am_close(&idx, &ctx).unwrap();
}

/// A scan restarted after `k` hits returns each row exactly once,
/// wherever the restart falls. `RestartAlways` makes any
/// `am_delete` a restart; the row deleted lies outside the window, so
/// the answer owed stays the same 40 rows.
#[test]
fn restart_after_k_hits_returns_each_entry_once() {
    let (am, idx, ctx) = driven_blade_with(GrTreeAmOptions {
        delete_policy: DeletePolicy::RestartAlways,
        ..Default::default()
    });
    am.am_create(&idx, &ctx).unwrap();
    am.am_open(&idx, &ctx).unwrap();
    let inside = |i: i32| extent_to_value(&extent(100 + i, Some(110 + i), 100 + i, Some(110 + i)));
    let outside = |i: i32| extent_to_value(&extent(300 + i, Some(301 + i), 300 + i, Some(301 + i)));
    for i in 0..40 {
        am.am_insert(&idx, &[inside(i)], RowId(i as u64), &ctx)
            .unwrap();
    }
    let restarts = [0usize, 1, 20, 39];
    for (n, _) in restarts.iter().enumerate() {
        let n = n as i32;
        am.am_insert(&idx, &[outside(n)], RowId(1_000 + n as u64), &ctx)
            .unwrap();
    }
    let window = extent(90, Some(200), 90, Some(200));
    for (n, k) in restarts.into_iter().enumerate() {
        let mut scan = ScanDescriptor::new(QualDescriptor {
            root: Some(overlaps(window)),
        });
        am.am_beginscan(&idx, &mut scan, &ctx).unwrap();
        let mut got: Vec<u64> = (0..k)
            .map(|_| next_rowid(&am, &idx, &mut scan, &ctx).unwrap())
            .collect();
        let n = n as i32;
        am.am_delete(&idx, &[outside(n)], RowId(1_000 + n as u64), &ctx)
            .unwrap();
        got.extend(drain(&am, &idx, &mut scan, &ctx));
        am.am_endscan(&idx, &mut scan, &ctx).unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..40).collect::<Vec<u64>>(), "restart after {k} hits");
    }
    am.am_close(&idx, &ctx).unwrap();
}

/// `am_insert` through the descriptor of an open scan: splits and
/// forced reinserts move entries the scan has returned into leaves it
/// has yet to visit, and they must not come back.
#[test]
fn insert_during_a_scan_returns_no_row_twice() {
    let (am, idx, ctx) = driven_blade_with(GrTreeAmOptions {
        tree: GrTreeOptions {
            max_entries: 8,
            ..Default::default()
        },
        ..Default::default()
    });
    am.am_create(&idx, &ctx).unwrap();
    am.am_open(&idx, &ctx).unwrap();
    let row = |i: i32| {
        let (tt, vt) = (100 + (i * 37) % 200, 100 + (i * 91) % 200);
        extent_to_value(&extent(tt, Some(tt + 30), vt, Some(vt + 30)))
    };
    for i in 0..300 {
        am.am_insert(&idx, &[row(i)], RowId(i as u64), &ctx)
            .unwrap();
    }
    let mut scan = ScanDescriptor::new(QualDescriptor {
        root: Some(overlaps(extent(0, Some(1_000), 0, Some(1_000)))),
    });
    am.am_beginscan(&idx, &mut scan, &ctx).unwrap();
    let mut got: Vec<u64> = (0..100)
        .map(|_| next_rowid(&am, &idx, &mut scan, &ctx).unwrap())
        .collect();
    for i in 300..600 {
        am.am_insert(&idx, &[row(i)], RowId(i as u64), &ctx)
            .unwrap();
    }
    got.extend(drain(&am, &idx, &mut scan, &ctx));
    am.am_endscan(&idx, &mut scan, &ctx).unwrap();
    am.am_close(&idx, &ctx).unwrap();
    let returned = got.len();
    got.sort_unstable();
    got.dedup();
    assert_eq!(got.len(), returned, "a row came back twice");
}

/// The second probe of an OR covers rows the first returned; they come
/// back once.
#[test]
fn or_of_overlapping_probes_returns_the_overlap_once() {
    let (am, idx, ctx) = driven_blade();
    am.am_create(&idx, &ctx).unwrap();
    am.am_open(&idx, &ctx).unwrap();
    let row = |i: i32| extent(100 + i, Some(102 + i), 100 + i, Some(102 + i));
    for i in 0..60 {
        am.am_insert(&idx, &[extent_to_value(&row(i))], RowId(i as u64), &ctx)
            .unwrap();
    }
    let first = extent(90, Some(130), 90, Some(130));
    let second = extent(120, Some(150), 120, Some(150));
    let meets = |i: i32, window: &TimeExtent| Predicate::Overlaps.eval(&row(i), window, Day(500));
    let both = (0..60).filter(|&i| meets(i, &first) && meets(i, &second));
    assert!(both.count() > 5, "the windows share rows");
    let mut scan = ScanDescriptor::new(QualDescriptor {
        root: Some(QualNode::Or(vec![overlaps(first), overlaps(second)])),
    });
    am.am_beginscan(&idx, &mut scan, &ctx).unwrap();
    let mut got = drain(&am, &idx, &mut scan, &ctx);
    am.am_endscan(&idx, &mut scan, &ctx).unwrap();
    am.am_close(&idx, &ctx).unwrap();
    got.sort_unstable();
    let want: Vec<u64> = (0..60)
        .filter(|&i| meets(i, &first) || meets(i, &second))
        .map(|i| i as u64)
        .collect();
    assert_eq!(got, want);
}

#[test]
fn update_is_delete_plus_insert() {
    let (am, idx, ctx) = driven_blade();
    am.am_create(&idx, &ctx).unwrap();
    am.am_open(&idx, &ctx).unwrap();
    let old = extent(100, None, 100, None);
    am.am_insert(&idx, &[extent_to_value(&old)], RowId(7), &ctx)
        .unwrap();
    let new = old.logical_delete(Day(400)).unwrap();
    am.am_update(
        &idx,
        &[extent_to_value(&old)],
        RowId(7),
        &[extent_to_value(&new)],
        RowId(7),
        &ctx,
    )
    .unwrap();
    // The old (growing) version is gone; a probe far in the future that
    // only a growing stair would reach finds nothing.
    let probe = extent(5_000, Some(5_010), 4_990, Some(5_005));
    let qual = QualDescriptor {
        root: Some(QualNode::Simple(SimpleQual {
            func: "Overlaps".into(),
            column: "Time_Extent".into(),
            constant: Some(extent_to_value(&probe)),
            commuted: false,
        })),
    };
    // A fresh statement far in the future.
    ctx.session
        .clear_duration(grt_ids::session::MemDuration::PerStatement);
    let later_ctx = {
        let mut c = AmContext {
            space: ctx.space.clone(),
            txn: ctx.txn,
            snapshot: None,
            clock: Arc::new(MockClock::new(Day(6_000))),
            session: Arc::clone(&ctx.session),
            fragments: Arc::clone(&ctx.fragments),
            trace: ctx.trace.clone(),
        };
        c.clock = Arc::new(MockClock::new(Day(6_000)));
        c
    };
    am.am_open(&idx, &later_ctx).unwrap();
    let mut scan = ScanDescriptor::new(qual);
    am.am_beginscan(&idx, &mut scan, &later_ctx).unwrap();
    assert!(am
        .am_getnext(&idx, &mut scan, &later_ctx)
        .unwrap()
        .is_none());
    am.am_endscan(&idx, &mut scan, &later_ctx).unwrap();
    am.am_check(&idx, &later_ctx).unwrap();
}

#[test]
fn create_rejects_wrong_column_type() {
    let (am, _, ctx) = driven_blade();
    let idx = IndexDescriptor::new(
        "bad_ix",
        "t",
        vec!["n".into()],
        vec![DataType::Integer],
        "grt_opclass",
    );
    assert!(am.am_create(&idx, &ctx).is_err());
}

#[test]
fn getnext_without_beginscan_errors() {
    let (am, idx, ctx) = driven_blade();
    am.am_create(&idx, &ctx).unwrap();
    am.am_open(&idx, &ctx).unwrap();
    let mut scan = ScanDescriptor::new(QualDescriptor::default());
    assert!(am.am_getnext(&idx, &mut scan, &ctx).is_err());
}
