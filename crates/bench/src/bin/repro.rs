//! Regenerates every table and figure of *Developing a DataBlade for a
//! New Index* from the running system.
//!
//! ```text
//! cargo run -p grt-bench --bin repro -- all
//! cargo run -p grt-bench --bin repro -- table1 fig6 perf-search
//! ```
//!
//! Exhibit ids match DESIGN.md's per-experiment index.

use grt_bench::{apply_history_gr, apply_history_rstar, run_queries_gr, run_queries_rstar, Table};
use grt_blade::{install_grtree_blade, CurrentTimePolicy, DeletePolicy, GrTreeAmOptions};
use grt_grtree::entry::GrNode;
use grt_grtree::GrTreeOptions;
use grt_ids::engine::Connection;
use grt_ids::{Database, DatabaseOptions};
use grt_rstar::bitemporal::NowStrategy;
use grt_rstar::{Rect2, SpatialPredicate};
use grt_temporal::{
    bound_entries, Case, Day, MockClock, Predicate, RegionSpec, TimeExtent, TtEnd, VtEnd,
};
use grt_workload::{History, HistoryParams, QueryKind, QueryParams, QuerySet};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL_RUNNERS.iter().map(|(n, _)| *n).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for id in wanted {
        let runner = ALL_RUNNERS
            .iter()
            .find(|(name, _)| *name == id)
            .unwrap_or_else(|| {
                let known: Vec<&str> = ALL_RUNNERS.iter().map(|(n, _)| *n).collect();
                eprintln!("unknown exhibit {id:?}; known: {known:?}");
                std::process::exit(2);
            });
        println!("\n==================== {id} ====================");
        (runner.1)();
    }
}

const ALL_RUNNERS: [(&str, fn()); 22] = [
    ("table1", table1),
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("table2", table2),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("perf-search", perf_search),
    ("perf-insert", perf_insert),
    ("perf-quality", perf_quality),
    ("abl-delete", abl_delete),
    ("abl-storage", abl_storage),
    ("abl-dispatch", abl_dispatch),
    ("abl-curtime", abl_curtime),
    ("perf-pool", perf_pool),
    ("abl-bounds", abl_bounds),
    ("abl-timeparam", abl_timeparam),
];

// ---------------------------------------------------------------------
// shared setup
// ---------------------------------------------------------------------

fn month(m: u32, y: i32) -> Day {
    Day::from_ymd(y, m, 1).unwrap()
}

fn blade_db(opts: GrTreeAmOptions) -> (Database, MockClock) {
    blade_db_with(opts, DatabaseOptions::default())
}

fn blade_db_with(opts: GrTreeAmOptions, db_opts: DatabaseOptions) -> (Database, MockClock) {
    let clock = MockClock::new(month(1, 1997));
    let db = Database::new(DatabaseOptions {
        clock: Arc::new(clock.clone()),
        ..db_opts
    });
    install_grtree_blade(&db, opts).unwrap();
    (db, clock)
}

fn small_tree_opts() -> GrTreeAmOptions {
    GrTreeAmOptions {
        tree: GrTreeOptions {
            max_entries: 8,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Plays the paper's Table 1 history; leaves the clock at 9/97.
fn play_empdep(conn: &Connection, clock: &MockClock) {
    conn.exec("CREATE TABLE Employees (Name text, Department text, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec(
        "CREATE INDEX grt_index ON Employees(Time_Extent grt_opclass) USING grtree_am IN spc",
    )
    .unwrap();
    let ins = |name: &str, dept: &str, extent: &str| {
        conn.exec(&format!(
            "INSERT INTO Employees VALUES ('{name}', '{dept}', '{extent}')"
        ))
        .unwrap();
    };
    clock.set(month(3, 1997));
    ins("Tom", "Management", "3/97, UC, 6/97, 8/97");
    ins("Julie", "Sales", "3/97, UC, 3/97, NOW");
    clock.set(month(4, 1997));
    ins("John", "Advertising", "4/97, UC, 3/97, 5/97");
    clock.set(month(5, 1997));
    ins("Jane", "Sales", "5/97, UC, 5/97, NOW");
    ins("Michelle", "Management", "5/97, UC, 3/97, NOW");
    clock.set(month(8, 1997));
    conn.exec(
        "UPDATE Employees SET Time_Extent = '3/97, 07/31/1997, 6/97, 8/97' WHERE Name = 'Tom'",
    )
    .unwrap();
    conn.exec(
        "UPDATE Employees SET Time_Extent = '3/97, 07/31/1997, 3/97, NOW' WHERE Name = 'Julie'",
    )
    .unwrap();
    ins("Julie", "Sales", "8/97, UC, 3/97, 7/97");
    clock.set(month(9, 1997));
}

fn empdep_extents() -> Vec<(&'static str, TimeExtent)> {
    let parse = |s: &str| TimeExtent::parse(s).unwrap();
    vec![
        ("John", parse("4/97, UC, 3/97, 5/97")),
        ("Tom", parse("3/97, 07/31/1997, 6/97, 8/97")),
        ("Jane", parse("5/97, UC, 5/97, NOW")),
        ("Julie (1)", parse("3/97, 07/31/1997, 3/97, NOW")),
        ("Julie (2)", parse("8/97, UC, 3/97, 7/97")),
        ("Michelle", parse("5/97, UC, 3/97, NOW")),
    ]
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

fn table1() {
    println!("Table 1: the EmpDep relation, built through SQL with a GR-tree index\n");
    let (db, clock) = blade_db(small_tree_opts());
    let conn = db.connect();
    play_empdep(&conn, &clock);
    let r = conn
        .exec("SELECT Name, Department, Time_Extent FROM Employees")
        .unwrap();
    println!("{}", r.to_table());
    println!(
        "(CT = 9/97; month values are first-of-month days, so a logical\n\
         deletion at 8/97 stamps TTend = 07/31/1997, the paper's '7/97'.)"
    );
}

// ---------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------

fn ascii_region(extent: &TimeExtent, ct: Day) -> String {
    let region = extent.region(ct);
    let cell = |m_t: u32, m_v: u32| {
        let t = month(m_t, 1997);
        let v = month(m_v, 1997);
        if region.contains_point(t, v) {
            '#'
        } else if m_t == m_v {
            '.'
        } else {
            ' '
        }
    };
    let mut out = String::new();
    for m_v in (1..=12).rev() {
        out.push_str(&format!("{m_v:>2}|"));
        for m_t in 1..=12 {
            out.push(cell(m_t, m_v));
        }
        out.push('\n');
    }
    out.push_str("   ");
    out.push_str(&"-".repeat(12));
    out.push_str("\n    month of 1997 (tt ->, vt ^); '#' in region, '.' vt = tt diagonal\n");
    out
}

fn fig1() {
    println!("Figure 1: bitemporal regions of the EmpDep tuples at CT = 9/97\n");
    let ct = month(9, 1997);
    for (name, extent) in empdep_extents() {
        println!(
            "{name}: ({extent})  ->  {} [{}]",
            extent.region(ct),
            extent.case()
        );
        println!("{}", ascii_region(&extent, ct));
    }
    let later = month(12, 1997);
    println!("Growth between 9/97 and 12/97 (now-relative regions keep extending):");
    for (name, extent) in empdep_extents() {
        let grew = extent.region(later).area() > extent.region(ct).area();
        println!("  {name:<12} grew: {grew}");
    }
}

// ---------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------

fn fig2() {
    println!("Figure 2: possible combinations of time attributes (derived)\n");
    let mut t = Table::new(&["", "TTbegin", "TTend", "VTbegin", "VTend", "constraint"]);
    let combos = [
        (Case::Case1, "tt1", "UC", "vt1", "vt2", ""),
        (Case::Case2, "tt1", "tt2", "vt1", "vt2", ""),
        (Case::Case3, "tt1", "UC", "vt1", "NOW", "(tt1 = vt1)"),
        (Case::Case4, "tt1", "tt2", "vt1", "NOW", "(tt1 = vt1)"),
        (Case::Case5, "tt1", "UC", "vt1", "NOW", "(tt1 > vt1)"),
        (Case::Case6, "tt1", "tt2", "vt1", "NOW", "(tt1 > vt1)"),
    ];
    for (case, a, b, c, d, e) in combos {
        let witness = match case {
            Case::Case1 => {
                TimeExtent::from_parts(Day(10), TtEnd::Uc, Day(5), VtEnd::Ground(Day(8)))
            }
            Case::Case2 => TimeExtent::from_parts(
                Day(10),
                TtEnd::Ground(Day(20)),
                Day(5),
                VtEnd::Ground(Day(8)),
            ),
            Case::Case3 => TimeExtent::from_parts(Day(10), TtEnd::Uc, Day(10), VtEnd::Now),
            Case::Case4 => {
                TimeExtent::from_parts(Day(10), TtEnd::Ground(Day(20)), Day(10), VtEnd::Now)
            }
            Case::Case5 => TimeExtent::from_parts(Day(10), TtEnd::Uc, Day(7), VtEnd::Now),
            Case::Case6 => {
                TimeExtent::from_parts(Day(10), TtEnd::Ground(Day(20)), Day(7), VtEnd::Now)
            }
        }
        .unwrap();
        assert_eq!(witness.case(), case, "classification mismatch");
        t.push(&[&format!("{case}"), a, b, c, d, e]);
    }
    println!("{t}");
    println!("Every row verified against TimeExtent::case() with a witness extent.");
}

// ---------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------

fn fig3() {
    println!("Figure 3: an R*-tree whose query rectangle overlaps two node MBRs\nbut finds qualifying data in only one\n");
    let (sb, mut tree) = grt_bench::fresh_rstar_tree(1024, 4);
    let data = [
        Rect2::new(0, 10, 0, 8),
        Rect2::new(2, 6, 20, 28),
        Rect2::new(12, 22, 2, 12),
        Rect2::new(60, 72, 50, 58),
        Rect2::new(64, 70, 70, 82),
        Rect2::new(80, 92, 60, 66),
    ];
    for (i, r) in data.iter().enumerate() {
        tree.insert(*r, i as u64).unwrap();
    }
    let root = tree.read_node(tree.root_page()).unwrap();
    let mut t = Table::new(&["node", "MBR", "entries", "dead space", "overlap"]);
    for (i, e) in root.entries.iter().enumerate() {
        let child = tree.read_node(e.payload as u32).unwrap();
        let covered: i128 = child.entries.iter().map(|c| c.rect.area()).sum();
        let overlap = grt_rstar::stats::pairwise_overlap(
            &child.entries.iter().map(|c| c.rect).collect::<Vec<_>>(),
        );
        t.push(&[
            format!("R{}", i + 1),
            e.rect.to_string(),
            child.entries.len().to_string(),
            (e.rect.area() - covered).max(0).to_string(),
            overlap.to_string(),
        ]);
    }
    println!("{t}");
    let query = Rect2::new(8, 16, 14, 18);
    let before = sb.stats().snapshot();
    let hits = tree.search(SpatialPredicate::Overlap, &query).unwrap();
    let reads = sb.stats().snapshot().since(&before).logical_reads;
    println!(
        "query {query}: visited {reads} nodes (logical reads), {} qualifying entries",
        hits.len()
    );
    println!(
        "-> the query overlapped {} of the root's MBRs but matched {} objects:\n\
         dead space and overlap cause page accesses that find nothing —\n\
         the 'goodness' criteria of Section 3.",
        root.entries
            .iter()
            .filter(|e| e.rect.overlaps(&query))
            .count(),
        hits.len()
    );
}

// ---------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------

fn table2() {
    println!("Table 2: tasks of the access-method purpose functions, from SYSAMS\n");
    let (db, _clock) = blade_db(small_tree_opts());
    let (_, rows) = db.catalog_dump("sysams").unwrap();
    let bindings = rows[0][1].to_string();
    let groups: [(&str, &[&str]); 7] = [
        ("Creating and dropping an index", &["am_create", "am_drop"]),
        ("Opening and closing an index", &["am_open", "am_close"]),
        (
            "Scanning an index for qualifying records",
            &["am_beginscan", "am_endscan", "am_rescan", "am_getnext"],
        ),
        (
            "Adding, deleting, and updating records",
            &["am_insert", "am_delete", "am_update"],
        ),
        ("Determining the cost for a scan", &["am_scancost"]),
        ("Updating statistics", &["am_stats"]),
        ("Checking index consistency", &["am_check"]),
    ];
    let mut t = Table::new(&["Task", "Purpose functions (slot = registered UDR)"]);
    for (task, slots) in groups {
        let fns: Vec<String> = slots
            .iter()
            .map(|s| {
                bindings
                    .split(", ")
                    .find(|b| b.starts_with(&format!("{s}=")))
                    .map(|b| b.to_string())
                    .unwrap_or_else(|| format!("{s}=?"))
            })
            .collect();
        t.push(&[task.to_string(), fns.join(", ")]);
    }
    println!("{t}");
}

// ---------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------

fn fig4() {
    println!("Figure 4: minimum bounding regions of three node contents\n");
    let ct = Day(100);
    let leaf = |ttb: i32, tte: Option<i32>, vtb: i32, vte: Option<i32>| {
        RegionSpec::leaf(
            Day(ttb),
            tte.map_or(TtEnd::Uc, |x| TtEnd::Ground(Day(x))),
            Day(vtb),
            vte.map_or(VtEnd::Now, |x| VtEnd::Ground(Day(x))),
        )
    };
    let cases = [
        (
            "(a) growing stair + rectangle above the diagonal",
            vec![leaf(50, None, 50, None), leaf(60, Some(80), 0, Some(95))],
        ),
        (
            "(b) regions all under the y = x line",
            vec![leaf(10, Some(60), 10, None), leaf(20, None, 15, None)],
        ),
        (
            "(c) small growing stair hidden in a tall fixed rectangle",
            vec![leaf(50, None, 50, None), leaf(60, Some(80), 0, Some(200))],
        ),
    ];
    let mut t = Table::new(&[
        "node content",
        "bound",
        "Rect",
        "Hidden",
        "resolved at ct=100",
    ]);
    for (name, children) in &cases {
        let b = bound_entries(children, ct);
        t.push(&[
            name.to_string(),
            b.to_string(),
            b.rect.to_string(),
            b.hidden.to_string(),
            b.resolve(ct).to_string(),
        ]);
    }
    println!("{t}");
    let (_, children) = &cases[2];
    let b = bound_entries(children, ct);
    if let VtEnd::Ground(v) = b.vt_end {
        println!(
            "the hidden stair outgrows its rectangle after day {}; the Hidden\n\
             adjustment then treats the entry as growing:",
            v.0
        );
        println!("  at day {}: {}", v.0, b.resolve(v));
        println!("  at day {}: {}", v.0 + 1, b.resolve(v.succ()));
    }
}

// ---------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------

fn dump_gr(tree: &grt_grtree::GrTree, page: u32, depth: usize, ct: Day) {
    let node = tree.read_node(page).unwrap();
    let pad = "  ".repeat(depth);
    match node {
        GrNode::Leaf(entries) => {
            println!("{pad}leaf p{page}:");
            for e in entries {
                println!("{pad}  ({}) -> row {}", e.extent, e.rowid);
            }
        }
        GrNode::Internal { level, entries } => {
            println!("{pad}internal p{page} (level {level}):");
            for e in entries {
                println!(
                    "{pad}  {} [Rect={} Hidden={}] -> p{}  resolves to {}",
                    e.spec,
                    e.spec.rect,
                    e.spec.hidden,
                    e.child,
                    e.spec.resolve(ct)
                );
                dump_gr(tree, e.child, depth + 2, ct);
            }
        }
    }
}

fn fig5() {
    println!("Figure 5: GR-tree structure over the EmpDep extents (fan-out 4)\n");
    let ct = month(9, 1997);
    let (_sb, mut tree) = grt_bench::fresh_gr_tree(1024, 4);
    for (i, (_, e)) in empdep_extents().into_iter().enumerate() {
        tree.insert(e, i as u64, ct).unwrap();
    }
    for i in 0..8 {
        let e = TimeExtent::insert(ct, month(9, 1997).plus(-i * 15), VtEnd::Now).unwrap();
        tree.insert(e, 100 + i as u64, ct).unwrap();
    }
    tree.check(ct).unwrap();
    dump_gr(&tree, tree.root_page(), 0, ct);
    let q = tree.quality(ct).unwrap();
    println!(
        "\nbounds: {} stair, {} hidden, {} growing-rectangle (of {} internal entries)",
        q.stair_bounds,
        q.hidden_bounds,
        q.growing_rect_bounds,
        q.levels.iter().skip(1).map(|l| l.entries).sum::<u64>()
    );
}

// ---------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------

fn fig6() {
    println!("Figure 6: purpose functions called for INSERT and SELECT\n");
    let (db, clock) = blade_db(small_tree_opts());
    let conn = db.connect();
    play_empdep(&conn, &clock);
    let trace = db.trace();
    trace.on("AM", 1);
    trace.take();
    conn.exec("INSERT INTO Employees VALUES ('Kai', 'Sales', '9/97, UC, 9/97, NOW')")
        .unwrap();
    let insert_calls: Vec<String> = trace.take().into_iter().map(|e| e.message).collect();
    println!("(a) INSERT:  {}", insert_calls.join(" -> "));
    conn.exec("SELECT Name FROM Employees WHERE Overlaps(Time_Extent, '3/97, UC, 3/97, NOW')")
        .unwrap();
    let select_calls: Vec<String> = trace.take().into_iter().map(|e| e.message).collect();
    println!("(b) SELECT:  {}", select_calls.join(" -> "));
    println!("\n(grt_scancost precedes the scan: the optimizer prices the virtual\nindex before choosing it.)");
}

// ---------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------

fn fig7() {
    println!("Figure 7: one access method, several operator classes\n");
    let (db, _clock) = blade_db(small_tree_opts());
    let conn = db.connect();
    conn.exec("CREATE OPCLASS grt_overlap_only FOR grtree_am STRATEGIES(Overlaps)")
        .unwrap();
    let (hdr, rows) = db.catalog_dump("sysopclasses").unwrap();
    let mut t = Table::new(&hdr.iter().map(String::as_str).collect::<Vec<_>>());
    for r in rows {
        let cells: Vec<String> = r.iter().map(|v| v.to_string()).collect();
        t.row(&cells);
    }
    println!("{t}");
    println!(
        "An index created with grt_overlap_only will not serve Equal()\n\
         queries — and (Section 5.2) there is no way to tell the optimizer\n\
         that Equal implies Overlaps: only negator/commutator links exist."
    );
}

// ---------------------------------------------------------------------
// Table 3 + Figure 8
// ---------------------------------------------------------------------

fn table3() {
    println!("Table 3 / Figure 8: why the intervals cannot be checked separately\n");
    let (db, clock) = blade_db(small_tree_opts());
    let conn = db.connect();
    play_empdep(&conn, &clock);
    let julie = TimeExtent::parse("3/97, 07/31/1997, 3/97, NOW").unwrap();
    let ct = month(9, 1997);
    println!(
        "Julie's record: ({julie}), a stopped stair at CT = 9/97: {}",
        julie.region(ct)
    );
    println!("Query: who worked in Sales during 7/97, as known during 5/97?");
    println!("       the bitemporal point (tt = 5/97, vt = 7/97)\n");
    let tt_q = month(5, 1997);
    let vt_q = month(7, 1997);
    let tt_overlap = julie.tt_begin <= tt_q
        && tt_q
            <= match julie.tt_end {
                TtEnd::Ground(d) => d,
                TtEnd::Uc => ct,
            };
    let vt_overlap = julie.vt_begin <= vt_q
        && vt_q
            <= match julie.vt_end {
                VtEnd::Ground(d) => d,
                VtEnd::Now => ct,
            };
    println!(
        "decomposed f1(transaction) AND f2(valid): tt overlap = {tt_overlap}, \
         vt overlap = {vt_overlap} -> Julie WRONGLY included"
    );
    let exact = Predicate::Overlaps.eval(
        &julie,
        &TimeExtent::parse("5/97, 5/97, 7/97, 7/97").unwrap(),
        ct,
    );
    println!("exact bitemporal Overlaps on the stair shape: {exact} -> Julie excluded");
    let q = "SELECT Name FROM Employees \
             WHERE Overlaps(Time_Extent, '5/97, 5/97, 7/97, 7/97') AND Department = 'Sales'";
    let with_index = conn.exec(q).unwrap();
    conn.exec("DROP INDEX grt_index").unwrap();
    let without = conn.exec(q).unwrap();
    println!(
        "SQL with GR-tree index: {} rows; sequential scan: {} rows (both empty, both correct)",
        with_index.rows.len(),
        without.rows.len()
    );
}

// ---------------------------------------------------------------------
// Table 4
// ---------------------------------------------------------------------

fn table4() {
    println!("Table 4: implementation tasks — the paper's C/C++ prototype vs this reproduction\n");
    let loc = |src: &str| src.lines().filter(|l| !l.trim().is_empty()).count();
    let rows: [(&str, &str, &str, usize); 6] = [
        (
            "Opaque type structure + UC/NOW support functions",
            "average+low",
            "30",
            loc(include_str!("../../../blade/src/extent_type.rs"))
                + loc(include_str!("../../../temporal/src/extent.rs")),
        ),
        (
            "Operations on the opaque type (strategy predicates)",
            "low",
            "30",
            loc(include_str!("../../../temporal/src/predicate.rs")),
        ),
        (
            "Access method purpose functions",
            "high",
            "1020",
            loc(include_str!("../../../blade/src/tree_am.rs"))
                + loc(include_str!("../../../blade/src/purpose.rs"))
                + loc(include_str!("../../../blade/src/grtree_am.rs")),
        ),
        (
            "BLOB manipulation functions",
            "average",
            "280",
            loc(include_str!("../../../sbspace/src/space.rs")),
        ),
        (
            "Qualification-descriptor manipulation",
            "average",
            "120",
            loc(include_str!("../../../blade/src/qual.rs")),
        ),
        (
            "The GR-tree core itself (pre-existing C++ in the paper)",
            "high",
            "n/a",
            loc(include_str!("../../../grtree/src/key.rs"))
                + loc(include_str!("../../../grtree/src/entry.rs"))
                + loc(include_str!("../../../treekit/src/tree.rs"))
                + loc(include_str!("../../../treekit/src/cursor.rs")),
        ),
    ];
    let mut t = Table::new(&["Task", "Paper complexity", "Paper LOC", "This repo LOC"]);
    for (task, cx, ploc, rloc) in rows {
        t.push(&[
            task.to_string(),
            cx.to_string(),
            ploc.to_string(),
            rloc.to_string(),
        ]);
    }
    println!("{t}");
    println!("(Rust LOC include tests and doc comments; the paper counted bare C.)");
}

// ---------------------------------------------------------------------
// Table 5
// ---------------------------------------------------------------------

fn table5() {
    println!("Table 5: observed steps of each grt_* purpose function (trace class GRT)\n");
    let (db, clock) = blade_db(small_tree_opts());
    let conn = db.connect();
    let trace = db.trace();
    trace.on("GRT", 2);
    play_empdep(&conn, &clock);
    conn.exec("SELECT Name FROM Employees WHERE Overlaps(Time_Extent, '3/97, UC, 3/97, NOW')")
        .unwrap();
    conn.exec("DELETE FROM Employees WHERE Equal(Time_Extent, '5/97, UC, 5/97, NOW')")
        .unwrap();
    conn.exec("DROP INDEX grt_index").unwrap();
    let mut by_fn: Vec<(String, Vec<String>)> = Vec::new();
    for ev in trace.take() {
        let (f, step) = ev.message.split_once(": ").unwrap_or((&ev.message, ""));
        match by_fn.iter_mut().find(|(name, _)| name == f) {
            Some((_, steps)) => {
                if !steps.contains(&step.to_string()) {
                    steps.push(step.to_string());
                }
            }
            None => by_fn.push((f.to_string(), vec![step.to_string()])),
        }
    }
    for (f, steps) in by_fn {
        println!("{f}:");
        for s in steps {
            println!("   {s}");
        }
    }
}

// ---------------------------------------------------------------------
// Performance-shape experiments
// ---------------------------------------------------------------------

fn standard_history(frac: f64) -> History {
    History::generate(HistoryParams {
        inserts: 3000,
        now_relative_fraction: frac,
        delete_rate: 0.3,
        days_per_insert: 1,
        seed: 11,
        ..Default::default()
    })
}

fn standard_queries(h: &History) -> Vec<TimeExtent> {
    QuerySet::generate(
        QueryParams {
            count: 150,
            kind: QueryKind::Window,
            tt_range: (h.params.start, h.end),
            window: 20,
            seed: 5,
        },
        h.end,
    )
    .queries
}

fn perf_search() {
    println!("perf-search: search cost vs fraction of now-relative data\n");
    println!(
        "(3000-insert histories, 150 window queries; baseline reads include one\n\
         base-table fetch per refinement candidate)\n"
    );
    let mut t = Table::new(&[
        "now-frac",
        "GR reads/q",
        "MaxTS reads/q",
        "Horizon reads/q",
        "GR cand/res",
        "MaxTS cand/res",
        "results/q",
    ]);
    for frac in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let h = standard_history(frac);
        let queries = standard_queries(&h);
        let ct = h.end;
        let gr = apply_history_gr(&h, 1 << 16, 42);
        let maxts = apply_history_rstar(&h, NowStrategy::MaxTimestamp, 1 << 16, 42);
        let horizon = apply_history_rstar(&h, NowStrategy::Horizon { slack: 365 }, 1 << 16, 42);
        let a = run_queries_gr(&gr, &queries, ct);
        let b = run_queries_rstar(&maxts, &queries, ct);
        let c = run_queries_rstar(&horizon, &queries, ct);
        assert_eq!(a.results, b.results, "answer mismatch at frac {frac}");
        assert_eq!(a.results, c.results, "answer mismatch at frac {frac}");
        t.push(&[
            format!("{frac:.2}"),
            format!("{:.1}", a.reads_per_query()),
            format!("{:.1}", b.reads_per_query()),
            format!("{:.1}", c.reads_per_query()),
            format!("{:.2}", a.candidate_ratio()),
            format!("{:.2}", b.candidate_ratio()),
            format!("{:.1}", a.results as f64 / a.queries as f64),
        ]);
    }
    println!("{t}");
    println!(
        "Shape check (the GR-tree paper's claim): the GR-tree's cost stays flat\n\
         as the now-relative fraction rises; the max-timestamp baseline degrades\n\
         because every open tuple becomes an end-of-time rectangle; the horizon\n\
         baseline stays close on reads but pays refresh writes (see perf-insert)."
    );
}

fn perf_insert() {
    println!("perf-insert: maintenance cost of the same history\n");
    let mut t = Table::new(&[
        "now-frac",
        "GR writes",
        "MaxTS writes",
        "Horizon writes",
        "Horizon refreshes",
    ]);
    for frac in [0.0, 0.5, 1.0] {
        let h = standard_history(frac);
        let gr = apply_history_gr(&h, 1 << 16, 42);
        let maxts = apply_history_rstar(&h, NowStrategy::MaxTimestamp, 1 << 16, 42);
        let horizon = apply_history_rstar(&h, NowStrategy::Horizon { slack: 365 }, 1 << 16, 42);
        t.push(&[
            format!("{frac:.2}"),
            gr.build_writes.to_string(),
            maxts.build_writes.to_string(),
            horizon.build_writes.to_string(),
            horizon.refreshed_entries.to_string(),
        ]);
    }
    println!("{t}");
    println!("The horizon baseline's extra writes are the periodic refreshes the\nGR-tree never needs: its entries grow in place.");
}

fn perf_quality() {
    println!("perf-quality: dead space and overlap (Section 3's goodness criteria)\n");
    let mut t = Table::new(&[
        "now-frac",
        "GR dead",
        "GR overlap",
        "MaxTS dead",
        "MaxTS overlap",
        "GR pages",
        "MaxTS pages",
    ]);
    for frac in [0.0, 0.5, 1.0] {
        let h = standard_history(frac);
        let ct = h.end;
        let gr = apply_history_gr(&h, 1 << 16, 42);
        let maxts = apply_history_rstar(&h, NowStrategy::MaxTimestamp, 1 << 16, 42);
        let gq = gr.tree.quality(ct).unwrap();
        let rq = maxts.tree.quality().unwrap();
        t.push(&[
            format!("{frac:.2}"),
            gq.total_dead_space().to_string(),
            gq.total_overlap().to_string(),
            rq.total_dead_space().to_string(),
            rq.total_overlap().to_string(),
            gr.tree.pages().to_string(),
            maxts.tree.pages().to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "Max-timestamp rectangles reach the end of time, so dead space and\n\
         overlap explode with the now-relative fraction, while the GR-tree's\n\
         stair and hidden bounds track the data."
    );
}

fn perf_pool() {
    println!("perf-pool: physical reads per query vs buffer-pool size\n");
    println!("(0.75 now-relative history; physical reads = pool misses, the\ndisk-I/O proxy; logical behaviour is unchanged)\n");
    let h = standard_history(0.75);
    let queries = standard_queries(&h);
    let ct = h.end;
    let mut t = Table::new(&[
        "pool pages",
        "GR phys/q",
        "MaxTS phys/q",
        "GR pages",
        "MaxTS pages",
    ]);
    for pool in [32usize, 64, 128, 1 << 16] {
        let gr = apply_history_gr(&h, pool, 42);
        let maxts = apply_history_rstar(&h, NowStrategy::MaxTimestamp, pool, 42);
        let a = run_queries_gr(&gr, &queries, ct);
        let b = run_queries_rstar(&maxts, &queries, ct);
        assert_eq!(a.results, b.results);
        t.push(&[
            if pool == 1 << 16 {
                "unbounded".to_string()
            } else {
                pool.to_string()
            },
            format!("{:.1}", a.physical_reads as f64 / a.queries as f64),
            format!("{:.1}", b.physical_reads as f64 / b.queries as f64),
            gr.tree.pages().to_string(),
            maxts.tree.pages().to_string(),
        ]);
    }
    println!("{t}");
    println!("With a small pool the baseline's broader traversals also miss the\ncache more: the logical-read gap becomes a physical-read gap.");
}

fn abl_delete() {
    println!("abl-delete: scan-restart policies during index-driven deletion (Section 5.5)\n");
    let default_batch = DatabaseOptions::default().scan_batch_rows;
    for (batch, title) in [
        (default_batch, "the default batch"),
        (1, "the paper's one-row am_getnext"),
    ] {
        println!("scan_batch_rows = {batch} ({title}):\n");
        let mut t = Table::new(&["policy", "logical reads", "getnext calls", "result"]);
        let mut reads = Vec::new();
        for (name, policy) in [
            (
                "restart-on-condense (paper)",
                DeletePolicy::RestartOnCondense,
            ),
            ("restart-always", DeletePolicy::RestartAlways),
        ] {
            let (logical_reads, getnexts, result) = indexed_delete(policy, batch);
            reads.push(logical_reads);
            t.push(&[
                name.to_string(),
                logical_reads.to_string(),
                getnexts.to_string(),
                result,
            ]);
        }
        println!("{t}");
        if batch == 1 {
            assert!(
                reads[1] > reads[0],
                "at one row per getnext, restart-always must re-descend more: {reads:?}"
            );
        }
    }
    println!(
        "Restart-always re-traverses from the root after every deletion;\n\
         restart-on-condense only when the tree actually condensed. A batch\n\
         drains many rows before the first deletion, so both policies restart\n\
         equally often; one row per call restores the paper's trade-off."
    );
}

/// Deletes the rows of a 400-row GR-tree-indexed table that overlap a
/// window in 2000, through the index under `policy`, fetching `batch`
/// rows per getnext; returns the statement's logical reads, its getnext
/// calls and its status message.
fn indexed_delete(policy: DeletePolicy, batch: usize) -> (u64, usize, String) {
    let (db, clock) = blade_db_with(
        GrTreeAmOptions {
            tree: GrTreeOptions {
                max_entries: 8,
                ..Default::default()
            },
            delete_policy: policy,
            ..Default::default()
        },
        DatabaseOptions {
            scan_batch_rows: batch,
            ..Default::default()
        },
    );
    let conn = db.connect();
    conn.exec("CREATE TABLE t (id integer, pad text, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    // Wide rows make the heap big enough that the optimizer picks
    // the index path (as it would on a real table).
    let pad = "x".repeat(400);
    for i in 0..400i32 {
        let day = Day(11_000 + i);
        clock.set(day);
        conn.exec(&format!(
            "INSERT INTO t VALUES ({i}, '{pad}', '{day}, UC, {day}, NOW')"
        ))
        .unwrap();
    }
    clock.set(Day(12_000));
    let trace = db.trace();
    trace.on("AM", 1);
    trace.take();
    let before = db.io_stats().snapshot();
    let r = conn
        .exec(
            "DELETE FROM t WHERE Overlaps(Time_Extent, \
             '02/18/2000, 12/31/2000, 02/01/2000, 12/31/2000')",
        )
        .unwrap();
    let delta = db.io_stats().snapshot().since(&before);
    let getnexts = trace
        .take()
        .into_iter()
        .filter(|e| matches!(e.message.as_str(), "grt_getnext" | "grt_getnext_batch"))
        .count();
    assert!(getnexts > 0, "the DELETE must run through the index");
    (delta.logical_reads, getnexts, r.message)
}

fn abl_dispatch() {
    println!(
        "abl-dispatch: dynamic UDR dispatch vs the blade's hard-coded strategy\n\
         call (Section 5.2), one Overlaps query over 512 extents run both ways\n"
    );
    let (db, clock) = blade_db(GrTreeAmOptions::default());
    clock.set(Day(11_900));
    let conn = db.connect();
    conn.exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    let rows = 512;
    for i in 0..rows {
        let base = Day(11_000 + (i * 13) % 500);
        let tt_end = match i % 2 {
            0 => TtEnd::Uc,
            _ => TtEnd::Ground(Day(base.0 + 20)),
        };
        let vt_end = match i % 3 {
            0 => VtEnd::Now,
            _ => VtEnd::Ground(Day(base.0 + 30)),
        };
        let extent = TimeExtent::from_parts(base, tt_end, Day(base.0 - i % 7), vt_end).unwrap();
        conn.exec(&format!("INSERT INTO t VALUES ({i}, '{extent}')"))
            .unwrap();
    }
    let query = "SELECT id FROM t WHERE Overlaps(Time_Extent, \
                 '04/01/2000, 04/10/2000, 04/01/2000, 04/10/2000')";
    let mut t = Table::new(&[
        "path",
        "rows out",
        "ids.udr_calls",
        "udr calls / table row",
        "ids.udr_resolutions",
        "grtree.nodes_visited",
        "am.am_getnext_batch",
    ]);
    let mut run = |name: &str, plan: &str| {
        let before = db.metrics_snapshot();
        let r = conn.exec(query).unwrap();
        let d = db.metrics_snapshot().since(&before);
        assert_eq!(d.get(plan), 1, "{name} must plan as {plan}");
        let mut ids: Vec<String> = r.text().iter().map(|row| row[0].clone()).collect();
        ids.sort();
        t.push(&[
            name.to_string(),
            ids.len().to_string(),
            d.get("ids.udr_calls").to_string(),
            format!("{:.2}", d.get("ids.udr_calls") as f64 / f64::from(rows)),
            d.get("ids.udr_resolutions").to_string(),
            d.get("grtree.nodes_visited").to_string(),
            d.get("am.am_getnext_batch").to_string(),
        ]);
        ids
    };
    let scanned = run("sequential scan (UDR dispatch)", "ids.plans_seq");
    conn.exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    let indexed = run("GR-tree index (hard-coded)", "ids.plans_index");
    assert_eq!(scanned, indexed, "both paths must return the same rows");
    println!("{t}");
    println!(
        "The sequential scan evaluates Overlaps once per row through the UDR\n\
         registry: each call looks up the session's memo of routine resolutions\n\
         (ids.udr_resolutions counts the registry searches the memo missed),\n\
         coerces its arguments and calls through a boxed function. The index\n\
         evaluates the same predicate inside the tree as a statically dispatched\n\
         key method, and only on the entries of the nodes it visits — the\n\
         hard-coding the paper chose for its internal-region functions."
    );
}

fn abl_storage() {
    println!("abl-storage: large-object granularity (the Section 5.3 design space)\n");
    println!(
        "The index is partitioned across K large objects (one subtree each);\n\
         K = 1 is the paper's choice, large K approaches LO-per-node.\n\
         Costs for a 3000-insert build plus 150 queries:\n"
    );
    let h = standard_history(0.5);
    let queries = standard_queries(&h);
    let ct = h.end;
    let mut t = Table::new(&["LOs", "lo opens", "logical reads", "pointer bytes"]);
    for k in [1usize, 4, 16] {
        let sb = grt_sbspace::Sbspace::mem(grt_sbspace::SbspaceOptions {
            pool_pages: 1 << 16,
            ..Default::default()
        });
        let txn = sb.begin(Default::default());
        let mut trees = Vec::new();
        for _ in 0..k {
            let lo = sb.create_lo(&txn).unwrap();
            let handle = sb
                .open_lo(&txn, lo, grt_sbspace::LockMode::Exclusive)
                .unwrap();
            trees.push(
                grt_grtree::GrTree::create(
                    handle,
                    GrTreeOptions {
                        max_entries: 42,
                        ..Default::default()
                    },
                )
                .unwrap(),
            );
        }
        std::mem::forget(txn);
        let before = sb.stats().snapshot();
        for (day, ev) in &h.events {
            match ev {
                grt_workload::HistoryEvent::Insert { id, extent } => {
                    trees[(*id as usize) % k]
                        .insert(*extent, *id, *day)
                        .unwrap();
                }
                grt_workload::HistoryEvent::LogicalDelete { id, old, new } => {
                    let tr = &mut trees[(*id as usize) % k];
                    assert!(tr.delete(old, *id, *day).unwrap().found);
                    tr.insert(*new, *id, *day).unwrap();
                }
            }
        }
        for q in &queries {
            for tr in &trees {
                let _ = tr.search(Predicate::Overlaps, q, ct).unwrap();
            }
        }
        let delta = sb.stats().snapshot().since(&before);
        let ptr_bytes = if k == 1 { 4 } else { 8 };
        t.push(&[
            k.to_string(),
            (delta.lo_opens + (queries.len() * k) as u64).to_string(),
            delta.logical_reads.to_string(),
            ptr_bytes.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "More LOs mean finer locking (writers on different partitions take\n\
         different LO locks), but every statement must open every partition,\n\
         and cross-LO child pointers are 'relatively large' — the paper's\n\
         argument against LO-per-node."
    );
}

fn abl_bounds() {
    println!("abl-bounds: the GR-tree's stair/hidden bounds vs plain growing\nrectangles (what a NOW-aware index without the stair encoding would use)\n");
    let mut t = Table::new(&[
        "now-frac",
        "GR reads/q",
        "rect-only reads/q",
        "GR dead",
        "rect-only dead",
        "GR stair bounds",
    ]);
    for frac in [0.5, 1.0] {
        let h = standard_history(frac);
        let queries = standard_queries(&h);
        let ct = h.end;
        let gr = apply_history_gr(&h, 1 << 16, 42);
        let rect_only = grt_bench::apply_history_gr_opts(
            &h,
            1 << 16,
            GrTreeOptions {
                max_entries: 42,
                rectangle_only: true,
                ..Default::default()
            },
        );
        let a = run_queries_gr(&gr, &queries, ct);
        let b = run_queries_gr(&rect_only, &queries, ct);
        assert_eq!(a.results, b.results, "ablation must not change answers");
        let gq = gr.tree.quality(ct).unwrap();
        let rq = rect_only.tree.quality(ct).unwrap();
        t.push(&[
            format!("{frac:.2}"),
            format!("{:.1}", a.reads_per_query()),
            format!("{:.1}", b.reads_per_query()),
            gq.total_dead_space().to_string(),
            rq.total_dead_space().to_string(),
            gq.stair_bounds.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "Growing-rectangle bounds cover the triangle above the diagonal that\n\
         no stair-shaped data ever occupies: pure dead space, more subtree\n\
         visits — the structural reason 'the GR-tree is better' (Section 3)."
    );
}

fn abl_timeparam() {
    println!("abl-timeparam: the GR-tree insertion algorithms' time parameter\n");
    let mut t = Table::new(&["time_param (days)", "reads/q", "dead space", "overlap"]);
    let h = standard_history(0.8);
    let queries = standard_queries(&h);
    let ct = h.end;
    for tp in [0u32, 30, 120, 365] {
        let fx = grt_bench::apply_history_gr_opts(
            &h,
            1 << 16,
            GrTreeOptions {
                max_entries: 42,
                time_param: tp,
                ..Default::default()
            },
        );
        let a = run_queries_gr(&fx, &queries, ct);
        let q = fx.tree.quality(ct).unwrap();
        t.push(&[
            tp.to_string(),
            format!("{:.1}", a.reads_per_query()),
            q.total_dead_space().to_string(),
            q.total_overlap().to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "Penalties evaluated at ct + time_param charge growing entries for\n\
         their near-future extent; 0 reproduces a growth-blind R*-tree\n\
         placement, large values over-penalise growers."
    );
}

fn abl_curtime() {
    println!("abl-curtime: when is the current time sampled? (Section 5.4)\n");
    let clock = MockClock::new(Day(1000));
    let mut ctx = grt_ids::AmContext::for_tests();
    ctx.clock = Arc::new(clock.clone());
    use grt_blade::curtime::resolve_current_time;
    use grt_ids::session::MemDuration;
    let mut t = Table::new(&[
        "policy",
        "sample 1",
        "clock +1, same stmt",
        "new stmt, clock +2",
        "after txn end",
    ]);
    for (name, policy) in [
        ("per-call", CurrentTimePolicy::PerCall),
        ("per-statement", CurrentTimePolicy::PerStatement),
        ("per-transaction", CurrentTimePolicy::PerTransaction),
    ] {
        clock.set(Day(1000));
        ctx.session.clear_duration(MemDuration::PerStatement);
        ctx.session.clear_duration(MemDuration::PerTransaction);
        let s1 = resolve_current_time(policy, &ctx).0;
        clock.advance(1);
        let s2 = resolve_current_time(policy, &ctx).0;
        ctx.session.clear_duration(MemDuration::PerStatement);
        clock.advance(1);
        let s3 = resolve_current_time(policy, &ctx).0;
        ctx.session.clear_duration(MemDuration::PerTransaction);
        let s4 = resolve_current_time(policy, &ctx).0;
        t.push(&[
            name.to_string(),
            s1.to_string(),
            s2.to_string(),
            s3.to_string(),
            s4.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "Per-call time moves inside a statement (a scan could watch a region\n\
         grow mid-query); per-statement is stable within a statement; per-\n\
         transaction is stable until the transaction-end callback clears the\n\
         session's named memory — the design the paper's DataBlade uses."
    );
}
