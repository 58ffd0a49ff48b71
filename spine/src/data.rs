//! Inputs made from `--seed`: the history, the query pools, the DML
//! streams, and the oracle that says what every statement must answer.
//!
//! The oracle is deliberately trivial: a linear scan over the rows with
//! the `grt_temporal` predicates. It shares no code with the trees.

use grt_blade::extent_to_value;
use grt_ids::Value;
use grt_temporal::{Day, Predicate, TimeExtent, TtEnd, VtEnd};
use grt_workload::{History, HistoryEvent, HistoryParams, QueryKind, QueryParams, QuerySet};

/// A stored row: id and time extent.
pub type Fact = (u64, TimeExtent);

/// SplitMix64: the benchmark's own generator for choices the
/// `grt_workload` generators do not make (which row a DML statement
/// targets).
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// What a statement must return: how many rows, and the XOR of their
/// ids (order-free, so it needs no sort on the hot path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Expect {
    pub count: u32,
    pub xor: u64,
}

impl Expect {
    pub fn add(&mut self, id: u64) {
        self.count += 1;
        self.xor ^= id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    /// The checksum of a `SELECT id …` result, keeping only ids that
    /// `own` accepts.
    pub fn of_rows(rows: &[Vec<Value>], own: impl Fn(u64) -> bool) -> Expect {
        let mut e = Expect::default();
        for row in rows {
            if let Some(Value::Int(id)) = row.first() {
                if own(*id as u64) {
                    e.add(*id as u64);
                }
            }
        }
        e
    }

    /// The oracle: linear scan with the exact bitemporal predicate.
    pub fn by_scan<'a>(
        facts: impl Iterator<Item = &'a Fact>,
        query: &TimeExtent,
        ct: Day,
    ) -> Expect {
        let mut e = Expect::default();
        for (id, stored) in facts {
            if Predicate::Overlaps.eval(stored, query, ct) {
                e.add(*id);
            }
        }
        e
    }
}

/// The history every workload's table is loaded from. With
/// `delete_rate` 0.52 a little more than one fact is logically deleted
/// per fact inserted, so the current state is small and *stationary*
/// (a dozen facts, each current for about two weeks) and every seed
/// yields statistically the same table. At exactly 0.5 the size of the
/// current state is a driftless random walk and differs several-fold
/// from seed to seed, and so does every timing. With the generator's
/// default (0.3) more than half of all facts stay current for ever and
/// any query below the tt = vt diagonal returns thousands of growing
/// stairs whatever its size.
pub fn history(rows: usize, seed: u64) -> History {
    History::generate(HistoryParams {
        inserts: rows,
        now_relative_fraction: 0.5,
        delete_rate: 0.52,
        seed,
        ..Default::default()
    })
}

fn point(tt: Day, vt: Day) -> TimeExtent {
    TimeExtent::from_parts(tt, TtEnd::Ground(tt), vt, VtEnd::Ground(vt))
        .expect("a point is a legal extent")
}

/// One read statement of a pool, with both its wire forms and its
/// expected answer.
pub struct Query {
    pub extent: TimeExtent,
    /// The bound value for the prepared form.
    pub arg: Value,
    /// The ad-hoc SQL text against each table (`g`, `r`).
    pub sql: [String; 2],
    pub expect: Expect,
}

impl Query {
    fn new(extent: TimeExtent) -> Query {
        Query {
            extent,
            arg: extent_to_value(&extent),
            sql: ["g", "r"]
                .map(|t| format!("SELECT id FROM {t} WHERE Overlaps(Time_Extent, '{extent}')")),
            expect: Expect::default(),
        }
    }
}

pub const PROBE_SQL: &str = "SELECT id FROM g WHERE Overlaps(Time_Extent, ?)";

/// Point probes. `QuerySet` draws the transaction day; the probe is
/// then snapped onto a stored fact, so that every probe has an answer
/// to get right: among the 32 facts inserted from that day on, the one
/// whose fixed valid-time end lies furthest ahead of its insertion, at
/// its (tt_begin, vt_end) corner. Few other facts reach that far into
/// the future, so a probe returns that fact and rarely more — the bare
/// descent this workload is for. (An unsnapped `QueryKind::Point` lands
/// off the populated diagonal four times in five and returns nothing;
/// a point on the diagonal returns the dozens of facts current then.)
pub fn probe_pool(h: &History, facts: &[Fact], count: usize, seed: u64) -> Vec<Query> {
    let days = QuerySet::generate(
        QueryParams {
            count,
            kind: QueryKind::Point,
            tt_range: (h.params.start.succ(), h.end),
            window: 0,
            seed,
        },
        h.end,
    );
    days.queries
        .iter()
        .map(|q| {
            // One insertion per day: the fact of day d has id d - start - 1.
            let first = (q.tt_begin.0 - h.params.start.0 - 1).clamp(0, facts.len() as i32 - 1);
            let reach = |e: &TimeExtent| match e.vt_end {
                VtEnd::Ground(end) => end.0 - e.tt_begin.0,
                VtEnd::Now => i32::MIN,
            };
            let (_, fact) = facts[first as usize..]
                .iter()
                .take(32)
                .max_by_key(|(_, e)| reach(e))
                .expect("at least one fact");
            match fact.vt_end {
                VtEnd::Ground(end) => Query::new(point(fact.tt_begin, end)),
                VtEnd::Now => Query::new(point(fact.tt_begin, fact.vt_begin)),
            }
        })
        .collect()
}

/// Share of the rows each window class is sized to select.
pub const SELECTIVITIES: [f64; 3] = [0.001, 0.01, 0.08];

/// Window scans at the three selectivities, interleaved class by class.
/// `QuerySet` draws where along transaction time each window starts;
/// the window is then laid along the tt = vt diagonal, where the facts
/// are, because a window drawn independently in both dimensions misses
/// every fact unless it is huge. A window of `w` days on the diagonal
/// overlaps about `w + 12` facts (one per day, plus those current when
/// it opens), hence the width below.
pub fn window_pool(h: &History, rows: usize, per_class: usize, seed: u64) -> Vec<Query> {
    let classes: Vec<Vec<TimeExtent>> = SELECTIVITIES
        .iter()
        .enumerate()
        .map(|(c, sel)| {
            let width = ((sel * rows as f64) as i32 - 12).max(1);
            QuerySet::generate(
                QueryParams {
                    count: per_class,
                    kind: QueryKind::Window,
                    tt_range: (h.params.start, h.end.plus(-width)),
                    window: width,
                    seed: seed.wrapping_add(c as u64),
                },
                h.end,
            )
            .queries
            .iter()
            .map(|q| {
                let back = h.params.max_backdate;
                TimeExtent::from_parts(
                    q.tt_begin,
                    q.tt_end,
                    q.tt_begin.plus(-back),
                    VtEnd::Ground(q.tt_begin.plus(width)),
                )
                .expect("window extents are legal")
            })
            .collect()
        })
        .collect();
    (0..per_class)
        .flat_map(|i| classes.iter().map(move |c| Query::new(c[i])))
        .collect()
}

/// Fills in every query's expected answer by linear scan, on `threads`
/// threads.
pub fn fill_expectations(facts: &[Fact], queries: &mut [Query], ct: Day, threads: usize) {
    let chunk = queries.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for part in queries.chunks_mut(chunk) {
            s.spawn(move || {
                for q in part {
                    q.expect = Expect::by_scan(facts.iter(), &q.extent, ct);
                }
            });
        }
    });
}

/// Extents of `count` facts that continue the history: one insertion
/// per day after its end (so all of them lie before day
/// `h.end + count + 2`).
pub fn fresh_extents(h: &History, count: usize, seed: u64) -> Vec<TimeExtent> {
    let more = History::generate(HistoryParams {
        inserts: count,
        delete_rate: 0.0,
        start: h.end,
        seed,
        ..h.params
    });
    more.events
        .into_iter()
        .filter_map(|(_, ev)| match ev {
            HistoryEvent::Insert { extent, .. } => Some(extent),
            HistoryEvent::LogicalDelete { .. } => None,
        })
        .collect()
}

/// One statement of a DML stream.
pub enum DmlOp {
    Insert {
        id: u64,
        extent: TimeExtent,
    },
    /// A logical deletion: the stored extent's `UC` becomes a day.
    Update {
        id: u64,
        old: TimeExtent,
        new: TimeExtent,
    },
    /// A physical deletion (vacuuming a superseded fact).
    Delete {
        id: u64,
        extent: TimeExtent,
    },
    /// A point probe; `expect` covers only the issuing connection's own
    /// rows, which no other connection touches.
    Probe {
        query: TimeExtent,
        expect: Expect,
    },
}

/// The `k`-th row connection `conn` inserts gets id
/// `(DML_ID_BASE + k) * conns + conn`, far above the seeded ids, so
/// every row `id` belongs to connection `id % conns`.
pub const DML_ID_BASE: u64 = 1 << 31;

pub const DML_SQL: [(&str, &str); 4] = [
    ("ins", "INSERT INTO g VALUES (?, ?)"),
    (
        "upd",
        "UPDATE g SET Time_Extent = ? WHERE Equal(Time_Extent, ?) AND id = ?",
    ),
    (
        "del",
        "DELETE FROM g WHERE Equal(Time_Extent, ?) AND id = ?",
    ),
    ("probe", PROBE_SQL),
];

/// The 4 : 2 : 2 : 2 mix, spread so no two writes of a kind are adjacent.
const DML_PATTERN: [u8; 10] = *b"IUIPDIUPID";

/// Pre-generates connection `conn`'s statement stream. The connection
/// owns the seeded rows with `id % conns == conn` plus everything it
/// inserts, and targets nothing else, so its model of those rows stays
/// exact whatever the other connections do.
pub fn dml_stream(
    h: &History,
    facts: &[Fact],
    conn: usize,
    conns: usize,
    ops: usize,
    ct: Day,
    seed: u64,
) -> Vec<DmlOp> {
    let mut rng = SplitMix64(seed ^ (conn as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let mut live: Vec<Fact> = facts
        .iter()
        .filter(|(id, _)| *id as usize % conns == conn)
        .copied()
        .collect();
    let mut fresh = fresh_extents(h, ops, seed.wrapping_add(101 + conn as u64)).into_iter();
    let mut inserted = 0u64;
    let mut out = Vec::with_capacity(ops);
    // A few random draws find a row of the wanted kind or give up.
    let pick = |rng: &mut SplitMix64, live: &[Fact], want: &dyn Fn(&TimeExtent) -> bool| {
        (0..8)
            .map(|_| rng.below(live.len()))
            .find(|&i| want(&live[i].1))
    };
    for k in 0..ops {
        let mut kind = DML_PATTERN[k % DML_PATTERN.len()];
        if live.len() < 16 {
            kind = b'I';
        }
        if kind == b'U' {
            match pick(&mut rng, &live, &|e| e.is_current()) {
                Some(i) => {
                    let (id, old) = live[i];
                    let new = old.logical_delete(ct).expect("picked a current fact");
                    live[i].1 = new;
                    out.push(DmlOp::Update { id, old, new });
                    continue;
                }
                None => kind = b'I',
            }
        }
        match kind {
            b'I' => {
                let id = (DML_ID_BASE + inserted) * conns as u64 + conn as u64;
                inserted += 1;
                let extent = fresh.next().expect("one fresh extent per op");
                live.push((id, extent));
                out.push(DmlOp::Insert { id, extent });
            }
            b'D' => {
                let i = pick(&mut rng, &live, &|e| !e.is_current())
                    .unwrap_or_else(|| rng.below(live.len()));
                let (id, extent) = live.swap_remove(i);
                out.push(DmlOp::Delete { id, extent });
            }
            _ => {
                let (_, fact) = live[rng.below(live.len())];
                let query = point(fact.tt_begin, fact.vt_begin);
                let expect = Expect::by_scan(live.iter(), &query, ct);
                out.push(DmlOp::Probe { query, expect });
            }
        }
    }
    out
}

/// The rows connection `conn` owns after its first `done` statements.
pub fn dml_model(facts: &[Fact], conn: usize, conns: usize, ops: &[DmlOp]) -> Vec<Fact> {
    let mut model: std::collections::BTreeMap<u64, TimeExtent> = facts
        .iter()
        .filter(|(id, _)| *id as usize % conns == conn)
        .copied()
        .collect();
    for op in ops {
        match op {
            DmlOp::Insert { id, extent } => {
                model.insert(*id, *extent);
            }
            DmlOp::Update { id, new, .. } => {
                model.insert(*id, *new);
            }
            DmlOp::Delete { id, .. } => {
                model.remove(id);
            }
            DmlOp::Probe { .. } => {}
        }
    }
    model.into_iter().collect()
}

/// Bytes of user data in one row: an 8-byte id and a 16-byte extent.
pub const ROW_BYTES: u64 = 8 + TimeExtent::ENCODED_LEN as u64;
