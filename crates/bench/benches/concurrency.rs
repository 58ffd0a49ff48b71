//! abl-concurrency (wall time): LO-level two-phase locking with one
//! large object per index (readers and writers serialize on the whole
//! index) versus a partitioned index (finer effective granularity) —
//! quantifying Section 5.3's complaint that sbspace locking is "too
//! high-level ... which may not be efficient in a multi-user
//! environment".

use criterion::{criterion_group, BenchmarkId, Criterion};
use grt_grtree::{GrTree, GrTreeOptions};
use grt_sbspace::{IsolationLevel, LoId, LockMode, Sbspace, SbspaceOptions};
use grt_temporal::{Day, Predicate, TimeExtent, TtEnd, VtEnd};
use std::time::Duration;

fn extent(i: i32) -> TimeExtent {
    let base = 10_000 + (i * 3) % 400;
    TimeExtent::from_parts(Day(base), TtEnd::Uc, Day(base), VtEnd::Now).unwrap()
}

/// Builds K partition LOs, preloaded with rows, and returns their ids.
fn setup(k: usize) -> (Sbspace, Vec<LoId>) {
    let sb = Sbspace::mem(SbspaceOptions {
        pool_pages: 1 << 14,
        lock_timeout: Duration::from_secs(20),
        ..Default::default()
    });
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let mut los = Vec::new();
    for p in 0..k {
        let lo = sb.create_lo(&txn).unwrap();
        let handle = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        let mut tree = GrTree::create(
            handle,
            GrTreeOptions {
                max_entries: 42,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..200i32 {
            if i as usize % k == p {
                tree.insert(extent(i), i as u64, Day(10_500)).unwrap();
            }
        }
        tree.into_lo().unwrap().close().unwrap();
        los.push(lo);
    }
    txn.commit().unwrap();
    (sb, los)
}

/// Fixed work: 2 writer threads x 30 insert-transactions, 4 reader
/// threads x 60 query-transactions, spread over the K partitions.
fn run_mixed(sb: &Sbspace, los: &[LoId]) {
    std::thread::scope(|s| {
        for w in 0..2u64 {
            s.spawn(move || {
                for i in 0..30 {
                    let txn = sb.begin(IsolationLevel::ReadCommitted);
                    let lo = los[(i as usize) % los.len()];
                    let handle = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
                    let mut tree = GrTree::open(handle).unwrap();
                    tree.insert(extent(500 + i), 10_000 + w * 1000 + i as u64, Day(10_600))
                        .unwrap();
                    tree.into_lo().unwrap().close().unwrap();
                    txn.commit().unwrap();
                }
            });
        }
        for _ in 0..4 {
            s.spawn(move || {
                let q = TimeExtent::from_parts(Day(10_100), TtEnd::Uc, Day(10_100), VtEnd::Now)
                    .unwrap();
                for i in 0..60 {
                    let txn = sb.begin(IsolationLevel::ReadCommitted);
                    let lo = los[i % los.len()];
                    let handle = sb.open_lo(&txn, lo, LockMode::Shared).unwrap();
                    let tree = GrTree::open(handle).unwrap();
                    let _ = tree.search(Predicate::Overlaps, &q, Day(10_700)).unwrap();
                    tree.into_lo().unwrap().close().unwrap();
                    txn.commit().unwrap();
                }
            });
        }
    });
}

/// The same fixed workload against the node-latched "in-kernel" tree
/// the paper says sbspaces preclude (Section 5.3).
fn run_mixed_latched(tree: &latched::ConcurrentGrTree) {
    std::thread::scope(|s| {
        for w in 0..2u64 {
            s.spawn(move || {
                for i in 0..30 {
                    tree.insert(extent(500 + i), 20_000 + w * 1000 + i as u64, Day(10_600));
                }
            });
        }
        for _ in 0..4 {
            s.spawn(move || {
                let q = TimeExtent::from_parts(Day(10_100), TtEnd::Uc, Day(10_100), VtEnd::Now)
                    .unwrap();
                for _ in 0..60 {
                    let _ = tree.search(Predicate::Overlaps, &q, Day(10_700));
                }
            });
        }
    });
}

/// Read-only scan: a fixed total of 40 query transactions (25 searches
/// each) over the K partitions through the pinned node path, divided
/// evenly among `threads` readers. With fixed total work the ideal
/// curve is flat (or falling, given spare cores); growth with the
/// thread count is contention in the pool and lock manager.
fn run_readers(sb: &Sbspace, los: &[LoId], threads: usize) {
    let per_thread = 40 / threads;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(move || {
                for i in 0..per_thread {
                    let txn = sb.begin(IsolationLevel::ReadCommitted);
                    let lo = los[i % los.len()];
                    let handle = sb.open_lo(&txn, lo, LockMode::Shared).unwrap();
                    let tree = GrTree::open(handle).unwrap();
                    for d in 0..25 {
                        let day = Day(10_000 + d * 16);
                        let q = TimeExtent::from_parts(day, TtEnd::Uc, day, VtEnd::Now).unwrap();
                        let _ = tree.search(Predicate::Overlaps, &q, Day(10_700)).unwrap();
                    }
                    tree.into_lo().unwrap().close().unwrap();
                    txn.commit().unwrap();
                }
            });
        }
    });
}

/// Multi-reader scaling of the sharded buffer pool: fixed per-thread
/// work, so flat times across thread counts mean linear read scaling.
fn bench_reader_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("reader-scaling");
    group.sample_size(10);
    let (sb, los) = setup(8);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("readers", threads), &threads, |b, &t| {
            b.iter(|| run_readers(&sb, &los, t))
        });
    }
    group.finish();
}

fn bench_concurrency(c: &mut Criterion) {
    let mut group = c.benchmark_group("lo-locking");
    group.sample_size(10);
    for k in [1usize, 8] {
        let (sb, los) = setup(k);
        group.bench_with_input(BenchmarkId::new("partitions", k), &k, |b, _| {
            b.iter(|| run_mixed(&sb, &los))
        });
    }
    // The in-kernel alternative: per-node latches, no LO locks at all.
    let latched = latched::ConcurrentGrTree::new(42);
    for i in 0..200i32 {
        latched.insert(extent(i), i as u64, Day(10_500));
    }
    group.bench_function("node-latched (in-kernel)", |b| {
        b.iter(|| run_mixed_latched(&latched))
    });
    group.finish();
}

criterion_group!(benches, bench_concurrency, bench_reader_scaling);

fn main() {
    latched::self_check();
    benches();
}

/// A node-latched, high-concurrency GR-tree — what the paper says a
/// DataBlade **cannot** build over sbspaces, but an in-kernel access
/// method can.
///
/// Section 5.3: "A developer of an access method has no control over
/// the locking of large objects ... This implies that concurrency
/// control and recovery protocols of Kornacker et al. cannot be
/// implemented using large objects", whereas "Informix's own predefined
/// R-tree access method stores its indices in dbspaces, the Informix
/// page manager provides the appropriate concurrency control". This
/// module plays the part of that privileged in-kernel path: nodes carry
/// their own reader-writer latches (the page-manager's latch table) and
/// operations use the classic Bayer–Schkolnick lock-coupling protocol
/// the paper cites (\[BS77\]):
///
/// * searches crab down with shared latches, releasing the parent once
///   the child is latched;
/// * insertions crab down with exclusive latches, releasing all held
///   ancestors whenever the child is *safe* (cannot split);
/// * deletions take the same exclusive crab; instead of the GR-tree's
///   condense-and-reinsert, underfull nodes are tolerated — one of the
///   two §5.5 alternatives ("allowing nodes with only few entries") —
///   because reinsertion would require restarting with tree-wide locks.
///
/// The structure intentionally shares the sequential GR-tree's
/// geometry: entries are [`RegionSpec`]-bounded, parents are maintained
/// with [`bound_entries`], and answers are checked against the same
/// predicates. Durability is out of scope here (in the paper's story,
/// the kernel's log manager provides it).
mod latched {
    use grt_temporal::{bound_entries, Day, Predicate, RegionSpec, TimeExtent, TtEnd, VtEnd};
    use parking_lot::RwLock;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Latch-traffic counters (the concurrency bench's metric).
    #[derive(Debug, Default)]
    pub struct LatchStats {
        /// Shared latch acquisitions.
        pub shared: AtomicU64,
        /// Exclusive latch acquisitions.
        pub exclusive: AtomicU64,
    }

    enum Content {
        Leaf(Vec<(TimeExtent, u64)>),
        Internal(Vec<(RegionSpec, Arc<Node>)>),
    }

    struct Node {
        latch: RwLock<Content>,
    }

    impl Node {
        fn new_leaf() -> Arc<Node> {
            Arc::new(Node {
                latch: RwLock::new(Content::Leaf(Vec::new())),
            })
        }
    }

    /// A concurrent GR-tree sharable across threads.
    pub struct ConcurrentGrTree {
        /// The anchor: points at the root (swapped under its own latch when
        /// the root splits).
        root: RwLock<Arc<Node>>,
        max_entries: usize,
        stats: Arc<LatchStats>,
        count: AtomicU64,
    }

    impl ConcurrentGrTree {
        /// An empty tree with the given fan-out.
        pub fn new(max_entries: usize) -> ConcurrentGrTree {
            ConcurrentGrTree {
                root: RwLock::new(Node::new_leaf()),
                max_entries: max_entries.clamp(4, 256),
                stats: Arc::new(LatchStats::default()),
                count: AtomicU64::new(0),
            }
        }

        /// The latch counters.
        pub fn stats(&self) -> Arc<LatchStats> {
            Arc::clone(&self.stats)
        }

        /// Number of entries.
        pub fn len(&self) -> u64 {
            self.count.load(Ordering::SeqCst)
        }

        fn bump_s(&self) {
            self.stats.shared.fetch_add(1, Ordering::Relaxed);
        }

        fn bump_x(&self) {
            self.stats.exclusive.fetch_add(1, Ordering::Relaxed);
        }

        /// Searches with shared-latch crabbing.
        pub fn search(
            &self,
            pred: Predicate,
            query: &TimeExtent,
            ct: Day,
        ) -> Vec<(TimeExtent, u64)> {
            let query_region = query.region(ct);
            let mut out = Vec::new();
            // Crab: hold the parent guard only until the child is latched.
            self.bump_s();
            let root_guard = self.root.read();
            let root = Arc::clone(&root_guard);
            drop(root_guard);
            self.search_rec(&root, pred, &query_region, ct, &mut out);
            out
        }

        fn search_rec(
            &self,
            node: &Arc<Node>,
            pred: Predicate,
            query_region: &grt_temporal::Region,
            ct: Day,
            out: &mut Vec<(TimeExtent, u64)>,
        ) {
            self.bump_s();
            let guard = node.latch.read();
            match &*guard {
                Content::Leaf(entries) => {
                    for (extent, rowid) in entries.iter() {
                        if pred.eval_regions(&extent.region(ct), query_region) {
                            out.push((*extent, *rowid));
                        }
                    }
                }
                Content::Internal(children) => {
                    // Collect qualifying children, then release this node
                    // before descending (lock coupling).
                    let targets: Vec<Arc<Node>> = children
                        .iter()
                        .filter(|(spec, _)| pred.consistent(&spec.resolve(ct), query_region))
                        .map(|(_, child)| Arc::clone(child))
                        .collect();
                    drop(guard);
                    for child in targets {
                        self.search_rec(&child, pred, query_region, ct, out);
                    }
                }
            }
        }

        /// Inserts with exclusive-latch crabbing: ancestors stay latched
        /// only while the child might split.
        pub fn insert(&self, extent: TimeExtent, rowid: u64, ct: Day) {
            loop {
                if self.try_insert(extent, rowid, ct) {
                    self.count.fetch_add(1, Ordering::SeqCst);
                    return;
                }
                // The root split under us while we held no latch; retry.
            }
        }

        fn try_insert(&self, extent: TimeExtent, rowid: u64, ct: Day) -> bool {
            self.bump_x();
            let mut anchor = Some(self.root.write());
            let root = Arc::clone(anchor.as_ref().expect("just taken"));
            // The anchor stays locked only while the root itself is unsafe.
            let spec = extent.spec();
            self.bump_x();
            let root_guard = root.latch.write();
            let root_safe = match &*root_guard {
                Content::Leaf(v) => v.len() < self.max_entries,
                Content::Internal(v) => v.len() < self.max_entries,
            };
            if root_safe {
                anchor = None;
            }
            let split = Self::insert_under(self, root_guard, &root, extent, rowid, &spec, ct);
            if let Some((left, right)) = split {
                // Root split: build a new root. The anchor is still held
                // (the root was unsafe), so the swap is race-free.
                let mut anchor = anchor.expect("split implies the root was unsafe");
                let new_root = Arc::new(Node {
                    latch: RwLock::new(Content::Internal(vec![left, right])),
                });
                *anchor = new_root;
            }
            true
        }

        /// Inserts below a node whose write guard is already held. Returns
        /// the two replacement entries if the node split.
        #[allow(clippy::type_complexity)]
        fn insert_under(
            &self,
            mut guard: parking_lot::RwLockWriteGuard<'_, Content>,
            node: &Arc<Node>,
            extent: TimeExtent,
            rowid: u64,
            spec: &RegionSpec,
            ct: Day,
        ) -> Option<((RegionSpec, Arc<Node>), (RegionSpec, Arc<Node>))> {
            match &mut *guard {
                Content::Leaf(entries) => {
                    entries.push((extent, rowid));
                    if entries.len() <= self.max_entries {
                        return None;
                    }
                    // Split: sort by resolved tt-centre, halve.
                    entries.sort_by_key(|(e, _)| {
                        let m = e.region(ct).mbr();
                        (m.tt1.0 as i64 + m.tt2.0 as i64, m.vt1.0 as i64)
                    });
                    let right_half = entries.split_off(entries.len() / 2);
                    let left_bound = bound_entries(
                        &entries.iter().map(|(e, _)| e.spec()).collect::<Vec<_>>(),
                        ct,
                    );
                    let right_bound = bound_entries(
                        &right_half.iter().map(|(e, _)| e.spec()).collect::<Vec<_>>(),
                        ct,
                    );
                    let right = Arc::new(Node {
                        latch: RwLock::new(Content::Leaf(right_half)),
                    });
                    drop(guard);
                    Some(((left_bound, Arc::clone(node)), (right_bound, right)))
                }
                Content::Internal(children) => {
                    // ChooseSubtree by area enlargement at ct.
                    let idx = (0..children.len())
                        .min_by_key(|&i| {
                            let union = bound_entries(&[children[i].0, *spec], ct);
                            union.resolve(ct).area() - children[i].0.resolve(ct).area()
                        })
                        .expect("internal nodes are nonempty");
                    let child = Arc::clone(&children[idx].1);
                    self.bump_x();
                    let child_guard = child.latch.write();
                    let child_safe = match &*child_guard {
                        Content::Leaf(v) => v.len() < self.max_entries,
                        Content::Internal(v) => v.len() < self.max_entries,
                    };
                    if child_safe {
                        // Update our copy of the child's bound and release
                        // this node before descending.
                        children[idx].0 = bound_entries(&[children[idx].0, *spec], ct);
                        drop(guard);
                        let split = self.insert_under(child_guard, &child, extent, rowid, spec, ct);
                        debug_assert!(split.is_none(), "safe child cannot split");
                        None
                    } else {
                        // Keep this node latched: the child may split into us.
                        let split = self.insert_under(child_guard, &child, extent, rowid, spec, ct);
                        match split {
                            None => {
                                children[idx].0 = bound_entries(&[children[idx].0, *spec], ct);
                                None
                            }
                            Some((l, r)) => {
                                children[idx] = l;
                                children.push(r);
                                if children.len() <= self.max_entries {
                                    return None;
                                }
                                children.sort_by_key(|(s, _)| {
                                    let m = s.resolve(ct).mbr();
                                    (m.tt1.0 as i64 + m.tt2.0 as i64, m.vt1.0 as i64)
                                });
                                let right_half = children.split_off(children.len() / 2);
                                let left_bound = bound_entries(
                                    &children.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
                                    ct,
                                );
                                let right_bound = bound_entries(
                                    &right_half.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
                                    ct,
                                );
                                let right = Arc::new(Node {
                                    latch: RwLock::new(Content::Internal(right_half)),
                                });
                                drop(guard);
                                Some(((left_bound, Arc::clone(node)), (right_bound, right)))
                            }
                        }
                    }
                }
            }
        }

        /// Deletes `(extent, rowid)`. Underfull nodes are tolerated (no
        /// condensation — the §5.5 alternative suited to concurrency).
        pub fn delete(&self, extent: &TimeExtent, rowid: u64, ct: Day) -> bool {
            self.bump_s();
            let root_guard = self.root.read();
            let root = Arc::clone(&root_guard);
            drop(root_guard);
            let removed = self.delete_rec(&root, extent, rowid, ct);
            if removed {
                self.count.fetch_sub(1, Ordering::SeqCst);
            }
            removed
        }

        fn delete_rec(&self, node: &Arc<Node>, extent: &TimeExtent, rowid: u64, ct: Day) -> bool {
            self.bump_x();
            let mut guard = node.latch.write();
            match &mut *guard {
                Content::Leaf(entries) => {
                    let before = entries.len();
                    entries.retain(|(e, r)| !(*r == rowid && e == extent));
                    entries.len() < before
                }
                Content::Internal(children) => {
                    let target = extent.region(ct);
                    let candidates: Vec<Arc<Node>> = children
                        .iter()
                        .filter(|(spec, _)| spec.resolve(ct).contains(&target))
                        .map(|(_, c)| Arc::clone(c))
                        .collect();
                    drop(guard);
                    for child in candidates {
                        if self.delete_rec(&child, extent, rowid, ct) {
                            return true;
                        }
                    }
                    false
                }
            }
        }

        /// Structural check: every parent bound covers its children at `ct`
        /// (single-threaded use only).
        pub fn check(&self, ct: Day) -> Result<(), String> {
            fn rec(
                node: &Arc<Node>,
                ct: Day,
                count: &mut u64,
            ) -> Result<Option<RegionSpec>, String> {
                let guard = node.latch.read();
                match &*guard {
                    Content::Leaf(entries) => {
                        *count += entries.len() as u64;
                        if entries.is_empty() {
                            return Ok(None);
                        }
                        Ok(Some(bound_entries(
                            &entries.iter().map(|(e, _)| e.spec()).collect::<Vec<_>>(),
                            ct,
                        )))
                    }
                    Content::Internal(children) => {
                        for (spec, child) in children {
                            if let Some(b) = rec(&Arc::clone(child), ct, count)? {
                                for probe in [0, 1, 365] {
                                    let t = ct.plus(probe);
                                    if !spec.resolve(t).contains(&b.resolve(t)) {
                                        return Err(format!(
                                            "parent {spec} does not cover child {b} at +{probe}"
                                        ));
                                    }
                                }
                            }
                        }
                        Ok(Some(bound_entries(
                            &children.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
                            ct,
                        )))
                    }
                }
            }
            let root = Arc::clone(&self.root.read());
            let mut count = 0;
            rec(&root, ct, &mut count)?;
            if count != self.len() {
                return Err(format!("count mismatch: {} vs {}", count, self.len()));
            }
            Ok(())
        }
    }

    /// The module's unit tests, run by `main` before anything is timed (a
    /// `harness = false` bench target has no test harness to collect them).
    pub fn self_check() {
        single_threaded_matches_linear_scan();
        deletes_tolerate_underfull_nodes();
        concurrent_inserts_and_searches_are_linearizable_enough();
    }

    fn extent4(ttb: i32, tte: Option<i32>, vtb: i32, vte: Option<i32>) -> TimeExtent {
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
                let base = (i * 13) % 500;
                let e = match i % 4 {
                    0 => extent4(base, None, base, None),
                    1 => extent4(base, Some(base + 20), base - 3, Some(base + 25)),
                    2 => extent4(base, None, base - 5, Some(base + 60)),
                    _ => extent4(base, Some(base + 15), base, None),
                };
                (i as u64, e)
            })
            .collect()
    }

    fn single_threaded_matches_linear_scan() {
        let tree = ConcurrentGrTree::new(8);
        let ct = Day(600);
        let data = history(400);
        for (id, e) in &data {
            tree.insert(*e, *id, ct);
        }
        assert_eq!(tree.len(), 400);
        tree.check(ct).unwrap();
        for q in [
            extent4(100, Some(160), 50, Some(170)),
            extent4(0, None, 0, None),
        ] {
            for pred in Predicate::ALL {
                let mut got: Vec<u64> = tree
                    .search(pred, &q, ct)
                    .into_iter()
                    .map(|(_, id)| id)
                    .collect();
                let mut expected: Vec<u64> = data
                    .iter()
                    .filter(|(_, e)| pred.eval(e, &q, ct))
                    .map(|(id, _)| *id)
                    .collect();
                got.sort_unstable();
                expected.sort_unstable();
                assert_eq!(got, expected, "{pred}");
            }
        }
    }

    fn deletes_tolerate_underfull_nodes() {
        let tree = ConcurrentGrTree::new(6);
        let ct = Day(600);
        let data = history(200);
        for (id, e) in &data {
            tree.insert(*e, *id, ct);
        }
        for (id, e) in data.iter().take(150) {
            assert!(tree.delete(e, *id, ct), "{id}");
            assert!(!tree.delete(e, *id, ct));
        }
        assert_eq!(tree.len(), 50);
        tree.check(ct).unwrap();
        let q = extent4(0, None, 0, None);
        let got = tree.search(Predicate::Overlaps, &q, ct);
        assert!(got.iter().all(|(_, id)| *id >= 150));
    }

    fn concurrent_inserts_and_searches_are_linearizable_enough() {
        // All writers' entries must be present afterwards; readers must
        // never crash or see torn nodes.
        let tree = Arc::new(ConcurrentGrTree::new(8));
        let ct = Day(600);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let tree = Arc::clone(&tree);
                s.spawn(move || {
                    for i in 0..250u64 {
                        let id = t * 1_000 + i;
                        let base = ((id * 13) % 500) as i32;
                        let e = extent4(base, None, base, None);
                        tree.insert(e, id, ct);
                    }
                });
            }
            for _ in 0..3 {
                let tree = Arc::clone(&tree);
                s.spawn(move || {
                    let q = extent4(0, None, 0, None);
                    for _ in 0..60 {
                        let _ = tree.search(Predicate::Overlaps, &q, ct);
                    }
                });
            }
        });
        assert_eq!(tree.len(), 1_000);
        tree.check(ct).unwrap();
        let q = extent4(0, None, 0, None);
        let got = tree.search(Predicate::Overlaps, &q, ct);
        assert_eq!(got.len(), 1_000, "every insert is findable");
        assert!(tree.stats().exclusive.load(Ordering::Relaxed) > 1_000);
    }
}
