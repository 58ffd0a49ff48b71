//! The frozen reader and parallel range-scan execution over the pinned
//! read path.
//!
//! The serial [`Cursor`](crate::Cursor) walks qualifying subtrees
//! depth-first through one thread. [`parallel_scan`] splits the same
//! traversal across N workers: the scan seeds a *frontier* of internal
//! entries whose bounds are consistent with the query, pushes their
//! subtree roots onto a shared deque, and lets each worker claim
//! subtrees until the deque drains. Workers read nodes through a
//! [`Reader`] — a `Send + Sync` snapshot built on [`LoReader`] pinned
//! reads — so the traversal never touches the lock manager and never
//! mutates the tree.
//!
//! Subtrees claimed from the deque are disjoint, so two workers cannot
//! emit the same leaf entry; the merge still deduplicates on the
//! cursor's `(rowid, key identity)` to keep exactly its contract.

use crate::cursor::NodeSource;
use crate::{Entry, Meta, Node, Result, TreeKey};
use grt_metrics::TreeMetrics;
use grt_sbspace::{LoReader, PageGuard};
use std::sync::Mutex;
use std::time::Instant;

/// A `Send + Sync` read-only handle on a disk-resident tree: a
/// page-table snapshot plus the header copied at creation. Obtained
/// via [`Tree::reader`](crate::Tree::reader) (valid while the
/// originating tree and its large-object lock stay open) or via
/// [`Reader::open`] over a space-snapshot [`LoReader`] (valid while
/// that snapshot stays open — the engine's lock-free read path).
/// No condense-restart handling exists or is needed on a reader: the
/// view is frozen, so a concurrent condense can never move nodes out
/// from under a scan.
pub struct Reader<K: TreeKey> {
    reader: LoReader,
    meta: Meta<K>,
    metrics: TreeMetrics,
}

impl<K: TreeKey> Reader<K> {
    pub(crate) fn new(reader: LoReader, meta: Meta<K>, metrics: TreeMetrics) -> Reader<K> {
        Reader {
            reader,
            meta,
            metrics,
        }
    }

    /// Opens a reader directly over a large-object view, decoding the
    /// tree header from page 0. No tree (or LO-level lock) is involved:
    /// this is how a snapshot read mounts an index.
    pub fn open(key: K, reader: LoReader, metrics: TreeMetrics) -> Result<Reader<K>> {
        let meta = Meta::decode_with(key, &*reader.read_page_pinned(0)?)?;
        Ok(Reader::new(reader, meta, metrics))
    }

    /// Number of indexed entries.
    pub fn len(&self) -> u64 {
        self.meta.count
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.meta.count == 0
    }

    /// Tree height (1 = the root is a leaf).
    pub fn height(&self) -> u32 {
        self.meta.height
    }

    /// Pages in the underlying large object (header included).
    pub fn pages(&self) -> u32 {
        self.reader.page_count()
    }

    /// Reads a node on behalf of a parallel traversal, which (unlike
    /// the cursor) has no per-push hook to count the visit in.
    fn visit(&self, page: u32) -> Result<Node<K::Key>> {
        self.metrics.nodes_visited.inc();
        self.read_node(page)
    }

    /// The children of `node` a scan for `query` must descend into,
    /// appended to `out`.
    fn qualifying(&self, node: &Node<K::Key>, query: &K::Query, ctx: K::Ctx, out: &mut Vec<u32>) {
        for e in &node.entries {
            self.meta.key.charge(&e.key, &self.metrics);
            if self.meta.key.consistent(&e.key, query, ctx) {
                out.push(e.child());
            }
        }
    }
}

impl<K: TreeKey> NodeSource<K> for Reader<K> {
    fn meta(&self) -> &Meta<K> {
        &self.meta
    }

    fn metrics(&self) -> &TreeMetrics {
        &self.metrics
    }

    fn page(&self, page: u32) -> Result<PageGuard> {
        Ok(self.reader.read_page_pinned(page)?)
    }

    fn pages(&self) -> u32 {
        Reader::pages(self)
    }

    fn prefetch(&self, pages: &[u32]) {
        self.reader.prefetch(pages);
    }
}

/// Figures reported by one [`parallel_scan`] execution.
#[derive(Debug, Clone)]
pub struct ParallelScanStats {
    /// Degree actually used (may be lower than requested when the
    /// frontier is small).
    pub workers: usize,
    /// Subtrees seeded into the shared deque.
    pub frontier: usize,
    /// Per-worker busy time, nanoseconds.
    pub worker_ns: Vec<u64>,
}

/// A merged, deduplicated parallel scan result.
pub struct ParallelScan<T> {
    /// Qualifying `(key, rowid)` pairs, in a deterministic
    /// (rowid, key identity) order.
    pub rows: Vec<(T, u64)>,
    /// Execution statistics for metrics and tracing.
    pub stats: ParallelScanStats,
}

/// One worker's depth-first walk over a claimed subtree. Mirrors the
/// leaf/descent tests of the serial cursor exactly.
fn scan_subtree<K: TreeKey>(
    reader: &Reader<K>,
    query: &K::Query,
    ctx: K::Ctx,
    root: u32,
    out: &mut Vec<(K::Key, u64)>,
) -> Result<()> {
    let key = &reader.meta.key;
    let mut stack = vec![root];
    while let Some(page) = stack.pop() {
        let node = reader.visit(page)?;
        if node.is_leaf() {
            for Entry { key: k, ptr } in node.entries {
                key.charge(&k, &reader.metrics);
                if key.matches(&k, query, ctx) {
                    out.push((k, ptr));
                }
            }
        } else {
            let mark = stack.len();
            reader.qualifying(&node, query, ctx, &mut stack);
            if stack.len() > mark + 1 {
                reader.prefetch(&stack[mark..]);
            }
        }
    }
    Ok(())
}

/// Runs one query over the tree with up to `workers` threads and
/// returns the merged result set. Equivalent to draining a fresh serial
/// cursor: same leaf test, same descent test, same dedup key. The
/// caller owns restart semantics — on a concurrent condense it simply
/// re-runs the scan against the new root and filters against its own
/// [`Emitted`](crate::Emitted) memory, exactly as it would restart a cursor.
pub fn parallel_scan<K: TreeKey>(
    reader: &Reader<K>,
    query: &K::Query,
    ctx: K::Ctx,
    workers: usize,
) -> Result<ParallelScan<K::Key>> {
    reader.metrics.searches.inc();
    let finish = |mut rows: Vec<(K::Key, u64)>, stats| {
        dedup_sort(&reader.meta.key, &mut rows);
        Ok(ParallelScan { rows, stats })
    };

    // Seed the frontier with the root's qualifying children, expanding
    // one level at a time while the tree is deep enough and the
    // frontier too small to keep every worker busy.
    let mut rows = Vec::new();
    let mut frontier: Vec<u32> = Vec::new();
    let root = reader.visit(reader.meta.root)?;
    if root.is_leaf() {
        // Height-1 tree: nothing to fan out over. (The root is read a
        // second time, as one more visited node.)
        scan_subtree(reader, query, ctx, reader.meta.root, &mut rows)?;
        let stats = ParallelScanStats {
            workers: 1,
            frontier: 1,
            worker_ns: Vec::new(),
        };
        return finish(rows, stats);
    }
    reader.qualifying(&root, query, ctx, &mut frontier);
    reader.prefetch(&frontier);
    // Frontier nodes start one level below the root; stop expanding
    // before the leaf level (depth `height - 1`).
    let mut depth = 1;
    while frontier.len() < workers.saturating_mul(2) && depth + 1 < reader.meta.height {
        let mut next = Vec::new();
        for page in frontier.drain(..) {
            reader.qualifying(&reader.visit(page)?, query, ctx, &mut next);
        }
        frontier = next;
        reader.prefetch(&frontier);
        depth += 1;
    }

    let frontier_len = frontier.len();
    let degree = workers.max(1).min(frontier_len.max(1));
    if degree <= 1 || frontier_len <= 1 {
        for page in frontier {
            scan_subtree(reader, query, ctx, page, &mut rows)?;
        }
        let stats = ParallelScanStats {
            workers: 1,
            frontier: frontier_len,
            worker_ns: Vec::new(),
        };
        return finish(rows, stats);
    }

    // Shared deque of subtree roots; workers pop until it drains.
    let deque = Mutex::new(frontier);
    // One worker's collected rows plus its busy time in nanoseconds.
    type WorkerBatch<T> = (Vec<(T, u64)>, u64);
    let results: Vec<Result<WorkerBatch<K::Key>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..degree)
            .map(|_| {
                let deque = &deque;
                s.spawn(move || {
                    let start = Instant::now();
                    let mut local = Vec::new();
                    loop {
                        let page = { deque.lock().expect("scan deque poisoned").pop() };
                        let Some(page) = page else { break };
                        scan_subtree(reader, query, ctx, page, &mut local)?;
                    }
                    Ok((local, start.elapsed().as_nanos() as u64))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scan worker panicked"))
            .collect()
    });

    let mut worker_ns = Vec::with_capacity(degree);
    for r in results {
        let (local, ns) = r?;
        rows.extend(local);
        worker_ns.push(ns);
    }
    let stats = ParallelScanStats {
        workers: degree,
        frontier: frontier_len,
        worker_ns,
    };
    finish(rows, stats)
}

/// Deterministic merge order plus the cursor's dedup key.
fn dedup_sort<K: TreeKey>(key: &K, rows: &mut Vec<(K::Key, u64)>) {
    rows.sort_by_cached_key(|(k, rowid)| (*rowid, key.dedup_key(k)));
    // Sorted by identity, so a repeat sits next to its original.
    rows.dedup_by(|b, a| a.1 == b.1 && key.dedup_key(&a.0) == key.dedup_key(&b.0));
}
