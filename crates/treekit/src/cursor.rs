//! Where traversals read nodes from, and the depth-first scan cursor.
//!
//! A cursor is the paper's `Cursor` object: it holds the search
//! argument (from the qualification descriptor) and the traversal
//! state between `am_getnext` calls. The context is captured at cursor
//! creation and stays constant for the whole scan — for the GR-tree
//! that is the per-statement current time of Section 5.4.

use crate::{Emitted, Meta, Node, Result, TreeKey};
use grt_metrics::TreeMetrics;
use grt_sbspace::PageGuard;

/// Where a traversal reads its nodes from: a [`Tree`](crate::Tree)
/// (locked handle, sees the owning transaction's writes) or a
/// [`Reader`](crate::Reader) (lock-free frozen view). The same cursor
/// walks both — node pages are immutable once published, so the
/// traversal needs no per-node latch coupling on either source.
pub trait NodeSource<K: TreeKey> {
    /// The tree header this source was opened with.
    fn meta(&self) -> &Meta<K>;
    /// The operation counters to charge traversals to.
    fn metrics(&self) -> &TreeMetrics;
    /// Pins the raw page `page`.
    fn page(&self, page: u32) -> Result<PageGuard>;
    /// Pages in the underlying large object, header included.
    fn pages(&self) -> u32;

    /// Decodes the node at `page` (no counter side effects — the
    /// traversals bump `nodes_visited` themselves).
    fn read_node(&self, page: u32) -> Result<Node<K::Key>> {
        self.meta().key.decode_node(&*self.page(page)?)
    }

    /// The bound a parent would store for the root, or `None` for an
    /// empty tree. The planner's selectivity estimate compares a query
    /// against it.
    fn root_bound(&self, ctx: K::Ctx) -> Result<Option<K::Key>> {
        if self.meta().count == 0 {
            return Ok(None);
        }
        let root = self.read_node(self.meta().root)?;
        Ok(Some(self.meta().key.stored_bound(&root.entries, ctx)))
    }

    /// Opens a scan cursor; `ctx` is fixed for the scan's lifetime.
    fn cursor(&self, query: K::Query, ctx: K::Ctx) -> Cursor<K> {
        self.metrics().searches.inc();
        Cursor {
            query,
            ctx,
            root: self.meta().root,
            stack: Vec::new(),
            primed: false,
            emitted: Emitted::new(),
        }
    }

    /// Advances a cursor to the next qualifying `(key, rowid)`.
    fn cursor_next(&self, cursor: &mut Cursor<K>) -> Result<Option<(K::Key, u64)>>
    where
        Self: Sized,
    {
        cursor.next(self)
    }

    /// Collects every `(key, rowid)` satisfying `query`.
    fn search(&self, query: K::Query, ctx: K::Ctx) -> Result<Vec<(K::Key, u64)>>
    where
        Self: Sized,
    {
        let mut cursor = self.cursor(query, ctx);
        let mut out = Vec::new();
        while let Some(hit) = cursor.next(self)? {
            out.push(hit);
        }
        Ok(out)
    }
}

struct Frame<T> {
    node: Node<T>,
    next: usize,
}

/// A depth-first scan over qualifying leaf entries.
pub struct Cursor<K: TreeKey> {
    query: K::Query,
    ctx: K::Ctx,
    root: u32,
    stack: Vec<Frame<K::Key>>,
    primed: bool,
    /// Entries already returned, keyed by rowid plus the key's identity
    /// (an update gives the same rowid a new key and that counts as a
    /// new entry). Survives [`Cursor::restart`]: a Section 5.5 restart
    /// re-walks the condensed tree from the root, and without this
    /// memory it would re-return every row emitted before the condense.
    /// A log until the first restart arms it — a traversal that is
    /// never restarted meets each leaf entry once, as long as nothing
    /// writes to the tree under it; a caller that does write between
    /// steps restarts the cursor.
    emitted: Emitted<(u64, K::Dedup)>,
}

impl<K: TreeKey> Cursor<K> {
    /// Resets the scan to the root of `src` — the Section 5.5 rule:
    /// after a deletion condensed the tree, pages under the cursor may
    /// have been freed, so every open scan over **any** tree kind must
    /// restart before its next step. The captured context is kept (the
    /// statement's time does not change mid-scan) and so is the
    /// emitted memory, armed from here on, so rows returned before the
    /// restart are not returned again by the re-walk.
    pub fn restart<S: NodeSource<K>>(&mut self, src: &S) {
        self.root = src.meta().root;
        self.stack.clear();
        self.primed = false;
        self.emitted.arm();
    }

    fn push<S: NodeSource<K>>(&mut self, src: &S, page: u32) -> Result<()> {
        src.metrics().nodes_visited.inc();
        let node = src.read_node(page)?;
        self.stack.push(Frame { node, next: 0 });
        Ok(())
    }

    pub(crate) fn next<S: NodeSource<K>>(&mut self, src: &S) -> Result<Option<(K::Key, u64)>> {
        let key = &src.meta().key;
        while let Some((k, rowid)) = self.advance(src)? {
            if self.emitted.insert((rowid, key.dedup_key(&k))) {
                return Ok(Some((k, rowid)));
            }
        }
        Ok(None)
    }

    /// The traversal alone: the next qualifying leaf entry, whether or
    /// not this cursor returned it before. For a caller that keeps an
    /// [`Emitted`] of its own across several cursors (the blade's scan,
    /// which spans the probes of an OR and replaces its cursor on a
    /// restart); everyone else steps with [`NodeSource::cursor_next`].
    pub fn advance<S: NodeSource<K>>(&mut self, src: &S) -> Result<Option<(K::Key, u64)>> {
        if !self.primed {
            self.primed = true;
            self.push(src, self.root)?;
        }
        let key = &src.meta().key;
        loop {
            let Some(frame) = self.stack.last_mut() else {
                return Ok(None);
            };
            let Some(e) = frame.node.entries.get(frame.next) else {
                self.stack.pop();
                continue;
            };
            frame.next += 1;
            key.charge(&e.key, src.metrics());
            if frame.node.is_leaf() {
                if key.matches(&e.key, &self.query, self.ctx) {
                    return Ok(Some((e.key.clone(), e.ptr)));
                }
            } else if key.consistent(&e.key, &self.query, self.ctx) {
                // Descend only where the bound could contain a
                // qualifying entry.
                let child = e.child();
                self.push(src, child)?;
            }
        }
    }
}
