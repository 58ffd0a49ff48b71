//! The disk-resident tree: node store, insert driver, delete/condense
//! driver and invariant checker.
//!
//! The drivers follow Beckmann et al.'s R\*-tree (SIGMOD 1990) in
//! structure — forced reinsertion on the first overflow per level,
//! deletion with tree condensation, underfull nodes dissolved and their
//! entries reinserted at their original level — and leave every
//! geometric decision to the [`TreeKey`].

use crate::cursor::{Cursor, NodeSource};
use crate::{decode_free, encode_free, Entry, Meta, Node, Result, TreeError, TreeKey, NO_PAGE};
use grt_metrics::TreeMetrics;
use grt_sbspace::{LoHandle, PageGuard};
use std::collections::HashSet;

/// Outcome of a deletion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeleteOutcome {
    /// Whether the entry existed.
    pub found: bool,
    /// Whether the tree was condensed (nodes dissolved and entries
    /// reinserted) — open cursors must restart (the paper's Section
    /// 5.5 rule, see [`Cursor::restart`]).
    pub condensed: bool,
}

/// A disk-resident tree owning its large-object handle.
pub struct Tree<K: TreeKey> {
    lo: LoHandle,
    meta: Meta<K>,
    /// Operation counters; detached by default, swapped for
    /// registry-backed cells via [`Tree::set_metrics`].
    metrics: TreeMetrics,
}

/// What became of a node a deletion passed through.
enum Fate<T> {
    /// It survives, possibly with a new bound.
    Alive,
    /// It went underfull: its page is to be freed and its entries
    /// reinserted at the given level.
    Dissolved(Vec<Entry<T>>, u16),
}

/// Entries awaiting (re)insertion, each with its target level.
type Pending<T> = Vec<(Entry<T>, u16)>;

impl<K: TreeKey> Tree<K> {
    /// Initialises a fresh tree inside an (empty) large object.
    pub fn create(mut lo: LoHandle, meta: Meta<K>) -> Result<Tree<K>> {
        if lo.page_count() != 0 {
            return Err(TreeError::Usage("large object not empty".into()));
        }
        lo.append_page(&meta.encode())?;
        let root = Node {
            level: 0,
            entries: Vec::new(),
        };
        lo.append_page(&*meta.key.encode_node(&root)?)?;
        Ok(Tree {
            lo,
            meta,
            metrics: TreeMetrics::default(),
        })
    }

    /// Opens an existing tree; `key` receives the parameters the header
    /// persists for it.
    pub fn open(key: K, lo: LoHandle) -> Result<Tree<K>> {
        let meta = Meta::decode_with(key, &*lo.read_page_pinned(0)?)?;
        Ok(Tree {
            lo,
            meta,
            metrics: TreeMetrics::default(),
        })
    }

    /// Replaces the operation counters, typically with
    /// [`TreeMetrics::registered`] cells so this tree's splits,
    /// condenses and search costs show up in an engine-wide registry.
    pub fn set_metrics(&mut self, metrics: TreeMetrics) {
        self.metrics = metrics;
    }

    /// Releases the large-object handle, flushing the header when the
    /// handle is writable (read-only opens never changed it).
    pub fn into_lo(mut self) -> Result<LoHandle> {
        if self.lo.is_writable() {
            self.write_meta()?;
        }
        Ok(self.lo)
    }

    /// The key policy.
    pub fn key(&self) -> &K {
        &self.meta.key
    }

    /// The operation counters this tree bumps.
    pub fn metrics(&self) -> &TreeMetrics {
        &self.metrics
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

    /// Total pages owned, header included.
    pub fn pages(&self) -> u32 {
        self.lo.page_count()
    }

    /// Maximum node fan-out of this tree instance.
    pub fn max_entries(&self) -> usize {
        self.meta.max_entries as usize
    }

    /// Minimum fill of non-root nodes of this tree instance.
    pub fn min_fill(&self) -> usize {
        self.meta.min_fill as usize
    }

    /// The root page (for structure dumps).
    pub fn root_page(&self) -> u32 {
        self.meta.root
    }

    /// Resets a cursor to the root (after tree condensation).
    pub fn cursor_restart(&self, cursor: &mut Cursor<K>) {
        cursor.restart(self);
    }

    fn write_meta(&mut self) -> Result<()> {
        self.lo.write_page(0, &self.meta.encode())?;
        Ok(())
    }

    fn write_node(&mut self, page: u32, node: &Node<K::Key>) -> Result<()> {
        self.lo
            .write_page(page, &*self.meta.key.encode_node(node)?)?;
        Ok(())
    }

    /// Appends a node past the end of the object (no free-chain reuse):
    /// the packer's only write.
    pub(crate) fn append_node(&mut self, node: &Node<K::Key>) -> Result<u32> {
        Ok(self.lo.append_page(&*self.meta.key.encode_node(node)?)?)
    }

    /// Installs the packed root and counters.
    pub(crate) fn install_root(&mut self, root: u32, height: u32, count: u64) -> Result<()> {
        self.meta.root = root;
        self.meta.height = height.max(1);
        self.meta.count = count;
        self.write_meta()
    }

    fn alloc_node(&mut self, node: &Node<K::Key>) -> Result<u32> {
        if self.meta.free_head != NO_PAGE {
            let page = self.meta.free_head;
            self.meta.free_head = decode_free::<K>(&*self.lo.read_page_pinned(page)?)?;
            self.write_node(page, node)?;
            return Ok(page);
        }
        self.append_node(node)
    }

    fn free_node(&mut self, page: u32) -> Result<()> {
        self.lo
            .write_page(page, &encode_free::<K>(self.meta.free_head))?;
        self.meta.free_head = page;
        Ok(())
    }

    /// The parent entry for the node on `page`.
    fn entry_for(&self, page: u32, node: &Node<K::Key>, ctx: K::Ctx) -> Entry<K::Key> {
        Entry {
            key: self.meta.key.stored_bound(&node.entries, ctx),
            ptr: page as u64,
        }
    }

    /// Inserts `key` with payload `rowid`.
    pub fn insert(&mut self, key: K::Key, rowid: u64, ctx: K::Ctx) -> Result<()> {
        self.meta.key.validate(&key, ctx)?;
        self.insert_at(Entry { key, ptr: rowid }, 0, ctx)?;
        self.meta.count += 1;
        self.write_meta()
    }

    /// Inserts one entry at `level`, then whatever forced reinsertion
    /// evicted on the way, most recent first; each level reinserts at
    /// most once per call.
    fn insert_at(&mut self, entry: Entry<K::Key>, level: u16, ctx: K::Ctx) -> Result<()> {
        let mut reinserted = HashSet::new();
        let mut pending = vec![(entry, level)];
        while let Some((entry, level)) = pending.pop() {
            let root = self.meta.root;
            let split = self.insert_rec(root, entry, level, ctx, &mut reinserted, &mut pending)?;
            if let Some(sibling) = split {
                // The root split: grow the tree by one level.
                let old_root = self.read_node(root)?;
                let new_root = Node {
                    level: old_root.level + 1,
                    entries: vec![self.entry_for(root, &old_root, ctx), sibling],
                };
                self.meta.root = self.alloc_node(&new_root)?;
                self.meta.height += 1;
            }
        }
        Ok(())
    }

    /// Recursive insertion; returns the sibling entry if this node split.
    fn insert_rec(
        &mut self,
        page: u32,
        entry: Entry<K::Key>,
        target_level: u16,
        ctx: K::Ctx,
        reinserted: &mut HashSet<u16>,
        pending: &mut Pending<K::Key>,
    ) -> Result<Option<Entry<K::Key>>> {
        let mut node = self.read_node(page)?;
        if node.level == target_level {
            node.entries.push(entry);
        } else {
            if node.is_leaf() || node.entries.is_empty() {
                return Err(TreeError::corrupt::<K>("no subtree above target level"));
            }
            let idx = self
                .meta
                .key
                .choose_subtree(node.level, &node.entries, &entry.key, ctx);
            let child = node.entries[idx].child();
            let split = self.insert_rec(child, entry, target_level, ctx, reinserted, pending)?;
            // Refresh the chosen child's bound.
            node.entries[idx] = self.entry_for(child, &self.read_node(child)?, ctx);
            node.entries.extend(split);
        }
        if node.entries.len() > self.meta.max_entries as usize {
            let is_root = page == self.meta.root;
            if !is_root && self.meta.reinsert_pct > 0 && reinserted.insert(node.level) {
                // Forced reinsertion: evict the share of entries the
                // key ranks farthest out and re-add them at this level.
                let k = ((node.entries.len() * self.meta.reinsert_pct as usize) / 100).max(1);
                self.metrics.reinserts.add(k as u64);
                self.meta.key.sort_for_reinsert(&mut node.entries, ctx);
                let level = node.level;
                pending.extend(node.entries.drain(..k).map(|e| (e, level)));
                self.write_node(page, &node)?;
                return Ok(None);
            }
            self.metrics.splits.inc();
            let level = node.level;
            let (a, b) = self
                .meta
                .key
                .split(node.entries, self.meta.min_fill as usize, ctx)?;
            self.write_node(page, &Node { level, entries: a })?;
            let b = Node { level, entries: b };
            let sibling = Entry {
                key: self.meta.key.stored_bound(&b.entries, ctx),
                ptr: self.alloc_node(&b)? as u64,
            };
            return Ok(Some(sibling));
        }
        self.write_node(page, &node)?;
        Ok(None)
    }

    /// Deletes the entry `(key, rowid)`. Underfull nodes are dissolved
    /// and their entries reinserted (CondenseTree).
    pub fn delete(&mut self, key: &K::Key, rowid: u64, ctx: K::Ctx) -> Result<DeleteOutcome> {
        let mut orphans: Vec<(Vec<Entry<K::Key>>, u16)> = Vec::new();
        let root = self.meta.root;
        if self
            .delete_rec(root, key, rowid, ctx, &mut orphans)?
            .is_none()
        {
            return Ok(DeleteOutcome {
                found: false,
                condensed: false,
            });
        }
        let condensed = !orphans.is_empty();
        if condensed {
            self.metrics.condenses.inc();
        }
        // Reinsert the dissolved nodes' entries at their own level.
        for (entries, level) in orphans {
            for entry in entries {
                self.insert_at(entry, level, ctx)?;
            }
        }
        // Shrink the root while it is internal with a single child.
        loop {
            let root = self.read_node(self.meta.root)?;
            if root.is_leaf() || root.entries.len() != 1 {
                break;
            }
            let old = self.meta.root;
            self.meta.root = root.entries[0].child();
            self.meta.height -= 1;
            self.free_node(old)?;
        }
        self.meta.count -= 1;
        self.write_meta()?;
        Ok(DeleteOutcome {
            found: true,
            condensed,
        })
    }

    /// Recursive delete; `Ok(Some(fate))` when the entry was found
    /// under `page`.
    fn delete_rec(
        &mut self,
        page: u32,
        key: &K::Key,
        rowid: u64,
        ctx: K::Ctx,
        orphans: &mut Vec<(Vec<Entry<K::Key>>, u16)>,
    ) -> Result<Option<Fate<K::Key>>> {
        let mut node = self.read_node(page)?;
        let mut found = false;
        if node.is_leaf() {
            if let Some(idx) = node
                .entries
                .iter()
                .position(|e| e.ptr == rowid && e.key == *key)
            {
                node.entries.remove(idx);
                found = true;
            }
        } else {
            for idx in 0..node.entries.len() {
                if !self.meta.key.covers(&node.entries[idx].key, key, ctx) {
                    continue;
                }
                let child = node.entries[idx].child();
                match self.delete_rec(child, key, rowid, ctx, orphans)? {
                    None => continue,
                    Some(Fate::Alive) => {
                        node.entries[idx] = self.entry_for(child, &self.read_node(child)?, ctx);
                    }
                    Some(Fate::Dissolved(entries, level)) => {
                        orphans.push((entries, level));
                        self.free_node(child)?;
                        node.entries.remove(idx);
                    }
                }
                found = true;
                break;
            }
        }
        if !found {
            return Ok(None);
        }
        if page != self.meta.root && node.entries.len() < self.meta.min_fill as usize {
            return Ok(Some(Fate::Dissolved(node.entries, node.level)));
        }
        self.write_node(page, &node)?;
        Ok(Some(Fate::Alive))
    }

    /// Verifies structural invariants: every internal entry bounds its
    /// child ([`TreeKey::bounds_child`]), levels decrease by one,
    /// non-root nodes respect minimum fill, and the leaf count matches
    /// the header.
    pub fn check(&self, ctx: K::Ctx) -> Result<()> {
        let mut leaves = 0u64;
        self.check_rec(self.meta.root, None, ctx, &mut leaves)?;
        if leaves != self.meta.count {
            return Err(TreeError::corrupt::<K>(format!(
                "count mismatch: header {} vs leaves {leaves}",
                self.meta.count
            )));
        }
        Ok(())
    }

    /// Checks the subtree under `page`; returns its bound, `None` for
    /// an empty node (legal only as the root).
    fn check_rec(
        &self,
        page: u32,
        expect_level: Option<u16>,
        ctx: K::Ctx,
        leaves: &mut u64,
    ) -> Result<Option<K::Key>> {
        let node = self.read_node(page)?;
        let corrupt = |what: String| TreeError::corrupt::<K>(format!("page {page}: {what}"));
        if let Some(l) = expect_level {
            if node.level != l {
                return Err(corrupt(format!("level {} expected {l}", node.level)));
            }
            if node.entries.len() < self.meta.min_fill as usize {
                return Err(corrupt(format!(
                    "underfull ({} < {})",
                    node.entries.len(),
                    self.meta.min_fill
                )));
            }
        }
        if node.is_leaf() {
            *leaves += node.entries.len() as u64;
        } else {
            for e in &node.entries {
                let child = self
                    .check_rec(e.child(), Some(node.level - 1), ctx, leaves)?
                    .ok_or_else(|| corrupt("empty child".into()))?;
                if !self.meta.key.bounds_child(&e.key, &child, ctx) {
                    return Err(corrupt(format!(
                        "entry {:?} does not bound its child {child:?}",
                        e.key
                    )));
                }
            }
        }
        Ok((!node.entries.is_empty()).then(|| self.meta.key.bound(&node.entries, ctx)))
    }
}

impl<K: TreeKey> NodeSource<K> for Tree<K> {
    fn meta(&self) -> &Meta<K> {
        &self.meta
    }

    fn metrics(&self) -> &TreeMetrics {
        &self.metrics
    }

    fn page(&self, page: u32) -> Result<PageGuard> {
        Ok(self.lo.read_page_pinned(page)?)
    }

    fn pages(&self) -> u32 {
        Tree::pages(self)
    }
}
