//! Bulk loading: the packed (sort-tile-recursive) build every access
//! method uses for `CREATE INDEX` over an already-populated table, and
//! the rebuild half of vacuuming (Section 5.5: "drop the index and then
//! create it from scratch using a bulk loading algorithm").

use crate::{Entry, Meta, Node, Result, Tree, TreeKey};
use grt_sbspace::LoHandle;

impl<K: TreeKey> Tree<K> {
    /// Bulk-loads a tree from leaf `entries` into an empty large object
    /// using sort-tile-recursive packing over the keys' centres.
    pub fn bulk_load(
        lo: LoHandle,
        meta: Meta<K>,
        mut entries: Vec<Entry<K::Key>>,
        ctx: K::Ctx,
    ) -> Result<Tree<K>> {
        let mut tree = Tree::create(lo, meta)?;
        if entries.is_empty() {
            return Ok(tree);
        }
        // Target fill: ~90% of fan-out, the classical packing compromise.
        let cap = (tree.max_entries() * 9 / 10).max(2);
        let min = tree.min_fill();
        // STR: sort by the first centre coordinate, slice into vertical
        // slabs, sort each slab by the second, pack runs of `cap`.
        entries.sort_by_key(|e| tree.key().center(&e.key, ctx).0);
        let n = entries.len();
        let leaves_needed = n.div_ceil(cap);
        let slabs = (leaves_needed as f64).sqrt().ceil() as usize;
        let per_slab = n.div_ceil(slabs.max(1));
        // Write leaves, then build parent levels bottom-up.
        let mut level_entries: Vec<Entry<K::Key>> = Vec::new();
        for slab in balanced_runs(n, per_slab.max(1), min) {
            let slab = &mut entries[slab];
            slab.sort_by_key(|e| tree.key().center(&e.key, ctx).1);
            for run in balanced_runs(slab.len(), cap, min) {
                level_entries.push(tree.pack(0, slab[run].to_vec(), ctx)?);
            }
        }
        let mut level = 1u16;
        while level_entries.len() > 1 {
            let mut next = Vec::new();
            for run in balanced_runs(level_entries.len(), cap, min) {
                next.push(tree.pack(level, level_entries[run].to_vec(), ctx)?);
            }
            level_entries = next;
            level += 1;
        }
        tree.install_root(level_entries[0].child(), level as u32, n as u64)?;
        Ok(tree)
    }

    /// Appends one packed node (no balancing) and returns its parent
    /// entry.
    fn pack(
        &mut self,
        level: u16,
        entries: Vec<Entry<K::Key>>,
        ctx: K::Ctx,
    ) -> Result<Entry<K::Key>> {
        let key = self.key().stored_bound(&entries, ctx);
        let ptr = self.append_node(&Node { level, entries })? as u64;
        Ok(Entry { key, ptr })
    }
}

/// Splits `n` items into runs of at most `cap`, each of at least `min`
/// items (when `n >= min`): a short final run borrows from its
/// predecessor so no packed node violates the minimum-fill invariant.
fn balanced_runs(n: usize, cap: usize, min: usize) -> Vec<std::ops::Range<usize>> {
    let mut runs = Vec::new();
    let mut start = 0usize;
    while start < n {
        let remaining = n - start;
        let take = if remaining > cap && remaining - cap < min && remaining >= 2 * min {
            // Leave enough behind for a legal final run.
            remaining - min
        } else {
            remaining.min(cap)
        };
        runs.push(start..start + take.min(cap).max(1));
        start += take.min(cap).max(1);
    }
    runs
}
