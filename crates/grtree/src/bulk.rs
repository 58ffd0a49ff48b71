//! Bulk loading and vacuuming.
//!
//! Section 5.5 of the paper: "Sometimes vacuuming will have to be
//! performed to delete all data that is more than, for example, five
//! years old. ... A straightforward solution is to drop the index and
//! then create it from scratch using a bulk loading algorithm." The
//! kernel's packer is the bulk loading algorithm (STR over resolved
//! region centres); this module adds the rebuild-based vacuum.

use crate::entry::LeafEntry;
use crate::tree::{GrTree, GrTreeOptions};
use crate::Result;
use grt_sbspace::LoHandle;
use grt_temporal::{Day, TimeExtent, TtEnd};
use grt_treekit::{Entry, NodeSource, Tree};

/// Bulk-loads a GR-tree from `entries` into an empty large object using
/// sort-tile-recursive packing over resolved region centres at `ct`.
pub fn bulk_load(
    lo: LoHandle,
    entries: Vec<LeafEntry>,
    ct: Day,
    opts: GrTreeOptions,
) -> Result<GrTree> {
    let entries = entries.into_iter().map(Entry::from).collect();
    Tree::bulk_load(lo, opts.header(), entries, ct).map(GrTree)
}

/// Rebuild-based vacuum: keeps only the entries `keep` accepts,
/// bulk-loading them into a fresh large object. Returns the new tree and
/// the number of removed entries.
pub fn vacuum_rebuild(
    tree: GrTree,
    fresh_lo: LoHandle,
    ct: Day,
    mut keep: impl FnMut(&LeafEntry) -> bool,
) -> Result<(GrTree, u64)> {
    let survivors = collect_leaves(&tree, |e| keep(e))?;
    let removed = tree.len() - survivors.len() as u64;
    let opts = tree.options();
    drop(tree.into_lo()?);
    let new_tree = bulk_load(fresh_lo, survivors, ct, opts)?;
    Ok((new_tree, removed))
}

/// The standard vacuum predicate of the paper's example: keep entries
/// whose transaction time is still open or ended within the horizon.
pub fn not_older_than(cutoff: Day) -> impl FnMut(&LeafEntry) -> bool {
    move |e: &LeafEntry| match e.extent.tt_end {
        TtEnd::Uc => true,
        TtEnd::Ground(end) => end >= cutoff,
    }
}

/// Scans every leaf entry, returning those the filter accepts.
pub fn collect_leaves(
    tree: &GrTree,
    mut filter: impl FnMut(&LeafEntry) -> bool,
) -> Result<Vec<LeafEntry>> {
    let mut out = Vec::new();
    let mut stack = vec![tree.root_page()];
    while let Some(page) = stack.pop() {
        let node = tree.0.read_node(page)?;
        if node.is_leaf() {
            let leaves = node.entries.into_iter().map(LeafEntry::from);
            out.extend(leaves.filter(|e| filter(e)));
        } else {
            stack.extend(node.entries.iter().map(Entry::child));
        }
    }
    Ok(out)
}

/// Convenience: bulk-load from bare `(extent, rowid)` pairs.
pub fn bulk_load_pairs(
    lo: LoHandle,
    pairs: &[(u64, TimeExtent)],
    ct: Day,
    opts: GrTreeOptions,
) -> Result<GrTree> {
    let entries = pairs
        .iter()
        .map(|(rowid, extent)| LeafEntry {
            extent: *extent,
            rowid: *rowid,
        })
        .collect();
    bulk_load(lo, entries, ct, opts)
}
