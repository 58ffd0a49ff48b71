//! Tree-quality statistics: the "goodness" measures of the paper's
//! Section 3 — dead space and overlap per tree level.

use crate::cursor::NodeSource;
use crate::{Node, Result, Tree, TreeKey};
use std::collections::VecDeque;

/// Aggregates for one tree level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelQuality {
    /// Nodes at this level.
    pub nodes: u64,
    /// Entries across those nodes.
    pub entries: u64,
    /// Sum of node bound areas.
    pub bound_area: i128,
    /// Sum over nodes of `bound area - sum(entry areas)` clamped at
    /// zero — the dead-space proxy (space in the bound covered by no
    /// entry, ignoring entry overlap).
    pub dead_space: i128,
    /// Sum over nodes of pairwise entry overlap areas.
    pub overlap: i128,
}

/// Quality per level, index 0 = leaves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreeQuality {
    /// Per-level aggregates, leaves first.
    pub levels: Vec<LevelQuality>,
}

impl TreeQuality {
    /// Total overlap across all levels.
    pub fn total_overlap(&self) -> i128 {
        self.levels.iter().map(|l| l.overlap).sum()
    }

    /// Total dead space across all levels.
    pub fn total_dead_space(&self) -> i128 {
        self.levels.iter().map(|l| l.dead_space).sum()
    }

    /// Average leaf fill factor (entries per leaf).
    pub fn leaf_fill(&self) -> f64 {
        let leaves = &self.levels[0];
        if leaves.nodes == 0 {
            return 0.0;
        }
        leaves.entries as f64 / leaves.nodes as f64
    }
}

impl<K: TreeKey> Tree<K> {
    /// Computes quality statistics (nodes, fill, area, overlap) per
    /// level, breadth-first; `visit` sees every node on the way, for
    /// key-specific censuses.
    pub fn quality(
        &self,
        ctx: K::Ctx,
        mut visit: impl FnMut(&Node<K::Key>),
    ) -> Result<TreeQuality> {
        let key = self.key();
        let mut levels = vec![LevelQuality::default(); self.height() as usize];
        let mut queue = VecDeque::from([self.root_page()]);
        while let Some(page) = queue.pop_front() {
            let node = self.read_node(page)?;
            let lq = &mut levels[node.level as usize];
            lq.nodes += 1;
            lq.entries += node.entries.len() as u64;
            if !node.entries.is_empty() {
                let bound = key.area(&key.bound(&node.entries, ctx), ctx);
                lq.bound_area += bound;
                let covered: i128 = node.entries.iter().map(|e| key.area(&e.key, ctx)).sum();
                lq.dead_space += (bound - covered).max(0);
                for (i, a) in node.entries.iter().enumerate() {
                    for b in &node.entries[i + 1..] {
                        lq.overlap += key.overlap(&a.key, &b.key, ctx);
                    }
                }
            }
            if !node.is_leaf() {
                queue.extend(node.entries.iter().map(|e| e.child()));
            }
            visit(&node);
        }
        Ok(TreeQuality { levels })
    }
}
