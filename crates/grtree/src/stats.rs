//! GR-tree quality statistics: the kernel's dead-space/overlap walk
//! plus the census of GR-specific bound encodings (stairs, hidden
//! rectangles, growing rectangles).

use crate::key::GrKey;
use crate::Result;
use grt_temporal::{Day, VtEnd};
use grt_treekit::Tree;

/// Aggregates for one tree level.
pub type GrLevelQuality = grt_treekit::LevelQuality;

/// Whole-tree quality at a point in time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GrQuality {
    /// Per-level aggregates, leaves first.
    pub levels: Vec<GrLevelQuality>,
    /// Internal entries whose bound is a stair shape.
    pub stair_bounds: u64,
    /// Internal entries carrying the `Hidden` flag.
    pub hidden_bounds: u64,
    /// Internal entries carrying the `Rectangle` flag (growing rects).
    pub growing_rect_bounds: u64,
}

impl GrQuality {
    /// Walks `tree` at current time `ct`.
    pub fn compute(tree: &Tree<GrKey>, ct: Day) -> Result<GrQuality> {
        let mut q = GrQuality::default();
        q.levels = tree
            .quality(ct, |node| {
                if node.is_leaf() {
                    return;
                }
                for e in &node.entries {
                    q.hidden_bounds += e.key.hidden as u64;
                    q.growing_rect_bounds += e.key.rect as u64;
                    q.stair_bounds += (matches!(e.key.vt_end, VtEnd::Now) && !e.key.rect) as u64;
                }
            })?
            .levels;
        Ok(q)
    }

    /// Total overlap across all levels.
    pub fn total_overlap(&self) -> i128 {
        self.levels.iter().map(|l| l.overlap).sum()
    }

    /// Total dead space across all levels.
    pub fn total_dead_space(&self) -> i128 {
        self.levels.iter().map(|l| l.dead_space).sum()
    }
}
