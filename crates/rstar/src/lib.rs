//! The R\*-tree baseline.
//!
//! The GR-tree "is based on the R\*-tree" (Beckmann et al., SIGMOD
//! 1990), and the paper's performance claims are relative to R\*-tree
//! adaptations for bitemporal data. This crate provides:
//!
//! * a complete disk-resident R\*-tree over 2-D integer rectangles,
//!   stored — like the GR-tree DataBlade — inside a single sbspace
//!   large object, one node per page (ChooseSubtree with overlap
//!   enlargement at the leaf level, margin-driven split-axis selection,
//!   forced reinsertion, deletion with tree condensation);
//! * the two classical adaptations used as comparison points for
//!   indexing now-relative data with an ordinary spatial index
//!   ([`bitemporal`]): substituting `UC`/`NOW` with the **maximum
//!   timestamp** and substituting them with the **current time** at
//!   insertion, both of which require an exact refinement step and
//!   whose bounding rectangles are either enormous (max-timestamp) or
//!   stale (current-time) — exactly the dead-space/overlap pathologies
//!   that motivate the GR-tree.

pub mod bitemporal;
pub mod geom;
pub mod meta;
pub mod node;
pub mod stats;
pub mod tree;

pub use geom::{Rect2, SpatialPredicate};
pub use grt_treekit::{NodeSource, TreeQuality};
pub use tree::{
    bulk_load, bulk_load_pairs, RStarCursor, RStarOptions, RStarTree, RStarTreeReader, RectKey,
};

/// Errors from the R\*-tree layer: the kernel's, whose corruption
/// reports read "corrupt r*-tree: …".
pub type RStarError = grt_treekit::TreeError;

/// Convenience result alias for this crate.
pub type Result<T> = grt_treekit::Result<T>;
