//! The **GR-tree**: an R\*-tree-based index for now-relative bitemporal
//! data (Bliujūtė, Jensen, Šaltenis, Slivinskas — the index this
//! paper's DataBlade implements).
//!
//! Unlike an ordinary spatial index, GR-tree entries store the `UC` and
//! `NOW` *variables* at **all** tree levels, so the index represents
//! growing rectangles and growing stair shapes exactly:
//!
//! * a **leaf entry** holds the tuple's four timestamps (possibly with
//!   `UC`/`NOW`) plus the rowid of the indexed tuple;
//! * a **non-leaf entry** holds four timestamps plus the `Rectangle`
//!   flag (a `(tt1, UC, vt1, NOW)` bound can denote a growing rectangle
//!   rather than a stair) and the `Hidden` flag (a growing stair hidden
//!   inside a fixed bounding rectangle that it will one day outgrow),
//!   plus the child page number.
//!
//! The insertion, split, and deletion algorithms follow the R\*-tree,
//! with all penalty metrics (area, overlap, margin) computed on regions
//! resolved at `ct + time_param`: the *time parameter* of the GR-tree
//! insertion algorithms accounts for the future development of growing
//! entries, so that two entries that barely overlap today but grow into
//! each other tomorrow are penalised today.
//!
//! Like the DataBlade prototype, the tree lives in a single sbspace
//! large object, one node per 4 KiB page, header on logical page 0.
//!
//! ```
//! use grt_grtree::{GrTree, GrTreeOptions};
//! use grt_sbspace::{IsolationLevel, LockMode, Sbspace, SbspaceOptions};
//! use grt_temporal::{Day, Predicate, TimeExtent, VtEnd};
//!
//! let sb = Sbspace::mem(SbspaceOptions::default());
//! let txn = sb.begin(IsolationLevel::ReadCommitted);
//! let lo = sb.create_lo(&txn).unwrap();
//! let handle = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
//! let mut tree = GrTree::create(handle, GrTreeOptions::default()).unwrap();
//!
//! // Insert a now-relative fact on day 100 and find it years later —
//! // the growing region needs no refresh.
//! let ct = Day(100);
//! let fact = TimeExtent::insert(ct, Day(100), VtEnd::Now).unwrap();
//! tree.insert(fact, 7, ct).unwrap();
//! let probe = TimeExtent::insert(Day(5_000), Day(4_999), VtEnd::Now).unwrap();
//! let hits = tree.search(Predicate::Overlaps, &probe, Day(5_000)).unwrap();
//! assert_eq!(hits.len(), 1);
//! drop(tree.into_lo().unwrap());
//! txn.commit().unwrap();
//! ```

pub mod bulk;
pub mod entry;
pub mod key;
pub mod meta;
pub mod stats;
pub mod tree;

pub use entry::{GrNode, InternalEntry, LeafEntry};
pub use grt_treekit::NodeSource;
pub use key::{GrKey, GrQuery};
pub use stats::GrQuality;
pub use tree::{GrCursor, GrDeleteOutcome, GrTree, GrTreeOptions, GrTreeReader};

/// Errors from the GR-tree layer: the kernel's, whose corruption
/// reports read "corrupt gr-tree: …". Bad timestamps surface as
/// `Usage("temporal: …")` on insertion and as corruption on decode.
pub type GrError = grt_treekit::TreeError;

/// Convenience result alias for this crate.
pub type Result<T> = grt_treekit::Result<T>;
