//! A **generalized search tree** — the paper's Section 7 future work.
//!
//! "Following the ideas of Hellerstein et al. \[HNP95\] and Aoki \[AOK98\],
//! a generic extendible tree-based access method ... could be integrated
//! into the kernel of the DBMS. Such a generic access method would
//! support the broad class of tree-based access methods by providing a
//! simple, high-level extension interface that isolates the primitive
//! operations required to construct new access methods. It is also
//! possible to implement such a generic access method as a DataBlade
//! and use specially designed operator classes to extend it."
//!
//! This repository does exactly that, and not as a side example: the
//! generic access method is the paged-tree kernel ([`grt_treekit`]),
//! and the GR-tree and the R\*-tree are themselves extensions of it.
//! This crate is the kernel's third instantiation, through the
//! classic four-primitive interface:
//!
//! * [`GistExtension`] is the high-level extension interface — the four
//!   GiST primitives `consistent`, `union`, `penalty`, `pick_split`
//!   over an opaque, variable-length key;
//! * [`GistKey`] adapts any extension onto the kernel's key trait, and
//!   [`GistTree`] is the resulting disk-resident tree over an sbspace
//!   large object (one node per page, like every index in this
//!   repository) — insertion, deletion with condensation, cursored
//!   search, bulk loading and consistency checking are
//!   the kernel's, all extension-agnostic;
//! * [`ext`] provides two classic instantiations: an interval tree over
//!   `i64` ranges (B-tree-flavoured) and a 2-D rectangle tree
//!   (R-tree-flavoured).
//!
//! The interval instantiation is registered as a full DataBlade-style
//! secondary access method (`gist_am`, in `grt-blade`) with its own
//! opaque type and strategy function — closing the loop on the paper's
//! "as a DataBlade" suggestion, and sharing every purpose-function body
//! with `grtree_am` and `rstar_am`.

pub mod adaptor;
pub mod ext;

pub use adaptor::{GistDeleteOutcome, GistExtension, GistKey, GistTree, GistTreeOptions};
pub use ext::{IntRange, IntRangeExt, RectExt, RectKey};

/// Errors from the GiST layer: the kernel's, whose corruption reports
/// read "corrupt gist: …".
pub type GistError = grt_treekit::TreeError;

/// Convenience result alias for this crate.
pub type Result<T> = grt_treekit::Result<T>;
