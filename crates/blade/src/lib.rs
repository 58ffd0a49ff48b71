//! The **GR-tree DataBlade** — the paper's primary artifact.
//!
//! This crate is the module a developer would ship as `grtree.bld`:
//!
//! * the opaque type `GRT_TimeExtent_t` with its type support functions
//!   (text input/output with `UC`/`NOW` handling and the Section 2
//!   constraint checks) — [`extent_type`];
//! * the strategy-function UDRs `Overlaps`, `Equal`, `Contains`,
//!   `ContainedIn` over two time extents — [`register`];
//! * the access-method purpose functions of the paper's Table 5,
//!   bridging the engine's Virtual-Index Interface to the paged-tree
//!   kernel, written once for every tree — `tree_am` and `purpose`: cursor
//!   management with the Section 5.5 restart-on-condense rule, the
//!   Section 5.4 per-statement / per-transaction current-time caching
//!   ([`curtime`]), snapshot reads, packed builds and
//!   the Section 6 cost formula;
//! * `grtree_am`, the GR-tree instantiation with its qualification
//!   decomposition ([`qual`]) and the `grt_*` step trace —
//!   [`grtree_am`];
//! * `rstar_am`, a baseline over the same opaque type backed by a
//!   plain R\*-tree with `UC`/`NOW` substitution and refinement —
//!   [`rstar_am`] — playing the role of "Informix's own predefined
//!   R-tree access method";
//! * `gist_am`, the paper's Section 7 generic access method as a
//!   DataBlade over an integer-range opaque type — [`gist_am`];
//! * the registration script (the artifact BladeSmith would generate)
//!   and a one-call installer — [`register`].

//! ```
//! use grt_blade::{install_grtree_blade, GrTreeAmOptions};
//! use grt_ids::{Database, DatabaseOptions};
//!
//! let db = Database::new(DatabaseOptions::default());
//! install_grtree_blade(&db, GrTreeAmOptions::default()).unwrap();
//! let conn = db.connect();
//! conn.exec("CREATE TABLE e (Name text, Time_Extent GRT_TimeExtent_t)").unwrap();
//! conn.exec("CREATE INDEX ix ON e(Time_Extent grt_opclass) USING grtree_am").unwrap();
//! conn.exec("INSERT INTO e VALUES ('Ada', '3/97, UC, 3/97, NOW')").unwrap();
//! let r = conn
//!     .exec("SELECT Name FROM e WHERE Overlaps(Time_Extent, '3/97, UC, 3/97, NOW')")
//!     .unwrap();
//! assert_eq!(r.text()[0][0], "Ada");
//! ```

pub mod curtime;
pub mod extent_type;
pub mod gist_am;
pub mod grtree_am;
pub(crate) mod purpose;
pub mod qual;
pub mod register;
pub mod rstar_am;
pub(crate) mod tree_am;

pub use curtime::CurrentTimePolicy;
pub use extent_type::{extent_from_value, extent_to_value, grt_time_extent_type, TYPE_NAME};
pub use grtree_am::{GrTreeAm, GrTreeAmOptions};
pub use register::{
    install_grtree_blade, install_rstar_blade, registration_script, uninstall_grtree_blade,
    unregistration_script,
};
pub use rstar_am::RStarBitemporalAm;
pub use tree_am::DeletePolicy;
