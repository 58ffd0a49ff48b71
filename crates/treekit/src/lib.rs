//! The **paged-tree kernel**: everything the GR-tree, the R\*-tree and
//! the generalized search tree have in common, written once.
//!
//! The paper's Section 7 asks for "a generic extendible tree-based
//! access method … a simple, high-level extension interface that
//! isolates the primitive operations". [`TreeKey`] is that interface;
//! the rest of this crate is the access method:
//!
//! * [`Tree`] — a tree in one sbspace large object, one node per page,
//!   header on page 0, condensed pages on an in-object free chain; the
//!   insert driver (descend → refresh the child bound → on overflow
//!   forced reinsertion once per level, else split → grow the root),
//!   the delete/condense driver, and the invariant checker;
//! * [`NodeSource`] — where a traversal reads nodes from: the locked
//!   [`Tree`] or a frozen [`Reader`] over a space snapshot;
//! * [`Cursor`] — the depth-first scan with its [`Emitted`] memory,
//!   and the Section 5.5 restart;
//! * [`Tree::bulk_load`] — the sort-tile-recursive packer;
//! * [`TreeQuality`] — the dead-space/overlap walk.
//!
//! A key type supplies only what differs between trees: the page
//! codec, the bounding union, the descent and leaf tests, subtree
//! choice, the split distribution and the reinsertion order. Dispatch
//! is static — every kernel type is generic over `K: TreeKey`, so each
//! tree is monomorphised and its per-entry tests inline; no `dyn`
//! object sits on a scan or insert path.

mod bulk;
mod cursor;
mod emitted;
mod quality;
mod reader;
mod tree;

pub use cursor::{Cursor, NodeSource};
pub use emitted::Emitted;
pub use quality::{LevelQuality, TreeQuality};
pub use reader::Reader;
pub use tree::{DeleteOutcome, Tree};

use grt_metrics::TreeMetrics;
use grt_sbspace::page::{get_u32, get_u64, page_from_slice, put_u32, put_u64, PageBuf, PAGE_SIZE};

/// "No page" sentinel ending the free chain.
pub const NO_PAGE: u32 = u32::MAX;

/// Errors from any tree built on the kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// Underlying storage failure.
    Storage(grt_sbspace::SbError),
    /// The large object does not hold a valid tree; the message leads
    /// with the tree's [`TreeKey::NAME`].
    Corrupt(String),
    /// API misuse.
    Usage(String),
}

impl TreeError {
    /// A corruption report for a `K`-tree ("corrupt gr-tree: …").
    pub fn corrupt<K: TreeKey>(detail: impl std::fmt::Display) -> TreeError {
        TreeError::Corrupt(format!("{}: {detail}", K::NAME))
    }
}

impl From<grt_sbspace::SbError> for TreeError {
    fn from(e: grt_sbspace::SbError) -> Self {
        TreeError::Storage(e)
    }
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Storage(e) => write!(f, "storage: {e}"),
            TreeError::Corrupt(m) => write!(f, "corrupt {m}"),
            TreeError::Usage(m) => write!(f, "usage: {m}"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Convenience result alias for the kernel and the trees on it.
pub type Result<T> = std::result::Result<T, TreeError>;

/// One node entry: a key plus a pointer — the rowid in a leaf, the
/// child's logical page number in an internal node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry<T> {
    /// The leaf's own key, or the bound of the child's subtree.
    pub key: T,
    /// Rowid (leaf) or child page (internal).
    pub ptr: u64,
}

impl<T> Entry<T> {
    /// The child page of an internal entry.
    pub fn child(&self) -> u32 {
        self.ptr as u32
    }
}

/// An in-memory node image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node<T> {
    /// 0 for leaves, increasing toward the root.
    pub level: u16,
    /// The node's entries.
    pub entries: Vec<Entry<T>>,
}

impl<T> Node<T> {
    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }
}

/// The header page: the fields every tree shares, at fixed offsets
/// after the key's magic, followed by whatever parameters the key
/// itself persists ([`TreeKey::encode_params`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meta<K> {
    /// Logical page of the root node.
    pub root: u32,
    /// Tree height: 1 when the root is a leaf.
    pub height: u32,
    /// Number of indexed entries.
    pub count: u64,
    /// Maximum entries per node (M).
    pub max_entries: u32,
    /// Minimum entries per non-root node (m).
    pub min_fill: u32,
    /// Head of the in-object chain of condensed node pages.
    pub free_head: u32,
    /// Percent of entries evicted by forced reinsertion (0 disables).
    pub reinsert_pct: u32,
    /// The key policy, carrying its persisted parameters.
    pub key: K,
}

/// Offset of the first key-owned header byte.
pub const META_PARAMS_AT: usize = 36;

impl<K: TreeKey> Meta<K> {
    /// The header of a fresh tree: an empty leaf root on page 1.
    pub fn fresh(key: K, max_entries: u32, min_fill: u32, reinsert_pct: u32) -> Meta<K> {
        Meta {
            root: 1,
            height: 1,
            count: 0,
            max_entries,
            min_fill,
            free_head: NO_PAGE,
            reinsert_pct,
            key,
        }
    }

    /// The R\*-tree sizing rule the fixed-layout keys share: `M`
    /// clamped to what a page holds, `m` a 10–50 % share of it (at
    /// least 2), reinsertion capped at 45 %.
    pub fn rstar_sized(
        key: K,
        max_entries: usize,
        page_fanout: usize,
        min_fill_pct: u32,
        reinsert_pct: u32,
    ) -> Meta<K> {
        let max_entries = max_entries.clamp(4, page_fanout) as u32;
        let min_fill = (max_entries * min_fill_pct.clamp(10, 50) / 100).max(2);
        Meta::fresh(key, max_entries, min_fill, reinsert_pct.min(45))
    }

    /// Serialises into a page image.
    pub fn encode(&self) -> PageBuf {
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[0..4].copy_from_slice(K::META_MAGIC);
        put_u32(&mut buf, 4, self.root);
        put_u32(&mut buf, 8, self.height);
        put_u64(&mut buf, 12, self.count);
        put_u32(&mut buf, 20, self.max_entries);
        put_u32(&mut buf, 24, self.min_fill);
        put_u32(&mut buf, 28, self.free_head);
        put_u32(&mut buf, 32, self.reinsert_pct);
        self.key.encode_params(&mut buf);
        page_from_slice(&buf)
    }

    /// Parses a page image, filling `key`'s persisted parameters.
    pub fn decode_with(mut key: K, buf: &[u8; PAGE_SIZE]) -> Result<Meta<K>> {
        if &buf[0..4] != K::META_MAGIC {
            return Err(TreeError::corrupt::<K>("bad header magic"));
        }
        key.decode_params(buf);
        Ok(Meta {
            root: get_u32(buf, 4),
            height: get_u32(buf, 8),
            count: get_u64(buf, 12),
            max_entries: get_u32(buf, 20),
            min_fill: get_u32(buf, 24),
            free_head: get_u32(buf, 28),
            reinsert_pct: get_u32(buf, 32),
            key,
        })
    }

    /// Parses a page image for a key with no state of its own beyond
    /// what the header persists.
    pub fn decode(buf: &[u8; PAGE_SIZE]) -> Result<Meta<K>>
    where
        K: Default,
    {
        Meta::decode_with(K::default(), buf)
    }
}

/// A freed node page awaiting reuse, linking to the next one.
pub fn encode_free<K: TreeKey>(next: u32) -> PageBuf {
    let mut buf = vec![0u8; PAGE_SIZE];
    buf[0..4].copy_from_slice(K::FREE_MAGIC);
    put_u32(&mut buf, 4, next);
    page_from_slice(&buf)
}

/// Decodes the next pointer of a freed node page.
pub fn decode_free<K: TreeKey>(buf: &[u8; PAGE_SIZE]) -> Result<u32> {
    if &buf[0..4] != K::FREE_MAGIC {
        return Err(TreeError::corrupt::<K>("bad free node magic"));
    }
    Ok(get_u32(buf, 4))
}

/// What a tree built on the kernel supplies: its on-disk codec and the
/// geometry of its keys. One value of the implementing type lives in
/// the tree's [`Meta`]; it may carry parameters (the GR-tree's time
/// parameter) or a user extension object (the GiST adaptor).
///
/// `ctx` is the per-operation context every geometric method receives:
/// the statement's current time for the GR-tree, `()` for keys that do
/// not change shape over time. The kernel passes it through untouched.
pub trait TreeKey: Send + Sync + 'static {
    /// The key stored in entries at every level: a leaf's own key, or
    /// the bound of a subtree.
    type Key: Clone + PartialEq + std::fmt::Debug + Send + Sync;
    /// The search argument of a scan.
    type Query: Send + Sync;
    /// The per-operation context (see the trait documentation).
    type Ctx: Copy + Send + Sync;
    /// A leaf key's identity in [`Emitted`] memories.
    type Dedup: Eq + std::hash::Hash + Send;

    /// The tree's name in error messages ("gr-tree").
    const NAME: &'static str;
    /// Magic of the header page.
    const META_MAGIC: &'static [u8; 4];
    /// Magic of a page on the free chain.
    const FREE_MAGIC: &'static [u8; 4];

    /// Serialises a node. Called by every node write; may fail only
    /// for keys whose size the caller controls.
    fn encode_node(&self, node: &Node<Self::Key>) -> Result<PageBuf>;
    /// Parses a node page. Called by every node read.
    fn decode_node(&self, buf: &[u8; PAGE_SIZE]) -> Result<Node<Self::Key>>;
    /// Writes the key's persisted parameters into the header image, at
    /// [`META_PARAMS_AT`] or beyond.
    fn encode_params(&self, _header: &mut [u8]) {}
    /// Reads them back.
    fn decode_params(&mut self, _header: &[u8; PAGE_SIZE]) {}

    /// Rejects a leaf key that must not be stored. Called by
    /// [`Tree::insert`] before anything is written.
    fn validate(&self, _key: &Self::Key, _ctx: Self::Ctx) -> Result<()> {
        Ok(())
    }

    /// The minimal key covering `entries` (never empty). Called by the
    /// checker, the quality walk and forced reinsertion.
    fn bound(&self, entries: &[Entry<Self::Key>], ctx: Self::Ctx) -> Self::Key;
    /// The key a parent entry stores for a child holding `entries`:
    /// [`TreeKey::bound`] unless the tree deliberately stores something
    /// looser. Called wherever the drivers write a parent entry.
    fn stored_bound(&self, entries: &[Entry<Self::Key>], ctx: Self::Ctx) -> Self::Key {
        self.bound(entries, ctx)
    }
    /// Could the subtree under `bound` hold the leaf key `key`? The
    /// delete driver descends only where this holds; it must be true
    /// for every bound on the path to a stored key.
    fn covers(&self, bound: &Self::Key, key: &Self::Key, ctx: Self::Ctx) -> bool;
    /// The checker's parent-entry invariant against the child's
    /// current [`TreeKey::bound`]; keys with a stricter invariant than
    /// coverage (exact MBRs) override it.
    fn bounds_child(&self, entry: &Self::Key, child: &Self::Key, ctx: Self::Ctx) -> bool {
        self.covers(entry, child, ctx)
    }
    /// Can a descendant of `bound` satisfy `query`? The descent test
    /// of every scan; may err only towards `true`.
    fn consistent(&self, bound: &Self::Key, query: &Self::Query, ctx: Self::Ctx) -> bool;
    /// Does the leaf key satisfy `query`? Exact.
    fn matches(&self, key: &Self::Key, query: &Self::Query, ctx: Self::Ctx) -> bool;
    /// Charges key-specific resolution work to the counters; called
    /// once per entry a scan tests.
    fn charge(&self, _key: &Self::Key, _metrics: &TreeMetrics) {}

    /// Index of the entry of a level-`level` node to descend into when
    /// inserting `new`. `entries` is never empty.
    fn choose_subtree(
        &self,
        level: u16,
        entries: &[Entry<Self::Key>],
        new: &Self::Key,
        ctx: Self::Ctx,
    ) -> usize;
    /// Distributes the entries of an overflowing node over two nodes,
    /// each non-empty.
    #[allow(clippy::type_complexity)]
    fn split(
        &self,
        entries: Vec<Entry<Self::Key>>,
        min_fill: usize,
        ctx: Self::Ctx,
    ) -> Result<(Vec<Entry<Self::Key>>, Vec<Entry<Self::Key>>)>;
    /// Orders `entries` so that forced reinsertion evicts from the
    /// front. Only called on trees created with a reinsertion share.
    fn sort_for_reinsert(&self, _entries: &mut [Entry<Self::Key>], _ctx: Self::Ctx) {}

    /// The identity of a leaf key (see [`TreeKey::Dedup`]).
    fn dedup_key(&self, key: &Self::Key) -> Self::Dedup;
    /// Doubled centre coordinates, the packer's sort keys.
    fn center(&self, key: &Self::Key, ctx: Self::Ctx) -> (i64, i64);
    /// Area of a key, for the quality walk (0 where meaningless).
    fn area(&self, _key: &Self::Key, _ctx: Self::Ctx) -> i128 {
        0
    }
    /// Area two keys share, for the quality walk.
    fn overlap(&self, _a: &Self::Key, _b: &Self::Key, _ctx: Self::Ctx) -> i128 {
        0
    }
}
