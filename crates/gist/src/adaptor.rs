//! The GiST extension interface and its adaptor onto the paged-tree
//! kernel.
//!
//! Everything structural — node I/O, descent, splitting, parent-key
//! maintenance, deletion with condensation, cursors, invariant checks —
//! is the kernel's ([`grt_treekit`]) and never interprets a key. The
//! four extension primitives of Hellerstein et al. supply all
//! semantics; [`GistKey`] maps them onto the kernel's [`TreeKey`]:
//! subtree choice by minimum `penalty`, the split distribution by
//! `pick_split`, coverage as a zero-penalty union, and no forced
//! reinsertion.

use crate::Result;
use grt_sbspace::page::{page_from_slice, PageBuf, PAGE_SIZE};
use grt_sbspace::LoHandle;
use grt_treekit::{DeleteOutcome, Entry, Meta, Node, NodeSource, Tree, TreeError, TreeKey};
use std::ops::{Deref, DerefMut};

/// The extension interface: the primitive operations a tree-based
/// access method must supply (HNP95's `Consistent`, `Union`, `Penalty`,
/// `PickSplit` — `Compress`/`Decompress` are folded into the key codec).
pub trait GistExtension: Send + Sync + 'static {
    /// The decoded key type.
    type Key: Clone + PartialEq + std::fmt::Debug + Send + Sync;
    /// The query type `consistent` tests against.
    type Query: Clone + Send + Sync;

    /// Serialises a key.
    fn encode_key(&self, key: &Self::Key, out: &mut Vec<u8>);
    /// Deserialises a key.
    fn decode_key(&self, bytes: &[u8]) -> Result<Self::Key>;
    /// Can an entry under `key` match `query`? (Exact at leaves, may
    /// only err towards `true` internally.)
    fn consistent(&self, key: &Self::Key, query: &Self::Query, is_leaf: bool) -> bool;
    /// The smallest key covering all of `keys`.
    fn union(&self, keys: &[Self::Key]) -> Self::Key;
    /// Cost of inserting `new` under `existing` (smaller = better; zero
    /// means `existing` already covers `new`).
    fn penalty(&self, existing: &Self::Key, new: &Self::Key) -> i128;
    /// Partitions `keys` (length >= 2) into two non-empty groups,
    /// returned as index sets.
    fn pick_split(&self, keys: &[Self::Key]) -> (Vec<usize>, Vec<usize>);
    /// Upper bound on an encoded key's length; it fixes the node
    /// fan-out, and longer keys are rejected on write.
    fn max_key_len(&self) -> usize {
        64
    }
    /// Doubled centre coordinates for the bulk loader's packing order
    /// (keys without a natural position pack in input order).
    fn center(&self, _key: &Self::Key) -> (i64, i64) {
        (0, 0)
    }
}

/// Construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct GistTreeOptions {
    /// Minimum entries per non-root node before condensation.
    pub min_fill: usize,
}

impl Default for GistTreeOptions {
    fn default() -> Self {
        GistTreeOptions { min_fill: 2 }
    }
}

/// Outcome of a deletion.
pub type GistDeleteOutcome = DeleteOutcome;

const MAGIC: &[u8; 4] = b"GIST";
const HEADER_LEN: usize = 8;

/// A [`GistExtension`] as a kernel key policy. Node pages hold
/// length-prefixed entries: `[key_len u16][key bytes][payload u64]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GistKey<E>(pub E);

impl<E: GistExtension> GistKey<E> {
    /// The header of a fresh tree over this extension.
    pub fn header(self, opts: GistTreeOptions) -> Meta<Self> {
        let max_entries = (PAGE_SIZE - HEADER_LEN) / (2 + self.0.max_key_len() + 8);
        Meta::fresh(self, max_entries as u32, opts.min_fill.max(1) as u32, 0)
    }

    fn keys(entries: &[Entry<E::Key>]) -> Vec<E::Key> {
        entries.iter().map(|e| e.key.clone()).collect()
    }
}

impl<E: GistExtension> TreeKey for GistKey<E> {
    type Key = E::Key;
    type Query = E::Query;
    type Ctx = ();
    type Dedup = Vec<u8>;

    const NAME: &'static str = "gist";
    const META_MAGIC: &'static [u8; 4] = b"GSTH";
    const FREE_MAGIC: &'static [u8; 4] = b"GSTF";

    fn encode_node(&self, node: &Node<E::Key>) -> Result<PageBuf> {
        let mut buf = Vec::with_capacity(PAGE_SIZE);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&node.level.to_le_bytes());
        buf.extend_from_slice(&(node.entries.len() as u16).to_le_bytes());
        let mut key = Vec::new();
        for e in &node.entries {
            key.clear();
            self.0.encode_key(&e.key, &mut key);
            if key.len() > self.0.max_key_len() {
                return Err(TreeError::Usage(format!(
                    "key of {} bytes exceeds the extension's max_key_len",
                    key.len()
                )));
            }
            buf.extend_from_slice(&(key.len() as u16).to_le_bytes());
            buf.extend_from_slice(&key);
            buf.extend_from_slice(&e.ptr.to_le_bytes());
        }
        if buf.len() > PAGE_SIZE {
            return Err(TreeError::Usage(format!(
                "node of {} bytes exceeds the page",
                buf.len()
            )));
        }
        buf.resize(PAGE_SIZE, 0);
        Ok(page_from_slice(&buf))
    }

    fn decode_node(&self, buf: &[u8; PAGE_SIZE]) -> Result<Node<E::Key>> {
        if &buf[0..4] != MAGIC {
            return Err(TreeError::corrupt::<Self>("bad node magic"));
        }
        let level = u16::from_le_bytes(buf[4..6].try_into().unwrap());
        let count = u16::from_le_bytes(buf[6..8].try_into().unwrap()) as usize;
        let mut entries = Vec::with_capacity(count);
        let mut off = HEADER_LEN;
        for _ in 0..count {
            if off + 2 > PAGE_SIZE {
                return Err(TreeError::corrupt::<Self>("entry table overruns page"));
            }
            let klen = u16::from_le_bytes(buf[off..off + 2].try_into().unwrap()) as usize;
            off += 2;
            if off + klen + 8 > PAGE_SIZE {
                return Err(TreeError::corrupt::<Self>("entry overruns page"));
            }
            let key = self.0.decode_key(&buf[off..off + klen])?;
            off += klen;
            let ptr = u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
            off += 8;
            entries.push(Entry { key, ptr });
        }
        Ok(Node { level, entries })
    }

    fn bound(&self, entries: &[Entry<E::Key>], _: ()) -> E::Key {
        self.0.union(&Self::keys(entries))
    }

    /// A zero-penalty union means the subtree key covers the key.
    fn covers(&self, bound: &E::Key, key: &E::Key, _: ()) -> bool {
        self.0.penalty(bound, key) == 0
    }

    fn consistent(&self, bound: &E::Key, query: &E::Query, _: ()) -> bool {
        self.0.consistent(bound, query, false)
    }

    fn matches(&self, key: &E::Key, query: &E::Query, _: ()) -> bool {
        self.0.consistent(key, query, true)
    }

    fn choose_subtree(&self, _: u16, entries: &[Entry<E::Key>], new: &E::Key, _: ()) -> usize {
        (0..entries.len())
            .min_by_key(|&i| self.0.penalty(&entries[i].key, new))
            .unwrap_or(0)
    }

    /// Applies the extension's `pick_split`, rejecting a partition that
    /// is not one instead of corrupting the tree.
    fn split(
        &self,
        entries: Vec<Entry<E::Key>>,
        _min_fill: usize,
        _: (),
    ) -> Result<(Vec<Entry<E::Key>>, Vec<Entry<E::Key>>)> {
        let (left, right) = self.0.pick_split(&Self::keys(&entries));
        if left.is_empty() || right.is_empty() {
            return Err(TreeError::Usage(
                "pick_split returned an empty group".into(),
            ));
        }
        let total = entries.len();
        let mut slots: Vec<Option<Entry<E::Key>>> = entries.into_iter().map(Some).collect();
        let mut take = |idx: Vec<usize>| -> Option<Vec<Entry<E::Key>>> {
            idx.into_iter()
                .map(|i| slots.get_mut(i).and_then(Option::take))
                .collect()
        };
        match (take(left), take(right)) {
            (Some(a), Some(b)) if a.len() + b.len() == total => Ok((a, b)),
            _ => Err(TreeError::Usage(
                "pick_split lost or duplicated entries".into(),
            )),
        }
    }

    fn dedup_key(&self, key: &E::Key) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.0.encode_key(key, &mut bytes);
        bytes
    }

    fn center(&self, key: &E::Key, _: ()) -> (i64, i64) {
        self.0.center(key)
    }
}

/// The generic disk-resident tree: the kernel [`Tree`] under a
/// [`GistKey`], to which it derefs for `len`, `height`, `pages`,
/// `metrics` and the rest of the extension-agnostic API.
pub struct GistTree<E: GistExtension>(Tree<GistKey<E>>);

impl<E: GistExtension> Deref for GistTree<E> {
    type Target = Tree<GistKey<E>>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<E: GistExtension> DerefMut for GistTree<E> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<E: GistExtension> GistTree<E> {
    /// Initialises a fresh tree inside an empty large object.
    pub fn create(ext: E, lo: LoHandle, opts: GistTreeOptions) -> Result<GistTree<E>> {
        Tree::create(lo, GistKey(ext).header(opts)).map(GistTree)
    }

    /// Opens an existing tree with the matching extension.
    pub fn open(ext: E, lo: LoHandle) -> Result<GistTree<E>> {
        Tree::open(GistKey(ext), lo).map(GistTree)
    }

    /// Releases the large object (flushing the header when writable).
    pub fn into_lo(self) -> Result<LoHandle> {
        self.0.into_lo()
    }

    /// The extension in use.
    pub fn extension(&self) -> &E {
        &self.0.key().0
    }

    /// Inserts `key` with payload `rowid`.
    pub fn insert(&mut self, key: &E::Key, rowid: u64) -> Result<()> {
        self.0.insert(key.clone(), rowid, ())
    }

    /// Deletes the entry `(key, rowid)`.
    pub fn delete(&mut self, key: &E::Key, rowid: u64) -> Result<GistDeleteOutcome> {
        self.0.delete(key, rowid, ())
    }

    /// Collects all `(key, rowid)` pairs consistent with `query`.
    pub fn search(&self, query: &E::Query) -> Result<Vec<(E::Key, u64)>> {
        self.0.search(query.clone(), ())
    }

    /// Verifies structural invariants: parent keys cover child unions
    /// (zero penalty), levels decrease, counts match.
    pub fn check(&self) -> Result<()> {
        self.0.check(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GistError;

    /// A deliberately broken extension: pick_split returns an empty
    /// group. The skeleton must reject it instead of corrupting.
    struct BadSplit;
    impl GistExtension for BadSplit {
        type Key = i64;
        type Query = i64;
        fn encode_key(&self, key: &i64, out: &mut Vec<u8>) {
            out.extend_from_slice(&key.to_le_bytes());
        }
        fn decode_key(&self, bytes: &[u8]) -> Result<i64> {
            Ok(i64::from_le_bytes(
                bytes
                    .try_into()
                    .map_err(|_| GistError::Corrupt("key size".into()))?,
            ))
        }
        fn consistent(&self, key: &i64, query: &i64, _leaf: bool) -> bool {
            key == query
        }
        fn union(&self, keys: &[i64]) -> i64 {
            *keys.iter().max().unwrap()
        }
        fn penalty(&self, existing: &i64, new: &i64) -> i128 {
            (*new as i128 - *existing as i128).max(0)
        }
        fn pick_split(&self, keys: &[i64]) -> (Vec<usize>, Vec<usize>) {
            (Vec::new(), (0..keys.len()).collect())
        }
    }

    #[test]
    fn misbehaving_extension_is_rejected() {
        use grt_sbspace::{IsolationLevel, LockMode, Sbspace, SbspaceOptions};
        let sb = Sbspace::mem(SbspaceOptions {
            pool_pages: 8192,
            ..Default::default()
        });
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        let mut tree = GistTree::create(BadSplit, h, GistTreeOptions::default()).unwrap();
        // Insert until a split is needed; the bad pick_split must fail
        // loudly (Usage error), not corrupt the tree.
        let mut failed = false;
        for i in 0..2000i64 {
            match tree.insert(&i, i as u64) {
                Ok(()) => {}
                Err(GistError::Usage(_)) => {
                    failed = true;
                    break;
                }
                Err(other) => panic!("unexpected {other}"),
            }
        }
        assert!(failed, "the empty split must be detected");
        drop(tree);
        txn.commit().unwrap();
    }

    /// Byte-string keys of any length up to the declared maximum.
    struct Bytes;
    impl GistExtension for Bytes {
        type Key = Vec<u8>;
        type Query = Vec<u8>;
        fn encode_key(&self, key: &Vec<u8>, out: &mut Vec<u8>) {
            out.extend_from_slice(key);
        }
        fn decode_key(&self, bytes: &[u8]) -> Result<Vec<u8>> {
            Ok(bytes.to_vec())
        }
        fn consistent(&self, key: &Vec<u8>, query: &Vec<u8>, _leaf: bool) -> bool {
            key == query
        }
        fn union(&self, keys: &[Vec<u8>]) -> Vec<u8> {
            keys[0].clone()
        }
        fn penalty(&self, _existing: &Vec<u8>, _new: &Vec<u8>) -> i128 {
            0
        }
        fn pick_split(&self, keys: &[Vec<u8>]) -> (Vec<usize>, Vec<usize>) {
            (vec![0], (1..keys.len()).collect())
        }
        fn max_key_len(&self) -> usize {
            16
        }
    }

    #[test]
    fn variable_length_keys_roundtrip_and_oversize_ones_are_rejected() {
        let key = GistKey(Bytes);
        let mut node = Node {
            level: 2,
            entries: (0..40u64)
                .map(|i| Entry {
                    key: vec![i as u8; (i % 17) as usize],
                    ptr: i * 7,
                })
                .collect(),
        };
        let page = key.encode_node(&node).unwrap();
        assert_eq!(key.decode_node(&page).unwrap(), node);
        node.entries[3].key = vec![1; 17];
        assert!(matches!(key.encode_node(&node), Err(GistError::Usage(_))));
        assert!(key.decode_node(&grt_sbspace::page::zeroed_page()).is_err());
    }
}
