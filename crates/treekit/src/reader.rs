//! The frozen reader: a tree mounted on a space snapshot's page table.

use crate::cursor::NodeSource;
use crate::{Meta, Result, TreeKey};
use grt_metrics::TreeMetrics;
use grt_sbspace::{LoReader, PageGuard};

/// A `Send + Sync` read-only handle on a disk-resident tree: a
/// page-table snapshot plus the header copied at creation. Obtained
/// via [`Reader::open`] over a space-snapshot [`LoReader`] and valid
/// while that snapshot stays open — the engine's lock-free read path.
/// No condense-restart handling exists or is needed on a reader: the
/// view is frozen, so a concurrent condense can never move nodes out
/// from under a scan.
pub struct Reader<K: TreeKey> {
    reader: LoReader,
    meta: Meta<K>,
    metrics: TreeMetrics,
}

impl<K: TreeKey> Reader<K> {
    /// Opens a reader directly over a large-object view, decoding the
    /// tree header from page 0. No tree (or LO-level lock) is involved:
    /// this is how a snapshot read mounts an index.
    pub fn open(key: K, reader: LoReader, metrics: TreeMetrics) -> Result<Reader<K>> {
        let meta = Meta::decode_with(key, &*reader.read_page_pinned(0)?)?;
        Ok(Reader {
            reader,
            meta,
            metrics,
        })
    }

    /// Number of indexed entries.
    pub fn len(&self) -> u64 {
        self.meta.count
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.meta.count == 0
    }

    /// Tree height (1 = the root is a leaf).
    pub fn height(&self) -> u32 {
        self.meta.height
    }

    /// Pages in the underlying large object (header included).
    pub fn pages(&self) -> u32 {
        self.reader.page_count()
    }
}

impl<K: TreeKey> NodeSource<K> for Reader<K> {
    fn meta(&self) -> &Meta<K> {
        &self.meta
    }

    fn metrics(&self) -> &TreeMetrics {
        &self.metrics
    }

    fn page(&self, page: u32) -> Result<PageGuard> {
        Ok(self.reader.read_page_pinned(page)?)
    }

    fn pages(&self) -> u32 {
        Reader::pages(self)
    }
}
