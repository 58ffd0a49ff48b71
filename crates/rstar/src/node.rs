//! R\*-tree node pages: one node per sbspace page, `RSTN` magic, 24
//! bytes per entry — a rectangle plus a 64-bit payload.

use crate::geom::Rect2;
use crate::tree::RectKey;
use crate::Result;
use grt_sbspace::page::{page_from_slice, PageBuf, PAGE_SIZE};
use grt_treekit::TreeError;

const MAGIC: &[u8; 4] = b"RSTN";
const HEADER_LEN: usize = 8;
/// Bytes per entry: a rectangle plus a 64-bit payload (rowid in leaves,
/// child page number in internal nodes).
pub const ENTRY_LEN: usize = 24;
/// The hard fan-out ceiling a 4 KiB page supports.
pub const MAX_FANOUT: usize = (PAGE_SIZE - HEADER_LEN) / ENTRY_LEN;

/// One node entry as dumps, bulk loads and benchmarks see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Bounding rectangle of the child (internal) or object (leaf).
    pub rect: Rect2,
    /// Row id (leaf) or child page number (internal).
    pub payload: u64,
}

impl From<Entry> for grt_treekit::Entry<Rect2> {
    fn from(e: Entry) -> Self {
        grt_treekit::Entry {
            key: e.rect,
            ptr: e.payload,
        }
    }
}

/// A decoded node image (the kernel's node with the field names above).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// 0 for leaves, increasing toward the root.
    pub level: u16,
    /// The node's entries.
    pub entries: Vec<Entry>,
}

impl Node {
    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Parses a page image.
    pub fn decode(buf: &[u8; PAGE_SIZE]) -> Result<Node> {
        Ok(decode(buf)?.into())
    }
}

impl From<grt_treekit::Node<Rect2>> for Node {
    fn from(node: grt_treekit::Node<Rect2>) -> Self {
        let entry = |e: grt_treekit::Entry<Rect2>| Entry {
            rect: e.key,
            payload: e.ptr,
        };
        Node {
            level: node.level,
            entries: node.entries.into_iter().map(entry).collect(),
        }
    }
}

/// Serialises a kernel node into a page image.
pub(crate) fn encode(node: &grt_treekit::Node<Rect2>) -> PageBuf {
    assert!(node.entries.len() <= MAX_FANOUT, "node overflow");
    let mut buf = vec![0u8; PAGE_SIZE];
    buf[0..4].copy_from_slice(MAGIC);
    buf[4..6].copy_from_slice(&node.level.to_le_bytes());
    buf[6..8].copy_from_slice(&(node.entries.len() as u16).to_le_bytes());
    for (i, e) in node.entries.iter().enumerate() {
        let off = HEADER_LEN + i * ENTRY_LEN;
        e.key.encode(&mut buf[off..off + 16]);
        buf[off + 16..off + 24].copy_from_slice(&e.ptr.to_le_bytes());
    }
    page_from_slice(&buf)
}

/// Parses a page image into a kernel node.
pub(crate) fn decode(buf: &[u8; PAGE_SIZE]) -> Result<grt_treekit::Node<Rect2>> {
    if &buf[0..4] != MAGIC {
        return Err(TreeError::corrupt::<RectKey>("bad node magic"));
    }
    let level = u16::from_le_bytes(buf[4..6].try_into().unwrap());
    let count = u16::from_le_bytes(buf[6..8].try_into().unwrap()) as usize;
    if count > MAX_FANOUT {
        return Err(TreeError::corrupt::<RectKey>(format!(
            "entry count {count}"
        )));
    }
    let entries = (0..count)
        .map(|i| {
            let off = HEADER_LEN + i * ENTRY_LEN;
            grt_treekit::Entry {
                key: Rect2::decode(&buf[off..off + 16]),
                ptr: u64::from_le_bytes(buf[off + 16..off + 24].try_into().unwrap()),
            }
        })
        .collect();
    Ok(grt_treekit::Node { level, entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_roundtrip() {
        let n = grt_treekit::Node {
            level: 3,
            entries: (0..50)
                .map(|i| grt_treekit::Entry {
                    key: Rect2::new(i, i + 10, -i, i),
                    ptr: (i as u64) << 33 | 7,
                })
                .collect(),
        };
        assert_eq!(decode(&encode(&n)).unwrap(), n);
        let view = Node::decode(&encode(&n)).unwrap();
        assert!(!view.is_leaf());
        assert_eq!(view.entries[49].payload, 49u64 << 33 | 7);
    }

    #[test]
    fn empty_node_roundtrip() {
        let n = grt_treekit::Node {
            level: 0,
            entries: Vec::new(),
        };
        let decoded = Node::decode(&encode(&n)).unwrap();
        assert!(decoded.is_leaf());
        assert!(decoded.entries.is_empty());
    }

    #[test]
    fn garbage_rejected() {
        let z = grt_sbspace::page::zeroed_page();
        assert!(Node::decode(&z).is_err());
    }
}
