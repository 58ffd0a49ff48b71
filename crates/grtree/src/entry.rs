//! GR-tree node layout.
//!
//! "The layout of a GR-tree node does not differ significantly from the
//! layout of an R\*-tree node" (Section 3): both entry kinds occupy 24
//! bytes — four timestamps (16 bytes, with `i32::MAX` as the `UC`/`NOW`
//! sentinel) plus an 8-byte payload. A leaf payload is the rowid; a
//! non-leaf payload packs the child page number with the `Rectangle`
//! and `Hidden` flags.
//!
//! The kernel works on one entry shape at every level — a
//! [`RegionSpec`] plus a pointer, a leaf's spec being its tuple's time
//! extent with both flags clear; [`GrNode`] is the two-kind view dumps
//! and benchmarks decode pages into.

use crate::key::GrKey;
use crate::Result;
use grt_sbspace::page::{page_from_slice, PageBuf, PAGE_SIZE};
use grt_temporal::{Day, RegionSpec, TimeExtent, TtEnd, VtEnd};
use grt_treekit::{Entry, Node, TreeError};

const MAGIC: &[u8; 4] = b"GRTN";
const HEADER_LEN: usize = 8;
/// Bytes per entry (both kinds).
pub const ENTRY_LEN: usize = 24;
/// Fan-out ceiling of a 4 KiB page.
pub const MAX_FANOUT: usize = (PAGE_SIZE - HEADER_LEN) / ENTRY_LEN;

const FLAG_RECT: u64 = 1 << 32;
const FLAG_HIDDEN: u64 = 1 << 33;
const SENTINEL: i32 = i32::MAX;

/// A leaf entry: the tuple's exact time extent and its rowid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafEntry {
    /// The indexed tuple's 4TS time extent.
    pub extent: TimeExtent,
    /// Pointer to the data tuple.
    pub rowid: u64,
}

/// A non-leaf entry: a minimum bounding region and a child pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternalEntry {
    /// The unresolved bounding region (timestamps + flags).
    pub spec: RegionSpec,
    /// Child node's logical page number.
    pub child: u32,
}

impl From<LeafEntry> for Entry<RegionSpec> {
    fn from(e: LeafEntry) -> Self {
        Entry {
            key: e.extent.spec(),
            ptr: e.rowid,
        }
    }
}

impl From<Entry<RegionSpec>> for LeafEntry {
    fn from(e: Entry<RegionSpec>) -> Self {
        LeafEntry {
            extent: extent_of(&e.key),
            rowid: e.ptr,
        }
    }
}

/// The time extent a leaf key stands for (its four timestamps).
pub fn extent_of(leaf: &RegionSpec) -> TimeExtent {
    TimeExtent {
        tt_begin: leaf.tt_begin,
        tt_end: leaf.tt_end,
        vt_begin: leaf.vt_begin,
        vt_end: leaf.vt_end,
    }
}

/// A GR-tree node image, leaf and internal entries told apart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrNode {
    /// A leaf node.
    Leaf(Vec<LeafEntry>),
    /// An internal node at the given level (>= 1).
    Internal {
        /// The node's level (leaves are level 0).
        level: u16,
        /// Child entries.
        entries: Vec<InternalEntry>,
    },
}

impl GrNode {
    /// Parses a page image.
    pub fn decode(buf: &[u8; PAGE_SIZE]) -> Result<GrNode> {
        Ok(decode(buf)?.into())
    }
}

impl From<Node<RegionSpec>> for GrNode {
    fn from(node: Node<RegionSpec>) -> Self {
        if node.is_leaf() {
            GrNode::Leaf(node.entries.into_iter().map(LeafEntry::from).collect())
        } else {
            let internal = |e: Entry<RegionSpec>| InternalEntry {
                spec: e.key,
                child: e.child(),
            };
            GrNode::Internal {
                level: node.level,
                entries: node.entries.into_iter().map(internal).collect(),
            }
        }
    }
}

/// Serialises a kernel node into a page image.
pub(crate) fn encode(node: &Node<RegionSpec>) -> PageBuf {
    assert!(node.entries.len() <= MAX_FANOUT, "gr-node overflow");
    let mut buf = vec![0u8; PAGE_SIZE];
    buf[0..4].copy_from_slice(MAGIC);
    buf[4..6].copy_from_slice(&node.level.to_le_bytes());
    buf[6..8].copy_from_slice(&(node.entries.len() as u16).to_le_bytes());
    for (i, e) in node.entries.iter().enumerate() {
        let off = HEADER_LEN + i * ENTRY_LEN;
        buf[off..off + 16].copy_from_slice(&timestamps(&e.key));
        let mut payload = e.ptr;
        if !node.is_leaf() {
            if e.key.rect {
                payload |= FLAG_RECT;
            }
            if e.key.hidden {
                payload |= FLAG_HIDDEN;
            }
        }
        buf[off + 16..off + 24].copy_from_slice(&payload.to_le_bytes());
    }
    page_from_slice(&buf)
}

/// Parses a page image into a kernel node.
pub(crate) fn decode(buf: &[u8; PAGE_SIZE]) -> Result<Node<RegionSpec>> {
    if &buf[0..4] != MAGIC {
        return Err(TreeError::corrupt::<GrKey>("bad gr-node magic"));
    }
    let level = u16::from_le_bytes(buf[4..6].try_into().unwrap());
    let count = u16::from_le_bytes(buf[6..8].try_into().unwrap()) as usize;
    if count > MAX_FANOUT {
        return Err(TreeError::corrupt::<GrKey>(format!("entry count {count}")));
    }
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let off = HEADER_LEN + i * ENTRY_LEN;
        let payload = u64::from_le_bytes(buf[off + 16..off + 24].try_into().unwrap());
        entries.push(if level == 0 {
            let extent =
                TimeExtent::decode(&buf[off..off + 16]).map_err(TreeError::corrupt::<GrKey>)?;
            Entry {
                key: extent.spec(),
                ptr: payload,
            }
        } else {
            let mut key = spec_from_timestamps(&buf[off..off + 16]);
            key.rect = payload & FLAG_RECT != 0;
            key.hidden = payload & FLAG_HIDDEN != 0;
            Entry {
                key,
                ptr: payload as u32 as u64,
            }
        });
    }
    Ok(Node { level, entries })
}

/// The 16-byte timestamp image of a spec — for a leaf key, exactly
/// [`TimeExtent::encode_array`] of its extent.
pub(crate) fn timestamps(spec: &RegionSpec) -> [u8; 16] {
    let tte = match spec.tt_end {
        TtEnd::Ground(d) => d.0,
        TtEnd::Uc => SENTINEL,
    };
    let vte = match spec.vt_end {
        VtEnd::Ground(d) => d.0,
        VtEnd::Now => SENTINEL,
    };
    let mut out = [0u8; 16];
    out[0..4].copy_from_slice(&spec.tt_begin.0.to_le_bytes());
    out[4..8].copy_from_slice(&tte.to_le_bytes());
    out[8..12].copy_from_slice(&spec.vt_begin.0.to_le_bytes());
    out[12..16].copy_from_slice(&vte.to_le_bytes());
    out
}

fn spec_from_timestamps(buf: &[u8]) -> RegionSpec {
    let w = |i: usize| i32::from_le_bytes(buf[i..i + 4].try_into().unwrap());
    let (tte, vte) = (w(4), w(12));
    RegionSpec::leaf(
        Day(w(0)),
        if tte == SENTINEL {
            TtEnd::Uc
        } else {
            TtEnd::Ground(Day(tte))
        },
        Day(w(8)),
        if vte == SENTINEL {
            VtEnd::Now
        } else {
            VtEnd::Ground(Day(vte))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extent(ttb: i32, tte: Option<i32>, vtb: i32, vte: Option<i32>) -> TimeExtent {
        TimeExtent::from_parts(
            Day(ttb),
            tte.map_or(TtEnd::Uc, |x| TtEnd::Ground(Day(x))),
            Day(vtb),
            vte.map_or(VtEnd::Now, |x| VtEnd::Ground(Day(x))),
        )
        .unwrap()
    }

    fn leaf(entries: Vec<LeafEntry>) -> Node<RegionSpec> {
        Node {
            level: 0,
            entries: entries.into_iter().map(Entry::from).collect(),
        }
    }

    #[test]
    fn leaf_roundtrip() {
        let entries = vec![
            LeafEntry {
                extent: extent(10, None, 10, None),
                rowid: 42,
            },
            LeafEntry {
                extent: extent(5, Some(30), 0, Some(20)),
                rowid: u64::MAX >> 2,
            },
        ];
        let node = leaf(entries.clone());
        assert_eq!(decode(&encode(&node)).unwrap(), node);
        assert_eq!(
            GrNode::decode(&encode(&node)).unwrap(),
            GrNode::Leaf(entries)
        );
        // A leaf key's identity is its extent's own encoding.
        assert_eq!(
            timestamps(&node.entries[0].key),
            extent(10, None, 10, None).encode_array()
        );
    }

    #[test]
    fn internal_roundtrip_with_flags() {
        let mk = |rect, hidden| RegionSpec {
            tt_begin: Day(1),
            tt_end: TtEnd::Uc,
            vt_begin: Day(0),
            vt_end: if hidden {
                VtEnd::Ground(Day(99))
            } else {
                VtEnd::Now
            },
            rect,
            hidden,
        };
        for (rect, hidden) in [(false, false), (true, false), (false, true)] {
            let node = Node {
                level: 2,
                entries: vec![Entry {
                    key: mk(rect, hidden),
                    ptr: 7,
                }],
            };
            let page = encode(&node);
            assert_eq!(decode(&page).unwrap(), node, "rect={rect} hidden={hidden}");
            let GrNode::Internal { level: 2, entries } = GrNode::decode(&page).unwrap() else {
                panic!("internal node expected");
            };
            assert_eq!(entries[0].spec, mk(rect, hidden));
            assert_eq!(entries[0].child, 7);
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(GrNode::decode(&grt_sbspace::page::zeroed_page()).is_err());
    }

    #[test]
    fn fanout_fits_page() {
        let entries: Vec<LeafEntry> = (0..MAX_FANOUT)
            .map(|i| LeafEntry {
                extent: extent(i as i32, Some(i as i32 + 1), 0, Some(1)),
                rowid: i as u64,
            })
            .collect();
        let node = leaf(entries);
        assert_eq!(decode(&encode(&node)).unwrap(), node);
    }
}
