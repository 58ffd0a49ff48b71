//! On-disk layout of smart large objects: header, inode and indirect
//! pages.
//!
//! A large object is identified by the page number of its *inode* page
//! ([`LoId`]). The inode records the byte size and the page table of the
//! object: up to [`DIRECT_CAP`] direct entries inline, then a chain of
//! indirect pages. The space header (page 0) only says what the file
//! is: which pages are free and how far the file extends is the
//! allocator's state, which lives in the log (`wal.rs`), not here. A
//! free page has no format — its bytes are whatever its last owner left.

use crate::page::{get_u32, get_u64, put_u32, put_u64, zeroed_page, PageBuf, NO_PAGE, PAGE_SIZE};
use crate::{Result, SbError};

/// A large-object handle value: the page id of the object's inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoId(pub u32);

impl std::fmt::Display for LoId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lo{}", self.0)
    }
}

const MAGIC_HEADER: &[u8; 4] = b"SBSP";
const MAGIC_INODE: &[u8; 4] = b"INOD";
const MAGIC_INDIRECT: &[u8; 4] = b"INDR";

/// Direct page-table entries held in the inode page itself.
pub const DIRECT_CAP: usize = (PAGE_SIZE - 20) / 4;
/// Page-table entries per indirect page.
pub const INDIRECT_CAP: usize = (PAGE_SIZE - 8) / 4;

/// Format version: 2 since the allocator left the data file (version
/// 1 kept a free-list head, a watermark and free-page chains in it).
const VERSION: u32 = 2;

/// The space header (page 0) of a new space: a magic and a format
/// version. Written once, when the space is created, and never again.
pub fn header_page() -> PageBuf {
    let mut p = zeroed_page();
    p[0..4].copy_from_slice(MAGIC_HEADER);
    put_u32(&mut p[..], 4, VERSION);
    p
}

/// Verifies a header page's magic and version.
pub fn check_header(p: &[u8; PAGE_SIZE]) -> Result<()> {
    if &p[0..4] != MAGIC_HEADER {
        return Err(SbError::Corrupt("bad sbspace header magic".into()));
    }
    match get_u32(&p[..], 4) {
        VERSION => Ok(()),
        v => Err(SbError::Corrupt(format!(
            "sbspace format version {v}, this build reads {VERSION}"
        ))),
    }
}

/// True when the page is all zeroes (page 0 of an uninitialised space).
pub fn is_blank(p: &[u8; PAGE_SIZE]) -> bool {
    p.iter().all(|&b| b == 0)
}

/// Decoded in-memory form of a large object's metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// Byte size of the object.
    pub size: u64,
    /// Logical-to-physical page map of the object's data pages.
    pub data_pages: Vec<u32>,
    /// Physical pages holding the indirect chain (owned by the object).
    pub indirect_pids: Vec<u32>,
}

impl Inode {
    /// An empty object.
    pub fn empty() -> Inode {
        Inode {
            size: 0,
            data_pages: Vec::new(),
            indirect_pids: Vec::new(),
        }
    }

    /// How many indirect pages a page table of `npages` entries needs.
    pub fn indirect_needed(npages: usize) -> usize {
        npages.saturating_sub(DIRECT_CAP).div_ceil(INDIRECT_CAP)
    }

    /// All physical pages owned by the object, inode page included.
    pub fn all_pages(&self, id: LoId) -> Vec<u32> {
        let mut v = Vec::with_capacity(1 + self.indirect_pids.len() + self.data_pages.len());
        v.push(id.0);
        v.extend_from_slice(&self.indirect_pids);
        v.extend_from_slice(&self.data_pages);
        v
    }

    /// Encodes the inode and its indirect chain into page images.
    /// `self.indirect_pids` must already hold exactly
    /// `indirect_needed(self.data_pages.len())` page ids.
    pub fn encode(&self, id: LoId) -> Vec<(u32, PageBuf)> {
        assert_eq!(
            self.indirect_pids.len(),
            Inode::indirect_needed(self.data_pages.len()),
            "indirect chain must be sized before encoding"
        );
        let mut out = Vec::with_capacity(1 + self.indirect_pids.len());
        let mut inode = zeroed_page();
        inode[0..4].copy_from_slice(MAGIC_INODE);
        put_u64(&mut inode[..], 4, self.size);
        put_u32(&mut inode[..], 12, self.data_pages.len() as u32);
        put_u32(
            &mut inode[..],
            16,
            self.indirect_pids.first().copied().unwrap_or(NO_PAGE),
        );
        for (i, &pid) in self.data_pages.iter().take(DIRECT_CAP).enumerate() {
            put_u32(&mut inode[..], 20 + 4 * i, pid);
        }
        out.push((id.0, inode));
        let mut rest = &self.data_pages[self.data_pages.len().min(DIRECT_CAP)..];
        for (k, &ipid) in self.indirect_pids.iter().enumerate() {
            let mut page = zeroed_page();
            page[0..4].copy_from_slice(MAGIC_INDIRECT);
            put_u32(
                &mut page[..],
                4,
                self.indirect_pids.get(k + 1).copied().unwrap_or(NO_PAGE),
            );
            let take = rest.len().min(INDIRECT_CAP);
            for (i, &pid) in rest[..take].iter().enumerate() {
                put_u32(&mut page[..], 8 + 4 * i, pid);
            }
            rest = &rest[take..];
            out.push((ipid, page));
        }
        out
    }

    /// Decodes an inode and its indirect chain, fetching pages through
    /// `read`. Generic over the page representation so callers can hand
    /// back owned buffers (`PageBuf`) or zero-copy pinned guards.
    pub fn decode<P>(id: LoId, mut read: impl FnMut(u32) -> Result<P>) -> Result<Inode>
    where
        P: std::ops::Deref<Target = [u8; PAGE_SIZE]>,
    {
        let inode = read(id.0)?;
        if &inode[0..4] != MAGIC_INODE {
            return Err(SbError::Corrupt(format!("{id}: bad inode magic")));
        }
        let size = get_u64(&inode[..], 4);
        let npages = get_u32(&inode[..], 12) as usize;
        let mut data_pages = Vec::with_capacity(npages);
        for i in 0..npages.min(DIRECT_CAP) {
            data_pages.push(get_u32(&inode[..], 20 + 4 * i));
        }
        let mut indirect_pids = Vec::new();
        let mut next = get_u32(&inode[..], 16);
        while data_pages.len() < npages {
            if next == NO_PAGE {
                return Err(SbError::Corrupt(format!(
                    "{id}: page table truncated at {} of {npages}",
                    data_pages.len()
                )));
            }
            let page = read(next)?;
            if &page[0..4] != MAGIC_INDIRECT {
                return Err(SbError::Corrupt(format!("{id}: bad indirect magic")));
            }
            indirect_pids.push(next);
            let remaining = npages - data_pages.len();
            for i in 0..remaining.min(INDIRECT_CAP) {
                data_pages.push(get_u32(&page[..], 8 + 4 * i));
            }
            next = get_u32(&page[..], 4);
        }
        Ok(Inode {
            size,
            data_pages,
            indirect_pids,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn roundtrip(npages: usize) {
        let data_pages: Vec<u32> = (100..100 + npages as u32).collect();
        let n_ind = Inode::indirect_needed(npages);
        let indirect_pids: Vec<u32> = (50_000..50_000 + n_ind as u32).collect();
        let inode = Inode {
            size: npages as u64 * 1000,
            data_pages,
            indirect_pids,
        };
        let id = LoId(7);
        let images: HashMap<u32, PageBuf> = inode.encode(id).into_iter().collect();
        let decoded = Inode::decode(id, |pid| {
            images
                .get(&pid)
                .cloned()
                .ok_or_else(|| SbError::NotFound(format!("page {pid}")))
        })
        .unwrap();
        assert_eq!(decoded, inode, "npages = {npages}");
    }

    #[test]
    fn inode_roundtrip_direct_only() {
        roundtrip(0);
        roundtrip(1);
        roundtrip(DIRECT_CAP);
    }

    #[test]
    fn inode_roundtrip_with_indirects() {
        roundtrip(DIRECT_CAP + 1);
        roundtrip(DIRECT_CAP + INDIRECT_CAP);
        roundtrip(DIRECT_CAP + INDIRECT_CAP + 1);
        roundtrip(DIRECT_CAP + 3 * INDIRECT_CAP + 17);
    }

    #[test]
    fn indirect_needed_boundaries() {
        assert_eq!(Inode::indirect_needed(0), 0);
        assert_eq!(Inode::indirect_needed(DIRECT_CAP), 0);
        assert_eq!(Inode::indirect_needed(DIRECT_CAP + 1), 1);
        assert_eq!(Inode::indirect_needed(DIRECT_CAP + INDIRECT_CAP), 1);
        assert_eq!(Inode::indirect_needed(DIRECT_CAP + INDIRECT_CAP + 1), 2);
    }

    #[test]
    fn header_is_checked_by_magic_and_version() {
        let mut p = header_page();
        check_header(&p).unwrap();
        assert!(!is_blank(&p));
        put_u32(&mut p[..], 4, 1);
        assert!(matches!(check_header(&p), Err(SbError::Corrupt(m)) if m.contains("version 1")));
        let blank = zeroed_page();
        assert!(is_blank(&blank));
        assert!(check_header(&blank).is_err());
    }

    #[test]
    fn all_pages_lists_everything() {
        let inode = Inode {
            size: 10,
            data_pages: vec![5, 6],
            indirect_pids: vec![],
        };
        assert_eq!(inode.all_pages(LoId(3)), vec![3, 5, 6]);
    }

    #[test]
    fn decode_rejects_garbage() {
        let err = Inode::decode(LoId(1), |_| Ok(zeroed_page())).unwrap_err();
        assert!(matches!(err, SbError::Corrupt(_)));
    }
}
