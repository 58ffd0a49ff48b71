//! Disk-resident heap tables: slotted pages inside an sbspace large
//! object.
//!
//! Keeping base tables in the same transactional store as the indices
//! means INSERT/DELETE/UPDATE and crash recovery cover the whole
//! database, and sequential-scan I/O is counted by the same buffer-pool
//! statistics the index benchmarks use.

use crate::value::Value;
use crate::vii::RowId;
use crate::{IdsError, Result};
use grt_sbspace::page::{get_u32, get_u64, page_from_slice, put_u32, put_u64, PageBuf, PAGE_SIZE};
use grt_sbspace::{LoHandle, PageGuard, PageSource};

const HEADER_MAGIC: &[u8; 4] = b"HEPH";
const PAGE_MAGIC: &[u8; 4] = b"HEAP";
const PAGE_HDR: usize = 8;
const SLOT_LEN: usize = 4;

/// Maximum encoded row size that fits a page.
pub const MAX_ROW: usize = PAGE_SIZE - PAGE_HDR - SLOT_LEN;

fn rid(page: u32, slot: u16) -> RowId {
    RowId(((page as u64) << 16) | slot as u64)
}

fn unrid(r: RowId) -> (u32, u16) {
    ((r.0 >> 16) as u32, (r.0 & 0xffff) as u16)
}

/// A borrowed, read-only view of a heap page image — a pinned pool
/// frame or an owned buffer under modification.
#[derive(Clone, Copy)]
struct PageRef<'a>(&'a [u8; PAGE_SIZE]);

impl<'a> PageRef<'a> {
    fn parse(buf: &'a [u8; PAGE_SIZE]) -> Result<PageRef<'a>> {
        if &buf[0..4] != PAGE_MAGIC {
            return Err(IdsError::Storage(grt_sbspace::SbError::Corrupt(
                "bad heap page magic".into(),
            )));
        }
        Ok(PageRef(buf))
    }

    fn count(self) -> u16 {
        u16::from_le_bytes(self.0[4..6].try_into().unwrap())
    }

    fn free_off(self) -> u16 {
        u16::from_le_bytes(self.0[6..8].try_into().unwrap())
    }

    fn slot(self, i: u16) -> (u16, u16) {
        let off = PAGE_HDR + SLOT_LEN * i as usize;
        (
            u16::from_le_bytes(self.0[off..off + 2].try_into().unwrap()),
            u16::from_le_bytes(self.0[off + 2..off + 4].try_into().unwrap()),
        )
    }

    fn free_space(self) -> usize {
        self.free_off() as usize - (PAGE_HDR + SLOT_LEN * (self.count() as usize + 1))
    }

    /// The row bytes in `slot` (`None` past the slot directory or on a
    /// tombstone).
    fn get(self, slot: u16) -> Option<&'a [u8]> {
        if slot >= self.count() {
            return None;
        }
        let (off, len) = self.slot(slot);
        if len == 0 {
            return None; // tombstone
        }
        Some(&self.0[off as usize..(off + len) as usize])
    }
}

/// An owned page image being modified (the write paths' private copy).
struct PageMut {
    buf: PageBuf,
}

impl PageMut {
    fn fresh() -> PageMut {
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[0..4].copy_from_slice(PAGE_MAGIC);
        // count = 0; free_off = PAGE_SIZE.
        buf[6..8].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
        PageMut {
            buf: page_from_slice(&buf),
        }
    }

    fn parse(buf: PageBuf) -> Result<PageMut> {
        PageRef::parse(&buf)?;
        Ok(PageMut { buf })
    }

    fn view(&self) -> PageRef<'_> {
        PageRef(&self.buf)
    }

    fn set_slot(&mut self, i: u16, off: u16, len: u16) {
        let s = PAGE_HDR + SLOT_LEN * i as usize;
        self.buf[s..s + 2].copy_from_slice(&off.to_le_bytes());
        self.buf[s + 2..s + 4].copy_from_slice(&len.to_le_bytes());
    }

    fn push(&mut self, data: &[u8]) -> Option<u16> {
        let view = self.view();
        let (free_space, slot, free_off) = (view.free_space(), view.count(), view.free_off());
        if free_space < data.len() || slot == u16::MAX {
            return None;
        }
        let new_off = free_off as usize - data.len();
        self.buf[new_off..new_off + data.len()].copy_from_slice(data);
        self.set_slot(slot, new_off as u16, data.len() as u16);
        self.buf[4..6].copy_from_slice(&(slot + 1).to_le_bytes());
        self.buf[6..8].copy_from_slice(&(new_off as u16).to_le_bytes());
        Some(slot)
    }

    fn kill(&mut self, slot: u16) -> bool {
        if slot >= self.view().count() {
            return false;
        }
        let (off, len) = self.view().slot(slot);
        if len == 0 {
            return false;
        }
        self.set_slot(slot, off, 0);
        true
    }
}

fn read_header<P: PageSource>(lo: &P) -> Result<(u64, u32)> {
    let buf = lo.read_page_pinned(0)?;
    if &buf[0..4] != HEADER_MAGIC {
        return Err(IdsError::Storage(grt_sbspace::SbError::Corrupt(
            "bad heap header magic".into(),
        )));
    }
    Ok((get_u64(buf.as_slice(), 4), get_u32(buf.as_slice(), 12)))
}

fn write_header(lo: &mut LoHandle, rows: u64, hint: u32) -> Result<()> {
    let mut buf = vec![0u8; PAGE_SIZE];
    buf[0..4].copy_from_slice(HEADER_MAGIC);
    put_u64(&mut buf, 4, rows);
    put_u32(&mut buf, 12, hint);
    lo.write_page(0, &page_from_slice(&buf))?;
    Ok(())
}

/// Initialises an empty heap in a fresh large object.
pub fn init(lo: &mut LoHandle) -> Result<()> {
    if lo.page_count() != 0 {
        return Err(IdsError::Semantic("large object not empty".into()));
    }
    let mut buf = vec![0u8; PAGE_SIZE];
    buf[0..4].copy_from_slice(HEADER_MAGIC);
    lo.append_page(&page_from_slice(&buf))?;
    Ok(())
}

/// Number of live rows.
pub fn row_count<P: PageSource>(lo: &P) -> Result<u64> {
    Ok(read_header(lo)?.0)
}

/// Number of data pages (for sequential-scan costing).
pub fn page_count<P: PageSource>(lo: &P) -> u32 {
    lo.page_count().saturating_sub(1)
}

/// Inserts a row, returning its id.
pub fn insert(lo: &mut LoHandle, row: &[Value]) -> Result<RowId> {
    let data = Value::encode_row(row);
    if data.len() > MAX_ROW {
        return Err(IdsError::Semantic(format!(
            "row of {} bytes exceeds page capacity",
            data.len()
        )));
    }
    let (rows, hint) = read_header(lo)?;
    let npages = lo.page_count();
    // Try the hint page first, then append a fresh page.
    if hint >= 1 && hint < npages {
        let mut page = PageMut::parse(lo.read_page(hint)?)?;
        if let Some(slot) = page.push(&data) {
            lo.write_page(hint, &page.buf)?;
            write_header(lo, rows + 1, hint)?;
            return Ok(rid(hint, slot));
        }
    }
    let mut page = PageMut::fresh();
    let slot = page.push(&data).expect("fresh page fits any legal row");
    let pno = lo.append_page(&page.buf)?;
    write_header(lo, rows + 1, pno)?;
    Ok(rid(pno, slot))
}

/// Fetches a row by id (`None` if deleted or out of range).
pub fn fetch<P: PageSource>(lo: &P, id: RowId) -> Result<Option<Vec<Value>>> {
    fetch_with(lo, id, Value::decode_row)
}

/// Reads a row by id through `read`, which sees the stored bytes in
/// place on the pinned page ([`Value::decode_row`],
/// [`Value::decode_columns`] and [`ValueRef`](crate::ValueRef) are the
/// codec) — so a reader that wants one column builds one value, or
/// none. `None` if the row is deleted or out of range.
pub fn fetch_with<P: PageSource, T>(
    lo: &P,
    id: RowId,
    read: impl FnOnce(&[u8]) -> Result<T>,
) -> Result<Option<T>> {
    let (pno, slot) = unrid(id);
    if pno == 0 || pno >= lo.page_count() {
        return Ok(None);
    }
    let page = lo.read_page_pinned(pno)?;
    PageRef::parse(&page)?.get(slot).map(read).transpose()
}

/// How much heap a [`fetch_ordered`] pass touched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Live rows handed to the visitor.
    pub rows: u64,
    /// Distinct heap pages pinned.
    pub pages: u64,
}

/// Fetches the rows named by `ids` in heap order — the order a
/// [`HeapScan`] returns them — pinning each distinct page once and
/// handing every wanted slot's stored bytes to `visit` in place on that
/// one pin (as [`fetch_with`] does: the caller says what of a row it
/// wants built, or copies its bytes and builds nothing). `ids` is sorted
/// in place; ids that name no live row (tombstoned, past the slot
/// directory, page 0 or past the end) are skipped, exactly as [`fetch`]
/// answers `None` for them. `visit` returns `false` to stop early.
pub fn fetch_ordered<P: PageSource>(
    lo: &P,
    ids: &mut [RowId],
    mut visit: impl FnMut(RowId, &[u8]) -> Result<bool>,
) -> Result<FetchStats> {
    ids.sort_unstable();
    let npages = lo.page_count();
    let mut stats = FetchStats::default();
    for on_page in ids.chunk_by(|a, b| unrid(*a).0 == unrid(*b).0) {
        let pno = unrid(on_page[0]).0;
        if pno == 0 {
            continue; // the header page holds no rows
        }
        if pno >= npages {
            break; // sorted: everything after is out of range too
        }
        let guard = lo.read_page_pinned(pno)?;
        let page = PageRef::parse(&guard)?;
        stats.pages += 1;
        for &id in on_page {
            if let Some(bytes) = page.get(unrid(id).1) {
                stats.rows += 1;
                if !visit(id, bytes)? {
                    return Ok(stats);
                }
            }
        }
    }
    Ok(stats)
}

/// Deletes a row by id; returns whether it existed.
pub fn delete(lo: &mut LoHandle, id: RowId) -> Result<bool> {
    let (pno, slot) = unrid(id);
    if pno == 0 || pno >= lo.page_count() {
        return Ok(false);
    }
    let mut page = PageMut::parse(lo.read_page(pno)?)?;
    if !page.kill(slot) {
        return Ok(false);
    }
    lo.write_page(pno, &page.buf)?;
    let (rows, hint) = read_header(lo)?;
    write_header(lo, rows.saturating_sub(1), hint)?;
    Ok(true)
}

/// Replaces a row: tombstones the old id and inserts the new image
/// (rows are immutable in place, as in the paper's update-as-
/// delete-plus-insert model).
pub fn update(lo: &mut LoHandle, id: RowId, new_row: &[Value]) -> Result<RowId> {
    if !delete(lo, id)? {
        return Err(IdsError::NotFound(format!("row {id}")));
    }
    insert(lo, new_row)
}

/// A full-table scan cursor.
pub struct HeapScan {
    page: u32,
    slot: u16,
    /// The pin on `page`, taken when the cursor first reads it and
    /// released when it moves on — one logical read per page, not per
    /// row. A pin is a stable snapshot: a page rewritten while the
    /// cursor stands on it is still scanned as it was when pinned.
    pinned: Option<PageGuard>,
}

impl HeapScan {
    /// A scan from the first row.
    pub fn new() -> HeapScan {
        HeapScan {
            page: 1,
            slot: 0,
            pinned: None,
        }
    }

    /// The next live row, or `None` at the end.
    pub fn next<P: PageSource>(&mut self, lo: &P) -> Result<Option<(RowId, Vec<Value>)>> {
        loop {
            if self.page >= lo.page_count() {
                return Ok(None);
            }
            if self.pinned.is_none() {
                self.pinned = Some(lo.read_page_pinned(self.page)?);
            }
            let page = PageRef::parse(self.pinned.as_ref().expect("just pinned"))?;
            while self.slot < page.count() {
                let slot = self.slot;
                self.slot += 1;
                if let Some(bytes) = page.get(slot) {
                    return Ok(Some((rid(self.page, slot), Value::decode_row(bytes)?)));
                }
            }
            self.page += 1;
            self.slot = 0;
            self.pinned = None;
        }
    }
}

impl Default for HeapScan {
    fn default() -> Self {
        HeapScan::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_sbspace::{IoStats, IsolationLevel, LockMode, Sbspace, SbspaceOptions};
    use std::sync::Arc;

    fn fresh_lo() -> LoHandle {
        fresh_lo_with_stats().0
    }

    fn fresh_lo_with_stats() -> (LoHandle, Arc<IoStats>) {
        let sb = Sbspace::mem(SbspaceOptions {
            pool_pages: 4096,
            ..Default::default()
        });
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        let stats = sb.stats();
        std::mem::forget(txn);
        std::mem::forget(sb);
        (h, stats)
    }

    fn row(i: i64) -> Vec<Value> {
        vec![
            Value::Int(i),
            Value::Text(format!("row number {i} with some padding text")),
        ]
    }

    #[test]
    fn insert_fetch_roundtrip() {
        let mut lo = fresh_lo();
        init(&mut lo).unwrap();
        let mut rids = Vec::new();
        for i in 0..500 {
            rids.push(insert(&mut lo, &row(i)).unwrap());
        }
        assert_eq!(row_count(&lo).unwrap(), 500);
        assert!(page_count(&lo) > 1, "rows should span pages");
        for (i, r) in rids.iter().enumerate() {
            assert_eq!(fetch(&lo, *r).unwrap().unwrap(), row(i as i64));
        }
        assert_eq!(fetch(&lo, RowId(u64::MAX)).unwrap(), None);
    }

    #[test]
    fn delete_and_scan_skip_tombstones() {
        let mut lo = fresh_lo();
        init(&mut lo).unwrap();
        let rids: Vec<RowId> = (0..100)
            .map(|i| insert(&mut lo, &row(i)).unwrap())
            .collect();
        for r in rids.iter().step_by(2) {
            assert!(delete(&mut lo, *r).unwrap());
            assert!(!delete(&mut lo, *r).unwrap(), "double delete");
        }
        assert_eq!(row_count(&lo).unwrap(), 50);
        let mut scan = HeapScan::new();
        let mut seen = Vec::new();
        while let Some((_, r)) = scan.next(&lo).unwrap() {
            match &r[0] {
                Value::Int(i) => seen.push(*i),
                other => panic!("unexpected {other}"),
            }
        }
        assert_eq!(seen, (0..100).filter(|i| i % 2 == 1).collect::<Vec<_>>());
    }

    #[test]
    fn update_moves_rows() {
        let mut lo = fresh_lo();
        init(&mut lo).unwrap();
        let r = insert(&mut lo, &row(1)).unwrap();
        let r2 = update(&mut lo, r, &row(2)).unwrap();
        assert_ne!(r, r2);
        assert_eq!(fetch(&lo, r).unwrap(), None);
        assert_eq!(fetch(&lo, r2).unwrap().unwrap(), row(2));
        assert_eq!(row_count(&lo).unwrap(), 1);
        assert!(update(&mut lo, r, &row(3)).is_err());
    }

    #[test]
    fn oversized_row_rejected() {
        let mut lo = fresh_lo();
        init(&mut lo).unwrap();
        let big = vec![Value::Text("x".repeat(PAGE_SIZE))];
        assert!(matches!(insert(&mut lo, &big), Err(IdsError::Semantic(_))));
    }

    /// A heap of 300 rows over several pages, with the rowids.
    fn loaded() -> (LoHandle, Arc<IoStats>, Vec<RowId>) {
        let (mut lo, stats) = fresh_lo_with_stats();
        init(&mut lo).unwrap();
        let rids = (0..300)
            .map(|i| insert(&mut lo, &row(i)).unwrap())
            .collect();
        (lo, stats, rids)
    }

    fn collect_ordered(lo: &LoHandle, ids: &mut [RowId]) -> (Vec<(RowId, Vec<Value>)>, FetchStats) {
        let mut got = Vec::new();
        let stats = fetch_ordered(lo, ids, |id, stored| {
            got.push((id, Value::decode_row(stored)?));
            Ok(true)
        })
        .unwrap();
        (got, stats)
    }

    #[test]
    fn fetch_ordered_returns_heap_order_from_unsorted_input() {
        let (lo, _, rids) = loaded();
        // Every third row, handed over back to front, one of them twice.
        let mut ids: Vec<RowId> = rids.iter().rev().step_by(3).copied().collect();
        ids.push(ids[0]);
        let (got, stats) = collect_ordered(&lo, &mut ids);
        let mut want = ids.clone();
        want.sort_unstable();
        assert_eq!(got.iter().map(|(id, _)| *id).collect::<Vec<_>>(), want);
        for (id, r) in &got {
            assert_eq!(Some(r), fetch(&lo, *id).unwrap().as_ref());
        }
        assert_eq!(stats.rows, want.len() as u64);
        // ... which is the order a sequential scan meets them in.
        let mut scan = HeapScan::new();
        let mut seq = Vec::new();
        while let Some((id, _)) = scan.next(&lo).unwrap() {
            if want.contains(&id) {
                seq.push(id);
            }
        }
        want.dedup();
        assert_eq!(seq, want);
    }

    #[test]
    fn fetch_ordered_pins_each_distinct_page_once() {
        let (lo, io, rids) = loaded();
        let mut ids: Vec<RowId> = rids.iter().rev().copied().collect();
        let distinct: std::collections::BTreeSet<u32> = ids.iter().map(|id| unrid(*id).0).collect();
        assert!(
            distinct.len() >= 3 && distinct.len() < ids.len(),
            "several rows on each of several pages"
        );
        let before = io.snapshot();
        let (got, stats) = collect_ordered(&lo, &mut ids);
        let d = io.snapshot().since(&before);
        assert_eq!(got.len(), 300);
        assert_eq!(
            stats,
            FetchStats {
                rows: 300,
                pages: distinct.len() as u64
            }
        );
        assert_eq!(d.pinned_reads, distinct.len() as u64);
        assert_eq!(d.logical_reads, d.pinned_reads, "no copying read");
        // The point lookup and the sequential cursor pin too: one
        // logical read per fetch, one per page scanned.
        let before = io.snapshot();
        fetch(&lo, rids[7]).unwrap().unwrap();
        let d = io.snapshot().since(&before);
        assert_eq!((d.logical_reads, d.pinned_reads), (1, 1));
        let before = io.snapshot();
        let mut scan = HeapScan::new();
        while scan.next(&lo).unwrap().is_some() {}
        let d = io.snapshot().since(&before);
        assert_eq!(d.logical_reads, distinct.len() as u64);
        assert_eq!(d.pinned_reads, distinct.len() as u64);
    }

    #[test]
    fn fetch_ordered_skips_what_fetch_answers_none_for() {
        let (mut lo, io, rids) = loaded();
        let dead = rids[10];
        assert!(delete(&mut lo, dead).unwrap());
        let (page, _) = unrid(rids[10]);
        let past_slots = rid(page, u16::MAX);
        let header_page = rid(0, 0);
        let past_end = rid(lo.page_count(), 0);
        let far_past_end = RowId(u64::MAX);
        let mut ids = vec![
            far_past_end,
            rids[11],
            past_end,
            dead,
            header_page,
            past_slots,
            rids[9],
        ];
        for id in [dead, past_slots, header_page, past_end, far_past_end] {
            assert_eq!(fetch(&lo, id).unwrap(), None);
        }
        let before = io.snapshot();
        let (got, stats) = collect_ordered(&lo, &mut ids);
        let d = io.snapshot().since(&before);
        assert_eq!(
            got,
            vec![(rids[9], row(9)), (rids[11], row(11))],
            "only the live rows, in heap order"
        );
        assert_eq!(stats, FetchStats { rows: 2, pages: 1 });
        assert_eq!(d.pinned_reads, 1, "out-of-range pages are never read");
    }

    #[test]
    fn fetch_ordered_stops_when_the_visitor_says_so() {
        let (lo, _, rids) = loaded();
        let mut ids = rids.clone();
        let mut seen = 0;
        let stats = fetch_ordered(&lo, &mut ids, |_, _| {
            seen += 1;
            Ok(seen < 5)
        })
        .unwrap();
        assert_eq!((seen, stats.rows, stats.pages), (5, 5, 1));
    }

    #[test]
    fn empty_heap_scans_nothing() {
        let mut lo = fresh_lo();
        init(&mut lo).unwrap();
        let mut scan = HeapScan::new();
        assert!(scan.next(&lo).unwrap().is_none());
        assert_eq!(row_count(&lo).unwrap(), 0);
    }
}
