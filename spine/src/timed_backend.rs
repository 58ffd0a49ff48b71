//! A `Backend` that times the calls it forwards: the benchmark's span
//! around the sbspace → backend boundary. Only the traced run of a
//! file-backed workload mounts it.

use grt_sbspace::{Backend, PageBuf, PageId, Result, PAGE_SIZE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Totals since the space was opened. Statistics only, so `Relaxed`.
#[derive(Default)]
pub struct BackendTimes {
    pub read_calls: AtomicU64,
    pub read_pages: AtomicU64,
    pub read_ns: AtomicU64,
    pub write_calls: AtomicU64,
    pub write_pages: AtomicU64,
    pub write_ns: AtomicU64,
    pub sync_calls: AtomicU64,
    pub sync_ns: AtomicU64,
}

/// A point-in-time copy of [`BackendTimes`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendSnapshot {
    pub read_calls: u64,
    pub read_pages: u64,
    pub read_ns: u64,
    pub write_calls: u64,
    pub write_pages: u64,
    pub write_ns: u64,
    pub sync_calls: u64,
    pub sync_ns: u64,
}

impl BackendTimes {
    pub fn snapshot(&self) -> BackendSnapshot {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        BackendSnapshot {
            read_calls: get(&self.read_calls),
            read_pages: get(&self.read_pages),
            read_ns: get(&self.read_ns),
            write_calls: get(&self.write_calls),
            write_pages: get(&self.write_pages),
            write_ns: get(&self.write_ns),
            sync_calls: get(&self.sync_calls),
            sync_ns: get(&self.sync_ns),
        }
    }
}

impl BackendSnapshot {
    pub fn plus(&self, other: &BackendSnapshot) -> BackendSnapshot {
        BackendSnapshot {
            read_calls: self.read_calls + other.read_calls,
            read_pages: self.read_pages + other.read_pages,
            read_ns: self.read_ns + other.read_ns,
            write_calls: self.write_calls + other.write_calls,
            write_pages: self.write_pages + other.write_pages,
            write_ns: self.write_ns + other.write_ns,
            sync_calls: self.sync_calls + other.sync_calls,
            sync_ns: self.sync_ns + other.sync_ns,
        }
    }

    pub fn since(&self, earlier: &BackendSnapshot) -> BackendSnapshot {
        BackendSnapshot {
            read_calls: self.read_calls - earlier.read_calls,
            read_pages: self.read_pages - earlier.read_pages,
            read_ns: self.read_ns - earlier.read_ns,
            write_calls: self.write_calls - earlier.write_calls,
            write_pages: self.write_pages - earlier.write_pages,
            write_ns: self.write_ns - earlier.write_ns,
            sync_calls: self.sync_calls - earlier.sync_calls,
            sync_ns: self.sync_ns - earlier.sync_ns,
        }
    }
}

pub struct TimedBackend<B> {
    inner: B,
    times: Arc<BackendTimes>,
}

impl<B: Backend> TimedBackend<B> {
    pub fn new(inner: B) -> (TimedBackend<B>, Arc<BackendTimes>) {
        let times = Arc::new(BackendTimes::default());
        (
            TimedBackend {
                inner,
                times: Arc::clone(&times),
            },
            times,
        )
    }

    fn timed<T>(
        &self,
        calls: &AtomicU64,
        pages: Option<(&AtomicU64, usize)>,
        ns: &AtomicU64,
        f: impl FnOnce(&B) -> T,
    ) -> T {
        let start = Instant::now();
        let out = f(&self.inner);
        ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        calls.fetch_add(1, Ordering::Relaxed);
        if let Some((counter, n)) = pages {
            counter.fetch_add(n as u64, Ordering::Relaxed);
        }
        out
    }
}

impl<B: Backend> Backend for TimedBackend<B> {
    fn read_page(&self, pid: PageId, out: &mut [u8; PAGE_SIZE]) -> Result<()> {
        let t = &self.times;
        self.timed(&t.read_calls, Some((&t.read_pages, 1)), &t.read_ns, |b| {
            b.read_page(pid, out)
        })
    }

    fn write_page(&self, pid: PageId, data: &[u8; PAGE_SIZE]) -> Result<()> {
        let t = &self.times;
        self.timed(
            &t.write_calls,
            Some((&t.write_pages, 1)),
            &t.write_ns,
            |b| b.write_page(pid, data),
        )
    }

    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn sync(&self) -> Result<()> {
        let t = &self.times;
        self.timed(&t.sync_calls, None, &t.sync_ns, |b| b.sync())
    }

    fn read_pages(&self, pids: &[PageId], out: &mut [PageBuf]) -> Result<()> {
        let t = &self.times;
        self.timed(
            &t.read_calls,
            Some((&t.read_pages, pids.len())),
            &t.read_ns,
            |b| b.read_pages(pids, out),
        )
    }

    fn write_pages(&self, pages: &[(PageId, &[u8; PAGE_SIZE])]) -> Result<()> {
        let t = &self.times;
        self.timed(
            &t.write_calls,
            Some((&t.write_pages, pages.len())),
            &t.write_ns,
            |b| b.write_pages(pages),
        )
    }
}
