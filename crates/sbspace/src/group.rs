//! The log writer: the one path by which bytes reach the WAL.
//!
//! Every record — commit batches, the allocator's `AllocNote`s and
//! `FreeNote`s, `Abort`, `Checkpoint`, the tail recovery writes —
//! enters the log through this queue, in one of two ways:
//!
//! * [`LogWriter::append`] queues the bytes and returns at once. The
//!   record has a place in the log order but is not durable: it is
//!   written and synced by the **next force that follows it**. The
//!   allocator's notes take this path, so allocating or freeing a page
//!   costs no log I/O of its own; so does a `Checkpoint` record, which
//!   must be queued under the allocator's lock and is forced outside it.
//! * [`LogWriter::force`] queues the bytes and returns once they — and
//!   therefore everything queued before them — are durable. Commit and
//!   abort records take this path; a force of no bytes is a barrier.
//!
//! The first forcer to find no leader becomes the leader: it takes the
//! whole queue (at most one forced entry per session in a force),
//! writes it with one `WalStore::append`, issues a single `sync`, and
//! wakes the forcers whose entries rode along. Under a burst of `k`
//! commits this collapses `k` WAL syncs into a handful, and an
//! auto-commit statement with nobody to share with performs exactly one.
//!
//! Ordering is sound without extra coordination because sbspace holds
//! LO-level two-phase locks until after commit: two conflicting
//! transactions can never be in the queue at once, so any queue order
//! of the non-conflicting residents is serialisable. Entries keep
//! enqueue order (sequence numbers are handed out under the queue
//! lock), so the log stream stays a valid history and the durable part
//! of it is always a prefix.
//!
//! If a flush fails, the log is *poisoned*: a partial append may have
//! left garbage at the tail, and records written past it would be
//! stranded beyond the torn region where recovery's stream decoder
//! cannot reach them. Every entry not yet durable fails, and so does
//! every later `append` and `force`, until the space is reopened
//! (which replays the log and trims the torn tail).

use crate::stats::IoStats;
use crate::wal::WalStore;
use crate::{Result, SbError};
use grt_metrics::{Counter, Histogram, Metrics};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

struct Entry {
    seq: u64,
    bytes: Vec<u8>,
    /// Someone is waiting in [`LogWriter::force`] for this entry.
    forced: bool,
}

struct State {
    /// Entries not yet handed to a leader, in enqueue order.
    queue: VecDeque<Entry>,
    next_seq: u64,
    /// Every entry with `seq <= durable_seq` is appended and synced.
    /// Advances only on a successful flush.
    durable_seq: u64,
    /// A leader is currently appending and syncing.
    leader: bool,
    /// Set by the first failed flush; never cleared.
    poisoned: Option<String>,
}

/// The log writer (one per space). Owns the [`WalStore`]: nothing else
/// appends to it or syncs it.
pub(crate) struct LogWriter {
    wal: Box<dyn WalStore>,
    stats: Arc<IoStats>,
    state: Mutex<State>,
    cond: Condvar,
    /// Wall time of each `WalStore::sync` (`wal.sync_ns`).
    sync_ns: Histogram,
    /// Bytes written per force (`wal.force_bytes`).
    force_bytes: Histogram,
    /// Unforced entries that rode a later force (`sbspace.meta_deferred`).
    meta_deferred: Counter,
}

impl LogWriter {
    /// A writer over `wal`.
    pub fn new(wal: Box<dyn WalStore>, stats: Arc<IoStats>, metrics: &Metrics) -> LogWriter {
        LogWriter {
            wal,
            stats,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                next_seq: 1,
                durable_seq: 0,
                leader: false,
                poisoned: None,
            }),
            cond: Condvar::new(),
            sync_ns: metrics.histogram("wal.sync_ns"),
            force_bytes: metrics.histogram("wal.force_bytes"),
            meta_deferred: metrics.counter("sbspace.meta_deferred"),
        }
    }

    /// The store, for everything but appending and syncing (segment
    /// queries, recycling, reading).
    pub fn store(&self) -> &dyn WalStore {
        self.wal.as_ref()
    }

    fn unavailable(msg: &str) -> SbError {
        SbError::Io(format!("wal unavailable: {msg}"))
    }

    fn enqueue(state: &mut State, bytes: Vec<u8>, forced: bool) -> Result<u64> {
        if let Some(msg) = &state.poisoned {
            return Err(Self::unavailable(msg));
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        state.queue.push_back(Entry { seq, bytes, forced });
        Ok(seq)
    }

    /// Gives `bytes` their place in the log without making them
    /// durable; the next force that follows carries them.
    pub fn append(&self, bytes: Vec<u8>) -> Result<()> {
        Self::enqueue(&mut self.state.lock(), bytes, false).map(drop)
    }

    /// Makes `bytes`, and everything queued before them, durable,
    /// riding or leading a group. Returns once synced, or with an error
    /// once the log is poisoned.
    pub fn force(&self, bytes: Vec<u8>) -> Result<()> {
        let mut state = self.state.lock();
        let seq = Self::enqueue(&mut state, bytes, true)?;
        loop {
            if state.durable_seq >= seq {
                return Ok(());
            }
            if let Some(msg) = &state.poisoned {
                // A flush failed at or before this entry: the tail is
                // suspect and the entry will never be written.
                return Err(Self::unavailable(msg));
            }
            if state.leader {
                self.cond.wait(&mut state);
                continue;
            }
            // Lead: take the queue and flush it outside the lock. Our
            // own entry is still queued, so the group is never empty.
            state.leader = true;
            let group: Vec<Entry> = state.queue.drain(..).collect();
            let hi = group.last().expect("own entry queued").seq;
            drop(state);

            let res = self.flush(&group);

            state = self.state.lock();
            state.leader = false;
            match res {
                Ok(()) => state.durable_seq = hi,
                Err(e) => state.poisoned = Some(e.to_string()),
            }
            self.cond.notify_all();
        }
    }

    /// Writes one group and syncs it. The only caller of
    /// [`WalStore::append`] and [`WalStore::sync`].
    fn flush(&self, group: &[Entry]) -> Result<()> {
        let len = group.iter().map(|e| e.bytes.len()).sum();
        let mut flat: Vec<u8> = Vec::with_capacity(len);
        for e in group {
            flat.extend_from_slice(&e.bytes);
        }
        self.wal.append(&flat)?;
        IoStats::bump(&self.stats.wal_syncs);
        let started = Instant::now();
        self.wal.sync()?;
        self.sync_ns.observe(started.elapsed());
        self.force_bytes.observe_ns(len as u64);
        self.meta_deferred
            .add(group.iter().filter(|e| !e.forced).count() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{MemWal, WalRecord};
    use crate::TxnId;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn writer(wal: impl WalStore + 'static) -> (LogWriter, Arc<IoStats>) {
        let stats = IoStats::new_shared();
        let w = LogWriter::new(Box::new(wal), Arc::clone(&stats), &Metrics::new());
        (w, stats)
    }

    fn commit(i: u64) -> Vec<u8> {
        WalRecord::Commit { txn: TxnId(i) }.encode()
    }

    #[test]
    fn burst_of_commits_shares_syncs() {
        let wal = Arc::new(MemWal::new());
        let (w, stats) = writer(Arc::clone(&wal));
        let w = Arc::new(w);
        let barrier = Arc::new(std::sync::Barrier::new(16));
        let handles: Vec<_> = (0..16u64)
            .map(|i| {
                let (w, barrier) = (Arc::clone(&w), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    w.force(commit(i)).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // All 16 commit records are durable...
        let (records, _) = WalRecord::decode_segment(&wal.read_all().unwrap());
        assert_eq!(records.len(), 16);
        // ...in no more syncs than committers.
        let syncs = stats.snapshot().wal_syncs;
        assert!(syncs <= 16, "at most one sync per committer, got {syncs}");
    }

    #[test]
    fn appends_ride_the_next_force_in_order() {
        let wal = Arc::new(MemWal::new());
        let (w, stats) = writer(Arc::clone(&wal));
        w.append(commit(1)).unwrap();
        w.append(commit(2)).unwrap();
        // Queued, not written: no I/O yet and nothing durable.
        assert!(wal.read_all().unwrap().is_empty());
        assert_eq!(stats.snapshot().wal_syncs, 0);
        w.force(commit(3)).unwrap();
        let (records, _) = WalRecord::decode_segment(&wal.read_all().unwrap());
        assert_eq!(
            records,
            (1..=3)
                .map(|i| WalRecord::Commit { txn: TxnId(i) })
                .collect::<Vec<_>>()
        );
        assert_eq!(stats.snapshot().wal_syncs, 1);
        assert_eq!(w.meta_deferred.get(), 2);
        // A force of nothing is a barrier: one more sync, no record.
        w.append(commit(4)).unwrap();
        w.force(Vec::new()).unwrap();
        let (records, _) = WalRecord::decode_segment(&wal.read_all().unwrap());
        assert_eq!(records.len(), 4);
        assert_eq!(stats.snapshot().wal_syncs, 2);
    }

    /// Fails appends while `broken` is set.
    struct FlakyWal {
        inner: MemWal,
        broken: Arc<AtomicBool>,
    }
    impl WalStore for FlakyWal {
        fn append(&self, bytes: &[u8]) -> Result<()> {
            if self.broken.load(Ordering::SeqCst) {
                return Err(SbError::Io("disk full".into()));
            }
            self.inner.append(bytes)
        }
        fn sync(&self) -> Result<()> {
            Ok(())
        }
        fn read_segment(&self, seg: u64) -> Result<Vec<u8>> {
            self.inner.read_segment(seg)
        }
        fn trim(&self, _len: u64) -> Result<()> {
            Ok(())
        }
    }

    fn flaky() -> (FlakyWal, Arc<AtomicBool>) {
        let broken = Arc::new(AtomicBool::new(true));
        let wal = FlakyWal {
            inner: MemWal::new(),
            broken: Arc::clone(&broken),
        };
        (wal, broken)
    }

    #[test]
    fn failure_poisons_later_appends_and_forces() {
        let (wal, broken) = flaky();
        let (w, _) = writer(wal);
        w.append(commit(0)).unwrap();
        let first = w.force(commit(1));
        assert!(matches!(first, Err(SbError::Io(_))));
        // The log tail is suspect: even over a healed store nothing may
        // be written past possible garbage, forced or not.
        broken.store(false, Ordering::SeqCst);
        let later = w.force(commit(2));
        assert!(matches!(later, Err(SbError::Io(m)) if m.contains("wal unavailable")));
        let unforced = w.append(commit(3));
        assert!(matches!(unforced, Err(SbError::Io(m)) if m.contains("wal unavailable")));
        assert!(
            w.store().read_segment(0).unwrap().is_empty(),
            "a failed flush makes nothing durable"
        );
    }

    #[test]
    fn leader_failure_reaches_every_rider() {
        let (wal, _) = flaky();
        let w = Arc::new(writer(wal).0);
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let (w, barrier) = (Arc::clone(&w), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    w.force(commit(i))
                })
            })
            .collect();
        for h in handles {
            let res = h.join().unwrap();
            assert!(matches!(res, Err(SbError::Io(_))), "{res:?}");
        }
    }
}
