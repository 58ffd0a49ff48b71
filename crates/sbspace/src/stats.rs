//! Shared I/O counters — the platform-independent cost metric of the
//! benchmark harness.
//!
//! The counters are [`grt_metrics::Counter`] cells so the whole block
//! can be adopted into an engine-wide [`grt_metrics::Metrics`] registry
//! (see [`IoStats::register_in`]): the same cell is then visible both
//! through the typed [`IoSnapshot`] and through the registry's named
//! `sbspace.*` snapshot, with no double counting.

use grt_metrics::{Counter, Metrics};
use std::sync::Arc;

/// Monotone counters of logical and physical I/O, shared by handle.
///
/// * *Logical* reads/writes count buffer-pool requests — the number the
///   tree algorithms "ask for" and the metric that is independent of
///   buffer-pool size.
/// * *Physical* reads/writes count backend page transfers (buffer-pool
///   misses and flushes).
#[derive(Debug, Default)]
pub struct IoStats {
    /// Buffer-pool page read requests.
    pub logical_reads: Counter,
    /// Buffer-pool page write requests.
    pub logical_writes: Counter,
    /// Pages fetched from the backend (pool misses).
    pub physical_reads: Counter,
    /// Pages flushed to the backend.
    pub physical_writes: Counter,
    /// Large objects opened (the paper notes LO open/close can be
    /// time-consuming — the storage-granularity ablation counts them).
    pub lo_opens: Counter,
    /// Lock waits that actually blocked.
    pub lock_waits: Counter,
    /// Deadlocks detected (victim aborted).
    pub deadlocks: Counter,
    /// Frames evicted by the clock sweep.
    pub evictions: Counter,
    /// Times a shard overflowed its capacity because every frame was
    /// dirty or pinned (no-steal forbids eviction).
    pub dirty_overflows: Counter,
    /// WAL flush groups written by a log-writer leader (one per sync,
    /// in both `group_commit` settings).
    pub group_commits: Counter,
    /// Zero-copy pinned page reads ([`crate::buffer::BufferPool::read_pinned`]).
    /// `logical_reads - pinned_reads` is the number of copying reads.
    pub pinned_reads: Counter,
    /// Durable WAL syncs.
    pub wal_syncs: Counter,
    /// Durable data-backend syncs.
    pub data_syncs: Counter,
    /// Transactions that reached their WAL commit point.
    pub txn_commits: Counter,
    /// Transactions aborted, whether explicitly or by a failed commit.
    pub txn_aborts: Counter,
    /// Pages enqueued for asynchronous prefetch.
    pub prefetch_issued: Counter,
    /// Demand reads that found a frame a prefetch worker had installed.
    pub prefetch_hits: Counter,
    /// Prefetched frames evicted before any demand read touched them.
    pub prefetch_wasted: Counter,
    /// Demand reads that blocked on another thread's in-flight fault
    /// instead of issuing their own physical read.
    pub inflight_waits: Counter,
    /// Pages that rode along in a coalesced multi-page write (pages
    /// written minus write calls issued).
    pub coalesced_writes: Counter,
    /// Contiguous runs emitted by batched flushes (one per backend
    /// write call when the backend coalesces).
    pub write_runs: Counter,
    /// Contiguous runs emitted by batched prefetch reads.
    pub read_runs: Counter,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    pub logical_reads: u64,
    pub logical_writes: u64,
    pub physical_reads: u64,
    pub physical_writes: u64,
    pub lo_opens: u64,
    pub lock_waits: u64,
    pub deadlocks: u64,
    pub evictions: u64,
    pub dirty_overflows: u64,
    pub group_commits: u64,
    pub pinned_reads: u64,
    pub wal_syncs: u64,
    pub data_syncs: u64,
    pub txn_commits: u64,
    pub txn_aborts: u64,
    pub prefetch_issued: u64,
    pub prefetch_hits: u64,
    pub prefetch_wasted: u64,
    pub inflight_waits: u64,
    pub coalesced_writes: u64,
    pub write_runs: u64,
    pub read_runs: u64,
}

impl IoStats {
    /// A fresh shared counter block.
    pub fn new_shared() -> Arc<IoStats> {
        Arc::new(IoStats::default())
    }

    /// Takes a snapshot of all counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            logical_reads: self.logical_reads.get(),
            logical_writes: self.logical_writes.get(),
            physical_reads: self.physical_reads.get(),
            physical_writes: self.physical_writes.get(),
            lo_opens: self.lo_opens.get(),
            lock_waits: self.lock_waits.get(),
            deadlocks: self.deadlocks.get(),
            evictions: self.evictions.get(),
            dirty_overflows: self.dirty_overflows.get(),
            group_commits: self.group_commits.get(),
            pinned_reads: self.pinned_reads.get(),
            wal_syncs: self.wal_syncs.get(),
            data_syncs: self.data_syncs.get(),
            txn_commits: self.txn_commits.get(),
            txn_aborts: self.txn_aborts.get(),
            prefetch_issued: self.prefetch_issued.get(),
            prefetch_hits: self.prefetch_hits.get(),
            prefetch_wasted: self.prefetch_wasted.get(),
            inflight_waits: self.inflight_waits.get(),
            coalesced_writes: self.coalesced_writes.get(),
            write_runs: self.write_runs.get(),
            read_runs: self.read_runs.get(),
        }
    }

    /// Adopts every counter into `metrics` under `sbspace.*` names, so
    /// the registry snapshot and [`IoSnapshot`] read the same cells.
    pub fn register_in(&self, metrics: &Metrics) {
        for (name, c) in [
            ("sbspace.logical_reads", &self.logical_reads),
            ("sbspace.logical_writes", &self.logical_writes),
            ("sbspace.physical_reads", &self.physical_reads),
            ("sbspace.physical_writes", &self.physical_writes),
            ("sbspace.lo_opens", &self.lo_opens),
            ("sbspace.lock_waits", &self.lock_waits),
            ("sbspace.deadlocks", &self.deadlocks),
            ("sbspace.evictions", &self.evictions),
            ("sbspace.dirty_overflows", &self.dirty_overflows),
            ("sbspace.group_commits", &self.group_commits),
            ("sbspace.pinned_reads", &self.pinned_reads),
            ("sbspace.wal_syncs", &self.wal_syncs),
            ("sbspace.data_syncs", &self.data_syncs),
            ("sbspace.txn_commits", &self.txn_commits),
            ("sbspace.txn_aborts", &self.txn_aborts),
            ("sbspace.prefetch_issued", &self.prefetch_issued),
            ("sbspace.prefetch_hits", &self.prefetch_hits),
            ("sbspace.prefetch_wasted", &self.prefetch_wasted),
            ("sbspace.inflight_waits", &self.inflight_waits),
            // I/O-shape counters live under io.* — they describe how the
            // backend was driven, not what the pool was asked for.
            ("io.coalesced_writes", &self.coalesced_writes),
            ("io.write_runs", &self.write_runs),
            ("io.read_runs", &self.read_runs),
        ] {
            metrics.adopt_counter(name, c.clone());
        }
    }

    /// Adds one to a counter (internal convenience).
    pub(crate) fn bump(counter: &Counter) {
        counter.inc();
    }
}

impl IoSnapshot {
    /// Counter deltas since an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            logical_reads: self.logical_reads - earlier.logical_reads,
            logical_writes: self.logical_writes - earlier.logical_writes,
            physical_reads: self.physical_reads - earlier.physical_reads,
            physical_writes: self.physical_writes - earlier.physical_writes,
            lo_opens: self.lo_opens - earlier.lo_opens,
            lock_waits: self.lock_waits - earlier.lock_waits,
            deadlocks: self.deadlocks - earlier.deadlocks,
            evictions: self.evictions - earlier.evictions,
            dirty_overflows: self.dirty_overflows - earlier.dirty_overflows,
            group_commits: self.group_commits - earlier.group_commits,
            pinned_reads: self.pinned_reads - earlier.pinned_reads,
            wal_syncs: self.wal_syncs - earlier.wal_syncs,
            data_syncs: self.data_syncs - earlier.data_syncs,
            txn_commits: self.txn_commits - earlier.txn_commits,
            txn_aborts: self.txn_aborts - earlier.txn_aborts,
            prefetch_issued: self.prefetch_issued - earlier.prefetch_issued,
            prefetch_hits: self.prefetch_hits - earlier.prefetch_hits,
            prefetch_wasted: self.prefetch_wasted - earlier.prefetch_wasted,
            inflight_waits: self.inflight_waits - earlier.inflight_waits,
            coalesced_writes: self.coalesced_writes - earlier.coalesced_writes,
            write_runs: self.write_runs - earlier.write_runs,
            read_runs: self.read_runs - earlier.read_runs,
        }
    }

    /// Total durable sync calls (WAL plus data backend) — the metric the
    /// group-commit benchmark compares.
    pub fn total_syncs(&self) -> u64 {
        self.wal_syncs + self.data_syncs
    }
}

impl std::fmt::Display for IoSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lr={} lw={} pr={} pw={} opens={} waits={} dl={} ev={} ovf={} gc={} pin={} ws={} ds={} tc={} ta={} pfi={} pfh={} pfw={} ifw={} cw={} wruns={} rruns={}",
            self.logical_reads,
            self.logical_writes,
            self.physical_reads,
            self.physical_writes,
            self.lo_opens,
            self.lock_waits,
            self.deadlocks,
            self.evictions,
            self.dirty_overflows,
            self.group_commits,
            self.pinned_reads,
            self.wal_syncs,
            self.data_syncs,
            self.txn_commits,
            self.txn_aborts,
            self.prefetch_issued,
            self.prefetch_hits,
            self.prefetch_wasted,
            self.inflight_waits,
            self.coalesced_writes,
            self.write_runs,
            self.read_runs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let s = IoStats::new_shared();
        let before = s.snapshot();
        IoStats::bump(&s.logical_reads);
        IoStats::bump(&s.logical_reads);
        IoStats::bump(&s.physical_writes);
        IoStats::bump(&s.evictions);
        IoStats::bump(&s.group_commits);
        IoStats::bump(&s.wal_syncs);
        IoStats::bump(&s.txn_commits);
        let after = s.snapshot();
        let d = after.since(&before);
        assert_eq!(d.logical_reads, 2);
        assert_eq!(d.physical_writes, 1);
        assert_eq!(d.logical_writes, 0);
        assert_eq!(d.evictions, 1);
        assert_eq!(d.group_commits, 1);
        assert_eq!(d.total_syncs(), 1);
        assert_eq!(d.txn_commits, 1);
        assert_eq!(d.txn_aborts, 0);
    }

    #[test]
    fn registry_adoption_shares_cells() {
        let s = IoStats::new_shared();
        let m = Metrics::new();
        s.register_in(&m);
        IoStats::bump(&s.logical_reads);
        IoStats::bump(&s.txn_aborts);
        let snap = m.snapshot();
        assert_eq!(snap.get("sbspace.logical_reads"), 1);
        assert_eq!(snap.get("sbspace.txn_aborts"), 1);
        assert_eq!(snap.get("sbspace.evictions"), 0);
        // Registering twice keeps the original cells.
        s.register_in(&m);
        IoStats::bump(&s.logical_reads);
        assert_eq!(m.snapshot().get("sbspace.logical_reads"), 2);
    }
}
