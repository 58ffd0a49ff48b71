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

/// Declares the counter block once: each line below becomes a field of
/// [`IoStats`], a field of [`IoSnapshot`], a registry name and a
/// `Display` label, and is copied, adopted and subtracted by the
/// generated `snapshot` / `register_in` / `since`.
macro_rules! io_counters {
    ($($(#[$doc:meta])* $field:ident => $name:literal, $label:literal;)*) => {
        /// Monotone counters of logical and physical I/O, shared by handle.
        ///
        /// * *Logical* reads/writes count buffer-pool requests — the number the
        ///   tree algorithms "ask for" and the metric that is independent of
        ///   buffer-pool size.
        /// * *Physical* reads/writes count backend page transfers (buffer-pool
        ///   misses and flushes).
        #[derive(Debug, Default)]
        pub struct IoStats {
            $($(#[$doc])* pub $field: Counter,)*
        }

        /// A point-in-time copy of the counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct IoSnapshot {
            $(pub $field: u64,)*
        }

        impl IoStats {
            /// Takes a snapshot of all counters.
            pub fn snapshot(&self) -> IoSnapshot {
                IoSnapshot { $($field: self.$field.get(),)* }
            }

            /// Adopts every counter into `metrics` under its registry
            /// name, so the registry snapshot and [`IoSnapshot`] read the
            /// same cells.
            pub fn register_in(&self, metrics: &Metrics) {
                $(metrics.adopt_counter($name, self.$field.clone());)*
            }
        }

        impl IoSnapshot {
            /// Counter deltas since an earlier snapshot.
            #[must_use]
            pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
                IoSnapshot { $($field: self.$field - earlier.$field,)* }
            }
        }

        impl std::fmt::Display for IoSnapshot {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let cells = [$(($label, self.$field)),*];
                for (i, (label, value)) in cells.iter().enumerate() {
                    let sep = if i == 0 { "" } else { " " };
                    write!(f, "{sep}{label}={value}")?;
                }
                Ok(())
            }
        }
    };
}

io_counters! {
    /// Buffer-pool page read requests.
    logical_reads => "sbspace.logical_reads", "lr";
    /// Buffer-pool page write requests.
    logical_writes => "sbspace.logical_writes", "lw";
    /// Pages fetched from the backend (pool misses).
    physical_reads => "sbspace.physical_reads", "pr";
    /// Pages flushed to the backend.
    physical_writes => "sbspace.physical_writes", "pw";
    /// Large objects opened (the paper notes LO open/close can be
    /// time-consuming — the storage-granularity ablation counts them).
    lo_opens => "sbspace.lo_opens", "opens";
    /// Lock waits that actually blocked.
    lock_waits => "sbspace.lock_waits", "waits";
    /// Deadlocks detected (victim aborted).
    deadlocks => "sbspace.deadlocks", "dl";
    /// Frames evicted by the clock sweep.
    evictions => "sbspace.evictions", "ev";
    /// Times a shard overflowed its capacity because every frame was
    /// dirty or pinned (no-steal forbids eviction).
    dirty_overflows => "sbspace.dirty_overflows", "ovf";
    /// Zero-copy pinned page reads ([`crate::buffer::BufferPool::read_pinned`]).
    /// `logical_reads - pinned_reads` is the number of copying reads.
    pinned_reads => "sbspace.pinned_reads", "pin";
    /// Durable WAL syncs.
    wal_syncs => "sbspace.wal_syncs", "ws";
    /// Durable data-backend syncs.
    data_syncs => "sbspace.data_syncs", "ds";
    /// Transactions that reached their WAL commit point.
    txn_commits => "sbspace.txn_commits", "tc";
    /// Transactions aborted, whether explicitly or by a failed commit.
    txn_aborts => "sbspace.txn_aborts", "ta";
    /// Demand reads that blocked on another thread's in-flight fault
    /// instead of issuing their own physical read.
    inflight_waits => "sbspace.inflight_waits", "ifw";
    // I/O-shape counters live under io.* — they describe how the
    // backend was driven, not what the pool was asked for.
    /// Pages that rode along in a coalesced multi-page write (pages
    /// written minus write calls issued).
    coalesced_writes => "io.coalesced_writes", "cw";
    /// Contiguous runs emitted by batched flushes (one per backend
    /// write call when the backend coalesces).
    write_runs => "io.write_runs", "wruns";
}

impl IoStats {
    /// A fresh shared counter block.
    pub fn new_shared() -> Arc<IoStats> {
        Arc::new(IoStats::default())
    }

    /// Adds one to a counter (internal convenience).
    pub(crate) fn bump(counter: &Counter) {
        counter.inc();
    }
}

impl IoSnapshot {
    /// Total durable sync calls (WAL plus data backend).
    pub fn total_syncs(&self) -> u64 {
        self.wal_syncs + self.data_syncs
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
        IoStats::bump(&s.wal_syncs);
        IoStats::bump(&s.txn_commits);
        let after = s.snapshot();
        let d = after.since(&before);
        assert_eq!(d.logical_reads, 2);
        assert_eq!(d.physical_writes, 1);
        assert_eq!(d.logical_writes, 0);
        assert_eq!(d.evictions, 1);
        assert_eq!(d.wal_syncs, 1);
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
