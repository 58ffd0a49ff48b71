//! The observability substrate of the engine: counters, latency
//! histograms, and the [`Metrics`] registry that names them.
//!
//! The paper's only window into the running server is the Section 6.4
//! trace facility; everything quantitative (how many node splits a
//! statement cost, how many buffer-pool evictions a workload caused)
//! had to be inferred from trace output. This crate is the missing
//! counter layer: every subsystem registers its counters here, and one
//! [`MetricsSnapshot`] diff answers "what did that phase cost".
//!
//! Design constraints:
//!
//! * **lock-cheap hot path** — a [`Counter`] is a clone-able handle to
//!   one atomic; incrementing takes no lock. The registry's map is only
//!   locked at registration/snapshot time, never per event;
//! * **one snapshot type** — counters and histograms from every layer
//!   (`ids.*`, `grtree.*`, `rstar.*`, `gist.*`, `sbspace.*`, `trace.*`)
//!   land in the same [`MetricsSnapshot`], and
//!   [`MetricsSnapshot::since`] yields per-phase deltas.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotone event counter: a clone-able handle to one shared atomic.
///
/// Cloning is cheap and every clone observes the same value, which is
/// what lets a subsystem keep a private handle on its hot path while
/// the registry snapshots the same cell by name.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// True when two handles share the same cell.
    pub fn same_cell(&self, other: &Counter) -> bool {
        Arc::ptr_eq(&self.cell, &other.cell)
    }
}

/// A level gauge: like [`Counter`] a clone-able handle to one shared
/// atomic, but the value goes **down** as well as up — it tracks how
/// many of something exist right now (open snapshots, live sessions),
/// not how many events ever happened. Snapshot diffs therefore carry
/// gauges at their current level rather than as deltas.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Raises the level by one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Lowers the level by one (saturating at zero — a stray extra
    /// decrement is a bug upstream, but must not wrap the gauge to
    /// `u64::MAX` and poison every later reading).
    #[inline]
    pub fn dec(&self) {
        let _ = self
            .cell
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Sets the level outright — for gauges that mirror an externally
    /// measured quantity (bytes on disk, queue depth) rather than a
    /// count this process increments and decrements itself.
    #[inline]
    pub fn set(&self, level: u64) {
        self.cell.store(level, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// True when two handles share the same cell.
    pub fn same_cell(&self, other: &Gauge) -> bool {
        Arc::ptr_eq(&self.cell, &other.cell)
    }
}

/// Number of histogram buckets: powers of two of microseconds from
/// `<1µs` up to `>=2^(BUCKETS-2)µs`, plus the overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 22;

/// A fixed-bucket latency histogram. Bucket `i` counts observations
/// with `value_ns < 1000 * 2^i`; the last bucket is the overflow.
///
/// Like [`Counter`], a `Histogram` is a clone-able handle to shared
/// atomics: recording takes two relaxed atomic adds and no lock.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

#[derive(Debug, Default)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Upper bound (exclusive, in nanoseconds) of bucket `i`; `None`
    /// for the overflow bucket.
    pub fn bucket_bound_ns(i: usize) -> Option<u64> {
        if i + 1 < HISTOGRAM_BUCKETS {
            Some(1000u64 << i)
        } else {
            None
        }
    }

    /// Records one observation in nanoseconds.
    #[inline]
    pub fn observe_ns(&self, ns: u64) {
        let i = (0..HISTOGRAM_BUCKETS - 1)
            .find(|&i| ns < (1000u64 << i))
            .unwrap_or(HISTOGRAM_BUCKETS - 1);
        self.inner.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one observation from a [`std::time::Duration`].
    #[inline]
    pub fn observe(&self, d: std::time::Duration) {
        self.observe_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (b, cell) in buckets.iter_mut().zip(&self.inner.buckets) {
            *b = cell.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.inner.count.load(Ordering::Relaxed),
            sum_ns: self.inner.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`Histogram::bucket_bound_ns`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values in nanoseconds.
    pub sum_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Bucket-wise delta since an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (b, (now, then)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(&earlier.buckets))
        {
            *b = now.saturating_sub(*then);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum_ns: self.sum_ns.saturating_sub(earlier.sum_ns),
        }
    }

    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound (ns) of the bucket containing the `q`-quantile
    /// observation (`q` in `0.0..=1.0`); 0 when empty. The overflow
    /// bucket reports `u64::MAX`.
    pub fn quantile_bound_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Histogram::bucket_bound_ns(i).unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }
}

/// Operation counters common to the disk trees (GR-tree, R*-tree,
/// GiST). Default-constructed the counters are detached — a tree
/// increments them at full speed with nobody watching; opened through
/// an engine, [`TreeMetrics::registered`] swaps in registry-backed
/// cells so the same bumps feed `SELECT * FROM sysmetrics`.
#[derive(Debug, Clone, Default)]
pub struct TreeMetrics {
    /// Searches started (one per cursor).
    pub searches: Counter,
    /// Nodes read while descending or scanning.
    pub nodes_visited: Counter,
    /// Node splits during insertion.
    pub splits: Counter,
    /// Condense passes after deletion (underfull nodes dissolved).
    pub condenses: Counter,
    /// Entries evicted by forced reinsertion.
    pub reinserts: Counter,
    /// `Hidden`-flag bounds resolved during search (GR-tree only).
    pub hidden_resolutions: Counter,
    /// NOW-relative extents resolved against current time during
    /// search (GR-tree only).
    pub now_resolutions: Counter,
}

impl TreeMetrics {
    /// Counters registered in `metrics` under `<prefix>.<name>` — e.g.
    /// prefix `"grtree"` yields `grtree.splits`. Get-or-register: every
    /// tree opened against the same registry shares the cells. The
    /// registry remembers the set per prefix, so every call after the
    /// first is one lookup and seven handle clones — a tree is opened
    /// once per statement.
    pub fn registered(metrics: &Metrics, prefix: &str) -> TreeMetrics {
        if let Some(t) = metrics.inner.read().trees.get(prefix) {
            return t.clone();
        }
        let counter = |name: &str| metrics.counter(&format!("{prefix}.{name}"));
        let fresh = TreeMetrics {
            searches: counter("searches"),
            nodes_visited: counter("nodes_visited"),
            splits: counter("splits"),
            condenses: counter("condenses"),
            reinserts: counter("reinserts"),
            hidden_resolutions: counter("hidden_resolutions"),
            now_resolutions: counter("now_resolutions"),
        };
        let mut inner = metrics.inner.write();
        inner
            .trees
            .entry(prefix.to_string())
            .or_insert(fresh)
            .clone()
    }
}

#[derive(Default)]
struct Registered {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    /// [`TreeMetrics::registered`]'s memo: prefix → handles on the
    /// seven counters registered above under that prefix.
    trees: BTreeMap<String, TreeMetrics>,
}

/// The named registry: every subsystem's counters and histograms, one
/// level above the raw atomics. Shared by `Arc`; see [`Metrics::shared`].
#[derive(Default)]
pub struct Metrics {
    inner: RwLock<Registered>,
}

impl Metrics {
    /// A fresh, empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// A fresh shared registry.
    pub fn shared() -> Arc<Metrics> {
        Arc::new(Metrics::new())
    }

    /// Returns the counter registered under `name`, creating it on
    /// first use. The returned handle shares the registered cell, so
    /// callers resolve once and increment lock-free thereafter.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.inner.read().counters.get(name) {
            return c.clone();
        }
        self.inner
            .write()
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Registers an existing counter handle under `name` (adoption:
    /// e.g. the sbspace `IoStats` block exposing its cells by name).
    /// Returns the handle that is now registered — the given one, or
    /// the previously registered handle if the name was taken.
    pub fn adopt_counter(&self, name: &str, counter: Counter) -> Counter {
        self.inner
            .write()
            .counters
            .entry(name.to_string())
            .or_insert(counter)
            .clone()
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.inner.read().gauges.get(name) {
            return g.clone();
        }
        self.inner
            .write()
            .gauges
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self.inner.read().histograms.get(name) {
            return h.clone();
        }
        self.inner
            .write()
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Takes a point-in-time snapshot of every registered counter and
    /// histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.read();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a whole [`Metrics`] registry — the one
/// snapshot type every layer reports through.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Level of a gauge (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of a histogram (empty when absent).
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms.get(name).copied().unwrap_or_default()
    }

    /// Per-name deltas since an earlier snapshot. Names absent from
    /// `earlier` diff against zero; names absent from `self` keep the
    /// saturated zero delta.
    #[must_use]
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.get(k))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, v)| (k.clone(), v.since(&earlier.histogram(k))))
            .collect();
        MetricsSnapshot {
            counters,
            // Gauges are levels, not monotone totals — a delta between
            // two levels has no meaning, so a diff carries the current
            // level unchanged.
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// The non-zero counters, for compact phase trailers.
    pub fn nonzero(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters
            .iter()
            .filter(|(_, &v)| v > 0)
            .map(|(k, &v)| (k.as_str(), v))
    }
}

impl std::fmt::Display for MetricsSnapshot {
    /// One `name=value` pair per non-zero counter, space-separated;
    /// histograms render as `name{n,mean_ns}`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (k, v) in self.nonzero() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        for (k, &v) in self.gauges.iter().filter(|(_, &v)| v > 0) {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        for (k, h) in &self.histograms {
            if h.count == 0 {
                continue;
            }
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{k}{{n={},mean_ns={}}}", h.count, h.mean_ns())?;
            first = false;
        }
        if first {
            write!(f, "(no activity)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_a_cell() {
        let m = Metrics::new();
        let a = m.counter("x.events");
        let b = m.counter("x.events");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert!(a.same_cell(&b));
        assert_eq!(m.snapshot().get("x.events"), 3);
        assert_eq!(m.snapshot().get("x.missing"), 0);
    }

    #[test]
    fn adopt_counter_registers_foreign_cells() {
        let m = Metrics::new();
        let mine = Counter::new();
        mine.add(7);
        let adopted = m.adopt_counter("io.reads", mine.clone());
        assert!(adopted.same_cell(&mine));
        mine.inc();
        assert_eq!(m.snapshot().get("io.reads"), 8);
        // A second adoption under the same name keeps the first cell.
        let other = Counter::new();
        let kept = m.adopt_counter("io.reads", other.clone());
        assert!(kept.same_cell(&mine));
        assert!(!kept.same_cell(&other));
    }

    #[test]
    fn gauge_levels_move_both_ways() {
        let m = Metrics::new();
        let g = m.gauge("x.open");
        let g2 = m.gauge("x.open");
        assert!(g.same_cell(&g2));
        g.inc();
        g.inc();
        g2.dec();
        assert_eq!(g.get(), 1);
        assert_eq!(m.snapshot().gauge("x.open"), 1);
        assert_eq!(m.snapshot().gauge("x.missing"), 0);
        // Decrement saturates instead of wrapping.
        g.dec();
        g.dec();
        assert_eq!(g.get(), 0);
        // A diff reports the current level, not a delta.
        let before = m.snapshot();
        g.inc();
        assert_eq!(m.snapshot().since(&before).gauge("x.open"), 1);
        // An outright set overrides whatever level was there.
        g.set(42);
        assert_eq!(g2.get(), 42);
        g.dec();
        assert_eq!(g.get(), 41);
    }

    #[test]
    fn tree_metrics_share_the_registered_cells_per_prefix() {
        let m = Metrics::new();
        let first = TreeMetrics::registered(&m, "grtree");
        let again = TreeMetrics::registered(&m, "grtree");
        let other = TreeMetrics::registered(&m, "rstar");
        first.splits.inc();
        again.splits.inc();
        other.splits.inc();
        assert_eq!(m.counter("grtree.splits").get(), 2);
        assert_eq!(m.counter("rstar.splits").get(), 1);
        assert_eq!(m.snapshot().counters.len(), 14, "seven names a prefix");
    }

    #[test]
    fn snapshot_diff() {
        let m = Metrics::new();
        let c = m.counter("a");
        c.add(5);
        let before = m.snapshot();
        c.add(3);
        m.counter("b").inc();
        let d = m.snapshot().since(&before);
        assert_eq!(d.get("a"), 3);
        assert_eq!(d.get("b"), 1);
        assert_eq!(d.nonzero().count(), 2);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().quantile_bound_ns(0.5), 0);
        // 900ns -> bucket 0 (<1µs); 1500ns -> bucket 1 (<2µs);
        // something huge -> overflow.
        h.observe_ns(900);
        h.observe_ns(1500);
        h.observe_ns(u64::MAX / 2);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(s.quantile_bound_ns(0.33), 1000);
        assert_eq!(s.quantile_bound_ns(0.66), 2000);
        assert_eq!(s.quantile_bound_ns(1.0), u64::MAX);
        assert!(s.mean_ns() > 1000);
    }

    #[test]
    fn histogram_diff_via_registry() {
        let m = Metrics::new();
        let h = m.histogram("lat");
        h.observe(std::time::Duration::from_micros(3));
        let before = m.snapshot();
        h.observe(std::time::Duration::from_micros(3));
        h.observe(std::time::Duration::from_micros(3));
        let d = m.snapshot().since(&before);
        assert_eq!(d.histogram("lat").count, 2);
        assert_eq!(before.histogram("lat").count, 1);
    }

    #[test]
    fn display_is_compact() {
        let m = Metrics::new();
        assert_eq!(m.snapshot().to_string(), "(no activity)");
        m.counter("a.x").add(2);
        m.counter("a.zero");
        m.histogram("t").observe_ns(10);
        let s = m.snapshot().to_string();
        assert!(s.contains("a.x=2"));
        assert!(!s.contains("a.zero"));
        assert!(s.contains("t{n=1"));
    }
}
