//! Metrics: named atomic counters, gauges, and log₂-bucket latency
//! histograms, collected into point-in-time snapshots.
//!
//! Registration is lock-protected but recording is lock-free: looking up
//! a metric hands back an `Arc` to its atomics, so hot paths pay one
//! `BTreeMap` lookup on first touch and plain atomic ops thereafter
//! (or zero lookups if they cache the handle).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::json::Json;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` covers values whose
/// bit-length is `i`, i.e. `[2^(i-1), 2^i)`, with bucket 0 holding zero.
pub const BUCKETS: usize = 64;

/// A fixed-bucket latency histogram over `u64` values (nanoseconds by
/// convention). Buckets are powers of two — `leading_zeros` gives the
/// bucket index in a handful of cycles and no configuration is needed
/// for values spanning 100 ns to minutes.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Upper bound (exclusive) of bucket `index`, used as its
    /// representative value in percentile estimates and in exported
    /// bucket tables; pessimistic by at most 2×.
    pub fn bucket_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else {
            1u64 << index.min(63)
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let idx = Self::bucket_index(value).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy for reporting (individual loads are
    /// relaxed; exactness across concurrent writers is not required).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        let count: u64 = buckets.iter().sum();
        let sum = self.sum.load(Ordering::Relaxed);
        let percentile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return Self::bucket_bound(i);
                }
            }
            Self::bucket_bound(BUCKETS - 1)
        };
        HistogramSnapshot {
            count,
            sum,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            max: self.max.load(Ordering::Relaxed),
            p50: percentile(0.50),
            p95: percentile(0.95),
            p99: percentile(0.99),
            buckets,
        }
    }
}

/// A point-in-time view of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Mean observation.
    pub mean: f64,
    /// Largest observation.
    pub max: u64,
    /// Median, as the upper bound of its log₂ bucket.
    pub p50: u64,
    /// 95th percentile, as the upper bound of its log₂ bucket.
    pub p95: u64,
    /// 99th percentile, as the upper bound of its log₂ bucket.
    pub p99: u64,
    /// Raw per-bucket observation counts (`buckets[i]` covers values of
    /// bit-length `i`); the full latency distribution, not just its
    /// summary — audit and bench consumers export these as breakdowns.
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Non-empty buckets as `(upper_bound, count)` pairs, low to high —
    /// the sparse form used in JSON exports.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Histogram::bucket_bound(i), c))
    }

    /// The summary plus sparse buckets as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count)),
            ("sum_ns", Json::from(self.sum)),
            ("mean_ns", Json::Num(self.mean)),
            ("max_ns", Json::from(self.max)),
            ("p50_ns", Json::from(self.p50)),
            ("p95_ns", Json::from(self.p95)),
            ("p99_ns", Json::from(self.p99)),
            (
                "buckets",
                Json::Arr(
                    self.nonzero_buckets()
                        .map(|(bound, count)| Json::Arr(vec![Json::from(bound), Json::from(count)]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Holds every registered metric. One global instance (see [`global`])
/// serves the whole pipeline; separate instances are useful in tests.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// `std` locks poison on panic; metrics must survive a panicking test
/// thread, so recover the guard (poison-free semantics).
macro_rules! lock {
    ($guard:expr) => {
        $guard.unwrap_or_else(|e| e.into_inner())
    };
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = lock!(self.counters.read()).get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            lock!(self.counters.write())
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = lock!(self.gauges.read()).get(name) {
            return Arc::clone(g);
        }
        Arc::clone(
            lock!(self.gauges.write())
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = lock!(self.histograms.read()).get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            lock!(self.histograms.write())
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock!(self.counters.read())
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: lock!(self.gauges.read())
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: lock!(self.histograms.read())
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Zeroes every metric (keeps registrations). Intended for tests and
    /// between-run resets in long-lived processes.
    pub fn reset(&self) {
        for c in lock!(self.counters.read()).values() {
            c.0.store(0, Ordering::Relaxed);
        }
        for g in lock!(self.gauges.read()).values() {
            g.0.store(0, Ordering::Relaxed);
        }
        for h in lock!(self.histograms.read()).values() {
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
            h.count.store(0, Ordering::Relaxed);
            h.sum.store(0, Ordering::Relaxed);
            h.max.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of a whole registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value, or 0 if never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram summary, if that histogram exists.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// The snapshot as a JSON value (for machine consumers).
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(*v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::Int(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.to_json()))
                .collect(),
        );
        Json::obj([
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }

    /// A plain-text rendering for terminals.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<32} {value:>12}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<32} {value:>12}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(
                "histograms (ns):                        count         mean          p50          p95          p99\n",
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<32} {:>10} {:>12.0} {:>12} {:>12} {:>12}",
                    h.count, h.mean, h.p50, h.p95, h.p99
                );
            }
        }
        out
    }
}

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry. Lower pipeline layers record here so
/// callers don't have to thread a registry through every API.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = MetricsRegistry::new();
        r.counter("req").add(3);
        r.counter("req").incr();
        r.gauge("depth").set(7);
        r.gauge("depth").add(-2);
        let snap = r.snapshot();
        assert_eq!(snap.counter("req"), 4);
        assert_eq!(snap.gauges["depth"], 5);
        assert_eq!(snap.counter("never"), 0);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_percentiles_bound_the_data() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.max, 1000);
        // Upper bucket bounds: p50 of 1..=1000 is 500 → bucket [256,512).
        assert_eq!(s.p50, 512);
        assert_eq!(s.p95, 1024);
        assert!(s.p99 >= s.p95 && s.p95 >= s.p50);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let h = Histogram::default();
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.mean, s.p50, s.p99), (0, 0, 0.0, 0, 0));
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        let r = MetricsRegistry::new();
        r.counter("a").add(9);
        r.histogram("h").record(100);
        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.counter("a"), 0);
        assert_eq!(snap.histogram("h").unwrap().count, 0);
    }

    #[test]
    fn snapshot_exposes_raw_buckets_consistent_with_count() {
        let h = Histogram::default();
        for v in [0u64, 1, 3, 3, 700, 700, 700] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        assert_eq!(s.buckets[0], 1, "zero lands in bucket 0");
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[10], 3, "700 has bit-length 10");
        let sparse: Vec<(u64, u64)> = s.nonzero_buckets().collect();
        assert_eq!(sparse, vec![(0, 1), (2, 1), (4, 2), (1024, 3)]);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let r = MetricsRegistry::new();
        r.counter("x").incr();
        r.histogram("lat").record(2048);
        let json = r.snapshot().to_json();
        assert_eq!(
            json.get("counters").unwrap().get("x").unwrap().as_int(),
            Some(1)
        );
        let lat = json.get("histograms").unwrap().get("lat").unwrap();
        assert_eq!(lat.get("count").unwrap().as_int(), Some(1));
    }

    #[test]
    fn global_registry_is_shared() {
        global().counter("obs.test.global").incr();
        assert!(global().snapshot().counter("obs.test.global") >= 1);
    }
}
