//! Std-only serving metrics: lock-cheap counters, gauges, and fixed-bucket
//! latency histograms, plus a Prometheus text-format v0.0.4 renderer.
//!
//! The hot path never touches a lock or allocates: every instrument is a
//! handful of atomics behind an [`Arc`], and labeled families
//! ([`CounterVec`], [`GaugeVec`], [`HistogramVec`]) are indexed by small
//! static enums mapped to a child index at call sites — label strings exist
//! only at registration and render time. The [`MetricsRegistry`] owns the
//! family metadata (name, help, label name, children) behind a mutex that is
//! taken only when registering or rendering.
//!
//! Histograms are nanosecond-resolution latency histograms: observations are
//! recorded in integer nanoseconds against a fixed, strictly increasing
//! bucket-bound ladder, and the renderer converts bounds and sums to seconds
//! (the Prometheus base unit for time). `_count` is rendered as the sum of
//! the bins rather than a separate counter so a render taken mid-`observe`
//! can never show `+Inf < _count`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod validate;

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default latency bucket bounds in nanoseconds: a 1 / 2.5 / 5 ladder from
/// 250 ns to 10 s. Every bound divides a power of ten, so the rendered
/// seconds-valued `le` labels stay clean decimals under `f64` `Display`.
pub const LATENCY_BOUNDS_NS: [u64; 24] = [
    250,
    500,
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    250_000_000,
    500_000_000,
    1_000_000_000,
    2_500_000_000,
    5_000_000_000,
    10_000_000_000,
];

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Refresh from an externally maintained running total. Uses a
    /// `fetch_max` so stale refreshers can never make the counter go
    /// backwards — the exposed series stays monotone even when totals
    /// are sampled from another subsystem at render time.
    pub fn record_total(&self, total: u64) {
        self.value.fetch_max(total, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n` to the gauge.
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n` from the gauge.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket latency histogram with atomic bins.
///
/// Observations are integer nanoseconds; the last bin is the implicit
/// `+Inf` overflow bucket. Bin counts and the running sum are separate
/// atomics — the renderer derives `_count` from the bins so the exposed
/// cumulative buckets are always internally consistent.
#[derive(Debug)]
pub struct Histogram {
    bounds_ns: Vec<u64>,
    bins: Box<[AtomicU64]>,
    sum_ns: AtomicU64,
}

impl Histogram {
    /// Build a histogram over the given strictly increasing bucket bounds.
    ///
    /// # Panics
    /// Panics if `bounds_ns` is empty or not strictly increasing.
    pub fn new(bounds_ns: &[u64]) -> Self {
        assert!(!bounds_ns.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds_ns.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let bins = (0..bounds_ns.len() + 1)
            .map(|_| AtomicU64::new(0))
            .collect();
        Histogram {
            bounds_ns: bounds_ns.to_vec(),
            bins,
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Record one observation of `ns` nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        let idx = self.bounds_ns.partition_point(|&b| b < ns);
        self.bins[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record one observation of an elapsed [`Duration`].
    pub fn observe(&self, elapsed: Duration) {
        self.observe_ns(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Refresh from externally maintained running totals: the count of
    /// each bin (`+Inf` last) and the sum of the observations, in
    /// nanoseconds. Each is raised with a `fetch_max`, as
    /// [`Counter::record_total`], so the exposed series stay monotone.
    ///
    /// # Panics
    /// Panics if `bins` does not hold one count per bin.
    pub fn record_totals(&self, bins: &[u64], sum_ns: u64) {
        assert_eq!(bins.len(), self.bins.len(), "one total per bin");
        for (bin, &total) in self.bins.iter().zip(bins) {
            bin.fetch_max(total, Ordering::Relaxed);
        }
        self.sum_ns.fetch_max(sum_ns, Ordering::Relaxed);
    }

    /// Total number of observations (sum of all bins).
    pub fn count(&self) -> u64 {
        self.bins.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// The bucket bounds, in nanoseconds.
    pub fn bounds_ns(&self) -> &[u64] {
        &self.bounds_ns
    }

    /// Snapshot of the per-bin counts (last bin is `+Inf` overflow).
    pub fn bin_counts(&self) -> Vec<u64> {
        self.bins
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// A family of [`Counter`]s indexed by a small static label enum.
#[derive(Debug, Clone)]
pub struct CounterVec {
    children: Vec<Arc<Counter>>,
}

impl CounterVec {
    /// The counter for label index `idx` (registration order).
    pub fn at(&self, idx: usize) -> &Counter {
        &self.children[idx]
    }

    /// A cloned handle to the counter for label index `idx`.
    pub fn share(&self, idx: usize) -> Arc<Counter> {
        Arc::clone(&self.children[idx])
    }

    /// Number of children.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// Whether the family has no children.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }
}

/// A family of [`Gauge`]s indexed by a small static label enum.
#[derive(Debug, Clone)]
pub struct GaugeVec {
    children: Vec<Arc<Gauge>>,
}

impl GaugeVec {
    /// The gauge for label index `idx` (registration order).
    pub fn at(&self, idx: usize) -> &Gauge {
        &self.children[idx]
    }

    /// A cloned handle to the gauge for label index `idx`.
    pub fn share(&self, idx: usize) -> Arc<Gauge> {
        Arc::clone(&self.children[idx])
    }

    /// Number of children.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// Whether the family has no children.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }
}

/// A family of [`Histogram`]s indexed by a small static label enum.
#[derive(Debug, Clone)]
pub struct HistogramVec {
    children: Vec<Arc<Histogram>>,
}

impl HistogramVec {
    /// The histogram for label index `idx` (registration order).
    pub fn at(&self, idx: usize) -> &Histogram {
        &self.children[idx]
    }

    /// A cloned handle to the histogram for label index `idx`.
    pub fn share(&self, idx: usize) -> Arc<Histogram> {
        Arc::clone(&self.children[idx])
    }

    /// Number of children.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// Whether the family has no children.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }
}

enum Children {
    Counters(Vec<(String, Arc<Counter>)>),
    Gauges(Vec<(String, Arc<Gauge>)>),
    Histograms(Vec<(String, Arc<Histogram>)>),
}

struct Family {
    name: String,
    help: String,
    /// Label name; `None` for scalar (unlabeled) families.
    label: Option<String>,
    children: Children,
}

/// A registry of metric families with a Prometheus text-format renderer.
///
/// Registration hands back `Arc` handles (or vec wrappers over them); the
/// hot path works purely on those handles. The registry's mutex guards only
/// the family list — it is taken on register and render, never on observe.
/// A collector ([`Self::add_collector`]) refreshes instruments that are
/// kept elsewhere on the hot path, on every render.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<Vec<Family>>,
    collectors: Mutex<Vec<Collector>>,
}

/// A refresh [`MetricsRegistry::render`] runs before it reads a family.
type Collector = Box<dyn Fn() + Send + Sync>;

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.families.lock().map(|g| g.len()).unwrap_or(0);
        f.debug_struct("MetricsRegistry")
            .field("families", &n)
            .finish()
    }
}

impl MetricsRegistry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn push(&self, family: Family) {
        let mut families = self.families.lock().expect("metrics registry poisoned");
        assert!(
            families.iter().all(|f| f.name != family.name),
            "duplicate metric family name: {}",
            family.name
        );
        families.push(family);
    }

    /// Register a scalar counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let c = Arc::new(Counter::default());
        self.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            label: None,
            children: Children::Counters(vec![(String::new(), Arc::clone(&c))]),
        });
        c
    }

    /// Register a counter family with one child per label value.
    pub fn counter_vec(&self, name: &str, help: &str, label: &str, values: &[&str]) -> CounterVec {
        let children: Vec<Arc<Counter>> = values
            .iter()
            .map(|_| Arc::new(Counter::default()))
            .collect();
        self.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            label: Some(label.to_string()),
            children: Children::Counters(
                values
                    .iter()
                    .zip(&children)
                    .map(|(v, c)| (v.to_string(), Arc::clone(c)))
                    .collect(),
            ),
        });
        CounterVec { children }
    }

    /// Register a scalar gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let g = Arc::new(Gauge::default());
        self.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            label: None,
            children: Children::Gauges(vec![(String::new(), Arc::clone(&g))]),
        });
        g
    }

    /// Register a gauge family with one child per label value.
    pub fn gauge_vec(&self, name: &str, help: &str, label: &str, values: &[&str]) -> GaugeVec {
        let children: Vec<Arc<Gauge>> = values.iter().map(|_| Arc::new(Gauge::default())).collect();
        self.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            label: Some(label.to_string()),
            children: Children::Gauges(
                values
                    .iter()
                    .zip(&children)
                    .map(|(v, g)| (v.to_string(), Arc::clone(g)))
                    .collect(),
            ),
        });
        GaugeVec { children }
    }

    /// Register a scalar latency histogram over `bounds_ns`.
    pub fn histogram(&self, name: &str, help: &str, bounds_ns: &[u64]) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new(bounds_ns));
        self.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            label: None,
            children: Children::Histograms(vec![(String::new(), Arc::clone(&h))]),
        });
        h
    }

    /// Register a histogram family with one child per label value.
    pub fn histogram_vec(
        &self,
        name: &str,
        help: &str,
        label: &str,
        values: &[&str],
        bounds_ns: &[u64],
    ) -> HistogramVec {
        let children: Vec<Arc<Histogram>> = values
            .iter()
            .map(|_| Arc::new(Histogram::new(bounds_ns)))
            .collect();
        self.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            label: Some(label.to_string()),
            children: Children::Histograms(
                values
                    .iter()
                    .zip(&children)
                    .map(|(v, h)| (v.to_string(), Arc::clone(h)))
                    .collect(),
            ),
        });
        HistogramVec { children }
    }

    /// Runs `collect` at the start of every [`Self::render`]: for counts
    /// the hot path keeps outside the registered instruments, which it
    /// folds into them (with [`Counter::record_total`] and
    /// [`Histogram::record_totals`], so the series stay monotone).
    pub fn add_collector(&self, collect: impl Fn() + Send + Sync + 'static) {
        self.collectors
            .lock()
            .expect("metrics registry poisoned")
            .push(Box::new(collect));
    }

    /// Render every registered family as Prometheus text-format v0.0.4.
    ///
    /// Latency histograms are stored in nanoseconds and rendered in seconds
    /// (bucket `le` labels and `_sum`); `_count` is derived from the bins so
    /// the cumulative buckets are always internally consistent.
    pub fn render(&self) -> String {
        for collect in self
            .collectors
            .lock()
            .expect("metrics registry poisoned")
            .iter()
        {
            collect();
        }
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for family in families.iter() {
            out.push_str("# HELP ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(&family.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&family.name);
            out.push(' ');
            match &family.children {
                Children::Counters(children) => {
                    out.push_str("counter\n");
                    for (value, c) in children {
                        out.push_str(&family.name);
                        push_labels(&mut out, &family.label, value, None);
                        out.push_str(&format!(" {}\n", c.get()));
                    }
                }
                Children::Gauges(children) => {
                    out.push_str("gauge\n");
                    for (value, g) in children {
                        out.push_str(&family.name);
                        push_labels(&mut out, &family.label, value, None);
                        out.push_str(&format!(" {}\n", g.get()));
                    }
                }
                Children::Histograms(children) => {
                    out.push_str("histogram\n");
                    for (value, h) in children {
                        let bins = h.bin_counts();
                        let total: u64 = bins.iter().sum();
                        let mut cumulative = 0u64;
                        for (i, bin) in bins.iter().enumerate() {
                            cumulative += bin;
                            let le = match h.bounds_ns().get(i) {
                                Some(&bound) => format!("{}", bound as f64 / 1e9),
                                None => "+Inf".to_string(),
                            };
                            out.push_str(&family.name);
                            out.push_str("_bucket");
                            push_labels(&mut out, &family.label, value, Some(&le));
                            out.push_str(&format!(" {cumulative}\n"));
                        }
                        out.push_str(&family.name);
                        out.push_str("_sum");
                        push_labels(&mut out, &family.label, value, None);
                        out.push_str(&format!(" {}\n", h.sum_ns() as f64 / 1e9));
                        out.push_str(&family.name);
                        out.push_str("_count");
                        push_labels(&mut out, &family.label, value, None);
                        out.push_str(&format!(" {total}\n"));
                    }
                }
            }
        }
        out
    }
}

fn push_labels(out: &mut String, label: &Option<String>, value: &str, le: Option<&str>) {
    match (label, le) {
        (None, None) => {}
        (None, Some(le)) => out.push_str(&format!("{{le=\"{le}\"}}")),
        (Some(name), None) => out.push_str(&format!("{{{name}=\"{value}\"}}")),
        (Some(name), Some(le)) => out.push_str(&format!("{{{name}=\"{value}\",le=\"{le}\"}}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_semantics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.record_total(3); // stale refresh must not go backwards
        assert_eq!(c.get(), 5);
        c.record_total(9);
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn gauge_semantics() {
        let g = Gauge::default();
        g.set(10);
        g.add(5);
        g.sub(20);
        assert_eq!(g.get(), -5);
    }

    #[test]
    fn histogram_bin_placement() {
        let h = Histogram::new(&[100, 1_000, 10_000]);
        h.observe_ns(99); // <= 100
        h.observe_ns(100); // <= 100 (le is inclusive)
        h.observe_ns(101); // <= 1_000
        h.observe_ns(10_000); // <= 10_000
        h.observe_ns(10_001); // +Inf
        assert_eq!(h.bin_counts(), vec![2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_ns(), 99 + 100 + 101 + 10_000 + 10_001);
    }

    #[test]
    fn histogram_totals_only_rise() {
        let h = Histogram::new(&[100, 1_000]);
        h.record_totals(&[3, 0, 1], 5_000);
        h.record_totals(&[2, 4, 1], 4_000);
        assert_eq!(h.bin_counts(), vec![3, 4, 1]);
        assert_eq!(h.sum_ns(), 5_000);
    }

    #[test]
    fn histogram_duration_saturates() {
        let h = Histogram::new(&[100]);
        h.observe(Duration::from_secs(u64::MAX));
        assert_eq!(h.bin_counts(), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[100, 100]);
    }

    #[test]
    #[should_panic(expected = "duplicate metric family name")]
    fn registry_rejects_duplicate_names() {
        let r = MetricsRegistry::new();
        let _a = r.counter("x_total", "first");
        let _b = r.gauge("x_total", "second");
    }

    #[test]
    fn latency_bounds_are_strictly_increasing() {
        assert!(LATENCY_BOUNDS_NS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn render_covers_all_kinds() {
        let r = MetricsRegistry::new();
        let c = r.counter_vec("req_total", "requests", "kind", &["a", "b"]);
        c.at(0).add(3);
        c.at(1).inc();
        let g = r.gauge("depth", "queue depth");
        g.set(-2);
        let h = r.histogram("lat_seconds", "latency", &[1_000, 1_000_000]);
        h.observe_ns(500);
        h.observe_ns(2_000_000);
        let text = r.render();
        assert!(text.contains("# TYPE req_total counter\n"));
        assert!(text.contains("req_total{kind=\"a\"} 3\n"));
        assert!(text.contains("req_total{kind=\"b\"} 1\n"));
        assert!(text.contains("depth -2\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.000001\"} 1\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.001\"} 1\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("lat_seconds_sum 0.0020005\n"));
        assert!(text.contains("lat_seconds_count 2\n"));
    }

    #[test]
    fn rendered_le_labels_avoid_scientific_notation() {
        let r = MetricsRegistry::new();
        let _h = r.histogram("lat_seconds", "latency", &LATENCY_BOUNDS_NS);
        let text = r.render();
        assert!(text.contains("le=\"0.00000025\""));
        assert!(text.contains("le=\"10\""));
        assert!(
            !text.contains("e-"),
            "le labels must not use scientific notation"
        );
    }
}
