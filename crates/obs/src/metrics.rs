//! Counters, histograms and timing spans behind a cheap [`Recorder`].
//!
//! Design constraints, in order:
//!
//! 1. **The hot path must not serialize.** Phase I divides tens of
//!    thousands of egos per second across the worker pool; a single
//!    shared `AtomicU64` would bounce one cache line between every core.
//!    [`Counter`] therefore shards its value across [`STRIPES`]
//!    cache-line-padded atomics; each thread picks a stripe once (from a
//!    thread-local) and only `fetch_add`s its own line. Reads sum the
//!    stripes — reads are rare (snapshot time), writes are constant.
//! 2. **Panic-free.** Recording can never fail: poisoned registry locks
//!    are recovered, thread-local access during teardown falls back to
//!    stripe 0, and a disabled recorder is a cheap early-out.
//! 3. **Cheap handles.** [`Counter`]/[`Histogram`] are `Arc`s; call sites
//!    look a name up once (a short registry lock) and then record through
//!    the handle lock-free forever after.
//!
//! Histograms use fixed log₂ buckets — bucket `b` holds values whose bit
//! width is `b`, i.e. `[2^(b-1), 2^b)` — so recording is a
//! `leading_zeros` plus one `fetch_add`, and percentiles (p50/p90/p99)
//! are read off the cumulative bucket counts at snapshot time with
//! bounded relative error (one octave).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of cache-line-padded stripes per counter. A power of two so the
/// thread→stripe map is a mask, sized to cover more threads than the
/// worker pool will realistically run on one box.
pub const STRIPES: usize = 16;

/// Number of histogram buckets: one per possible bit width of a `u64`
/// (0 through 64).
pub const BUCKETS: usize = 65;

/// One cache line holding one stripe of a counter.
#[repr(align(64))]
struct Stripe(AtomicU64);

impl Stripe {
    fn zero() -> Self {
        Stripe(AtomicU64::new(0))
    }
}

/// Hands each thread a stable stripe index on first use.
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_STRIPE: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// The calling thread's stripe. Falls back to stripe 0 if the
/// thread-local is gone (destructor-time recording) — still correct,
/// just momentarily contended.
fn stripe_index() -> usize {
    THREAD_STRIPE.try_with(|s| *s).unwrap_or(0)
}

/// The sharded storage behind one named counter.
struct CounterCell {
    stripes: [Stripe; STRIPES],
}

impl CounterCell {
    fn new() -> Self {
        CounterCell {
            stripes: std::array::from_fn(|_| Stripe::zero()),
        }
    }

    fn add(&self, n: u64) {
        self.stripes[stripe_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }

    fn reset(&self) {
        for s in &self.stripes {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// The storage behind one named histogram. Buckets are plain atomics
/// (recording into a histogram is rarer than bumping a counter, and
/// different values usually hit different buckets anyway).
struct HistogramCell {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCell {
    fn new() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed)),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// The bucket index for a value: its bit width (0 for 0).
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The largest value bucket `b` can hold.
pub fn bucket_high(b: usize) -> u64 {
    match b {
        0 => 0,
        1..=63 => (1u64 << b) - 1,
        _ => u64::MAX,
    }
}

/// A point-in-time copy of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (wrapping).
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Per-bucket counts; bucket `b` holds values of bit width `b`.
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// The value at quantile `q` in `[0, 1]`, resolved to its bucket's
    /// upper bound (clamped to the observed `max`). Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(n);
            if cumulative >= rank {
                return bucket_high(b).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of every metric in a [`Recorder`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter name → summed value.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → snapshot.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value, 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The JSON shape embedded in run reports under `"metrics"`:
    /// `{"counters": {...}, "histograms": {name: {count, sum, min, max,
    /// mean, p50, p90, p99}}}`.
    pub fn to_value(&self) -> crate::json::Value {
        use crate::json::Value;
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::Uint(*v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let fields = vec![
                    ("count".to_owned(), Value::Uint(h.count)),
                    ("sum".to_owned(), Value::Uint(h.sum)),
                    (
                        "min".to_owned(),
                        Value::Uint(if h.count == 0 { 0 } else { h.min }),
                    ),
                    ("max".to_owned(), Value::Uint(h.max)),
                    ("mean".to_owned(), Value::Float(h.mean())),
                    ("p50".to_owned(), Value::Uint(h.percentile(0.50))),
                    ("p90".to_owned(), Value::Uint(h.percentile(0.90))),
                    ("p99".to_owned(), Value::Uint(h.percentile(0.99))),
                ];
                (k.clone(), Value::Object(fields))
            })
            .collect();
        Value::Object(vec![
            ("counters".to_owned(), Value::Object(counters)),
            ("histograms".to_owned(), Value::Object(histograms)),
        ])
    }
}

/// Registry state shared by all handles of one recorder.
struct Registry {
    enabled: AtomicBool,
    counters: Mutex<BTreeMap<String, Arc<CounterCell>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
}

/// A cheap, clonable handle to a metrics registry. Most code uses the
/// process-wide [`Recorder::global`]; tests build isolated recorders
/// with [`Recorder::new`].
#[derive(Clone)]
pub struct Recorder {
    registry: Arc<Registry>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh, empty, enabled recorder.
    pub fn new() -> Self {
        Recorder {
            registry: Arc::new(Registry {
                enabled: AtomicBool::new(true),
                counters: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// The process-wide recorder every instrumented crate records into.
    pub fn global() -> &'static Recorder {
        static GLOBAL: OnceLock<Recorder> = OnceLock::new();
        GLOBAL.get_or_init(Recorder::new)
    }

    /// Turns recording on or off. Disabled handles early-out without
    /// touching their atomics.
    pub fn set_enabled(&self, enabled: bool) {
        self.registry.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is currently on.
    pub fn enabled(&self) -> bool {
        self.registry.enabled.load(Ordering::Relaxed)
    }

    /// The counter handle for `name`, creating it on first use. Look the
    /// handle up once and keep it — the lookup takes a short lock, the
    /// handle itself is lock-free.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self
            .registry
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let cell = map
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(CounterCell::new()))
            .clone();
        Counter {
            cell,
            registry: self.registry.clone(),
        }
    }

    /// The histogram handle for `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self
            .registry
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let cell = map
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(HistogramCell::new()))
            .clone();
        Histogram {
            cell,
            registry: self.registry.clone(),
        }
    }

    /// An RAII span recording elapsed nanoseconds into histogram `name`
    /// when dropped.
    pub fn span(&self, name: &str) -> Span {
        self.histogram(name).span()
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = {
            let map = self
                .registry
                .counters
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            map.iter().map(|(k, c)| (k.clone(), c.get())).collect()
        };
        let histograms = {
            let map = self
                .registry
                .histograms
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            map.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect()
        };
        MetricsSnapshot {
            counters,
            histograms,
        }
    }

    /// Zeroes every metric (names and handles stay valid). Meant for
    /// tests that measure deltas; racing writers may leak a few counts
    /// into the fresh window.
    pub fn reset(&self) {
        let counters = self
            .registry
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        for cell in counters.values() {
            cell.reset();
        }
        drop(counters);
        let histograms = self
            .registry
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        for cell in histograms.values() {
            cell.reset();
        }
    }
}

/// A named monotonic counter. Cloning is cheap; recording is one
/// relaxed `fetch_add` on a thread-striped cache line.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<CounterCell>,
    registry: Arc<Registry>,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if self.registry.enabled.load(Ordering::Relaxed) {
            self.cell.add(n);
        }
    }

    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The summed value across all stripes.
    pub fn get(&self) -> u64 {
        self.cell.get()
    }
}

/// A named log-scale histogram. Cloning is cheap; recording is a
/// handful of relaxed atomic ops.
#[derive(Clone)]
pub struct Histogram {
    cell: Arc<HistogramCell>,
    registry: Arc<Registry>,
}

impl Histogram {
    /// Records one value.
    pub fn record(&self, value: u64) {
        if self.registry.enabled.load(Ordering::Relaxed) {
            self.cell.record(value);
        }
    }

    /// Records the nanoseconds elapsed since `start`.
    pub fn record_since(&self, start: Instant) {
        self.record(saturating_nanos(start));
    }

    /// An RAII span recording elapsed nanoseconds into this histogram
    /// when dropped.
    pub fn span(&self) -> Span {
        Span {
            histogram: Some(self.clone()),
            start: Instant::now(),
        }
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cell.snapshot()
    }
}

/// Nanoseconds since `start`, clamped to `u64::MAX`.
pub fn saturating_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An RAII timing span: created from a [`Histogram`] (or
/// [`Recorder::span`]), records elapsed nanoseconds on drop.
pub struct Span {
    histogram: Option<Histogram>,
    start: Instant,
}

impl Span {
    /// A span that records nothing — for call sites that time
    /// conditionally.
    pub fn disabled() -> Span {
        Span {
            histogram: None,
            start: Instant::now(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(h) = &self.histogram {
            h.record_since(self.start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_totals_survive_striping() {
        let rec = Recorder::new();
        let c = rec.counter("t.hits");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
        assert_eq!(rec.snapshot().counter("t.hits"), 80_000);
    }

    #[test]
    fn same_name_same_cell() {
        let rec = Recorder::new();
        rec.counter("x").add(3);
        rec.counter("x").add(4);
        assert_eq!(rec.counter("x").get(), 7);
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let rec = Recorder::new();
        let c = rec.counter("x");
        let h = rec.histogram("y");
        rec.set_enabled(false);
        c.add(10);
        h.record(10);
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        rec.set_enabled(true);
        c.add(1);
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn bucket_of_is_bit_width() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_high(b)), b);
            if b > 0 && b < 64 {
                assert_eq!(bucket_of(bucket_high(b) + 1), b + 1);
            }
        }
    }

    #[test]
    fn histogram_percentiles_land_in_the_right_octave() {
        let rec = Recorder::new();
        let h = rec.histogram("lat");
        // 90 small values, 10 large ones.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.min, 100);
        assert_eq!(snap.max, 100_000);
        let p50 = snap.percentile(0.50);
        assert!((100..256).contains(&p50), "p50 {p50}");
        assert!(snap.percentile(0.90) < 100_000);
        assert_eq!(snap.percentile(0.99), 100_000);
        assert_eq!(snap.percentile(1.0), 100_000);
        assert!((snap.mean() - 10_090.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let snap = Recorder::new().histogram("none").snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.percentile(0.5), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn span_records_on_drop() {
        let rec = Recorder::new();
        {
            let _s = rec.span("work");
        }
        let snap = rec.histogram("work").snapshot();
        assert_eq!(snap.count, 1);
        {
            let _off = Span::disabled();
        }
        assert_eq!(rec.histogram("work").snapshot().count, 1);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let rec = Recorder::new();
        let c = rec.counter("a");
        let h = rec.histogram("b");
        c.add(5);
        h.record(7);
        rec.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        c.add(2);
        assert_eq!(rec.snapshot().counter("a"), 2);
    }

    #[test]
    fn snapshot_to_value_shape() {
        let rec = Recorder::new();
        rec.counter("hits").add(3);
        rec.histogram("lat").record(9);
        let v = rec.snapshot().to_value();
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("hits"))
                .and_then(|x| x.as_u64()),
            Some(3)
        );
        let lat = v.get("histograms").and_then(|h| h.get("lat")).cloned();
        let lat = lat.expect("lat histogram present");
        for key in ["count", "sum", "min", "max", "mean", "p50", "p90", "p99"] {
            assert!(lat.get(key).is_some(), "missing {key}");
        }
    }
}
