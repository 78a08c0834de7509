//! Lock-free metric primitives: counters and log₂-scale histograms, with
//! a Prometheus text rendering.
//!
//! The histogram uses [`HISTOGRAM_BUCKETS`] fixed power-of-two buckets:
//! bucket 0 holds the value `0`, bucket *i* (for `i ≥ 1`) holds values in
//! `[2^(i-1), 2^i - 1]`, and the last bucket absorbs everything above.
//! With microsecond samples the top bounded bucket starts at `2^30` µs
//! (≈ 18 minutes), far past any request this system serves. Recording is
//! one relaxed `fetch_add` per atomic; quantile estimates walk the bucket
//! array without taking any lock and are exact to within one bucket
//! width (the property the `histogram_props` tests pin down).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets in a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A monotonic counter (relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket index for a sample: 0 for the value 0, otherwise the sample's
/// bit length, clamped to the last bucket.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `i` (0, 1, 2, 4, 8, …).
pub fn bucket_lower(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

/// Inclusive upper bound of bucket `i` (0, 1, 3, 7, 15, …); the last
/// bucket is unbounded above.
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        _ if i >= HISTOGRAM_BUCKETS - 1 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// A fixed-bucket log₂-scale histogram. All operations are relaxed
/// atomics; concurrent recorders never block each other and readers see
/// a consistent-enough snapshot for monitoring purposes.
#[derive(Debug, Default)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    /// A fresh, empty histogram.
    pub const fn new() -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO; HISTOGRAM_BUCKETS],
        }
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Estimate the `q`-quantile (`0 < q ≤ 1`) as the **upper bound of
    /// the bucket** holding the ⌈q·count⌉-th smallest sample, so the true
    /// quantile lies within one bucket width below the estimate. Returns
    /// 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper(i);
            }
        }
        bucket_upper(HISTOGRAM_BUCKETS - 1)
    }
}

/// Append one Prometheus counter sample: `name{labels} value`.
/// `labels` is the raw label body (e.g. `route="healthz"`), or empty.
pub fn prom_counter(out: &mut String, name: &str, labels: &str, value: u64) {
    prom_sample(out, name, labels, &value.to_string());
}

/// Append one Prometheus gauge sample.
pub fn prom_gauge(out: &mut String, name: &str, labels: &str, value: i64) {
    prom_sample(out, name, labels, &value.to_string());
}

/// Append a full Prometheus histogram series for `h`:
/// cumulative `name_bucket{…,le="…"}` lines over the log₂ bounds
/// (suppressing interior empty buckets past the data), then `name_sum`
/// and `name_count`.
pub fn prom_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let counts = h.bucket_counts();
    let last_used = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
    let mut cumulative = 0u64;
    for (i, c) in counts.iter().enumerate().take(last_used + 1) {
        cumulative += c;
        let le = bucket_upper(i).to_string();
        prom_bucket(out, name, labels, &le, cumulative);
    }
    prom_bucket(out, name, labels, "+Inf", h.count());
    prom_sample(out, &format!("{name}_sum"), labels, &h.sum().to_string());
    prom_sample(
        out,
        &format!("{name}_count"),
        labels,
        &h.count().to_string(),
    );
}

fn prom_bucket(out: &mut String, name: &str, labels: &str, le: &str, v: u64) {
    out.push_str(name);
    out.push_str("_bucket{");
    if !labels.is_empty() {
        out.push_str(labels);
        out.push(',');
    }
    out.push_str("le=\"");
    out.push_str(le);
    out.push_str("\"} ");
    out.push_str(&v.to_string());
    out.push('\n');
}

fn prom_sample(out: &mut String, name: &str, labels: &str, value: &str) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn bucket_bounds_partition_the_axis() {
        // Every bucket's bounds are contiguous with its neighbours, and
        // bucket_index lands each bound in its own bucket.
        for i in 1..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_lower(i), bucket_upper(i - 1).wrapping_add(1));
            assert_eq!(bucket_index(bucket_lower(i)), i);
        }
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_upper(i)), i);
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn quantile_of_uniform_samples_is_within_one_bucket() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // True p50 = 500 (bucket [512..1023] upper is the estimate for
        // values ≥ 512; 500 lives in [256..511]).
        let p50 = h.quantile(0.5);
        assert_eq!(p50, bucket_upper(bucket_index(500)));
        let p99 = h.quantile(0.99);
        assert_eq!(p99, bucket_upper(bucket_index(990)));
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn prometheus_rendering_is_byte_stable() {
        let h = Histogram::new();
        h.record(0);
        h.record(3);
        h.record(3);
        let mut out = String::new();
        prom_counter(&mut out, "adds_requests_total", "route=\"healthz\"", 7);
        prom_gauge(&mut out, "adds_connections_open", "", -1);
        prom_histogram(
            &mut out,
            "adds_request_duration_us",
            "route=\"healthz\"",
            &h,
        );
        assert_eq!(
            out,
            "adds_requests_total{route=\"healthz\"} 7\n\
             adds_connections_open -1\n\
             adds_request_duration_us_bucket{route=\"healthz\",le=\"0\"} 1\n\
             adds_request_duration_us_bucket{route=\"healthz\",le=\"1\"} 1\n\
             adds_request_duration_us_bucket{route=\"healthz\",le=\"3\"} 3\n\
             adds_request_duration_us_bucket{route=\"healthz\",le=\"+Inf\"} 3\n\
             adds_request_duration_us_sum{route=\"healthz\"} 6\n\
             adds_request_duration_us_count{route=\"healthz\"} 3\n"
        );
    }
}
