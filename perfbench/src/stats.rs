//! The benchmark's own statistics: a fixed-size latency histogram,
//! medians, per-window rates, failure accounting and the result line.

use std::fmt::Write as _;

/// Linear sub-buckets per power of two: 512 gives a bucket width of at
/// most 1/512 (0.2%) of its value.
const SUB_BITS: u32 = 9;
const SUB: usize = 1 << SUB_BITS;
/// Octaves above the exact range; values beyond 2^40 ns (18 minutes)
/// land in the last bucket.
const OCTAVES: usize = 32;
const BUCKETS: usize = SUB + OCTAVES * SUB;

/// A log-linear histogram of nanosecond samples whose size is fixed at
/// construction, so recording never allocates and memory does not grow
/// with the number of operations measured.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let magnitude = 63 - v.leading_zeros();
        let octave = (magnitude - SUB_BITS) as usize;
        if octave >= OCTAVES {
            return BUCKETS - 1;
        }
        let sub = (v >> octave) as usize - SUB;
        SUB + octave * SUB + sub
    }

    /// The half-open value range `[low, low + width)` of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, 1.0);
        }
        let octave = (i - SUB) / SUB;
        let sub = (i - SUB) % SUB;
        (
            (((SUB + sub) as u64) << octave) as f64,
            (1u64 << octave) as f64,
        )
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q` quantile (0 < q < 1), interpolated linearly inside the
    /// bucket that holds it; 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = q * self.total as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= target {
                let (low, width) = Self::bounds(i);
                let into = ((target - below as f64) / c as f64).clamp(0.0, 1.0);
                return low + into * width;
            }
            below += c;
        }
        let (low, width) = Self::bounds(BUCKETS - 1);
        low + width
    }

    /// Samples strictly above the `q` quantile — the support behind a
    /// reported tail percentile.
    pub fn beyond(&self, q: f64) -> u64 {
        self.total - (q * self.total as f64).ceil() as u64
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram({} samples)", self.total)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q` quantile of `xs` by linear interpolation between order
/// statistics (Python's `statistics.quantiles(..., method="inclusive")`,
/// R type 7); 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (pos - lo as f64) * (v[hi] - v[lo])
}

/// `a / b`, or 0 when `b` is 0 (a rate over an empty denominator).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Throughput of the last complete window over the first. `windows` are
/// per-window completion counts, of which only the first `full` spanned
/// a whole window.
pub fn late_over_early(windows: &[u64], full: usize) -> f64 {
    let full = full.min(windows.len());
    if full < 2 {
        return 0.0;
    }
    ratio(windows[full - 1] as f64, windows[0] as f64)
}

/// Operations attempted and how they failed: a timeout, an aborted
/// transaction (the workloads never conflict, so none should abort), or
/// an answer that fails its correctness check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub timeouts: u64,
    pub aborts: u64,
    pub mismatches: u64,
}

impl Tally {
    pub fn absorb(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.timeouts += o.timeouts;
        self.aborts += o.aborts;
        self.mismatches += o.mismatches;
    }

    pub fn failed(&self) -> u64 {
        self.timeouts + self.aborts + self.mismatches
    }

    /// Failed over attempted.
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed() as f64, self.attempted as f64)
    }

    /// Whether every answer checked out (timeouts and aborts are
    /// failures, not wrong answers).
    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Renders the result object the benchmark prints as its last line:
/// exactly `correct`, `attempted`, `failed` and `metrics`, each metric a
/// `{"value", "unit"}` pair in the order given.
///
/// # Panics
///
/// Panics on a non-finite value: every metric is a ratio or a time that
/// guards its denominator, so one would be a bug here.
pub fn render_result(t: &Tally, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        t.correct(),
        t.attempted.max(1),
        t.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
        if i > 0 {
            s.push_str(", ");
        }
        write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("write to String");
    }
    s.push_str("}}");
    s
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_is_exact_below_the_linear_range() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        // 50 samples at or below 50: the median is bucket 50's upper edge.
        let p50 = h.quantile(0.5);
        assert!((50.0..=51.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((99.0..=100.0).contains(&p99), "p99 {p99}");
        assert_eq!(h.beyond(0.99), 1);
    }

    #[test]
    fn histogram_relative_error_is_bounded() {
        let mut h = Histogram::new();
        let mut x = 1u64;
        let mut vals = Vec::new();
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = 1_000 + (x >> 40) % 10_000_000;
            vals.push(v);
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let exact = vals[(q * vals.len() as f64) as usize - 1] as f64;
            let got = h.quantile(q);
            assert!(
                ((got - exact) / exact).abs() < 0.005,
                "q{q}: {got} vs {exact}"
            );
        }
        assert_eq!(h.beyond(0.99), 200);
    }

    #[test]
    fn histogram_merge_adds_counts_and_clamps_huge_values() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile(0.99) >= (1u64 << 40) as f64);
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn quantiles_match_the_inclusive_method() {
        // Python: statistics.quantiles(data, n=4, method="inclusive").
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&ten, 0.25), 3.25);
        assert_eq!(quantile(&ten, 0.75), 7.75);
        assert_eq!(quantile(&[2.0, 1.0], 0.25), 1.25);
        assert_eq!(quantile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.25), 2.0);
        assert_eq!(quantile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.75), 4.0);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }

    #[test]
    fn window_rate_uses_first_and_last_full_window() {
        // The trailing partial window (index 3) is ignored.
        assert_eq!(late_over_early(&[100, 80, 25, 3], 3), 0.25);
        assert_eq!(late_over_early(&[100], 1), 0.0);
        assert_eq!(late_over_early(&[0, 5], 2), 0.0);
    }

    #[test]
    fn tally_counts_timeouts_aborts_and_mismatches_as_failed() {
        let mut t = Tally {
            attempted: 90,
            timeouts: 1,
            aborts: 1,
            mismatches: 0,
        };
        assert!(t.correct(), "an abort is a failure, not a wrong answer");
        t.absorb(Tally {
            attempted: 10,
            timeouts: 0,
            aborts: 0,
            mismatches: 2,
        });
        assert_eq!(t.failed(), 4);
        assert_eq!(t.error_rate(), 0.04);
        assert!(!t.correct());
        assert!(Tally::default().correct());
        assert_eq!(Tally::default().error_rate(), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let t = Tally {
            attempted: 1000,
            ..Tally::default()
        };
        let line = render_result(
            &t,
            &[
                Metric {
                    name: "latency_p50_us",
                    value: 12.25,
                    unit: "us",
                },
                Metric {
                    name: "setup_s",
                    value: 0.5,
                    unit: "s",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"latency_p50_us\": {\"value\": 12.25, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        // `attempted` is never reported below 1.
        assert!(render_result(&Tally::default(), &[]).contains("\"attempted\": 1,"));
    }

    #[test]
    #[should_panic(expected = "is NaN")]
    fn result_line_refuses_non_finite_values() {
        render_result(
            &Tally::default(),
            &[Metric {
                name: "x",
                value: f64::NAN,
                unit: "s",
            }],
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
