//! Sample statistics, the seeded input generator and the small JSON
//! helpers the report is printed with.

use std::time::Duration;

/// SplitMix64: a tiny seeded generator, so the benchmark's inputs depend
/// on `--seed` alone and not on any crate's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Linear-interpolated quantile `q` of ascending `sorted`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// A latency distribution summarized the way the benchmark reports it:
/// the median and the highest percentile that still has ten samples
/// beyond it (the eleventh-largest sample), with the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    pub tail: f64,
    /// The percentile `tail` sits at: `100 · (n − 10) / n`.
    pub tail_percentile: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values.to_vec());
    let n = s.len();
    let (tail, tail_percentile) = if n > 10 {
        (s[n - 11], 100.0 * (n - 10) as f64 / n as f64)
    } else {
        (s.last().copied().unwrap_or(f64::NAN), 100.0)
    };
    Summary {
        samples: n,
        p50: quantile(&s, 0.5),
        tail,
        tail_percentile,
    }
}

impl Summary {
    pub fn json(&self) -> String {
        format!(
            "{{\"samples\": {}, \"p50\": {}, \"tail\": {}, \"tail_percentile\": {}}}",
            self.samples,
            num(self.p50),
            num(self.tail),
            num(self.tail_percentile)
        )
    }
}

/// Time windows the headline tail is taken over.
pub const TAIL_WINDOWS: usize = 5;

/// The headline tail latency: the run is cut into [`TAIL_WINDOWS`] equal
/// spans of time, each span's highest percentile with ten samples beyond
/// it (its eleventh-largest latency) is taken, and the median across
/// spans is reported, so that one disturbed stretch of a run does not
/// set its tail. `samples` are `(seconds into the run, latency)`.
#[derive(Debug, Clone)]
pub struct Tail {
    pub value: f64,
    pub windows: Vec<Summary>,
}

pub fn windowed_tail(samples: &[(f64, f64)], span_s: f64) -> Tail {
    let windows: Vec<Summary> = (0..TAIL_WINDOWS)
        .map(|w| {
            let lo = span_s * w as f64 / TAIL_WINDOWS as f64;
            let hi = span_s * (w + 1) as f64 / TAIL_WINDOWS as f64;
            let last = w + 1 == TAIL_WINDOWS;
            let values: Vec<f64> = samples
                .iter()
                .filter(|(at, _)| *at >= lo && (*at < hi || last))
                .map(|&(_, v)| v)
                .collect();
            summarize(&values)
        })
        .collect();
    let tails: Vec<f64> = windows.iter().map(|w| w.tail).collect();
    Tail {
        value: median(&tails),
        windows,
    }
}

impl Tail {
    pub fn json(&self) -> String {
        let windows: Vec<String> = self.windows.iter().map(Summary::json).collect();
        format!(
            "{{\"value\": {}, \"windows\": [{}]}}",
            num(self.value),
            windows.join(", ")
        )
    }
}

/// A JSON list of numbers.
pub fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| num(v)).collect();
    format!("[{}]", items.join(", "))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// A JSON number (`null` when not finite), with every digit Rust's
/// shortest round-trip formatting gives.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-encoded values.
pub fn object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// FNV-1a, for fingerprints and response identity.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_eleventh_largest() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!(s.samples, 100);
        assert_eq!(s.tail, 90.0);
        assert_eq!(s.tail_percentile, 90.0);
        assert_eq!(s.p50, 50.5);
    }

    #[test]
    fn windowed_tail_ignores_one_disturbed_window() {
        let mut samples: Vec<(f64, f64)> = (0..1000)
            .map(|i| (f64::from(i) / 100.0, f64::from(i % 100)))
            .collect();
        // A stall in the first window only.
        samples.extend((0..20).map(|i| (0.5, 1000.0 + f64::from(i))));
        let tail = windowed_tail(&samples, 10.0);
        assert_eq!(tail.windows.len(), TAIL_WINDOWS);
        assert_eq!(tail.windows[0].tail, 1009.0);
        assert_eq!(tail.value, 94.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.iter().all(|&x| x == a[0]));
        let mut r = Rng::new(7);
        assert_ne!(r.next_u64(), r.next_u64());
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(3);
        let low = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(low > 4_000, "{low}");
    }
}
