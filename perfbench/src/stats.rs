//! Order statistics and `/metrics.json` scraping.

use std::net::SocketAddr;

use serde::Value;

use crate::client;

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `v`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    assert!(!s.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest percentile of `v` that has at least ten samples
/// beyond it: `(percentile, value)`. Needs at least eleven samples.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 10, "a tail needs more than ten samples, got {n}");
    (100.0 * (n - 10) as f64 / n as f64, s[n - 11])
}

/// One histogram read from `/metrics.json`.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    /// Finite bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (one longer than `bounds`).
    pub counts: Vec<f64>,
    /// Samples.
    pub count: f64,
    /// Sum of samples.
    pub sum: f64,
}

impl Hist {
    /// Samples recorded between `earlier` and `self`.
    pub fn since(&self, earlier: &Hist) -> Hist {
        let sub = |a: &[f64], b: &[f64]| -> Vec<f64> {
            a.iter()
                .enumerate()
                .map(|(i, x)| x - b.get(i).copied().unwrap_or(0.0))
                .collect()
        };
        Hist {
            bounds: self.bounds.clone(),
            counts: sub(&self.counts, &earlier.counts),
            count: self.count - earlier.count,
            sum: self.sum - earlier.sum,
        }
    }

    /// Mean sample, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count > 0.0 {
            self.sum / self.count
        } else {
            0.0
        }
    }

    /// Quantile `q`, interpolated linearly inside its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count <= 0.0 {
            return 0.0;
        }
        let target = q * self.count;
        let mut seen = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0.0 && seen + c >= target {
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds.get(i).copied().unwrap_or(lo);
                return lo + (hi - lo) * ((target - seen) / c).clamp(0.0, 1.0);
            }
            seen += c;
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }
}

/// A parsed `/metrics.json` instrument list.
pub struct Scrape(Vec<Value>);

impl Scrape {
    /// Fetches and parses `addr`'s `/metrics.json`.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint does not answer with the documented
    /// layout — the benchmark cannot attribute anything without it.
    pub fn fetch(addr: SocketAddr) -> Scrape {
        let (status, body) = client::get(addr, "/metrics.json").expect("GET /metrics.json");
        assert_eq!(status, 200, "/metrics.json answered {status}");
        let Ok(Value::Object(top)) = serde_json::parse(&body) else {
            panic!("/metrics.json is not a JSON object");
        };
        let Some((_, Value::Array(items))) = top.into_iter().find(|(k, _)| k == "instruments")
        else {
            panic!("/metrics.json lacks an `instruments` array");
        };
        Scrape(items)
    }

    fn fields(&self, name: &str) -> Option<&Vec<(String, Value)>> {
        self.0.iter().find_map(|item| match item {
            Value::Object(f)
                if f.iter()
                    .any(|(k, v)| k == "name" && matches!(v, Value::String(s) if s == name)) =>
            {
                Some(f)
            }
            _ => None,
        })
    }

    /// A counter or gauge value, 0 when absent.
    pub fn value(&self, name: &str) -> f64 {
        self.fields(name)
            .and_then(|f| f.iter().find(|(k, _)| k == "value"))
            .and_then(|(_, v)| match v {
                Value::Number(x) => Some(*x),
                _ => None,
            })
            .unwrap_or(0.0)
    }

    /// A histogram, empty when absent.
    pub fn hist(&self, name: &str) -> Hist {
        let Some(f) = self.fields(name) else {
            return Hist::default();
        };
        let get = |key: &str| f.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let nums = |v: Option<&Value>| match v {
            Some(Value::Array(a)) => a
                .iter()
                .map(|x| if let Value::Number(n) = x { *n } else { 0.0 })
                .collect(),
            _ => Vec::new(),
        };
        let num = |v: Option<&Value>| {
            if let Some(Value::Number(n)) = v {
                *n
            } else {
                0.0
            }
        };
        Hist {
            bounds: nums(get("bounds")),
            counts: nums(get("counts")),
            count: num(get("count")),
            sum: num(get("sum")),
        }
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
