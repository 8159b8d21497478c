//! Timing, order statistics and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latency samples with the order statistics the report needs.
#[derive(Default)]
pub struct Latencies {
    ns: Vec<u64>,
    total_ns: u64,
    sorted: bool,
}

impl Latencies {
    pub fn push(&mut self, d: Duration) {
        let ns = d.as_nanos() as u64;
        self.ns.push(ns);
        self.total_ns += ns;
        self.sorted = false;
    }

    pub fn count(&self) -> usize {
        self.ns.len()
    }

    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// The `q`-quantile in microseconds (nearest rank), 0 with no samples.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let rank = ((q * self.ns.len() as f64).ceil() as usize).clamp(1, self.ns.len());
        self.ns[rank - 1] as f64 / 1e3
    }

    /// Samples strictly above the `q`-quantile: a percentile is reported
    /// only when at least ten samples lie beyond it.
    pub fn beyond(&mut self, q: f64) -> usize {
        let cut = self.quantile_us(q);
        self.ns.iter().filter(|&&x| x as f64 / 1e3 > cut).count()
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run found.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The single-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}
