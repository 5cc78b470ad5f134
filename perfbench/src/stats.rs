//! Small measurement helpers: the JSON result line, nearest-rank
//! percentiles, and the clock-read cost subtracted from per-call timings.

use std::time::Instant;

/// An ordered JSON object of numeric fields, printed as one line.
#[derive(Default)]
pub struct Out(Vec<(String, String)>);

impl Out {
    pub fn new() -> Out {
        Out::default()
    }

    pub fn num(&mut self, key: &str, v: f64) -> &mut Out {
        let v = if v.is_finite() { v } else { 0.0 };
        self.0.push((key.to_string(), format!("{v}")));
        self
    }

    pub fn int(&mut self, key: &str, v: u128) -> &mut Out {
        self.0.push((key.to_string(), v.to_string()));
        self
    }

    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// Nearest-rank percentile of an ascending slice (0 for an empty one).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn mean(total: u128, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

/// Median cost of one `Instant::now()` + `elapsed()` pair in ns: what a
/// per-call timing adds to the call it wraps.
pub fn clock_cost_ns() -> u64 {
    let mut samples: Vec<u64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Time one call, less the calibrated clock cost.
pub fn timed<T>(clock_ns: u64, f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as u64;
    (out, ns.saturating_sub(clock_ns))
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
