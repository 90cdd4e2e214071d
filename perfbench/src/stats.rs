//! Order statistics and the host reference loop.

use std::hint::black_box;
use std::time::Instant;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile, `p` in (0, 100].
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A fixed compute loop that uses no code of the program: a plain
/// i-k-j matrix product of two 96×96 matrices, repeated for about a
/// quarter of a second. Returns the median rate in GFLOP/s. Its spread
/// over runs shows how much the host itself drifts.
pub fn host_ref_gflops() -> f64 {
    const N: usize = 96;
    let a: Vec<f64> = (0..N * N)
        .map(|i| ((i * 7919) % 1009) as f64 / 1009.0)
        .collect();
    let b: Vec<f64> = (0..N * N)
        .map(|i| ((i * 104_729) % 1013) as f64 / 1013.0)
        .collect();
    let mut c = vec![0.0f64; N * N];
    let flops = 2.0 * (N * N * N) as f64;
    let mut rates = Vec::new();
    let start = Instant::now();
    while rates.len() < 15 || start.elapsed().as_secs_f64() < 0.25 {
        let t = Instant::now();
        c.iter_mut().for_each(|x| *x = 0.0);
        let (a, b) = (black_box(&a), black_box(&b));
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                let row = &b[k * N..(k + 1) * N];
                let out = &mut c[i * N..(i + 1) * N];
                for j in 0..N {
                    out[j] += aik * row[j];
                }
            }
        }
        black_box(&c);
        rates.push(flops / t.elapsed().as_secs_f64() * 1e-9);
    }
    median(&rates)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
    }
}
