//! Small statistics helpers shared by the workloads.

/// The `p`-quantile (0 ≤ p ≤ 1) of `values`, interpolating linearly
/// between order statistics. Sorts `values` in place; 0 when empty.
pub fn quantile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

/// The median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Geometric mean; 0 when empty. Inputs must be positive.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Throughput and latency quantiles of a timed phase, each the median
/// over the phase's windows of that window's own figure, so a hiccup of
/// the host moves one window rather than the whole run.
#[derive(Debug, Clone, Copy)]
pub struct Windowed {
    /// Ops completed per second.
    pub ops_per_s: f64,
    /// Latency quantiles, milliseconds.
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
}

/// Summarizes `windows`: each is the latencies (ms) of the ops it
/// completed and its length in seconds.
pub fn windowed(windows: &mut [(Vec<f64>, f64)]) -> Windowed {
    let mut figures = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for (latencies, seconds) in windows.iter_mut() {
        if latencies.is_empty() {
            continue;
        }
        figures[0].push(latencies.len() as f64 / *seconds);
        figures[1].push(quantile(latencies, 0.50));
        figures[2].push(quantile(latencies, 0.90));
        figures[3].push(quantile(latencies, 0.99));
    }
    let [ops, p50, p90, p99] = figures.map(|mut f| median(&mut f));
    Windowed {
        ops_per_s: ops,
        p50_ms: p50,
        p90_ms: p90,
        p99_ms: p99,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size (`VmHWM`) of a process in MiB, read from
/// `/proc/<pid>/status` (`pid = None` reads this process).
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Resets the kernel's peak-RSS mark of a process (writes `5` to
/// `/proc/<pid>/clear_refs`), so the next [`peak_rss_mb`] reads the
/// peak since this call.
pub fn reset_peak_rss(pid: Option<u32>) -> Result<(), String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/clear_refs"),
        None => "/proc/self/clear_refs".to_string(),
    };
    std::fs::write(&path, "5").map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
    }

    #[test]
    fn windows_report_medians() {
        let mut windows = vec![
            (vec![1.0, 2.0, 3.0], 1.0),
            (vec![10.0; 4], 2.0),
            (vec![2.0, 2.0], 1.0),
        ];
        let w = windowed(&mut windows);
        assert_eq!(w.ops_per_s, 2.0);
        assert_eq!(w.p50_ms, 2.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean([1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn reads_and_resets_own_peak_rss() {
        assert!(peak_rss_mb(None).unwrap() > 0.0);
        reset_peak_rss(None).unwrap();
        assert!(peak_rss_mb(None).unwrap() > 0.0);
    }
}
