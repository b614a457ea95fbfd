//! Sample statistics and process-memory readings.

/// Median of `values` (not necessarily sorted); 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile (0–100) by linear interpolation between
/// closest ranks; 0.0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Throughput as the median over consecutive slices of the window:
/// one noisy slice moves a whole-window mean but not this. `done_at`
/// are completion times in seconds since the window opened. Slice `k`
/// nominally covers `[k, k+1) × slice_secs`, but is cut at the last
/// completion inside it, so its rate is completions over the time
/// they actually took and does not snap to multiples of
/// `1 / slice_secs`. Completions past the last whole slice are ignored.
pub fn slice_median_rate(done_at: &[f64], window_secs: f64, slice_secs: f64) -> f64 {
    let slices = (window_secs / slice_secs).floor() as usize;
    let mut done: Vec<f64> = done_at.iter().copied().filter(|t| *t >= 0.0).collect();
    done.sort_by(f64::total_cmp);
    let mut rates = Vec::with_capacity(slices);
    let (mut next, mut cut) = (0usize, 0.0f64);
    for k in 1..=slices {
        let first = next;
        while next < done.len() && done[next] < k as f64 * slice_secs {
            next += 1;
        }
        if next == first {
            rates.push(0.0);
        } else {
            let last = done[next - 1];
            rates.push((next - first) as f64 / (last - cut));
            cut = last;
        }
    }
    median(&rates)
}

/// A `kB` field of `/proc/<pid>/status` text (`VmRSS`, `VmHWM`), in MiB.
pub fn status_mib(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|l| {
        l.strip_prefix(key)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's `key` (`VmRSS` = resident now, `VmHWM` = peak) in MiB.
pub fn self_status_mib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_mib(&s, key))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn slice_median_ignores_one_stalled_slice_and_the_tail() {
        // 3 slices of 2 s: 4 completions by 1.6 s, none (a stall), 4
        // more by 5.6 s; one lands after the window and must not count.
        let done = [0.4, 0.8, 1.2, 1.6, 4.4, 4.8, 5.2, 5.6, 6.5];
        let rates = [4.0 / 1.6, 0.0, 4.0 / (5.6 - 1.6)];
        assert_eq!(slice_median_rate(&done, 6.0, 2.0), rates[2]);
        // A trailing partial slice is dropped: only [0, 4) is sliced.
        assert_eq!(
            slice_median_rate(&done, 5.0, 2.0),
            (rates[0] + rates[1]) / 2.0
        );
        assert_eq!(slice_median_rate(&done, 1.0, 2.0), 0.0);
        assert_eq!(slice_median_rate(&[], 6.0, 2.0), 0.0);
    }

    #[test]
    fn status_fields_parse_to_mib() {
        let status = "Name:\tx\nVmHWM:\t  204800 kB\nVmRSS:\t   51200 kB\nVmRSSFoo:\t1 kB\n";
        assert_eq!(status_mib(status, "VmRSS"), Some(50.0));
        assert_eq!(status_mib(status, "VmHWM"), Some(200.0));
        assert_eq!(status_mib(status, "VmSwap"), None);
        assert!(self_status_mib("VmRSS") > 0.0);
    }
}
