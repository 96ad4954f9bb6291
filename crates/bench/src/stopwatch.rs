//! Duration helpers shared by the reports: the nearest-rank percentile
//! behind `loadgen`'s latency summary, and the scale-appropriate
//! formatting of `lint`'s timings and the sweep's stderr line. Timing
//! the system itself is `perfbench/`'s job.

use std::time::Duration;

/// The `p`-th percentile (0–100) of a latency sample by the
/// nearest-rank method. The slice is sorted in place; an empty sample
/// yields zero. Used by the `loadgen` report (p50/p90/p99).
pub fn percentile(samples: &mut [Duration], p: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Formats a duration at the scale-appropriate unit (ns/us/ms/s).
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} us", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_by_nearest_rank() {
        let mut s: Vec<Duration> = (1..=100).rev().map(Duration::from_micros).collect();
        assert_eq!(percentile(&mut s, 50.0), Duration::from_micros(50));
        assert_eq!(percentile(&mut s, 99.0), Duration::from_micros(99));
        assert_eq!(percentile(&mut s, 100.0), Duration::from_micros(100));
        assert_eq!(percentile(&mut s, 0.0), Duration::from_micros(1));
        assert_eq!(percentile(&mut [], 50.0), Duration::ZERO);
        let mut one = [Duration::from_millis(7)];
        assert_eq!(percentile(&mut one, 99.0), Duration::from_millis(7));
    }

    #[test]
    fn durations_format_by_scale() {
        assert_eq!(fmt_duration(Duration::from_nanos(5)), "5 ns");
        assert_eq!(fmt_duration(Duration::from_micros(2)), "2.00 us");
        assert_eq!(fmt_duration(Duration::from_millis(3)), "3.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(4)), "4.00 s");
    }
}
