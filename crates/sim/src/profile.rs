//! Per-phase host-time profiling for the simulation loop, asked for with
//! [`SimOptions::profile`](crate::SimOptions::profile).
//!
//! A profiled run allocates one [`PhaseProfile`], brackets each pipeline
//! stage of the machine loop with an [`Instant`] lap, and returns the
//! profile in [`SimTelemetry::phases`](crate::SimTelemetry::phases). An
//! unprofiled run carries a `None`, and the loop's only cost is one
//! pointer test per stage — no timers, no allocation.
//!
//! Every lap reads the clock once, and the span it closes includes that
//! read. On a cheap stage the read is most of the span, so the profile
//! measures what one lap costs when the run starts and again when it
//! ends, keeps the faster of the two, and [`PhaseProfile::net`] takes
//! each stage's laps back out.

use std::time::{Duration, Instant};

/// Phase indices into [`PhaseProfile::spans`]. The `account` span also
/// covers the cycle-skip fast-forward, which runs between accounting and
/// the cycle increment.
pub(crate) mod phase {
    pub const RETIRE: usize = 0;
    pub const ISSUE: usize = 1;
    pub const DIVERT: usize = 2;
    pub const DISPATCH: usize = 3;
    pub const FETCH: usize = 4;
    pub const ACCOUNT: usize = 5;
    pub const COUNT: usize = 6;
}

/// Batches of back-to-back laps timed to measure one lap; the fastest
/// batch is kept, as the one least disturbed by the host.
const CALIBRATION_BATCHES: usize = 8;
/// Laps per calibration batch.
const CALIBRATION_LAPS: u32 = 256;

/// Host time per pipeline stage, and the work counters of the issue,
/// divert, fetch and accounting stages, for one run. The counters are
/// deterministic: the same run counts the same work on any host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Host time per stage, in the order of [`PhaseProfile::LABELS`],
    /// including the clock read of every lap closed into it.
    pub spans: [Duration; phase::COUNT],
    /// Laps closed into each stage: one clock read apiece.
    pub(crate) laps: [u64; phase::COUNT],
    /// What one lap costs on this host: the faster of two measurements,
    /// one before the run and one after it, each the fastest of a few
    /// batches of back-to-back laps.
    pub(crate) lap_cost: Duration,
    /// Instructions issued (functional-unit grants).
    pub issued: u64,
    /// Wakeups pushed by the event-driven issue stage.
    pub wakes_pushed: u64,
    /// Wakeups drained by the event-driven issue stage.
    pub wakes_popped: u64,
    /// Full ready-set rebuilds (after a squash).
    pub rebuilds: u64,
    /// Entries summed over those rebuilds.
    pub rebuild_entries: u64,
    /// Cycles on which the issue stage selected a non-empty batch.
    pub issue_cycles: u64,
    /// Divert-queue entries whose release gate was evaluated over their
    /// producers.
    pub divert_examined: u64,
    /// Divert-queue entries released into the scheduler.
    pub divert_released: u64,
    /// Tasks the fetch stage examined (arbitration and stall checks).
    pub fetch_visits: u64,
    /// Charges made to the per-task cycle ledger.
    pub ledger_charges: u64,
}

impl PhaseProfile {
    /// The stage each entry of [`PhaseProfile::spans`] times. `account`
    /// includes the cycle-skip fast-forward.
    pub const LABELS: [&'static str; phase::COUNT] =
        ["retire", "issue", "divert", "dispatch", "fetch", "account"];

    /// An empty profile whose [`lap_cost`](PhaseProfile::lap_cost) has
    /// been measured on this host.
    pub(crate) fn calibrated() -> PhaseProfile {
        PhaseProfile {
            lap_cost: measure_lap(),
            ..PhaseProfile::default()
        }
    }

    /// Measures the lap again at the end of the run and keeps the faster
    /// measurement: a single one moves with whatever the host was doing
    /// at that moment, and host load only ever slows a lap down.
    pub(crate) fn recalibrate(&mut self) {
        self.keep_faster_lap(measure_lap());
    }

    fn keep_faster_lap(&mut self, measured: Duration) {
        self.lap_cost = self.lap_cost.min(measured);
    }

    /// Closes the lap started at `mark` into stage `idx` and starts the
    /// next lap at the same clock read.
    #[inline]
    pub(crate) fn lap(&mut self, mark: &mut Instant, idx: usize) {
        let now = Instant::now();
        self.spans[idx] += now - *mark;
        self.laps[idx] += 1;
        *mark = now;
    }

    /// Host time over all stages, clock reads included.
    pub fn total(&self) -> Duration {
        self.spans.iter().sum()
    }

    /// Host time of stage `idx` net of its laps' clock reads. What
    /// [`total`](PhaseProfile::total) holds beyond the stages' net times
    /// is the profile's own clock.
    pub fn net(&self, idx: usize) -> Duration {
        let clock = self
            .lap_cost
            .as_nanos()
            .saturating_mul(u128::from(self.laps[idx]));
        let clock = Duration::from_nanos(u64::try_from(clock).unwrap_or(u64::MAX));
        self.spans[idx].saturating_sub(clock)
    }
}

/// What one lap costs: the fastest of a few batches of back-to-back laps,
/// as the batch least disturbed by the host.
fn measure_lap() -> Duration {
    let mut scratch = PhaseProfile::default();
    let mut lap_cost = Duration::MAX;
    for _ in 0..CALIBRATION_BATCHES {
        let start = Instant::now();
        let mut mark = start;
        for _ in 0..CALIBRATION_LAPS {
            scratch.lap(&mut mark, phase::RETIRE);
        }
        lap_cost = lap_cost.min((mark - start) / CALIBRATION_LAPS);
    }
    lap_cost
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_takes_each_stages_laps_out() {
        let mut p = PhaseProfile {
            lap_cost: Duration::from_nanos(40),
            ..PhaseProfile::default()
        };
        p.spans[phase::ISSUE] = Duration::from_nanos(1_000);
        p.laps[phase::ISSUE] = 10;
        p.spans[phase::DIVERT] = Duration::from_nanos(300);
        p.laps[phase::DIVERT] = 10;
        assert_eq!(p.net(phase::ISSUE), Duration::from_nanos(600));
        // A stage faster than its laps' measured cost reads zero, never
        // a negative time.
        assert_eq!(p.net(phase::DIVERT), Duration::ZERO);
        assert_eq!(p.total(), Duration::from_nanos(1_300));
    }

    /// The kept lap cost is the smaller of the two measurements, in
    /// either order, and the rows `explain` prints (each stage net of its
    /// laps, then `timer` as the rest) still sum to the total.
    #[test]
    fn recalibration_keeps_the_faster_lap() {
        for (first, second) in [(56, 39), (39, 56), (40, 40)] {
            let mut p = PhaseProfile {
                lap_cost: Duration::from_nanos(first),
                ..PhaseProfile::default()
            };
            p.keep_faster_lap(Duration::from_nanos(second));
            assert_eq!(p.lap_cost, Duration::from_nanos(first.min(second)));
            p.spans[phase::ISSUE] = Duration::from_nanos(5_000);
            p.laps[phase::ISSUE] = 50;
            p.spans[phase::FETCH] = Duration::from_nanos(1_000);
            p.laps[phase::FETCH] = 50;
            let net: Duration = (0..phase::COUNT).map(|i| p.net(i)).sum();
            let timer = p.total() - net;
            assert_eq!(net + timer, p.total());
            assert_eq!(
                timer,
                p.lap_cost * 50 + Duration::from_nanos(1_000).min(p.lap_cost * 50)
            );
        }
        let mut p = PhaseProfile::calibrated();
        let before = p.lap_cost;
        p.recalibrate();
        assert!(p.lap_cost <= before);
        assert!(p.lap_cost > Duration::ZERO);
    }
}
