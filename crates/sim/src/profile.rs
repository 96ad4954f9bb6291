//! Per-phase host-time profiling for the simulation loop, asked for with
//! [`SimOptions::profile`](crate::SimOptions::profile).
//!
//! A profiled run allocates one [`PhaseProfile`], brackets each pipeline
//! stage of the machine loop with an [`Instant`](std::time::Instant)
//! lap, and returns the profile in
//! [`SimTelemetry::phases`](crate::SimTelemetry::phases). An unprofiled
//! run carries a `None`, and the loop's only cost is one pointer test
//! per stage — no timers, no allocation.

use std::time::Duration;

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

/// Host time per pipeline stage, and the work counters of the issue,
/// divert, fetch and accounting stages, for one run. The counters are
/// deterministic: the same run counts the same work on any host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Host time per stage, in the order of [`PhaseProfile::LABELS`].
    pub spans: [Duration; phase::COUNT],
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

    /// Host time over all stages.
    pub fn total(&self) -> Duration {
        self.spans.iter().sum()
    }
}
