//! The simulator's typed error taxonomy.
//!
//! Every way a [`crate::simulate`] run can fail is a [`SimError`]
//! variant. Watchdog errors ([`SimError::Livelock`],
//! [`SimError::CyclesExceeded`]) describe the *workload/configuration*
//! pair; [`SimError::BrokenInvariant`] and
//! [`SimError::AccountingViolation`] indicate a simulator bug and carry
//! enough state for a post-mortem without a debugger attached.

use crate::account::CycleAccount;
use polyflow_isa::TraceError;
use std::fmt;

/// A structured simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The input trace is not a legal retirement stream (see
    /// [`TraceError`] for the corruption classes). Detected up front, so
    /// the cycle model never replays garbage.
    MalformedTrace(TraceError),
    /// The livelock watchdog fired: no instruction retired in any context
    /// for `window` consecutive cycles. Carries the cycle-slot ledger and
    /// a dump of the stuck machine state for post-mortem analysis; the
    /// run is deterministic, so re-running it with a tracing sink
    /// streams every event that led there.
    Livelock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// The configured no-retirement window
        /// ([`crate::MachineConfig::livelock_window`]).
        window: u64,
        /// Instructions retired before progress stopped.
        retired: u64,
        /// The cycle-slot ledger at the time of the failure.
        account: Box<CycleAccount>,
        /// Human-readable dump of the stuck instruction, its owner task,
        /// and the scheduler/divert heads.
        detail: String,
    },
    /// The hard cycle budget ([`crate::MachineConfig::max_cycles`])
    /// elapsed before the trace finished retiring.
    CyclesExceeded {
        /// The configured budget.
        max_cycles: u64,
        /// Instructions retired within the budget.
        retired: u64,
        /// Total instructions in the trace.
        instructions: u64,
    },
    /// The end-of-run cycle-accounting check failed: the per-bucket
    /// ledger does not satisfy `sum(buckets) == cycles × contexts`.
    AccountingViolation {
        /// The accountant's explanation of the imbalance.
        detail: String,
    },
    /// An internal machine invariant did not hold (formerly a panic
    /// site). Always a simulator bug, never a property of the workload.
    BrokenInvariant {
        /// Cycle at which the invariant was found broken.
        cycle: u64,
        /// Which invariant, and the state that broke it.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MalformedTrace(e) => write!(f, "malformed trace: {e}"),
            SimError::Livelock {
                cycle,
                window,
                retired,
                detail,
                ..
            } => {
                write!(
                    f,
                    "livelock: no retirement for {window} cycles at cycle {cycle} \
                     ({retired} instructions retired)\n{detail}"
                )
            }
            SimError::CyclesExceeded {
                max_cycles,
                retired,
                instructions,
            } => {
                write!(
                    f,
                    "cycle budget exceeded: {max_cycles} cycles elapsed with only \
                     {retired}/{instructions} instructions retired"
                )
            }
            SimError::AccountingViolation { detail } => {
                write!(f, "cycle-accounting violation: {detail}")
            }
            SimError::BrokenInvariant { cycle, detail } => {
                write!(f, "simulator invariant broken at cycle {cycle}: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<TraceError> for SimError {
    fn from(e: TraceError) -> SimError {
        SimError::MalformedTrace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SimError::CyclesExceeded {
            max_cycles: 1000,
            retired: 12,
            instructions: 400,
        };
        assert_eq!(
            e.to_string(),
            "cycle budget exceeded: 1000 cycles elapsed with only 12/400 instructions retired"
        );
        let e = SimError::BrokenInvariant {
            cycle: 7,
            detail: "x".into(),
        };
        assert!(e.to_string().contains("cycle 7"));
        let e: SimError = TraceError::Truncated {
            last_pc: polyflow_isa::Pc::new(3),
        }
        .into();
        assert!(matches!(e, SimError::MalformedTrace(_)));
        assert!(e.to_string().starts_with("malformed trace:"));
    }
}
