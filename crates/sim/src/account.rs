//! Cycle accounting: attributing every simulated cycle-slot to a cause.
//!
//! The paper's central claim is a *mechanism* claim — control-equivalent
//! tasks win by overlapping fetch-stall time (§3.2, Figure 4) — so the
//! simulator must be able to show *where* the cycles went, not just how
//! many there were. A [`CycleAccount`] charges every cycle-slot (one slot
//! per task context per cycle) to exactly one [`Bucket`], globally and
//! per dynamic task, with a hard invariant:
//!
//! ```text
//! sum(buckets) == cycles × contexts
//! ```
//!
//! checked in debug builds after every run ([`CycleAccount::check`]) and
//! locked in by tests over every bundled workload.
//!
//! # Bucket taxonomy
//!
//! Each live task is classified once per stepped cycle, in priority
//! order (the machine charges a task's consecutive slots in one bucket
//! as a single span, when the bucket changes):
//!
//! 1. [`Bucket::BranchStall`] — fetch frozen on an unresolved mispredicted
//!    branch (the stall control-equivalent tasks overlap).
//! 2. [`Bucket::IcacheStall`] — fetch frozen on an instruction-cache fill.
//! 3. [`Bucket::SquashRecovery`] — refetch delay after a dependence-
//!    violation squash ([`MachineConfig::squash_penalty`]).
//! 4. [`Bucket::SpawnSetup`] — a freshly spawned task waiting out the Task
//!    Spawn Unit's context-setup overhead
//!    ([`MachineConfig::spawn_overhead_cycles`]).
//! 5. [`Bucket::DivertWait`] — not fetch-stalled, but at least one of the
//!    task's instructions sits in the divert queue (the §3.1 conservative
//!    inter-task synchronization cost).
//! 6. [`Bucket::Contention`] — blocked by a structural resource this
//!    cycle: full fetch queue, ROB or scheduler limit, full divert queue,
//!    or losing fetch arbitration to
//!    [`MachineConfig::fetch_tasks_per_cycle`].
//! 7. [`Bucket::Retire`] — none of the above: the task is fetching,
//!    decoding, executing or retiring normally (forward progress).
//!
//! Context slots with no live task are charged to
//! [`Bucket::IdleContext`]. The first four buckets mirror the
//! `SimResult` stall counters one-for-one (a regression net for the
//! counter-consistency audits); the classification itself never feeds
//! back into timing, so accounting is free of observer effects.
//!
//! [`MachineConfig::squash_penalty`]: crate::MachineConfig::squash_penalty
//! [`MachineConfig::spawn_overhead_cycles`]: crate::MachineConfig::spawn_overhead_cycles
//! [`MachineConfig::fetch_tasks_per_cycle`]: crate::MachineConfig::fetch_tasks_per_cycle

use polyflow_core::SpawnKind;
use polyflow_isa::Pc;

/// Number of attribution buckets.
pub const BUCKET_COUNT: usize = 8;

/// Where one task-context cycle-slot went. See the module docs for the
/// exact classification rules and priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bucket {
    /// Forward progress: fetching, decoding, executing or retiring.
    Retire,
    /// Fetch frozen on an unresolved mispredicted branch.
    BranchStall,
    /// Fetch frozen on an instruction-cache fill.
    IcacheStall,
    /// Instructions serialized in the divert queue (§3.1).
    DivertWait,
    /// Post-squash refetch delay (dependence-violation recovery).
    SquashRecovery,
    /// Spawned-task context setup (Task Spawn Unit overhead).
    SpawnSetup,
    /// Blocked on a structural resource (fetch queue, ROB, scheduler,
    /// divert queue, fetch arbitration).
    Contention,
    /// Context slot with no live task.
    IdleContext,
}

impl Bucket {
    /// Every bucket, in display order.
    pub const ALL: [Bucket; BUCKET_COUNT] = [
        Bucket::Retire,
        Bucket::BranchStall,
        Bucket::IcacheStall,
        Bucket::DivertWait,
        Bucket::SquashRecovery,
        Bucket::SpawnSetup,
        Bucket::Contention,
        Bucket::IdleContext,
    ];

    /// Dense index of this bucket (its position in [`Bucket::ALL`]).
    pub const fn index(self) -> usize {
        match self {
            Bucket::Retire => 0,
            Bucket::BranchStall => 1,
            Bucket::IcacheStall => 2,
            Bucket::DivertWait => 3,
            Bucket::SquashRecovery => 4,
            Bucket::SpawnSetup => 5,
            Bucket::Contention => 6,
            Bucket::IdleContext => 7,
        }
    }

    /// Stable snake_case label (used in tables and the JSON export).
    pub const fn label(self) -> &'static str {
        match self {
            Bucket::Retire => "retire",
            Bucket::BranchStall => "branch_stall",
            Bucket::IcacheStall => "icache_stall",
            Bucket::DivertWait => "divert_wait",
            Bucket::SquashRecovery => "squash_recovery",
            Bucket::SpawnSetup => "spawn_setup",
            Bucket::Contention => "contention",
            Bucket::IdleContext => "idle_context",
        }
    }

    /// True for buckets that represent lost (non-progress) slots.
    pub const fn is_stall(self) -> bool {
        !matches!(self, Bucket::Retire)
    }
}

impl std::fmt::Display for Bucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-dynamic-task cycle attribution. A task's account persists after
/// the task retires or is squashed (squashed tasks keep the slots they
/// burned — that *is* the cost of the squash).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskAccount {
    /// Trace index where the task's interval begins.
    pub start_index: u32,
    /// Trigger PC of the spawn that created the task (`None` for the
    /// initial task).
    pub created_by: Option<Pc>,
    /// Spawn classification (`None` for the initial task).
    pub kind: Option<SpawnKind>,
    /// Cycle the task was created.
    pub spawn_cycle: u64,
    /// Cycle-slots charged to this task, by [`Bucket::index`]. The
    /// [`Bucket::IdleContext`] entry is always zero (idle slots belong to
    /// no task).
    pub buckets: [u64; BUCKET_COUNT],
}

impl TaskAccount {
    /// Total cycle-slots charged to this task.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Slots lost to stalls (everything except [`Bucket::Retire`]).
    pub fn stalled(&self) -> u64 {
        self.total() - self.buckets[Bucket::Retire.index()]
    }
}

/// The full cycle-slot ledger of one simulation run.
///
/// `contexts` is the machine's task-context count
/// ([`MachineConfig::max_tasks`](crate::MachineConfig::max_tasks)), so
/// the superscalar baseline accounts one slot per cycle and the PolyFlow
/// machine eight. [`CycleAccount::check`] verifies the sum invariant and
/// the per-task decomposition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleAccount {
    /// Task contexts the machine accounts each cycle.
    pub contexts: u64,
    /// Cycles accounted (equals the run's `SimResult::cycles` for
    /// non-empty traces).
    pub cycles: u64,
    /// Global slot totals, by [`Bucket::index`].
    pub totals: [u64; BUCKET_COUNT],
    /// One account per dynamic task, in creation (uid) order; entry 0 is
    /// the initial task.
    pub tasks: Vec<TaskAccount>,
}

impl CycleAccount {
    /// A fresh ledger for a machine with `contexts` task contexts and the
    /// initial task already registered.
    pub(crate) fn new(contexts: usize) -> CycleAccount {
        CycleAccount {
            contexts: contexts as u64,
            cycles: 0,
            totals: [0; BUCKET_COUNT],
            tasks: vec![TaskAccount {
                start_index: 0,
                created_by: None,
                kind: None,
                spawn_cycle: 0,
                buckets: [0; BUCKET_COUNT],
            }],
        }
    }

    /// Registers a freshly spawned task; returns its uid.
    pub(crate) fn add_task(
        &mut self,
        start_index: u32,
        created_by: Pc,
        kind: SpawnKind,
        spawn_cycle: u64,
    ) -> u32 {
        let uid = self.tasks.len() as u32;
        self.tasks.push(TaskAccount {
            start_index,
            created_by: Some(created_by),
            kind: Some(kind),
            spawn_cycle,
            buckets: [0; BUCKET_COUNT],
        });
        uid
    }

    /// Charges `slots` slots of task `uid` to `bucket`: one span of
    /// consecutive cycles the task spent in that bucket.
    pub(crate) fn charge(&mut self, uid: u32, bucket: Bucket, slots: u64) {
        debug_assert!(bucket != Bucket::IdleContext, "idle slots have no task");
        self.totals[bucket.index()] += slots;
        self.tasks[uid as usize].buckets[bucket.index()] += slots;
    }

    /// Charges `slots` idle-context slots (contexts with no live task).
    pub(crate) fn charge_idle(&mut self, slots: u64) {
        self.totals[Bucket::IdleContext.index()] += slots;
    }

    /// The count in one bucket.
    pub fn bucket(&self, b: Bucket) -> u64 {
        self.totals[b.index()]
    }

    /// Total slots accounted (must equal `cycles × contexts`).
    pub fn total_slots(&self) -> u64 {
        self.totals.iter().sum()
    }

    /// Share of all slots in `b`, in percent.
    pub fn percent(&self, b: Bucket) -> f64 {
        let total = self.total_slots();
        if total == 0 {
            0.0
        } else {
            100.0 * self.bucket(b) as f64 / total as f64
        }
    }

    /// Verifies the ledger: every slot charged exactly once
    /// (`sum(buckets) == cycles × contexts`) and the global totals
    /// decompose exactly into the per-task accounts plus idle slots.
    pub fn check(&self) -> Result<(), String> {
        let slots = self.total_slots();
        let expected = self.cycles * self.contexts;
        if slots != expected {
            return Err(format!(
                "cycle-account sum invariant violated: {slots} slots accounted, \
                 expected cycles × contexts = {} × {} = {expected}",
                self.cycles, self.contexts
            ));
        }
        for (i, b) in Bucket::ALL.iter().enumerate() {
            let per_task: u64 = self.tasks.iter().map(|t| t.buckets[i]).sum();
            let expected = if *b == Bucket::IdleContext {
                0
            } else {
                self.totals[i]
            };
            if per_task != expected {
                return Err(format!(
                    "bucket {b}: per-task sum {per_task} != global total {expected}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indices_match_all_order() {
        for (i, b) in Bucket::ALL.iter().enumerate() {
            assert_eq!(b.index(), i);
        }
        assert_eq!(Bucket::ALL.len(), BUCKET_COUNT);
    }

    #[test]
    fn labels_are_unique_snake_case() {
        let labels: Vec<&str> = Bucket::ALL.iter().map(|b| b.label()).collect();
        for (i, l) in labels.iter().enumerate() {
            assert!(l.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
            assert!(!labels[i + 1..].contains(l), "duplicate label {l}");
        }
    }

    #[test]
    fn charge_and_check_balance() {
        let mut a = CycleAccount::new(2);
        let t1 = a.add_task(100, Pc::new(10), SpawnKind::Hammock, 5);
        // Cycle 0: both contexts live.
        a.charge(0, Bucket::Retire, 1);
        a.charge(t1, Bucket::SpawnSetup, 1);
        // Cycle 1: one live, one idle.
        a.charge(0, Bucket::BranchStall, 1);
        a.charge_idle(1);
        a.cycles = 2;
        assert_eq!(a.total_slots(), 4);
        a.check().unwrap();
        assert_eq!(a.bucket(Bucket::Retire), 1);
        assert_eq!(a.tasks[t1 as usize].stalled(), 1);
        assert_eq!(a.percent(Bucket::IdleContext), 25.0);
    }

    #[test]
    fn check_catches_missing_slots() {
        let mut a = CycleAccount::new(4);
        a.charge(0, Bucket::Retire, 1);
        a.cycles = 1;
        let err = a.check().unwrap_err();
        assert!(err.contains("sum invariant"), "{err}");
    }

    #[test]
    fn check_catches_per_task_mismatch() {
        let mut a = CycleAccount::new(1);
        a.charge(0, Bucket::Retire, 1);
        a.cycles = 1;
        a.tasks[0].buckets[Bucket::Retire.index()] = 0; // corrupt
        let err = a.check().unwrap_err();
        assert!(err.contains("per-task sum"), "{err}");
    }

    #[test]
    fn default_account_is_balanced() {
        CycleAccount::default().check().unwrap();
    }

    #[test]
    fn stall_classification() {
        assert!(!Bucket::Retire.is_stall());
        for b in Bucket::ALL.iter().skip(1) {
            assert!(b.is_stall(), "{b} should count as a stall");
        }
    }
}
