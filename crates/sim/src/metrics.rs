//! Simulation results and derived metrics.

use crate::account::{Bucket, CycleAccount};
use polyflow_core::SpawnKind;
use polyflow_isa::json::{Style, Writer};
use polyflow_isa::Pc;
use std::fmt;

/// One dynamic spawn performed by the Task Spawn Unit — the raw material
/// of the paper's Figure 4 (a dynamic fetch ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpawnEvent {
    /// Cycle the spawn occurred.
    pub cycle: u64,
    /// Trigger PC (the branch/call whose fetch caused the spawn).
    pub trigger: Pc,
    /// Spawn target PC (start of the new task).
    pub target: Pc,
    /// Trace index where the new task begins.
    pub target_index: u32,
    /// Classification of the spawn.
    pub kind: SpawnKind,
    /// Live tasks immediately after the spawn.
    pub live_tasks: u8,
}

/// Counters produced by one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimResult {
    /// Total cycles to retire the trace.
    pub cycles: u64,
    /// Instructions retired (the trace length).
    pub instructions: u64,
    /// Dynamic spawns performed, by kind.
    pub spawns: SpawnCounts,
    /// Spawn opportunities skipped because the target was too far ahead
    /// (or absent) in the trace.
    pub spawns_rejected_distance: u64,
    /// Spawn opportunities skipped because all task contexts were busy.
    pub spawns_rejected_contexts: u64,
    /// Spawn opportunities throttled by the profitability feedback.
    pub spawns_rejected_unprofitable: u64,
    /// Conditional-branch mispredictions replayed.
    pub branch_mispredicts: u64,
    /// Return / indirect-jump mispredictions replayed.
    pub indirect_mispredicts: u64,
    /// Cycles any task spent with fetch stalled on a branch resolution.
    pub fetch_stall_branch_cycles: u64,
    /// Cycles any task spent with fetch stalled on an instruction-cache
    /// fill (cache fills only — squash recovery and spawn setup have
    /// their own counters; the seed lumped all three in here).
    pub fetch_stall_icache_cycles: u64,
    /// Cycles any task spent refetching after a dependence-violation
    /// squash (the `squash_penalty` waits).
    pub squash_recovery_cycles: u64,
    /// Cycles freshly spawned tasks spent waiting out the Task Spawn
    /// Unit's context-setup overhead (`spawn_overhead_cycles` per spawn,
    /// fewer if the task is squashed mid-setup).
    pub spawn_setup_cycles: u64,
    /// L1 instruction-cache misses.
    pub l1i_misses: u64,
    /// L1 data-cache misses.
    pub l1d_misses: u64,
    /// Unified L2 misses.
    pub l2_misses: u64,
    /// Instructions that passed through the divert queue.
    pub diverted: u64,
    /// Dependence-violation squashes (store-set mode only).
    pub squashes: u64,
    /// In-flight instructions discarded by squashes.
    pub squashed_instructions: u64,
    /// Youngest-task squashes performed to reclaim ROB entries (the §6
    /// reclamation extension).
    pub rob_reclaims: u64,
    /// Register-dependence violations (hint-entry model only).
    pub register_violations: u64,
    /// Register violations that could not train the hint entry because it
    /// was full (the 8-byte capacity limit): these spawn points keep
    /// squashing until the profitability feedback throttles them.
    pub hint_capacity_misses: u64,
    /// Maximum simultaneously live tasks.
    pub max_live_tasks: usize,
    /// Every dynamic spawn, in order (see [`SpawnEvent`]).
    pub spawn_log: Vec<SpawnEvent>,
    /// The run's cycle-slot ledger: every `cycles × contexts` slot
    /// attributed to exactly one [`Bucket`] (see `crate::account`).
    pub account: CycleAccount,
}

impl SimResult {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Speedup of `self` over `baseline`, in percent (the y-axis of
    /// Figures 9, 10 and 12).
    ///
    /// Both runs must have retired the same instruction count.
    ///
    /// # Panics
    ///
    /// Panics if the instruction counts differ (the comparison would be
    /// meaningless).
    pub fn speedup_percent_over(&self, baseline: &SimResult) -> f64 {
        assert_eq!(
            self.instructions, baseline.instructions,
            "speedup requires identical work"
        );
        100.0 * (baseline.cycles as f64 / self.cycles as f64 - 1.0)
    }

    /// Total dynamic spawns.
    pub fn total_spawns(&self) -> u64 {
        self.spawns.total()
    }

    /// JSON encoding of the result including the full [`CycleAccount`]:
    /// [`write_json`](SimResult::write_json) in the pretty style, plus a
    /// closing newline. The golden snapshots and the benchmark's pins
    /// hash these bytes.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new(Style::Pretty);
        self.write_json(&mut w);
        let mut out = w.finish();
        out.push('\n');
        out
    }

    /// Writes the result as one JSON object. The spawn log is summarized
    /// as a count; use the event trace for per-spawn detail. In the
    /// pretty style the object and its account are blocks and every
    /// other container (spawn counts, buckets, each task row) is one
    /// line; the compact style is the wire's `result`.
    pub fn write_json(&self, w: &mut Writer) {
        let account = &self.account;
        w.reserve(1024 + 320 * account.tasks.len());
        w.block_object(|w| {
            w.key("cycles").u64(self.cycles);
            w.key("instructions").u64(self.instructions);
            w.key("ipc").fixed(self.ipc(), 4);
            let s = &self.spawns;
            w.key("spawns").object(|w| {
                w.key("loop").u64(s.loop_spawns);
                w.key("loop_ft").u64(s.loop_ft);
                w.key("proc_ft").u64(s.proc_ft);
                w.key("hammock").u64(s.hammocks);
                w.key("other").u64(s.other);
                w.key("total").u64(s.total());
            });
            for (key, v) in [
                ("spawns_rejected_distance", self.spawns_rejected_distance),
                ("spawns_rejected_contexts", self.spawns_rejected_contexts),
                (
                    "spawns_rejected_unprofitable",
                    self.spawns_rejected_unprofitable,
                ),
                ("branch_mispredicts", self.branch_mispredicts),
                ("indirect_mispredicts", self.indirect_mispredicts),
                ("fetch_stall_branch_cycles", self.fetch_stall_branch_cycles),
                ("fetch_stall_icache_cycles", self.fetch_stall_icache_cycles),
                ("squash_recovery_cycles", self.squash_recovery_cycles),
                ("spawn_setup_cycles", self.spawn_setup_cycles),
                ("l1i_misses", self.l1i_misses),
                ("l1d_misses", self.l1d_misses),
                ("l2_misses", self.l2_misses),
                ("diverted", self.diverted),
                ("squashes", self.squashes),
                ("squashed_instructions", self.squashed_instructions),
                ("rob_reclaims", self.rob_reclaims),
                ("register_violations", self.register_violations),
                ("hint_capacity_misses", self.hint_capacity_misses),
                ("max_live_tasks", self.max_live_tasks as u64),
                ("spawn_log_len", self.spawn_log.len() as u64),
            ] {
                w.key(key).u64(v);
            }
            w.key("account").block_object(|w| {
                w.key("contexts").u64(account.contexts);
                w.key("cycles").u64(account.cycles);
                w.key("total_slots").u64(account.total_slots());
                w.key("buckets").object(|w| {
                    for b in Bucket::ALL {
                        w.key(b.label()).u64(account.bucket(b));
                    }
                });
                w.key("tasks").block_array(|w| {
                    for (uid, t) in account.tasks.iter().enumerate() {
                        w.object(|w| {
                            w.key("uid").u64(uid as u64);
                            w.key("start_index").u64(u64::from(t.start_index));
                            match t.created_by {
                                Some(pc) => w.key("created_by").display(pc),
                                None => w.key("created_by").null(),
                            };
                            match t.kind {
                                Some(k) => w.key("kind").display(k),
                                None => w.key("kind").null(),
                            };
                            w.key("spawn_cycle").u64(t.spawn_cycle);
                            w.key("total").u64(t.total());
                            w.key("stalled").u64(t.stalled());
                            w.key("buckets").object(|w| {
                                for b in Bucket::ALL {
                                    w.key(b.label()).u64(t.buckets[b.index()]);
                                }
                            });
                        });
                    }
                });
            });
        });
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instrs in {} cycles (IPC {:.2}), {} spawns, {} mispredicts",
            self.instructions,
            self.cycles,
            self.ipc(),
            self.total_spawns(),
            self.branch_mispredicts
        )
    }
}

/// Dynamic spawn counts per [`SpawnKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpawnCounts {
    /// Loop-iteration spawns.
    pub loop_spawns: u64,
    /// Loop fall-through spawns.
    pub loop_ft: u64,
    /// Procedure fall-through spawns.
    pub proc_ft: u64,
    /// Hammock spawns.
    pub hammocks: u64,
    /// "Other" spawns.
    pub other: u64,
}

impl SpawnCounts {
    /// Records one spawn.
    pub fn add(&mut self, kind: SpawnKind) {
        match kind {
            SpawnKind::Loop => self.loop_spawns += 1,
            SpawnKind::LoopFallThrough => self.loop_ft += 1,
            SpawnKind::ProcFallThrough => self.proc_ft += 1,
            SpawnKind::Hammock => self.hammocks += 1,
            SpawnKind::Other => self.other += 1,
        }
    }

    /// The count for one kind.
    pub fn count(&self, kind: SpawnKind) -> u64 {
        match kind {
            SpawnKind::Loop => self.loop_spawns,
            SpawnKind::LoopFallThrough => self.loop_ft,
            SpawnKind::ProcFallThrough => self.proc_ft,
            SpawnKind::Hammock => self.hammocks,
            SpawnKind::Other => self.other,
        }
    }

    /// Total across all kinds.
    pub fn total(&self) -> u64 {
        self.loop_spawns + self.loop_ft + self.proc_ft + self.hammocks + self.other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_speedup() {
        let base = SimResult {
            cycles: 200,
            instructions: 400,
            ..SimResult::default()
        };
        let fast = SimResult {
            cycles: 100,
            instructions: 400,
            ..SimResult::default()
        };
        assert_eq!(base.ipc(), 2.0);
        assert_eq!(fast.ipc(), 4.0);
        assert_eq!(fast.speedup_percent_over(&base), 100.0);
        assert_eq!(base.speedup_percent_over(&base), 0.0);
        // Slowdowns are negative (Figure 9 shows some).
        assert!(base.speedup_percent_over(&fast) < 0.0);
    }

    #[test]
    #[should_panic(expected = "identical work")]
    fn speedup_rejects_different_work() {
        let a = SimResult {
            cycles: 10,
            instructions: 5,
            ..SimResult::default()
        };
        let b = SimResult {
            cycles: 10,
            instructions: 6,
            ..SimResult::default()
        };
        let _ = a.speedup_percent_over(&b);
    }

    #[test]
    fn spawn_counts_roundtrip() {
        let mut c = SpawnCounts::default();
        c.add(SpawnKind::Hammock);
        c.add(SpawnKind::Hammock);
        c.add(SpawnKind::Loop);
        assert_eq!(c.count(SpawnKind::Hammock), 2);
        assert_eq!(c.count(SpawnKind::Loop), 1);
        assert_eq!(c.count(SpawnKind::Other), 0);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn zero_cycles_ipc_is_zero() {
        assert_eq!(SimResult::default().ipc(), 0.0);
    }

    #[test]
    fn display_mentions_ipc() {
        let r = SimResult {
            cycles: 10,
            instructions: 20,
            ..SimResult::default()
        };
        assert!(r.to_string().contains("IPC 2.00"));
    }
}
