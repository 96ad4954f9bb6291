//! Machine configuration (the paper's Figure 8).

use crate::store_set::DependenceMode;

/// Geometry and latencies of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or non-power-of-two
    /// line size).
    pub fn sets(&self) -> usize {
        assert!(self.line_bytes.is_power_of_two(), "line size must be 2^k");
        let lines = self.size_bytes / self.line_bytes;
        let sets = lines / self.ways;
        assert!(sets > 0, "cache has no sets");
        sets
    }
}

/// Full machine configuration: pipeline, predictor, task and memory
/// parameters. [`MachineConfig::hpca07`] reproduces Figure 8.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Pipeline width: fetch/dispatch/issue/retire per cycle (8).
    pub width: usize,
    /// Tasks that may fetch in the same cycle (2 for PolyFlow, 1 for the
    /// superscalar; §3.2).
    pub fetch_tasks_per_cycle: usize,
    /// Maximum simultaneous tasks (8 for PolyFlow, 1 for the superscalar).
    pub max_tasks: usize,
    /// Reorder buffer entries, dynamically shared (512).
    pub rob_entries: usize,
    /// Scheduler entries, dynamically shared (64).
    pub scheduler_entries: usize,
    /// Divert queue entries, dynamically shared (128).
    pub divert_entries: usize,
    /// Identical general-purpose functional units (8).
    pub fn_units: usize,
    /// Minimum branch misprediction penalty in cycles (8).
    pub misprediction_penalty: u64,
    /// Front-end depth: cycles from fetch to earliest dispatch.
    pub decode_latency: u64,
    /// Per-task fetch buffer capacity (fetched, not yet dispatched).
    pub fetch_queue_entries: usize,
    /// gshare: log2 of the number of 2-bit counters (16 Kbit = 8 K
    /// counters = 13 bits).
    pub gshare_index_bits: usize,
    /// gshare global history bits (8).
    pub gshare_history_bits: usize,
    /// Return-address-stack depth for return prediction.
    pub ras_entries: usize,
    /// Level-1 instruction cache (8 KB, 2-way, 128 B lines).
    pub l1i: CacheConfig,
    /// Level-1 data cache (16 KB, 4-way, 64 B lines).
    pub l1d: CacheConfig,
    /// Unified level-2 cache (512 KB, 8-way, 128 B lines).
    pub l2: CacheConfig,
    /// L1 hit latency in cycles.
    pub l1_hit_latency: u64,
    /// L1 miss (L2 hit) latency in cycles (10).
    pub l1_miss_latency: u64,
    /// L2 miss latency in cycles (100).
    pub l2_miss_latency: u64,
    /// Multiply latency in cycles.
    pub mul_latency: u64,
    /// Maximum dynamic distance (in retired instructions) a spawn target
    /// may lie ahead of its trigger; the Task Spawn Unit "uses a trace to
    /// ensure that tasks are not spawned too far into the future" (§3.2).
    pub max_spawn_distance: u32,
    /// Minimum dynamic distance for a spawn: targets closer than this are
    /// not worth a task context because "the fetch unit will soon fetch
    /// those successor blocks along the conventional control-flow path"
    /// (§2.2).
    pub min_spawn_distance: u32,
    /// Cycles between a producer's dispatch and the release of its
    /// diverted consumers: "a diverted instruction is removed from the
    /// divert queue and dispatched into the scheduler *some time after*
    /// its corresponding producer instruction has been dispatched" (§3.1).
    /// This is the cost of PolyFlow's conservative inter-task
    /// synchronization.
    pub divert_release_delay: u64,
    /// Cycles before a freshly spawned task may begin fetching: the Task
    /// Spawn Unit must set up the new context (rename map checkpoint,
    /// hint-cache dependence entry) before the task is live.
    pub spawn_overhead_cycles: u64,
    /// Enables the Task Spawn Unit's dynamic profitability feedback: "the
    /// Spawn Unit may decide to spawn the new task, depending on dynamic
    /// feedback about which tasks are profitable" (§3.1). A spawn point
    /// whose spawner rarely stalls afterwards is learned to be
    /// unprofitable and throttled.
    pub profitability_feedback: bool,
    /// Stall cycles the spawner must accumulate (after spawning, before
    /// its fetch completes) for the spawn to count as profitable.
    pub profit_stall_threshold: u64,
    /// How inter-task memory dependences are handled (§3.1): oracle
    /// synchronization (default) or store-set prediction with violation
    /// squashes.
    pub memory_dependence: DependenceMode,
    /// How inter-task *register* dependences are handled: oracle
    /// synchronization (default), or the hint-cache model — each spawn
    /// point's 8-byte hint entry (§3.1) holds up to
    /// [`MachineConfig::hint_register_slots`] architectural registers the
    /// spawned task must synchronize on; unlisted dependences execute
    /// speculatively, violate, squash, and train the entry. A task with
    /// more live inter-task registers than the entry can name keeps
    /// violating — a real capacity limit of the paper's design.
    pub register_dependence: DependenceMode,
    /// Registers one hint entry can name (8 bytes ≈ 4 slots).
    pub hint_register_slots: usize,
    /// log2 of the store-set predictor's entry count.
    pub store_set_index_bits: usize,
    /// Cycles a squashed task waits before refetching (recovery).
    pub squash_penalty: u64,
    /// §6 future-work extension: allow *any* task (not only the tail) to
    /// spawn, splitting its own interval. The paper's system "allows each
    /// thread to spawn only a single successor", which it names as the
    /// reason it cannot spawn past the inner branch of a nested hammock.
    pub spawn_from_any_task: bool,
    /// §6 future-work extension: when the oldest task has been blocked on
    /// a full ROB for [`MachineConfig::rob_reclaim_after`] cycles, squash
    /// the youngest task to reclaim its entries (the paper: the ROB "is
    /// unable to reclaim resources from younger threads").
    pub rob_reclamation: bool,
    /// Consecutive ROB-blocked cycles before reclamation triggers.
    pub rob_reclaim_after: u64,
    /// Hard cycle budget: a run that reaches this many cycles without
    /// retiring its whole trace fails with
    /// [`SimError::CyclesExceeded`](crate::SimError::CyclesExceeded).
    /// `u64::MAX` (the default) disables the budget.
    pub max_cycles: u64,
    /// Livelock watchdog: if no instruction retires in any context for
    /// this many consecutive cycles, the run fails with
    /// [`SimError::Livelock`](crate::SimError::Livelock) carrying the
    /// cycle account and a dump of the stuck state for post-mortem.
    pub livelock_window: u64,
}

impl MachineConfig {
    /// The PolyFlow configuration of Figure 8.
    pub fn hpca07() -> MachineConfig {
        MachineConfig {
            width: 8,
            fetch_tasks_per_cycle: 2,
            max_tasks: 8,
            rob_entries: 512,
            scheduler_entries: 64,
            divert_entries: 128,
            fn_units: 8,
            misprediction_penalty: 8,
            decode_latency: 4,
            fetch_queue_entries: 32,
            gshare_index_bits: 13,
            gshare_history_bits: 8,
            ras_entries: 32,
            l1i: CacheConfig {
                size_bytes: 8 * 1024,
                ways: 2,
                line_bytes: 128,
            },
            l1d: CacheConfig {
                size_bytes: 16 * 1024,
                ways: 4,
                line_bytes: 64,
            },
            l2: CacheConfig {
                size_bytes: 512 * 1024,
                ways: 8,
                line_bytes: 128,
            },
            l1_hit_latency: 1,
            l1_miss_latency: 10,
            l2_miss_latency: 100,
            mul_latency: 3,
            max_spawn_distance: 320,
            min_spawn_distance: 4,
            divert_release_delay: 6,
            spawn_overhead_cycles: 3,
            profitability_feedback: true,
            profit_stall_threshold: 4,
            memory_dependence: DependenceMode::OracleSync,
            register_dependence: DependenceMode::OracleSync,
            hint_register_slots: 4,
            store_set_index_bits: 12,
            squash_penalty: 8,
            spawn_from_any_task: false,
            rob_reclamation: false,
            rob_reclaim_after: 16,
            max_cycles: u64::MAX,
            livelock_window: 500_000,
        }
    }

    /// The equivalent-resource superscalar baseline: one task, one fetch
    /// stream, everything else identical (§3.2).
    pub fn superscalar() -> MachineConfig {
        MachineConfig {
            fetch_tasks_per_cycle: 1,
            max_tasks: 1,
            ..Self::hpca07()
        }
    }

    /// True if this configuration can run more than one task.
    pub fn is_multitask(&self) -> bool {
        self.max_tasks > 1
    }

    /// Task-context slots the cycle accountant charges each cycle: the
    /// [`CycleAccount`](crate::CycleAccount) sum invariant is
    /// `sum(buckets) == cycles × contexts()`. Equal to `max_tasks` (one
    /// slot per hardware context, live or idle).
    pub fn contexts(&self) -> u64 {
        self.max_tasks as u64
    }

    /// A deterministic, human-readable fingerprint of **every** semantic
    /// field of the configuration. Two configs with equal fingerprints
    /// run byte-identically on the same workload and policy, so this is
    /// the config component of a result-cache key (`polyflow-serve`
    /// caches simulation results under `(workload, fingerprint, policy)`).
    ///
    /// The fingerprint strictly refines [`predictor_key`]: configs that
    /// share a predictor key (and may therefore share a prepared trace)
    /// still fingerprint differently whenever any non-predictor field —
    /// task geometry, latencies, dependence modes, watchdogs — differs.
    ///
    /// [`predictor_key`]: MachineConfig::predictor_key
    pub fn fingerprint(&self) -> String {
        let dep = |m: &DependenceMode| match m {
            DependenceMode::OracleSync => "oracle",
            DependenceMode::StoreSet => "storeset",
        };
        let cache = |c: &CacheConfig| format!("{}/{}/{}", c.size_bytes, c.ways, c.line_bytes);
        format!(
            "w{} ftc{} mt{} rob{} sch{} dv{} fu{} mp{} dec{} fq{} gi{} gh{} ras{} \
             l1i{} l1d{} l2{} lat{}/{}/{} mul{} sd{}-{} drd{} soh{} pf{}/{} \
             mem:{} reg:{} hrs{} ssi{} sq{} any{} rr{}/{} mc{} lw{}",
            self.width,
            self.fetch_tasks_per_cycle,
            self.max_tasks,
            self.rob_entries,
            self.scheduler_entries,
            self.divert_entries,
            self.fn_units,
            self.misprediction_penalty,
            self.decode_latency,
            self.fetch_queue_entries,
            self.gshare_index_bits,
            self.gshare_history_bits,
            self.ras_entries,
            cache(&self.l1i),
            cache(&self.l1d),
            cache(&self.l2),
            self.l1_hit_latency,
            self.l1_miss_latency,
            self.l2_miss_latency,
            self.mul_latency,
            self.min_spawn_distance,
            self.max_spawn_distance,
            self.divert_release_delay,
            self.spawn_overhead_cycles,
            self.profitability_feedback,
            self.profit_stall_threshold,
            dep(&self.memory_dependence),
            dep(&self.register_dependence),
            self.hint_register_slots,
            self.store_set_index_bits,
            self.squash_penalty,
            self.spawn_from_any_task,
            self.rob_reclamation,
            self.rob_reclaim_after,
            self.max_cycles,
            self.livelock_window,
        )
    }

    /// The subset of the configuration that determines the replayed
    /// branch-prediction outcomes: two configs with equal keys produce
    /// identical `PredictionTrace`s for the same trace, so the prepared
    /// trace can be shared between them (the superscalar baseline and the
    /// PolyFlow machine differ only in task geometry and therefore share
    /// a key). Must be kept in sync with what
    /// [`PredictionTrace::compute`](crate::PredictionTrace::compute)
    /// reads.
    pub fn predictor_key(&self) -> (usize, usize, usize) {
        (
            self.gshare_index_bits,
            self.gshare_history_bits,
            self.ras_entries,
        )
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::hpca07()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure8_parameters() {
        let c = MachineConfig::hpca07();
        assert_eq!(c.width, 8);
        assert_eq!(c.rob_entries, 512);
        assert_eq!(c.scheduler_entries, 64);
        assert_eq!(c.divert_entries, 128);
        assert_eq!(c.max_tasks, 8);
        assert_eq!(c.misprediction_penalty, 8);
        assert_eq!(c.l1i.size_bytes, 8 * 1024);
        assert_eq!(c.l1d.ways, 4);
        assert_eq!(c.l2.line_bytes, 128);
        assert!(c.is_multitask());
    }

    #[test]
    fn superscalar_differs_only_in_tasks() {
        let s = MachineConfig::superscalar();
        assert_eq!(s.max_tasks, 1);
        assert_eq!(s.fetch_tasks_per_cycle, 1);
        assert!(!s.is_multitask());
        let p = MachineConfig::hpca07();
        assert_eq!(s.rob_entries, p.rob_entries);
        assert_eq!(s.l2, p.l2);
    }

    #[test]
    fn fingerprint_refines_predictor_key() {
        let ss = MachineConfig::superscalar();
        let pf = MachineConfig::hpca07();
        // Shared predictor key (prepared-trace sharing) ...
        assert_eq!(ss.predictor_key(), pf.predictor_key());
        // ... but distinct fingerprints (distinct cached results).
        assert_ne!(ss.fingerprint(), pf.fingerprint());
        assert_eq!(pf.fingerprint(), MachineConfig::hpca07().fingerprint());
        let budgeted = MachineConfig {
            max_cycles: 100_000,
            ..MachineConfig::hpca07()
        };
        assert_ne!(budgeted.fingerprint(), pf.fingerprint());
        let storeset = MachineConfig {
            memory_dependence: DependenceMode::StoreSet,
            ..MachineConfig::hpca07()
        };
        assert_ne!(storeset.fingerprint(), pf.fingerprint());
    }

    #[test]
    fn cache_set_math() {
        let c = CacheConfig {
            size_bytes: 8 * 1024,
            ways: 2,
            line_bytes: 128,
        };
        assert_eq!(c.sets(), 32);
        let c = CacheConfig {
            size_bytes: 512 * 1024,
            ways: 8,
            line_bytes: 128,
        };
        assert_eq!(c.sets(), 512);
    }

    #[test]
    #[should_panic(expected = "no sets")]
    fn degenerate_cache_panics() {
        CacheConfig {
            size_bytes: 64,
            ways: 2,
            line_bytes: 64,
        }
        .sets();
    }
}
