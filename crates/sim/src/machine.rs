//! The trace-driven cycle model: fetch, dispatch, divert, issue, retire.
//!
//! One [`Machine::run`] replays a retirement [`Trace`] through the
//! PolyFlow microarchitecture of Figure 7:
//!
//! * **Tasks** partition the trace into contiguous intervals, oldest first.
//!   The tail (youngest) task may spawn: when it fetches a trigger PC its
//!   [`SpawnSource`] knows, and the target PC occurs in the trace within
//!   `max_spawn_distance` instructions, the tail task is split there
//!   (§3.2: spawning only from the tail task, oracle distance check).
//! * **Fetch** selects up to `fetch_tasks_per_cycle` stall-free tasks by
//!   biased ICount (fewest in-flight instructions first, §3.2) and fetches
//!   up to `width` instructions total, at most one taken control transfer
//!   per task per cycle. A mispredicted branch stalls *only its own task's
//!   fetch* until the branch resolves — control-equivalent tasks keep
//!   fetching, which is exactly the control-independence benefit the paper
//!   exploits. Instruction-cache misses stall the fetching task for the
//!   fill latency.
//! * **Dispatch** moves decoded instructions, oldest task first, into the
//!   shared ROB. Instructions with an inter-task source operand that has
//!   not yet been produced go to the **divert queue** instead of the
//!   scheduler (§3.1); they enter the scheduler once their producers have
//!   dispatched. No value prediction, no selective re-execution.
//! * **Issue** selects ready scheduler entries oldest-first onto the 8
//!   functional units; loads/stores access the cache hierarchy at issue.
//! * **Retire** drains up to `width` completed instructions per cycle in
//!   global trace order (the shared ROB retires architecturally in order)
//!   and feeds the retirement stream to the spawn source (training the
//!   reconvergence predictor online, §4.4).
//!
//! # Data-oriented core & cycle skipping
//!
//! The implementation is struct-of-arrays and event-driven: per-instruction
//! pipeline state lives in parallel arrays (`InstTable`) so the hot loops
//! touch dense cache lines; completions wake their consumers, a divert
//! entry's release gate is re-evaluated only when one of its producers
//! enters the scheduler, fetch skips a parked context with one compare,
//! and the cycle ledger is charged when a task's bucket changes rather
//! than every cycle. Cycles on which provably nothing can happen — no
//! retire, wakeup, release, decode, resume, or branch resolution — are
//! fast-forwarded in bulk ([`SimOptions::cycle_skip`]); they simply
//! extend the open ledger and stall spans. Results are bit-identical to
//! stepped execution, including the event stream and both watchdogs
//! (DESIGN.md §13 carries the argument).

use crate::account::{Bucket, CycleAccount};
use crate::branch_pred::PredictionTrace;
use crate::cache::Hierarchy;
use crate::config::MachineConfig;
use crate::error::SimError;
use crate::events::{SimEvent, TraceSink};
use crate::metrics::SimResult;
use crate::oracles::{
    ConsumerIndex, TraceOracles, KF_COND, KF_STOP, KF_STOP_PRED, K_FETCH_SHIFT, K_ISSUE_MASK,
    K_LOAD, K_MUL, K_STORE, K_TAKEN,
};
use crate::profile::{phase, PhaseProfile};
use crate::spawn_source::SpawnSource;
use crate::store_set::{DependenceMode, StoreSetPredictor};
use polyflow_isa::{Dataflow, Pc, PcIndex, Trace, TraceError, NO_PRODUCER};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

const NOT_YET: u64 = u64::MAX;
const OPEN_END: u32 = u32::MAX;
/// Saturation ceiling of the spawn-profitability counters.
const PROFIT_MAX: i8 = 7;

/// `InstTable` flag bits (one byte per instruction).
const F_DISPATCHED: u8 = 1 << 0;
const F_IN_DIVERT: u8 = 1 << 1;
const F_ISSUED: u8 = 1 << 2;
/// Load dispatched ignoring its (predicted-independent) inter-task memory
/// producer; a violation occurs if it issues first.
const F_MEM_SPEC: u8 = 1 << 3;
/// Register source slots dispatched ignoring their inter-task producer
/// (hint-entry model): a violation occurs if the instruction issues
/// before the producer completes.
const F_REG_SPEC0: u8 = 1 << 4;
const F_REG_SPEC1: u8 = 1 << 5;
/// Currently sitting in the scheduler (wakeup bookkeeping: heap entries
/// re-validate against this bit, so stale wakes are harmless).
const F_IN_SCHED: u8 = 1 << 6;
/// Member of the ready set: wakeups append an entry at most once, and
/// issue sorts the set once per issuing cycle.
const F_READY: u8 = 1 << 7;

/// Everything a run replays: the trace's [`TraceOracles`] plus the
/// branch-prediction outcomes under one predictor configuration.
///
/// Both parts are reference-counted, so a `PreparedTrace` is cheap to
/// clone and safe to share read-only across threads — the parallel sweep
/// harness builds one per (workload, predictor configuration) and fans
/// the policy cells out over it. The config-independent oracles are
/// shared *across* predictor configurations through one
/// [`TraceOracles`] ([`TraceOracles::prepare`]).
#[derive(Debug, Clone)]
pub struct PreparedTrace {
    oracles: Arc<TraceOracles>,
    predictions: Arc<PredictionTrace>,
}

impl PreparedTrace {
    /// Precomputes everything [`simulate`] needs. Clones the trace into
    /// shared ownership; [`PreparedTrace::with_oracles`] and
    /// [`TraceOracles::prepare`] share oracles the caller already holds.
    pub fn new(trace: &Trace, config: &MachineConfig) -> PreparedTrace {
        Self::from_oracles(Arc::new(TraceOracles::new(Arc::new(trace.clone()))), config)
    }

    /// Builds a prepared trace from already-computed dataflow and PC
    /// index, computing the rest of the [`TraceOracles`] and the
    /// branch-prediction replay (the sole config-dependent part; see
    /// [`MachineConfig::predictor_key`]).
    pub fn with_oracles(
        trace: Arc<Trace>,
        dataflow: Arc<Dataflow>,
        pc_index: Arc<PcIndex>,
        config: &MachineConfig,
    ) -> PreparedTrace {
        let oracles = TraceOracles::from_parts(trace, dataflow, pc_index);
        Self::from_oracles(Arc::new(oracles), config)
    }

    /// The prepared trace over shared `oracles`: computes only the
    /// branch-prediction replay under `config`.
    pub(crate) fn from_oracles(
        oracles: Arc<TraceOracles>,
        config: &MachineConfig,
    ) -> PreparedTrace {
        let predictions = Arc::new(PredictionTrace::from_oracles(&oracles, config));
        PreparedTrace {
            oracles,
            predictions,
        }
    }

    /// The trace being replayed.
    pub fn trace(&self) -> &Trace {
        self.oracles.trace()
    }

    /// Shared ownership of the trace being replayed.
    pub fn trace_arc(&self) -> Arc<Trace> {
        self.oracles.trace_arc()
    }

    /// Oracle dataflow (register and memory producers).
    pub fn dataflow(&self) -> &Dataflow {
        self.oracles.dataflow()
    }

    /// Shared ownership of the dataflow oracle.
    pub fn dataflow_arc(&self) -> Arc<Dataflow> {
        self.oracles.dataflow_arc()
    }

    /// Dynamic occurrences of each static PC.
    pub fn pc_index(&self) -> &PcIndex {
        self.oracles.pc_index()
    }

    /// Shared ownership of the PC occurrence index.
    pub fn pc_index_arc(&self) -> Arc<PcIndex> {
        self.oracles.pc_index_arc()
    }

    /// Replayed branch-prediction outcomes.
    pub fn predictions(&self) -> &PredictionTrace {
        &self.predictions
    }

    /// Inverted dataflow (who consumes each instruction's results).
    pub(crate) fn consumers(&self) -> &ConsumerIndex {
        self.oracles.consumers()
    }

    /// The trace's [`Trace::validate`] verdict, taken once when the
    /// oracles were built. Every run over it returns this as
    /// [`SimError::MalformedTrace`] instead of re-validating.
    pub(crate) fn validity(&self) -> Result<(), TraceError> {
        self.oracles.validity()
    }
}

/// Knobs of the simulation loop that do not model hardware — they change
/// how the run executes, never what it computes. Every option preserves
/// bit-identical [`SimResult`]s and event streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Fast-forward over cycles on which provably nothing can happen,
    /// charging the accounting buckets in bulk (on by default). Turning
    /// it off forces stepped execution — useful for differential tests
    /// and as a reference when debugging the skip logic itself.
    pub cycle_skip: bool,
    /// Time every pipeline stage on the host clock and return the split
    /// in [`SimTelemetry::phases`] (off by default). Off, the loop pays
    /// one pointer test per stage: no timers, no allocation.
    pub profile: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            cycle_skip: true,
            profile: false,
        }
    }
}

/// How a run executed (not what it computed): stepped vs fast-forwarded
/// cycle counts, and the per-phase host time when profiled. Returned by
/// [`simulate`]; purely observational.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimTelemetry {
    /// Cycles advanced in bulk by the cycle-skip fast path.
    pub skipped_cycles: u64,
    /// Cycles executed by a full pass through the pipeline stages.
    pub executed_cycles: u64,
    /// Number of fast-forward jumps taken.
    pub fast_forwards: u64,
    /// Host time per pipeline stage and the issue-stage counters, when
    /// [`SimOptions::profile`] asked for them.
    pub phases: Option<PhaseProfile>,
}

/// Reusable simulation buffers.
///
/// One [`simulate`] call over an `n`-instruction trace needs the
/// per-instruction state table (the dominant allocation — tens of
/// megabytes for the bundled workloads), the ready/divert/task
/// vectors, and the feedback tables. The run borrows them from its
/// `SimScratch` and hands them back, so a sweep that replays the same
/// traces under many policies allocates them once per worker thread
/// (each worker of the parallel sweep harness keeps one). Results are
/// bit-identical with or without scratch reuse — every buffer a run
/// reads before writing is reset before use.
#[derive(Debug, Default)]
pub struct SimScratch {
    inst: InstTable,
    tasks: Vec<Task>,
    divert: Vec<u32>,
    divert_filed: BinaryHeap<Reverse<(u64, u64, u32)>>,
    divert_due: BinaryHeap<Reverse<(u64, u32)>>,
    residue: Vec<u32>,
    ready_set: Vec<u32>,
    wake_heap: BinaryHeap<Reverse<(u64, u32)>>,
    wake_next: Vec<u32>,
    winners: Vec<(usize, usize)>,
    profit: Vec<(i8, u32)>,
    hints: std::collections::HashMap<Pc, (Vec<polyflow_isa::Reg>, bool)>,
}

impl SimScratch {
    /// Pre-sizes the per-instruction arenas for an `n`-instruction trace.
    /// Sweeps call this once per [`PreparedTrace`] so the dominant
    /// allocations happen before the first run instead of growing during
    /// it; purely an allocation hint, results are unaffected.
    pub fn reserve(&mut self, n: usize) {
        self.inst.reserve(n);
    }
}

/// Per-instruction pipeline state in struct-of-arrays layout: the issue
/// and divert paths read one dense `u64`/`u8` lane each instead of
/// striding over 40-byte structs.
#[derive(Debug, Default)]
struct InstTable {
    /// Cycle fetched (`NOT_YET` while unfetched).
    fetched_at: Vec<u64>,
    /// Cycle dispatched; read only under `F_DISPATCHED`.
    dispatched_at: Vec<u64>,
    /// Completion cycle (`NOT_YET` while unissued).
    done_at: Vec<u64>,
    /// Start index of the owning task at dispatch time; read only for
    /// entries in the divert queue.
    task_start: Vec<u32>,
    /// `F_*` bits.
    flags: Vec<u8>,
}

impl InstTable {
    /// Resets the lanes for an `n`-entry trace. `fetched_at`, `done_at`
    /// and the flags start unfetched: squash and reclamation read
    /// `fetched_at` of entries that were never fetched. `dispatched_at`
    /// and `task_start` are written before they are read, so they are
    /// only sized, and keep whatever an earlier run left in them.
    fn reset(&mut self, n: usize) {
        self.fetched_at.clear();
        self.fetched_at.resize(n, NOT_YET);
        self.done_at.clear();
        self.done_at.resize(n, NOT_YET);
        self.flags.clear();
        self.flags.resize(n, 0);
        if self.dispatched_at.len() < n {
            self.dispatched_at.resize(n, 0);
            self.task_start.resize(n, 0);
        }
    }

    fn reserve(&mut self, n: usize) {
        self.fetched_at
            .reserve(n.saturating_sub(self.fetched_at.len()));
        self.dispatched_at
            .reserve(n.saturating_sub(self.dispatched_at.len()));
        self.done_at.reserve(n.saturating_sub(self.done_at.len()));
        self.task_start
            .reserve(n.saturating_sub(self.task_start.len()));
        self.flags.reserve(n.saturating_sub(self.flags.len()));
    }

    /// Clears one instruction back to unfetched (squash/reclaim ranges).
    #[inline]
    fn reset_one(&mut self, i: usize) {
        self.fetched_at[i] = NOT_YET;
        self.done_at[i] = NOT_YET;
        self.flags[i] = 0;
    }

    #[inline(always)]
    fn flag(&self, i: usize, f: u8) -> bool {
        self.flags[i] & f != 0
    }

    /// Both register-slot speculation bits, in slot order.
    #[inline(always)]
    fn reg_speculative(&self, i: usize) -> [bool; 2] {
        [self.flag(i, F_REG_SPEC0), self.flag(i, F_REG_SPEC1)]
    }
}

#[derive(Debug)]
struct Task {
    start: u32,
    end: u32,
    fetch_next: u32,
    /// Fetch skips this task with one compare while `cycle <
    /// park_until`: nothing about it can change before then. An
    /// instruction-cache fill, spawn setup or squash recovery parks it
    /// until the wait runs out, a mispredicted branch until the earliest
    /// cycle the branch can resolve, and a completed fetch (`NOT_YET`)
    /// until reclamation reopens the interval.
    park_until: u64,
    waiting_branch: Option<u32>,
    /// Head of the fetch queue: the queue is always the contiguous range
    /// `[fq_head, fetch_next)` (fetch appends the next index, dispatch
    /// takes the oldest, a squash empties it).
    fq_head: u32,
    inflight: usize,
    last_fetch_line: u64,
    /// Dynamic task uid — index into [`CycleAccount::tasks`].
    uid: u32,
    /// This task's instructions currently sitting in the divert queue.
    divert_count: u32,
    /// The open fetch stall: its bucket (branch, icache, squash recovery
    /// or spawn setup) and its first stalled cycle. Fetch closes it when
    /// the stall ends — a squash, reclamation or the end of the run
    /// closes it early — and charges its length to the matching
    /// `SimResult` counter.
    fetch_stall: Option<(Bucket, u64)>,
    /// Structural-contention marker for this cycle: dispatch or fetch hit
    /// a full resource (cleared by the accounting pass).
    blocked: bool,
    /// The cycle-ledger bucket this task has been in since `since`; the
    /// span is charged when the bucket changes, when the task leaves, and
    /// at the end of the run.
    bucket: Bucket,
    since: u64,
    /// Trigger PC of the spawn this task performed as tail, if any; used
    /// by the profitability feedback.
    spawn_trigger: Option<Pc>,
    /// Trigger PC of the spawn that *created* this task (None for the
    /// initial task); keys the hint-entry register set.
    created_by: Option<Pc>,
    /// After a dependence-violation squash the task refetches in safe
    /// mode: every inter-task register dependence synchronizes, whether or
    /// not the hint entry names it. Prevents livelock when the entry's
    /// capacity cannot cover the task's dependence set.
    safe_mode: bool,
    /// Fetch-stall cycles accumulated since this task spawned.
    stall_since_spawn: u64,
    /// Whether the spawn's profitability has been evaluated.
    profit_evaluated: bool,
}

impl Task {
    /// A task whose interval starts at trace index `start`, created at
    /// cycle `cycle`.
    fn new(start: u32, cycle: u64) -> Task {
        Task {
            start,
            end: OPEN_END,
            fetch_next: start,
            park_until: 0,
            waiting_branch: None,
            fq_head: start,
            inflight: 0,
            last_fetch_line: u64::MAX,
            uid: 0,
            divert_count: 0,
            fetch_stall: None,
            blocked: false,
            bucket: Bucket::Retire,
            since: cycle,
            spawn_trigger: None,
            created_by: None,
            safe_mode: false,
            stall_since_spawn: 0,
            profit_evaluated: false,
        }
    }

    /// Instructions fetched but not yet dispatched.
    #[inline]
    fn fq_len(&self) -> usize {
        (self.fetch_next - self.fq_head) as usize
    }

    /// The oldest fetched, undispatched instruction, if any.
    #[inline]
    fn fq_front(&self) -> Option<u32> {
        (self.fq_head < self.fetch_next).then_some(self.fq_head)
    }
}

/// The cycle-level machine. Create one per run via [`simulate`].
struct Machine<'a> {
    cfg: &'a MachineConfig,
    trace: &'a Trace,
    dataflow: &'a Dataflow,
    pc_index: &'a PcIndex,
    predictions: &'a PredictionTrace,
    consumers: &'a ConsumerIndex,
    hier: Hierarchy,
    inst: InstTable,
    tasks: Vec<Task>,
    retire_ptr: usize,
    rob_used: usize,
    /// Scheduler occupancy. Membership is the `F_IN_SCHED` bit; only the
    /// squash paths and the post-mortem walk the members, over the
    /// in-flight window.
    sched_len: usize,
    /// The divert queue in push order, which is also its release order.
    /// Released entries stay behind as tombstones (their `F_IN_DIVERT`
    /// bit is clear) until they outnumber the live ones; `divert_live`
    /// counts the rest. Only the debug cross-check, the squash paths and
    /// the livelock post-mortem walk it.
    divert: Vec<u32>,
    /// Live entries of `divert`.
    divert_live: usize,
    /// Divert entries whose release gate is known, keyed by
    /// `(gate, dispatched_at, index)`. An entry's gate is the maximum of
    /// its producer terms; it becomes known (finite) when its last
    /// gating producer enters the scheduler and never moves after that,
    /// so each entry is filed once. Entries still waiting on a producer
    /// are in no heap: that producer's arrival files them.
    divert_filed: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Divert entries whose gate has opened, keyed by queue position
    /// `(dispatched_at, index)`: dispatch pushes oldest task first and
    /// each task in trace order, so that key is push order.
    divert_due: BinaryHeap<Reverse<(u64, u32)>>,
    /// Scheduler entries that are ready now but not yet issued, each once
    /// (`F_READY` marks members), in no particular order until issue
    /// sorts it oldest first. Maintained event-wise: completions wake
    /// their consumers, new entries join at enqueue time, and a full
    /// rebuild runs only while `sched_dirty` (after squash/reclaim).
    ready_set: Vec<u32>,
    /// Pending wakeups `(cycle, entry)`: the entry may become ready at
    /// that cycle. Wakes may be stale (the entry left the scheduler, or
    /// its ready-at moved) — they re-validate when popped.
    wake_heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Wakeups due exactly next cycle — the overwhelmingly common case
    /// (single-cycle ALU/store/L1-hit latencies). A flat buffer drained
    /// at the next issue call, skipping the heap round-trip. Every push
    /// site also marks activity, so the buffer is provably empty on any
    /// cycle the fast-forward inspects.
    wake_next: Vec<u32>,
    /// Issued entries a violation left behind in the scheduler (the
    /// re-issue quirk), possibly retired since: the ready-set rebuild
    /// reconsiders them, and the next successful issue sweeps any that
    /// did not re-issue, exactly like the stepped scan's retain did.
    /// Only these entries have both `F_IN_SCHED` and `F_ISSUED` set.
    residue: Vec<u32>,
    /// Per-cycle fetch schedule `(task index, inflight key)`, reused
    /// across `fetch` calls.
    winners: Vec<(usize, usize)>,
    cycle: u64,
    stats: SimResult,
    last_retire_cycle: u64,
    /// Profitability feedback state indexed by trigger [`Pc::index`]: a
    /// saturating counter (0..=PROFIT_MAX, optimistically initialized)
    /// and a suppression count used to periodically probe throttled
    /// spawn points. Grown on demand; an untouched PC reads as
    /// `(PROFIT_MAX, 0)`.
    profit: Vec<(i8, u32)>,
    /// Store-set memory-dependence predictor (store-set mode only).
    ssit: StoreSetPredictor,
    /// Consecutive cycles the oldest task has been blocked on a full ROB
    /// (drives the §6 reclamation extension).
    rob_blocked_streak: u64,
    /// Per-spawn-point register hint entries (hint-entry model): which
    /// architectural registers tasks from this trigger synchronize on,
    /// plus a saturation flag — once the dependence set overflows the
    /// entry, tasks from this trigger synchronize *everything* (they
    /// start in safe mode).
    hints: std::collections::HashMap<Pc, (Vec<polyflow_isa::Reg>, bool)>,
    /// The run's cycle-slot ledger (always on; see `crate::account`).
    account: CycleAccount,
    /// Structured-event consumer.
    sink: &'a mut dyn TraceSink,
    /// Cached `sink.enabled()`: when false, no event is built.
    trace_on: bool,
    /// Execution options (cycle skipping).
    opts: SimOptions,
    /// Stepped-vs-skipped cycle counts for this run.
    telemetry: SimTelemetry,
    /// Whether any machine state changed this cycle. A cycle that ends
    /// with this false will repeat identically until the next scheduled
    /// event, which is what licenses the fast-forward.
    activity: bool,
    /// The oldest task hit the ROB limit during this cycle's dispatch
    /// (feeds the reclamation countdown into the fast-forward).
    rob_blocked_this_cycle: bool,
    /// Earliest cycle any scheduler entry could become ready, valid when
    /// `!sched_dirty` (`NOT_YET` = never without a new event).
    sched_next_ready: u64,
    /// The scheduler scan must run: membership or producer completion
    /// times changed since `sched_next_ready` was computed.
    sched_dirty: bool,
    /// Cycle since which the idle contexts' ledger span runs: charged
    /// whenever the live-task count changes, and at the end of the run.
    idle_since: u64,
    /// Per-phase wall-clock timers ([`SimOptions::profile`]).
    prof: Option<Box<PhaseProfile>>,
}

/// Runs `prepared` through the machine described by `config`, spawning
/// tasks according to `source`: the one way to run the cycle model.
/// Returns the run's statistics and its [`SimTelemetry`].
///
/// * `scratch` donates the run's buffers and receives them back, even
///   when the run fails, so a sweep keeps one per worker thread; results
///   are bit-identical with or without reuse.
/// * `sink` receives the structured [`SimEvent`]s. Emission never feeds
///   back into simulation state, so the result is bit-identical for
///   every sink; with [`NullSink`](crate::NullSink) no event is built.
/// * `opts` changes how the run executes, never what it computes
///   ([`SimOptions`]).
///
/// A structurally malformed trace fails up front ([`Trace::validate`] →
/// [`SimError::MalformedTrace`], a verdict taken once when the
/// [`PreparedTrace`] was built), the watchdogs in [`MachineConfig`]
/// bound the run, and every formerly panicking invariant site returns
/// [`SimError::BrokenInvariant`].
///
/// Generic over the spawn source so each concrete source (`NoSpawn`,
/// `StaticSpawnSource`, `ReconvSpawnSource`) inlines into the fetch and
/// retire loops; a `&mut dyn SpawnSource` works too.
pub fn simulate<S: SpawnSource + ?Sized>(
    prepared: &PreparedTrace,
    config: &MachineConfig,
    source: &mut S,
    scratch: &mut SimScratch,
    sink: &mut dyn TraceSink,
    opts: SimOptions,
) -> Result<(SimResult, SimTelemetry), SimError> {
    let n = prepared.trace().len();
    if n == 0 {
        return Ok((SimResult::default(), SimTelemetry::default()));
    }
    prepared.validity()?;
    let mut inst = std::mem::take(&mut scratch.inst);
    inst.reset(n);
    let mut tasks = std::mem::take(&mut scratch.tasks);
    tasks.clear();
    tasks.push(Task::new(0, 0));
    let mut divert = std::mem::take(&mut scratch.divert);
    divert.clear();
    let mut divert_filed = std::mem::take(&mut scratch.divert_filed);
    divert_filed.clear();
    let mut divert_due = std::mem::take(&mut scratch.divert_due);
    divert_due.clear();
    let mut residue = std::mem::take(&mut scratch.residue);
    residue.clear();
    let mut ready_set = std::mem::take(&mut scratch.ready_set);
    ready_set.clear();
    let mut wake_heap = std::mem::take(&mut scratch.wake_heap);
    wake_heap.clear();
    let mut wake_next = std::mem::take(&mut scratch.wake_next);
    wake_next.clear();
    let mut winners = std::mem::take(&mut scratch.winners);
    winners.clear();
    let mut profit = std::mem::take(&mut scratch.profit);
    profit.clear();
    let mut hints = std::mem::take(&mut scratch.hints);
    hints.clear();
    let mut m = Machine {
        cfg: config,
        trace: prepared.trace(),
        dataflow: prepared.dataflow(),
        pc_index: prepared.pc_index(),
        predictions: prepared.predictions(),
        consumers: prepared.consumers(),
        hier: Hierarchy::new(config),
        inst,
        tasks,
        retire_ptr: 0,
        rob_used: 0,
        sched_len: 0,
        divert,
        divert_live: 0,
        divert_filed,
        divert_due,
        ready_set,
        wake_heap,
        wake_next,
        residue,
        winners,
        cycle: 0,
        stats: SimResult::default(),
        last_retire_cycle: 0,
        profit,
        ssit: StoreSetPredictor::new(config.store_set_index_bits),
        rob_blocked_streak: 0,
        hints,
        account: CycleAccount::new(config.max_tasks),
        trace_on: sink.enabled(),
        sink,
        opts,
        telemetry: SimTelemetry::default(),
        activity: false,
        rob_blocked_this_cycle: false,
        sched_next_ready: 0,
        sched_dirty: true,
        idle_since: 0,
        prof: opts.profile.then(|| Box::new(PhaseProfile::calibrated())),
    };
    let run = m.run(source);
    let mut telemetry = m.telemetry;
    telemetry.phases = m.prof.take().map(|mut p| {
        p.recalibrate();
        *p
    });
    let finish = m.finish_into(scratch);
    run?;
    Ok((finish?, telemetry))
}

/// Fixed-capacity biased-ICount selection: keeps the `cap` best
/// `(task index, key)` candidates sorted by key, older task winning
/// ties (insertion order is task order and equal keys insert *after*
/// existing ones, so the result matches a stable sort by key). Returns
/// the task index that lost arbitration by this insertion, if any.
#[inline]
fn icount_insert(
    winners: &mut Vec<(usize, usize)>,
    cap: usize,
    ti: usize,
    key: usize,
) -> Option<usize> {
    let pos = winners.partition_point(|&(_, k)| k <= key);
    if winners.len() < cap {
        winners.insert(pos, (ti, key));
        None
    } else if pos < cap {
        let evicted = winners.pop().map(|(t, _)| t);
        winners.insert(pos, (ti, key));
        evicted
    } else {
        Some(ti)
    }
}

impl Machine<'_> {
    fn run<S: SpawnSource + ?Sized>(&mut self, source: &mut S) -> Result<(), SimError> {
        let n = self.trace.len();
        let retire_hook = source.wants_retire();
        while self.retire_ptr < n {
            self.activity = false;
            self.rob_blocked_this_cycle = false;
            let mut mark = self.prof_mark();
            self.retire(source, retire_hook);
            self.prof_lap(&mut mark, phase::RETIRE);
            if self.retire_ptr >= n {
                break;
            }
            self.issue()?;
            self.prof_lap(&mut mark, phase::ISSUE);
            self.drain_divert()?;
            self.prof_lap(&mut mark, phase::DIVERT);
            self.dispatch();
            // §6 extension: reclaim ROB entries from the youngest task if
            // the oldest has been starved long enough.
            if self.cfg.rob_reclamation
                && self.rob_blocked_streak >= self.cfg.rob_reclaim_after
                && self.tasks.len() > 1
            {
                self.reclaim_youngest()?;
                self.rob_blocked_streak = 0;
            }
            if cfg!(debug_assertions) {
                self.assert_sched_count();
            }
            self.prof_lap(&mut mark, phase::DISPATCH);
            self.fetch(source);
            self.prof_lap(&mut mark, phase::FETCH);
            self.account_cycle();
            if self.opts.cycle_skip && !self.activity {
                self.fast_forward();
            }
            self.prof_lap(&mut mark, phase::ACCOUNT);
            self.telemetry.executed_cycles += 1;
            self.cycle += 1;
            if self.cycle - self.last_retire_cycle >= self.cfg.livelock_window {
                return Err(self.livelock_error());
            }
            if self.cycle >= self.cfg.max_cycles {
                return Err(SimError::CyclesExceeded {
                    max_cycles: self.cfg.max_cycles,
                    retired: self.retire_ptr as u64,
                    instructions: n as u64,
                });
            }
        }
        Ok(())
    }

    /// Starts a per-phase timing lap (profiling runs only).
    #[inline]
    fn prof_mark(&self) -> Option<Instant> {
        self.prof.as_ref().map(|_| Instant::now())
    }

    /// Closes the current lap into phase `idx` and starts the next one.
    #[inline]
    fn prof_lap(&mut self, mark: &mut Option<Instant>, idx: usize) {
        if let Some(m) = mark {
            if let Some(p) = &mut self.prof {
                p.lap(m, idx);
            }
        }
    }

    /// Computes the earliest future cycle at which anything can happen
    /// and jumps just short of it in one step. Only called when the cycle
    /// just executed changed no machine state, so every live task's
    /// ledger bucket and open fetch stall hold verbatim across the span —
    /// the skipped cycles simply extend the open spans, charged when they
    /// close — no events are due, and both watchdogs trip on exactly the
    /// cycles stepped execution would trip on (DESIGN.md §13 carries the
    /// completeness argument for the candidate set).
    fn fast_forward(&mut self) {
        let c = self.cycle;
        let mut next = NOT_YET;
        let mut consider = |at: u64| {
            if at < next {
                next = at;
            }
        };
        // ROB-head completion unblocks retirement.
        let head = self.inst.done_at[self.retire_ptr];
        if head != NOT_YET {
            consider(head);
        }
        // Scheduler wakeup. The cached earliest ready-at is exact on an
        // idle cycle: issue() always leaves it clean when nothing issues
        // (and the next-cycle wake buffer is provably empty — every push
        // site marks activity, which blocks the fast-forward).
        debug_assert!(self.wake_next.is_empty());
        if self.sched_len > 0 {
            debug_assert!(!self.sched_dirty);
            consider(self.sched_next_ready);
        }
        // Divert release: the earliest filed gate — only relevant while
        // the scheduler has room (a full scheduler blocks release
        // regardless, and frees via the scheduler wakeup above). Every
        // event that files a gate marks activity, so on an idle cycle
        // each filed gate lies in the future, and an open gate left
        // unreleased with room to spare means a zero release width:
        // step instead.
        if self.divert_live > 0 && self.sched_len < self.cfg.scheduler_entries {
            if !self.divert_due.is_empty() {
                return;
            }
            if let Some(&Reverse((gate, _, _))) = self.divert_filed.peek() {
                consider(gate);
            }
        }
        let n = self.trace.len() as u32;
        for t in &self.tasks {
            // Decode completion of the fetch-queue head enables dispatch.
            if let Some(front) = t.fq_front() {
                let at = self.inst.fetched_at[front as usize] + self.cfg.decode_latency;
                if at > c {
                    consider(at);
                }
            }
            if t.fetch_next >= t.end.min(n) {
                continue;
            }
            // Branch resolution reopens this task's fetch.
            if let Some(b) = t.waiting_branch {
                let done = self.inst.done_at[b as usize];
                if done != NOT_YET {
                    let resume = self.inst.fetched_at[b as usize] + self.cfg.misprediction_penalty;
                    consider(done.max(resume));
                }
                continue;
            }
            // Icache fill / squash recovery / spawn setup elapses.
            if c < t.park_until {
                consider(t.park_until);
            }
        }
        // ROB reclamation countdown (§6 extension): the blocked streak
        // grows by one per idle cycle until it reaches the threshold.
        if self.cfg.rob_reclamation && self.rob_blocked_this_cycle && self.tasks.len() > 1 {
            consider(
                c + self
                    .cfg
                    .rob_reclaim_after
                    .saturating_sub(self.rob_blocked_streak),
            );
        }
        // Never jump past a watchdog: both must trip at exactly the
        // cycle stepped execution would trip on, with identical state.
        let cap = self
            .last_retire_cycle
            .saturating_add(self.cfg.livelock_window)
            .min(self.cfg.max_cycles);
        let until = next.min(cap);
        if until == NOT_YET {
            // Nothing scheduled and no finite watchdog: spin exactly as
            // stepped execution would.
            return;
        }
        let k = until.saturating_sub(c + 1);
        if k == 0 {
            return;
        }
        if self.rob_blocked_this_cycle {
            self.rob_blocked_streak += k;
        }
        self.cycle += k;
        self.telemetry.skipped_cycles += k;
        self.telemetry.fast_forwards += 1;
    }

    /// Assembles the [`SimError::Livelock`] post-mortem: the stuck
    /// instruction's state, its owner task, the scheduler/divert heads,
    /// and the cycle-slot ledger (its open spans charged).
    fn livelock_error(&mut self) -> SimError {
        self.settle();
        let i = self.retire_ptr;
        let owner = self
            .tasks
            .iter()
            .enumerate()
            .find(|(_, t)| t.start as usize <= self.retire_ptr && (self.retire_ptr as u32) < t.end)
            .map(|(i, t)| {
                format!(
                    "task {i} [{}..{}) fetch_next {} fq {} wait {:?} park {} safe {}",
                    t.start,
                    t.end,
                    t.fetch_next,
                    t.fq_len(),
                    t.waiting_branch,
                    if t.park_until == NOT_YET {
                        "-".to_string()
                    } else {
                        t.park_until.to_string()
                    },
                    t.safe_mode
                )
            })
            .unwrap_or_else(|| "NO TASK".into());
        let mut dump = String::new();
        let scheduled: Vec<u32> = self
            .in_flight()
            .filter(|&i| self.inst.flag(i, F_IN_SCHED))
            .map(|i| i as u32)
            .take(6)
            .collect();
        for idx in scheduled {
            let prods: Vec<String> = self
                .producers(idx as usize)
                .map(|p| {
                    let pi = p as usize;
                    format!(
                        "{p}(d{} v{} done{})",
                        self.inst.flag(pi, F_DISPATCHED) as u8,
                        self.inst.flag(pi, F_IN_DIVERT) as u8,
                        (self.inst.done_at[pi] <= self.cycle) as u8
                    )
                })
                .collect();
            dump.push_str(&format!(
                "  sched {idx} spec{:?}/{} <- {:?}\n",
                self.inst.reg_speculative(idx as usize),
                self.inst.flag(idx as usize, F_MEM_SPEC) as u8,
                prods
            ));
        }
        for idx in self.divert_entries().take(4) {
            dump.push_str(&format!("  divert {idx}\n"));
        }
        let detail = format!(
            "retire_ptr {}, rob {}, sched {}, divert {}, tasks {}\nstuck inst: fetched_at {} dispatched {} in_divert {} issued {} done_at {} spec {:?}/{}\nowner: {owner}\n{dump}",
            self.retire_ptr, self.rob_used, self.sched_len,
            self.divert_live, self.tasks.len(),
            self.inst.fetched_at[i], self.inst.flag(i, F_DISPATCHED),
            self.inst.flag(i, F_IN_DIVERT), self.inst.flag(i, F_ISSUED),
            self.inst.done_at[i],
            self.inst.reg_speculative(i), self.inst.flag(i, F_MEM_SPEC),
        );
        let mut account = self.account.clone();
        account.cycles = self.cycle;
        SimError::Livelock {
            cycle: self.cycle,
            window: self.cfg.livelock_window,
            retired: self.retire_ptr as u64,
            account: Box::new(account),
            detail,
        }
    }

    /// Forwards `ev` to the sink when tracing is enabled. Never feeds
    /// back into timing.
    fn record(&mut self, ev: SimEvent) {
        if self.trace_on {
            self.sink.event(&ev);
        }
    }

    /// End-of-cycle accounting: classifies each live task's slot of this
    /// cycle into exactly one [`Bucket`] (see `crate::account` for the
    /// taxonomy and priority). A task's ledger span is charged only when
    /// its bucket changes, and `StallBegin`/`StallEnd` events mark those
    /// transitions. Pure bookkeeping — never feeds back into timing.
    fn account_cycle(&mut self) {
        let c = self.cycle;
        for ti in 0..self.tasks.len() {
            let t = &mut self.tasks[ti];
            let bucket = match t.fetch_stall {
                Some((b, from)) if from <= c => b,
                _ if t.divert_count > 0 => Bucket::DivertWait,
                _ if t.blocked => Bucket::Contention,
                _ => Bucket::Retire,
            };
            t.blocked = false;
            let prev = t.bucket;
            if bucket == prev {
                continue;
            }
            let uid = t.uid;
            self.charge_span(ti, c);
            self.tasks[ti].bucket = bucket;
            if prev.is_stall() {
                self.record(SimEvent::StallEnd {
                    cycle: c,
                    task: uid,
                    bucket: prev,
                });
            }
            if bucket.is_stall() {
                self.record(SimEvent::StallBegin {
                    cycle: c,
                    task: uid,
                    bucket,
                });
            }
        }
    }

    /// Charges task `ti`'s open ledger span — every cycle from `since` up
    /// to `end`, exclusive — to its current bucket.
    fn charge_span(&mut self, ti: usize, end: u64) {
        let t = &mut self.tasks[ti];
        let k = end - t.since;
        t.since = end;
        if k > 0 {
            self.account.charge(t.uid, t.bucket, k);
            if let Some(p) = &mut self.prof {
                p.ledger_charges += 1;
            }
        }
    }

    /// Charges the idle contexts' span up to this cycle. Called just
    /// before the live-task count changes, and at the end of the run.
    fn charge_idle_span(&mut self) {
        let k = self.cycle - self.idle_since;
        self.idle_since = self.cycle;
        let idle = self.cfg.max_tasks.saturating_sub(self.tasks.len()) as u64;
        if k > 0 && idle > 0 {
            self.account.charge_idle(idle * k);
            if let Some(p) = &mut self.prof {
                p.ledger_charges += 1;
            }
        }
    }

    /// Closes task `ti`'s open fetch stall at cycle `end` (exclusive),
    /// charging its cycles to the matching stall counter and to the
    /// task's stall-since-spawn tally.
    fn close_fetch_stall(&mut self, ti: usize, end: u64) {
        let t = &mut self.tasks[ti];
        let Some((bucket, from)) = t.fetch_stall.take() else {
            return;
        };
        let k = end.saturating_sub(from);
        t.stall_since_spawn += k;
        let stats = &mut self.stats;
        let counter = match bucket {
            Bucket::BranchStall => &mut stats.fetch_stall_branch_cycles,
            Bucket::IcacheStall => &mut stats.fetch_stall_icache_cycles,
            Bucket::SquashRecovery => &mut stats.squash_recovery_cycles,
            _ => &mut stats.spawn_setup_cycles,
        };
        *counter += k;
    }

    /// Task `ti` leaves the machine this cycle (retired, squashed or
    /// reclaimed): closes its fetch stall and its ledger span.
    fn end_task(&mut self, ti: usize) {
        self.close_fetch_stall(ti, self.cycle);
        self.charge_span(ti, self.cycle);
    }

    /// Charges every open span up to the current cycle, so the ledger
    /// and the stall counters cover exactly `cycle` cycles. Idempotent.
    fn settle(&mut self) {
        for ti in 0..self.tasks.len() {
            self.end_task(ti);
        }
        self.charge_idle_span();
    }

    fn finish_into(mut self, scratch: &mut SimScratch) -> Result<SimResult, SimError> {
        self.settle();
        let mut stats = self.stats;
        stats.cycles = self.cycle.max(1);
        stats.instructions = self.trace.len() as u64;
        debug_assert!(
            self.retire_ptr < self.trace.len()
                || stats.cycles >= crate::limits::bound(self.trace, self.dataflow, self.cfg),
            "run finished in {} cycles, under its dataflow-height bound",
            stats.cycles
        );
        let mut account = self.account;
        account.cycles = self.cycle;
        // Always-on (not just debug): `sum(buckets) == cycles × contexts`
        // is the fuzz harness's core invariant, and one pass over the
        // bucket array is noise next to the run itself.
        let check = account.check();
        stats.account = account;
        stats.branch_mispredicts = self.predictions.cond_mispredicts();
        stats.indirect_mispredicts = self.predictions.indirect_mispredicts();
        stats.l1i_misses = self.hier.l1i().misses();
        stats.l1d_misses = self.hier.l1d().misses();
        stats.l2_misses = self.hier.l2().misses();
        scratch.inst = self.inst;
        scratch.tasks = self.tasks;
        scratch.divert = self.divert;
        scratch.divert_filed = self.divert_filed;
        scratch.divert_due = self.divert_due;
        scratch.residue = self.residue;
        scratch.ready_set = self.ready_set;
        scratch.wake_heap = self.wake_heap;
        scratch.wake_next = self.wake_next;
        scratch.winners = self.winners;
        scratch.profit = self.profit;
        scratch.hints = self.hints;
        match check {
            Ok(()) => Ok(stats),
            Err(detail) => Err(SimError::AccountingViolation { detail }),
        }
    }

    /// All producers of `idx` (register sources plus, for loads, the
    /// producing store).
    #[inline]
    fn producers(&self, idx: usize) -> impl Iterator<Item = u32> {
        self.dataflow
            .row(idx)
            .into_iter()
            .filter(|&p| p != NO_PRODUCER)
    }

    // ---- retire ------------------------------------------------------------

    fn retire<S: SpawnSource + ?Sized>(&mut self, source: &mut S, retire_hook: bool) {
        let n = self.trace.len();
        let mut retired = 0;
        while retired < self.cfg.width && self.retire_ptr < n {
            let i = self.retire_ptr;
            if !(self.inst.flag(i, F_DISPATCHED) && self.inst.done_at[i] <= self.cycle) {
                break;
            }
            if retire_hook {
                source.on_retire(&self.trace.entry(i));
            }
            self.rob_used -= 1;
            self.tasks[0].inflight -= 1;
            self.retire_ptr += 1;
            retired += 1;
            self.last_retire_cycle = self.cycle;
            // Pop tasks whose interval is fully retired.
            while self.tasks.len() > 1 && self.retire_ptr as u32 >= self.tasks[0].end {
                debug_assert_eq!(self.tasks[0].inflight, 0);
                self.charge_idle_span();
                self.end_task(0);
                self.tasks.remove(0);
            }
        }
        if retired > 0 {
            self.activity = true;
            self.record(SimEvent::RetireBatch {
                cycle: self.cycle,
                count: retired as u32,
                retire_ptr: self.retire_ptr as u32,
            });
        }
    }

    // ---- issue ---------------------------------------------------------------

    /// The cycle at which scheduler entry `i` becomes ready: the max
    /// completion time over its non-speculative producer slots
    /// (speculative slots never gate readiness; an unissued producer
    /// contributes `NOT_YET` — the entry is woken by the consumer walk
    /// when that producer issues).
    #[inline]
    fn ready_at(&self, i: usize) -> u64 {
        let row = self.dataflow.row(i);
        let f = self.inst.flags[i];
        let mut at = 0;
        for (p, spec) in row.into_iter().zip([F_REG_SPEC0, F_REG_SPEC1, F_MEM_SPEC]) {
            if p != NO_PRODUCER && f & spec == 0 {
                at = at.max(self.inst.done_at[p as usize]);
            }
        }
        at
    }

    /// Adds `idx` to the ready set (idempotent — wakeups can duplicate
    /// when an entry is already ready through a speculative slot).
    #[inline]
    fn ready_insert(&mut self, idx: u32) {
        let f = &mut self.inst.flags[idx as usize];
        if *f & F_READY == 0 {
            *f |= F_READY;
            self.ready_set.push(idx);
        }
    }

    /// Empties the ready set.
    fn ready_clear(&mut self) {
        for &idx in &self.ready_set {
            self.inst.flags[idx as usize] &= !F_READY;
        }
        self.ready_set.clear();
    }

    /// Trace indices that may hold in-flight state: from the ROB head to
    /// the furthest any task has fetched.
    fn in_flight(&self) -> std::ops::Range<usize> {
        let end = self.tasks.iter().map(|t| t.fetch_next).max().unwrap_or(0);
        self.retire_ptr..(end as usize).max(self.retire_ptr)
    }

    /// Wakeup bookkeeping for an entry that just entered the scheduler
    /// (dispatch or divert release): ready now → into the ready set,
    /// ready next cycle → the flat next-cycle buffer, ready later → a
    /// heap wake, waiting on an unissued producer → nothing (that
    /// producer's issue wakes it). With a dirty scheduler the next
    /// rebuild covers it instead.
    fn sched_entry_enqueued(&mut self, idx: u32) {
        if self.sched_dirty {
            return;
        }
        let at = self.ready_at(idx as usize);
        if at <= self.cycle {
            self.ready_insert(idx);
        } else if at == self.cycle + 1 {
            self.wake_next.push(idx);
        } else if at != NOT_YET {
            self.wake_heap.push(Reverse((at, idx)));
        }
    }

    /// Rebuilds the ready set and wakeup heap from a full scheduler scan.
    /// Runs only while `sched_dirty` — after a squash or reclamation, and
    /// at run start. This is also what preserves the post-violation
    /// re-issue semantics: entries that issued right before a violation
    /// stay in the scheduler, and the rebuild reconsiders them exactly as
    /// the stepped scan would.
    fn rebuild_ready(&mut self) {
        self.ready_clear();
        self.wake_heap.clear();
        self.wake_next.clear();
        let window = self.in_flight();
        // Residue entries that retired before the sweep sit below the
        // window.
        let retired = (0..self.residue.len())
            .map(|k| self.residue[k] as usize)
            .filter(|&i| i < window.start)
            .collect::<Vec<_>>();
        for i in retired.into_iter().chain(window) {
            if !self.inst.flag(i, F_IN_SCHED) {
                continue;
            }
            let at = self.ready_at(i);
            if at <= self.cycle {
                self.ready_insert(i as u32);
            } else if at != NOT_YET {
                self.wake_heap.push(Reverse((at, i as u32)));
            }
        }
        self.sched_dirty = false;
        if let Some(p) = &mut self.prof {
            p.rebuilds += 1;
            p.rebuild_entries += self.sched_len as u64;
        }
    }

    fn issue(&mut self) -> Result<(), SimError> {
        if self.sched_dirty {
            self.rebuild_ready();
        } else {
            // Drain due wakeups into the ready set. Stale wakes (the
            // entry left the scheduler, or its ready-at moved) simply
            // re-validate and drop or re-queue. The flat next-cycle
            // buffer first: its entries were pushed last cycle with a
            // due time of exactly this cycle.
            if !self.wake_next.is_empty() {
                let due = std::mem::take(&mut self.wake_next);
                if let Some(p) = &mut self.prof {
                    p.wakes_popped += due.len() as u64;
                }
                for &q in &due {
                    let qi = q as usize;
                    if self.inst.flags[qi] & (F_IN_SCHED | F_ISSUED) != F_IN_SCHED {
                        continue;
                    }
                    let now = self.ready_at(qi);
                    if now <= self.cycle {
                        self.ready_insert(q);
                    } else if now != NOT_YET {
                        self.wake_heap.push(Reverse((now, q)));
                    }
                }
                let mut due = due;
                due.clear();
                self.wake_next = due;
            }
            while let Some(&Reverse((at, q))) = self.wake_heap.peek() {
                if at > self.cycle {
                    break;
                }
                self.wake_heap.pop();
                if let Some(p) = &mut self.prof {
                    p.wakes_popped += 1;
                }
                let qi = q as usize;
                if self.inst.flags[qi] & (F_IN_SCHED | F_ISSUED) != F_IN_SCHED {
                    continue;
                }
                let now = self.ready_at(qi);
                if now <= self.cycle {
                    self.ready_insert(q);
                } else if now != NOT_YET {
                    self.wake_heap.push(Reverse((now, q)));
                }
            }
        }
        let lanes = self.cfg.fn_units.min(self.cfg.width);
        if lanes == 0 || self.ready_set.is_empty() {
            self.sched_next_ready = if self.ready_set.is_empty() {
                self.wake_heap
                    .peek()
                    .map(|&Reverse((at, _))| at)
                    .unwrap_or(NOT_YET)
            } else {
                // Ready entries but no lane to take them: the stepped
                // loop re-examines every cycle, so never fast-forward.
                self.cycle
            };
            return Ok(());
        }
        self.activity = true;
        if let Some(p) = &mut self.prof {
            p.issue_cycles += 1;
        }
        // Oldest `lanes` ready entries issue; the rest stay ready. The
        // batch is the sorted set's prefix, frozen here, exactly like the
        // stepped scan's truncated ready list (a violation mid-batch
        // rebuilds everything anyway). Everything in the set beyond the
        // batch is younger than its last entry, so a retraction during
        // the batch only ever touches the rest.
        self.ready_set.sort_unstable();
        let take = lanes.min(self.ready_set.len());
        let batch_last = self.ready_set[take - 1];
        let mut pos = 0;
        while pos < take {
            let idx = self.ready_set[pos];
            pos += 1;
            let i = idx as usize;
            // One flags load serves every check below: nothing between
            // here and the `F_ISSUED` write mutates this entry's flags
            // (the violation paths return early).
            let f = self.inst.flags[i];
            // A speculative load issuing before its true producer store is
            // a dependence violation: squash its task and all younger
            // tasks, train the predictor, and stop issuing this cycle
            // (younger scheduler entries may have just been squashed).
            if f & F_MEM_SPEC != 0 {
                if let Some(p) = self.dataflow.mem_producer(i) {
                    if self.inst.done_at[p as usize] > self.cycle {
                        let pc = self.trace.pcs()[i];
                        self.ssit.train_violation(pc);
                        let r = self.squash_task_containing(idx);
                        self.leave_residue(pos - 1, take);
                        return r;
                    }
                }
            }
            // Register-dependence violation (hint-entry model): an
            // unsynchronized inter-task register source whose producer is
            // still in flight.
            if f & (F_REG_SPEC0 | F_REG_SPEC1) != 0 {
                let reg_spec = [f & F_REG_SPEC0 != 0, f & F_REG_SPEC1 != 0];
                let [ra, rb] = self.dataflow.reg_producers(i);
                let srcs = self.trace.inst(i).srcs();
                for (slot, p) in [(0, ra), (1, rb)] {
                    if !reg_spec[slot] {
                        continue;
                    }
                    let Some(p) = p else { continue };
                    if self.inst.done_at[p as usize] > self.cycle {
                        self.stats.register_violations += 1;
                        self.train_hint(idx, srcs[slot]);
                        let r = self.squash_task_containing(idx);
                        self.leave_residue(pos - 1, take);
                        return r;
                    }
                }
            }
            let cons = self.consumers;
            let latency = match cons.meta[i] & K_ISSUE_MASK {
                K_LOAD => self.hier.access_data(self.trace.mem_addrs()[i]),
                K_STORE => {
                    // Warm the line so later loads hit (implicit
                    // store-to-load forwarding through the L1).
                    self.hier.access_data(self.trace.mem_addrs()[i]);
                    1
                }
                K_MUL => self.cfg.mul_latency,
                _ => 1,
            };
            let re_issue = f & F_ISSUED != 0;
            // The entry leaves the ready set and the scheduler as it
            // issues (a violation later in the batch puts it back).
            self.inst.flags[i] = (f & !(F_READY | F_IN_SCHED)) | F_ISSUED;
            let done = self.cycle + latency;
            self.inst.done_at[i] = done;
            // Event-driven wakeup: schedule a readiness check at this
            // completion for every consumer currently waiting in the
            // scheduler.
            if let Some(p) = &mut self.prof {
                p.issued += 1;
            }
            for &q in cons.of(i) {
                let qf = self.inst.flags[q as usize];
                if qf & (F_IN_SCHED | F_ISSUED) == F_IN_SCHED {
                    if done == self.cycle + 1 {
                        self.wake_next.push(q);
                    } else {
                        self.wake_heap.push(Reverse((done, q)));
                    }
                    if let Some(p) = &mut self.prof {
                        p.wakes_pushed += 1;
                    }
                    if re_issue
                        && q > batch_last
                        && qf & F_READY != 0
                        && self.ready_at(q as usize) > self.cycle
                    {
                        // A post-violation re-issue moved this completion
                        // later; it retracts the consumer's readiness.
                        self.inst.flags[q as usize] &= !F_READY;
                        self.ready_set.retain(|&x| x != q);
                    }
                }
            }
        }
        // The whole batch issued and left the scheduler. No wider pass
        // unless a prior violation left issued entries behind (the
        // re-issue quirk) — then one sweep over them reproduces the
        // stepped scan's retain verbatim.
        self.sched_len -= take;
        self.ready_set.drain(..take);
        if !self.residue.is_empty() {
            let flags = &mut self.inst.flags;
            for &i in &self.residue {
                let f = &mut flags[i as usize];
                if *f & (F_IN_SCHED | F_ISSUED) == F_IN_SCHED | F_ISSUED {
                    *f &= !F_IN_SCHED;
                    self.sched_len -= 1;
                }
            }
            self.residue.clear();
            // The sweep can evict entries still parked in the ready set
            // (issued right before a violation, re-inserted by the dirty
            // rebuild, then not taken for lack of lanes). Drop them too,
            // or a later batch would issue a non-scheduler entry.
            self.ready_set.retain(|&idx| {
                let f = &mut flags[idx as usize];
                if *f & F_IN_SCHED == 0 {
                    *f &= !F_READY;
                    return false;
                }
                true
            });
        }
        Ok(())
    }

    /// A violation stopped the batch (the first `take` entries of the
    /// sorted ready set) after its first `issued` entries issued. Those
    /// the squash spared go back into the scheduler, issued — the
    /// re-issue quirk: the rebuild reconsiders them and the next
    /// successful batch sweeps the rest; the squashed ones leave its
    /// count. The batch's other entries were squashed with the violator.
    fn leave_residue(&mut self, issued: usize, take: usize) {
        for k in 0..issued {
            let i = self.ready_set[k];
            let f = &mut self.inst.flags[i as usize];
            if *f & F_DISPATCHED != 0 {
                *f |= F_IN_SCHED;
                self.residue.push(i);
            } else {
                self.sched_len -= 1;
            }
        }
        self.ready_set.drain(..take);
    }

    // ---- divert queue ---------------------------------------------------------

    /// The live divert entries, in queue order.
    fn divert_entries(&self) -> impl Iterator<Item = u32> + use<'_> {
        let flags = &self.inst.flags;
        self.divert
            .iter()
            .copied()
            .filter(move |&i| flags[i as usize] & F_IN_DIVERT != 0)
    }

    /// The cycle divert entry `q`'s release gate opens, or `NOT_YET`
    /// while a producer it waits on has not entered the scheduler;
    /// `in_divert` says which producers still sit in the divert queue.
    /// The gate is the max over producers (§3.1): a producer still in the
    /// divert queue blocks release regardless of task (releasing early
    /// would recreate the consumer-camps-in-scheduler deadlock); an
    /// intra-task producer never gates; an inter-task producer opens
    /// "some time after" its dispatch — the synchronization overhead of
    /// the conservative dependence handling.
    #[inline]
    fn gate_of(&self, q: usize, in_divert: impl Fn(usize) -> bool) -> u64 {
        let task_start = self.inst.task_start[q];
        let mut open_at = 0u64;
        for p in self.producers(q) {
            let pi = p as usize;
            let at = if in_divert(pi) {
                NOT_YET
            } else if p >= task_start {
                0
            } else if self.inst.flag(pi, F_DISPATCHED) {
                self.inst.dispatched_at[pi] + self.cfg.divert_release_delay
            } else {
                NOT_YET
            };
            open_at = open_at.max(at);
            if open_at == NOT_YET {
                break;
            }
        }
        open_at
    }

    /// Evaluates divert entry `q`'s gate and files it once known: among
    /// the due entries when it has opened and lies after `releasing` (the
    /// queue position of a release in progress this cycle), else under
    /// its gate cycle — an open gate filed there comes due next cycle,
    /// which is when an in-order scan that had already passed `q` would
    /// release it.
    fn file_divert(&mut self, q: u32, releasing: Option<(u64, u32)>) {
        if let Some(p) = &mut self.prof {
            p.divert_examined += 1;
        }
        let qi = q as usize;
        let gate = self.gate_of(qi, |p| self.inst.flag(p, F_IN_DIVERT));
        if gate == NOT_YET {
            return;
        }
        let pos = (self.inst.dispatched_at[qi], q);
        match releasing {
            Some(at) if gate <= self.cycle && pos > at => self.divert_due.push(Reverse(pos)),
            _ => self.divert_filed.push(Reverse((gate, pos.0, q))),
        }
    }

    /// Producer `p` just entered the scheduler (dispatched there, or
    /// released from the divert queue at queue position `releasing`):
    /// files every divert entry that consumes it and whose gate that
    /// opens. Only such an arrival can move a gate, and only from "not
    /// yet" to a fixed cycle.
    fn divert_producer_arrived(&mut self, p: u32, releasing: Option<(u64, u32)>) {
        let cons = self.consumers;
        let mut last = u32::MAX;
        for &q in cons.of(p as usize) {
            // A consumer reading `p` through two slots appears twice.
            if q != last && self.inst.flag(q as usize, F_IN_DIVERT) {
                self.file_divert(q, releasing);
            }
            last = q;
        }
    }

    /// An instruction leaves the divert queue once every inter-task
    /// producer has been dispatched into the scheduler (§3.1). Each cycle
    /// releases the entries whose gate has opened, in queue order, up to
    /// `width` and the scheduler's free room; the rest stay due. A
    /// release can open a later entry's gate in the same cycle, exactly
    /// as an in-order scan of the queue would find it.
    fn drain_divert(&mut self) -> Result<(), SimError> {
        if self.divert_live == 0 {
            return Ok(());
        }
        let expected = cfg!(debug_assertions).then(|| self.scan_divert());
        let mut released_list = Vec::new();
        while let Some(&Reverse((gate, at, q))) = self.divert_filed.peek() {
            if gate > self.cycle {
                break;
            }
            self.divert_filed.pop();
            self.divert_due.push(Reverse((at, q)));
        }
        let mut released = 0;
        while let Some(&Reverse(pos)) = self.divert_due.peek() {
            if released >= self.cfg.width || self.sched_len >= self.cfg.scheduler_entries {
                break;
            }
            self.divert_due.pop();
            let idx = pos.1;
            debug_assert!(self.inst.flag(idx as usize, F_IN_DIVERT));
            let task_start = self.inst.task_start[idx as usize];
            let f = &mut self.inst.flags[idx as usize];
            *f = (*f & !F_IN_DIVERT) | F_IN_SCHED;
            let Some(owner) = self.tasks.iter_mut().find(|t| t.start == task_start) else {
                return Err(SimError::BrokenInvariant {
                    cycle: self.cycle,
                    detail: format!(
                        "divert entry {idx} has no live owner task (start {task_start})"
                    ),
                });
            };
            debug_assert!(owner.divert_count > 0);
            owner.divert_count -= 1;
            self.divert_live -= 1;
            self.sched_len += 1;
            if cfg!(debug_assertions) {
                self.assert_sched_entry_sane(idx, "divert-release");
                released_list.push(idx);
            }
            self.sched_entry_enqueued(idx);
            released += 1;
            self.divert_producer_arrived(idx, Some(pos));
        }
        if let Some(p) = &mut self.prof {
            p.divert_released += released as u64;
        }
        if let Some(expected) = expected {
            debug_assert_eq!(
                released_list, expected,
                "cycle {}: divert release differs from the in-order scan",
                self.cycle
            );
        }
        if released > 0 {
            self.activity = true;
            // Tombstones are compacted once they outnumber live entries.
            if self.divert.len() > 2 * self.divert_live + 16 {
                let flags = &self.inst.flags;
                self.divert
                    .retain(|&i| flags[i as usize] & F_IN_DIVERT != 0);
            }
        }
        Ok(())
    }

    /// Debug cross-check: the entries an in-order scan of the whole
    /// divert queue releases this cycle — each entry's gate evaluated
    /// afresh over the state the scan has reached, stopping at `width`
    /// releases or a full scheduler.
    fn scan_divert(&self) -> Vec<u32> {
        let mut released: Vec<u32> = Vec::new();
        for idx in self.divert_entries() {
            if released.len() >= self.cfg.width
                || self.sched_len + released.len() >= self.cfg.scheduler_entries
            {
                break;
            }
            let gate = self.gate_of(idx as usize, |p| {
                self.inst.flag(p, F_IN_DIVERT) && !released.contains(&(p as u32))
            });
            if gate <= self.cycle {
                released.push(idx);
            }
        }
        released
    }

    // ---- dispatch ---------------------------------------------------------------

    fn dispatch(&mut self) {
        let mut budget = self.cfg.width;
        let ntasks = self.tasks.len();
        for ti in 0..ntasks {
            if budget == 0 {
                break;
            }
            while let Some(idx) = self.tasks[ti].fq_front() {
                if self.inst.fetched_at[idx as usize] + self.cfg.decode_latency > self.cycle {
                    break; // still decoding
                }
                // ROB space, reserving `width` entries for the oldest task
                // so retirement can always make progress.
                let rob_limit = if ti == 0 {
                    self.cfg.rob_entries
                } else {
                    self.cfg.rob_entries.saturating_sub(self.cfg.width)
                };
                if self.rob_used >= rob_limit {
                    if ti == 0 {
                        self.rob_blocked_streak += 1;
                        self.rob_blocked_this_cycle = true;
                    }
                    self.tasks[ti].blocked = true;
                    break;
                }
                // Divert if any inter-task producer has not yet produced
                // its value (§3.1). Dependents of diverted instructions
                // chain into the divert queue as well: this keeps the
                // scheduler self-draining (every scheduler entry's
                // producers are in the scheduler, issued, or done, so the
                // oldest unissued entry is always eventually ready).
                //
                // In store-set mode the memory producer of a load only
                // gates dispatch when the predictor says so; otherwise
                // the load proceeds speculatively and may be squashed.
                let task_start = self.tasks[ti].start;
                let cycle = self.cycle;
                let row = self.dataflow.row(idx as usize);
                let needs_divert;
                let reg_speculative;
                let mem_speculative;
                // `NO_PRODUCER` is `u32::MAX`, so the row's minimum is its
                // oldest producer, and no producer passes the test.
                if row[0].min(row[1]).min(row[2]) >= task_start {
                    // Fast path — every producer is intra-task (the common
                    // case): no inter-task dependence exists, so nothing
                    // can synchronize or speculate and the predictors see
                    // no traffic. Only the unconditional divert-chaining
                    // rule can still gate dispatch.
                    needs_divert = row
                        .into_iter()
                        .any(|p| p != NO_PRODUCER && self.inst.flag(p as usize, F_IN_DIVERT));
                    reg_speculative = [false, false];
                    mem_speculative = false;
                } else {
                    let [ra, rb, mem_producer] = row.map(|p| (p != NO_PRODUCER).then_some(p));
                    let pc = self.trace.pcs()[idx as usize];
                    let predict_mem_sync = match self.cfg.memory_dependence {
                        DependenceMode::OracleSync => true,
                        DependenceMode::StoreSet => self.ssit.predicts_dependent(pc),
                    };
                    // The divert-chaining term is unconditional (a producer
                    // in the divert queue always gates, or the scheduler
                    // stops self-draining); prediction only modulates
                    // whether an *inter-task* dependence synchronizes.
                    let gates = |p: u32, sync: bool, inst: &InstTable| {
                        inst.flag(p as usize, F_IN_DIVERT)
                            || (sync && p < task_start && inst.done_at[p as usize] > cycle)
                    };
                    // Hint-entry register model: an inter-task register
                    // dependence only synchronizes when the creating spawn
                    // point's hint entry names the register. One hint-table
                    // lookup per instruction (not per register slot),
                    // skipped entirely while the table is empty or the mode
                    // synchronizes everything anyway.
                    let srcs = self.trace.inst(idx as usize).srcs();
                    let always_sync = self.cfg.register_dependence == DependenceMode::OracleSync
                        || self.tasks[ti].safe_mode;
                    let trigger = self.tasks[ti].created_by;
                    let hint = if always_sync || self.hints.is_empty() {
                        None
                    } else {
                        trigger.and_then(|t| self.hints.get(&t))
                    };
                    let reg_sync = |slot: usize| -> bool {
                        if always_sync {
                            return true;
                        }
                        if trigger.is_none() {
                            return true; // the initial task never speculates
                        }
                        let Some(r) = srcs[slot] else { return true };
                        hint.map(|(set, saturated)| *saturated || set.contains(&r))
                            .unwrap_or(false)
                    };
                    let ra_sync = reg_sync(0);
                    let rb_sync = reg_sync(1);
                    // A register slot gates dispatch when its producer is
                    // in the divert queue (the chaining rule —
                    // unconditional, or the scheduler stops self-draining)
                    // or when it is an inter-task dependence the hint entry
                    // says to synchronize.
                    let reg_gate = |p: u32, sync: bool, this: &Self| -> bool {
                        this.inst.flag(p as usize, F_IN_DIVERT)
                            || (sync && p < task_start && this.inst.done_at[p as usize] > cycle)
                    };
                    needs_divert = ra.map(|p| reg_gate(p, ra_sync, self)).unwrap_or(false)
                        || rb.map(|p| reg_gate(p, rb_sync, self)).unwrap_or(false)
                        || mem_producer
                            .map(|p| gates(p, predict_mem_sync, &self.inst))
                            .unwrap_or(false);
                    // Register slots proceeding despite an unresolved
                    // inter-task producer are speculative.
                    let reg_spec = |sync: bool, p: Option<u32>, this: &Self| -> bool {
                        !sync
                            && p.map(|p| {
                                p < task_start
                                    && !this.inst.flag(p as usize, F_IN_DIVERT)
                                    && this.inst.done_at[p as usize] > cycle
                            })
                            .unwrap_or(false)
                    };
                    reg_speculative = [reg_spec(ra_sync, ra, self), reg_spec(rb_sync, rb, self)];
                    // Speculative load: an inter-task memory producer
                    // exists, is not done, and the predictor chose not to
                    // synchronize.
                    mem_speculative = self.cfg.memory_dependence == DependenceMode::StoreSet
                        && !predict_mem_sync
                        && mem_producer
                            .map(|p| {
                                p < task_start
                                    && !self.inst.flag(p as usize, F_IN_DIVERT)
                                    && self.inst.done_at[p as usize] > self.cycle
                            })
                            .unwrap_or(false);
                    // Train down predicted syncs whose producer was long
                    // done.
                    if self.cfg.memory_dependence == DependenceMode::StoreSet && predict_mem_sync {
                        if let Some(p) = mem_producer {
                            if p < task_start && self.inst.done_at[p as usize] <= self.cycle {
                                self.ssit.train_unnecessary(pc);
                                // One confidence decay per attempt cycle: a
                                // repeat of this cycle is not a no-op even
                                // when dispatch then blocks, so it must
                                // never be fast-forwarded over.
                                self.activity = true;
                            }
                        }
                    }
                }
                if needs_divert {
                    if self.divert_live >= self.cfg.divert_entries {
                        self.tasks[ti].blocked = true;
                        break;
                    }
                    self.divert.push(idx);
                    self.divert_live += 1;
                    let mut f = F_DISPATCHED | F_IN_DIVERT;
                    if mem_speculative {
                        f |= F_MEM_SPEC;
                    }
                    if reg_speculative[0] {
                        f |= F_REG_SPEC0;
                    }
                    if reg_speculative[1] {
                        f |= F_REG_SPEC1;
                    }
                    self.inst.flags[idx as usize] = f;
                    self.inst.dispatched_at[idx as usize] = self.cycle;
                    self.inst.task_start[idx as usize] = task_start;
                    self.stats.diverted += 1;
                    self.tasks[ti].divert_count += 1;
                    self.file_divert(idx, None);
                    self.record(SimEvent::Divert {
                        cycle: self.cycle,
                        task: self.tasks[ti].uid,
                        index: idx,
                    });
                } else {
                    // Reserve scheduler slots: one for divert release, one
                    // for the oldest task.
                    let sched_limit = if ti == 0 {
                        self.cfg.scheduler_entries.saturating_sub(1)
                    } else {
                        self.cfg.scheduler_entries.saturating_sub(2)
                    };
                    if self.sched_len >= sched_limit {
                        self.tasks[ti].blocked = true;
                        break;
                    }
                    self.sched_len += 1;
                    let mut f = F_DISPATCHED | F_IN_SCHED;
                    if mem_speculative {
                        f |= F_MEM_SPEC;
                    }
                    if reg_speculative[0] {
                        f |= F_REG_SPEC0;
                    }
                    if reg_speculative[1] {
                        f |= F_REG_SPEC1;
                    }
                    self.inst.flags[idx as usize] = f;
                    self.inst.dispatched_at[idx as usize] = self.cycle;
                    if cfg!(debug_assertions) {
                        self.assert_sched_entry_sane(idx, "dispatch");
                    }
                    self.sched_entry_enqueued(idx);
                    // A dispatch only moves divert release gates when some
                    // divert entry waits on this instruction as a producer
                    // (its gate term goes from "not yet" to `dispatched_at
                    // + delay`); the consumer index makes that exact. A
                    // task dispatches in trace order, so only a consumer
                    // in a younger task can already sit in the queue.
                    if self.divert_live > 0
                        && self
                            .consumers
                            .of(idx as usize)
                            .last()
                            .is_some_and(|&q| q >= self.tasks[ti].end)
                    {
                        self.divert_producer_arrived(idx, None);
                    }
                }
                self.activity = true;
                self.rob_used += 1;
                self.tasks[ti].fq_head += 1;
                budget -= 1;
                if budget == 0 {
                    break;
                }
            }
        }
    }

    // ---- fetch ---------------------------------------------------------------

    fn fetch<S: SpawnSource + ?Sized>(&mut self, source: &mut S) {
        let n = self.trace.len() as u32;
        // Determine eligibility, clear resolved branch waits, and run the
        // biased-ICount arbitration (§3.2: fewest in-flight instructions
        // first, older task winning ties) in one pass: `winners` keeps
        // the best `fetch_tasks_per_cycle` candidates via bounded
        // insertion — no per-cycle sort. Tasks that lose arbitration take
        // a structural stall (not a pipeline one). A parked task costs
        // one compare.
        let cap = self.cfg.fetch_tasks_per_cycle;
        let c = self.cycle;
        let mut winners = std::mem::take(&mut self.winners);
        winners.clear();
        let mut visits = 0;
        for ti in 0..self.tasks.len() {
            if c < self.tasks[ti].park_until {
                continue;
            }
            visits += 1;
            let end = self.tasks[ti].end.min(n);
            if self.tasks[ti].fetch_next >= end {
                // Fetch is complete: score the spawn once, and park until
                // reclamation reopens the interval.
                self.close_fetch_stall(ti, c);
                self.evaluate_profit(ti);
                self.tasks[ti].park_until = NOT_YET;
                continue;
            }
            // An icache fill, spawn setup or squash recovery has run out:
            // its stall span ends here.
            if matches!(self.tasks[ti].fetch_stall, Some((b, _)) if b != Bucket::BranchStall) {
                self.close_fetch_stall(ti, c);
            }
            if let Some(b) = self.tasks[ti].waiting_branch {
                let done = self.inst.done_at[b as usize];
                let resume = self.inst.fetched_at[b as usize] + self.cfg.misprediction_penalty;
                if done <= c && c >= resume {
                    self.close_fetch_stall(ti, c);
                    self.tasks[ti].waiting_branch = None;
                    self.activity = true;
                } else {
                    let t = &mut self.tasks[ti];
                    if t.fetch_stall.is_none() {
                        t.fetch_stall = Some((Bucket::BranchStall, c));
                    }
                    // The branch cannot resolve before both its
                    // completion (once issued) and the penalty.
                    t.park_until = if done == NOT_YET {
                        resume
                    } else {
                        done.max(resume)
                    };
                    continue;
                }
            }
            if self.tasks[ti].fq_len() >= self.cfg.fetch_queue_entries {
                self.tasks[ti].blocked = true;
                continue;
            }
            if let Some(loser) = icount_insert(&mut winners, cap, ti, self.tasks[ti].inflight) {
                self.tasks[loser].blocked = true;
            }
        }
        if let Some(p) = &mut self.prof {
            p.fetch_visits += visits;
        }

        let mut budget = self.cfg.width;
        let line_shift = self.cfg.l1i.line_bytes.trailing_zeros();
        let (meta, pcs) = (&self.consumers.meta, self.trace.pcs());
        let mut head = 0;
        while head < winners.len() {
            let ti = winners[head].0;
            head += 1;
            while budget > 0 && self.tasks[ti].fq_len() < self.cfg.fetch_queue_entries {
                let idx = self.tasks[ti].fetch_next;
                if idx >= self.tasks[ti].end.min(n) {
                    break;
                }
                let meta = meta[idx as usize];
                let byte_addr = pcs[idx as usize].byte_addr();
                // Instruction cache: access per line transition (line
                // sizes are power-of-two, enforced by `CacheConfig`).
                let line = byte_addr >> line_shift;
                if line != self.tasks[ti].last_fetch_line {
                    let lat = self.hier.access_ifetch(byte_addr);
                    // Even a hit reorders the replacement state, so the
                    // access itself counts as activity.
                    self.activity = true;
                    if lat > self.cfg.l1_hit_latency {
                        // Stalled from the next cycle until the fill lands.
                        let t = &mut self.tasks[ti];
                        t.park_until = self.cycle + lat;
                        t.fetch_stall = Some((Bucket::IcacheStall, self.cycle + 1));
                        t.last_fetch_line = line;
                        break;
                    }
                    self.tasks[ti].last_fetch_line = line;
                }
                // Fetch the instruction (appending it to the fetch queue).
                self.inst.fetched_at[idx as usize] = self.cycle;
                self.tasks[ti].inflight += 1;
                self.tasks[ti].fetch_next += 1;
                budget -= 1;
                self.activity = true;

                // Task Spawn Unit: only the tail task spawns (§3.2),
                // unless the §6 any-task extension is enabled.
                if (ti == self.tasks.len() - 1 || self.cfg.spawn_from_any_task)
                    && self.try_spawn(ti, idx, source)
                {
                    // A non-tail insertion at ti+1 shifts every later
                    // task index; fix up the rest of this cycle's
                    // fetch schedule.
                    for w in winners[head..].iter_mut() {
                        if w.0 > ti {
                            w.0 += 1;
                        }
                    }
                }

                // Control flow: at most one taken transfer per task per
                // cycle; mispredictions stall this task until resolution.
                match (meta >> K_FETCH_SHIFT) & 0b11 {
                    KF_COND => {
                        if self.predictions.mispredicted(idx as usize) {
                            self.tasks[ti].waiting_branch = Some(idx);
                            break;
                        }
                        if meta & K_TAKEN != 0 {
                            break;
                        }
                    }
                    KF_STOP_PRED => {
                        if self.predictions.mispredicted(idx as usize) {
                            self.tasks[ti].waiting_branch = Some(idx);
                        }
                        break;
                    }
                    KF_STOP => break,
                    _ => {}
                }
            }
        }
        self.winners = winners;
    }

    /// Debug invariant: a scheduler entry must never wait on a producer
    /// that sits in the divert queue unless the corresponding slot is
    /// speculative (otherwise the scheduler stops self-draining).
    #[allow(dead_code)]
    fn assert_sched_entry_sane(&self, idx: u32, site: &str) {
        let i = idx as usize;
        let [ra, rb] = self.dataflow.reg_producers(i);
        let mem = self.dataflow.mem_producer(i);
        let check = |p: Option<u32>, spec: bool, what: &str| {
            if let Some(p) = p {
                assert!(
                    spec || !self.inst.flag(p as usize, F_IN_DIVERT),
                    "cycle {}: sched entry {idx} ({site}) waits on {what} producer {p}                      which is in the divert queue (consumer spec {:?}/{})",
                    self.cycle,
                    self.inst.reg_speculative(i),
                    self.inst.flag(i, F_MEM_SPEC)
                );
            }
        };
        check(ra, self.inst.flag(i, F_REG_SPEC0), "reg0");
        check(rb, self.inst.flag(i, F_REG_SPEC1), "reg1");
        check(mem, self.inst.flag(i, F_MEM_SPEC), "mem");
    }

    /// Debug cross-check, once per stepped cycle after every stage that
    /// moves scheduler entries (issue and its sweep, divert release,
    /// dispatch, the squash and reclamation discards): `sched_len` equals
    /// the number of `F_IN_SCHED` entries — the in-flight window's, plus
    /// residue entries that retired before the sweep — and every issued
    /// entry still in the scheduler is on the residue list, the only
    /// place the sweep looks.
    fn assert_sched_count(&self) {
        let window = self.in_flight();
        let mut retired: Vec<u32> = self
            .residue
            .iter()
            .copied()
            .filter(|&i| (i as usize) < window.start && self.inst.flag(i as usize, F_IN_SCHED))
            .collect();
        retired.sort_unstable();
        retired.dedup();
        let mut members = retired.len();
        for (i, &f) in (window.start..).zip(&self.inst.flags[window]) {
            if f & F_IN_SCHED != 0 {
                members += 1;
                assert!(
                    f & F_ISSUED == 0 || self.residue.contains(&(i as u32)),
                    "cycle {}: issued entry {i} stays in the scheduler off the residue list",
                    self.cycle
                );
            }
        }
        assert_eq!(
            self.sched_len, members,
            "cycle {}: scheduler count drifted from its members",
            self.cycle
        );
    }

    /// Adds `reg` to the hint entry of the spawn point that created the
    /// task containing `idx` (capacity-limited: a full entry records a
    /// capacity miss instead — the spawn point will keep violating until
    /// the profitability feedback throttles it).
    fn train_hint(&mut self, idx: u32, reg: Option<polyflow_isa::Reg>) {
        let Some(reg) = reg else { return };
        let Some(task) = self.tasks.iter().find(|t| t.start <= idx && idx < t.end) else {
            return;
        };
        let Some(trigger) = task.created_by else {
            return;
        };
        let entry = self.hints.entry(trigger).or_default();
        if entry.0.contains(&reg) {
            return;
        }
        if entry.0.len() >= self.cfg.hint_register_slots {
            // The 8-byte entry cannot name another register: saturate it
            // so future tasks from this trigger synchronize conservatively
            // (and pay the full divert serialization for every inter-task
            // register — the hint-capacity cost of dependence-rich spawn
            // points such as loop iterations).
            self.stats.hint_capacity_misses += 1;
            entry.1 = true;
            return;
        }
        entry.0.push(reg);
    }

    /// Resets every fetched instruction at or beyond trace index `start`
    /// to unfetched and drops it from the scheduler and the divert queue
    /// (the squash and reclamation paths). Producers precede consumers,
    /// so no surviving divert entry's gate depends on what is dropped.
    /// Returns the number of instructions discarded.
    fn discard_from(&mut self, start: u32) -> u64 {
        let max_fetched = self
            .tasks
            .iter()
            .map(|t| t.fetch_next)
            .max()
            .unwrap_or(start);
        let mut discarded = 0u64;
        for i in start..max_fetched {
            if self.inst.fetched_at[i as usize] != NOT_YET {
                if self.inst.flag(i as usize, F_DISPATCHED) {
                    self.rob_used -= 1;
                }
                if self.inst.flag(i as usize, F_IN_SCHED) {
                    self.sched_len -= 1;
                }
                self.inst.reset_one(i as usize);
                discarded += 1;
            }
        }
        self.divert.retain(|&i| i < start);
        self.divert_filed.retain(|&Reverse((_, _, i))| i < start);
        self.divert_due.retain(|&Reverse((_, i))| i < start);
        self.divert_live = self.divert_entries().count();
        self.activity = true;
        self.sched_dirty = true;
        discarded
    }

    /// Drops the youngest task entirely, refunding its ROB/scheduler/
    /// divert occupancy; the new tail's interval reopens so the discarded
    /// region is refetched later. This is the §6 "reclaim resources from
    /// younger threads" extension.
    fn reclaim_youngest(&mut self) -> Result<(), SimError> {
        let last = self.tasks.len() - 1;
        debug_assert!(last > 0);
        let discarded = self.discard_from(self.tasks[last].start);
        let invariant = |cycle, what: &str| SimError::BrokenInvariant {
            cycle,
            detail: what.to_string(),
        };
        self.charge_idle_span();
        self.end_task(last);
        let popped = self
            .tasks
            .pop()
            .ok_or_else(|| invariant(self.cycle, "reclamation with no tail task"))?;
        let tail = self
            .tasks
            .last_mut()
            .ok_or_else(|| invariant(self.cycle, "reclamation left no older task"))?;
        tail.end = OPEN_END;
        // A tail parked on a completed fetch has an interval again.
        if tail.park_until == NOT_YET {
            tail.park_until = 0;
        }
        self.stats.rob_reclaims += 1;
        self.record(SimEvent::Squash {
            cycle: self.cycle,
            task: popped.uid,
            discarded,
            reclaim: true,
        });
        Ok(())
    }

    /// Squashes the task containing trace index `idx` and every younger
    /// task (§3.1: "data-dependence violations lead to squashes of the
    /// violating task, as well as all tasks beyond it"). The violating
    /// task refetches from its start after the recovery penalty.
    fn squash_task_containing(&mut self, idx: u32) -> Result<(), SimError> {
        let Some(ti) = self
            .tasks
            .iter()
            .position(|t| t.start <= idx && idx < t.end)
        else {
            return Err(SimError::BrokenInvariant {
                cycle: self.cycle,
                detail: format!("in-flight instruction {idx} belongs to no task"),
            });
        };
        if ti == 0 {
            return Err(SimError::BrokenInvariant {
                cycle: self.cycle,
                detail: format!(
                    "speculative instruction {idx} belongs to the oldest task, \
                     which must never speculate"
                ),
            });
        }
        // Discard all in-flight state at or beyond the violating task.
        let discarded = self.discard_from(self.tasks[ti].start);
        // Drop younger tasks entirely; reset the violating task, which
        // stalls in squash recovery from this cycle on.
        if ti + 1 < self.tasks.len() {
            self.charge_idle_span();
            for tj in ti + 1..self.tasks.len() {
                self.end_task(tj);
            }
            self.tasks.truncate(ti + 1);
        }
        self.close_fetch_stall(ti, self.cycle);
        let penalty = self.cfg.squash_penalty;
        let t = &mut self.tasks[ti];
        t.fetch_next = t.start;
        t.end = OPEN_END; // it is the tail again
        t.safe_mode = true; // conservative refetch: no more speculation
        t.fq_head = t.start;
        t.inflight = 0;
        t.waiting_branch = None;
        t.park_until = self.cycle + penalty;
        t.fetch_stall = (penalty > 0).then_some((Bucket::SquashRecovery, self.cycle));
        t.last_fetch_line = u64::MAX;
        t.spawn_trigger = None;
        t.stall_since_spawn = 0;
        t.profit_evaluated = false;
        t.divert_count = 0;
        t.blocked = false;
        let uid = t.uid;
        self.stats.squashes += 1;
        self.stats.squashed_instructions += discarded;
        self.record(SimEvent::Squash {
            cycle: self.cycle,
            task: uid,
            discarded,
            reclaim: false,
        });
        Ok(())
    }

    /// The profitability state of trigger `pc`.
    #[inline]
    fn profit_entry(&mut self, pc: Pc) -> &mut (i8, u32) {
        let i = pc.index();
        if self.profit.len() <= i {
            self.profit.resize(i + 1, (PROFIT_MAX, 0));
        }
        &mut self.profit[i]
    }

    /// Scores a completed spawner: if it stalled while its spawned task
    /// ran, the spawn hid latency (profitable); if it sailed through, the
    /// spawn only fragmented the fetch stream.
    fn evaluate_profit(&mut self, ti: usize) {
        if !self.cfg.profitability_feedback || self.tasks[ti].profit_evaluated {
            return;
        }
        let Some(trigger) = self.tasks[ti].spawn_trigger else {
            return;
        };
        self.tasks[ti].profit_evaluated = true;
        let profitable = self.tasks[ti].stall_since_spawn >= self.cfg.profit_stall_threshold;
        let entry = self.profit_entry(trigger);
        if profitable {
            // One latency-hiding instance outweighs several quiet ones: a
            // spawn point that pays off on mispredicted instances must
            // stay armed even when the branch usually predicts well.
            entry.0 = (entry.0 + 4).min(PROFIT_MAX);
        } else {
            entry.0 = (entry.0 - 1).max(0);
        }
    }

    /// Attempts a spawn from task `ti` at the fetch of trace index `idx`.
    /// Returns true if a new task was inserted (always directly after
    /// `ti`).
    fn try_spawn<S: SpawnSource + ?Sized>(&mut self, ti: usize, idx: u32, source: &mut S) -> bool {
        let e = self.trace.entry(idx as usize);
        let Some((target, kind)) = source.spawn_at(&e) else {
            return false;
        };
        if self.tasks.len() >= self.cfg.max_tasks {
            self.stats.spawns_rejected_contexts += 1;
            return false;
        }
        // Dynamic profitability feedback (§3.1): throttle spawn points
        // whose spawners never stall afterwards, probing occasionally so
        // phase changes can re-enable them.
        if self.cfg.profitability_feedback {
            let entry = self.profit_entry(e.pc);
            if entry.0 == 0 {
                entry.1 += 1;
                if !entry.1.is_multiple_of(16) {
                    self.stats.spawns_rejected_unprofitable += 1;
                    return false;
                }
            }
        }
        let n = self.trace.len() as u32;
        let Some(tidx) = self.pc_index.next_at_or_after(target, idx + 1) else {
            self.stats.spawns_rejected_distance += 1;
            return false;
        };
        if tidx >= n
            || tidx - idx > self.cfg.max_spawn_distance
            || tidx - idx < self.cfg.min_spawn_distance
        {
            self.stats.spawns_rejected_distance += 1;
            return false;
        }
        // A non-tail spawner (any-task extension) may only split its own
        // interval: the target must fall before the spawner's current end,
        // otherwise the region already belongs to a younger task.
        let old_end = self.tasks[ti].end;
        if tidx >= old_end {
            self.stats.spawns_rejected_distance += 1;
            return false;
        }
        // Split the spawner's interval at `tidx`; the new context becomes
        // fetchable after the spawn overhead elapses.
        self.tasks[ti].end = tidx;
        self.tasks[ti].spawn_trigger = Some(e.pc);
        self.tasks[ti].stall_since_spawn = 0;
        self.tasks[ti].profit_evaluated = false;
        let mut t = Task::new(tidx, self.cycle);
        t.end = old_end;
        t.created_by = Some(e.pc);
        // Tasks from a saturated hint entry synchronize everything.
        t.safe_mode = self
            .hints
            .get(&e.pc)
            .map(|(_, saturated)| *saturated)
            .unwrap_or(false);
        // The creation cycle is itself spawn-setup time: the new context
        // exists but cannot fetch until the overhead elapses.
        let overhead = self.cfg.spawn_overhead_cycles;
        t.park_until = self.cycle + overhead;
        t.fetch_stall = (overhead > 0).then_some((Bucket::SpawnSetup, self.cycle));
        t.uid = self.account.add_task(tidx, e.pc, kind, self.cycle);
        let uid = t.uid;
        self.charge_idle_span();
        self.tasks.insert(ti + 1, t);
        self.stats.spawns.add(kind);
        self.stats.max_live_tasks = self.stats.max_live_tasks.max(self.tasks.len());
        self.stats.spawn_log.push(crate::metrics::SpawnEvent {
            cycle: self.cycle,
            trigger: e.pc,
            target,
            target_index: tidx,
            kind,
            live_tasks: self.tasks.len() as u8,
        });
        self.record(SimEvent::Spawn {
            cycle: self.cycle,
            task: uid,
            trigger: e.pc,
            target,
            target_index: tidx,
            kind,
            live_tasks: self.tasks.len() as u8,
        });
        true
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::NullSink;
    use crate::spawn_source::{NoSpawn, StaticSpawnSource};
    use polyflow_core::{Policy, ProgramAnalysis};
    use polyflow_isa::{execute_window, AluOp, Cond, Program, ProgramBuilder, Reg};

    fn counted_loop(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.bind_label(top);
        b.alui(AluOp::Add, Reg::R2, Reg::R2, 1);
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, iters, top);
        b.halt();
        b.end_function();
        b.build().unwrap()
    }

    /// One [`simulate`] run on a fresh scratch, with no event sink and
    /// the default options.
    fn try_sim<S: SpawnSource + ?Sized>(
        prepared: &PreparedTrace,
        cfg: &MachineConfig,
        source: &mut S,
    ) -> Result<SimResult, SimError> {
        let mut scratch = SimScratch::default();
        simulate(
            prepared,
            cfg,
            source,
            &mut scratch,
            &mut NullSink,
            SimOptions::default(),
        )
        .map(|(r, _)| r)
    }

    /// [`try_sim`], panicking with the rendered error.
    fn sim<S: SpawnSource + ?Sized>(
        prepared: &PreparedTrace,
        cfg: &MachineConfig,
        source: &mut S,
    ) -> SimResult {
        try_sim(prepared, cfg, source).unwrap_or_else(|e| panic!("{e}"))
    }

    fn sim_baseline(p: &Program, window: u64) -> SimResult {
        let trace = execute_window(p, window).unwrap().trace;
        let cfg = MachineConfig::superscalar();
        let prepared = PreparedTrace::new(&trace, &cfg);
        sim(&prepared, &cfg, &mut NoSpawn)
    }

    #[test]
    fn empty_trace_is_trivial() {
        let trace = Trace::new();
        let cfg = MachineConfig::superscalar();
        let prepared = PreparedTrace::new(&trace, &cfg);
        let r = sim(&prepared, &cfg, &mut NoSpawn);
        assert_eq!(r.instructions, 0);
    }

    #[test]
    fn superscalar_retires_everything() {
        let p = counted_loop(100);
        let r = sim_baseline(&p, 100_000);
        // li + 100 iterations x (add, add, li r28, br) + halt.
        assert_eq!(r.instructions, 402);
        assert!(r.cycles > 0);
        assert!(r.ipc() > 0.1, "IPC {}", r.ipc());
        assert!(r.ipc() <= 8.0, "IPC cannot exceed width");
        assert_eq!(r.total_spawns(), 0);
    }

    #[test]
    fn ipc_is_plausible_for_serial_dependence_chain() {
        // Every instruction depends on the previous: IPC near (just above) 1
        // is impossible to beat... actually the increments of r2 and r1
        // are two independent chains, so IPC can approach 2-3.
        let p = counted_loop(500);
        let r = sim_baseline(&p, 100_000);
        assert!(r.ipc() > 0.5 && r.ipc() < 8.0, "IPC {}", r.ipc());
    }

    #[test]
    fn polyflow_with_no_spawns_matches_superscalar_cycles_closely() {
        let p = counted_loop(200);
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let ss_cfg = MachineConfig::superscalar();
        let pf_cfg = MachineConfig::hpca07();
        let prep_ss = PreparedTrace::new(&trace, &ss_cfg);
        let prep_pf = PreparedTrace::new(&trace, &pf_cfg);
        let a = sim(&prep_ss, &ss_cfg, &mut NoSpawn);
        let b = sim(&prep_pf, &pf_cfg, &mut NoSpawn);
        // One task, no spawns: the machines are identical.
        assert_eq!(a.cycles, b.cycles);
    }

    /// A loop whose body contains a hard-to-predict hammock: postdominator
    /// spawning should beat the superscalar.
    fn hard_hammock_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        let els = b.fresh_label("els");
        let join = b.fresh_label("join");
        // r10 = pseudo-random via LCG; branch on low bit.
        b.li(Reg::R10, 12345);
        b.li(Reg::R1, 0);
        b.bind_label(top);
        b.li(Reg::R11, 1103515245);
        b.alu(AluOp::Mul, Reg::R10, Reg::R10, Reg::R11);
        b.alui(AluOp::Add, Reg::R10, Reg::R10, 12345);
        b.alui(AluOp::Srl, Reg::R12, Reg::R10, 16);
        b.alui(AluOp::And, Reg::R12, Reg::R12, 1);
        b.br_imm(Cond::Eq, Reg::R12, 0, els);
        // then: long-ish computation
        for _ in 0..6 {
            b.alui(AluOp::Add, Reg::R3, Reg::R3, 1);
        }
        b.jmp(join);
        b.bind_label(els);
        for _ in 0..6 {
            b.alui(AluOp::Add, Reg::R4, Reg::R4, 1);
        }
        b.bind_label(join);
        // independent work after the join
        for _ in 0..4 {
            b.alui(AluOp::Add, Reg::R5, Reg::R5, 1);
        }
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, 400, top);
        b.halt();
        b.end_function();
        b.build().unwrap()
    }

    #[test]
    fn hammock_spawning_beats_superscalar_on_hard_branches() {
        let p = hard_hammock_program();
        let trace = execute_window(&p, 200_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);

        let ss_cfg = MachineConfig::superscalar();
        let prep = PreparedTrace::new(&trace, &ss_cfg);
        let base = sim(&prep, &ss_cfg, &mut NoSpawn);

        let pf_cfg = MachineConfig::hpca07();
        let prep_pf = PreparedTrace::new(&trace, &pf_cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
        let pf = sim(&prep_pf, &pf_cfg, &mut src);

        assert!(pf.total_spawns() > 0, "no spawns happened");
        let speedup = pf.speedup_percent_over(&base);
        assert!(
            speedup > 5.0,
            "expected speedup from hammock spawning, got {speedup:.1}% \
             (base {} cycles, pf {} cycles, {} spawns)",
            base.cycles,
            pf.cycles,
            pf.total_spawns()
        );
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // Replaying different traces/policies through one SimScratch must
        // give exactly the results of fresh-allocation runs.
        let p1 = hard_hammock_program();
        let p2 = counted_loop(300);
        let t1 = execute_window(&p1, 150_000).unwrap().trace;
        let t2 = execute_window(&p2, 150_000).unwrap().trace;
        let ss = MachineConfig::superscalar();
        let pf = MachineConfig::hpca07();
        let analysis = ProgramAnalysis::analyze(&p1);

        let mut scratch = SimScratch::default();
        for _ in 0..2 {
            for (trace, cfg) in [(&t1, &ss), (&t2, &ss), (&t1, &pf)] {
                let prep = PreparedTrace::new(trace, cfg);
                let fresh = sim(&prep, cfg, &mut NoSpawn);
                let reused = simulate(
                    &prep,
                    cfg,
                    &mut NoSpawn,
                    &mut scratch,
                    &mut NullSink,
                    SimOptions::default(),
                )
                .unwrap()
                .0;
                assert_eq!(fresh, reused);
            }
            let prep = PreparedTrace::new(&t1, &pf);
            let table = analysis.spawn_table(Policy::Postdoms);
            let fresh = sim(&prep, &pf, &mut StaticSpawnSource::new(table.clone()));
            let reused = simulate(
                &prep,
                &pf,
                &mut StaticSpawnSource::new(table),
                &mut scratch,
                &mut NullSink,
                SimOptions::default(),
            )
            .unwrap()
            .0;
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn shared_oracles_match_fresh_preparation() {
        // A PreparedTrace assembled from shared oracles must be
        // indistinguishable from one computed from scratch.
        let p = hard_hammock_program();
        let trace = execute_window(&p, 150_000).unwrap().trace;
        let ss = MachineConfig::superscalar();
        let pf = MachineConfig::hpca07();
        assert_eq!(ss.predictor_key(), pf.predictor_key());

        let fresh = PreparedTrace::new(&trace, &pf);
        let shared = PreparedTrace::with_oracles(
            fresh.trace_arc(),
            fresh.dataflow_arc(),
            fresh.pc_index_arc(),
            &ss,
        );
        let analysis = ProgramAnalysis::analyze(&p);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
        let a = sim(&fresh, &pf, &mut src);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
        let b = sim(&shared, &pf, &mut src);
        assert_eq!(a, b);
    }

    #[test]
    fn task_contexts_are_bounded() {
        let p = hard_hammock_program();
        let trace = execute_window(&p, 200_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let cfg = MachineConfig::hpca07();
        let prep = PreparedTrace::new(&trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
        let r = sim(&prep, &cfg, &mut src);
        assert!(r.max_live_tasks <= cfg.max_tasks);
        assert!(r.max_live_tasks >= 2, "spawning should create tasks");
    }

    #[test]
    fn spawn_distance_cap_rejects_far_targets() {
        let p = hard_hammock_program();
        let trace = execute_window(&p, 200_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let cfg = MachineConfig {
            max_spawn_distance: 0,
            ..MachineConfig::hpca07()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
        let r = sim(&prep, &cfg, &mut src);
        assert_eq!(r.total_spawns(), 0);
        assert!(r.spawns_rejected_distance > 0);
    }

    #[test]
    fn divert_queue_sees_inter_task_dependences() {
        // Loop spawning creates induction-variable dependences between
        // tasks: diverted instructions must appear.
        // A loop whose iterations are chained through a slow multiply:
        // the next task's consumer dispatches while the producer is still
        // executing, so it must divert.
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 3);
        b.bind_label(top);
        for _ in 0..4 {
            b.alu(AluOp::Mul, Reg::R2, Reg::R2, Reg::R2);
        }
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, 300, top);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        // Disable the profitability throttle: this test wants the spawns
        // (and their diverted consumers) to keep happening even though a
        // predictable loop makes them unprofitable.
        let cfg = MachineConfig {
            profitability_feedback: false,
            ..MachineConfig::hpca07()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Loop));
        let r = sim(&prep, &cfg, &mut src);
        assert!(r.total_spawns() > 0);
        assert!(r.diverted > 0, "loop spawns must divert the multiply chain");
    }

    /// A loop whose iterations communicate through memory with the store
    /// late and the load early: spawned next-iteration tasks speculate on
    /// the dependence and must be squashed in store-set mode.
    fn memory_chained_loop() -> Program {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let shared = b.alloc_data(&[3]);
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.li(Reg::R20, shared as i64);
        b.bind_label(top);
        b.load(Reg::R2, Reg::R20, 0); // early load of last iteration's value
        for _ in 0..4 {
            b.alu(AluOp::Mul, Reg::R2, Reg::R2, Reg::R2); // slow
        }
        b.alui(AluOp::Add, Reg::R2, Reg::R2, 1);
        b.store(Reg::R2, Reg::R20, 0); // late store
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, 300, top);
        b.halt();
        b.end_function();
        b.build().unwrap()
    }

    #[test]
    fn store_set_mode_squashes_speculative_loads() {
        let p = memory_chained_loop();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let cfg = MachineConfig {
            memory_dependence: crate::store_set::DependenceMode::StoreSet,
            profitability_feedback: false,
            ..MachineConfig::hpca07()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Loop));
        let r = sim(&prep, &cfg, &mut src);
        assert!(r.total_spawns() > 0, "loop spawns must fire");
        assert!(
            r.squashes > 0,
            "speculative loads must violate at least once"
        );
        assert!(r.squashed_instructions > 0);
        assert_eq!(r.instructions as usize, trace.len(), "everything retires");
        // The predictor learns: squashes stay far below the spawn count.
        assert!(
            r.squashes < r.total_spawns(),
            "{} squashes vs {} spawns — predictor never learned",
            r.squashes,
            r.total_spawns()
        );
    }

    #[test]
    fn oracle_mode_never_squashes() {
        let p = memory_chained_loop();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let cfg = MachineConfig {
            profitability_feedback: false,
            ..MachineConfig::hpca07()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Loop));
        let r = sim(&prep, &cfg, &mut src);
        assert!(r.total_spawns() > 0);
        assert_eq!(r.squashes, 0);
        assert_eq!(r.squashed_instructions, 0);
    }

    #[test]
    fn store_set_results_match_oracle_work() {
        // Same retired work either way; squashing only costs cycles.
        let p = memory_chained_loop();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let mk = |mode| MachineConfig {
            memory_dependence: mode,
            profitability_feedback: false,
            ..MachineConfig::hpca07()
        };
        let oracle_cfg = mk(crate::store_set::DependenceMode::OracleSync);
        let ss_cfg = mk(crate::store_set::DependenceMode::StoreSet);
        let prep = PreparedTrace::new(&trace, &oracle_cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Loop));
        let oracle = sim(&prep, &oracle_cfg, &mut src);
        let prep = PreparedTrace::new(&trace, &ss_cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Loop));
        let ss = sim(&prep, &ss_cfg, &mut src);
        assert_eq!(oracle.instructions, ss.instructions);
    }

    #[test]
    fn hint_entry_model_squashes_then_learns() {
        // A loop carrying one register chain: the first spawned instance
        // violates (empty hint entry), trains the entry, and later
        // instances divert cleanly.
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 3);
        b.bind_label(top);
        for _ in 0..4 {
            b.alu(AluOp::Mul, Reg::R2, Reg::R2, Reg::R2);
        }
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, 300, top);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let cfg = MachineConfig {
            register_dependence: crate::store_set::DependenceMode::StoreSet,
            profitability_feedback: false,
            ..MachineConfig::hpca07()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Loop));
        let r = sim(&prep, &cfg, &mut src);
        assert!(r.total_spawns() > 0);
        assert!(r.register_violations > 0, "cold hint entries must violate");
        assert!(
            r.register_violations < r.total_spawns(),
            "the hint entry must learn ({} violations / {} spawns)",
            r.register_violations,
            r.total_spawns()
        );
        assert_eq!(r.instructions as usize, trace.len());
    }

    #[test]
    fn hint_entry_capacity_limits_wide_dependence_sets() {
        // Six live loop-carried chains exceed the 4-slot hint entry: the
        // spawn point keeps violating and records capacity misses.
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.bind_label(top);
        for r in [Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6, Reg::R7] {
            b.alu(AluOp::Mul, r, r, r);
            b.alui(AluOp::Add, r, r, 1);
        }
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, 300, top);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let cfg = MachineConfig {
            register_dependence: crate::store_set::DependenceMode::StoreSet,
            profitability_feedback: false,
            ..MachineConfig::hpca07()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Loop));
        let r = sim(&prep, &cfg, &mut src);
        assert!(r.hint_capacity_misses > 0, "entry capacity must bind");
        assert_eq!(r.instructions as usize, trace.len());
    }

    #[test]
    fn any_task_spawning_splits_inner_intervals() {
        // The §6 extension: with nested hammocks, the inner join can be
        // spawned even though the spawner is no longer the tail.
        let p = hard_hammock_program();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let mk = |any| MachineConfig {
            spawn_from_any_task: any,
            ..MachineConfig::hpca07()
        };
        let run = |cfg: &MachineConfig| {
            let prep = PreparedTrace::new(&trace, cfg);
            let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
            sim(&prep, cfg, &mut src)
        };
        let tail_only = run(&mk(false));
        let any_task = run(&mk(true));
        assert_eq!(tail_only.instructions, any_task.instructions);
        // Any-task spawning can only add opportunities.
        assert!(any_task.total_spawns() >= tail_only.total_spawns());
        // Non-tail spawns appear as out-of-order target indices in the log.
        let monotone = any_task
            .spawn_log
            .windows(2)
            .all(|w| w[0].target_index < w[1].target_index);
        if any_task.total_spawns() > tail_only.total_spawns() {
            assert!(!monotone, "extra spawns should include interval splits");
        }
    }

    #[test]
    fn rob_reclamation_frees_entries_under_pressure() {
        // A tiny ROB plus a long-latency oldest task forces reclamation.
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let region = b.alloc_zeroed(64 * 1024); // L2-missing region
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.li(Reg::R20, region as i64);
        b.bind_label(top);
        // A slow load the oldest task stalls retirement on.
        b.alui(AluOp::Sll, Reg::R2, Reg::R1, 9);
        b.alu(AluOp::Add, Reg::R3, Reg::R20, Reg::R2);
        b.load(Reg::R4, Reg::R3, 0);
        b.alu(AluOp::Add, Reg::R5, Reg::R5, Reg::R4);
        for _ in 0..20 {
            b.alui(AluOp::Add, Reg::R6, Reg::R6, 1);
        }
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, 400, top);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let cfg = MachineConfig {
            rob_entries: 48,
            rob_reclamation: true,
            rob_reclaim_after: 4,
            profitability_feedback: false,
            ..MachineConfig::hpca07()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Loop));
        let r = sim(&prep, &cfg, &mut src);
        assert_eq!(r.instructions as usize, trace.len());
        assert!(r.rob_reclaims > 0, "pressure should trigger reclamation");
        // Default configuration never reclaims.
        let dflt = MachineConfig::hpca07();
        let prep = PreparedTrace::new(&trace, &dflt);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Loop));
        let r2 = sim(&prep, &dflt, &mut src);
        assert_eq!(r2.rob_reclaims, 0);
    }

    #[test]
    fn max_cycles_budget_returns_typed_error() {
        let p = counted_loop(200);
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let cfg = MachineConfig {
            max_cycles: 10,
            ..MachineConfig::superscalar()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        let e = try_sim(&prep, &cfg, &mut NoSpawn).unwrap_err();
        match e {
            SimError::CyclesExceeded {
                max_cycles,
                retired,
                instructions,
            } => {
                assert_eq!(max_cycles, 10);
                assert_eq!(instructions as usize, trace.len());
                assert!(retired < instructions);
            }
            other => panic!("expected CyclesExceeded, got {other}"),
        }
        // The default budget is unreachable.
        let cfg = MachineConfig::superscalar();
        let prep = PreparedTrace::new(&trace, &cfg);
        assert!(try_sim(&prep, &cfg, &mut NoSpawn).is_ok());
    }

    #[test]
    fn livelock_watchdog_carries_postmortem_state() {
        // A one-cycle window trips during the front-end fill (decode
        // latency guarantees some retirement-free cycles), exercising the
        // post-mortem payload without needing a genuine simulator bug.
        let p = counted_loop(50);
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let cfg = MachineConfig {
            livelock_window: 2,
            ..MachineConfig::superscalar()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        let e = try_sim(&prep, &cfg, &mut NoSpawn).unwrap_err();
        match e {
            SimError::Livelock {
                cycle,
                window,
                account,
                detail,
                ..
            } => {
                assert_eq!(window, 2);
                assert!(cycle >= 2);
                // The ledger travels with the error and balances.
                assert!(account.check().is_ok());
                assert!(detail.contains("stuck inst"));
            }
            other => panic!("expected Livelock, got {other}"),
        }
    }

    #[test]
    fn malformed_trace_is_rejected_up_front() {
        let p = counted_loop(20);
        let mut trace = execute_window(&p, 100_000).unwrap().trace;
        // Corrupt the continuity of the retirement stream.
        let mid = trace.len() / 2;
        let mut e = trace.entry(mid);
        e.next_pc = Pc::new(999);
        trace.set(mid, e);
        let cfg = MachineConfig::superscalar();
        let prep = PreparedTrace::new(&trace, &cfg);
        let e = try_sim(&prep, &cfg, &mut NoSpawn).unwrap_err();
        assert!(matches!(e, SimError::MalformedTrace(_)), "got {e}");
        // The verdict is taken once, when the trace is prepared, and it
        // is the same one `Trace::validate` gives; every later run over
        // the prepared trace fails with it again.
        assert_eq!(prep.validity(), trace.validate());
        let again = try_sim(&prep, &cfg, &mut NoSpawn).unwrap_err();
        assert_eq!(again.to_string(), e.to_string());
    }

    #[test]
    #[should_panic(expected = "cycle budget exceeded")]
    fn infallible_wrapper_panics_with_the_rendered_error() {
        let p = counted_loop(200);
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let cfg = MachineConfig {
            max_cycles: 10,
            ..MachineConfig::superscalar()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        sim(&prep, &cfg, &mut NoSpawn);
    }

    #[test]
    fn try_simulate_matches_simulate_exactly() {
        let p = hard_hammock_program();
        let trace = execute_window(&p, 150_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let cfg = MachineConfig::hpca07();
        let prep = PreparedTrace::new(&trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
        let a = sim(&prep, &cfg, &mut src);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
        let b = try_sim(&prep, &cfg, &mut src).unwrap();
        assert_eq!(a, b);
        // Profiling times the stages on the host clock and changes
        // nothing the run computes.
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
        let opts = SimOptions {
            profile: true,
            ..SimOptions::default()
        };
        let mut scratch = SimScratch::default();
        let (c, t) = simulate(&prep, &cfg, &mut src, &mut scratch, &mut NullSink, opts).unwrap();
        assert_eq!(a, c);
        let phases = t.phases.expect("a profiled run returns its phases");
        assert!(phases.issued > 0 && phases.issued >= a.instructions);
        // One lap per stage per stepped cycle, plus the retire lap of the
        // cycle that retires the last instruction; calibrating the lap
        // cost leaves no lap behind.
        assert_eq!(phases.laps[phase::RETIRE], t.executed_cycles + 1);
        for stage in phase::ISSUE..phase::COUNT {
            assert_eq!(phases.laps[stage], t.executed_cycles);
        }
    }

    #[test]
    fn retirement_is_complete_and_in_order() {
        // The machine retires exactly trace.len() instructions; IPC bounded.
        let p = hard_hammock_program();
        let trace = execute_window(&p, 50_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let cfg = MachineConfig::hpca07();
        let prep = PreparedTrace::new(&trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
        let r = sim(&prep, &cfg, &mut src);
        assert_eq!(r.instructions as usize, trace.len());
        assert!(r.ipc() <= cfg.width as f64);
    }

    /// Exhaustive check of the fixed-capacity ICount arbitration: feeding
    /// candidates in task order through `icount_insert` must select
    /// exactly the prefix of a stable sort by key (ties keep task order,
    /// i.e. older tasks win), and every candidate ends up either a winner
    /// or a reported loser, never both.
    #[test]
    fn icount_selection_matches_stable_sort() {
        for cap in 1..=4usize {
            // Odometer over all key assignments in 0..3 for four tasks.
            for combo in 0..81usize {
                let keys = [
                    combo % 3,
                    (combo / 3) % 3,
                    (combo / 9) % 3,
                    (combo / 27) % 3,
                ];
                let mut winners = Vec::new();
                let mut losers = Vec::new();
                for (ti, &key) in keys.iter().enumerate() {
                    if let Some(l) = icount_insert(&mut winners, cap, ti, key) {
                        losers.push(l);
                    }
                }
                let mut expect: Vec<(usize, usize)> =
                    keys.iter().enumerate().map(|(t, &k)| (t, k)).collect();
                expect.sort_by_key(|&(_, k)| k); // stable: ties keep task order
                expect.truncate(cap);
                assert_eq!(winners, expect, "cap {cap}, keys {keys:?}");
                let mut all: Vec<usize> = winners.iter().map(|&(t, _)| t).collect();
                all.extend(&losers);
                all.sort_unstable();
                assert_eq!(all, vec![0, 1, 2, 3], "winner/loser partition");
            }
        }
    }

    /// Pins the §3.2 tie-break direction: equal in-flight counts go to
    /// the *older* task (insertion order is task order and equal keys
    /// insert after existing entries).
    #[test]
    fn icount_tie_break_prefers_older_tasks() {
        let mut winners = Vec::new();
        let mut losers = Vec::new();
        for (ti, key) in [(0usize, 2usize), (1, 1), (2, 1), (3, 0)] {
            if let Some(l) = icount_insert(&mut winners, 2, ti, key) {
                losers.push(l);
            }
        }
        // Stable sort by key: (3,0), (1,1), (2,1), (0,2) — the older of
        // the tied pair (task 1) keeps its slot.
        assert_eq!(winners, vec![(3, 0), (1, 1)]);
        assert_eq!(losers, vec![0, 2]);
    }

    /// Cycle skipping is an accounting fast path only: results, cycle
    /// counts, and the bucket ledger are bit-identical with it on and
    /// off, across policy-free, squash-heavy, and spawn-heavy workloads.
    #[test]
    fn cycle_skip_fast_forward_is_bit_identical() {
        let run_opts = |trace: &Trace,
                        cfg: &MachineConfig,
                        table: Option<polyflow_core::SpawnTable>,
                        skip: bool| {
            let prep = PreparedTrace::new(trace, cfg);
            let mut scratch = SimScratch::default();
            let opts = SimOptions {
                cycle_skip: skip,
                ..SimOptions::default()
            };
            match table {
                Some(t) => {
                    let mut src = StaticSpawnSource::new(t);
                    simulate(&prep, cfg, &mut src, &mut scratch, &mut NullSink, opts).unwrap()
                }
                None => {
                    simulate(&prep, cfg, &mut NoSpawn, &mut scratch, &mut NullSink, opts).unwrap()
                }
            }
        };
        let combos: Vec<(Trace, MachineConfig, Option<polyflow_core::SpawnTable>)> = vec![
            (
                execute_window(&counted_loop(200), 100_000).unwrap().trace,
                MachineConfig::superscalar(),
                None,
            ),
            (
                execute_window(&memory_chained_loop(), 100_000)
                    .unwrap()
                    .trace,
                MachineConfig {
                    memory_dependence: crate::store_set::DependenceMode::StoreSet,
                    profitability_feedback: false,
                    ..MachineConfig::hpca07()
                },
                Some(ProgramAnalysis::analyze(&memory_chained_loop()).spawn_table(Policy::Loop)),
            ),
            (
                execute_window(&hard_hammock_program(), 200_000)
                    .unwrap()
                    .trace,
                MachineConfig::hpca07(),
                Some(
                    ProgramAnalysis::analyze(&hard_hammock_program()).spawn_table(Policy::Postdoms),
                ),
            ),
        ];
        let mut any_skipped = false;
        for (trace, cfg, table) in combos {
            let (on, t_on) = run_opts(&trace, &cfg, table.clone(), true);
            let (off, t_off) = run_opts(&trace, &cfg, table, false);
            assert_eq!(on, off, "cycle skipping changed the result");
            assert_eq!(t_off.skipped_cycles, 0);
            assert_eq!(t_off.fast_forwards, 0);
            assert_eq!(
                t_on.executed_cycles + t_on.skipped_cycles,
                t_off.executed_cycles,
                "every skipped cycle is a cycle the stepped run executed"
            );
            assert_eq!(t_on.executed_cycles + t_on.skipped_cycles, on.cycles);
            any_skipped |= t_on.skipped_cycles > 0;
        }
        assert!(
            any_skipped,
            "no combo ever fast-forwarded — test is vacuous"
        );
    }

    /// The watchdogs observe fast-forwarded time: a livelock trips at the
    /// same cycle, with the same post-mortem, whether or not the run
    /// skipped its way there.
    #[test]
    fn cycle_skip_preserves_watchdog_cycles() {
        let p = counted_loop(50);
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let cfg = MachineConfig {
            livelock_window: 2,
            ..MachineConfig::superscalar()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        let run = |skip: bool| {
            let mut scratch = SimScratch::default();
            simulate(
                &prep,
                &cfg,
                &mut NoSpawn,
                &mut scratch,
                &mut NullSink,
                SimOptions {
                    cycle_skip: skip,
                    ..SimOptions::default()
                },
            )
            .unwrap_err()
        };
        let (on, off) = (run(true), run(false));
        assert_eq!(on.to_string(), off.to_string());
        match (on, off) {
            (
                SimError::Livelock {
                    cycle: c1,
                    detail: d1,
                    ..
                },
                SimError::Livelock {
                    cycle: c2,
                    detail: d2,
                    ..
                },
            ) => {
                assert_eq!(c1, c2);
                assert_eq!(d1, d2);
            }
            (a, b) => panic!("expected two Livelocks, got {a} / {b}"),
        }
    }
}
