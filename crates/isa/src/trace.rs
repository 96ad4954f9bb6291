//! Retired-instruction traces and derived oracle information.
//!
//! The functional interpreter emits a [`Trace`]: the exact sequence of
//! retired instructions with their branch outcomes and memory addresses.
//! The timing simulator replays this trace (trace-driven simulation, see
//! DESIGN.md §3) and uses two derived oracles:
//!
//! * [`Dataflow`] — for every trace entry, the index of the producing entry
//!   for each register source and (for loads) the producing store, and
//! * [`PcIndex`] — for every static `Pc`, the sorted list of dynamic
//!   occurrences, supporting the Task Spawn Unit's "is the spawn target
//!   reached soon?" check (paper §3.2).

use crate::inst::{Inst, InstClass, Reg};
use crate::program::{Pc, Program};
use std::collections::HashMap;
use std::fmt;

/// A structural defect detected in a [`Trace`] by [`Trace::validate`] and
/// friends. A well-formed trace (anything the interpreter emits) never
/// produces one; these surface corruption — bit flips, truncation, bogus
/// PCs — as typed errors instead of downstream misbehavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// `entries[index].next_pc` does not match `entries[index + 1].pc`.
    Discontinuity {
        /// Index of the earlier entry of the broken pair.
        index: usize,
        /// Its recorded successor.
        next_pc: Pc,
        /// The actual `pc` of the following entry.
        actual: Pc,
    },
    /// A load or store entry carries no effective address.
    MissingMemAddr {
        /// The offending entry.
        index: usize,
    },
    /// A non-memory entry carries an effective address.
    UnexpectedMemAddr {
        /// The offending entry.
        index: usize,
    },
    /// A non-control-transfer entry is marked taken.
    TakenNonControl {
        /// The offending entry.
        index: usize,
    },
    /// An unconditional control transfer is marked not-taken.
    NotTakenUnconditional {
        /// The offending entry.
        index: usize,
    },
    /// A `halt` retired before the final entry.
    HaltNotLast {
        /// The offending entry.
        index: usize,
    },
    /// The trace does not end in a `halt` (truncated execution).
    Truncated {
        /// `pc` of the final entry.
        last_pc: Pc,
    },
    /// An entry's `pc` lies outside the program text.
    PcOutOfProgram {
        /// The offending entry.
        index: usize,
        /// Its out-of-range `pc`.
        pc: Pc,
    },
    /// An entry's recorded instruction differs from the program text at
    /// its `pc`.
    InstMismatch {
        /// The offending entry.
        index: usize,
        /// The entry's `pc`.
        pc: Pc,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Discontinuity {
                index,
                next_pc,
                actual,
            } => write!(
                f,
                "trace discontinuity at entry {index}: next_pc {next_pc} but successor is {actual}"
            ),
            TraceError::MissingMemAddr { index } => {
                write!(f, "memory entry {index} has no effective address")
            }
            TraceError::UnexpectedMemAddr { index } => {
                write!(f, "non-memory entry {index} carries an effective address")
            }
            TraceError::TakenNonControl { index } => {
                write!(f, "non-control entry {index} is marked taken")
            }
            TraceError::NotTakenUnconditional { index } => {
                write!(
                    f,
                    "unconditional transfer at entry {index} marked not-taken"
                )
            }
            TraceError::HaltNotLast { index } => {
                write!(f, "halt retired at entry {index} before the trace end")
            }
            TraceError::Truncated { last_pc } => {
                write!(
                    f,
                    "trace is truncated: final entry at {last_pc} is not halt"
                )
            }
            TraceError::PcOutOfProgram { index, pc } => {
                write!(f, "entry {index}: pc {pc} outside the program text")
            }
            TraceError::InstMismatch { index, pc } => {
                write!(f, "entry {index}: instruction differs from program at {pc}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// One retired instruction: the value [`Trace::entry`] and the trace's
/// iterators hand out, and what [`Trace::push`] and [`Trace::set`] take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Static program counter.
    pub pc: Pc,
    /// The instruction itself (carried for convenient decoding).
    pub inst: Inst,
    /// For conditional branches: whether the branch was taken.
    pub taken: bool,
    /// The `Pc` of the next retired instruction (the actual successor).
    pub next_pc: Pc,
    /// Effective byte address for loads and stores.
    pub mem_addr: Option<u64>,
}

impl TraceEntry {
    /// Coarse class of the retired instruction.
    pub fn class(&self) -> InstClass {
        self.inst.class()
    }

    /// True if control left the fall-through path at this entry.
    pub fn redirected(&self) -> bool {
        self.next_pc != self.pc.next()
    }
}

/// [`Trace`] flag-lane bit: the entry's `taken`.
const TAKEN: u8 = 1;
/// [`Trace`] flag-lane bit: the entry carries a memory address (which
/// tells `Some(0)` from `None`, both `0` in the address lane).
const HAS_ADDR: u8 = 2;

/// [`InstPool`] pcs below this are interned through the direct-mapped
/// `by_pc` lane; the rest (only a corrupted trace has any) hash.
const DIRECT_PCS: usize = 1 << 20;

/// `InstPool::by_pc` value of a pc with no instruction yet.
const NO_SLOT: u32 = u32::MAX;

/// The distinct (pc, instruction) pairs of a trace, each stored once.
/// An interpreter-emitted trace holds one pair per static instruction it
/// retired; a corrupted entry whose instruction differs from the others
/// at its pc adds one more.
#[derive(Debug, Clone, Default)]
struct InstPool {
    insts: Vec<Inst>,
    /// The slot of the first instruction interned at each pc below
    /// [`DIRECT_PCS`], [`NO_SLOT`] if none.
    by_pc: Vec<u32>,
    /// The slots of every other pair.
    others: HashMap<(Pc, Inst), u32>,
}

impl InstPool {
    /// The slot of `(pc, inst)`, adding the pair if it is new. The
    /// common case — the pair the pc already holds — is one lookup and
    /// one compare.
    #[inline]
    fn intern(&mut self, pc: Pc, inst: Inst) -> u32 {
        if let Some(&slot) = self.by_pc.get(pc.index()) {
            if slot != NO_SLOT && self.insts[slot as usize] == inst {
                return slot;
            }
        }
        self.intern_new(pc, inst)
    }

    /// [`InstPool::intern`] for a pc seen for the first time, a second
    /// instruction at a pc, or a pc past [`DIRECT_PCS`].
    #[cold]
    #[inline(never)]
    fn intern_new(&mut self, pc: Pc, inst: Inst) -> u32 {
        let at = pc.index();
        if at < DIRECT_PCS {
            if at >= self.by_pc.len() {
                self.by_pc.resize(at + 1, NO_SLOT);
            }
            if self.by_pc[at] == NO_SLOT {
                self.by_pc[at] = self.insts.len() as u32;
                self.insts.push(inst);
                return self.by_pc[at];
            }
        }
        let insts = &mut self.insts;
        *self.others.entry((pc, inst)).or_insert_with(|| {
            insts.push(inst);
            insts.len() as u32 - 1
        })
    }
}

/// A retired-instruction trace, stored as lanes: per entry a `pc`, a
/// `next_pc`, a 4-byte reference into a pool holding each distinct
/// (pc, instruction) pair once, a flag byte (`taken`, has-address) and
/// the memory address (`0` where there is none) — 21 bytes an entry.
///
/// [`Trace::entry`] and the iterators reassemble each [`TraceEntry`] by
/// value, exactly as it was pushed; the oracle builders and the
/// simulator's hot loops read the lanes themselves ([`Trace::pcs`],
/// [`Trace::mem_addrs`], [`Trace::inst`]).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pc: Vec<Pc>,
    next_pc: Vec<Pc>,
    inst_ref: Vec<u32>,
    flags: Vec<u8>,
    mem_addr: Vec<u64>,
    pool: InstPool,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends an entry.
    #[inline]
    pub fn push(&mut self, e: TraceEntry) {
        self.inst_ref.push(self.pool.intern(e.pc, e.inst));
        self.pc.push(e.pc);
        self.next_pc.push(e.next_pc);
        self.flags.push(flag_byte(&e));
        self.mem_addr.push(e.mem_addr.unwrap_or(0));
    }

    /// Replaces the entry at `idx` — the fault-injection hook. A
    /// replacement can break every invariant [`Trace::validate`] and
    /// friends check; consumers are expected to re-validate after
    /// corrupting.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set(&mut self, idx: usize, e: TraceEntry) {
        self.pc[idx] = e.pc;
        self.inst_ref[idx] = self.pool.intern(e.pc, e.inst);
        self.next_pc[idx] = e.next_pc;
        self.flags[idx] = flag_byte(&e);
        self.mem_addr[idx] = e.mem_addr.unwrap_or(0);
    }

    /// Number of retired instructions.
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// True if no instructions were retired.
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// Drops every entry past the first `len` — the truncation
    /// fault-injection operator ([`Trace::validate_complete`] flags the
    /// result when the new tail is not a halt).
    pub fn truncate(&mut self, len: usize) {
        self.pc.truncate(len);
        self.next_pc.truncate(len);
        self.inst_ref.truncate(len);
        self.flags.truncate(len);
        self.mem_addr.truncate(len);
    }

    /// The entry at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn entry(&self, idx: usize) -> TraceEntry {
        let flags = self.flags[idx];
        TraceEntry {
            pc: self.pc[idx],
            inst: self.inst(idx),
            taken: flags & TAKEN != 0,
            next_pc: self.next_pc[idx],
            mem_addr: (flags & HAS_ADDR != 0).then_some(self.mem_addr[idx]),
        }
    }

    /// The instruction of the entry at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn inst(&self, idx: usize) -> Inst {
        self.pool.insts[self.inst_ref[idx] as usize]
    }

    /// The `pc` lane: every entry's static program counter.
    #[inline]
    pub fn pcs(&self) -> &[Pc] {
        &self.pc
    }

    /// The address lane: every entry's effective address, `0` for an
    /// entry without one (tell the two apart with [`Trace::entry`]).
    #[inline]
    pub fn mem_addrs(&self) -> &[u64] {
        &self.mem_addr
    }

    /// Iterates over entries in retirement order.
    pub fn iter(&self) -> TraceIter<'_> {
        TraceIter {
            trace: self,
            range: 0..self.len(),
        }
    }

    /// Computes the dataflow oracle for this trace.
    pub fn dataflow(&self) -> Dataflow {
        Dataflow::compute(self)
    }

    /// Builds the per-`Pc` occurrence index for this trace.
    pub fn pc_index(&self) -> PcIndex {
        PcIndex::build(self)
    }

    /// Counts retired conditional branches.
    pub fn cond_branches(&self) -> usize {
        self.iter()
            .filter(|e| e.class() == InstClass::CondBranch)
            .count()
    }

    /// Checks the structural invariants every interpreter-emitted trace
    /// upholds: retirement-order continuity (`next_pc` chains into the
    /// following entry), effective addresses exactly on memory entries,
    /// taken flags only on control transfers (and always on unconditional
    /// ones), and `halt` nowhere but the final entry.
    ///
    /// Returns the first defect found. Corrupted traces (bit flips, bogus
    /// PCs) fail here instead of silently skewing a simulation.
    pub fn validate(&self) -> Result<(), TraceError> {
        (0..self.len()).try_for_each(|i| self.validate_entry(i))
    }

    /// The checks of [`Trace::validate`] that concern entry `i` alone, so
    /// a consumer already walking the trace can validate it in the same
    /// pass: running this for every index in order finds the same first
    /// defect `validate` does.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn validate_entry(&self, i: usize) -> Result<(), TraceError> {
        let class = self.inst(i).class();
        let flags = self.flags[i];
        let (taken, has_addr) = (flags & TAKEN != 0, flags & HAS_ADDR != 0);
        let is_mem = matches!(class, InstClass::Load | InstClass::Store);
        if is_mem && !has_addr {
            return Err(TraceError::MissingMemAddr { index: i });
        }
        if !is_mem && has_addr {
            return Err(TraceError::UnexpectedMemAddr { index: i });
        }
        let is_control = matches!(
            class,
            InstClass::CondBranch
                | InstClass::Jump
                | InstClass::IndirectJump
                | InstClass::Call
                | InstClass::Ret
        );
        if taken && !is_control {
            return Err(TraceError::TakenNonControl { index: i });
        }
        if !taken && is_control && class != InstClass::CondBranch {
            return Err(TraceError::NotTakenUnconditional { index: i });
        }
        if class == InstClass::Halt && i + 1 != self.len() {
            return Err(TraceError::HaltNotLast { index: i });
        }
        if let Some(&actual) = self.pc.get(i + 1) {
            if self.next_pc[i] != actual {
                return Err(TraceError::Discontinuity {
                    index: i,
                    next_pc: self.next_pc[i],
                    actual,
                });
            }
        }
        Ok(())
    }

    /// [`Trace::validate`], additionally requiring a complete execution:
    /// a non-empty trace must end in `halt`. Use this when the trace is
    /// supposed to cover a whole run (windowed traces are legitimately
    /// truncated and should use `validate`).
    pub fn validate_complete(&self) -> Result<(), TraceError> {
        self.validate()?;
        if let Some(last) = self.len().checked_sub(1) {
            if self.inst(last).class() != InstClass::Halt {
                return Err(TraceError::Truncated {
                    last_pc: self.pc[last],
                });
            }
        }
        Ok(())
    }

    /// [`Trace::validate`], additionally checking every entry against the
    /// program text: the `pc` must lie inside `program` and the recorded
    /// instruction must match what the program holds there. Catches
    /// corruption that structural checks alone cannot (a bogus `pc` on a
    /// self-consistent prefix).
    pub fn validate_against(&self, program: &Program) -> Result<(), TraceError> {
        self.validate()?;
        for (i, &pc) in self.pc.iter().enumerate() {
            match program.get(pc) {
                None => return Err(TraceError::PcOutOfProgram { index: i, pc }),
                Some(inst) if inst != self.inst(i) => {
                    return Err(TraceError::InstMismatch { index: i, pc })
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// The flag-lane byte of `e`.
#[inline]
fn flag_byte(e: &TraceEntry) -> u8 {
    (if e.taken { TAKEN } else { 0 }) | if e.mem_addr.is_some() { HAS_ADDR } else { 0 }
}

/// Two traces are equal when their entries are, however the pool
/// numbers its instructions.
impl PartialEq for Trace {
    fn eq(&self, other: &Trace) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Trace {}

/// The entries of a [`Trace`] in retirement order, by value
/// ([`Trace::iter`]).
#[derive(Debug, Clone)]
pub struct TraceIter<'a> {
    trace: &'a Trace,
    range: std::ops::Range<usize>,
}

impl Iterator for TraceIter<'_> {
    type Item = TraceEntry;

    #[inline]
    fn next(&mut self) -> Option<TraceEntry> {
        self.range.next().map(|i| self.trace.entry(i))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl DoubleEndedIterator for TraceIter<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<TraceEntry> {
        self.range.next_back().map(|i| self.trace.entry(i))
    }
}

impl ExactSizeIterator for TraceIter<'_> {}

impl std::iter::FusedIterator for TraceIter<'_> {}

impl<'a> IntoIterator for &'a Trace {
    type Item = TraceEntry;
    type IntoIter = TraceIter<'a>;
    fn into_iter(self) -> TraceIter<'a> {
        self.iter()
    }
}

impl FromIterator<TraceEntry> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEntry>>(iter: I) -> Trace {
        let mut trace = Trace::new();
        for e in iter {
            trace.push(e);
        }
        trace
    }
}

/// Per-entry producer information derived from a [`Trace`].
///
/// Register source slot `s` of entry `i` reads the value produced by
/// entry [`reg_producers(i)[s]`](Dataflow::reg_producers) (`None` if the
/// value predates the trace or the slot is unused / reads `r0`). For a
/// load, [`mem_producer(i)`](Dataflow::mem_producer) is the most recent
/// prior store to the same word (`None` if the location predates the
/// trace).
///
/// Stored as one packed `[reg0, reg1, mem]` row of trace indices per
/// entry, [`NO_PRODUCER`] marking an absent producer: 12 bytes an entry,
/// and one load for the simulator's per-instruction producer walk
/// ([`Dataflow::row`]).
#[derive(Debug, Clone)]
pub struct Dataflow {
    rows: Vec<[u32; 3]>,
}

/// The [`Dataflow::row`] slot value of an absent producer. Producers are
/// earlier trace indices, so no real producer is ever `u32::MAX`.
pub const NO_PRODUCER: u32 = u32::MAX;

#[inline]
fn producer(p: u32) -> Option<u32> {
    (p != NO_PRODUCER).then_some(p)
}

impl Dataflow {
    /// Computes producers with a single forward pass over the trace's
    /// instruction, flag and address lanes.
    pub fn compute(trace: &Trace) -> Dataflow {
        let n = trace.len();
        let mut rows = vec![[NO_PRODUCER; 3]; n];
        let mut last_writer: [u32; Reg::COUNT] = [NO_PRODUCER; Reg::COUNT];
        let mut last_store: HashMap<u64, u32> = HashMap::new();

        let lanes = trace.inst_ref.iter().zip(&trace.flags).zip(&trace.mem_addr);
        for (i, (((&r, &flags), &addr), row)) in lanes.zip(rows.iter_mut()).enumerate() {
            let inst = trace.pool.insts[r as usize];
            for (s, src) in inst.srcs().into_iter().enumerate() {
                if let Some(r) = src {
                    if r != Reg::R0 {
                        row[s] = last_writer[r.index()];
                    }
                }
            }
            if flags & HAS_ADDR != 0 {
                match inst.class() {
                    InstClass::Load => {
                        if let Some(&p) = last_store.get(&crate::Memory::align(addr)) {
                            row[2] = p;
                        }
                    }
                    InstClass::Store => {
                        last_store.insert(crate::Memory::align(addr), i as u32);
                    }
                    _ => {}
                }
            }
            if let Some(d) = inst.dst() {
                last_writer[d.index()] = i as u32;
            }
        }
        Dataflow { rows }
    }

    /// Register producers for entry `i` (one per source slot).
    #[inline]
    pub fn reg_producers(&self, i: usize) -> [Option<u32>; 2] {
        let [a, b, _] = self.rows[i];
        [producer(a), producer(b)]
    }

    /// Producing store for the load at entry `i`, if any.
    #[inline]
    pub fn mem_producer(&self, i: usize) -> Option<u32> {
        producer(self.rows[i][2])
    }

    /// Entry `i`'s packed producer row `[reg0, reg1, mem]`, with
    /// [`NO_PRODUCER`] for an absent producer.
    #[inline]
    pub fn row(&self, i: usize) -> [u32; 3] {
        self.rows[i]
    }

    /// All producers of entry `i` (registers plus memory), deduplicated.
    pub fn producers(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        let mut v: Vec<u32> = self.rows[i].into_iter().filter_map(producer).collect();
        v.sort_unstable();
        v.dedup();
        v.into_iter()
    }

    /// Number of entries covered.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the trace was empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Sorted dynamic occurrences of each static `Pc` in a trace, in CSR
/// layout over [`Pc::index`]: `positions[starts[pc]..starts[pc + 1]]`
/// are the trace indices where `pc` retired, ascending.
#[derive(Debug, Clone, Default)]
pub struct PcIndex {
    starts: Vec<u32>,
    positions: Vec<u32>,
}

impl PcIndex {
    /// Builds the index from the trace's `pc` lane: one pass counts the
    /// PCs and a second places them. The prefix sums are taken one row
    /// late, so placing with `starts[pc + 1]` as the cursor leaves it at
    /// the start of `pc + 1`: the CSR fills in place, with no copy of the
    /// cursors.
    pub fn build(trace: &Trace) -> PcIndex {
        let pcs = trace.pcs();
        let mut starts = vec![0u32];
        for pc in pcs {
            let pc = pc.index();
            if pc + 2 > starts.len() {
                starts.resize(pc + 2, 0);
            }
            starts[pc + 1] += 1;
        }
        let mut sum = 0;
        for s in &mut starts {
            let count = *s;
            *s = sum;
            sum += count;
        }
        let mut positions = vec![0u32; pcs.len()];
        for (i, pc) in pcs.iter().enumerate() {
            let slot = &mut starts[pc.index() + 1];
            positions[*slot as usize] = i as u32;
            *slot += 1;
        }
        PcIndex { starts, positions }
    }

    /// The trace indices where `pc` retired, ascending.
    fn occurrences(&self, pc: Pc) -> &[u32] {
        match (self.starts.get(pc.index()), self.starts.get(pc.index() + 1)) {
            (Some(&a), Some(&b)) => &self.positions[a as usize..b as usize],
            _ => &[],
        }
    }

    /// The first dynamic occurrence of `pc` at trace index `from` or later.
    pub fn next_at_or_after(&self, pc: Pc, from: u32) -> Option<u32> {
        let occ = self.occurrences(pc);
        let i = occ.partition_point(|&x| x < from);
        occ.get(i).copied()
    }

    /// Total dynamic occurrences of `pc`.
    pub fn count(&self, pc: Pc) -> usize {
        self.occurrences(pc).len()
    }

    /// Number of distinct static PCs that appear in the trace.
    pub fn distinct_pcs(&self) -> usize {
        self.starts.windows(2).filter(|w| w[0] != w[1]).count()
    }
}

/// The trace as it was before the lanes: one 48-byte [`TraceEntry`] per
/// retired instruction, with the validation, dataflow and PC-index code
/// that read it. Kept as the differential reference of the packed
/// [`Trace`] and of the oracle builders over its lanes.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub(crate) struct Trace {
        pub(crate) entries: Vec<TraceEntry>,
    }

    impl Trace {
        pub(crate) fn push(&mut self, e: TraceEntry) {
            self.entries.push(e);
        }

        pub(crate) fn validate(&self) -> Result<(), TraceError> {
            (0..self.entries.len()).try_for_each(|i| self.validate_entry(i))
        }

        pub(crate) fn validate_entry(&self, i: usize) -> Result<(), TraceError> {
            let e = &self.entries[i];
            let class = e.class();
            let is_mem = matches!(class, InstClass::Load | InstClass::Store);
            if is_mem && e.mem_addr.is_none() {
                return Err(TraceError::MissingMemAddr { index: i });
            }
            if !is_mem && e.mem_addr.is_some() {
                return Err(TraceError::UnexpectedMemAddr { index: i });
            }
            let is_control = matches!(
                class,
                InstClass::CondBranch
                    | InstClass::Jump
                    | InstClass::IndirectJump
                    | InstClass::Call
                    | InstClass::Ret
            );
            if e.taken && !is_control {
                return Err(TraceError::TakenNonControl { index: i });
            }
            if !e.taken && is_control && class != InstClass::CondBranch {
                return Err(TraceError::NotTakenUnconditional { index: i });
            }
            if class == InstClass::Halt && i + 1 != self.entries.len() {
                return Err(TraceError::HaltNotLast { index: i });
            }
            if let Some(next) = self.entries.get(i + 1) {
                if e.next_pc != next.pc {
                    return Err(TraceError::Discontinuity {
                        index: i,
                        next_pc: e.next_pc,
                        actual: next.pc,
                    });
                }
            }
            Ok(())
        }

        pub(crate) fn validate_complete(&self) -> Result<(), TraceError> {
            self.validate()?;
            if let Some(last) = self.entries.last() {
                if last.class() != InstClass::Halt {
                    return Err(TraceError::Truncated { last_pc: last.pc });
                }
            }
            Ok(())
        }

        pub(crate) fn validate_against(&self, program: &Program) -> Result<(), TraceError> {
            self.validate()?;
            for (i, e) in self.entries.iter().enumerate() {
                match program.get(e.pc) {
                    None => return Err(TraceError::PcOutOfProgram { index: i, pc: e.pc }),
                    Some(inst) if inst != e.inst => {
                        return Err(TraceError::InstMismatch { index: i, pc: e.pc })
                    }
                    Some(_) => {}
                }
            }
            Ok(())
        }

        /// `Dataflow::compute`'s rows.
        pub(crate) fn dataflow(&self) -> Vec<[u32; 3]> {
            let mut rows = vec![[NO_PRODUCER; 3]; self.entries.len()];
            let mut last_writer: [u32; Reg::COUNT] = [NO_PRODUCER; Reg::COUNT];
            let mut last_store: HashMap<u64, u32> = HashMap::new();
            for (i, (e, row)) in self.entries.iter().zip(rows.iter_mut()).enumerate() {
                for (s, src) in e.inst.srcs().into_iter().enumerate() {
                    if let Some(r) = src {
                        if r != Reg::R0 {
                            row[s] = last_writer[r.index()];
                        }
                    }
                }
                if e.class() == InstClass::Load {
                    if let Some(addr) = e.mem_addr {
                        if let Some(&p) = last_store.get(&crate::Memory::align(addr)) {
                            row[2] = p;
                        }
                    }
                }
                if e.class() == InstClass::Store {
                    if let Some(addr) = e.mem_addr {
                        last_store.insert(crate::Memory::align(addr), i as u32);
                    }
                }
                if let Some(d) = e.inst.dst() {
                    last_writer[d.index()] = i as u32;
                }
            }
            rows
        }

        /// `PcIndex::build` as it was before it read each entry once:
        /// three passes over the entries and a copied cursor array.
        /// Returns the `(starts, positions)` lanes.
        pub(crate) fn pc_index(&self) -> (Vec<u32>, Vec<u32>) {
            let entries = &self.entries;
            let pcs = entries.iter().map(|e| e.pc.index() + 1).max().unwrap_or(0);
            let mut starts = vec![0u32; pcs + 1];
            for e in entries {
                starts[e.pc.index() + 1] += 1;
            }
            for k in 1..starts.len() {
                starts[k] += starts[k - 1];
            }
            let mut next = starts.clone();
            let mut positions = vec![0u32; entries.len()];
            for (i, e) in entries.iter().enumerate() {
                let slot = &mut next[e.pc.index()];
                positions[*slot as usize] = i as u32;
                *slot += 1;
            }
            (starts, positions)
        }
    }

    /// The rows of a [`Dataflow`].
    pub(crate) fn rows(dataflow: &Dataflow) -> Vec<[u32; 3]> {
        dataflow.rows.clone()
    }

    /// The lanes of the index [`PcIndex::build`] makes.
    pub(crate) fn lanes(index: &PcIndex) -> (Vec<u32>, Vec<u32>) {
        (index.starts.clone(), index.positions.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Cond};

    fn entry(pc: u32, inst: Inst, next: u32) -> TraceEntry {
        TraceEntry {
            pc: Pc::new(pc),
            inst,
            taken: false,
            next_pc: Pc::new(next),
            mem_addr: None,
        }
    }

    #[test]
    fn redirected_detection() {
        let e = entry(0, Inst::Nop, 1);
        assert!(!e.redirected());
        let e = entry(0, Inst::Jmp { target: Pc::new(5) }, 5);
        assert!(e.redirected());
    }

    /// A halting program with a load and a store, plus its program text.
    fn mem_program_trace() -> (Program, Trace) {
        let mut b = crate::builder::ProgramBuilder::new();
        b.begin_function("main");
        let base = b.alloc_data(&[7]);
        b.li(Reg::R1, base as i64);
        b.load(Reg::R2, Reg::R1, 0);
        b.alui(AluOp::Add, Reg::R2, Reg::R2, 1);
        b.store(Reg::R2, Reg::R1, 0);
        b.halt();
        b.end_function();
        let p = b.build().expect("valid program");
        let r = crate::interp::execute_window(&p, 100).expect("executes");
        assert!(r.halted);
        (p, r.trace)
    }

    #[test]
    fn interpreter_traces_validate_cleanly() {
        let (p, t) = mem_program_trace();
        t.validate().unwrap();
        t.validate_complete().unwrap();
        t.validate_against(&p).unwrap();
        Trace::new().validate_complete().unwrap();
    }

    /// `t` with entry `i` rewritten by `edit`.
    fn edited(t: &Trace, i: usize, edit: impl FnOnce(&mut TraceEntry)) -> Trace {
        let mut t = t.clone();
        let mut e = t.entry(i);
        edit(&mut e);
        t.set(i, e);
        t
    }

    #[test]
    fn validate_flags_each_corruption_class() {
        let (p, clean) = mem_program_trace();

        // Discontinuity: rewrite an entry's next_pc off the chain.
        let t = edited(&clean, 0, |e| e.next_pc = Pc::new(4));
        assert!(matches!(
            t.validate(),
            Err(TraceError::Discontinuity { index: 0, .. })
        ));

        // Missing effective address on a load.
        let t = edited(&clean, 1, |e| e.mem_addr = None);
        assert!(matches!(
            t.validate(),
            Err(TraceError::MissingMemAddr { index: 1 })
        ));

        // Bogus effective address on an ALU op.
        let t = edited(&clean, 2, |e| e.mem_addr = Some(0xdead));
        assert!(matches!(
            t.validate(),
            Err(TraceError::UnexpectedMemAddr { index: 2 })
        ));

        // Taken flag flipped on a non-branch.
        let t = edited(&clean, 0, |e| e.taken = true);
        assert!(matches!(
            t.validate(),
            Err(TraceError::TakenNonControl { index: 0 })
        ));

        // Truncation: drop the final halt.
        let mut t = clean.clone();
        t.truncate(t.len() - 1);
        t.validate().unwrap();
        assert!(matches!(
            t.validate_complete(),
            Err(TraceError::Truncated { .. })
        ));

        // Bogus pc beyond the program text (self-consistent prefix, so
        // only the program cross-check can catch it).
        let t = edited(&clean, 0, |e| e.pc = Pc::new(1000));
        assert!(matches!(
            t.validate_against(&p),
            Err(TraceError::PcOutOfProgram { index: 0, .. })
        ));

        // Instruction bit flip: the text at this pc disagrees.
        let t = edited(&clean, 2, |e| e.inst = Inst::Nop);
        assert!(matches!(
            t.validate_against(&p),
            Err(TraceError::InstMismatch { index: 2, .. })
        ));
    }

    #[test]
    fn dataflow_register_chain() {
        // 0: li r1, 1
        // 1: li r2, 2
        // 2: add r3, r1, r2
        // 3: add r4, r3, r3
        let mut t = Trace::new();
        t.push(entry(
            0,
            Inst::Li {
                rd: Reg::R1,
                imm: 1,
            },
            1,
        ));
        t.push(entry(
            1,
            Inst::Li {
                rd: Reg::R2,
                imm: 2,
            },
            2,
        ));
        t.push(entry(
            2,
            Inst::Alu {
                op: AluOp::Add,
                rd: Reg::R3,
                rs: Reg::R1,
                rt: Reg::R2,
            },
            3,
        ));
        t.push(entry(
            3,
            Inst::Alu {
                op: AluOp::Add,
                rd: Reg::R4,
                rs: Reg::R3,
                rt: Reg::R3,
            },
            4,
        ));
        let df = t.dataflow();
        assert_eq!(df.reg_producers(2), [Some(0), Some(1)]);
        assert_eq!(df.reg_producers(3), [Some(2), Some(2)]);
        assert_eq!(df.producers(3).collect::<Vec<_>>(), vec![2]);
        assert_eq!(df.len(), 4);
        assert!(!df.is_empty());
    }

    #[test]
    fn dataflow_r0_has_no_producer() {
        let mut t = Trace::new();
        t.push(entry(
            0,
            Inst::Li {
                rd: Reg::R0,
                imm: 9,
            },
            1,
        )); // discarded
        t.push(entry(
            1,
            Inst::Alu {
                op: AluOp::Add,
                rd: Reg::R1,
                rs: Reg::R0,
                rt: Reg::R0,
            },
            2,
        ));
        let df = t.dataflow();
        assert_eq!(df.reg_producers(1), [None, None]);
    }

    #[test]
    fn dataflow_memory_chain() {
        let mut t = Trace::new();
        let mut st = entry(
            0,
            Inst::Store {
                rs: Reg::R1,
                base: Reg::R0,
                off: 0,
            },
            1,
        );
        st.mem_addr = Some(100);
        t.push(st);
        let mut ld = entry(
            1,
            Inst::Load {
                rd: Reg::R2,
                base: Reg::R0,
                off: 0,
            },
            2,
        );
        ld.mem_addr = Some(101); // same aligned word as 100
        t.push(ld);
        let mut ld2 = entry(
            2,
            Inst::Load {
                rd: Reg::R3,
                base: Reg::R0,
                off: 0,
            },
            3,
        );
        ld2.mem_addr = Some(200); // untouched word
        t.push(ld2);
        let df = t.dataflow();
        assert_eq!(df.mem_producer(1), Some(0));
        assert_eq!(df.mem_producer(2), None);
    }

    #[test]
    fn pc_index_queries() {
        let mut t = Trace::new();
        for (i, pc) in [0u32, 1, 2, 1, 2, 1, 3].into_iter().enumerate() {
            t.push(entry(pc, Inst::Nop, i as u32 + 1));
        }
        let idx = t.pc_index();
        assert_eq!(idx.count(Pc::new(1)), 3);
        assert_eq!(idx.next_at_or_after(Pc::new(1), 0), Some(1));
        assert_eq!(idx.next_at_or_after(Pc::new(1), 2), Some(3));
        assert_eq!(idx.next_at_or_after(Pc::new(1), 6), None);
        assert_eq!(idx.next_at_or_after(Pc::new(9), 0), None);
        assert_eq!(idx.next_at_or_after(Pc::new(3), 0), Some(6));
        assert_eq!(idx.count(Pc::new(u32::MAX)), 0);
        assert_eq!(idx.distinct_pcs(), 4);
        assert_eq!(Trace::new().pc_index().count(Pc::new(0)), 0);
    }

    #[test]
    fn cond_branch_count() {
        let mut t = Trace::new();
        t.push(entry(0, Inst::Nop, 1));
        t.push(entry(
            1,
            Inst::Br {
                cond: Cond::Eq,
                rs: Reg::R0,
                rt: Reg::R0,
                target: Pc::new(0),
            },
            0,
        ));
        assert_eq!(t.cond_branches(), 1);
    }

    #[test]
    fn trace_collect_and_iter() {
        let t: Trace = (0..3).map(|i| entry(i, Inst::Nop, i + 1)).collect();
        assert_eq!(t.len(), 3);
        assert_eq!(t.iter().count(), 3);
        assert_eq!((&t).into_iter().count(), 3);
        assert_eq!(t.entry(1).pc, Pc::new(1));
        assert_eq!(t.iter().next_back().unwrap().pc, Pc::new(2));
        assert_eq!(t.iter().len(), 3);
    }

    /// The bytes each lane holds per entry.
    fn lane_bytes(t: &Trace) -> usize {
        fn elem<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        elem(&t.pc) + elem(&t.next_pc) + elem(&t.inst_ref) + elem(&t.flags) + elem(&t.mem_addr)
    }

    #[test]
    fn lanes_take_at_most_24_bytes_an_entry() {
        assert_eq!(lane_bytes(&Trace::new()), 21);
        assert!(lane_bytes(&Trace::new()) <= 24);
        assert_eq!(std::mem::size_of::<TraceEntry>(), 48);
    }

    /// Every entry reads back as pushed — the odd ones included: an
    /// address of `0`, an address on a non-memory entry, a taken ALU op,
    /// a pc far past any program, and a second instruction at one pc —
    /// and each (pc, instruction) pair is pooled once.
    #[test]
    fn entries_round_trip_and_pairs_pool_once() {
        let (_, clean) = mem_program_trace();
        let mut odd: Vec<TraceEntry> = clean.iter().collect();
        let mut zero = odd[1];
        zero.mem_addr = Some(0);
        let mut stray = odd[0];
        stray.mem_addr = Some(u64::MAX);
        stray.taken = true;
        let mut far = odd[2];
        far.pc = Pc::new(u32::MAX);
        far.next_pc = Pc::new(u32::MAX - 1);
        let mut swapped = odd[2];
        swapped.inst = Inst::Nop;
        odd.extend([zero, stray, far, far, swapped, swapped, odd[0], odd[2]]);
        let t: Trace = odd.iter().copied().collect();
        assert_eq!(t.len(), odd.len());
        for (i, e) in odd.iter().enumerate() {
            assert_eq!(t.entry(i), *e, "entry {i}");
            assert_eq!(t.inst(i), e.inst);
            assert_eq!(t.pcs()[i], e.pc);
            assert_eq!(t.mem_addrs()[i], e.mem_addr.unwrap_or(0));
        }
        assert!(t.iter().eq(odd.iter().copied()));
        // The clean run's distinct pcs, plus `far` and `swapped`.
        assert_eq!(t.pool.insts.len(), clean.len() + 2);

        // `set` rewrites in place and round-trips the same way.
        let mut u = t.clone();
        for (i, e) in odd.iter().rev().enumerate() {
            u.set(i, *e);
        }
        assert!(u.iter().eq(odd.iter().rev().copied()));
        assert_ne!(u, t);
        u.truncate(2);
        assert_eq!(u.len(), 2);
        assert_eq!(u.entry(1), odd[odd.len() - 2]);
    }

    #[test]
    #[should_panic]
    fn set_out_of_range_panics() {
        let mut t: Trace = (0..3).map(|i| entry(i, Inst::Nop, i + 1)).collect();
        t.set(3, entry(3, Inst::Nop, 4));
    }
}
