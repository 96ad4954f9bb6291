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

/// One retired instruction.
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

/// A retired-instruction trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends an entry.
    pub fn push(&mut self, e: TraceEntry) {
        self.entries.push(e);
    }

    /// Number of retired instructions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no instructions were retired.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in retirement order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Mutable access to the entries — a fault-injection hook. Mutation
    /// can break every invariant [`Trace::validate`] and friends check;
    /// consumers are expected to re-validate after corrupting.
    pub fn entries_mut(&mut self) -> &mut [TraceEntry] {
        &mut self.entries
    }

    /// Drops every entry past the first `len` — the truncation
    /// fault-injection operator ([`Trace::validate_complete`] flags the
    /// result when the new tail is not a halt).
    pub fn truncate(&mut self, len: usize) {
        self.entries.truncate(len);
    }

    /// The entry at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn entry(&self, idx: usize) -> &TraceEntry {
        &self.entries[idx]
    }

    /// Iterates over entries in retirement order.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEntry> {
        self.entries.iter()
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
        self.entries
            .iter()
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
        (0..self.entries.len()).try_for_each(|i| self.validate_entry(i))
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

    /// [`Trace::validate`], additionally requiring a complete execution:
    /// a non-empty trace must end in `halt`. Use this when the trace is
    /// supposed to cover a whole run (windowed traces are legitimately
    /// truncated and should use `validate`).
    pub fn validate_complete(&self) -> Result<(), TraceError> {
        self.validate()?;
        if let Some(last) = self.entries.last() {
            if last.class() != InstClass::Halt {
                return Err(TraceError::Truncated { last_pc: last.pc });
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
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEntry;
    type IntoIter = std::slice::Iter<'a, TraceEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

impl FromIterator<TraceEntry> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEntry>>(iter: I) -> Trace {
        Trace {
            entries: iter.into_iter().collect(),
        }
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
    /// Computes producers with a single forward pass.
    pub fn compute(trace: &Trace) -> Dataflow {
        let n = trace.len();
        let mut rows = vec![[NO_PRODUCER; 3]; n];
        let mut last_writer: [u32; Reg::COUNT] = [NO_PRODUCER; Reg::COUNT];
        let mut last_store: HashMap<u64, u32> = HashMap::new();

        for (i, (e, row)) in trace.iter().zip(rows.iter_mut()).enumerate() {
            let srcs = e.inst.srcs();
            for (s, src) in srcs.into_iter().enumerate() {
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
    /// Builds the index reading each trace entry once: that pass counts
    /// the PCs and keeps them in a `u32` lane, and the placement runs
    /// over the lane. The prefix sums are taken one row late, so placing
    /// with `starts[pc + 1]` as the cursor leaves it at the start of
    /// `pc + 1`: the CSR fills in place, with no copy of the cursors.
    pub fn build(trace: &Trace) -> PcIndex {
        let mut pcs: Vec<u32> = Vec::with_capacity(trace.len());
        let mut starts = vec![0u32];
        for e in trace {
            let pc = e.pc.index();
            if pc + 2 > starts.len() {
                starts.resize(pc + 2, 0);
            }
            starts[pc + 1] += 1;
            pcs.push(pc as u32);
        }
        let mut sum = 0;
        for s in &mut starts {
            let count = *s;
            *s = sum;
            sum += count;
        }
        let mut positions = vec![0u32; pcs.len()];
        for (i, &pc) in pcs.iter().enumerate() {
            let slot = &mut starts[pc as usize + 1];
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

/// `PcIndex::build` as it was before it read each entry once: three
/// passes over the entries and a copied cursor array. Returns the
/// `(starts, positions)` lanes; kept as the differential reference.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub(crate) fn pc_index(trace: &Trace) -> (Vec<u32>, Vec<u32>) {
        let pcs = trace.iter().map(|e| e.pc.index() + 1).max().unwrap_or(0);
        let mut starts = vec![0u32; pcs + 1];
        for e in trace {
            starts[e.pc.index() + 1] += 1;
        }
        for k in 1..starts.len() {
            starts[k] += starts[k - 1];
        }
        let mut next = starts.clone();
        let mut positions = vec![0u32; trace.len()];
        for (i, e) in trace.iter().enumerate() {
            let slot = &mut next[e.pc.index()];
            positions[*slot as usize] = i as u32;
            *slot += 1;
        }
        (starts, positions)
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

    #[test]
    fn validate_flags_each_corruption_class() {
        let (p, clean) = mem_program_trace();

        // Discontinuity: rewrite an entry's next_pc off the chain.
        let mut t = clean.clone();
        t.entries[0].next_pc = Pc::new(4);
        assert!(matches!(
            t.validate(),
            Err(TraceError::Discontinuity { index: 0, .. })
        ));

        // Missing effective address on a load.
        let mut t = clean.clone();
        t.entries[1].mem_addr = None;
        assert!(matches!(
            t.validate(),
            Err(TraceError::MissingMemAddr { index: 1 })
        ));

        // Bogus effective address on an ALU op.
        let mut t = clean.clone();
        t.entries[2].mem_addr = Some(0xdead);
        assert!(matches!(
            t.validate(),
            Err(TraceError::UnexpectedMemAddr { index: 2 })
        ));

        // Taken flag flipped on a non-branch.
        let mut t = clean.clone();
        t.entries[0].taken = true;
        assert!(matches!(
            t.validate(),
            Err(TraceError::TakenNonControl { index: 0 })
        ));

        // Truncation: drop the final halt.
        let mut t = clean.clone();
        t.entries.pop();
        t.validate().unwrap();
        assert!(matches!(
            t.validate_complete(),
            Err(TraceError::Truncated { .. })
        ));

        // Bogus pc beyond the program text (self-consistent prefix, so
        // only the program cross-check can catch it).
        let mut t = clean.clone();
        t.entries[0].pc = Pc::new(1000);
        assert!(matches!(
            t.validate_against(&p),
            Err(TraceError::PcOutOfProgram { index: 0, .. })
        ));

        // Instruction bit flip: the text at this pc disagrees.
        let mut t = clean.clone();
        t.entries[2].inst = Inst::Nop;
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
    }
}
