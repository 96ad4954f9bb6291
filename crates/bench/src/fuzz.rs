//! Differential fuzzing and fault injection for the whole pipeline.
//!
//! Two modes, both driven by a fixed-seed [`SplitMix64`] stream so every
//! failure reproduces from its seed alone (hermetic — no system entropy):
//!
//! * **Differential** ([`fuzz_one`]): generate a random-but-well-formed
//!   structured program, require the static verifier to accept it, then
//!   cross-check every independent path through the pipeline — batch
//!   interpretation vs. single-stepping (architectural state and trace
//!   must agree exactly), assembler round-trip (`to_asm` →
//!   `parse_program` → identical trace), trace validation, and the cycle
//!   model under both the superscalar baseline and `postdoms` PolyFlow
//!   configurations (full retirement and the
//!   `sum(buckets) == cycles × contexts` ledger invariant).
//!
//! * **Fault injection** ([`Fault`], [`inject_and_check`]): corrupt the
//!   known-good trace with one operator per [`TraceError`] class — bit
//!   flips on successor PCs, dropped/bogus effective addresses, flipped
//!   taken bits, mid-trace halts, tail truncation, out-of-program PCs,
//!   and instruction substitution — and assert the corruption surfaces
//!   as the *expected* structured error from the appropriate validation
//!   tier, and that nothing panics.
//!
//! * **CFG shapes** ([`fuzz_shape_one`]): generate a dataflow problem
//!   whose graph targets a chosen cycle structure — chains, diamond
//!   ladders, irreducible two-entry loops, giant single SCCs, wide DAGs —
//!   and differentially check the worklist `solve` against the
//!   round-robin reference iteration (corpus mode `shape:<label>`).
//!
//! The `fuzz` binary drives all modes; `corpus/fuzz_corpus.txt` is the
//! checked-in regression corpus replayed by CI and the `fuzz_replay`
//! integration test.

use polyflow_core::{verify, Policy, ProgramAnalysis, VerifyOptions};
use polyflow_dataflow::oracle::{self, CfgShape};
use polyflow_isa::rng::SplitMix64;
use polyflow_isa::{
    execute_window, parse_program, to_asm, AluOp, Cond, Inst, InstClass, Interpreter, Pc, Program,
    ProgramBuilder, Reg, Trace, TraceEntry, TraceError,
};
use polyflow_sim::{
    simulate, MachineConfig, NoSpawn, NullSink, PreparedTrace, SimError, SimOptions, SimScratch,
    StaticSpawnSource,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Interpreter step budget per generated program (every generated
/// program halts well inside it).
pub const WINDOW: u64 = 120_000;

/// Cycle budget for the fuzz simulations: generous for any `WINDOW`-sized
/// trace, but a hard stop if the machine ever livelocks on a generated
/// program.
pub const FUZZ_MAX_CYCLES: u64 = 4_000_000;

/// Distribution knobs for the structured-program generator: relative
/// statement weights plus structural bounds. [`random_program`] draws
/// from [`GenDist::mixed`]; the `wsweep` mode sweeps every named bucket
/// in [`GenDist::BUCKETS`] to measure how speedup and
/// reconvergence-predictor accuracy respond to control-flow character.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenDist {
    /// Weight of straight-line ALU runs.
    pub work: u32,
    /// Weight of data-dependent if-else hammocks (branch density).
    pub hammock: u32,
    /// Weight of counted inner loops.
    pub looped: u32,
    /// Of 16 generated loops, how many carry a second nested level
    /// (loop depth 2).
    pub nest_rate: u32,
    /// Weight of call sites (fanned out across `callees` leaves).
    pub call: u32,
    /// Distinct leaf callees call sites target (1..=4).
    pub callees: u32,
    /// Weight of bounded two-entry loop regions — cycles a forward pass
    /// can enter at either of two blocks, i.e. irreducible control flow.
    pub irreducible: u32,
    /// Weight of memory statements: shared read-modify-write and
    /// unrolled array-walk reductions.
    pub memory: u32,
    /// Statement-list length bounds (min, max) past the fixed prologue.
    pub stmts: (u32, u32),
}

impl GenDist {
    /// A bit of everything — the default differential-fuzzing diet.
    /// Irreducible regions are excluded here: the fuzz harness demands
    /// verify-clean programs and the verifier (correctly) diagnoses
    /// irreducible loops. The dedicated [`GenDist::irreducible`] bucket
    /// stresses the simulator with them instead.
    pub const fn mixed() -> GenDist {
        GenDist {
            work: 3,
            hammock: 3,
            looped: 2,
            nest_rate: 4,
            call: 2,
            callees: 2,
            irreducible: 0,
            memory: 3,
            stmts: (1, 6),
        }
    }

    /// Dense data-dependent branching (crafty-like).
    pub const fn branchy() -> GenDist {
        GenDist {
            work: 1,
            hammock: 8,
            looped: 1,
            nest_rate: 0,
            call: 1,
            callees: 1,
            irreducible: 0,
            memory: 1,
            stmts: (4, 10),
        }
    }

    /// Deep counted loops with frequent nesting (gzip/bzip2-like).
    pub const fn loopy() -> GenDist {
        GenDist {
            work: 1,
            hammock: 1,
            looped: 8,
            nest_rate: 10,
            call: 0,
            callees: 1,
            irreducible: 0,
            memory: 1,
            stmts: (3, 8),
        }
    }

    /// Call-heavy with wide leaf fan-out (vortex/gap-like).
    pub const fn calls() -> GenDist {
        GenDist {
            work: 1,
            hammock: 1,
            looped: 1,
            nest_rate: 0,
            call: 8,
            callees: 4,
            irreducible: 0,
            memory: 1,
            stmts: (4, 10),
        }
    }

    /// Irreducible-region-heavy: stresses every analysis that assumes
    /// reducible loops.
    pub const fn irreducible() -> GenDist {
        GenDist {
            work: 1,
            hammock: 1,
            looped: 1,
            nest_rate: 0,
            call: 0,
            callees: 1,
            irreducible: 6,
            memory: 1,
            stmts: (2, 6),
        }
    }

    /// Memory-op-dominated: shared traffic plus array reductions
    /// (mcf-like).
    pub const fn memory() -> GenDist {
        GenDist {
            work: 1,
            hammock: 1,
            looped: 1,
            nest_rate: 0,
            call: 0,
            callees: 1,
            irreducible: 0,
            memory: 8,
            stmts: (4, 10),
        }
    }

    /// The named distribution buckets the `wsweep` mode reports by.
    pub const BUCKETS: [(&'static str, GenDist); 6] = [
        ("branchy", GenDist::branchy()),
        ("loopy", GenDist::loopy()),
        ("calls", GenDist::calls()),
        ("irreducible", GenDist::irreducible()),
        ("memory", GenDist::memory()),
        ("mixed", GenDist::mixed()),
    ];
}

/// One structured statement of a generated program (mirrors the shapes
/// the paper's heuristics target: straight-line work, hammocks, counted
/// loops, calls, irreducible regions, and memory traffic).
#[derive(Debug, Clone, Copy)]
enum Stmt {
    Work(u8),
    Hammock(u8, u8),
    Loop { iters: u8, body: u8, nested: bool },
    Call(u8),
    Shared,
    ArrayWalk(u8),
    TwoEntryLoop { iters: u8 },
}

fn random_stmt(rng: &mut SplitMix64, d: &GenDist) -> Stmt {
    let total = d.work + d.hammock + d.looped + d.call + d.irreducible + d.memory;
    if total == 0 {
        return Stmt::Work(1 + rng.below(7) as u8);
    }
    let mut roll = rng.below(total as u64) as u32;
    let mut take = |w: u32| {
        if roll < w {
            true
        } else {
            roll -= w;
            false
        }
    };
    if take(d.work) {
        Stmt::Work(1 + rng.below(7) as u8)
    } else if take(d.hammock) {
        Stmt::Hammock(1 + rng.below(5) as u8, 1 + rng.below(5) as u8)
    } else if take(d.looped) {
        Stmt::Loop {
            iters: 1 + rng.below(4) as u8,
            body: 1 + rng.below(4) as u8,
            nested: rng.below(16) < d.nest_rate as u64,
        }
    } else if take(d.call) {
        Stmt::Call(rng.below(d.callees.clamp(1, 4) as u64) as u8)
    } else if take(d.irreducible) {
        Stmt::TwoEntryLoop {
            iters: 2 + rng.below(5) as u8,
        }
    } else if rng.below(2) == 0 {
        Stmt::Shared
    } else {
        Stmt::ArrayWalk(1 + rng.below(7) as u8)
    }
}

/// [`random_program_with`] under the [`GenDist::mixed`] distribution —
/// the seed-only entry point the differential corpus replays.
pub fn random_program(seed: u64) -> Program {
    random_program_with(seed, &GenDist::mixed())
}

/// Generates the seed's program under `dist`: a bounded outer loop
/// around a weighted statement list whose fixed prologue always contains
/// one load/store pair, one hammock (an unconditional `jmp`), and one
/// call/return pair — so every fault-injection operator has an
/// applicable site no matter how the weights are skewed.
pub fn random_program_with(seed: u64, dist: &GenDist) -> Program {
    let mut rng = SplitMix64::new(seed);
    let mut stmts = vec![Stmt::Shared, Stmt::Hammock(2, 3), Stmt::Call(0)];
    let (lo, hi) = dist.stmts;
    let extra = lo + rng.index((hi.max(lo) - lo + 1) as usize) as u32;
    for _ in 0..extra {
        stmts.push(random_stmt(&mut rng, dist));
    }
    let outer = rng.range_i64(4, 24);
    let callees = dist.callees.clamp(1, 4) as usize;
    // Only leaves with a call site are emitted (a function nothing calls
    // would be dead code, which the verifier rightly rejects).
    let mut used = [false; 4];
    for s in &stmts {
        if let Stmt::Call(k) = *s {
            used[k as usize % callees] = true;
        }
    }

    let mut b = ProgramBuilder::new();
    let data = b.alloc_data(&[0xABCD_1234_5678_9EFF]);
    let shared = b.alloc_data(&[1]);
    let array: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
    let array = b.alloc_data(&array);
    b.begin_function("main");
    let top = b.fresh_label("outer");
    b.li(Reg::R9, 0);
    b.li(Reg::R20, data as i64);
    b.li(Reg::R21, shared as i64);
    b.li(Reg::R22, array as i64);
    b.bind_label(top);
    b.load(Reg::R11, Reg::R20, 0);
    b.alu(AluOp::Xor, Reg::R11, Reg::R11, Reg::R9);
    for (si, s) in stmts.iter().enumerate() {
        match *s {
            Stmt::Work(n) => {
                for _ in 0..n {
                    b.alui(AluOp::Add, Reg::R2, Reg::R2, 1);
                }
            }
            Stmt::Hammock(t, e) => {
                let els = b.fresh_label("els");
                let join = b.fresh_label("join");
                b.alui(AluOp::Srl, Reg::R13, Reg::R11, (si % 48) as i64);
                b.alui(AluOp::And, Reg::R13, Reg::R13, 1);
                b.br_imm(Cond::Eq, Reg::R13, 0, els);
                for _ in 0..t {
                    b.alui(AluOp::Add, Reg::R3, Reg::R3, 1);
                }
                b.jmp(join);
                b.bind_label(els);
                for _ in 0..e {
                    b.alui(AluOp::Add, Reg::R4, Reg::R4, 1);
                }
                b.bind_label(join);
            }
            Stmt::Loop {
                iters,
                body,
                nested,
            } => {
                let ltop = b.fresh_label("ltop");
                b.li(Reg::R5, 0);
                b.bind_label(ltop);
                for _ in 0..body {
                    b.alui(AluOp::Add, Reg::R6, Reg::R6, 1);
                }
                if nested {
                    let itop = b.fresh_label("itop");
                    b.li(Reg::R14, 0);
                    b.bind_label(itop);
                    b.alui(AluOp::Add, Reg::R15, Reg::R15, 1);
                    b.alui(AluOp::Add, Reg::R14, Reg::R14, 1);
                    b.br_imm(Cond::Lt, Reg::R14, body as i64, itop);
                }
                b.alui(AluOp::Add, Reg::R5, Reg::R5, 1);
                b.br_imm(Cond::Lt, Reg::R5, iters as i64, ltop);
            }
            Stmt::Call(k) => {
                b.alui(AluOp::Add, Reg::SP, Reg::SP, -8);
                b.store(Reg::RA, Reg::SP, 0);
                b.call(&leaf_name(k as usize % callees));
                b.load(Reg::RA, Reg::SP, 0);
                b.alui(AluOp::Add, Reg::SP, Reg::SP, 8);
            }
            Stmt::Shared => {
                b.load(Reg::R7, Reg::R21, 0);
                b.alui(AluOp::Mul, Reg::R7, Reg::R7, 3);
                b.store(Reg::R7, Reg::R21, 0);
            }
            Stmt::ArrayWalk(n) => {
                for i in 0..n.min(8) {
                    b.load(Reg::R17, Reg::R22, 8 * i as i64);
                    b.alu(AluOp::Add, Reg::R18, Reg::R18, Reg::R17);
                }
                b.store(Reg::R18, Reg::R22, 0);
            }
            Stmt::TwoEntryLoop { iters } => {
                // A cycle with two entries: the fall-through edge enters
                // at `l1`, the branch enters mid-cycle at `l2`, and the
                // counted back edge returns to `l1` — irreducible, but
                // bounded by the counter either way.
                let l1 = b.fresh_label("ie1");
                let l2 = b.fresh_label("ie2");
                b.li(Reg::R23, 0);
                b.alui(AluOp::Srl, Reg::R13, Reg::R11, (si % 48) as i64);
                b.alui(AluOp::And, Reg::R13, Reg::R13, 1);
                b.br_imm(Cond::Eq, Reg::R13, 0, l2);
                b.bind_label(l1);
                b.alui(AluOp::Add, Reg::R24, Reg::R24, 1);
                b.bind_label(l2);
                b.alui(AluOp::Add, Reg::R25, Reg::R25, 1);
                b.alui(AluOp::Add, Reg::R23, Reg::R23, 1);
                b.br_imm(Cond::Lt, Reg::R23, iters as i64, l1);
            }
        }
    }
    b.alui(AluOp::Add, Reg::R9, Reg::R9, 1);
    b.br_imm(Cond::Lt, Reg::R9, outer, top);
    b.halt();
    b.end_function();
    for (k, _) in used.iter().enumerate().filter(|(_, u)| **u) {
        b.begin_function(&leaf_name(k));
        b.alui(AluOp::Add, Reg::R26, Reg::R26, 1);
        b.alui(AluOp::Mul, Reg::R26, Reg::R26, 5 + 2 * k as i64);
        b.ret();
        b.end_function();
    }
    b.build().expect("generated program is structurally valid")
}

fn leaf_name(k: usize) -> String {
    if k == 0 {
        "leaf".to_string()
    } else {
        format!("leaf{k}")
    }
}

/// One trace-corruption operator, one per [`TraceError`] class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Rewrite an entry's `next_pc` off the actual successor.
    Discontinuity,
    /// Drop the effective address of a load or store.
    DropMemAddr,
    /// Attach a bogus effective address to an ALU entry.
    BogusMemAddr,
    /// Mark a non-control entry taken.
    TakenAlu,
    /// Mark an unconditional transfer not-taken.
    NotTakenJump,
    /// Overwrite a mid-trace entry's instruction with `halt`.
    MidHalt,
    /// Drop the final (halt) entry.
    TruncateTail,
    /// Point the first entry's `pc` outside the program text.
    BogusPc,
    /// Perturb an immediate so the recorded instruction no longer
    /// matches the program text (structurally invisible).
    InstSwap,
}

impl Fault {
    /// Every operator, in a fixed order (the fault mode applies them
    /// all, so coverage does not depend on the seed).
    pub const ALL: [Fault; 9] = [
        Fault::Discontinuity,
        Fault::DropMemAddr,
        Fault::BogusMemAddr,
        Fault::TakenAlu,
        Fault::NotTakenJump,
        Fault::MidHalt,
        Fault::TruncateTail,
        Fault::BogusPc,
        Fault::InstSwap,
    ];
}

/// Picks a random index of `trace` satisfying `pred`, or None.
fn pick_index(
    trace: &Trace,
    rng: &mut SplitMix64,
    pred: impl Fn(usize, InstClass) -> bool,
) -> Option<usize> {
    let hits: Vec<usize> = trace
        .iter()
        .enumerate()
        .filter(|(i, e)| pred(*i, e.class()))
        .map(|(i, _)| i)
        .collect();
    if hits.is_empty() {
        None
    } else {
        Some(hits[rng.index(hits.len())])
    }
}

/// Rewrites entry `i` of `trace` with `edit`.
fn edit_entry(trace: &mut Trace, i: usize, edit: impl FnOnce(&mut TraceEntry)) {
    let mut e = trace.entry(i);
    edit(&mut e);
    trace.set(i, e);
}

/// Applies `fault` to `trace`, returning the corrupted index (None if the
/// trace offers no applicable site — impossible for [`random_program`]
/// traces except in principle).
pub fn inject(
    trace: &mut Trace,
    fault: Fault,
    program: &Program,
    rng: &mut SplitMix64,
) -> Option<usize> {
    let len = trace.len();
    if len < 3 {
        return None;
    }
    match fault {
        Fault::Discontinuity => {
            // Not the final entry: the chain check needs a successor.
            let i = rng.index(len - 1);
            let actual = trace.entry(i + 1).pc;
            edit_entry(trace, i, |e| e.next_pc = actual.next());
            Some(i)
        }
        Fault::DropMemAddr => {
            let i = pick_index(trace, rng, |_, c| {
                matches!(c, InstClass::Load | InstClass::Store)
            })?;
            edit_entry(trace, i, |e| e.mem_addr = None);
            Some(i)
        }
        Fault::BogusMemAddr => {
            let i = pick_index(trace, rng, |_, c| c == InstClass::Alu)?;
            let addr = rng.next_u64();
            edit_entry(trace, i, |e| e.mem_addr = Some(addr));
            Some(i)
        }
        Fault::TakenAlu => {
            let i = pick_index(trace, rng, |_, c| c == InstClass::Alu)?;
            edit_entry(trace, i, |e| e.taken = true);
            Some(i)
        }
        Fault::NotTakenJump => {
            let i = pick_index(trace, rng, |_, c| {
                matches!(c, InstClass::Jump | InstClass::Call | InstClass::Ret)
            })?;
            edit_entry(trace, i, |e| e.taken = false);
            Some(i)
        }
        Fault::MidHalt => {
            // An ALU entry strictly before the end becomes a halt; the
            // structural pass flags it before any class-specific check.
            let i = pick_index(trace, rng, |i, c| c == InstClass::Alu && i + 1 < len)?;
            edit_entry(trace, i, |e| e.inst = Inst::Halt);
            Some(i)
        }
        Fault::TruncateTail => {
            trace.truncate(len - 1);
            Some(len - 1)
        }
        Fault::BogusPc => {
            // Entry 0: its pc participates in no predecessor's chain
            // check, so the corruption is structurally invisible and only
            // the program-relative tier can catch it.
            edit_entry(trace, 0, |e| e.pc = Pc::new(program.len() as u32 + 100));
            Some(0)
        }
        Fault::InstSwap => {
            let i = pick_index(trace, rng, |_, c| c == InstClass::Alu)?;
            edit_entry(trace, i, |e| {
                e.inst = match e.inst {
                    Inst::AluI { op, rd, rs, imm } => Inst::AluI {
                        op,
                        rd,
                        rs,
                        imm: imm.wrapping_add(1),
                    },
                    Inst::Li { rd, imm } => Inst::Li {
                        rd,
                        imm: imm.wrapping_add(1),
                    },
                    Inst::Alu { op, rd, rs, rt } => Inst::AluI {
                        op,
                        rd,
                        rs,
                        imm: rt.index() as i64,
                    },
                    other => other,
                };
            });
            Some(i)
        }
    }
}

/// Corrupts a clone of `trace` with `fault` and checks that the
/// corruption surfaces as the expected structured error — and that no
/// tier of the pipeline (validation, trace preparation, simulation)
/// panics on the corrupted input.
pub fn inject_and_check(
    program: &Program,
    trace: &Trace,
    fault: Fault,
    rng: &mut SplitMix64,
) -> Result<(), String> {
    let mut corrupted = trace.clone();
    let Some(idx) = inject(&mut corrupted, fault, program, rng) else {
        return Err(format!("{fault:?}: no applicable site in the trace"));
    };

    let fail = |msg: String| Err(format!("{fault:?} at entry {idx}: {msg}"));

    // Tier 1: the targeted validator must report the expected class.
    let structural = corrupted.validate();
    match fault {
        Fault::Discontinuity => {
            if !matches!(structural, Err(TraceError::Discontinuity { index, .. }) if index == idx) {
                return fail(format!("validate() returned {structural:?}"));
            }
        }
        Fault::DropMemAddr => {
            if structural != Err(TraceError::MissingMemAddr { index: idx }) {
                return fail(format!("validate() returned {structural:?}"));
            }
        }
        Fault::BogusMemAddr => {
            if structural != Err(TraceError::UnexpectedMemAddr { index: idx }) {
                return fail(format!("validate() returned {structural:?}"));
            }
        }
        Fault::TakenAlu => {
            if structural != Err(TraceError::TakenNonControl { index: idx }) {
                return fail(format!("validate() returned {structural:?}"));
            }
        }
        Fault::NotTakenJump => {
            if structural != Err(TraceError::NotTakenUnconditional { index: idx }) {
                return fail(format!("validate() returned {structural:?}"));
            }
        }
        Fault::MidHalt => {
            if structural != Err(TraceError::HaltNotLast { index: idx }) {
                return fail(format!("validate() returned {structural:?}"));
            }
        }
        Fault::TruncateTail => {
            // A truncated trace is a legal *window*; only the
            // completeness tier flags it.
            if structural.is_err() {
                return fail(format!("validate() returned {structural:?}"));
            }
            match corrupted.validate_complete() {
                Err(TraceError::Truncated { .. }) => {}
                other => return fail(format!("validate_complete() returned {other:?}")),
            }
        }
        Fault::BogusPc => {
            if structural.is_err() {
                return fail(format!("validate() returned {structural:?}"));
            }
            match corrupted.validate_against(program) {
                Err(TraceError::PcOutOfProgram { index, .. }) if index == idx => {}
                other => return fail(format!("validate_against() returned {other:?}")),
            }
        }
        Fault::InstSwap => {
            if structural.is_err() {
                return fail(format!("validate() returned {structural:?}"));
            }
            match corrupted.validate_against(program) {
                Err(TraceError::InstMismatch { index, .. }) if index == idx => {}
                other => return fail(format!("validate_against() returned {other:?}")),
            }
        }
    }

    // Tier 2: feeding the corrupted trace to the simulator must never
    // panic; structurally-detectable corruption must come back as
    // `SimError::MalformedTrace`.
    let structurally_bad = structural.is_err();
    let analysis = ProgramAnalysis::analyze(program);
    for multitask in [false, true] {
        let mut cfg = if multitask {
            MachineConfig::hpca07()
        } else {
            MachineConfig::superscalar()
        };
        cfg.max_cycles = FUZZ_MAX_CYCLES;
        let table = analysis.spawn_table(Policy::Postdoms);
        let sim = catch_unwind(AssertUnwindSafe(|| {
            let prepared = PreparedTrace::new(&corrupted, &cfg);
            let (scratch, opts) = (&mut SimScratch::default(), SimOptions::default());
            if multitask {
                let mut src = StaticSpawnSource::new(table.clone());
                simulate(&prepared, &cfg, &mut src, scratch, &mut NullSink, opts)
            } else {
                simulate(&prepared, &cfg, &mut NoSpawn, scratch, &mut NullSink, opts)
            }
        }));
        match sim {
            Err(_) => return fail("simulator panicked on corrupted trace".to_string()),
            Ok(Err(SimError::MalformedTrace(_))) if structurally_bad => {}
            Ok(other) if structurally_bad => {
                return fail(format!(
                    "expected SimError::MalformedTrace, got {:?}",
                    other.map(|(r, _)| r.cycles)
                ));
            }
            // Structurally-clean corruption (truncation, program-relative
            // faults) may simulate; it just must not panic.
            Ok(_) => {}
        }
    }
    Ok(())
}

/// Runs the full differential check for one seed; in `faults` mode,
/// additionally applies every fault operator to the seed's trace.
/// Returns a description of the first divergence found.
pub fn fuzz_one(seed: u64, faults: bool) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| fuzz_one_inner(seed, faults)))
        .unwrap_or_else(|p| {
            let msg = if let Some(s) = p.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = p.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(format!("panicked: {msg}"))
        })
        .map_err(|e| format!("seed {seed:#x}: {e}"))
}

fn fuzz_one_inner(seed: u64, faults: bool) -> Result<(), String> {
    let program = random_program(seed);

    // The static verifier must accept every generated program.
    let analysis = ProgramAnalysis::analyze(&program);
    let report = verify(&program, &analysis, &VerifyOptions::default());
    if !report.is_clean() {
        return Err(format!(
            "verifier rejected generated program: {} diagnostics",
            report.diagnostics.len()
        ));
    }

    // Differential 1: batch run vs. single-stepping. Architectural state
    // and the retirement trace must agree exactly.
    let mut batch = Interpreter::new(&program);
    let run = batch
        .run(WINDOW)
        .map_err(|e| format!("batch interpreter failed: {e}"))?;
    if !run.halted {
        return Err(format!("program did not halt in {WINDOW} steps"));
    }
    let mut stepper = Interpreter::new(&program);
    let mut stepped = Trace::new();
    while !stepper.is_halted() {
        match stepper.step() {
            Ok(Some(e)) => stepped.push(e),
            Ok(None) => break,
            Err(e) => return Err(format!("stepping interpreter failed: {e}")),
        }
        if stepped.len() as u64 > WINDOW {
            return Err("stepping interpreter overran the window".to_string());
        }
    }
    if run.trace != stepped {
        return Err(format!(
            "batch and stepped traces diverge (len {} vs {})",
            run.trace.len(),
            stepped.len()
        ));
    }
    for r in Reg::ALL {
        if batch.reg(r) != stepper.reg(r) {
            return Err(format!(
                "architectural divergence at {r:?}: {:#x} vs {:#x}",
                batch.reg(r),
                stepper.reg(r)
            ));
        }
    }
    for e in &run.trace {
        if let Some(addr) = e.mem_addr {
            if batch.memory().read(addr) != stepper.memory().read(addr) {
                return Err(format!("memory divergence at address {addr:#x}"));
            }
        }
    }

    // Differential 2: the assembler round-trip is a byte-identical
    // *program* identity (every instruction, function, jump table, data
    // word, and the name), not merely trace-preserving.
    let text = to_asm(&program);
    let reparsed = parse_program(&text).map_err(|e| format!("round-trip parse failed: {e}"))?;
    if reparsed != program {
        return Err("assembler round-trip changed the program".to_string());
    }
    let rerun = execute_window(&reparsed, WINDOW)
        .map_err(|e| format!("round-tripped program failed: {e}"))?;
    if rerun.trace != run.trace {
        return Err("assembler round-trip changed the trace".to_string());
    }

    // The emitted trace passes every validation tier.
    run.trace
        .validate_against(&program)
        .map_err(|e| format!("emitted trace failed validation: {e}"))?;
    run.trace
        .validate_complete()
        .map_err(|e| format!("emitted trace failed completeness: {e}"))?;

    // Cycle model: full retirement and a balanced ledger under both
    // machine geometries.
    for multitask in [false, true] {
        let mut cfg = if multitask {
            MachineConfig::hpca07()
        } else {
            MachineConfig::superscalar()
        };
        cfg.max_cycles = FUZZ_MAX_CYCLES;
        let prepared = PreparedTrace::new(&run.trace, &cfg);
        let label = if multitask { "postdoms" } else { "baseline" };
        let (scratch, opts) = (&mut SimScratch::default(), SimOptions::default());
        let (result, _) = if multitask {
            let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
            simulate(&prepared, &cfg, &mut src, scratch, &mut NullSink, opts)
        } else {
            simulate(&prepared, &cfg, &mut NoSpawn, scratch, &mut NullSink, opts)
        }
        .map_err(|e| format!("{label} simulation failed: {e}"))?;
        if result.instructions as usize != run.trace.len() {
            return Err(format!(
                "{label}: retired {} of {} instructions",
                result.instructions,
                run.trace.len()
            ));
        }
        if result.account.total_slots() != result.cycles * cfg.contexts() {
            return Err(format!(
                "{label}: ledger imbalance: {} slots != {} cycles × {} contexts",
                result.account.total_slots(),
                result.cycles,
                cfg.contexts()
            ));
        }
    }

    // Fault mode: every operator, every seed.
    if faults {
        let mut rng = SplitMix64::new(seed ^ 0xFA17);
        for fault in Fault::ALL {
            inject_and_check(&program, &run.trace, fault, &mut rng)?;
        }
    }
    Ok(())
}

/// Outcome of a multi-seed fuzz run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Seeds executed.
    pub seeds_run: u64,
    /// One line per failing seed (already prefixed with the seed).
    pub failures: Vec<String>,
}

/// Fuzzes seeds `seed0 .. seed0 + count`, collecting every failure.
pub fn fuzz_range(seed0: u64, count: u64, faults: bool) -> FuzzReport {
    let mut report = FuzzReport::default();
    for seed in seed0..seed0.saturating_add(count) {
        report.seeds_run += 1;
        if let Err(e) = fuzz_one(seed, faults) {
            report.failures.push(e);
        }
    }
    report
}

/// The CFG-shape-controlled generator mode: builds one dataflow problem
/// whose graph targets the shape's cycle structure
/// (`polyflow_dataflow::oracle::random_problem`), asserts the structure
/// was hit, and differentially checks `solve` against the round-robin
/// reference (`polyflow_dataflow::oracle::check_against_oracle`).
/// Panics inside the solver surface as failures, never aborts.
pub fn fuzz_shape_one(seed: u64, shape: CfgShape) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| fuzz_shape_inner(seed, shape)))
        .unwrap_or_else(|p| {
            let msg = if let Some(s) = p.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = p.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(format!("panicked: {msg}"))
        })
        .map_err(|e| format!("seed {seed:#x} shape {}: {e}", shape.label()))
}

fn fuzz_shape_inner(seed: u64, shape: CfgShape) -> Result<(), String> {
    let p = oracle::random_problem(seed, shape);
    // The generator's contract: the shape controls the cycle structure.
    let n = p.succs.len();
    let component_size = |v: usize| oracle::component_of(&p.succs, v).len();
    match shape {
        CfgShape::Chain | CfgShape::Diamond | CfgShape::WideDag => {
            if (0..n).any(|v| p.succs[v].contains(&v) || component_size(v) > 1) {
                return Err(format!("{} produced a cyclic component", shape.label()));
            }
        }
        CfgShape::GiantScc => {
            let size = component_size(0);
            if size != n {
                return Err(format!("giant-scc's component holds {size} of {n} nodes"));
            }
        }
        CfgShape::Irreducible => {
            if (0..n).all(|v| component_size(v) < 2) {
                return Err("irreducible produced no multi-node component".to_string());
            }
        }
        CfgShape::Mixed => {}
    }
    oracle::check_against_oracle(&p.as_problem())
}

/// Runs every [`CfgShape`] over `count` consecutive seeds.
pub fn fuzz_shapes(seed0: u64, count: u64) -> FuzzReport {
    let mut report = FuzzReport::default();
    for seed in seed0..seed0.saturating_add(count) {
        for shape in CfgShape::ALL {
            report.seeds_run += 1;
            if let Err(e) = fuzz_shape_one(seed, shape) {
                report.failures.push(e);
            }
        }
    }
    report
}

/// Replays a regression corpus: one `<seed> <mode>` pair per line, where
/// mode is `differential`, `faults`, or `shape:<label>` for the
/// CFG-shape-controlled dataflow mode (`#` comments and blank lines
/// ignored; seeds decimal or `0x`-hex). Returns the report, or the
/// first parse error.
pub fn replay_corpus(text: &str) -> Result<FuzzReport, String> {
    let mut report = FuzzReport::default();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let seed_tok = parts
            .next()
            .ok_or_else(|| format!("line {}: empty", ln + 1))?;
        let seed = parse_seed(seed_tok)
            .ok_or_else(|| format!("line {}: bad seed `{seed_tok}`", ln + 1))?;
        let result = match parts.next() {
            Some("faults") => fuzz_one(seed, true),
            Some("differential") | None => fuzz_one(seed, false),
            Some(mode) => {
                if let Some(label) = mode.strip_prefix("shape:") {
                    let shape = CfgShape::from_label(label)
                        .ok_or_else(|| format!("line {}: bad shape `{label}`", ln + 1))?;
                    fuzz_shape_one(seed, shape)
                } else {
                    return Err(format!("line {}: bad mode `{mode}`", ln + 1));
                }
            }
        };
        report.seeds_run += 1;
        if let Err(e) = result {
            report.failures.push(e);
        }
    }
    Ok(report)
}

/// The checked-in regression corpus (`corpus/fuzz_corpus.txt`).
pub const CORPUS: &str = include_str!("../corpus/fuzz_corpus.txt");

/// The seeds of [`CORPUS`]'s generated-program cases (the `differential`
/// and `faults` modes; [`random_program`] builds each), in file order,
/// for differential tests that run their own checks over the corpus.
pub fn corpus_program_seeds() -> Vec<u64> {
    CORPUS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let seed = parse_seed(parts.next()?)?;
            matches!(parts.next(), None | Some("differential" | "faults")).then_some(seed)
        })
        .collect()
}

/// Parses a decimal or `0x`-prefixed hex number: a seed here, and the
/// value of every numeric flag in [`crate::cli`].
pub fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_passes_differential_and_faults() {
        fuzz_one(0x7357, true).unwrap();
    }

    #[test]
    fn every_fault_operator_finds_a_site() {
        let program = random_program(0x5eed);
        let run = execute_window(&program, WINDOW).unwrap();
        let mut rng = SplitMix64::new(0xFA17);
        for fault in Fault::ALL {
            inject_and_check(&program, &run.trace, fault, &mut rng)
                .unwrap_or_else(|e| panic!("{fault:?}: {e}"));
        }
    }

    /// Every distribution bucket generates programs that halt inside the
    /// window, round-trip byte-identically through the assembler, and
    /// (for the irreducible bucket) actually contain an irreducible
    /// region often enough to matter.
    #[test]
    fn every_bucket_generates_runnable_programs() {
        for (name, dist) in GenDist::BUCKETS {
            for seed in 0..8u64 {
                let p = random_program_with(seed, &dist);
                let run = execute_window(&p, WINDOW)
                    .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
                assert!(run.halted, "{name} seed {seed} did not halt");
                let p2 = parse_program(&to_asm(&p))
                    .unwrap_or_else(|e| panic!("{name} seed {seed}: reparse: {e}"));
                assert_eq!(p, p2, "{name} seed {seed} drifted through the text format");
            }
        }
    }

    /// The knobs bite: the branchy bucket generates more conditional
    /// branches than the loopy bucket generates on the same seeds, and
    /// the calls bucket reaches more callees than mixed.
    #[test]
    fn distribution_knobs_shift_the_instruction_mix() {
        let count = |dist: &GenDist, pred: &dyn Fn(InstClass) -> bool| -> usize {
            (0..16u64)
                .map(|seed| {
                    let p = random_program_with(seed, dist);
                    p.insts().iter().filter(|i| pred(i.class())).count()
                })
                .sum()
        };
        // Hammocks are the only statements that emit an unconditional
        // `jmp` to a join, so the jump count isolates branch density
        // from loop back-edges (which are also conditional branches).
        let is_join_jump = |c: InstClass| c == InstClass::Jump;
        let branchy = count(&GenDist::branchy(), &is_join_jump);
        let loopy_joins = count(&GenDist::loopy(), &is_join_jump);
        assert!(
            branchy > loopy_joins,
            "branchy bucket must out-hammock loopy ({branchy} vs {loopy_joins})"
        );
        let is_mem = |c: InstClass| matches!(c, InstClass::Load | InstClass::Store);
        let memory = count(&GenDist::memory(), &is_mem);
        let branchy_mem = count(&GenDist::branchy(), &is_mem);
        assert!(
            memory > branchy_mem,
            "memory bucket must out-load branchy ({memory} vs {branchy_mem})"
        );
        let call_fanout = (0..16u64)
            .map(|s| random_program_with(s, &GenDist::calls()).functions().len())
            .max()
            .unwrap();
        assert!(
            call_fanout >= 3,
            "calls bucket reaches several leaves (saw {call_fanout} functions)"
        );
    }

    #[test]
    fn corpus_parser_accepts_all_modes_and_comments() {
        let report =
            replay_corpus("# comment\n\n0x7357 faults\n3 differential\n4\n5 shape:chain\n")
                .unwrap();
        assert_eq!(report.seeds_run, 4);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(replay_corpus("zzz faults").is_err());
        assert!(replay_corpus("1 sideways").is_err());
        assert!(replay_corpus("1 shape:zigzag").is_err());
    }

    #[test]
    fn shape_mode_passes_every_shape() {
        let report = fuzz_shapes(0x5eed, 2);
        assert_eq!(report.seeds_run, 2 * CfgShape::ALL.len() as u64);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
    }

    #[test]
    fn seed_parsing() {
        assert_eq!(parse_seed("10"), Some(10));
        assert_eq!(parse_seed("0x10"), Some(16));
        assert_eq!(parse_seed("0Xff"), Some(255));
        assert_eq!(parse_seed("nope"), None);
    }
}
