//! Differential tests of the interpreter, the packed trace and the
//! oracle builders over its lanes against the references they replaced
//! ([`crate::interp::reference`], [`crate::trace::reference`]).
//!
//! The inputs are the bundled workloads, the checked-in asm programs,
//! the fuzz corpus and every generator bucket. They are built by crates
//! that depend on this one, so they arrive as the non-test build's types
//! and cross into this test build as asm text (`to_asm` is a round-trip
//! identity).

use crate::interp::reference::{self, Reference};
use crate::trace::reference as trace_reference;
use crate::{
    parse_program, AluOp, ExecError, Interpreter, Pc, Program, ProgramBuilder, Reg, Trace,
    TraceEntry,
};
use polyflow_bench::fuzz::{self, Fault, GenDist};

/// A program of the non-test build, its window, and a seed for the
/// corruption operators.
struct Case {
    name: String,
    program: polyflow_isa::Program,
    window: u64,
    seed: u64,
}

fn cases() -> Vec<Case> {
    let mut cases: Vec<Case> = polyflow_workloads::all()
        .into_iter()
        .map(|w| Case {
            name: w.name,
            program: w.program,
            window: w.window,
            seed: 7,
        })
        .collect();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../workloads/asm");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "asm"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no checked-in asm programs");
    for path in paths {
        let w = polyflow_workloads::from_asm_file(&path).unwrap();
        cases.push(Case {
            name: w.name,
            program: w.program,
            window: w.window,
            seed: 11,
        });
    }
    for seed in fuzz::corpus_program_seeds() {
        cases.push(Case {
            name: format!("corpus {seed:#x}"),
            program: fuzz::random_program(seed),
            window: fuzz::WINDOW,
            seed,
        });
    }
    for (bucket, dist) in GenDist::BUCKETS {
        for seed in 0..4 {
            cases.push(Case {
                name: format!("{bucket}/{seed}"),
                program: fuzz::random_program_with(seed, &dist),
                window: fuzz::WINDOW,
                seed,
            });
        }
    }
    cases
}

/// This build's copy of a case's program.
fn local(case: &Case) -> Program {
    parse_program(&polyflow_isa::to_asm(&case.program)).unwrap()
}

/// The outcome a run reports, comparable across the two interpreters.
type Outcome = Result<(Vec<TraceEntry>, bool, u64), ExecError>;

fn outcome(r: Result<crate::ExecResult, ExecError>) -> Outcome {
    r.map(|r| (r.trace.iter().collect(), r.halted, r.steps))
}

/// Steps the interpreter and the reference side by side: every step's
/// entry or error, and at the end every register and resident word.
fn lockstep(name: &str, program: &Program, window: u64, limit: Option<u64>) {
    let mut new = Interpreter::new(program);
    new.set_address_limit(limit);
    let mut old = Reference::new(program, limit);
    for step in 0..window {
        let (a, b) = (new.step(), old.step());
        assert_eq!(a, b, "{name} (limit {limit:?}): step {step}");
        if !matches!(a, Ok(Some(_))) || new.is_halted() {
            break;
        }
    }
    for r in Reg::ALL {
        assert_eq!(new.reg(r), old.reg(r), "{name}: {r:?}");
    }
    assert_eq!(
        new.memory().resident_pages(),
        old.memory.resident_pages(),
        "{name}: resident pages"
    );
    for addr in old.memory.addresses() {
        assert_eq!(
            new.memory().read(addr),
            old.memory.read(addr),
            "{name}: {addr:#x}"
        );
    }
}

/// The window run and the lockstep run agree with the reference with no
/// address limit, with one below the stack, and with one below most
/// data; returns how many runs ended in a memory fault.
fn check_interpreter(name: &str, program: &Program, window: u64) -> usize {
    let mut faults = 0;
    for limit in [None, Some(0x7fff_0000), Some(0x1_0000)] {
        let new = outcome(reference::execute_window_limited(program, window, limit));
        let old = outcome(reference::execute_window(program, window, limit));
        assert_eq!(new, old, "{name} (limit {limit:?})");
        faults += matches!(new, Err(ExecError::MemoryFault { .. })) as usize;
        lockstep(name, program, window, limit);
    }
    // A window that ends mid-run.
    let short = window.min(1_000);
    assert_eq!(
        outcome(crate::execute_window(program, short)),
        outcome(reference::execute_window(program, short, None)),
        "{name} (window {short})"
    );
    faults
}

#[test]
fn interpreter_matches_reference() {
    let mut faults = 0;
    for case in cases() {
        faults += check_interpreter(&case.name, &local(&case), case.window);
    }
    assert!(faults > 0, "no run hit the address limit");
}

/// Control flow the interpreter rejects: an unaligned indirect target, a
/// return to a garbage address, an indirect call past the program, and a
/// store past the address limit.
#[test]
fn interpreter_errors_match_reference() {
    let build = |body: &dyn Fn(&mut ProgramBuilder)| {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        body(&mut b);
        b.halt();
        b.end_function();
        b.build().unwrap()
    };
    let programs = [
        build(&|b| {
            let l = b.fresh_label("l");
            b.li(Reg::R1, 3);
            b.jr(Reg::R1, &[l]);
            b.bind_label(l);
        }),
        build(&|b| {
            b.li(Reg::RA, 0xdead_beef);
            b.ret();
        }),
        build(&|b| {
            b.li(Reg::R1, 4 * 1_000);
            b.callr(Reg::R1);
        }),
        build(&|b| {
            b.li(Reg::R1, 0x4000);
            b.store(Reg::R2, Reg::R1, 0);
            b.alui(AluOp::Add, Reg::R1, Reg::R1, 0x10000);
            b.load(Reg::R3, Reg::R1, 8);
        }),
    ];
    let mut kinds = Vec::new();
    for (k, p) in programs.iter().enumerate() {
        for limit in [None, Some(0x8000)] {
            let new = outcome(reference::execute_window_limited(p, 100, limit));
            let old = outcome(reference::execute_window(p, 100, limit));
            assert_eq!(new, old, "error program {k} (limit {limit:?})");
            lockstep(&format!("error program {k}"), p, 100, limit);
            if let Err(e) = new {
                kinds.push(std::mem::discriminant(&e));
            }
        }
    }
    for e in [
        ExecError::BadIndirectTarget {
            at: Pc::new(0),
            value: 0,
        },
        ExecError::PcOutOfRange { pc: Pc::new(0) },
        ExecError::MemoryFault {
            at: Pc::new(0),
            addr: 0,
            limit: 0,
        },
    ] {
        assert!(
            kinds.contains(&std::mem::discriminant(&e)),
            "{e:?} not exercised"
        );
    }
}

/// This build's copy of an instruction of the non-test build that names
/// no target — the corruptions only write `halt` and ALU forms — through
/// its asm text.
fn local_inst(inst: polyflow_isa::Inst) -> crate::Inst {
    let program = parse_program(&format!("fn main {{\n    {inst}\n    halt\n}}\n")).unwrap();
    let local = program.inst(Pc::new(0));
    assert_eq!(local.to_string(), inst.to_string());
    local
}

/// The packed trace and the reference agree entry by entry, on every
/// validation verdict (`validate_entry` at the indices in `checked`),
/// and on the dataflow rows and PC index built from them.
fn assert_packed_matches(
    name: &str,
    program: &Program,
    packed: &Trace,
    old: &trace_reference::Trace,
    checked: std::ops::Range<usize>,
) {
    assert_eq!(packed.len(), old.entries.len(), "{name}: length");
    for (i, e) in old.entries.iter().enumerate() {
        assert_eq!(packed.entry(i), *e, "{name}: entry {i}");
    }
    assert!(
        packed.iter().eq(old.entries.iter().copied()),
        "{name}: iter"
    );
    assert_eq!(packed.validate(), old.validate(), "{name}: validate");
    for i in checked {
        assert_eq!(
            packed.validate_entry(i),
            old.validate_entry(i),
            "{name}: validate_entry({i})"
        );
    }
    assert_eq!(
        packed.validate_complete(),
        old.validate_complete(),
        "{name}: validate_complete"
    );
    assert_eq!(
        packed.validate_against(program),
        old.validate_against(program),
        "{name}: validate_against"
    );
    assert_eq!(
        trace_reference::rows(&packed.dataflow()),
        old.dataflow(),
        "{name}: dataflow"
    );
    assert_eq!(
        trace_reference::lanes(&packed.pc_index()),
        old.pc_index(),
        "{name}: PC index"
    );
}

/// The packed trace of every case reads back as the interpreter stepped
/// it, and so does its corruption by every fault operator of the fuzz
/// harness, applied as one edit to both layouts: the same verdicts, the
/// same dataflow and the same PC index. The corruption is made on the
/// non-test build's trace, whose length and PCs the mirrored edit keeps.
#[test]
fn packed_trace_matches_reference() {
    for case in cases() {
        let program = local(&case);
        let packed = crate::execute_window(&program, case.window).unwrap().trace;
        let mut old = trace_reference::Trace::default();
        let mut interp = Interpreter::new(&program);
        while (old.entries.len() as u64) < case.window {
            let Some(e) = interp.step().unwrap() else {
                break;
            };
            old.push(e);
            if interp.is_halted() {
                break;
            }
        }
        assert_packed_matches(&case.name, &program, &packed, &old, 0..old.entries.len());

        let lib = polyflow_isa::execute_window(&case.program, case.window)
            .unwrap()
            .trace;
        assert_eq!(lib.len(), packed.len(), "{}: non-test length", case.name);
        let mut rng = polyflow_isa::rng::SplitMix64::new(case.seed);
        for fault in Fault::ALL {
            let mut corrupted = lib.clone();
            let Some(i) = fuzz::inject(&mut corrupted, fault, &case.program, &mut rng) else {
                continue;
            };
            let name = format!("{} {fault:?}", case.name);
            let (mut new, mut ref_side) = (packed.clone(), old.clone());
            if corrupted.len() < lib.len() {
                new.truncate(corrupted.len());
                ref_side.entries.truncate(corrupted.len());
            } else {
                let c = corrupted.entry(i);
                let e = TraceEntry {
                    pc: Pc::new(c.pc.index() as u32),
                    inst: if c.inst == lib.entry(i).inst {
                        packed.inst(i)
                    } else {
                        local_inst(c.inst)
                    },
                    taken: c.taken,
                    next_pc: Pc::new(c.next_pc.index() as u32),
                    mem_addr: c.mem_addr,
                };
                new.set(i, e);
                ref_side.entries[i] = e;
            }
            let pcs = |e: TraceEntry| (e.pc.index(), e.next_pc.index());
            let lib_pcs = |e: polyflow_isa::TraceEntry| (e.pc.index(), e.next_pc.index());
            assert!(
                new.iter().map(pcs).eq(corrupted.iter().map(lib_pcs)),
                "{name}: the mirrored edit keeps the corrupted PCs"
            );
            let around = i.saturating_sub(1)..(i + 2).min(ref_side.entries.len());
            assert_packed_matches(&name, &program, &new, &ref_side, around);
            // Every fault changes the trace (an instruction swap leaves a
            // `nop` as it is), on both builds, and the non-test build's
            // packed trace reaches the same verdict.
            let nop = fault == Fault::InstSwap && lib.entry(i).inst == polyflow_isa::Inst::Nop;
            assert_eq!(corrupted == lib, nop, "{name}: the fault's edit was lost");
            assert_eq!(new == packed, nop, "{name}: edit");
            assert_eq!(
                format!("{:?}", corrupted.validate_against(&case.program)),
                format!("{:?}", new.validate_against(&program)),
                "{name}: verdict of the non-test build"
            );
        }
    }
    assert_packed_matches(
        "empty",
        &local(&cases()[0]),
        &Trace::new(),
        &trace_reference::Trace::default(),
        0..0,
    );
}
