//! Static verification of programs and their spawn tables.
//!
//! The paper's spawn machinery rests on structural facts the rest of the
//! pipeline silently assumes: every spawn target postdominates its
//! trigger, immediate-postdominator computation is correct, functions are
//! well terminated, and so on. This module re-derives each assumption as
//! an explicit check and reports violations as [`Diagnostic`]s:
//!
//! * **unreachable blocks** — dead code the CFG builder materialized;
//! * **use of an undefined register** — a read no definition reaches
//!   (policy-controlled via [`EntryDefs`], see [`VerifyOptions`]);
//! * **malformed terminators** — control transfers that leave the
//!   enclosing function other than by call/return/halt, or functions
//!   whose final instruction can fall off the end;
//! * **irreducible loops** — retreating edges whose target does not
//!   dominate their source (the loop forest, and therefore loop-derived
//!   spawn classification, is only meaningful on reducible flow graphs);
//! * **immediate-postdominator mismatches** — the production iterative
//!   solver cross-checked against the set-based reference oracle;
//! * **illegal spawn points** — a postdominator-kind spawn whose target
//!   does not postdominate its trigger, or a loop-iteration spawn whose
//!   target is not a latch of the triggering header.
//!
//! Alongside the pass/fail diagnostics, [`verify`] reports [`HintPressure`]
//! for every spawn point: the statically predicted live-in registers of
//! the spawned task versus the hint cache's register-slot capacity
//! (`hint_register_slots`, §3.1). Overflow is not an error — the hardware
//! degrades by synchronizing on a conservative mask — so pressure is a
//! report, not a diagnostic.

use crate::analysis::ProgramAnalysis;
use crate::classify::SpawnKind;
use crate::spawn::SpawnPoint;
use polyflow_cfg::{reference, BlockId, Cfg, DomTree};
use polyflow_dataflow::{EntryDefs, ReachingDefs};
use polyflow_isa::{Inst, Pc, Program, Reg};
use std::fmt;

/// What a [`Diagnostic`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckKind {
    /// A basic block no path from the function entry reaches.
    Unreachable,
    /// A register read that no definition reaches.
    UndefinedUse,
    /// A control transfer that exits the function body, or a function
    /// whose last instruction can fall off the end.
    MalformedTerminator,
    /// A retreating edge whose target does not dominate its source.
    IrreducibleLoop,
    /// The iterative immediate-postdominator solver disagrees with the
    /// set-based reference computation.
    IpostdomMismatch,
    /// A spawn point violating the postdominance (or latch) contract.
    IllegalSpawn,
    /// A function whose CFG cannot be built at all (empty body, or a
    /// range past the program's end). [`ProgramAnalysis::analyze`] skips
    /// such functions instead of panicking; this check reports them.
    DegenerateCfg,
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CheckKind::Unreachable => "unreachable-block",
            CheckKind::UndefinedUse => "undefined-use",
            CheckKind::MalformedTerminator => "malformed-terminator",
            CheckKind::IrreducibleLoop => "irreducible-loop",
            CheckKind::IpostdomMismatch => "ipostdom-mismatch",
            CheckKind::IllegalSpawn => "illegal-spawn",
            CheckKind::DegenerateCfg => "degenerate-cfg",
        };
        f.write_str(s)
    }
}

/// One verifier finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which check fired.
    pub check: CheckKind,
    /// The function the finding is in.
    pub function: String,
    /// The instruction the finding is anchored to (a block's first
    /// instruction for block-level findings).
    pub pc: Pc,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} at {}: {}",
            self.check, self.function, self.pc, self.message
        )
    }
}

/// Statically predicted hint-cache occupancy of one spawn point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HintPressure {
    /// The spawn point.
    pub spawn: SpawnPoint,
    /// The spawned task's static live-in registers at the target.
    pub live_in: Vec<Reg>,
    /// The modeled hint-entry register-slot capacity.
    pub slots: usize,
}

impl HintPressure {
    /// True if the live-in set does not fit the hint entry's slots.
    pub fn overflows(&self) -> bool {
        self.live_in.len() > self.slots
    }
}

/// Verifier configuration.
#[derive(Debug, Clone, Copy)]
pub struct VerifyOptions {
    /// Entry policy for the undefined-use check on the *entry* function.
    /// Non-entry functions always use [`EntryDefs::All`] — their callers
    /// arrive with a fully materialized register file.
    pub entry_defs: EntryDefs,
    /// Hint-entry register slots (the `hint_register_slots` machine
    /// parameter, §3.1) used for the [`HintPressure`] report.
    pub hint_register_slots: usize,
}

impl Default for VerifyOptions {
    fn default() -> VerifyOptions {
        VerifyOptions {
            entry_defs: EntryDefs::All,
            hint_register_slots: 4,
        }
    }
}

/// The outcome of [`verify`].
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// All findings, in function order.
    pub diagnostics: Vec<Diagnostic>,
    /// Hint-capacity report for every spawn candidate.
    pub hint_pressure: Vec<HintPressure>,
}

impl VerifyReport {
    /// True if no check fired (hint pressure does not count).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The findings of one check.
    pub fn of_kind(&self, check: CheckKind) -> impl Iterator<Item = &Diagnostic> + '_ {
        self.diagnostics.iter().filter(move |d| d.check == check)
    }

    /// Spawn points whose predicted live-ins exceed the hint slots.
    pub fn hint_overflows(&self) -> impl Iterator<Item = &HintPressure> + '_ {
        self.hint_pressure.iter().filter(|h| h.overflows())
    }
}

/// Runs every static check over `program`.
pub fn verify(program: &Program, analysis: &ProgramAnalysis, opts: &VerifyOptions) -> VerifyReport {
    let mut report = VerifyReport::default();
    let entry_fn = program.function_at(program.entry()).map(|f| f.name.clone());

    // Functions [`ProgramAnalysis::analyze`] skipped because their CFG
    // cannot be built are still lint findings: report the typed build
    // error instead of letting `Cfg::build` panic downstream.
    for f in program.functions() {
        if analysis.function(&f.name).is_none() {
            if let Err(e) = Cfg::try_build(program, f) {
                report.diagnostics.push(Diagnostic {
                    check: CheckKind::DegenerateCfg,
                    function: f.name.clone(),
                    pc: f.entry(),
                    message: e.to_string(),
                });
            }
        }
    }

    for fa in analysis.functions() {
        let cfg = &fa.cfg;
        let name = &cfg.function().name;
        let reachable: Vec<bool> = (0..cfg.len())
            .map(|i| fa.dom.is_reachable(BlockId::from_index(i)))
            .collect();

        check_unreachable(cfg, &reachable, name, &mut report.diagnostics);
        check_terminators(program, cfg, name, &mut report.diagnostics);
        check_reducibility(cfg, &fa.dom, &reachable, name, &mut report.diagnostics);
        check_ipostdoms(cfg, &fa.pdom, name, &mut report.diagnostics);

        let policy = if Some(name.as_str()) == entry_fn.as_deref() {
            opts.entry_defs
        } else {
            EntryDefs::All
        };
        let rd = ReachingDefs::compute_with(program, cfg, policy);
        for u in rd.undefined_uses(program, cfg, &reachable) {
            report.diagnostics.push(Diagnostic {
                check: CheckKind::UndefinedUse,
                function: name.clone(),
                pc: u.pc,
                message: format!("{} read before any definition reaches it", u.reg),
            });
        }
    }

    check_spawn_points(analysis, analysis.candidates(), &mut report.diagnostics);

    for &sp in analysis.candidates() {
        report.hint_pressure.push(HintPressure {
            spawn: sp,
            live_in: analysis.live_in_regs(sp.target),
            slots: opts.hint_register_slots,
        });
    }
    report
}

fn check_unreachable(cfg: &Cfg, reachable: &[bool], name: &str, out: &mut Vec<Diagnostic>) {
    for block in cfg.blocks() {
        if !reachable[block.id.index()] {
            out.push(Diagnostic {
                check: CheckKind::Unreachable,
                function: name.to_string(),
                pc: block.start,
                message: format!("block {} is unreachable from the function entry", block.id),
            });
        }
    }
}

fn check_terminators(program: &Program, cfg: &Cfg, name: &str, out: &mut Vec<Diagnostic>) {
    let func = cfg.function();
    for block in cfg.blocks() {
        let tpc = block.terminator_pc();
        match cfg.terminator(block.id) {
            Inst::Br { target, .. } | Inst::Jmp { target } if !func.contains(target) => {
                out.push(Diagnostic {
                    check: CheckKind::MalformedTerminator,
                    function: name.to_string(),
                    pc: tpc,
                    message: format!("branch target {target} lies outside the function"),
                });
            }
            Inst::Jr { .. } => {
                for &t in program.jump_targets(tpc) {
                    if !func.contains(t) {
                        out.push(Diagnostic {
                            check: CheckKind::MalformedTerminator,
                            function: name.to_string(),
                            pc: tpc,
                            message: format!("indirect jump target {t} lies outside the function"),
                        });
                    }
                }
            }
            _ => {}
        }
    }
    // The function's final instruction must not fall off the end.
    let last = Pc::new(func.range.end - 1);
    if !matches!(
        program.inst(last),
        Inst::Jmp { .. } | Inst::Jr { .. } | Inst::Ret | Inst::Halt
    ) {
        out.push(Diagnostic {
            check: CheckKind::MalformedTerminator,
            function: name.to_string(),
            pc: last,
            message: "function's last instruction can fall off the end".to_string(),
        });
    }
}

/// A reducible graph's every retreating edge targets a dominator of its
/// source; a violation is (part of) an irreducible loop.
fn check_reducibility(
    cfg: &Cfg,
    dom: &DomTree,
    reachable: &[bool],
    name: &str,
    out: &mut Vec<Diagnostic>,
) {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; cfg.len()];
    // Iterative DFS with an explicit edge cursor so we can mark gray/black
    // correctly.
    let mut stack: Vec<(usize, usize)> = vec![(cfg.entry().index(), 0)];
    color[cfg.entry().index()] = GRAY;
    while let Some(&mut (u, ref mut cursor)) = stack.last_mut() {
        let succs = cfg.succs(BlockId::from_index(u));
        if *cursor == succs.len() {
            color[u] = BLACK;
            stack.pop();
            continue;
        }
        let v = succs[*cursor].0.index();
        *cursor += 1;
        match color[v] {
            WHITE => {
                color[v] = GRAY;
                stack.push((v, 0));
            }
            GRAY
                // Retreating edge u -> v.
                if reachable[u]
                    && !dom.dominates(BlockId::from_index(v), BlockId::from_index(u))
                => {
                    out.push(Diagnostic {
                        check: CheckKind::IrreducibleLoop,
                        function: name.to_string(),
                        pc: cfg.block(BlockId::from_index(u)).terminator_pc(),
                        message: format!(
                            "back edge into {} whose header does not dominate it \
                             (irreducible loop)",
                            BlockId::from_index(v)
                        ),
                    });
                }
            _ => {}
        }
    }
}

fn check_ipostdoms(cfg: &Cfg, pdom: &DomTree, name: &str, out: &mut Vec<Diagnostic>) {
    let oracle = reference::immediate_postdominators(cfg);
    for block in cfg.blocks() {
        let got = if pdom.is_reachable(block.id) {
            pdom.idom(block.id)
        } else {
            None
        };
        let want = oracle[block.id.index()];
        if got != want {
            out.push(Diagnostic {
                check: CheckKind::IpostdomMismatch,
                function: name.to_string(),
                pc: block.start,
                message: format!(
                    "iterative solver says ipostdom({}) = {:?}, reference says {:?}",
                    block.id, got, want
                ),
            });
        }
    }
}

/// Checks the spawn-point contract for an arbitrary set of points.
///
/// Public so tests (and tools) can validate hand-built spawn tables, not
/// just the ones [`ProgramAnalysis`] derives — which are correct by
/// construction and exercised by [`verify`].
pub fn check_spawn_points(
    analysis: &ProgramAnalysis,
    points: &[SpawnPoint],
    out: &mut Vec<Diagnostic>,
) {
    for sp in points {
        let Some(fa) = analysis
            .functions()
            .iter()
            .find(|f| f.cfg.function().contains(sp.trigger))
        else {
            out.push(Diagnostic {
                check: CheckKind::IllegalSpawn,
                function: "<none>".to_string(),
                pc: sp.trigger,
                message: "spawn trigger lies outside every function".to_string(),
            });
            continue;
        };
        let name = &fa.cfg.function().name;
        let (Some(tb), Some(gb)) = (fa.cfg.block_at(sp.trigger), fa.cfg.block_at(sp.target)) else {
            out.push(Diagnostic {
                check: CheckKind::IllegalSpawn,
                function: name.clone(),
                pc: sp.trigger,
                message: format!(
                    "spawn target {} is not in the trigger's function",
                    sp.target
                ),
            });
            continue;
        };
        match sp.kind {
            SpawnKind::Loop => {
                // The loop-iteration heuristic spawns a latch from its
                // header; the latch does NOT postdominate the header (the
                // loop may exit first) — its contract is latch-of-header.
                let ok = fa
                    .loops
                    .loops()
                    .iter()
                    .any(|l| l.header == tb && l.latches.contains(&gb));
                if !ok {
                    out.push(Diagnostic {
                        check: CheckKind::IllegalSpawn,
                        function: name.clone(),
                        pc: sp.trigger,
                        message: format!(
                            "loop spawn target {} is not a latch of a loop headed at {}",
                            sp.target, sp.trigger
                        ),
                    });
                }
            }
            _ => {
                if !fa.pdom.dominates(gb, tb) {
                    out.push(Diagnostic {
                        check: CheckKind::IllegalSpawn,
                        function: name.clone(),
                        pc: sp.trigger,
                        message: format!(
                            "spawn target {} does not postdominate trigger {}",
                            sp.target, sp.trigger
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyflow_isa::{AluOp, Cond, ProgramBuilder};

    fn analyzed(p: &Program) -> ProgramAnalysis {
        ProgramAnalysis::analyze(p)
    }

    /// A healthy program with a loop, a hammock, and a call.
    fn healthy() -> Program {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        let skip = b.fresh_label("skip");
        b.li(Reg::R1, 0); // 0
        b.bind_label(top);
        b.br_imm(Cond::Eq, Reg::R1, 3, skip); // 1,2
        b.call("leaf"); // 3
        b.bind_label(skip);
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1); // 4
        b.br_imm(Cond::Lt, Reg::R1, 5, top); // 5,6
        b.halt(); // 7
        b.end_function();
        b.begin_function("leaf");
        b.ret();
        b.end_function();
        b.build().unwrap()
    }

    #[test]
    fn healthy_program_is_clean() {
        let p = healthy();
        let a = analyzed(&p);
        let r = verify(&p, &a, &VerifyOptions::default());
        assert!(r.is_clean(), "unexpected diagnostics: {:?}", r.diagnostics);
        assert_eq!(r.hint_pressure.len(), a.candidates().len());
    }

    #[test]
    fn single_block_functions_are_clean() {
        // The smallest legal CFG shape — one block, entry == exit — must
        // neither panic nor lint (bundled workloads are full of such leaf
        // functions).
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        b.call("leaf");
        b.halt();
        b.end_function();
        b.begin_function("leaf");
        b.ret();
        b.end_function();
        let p = b.build().unwrap();
        let a = analyzed(&p);
        let leaf = a.function("leaf").expect("leaf analyzed");
        assert_eq!(leaf.cfg.len(), 1);
        let r = verify(&p, &a, &VerifyOptions::default());
        assert!(r.is_clean(), "unexpected diagnostics: {:?}", r.diagnostics);
    }

    #[test]
    fn degenerate_cfg_kind_renders() {
        // The check itself only fires on function metadata the builder
        // refuses to produce (see `Cfg::try_build`'s unit tests); pin the
        // lint's rendered name here so tooling can match on it.
        assert_eq!(CheckKind::DegenerateCfg.to_string(), "degenerate-cfg");
    }

    #[test]
    fn dead_code_is_reported_unreachable() {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let end = b.fresh_label("end");
        b.jmp(end); // 0
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1); // 1: dead
        b.bind_label(end);
        b.halt(); // 2
        b.end_function();
        let p = b.build().unwrap();
        let a = analyzed(&p);
        let r = verify(&p, &a, &VerifyOptions::default());
        let dead: Vec<_> = r.of_kind(CheckKind::Unreachable).collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].pc, Pc::new(1));
        // The dead block reads r1 undefined under Strict — but unreachable
        // blocks are excluded from the undefined-use scan.
        let strict = verify(
            &p,
            &a,
            &VerifyOptions {
                entry_defs: EntryDefs::Strict,
                ..VerifyOptions::default()
            },
        );
        assert!(strict.of_kind(CheckKind::UndefinedUse).next().is_none());
    }

    #[test]
    fn strict_mode_flags_uninitialized_reads() {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        b.alu(AluOp::Add, Reg::R2, Reg::R7, Reg::R0); // 0: reads r7
        b.halt(); // 1
        b.end_function();
        let p = b.build().unwrap();
        let a = analyzed(&p);
        assert!(verify(&p, &a, &VerifyOptions::default()).is_clean());
        let strict = verify(
            &p,
            &a,
            &VerifyOptions {
                entry_defs: EntryDefs::Strict,
                ..VerifyOptions::default()
            },
        );
        let uses: Vec<_> = strict.of_kind(CheckKind::UndefinedUse).collect();
        assert_eq!(uses.len(), 1);
        assert!(uses[0].message.contains("r7"));
    }

    #[test]
    fn cross_function_jump_is_malformed() {
        // The builder validates only that targets are globally in range, so
        // a jump into another function is constructible — and wrong.
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let lab = b.fresh_label("x");
        b.jmp(lab); // 0 — resolves into "other"
        b.end_function();
        b.begin_function("other");
        b.bind_label(lab);
        b.halt(); // 1
        b.end_function();
        let p = b.build().unwrap();
        let a = analyzed(&p);
        let r = verify(&p, &a, &VerifyOptions::default());
        let bad: Vec<_> = r.of_kind(CheckKind::MalformedTerminator).collect();
        assert!(!bad.is_empty());
        assert_eq!(bad[0].function, "main");
    }

    #[test]
    fn irreducible_flow_is_detected() {
        // Jump into the middle of a loop body: two entries into the cycle.
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let mid = b.fresh_label("mid");
        let top = b.fresh_label("top");
        let end = b.fresh_label("end");
        b.br_imm(Cond::Eq, Reg::R1, 0, mid); // 0,1: sneak into the loop
        b.bind_label(top);
        b.alui(AluOp::Add, Reg::R2, Reg::R2, 1); // 2
        b.bind_label(mid);
        b.alui(AluOp::Add, Reg::R3, Reg::R3, 1); // 3
        b.br_imm(Cond::Lt, Reg::R3, 9, top); // 4,5: back edge
        b.jmp(end); // 6
        b.bind_label(end);
        b.halt(); // 7
        b.end_function();
        let p = b.build().unwrap();
        let a = analyzed(&p);
        let r = verify(&p, &a, &VerifyOptions::default());
        assert!(r.of_kind(CheckKind::IrreducibleLoop).next().is_some());
    }

    #[test]
    fn bogus_spawn_points_are_rejected() {
        let p = healthy();
        let a = analyzed(&p);
        let mut out = Vec::new();
        // Target does not postdominate the trigger: pc 3 (the call, on the
        // hammock's then-arm) does not postdominate pc 2 (the branch).
        check_spawn_points(
            &a,
            &[SpawnPoint {
                trigger: Pc::new(2),
                target: Pc::new(3),
                kind: SpawnKind::Hammock,
            }],
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].check, CheckKind::IllegalSpawn);

        // A loop spawn whose target is not a latch of the trigger header.
        out.clear();
        check_spawn_points(
            &a,
            &[SpawnPoint {
                trigger: Pc::new(1),
                target: Pc::new(7),
                kind: SpawnKind::Loop,
            }],
            &mut out,
        );
        assert_eq!(out.len(), 1);

        // Derived candidates are legal by construction.
        out.clear();
        check_spawn_points(&a, a.candidates(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn hint_pressure_reports_live_ins() {
        let p = healthy();
        let a = analyzed(&p);
        let r = verify(
            &p,
            &a,
            &VerifyOptions {
                hint_register_slots: 0,
                ..VerifyOptions::default()
            },
        );
        // With zero slots, any spawn with a nonempty live-in overflows;
        // the loop-carried counter r1 is live at the loop-branch target.
        assert!(r.hint_overflows().count() > 0);
        let some = r
            .hint_pressure
            .iter()
            .find(|h| h.live_in.contains(&Reg::R1))
            .expect("r1 live at some spawn target");
        assert!(some.overflows());
    }
}
