//! Whole-program spawn-point analysis.

use crate::classify::SpawnKind;
use crate::policy::Policy;
use crate::spawn::{SpawnPoint, SpawnTable, StaticDistribution};
use polyflow_cfg::{Cfg, CfgError, DomTree, LoopForest};
use polyflow_dataflow::InterLiveness;
use polyflow_isa::{Inst, Pc, Program, Reg};

/// CFG analyses for one function: the graph, both dominator trees, and the
/// loop forest.
#[derive(Debug, Clone)]
pub struct FunctionAnalysis {
    /// The function's control-flow graph.
    pub cfg: Cfg,
    /// Forward dominators.
    pub dom: DomTree,
    /// Postdominators (virtual-exit rooted).
    pub pdom: DomTree,
    /// Natural loops.
    pub loops: LoopForest,
}

impl FunctionAnalysis {
    /// Runs all analyses for `function`.
    ///
    /// # Panics
    ///
    /// Panics if the function's CFG cannot be built (see
    /// [`Cfg::try_build`]); use [`FunctionAnalysis::try_analyze`] for a
    /// typed error instead.
    pub fn analyze(program: &Program, function: &polyflow_isa::Function) -> FunctionAnalysis {
        FunctionAnalysis::try_analyze(program, function).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`FunctionAnalysis::analyze`]: degenerate function
    /// metadata yields a [`CfgError`] instead of a panic.
    pub fn try_analyze(
        program: &Program,
        function: &polyflow_isa::Function,
    ) -> Result<FunctionAnalysis, CfgError> {
        let cfg = Cfg::try_build(program, function)?;
        let dom = DomTree::dominators(&cfg);
        let pdom = DomTree::postdominators(&cfg);
        let loops = LoopForest::compute(&cfg, &dom);
        Ok(FunctionAnalysis {
            cfg,
            dom,
            pdom,
            loops,
        })
    }

    /// Extracts every spawn candidate in this function, classified per §2.2.
    ///
    /// * Conditional branches contribute their block's immediate
    ///   postdominator, classified as **LoopFT** (latch or loop-exit
    ///   branch), **Hammock** (forward branch joining within the same
    ///   innermost loop), or **Other**.
    /// * Call instructions contribute their block's immediate postdominator
    ///   as **ProcFT**.
    /// * Indirect jumps contribute their block's immediate postdominator as
    ///   **Other**.
    /// * Each natural loop additionally contributes a **Loop** heuristic
    ///   spawn: from the loop entry to the loop's last latch block (§2.3).
    ///
    /// Branches whose immediate postdominator is the virtual exit (or
    /// undefined) contribute nothing: there is no control-equivalent block
    /// to spawn.
    pub fn candidates(&self) -> Vec<SpawnPoint> {
        let mut out = Vec::new();
        for block in self.cfg.blocks() {
            let b = block.id;
            let tpc = block.terminator_pc();
            let Some(ip) = self.pdom.idom(b) else {
                continue;
            };
            let target = self.cfg.block(ip).start;
            let kind = match self.cfg.terminator(b) {
                Inst::Br { .. } => {
                    if self.loops.is_latch(b) || self.loops.is_loop_exit_block(b) {
                        SpawnKind::LoopFallThrough
                    } else {
                        let same_loop = self.loops.innermost(b).map(|l| l.id)
                            == self.loops.innermost(ip).map(|l| l.id);
                        if same_loop && target > tpc {
                            SpawnKind::Hammock
                        } else {
                            SpawnKind::Other
                        }
                    }
                }
                Inst::Call { .. } | Inst::CallR { .. } => SpawnKind::ProcFallThrough,
                Inst::Jr { .. } => SpawnKind::Other,
                _ => continue,
            };
            out.push(SpawnPoint {
                trigger: tpc,
                target,
                kind,
            });
        }
        // Loop-iteration heuristic spawns (§2.3): spawn the loop's last
        // latch block from the loop entry.
        for l in self.loops.loops() {
            let Some(&last_latch) = l.latches.iter().max_by_key(|&&b| self.cfg.block(b).start)
            else {
                continue;
            };
            // Only loops closed by a conditional branch are spawnable this
            // way (an unconditional latch has no iteration decision).
            if !matches!(self.cfg.terminator(last_latch), Inst::Br { .. }) {
                continue;
            }
            out.push(SpawnPoint {
                trigger: self.cfg.block(l.header).start,
                target: self.cfg.block(last_latch).start,
                kind: SpawnKind::Loop,
            });
        }
        out
    }
}

/// Spawn-point analysis over every function of a program.
///
/// This is the compiler side of the paper's system: it produces the spawn
/// hint information that is "loaded into the hint cache on demand" (§2.1).
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    functions: Vec<FunctionAnalysis>,
    candidates: Vec<SpawnPoint>,
    liveness: InterLiveness,
}

impl ProgramAnalysis {
    /// Analyzes every function in `program`.
    ///
    /// Functions whose CFG cannot be built — degenerate metadata that the
    /// [`polyflow_isa::ProgramBuilder`] never produces — are skipped here
    /// rather than panicking; [`crate::verify`] reports each one as a
    /// `degenerate-cfg` diagnostic. Each function's CFG is built once:
    /// the whole-program liveness runs over the same graphs.
    pub fn analyze(program: &Program) -> ProgramAnalysis {
        let functions: Vec<FunctionAnalysis> = program
            .functions()
            .iter()
            .filter_map(|f| FunctionAnalysis::try_analyze(program, f).ok())
            .collect();
        let candidates = functions
            .iter()
            .flat_map(FunctionAnalysis::candidates)
            .collect();
        let cfgs: Vec<&Cfg> = functions.iter().map(|f| &f.cfg).collect();
        let liveness = InterLiveness::from_cfgs(program, &cfgs);
        ProgramAnalysis {
            functions,
            candidates,
            liveness,
        }
    }

    /// [`ProgramAnalysis::analyze`]; `jobs` is ignored, since the
    /// dataflow solver is sequential. Only the benchmark's `analysis.ms`
    /// probe calls this; the benchmark change that points the probe at
    /// [`ProgramAnalysis::analyze`] deletes it (ROADMAP item 1).
    pub fn analyze_with_jobs(program: &Program, _jobs: usize) -> ProgramAnalysis {
        Self::analyze(program)
    }

    /// Per-function analyses, in program layout order.
    pub fn functions(&self) -> &[FunctionAnalysis] {
        &self.functions
    }

    /// The analysis for a named function.
    pub fn function(&self, name: &str) -> Option<&FunctionAnalysis> {
        self.functions
            .iter()
            .find(|f| f.cfg.function().name == name)
    }

    /// Every spawn candidate in the program (all kinds).
    pub fn candidates(&self) -> &[SpawnPoint] {
        &self.candidates
    }

    /// The whole-program liveness analysis.
    pub fn liveness(&self) -> &InterLiveness {
        &self.liveness
    }

    /// Registers live immediately before `pc`, in the whole-program sense.
    ///
    /// For a spawn target this is the set of registers the spawned task may
    /// read before writing — exactly what the Task Spawn Unit's hint
    /// entries (§3.1) must forward from the parent. Never includes `r0`.
    pub fn live_in_regs(&self, pc: Pc) -> Vec<Reg> {
        self.liveness.live_regs(pc)
    }

    /// [`ProgramAnalysis::live_in_regs`] as a bit mask (bit `i` = `ri`).
    pub fn live_in_mask(&self, pc: Pc) -> u64 {
        self.liveness.live_mask(pc)
    }

    /// The spawn table for a policy (the hint-cache contents).
    pub fn spawn_table(&self, policy: Policy) -> SpawnTable {
        SpawnTable::from_candidates(self.candidates.iter().copied(), policy)
    }

    /// The static distribution over all postdominator candidates — one bar
    /// of Figure 5.
    pub fn static_distribution(&self) -> StaticDistribution {
        let mut d = StaticDistribution::default();
        for sp in &self.candidates {
            d.add(sp.kind);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyflow_isa::{AluOp, Cond, Pc, ProgramBuilder, Reg};

    /// if-then-else inside a loop, plus a call and an indirect jump after.
    fn rich_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        let els = b.fresh_label("else");
        let join = b.fresh_label("join");
        let c0 = b.fresh_label("c0");
        let c1 = b.fresh_label("c1");
        let out = b.fresh_label("out");
        // Loop with an embedded hammock.
        b.li(Reg::R1, 0); // 0
        b.bind_label(top);
        b.br_imm(Cond::Eq, Reg::R2, 0, els); // 1,2 hammock branch
        b.alui(AluOp::Add, Reg::R3, Reg::R3, 1); // 3 then
        b.jmp(join); // 4
        b.bind_label(els);
        b.alui(AluOp::Add, Reg::R4, Reg::R4, 1); // 5 else
        b.bind_label(join);
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1); // 6 join
        b.br_imm(Cond::Lt, Reg::R1, 10, top); // 7,8 loop branch
                                              // Call.
        b.call("callee"); // 9
                          // Indirect dispatch.
        let tbl = b.alloc_label_table(&[c0, c1]);
        b.li(Reg::R5, tbl as i64); // 10
        b.load(Reg::R6, Reg::R5, 0); // 11
        b.jr(Reg::R6, &[c0, c1]); // 12
        b.bind_label(c0);
        b.nop(); // 13
        b.jmp(out); // 14
        b.bind_label(c1);
        b.nop(); // 15
        b.bind_label(out);
        b.halt(); // 16
        b.end_function();
        b.begin_function("callee");
        b.ret();
        b.end_function();
        b.build().unwrap()
    }

    #[test]
    fn classification_covers_all_kinds() {
        let p = rich_program();
        let a = ProgramAnalysis::analyze(&p);
        let d = a.static_distribution();
        assert_eq!(d.hammocks, 1, "the if-else join");
        assert_eq!(d.loop_ft, 1, "the loop branch");
        assert_eq!(d.proc_ft, 1, "the call");
        assert_eq!(d.other, 1, "the indirect jump");
        assert_eq!(d.loop_spawns, 1, "the loop-iteration heuristic");
        assert_eq!(d.total_postdom(), 4);
    }

    #[test]
    fn hammock_targets_the_join() {
        let p = rich_program();
        let a = ProgramAnalysis::analyze(&p);
        let hammock = a
            .candidates()
            .iter()
            .find(|s| s.kind == SpawnKind::Hammock)
            .unwrap();
        assert_eq!(hammock.trigger, Pc::new(2));
        assert_eq!(hammock.target, Pc::new(6));
    }

    #[test]
    fn loop_ft_targets_after_loop() {
        let p = rich_program();
        let a = ProgramAnalysis::analyze(&p);
        let lft = a
            .candidates()
            .iter()
            .find(|s| s.kind == SpawnKind::LoopFallThrough)
            .unwrap();
        assert_eq!(lft.trigger, Pc::new(8));
        assert_eq!(lft.target, Pc::new(9));
    }

    #[test]
    fn proc_ft_targets_return_point() {
        let p = rich_program();
        let a = ProgramAnalysis::analyze(&p);
        let pft = a
            .candidates()
            .iter()
            .find(|s| s.kind == SpawnKind::ProcFallThrough)
            .unwrap();
        assert_eq!(pft.trigger, Pc::new(9));
        assert_eq!(pft.target, Pc::new(10));
    }

    #[test]
    fn indirect_jump_is_other_targeting_reconvergence() {
        let p = rich_program();
        let a = ProgramAnalysis::analyze(&p);
        let other = a
            .candidates()
            .iter()
            .find(|s| s.kind == SpawnKind::Other)
            .unwrap();
        assert_eq!(other.trigger, Pc::new(12));
        assert_eq!(other.target, Pc::new(16), "join of the two switch cases");
    }

    #[test]
    fn loop_spawn_from_entry_to_latch() {
        let p = rich_program();
        let a = ProgramAnalysis::analyze(&p);
        let ls = a
            .candidates()
            .iter()
            .find(|s| s.kind == SpawnKind::Loop)
            .unwrap();
        // Loop header block starts at pc 1; latch block starts at the join
        // (pc 6, since [6..9) is one block ending in the loop branch).
        assert_eq!(ls.trigger, Pc::new(1));
        assert_eq!(ls.target, Pc::new(6));
    }

    #[test]
    fn branch_with_no_real_ipostdom_is_skipped() {
        // Each branch arm returns separately; ipostdom is the virtual exit.
        let mut b = ProgramBuilder::new();
        b.begin_function("f");
        let els = b.fresh_label("else");
        b.br_imm(Cond::Eq, Reg::R1, 0, els);
        b.ret();
        b.bind_label(els);
        b.ret();
        b.end_function();
        let p = b.build().unwrap();
        let a = ProgramAnalysis::analyze(&p);
        assert!(a.candidates().is_empty());
    }

    #[test]
    fn policy_filtering_through_spawn_table() {
        let p = rich_program();
        let a = ProgramAnalysis::analyze(&p);
        assert_eq!(a.spawn_table(Policy::Postdoms).len(), 4);
        assert_eq!(a.spawn_table(Policy::Hammock).len(), 1);
        assert_eq!(a.spawn_table(Policy::Loop).len(), 1);
        assert_eq!(a.spawn_table(Policy::None).len(), 0);
        assert_eq!(
            a.spawn_table(Policy::PostdomsWithout(SpawnKind::Hammock))
                .len(),
            3
        );
    }

    #[test]
    fn function_lookup() {
        let p = rich_program();
        let a = ProgramAnalysis::analyze(&p);
        assert_eq!(a.functions().len(), 2);
        assert!(a.function("callee").is_some());
        assert!(a.function("missing").is_none());
    }

    #[test]
    fn multi_level_break_is_loop_fall_through() {
        // A break out of an inner loop directly to after the outer loop.
        let mut b = ProgramBuilder::new();
        b.begin_function("f");
        let outer = b.fresh_label("outer");
        let inner = b.fresh_label("inner");
        let done = b.fresh_label("done");
        b.li(Reg::R1, 0); // 0
        b.bind_label(outer);
        b.li(Reg::R2, 0); // 1
        b.bind_label(inner);
        b.br_imm(Cond::Eq, Reg::R9, 7, done); // 2,3 break out of both loops
        b.alui(AluOp::Add, Reg::R2, Reg::R2, 1); // 4
        b.br_imm(Cond::Lt, Reg::R2, 3, inner); // 5,6
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1); // 7
        b.br_imm(Cond::Lt, Reg::R1, 3, outer); // 8,9
        b.bind_label(done);
        b.halt(); // 10
        b.end_function();
        let p = b.build().unwrap();
        let a = ProgramAnalysis::analyze(&p);
        let break_spawn = a
            .candidates()
            .iter()
            .find(|s| s.trigger == Pc::new(3))
            .unwrap();
        assert_eq!(break_spawn.kind, SpawnKind::LoopFallThrough);
        assert_eq!(break_spawn.target, Pc::new(10));
    }
}
