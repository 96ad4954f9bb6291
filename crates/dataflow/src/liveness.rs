//! Register liveness, intraprocedural and whole-program.
//!
//! Liveness is the backward may-problem over register sets: a register is
//! live at a point if some path from that point reads it before writing
//! it. The paper's Task Spawn Unit needs exactly this at spawn targets —
//! the registers a spawned task synchronizes on (§3.1's hint-entry
//! registers) are the task's live-ins.
//!
//! Two granularities are provided:
//!
//! * [`LiveSets`] — per-function, treating call fall-throughs as opaque
//!   (the callee's effect is ignored). Cheap, but *unsound* as a bound on
//!   what a spawned task — which runs the whole dynamic suffix, including
//!   callees and the caller's continuation — may read first.
//! * [`InterLiveness`] — the whole-program supergraph: every function's
//!   blocks plus call, return, and cross-function transfer edges. Its
//!   live-in at a PC over-approximates the registers any dynamic suffix
//!   starting at that PC reads before writing, which is the invariant the
//!   differential trace check in `tests/static_analysis.rs` exercises.

use crate::bitset::BitSet;
use crate::solver::{solve, Direction, GenKill, Problem, Solution};
use polyflow_cfg::{BlockId, Cfg, EdgeKind};
use polyflow_isa::{Inst, Pc, Program, Reg};
use std::borrow::Borrow;

/// Register-set domain size.
pub const REG_DOMAIN: usize = Reg::COUNT;

/// Converts a register set to the registers it contains, in index order.
/// `r0` is never reported (it is a constant, not a dataflow fact).
pub fn regs_of(set: &BitSet) -> Vec<Reg> {
    set.iter()
        .filter(|&i| i != 0)
        .map(Reg::from_index)
        .collect()
}

/// Upward-exposed uses (gen) and definitions (kill) of one straight-line
/// instruction range.
fn range_gen_kill(program: &Program, start: Pc, end: Pc) -> GenKill {
    let mut t = GenKill::identity(REG_DOMAIN);
    for i in start.index()..end.index() {
        let inst = program.inst(Pc::new(i as u32));
        for src in inst.srcs().into_iter().flatten() {
            if src != Reg::R0 && !t.kill.contains(src.index()) {
                t.gen.insert(src.index());
            }
        }
        if let Some(d) = inst.dst() {
            t.kill.insert(d.index());
        }
    }
    t
}

/// Walks a block tail backwards: the registers live immediately before
/// executing `pc`, given the live-out set at the end of `pc`'s block.
fn live_before_in_block(program: &Program, block_end: Pc, pc: Pc, live_out: &BitSet) -> BitSet {
    let mut live = live_out.clone();
    for i in (pc.index()..block_end.index()).rev() {
        let inst = program.inst(Pc::new(i as u32));
        if let Some(d) = inst.dst() {
            live.remove(d.index());
        }
        for src in inst.srcs().into_iter().flatten() {
            if src != Reg::R0 {
                live.insert(src.index());
            }
        }
    }
    live
}

/// Poses one function's backward liveness as an owned problem — exactly
/// what [`LiveSets::compute`] solves. Public through
/// [`crate::oracle::function_liveness_problem`] so the differential
/// tests can check the solver over every workload function.
pub(crate) fn function_liveness_problem(
    program: &Program,
    cfg: &Cfg,
) -> crate::oracle::OwnedProblem {
    let n = cfg.len();
    let transfer: Vec<GenKill> = cfg
        .blocks()
        .iter()
        .map(|b| range_gen_kill(program, b.start, b.end))
        .collect();
    let succs: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            cfg.succs(BlockId::from_index(i))
                .iter()
                .map(|&(t, _)| t.index())
                .collect()
        })
        .collect();
    let boundary: Vec<usize> = cfg.exits().iter().map(|b| b.index()).collect();
    crate::oracle::OwnedProblem {
        direction: Direction::Backward,
        domain: REG_DOMAIN,
        transfer,
        succs,
        boundary_nodes: boundary,
        boundary_value: BitSet::new(REG_DOMAIN),
    }
}

/// Intraprocedural live register sets for one [`Cfg`].
#[derive(Debug, Clone)]
pub struct LiveSets {
    live_in: Vec<BitSet>,
    live_out: Vec<BitSet>,
}

impl LiveSets {
    /// Solves liveness over `cfg`. Exit blocks have empty live-out (the
    /// function's effect on its caller flows through memory and the
    /// return value registers of the *caller's* liveness, not modeled
    /// here — see [`InterLiveness`] for the sound whole-program version).
    pub fn compute(program: &Program, cfg: &Cfg) -> LiveSets {
        let p = function_liveness_problem(program, cfg);
        let Solution { entry, exit } = solve(&p.as_problem());
        LiveSets {
            live_in: entry,
            live_out: exit,
        }
    }

    /// Registers live at the start of `b`.
    pub fn live_in(&self, b: BlockId) -> &BitSet {
        &self.live_in[b.index()]
    }

    /// Registers live at the end of `b`.
    pub fn live_out(&self, b: BlockId) -> &BitSet {
        &self.live_out[b.index()]
    }

    /// Registers live immediately before executing `pc`.
    ///
    /// Returns `None` if `pc` is outside the CFG's function.
    pub fn live_before(&self, program: &Program, cfg: &Cfg, pc: Pc) -> Option<BitSet> {
        let b = cfg.block_at(pc)?;
        Some(live_before_in_block(
            program,
            cfg.block(b).end,
            pc,
            &self.live_out[b.index()],
        ))
    }
}

/// Whole-program ("supergraph") liveness.
///
/// One graph over every function's blocks, with:
///
/// * all intraprocedural edges — including the call fall-through edge,
///   which over-approximates (it models the callee as possibly reading
///   nothing and returning immediately) but keeps the result a superset;
/// * call edges: a direct-call block flows into its callee's entry; an
///   indirect call conservatively flows into *every* function entry (the
///   program carries no target metadata for `callr`);
/// * return edges: each `ret` block flows into the fall-through block of
///   every call site that may have called its function;
/// * cross-function transfer edges for branches/jumps whose target lies
///   in another function (the CFG layer treats these as exits).
///
/// The per-PC result is precomputed, so lookups are O(1) and need no
/// `Program` in hand.
#[derive(Debug, Clone)]
pub struct InterLiveness {
    /// Live-before mask (bit per register) for every instruction.
    per_pc: Vec<u64>,
}

/// The whole-program flow graph interprocedural analyses solve over:
/// every function's blocks as one node space, plus call, return, and
/// cross-function transfer edges. Built once, it can be posed as a
/// backward liveness problem or a forward reachability-style problem —
/// the differential oracle tests exercise both directions over it.
#[derive(Debug, Clone)]
pub struct SuperGraph {
    transfer: Vec<GenKill>,
    succs: Vec<Vec<usize>>,
    boundary: Vec<usize>,
    base: Vec<usize>,
    entries: Vec<usize>,
}

impl SuperGraph {
    /// Constructs the supergraph of `program` over the given per-function
    /// CFGs (in `Cfg::build_all` order), owned or borrowed.
    pub fn build<C: Borrow<Cfg>>(program: &Program, cfgs: &[C]) -> SuperGraph {
        let cfgs: Vec<&Cfg> = cfgs.iter().map(Borrow::borrow).collect();
        let mut base = Vec::with_capacity(cfgs.len());
        let mut total = 0usize;
        for cfg in &cfgs {
            base.push(total);
            total += cfg.len();
        }
        // Global lookup: the supergraph node containing a PC.
        let global_at = |pc: Pc| -> Option<usize> {
            cfgs.iter()
                .enumerate()
                .find(|(_, c)| c.function().contains(pc))
                .and_then(|(f, c)| c.block_at(pc).map(|b| base[f] + b.index()))
        };
        let entry_nodes: Vec<usize> = (0..cfgs.len()).map(|f| base[f]).collect();

        let mut transfer = Vec::with_capacity(total);
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); total];
        let mut boundary = Vec::new();
        // Call sites per callee: fall-through supergraph nodes of direct
        // calls, keyed by callee cfg index; indirect call fall-throughs
        // may return from any function.
        let mut direct_returns: Vec<Vec<usize>> = vec![Vec::new(); cfgs.len()];
        let mut any_returns: Vec<usize> = Vec::new();

        for (f, cfg) in cfgs.iter().enumerate() {
            for block in cfg.blocks() {
                let g = base[f] + block.id.index();
                transfer.push(range_gen_kill(program, block.start, block.end));
                let mut fall_through = None;
                for &(t, kind) in cfg.succs(block.id) {
                    succs[g].push(base[f] + t.index());
                    if kind == EdgeKind::CallFallThrough {
                        fall_through = Some(base[f] + t.index());
                    }
                }
                let tpc = block.terminator_pc();
                match cfg.terminator(block.id) {
                    Inst::Call { target } => {
                        if let Some(callee) = global_at(target) {
                            succs[g].push(callee);
                        }
                        let callee_f = cfgs.iter().position(|c| c.function().contains(target));
                        if let (Some(cf), Some(ft)) = (callee_f, fall_through) {
                            direct_returns[cf].push(ft)
                        }
                    }
                    Inst::CallR { .. } => {
                        // No static targets: may enter any function and
                        // return from any of them.
                        succs[g].extend(entry_nodes.iter().copied());
                        if let Some(ft) = fall_through {
                            any_returns.push(ft);
                        }
                    }
                    Inst::Br { target, .. } | Inst::Jmp { target }
                        if !cfg.function().contains(target) =>
                    {
                        if let Some(t) = global_at(target) {
                            succs[g].push(t);
                        }
                    }
                    Inst::Jr { .. } => {
                        for &t in program.jump_targets(tpc) {
                            if !cfg.function().contains(t) {
                                if let Some(gt) = global_at(t) {
                                    succs[g].push(gt);
                                }
                            }
                        }
                    }
                    _ => {}
                }
                if matches!(cfg.terminator(block.id), Inst::Halt) {
                    boundary.push(g);
                }
            }
        }
        // Return edges: ret blocks flow into every plausible return point.
        for (f, cfg) in cfgs.iter().enumerate() {
            for block in cfg.blocks() {
                if !matches!(cfg.terminator(block.id), Inst::Ret) {
                    continue;
                }
                let g = base[f] + block.id.index();
                succs[g].extend(direct_returns[f].iter().copied());
                succs[g].extend(any_returns.iter().copied());
                if direct_returns[f].is_empty() && any_returns.is_empty() {
                    // Nothing ever calls this function: its return is a
                    // program exit for liveness purposes.
                    boundary.push(g);
                }
            }
        }
        for s in &mut succs {
            s.sort_unstable();
            s.dedup();
        }
        SuperGraph {
            transfer,
            succs,
            boundary,
            base,
            entries: entry_nodes,
        }
    }

    /// Number of supergraph nodes (blocks across all functions).
    pub fn len(&self) -> usize {
        self.transfer.len()
    }

    /// True if the program has no blocks.
    pub fn is_empty(&self) -> bool {
        self.transfer.is_empty()
    }

    /// The supergraph node holding block `b` of function index `f`.
    pub fn node(&self, f: usize, b: BlockId) -> usize {
        self.base[f] + b.index()
    }

    /// Whole-program liveness as a solver problem: backward over
    /// register sets, boundary at program exits (`halt` blocks and
    /// returns of uncalled functions).
    pub fn liveness_problem(&self) -> Problem<'_> {
        Problem {
            direction: Direction::Backward,
            domain: REG_DOMAIN,
            transfer: &self.transfer,
            succs: &self.succs,
            boundary_nodes: &self.boundary,
            boundary_value: BitSet::new(REG_DOMAIN),
        }
    }

    /// The same graph posed forward — a reaching-style problem with the
    /// boundary at function entries. The oracle harness uses this to
    /// cover the forward direction at supergraph scale.
    pub fn forward_problem(&self) -> Problem<'_> {
        Problem {
            direction: Direction::Forward,
            domain: REG_DOMAIN,
            transfer: &self.transfer,
            succs: &self.succs,
            boundary_nodes: &self.entries,
            boundary_value: BitSet::new(REG_DOMAIN),
        }
    }
}

impl InterLiveness {
    /// Builds every function's CFG and the supergraph, and solves
    /// backward liveness over it.
    pub fn compute(program: &Program) -> InterLiveness {
        InterLiveness::from_cfgs(program, &Cfg::build_all(program))
    }

    /// [`InterLiveness::compute`] over already-built per-function CFGs
    /// (in `Cfg::build_all` order), owned or borrowed.
    pub fn from_cfgs<C: Borrow<Cfg>>(program: &Program, cfgs: &[C]) -> InterLiveness {
        let sg = SuperGraph::build(program, cfgs);
        let cfgs = cfgs.iter().map(Borrow::borrow);
        let Solution { entry: _, exit } = solve(&sg.liveness_problem());
        let base = &sg.base;

        // Precompute per-instruction live-before masks with one backward
        // scan per block.
        let mut per_pc = vec![0u64; program.len()];
        for (f, cfg) in cfgs.enumerate() {
            for block in cfg.blocks() {
                let g = base[f] + block.id.index();
                let mut live = exit[g].clone();
                for i in (block.start.index()..block.end.index()).rev() {
                    let inst = program.inst(Pc::new(i as u32));
                    if let Some(d) = inst.dst() {
                        live.remove(d.index());
                    }
                    for src in inst.srcs().into_iter().flatten() {
                        if src != Reg::R0 {
                            live.insert(src.index());
                        }
                    }
                    per_pc[i] = live.low_word() & !1; // r0 is not a fact
                }
            }
        }
        InterLiveness { per_pc }
    }

    /// Bit mask (bit `i` = register `ri`) of registers live immediately
    /// before executing `pc`, in the whole-program sense. Returns 0 for
    /// out-of-range PCs.
    pub fn live_mask(&self, pc: Pc) -> u64 {
        self.per_pc.get(pc.index()).copied().unwrap_or(0)
    }

    /// The registers live immediately before executing `pc`, in index
    /// order (never includes `r0`).
    pub fn live_regs(&self, pc: Pc) -> Vec<Reg> {
        let mask = self.live_mask(pc);
        Reg::ALL
            .into_iter()
            .filter(|r| *r != Reg::R0 && mask & (1 << r.index()) != 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyflow_isa::{AluOp, Cond, ProgramBuilder};

    /// r1 = 1; loop { r2 += r1 } while r2 < 10; r3 = r2; halt
    fn loop_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        b.li(Reg::R1, 1); // 0
        b.li(Reg::R2, 0); // 1
        b.bind_label(top);
        b.alu(AluOp::Add, Reg::R2, Reg::R2, Reg::R1); // 2
        b.br_imm(Cond::Lt, Reg::R2, 10, top); // 3,4 (li r28; br)
        b.alu(AluOp::Add, Reg::R3, Reg::R2, Reg::R0); // 5
        b.halt(); // 6
        b.end_function();
        b.build().unwrap()
    }

    #[test]
    fn loop_carried_register_is_live_at_header() {
        let p = loop_program();
        let cfg = Cfg::build(&p, p.function("main").unwrap());
        let live = LiveSets::compute(&p, &cfg);
        let header = cfg.block_at(Pc::new(2)).unwrap();
        // r1 and r2 are live at the loop header (both read each iteration).
        assert!(live.live_in(header).contains(Reg::R1.index()));
        assert!(live.live_in(header).contains(Reg::R2.index()));
        // r3 is dead everywhere before pc 5 writes it.
        assert!(!live.live_in(header).contains(Reg::R3.index()));
        // At entry, nothing is live-in except what pc 0/1 feed: none.
        assert!(!live.live_in(cfg.entry()).contains(Reg::R3.index()));
    }

    #[test]
    fn live_before_walks_the_block_tail() {
        let p = loop_program();
        let cfg = Cfg::build(&p, p.function("main").unwrap());
        let live = LiveSets::compute(&p, &cfg);
        // Immediately before pc 2 (add r2, r2, r1): r1 and r2 live.
        let at2 = live.live_before(&p, &cfg, Pc::new(2)).unwrap();
        assert!(at2.contains(Reg::R1.index()) && at2.contains(Reg::R2.index()));
        // Immediately before pc 5 (r3 = r2): r2 live, r1 dead.
        let at5 = live.live_before(&p, &cfg, Pc::new(5)).unwrap();
        assert!(at5.contains(Reg::R2.index()));
        assert!(!at5.contains(Reg::R1.index()));
        assert!(live.live_before(&p, &cfg, Pc::new(99)).is_none());
    }

    #[test]
    fn r0_is_never_live() {
        let p = loop_program();
        let cfg = Cfg::build(&p, p.function("main").unwrap());
        let live = LiveSets::compute(&p, &cfg);
        for b in cfg.blocks() {
            assert!(!live.live_in(b.id).contains(0));
        }
        let inter = InterLiveness::compute(&p);
        for i in 0..p.len() {
            assert_eq!(inter.live_mask(Pc::new(i as u32)) & 1, 0);
        }
    }

    /// Caller reads r5 after the call; callee neither reads nor writes it.
    /// Interprocedural liveness must see r5 live inside the callee.
    #[test]
    fn liveness_crosses_call_boundaries() {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        b.li(Reg::R5, 7); // 0
        b.call("leaf"); // 1
        b.alu(AluOp::Add, Reg::R6, Reg::R5, Reg::R0); // 2: reads r5
        b.halt(); // 3
        b.end_function();
        b.begin_function("leaf");
        b.alui(AluOp::Add, Reg::R9, Reg::R9, 1); // 4
        b.ret(); // 5
        b.end_function();
        let p = b.build().unwrap();

        let inter = InterLiveness::compute(&p);
        // r5 is live at the callee entry: the suffix (leaf body, return,
        // pc 2) reads it before writing it.
        assert!(inter.live_mask(Pc::new(4)) & (1 << 5) != 0);
        assert!(inter.live_regs(Pc::new(4)).contains(&Reg::R5));
        // r9 is read at the callee entry too.
        assert!(inter.live_regs(Pc::new(4)).contains(&Reg::R9));
        // At pc 2 the call is done: r5 still live, ra (written by nothing
        // later) dead.
        assert!(inter.live_regs(Pc::new(2)).contains(&Reg::R5));

        // The intraprocedural view, by contrast, sees r5 dead in leaf.
        let leaf_cfg = Cfg::build(&p, p.function("leaf").unwrap());
        let leaf_live = LiveSets::compute(&p, &leaf_cfg);
        assert!(!leaf_live
            .live_in(leaf_cfg.entry())
            .contains(Reg::R5.index()));
    }

    #[test]
    fn ret_reads_the_link_register() {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        b.call("leaf"); // 0
        b.halt(); // 1
        b.end_function();
        b.begin_function("leaf");
        b.ret(); // 2
        b.end_function();
        let p = b.build().unwrap();
        let inter = InterLiveness::compute(&p);
        // ra is live at leaf entry (ret reads it) but dead before the
        // call (the call itself writes it).
        assert!(inter.live_regs(Pc::new(2)).contains(&Reg::RA));
        assert!(!inter.live_regs(Pc::new(0)).contains(&Reg::RA));
    }

    #[test]
    fn regs_of_reports_in_index_order() {
        let s = BitSet::of(REG_DOMAIN, &[0, 3, 1, 31]);
        assert_eq!(regs_of(&s), vec![Reg::R1, Reg::R3, Reg::R31]);
    }
}
