//! Control-flow analysis for PolyFlow: CFGs, dominators, postdominators,
//! control dependence, and natural loops.
//!
//! The paper's central construction (§2.1) is the **immediate postdominator**
//! of each conditional branch: the first instruction guaranteed to be
//! fetched no matter which way the branch resolves. This crate provides
//! everything needed to compute that:
//!
//! * [`Cfg`] — a per-function control-flow graph built from a
//!   [`polyflow_isa::Program`]. Call instructions terminate blocks (with a
//!   fall-through edge), so each call site gets its own postdominator — the
//!   paper's *procedure fall-through* spawn points.
//! * [`DomTree`] — dominator or postdominator tree, computed with the
//!   iterative Cooper–Harvey–Kennedy algorithm. Postdominators are
//!   dominators of the reverse CFG with a virtual exit (§2.1).
//! * [`ControlDeps`] — the control-dependence relation of
//!   Ferrante–Ottenstein–Warren, derived from the postdominator tree
//!   (paper Figures 1–3).
//! * [`LoopForest`] — natural loops and their nesting, used to classify
//!   branches as loop branches / loop-exit branches.
//! * [`reference`](mod@reference) — slow, obviously-correct dataflow implementations used
//!   as oracles in property tests.
//!
//! # Example: the paper's Figure 1–2 graph
//!
//! ```
//! use polyflow_cfg::{Cfg, DomTree};
//! use polyflow_isa::{ProgramBuilder, Reg, Cond, AluOp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A loop containing an if-then-else: blocks A,B,C,D,E,F as in Figure 1.
//! let mut b = ProgramBuilder::new();
//! b.begin_function("fig1");
//! let (la, ld, le) = (b.fresh_label("A"), b.fresh_label("D"), b.fresh_label("E"));
//! b.bind_label(la);
//! b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);      // A
//! b.br_imm(Cond::Eq, Reg::R2, 0, ld);           // B: if-else branch
//! b.alui(AluOp::Add, Reg::R3, Reg::R3, 1);      // C (then)
//! b.jmp(le);
//! b.bind_label(ld);
//! b.alui(AluOp::Add, Reg::R4, Reg::R4, 1);      // D (else)
//! b.bind_label(le);
//! b.alui(AluOp::Add, Reg::R5, Reg::R5, 1);      // E (join)
//! b.br_imm(Cond::Lt, Reg::R1, 10, la);          // F: loop branch
//! b.halt();
//! b.end_function();
//! let program = b.build()?;
//!
//! let cfg = Cfg::build(&program, program.function("fig1").unwrap());
//! let pdom = DomTree::postdominators(&cfg);
//! // E postdominates B (control is guaranteed to reach the join).
//! let b_block = cfg.block_at(polyflow_isa::Pc::new(2)).unwrap();
//! let e_block = cfg.block_at(polyflow_isa::Pc::new(8)).unwrap();
//! assert_eq!(pdom.idom(b_block), Some(e_block));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod control_dep;
mod dom;
mod frontiers;
mod graph;
mod loops;
pub mod reference;

pub use control_dep::ControlDeps;
pub use dom::{Ancestors, DomKind, DomTree};
pub use frontiers::Frontiers;
pub use graph::{Block, BlockId, Cfg, CfgError, EdgeKind};
pub use loops::{Loop, LoopForest, LoopId};
