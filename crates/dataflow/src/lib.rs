//! Bitset worklist dataflow analyses over PolyFlow CFGs.
//!
//! This crate supplies the static-analysis substrate beneath the spawn
//! machinery of *Exploiting Postdominance for Speculative Parallelization*:
//! a direction-parametric gen/kill [`solve`]r over compact [`BitSet`]s,
//! with two concrete analyses — [`LiveSets`]/[`InterLiveness`] (backward
//! liveness, per-function and whole-program) and [`ReachingDefs`] (forward
//! reaching definitions, with a use-of-undefined-register check) — plus
//! [`read_before_write_masks`], which extracts the *dynamic* counterpart
//! of liveness from an execution trace so the two can be differentially
//! tested against each other.
//!
//! The layering is deliberate: the solver knows nothing about programs
//! (it takes successor lists), the analyses know nothing about policy
//! (what counts as defined at entry is a caller choice), and the verifier
//! in `polyflow-core` composes them into lint diagnostics.
//!
//! [`solve`] is a sequential worklist solver; [`oracle`] holds it,
//! bit for bit, to a naive round-robin iteration over the same
//! [`Problem`] (DESIGN.md §12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod dynamic;
mod liveness;
pub mod oracle;
mod reaching;
mod solver;

pub use bitset::BitSet;
pub use dynamic::read_before_write_masks;
pub use liveness::{regs_of, InterLiveness, LiveSets, SuperGraph, REG_DOMAIN};
pub use reaching::{DefSite, EntryDefs, ReachingDefs, UndefinedUse};
pub use solver::{solve, Direction, GenKill, Problem, Solution};
