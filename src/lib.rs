//! PolyFlow: speculative parallelization via immediate postdominators.
//!
//! This is the umbrella crate of the reproduction of Agarwal, Malik, Woley,
//! Stone and Frank, *Exploiting Postdominance for Speculative
//! Parallelization* (HPCA 2007). It re-exports the workspace crates:
//!
//! * [`isa`] — instruction set, program builder, functional interpreter.
//! * [`cfg`](mod@cfg) — control-flow graphs, dominators/postdominators, control
//!   dependence, natural loops.
//! * [`core`] — spawn-point classification and task-selection policies
//!   (the paper's contribution).
//! * [`reconv`] — the dynamic reconvergence predictor.
//! * [`sim`] — the PolyFlow timing simulator and superscalar baseline.
//! * [`workloads`] — SPEC2000 integer benchmark stand-ins.
//!
//! See `README.md` for a tour and `examples/` for runnable walkthroughs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use polyflow_cfg as cfg;
pub use polyflow_core as core;
pub use polyflow_isa as isa;
pub use polyflow_reconv as reconv;
pub use polyflow_sim as sim;
pub use polyflow_workloads as workloads;
