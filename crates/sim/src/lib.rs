//! The PolyFlow timing simulator and its equivalent-resource superscalar
//! baseline (paper §3, Figures 7–8).
//!
//! PolyFlow is a speculative-parallelization machine built on a
//! simultaneously multithreaded core: a Task Spawn Unit splits the fetch
//! stream into control-equivalent tasks, a shared out-of-order backend
//! (512-entry ROB, 64-entry scheduler, 8 FUs) executes them, and a divert
//! queue conservatively synchronizes inter-task register and memory
//! dependences — no value prediction, no selective re-execution (§3.1).
//!
//! # Trace-driven model
//!
//! The paper's simulator is execution-driven; ours replays the retirement
//! trace produced by [`polyflow_isa::execute_window`] (see DESIGN.md §3
//! for the substitution argument). Wrong-path effects appear as per-task
//! fetch stalls: a mispredicted branch freezes only its own task's fetch
//! until resolution, so control-equivalent tasks keep the backend fed —
//! the paper's central effect.
//!
//! # Example
//!
//! [`simulate`] is the one way to run the machine. The superscalar
//! baseline is the same machine with one task and no spawn source.
//!
//! ```
//! use polyflow_core::{Policy, ProgramAnalysis};
//! use polyflow_isa::{execute_window, AluOp, Cond, ProgramBuilder, Reg};
//! use polyflow_sim::{
//!     simulate, MachineConfig, NoSpawn, NullSink, PreparedTrace, SimOptions, SimScratch,
//!     StaticSpawnSource,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! b.begin_function("main");
//! let top = b.fresh_label("top");
//! b.li(Reg::R1, 0);
//! b.bind_label(top);
//! b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
//! b.br_imm(Cond::Lt, Reg::R1, 100, top);
//! b.halt();
//! b.end_function();
//! let program = b.build()?;
//! let trace = execute_window(&program, 100_000)?.trace;
//! let (mut scratch, opts) = (SimScratch::default(), SimOptions::default());
//!
//! let ss = MachineConfig::superscalar();
//! let prepared = PreparedTrace::new(&trace, &ss);
//! let (baseline, _) = simulate(&prepared, &ss, &mut NoSpawn, &mut scratch, &mut NullSink, opts)?;
//!
//! let pf = MachineConfig::hpca07();
//! let prepared = PreparedTrace::new(&trace, &pf);
//! let table = ProgramAnalysis::analyze(&program).spawn_table(Policy::Postdoms);
//! let mut postdoms = StaticSpawnSource::new(table);
//! let (run, _) = simulate(&prepared, &pf, &mut postdoms, &mut scratch, &mut NullSink, opts)?;
//! assert_eq!(baseline.instructions, run.instructions);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Robustness: library code may not `unwrap()` — fallible paths return the
// typed errors in `error.rs`. Tests may (a failed unwrap is the assert).
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod account;
mod branch_pred;
mod cache;
mod config;
mod error;
pub mod events;
pub mod limits;
mod machine;
mod metrics;
mod oracles;
mod profile;
mod spawn_source;
mod store_set;
pub mod timeline;

pub use account::{Bucket, CycleAccount, TaskAccount};
pub use branch_pred::{Gshare, PredictionTrace, ReturnStack};
pub use cache::{Cache, Hierarchy};
pub use config::{CacheConfig, MachineConfig};
pub use error::SimError;
pub use events::{JsonlSink, NullSink, SimEvent, TraceSink};
pub use machine::{simulate, PreparedTrace, SimOptions, SimScratch, SimTelemetry};
pub use metrics::{SimResult, SpawnCounts, SpawnEvent};
pub use oracles::TraceOracles;
pub use profile::PhaseProfile;
pub use spawn_source::{
    HintCacheSource, NoSpawn, ReconvSpawnSource, SpawnSource, StaticSpawnSource,
};
pub use store_set::{DependenceMode, StoreSetPredictor};

#[cfg(test)]
mod tests {
    use super::*;
    use polyflow_core::{Policy, ProgramAnalysis};
    use polyflow_isa::{execute_window, AluOp, Cond, Program, ProgramBuilder, Reg, Trace};
    use polyflow_reconv::ReconvConfig;

    /// The superscalar baseline for [`Policy::None`], else `policy`'s
    /// spawn table on the Figure 8 machine.
    fn simulate_policy(program: &Program, trace: &Trace, policy: Policy) -> SimResult {
        let config = if policy == Policy::None {
            MachineConfig::superscalar()
        } else {
            MachineConfig::hpca07()
        };
        let prepared = PreparedTrace::new(trace, &config);
        let mut scratch = SimScratch::default();
        let opts = SimOptions::default();
        let run = if policy == Policy::None {
            simulate(
                &prepared,
                &config,
                &mut NoSpawn,
                &mut scratch,
                &mut NullSink,
                opts,
            )
        } else {
            let analysis = ProgramAnalysis::analyze(program);
            let mut source = StaticSpawnSource::new(analysis.spawn_table(policy));
            simulate(
                &prepared,
                &config,
                &mut source,
                &mut scratch,
                &mut NullSink,
                opts,
            )
        };
        run.unwrap().0
    }

    /// The dynamic reconvergence-predictor source of §4.4 (cold
    /// predictor, trained online) on the Figure 8 machine.
    fn simulate_reconvergence(trace: &Trace, reconv: ReconvConfig) -> SimResult {
        let config = MachineConfig::hpca07();
        let prepared = PreparedTrace::new(trace, &config);
        let mut source = ReconvSpawnSource::new(reconv);
        let mut scratch = SimScratch::default();
        simulate(
            &prepared,
            &config,
            &mut source,
            &mut scratch,
            &mut NullSink,
            SimOptions::default(),
        )
        .unwrap()
        .0
    }

    #[test]
    fn run_policy_baseline_vs_postdoms() {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        let skip = b.fresh_label("skip");
        b.li(Reg::R1, 0);
        b.li(Reg::R10, 99991);
        b.bind_label(top);
        b.li(Reg::R11, 2654435761);
        b.alu(AluOp::Mul, Reg::R10, Reg::R10, Reg::R11);
        b.alui(AluOp::Srl, Reg::R12, Reg::R10, 13);
        b.alui(AluOp::And, Reg::R12, Reg::R12, 1);
        b.br_imm(Cond::Eq, Reg::R12, 0, skip);
        b.alui(AluOp::Add, Reg::R3, Reg::R3, 7);
        b.bind_label(skip);
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, 300, top);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let trace = execute_window(&p, 100_000).unwrap().trace;

        let base = simulate_policy(&p, &trace, Policy::None);
        let pd = simulate_policy(&p, &trace, Policy::Postdoms);
        assert_eq!(base.instructions, pd.instructions);
        assert!(pd.total_spawns() > 0);
    }

    #[test]
    fn run_reconvergence_executes() {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.bind_label(top);
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, 200, top);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let r = simulate_reconvergence(&trace, ReconvConfig::default());
        assert_eq!(r.instructions as usize, trace.len());
    }
}
